//! Fuzz-style property tests for the serve line protocol: whatever byte
//! stream a client throws at a session — junk lines, truncated or
//! spliced commands, interleaved `stats`/`drain`/`quit`, tight deadlines
//! against a bounded queue — the server must never panic, must answer
//! every processed line with exactly one response line, and must keep
//! the extended ledger balanced. A job's own protocol line, its
//! `Display`, must parse back to the same job.
//!
//! The services are built once per process (corpus construction
//! dominates) and shared across proptest cases; the ledger invariant is
//! cumulative, so sharing strengthens rather than weakens the check.

use std::io::Cursor;
use std::sync::OnceLock;

use proptest::prelude::*;

use parallel_code_estimation::core::serve::{
    decode_src, Command, Job, PredictionService, ServeConfig, STATIC_MODEL,
};
use parallel_code_estimation::core::study::{ChaosConfig, Study};
use parallel_code_estimation::fault::WireRates;
use parallel_code_estimation::prompt::ShotStyle;

fn service() -> &'static PredictionService {
    static SERVICE: OnceLock<PredictionService> = OnceLock::new();
    SERVICE.get_or_init(|| PredictionService::new(Study::smoke(), None).expect("service builds"))
}

/// A second service with engine + wire chaos switched on, for the
/// torn-line/disconnect/stall paths.
fn chaotic_service() -> &'static PredictionService {
    static SERVICE: OnceLock<PredictionService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let mut study = Study::smoke();
        let mut chaos = ChaosConfig::uniform(0xf422, 0.2);
        chaos.plan = chaos.plan.with_wire(WireRates::uniform(0.25));
        study.chaos = Some(chaos);
        PredictionService::new(study, None).expect("service builds")
    })
}

/// A predict line over the smoke corpus (the kernel is real; spec and
/// model may or may not resolve, which must only ever produce an `err`
/// response, never a panic).
fn predict_line(code: u64) -> String {
    let programs = service().programs();
    let kernel = &programs[(code >> 8) as usize % programs.len()].id;
    let specs = ["rtx-3080", "h100-sxm", "epyc-9654", "not-a-spec"];
    let models = ["o3-mini", "gpt-4o-mini", "not-a-model"];
    format!(
        "predict id=f{} kernel={kernel} spec={} model={} shots={}",
        code % 997,
        specs[(code >> 16) as usize % specs.len()],
        models[(code >> 18) as usize % models.len()],
        if code & 1 == 0 { "zero" } else { "few" },
    )
}

/// Expand one random code (plus a pool of junk strings) into a protocol
/// line: mostly predicts, with control verbs, junk, deadline-carrying
/// jobs (when `deadlines` — an expired job answers out of request
/// order, so the strict-order property excludes them), and truncations.
/// Half the deadlines are tight and half lie near `u64::MAX`, where the
/// expiry arithmetic must saturate once wire stalls move the clock.
fn build_line(code: u64, junk: &[String], deadlines: bool) -> String {
    match code % 8 {
        0..=2 => predict_line(code),
        3 if deadlines => {
            let spread = (code >> 20) % 40;
            let deadline = if code & 0x200 == 0 {
                spread
            } else {
                u64::MAX - spread
            };
            format!("{} deadline_ms={deadline}", predict_line(code))
        }
        3 => predict_line(code),
        4 => "stats".to_string(),
        5 => {
            if code & 0x100 == 0 {
                "drain".to_string()
            } else {
                "quit".to_string()
            }
        }
        6 => junk
            .get((code >> 8) as usize % junk.len().max(1))
            .cloned()
            .unwrap_or_else(|| "garbage line".to_string()),
        _ => {
            let full = predict_line(code);
            let mut cut = (code >> 24) as usize % (full.len() + 1);
            while cut > 0 && !full.is_char_boundary(cut) {
                cut -= 1;
            }
            full[..cut].to_string()
        }
    }
}

/// The oracle: replay `Command::parse` over the stream the way the
/// session does (skip blank lines, stop at `quit`) and predict the
/// response count and the ordered list of answered predict ids.
fn expected(lines: &[String]) -> (usize, Vec<String>, bool) {
    let mut responses = 0usize;
    let mut ids = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Command::parse(line) {
            Ok(Command::Quit) => return (responses, ids, true),
            Ok(Command::Predict(job)) => {
                responses += 1;
                ids.push(job.id);
            }
            Ok(_) | Err(_) => responses += 1,
        }
    }
    (responses, ids, false)
}

/// Pull the ordered `id=` tokens out of a transcript's ok/err lines,
/// skipping the parse-error placeholder id `-`.
fn answered_ids(transcript: &str) -> Vec<String> {
    transcript
        .lines()
        .filter(|l| l.starts_with("ok ") || l.starts_with("err "))
        .filter_map(|l| l.split_whitespace().find_map(|t| t.strip_prefix("id=")))
        .filter(|id| *id != "-")
        .map(str::to_string)
        .collect()
}

fn run(service: &PredictionService, lines: &[String], config: &ServeConfig) -> String {
    let input = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let mut out = Vec::new();
    service
        .serve_session(Cursor::new(input.into_bytes()), &mut out, config)
        .expect("in-memory session cannot fail on io");
    String::from_utf8(out).expect("responses are utf-8")
}

proptest! {
    #[test]
    fn command_parse_never_panics(line in "\\PC{0,120}") {
        let _ = Command::parse(&line);
    }

    #[test]
    fn escapes_that_are_not_two_hex_digits_are_rejected(
        prefix in "[!-$&-<>-~]{0,20}",
        digit in "[0-9a-fA-F]",
        bad in "[!-/:-<>-@G-`g-~]",
        other in "[!-<>-~]",
        shape in 0u8..4,
        suffix in "[!-$&-<>-~]{0,20}",
    ) {
        // A signed digit (`%+A` is what `u8::from_str_radix` accepts), or
        // a non-hex character on either side. No `%`, whitespace or `=`
        // outside the escape, so the escape is the line's only defect.
        let pair = match shape {
            0 => format!("+{digit}"),
            1 => format!("-{digit}"),
            2 => format!("{bad}{other}"),
            _ => format!("{other}{bad}"),
        };
        let src = format!("{prefix}%{pair}{suffix}");
        let err = decode_src(&src).expect_err("non-hex escape decoded");
        prop_assert_eq!(err.kind(), "parse");
        let err = Command::parse(&format!("predict id=a src={src} spec=rtx-3080"))
            .expect_err("non-hex escape accepted");
        prop_assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn job_display_round_trips_through_parse(
        id in "[!-~]{1,16}",
        kernel in "[!-~]{1,16}",
        spec in "[!-~]{1,16}",
        model in "[!-~]{1,16}",
        few in 0u8..2,
        src_lines in prop::collection::vec("\\PC{0,40}", 0..6),
        deadline in 0u64..u64::MAX,
    ) {
        let style = if few == 1 { ShotStyle::FewShot } else { ShotStyle::ZeroShot };
        for deadline_ms in [None, Some(deadline)] {
            let corpus = Job {
                id: id.clone(),
                kernel: kernel.clone(),
                spec: spec.clone(),
                model: model.clone(),
                style,
                deadline_ms,
                src: None,
            };
            // Raw-source jobs carry the fields `Command::parse` fills in.
            let raw = Job {
                kernel: "-".to_string(),
                model: STATIC_MODEL.to_string(),
                style: ShotStyle::ZeroShot,
                src: Some(src_lines.join("\n")),
                ..corpus.clone()
            };
            for job in [corpus, raw] {
                prop_assert_eq!(
                    Command::parse(&job.to_string()),
                    Ok(Command::Predict(job.clone()))
                );
            }
        }
    }

    #[test]
    fn classic_sessions_answer_every_line_in_order(
        codes in prop::collection::vec(0u64..u64::MAX, 0..24),
        junk in prop::collection::vec("[ -~]{0,60}", 1..4),
    ) {
        let lines: Vec<String> = codes.iter().map(|&c| build_line(c, &junk, false)).collect();
        let transcript = run(service(), &lines, &ServeConfig::classic(5));
        let (want_responses, want_ids, quit) = expected(&lines);
        // One response per processed line, plus the EOF stats line when
        // the stream never said quit.
        let got = transcript.lines().count();
        prop_assert_eq!(got, want_responses + usize::from(!quit), "{}", transcript);
        // Unbounded sessions answer predicts in request order.
        prop_assert_eq!(answered_ids(&transcript), want_ids, "{}", transcript);
        prop_assert!(service().ledger_balanced());
        for line in transcript.lines() {
            prop_assert!(
                line.starts_with("ok ") || line.starts_with("err ") || line.starts_with("stats "),
                "{line}"
            );
        }
    }

    #[test]
    fn bounded_sessions_answer_every_predict_exactly_once(
        codes in prop::collection::vec(0u64..u64::MAX, 0..24),
        junk in prop::collection::vec("[ -~]{0,60}", 1..4),
        depth in 1usize..6,
        deadline in 0u64..50,
    ) {
        let lines: Vec<String> = codes.iter().map(|&c| build_line(c, &junk, true)).collect();
        let config = ServeConfig {
            batch: 4,
            queue_depth: Some(depth),
            // deadline < 40 exercises admission/completion expiry; larger
            // values leave the default (no deadline) path in play too.
            default_deadline_ms: if deadline < 40 { Some(deadline) } else { None },
        };
        let transcript = run(service(), &lines, &config);
        let (want_responses, want_ids, quit) = expected(&lines);
        prop_assert_eq!(
            transcript.lines().count(),
            want_responses + usize::from(!quit),
            "{}", transcript
        );
        // Sheds answer out of order (immediately), but every predict is
        // still answered exactly once.
        let mut got = answered_ids(&transcript);
        let mut want = want_ids;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "{}", transcript);
        prop_assert!(service().ledger_balanced());
    }

    #[test]
    fn chaotic_sessions_never_panic_and_stay_balanced(
        codes in prop::collection::vec(0u64..u64::MAX, 0..24),
        junk in prop::collection::vec("[ -~]{0,60}", 1..4),
        depth in 0usize..6,
    ) {
        // Wire faults tear/drop/stall lines, so the response-count oracle
        // no longer applies; surviving without panicking, answering only
        // well-formed one-liners, and keeping the ledger balanced is the
        // property under test.
        let lines: Vec<String> = codes.iter().map(|&c| build_line(c, &junk, true)).collect();
        let config = ServeConfig {
            batch: 4,
            queue_depth: if depth == 0 { None } else { Some(depth) },
            default_deadline_ms: Some(30),
        };
        let transcript = run(chaotic_service(), &lines, &config);
        for line in transcript.lines() {
            prop_assert!(
                line.starts_with("ok ") || line.starts_with("err ") || line.starts_with("stats "),
                "{line}"
            );
        }
        prop_assert!(chaotic_service().ledger_balanced());
    }
}
