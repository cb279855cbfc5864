//! Golden determinism tests for overload serving: a fixed storm stream
//! (tight deadlines against a bounded queue, a mid-stream `drain`, and
//! post-drain stragglers) must produce byte-identical transcripts across
//! `RAYON_NUM_THREADS`, at every queue depth, with and without wire
//! chaos — and the extended ledger must balance globally and per model.
//!
//! Like `determinism.rs`, everything runs inside one `#[test]` because
//! the vendored rayon re-reads `RAYON_NUM_THREADS` per call and the
//! env-var flip must not race other tests in this binary.

use std::collections::BTreeMap;
use std::io::Cursor;

use parallel_code_estimation::core::serve::{PredictionService, ServeConfig};
use parallel_code_estimation::core::study::{ChaosConfig, Study};
use parallel_code_estimation::fault::WireRates;

/// FNV-1a digests of the `ok`/`err` lines of each storm transcript, by
/// study and queue depth, pinned before the session loop was rewritten.
const STORM_DIGESTS: [(&str, usize, u64); 6] = [
    ("clean", 2, 0xd3c4_7d16_a0ba_ca10),
    ("clean", 4, 0xa5fd_52bf_5e91_1605),
    ("clean", 8, 0x6441_1431_7830_e71d),
    ("chaotic", 2, 0xe0df_c68f_77ce_e053),
    ("chaotic", 4, 0x6ab9_c764_1674_f9f0),
    ("chaotic", 8, 0xba00_0762_2d96_d58a),
];

/// Exact `[completed, shed, expired, breaker_open]` of each clean storm,
/// by queue depth, pinned alongside [`STORM_DIGESTS`].
const CLEAN_COUNTS: [(usize, [u64; 4]); 3] =
    [(2, [4, 29, 0, 0]), (4, [8, 25, 0, 0]), (8, [6, 19, 8, 0])];

/// The storm: 30 tightly-deadlined jobs over the smoke corpus, `drain`,
/// three stragglers the draining server must shed, then `quit`.
fn storm_input(service: &PredictionService) -> String {
    let programs = service.programs();
    let specs = ["rtx-3080", "h100-sxm", "mi250x", "epyc-9654"];
    let models = ["o3-mini", "gpt-4o-mini", "gemini-2.0-flash-001"];
    let job = |tag: &str, i: usize| {
        let p = &programs[(i * 7) % programs.len()];
        format!(
            "predict id={tag}{i} kernel={} spec={} model={} shots={} deadline_ms=20\n",
            p.id,
            specs[i % specs.len()],
            models[i % models.len()],
            if i.is_multiple_of(2) { "zero" } else { "few" },
        )
    };
    let mut input: String = (0..30).map(|i| job("s", i)).collect();
    input.push_str("drain\n");
    for i in 0..3 {
        input.push_str(&job("pd", i));
    }
    input.push_str("quit\n");
    input
}

fn session(study: &Study, input: &str, config: &ServeConfig) -> (String, PredictionService) {
    let service = PredictionService::new(study.clone(), None).expect("service builds");
    let mut out = Vec::new();
    service
        .serve_session(Cursor::new(input.as_bytes().to_vec()), &mut out, config)
        .expect("in-memory session cannot fail on io");
    (
        String::from_utf8(out).expect("responses are utf-8"),
        service,
    )
}

/// Ordered `id=` tokens from the transcript's response lines.
fn answered(transcript: &str) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for line in transcript.lines() {
        if line.starts_with("ok ") || line.starts_with("err ") {
            if let Some(id) = line.split_whitespace().find_map(|t| t.strip_prefix("id=")) {
                *counts.entry(id.to_string()).or_insert(0) += 1;
            }
        }
    }
    counts
}

#[test]
fn storm_transcripts_are_byte_identical_and_ledgers_balance() {
    let clean = Study::smoke();
    let chaotic = {
        let mut study = Study::smoke();
        let mut chaos = ChaosConfig::uniform(0x5702, 0.15);
        chaos.plan = chaos.plan.with_wire(WireRates::uniform(0.15));
        study.chaos = Some(chaos);
        study
    };
    let reference = PredictionService::new(clean.clone(), None).expect("service builds");
    let input = storm_input(&reference);

    for depth in [2usize, 4, 8] {
        let config = ServeConfig {
            batch: 6,
            queue_depth: Some(depth),
            ..ServeConfig::default()
        };
        for (label, study) in [("clean", &clean), ("chaotic", &chaotic)] {
            let mut transcripts = Vec::new();
            for threads in ["1", "4"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let (transcript, service) = session(study, &input, &config);

                // The extended ledger balances globally and per model.
                assert!(service.ledger_balanced(), "{label} depth={depth}");
                let ledger = service.ledger();
                assert!(
                    ledger.balanced(),
                    "{label} depth={depth} global: {ledger:?}"
                );
                for (model, l) in service.ledgers() {
                    assert!(l.balanced(), "{label} depth={depth} {model}: {l:?}");
                }
                let pinned = STORM_DIGESTS
                    .iter()
                    .find(|&&(l, d, _)| l == label && d == depth)
                    .map(|&(_, _, digest)| digest);
                assert_eq!(
                    Some(answers_digest(&transcript)),
                    pinned,
                    "{label} depth={depth} transcript moved:\n{transcript}"
                );

                // The storm actually overloads: something is shed at the
                // tight depths, and the drain sheds the stragglers (wire
                // chaos may disconnect first, so only the clean runs
                // assert on the stragglers).
                assert!(ledger.shed > 0, "{label} depth={depth}: {ledger:?}");
                if label == "clean" {
                    let pinned = CLEAN_COUNTS
                        .iter()
                        .find(|&&(d, _)| d == depth)
                        .map(|&(_, counts)| counts);
                    assert_eq!(
                        Some([
                            ledger.completed,
                            ledger.shed,
                            ledger.expired,
                            ledger.breaker_open
                        ]),
                        pinned,
                        "depth={depth}"
                    );
                    let counts = answered(&transcript);
                    for i in 0..30 {
                        assert_eq!(counts.get(&format!("s{i}")), Some(&1), "depth={depth}");
                    }
                    for i in 0..3 {
                        assert_eq!(counts.get(&format!("pd{i}")), Some(&1), "depth={depth}");
                    }
                    assert!(
                        transcript.lines().any(|l| l.contains("shed=drain")),
                        "{transcript}"
                    );
                }
                transcripts.push(transcript);
            }
            std::env::remove_var("RAYON_NUM_THREADS");
            assert_eq!(
                transcripts[0], transcripts[1],
                "{label} depth={depth}: transcripts diverged across thread counts"
            );
        }
    }

    // Depth changes admission decisions, so the transcripts must *differ*
    // across depths — shedding is load-dependent, not cosmetic.
    let tight = session(
        &clean,
        &input,
        &ServeConfig {
            batch: 6,
            queue_depth: Some(2),
            ..ServeConfig::default()
        },
    );
    let roomy = session(
        &clean,
        &input,
        &ServeConfig {
            batch: 6,
            queue_depth: Some(8),
            ..ServeConfig::default()
        },
    );
    assert_ne!(tight.0, roomy.0);
    assert!(tight.1.ledger().shed > roomy.1.ledger().shed);
}

/// Digest of a transcript's `ok`/`err` lines. `stats` lines are left out
/// because their cache gauges depend on thread scheduling.
fn answers_digest(transcript: &str) -> u64 {
    let answers: String = transcript
        .lines()
        .filter(|l| l.starts_with("ok ") || l.starts_with("err "))
        .map(|l| format!("{l}\n"))
        .collect();
    fnv1a64(answers.as_bytes())
}

/// 64-bit FNV-1a, written out because std's `DefaultHasher` is not
/// stable across Rust releases.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
