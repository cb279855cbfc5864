//! Integration tests for the prediction service: the line protocol end
//! to end, transcript invariance across admission batch sizes and cache
//! bounds, and ledger balance.
//!
//! Everything runs inside one `#[test]` so the `RAYON_NUM_THREADS` flip
//! cannot race another test in this binary (same pattern as
//! `tests/determinism.rs` and `tests/cache_golden.rs`).

use std::io::Cursor;

use parallel_code_estimation::core::caches::CacheBudget;
use parallel_code_estimation::core::serve::{Command, Job, PredictionService, ServeConfig};
use parallel_code_estimation::core::study::Study;
use parallel_code_estimation::prompt::ShotStyle;

/// FNV-1a digest of the `ok`/`err` lines of the batch-24 reference
/// transcript, pinned before the session loop and the batch answer path
/// were rewritten.
const REFERENCE_DIGEST: u64 = 0xb647_75a4_fd05_dbec;

/// A small deterministic job mix over the smoke corpus: every job is a
/// protocol line so the same bytes drive `serve_session`.
fn job_lines(service: &PredictionService) -> Vec<String> {
    let programs = service.programs();
    let specs = ["rtx-3080", "h100-sxm", "mi250x", "epyc-9654"];
    let models = ["o3-mini", "gpt-4o-mini", "gemini-2.0-flash-001"];
    (0..24)
        .map(|i| {
            let p = &programs[(i * 7) % programs.len()];
            format!(
                "predict id=j{i} kernel={} spec={} model={} shots={}",
                p.id,
                specs[i % specs.len()],
                models[i % models.len()],
                if i % 2 == 0 { "zero" } else { "few" },
            )
        })
        .collect()
}

/// Run a full protocol session and return the response transcript.
fn session(service: &PredictionService, input: &str, batch: usize) -> String {
    let mut out = Vec::new();
    service
        .serve_session(
            Cursor::new(input.as_bytes()),
            &mut out,
            &ServeConfig::classic(batch),
        )
        .expect("session runs");
    String::from_utf8(out).expect("transcript is UTF-8")
}

#[test]
fn serve_protocol_is_deterministic_bounded_and_ledger_balanced() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let study = Study::smoke();
    let service = PredictionService::new(study.clone(), None).expect("service builds");
    let lines = job_lines(&service);
    let input = format!("{}\nstats\nquit\n", lines.join("\n"));

    // --- The happy path: every job answers with a well-formed ok line,
    // in request order, and the trailing stats line balances.
    let transcript = session(&service, &input, 8);
    let rows: Vec<&str> = transcript.lines().collect();
    assert_eq!(rows.len(), lines.len() + 1, "{transcript}");
    for (i, row) in rows[..lines.len()].iter().enumerate() {
        assert!(row.starts_with(&format!("ok id=j{i} ")), "{row}");
        assert!(
            row.contains("prediction=") && row.contains("truth=") && row.contains("correct="),
            "{row}"
        );
    }
    let stats = rows[lines.len()];
    assert!(stats.starts_with("stats jobs=24 "), "{stats}");
    assert!(stats.contains("ledger_balanced=true"), "{stats}");
    assert!(service.ledger_balanced());
    assert_eq!(service.ledger().admitted, 24);

    // --- Batch-size invariance: the same stream, admitted 1, 5, or all
    // at a time, produces byte-identical response transcripts (stats
    // excluded — cache totals legitimately differ with grouping).
    let predict_only = format!("{}\nquit\n", lines.join("\n"));
    let reference = session(
        &PredictionService::new(study.clone(), None).expect("service builds"),
        &predict_only,
        24,
    );
    assert_eq!(
        answers_digest(&reference),
        REFERENCE_DIGEST,
        "reference transcript moved:\n{reference}"
    );
    for batch in [1, 5, 100] {
        let got = session(
            &PredictionService::new(study.clone(), None).expect("service builds"),
            &predict_only,
            batch,
        );
        assert_eq!(reference, got, "batch={batch} diverged");
    }

    // --- Bounded-vs-unbounded identity: a tiny budget forces evictions
    // yet the response bytes cannot change.
    let bounded = PredictionService::new(study.clone(), Some(CacheBudget::uniform(64 * 1024)))
        .expect("service builds");
    let got = session(&bounded, &predict_only, 8);
    assert_eq!(reference, got, "bounded transcript diverged");
    let report = bounded.caches().report();
    assert!(report.total_evictions() > 0, "{report:?}");
    assert!(bounded.ledger_balanced());

    // --- Thread-count invariance on a fresh bounded service.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = PredictionService::new(study.clone(), Some(CacheBudget::uniform(64 * 1024)))
        .expect("service builds");
    let got = session(&serial, &predict_only, 8);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(reference, got, "serial transcript diverged");

    // --- Bad jobs get err lines and never poison the batch around them.
    let mixed = "predict id=ok1 kernel=KER spec=rtx-3080 model=o3-mini shots=zero\n\
                 predict id=bad1 kernel=nope spec=rtx-3080 model=o3-mini shots=zero\n\
                 predict id=bad2 kernel=KER spec=not-a-spec model=o3-mini shots=zero\n\
                 predict id=bad3 kernel=KER spec=rtx-3080 model=not-a-model shots=few\n\
                 garbage line\n\
                 quit\n";
    let service = PredictionService::new(study, None).expect("service builds");
    let kernel = service.programs()[0].id.clone();
    let transcript = session(&service, &mixed.replace("KER", &kernel), 100);
    let rows: Vec<&str> = transcript.lines().collect();
    assert_eq!(rows.len(), 5, "{transcript}");
    // The malformed line errors immediately (before the batch flushes).
    assert!(rows[0].starts_with("err id=- kind=parse"), "{}", rows[0]);
    assert!(rows[1].starts_with("ok id=ok1 "), "{}", rows[1]);
    assert!(rows[2].starts_with("err id=bad1 kind=spec"), "{}", rows[2]);
    assert!(rows[3].starts_with("err id=bad2 kind=spec"), "{}", rows[3]);
    assert!(rows[4].starts_with("err id=bad3 kind=spec"), "{}", rows[4]);
    assert!(service.ledger_balanced());

    // --- Protocol edges: EOF without quit flushes pending jobs; parse
    // round-trips the documented grammar.
    let service2 = PredictionService::new(Study::smoke(), None).expect("service builds");
    let kernel = service2.programs()[0].id.clone();
    let eof_input = format!("predict id=x kernel={kernel} spec=rtx-3080 model=o3-mini shots=few\n");
    let transcript = session(&service2, &eof_input, 100);
    assert!(transcript.starts_with("ok id=x "), "{transcript}");
    assert_eq!(
        Command::parse(&format!(
            "predict id=x kernel={kernel} spec=rtx-3080 model=o3-mini shots=few"
        )),
        Ok(Command::Predict(Job {
            id: "x".into(),
            kernel,
            spec: "rtx-3080".into(),
            model: "o3-mini".into(),
            style: ShotStyle::FewShot,
            deadline_ms: None,
            src: None,
        }))
    );
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
