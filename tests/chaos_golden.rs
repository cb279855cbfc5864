//! Golden determinism tests for the chaos layer: a fixed `FaultPlan` seed
//! must produce byte-identical reports across serial and parallel rayon
//! execution, and a zero fault rate must be byte-identical to running
//! with no chaos config at all.
//!
//! Like `determinism.rs`, everything runs inside one `#[test]` because the
//! vendored rayon re-reads `RAYON_NUM_THREADS` per call and the env-var
//! flip must not race other tests in this binary.

use parallel_code_estimation::core::caches::SuiteCaches;
use parallel_code_estimation::core::report::{
    render_accounting_csv, render_suite, render_suite_csv,
};
use parallel_code_estimation::core::study::ChaosConfig;
use parallel_code_estimation::core::suite::{run_suite_cached, Suite, SuiteOutcome};
use parallel_code_estimation::roofline::HardwareSpec;

fn chaos_suite(chaos: Option<ChaosConfig>) -> Suite {
    let mut suite = Suite::smoke_with_specs(vec![HardwareSpec::rtx_3080(), HardwareSpec::a100()]);
    // The structure, not the scale, is under test.
    suite.base.corpus.cuda_programs = 90;
    suite.base.corpus.omp_programs = 72;
    suite.base.pipeline.per_combo_cap = 12;
    suite.base.pipeline.tokenizer_vocab = 400;
    suite.base.pipeline.tokenizer_stride = 17;
    suite.base.rq1_rooflines = 16;
    suite.base.chaos = chaos;
    suite
}

fn run_and_render(chaos: Option<ChaosConfig>) -> (SuiteOutcome, String) {
    let suite = chaos_suite(chaos);
    let outcome = run_suite_cached(&suite, &SuiteCaches::new()).expect("smoke axes are valid");
    let rendered = format!(
        "{}\n{}\n{}",
        render_suite(&outcome),
        render_suite_csv(&outcome),
        render_accounting_csv(&outcome),
    );
    (outcome, rendered)
}

#[test]
fn chaos_reports_are_byte_identical_across_thread_counts_and_seeds_pin_faults() {
    let chaos = || Some(ChaosConfig::uniform(42, 0.1));

    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let (serial_outcome, serial) = run_and_render(chaos());

    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4);
    let (parallel_outcome, parallel) = run_and_render(chaos());

    // Byte-identical chaos: the fault plan draws from fingerprints, never
    // from scheduling.
    assert_eq!(
        serial, parallel,
        "chaos reports diverged across thread counts"
    );
    assert_eq!(serial_outcome, parallel_outcome);

    // The chaos actually fired, recovered, and balanced: every injected
    // request is accounted as recovered, invalid, or refused.
    let acc = parallel_outcome.accounting();
    assert!(acc.injected > 0, "fault rate 0.1 must inject: {acc:?}");
    assert!(acc.retried_valid > 0, "retries must recover: {acc:?}");
    assert!(acc.balanced(), "{acc:?}");
    // At a 10% rate every cell still completes (acceptance criterion).
    assert_eq!(
        parallel_outcome.completed().len(),
        parallel_outcome.cells.len()
    );
    assert!(serial.contains("### Response accounting"));
    assert!(serial.contains("Ledger:"));

    // A different seed reproduces a *different* fault pattern…
    let (other_outcome, other) = run_and_render(Some(ChaosConfig::uniform(43, 0.1)));
    assert_ne!(serial, other, "seed must pin the fault pattern");
    assert!(other_outcome.accounting().balanced());

    // …while a zero fault rate is byte-identical to no chaos at all, with
    // an all-quiet ledger and no accounting sections.
    let (_, zero_rate) = run_and_render(Some(ChaosConfig::uniform(42, 0.0)));
    let (clean_outcome, clean) = run_and_render(None);
    assert_eq!(zero_rate, clean, "fault-rate 0 must not perturb reports");
    assert!(!clean_outcome.accounting().faulted());
    assert!(!clean.contains("### Response accounting"));
}
