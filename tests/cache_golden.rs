//! Golden cache-correctness tests: every memoization layer added by the
//! suite-scale caching PR must be *unobservable* in the artifacts.
//!
//! Cold caches, a freshly-populated bundle, a fully-warm bundle reused
//! across runs, and any `RAYON_NUM_THREADS` must all render
//! byte-identical reports — `total_cost` included, since billing derives
//! from integer token totals over byte-identical prompts.
//!
//! Everything runs inside one `#[test]` so the env-var flip cannot race
//! a concurrently running test in this binary (same pattern as
//! `tests/determinism.rs`).

use parallel_code_estimation::core::caches::{CacheBudget, CacheReport, SuiteCaches};
use parallel_code_estimation::core::report::{
    render_flips_csv, render_suite, render_suite_csv, render_table1,
};
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::core::suite::{run_suite_cached, Suite, SuiteOutcome};
use parallel_code_estimation::core::table1::{build_table1_from_bank_cached, Rq1Bank};
use parallel_code_estimation::llm::{CacheCounters, LlmCaches};
use parallel_code_estimation::roofline::HardwareSpec;

/// Every counter of the 1-thread run of [`tiny_suite`] on a
/// `CacheBudget::uniform(96 * 1024)` bundle. At one thread the vendored
/// rayon runs in index order, so the eviction sequence is fixed. The
/// `analysis`, `classify_parse`, `rq1_parse` and `prompt_renders` rows
/// were pinned before the three per-crate budget types became one. The
/// `summary` and `profile` rows also depend on what a profile-memo entry
/// is charged, its key plus its `KernelObservation`: a smaller charge
/// evicts fewer profiles, so fewer launches are re-profiled and fewer
/// summaries looked up again.
const TIGHT_SERIAL_REPORT: CacheReport = CacheReport {
    summary: counters(81, 368, 275, 87_163),
    profile: counters(37, 449, 349, 92_053),
    analysis: counters(595, 1_303, 1_272, 46_549),
    classify_parse: counters(0, 2_160, 2_149, 62_180),
    rq1_parse: counters(0, 1_344, 1_340, 9_552),
    prompt_renders: 240,
};

const fn counters(hits: u64, misses: u64, evictions: u64, resident_bytes: u64) -> CacheCounters {
    CacheCounters {
        hits,
        misses,
        evictions,
        resident_bytes,
    }
}

fn tiny_suite() -> Suite {
    let mut suite = Suite::smoke_with_specs(vec![
        HardwareSpec::rtx_3080(),
        HardwareSpec::h100_sxm(),
        HardwareSpec::mi250x(),
    ]);
    // Small enough for CI; three specs exercise real label flips.
    suite.base.corpus.cuda_programs = 90;
    suite.base.corpus.omp_programs = 72;
    suite.base.rq1_rooflines = 16;
    suite.base.pipeline.per_combo_cap = 10;
    suite
}

fn render(outcome: &SuiteOutcome) -> String {
    format!(
        "{}\n{}\n{}",
        render_suite(outcome),
        render_suite_csv(outcome),
        render_flips_csv(outcome),
    )
}

#[test]
fn cached_artifacts_are_byte_identical_across_cache_states_and_thread_counts() {
    let suite = tiny_suite();

    // --- Reference: cold caches, on a fresh bundle.
    let fresh = SuiteCaches::new();
    let cold_outcome = run_suite_cached(&suite, &fresh).unwrap();
    let cold = render(&cold_outcome);
    // Both shot styles × every cell rendered once per sample, and the RQ1
    // bank's parse cache collapsed the per-model re-parsing.
    let expected: usize = cold_outcome
        .completed()
        .iter()
        .map(|s| 2 * s.dataset_ids.len())
        .sum();
    assert_eq!(fresh.prompt_renders() as usize, expected);
    assert!(fresh.report().rq1_parse.hits > 0, "{:?}", fresh.report());

    // --- One shared bundle, exercised twice: the first run populates it,
    // the second is served by the profile memo and analysis caches.
    let caches = SuiteCaches::new();
    let warm_first = render(&run_suite_cached(&suite, &caches).unwrap());
    let warm_second = render(&run_suite_cached(&suite, &caches).unwrap());
    assert_eq!(cold, warm_first, "cold vs freshly-populated bundle");
    assert_eq!(cold, warm_second, "cold vs fully-warm bundle");
    let report = caches.report();
    assert!(report.summary.hits > 0, "{report:?}");
    assert!(report.profile.hits > 0, "{report:?}");
    assert!(report.analysis.hits > 0, "{report:?}");
    assert!(report.classify_parse.hits > 0, "{report:?}");

    // --- Table 1 (single-spec artifact), cold vs warm, total_cost
    // included in the rendered bytes.
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");
    let t_cold = render_table1(
        &build_table1_from_bank_cached(
            &study,
            &data.dataset.samples,
            &Rq1Bank::build_cached(&study, &LlmCaches::new()),
            &SuiteCaches::new(),
        )
        .table,
    );
    let t_caches = SuiteCaches::new();
    let bank = Rq1Bank::build_cached(&study, &t_caches.llm);
    let t_warm = render_table1(
        &build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &t_caches).table,
    );
    let t_warm2 = render_table1(
        &build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &t_caches).table,
    );
    assert_eq!(t_cold, t_warm, "Table 1 cold vs warm");
    assert_eq!(t_cold, t_warm2, "Table 1 cold vs fully-warm");

    // --- Thread-count invariance, on the already-warm shared bundle and
    // on a cold one, forced through genuinely different rayon budgets.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4);
    let warm_parallel = render(&run_suite_cached(&suite, &caches).unwrap());
    let cold_parallel = render(&run_suite_cached(&suite, &SuiteCaches::new()).unwrap());
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let warm_serial = render(&run_suite_cached(&suite, &caches).unwrap());
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(warm_parallel, warm_serial, "warm: 4 threads vs 1 thread");
    assert_eq!(cold, warm_parallel, "default vs pinned thread budgets");
    assert_eq!(cold, cold_parallel, "cold parallel rerun diverged");

    // --- Bounded bundles: a budget tight enough to evict mid-run must
    // still render the cold-cache bytes, at any thread count. Evictions
    // cost recomputation, never answers.
    let tight = CacheBudget::uniform(96 * 1024);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let evicting = SuiteCaches::with_budget(tight);
    let bounded_parallel = render(&run_suite_cached(&suite, &evicting).unwrap());
    let report = evicting.report();
    assert!(
        report.total_evictions() > 0,
        "budget never evicted: {report:?}"
    );
    assert!(
        report.total_resident_bytes() <= 5 * 96 * 1024,
        "resident bytes exceed the five per-cache budgets: {report:?}"
    );
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial_caches = SuiteCaches::with_budget(tight);
    let bounded_serial = render(&run_suite_cached(&suite, &serial_caches).unwrap());
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(cold, bounded_parallel, "bounded (evicting) vs cold");
    assert_eq!(cold, bounded_serial, "bounded: 1 thread vs cold");
    assert_eq!(serial_caches.report(), TIGHT_SERIAL_REPORT);

    // --- The degenerate budget: a 1-byte cap means every insert is
    // immediately evicted (all-miss), and the artifacts still hold.
    let all_miss = SuiteCaches::with_budget(CacheBudget::uniform(1));
    assert_eq!(
        cold,
        render(&run_suite_cached(&suite, &all_miss).unwrap()),
        "capacity-1 (all-miss) bundle diverged"
    );
    let report = all_miss.report();
    assert_eq!(
        report.summary.hits, 0,
        "1-byte budget cannot retain entries: {report:?}"
    );
    assert_eq!(report.profile.hits, 0, "{report:?}");
}
