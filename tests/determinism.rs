//! Golden determinism tests: every rendered artifact must be
//! byte-identical across repeated runs *and* across serial vs parallel
//! rayon execution — the fan-out over specs, models, and samples must
//! never reorder or perturb results.
//!
//! The vendored rayon re-reads `RAYON_NUM_THREADS` on every parallel
//! call (real rayon reads it once at pool init), which lets this test
//! toggle serial execution in-process. Everything runs inside one `#[test]`
//! so the env-var flip cannot race a concurrently running test in this
//! binary.

use parallel_code_estimation::core::caches::SuiteCaches;
use parallel_code_estimation::core::report::{
    render_flips_csv, render_suite, render_suite_csv, render_table1,
};
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::core::suite::{run_suite_cached, Suite};
use parallel_code_estimation::core::table1::{build_table1_from_bank_cached, Rq1Bank};
use parallel_code_estimation::roofline::HardwareSpec;

/// FNV-1a digest of [`render_everything`], pinned while the pipeline
/// still had a separate eager implementation and every batch layer had
/// its cache-free entry points.
const EVERYTHING_DIGEST: u64 = 0x957d_f7ec_d5d0_4fb5;

/// Render every artifact the golden test guards: the smoke-scale Table 1
/// and the full suite report (markdown + both CSVs).
fn render_everything() -> String {
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");
    let caches = SuiteCaches::new();
    let bank = Rq1Bank::build_cached(&study, &caches.llm);
    let table = build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &caches).table;

    let suite = Suite::smoke_with_specs(vec![
        HardwareSpec::rtx_3080(),
        HardwareSpec::a100(),
        HardwareSpec::mi250x(),
    ]);
    let outcome =
        run_suite_cached(&suite, &SuiteCaches::new()).expect("smoke suite axes are valid");

    format!(
        "{}\n{}\n{}\n{}",
        render_table1(&table),
        render_suite(&outcome),
        render_suite_csv(&outcome),
        render_flips_csv(&outcome),
    )
}

#[test]
fn artifacts_render_byte_identically_across_runs_and_thread_counts() {
    // One run at the default thread budget (whatever the machine offers).
    let default_run = render_everything();
    assert_eq!(
        fnv1a64(default_run.as_bytes()),
        EVERYTHING_DIGEST,
        "rendered artifacts moved"
    );
    assert!(!default_run.is_empty());

    // Two genuinely multi-threaded runs: force 4 workers even on a
    // single-core CI box.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(
        rayon::current_num_threads(),
        4,
        "vendored rayon must honor RAYON_NUM_THREADS"
    );
    let parallel_a = render_everything();
    let parallel_b = render_everything();
    assert_eq!(parallel_a, parallel_b, "two parallel runs diverged");

    // One serial run: same bytes, proving the rayon fan-out neither
    // reorders results nor perturbs accumulated costs.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let serial = render_everything();
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(parallel_a, serial, "serial vs parallel rendering diverged");
    assert_eq!(
        parallel_a, default_run,
        "default-budget vs pinned-budget rendering diverged"
    );
}

/// 64-bit FNV-1a, written out because std's `DefaultHasher` is not
/// stable across Rust releases.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
