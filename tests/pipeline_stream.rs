//! Streamed-pipeline identity tests: the pipeline core must render
//! byte-identically from a streamed spec and from the materialized
//! corpus, for *any* shard size and *any* rayon thread count, and match a
//! digest pinned from the separate eager implementation it replaced;
//! re-streaming the same spec must profile zero new kernels.
//!
//! The vendored rayon re-reads `RAYON_NUM_THREADS` on every parallel
//! call, which lets the identity test toggle thread budgets in-process.
//! The env-var flip lives inside one `#[test]` so it cannot race another
//! env-flipping test in this binary.

use parallel_code_estimation::core::study::Study;
use parallel_code_estimation::dataset::{
    run_pipeline_cached, run_pipeline_streamed, tokenize_corpus, Dataset, PipelineReport, Split,
};
use parallel_code_estimation::gpu_sim::SimCaches;
use parallel_code_estimation::kernels::{CorpusSpec, VariantAxes};

/// The full observable output of one pipeline run: dataset JSON, split
/// JSON, and the funnel report JSON — everything a downstream consumer
/// sees.
fn render(dataset: &Dataset, split: &Split, report: &PipelineReport) -> String {
    format!(
        "{}\n{}\n{}",
        dataset.to_json().expect("dataset serializes"),
        serde_json::to_string(split).expect("split serializes"),
        serde_json::to_string(report).expect("report serializes"),
    )
}

/// FNV-1a digest of [`render`] over the smoke spec, pinned while the
/// pipeline still had a separate eager implementation: it keeps the
/// shared core's output tied to those bytes.
const SMOKE_SPEC_DIGEST: u64 = 0x86f8_416e_1d78_2699;

/// A smoke-scale variant-expanded spec: 210 base programs × unroll/
/// precision axes. Small enough for debug-build CI, expanded enough that
/// sharding and dedup both do real work.
fn smoke_spec() -> (CorpusSpec, Study) {
    let study = Study::smoke();
    let spec = CorpusSpec {
        base: study.corpus,
        axes: VariantAxes {
            size_shifts: Vec::new(),
            flip_precision: true,
            unroll: vec![4],
            fused: Vec::new(),
        },
    };
    (spec, study)
}

#[test]
fn streamed_pipeline_is_byte_identical_across_shards_and_threads() {
    let (spec, study) = smoke_spec();

    // The ground truth: materialize the whole expanded corpus and run the
    // in-memory pipeline over it.
    let corpus: Vec<_> = spec
        .stream()
        .collect::<Result<_, _>>()
        .expect("corpus streams");
    let caches = SimCaches::default();
    let tokenized = tokenize_corpus(&corpus, &study.pipeline);
    let (dataset, split, report) =
        run_pipeline_cached(&corpus, &tokenized, &study.pipeline, &caches);
    let golden = render(&dataset, &split, &report);
    assert_eq!(
        fnv1a64(golden.as_bytes()),
        SMOKE_SPEC_DIGEST,
        "the in-memory pipeline's bytes moved"
    );

    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            rayon::current_num_threads(),
            threads.parse::<usize>().expect("thread count parses"),
            "vendored rayon must honor RAYON_NUM_THREADS"
        );
        for shard_size in [1, 37, 256, usize::MAX] {
            let caches = SimCaches::default();
            let (dataset, split, report) =
                run_pipeline_streamed(&spec, &study.pipeline, &caches, shard_size)
                    .expect("streamed pipeline runs");
            assert_eq!(
                golden,
                render(&dataset, &split, &report),
                "streamed output diverged at shard_size={shard_size}, threads={threads}"
            );
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn restreaming_the_same_seed_profiles_zero_new_kernels() {
    let (spec, study) = smoke_spec();
    let caches = SimCaches::default();

    let (_, _, first) =
        run_pipeline_streamed(&spec, &study.pipeline, &caches, 64).expect("first stream runs");
    assert!(
        first.dedup.duplicates > 0,
        "variant expansion must produce duplicate profile fingerprints"
    );
    let misses_after_first = caches.profiles().counters().misses;
    assert!(misses_after_first > 0, "first stream profiles kernels");

    // Same spec, same caches: every profile is a memo hit.
    let (_, _, second) =
        run_pipeline_streamed(&spec, &study.pipeline, &caches, 64).expect("second stream runs");
    assert_eq!(
        caches.profiles().counters().misses,
        misses_after_first,
        "re-streaming the same seed must profile zero new kernels"
    );
    assert_eq!(first.dedup, second.dedup, "dedup accounting must be stable");
}

/// 64-bit FNV-1a, written out because std's `DefaultHasher` is not
/// stable across Rust releases.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
