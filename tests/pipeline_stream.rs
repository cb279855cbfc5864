//! Streamed-pipeline identity tests: the pipeline core must render
//! byte-identically from a streamed spec and from the materialized
//! corpus, for *any* shard size and *any* rayon thread count, and match a
//! digest pinned from the separate eager implementation it replaced;
//! re-streaming the same spec must profile zero new kernels. Token
//! counts over every variant axis are pinned too, and must not depend on
//! the thread count or on batching, and so are the generated ids and
//! sources themselves.
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
use parallel_code_estimation::kernels::{
    build_corpus, CorpusConfig, CorpusSpec, Program, VariantAxes,
};
use parallel_code_estimation::tokenizer::{BpeTrainer, Tokenizer};

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

/// FNV-1a digest of the `count_batch` token counts over
/// [`variant_axes_sources`], each as little-endian `u64` bytes, pinned
/// while the tokenizer still counted through a shared chunk cache.
const VARIANT_AXES_COUNT_DIGEST: u64 = 0x2ac9_73c3_7c5b_bf9a;
/// The exact token total of those counts.
const VARIANT_AXES_TOKEN_TOTAL: usize = 3_240_624;

/// Stream slices of the smoke base × `VariantAxes::scale()` spec (72
/// variants per base, CUDA bases first): every variant of the first five
/// CUDA and the first five OMP base programs, so size shifts, precision
/// flips, unroll pragmas and fused epilogues are all counted.
const VARIANT_AXES_SLICES: [std::ops::Range<usize>; 2] = [0..360, 8640..9000];

/// FNV-1a digest of the ids and sources of the paper corpus
/// (`build_corpus(&CorpusConfig::default())`), pinned before program
/// generation rendered its fixed scaffolding once per process.
const PAPER_CORPUS_SOURCE_DIGEST: u64 = 0x677d_1389_1074_1815;
/// The same digest over the [`VARIANT_AXES_SLICES`] programs.
const VARIANT_AXES_SOURCE_DIGEST: u64 = 0xb77c_3a83_5d85_f8c5;

/// The pinned slices' programs, and a tokenizer trained on their sources
/// the way the pipeline trains one: every `tokenizer_stride`-th source at
/// `tokenizer_vocab`.
fn variant_axes_sources() -> (Vec<Program>, Tokenizer) {
    let study = Study::smoke();
    let spec = CorpusSpec {
        base: study.corpus,
        axes: VariantAxes::scale(),
    };
    assert_eq!(spec.axes.expansion_factor(), 72);
    assert_eq!(spec.base.cuda_programs * 72, VARIANT_AXES_SLICES[1].start);
    let programs: Vec<Program> = VARIANT_AXES_SLICES
        .iter()
        .flat_map(|r| spec.stream_range(r.start, r.end))
        .map(|p| p.expect("variant generates"))
        .collect();
    let cfg = &study.pipeline;
    let vocab = BpeTrainer::new(cfg.tokenizer_vocab).train(
        programs
            .iter()
            .step_by(cfg.tokenizer_stride.max(1))
            .map(|p| p.source.as_str()),
    );
    (programs, Tokenizer::new(vocab))
}

/// FNV-1a over each program's id and source, each followed by a NUL so
/// no two lists of programs frame to the same bytes.
fn source_digest(programs: &[Program]) -> u64 {
    let bytes: Vec<u8> = programs
        .iter()
        .flat_map(|p| [p.id.as_bytes(), b"\0", p.source.as_bytes(), b"\0"])
        .flatten()
        .copied()
        .collect();
    fnv1a64(&bytes)
}

#[test]
fn streamed_pipeline_is_byte_identical_across_shards_and_threads() {
    let (spec, study) = smoke_spec();
    let (programs, tokenizer) = variant_axes_sources();

    // Generated text, byte for byte. Only the paper corpus reaches
    // verbosity 3: none of the variant-axes slices carries the reference
    // table.
    let paper = build_corpus(&CorpusConfig::default()).expect("paper corpus builds");
    let with_table = paper
        .iter()
        .filter(|p| p.source.contains("kReferenceTable"))
        .count();
    let with_notes = paper
        .iter()
        .filter(|p| p.source.contains("tuning notes"))
        .count();
    assert_eq!(
        (paper.len(), with_table, with_notes - with_table),
        (749, 115, 224),
        "paper corpus verbosity mix moved"
    );
    assert_eq!(
        (source_digest(&paper), source_digest(&programs)),
        (PAPER_CORPUS_SOURCE_DIGEST, VARIANT_AXES_SOURCE_DIGEST),
        "generated ids or sources moved"
    );

    let texts: Vec<&str> = programs.iter().map(|p| p.source.as_str()).collect();
    let per_text: Vec<usize> = texts.iter().map(|t| tokenizer.count(t)).collect();
    let count_bytes: Vec<u8> = per_text
        .iter()
        .flat_map(|&n| (n as u64).to_le_bytes())
        .collect();
    assert_eq!(
        (fnv1a64(&count_bytes), per_text.iter().sum::<usize>()),
        (VARIANT_AXES_COUNT_DIGEST, VARIANT_AXES_TOKEN_TOTAL),
        "variant-axes token counts moved"
    );

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
        assert_eq!(
            tokenizer.count_batch(&texts),
            per_text,
            "count_batch diverged from per-text count at threads={threads}"
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
