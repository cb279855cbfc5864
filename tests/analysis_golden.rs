//! Byte-identity goldens for the static analyzer: the serialized output
//! of `diagnose` and of `analyze` (loop-aware and shallow) over the paper
//! corpus plus the three racy fixtures, and over a sample of variant
//! sources, pinned as FNV-1a digests. Any change to the lexer, kernel
//! recovery, estimator or lint rules that moves one finding, one tally or
//! one message moves a digest.

use parallel_code_estimation::core::study::Study;
use parallel_code_estimation::kernels::{build_corpus, CorpusConfig, CorpusSpec, VariantAxes};
use parallel_code_estimation::static_analysis::{analyze, diagnose, AnalyzeOptions};

/// FNV-1a of the `diagnose` JSON lines, pinned before the lexer handed
/// out borrowed tokens.
const DIAGNOSE_DIGEST: u64 = 0x00a9_4ae6_72bb_5fbc;
/// The same over `analyze(.., &AnalyzeOptions::default())`.
const ANALYZE_DIGEST: u64 = 0x0075_df76_d623_d703;
/// The same over `analyze` with `loop_aware: false`.
const ANALYZE_SHALLOW_DIGEST: u64 = 0xcacc_22cd_54e6_685c;

/// The (`diagnose`, `analyze`, shallow `analyze`) digests over every
/// [`VARIANT_STRIDE`]th program of the smoke corpus under
/// `VariantAxes::scale()`: sources with unroll pragmas, fused epilogues,
/// size shifts and precision flips, which the paper corpus lacks.
const VARIANT_DIGESTS: (u64, u64, u64) = (
    0x348f_2644_cb06_b568,
    0x7cb2_3eb7_0326_8ad3,
    0xb813_9ad3_529e_44ba,
);
/// Sampling stride over the 15,120 variant programs: 156 sources from
/// all 30 families.
const VARIANT_STRIDE: usize = 97;

/// Tree reduction with the loop barrier deleted: `shared-race`.
const SHARED_RACE_SRC: &str = "__global__ void reduce_sum(const float* x, float* out, int n) {\n    __shared__ float buf[256];\n    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    buf[threadIdx.x] = (i < n) ? x[i] : 0.0f;\n    __syncthreads();\n    for (int s = 128; s > 0; s >>= 1) {\n        if (threadIdx.x < s) { buf[threadIdx.x] += buf[threadIdx.x + s]; }\n    }\n    if (threadIdx.x == 0) { out[blockIdx.x] = buf[0]; }\n}\n";

/// Histogram bins indexed by data, not by thread: `global-race`.
const GLOBAL_RACE_SRC: &str = "__global__ void hist(long n, const int* data, int* bins) {\n\
                               \x20 long i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                               \x20 if (i < n) bins[data[i] & 255] += 1;\n}\n";

/// Accumulation across parallel iterations without a `reduction(...)`
/// clause: `omp-reduction`.
const OMP_REDUCTION_SRC: &str = "float sum = 0;\n\
                                 #pragma omp target teams distribute parallel for map(to: x[0:n])\n\
                                 for (long i = 0; i < n; i++) sum += x[i];\n";

#[test]
fn analyzer_output_is_pinned_over_the_paper_corpus_and_racy_fixtures() {
    let corpus = build_corpus(&CorpusConfig::default()).expect("paper corpus builds");
    let sources: Vec<&str> = corpus
        .iter()
        .map(|p| p.source.as_str())
        .chain([SHARED_RACE_SRC, GLOBAL_RACE_SRC, OMP_REDUCTION_SRC])
        .collect();
    assert_eq!(sources.len(), 752);
    let (digests, findings) = analyzer_digests(&sources);
    assert!(findings > 0, "the racy fixtures must produce findings");
    assert_eq!(
        digests,
        (DIAGNOSE_DIGEST, ANALYZE_DIGEST, ANALYZE_SHALLOW_DIGEST),
        "analyzer output moved"
    );

    let spec = CorpusSpec {
        base: Study::smoke().corpus,
        axes: VariantAxes::scale(),
    };
    let variants: Vec<String> = (0..spec.len())
        .step_by(VARIANT_STRIDE)
        .map(|k| spec.program(k).expect("variant builds").source)
        .collect();
    assert_eq!(variants.len(), 156);
    let variants: Vec<&str> = variants.iter().map(String::as_str).collect();
    let (digests, findings) = analyzer_digests(&variants);
    assert_eq!(
        digests, VARIANT_DIGESTS,
        "analyzer output moved on variants"
    );
    assert_eq!(findings, 70);
}

/// The (`diagnose`, `analyze`, shallow `analyze`) digests over `sources`,
/// one JSON line per source each, plus the total number of findings.
fn analyzer_digests(sources: &[&str]) -> ((u64, u64, u64), usize) {
    let shallow = AnalyzeOptions {
        loop_aware: false,
        ..AnalyzeOptions::default()
    };
    let (mut diag_h, mut deep_h, mut shallow_h) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    let mut findings = 0;
    for src in sources {
        let diags = diagnose(src);
        findings += diags.len();
        diag_h = fnv1a64_line(diag_h, &serde_json::to_string(&diags).expect("serializes"));
        let deep = analyze(src, &AnalyzeOptions::default());
        deep_h = fnv1a64_line(deep_h, &serde_json::to_string(&deep).expect("serializes"));
        let flat = analyze(src, &shallow);
        shallow_h = fnv1a64_line(
            shallow_h,
            &serde_json::to_string(&flat).expect("serializes"),
        );
    }
    ((diag_h, deep_h, shallow_h), findings)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extend a 64-bit FNV-1a state with `line` and a newline. Written out
/// because std's `DefaultHasher` is not stable across Rust releases.
fn fnv1a64_line(h: u64, line: &str) -> u64 {
    line.bytes().chain([b'\n']).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
