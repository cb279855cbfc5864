//! Byte-identity goldens for the static analyzer: the serialized output
//! of `diagnose` and of `analyze` (loop-aware and shallow) over the paper
//! corpus plus the three racy fixtures, pinned as FNV-1a digests. Any
//! change to the lexer, kernel recovery, estimator or lint rules that
//! moves one finding, one tally or one message moves a digest.

use parallel_code_estimation::kernels::{build_corpus, CorpusConfig};
use parallel_code_estimation::static_analysis::{analyze, diagnose, AnalyzeOptions};

/// FNV-1a of the `diagnose` JSON lines, pinned before the lexer handed
/// out borrowed tokens.
const DIAGNOSE_DIGEST: u64 = 0x00a9_4ae6_72bb_5fbc;
/// The same over `analyze(.., &AnalyzeOptions::default())`.
const ANALYZE_DIGEST: u64 = 0x0075_df76_d623_d703;
/// The same over `analyze` with `loop_aware: false`.
const ANALYZE_SHALLOW_DIGEST: u64 = 0xcacc_22cd_54e6_685c;

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

    let shallow = AnalyzeOptions {
        loop_aware: false,
        ..AnalyzeOptions::default()
    };
    let (mut diag_h, mut deep_h, mut shallow_h) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    let mut findings = 0;
    for src in &sources {
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
    assert!(findings > 0, "the racy fixtures must produce findings");
    assert_eq!(
        (diag_h, deep_h, shallow_h),
        (DIAGNOSE_DIGEST, ANALYZE_DIGEST, ANALYZE_SHALLOW_DIGEST),
        "analyzer output moved"
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extend a 64-bit FNV-1a state with `line` and a newline. Written out
/// because std's `DefaultHasher` is not stable across Rust releases.
fn fnv1a64_line(h: u64, line: &str) -> u64 {
    line.bytes().chain([b'\n']).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
