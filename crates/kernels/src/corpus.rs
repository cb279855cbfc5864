//! Corpus construction: instantiate the family registry into the paper's
//! program counts — 446 CUDA and 303 OpenMP-offload programs (§2.1) — with
//! seeded, reproducible parameter sampling.

use std::sync::LazyLock;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use pce_fault::PceError;
use pce_gpu_sim::{KernelIr, LaunchConfig, Precision};

use crate::families::{registry, Family, FamilyInput};
use crate::stream::CorpusSpec;

pub use crate::source::Language;

/// One benchmark program of the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Stable identifier, e.g. `"cuda-saxpy-0042"`.
    pub id: String,
    /// Family this program was instantiated from.
    pub family: String,
    /// Source language.
    pub language: Language,
    /// Complete source text (what LLM prompts embed).
    pub source: String,
    /// Name of the first kernel in the program (the one the paper queries).
    pub kernel_name: String,
    /// Simulator IR of that kernel.
    pub ir: KernelIr,
    /// Launch configuration of the profiled invocation.
    pub launch: LaunchConfig,
    /// Command-line arguments the binary is started with.
    pub args: Vec<String>,
}

/// Corpus generation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Master seed; every program derives its own stream from it.
    pub seed: u64,
    /// Number of CUDA programs (the paper built 446).
    pub cuda_programs: usize,
    /// Number of OpenMP programs (the paper built 303).
    pub omp_programs: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x5eed_c0de,
            cuda_programs: 446,
            omp_programs: 303,
        }
    }
}

/// SplitMix64: derive decorrelated per-item seeds from the master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The weighted family rotations the corpus draws from, CUDA then OMP,
/// built once per process: compute-heavy families appear twice (HeCBench
/// leans heavily on crypto/Monte-Carlo/finance kernels, and the balanced
/// dataset needs enough compute-bound programs per language, §2.2), and
/// the OMP rotation keeps only families with an OpenMP port.
pub(crate) static WEIGHTED_FAMILIES: LazyLock<(Vec<Family>, Vec<Family>)> = LazyLock::new(|| {
    let mut fams = Vec::new();
    for f in registry() {
        fams.push(f);
        if is_compute_heavy_family(f.name) {
            fams.push(f);
        }
    }
    let omp_fams: Vec<_> = fams.iter().filter(|f| f.has_omp).cloned().collect();
    (fams, omp_fams)
});

/// Build the full corpus eagerly.
///
/// This is one consumer of [`CorpusSpec::program`], the one generator: it
/// collects the identity-variant stream (no parametric expansion), in
/// which each program renders only its own slot's dialect. Fails with
/// [`PceError::Spec`] if a family advertises an OMP port it does not
/// render.
pub fn build_corpus(cfg: &CorpusConfig) -> Result<Vec<Program>, PceError> {
    CorpusSpec::materialized(*cfg).stream().collect()
}

/// Families whose kernels are integer-only: precision sampling is moot.
fn is_integer_family(name: &str) -> bool {
    matches!(name, "histogram" | "hashcrypt" | "rngstream")
}

/// Compute-heavy families that get double weight in the rotation.
fn is_compute_heavy_family(name: &str) -> bool {
    matches!(
        name,
        "mandelbrot"
            | "nbody"
            | "blackscholes"
            | "montecarlo"
            | "hashcrypt"
            | "polyeval"
            | "gelu"
            | "rngstream"
            | "matexp"
            | "gemm"
            | "conv2d"
            | "softmax"
    )
}

/// Sample a family's parameters for one corpus slot. Pure function of
/// `(seed, language, family, index)` — no sequential RNG state — which is
/// what makes random access to any stream index possible.
pub(crate) fn sample_input(seed: u64, lang: Language, family: &str, index: usize) -> FamilyInput {
    let lang_tag = match lang {
        Language::Cuda => 0x1u64,
        Language::Omp => 0x2u64,
    };
    let mut h = splitmix64(seed ^ lang_tag.rotate_left(32) ^ index as u64);
    for b in family.bytes() {
        h = splitmix64(h ^ b as u64);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(h);

    // Problem size: log-uniform over 2^14 .. 2^26 elements.
    let exp = rng.gen_range(14.0..26.0);
    let n = 2f64.powf(exp) as u64;

    // Iterations: log-uniform over 4 .. 4096.
    let iters = 2f64.powf(rng.gen_range(2.0..12.0)) as u64;

    let precision = if is_integer_family(family) || rng.gen_bool(0.38) {
        Precision::F32
    } else {
        Precision::F64
    };

    // Scaffolding verbosity: weighted toward the middle, with a real tail
    // of bloated programs (the token-pruning step needs something to prune).
    let verbosity = match rng.gen_range(0..100) {
        0..=19 => 0,
        20..=54 => 1,
        55..=84 => 2,
        _ => 3,
    };

    FamilyInput {
        n,
        iters,
        precision,
        verbosity,
        language: lang,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CorpusConfig {
        CorpusConfig {
            seed: 42,
            cuda_programs: 60,
            omp_programs: 48,
        }
    }

    #[test]
    fn corpus_has_requested_counts_per_language() {
        let corpus = build_corpus(&small_cfg()).expect("corpus builds");
        assert_eq!(corpus.len(), 108);
        assert_eq!(
            corpus
                .iter()
                .filter(|p| p.language == Language::Cuda)
                .count(),
            60
        );
        assert_eq!(
            corpus
                .iter()
                .filter(|p| p.language == Language::Omp)
                .count(),
            48
        );
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_corpus(&small_cfg()).expect("corpus builds");
        let b = build_corpus(&small_cfg()).expect("corpus builds");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_corpora() {
        let a = build_corpus(&small_cfg()).expect("corpus builds");
        let b = build_corpus(&CorpusConfig {
            seed: 43,
            ..small_cfg()
        })
        .expect("corpus builds");
        assert_ne!(a, b);
    }

    #[test]
    fn ids_are_unique() {
        let corpus = build_corpus(&small_cfg()).expect("corpus builds");
        let mut ids: Vec<_> = corpus.iter().map(|p| p.id.clone()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn omp_programs_contain_target_pragmas() {
        let corpus = build_corpus(&small_cfg()).expect("corpus builds");
        for p in corpus.iter().filter(|p| p.language == Language::Omp) {
            assert!(
                p.source.contains("#pragma omp target"),
                "{} lacks a target region",
                p.id
            );
            assert!(!p.source.contains("__global__"), "{} leaked CUDA", p.id);
        }
    }

    #[test]
    fn cuda_programs_contain_kernels() {
        let corpus = build_corpus(&small_cfg()).expect("corpus builds");
        for p in corpus.iter().filter(|p| p.language == Language::Cuda) {
            assert!(p.source.contains("__global__"), "{} lacks a kernel", p.id);
        }
    }

    #[test]
    fn source_lengths_are_diverse() {
        let corpus = build_corpus(&small_cfg()).expect("corpus builds");
        let lens: Vec<usize> = corpus.iter().map(|p| p.source.len()).collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        assert!(*max > 2 * *min, "need length diversity, got {min}..{max}");
    }

    #[test]
    fn full_paper_counts_build() {
        // The real corpus: 446 + 303. Smoke-build it (fast: generation is
        // string assembly, no profiling).
        let corpus = build_corpus(&CorpusConfig::default()).expect("corpus builds");
        assert_eq!(corpus.len(), 749);
        let families_used: std::collections::BTreeSet<_> =
            corpus.iter().map(|p| p.family.clone()).collect();
        assert!(families_used.len() >= 30);
    }

    #[test]
    fn programs_serde_round_trip() {
        let corpus = build_corpus(&CorpusConfig {
            seed: 1,
            cuda_programs: 2,
            omp_programs: 1,
        })
        .expect("corpus builds");
        let json = serde_json::to_string(&corpus).unwrap();
        let back: Vec<Program> = serde_json::from_str(&json).unwrap();
        assert_eq!(corpus, back);
    }
}
