//! # pce-kernels
//!
//! A synthetic GPU benchmark corpus modeled on the HeCBench suite the paper
//! profiles (§2.1): 446 CUDA programs and 303 OpenMP-offload programs drawn
//! from 30 kernel families spanning streaming, dense linear algebra,
//! stencil, and compute-heavy workloads.
//!
//! Every generated [`Program`] carries *two consistent views* of the same
//! computation:
//!
//! * **source text** — a complete, compilable-looking CUDA or OpenMP C++
//!   program (kernel + host harness + argument parsing), which is what the
//!   LLMs see in the paper's prompts; each program renders only its own
//!   dialect, and
//! * **kernel IR + launch config** — the `pce-gpu-sim` lowering, which is
//!   what the profiler executes to produce ground-truth labels.
//!
//! The two views agree on computational structure (op mix, loop bounds,
//! access patterns) but diverge exactly where real profiling diverges from
//! source reading: caches, coalescing, and runtime-dependent sizes. That
//! gap is the paper's entire subject.
//!
//! ```
//! use pce_kernels::{build_corpus, CorpusConfig, Language};
//!
//! let cfg = CorpusConfig { seed: 7, cuda_programs: 10, omp_programs: 5 };
//! let corpus = build_corpus(&cfg).expect("registry families all render");
//! assert_eq!(corpus.iter().filter(|p| p.language == Language::Cuda).count(), 10);
//! assert!(corpus[0].source.contains("__global__") || corpus[0].source.contains("#pragma omp"));
//! ```
//!
//! Corpora no longer have to be materialized: [`CorpusSpec`] describes a
//! (possibly variant-expanded) corpus, [`CorpusSpec::program`] generates
//! any index on its own — the primitive the sharded dataset pipeline
//! builds on — and [`CorpusSpec::stream`] maps it over the whole corpus:
//!
//! ```
//! use pce_kernels::{CorpusConfig, CorpusSpec, VariantAxes};
//!
//! let spec = CorpusSpec {
//!     base: CorpusConfig { seed: 7, cuda_programs: 10, omp_programs: 5 },
//!     axes: VariantAxes { unroll: vec![4], ..VariantAxes::none() },
//! };
//! assert_eq!(spec.len(), 30); // every base program plus one unroll variant
//! let first = spec.stream().next().expect("non-empty").expect("renders");
//! assert_eq!(first, spec.program(0).expect("random access agrees"));
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod families;
pub mod source;
pub mod stream;

pub use corpus::{build_corpus, CorpusConfig, Language, Program};
pub use families::Variant;
pub use stream::{CorpusSpec, VariantAxes};
