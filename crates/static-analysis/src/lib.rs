//! # pce-static-analysis
//!
//! Source-level static analysis of CUDA / OpenMP-offload kernels: estimate
//! per-thread FLOP (SP/DP), integer-op, and byte counts — and from them a
//! *static* arithmetic-intensity estimate — from source text alone.
//!
//! This crate is the "mental model" of the surrogate reasoning LLMs in
//! `pce-llm`: when the paper's zero-/few-shot prompts hand an LLM nothing
//! but source code and hardware specs (Fig. 4), the best any reader can do
//! is exactly this kind of analysis. It is *structurally* imperfect in the
//! same ways a careful human reader is:
//!
//! * it counts **requested** bytes, not post-cache DRAM traffic, so
//!   reuse-heavy kernels look more bandwidth-hungry than they profile,
//! * it cannot see coalescing, so strided kernels look cheaper than they
//!   profile,
//! * loop trip counts that depend on runtime values must be guessed.
//!
//! Those systematic gaps — not injected randomness — are what hold the
//! simulated reasoning models near the paper's observed 64 % ceiling.
//!
//! There is one entry point per job: [`analyze`] for the estimate plus
//! the hazard findings, [`diagnose`] for the findings alone. Both lex
//! once and recover kernels and loops through the same structural pass.
//!
//! ```
//! use pce_static_analysis::{analyze, AnalyzeOptions};
//!
//! let src = r#"
//! __global__ void saxpy(int n, float a, const float* x, float* y) {
//!     int i = blockIdx.x * blockDim.x + threadIdx.x;
//!     if (i < n) { y[i] = a * x[i] + y[i]; }
//! }
//! "#;
//! let analysis = analyze(src, &AnalyzeOptions::default());
//! let kernel = &analysis.kernels[0];
//! assert_eq!(kernel.name, "saxpy");
//! assert!(kernel.tally.flops_sp > 0.0);
//! assert!(kernel.tally.read_bytes > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod estimate;
pub mod lexer;
mod structure;

pub use diagnostics::{diagnose, Diagnostic, RuleId, Severity, Span};
pub use estimate::{analyze, AnalyzeOptions, KernelAnalysis, OpTally, SourceAnalysis};
pub use lexer::{lex, Token, TokenKind};
