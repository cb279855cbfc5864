//! # pce-dataset
//!
//! The dataset pipeline of §2.1–2.2: profile the corpus, derive
//! ground-truth labels, prune by token count, balance by
//! (language × class), and split for fine-tuning.
//!
//! The paper's funnel, which this crate reproduces stage by stage:
//!
//! ```text
//! 446 CUDA + 303 OMP built programs
//!   └─ profile first kernel on the RTX 3080      (pce-gpu-sim)
//!   └─ label BB/CB via the 3-roofline joint rule (pce-roofline)
//!   └─ drop sources over 8e3 tokens              (pce-tokenizer)   → ~55% kept
//!   └─ one (first) kernel per program
//!   └─ balance lang × class to the smallest cell, capped at 85     → 340
//!   └─ 80/20 train/validation                                      → 272 / 68
//! ```

#![forbid(unsafe_code)]

pub mod pipeline;
pub mod sample;
pub mod stats;
pub mod stream;

pub use pipeline::{
    run_pipeline_cached, tokenize_corpus, Dataset, PipelineConfig, PipelineReport, Split,
    TokenizedCorpus,
};
pub use sample::Sample;
pub use stats::{fig2_stats, Fig2Row};
pub use stream::{run_pipeline_streamed, run_pipeline_streamed_timed, StageTiming};
