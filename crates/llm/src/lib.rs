//! # pce-llm
//!
//! The surrogate LLM substrate: a hermetic, deterministic stand-in for the
//! hosted OpenAI / Gemini models the paper queries.
//!
//! Every model in the [`zoo`] is characterised by *capability parameters*
//! (reasoning vs. non-reasoning, arithmetic slip rates, code-insight depth,
//! cache-reuse awareness, answer bias) rather than canned outputs. An
//! [`engine`] genuinely **processes the prompt text**:
//!
//! * RQ1 prompts — it parses the bandwidth/peak/AI numbers back out of the
//!   prose and computes the balance point, with arithmetic slips whose rate
//!   is governed by the model's reliability (and reduced by the presence of
//!   chain-of-thought examples),
//! * RQ2/RQ3 prompts — it recovers the hardware spec, kernel name, CLI
//!   arguments and source code from the prompt, binds arguments to source
//!   variables by reading the program's `argv` parsing, runs the
//!   `pce-static-analysis` estimator at a fidelity set by the model's
//!   insight, optionally applies a reuse correction (reasoning models
//!   only), and classifies against the three parsed rooflines with
//!   `pce_roofline::static_verdict`, the rule serve's static path shares.
//!
//! There is one public way to ask: [`SurrogateEngine::complete_with_retry`].
//! It fingerprints the prompt once per request, dispatches it through the
//! engine's single task router, and parses the answer into the
//! [`CompletionOutcome::verdict`] every experiment scores; under
//! [`pce_fault::RetryPolicy::none`] it asks exactly once. [`LlmCaches`]
//! memoizes the analyses and prompt parses behind that router, unbounded
//! by default or bounded per table by a `pce_memo::Budget`.
//!
//! The *structure* of the paper's findings — reasoning ≫ non-reasoning in
//! zero-shot, ~100 % with profiled values, fine-tuning collapse — emerges
//! from these mechanisms, not from lookup tables.
//!
//! [`finetune`] implements an actual SGD-trained logistic head over hashed
//! token features to reproduce the RQ4 collapse.

#![forbid(unsafe_code)]

pub mod api;
pub mod cache;
pub mod engine;
pub mod finetune;
pub mod parse;
pub mod zoo;

pub use api::{ChatResponse, SamplingParams, Usage, UsageMeter};
pub use cache::{CacheCounters, LlmCaches};
pub use engine::{CompletionOutcome, SurrogateEngine};
pub use finetune::{FineTuneConfig, FineTuneJob, FineTunedModel};
pub use zoo::{model_zoo, Capability, ModelSpec};
