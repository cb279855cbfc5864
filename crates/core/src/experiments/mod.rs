//! Experiment runners, one per research question.

pub mod hyperparams;
pub mod rq1;
pub mod rq23;
pub mod rq4;

pub use hyperparams::{run_hyperparam_check, HyperparamCheck};
pub use rq1::{run_rq1, Rq1Outcome};
pub use rq23::{prompt_for_sample, render_prompts, run_classification, ClassificationOutcome};
pub use rq4::{run_rq4, Rq4Outcome};
