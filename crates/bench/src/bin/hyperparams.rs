//! Regenerate the §3.2 sampling-hyperparameter chi-squared check.

use pce_bench::{check_args, or_exit, study_from_args};
use pce_core::experiments::run_hyperparam_check;
use pce_core::report::render_hyperparams;
use pce_core::study::StudyData;
use pce_llm::SurrogateEngine;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--smoke"], &[]));
    let study = study_from_args(&args);
    let data = StudyData::build(&study).expect("study builds");
    let engine = SurrogateEngine::new();
    for model in ["gemini-2.0-flash-001", "gpt-4o-mini", "gpt-4o-2024-11-20"] {
        match run_hyperparam_check(&study, &engine, model, &data.dataset.samples) {
            Ok(check) => println!("{}", render_hyperparams(&check)),
            Err(e) => {
                eprintln!("hyperparameter check for {model} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
