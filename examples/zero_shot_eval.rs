//! A reduced-scale RQ2/RQ3 evaluation: build the dataset, run a reasoning
//! and a non-reasoning model in both prompt regimes, and test whether
//! few-shot examples change anything (McNemar, §3.6).
//!
//! Run with: `cargo run --release --example zero_shot_eval`

use parallel_code_estimation::core::experiments::{render_prompts, run_classification};
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::llm::SurrogateEngine;
use parallel_code_estimation::metrics::mcnemar_test;
use parallel_code_estimation::prompt::ShotStyle;

fn main() {
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");
    println!(
        "dataset: {} balanced samples ({} per language/class cell)\n",
        data.dataset.len(),
        data.report.per_combo
    );

    let engine = SurrogateEngine::new();
    let samples = &data.dataset.samples;
    let zero_prompts = render_prompts(&study, samples, ShotStyle::ZeroShot);
    let few_prompts = render_prompts(&study, samples, ShotStyle::FewShot);
    for model in ["o3-mini-high", "gpt-4o-mini"] {
        let zero = run_classification(
            &study,
            &engine,
            model,
            samples,
            &zero_prompts,
            ShotStyle::ZeroShot,
        );
        let few = run_classification(
            &study,
            &engine,
            model,
            samples,
            &few_prompts,
            ShotStyle::FewShot,
        );
        let mc = mcnemar_test(&zero.correct, &few.correct);
        println!("{model}:");
        println!("  zero-shot: {}", zero.metrics);
        println!("  few-shot:  {}", few.metrics);
        println!(
            "  McNemar RQ2 vs RQ3: p = {:.3} -> {}",
            mc.p_value,
            if mc.significant_at(0.05) {
                "different"
            } else {
                "no significant difference"
            }
        );
    }
    println!("\nsimulated API spend: ${:.2}", engine.meter().total_cost());
}
