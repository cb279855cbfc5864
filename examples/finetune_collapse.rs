//! RQ4 in miniature: fine-tune the surrogate head on the training split
//! and watch it collapse to a single answer on validation (§3.7) — then
//! run the counterfactual with a gentler schedule to see why the paper
//! blames dataset size.
//!
//! Run with: `cargo run --release --example finetune_collapse`

use parallel_code_estimation::core::experiments::run_rq4;
use parallel_code_estimation::core::report::render_rq4;
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::llm::{FineTuneConfig, FineTuneJob};
use parallel_code_estimation::prompt::ShotStyle;

use parallel_code_estimation::core::experiments::rq23::prompt_for_sample;

fn main() {
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");

    // The paper's configuration: 2 epochs on the 80% split.
    let rq4 = run_rq4(&study, &data.split).expect("the smoke split is not empty");
    println!("{}", render_rq4(&rq4));

    // Counterfactual: same data, gentle schedule — the head no longer
    // saturates, but with this little data it still cannot generalize.
    let train: Vec<_> = data
        .split
        .train
        .samples
        .iter()
        .map(|s| (prompt_for_sample(&study, s, ShotStyle::ZeroShot), s.label))
        .collect();
    // A sane schedule gentles *every* pathological knob, not just the
    // learning rate: the default answer-prior rate and weight decay are
    // the collapse drivers.
    let gentle = FineTuneJob::new(
        train,
        FineTuneConfig {
            learning_rate: 0.2,
            epochs: 8,
            answer_prior_rate: 1.0,
            weight_decay: 0.0,
            ..Default::default()
        },
    )
    .expect("the smoke split is not empty")
    .run();
    let correct = data
        .split
        .validation
        .samples
        .iter()
        .filter(|s| gentle.predict(&prompt_for_sample(&study, s, ShotStyle::ZeroShot)) == s.label)
        .count();
    println!(
        "gentle schedule (lr 0.2, 8 epochs): validation accuracy {:.1}% — \
         better-behaved, still no generalization; the bottleneck is data, \
         exactly as §3.7 concludes.",
        100.0 * correct as f64 / data.split.validation.len() as f64
    );
}
