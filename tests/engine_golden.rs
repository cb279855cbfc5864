//! Golden pins for the engine consumers the rendered-artifact goldens do
//! not reach: RQ4 fine-tuning (the feature hash), the
//! sampling-hyperparameter check (non-default sampling through the
//! response noise stream), and every per-shot RQ1 accuracy together with
//! the tokens the RQ1 runs bill.
//!
//! Each outcome is serialized with `serde_json` and reduced to its FNV-1a
//! digest; the digests were taken before the engine's answer path, noise
//! stream and feature hash were consolidated, and before RQ1 and the
//! hyperparameter check moved onto the retry path, so any drift in those
//! shows up here.

use parallel_code_estimation::core::experiments::{
    prompt_for_sample, run_hyperparam_check, run_rq1, run_rq4, Rq1Outcome,
};
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::fault::fnv1a;
use parallel_code_estimation::llm::{
    model_zoo, FineTuneConfig, FineTuneJob, SurrogateEngine, Usage,
};
use parallel_code_estimation::prompt::ShotStyle;

/// Digest of `run_rq4` over the smoke split.
const RQ4_DIGEST: u64 = 0xc2cf_5e3f_aecd_b89e;
/// Digest of the head `run_rq4` trains (weights included). The RQ4
/// outcome alone cannot see the feature hash: the head collapses to one
/// class whichever buckets the tokens hash into.
const FINETUNE_HEAD_DIGEST: u64 = 0x78ec_f8f1_377d_135a;
/// Digest of `run_hyperparam_check` for `gpt-4o-2024-11-20`.
const HYPERPARAM_DIGEST: u64 = 0x7409_0d3e_46c0_4431;
/// Digest of `run_rq1` for every zoo model, in zoo order, on one engine.
/// The suite goldens see RQ1 only as best accuracies rounded to two
/// decimals; this pins every per-shot accuracy.
const RQ1_DIGEST: u64 = 0xb477_6b08_ba4f_8639;
/// Digest of the token usage those RQ1 runs billed, per model. Costs are
/// left out: they are floats derived from these counts.
const RQ1_USAGE_DIGEST: u64 = 0x60a4_82e2_81f8_16f6;

fn digest(json: Result<String, serde_json::Error>) -> u64 {
    fnv1a(&[json.expect("outcome serializes").as_bytes()])
}

#[test]
fn engine_consumers_are_byte_identical() {
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");
    let samples = &data.dataset.samples;

    let rq4 = digest(serde_json::to_string(
        &run_rq4(&study, &data.split).expect("smoke split is not empty"),
    ));
    let train = data
        .split
        .train
        .samples
        .iter()
        .map(|s| (prompt_for_sample(&study, s, ShotStyle::ZeroShot), s.label))
        .collect();
    let config = FineTuneConfig {
        seed: study.seed,
        ..Default::default()
    };
    let head = digest(serde_json::to_string(
        &FineTuneJob::new(train, config)
            .expect("smoke split is not empty")
            .run(),
    ));
    let hyper = digest(serde_json::to_string(
        &run_hyperparam_check(
            &study,
            &SurrogateEngine::new(),
            "gpt-4o-2024-11-20",
            samples,
        )
        .expect("hyperparameter check runs"),
    ));
    let engine = SurrogateEngine::new();
    let outcomes: Vec<Rq1Outcome> = model_zoo()
        .iter()
        .map(|m| run_rq1(&study, &engine, &m.name))
        .collect();
    let rq1 = digest(serde_json::to_string(&outcomes));
    let usage: Vec<(String, Usage)> = engine
        .meter()
        .snapshot()
        .into_iter()
        .map(|(model, (usage, _cost))| (model, usage))
        .collect();
    let rq1_usage = digest(serde_json::to_string(&usage));
    assert_eq!(
        (rq4, head, hyper, rq1, rq1_usage),
        (
            RQ4_DIGEST,
            FINETUNE_HEAD_DIGEST,
            HYPERPARAM_DIGEST,
            RQ1_DIGEST,
            RQ1_USAGE_DIGEST
        ),
        "rq4 {rq4:#x}, head {head:#x}, hyperparam {hyper:#x}, rq1 {rq1:#x}, \
         rq1 usage {rq1_usage:#x}"
    );
}
