//! Golden pins for the engine consumers the rendered-artifact goldens do
//! not reach: the capability ablation (synthetic specs answered through
//! `complete_with_spec_on`), RQ4 fine-tuning (the feature hash) and the
//! sampling-hyperparameter check (non-default sampling through the
//! response noise stream).
//!
//! Each outcome is serialized with `serde_json` and reduced to its FNV-1a
//! digest; the digests were taken before the engine's answer path, noise
//! stream and feature hash were consolidated, so any drift in those
//! shows up here.

use parallel_code_estimation::core::experiments::{
    prompt_for_sample, run_capability_ablation, run_hyperparam_check, run_rq4,
};
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::fault::fnv1a;
use parallel_code_estimation::llm::{FineTuneConfig, FineTuneJob, SurrogateEngine};
use parallel_code_estimation::prompt::ShotStyle;

/// Digest of `run_capability_ablation` over the smoke dataset.
const ABLATION_DIGEST: u64 = 0xe3e8_d450_c3ce_d0aa;
/// Digest of `run_rq4` over the smoke split.
const RQ4_DIGEST: u64 = 0xc2cf_5e3f_aecd_b89e;
/// Digest of the head `run_rq4` trains (weights included). The RQ4
/// outcome alone cannot see the feature hash: the head collapses to one
/// class whichever buckets the tokens hash into.
const FINETUNE_HEAD_DIGEST: u64 = 0x78ec_f8f1_377d_135a;
/// Digest of `run_hyperparam_check` for `gpt-4o-2024-11-20`.
const HYPERPARAM_DIGEST: u64 = 0x7409_0d3e_46c0_4431;

fn digest(json: Result<String, serde_json::Error>) -> u64 {
    fnv1a(&[json.expect("outcome serializes").as_bytes()])
}

#[test]
fn engine_consumers_are_byte_identical() {
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");
    let samples = &data.dataset.samples;

    let ablation = digest(serde_json::to_string(&run_capability_ablation(
        &study, samples,
    )));
    let rq4 = digest(serde_json::to_string(&run_rq4(&study, &data.split)));
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
        &FineTuneJob::new(train, config).run(),
    ));
    let hyper = digest(serde_json::to_string(&run_hyperparam_check(
        &study,
        &SurrogateEngine::new(),
        "gpt-4o-2024-11-20",
        samples,
    )));
    assert_eq!(
        (ablation, rq4, head, hyper),
        (
            ABLATION_DIGEST,
            RQ4_DIGEST,
            FINETUNE_HEAD_DIGEST,
            HYPERPARAM_DIGEST
        ),
        "ablation {ablation:#x}, rq4 {rq4:#x}, head {head:#x}, hyperparam {hyper:#x}"
    );
}
