//! RQ4: fine-tuning (§3.7). Trains the surrogate fine-tune head on the
//! 80 % split (zero-shot prompt texts, as the paper did) and evaluates on
//! the validation split, reporting the collapse diagnostics.

use serde::Serialize;

use pce_dataset::Split;
use pce_fault::PceError;
use pce_llm::{FineTuneConfig, FineTuneJob};
use pce_metrics::{ConfusionMatrix, MetricBundle};
use pce_prompt::ShotStyle;
use pce_roofline::Boundedness;

use crate::experiments::rq23::prompt_for_sample;
use crate::study::Study;

/// RQ4 results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Rq4Outcome {
    /// Validation metrics of the fine-tuned model.
    pub metrics: MetricBundle,
    /// Fraction of validation samples answered with the majority predicted
    /// class (1.0 = the paper's total collapse).
    pub prediction_concentration: f64,
    /// The class the collapsed model prefers.
    pub collapsed_to: String,
    /// Per-epoch training accuracy.
    pub epoch_train_accuracy: Vec<f64>,
    /// Training-set size (paper: 272).
    pub train_size: usize,
    /// Validation-set size (paper: 68).
    pub validation_size: usize,
}

/// Run the fine-tuning experiment. An empty training split is a
/// [`PceError::Spec`].
pub fn run_rq4(study: &Study, split: &Split) -> Result<Rq4Outcome, PceError> {
    // The paper trains on the RQ2 zero-shot prompts.
    let train: Vec<(String, Boundedness)> = split
        .train
        .samples
        .iter()
        .map(|s| (prompt_for_sample(study, s, ShotStyle::ZeroShot), s.label))
        .collect();
    let job = FineTuneJob::new(
        train,
        FineTuneConfig {
            seed: study.seed,
            ..Default::default()
        },
    )?;
    let model = job.run();

    let mut cm = ConfusionMatrix::new();
    let mut compute_answers = 0usize;
    for s in &split.validation.samples {
        let prompt = prompt_for_sample(study, s, ShotStyle::ZeroShot);
        let pred = model.predict(&prompt);
        if pred == Boundedness::Compute {
            compute_answers += 1;
        }
        cm.record(
            s.label == Boundedness::Compute,
            pred == Boundedness::Compute,
        );
    }
    let n = split.validation.len().max(1);
    let concentration = compute_answers.max(n - compute_answers) as f64 / n as f64;
    let collapsed_to = if compute_answers * 2 >= n {
        "Compute"
    } else {
        "Bandwidth"
    };

    Ok(Rq4Outcome {
        metrics: cm.bundle(),
        prediction_concentration: concentration,
        collapsed_to: collapsed_to.to_string(),
        epoch_train_accuracy: model.epoch_train_accuracy.clone(),
        train_size: split.train.len(),
        validation_size: split.validation.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyData;

    #[test]
    fn finetuning_collapses_to_one_class_on_paper_scale_data() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let out = run_rq4(&study, &data.split).unwrap();
        // The §3.7 signature: the model devolves to answering one class.
        assert!(
            out.prediction_concentration > 0.85,
            "expected collapse, got concentration {}",
            out.prediction_concentration
        );
        // Collapsed predictions on a balanced set sit near 50% accuracy;
        // the residual minority keeps MCC noisy at smoke scale, so the
        // bounds are generous — concentration above is the signature.
        assert!(out.metrics.accuracy > 30.0 && out.metrics.accuracy < 75.0);
        assert!(out.metrics.mcc.abs() < 50.0);
        assert_eq!(out.epoch_train_accuracy.len(), 2);
        assert!(["Compute", "Bandwidth"].contains(&out.collapsed_to.as_str()));
    }

    #[test]
    fn empty_split_is_a_spec_error() {
        use pce_llm::{FineTuneConfig, FineTuneJob};
        let err = FineTuneJob::new(vec![], FineTuneConfig::default()).unwrap_err();
        assert_eq!(err.kind(), "spec");
        assert_eq!(
            err.to_string(),
            "invalid spec: cannot fine-tune on an empty dataset"
        );
        // A token cap of zero admits no sample, so both splits are empty.
        let mut study = Study::smoke();
        study.pipeline.max_tokens = 0;
        let data = StudyData::build(&study).expect("an empty study builds");
        assert!(data.split.train.samples.is_empty());
        let err = run_rq4(&study, &data.split).unwrap_err();
        assert_eq!(err.kind(), "spec");
    }
}
