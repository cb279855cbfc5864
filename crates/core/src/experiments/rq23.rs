//! RQ2 (zero-shot) and RQ3 (few-shot) source classification (§3.5–3.6,
//! Table 1 columns 6–11). The two experiments share a runner: only the
//! prompt's example bank differs.

use rayon::prelude::*;

use pce_dataset::Sample;
use pce_fault::ResponseAccounting;
use pce_llm::{SamplingParams, SurrogateEngine};
use pce_metrics::{ConfusionMatrix, MetricBundle};
use pce_prompt::{render_classify_prompt, ClassifyRequest, ShotStyle};
use pce_roofline::Boundedness;

use crate::study::Study;

/// Classification results for one (model, shot-style).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationOutcome {
    /// Model name.
    pub model: String,
    /// Zero- or few-shot.
    pub style: ShotStyle,
    /// The three Table-1 metrics.
    pub metrics: MetricBundle,
    /// The raw confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Per-sample correctness, aligned with the dataset order (for paired
    /// tests such as McNemar between RQ2 and RQ3).
    pub correct: Vec<bool>,
    /// Response ledger over the whole sample set: valid /
    /// retried-then-valid / invalid / refused, plus injection counts.
    pub accounting: ResponseAccounting,
}

/// Build the Fig.-4 prompt for one sample.
///
/// The hardware block renders the spec of the sample's own machine class
/// — CUDA prompts carry the study's GPU roofline numbers, OMP prompts the
/// CPU's — matching the roofline its ground-truth label was drawn under.
pub fn prompt_for_sample(study: &Study, sample: &Sample, style: ShotStyle) -> String {
    let req = ClassifyRequest {
        language: sample.language.label().to_string(),
        kernel_name: sample.kernel_name.clone(),
        hardware: study.specs.for_class(sample.language.spec_class()).clone(),
        geometry: sample.geometry.clone(),
        args: sample.args.clone(),
        source: sample.source.clone(),
    };
    render_classify_prompt(&req, style)
}

/// Render the Fig.-4 prompt for every sample (parallel), aligned with the
/// sample order.
///
/// Prompts depend on (sample, shot-style, the study's language-routed
/// spec) but never on the model, so one rendered set serves the whole zoo
/// — the Table-1 assembly renders here once and fans the result out over
/// nine models.
pub fn render_prompts(study: &Study, samples: &[Sample], style: ShotStyle) -> Vec<String> {
    samples
        .par_iter()
        .map(|s| prompt_for_sample(study, s, style))
        .collect()
}

/// Run a classification experiment over the dataset for one model,
/// against its prompts rendered by [`render_prompts`] (one per sample, in
/// sample order). Callers evaluating several models share one render
/// pass.
///
/// # Panics
/// Panics when `prompts` is not aligned with `samples`.
pub fn run_classification(
    study: &Study,
    engine: &SurrogateEngine,
    model: &str,
    samples: &[Sample],
    prompts: &[String],
    style: ShotStyle,
) -> ClassificationOutcome {
    assert_eq!(
        samples.len(),
        prompts.len(),
        "prompts are not aligned with the sample set"
    );
    let sampling = SamplingParams::default(); // temperature 0.1, top_p 0.2 (§3.2)
    let policy = study.chaos.as_ref().map(|c| c.retry).unwrap_or_default();
    let results: Vec<(bool, Option<bool>, ResponseAccounting)> = samples
        .par_iter()
        .enumerate()
        .map(|(i, sample)| {
            // The retry loop degrades failures instead of crashing: an
            // injected fault that exhausts retries (or a refusal) lands
            // in the invalid/refused columns of the ledger and the
            // confusion matrix's invalid counts.
            let out = engine.complete_with_retry(
                model,
                &prompts[i],
                Some(sampling),
                study.seed ^ i as u64,
                &policy,
            );
            let truth = sample.label == Boundedness::Compute;
            let pred = out.verdict.map(|b| b == Boundedness::Compute);
            (truth, pred, out.accounting)
        })
        .collect();

    let mut cm = ConfusionMatrix::new();
    let mut correct = Vec::with_capacity(results.len());
    let mut accounting = ResponseAccounting::new();
    for (truth, pred, acc) in &results {
        cm.record_opt(*truth, *pred);
        correct.push(*pred == Some(*truth));
        accounting.merge(acc);
    }
    ClassificationOutcome {
        model: model.to_string(),
        style,
        metrics: cm.bundle(),
        confusion: cm,
        correct,
        accounting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyData;

    #[test]
    fn reasoning_beats_non_reasoning_zero_shot() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let samples = &data.dataset.samples;
        let prompts = render_prompts(&study, samples, ShotStyle::ZeroShot);
        let strong = run_classification(
            &study,
            &engine,
            "o3-mini-high",
            samples,
            &prompts,
            ShotStyle::ZeroShot,
        );
        let weak = run_classification(
            &study,
            &engine,
            "gpt-4o-mini",
            samples,
            &prompts,
            ShotStyle::ZeroShot,
        );
        assert!(
            strong.metrics.accuracy > weak.metrics.accuracy + 4.0,
            "reasoning {} vs standard {}",
            strong.metrics.accuracy,
            weak.metrics.accuracy
        );
        // The paper's headline band: reasoning well above chance but far
        // from ceiling; standard near chance.
        assert!(strong.metrics.accuracy > 55.0 && strong.metrics.accuracy < 80.0);
        assert!(weak.metrics.accuracy > 38.0 && weak.metrics.accuracy < 62.0);
        assert!(strong.metrics.mcc > weak.metrics.mcc);
    }

    #[test]
    fn few_shot_changes_little_for_reasoning_models() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let samples = &data.dataset.samples;
        let run = |style| {
            let prompts = render_prompts(&study, samples, style);
            run_classification(&study, &engine, "o1", samples, &prompts, style)
        };
        let zero = run(ShotStyle::ZeroShot);
        let few = run(ShotStyle::FewShot);
        assert!(
            (zero.metrics.accuracy - few.metrics.accuracy).abs() < 12.0,
            "zero {} vs few {}",
            zero.metrics.accuracy,
            few.metrics.accuracy
        );
        // Paired vectors align with the dataset for McNemar testing.
        assert_eq!(zero.correct.len(), few.correct.len());
        let mc = pce_metrics::mcnemar_test(&zero.correct, &few.correct);
        assert!(
            !mc.significant_at(0.01),
            "RQ2 vs RQ3 should not differ strongly"
        );
    }

    #[test]
    fn warm_cache_engines_classify_identically() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let samples = &data.dataset.samples;
        for style in [ShotStyle::ZeroShot, ShotStyle::FewShot] {
            let prompts = render_prompts(&study, samples, style);
            assert_eq!(prompts.len(), data.dataset.len());
            for model in ["o3-mini", "gpt-4o-mini"] {
                let first = run_classification(&study, &engine, model, samples, &prompts, style);
                // A cache-sharing engine answers identically.
                let warm_engine = SurrogateEngine::with_caches(engine.caches().clone());
                let warm =
                    run_classification(&study, &warm_engine, model, samples, &prompts, style);
                assert_eq!(first, warm, "{model} (warm caches)");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_prompts_are_rejected() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let mut prompts = render_prompts(&study, &data.dataset.samples, ShotStyle::ZeroShot);
        prompts.pop();
        run_classification(
            &study,
            &engine,
            "o3-mini",
            &data.dataset.samples,
            &prompts,
            ShotStyle::ZeroShot,
        );
    }

    #[test]
    fn outcome_metrics_match_confusion_matrix() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let samples = &data.dataset.samples;
        let prompts = render_prompts(&study, samples, ShotStyle::ZeroShot);
        let out = run_classification(
            &study,
            &engine,
            "gemini-2.0-flash-001",
            samples,
            &prompts,
            ShotStyle::ZeroShot,
        );
        assert_eq!(out.metrics.n as usize, data.dataset.len());
        let recomputed = out.confusion.bundle();
        assert_eq!(out.metrics, recomputed);
        let correct_count = out.correct.iter().filter(|&&c| c).count();
        assert_eq!(correct_count as u64, out.confusion.correct());
    }
}
