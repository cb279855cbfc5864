//! RQ1: baseline roofline calculations (§3.4, Table 1 columns 4–5).
//!
//! For each model, prompts with 2-, 4-, and 8-shot examples — with and
//! without chain-of-thought text — are evaluated over the random-roofline
//! suite; the paper reports the best accuracy per CoT setting.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pce_fault::RetryPolicy;
use pce_llm::SurrogateEngine;
use pce_metrics::ConfusionMatrix;
use pce_prompt::{generate_rq1_suite, render_rq1_prompt, Rq1Suite};
use pce_roofline::Boundedness;

use crate::study::Study;

/// RQ1 results for one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rq1Outcome {
    /// Model name.
    pub model: String,
    /// Accuracy (×100) per shot count without CoT, keyed 2/4/8.
    pub by_shots: Vec<(usize, f64)>,
    /// Accuracy (×100) per shot count with CoT.
    pub by_shots_cot: Vec<(usize, f64)>,
    /// Best accuracy without CoT (the Table-1 "RQ1 Acc" cell).
    pub best_acc: f64,
    /// Best accuracy with CoT (the "RQ1 CoT Acc" cell).
    pub best_acc_cot: f64,
}

fn accuracy_over_suite(
    engine: &SurrogateEngine,
    suite: &Rq1Suite,
    model: &str,
    shots: usize,
    cot: bool,
) -> f64 {
    let mut cm = ConfusionMatrix::new();
    let outcomes: Vec<(bool, Option<bool>)> = suite
        .items
        .par_iter()
        .enumerate()
        .map(|(i, item)| {
            let prompt = render_rq1_prompt(suite, i, shots, cot);
            let out =
                engine.complete_with_retry(model, &prompt, None, i as u64, &RetryPolicy::none());
            let truth = item.truth == Boundedness::Compute;
            // An outcome without a verdict (injected timeout, refusal,
            // unknown model) scores as an invalid response, same as an
            // unparseable answer.
            let pred = out.verdict.map(|b| b == Boundedness::Compute);
            (truth, pred)
        })
        .collect();
    for (truth, pred) in outcomes {
        cm.record_opt(truth, pred);
    }
    cm.accuracy() * 100.0
}

/// Run RQ1 for one model.
pub fn run_rq1(study: &Study, engine: &SurrogateEngine, model: &str) -> Rq1Outcome {
    let suite = generate_rq1_suite(study.rq1_rooflines, study.seed ^ 0x51);
    let shot_counts = [2usize, 4, 8];
    let by_shots: Vec<(usize, f64)> = shot_counts
        .iter()
        .map(|&s| (s, accuracy_over_suite(engine, &suite, model, s, false)))
        .collect();
    let by_shots_cot: Vec<(usize, f64)> = shot_counts
        .iter()
        .map(|&s| (s, accuracy_over_suite(engine, &suite, model, s, true)))
        .collect();
    let best = |v: &[(usize, f64)]| v.iter().map(|&(_, a)| a).fold(0.0, f64::max);
    Rq1Outcome {
        model: model.to_string(),
        best_acc: best(&by_shots),
        best_acc_cot: best(&by_shots_cot),
        by_shots,
        by_shots_cot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasoning_model_hits_100_and_standard_stays_90ish() {
        let study = Study::smoke();
        let engine = SurrogateEngine::new();
        let o3 = run_rq1(&study, &engine, "o3-mini");
        assert_eq!(o3.best_acc, 100.0);
        assert_eq!(o3.best_acc_cot, 100.0);

        let mini = run_rq1(&study, &engine, "gpt-4o-mini");
        assert!(
            mini.best_acc >= 80.0 && mini.best_acc < 100.0,
            "{}",
            mini.best_acc
        );
        assert!(mini.best_acc_cot >= mini.best_acc, "CoT helps the minis");
    }

    #[test]
    fn outcome_covers_all_shot_counts() {
        let study = Study::smoke();
        let engine = SurrogateEngine::new();
        let out = run_rq1(&study, &engine, "gemini-2.0-flash-001");
        assert_eq!(out.by_shots.len(), 3);
        assert_eq!(out.by_shots_cot.len(), 3);
        let shots: Vec<usize> = out.by_shots.iter().map(|&(s, _)| s).collect();
        assert_eq!(shots, vec![2, 4, 8]);
    }
}
