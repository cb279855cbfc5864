//! §3.2: the sampling-hyperparameter sensitivity check.
//!
//! The paper ran a chi-squared test over model predictions across
//! temperature/top_p settings and found no statistically significant
//! effect, then fixed (0.1, 0.2) for all further runs. This runner
//! reproduces that test: predicted-class counts per sampling setting form
//! the contingency table.

use rayon::prelude::*;
use serde::Serialize;

use pce_dataset::Sample;
use pce_fault::{PceError, RetryPolicy};
use pce_llm::{SamplingParams, SurrogateEngine};
use pce_metrics::{chi_squared_independence, Chi2Result};
use pce_prompt::ShotStyle;
use pce_roofline::Boundedness;

use crate::experiments::rq23::prompt_for_sample;
use crate::study::Study;

/// Result of the hyperparameter sensitivity check for one model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HyperparamCheck {
    /// Model name.
    pub model: String,
    /// The sampling grid evaluated.
    pub settings: Vec<SamplingParams>,
    /// Contingency table: rows = settings, cols = (Compute, Bandwidth).
    pub table: Vec<Vec<u64>>,
    /// The chi-squared independence test over that table.
    pub chi2: Chi2Result,
}

/// Run the check over a sample subset (the full dataset would be wasteful
/// for a negative-result confirmation; the paper likewise sampled).
///
/// # Errors
/// Returns the [`PceError::Spec`] of [`chi_squared_independence`] when
/// the answers do not form a table with two nonzero columns: an empty
/// `samples` slice, or a model that never answers `Compute` (an unknown
/// model name scores every answer as `Bandwidth`).
pub fn run_hyperparam_check(
    study: &Study,
    engine: &SurrogateEngine,
    model: &str,
    samples: &[Sample],
) -> Result<HyperparamCheck, PceError> {
    let settings = vec![
        SamplingParams {
            temperature: 0.1,
            top_p: 0.2,
        },
        SamplingParams {
            temperature: 0.7,
            top_p: 0.2,
        },
        SamplingParams {
            temperature: 1.0,
            top_p: 0.95,
        },
    ];
    let table: Vec<Vec<u64>> = settings
        .iter()
        .map(|&sampling| {
            let counts: (u64, u64) = samples
                .par_iter()
                .enumerate()
                .map(|(i, sample)| {
                    let prompt = prompt_for_sample(study, sample, ShotStyle::ZeroShot);
                    let out = engine.complete_with_retry(
                        model,
                        &prompt,
                        Some(sampling),
                        study.seed ^ (i as u64) << 8,
                        &RetryPolicy::none(),
                    );
                    match out.verdict {
                        Some(Boundedness::Compute) => (1u64, 0u64),
                        _ => (0u64, 1u64),
                    }
                })
                .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            vec![counts.0, counts.1]
        })
        .collect();
    let chi2 = chi_squared_independence(&table)?;
    Ok(HyperparamCheck {
        model: model.to_string(),
        settings,
        table,
        chi2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyData;

    #[test]
    fn sampling_params_have_no_significant_effect() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let check = run_hyperparam_check(
            &study,
            &engine,
            "gemini-2.0-flash-001",
            &data.dataset.samples,
        )
        .expect("check runs");
        assert_eq!(check.table.len(), 3);
        assert!(
            !check.chi2.significant_at(0.05),
            "paper found no significant effect; got p = {}",
            check.chi2.p_value
        );
        // Every setting answered every sample.
        for row in &check.table {
            assert_eq!(row.iter().sum::<u64>() as usize, data.dataset.len());
        }
    }

    #[test]
    fn degenerate_answer_tables_are_spec_errors() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let engine = SurrogateEngine::new();
        let unknown = run_hyperparam_check(&study, &engine, "gpt-6", &data.dataset.samples);
        assert_eq!(unknown.expect_err("unknown model").kind(), "spec");
        let empty = run_hyperparam_check(&study, &engine, "gpt-4o-2024-11-20", &[]);
        assert_eq!(empty.expect_err("no samples").kind(), "spec");
    }
}
