//! Study configuration and the shared data build.

use pce_dataset::{
    run_pipeline_cached, tokenize_corpus, Dataset, PipelineConfig, PipelineReport, Split,
};
use pce_fault::{FaultPlan, PceError, RetryPolicy};
use pce_gpu_sim::SimCaches;
use pce_kernels::{build_corpus, CorpusConfig, Program};
use pce_roofline::SpecPair;

/// Chaos configuration: the seeded fault plan the surrogate engine
/// consults, plus the retry policy the classification loops run under.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The fault plan (seed + per-kind injection rates).
    pub plan: FaultPlan,
    /// Bounded-retry policy for classification requests.
    pub retry: RetryPolicy,
}

impl ChaosConfig {
    /// A chaos config splitting one total fault rate evenly across all
    /// fault kinds, with the default retry policy — what
    /// `suite --chaos <seed> --fault-rate <r>` builds.
    pub fn uniform(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            plan: FaultPlan::uniform(seed, fault_rate),
            retry: RetryPolicy::default(),
        }
    }
}

/// Top-level study configuration. Defaults reproduce the paper's setup:
/// RTX 3080 for the CUDA half (paired with the EPYC 9654 CPU preset for
/// the OMP half), 446 CUDA + 303 OMP programs, 8e3-token cutoff,
/// 85-per-cell balancing, 80/20 split.
#[derive(Debug, Clone)]
pub struct Study {
    /// Profiling / prompt hardware, one spec per machine class: CUDA
    /// samples use `specs.gpu`, OMP samples `specs.cpu` — in the
    /// pipeline's ground-truth labeling *and* in the rendered prompts.
    pub specs: SpecPair,
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Dataset pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Number of RQ1 random rooflines (the paper used 240).
    pub rq1_rooflines: usize,
    /// Master evaluation seed.
    pub seed: u64,
    /// Optional chaos layer: fault injection plus retry policy. `None`
    /// (the default) runs the engine fault-free and renders byte-identical
    /// to the historical golden reports.
    pub chaos: Option<ChaosConfig>,
}

impl Default for Study {
    fn default() -> Self {
        let specs = SpecPair::paper_default();
        Study {
            specs: specs.clone(),
            corpus: CorpusConfig::default(),
            pipeline: PipelineConfig {
                specs,
                ..Default::default()
            },
            rq1_rooflines: 240,
            seed: 0x9f0f_11e5,
            chaos: None,
        }
    }
}

impl Study {
    /// A reduced-scale study for tests and quick runs: smaller corpus,
    /// smaller balanced cells, fewer RQ1 rooflines. The *structure* of the
    /// experiments is identical.
    pub fn smoke() -> Self {
        let mut study = Study {
            corpus: CorpusConfig {
                seed: 7,
                cuda_programs: 120,
                omp_programs: 90,
            },
            rq1_rooflines: 40,
            ..Study::default()
        };
        study.pipeline.per_combo_cap = 15;
        study.pipeline.tokenizer_vocab = 500;
        study.pipeline.tokenizer_stride = 13;
        study
    }

    /// The same study re-targeted at a different spec pair: both the
    /// profiling/labeling hardware and the prompt hardware move together,
    /// everything else (corpus, tokenizer, seeds) stays fixed. This is the
    /// per-cell derivation the cross-hardware suite uses.
    pub fn with_specs(&self, specs: SpecPair) -> Study {
        let mut study = self.clone();
        study.pipeline.specs = specs.clone();
        study.specs = specs;
        study
    }
}

/// The shared data build: corpus, profiles, balanced dataset, split.
#[derive(Debug, Clone)]
pub struct StudyData {
    /// The generated corpus (all built programs).
    pub corpus: Vec<Program>,
    /// The balanced evaluation dataset (paper: 340 samples).
    pub dataset: Dataset,
    /// The 80/20 fine-tuning split.
    pub split: Split,
    /// The pipeline funnel report.
    pub report: PipelineReport,
}

impl StudyData {
    /// Build everything once, on cold caches; reused by every experiment.
    /// Fails only when corpus generation does (a family registry
    /// violation, surfaced as [`PceError::Spec`]).
    pub fn build(study: &Study) -> Result<StudyData, PceError> {
        let corpus = build_corpus(&study.corpus)?;
        let tokenized = tokenize_corpus(&corpus, &study.pipeline);
        let (dataset, split, report) =
            run_pipeline_cached(&corpus, &tokenized, &study.pipeline, &SimCaches::new());
        Ok(StudyData {
            corpus,
            dataset,
            split,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_study_matches_paper_constants() {
        let s = Study::default();
        assert_eq!(s.corpus.cuda_programs, 446);
        assert_eq!(s.corpus.omp_programs, 303);
        assert_eq!(s.pipeline.max_tokens, 8_000);
        assert_eq!(s.pipeline.per_combo_cap, 85);
        assert_eq!(s.rq1_rooflines, 240);
        assert!((s.pipeline.train_fraction - 0.8).abs() < 1e-12);
    }

    #[test]
    fn smoke_study_builds_balanced_data() {
        let data = StudyData::build(&Study::smoke()).expect("study builds");
        assert!(!data.dataset.is_empty());
        assert_eq!(data.dataset.len() % 4, 0, "4 balanced cells");
        assert_eq!(
            data.dataset.len(),
            data.split.train.len() + data.split.validation.len()
        );
        assert_eq!(data.corpus.len(), 210);
    }
}
