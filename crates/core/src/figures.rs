//! Figure regeneration: Fig. 1 (roofline scatter) and Fig. 2 (token
//! distributions).

use rayon::prelude::*;

use pce_dataset::{fig2_stats, Fig2Row, Split};
use pce_gpu_sim::Profiler;
use pce_kernels::Program;
use pce_roofline::plot::{build_plot, RooflinePlot};
use pce_roofline::{KernelObservation, OpClass};

use crate::study::Study;

/// Figure-1 payload plus its headline statistics.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// The plot data (curves + scatter).
    pub plot: RooflinePlot,
    /// Fraction of SP samples that are bandwidth-bound (the paper notes
    /// the majority are).
    pub sp_bb_fraction: f64,
    /// Fraction of INT samples that are bandwidth-bound.
    pub int_bb_fraction: f64,
    /// Fraction of DP samples that are bandwidth-bound.
    pub dp_bb_fraction: f64,
}

/// Profile the full corpus and build the Figure-1 roofline scatter.
///
/// Figure 1 is the *paper's* single-device view: every program (CUDA and
/// OMP alike) is profiled against the study's GPU spec and plotted on its
/// rooflines, reproducing the published figure verbatim. The
/// language-routed ground truth lives in the dataset pipeline and the
/// cross-hardware suite, not here.
///
/// `cache_enabled = false` reproduces the DESIGN.md ablation (static-like
/// traffic), collapsing the empirical-vs-static AI gap.
pub fn build_fig1(study: &Study, corpus: &[Program], cache_enabled: bool) -> Fig1 {
    let profiler = if cache_enabled {
        Profiler::new(study.specs.gpu.clone())
    } else {
        Profiler::new(study.specs.gpu.clone()).without_cache()
    };
    let observations: Vec<(String, KernelObservation)> = corpus
        .par_iter()
        .map(|p| {
            let profile = profiler.profile(&p.ir, &p.launch);
            (p.id.clone(), profile.observation())
        })
        .collect();
    let plot = build_plot(&study.specs.gpu, &observations, 96);
    Fig1 {
        sp_bb_fraction: plot.bandwidth_bound_fraction(OpClass::Sp),
        int_bb_fraction: plot.bandwidth_bound_fraction(OpClass::Int),
        dp_bb_fraction: plot.bandwidth_bound_fraction(OpClass::Dp),
        plot,
    }
}

/// Figure-2 payload: the eight box-plot rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// (split × language × class) token distributions.
    pub rows: Vec<Fig2Row>,
}

/// Build Figure 2 from the train/validation split.
pub fn build_fig2(split: &Split) -> Fig2 {
    Fig2 {
        rows: fig2_stats(split),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyData;

    #[test]
    fn fig1_shows_bb_majority_for_sp_and_int() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let fig = build_fig1(&study, &data.corpus, true);
        // §2.1: "the majority of the SP-FLOP and INT samples are BB".
        assert!(
            fig.sp_bb_fraction > 0.5,
            "SP BB fraction {}",
            fig.sp_bb_fraction
        );
        assert!(
            fig.int_bb_fraction > 0.5,
            "INT BB fraction {}",
            fig.int_bb_fraction
        );
        assert_eq!(fig.plot.curves.len(), 3);
        assert!(!fig.plot.scatter.is_empty());
    }

    #[test]
    fn cache_ablation_shifts_scatter_toward_bandwidth() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let cached = build_fig1(&study, &data.corpus, true);
        let uncached = build_fig1(&study, &data.corpus, false);
        // Without the cache model, DRAM traffic rises, AI falls, and more
        // samples land in the bandwidth-bound region.
        assert!(uncached.sp_bb_fraction >= cached.sp_bb_fraction);
    }

    #[test]
    fn fig2_rows_cover_both_splits() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let fig = build_fig2(&data.split);
        assert_eq!(fig.rows.len(), 8);
        assert!(fig.rows.iter().any(|r| r.split == "train"));
        assert!(fig.rows.iter().any(|r| r.split == "validation"));
    }
}
