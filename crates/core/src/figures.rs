//! Figure regeneration: Fig. 1 (roofline scatter). Fig. 2's rows are
//! [`pce_dataset::fig2_stats`] of the study's split.

use rayon::prelude::*;

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
pub fn build_fig1(study: &Study, corpus: &[Program]) -> Fig1 {
    let profiler = Profiler::new(study.specs.gpu.clone());
    let observations: Vec<(String, KernelObservation)> = corpus
        .par_iter()
        .map(|p| (p.id.clone(), profiler.profile(&p.ir, &p.launch)))
        .collect();
    let plot = build_plot(&study.specs.gpu, &observations, 96);
    Fig1 {
        sp_bb_fraction: plot.bandwidth_bound_fraction(OpClass::Sp),
        int_bb_fraction: plot.bandwidth_bound_fraction(OpClass::Int),
        dp_bb_fraction: plot.bandwidth_bound_fraction(OpClass::Dp),
        plot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyData;
    use pce_dataset::fig2_stats;

    #[test]
    fn fig1_shows_bb_majority_for_sp_and_int() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let fig = build_fig1(&study, &data.corpus);
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
        let cached = build_fig1(&study, &data.corpus);
        // A one-byte L2 sends every re-read to DRAM: traffic rises, AI
        // falls, and more samples land in the bandwidth-bound region.
        let mut no_l2 = study.clone();
        no_l2.specs.gpu.l2_bytes = 1;
        let uncached = build_fig1(&no_l2, &data.corpus);
        assert!(uncached.sp_bb_fraction >= cached.sp_bb_fraction);
    }

    #[test]
    fn fig2_rows_cover_both_splits() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let rows = fig2_stats(&data.split);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|r| r.split == "train"));
        assert!(rows.iter().any(|r| r.split == "validation"));
    }
}
