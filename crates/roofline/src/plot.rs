//! Generation of the data series behind the paper's Figure 1: the target
//! GPU's rooflines with all profiled kernels scattered on top.
//!
//! The figure has, per op class: a bandwidth slope, a compute ceiling, the
//! balance-point marker, and one scatter point per kernel with nonzero ops
//! in that class at `(AI_class, achieved Gops/s)`.

use crate::classify::Boundedness;
use crate::hardware::{HardwareSpec, OpClass};
use crate::observation::KernelObservation;

/// A polyline for one roofline curve, sampled on a log-spaced AI axis.
#[derive(Debug, Clone)]
pub struct RooflineCurve {
    /// Which op class this roofline belongs to.
    pub class: OpClass,
    /// Balance point in ops/byte.
    pub balance_point: f64,
    /// Peak ceiling in Gops/s.
    pub peak_gops: f64,
    /// `(ai, attainable)` samples, AI ascending.
    pub points: Vec<(f64, f64)>,
}

/// One kernel's scatter point in roofline space.
#[derive(Debug, Clone)]
pub struct ScatterPoint {
    /// Identifier of the program/kernel this point belongs to.
    pub id: String,
    /// Op class of the point.
    pub class: OpClass,
    /// Arithmetic intensity (ops/byte).
    pub ai: f64,
    /// Achieved throughput (Gops/s).
    pub achieved_gops: f64,
    /// Per-class verdict at this point.
    pub verdict: Boundedness,
}

/// The complete Figure-1 payload.
#[derive(Debug, Clone)]
pub struct RooflinePlot {
    /// Hardware the plot was generated for.
    pub hardware: String,
    /// One curve per op class.
    pub curves: Vec<RooflineCurve>,
    /// One point per (kernel, class-with-ops).
    pub scatter: Vec<ScatterPoint>,
}

impl RooflinePlot {
    /// Fraction of scatter points in a class that are bandwidth-bound.
    ///
    /// The paper notes "the majority of the SP-FLOP and INT samples are BB
    /// on this hardware" — this is the statistic backing that sentence.
    pub fn bandwidth_bound_fraction(&self, class: OpClass) -> f64 {
        let points: Vec<_> = self.scatter.iter().filter(|p| p.class == class).collect();
        if points.is_empty() {
            return 0.0;
        }
        let bb = points
            .iter()
            .filter(|p| p.verdict == Boundedness::Bandwidth)
            .count();
        bb as f64 / points.len() as f64
    }

    /// Render the plot as CSV rows (`series,id,ai,gops,verdict`) for
    /// external plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.scatter.len() + 64));
        out.push_str("series,id,ai,gops,verdict\n");
        for curve in &self.curves {
            for &(ai, att) in &curve.points {
                out.push_str(&format!(
                    "roofline-{},{},{:.6e},{:.6e},\n",
                    curve.class.label(),
                    self.hardware,
                    ai,
                    att
                ));
            }
        }
        for p in &self.scatter {
            out.push_str(&format!(
                "sample-{},{},{:.6e},{:.6e},{}\n",
                p.class.label(),
                p.id,
                p.ai,
                p.achieved_gops,
                p.verdict.short()
            ));
        }
        out
    }
}

/// Sample one roofline curve on `n` log-spaced AI values across
/// `[ai_min, ai_max]`.
pub fn sample_curve(
    hw: &HardwareSpec,
    class: OpClass,
    ai_min: f64,
    ai_max: f64,
    n: usize,
) -> RooflineCurve {
    assert!(ai_min > 0.0 && ai_max > ai_min, "need 0 < ai_min < ai_max");
    assert!(n >= 2, "need at least two samples");
    let roof = hw.roofline(class);
    let (lo, hi) = (ai_min.log10(), ai_max.log10());
    let mut points = Vec::with_capacity(n + 1);
    for i in 0..n {
        let ai = 10f64.powf(lo + (hi - lo) * i as f64 / (n - 1) as f64);
        points.push((ai, roof.attainable_gops(ai)));
    }
    // Always include the exact ridge point so plots show a sharp knee.
    let bp = roof.balance_point();
    if bp > ai_min && bp < ai_max {
        points.push((bp, roof.peak_gops));
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    RooflineCurve {
        class,
        balance_point: bp,
        peak_gops: roof.peak_gops,
        points,
    }
}

/// Build the full Figure-1 payload from a set of profiled kernels.
///
/// `observations` pairs a kernel identifier with its profiled observation.
/// Points are emitted only for classes with nonzero ops and finite AI, as
/// in the paper's plot.
pub fn build_plot(
    hw: &HardwareSpec,
    observations: &[(String, KernelObservation)],
    curve_samples: usize,
) -> RooflinePlot {
    let (ai_min, ai_max) = (1e-3, 1e4);
    let curves = OpClass::ALL
        .iter()
        .map(|&c| sample_curve(hw, c, ai_min, ai_max, curve_samples))
        .collect();

    let mut scatter = Vec::with_capacity(observations.len() * 2);
    for (id, obs) in observations {
        for &class in &OpClass::ALL {
            if obs.counts.ops(class) == 0 {
                continue;
            }
            let ai = obs.counts.ai(class);
            if !ai.is_finite() {
                continue;
            }
            let roof = hw.roofline(class);
            scatter.push(ScatterPoint {
                id: id.clone(),
                class,
                ai,
                achieved_gops: obs.achieved_gops(class),
                verdict: roof.classify(ai),
            });
        }
    }
    RooflinePlot {
        hardware: hw.name.clone(),
        curves,
        scatter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::OpCounts;

    fn obs(flops_sp: u64, flops_dp: u64, bytes: u64, runtime_s: f64) -> KernelObservation {
        KernelObservation {
            counts: OpCounts {
                flops_sp,
                flops_dp,
                intops: 0,
                dram_read_bytes: bytes / 2,
                dram_write_bytes: bytes - bytes / 2,
            },
            runtime_s,
        }
    }

    #[test]
    fn curve_is_monotonic_and_saturates_at_peak() {
        let hw = HardwareSpec::rtx_3080();
        let curve = sample_curve(&hw, OpClass::Sp, 1e-3, 1e4, 64);
        for w in curve.points.windows(2) {
            assert!(w[0].0 < w[1].0, "AI samples must ascend");
            assert!(w[0].1 <= w[1].1 + 1e-9, "attainable must be non-decreasing");
        }
        let last = curve.points.last().unwrap();
        assert!((last.1 - hw.peak_sp_gflops).abs() < 1e-6);
        // Ridge point included exactly.
        assert!(curve
            .points
            .iter()
            .any(|&(ai, att)| (ai - curve.balance_point).abs() < 1e-12
                && (att - curve.peak_gops).abs() < 1e-9));
    }

    #[test]
    fn scatter_skips_zero_op_classes() {
        let hw = HardwareSpec::rtx_3080();
        let observations = vec![("k0".to_string(), obs(1_000_000, 0, 12_000_000, 1e-4))];
        let plot = build_plot(&hw, &observations, 16);
        // Only the SP class has ops.
        assert_eq!(plot.scatter.len(), 1);
        assert_eq!(plot.scatter[0].class, OpClass::Sp);
    }

    #[test]
    fn scatter_points_sit_below_the_roofline() {
        let hw = HardwareSpec::rtx_3080();
        // A realistic sub-peak observation.
        let observations = vec![("k".to_string(), obs(10_000_000, 0, 12_000_000, 1e-3))];
        let plot = build_plot(&hw, &observations, 16);
        for p in &plot.scatter {
            let roof = hw.roofline(p.class);
            assert!(p.achieved_gops <= roof.attainable_gops(p.ai) * 1.0 + 1e-6);
        }
    }

    #[test]
    fn bandwidth_bound_fraction_counts_correctly() {
        let hw = HardwareSpec::rtx_3080();
        let observations = vec![
            // Low-AI SP sample: BB.
            ("low".to_string(), obs(1_000_000, 0, 12_000_000, 1e-4)),
            // Very high-AI SP sample: CB (AI = 1e9/1e4 = 1e5).
            ("high".to_string(), obs(1_000_000_000, 0, 10_000, 1e-3)),
        ];
        let plot = build_plot(&hw, &observations, 16);
        let frac = plot.bandwidth_bound_fraction(OpClass::Sp);
        assert!((frac - 0.5).abs() < 1e-12);
        // No DP samples at all.
        assert_eq!(plot.bandwidth_bound_fraction(OpClass::Dp), 0.0);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let hw = HardwareSpec::rtx_3080();
        let observations = vec![("k".to_string(), obs(1_000_000, 0, 12_000_000, 1e-4))];
        let plot = build_plot(&hw, &observations, 8);
        let csv = plot.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "series,id,ai,gops,verdict");
        let expected_curve_rows: usize = plot.curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(lines.len(), 1 + expected_curve_rows + plot.scatter.len());
    }
}
