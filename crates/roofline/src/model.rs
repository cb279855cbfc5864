//! The roofline curve itself: `attainable(AI) = min(peak, bandwidth * AI)`.

use crate::classify::Boundedness;

/// A single roofline: one peak-throughput ceiling plus one bandwidth slope.
///
/// Units are GB/s for bandwidth and Gops/s for the peak; arithmetic
/// intensity is therefore in ops/byte, exactly as in the paper's prompts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak throughput ceiling in Gops/s.
    pub peak_gops: f64,
    /// Memory bandwidth slope in GB/s.
    pub bandwidth_gbs: f64,
}

impl Roofline {
    /// Create a roofline from a peak (Gops/s) and a bandwidth (GB/s).
    ///
    /// # Panics
    /// Panics if either quantity is non-positive or non-finite — a roofline
    /// with no ceiling or no slope is meaningless.
    pub fn new(peak_gops: f64, bandwidth_gbs: f64) -> Self {
        assert!(
            peak_gops.is_finite() && peak_gops > 0.0,
            "peak must be positive and finite, got {peak_gops}"
        );
        assert!(
            bandwidth_gbs.is_finite() && bandwidth_gbs > 0.0,
            "bandwidth must be positive and finite, got {bandwidth_gbs}"
        );
        Roofline {
            peak_gops,
            bandwidth_gbs,
        }
    }

    /// The balance point (a.k.a. machine balance or ridge point) in
    /// ops/byte: the AI at which the bandwidth slope meets the compute
    /// ceiling. Kernels below it are bandwidth-bound.
    #[inline]
    pub fn balance_point(&self) -> f64 {
        self.peak_gops / self.bandwidth_gbs
    }

    /// Attainable performance (Gops/s) at a given arithmetic intensity.
    #[inline]
    pub fn attainable_gops(&self, ai: f64) -> f64 {
        debug_assert!(ai >= 0.0, "arithmetic intensity cannot be negative");
        (self.bandwidth_gbs * ai).min(self.peak_gops)
    }

    /// Classify an arithmetic intensity against this roofline.
    ///
    /// The paper's convention (Fig. 3's CoT examples) is strict: AI below the
    /// balance point is bandwidth-bound, at-or-above is compute-bound.
    #[inline]
    pub fn classify(&self, ai: f64) -> Boundedness {
        if ai < self.balance_point() {
            Boundedness::Bandwidth
        } else {
            Boundedness::Compute
        }
    }

    /// Signed distance from the balance point in log₁₀ space.
    ///
    /// Positive values are compute-bound; the magnitude measures how far the
    /// kernel sits from the ridge (useful as a classification-difficulty
    /// proxy: kernels near zero are genuinely ambiguous).
    pub fn log_distance_to_balance(&self, ai: f64) -> f64 {
        assert!(ai > 0.0, "log distance requires positive AI");
        ai.log10() - self.balance_point().log10()
    }

    /// Fraction of peak achieved by an observed (AI, performance) point.
    ///
    /// Values are in `[0, 1]` for physically-possible observations; the
    /// denominator is the *attainable* roofline value at that AI, so a
    /// memory-bound kernel running at streaming bandwidth scores 1.0.
    pub fn efficiency(&self, ai: f64, achieved_gops: f64) -> f64 {
        let ceiling = self.attainable_gops(ai);
        if ceiling <= 0.0 {
            0.0
        } else {
            achieved_gops / ceiling
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roof() -> Roofline {
        // The worked CoT example from the paper's Fig. 3:
        // 45.9 GB/s bandwidth, 52.22 GFLOP/s peak -> balance 1.1377 FLOP/B.
        Roofline::new(52.22, 45.9)
    }

    #[test]
    fn balance_point_matches_paper_cot_example() {
        let bp = roof().balance_point();
        assert!((bp - 52.22 / 45.9).abs() < 1e-12);
        // The paper rounds to 1.14 FLOP/Byte.
        assert!((bp - 1.14).abs() < 0.005);
    }

    #[test]
    fn paper_cot_example_classifies_bandwidth_bound() {
        // "AI of 0.6 FLOP/Byte ... bandwidth-bound" (Fig. 3).
        assert_eq!(roof().classify(0.6), Boundedness::Bandwidth);
    }

    #[test]
    fn high_ai_classifies_compute_bound() {
        assert_eq!(roof().classify(5.0), Boundedness::Compute);
    }

    #[test]
    fn at_balance_point_is_compute_bound() {
        let r = roof();
        assert_eq!(r.classify(r.balance_point()), Boundedness::Compute);
    }

    #[test]
    fn attainable_is_min_of_slope_and_ceiling() {
        let r = roof();
        // Memory-limited region: slope.
        assert!((r.attainable_gops(0.5) - 45.9 * 0.5).abs() < 1e-9);
        // Compute-limited region: ceiling.
        assert!((r.attainable_gops(100.0) - 52.22).abs() < 1e-9);
        // Exactly at the ridge both sides agree.
        let bp = r.balance_point();
        assert!((r.attainable_gops(bp) - r.peak_gops).abs() < 1e-9);
    }

    #[test]
    fn log_distance_sign_encodes_boundedness() {
        let r = roof();
        assert!(r.log_distance_to_balance(0.1) < 0.0);
        assert!(r.log_distance_to_balance(10.0) > 0.0);
        assert!(r.log_distance_to_balance(r.balance_point()).abs() < 1e-12);
    }

    #[test]
    fn efficiency_is_relative_to_attainable() {
        let r = roof();
        // Streaming at full bandwidth with AI 0.5 => attainable achieved.
        let eff = r.efficiency(0.5, 45.9 * 0.5);
        assert!((eff - 1.0).abs() < 1e-12);
        // Half of attainable.
        let eff = r.efficiency(0.5, 45.9 * 0.25);
        assert!((eff - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "peak must be positive")]
    fn zero_peak_panics() {
        let _ = Roofline::new(0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn negative_bandwidth_panics() {
        let _ = Roofline::new(10.0, -1.0);
    }
}
