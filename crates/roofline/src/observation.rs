//! Profiled kernel counters and the arithmetic-intensity values derived
//! from them.
//!
//! These mirror the five quantities the paper's profiling step records per
//! kernel (§2.1): SP-FLOPs, DP-FLOPs, INTOPs, global-memory read/write
//! bytes, plus execution time.

use serde::Serialize;

use crate::hardware::OpClass;

/// Raw operation and DRAM-traffic counters for one profiled kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OpCounts {
    /// Single-precision floating-point operations executed.
    pub flops_sp: u64,
    /// Double-precision floating-point operations executed.
    pub flops_dp: u64,
    /// Integer arithmetic operations executed.
    pub intops: u64,
    /// Bytes read from device DRAM (post-cache traffic).
    pub dram_read_bytes: u64,
    /// Bytes written to device DRAM (post-cache traffic).
    pub dram_write_bytes: u64,
}

impl OpCounts {
    /// Total DRAM traffic in bytes.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Operation count for one class.
    #[inline]
    pub fn ops(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Sp => self.flops_sp,
            OpClass::Dp => self.flops_dp,
            OpClass::Int => self.intops,
        }
    }

    /// Total operations across all classes.
    #[inline]
    pub fn total_ops(&self) -> u64 {
        self.flops_sp + self.flops_dp + self.intops
    }

    /// Arithmetic intensity (ops/byte) for one class.
    ///
    /// A kernel whose working set is entirely cache-resident can produce
    /// zero DRAM traffic with nonzero ops; its AI is unbounded and
    /// represented as `f64::INFINITY` (such kernels are trivially
    /// compute-bound). Zero ops over zero bytes yields AI 0.
    pub fn ai(&self, class: OpClass) -> f64 {
        let ops = self.ops(class);
        let bytes = self.total_bytes();
        if bytes == 0 {
            if ops == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ops as f64 / bytes as f64
        }
    }

    /// The op class with the largest operation count, breaking ties in
    /// `Sp < Dp < Int` order. Returns `None` when no ops were executed.
    pub fn dominant_class(&self) -> Option<OpClass> {
        let candidates = [
            (self.flops_sp, OpClass::Sp),
            (self.flops_dp, OpClass::Dp),
            (self.intops, OpClass::Int),
        ];
        candidates
            .into_iter()
            .filter(|(n, _)| *n > 0)
            .max_by_key(|(n, _)| *n)
            .map(|(_, c)| c)
    }

    /// Element-wise sum of two counter sets (e.g. multiple kernel launches).
    pub fn accumulate(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            flops_sp: self.flops_sp + other.flops_sp,
            flops_dp: self.flops_dp + other.flops_dp,
            intops: self.intops + other.intops,
            dram_read_bytes: self.dram_read_bytes + other.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes + other.dram_write_bytes,
        }
    }
}

/// A complete profiled observation of one kernel launch: counters plus the
/// measured execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelObservation {
    /// Operation and traffic counters.
    pub counts: OpCounts,
    /// Measured kernel execution time in seconds.
    pub runtime_s: f64,
}

impl KernelObservation {
    /// Construct an observation, validating the runtime.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite runtimes.
    pub fn new(counts: OpCounts, runtime_s: f64) -> Self {
        assert!(
            runtime_s.is_finite() && runtime_s > 0.0,
            "runtime must be positive and finite, got {runtime_s}"
        );
        KernelObservation { counts, runtime_s }
    }

    /// Achieved throughput in Gops/s for one class.
    pub fn achieved_gops(&self, class: OpClass) -> f64 {
        self.counts.ops(class) as f64 / self.runtime_s / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saxpy_counts() -> OpCounts {
        // n = 1M SAXPY: 2 flops, read 8B, write 4B per element.
        OpCounts {
            flops_sp: 2_000_000,
            flops_dp: 0,
            intops: 1_000_000,
            dram_read_bytes: 8_000_000,
            dram_write_bytes: 4_000_000,
        }
    }

    #[test]
    fn ai_divides_ops_by_total_bytes() {
        let c = saxpy_counts();
        assert!((c.ai(OpClass::Sp) - 2.0 / 12.0).abs() < 1e-12);
        assert!((c.ai(OpClass::Int) - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(c.ai(OpClass::Dp), 0.0);
    }

    #[test]
    fn cache_resident_kernel_has_infinite_ai() {
        let c = OpCounts {
            flops_sp: 100,
            ..OpCounts::default()
        };
        assert!(c.ai(OpClass::Sp).is_infinite());
    }

    #[test]
    fn empty_kernel_has_zero_ai() {
        let c = OpCounts::default();
        assert_eq!(c.ai(OpClass::Sp), 0.0);
        assert_eq!(c.dominant_class(), None);
    }

    #[test]
    fn dominant_class_picks_largest_counter() {
        let c = saxpy_counts();
        assert_eq!(c.dominant_class(), Some(OpClass::Sp));
        let c2 = OpCounts {
            intops: 10,
            flops_dp: 5,
            ..OpCounts::default()
        };
        assert_eq!(c2.dominant_class(), Some(OpClass::Int));
    }

    #[test]
    fn accumulate_adds_fields() {
        let c = saxpy_counts();
        let sum = c.accumulate(&c);
        assert_eq!(sum.flops_sp, 2 * c.flops_sp);
        assert_eq!(sum.total_bytes(), 2 * c.total_bytes());
    }

    #[test]
    fn achieved_metrics_use_runtime() {
        let obs = KernelObservation::new(saxpy_counts(), 1e-3);
        // 2e6 flops in 1 ms -> 2 GFLOP/s.
        assert!((obs.achieved_gops(OpClass::Sp) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "runtime must be positive")]
    fn zero_runtime_panics() {
        let _ = KernelObservation::new(OpCounts::default(), 0.0);
    }
}
