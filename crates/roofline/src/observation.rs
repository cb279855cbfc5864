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
}

/// A complete profiled observation of one kernel launch: counters plus the
/// measured execution time — the output of `pce_gpu_sim::Profiler`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelObservation {
    /// Operation and traffic counters.
    pub counts: OpCounts,
    /// Measured kernel execution time in seconds.
    pub runtime_s: f64,
}

impl KernelObservation {
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
    }

    #[test]
    fn achieved_metrics_use_runtime() {
        let obs = KernelObservation {
            counts: saxpy_counts(),
            runtime_s: 1e-3,
        };
        // 2e6 flops in 1 ms -> 2 GFLOP/s.
        assert!((obs.achieved_gops(OpClass::Sp) - 2.0).abs() < 1e-12);
    }
}
