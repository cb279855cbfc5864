//! The bounded-resource timing model.
//!
//! Kernel runtime is estimated as the slowest of the machine's contended
//! resources — FP32 pipes, FP64 pipes, INT pipes, SFU, shared memory, and
//! DRAM — plus a fixed launch overhead, divided by the launch's achieved
//! parallelism (occupancy × wave efficiency). This is a classical
//! "bottleneck" model: exactly the abstraction the Roofline model itself is
//! built on, extended with issue-rate detail so kernels do not all sit
//! *on* the roofline (the paper's Fig. 1 shows most kernels well below
//! their ceilings).

use pce_roofline::HardwareSpec;

use crate::ir::ThreadCosts;
use crate::launch::LaunchConfig;
use crate::memory::MemoryResolution;

/// Fixed kernel launch overhead in seconds (driver + hardware dispatch).
pub const LAUNCH_OVERHEAD_S: f64 = 4.0e-6;

/// Breakdown of the timing estimate, useful for reports and ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// Time the FP32 pipes would need, in seconds.
    pub t_fp32: f64,
    /// Time the FP64 pipes would need.
    pub t_fp64: f64,
    /// Time the INT pipes would need.
    pub t_int: f64,
    /// Time the special-function units would need.
    pub t_sfu: f64,
    /// Time shared-memory banks would need.
    pub t_shared: f64,
    /// Time the DRAM interface would need.
    pub t_dram: f64,
    /// Barrier/latency exposure not hidden by occupancy.
    pub t_latency: f64,
    /// Final runtime estimate (max of the above × slowdowns + overhead).
    pub runtime_s: f64,
    /// Achieved occupancy used in the estimate.
    pub occupancy: f64,
    /// Wave (tail) efficiency used in the estimate.
    pub wave_efficiency: f64,
}

impl TimingBreakdown {
    /// Name of the limiting resource.
    pub fn bottleneck(&self) -> &'static str {
        let pairs = [
            ("fp32", self.t_fp32),
            ("fp64", self.t_fp64),
            ("int", self.t_int),
            ("sfu", self.t_sfu),
            ("shared", self.t_shared),
            ("dram", self.t_dram),
            ("latency", self.t_latency),
        ];
        pairs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("latency", |p| p.0)
    }
}

/// Estimate the runtime of one kernel launch.
///
/// `costs` are per-thread; `mem` is the resolved DRAM traffic.
pub fn estimate_runtime(
    hw: &HardwareSpec,
    launch: &LaunchConfig,
    costs: &ThreadCosts,
    mem: &MemoryResolution,
) -> TimingBreakdown {
    let threads = launch.total_threads() as f64;
    let occupancy = launch.occupancy();
    let wave = launch.wave_efficiency(hw);

    // Parallel efficiency: low occupancy exposes latency; tails idle SMs.
    // Even a perfect launch cannot exceed ~85% of theoretical issue peak
    // on real silicon (Fig. 1's "theoretical peak is usually unmet").
    let issue_eff = 0.85 * wave * (0.35 + 0.65 * occupancy);

    // Divergence inflates issue counts.
    let div_inflation = 1.0 + costs.divergence.min(4.0) * 0.15;

    // Pipe throughputs in instructions/s, derived from the spec's peaks.
    // FP32 peak counts FMA as 2 flops, so instruction peak = flop peak / 2.
    let fp32_ips = hw.peak_sp_gflops * 1e9 / 2.0;
    let fp64_ips = hw.peak_dp_gflops * 1e9 / 2.0;
    let int_ips = hw.peak_int_giops * 1e9;
    // SFU throughput is 1/4 of FP32 issue on Ampere-class parts.
    let sfu_ips = fp32_ips / 4.0;
    // Shared memory: ~1 access/cycle/warp-lane across the chip.
    let shared_aps = hw.num_sms as f64 * 32.0 * hw.core_clock_mhz * 1e6;

    let eff = issue_eff.max(1e-3);
    let t_fp32 = costs.inst_fp32 * div_inflation * threads / (fp32_ips * eff);
    let t_fp64 = costs.inst_fp64 * div_inflation * threads / (fp64_ips * eff);
    let t_int = costs.inst_int * div_inflation * threads / (int_ips * eff);
    let t_sfu = costs.inst_sfu * threads / (sfu_ips * eff);
    let t_shared = costs.shared_accesses * threads / (shared_aps * eff);

    let dram_bps = hw.bandwidth_gbs * 1e9 * mem.bandwidth_efficiency;
    let t_dram = mem.total_bytes() / dram_bps;

    // Latency exposure from barriers: each sync drains the pipeline once
    // per block wave (~600 cycles), hidden proportionally by occupancy.
    let waves = (launch.grid.count() as f64 / hw.num_sms as f64)
        .ceil()
        .max(1.0);
    let t_latency =
        costs.syncs * waves * 600.0 / (hw.core_clock_mhz * 1e6) * (1.0 - 0.8 * occupancy).max(0.05);

    let body = t_fp32
        .max(t_fp64)
        .max(t_int)
        .max(t_sfu)
        .max(t_shared)
        .max(t_dram)
        .max(t_latency);
    // Secondary resources overlap imperfectly with the bottleneck: charge
    // a 10% tax of the runner-up to avoid knife-edge max() artifacts.
    let mut sorted = [t_fp32, t_fp64, t_int, t_sfu, t_shared, t_dram, t_latency];
    sorted.sort_by(|a, b| b.total_cmp(a));
    let runtime_s = body + 0.1 * sorted[1] + LAUNCH_OVERHEAD_S;

    TimingBreakdown {
        t_fp32,
        t_fp64,
        t_int,
        t_sfu,
        t_shared,
        t_dram,
        t_latency,
        runtime_s,
        occupancy,
        wave_efficiency: wave,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AccessPattern, Extent, KernelIr, Op, Precision};
    use crate::memory::resolve_memory;

    fn hw() -> HardwareSpec {
        HardwareSpec::rtx_3080()
    }

    fn run(kernel: &KernelIr, launch: &LaunchConfig) -> TimingBreakdown {
        let s = kernel.summarize(&launch.params);
        let mem = resolve_memory(&hw(), kernel, launch, &s.demands);
        estimate_runtime(&hw(), launch, &s.costs, &mem)
    }

    #[test]
    fn streaming_kernel_is_dram_bound() {
        let n = 32_000_000u64;
        let k = KernelIr::builder("copy")
            .buffer("in", 4, Extent::Param("n".into()))
            .buffer("out", 4, Extent::Param("n".into()))
            .op(Op::load("in", AccessPattern::Coalesced))
            .op(Op::store("out", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let t = run(&k, &lc);
        assert_eq!(t.bottleneck(), "dram");
        // 256 MB at ~700 GB/s -> a few hundred microseconds.
        assert!(
            t.runtime_s > 1e-4 && t.runtime_s < 1e-2,
            "runtime {}",
            t.runtime_s
        );
    }

    #[test]
    fn flop_heavy_kernel_is_compute_bound() {
        let n = 1_000_000u64;
        let k = KernelIr::builder("mandel")
            .buffer("out", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(5000),
                vec![Op::fma(Precision::F32)],
            ))
            .op(Op::store("out", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let t = run(&k, &lc);
        assert_eq!(t.bottleneck(), "fp32");
    }

    #[test]
    fn dp_kernel_bottlenecks_on_fp64_pipes() {
        let n = 1_000_000u64;
        let k = KernelIr::builder("dpstress")
            .buffer("out", 8, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(200),
                vec![Op::fma(Precision::F64)],
            ))
            .op(Op::store("out", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let t = run(&k, &lc);
        assert_eq!(t.bottleneck(), "fp64");
        // The 3080's DP pipes are 1/64 rate: this must dominate DRAM.
        assert!(t.t_fp64 > 10.0 * t.t_dram);
    }

    #[test]
    fn runtime_includes_launch_overhead_floor() {
        let k = KernelIr::builder("tiny")
            .op(Op::flop(Precision::F32))
            .build();
        let lc = LaunchConfig::linear(32, 32).unwrap();
        let t = run(&k, &lc);
        assert!(t.runtime_s >= LAUNCH_OVERHEAD_S);
    }

    #[test]
    fn achieved_flops_stay_below_peak() {
        let n = 4_000_000u64;
        let k = KernelIr::builder("peak")
            .buffer("out", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(1000),
                vec![Op::fma(Precision::F32)],
            ))
            .op(Op::store("out", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let t = run(&k, &lc);
        let flops = 2.0 * 1000.0 * n as f64;
        let achieved_gflops = flops / t.runtime_s / 1e9;
        assert!(achieved_gflops < hw().peak_sp_gflops);
        assert!(achieved_gflops > 0.3 * hw().peak_sp_gflops);
    }

    #[test]
    fn low_occupancy_slows_kernels_down() {
        let n = 4_000_000u64;
        let body = || {
            KernelIr::builder("occ")
                .buffer("out", 4, Extent::Param("n".into()))
                .op(Op::loop_n(
                    Extent::Const(500),
                    vec![Op::fma(Precision::F32)],
                ))
                .op(Op::store("out", AccessPattern::Coalesced))
                .build()
        };
        let good = LaunchConfig::linear(n, 256)
            .unwrap()
            .with_param("n", n)
            .with_regs(32);
        let bad = LaunchConfig::linear(n, 256)
            .unwrap()
            .with_param("n", n)
            .with_regs(255);
        let tg = run(&body(), &good);
        let tb = run(&body(), &bad);
        assert!(tb.runtime_s > tg.runtime_s);
        assert!(tb.occupancy < tg.occupancy);
    }

    #[test]
    fn sync_heavy_small_grid_pays_latency() {
        let k = KernelIr::builder("barrier")
            .ops((0..50).map(|_| Op::Sync))
            .build();
        let lc = LaunchConfig {
            regs_per_thread: 200,
            ..LaunchConfig::linear(2048, 64).unwrap()
        };
        let t = run(&k, &lc);
        assert!(t.t_latency > 0.0);
    }
}
