//! The memory system model: warp-level coalescing into 32-byte sectors,
//! and an analytic L2 capacity/locality model that converts *requested*
//! bytes into *DRAM* bytes.
//!
//! This is the component that makes empirical arithmetic intensity diverge
//! from what the source code suggests — reuse-heavy kernels see far less
//! DRAM traffic than their load/store counts imply, while badly-strided
//! kernels see far more. That divergence is precisely what makes the
//! paper's static-prediction task hard (§1), so it must be modeled rather
//! than assumed away.

use std::collections::BTreeMap;

use pce_roofline::HardwareSpec;

use crate::ir::{AccessPattern, Dir, KernelIr, MemDemand};
use crate::launch::LaunchConfig;

/// DRAM transaction sector size in bytes (NVIDIA L2 sector granularity).
pub const SECTOR_BYTES: f64 = 32.0;

/// The full memory-system resolution for one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryResolution {
    /// Total DRAM read bytes.
    pub dram_read_bytes: f64,
    /// Total DRAM write bytes.
    pub dram_write_bytes: f64,
    /// Bandwidth efficiency factor for the timing model, in `(0, 1]`:
    /// how close to peak DRAM bandwidth this access mix can stream.
    pub bandwidth_efficiency: f64,
}

/// Coalescing expansion factor: the ratio of sector bytes actually moved
/// to bytes usefully requested, for one access site.
///
/// * Fully coalesced 4-byte accesses pack 32 lanes into 4 sectors — every
///   moved byte is useful (factor 1.0).
/// * A stride of `s` elements spreads lanes over more sectors; once the
///   stride reaches a full sector each lane drags an entire 32-byte sector
///   for `elem_bytes` useful bytes.
/// * Random access behaves like the worst-case stride.
/// * Broadcast moves one sector for the whole warp.
pub fn coalescing_factor(pattern: AccessPattern, elem_bytes: u64) -> f64 {
    let elem = elem_bytes as f64;
    match pattern {
        AccessPattern::Coalesced => 1.0,
        AccessPattern::Strided(stride) => {
            let span = elem * stride as f64;
            if span <= 0.0 {
                1.0
            } else {
                // Lanes spaced `span` bytes apart: sectors touched per lane
                // grows until one full sector per lane.
                (span / elem).min(SECTOR_BYTES / elem).max(1.0)
            }
        }
        AccessPattern::Random => (SECTOR_BYTES / elem).max(1.0),
        AccessPattern::Broadcast => 1.0 / 32.0,
    }
}

/// Streaming efficiency of the DRAM interface for one pattern: irregular
/// request streams cannot saturate GDDR6X.
fn pattern_stream_efficiency(pattern: AccessPattern) -> f64 {
    match pattern {
        AccessPattern::Coalesced => 0.92,
        AccessPattern::Strided(s) if s <= 2 => 0.85,
        AccessPattern::Strided(_) => 0.60,
        AccessPattern::Random => 0.35,
        AccessPattern::Broadcast => 0.95,
    }
}

/// Temporal-locality credit of a pattern: how friendly its reuse stream is
/// to an LRU-ish L2 when the footprint exceeds capacity.
fn pattern_locality(pattern: AccessPattern) -> f64 {
    match pattern {
        AccessPattern::Coalesced => 0.35,
        AccessPattern::Strided(_) => 0.20,
        AccessPattern::Random => 0.05,
        AccessPattern::Broadcast => 0.98,
    }
}

/// Resolve the DRAM traffic for a kernel launch.
///
/// For every buffer we aggregate its access sites, apply coalescing to get
/// sector-level request streams, then run the capacity model:
///
/// * **reads** — the first touch of each resident byte is a compulsory
///   DRAM read (`min(footprint, requested)`); re-reads hit in L2 with
///   probability `p_hit = clamp(l2 / footprint) ⊕ locality`.
/// * **writes** — L2 is write-back: a buffer whose footprint fits in cache
///   writes each dirty byte to DRAM once; streaming writes larger than
///   cache pay per-sector.
///
/// Each buffer's DRAM read and write bytes are added into the launch's
/// two totals, in buffer-name order.
pub fn resolve_memory(
    hw: &HardwareSpec,
    kernel: &KernelIr,
    launch: &LaunchConfig,
    demands: &[MemDemand],
) -> MemoryResolution {
    let total_threads = launch.total_threads() as f64;
    let l2 = hw.l2_bytes as f64;

    // Group demands per buffer.
    let mut per_buffer: BTreeMap<&str, Vec<&MemDemand>> = BTreeMap::new();
    for d in demands {
        per_buffer.entry(d.buffer.as_str()).or_default().push(d);
    }

    let mut dram_read_bytes = 0.0;
    let mut dram_write_bytes = 0.0;
    let mut weighted_eff = 0.0;
    let mut moved_total = 0.0;

    for (name, sites) in per_buffer {
        let decl = kernel
            .buffer(name)
            .expect("validated kernel cannot reference unknown buffer");
        let elem = decl.elem_bytes as f64;
        let footprint = decl.len.resolve(&launch.params) as f64 * elem;

        let mut requested_read = 0.0;
        let mut sectored_read = 0.0;
        let mut sectored_write = 0.0;
        let mut locality_acc = 0.0;
        let mut eff_acc = 0.0;
        let mut weight_acc = 0.0;

        for site in &sites {
            let useful = site.accesses_per_thread * total_threads * elem;
            let moved = useful * coalescing_factor(site.pattern, decl.elem_bytes);
            match site.dir {
                Dir::Read => {
                    requested_read += useful;
                    sectored_read += moved;
                }
                Dir::Write => sectored_write += moved,
            }
            locality_acc += pattern_locality(site.pattern) * moved;
            eff_acc += pattern_stream_efficiency(site.pattern) * moved;
            weight_acc += moved;
        }

        let locality = if weight_acc > 0.0 {
            locality_acc / weight_acc
        } else {
            0.0
        };

        // --- Read side ---
        let compulsory = footprint.min(sectored_read);
        let reuse = (sectored_read - compulsory).max(0.0);
        let capacity_miss = if footprint <= 0.0 {
            0.0
        } else {
            (1.0 - l2 / footprint).clamp(0.0, 1.0)
        };
        // Re-reads miss when the line was evicted. Three effects shrink the
        // miss rate: residency (capacity), stream friendliness (locality),
        // and temporal clustering — a buffer re-read many times over
        // (GEMM operands, stencil halos, n-body positions) is touched by
        // co-scheduled blocks close together in time, so reuse distance is
        // far shorter than a full sweep. The last term models that.
        let reuse_factor = if footprint > 0.0 {
            (requested_read / footprint).max(1.0)
        } else {
            1.0
        };
        let miss = capacity_miss * (1.0 - locality) / (1.0 + reuse_factor / 32.0);
        let dram_read = compulsory + reuse * miss;

        // --- Write side (write-back L2) ---
        let written_footprint = footprint.min(sectored_write);
        let dram_write = if footprint <= l2 {
            // All dirty lines fit: one write-back per written byte.
            written_footprint
        } else {
            // Streaming writes: mostly per-sector, some write-combining.
            written_footprint.max(sectored_write * (1.0 - locality * 0.5))
        };

        dram_read_bytes += dram_read;
        dram_write_bytes += dram_write;
        weighted_eff += eff_acc;
        moved_total += weight_acc;
    }

    let bandwidth_efficiency = if moved_total > 0.0 {
        (weighted_eff / moved_total).clamp(0.2, 0.95)
    } else {
        0.9
    };

    MemoryResolution {
        dram_read_bytes,
        dram_write_bytes,
        bandwidth_efficiency,
    }
}

impl MemoryResolution {
    /// Total DRAM traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Extent, KernelIr, Op};

    fn hw() -> HardwareSpec {
        HardwareSpec::rtx_3080()
    }

    fn streaming_kernel(n: u64) -> (KernelIr, LaunchConfig) {
        let k = KernelIr::builder("stream")
            .buffer("in", 4, Extent::Param("n".into()))
            .buffer("out", 4, Extent::Param("n".into()))
            .op(Op::load("in", AccessPattern::Coalesced))
            .op(Op::store("out", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        (k, lc)
    }

    #[test]
    fn coalesced_f32_has_no_expansion() {
        assert_eq!(coalescing_factor(AccessPattern::Coalesced, 4), 1.0);
        assert_eq!(coalescing_factor(AccessPattern::Coalesced, 8), 1.0);
    }

    #[test]
    fn random_f32_drags_full_sectors() {
        assert_eq!(coalescing_factor(AccessPattern::Random, 4), 8.0);
        assert_eq!(coalescing_factor(AccessPattern::Random, 8), 4.0);
        // A 32-byte element already fills a sector.
        assert_eq!(coalescing_factor(AccessPattern::Random, 32), 1.0);
    }

    #[test]
    fn stride_expansion_saturates_at_sector_per_lane() {
        let two = coalescing_factor(AccessPattern::Strided(2), 4);
        let eight = coalescing_factor(AccessPattern::Strided(8), 4);
        let huge = coalescing_factor(AccessPattern::Strided(1000), 4);
        assert!(two > 1.0 && two <= eight);
        assert_eq!(eight, 8.0);
        assert_eq!(huge, 8.0); // capped at sector/elem
    }

    #[test]
    fn broadcast_shrinks_traffic() {
        assert!(coalescing_factor(AccessPattern::Broadcast, 4) < 0.1);
    }

    #[test]
    fn streaming_traffic_matches_footprints() {
        // Footprint >> L2: every byte read once from DRAM, written once.
        let n = 64_000_000u64; // 256 MB buffers vs 5 MB L2
        let (k, lc) = streaming_kernel(n);
        let s = k.summarize(&lc.params);
        let res = resolve_memory(&hw(), &k, &lc, &s.demands);
        let expected = n as f64 * 4.0;
        // Reads: compulsory footprint (padding threads add a whisker).
        assert!((res.dram_read_bytes - expected).abs() / expected < 0.02);
        assert!((res.dram_write_bytes - expected).abs() / expected < 0.02);
    }

    #[test]
    fn cache_resident_buffer_rereads_hit_in_l2() {
        // Small buffer re-read many times: DRAM reads ~= footprint, far
        // below requested bytes.
        let n = 4096u64; // 16 KB << 5 MB L2
        let k = KernelIr::builder("reread")
            .buffer("table", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(100),
                vec![Op::load("table", AccessPattern::Coalesced)],
            ))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let s = k.summarize(&lc.params);
        let res = resolve_memory(&hw(), &k, &lc, &s.demands);
        let footprint = n as f64 * 4.0;
        assert!((res.dram_read_bytes - footprint).abs() < 1.0);
        let requested = 100.0 * footprint;
        assert!(res.dram_read_bytes < 0.02 * requested);
    }

    #[test]
    fn oversized_footprint_mostly_misses() {
        let n = 32_000_000u64; // 128 MB >> L2
        let k = KernelIr::builder("bigscan")
            .buffer("big", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(4),
                vec![Op::load("big", AccessPattern::Coalesced)],
            ))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let s = k.summarize(&lc.params);
        let res = resolve_memory(&hw(), &k, &lc, &s.demands);
        // Requested 4x footprint; with poor capacity, DRAM reads should be
        // well above footprint (mostly missing), below requested.
        let footprint = n as f64 * 4.0;
        assert!(res.dram_read_bytes > 2.0 * footprint);
        assert!(res.dram_read_bytes < 4.0 * footprint);
    }

    #[test]
    fn random_access_amplifies_read_traffic() {
        let n = 32_000_000u64;
        let mk = |pattern| {
            let k = KernelIr::builder("pat")
                .buffer("a", 4, Extent::Param("n".into()))
                .op(Op::load("a", pattern))
                .build();
            let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
            let s = k.summarize(&lc.params);
            resolve_memory(&hw(), &k, &lc, &s.demands).dram_read_bytes
        };
        let coalesced = mk(AccessPattern::Coalesced);
        let random = mk(AccessPattern::Random);
        assert!(
            random > 3.0 * coalesced,
            "random {random} should far exceed coalesced {coalesced}"
        );
    }

    #[test]
    fn bandwidth_efficiency_reflects_pattern_mix() {
        let n = 32_000_000u64;
        let (k, lc) = streaming_kernel(n);
        let s = k.summarize(&lc.params);
        let good = resolve_memory(&hw(), &k, &lc, &s.demands).bandwidth_efficiency;

        let k2 = KernelIr::builder("bad")
            .buffer("a", 4, Extent::Param("n".into()))
            .op(Op::load("a", AccessPattern::Random))
            .build();
        let s2 = k2.summarize(&lc.params);
        let bad = resolve_memory(&hw(), &k2, &lc, &s2.demands).bandwidth_efficiency;
        assert!(good > bad);
        assert!(bad >= 0.2 && good <= 0.95);
    }

    #[test]
    fn write_back_caps_small_buffer_write_traffic() {
        let n = 4096u64;
        let k = KernelIr::builder("acc")
            .buffer("acc", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(50),
                vec![Op::store("acc", AccessPattern::Coalesced)],
            ))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let s = k.summarize(&lc.params);
        let res = resolve_memory(&hw(), &k, &lc, &s.demands);
        // 50 writes per element but only one write-back.
        let footprint = n as f64 * 4.0;
        assert!((res.dram_write_bytes - footprint).abs() < 1.0);
    }
}
