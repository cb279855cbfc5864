//! CUDA-style launch geometry and the occupancy model.

use std::collections::BTreeMap;

use pce_fault::PceError;
use pce_roofline::HardwareSpec;

/// A CUDA `dim3`: x/y/z extents of a grid or block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D dim.
    pub fn linear(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D dim.
    pub fn plane(x: u32, y: u32) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl std::fmt::Display for Dim3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// A kernel launch: grid/block geometry plus named scalar parameters
/// (problem sizes, iteration counts — the values benchmark binaries take
/// from their command line).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Grid dimensions (blocks).
    pub grid: Dim3,
    /// Block dimensions (threads per block).
    pub block: Dim3,
    /// Named launch parameters consumed by `Extent::Param`.
    pub params: BTreeMap<String, u64>,
    /// Registers per thread (occupancy input; 32 is a typical compiler
    /// outcome for medium kernels).
    pub regs_per_thread: u32,
    /// Shared memory per block in bytes (occupancy input).
    pub shared_bytes_per_block: u32,
}

impl LaunchConfig {
    /// A 1-D launch covering `n` elements with `block` threads per block.
    ///
    /// Errors if the block size is outside `1..=1024` or the domain needs
    /// more blocks than a `u32` grid dimension can address — silently
    /// clamping would under-cover the domain and mislabel the kernel.
    pub fn linear(n: u64, block: u32) -> Result<LaunchConfig, PceError> {
        if block == 0 || block > 1024 {
            return Err(PceError::spec(format!(
                "block size {block} must be in 1..=1024"
            )));
        }
        let blocks = n.div_ceil(block as u64);
        if blocks > u32::MAX as u64 {
            return Err(PceError::spec(format!(
                "linear launch over n={n} elements needs {blocks} blocks of {block}, \
                 which exceeds the u32 grid limit"
            )));
        }
        Ok(LaunchConfig {
            grid: Dim3::linear(blocks as u32),
            block: Dim3::linear(block),
            params: BTreeMap::new(),
            regs_per_thread: 32,
            shared_bytes_per_block: 0,
        })
    }

    /// A 2-D launch covering an `nx` × `ny` domain with `bx` × `by` blocks.
    ///
    /// Errors on an empty or over-wide block shape (the `bx * by <= 1024`
    /// check is done in 64-bit — in u32 it wraps, so e.g. 65536×65536
    /// passes as 0) and on grids that overflow a `u32` dimension.
    pub fn plane(nx: u64, ny: u64, bx: u32, by: u32) -> Result<LaunchConfig, PceError> {
        if bx == 0 || by == 0 || (bx as u64) * (by as u64) > 1024 {
            return Err(PceError::spec(format!(
                "block shape {bx}x{by} must be non-empty and hold at most 1024 threads"
            )));
        }
        let (gx, gy) = (nx.div_ceil(bx as u64), ny.div_ceil(by as u64));
        if gx > u32::MAX as u64 || gy > u32::MAX as u64 {
            return Err(PceError::spec(format!(
                "plane launch over {nx}x{ny} needs a {gx}x{gy} grid, \
                 which exceeds the u32 grid limit"
            )));
        }
        Ok(LaunchConfig {
            grid: Dim3::plane(gx as u32, gy as u32),
            block: Dim3::plane(bx, by),
            params: BTreeMap::new(),
            regs_per_thread: 40,
            shared_bytes_per_block: 0,
        })
    }

    /// Attach a named parameter (builder style).
    pub fn with_param(mut self, name: &str, value: u64) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Set register pressure (builder style).
    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Set shared-memory usage (builder style).
    pub fn with_shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes_per_block = bytes;
        self
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.block.count()
    }

    /// Total launched threads.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Theoretical occupancy in `(0, 1]`: fraction of each SM's warp slots
    /// this launch can keep resident, limited by warps, registers, and
    /// shared memory (an Ampere-like SM: 48 warp slots, 65 536 registers,
    /// 100 KiB shared).
    pub fn occupancy(&self) -> f64 {
        const MAX_WARPS_PER_SM: f64 = 48.0;
        const REGS_PER_SM: f64 = 65_536.0;
        const SHARED_PER_SM: f64 = 100.0 * 1024.0;
        const MAX_BLOCKS_PER_SM: f64 = 16.0;

        let warps_per_block = (self.threads_per_block().div_ceil(32)) as f64;
        let blocks_by_warps = (MAX_WARPS_PER_SM / warps_per_block).floor();
        let regs_per_block = self.regs_per_thread as f64 * self.threads_per_block() as f64;
        let blocks_by_regs = (REGS_PER_SM / regs_per_block.max(1.0)).floor();
        let blocks_by_shared = if self.shared_bytes_per_block == 0 {
            MAX_BLOCKS_PER_SM
        } else {
            (SHARED_PER_SM / self.shared_bytes_per_block as f64).floor()
        };
        let blocks = blocks_by_warps
            .min(blocks_by_regs)
            .min(blocks_by_shared)
            .clamp(1.0, MAX_BLOCKS_PER_SM);
        ((blocks * warps_per_block) / MAX_WARPS_PER_SM).min(1.0)
    }

    /// Tail-effect utilization: fraction of SM-waves that are full.
    ///
    /// A launch whose block count is a small non-multiple of the SM count
    /// leaves silicon idle in its last wave.
    pub fn wave_efficiency(&self, hw: &HardwareSpec) -> f64 {
        let blocks = self.grid.count() as f64;
        let sms = hw.num_sms as f64;
        if blocks >= 8.0 * sms {
            return 1.0; // deep launches amortize the tail
        }
        let waves = (blocks / sms).ceil().max(1.0);
        (blocks / (waves * sms)).clamp(0.05, 1.0)
    }

    /// Render as the `(gx,gy,gz) and (bx,by,bz)` string the paper's prompt
    /// template interpolates (Fig. 4).
    pub fn geometry_string(&self) -> String {
        format!("{} and {}", self.grid, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_launch_covers_all_elements() {
        let lc = LaunchConfig::linear(1000, 256).unwrap();
        assert_eq!(lc.grid.x, 4);
        assert_eq!(lc.total_threads(), 1024);
        assert_eq!(lc.threads_per_block(), 256);
    }

    #[test]
    fn exact_multiple_has_no_padding() {
        let lc = LaunchConfig::linear(1024, 256).unwrap();
        assert_eq!(lc.total_threads(), 1024);
    }

    #[test]
    fn plane_launch_geometry() {
        let lc = LaunchConfig::plane(100, 60, 16, 16).unwrap();
        assert_eq!(lc.grid.x, 7);
        assert_eq!(lc.grid.y, 4);
        assert_eq!(lc.block.count(), 256);
    }

    #[test]
    fn occupancy_full_for_modest_kernels() {
        let lc = LaunchConfig::linear(1 << 20, 256).unwrap().with_regs(32);
        assert!((lc.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let lc = LaunchConfig::linear(1 << 20, 256).unwrap().with_regs(255);
        // 255 regs * 256 threads = 65280 regs per block -> 1 block -> 8/48.
        assert!(lc.occupancy() < 0.2);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let lc = LaunchConfig::linear(1 << 20, 128)
            .unwrap()
            .with_shared_bytes(50 * 1024);
        // 2 blocks by shared -> 8 warps resident of 48.
        assert!(lc.occupancy() < 0.2);
    }

    #[test]
    fn wave_efficiency_penalizes_tiny_grids() {
        let hw = HardwareSpec::rtx_3080();
        let tiny = LaunchConfig {
            grid: Dim3::linear(10),
            ..LaunchConfig::linear(2560, 256).unwrap()
        };
        assert!(tiny.wave_efficiency(&hw) < 0.2);
        let deep = LaunchConfig::linear(1 << 22, 256).unwrap();
        assert_eq!(deep.wave_efficiency(&hw), 1.0);
    }

    #[test]
    fn geometry_string_matches_prompt_format() {
        let lc = LaunchConfig::plane(32, 32, 16, 16).unwrap();
        assert_eq!(lc.geometry_string(), "(2,2,1) and (16,16,1)");
    }

    #[test]
    fn params_round_trip() {
        let lc = LaunchConfig::linear(100, 32)
            .unwrap()
            .with_param("n", 100)
            .with_param("iters", 5);
        assert_eq!(lc.params["n"], 100);
        assert_eq!(lc.params["iters"], 5);
    }

    #[test]
    fn oversized_block_is_an_error() {
        let err = LaunchConfig::linear(10, 2048).unwrap_err();
        assert!(err.to_string().contains("block size 2048"), "{err}");
        assert!(LaunchConfig::linear(10, 0).is_err());
    }

    #[test]
    fn linear_grid_overflow_is_an_error_not_a_clamp() {
        // (u32::MAX + 1) blocks of 1 thread: the old code clamped the grid
        // to u32::MAX and silently under-covered the domain.
        let n = (u32::MAX as u64) + 1;
        let err = LaunchConfig::linear(n, 1).unwrap_err();
        assert!(err.to_string().contains("u32 grid limit"), "{err}");
        // The largest domain that still fits is fine.
        let lc = LaunchConfig::linear(u32::MAX as u64, 1).unwrap();
        assert_eq!(lc.grid.x, u32::MAX);
    }

    #[test]
    fn plane_block_shape_check_does_not_wrap_at_u32() {
        // 65536 * 65536 wraps to 0 in u32, so the old assert passed a
        // 4-billion-thread block; the widened check rejects it.
        let err = LaunchConfig::plane(1 << 20, 1 << 20, 65536, 65536).unwrap_err();
        assert!(err.to_string().contains("65536x65536"), "{err}");
        assert!(LaunchConfig::plane(64, 64, 0, 16).is_err());
        assert!(LaunchConfig::plane(64, 64, 33, 32).is_err(), "1056 > 1024");
        assert!(LaunchConfig::plane(64, 64, 32, 32).is_ok());
    }

    #[test]
    fn plane_grid_overflow_is_an_error() {
        let err = LaunchConfig::plane((u32::MAX as u64) * 2, 16, 1, 16).unwrap_err();
        assert!(err.to_string().contains("u32 grid limit"), "{err}");
    }
}
