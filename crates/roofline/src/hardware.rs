//! Hardware specifications used as roofline ceilings.
//!
//! A [`HardwareSpec`] captures exactly the quantities the paper's prompts
//! expose to the LLMs (Fig. 4): peak single-precision, double-precision and
//! integer throughput, plus peak DRAM bandwidth. The catalog carries two
//! [`SpecClass`] families — the paper's GPUs, and a CPU preset family so the
//! OpenMP half of the corpus can be labeled against the roofline of the
//! machine class it actually targets. A [`SpecPair`] bundles one spec of
//! each class for language-aware routing.

use pce_fault::PceError;
use serde::{Deserialize, Serialize};

use crate::model::Roofline;

/// The class of arithmetic operation a roofline is drawn for.
///
/// The paper profiles three counters per kernel — single-precision FLOPs,
/// double-precision FLOPs and integer ops — and draws one roofline per class
/// (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Single-precision (32-bit) floating-point operations.
    Sp,
    /// Double-precision (64-bit) floating-point operations.
    Dp,
    /// Integer operations (32-bit).
    Int,
}

impl OpClass {
    /// All operation classes, in the order the paper reports them.
    pub const ALL: [OpClass; 3] = [OpClass::Sp, OpClass::Dp, OpClass::Int];

    /// Human-readable label matching the paper's figures ("SP-FLOP", ...).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Sp => "SP-FLOP",
            OpClass::Dp => "DP-FLOP",
            OpClass::Int => "INTOP",
        }
    }

    /// Unit string for throughput in this class.
    pub fn unit(self) -> &'static str {
        match self {
            OpClass::Sp | OpClass::Dp => "GFLOP/s",
            OpClass::Int => "GINTOP/s",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The machine class a hardware spec describes.
///
/// Ground-truth labels must come from the roofline of the hardware the
/// code actually targets: CUDA kernels are profiled against a `Gpu` spec,
/// OpenMP-offload kernels against a `Cpu` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpecClass {
    /// A discrete GPU (the paper's machine model).
    Gpu,
    /// A many-core CPU (cores × SIMD × FMA × frequency peaks).
    Cpu,
}

impl SpecClass {
    /// Both spec classes, GPU first (catalog order).
    pub const ALL: [SpecClass; 2] = [SpecClass::Gpu, SpecClass::Cpu];

    /// Human-readable label ("GPU" / "CPU").
    pub fn label(self) -> &'static str {
        match self {
            SpecClass::Gpu => "GPU",
            SpecClass::Cpu => "CPU",
        }
    }
}

impl std::fmt::Display for SpecClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A hardware description sufficient to draw its rooflines.
///
/// All throughputs are *theoretical peaks* in units of 10⁹ operations per
/// second (GFLOP/s or GINTOP/s); bandwidth is peak DRAM bandwidth in GB/s.
/// For CPU specs the "SM" fields describe the analogous CPU quantities:
/// `num_sms` is the core count, `core_clock_mhz` the sustained all-core
/// clock, and `l2_bytes` the last-level (L3) cache capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Marketing name, e.g. `"NVIDIA GeForce RTX 3080"`.
    pub name: String,
    /// Machine class (GPU or CPU) — routes language-aware labeling.
    pub class: SpecClass,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_sp_gflops: f64,
    /// Peak double-precision throughput in GFLOP/s.
    pub peak_dp_gflops: f64,
    /// Peak integer throughput in GINTOP/s.
    pub peak_int_giops: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Device memory capacity in GiB (prompt metadata only).
    pub memory_gib: f64,
    /// Number of streaming multiprocessors (GPU) or cores (CPU).
    pub num_sms: u32,
    /// Core clock in MHz (used by the simulator's timing model).
    pub core_clock_mhz: f64,
    /// Last-level cache size in bytes (L2 on GPUs, L3 on CPUs).
    pub l2_bytes: u64,
}

/// Why a preset-name lookup failed.
///
/// The [`std::fmt::Display`] rendering always ends with the full catalog
/// listing, grouped by [`SpecClass`], so CLI users never have to guess.
#[derive(Debug, Clone, PartialEq)]
pub enum PresetLookupError {
    /// The fragment normalized to nothing (empty or all separators).
    Empty,
    /// No preset name contains the normalized fragment.
    Unknown {
        /// The fragment as given.
        fragment: String,
    },
    /// Several presets contain the fragment and none matches it exactly.
    Ambiguous {
        /// The fragment as given.
        fragment: String,
        /// Every preset name the fragment matched, in catalog order.
        matches: Vec<String>,
    },
}

impl std::fmt::Display for PresetLookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PresetLookupError::Empty => {
                write!(f, "empty hardware spec name")?;
            }
            PresetLookupError::Unknown { fragment } => {
                write!(f, "unknown hardware spec '{fragment}'")?;
            }
            PresetLookupError::Ambiguous { fragment, matches } => {
                write!(
                    f,
                    "ambiguous hardware spec '{fragment}' (matches {})",
                    matches.join(", ")
                )?;
            }
        }
        write!(f, "; known presets:\n{}", HardwareSpec::catalog_listing())
    }
}

impl std::error::Error for PresetLookupError {}

impl From<PresetLookupError> for PceError {
    /// A failed preset lookup is a spec problem: the name the user gave
    /// does not resolve, and retrying would not help.
    fn from(err: PresetLookupError) -> PceError {
        PceError::spec(err.to_string())
    }
}

impl HardwareSpec {
    /// The paper's target device: NVIDIA GeForce RTX 3080 10 GB (§2.1).
    ///
    /// Peaks follow the published Ampere GA102 numbers: 29.77 TFLOP/s SP,
    /// 1/64 rate DP, half-rate INT32, 760 GB/s GDDR6X bandwidth.
    pub fn rtx_3080() -> Self {
        HardwareSpec {
            name: "NVIDIA GeForce RTX 3080".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 29_770.0,
            peak_dp_gflops: 465.1,
            peak_int_giops: 14_885.0,
            bandwidth_gbs: 760.0,
            memory_gib: 10.0,
            num_sms: 68,
            core_clock_mhz: 1_710.0,
            l2_bytes: 5 * 1024 * 1024,
        }
    }

    /// NVIDIA A100-SXM4-40GB (used by the "expanding dataset" future-work
    /// experiments and the hardware-sensitivity ablation).
    pub fn a100() -> Self {
        HardwareSpec {
            name: "NVIDIA A100-SXM4-40GB".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 19_500.0,
            peak_dp_gflops: 9_700.0,
            peak_int_giops: 19_500.0,
            bandwidth_gbs: 1_555.0,
            memory_gib: 40.0,
            num_sms: 108,
            core_clock_mhz: 1_410.0,
            l2_bytes: 40 * 1024 * 1024,
        }
    }

    /// NVIDIA Tesla V100-SXM2-16GB.
    pub fn v100() -> Self {
        HardwareSpec {
            name: "NVIDIA Tesla V100-SXM2-16GB".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 15_700.0,
            peak_dp_gflops: 7_800.0,
            peak_int_giops: 15_700.0,
            bandwidth_gbs: 900.0,
            memory_gib: 16.0,
            num_sms: 80,
            core_clock_mhz: 1_530.0,
            l2_bytes: 6 * 1024 * 1024,
        }
    }

    /// AMD Instinct MI100 (performance-portability ablation target).
    pub fn mi100() -> Self {
        HardwareSpec {
            name: "AMD Instinct MI100".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 23_100.0,
            peak_dp_gflops: 11_500.0,
            peak_int_giops: 23_100.0,
            bandwidth_gbs: 1_229.0,
            memory_gib: 32.0,
            num_sms: 120,
            core_clock_mhz: 1_502.0,
            l2_bytes: 8 * 1024 * 1024,
        }
    }

    /// NVIDIA H100 SXM5 80GB (Hopper): full-rate DP, half-rate INT32,
    /// HBM3. The cross-hardware suite's "datacenter flagship" point.
    pub fn h100_sxm() -> Self {
        HardwareSpec {
            name: "NVIDIA H100 SXM5 80GB".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 66_910.0,
            peak_dp_gflops: 33_450.0,
            peak_int_giops: 33_450.0,
            bandwidth_gbs: 3_350.0,
            memory_gib: 80.0,
            num_sms: 132,
            core_clock_mhz: 1_830.0,
            l2_bytes: 50 * 1024 * 1024,
        }
    }

    /// NVIDIA GeForce RTX 4090 (Ada AD102): like the 3080, consumer
    /// silicon with 1/64-rate DP pipes and half-rate INT32 — but with the
    /// highest SP ridge point in the catalog (82.6 TFLOP/s over ~1 TB/s).
    pub fn rtx_4090() -> Self {
        HardwareSpec {
            name: "NVIDIA GeForce RTX 4090".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 82_580.0,
            peak_dp_gflops: 1_290.0,
            peak_int_giops: 41_290.0,
            bandwidth_gbs: 1_008.0,
            memory_gib: 24.0,
            num_sms: 128,
            core_clock_mhz: 2_520.0,
            l2_bytes: 72 * 1024 * 1024,
        }
    }

    /// AMD Instinct MI250X (CDNA2, both GCDs): full-rate vector DP over
    /// 3.2 TB/s of HBM2e — the catalog's bandwidth-rich extreme.
    pub fn mi250x() -> Self {
        HardwareSpec {
            name: "AMD Instinct MI250X".to_string(),
            class: SpecClass::Gpu,
            peak_sp_gflops: 47_870.0,
            peak_dp_gflops: 47_870.0,
            peak_int_giops: 47_870.0,
            bandwidth_gbs: 3_277.0,
            memory_gib: 128.0,
            num_sms: 220,
            core_clock_mhz: 1_700.0,
            l2_bytes: 16 * 1024 * 1024,
        }
    }

    /// Build a CPU spec from its microarchitectural throughput recipe.
    ///
    /// Per-class peaks follow the standard cores × SIMD × FMA × frequency
    /// expansion:
    ///
    /// * `sp_flops_per_cycle` is SP FLOPs per core per cycle — SIMD lanes
    ///   × FMA (×2) × FMA pipes,
    /// * DP throughput is half of SP (64-bit lanes halve the SIMD width),
    /// * integer SIMD has **no** fused multiply-add, so peak GINTOP/s is
    ///   `sp_flops_per_cycle / 2` per core per cycle — copying the
    ///   FMA-doubled GFLOP/s figure into the INTOP peak would double-count
    ///   integer throughput (and double the INT ridge point).
    fn cpu(
        name: &str,
        cores: u32,
        sp_flops_per_cycle: f64,
        clock_mhz: f64,
        bandwidth_gbs: f64,
        memory_gib: f64,
        l3_bytes: u64,
    ) -> Self {
        let ghz = clock_mhz / 1_000.0;
        // Round to 0.1 GFLOP/s: these are theoretical spec-sheet peaks,
        // and the tidy figure is what prompts and reports render.
        let sp = (cores as f64 * sp_flops_per_cycle * ghz * 10.0).round() / 10.0;
        HardwareSpec {
            name: name.to_string(),
            class: SpecClass::Cpu,
            peak_sp_gflops: sp,
            peak_dp_gflops: sp / 2.0,
            peak_int_giops: sp / 2.0,
            bandwidth_gbs,
            memory_gib,
            num_sms: cores,
            core_clock_mhz: clock_mhz,
            l2_bytes: l3_bytes,
        }
    }

    /// AMD EPYC 9654 (Genoa, Zen 4): 96 cores, two 256-bit FMA pipes per
    /// core (AVX-512 double-pumped → 32 SP FLOP/cycle), 2.4 GHz base,
    /// 12-channel DDR5-4800 (460.8 GB/s). The paper-default CPU spec for
    /// labeling the OpenMP corpus half.
    pub fn epyc_9654() -> Self {
        Self::cpu(
            "AMD EPYC 9654",
            96,
            32.0,
            2_400.0,
            460.8,
            384.0,
            384 * 1024 * 1024,
        )
    }

    /// Intel Xeon Platinum 8480+ (Sapphire Rapids): 56 cores, two native
    /// 512-bit FMA ports per core (64 SP FLOP/cycle), 2.0 GHz base,
    /// 8-channel DDR5-4800 (307.2 GB/s).
    pub fn xeon_8480p() -> Self {
        Self::cpu(
            "Intel Xeon Platinum 8480+",
            56,
            64.0,
            2_000.0,
            307.2,
            256.0,
            105 * 1024 * 1024,
        )
    }

    /// NVIDIA Grace (one die of the Superchip): 72 Neoverse V2 cores with
    /// four 128-bit SVE2 FMA pipes each (32 SP FLOP/cycle), 3.1 GHz,
    /// 546 GB/s of LPDDR5X — the catalog's bandwidth-rich CPU point.
    pub fn grace() -> Self {
        Self::cpu(
            "NVIDIA Grace CPU Superchip",
            72,
            32.0,
            3_100.0,
            546.0,
            120.0,
            114 * 1024 * 1024,
        )
    }

    /// All built-in GPU presets (the cross-hardware suite's GPU axis).
    pub fn gpu_presets() -> Vec<HardwareSpec> {
        vec![
            Self::rtx_3080(),
            Self::a100(),
            Self::v100(),
            Self::mi100(),
            Self::h100_sxm(),
            Self::rtx_4090(),
            Self::mi250x(),
        ]
    }

    /// All built-in CPU presets (the suite's CPU axis).
    pub fn cpu_presets() -> Vec<HardwareSpec> {
        vec![Self::epyc_9654(), Self::xeon_8480p(), Self::grace()]
    }

    /// All built-in presets: GPUs first, then CPUs.
    pub fn presets() -> Vec<HardwareSpec> {
        let mut all = Self::gpu_presets();
        all.extend(Self::cpu_presets());
        all
    }

    /// The built-in presets of one machine class.
    pub fn presets_of(class: SpecClass) -> Vec<HardwareSpec> {
        match class {
            SpecClass::Gpu => Self::gpu_presets(),
            SpecClass::Cpu => Self::cpu_presets(),
        }
    }

    /// The marketing names of all built-in presets, in preset order.
    pub fn preset_names() -> Vec<String> {
        Self::presets().into_iter().map(|hw| hw.name).collect()
    }

    /// The full catalog, grouped by [`SpecClass`] — the listing appended
    /// to every [`PresetLookupError`].
    pub fn catalog_listing() -> String {
        let mut out = String::new();
        for class in SpecClass::ALL {
            out.push_str(&format!("{class} presets:\n"));
            for hw in Self::presets_of(class) {
                out.push_str(&format!("  {}\n", hw.name));
            }
        }
        out
    }

    /// Look up a preset by a case- and format-insensitive fragment of its
    /// name: `"A100"`, `"a100"`, `"RTX 3080"`, `"rtx-3080"`, `"epyc-9654"`
    /// and `"NVIDIA GeForce RTX 3080"` all resolve. Matching ignores case
    /// and every non-alphanumeric character.
    ///
    /// A fragment that matches a preset's whole normalized name resolves
    /// to it; otherwise the fragment must be contained in **exactly one**
    /// preset name. Ambiguous fragments (`"nvidia"`, `"100"`) are
    /// rejected with the list of candidates rather than silently resolving
    /// to the first catalog entry; the error's `Display` always appends
    /// the catalog grouped by [`SpecClass`].
    pub fn preset_by_name(name: &str) -> Result<HardwareSpec, PresetLookupError> {
        let needle = normalize_name(name);
        if needle.is_empty() {
            return Err(PresetLookupError::Empty);
        }
        let presets = Self::presets();
        if let Some(exact) = presets.iter().find(|hw| normalize_name(&hw.name) == needle) {
            return Ok(exact.clone());
        }
        let matches: Vec<&HardwareSpec> = presets
            .iter()
            .filter(|hw| normalize_name(&hw.name).contains(&needle))
            .collect();
        match matches.as_slice() {
            [] => Err(PresetLookupError::Unknown {
                fragment: name.to_string(),
            }),
            [one] => Ok((*one).clone()),
            many => Err(PresetLookupError::Ambiguous {
                fragment: name.to_string(),
                matches: many.iter().map(|hw| hw.name.clone()).collect(),
            }),
        }
    }

    /// Peak throughput for an operation class, in Gops/s.
    pub fn peak_gops(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Sp => self.peak_sp_gflops,
            OpClass::Dp => self.peak_dp_gflops,
            OpClass::Int => self.peak_int_giops,
        }
    }

    /// The roofline for one operation class.
    pub fn roofline(&self, class: OpClass) -> Roofline {
        Roofline::new(self.peak_gops(class), self.bandwidth_gbs)
    }

    /// The ridge (balance) point of one class's roofline, in ops/byte:
    /// the arithmetic intensity where the bandwidth slope meets the
    /// compute ceiling. Kernels whose AI falls between two specs' ridge
    /// points flip boundedness between them.
    ///
    /// Units: GFLOP/s ÷ GB/s = FLOP/byte for the floating-point classes,
    /// GINTOP/s ÷ GB/s = INTOP/byte for [`OpClass::Int`] — the numerator
    /// must be the class's own peak (never, e.g., the FMA-doubled SP
    /// figure reused for integers).
    pub fn ridge_point(&self, class: OpClass) -> f64 {
        self.peak_gops(class) / self.bandwidth_gbs
    }

    /// Validate physical plausibility of the spec.
    ///
    /// Returns a list of human-readable problems; empty when valid.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut check = |cond: bool, msg: &str| {
            if !cond {
                problems.push(msg.to_string());
            }
        };
        check(
            self.peak_sp_gflops > 0.0,
            "peak SP throughput must be positive",
        );
        check(
            self.peak_dp_gflops > 0.0,
            "peak DP throughput must be positive",
        );
        check(
            self.peak_int_giops > 0.0,
            "peak INT throughput must be positive",
        );
        check(self.bandwidth_gbs > 0.0, "bandwidth must be positive");
        check(
            self.peak_dp_gflops <= self.peak_sp_gflops,
            "DP peak cannot exceed SP peak on any real device",
        );
        check(self.num_sms > 0, "SM/core count must be positive");
        check(self.core_clock_mhz > 0.0, "core clock must be positive");
        check(self.l2_bytes > 0, "last-level cache size must be positive");
        check(self.memory_gib > 0.0, "memory capacity must be positive");
        problems
    }
}

/// One hardware spec of each class, for language-aware routing: CUDA
/// kernels are profiled and labeled against the GPU spec, OpenMP kernels
/// against the CPU spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecPair {
    /// The GPU spec (CUDA corpus half).
    pub gpu: HardwareSpec,
    /// The CPU spec (OMP corpus half).
    pub cpu: HardwareSpec,
}

impl SpecPair {
    /// Pair a GPU spec with a CPU spec.
    ///
    /// # Errors
    /// Rejects specs whose [`SpecClass`] does not match their slot, so a
    /// CPU roofline can never silently label the CUDA half (or vice
    /// versa).
    pub fn new(gpu: HardwareSpec, cpu: HardwareSpec) -> Result<SpecPair, PceError> {
        if gpu.class != SpecClass::Gpu {
            return Err(PceError::spec(format!("'{}' is not a GPU spec", gpu.name)));
        }
        if cpu.class != SpecClass::Cpu {
            return Err(PceError::spec(format!("'{}' is not a CPU spec", cpu.name)));
        }
        Ok(SpecPair { gpu, cpu })
    }

    /// The paper-default pairing: RTX 3080 (the paper's GPU) with the
    /// EPYC 9654 CPU preset.
    pub fn paper_default() -> SpecPair {
        SpecPair {
            gpu: HardwareSpec::rtx_3080(),
            cpu: HardwareSpec::epyc_9654(),
        }
    }

    /// The spec for one machine class.
    pub fn for_class(&self, class: SpecClass) -> &HardwareSpec {
        match class {
            SpecClass::Gpu => &self.gpu,
            SpecClass::Cpu => &self.cpu,
        }
    }

    /// `"<gpu name> + <cpu name>"`, for report headings.
    pub fn label(&self) -> String {
        format!("{} + {}", self.gpu.name, self.cpu.name)
    }

    /// Validate both specs and the class/slot agreement.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.gpu.class != SpecClass::Gpu {
            problems.push(format!("gpu slot holds a {} spec", self.gpu.class));
        }
        if self.cpu.class != SpecClass::Cpu {
            problems.push(format!("cpu slot holds a {} spec", self.cpu.class));
        }
        for hw in [&self.gpu, &self.cpu] {
            for p in hw.validate() {
                problems.push(format!("{}: {p}", hw.name));
            }
        }
        problems
    }
}

/// Lowercase and strip every non-alphanumeric character, so name matching
/// ignores vendor prefixes' spacing, dashes and case.
fn normalize_name(s: &str) -> String {
    s.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx_3080_matches_published_specs() {
        let hw = HardwareSpec::rtx_3080();
        assert_eq!(hw.name, "NVIDIA GeForce RTX 3080");
        assert_eq!(hw.class, SpecClass::Gpu);
        assert!((hw.peak_sp_gflops - 29_770.0).abs() < 1.0);
        assert!((hw.bandwidth_gbs - 760.0).abs() < 1e-9);
        // DP is the 1/64-rate GA102 figure.
        assert!(hw.peak_dp_gflops < hw.peak_sp_gflops / 60.0);
        assert!(hw.validate().is_empty());
    }

    #[test]
    fn all_presets_validate() {
        for hw in HardwareSpec::presets() {
            assert!(hw.validate().is_empty(), "{} failed validation", hw.name);
        }
    }

    #[test]
    fn catalog_has_ten_presets_split_by_class() {
        let names = HardwareSpec::preset_names();
        assert_eq!(names.len(), 10);
        assert_eq!(HardwareSpec::gpu_presets().len(), 7);
        assert_eq!(HardwareSpec::cpu_presets().len(), 3);
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate preset names");
        for hw in HardwareSpec::gpu_presets() {
            assert_eq!(hw.class, SpecClass::Gpu, "{}", hw.name);
        }
        for hw in HardwareSpec::cpu_presets() {
            assert_eq!(hw.class, SpecClass::Cpu, "{}", hw.name);
        }
    }

    #[test]
    fn cpu_presets_follow_the_simd_throughput_recipe() {
        // EPYC 9654: 96 cores × 32 SP FLOP/cycle × 2.4 GHz.
        let epyc = HardwareSpec::epyc_9654();
        assert!((epyc.peak_sp_gflops - 7_372.8).abs() < 1e-9);
        assert!((epyc.peak_dp_gflops - 3_686.4).abs() < 1e-9);
        for cpu in HardwareSpec::cpu_presets() {
            // DP halves the SIMD width; integer SIMD has no FMA, so the
            // INTOP peak is half the FMA-doubled SP figure (the unit
            // audit: GINTOP/s is ops, not FLOPs).
            assert!(
                (cpu.peak_dp_gflops - cpu.peak_sp_gflops / 2.0).abs() < 1e-9,
                "{}",
                cpu.name
            );
            assert!(
                (cpu.peak_int_giops - cpu.peak_sp_gflops / 2.0).abs() < 1e-9,
                "{}",
                cpu.name
            );
            // A CPU ridge sits far below every GPU SP ridge's upper range:
            // CPU SP ridges land in single-to-low-double digits.
            let ridge = cpu.ridge_point(OpClass::Sp);
            assert!((5.0..30.0).contains(&ridge), "{}: {ridge}", cpu.name);
        }
    }

    #[test]
    fn cpu_presets_have_distinct_ridge_points() {
        let cpus = HardwareSpec::cpu_presets();
        for class in OpClass::ALL {
            let mut ridges: Vec<f64> = cpus.iter().map(|c| c.ridge_point(class)).collect();
            ridges.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in ridges.windows(2) {
                assert!(w[1] - w[0] > 0.5, "{class}: ridges too close {ridges:?}");
            }
        }
    }

    #[test]
    fn preset_lookup_is_case_and_format_insensitive() {
        for fragment in [
            "A100",
            "a100",
            "RTX 3080",
            "rtx-3080",
            "rtx3080",
            "NVIDIA GeForce RTX 3080",
            "h100",
            "H100 SXM5",
            "mi250x",
            "MI250X",
            "4090",
            "epyc-9654",
            "EPYC 9654",
            "xeon",
            "8480",
            "grace",
        ] {
            assert!(
                HardwareSpec::preset_by_name(fragment).is_ok(),
                "'{fragment}' failed to resolve"
            );
        }
        assert_eq!(
            HardwareSpec::preset_by_name("rtx-3080").unwrap().name,
            "NVIDIA GeForce RTX 3080"
        );
        assert_eq!(
            HardwareSpec::preset_by_name("epyc-9654").unwrap().class,
            SpecClass::Cpu
        );
        assert!(matches!(
            HardwareSpec::preset_by_name("H900-nonexistent"),
            Err(PresetLookupError::Unknown { .. })
        ));
        assert!(matches!(
            HardwareSpec::preset_by_name(""),
            Err(PresetLookupError::Empty)
        ));
        assert!(matches!(
            HardwareSpec::preset_by_name(" -_- "),
            Err(PresetLookupError::Empty)
        ));
    }

    #[test]
    fn ambiguous_fragments_are_rejected_with_grouped_catalog() {
        for fragment in ["nvidia", "100", "rtx", "mi", "amd"] {
            let err = HardwareSpec::preset_by_name(fragment).unwrap_err();
            let PresetLookupError::Ambiguous { matches, .. } = &err else {
                panic!("'{fragment}' should be ambiguous, got {err:?}");
            };
            assert!(matches.len() > 1, "{fragment}");
            let msg = err.to_string();
            assert!(msg.contains("ambiguous"), "{msg}");
            assert!(msg.contains("GPU presets:"), "{msg}");
            assert!(msg.contains("CPU presets:"), "{msg}");
        }
        // An unknown fragment's message carries the grouped catalog too.
        let msg = HardwareSpec::preset_by_name("zen5-9999")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("GPU presets:") && msg.contains("CPU presets:"));
        for name in HardwareSpec::preset_names() {
            assert!(msg.contains(&name), "catalog listing missing {name}");
        }
    }

    #[test]
    fn exact_normalized_match_beats_containment() {
        // "AMD Instinct MI100"'s normalized name is not a fragment of any
        // other preset, but a hypothetical future overlap must keep exact
        // matches working; today, the full-name lookup of every preset
        // must resolve despite shared vendor prefixes.
        for hw in HardwareSpec::presets() {
            assert_eq!(
                HardwareSpec::preset_by_name(&hw.name).unwrap().name,
                hw.name
            );
        }
    }

    // Catalog-wide invariants (ridge points, name round-trips, validation)
    // live in the workspace property suite: tests/properties.rs.

    #[test]
    fn peak_gops_selects_the_right_class() {
        let hw = HardwareSpec::rtx_3080();
        assert_eq!(hw.peak_gops(OpClass::Sp), hw.peak_sp_gflops);
        assert_eq!(hw.peak_gops(OpClass::Dp), hw.peak_dp_gflops);
        assert_eq!(hw.peak_gops(OpClass::Int), hw.peak_int_giops);
    }

    #[test]
    fn op_class_labels_match_paper() {
        assert_eq!(OpClass::Sp.label(), "SP-FLOP");
        assert_eq!(OpClass::Dp.label(), "DP-FLOP");
        assert_eq!(OpClass::Int.label(), "INTOP");
        assert_eq!(OpClass::Int.unit(), "GINTOP/s");
        assert_eq!(SpecClass::Gpu.label(), "GPU");
        assert_eq!(SpecClass::Cpu.label(), "CPU");
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut hw = HardwareSpec::rtx_3080();
        hw.peak_dp_gflops = hw.peak_sp_gflops * 2.0;
        hw.bandwidth_gbs = 0.0;
        let problems = hw.validate();
        assert_eq!(problems.len(), 2);
    }

    #[test]
    fn spec_pair_enforces_class_slots() {
        let pair = SpecPair::paper_default();
        assert_eq!(pair.gpu.class, SpecClass::Gpu);
        assert_eq!(pair.cpu.class, SpecClass::Cpu);
        assert!(pair.validate().is_empty());
        assert_eq!(pair.for_class(SpecClass::Gpu).name, pair.gpu.name);
        assert_eq!(pair.for_class(SpecClass::Cpu).name, pair.cpu.name);
        assert!(pair.label().contains(&pair.gpu.name));
        assert!(pair.label().contains(&pair.cpu.name));

        assert!(SpecPair::new(HardwareSpec::epyc_9654(), HardwareSpec::epyc_9654()).is_err());
        assert!(SpecPair::new(HardwareSpec::rtx_3080(), HardwareSpec::a100()).is_err());
        assert!(SpecPair::new(HardwareSpec::rtx_3080(), HardwareSpec::grace()).is_ok());

        // The errors are typed, name the offending spec, and are final.
        let err = SpecPair::new(HardwareSpec::epyc_9654(), HardwareSpec::grace()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid spec: 'AMD EPYC 9654' is not a GPU spec"
        );
        assert_eq!(err.kind(), "spec");
        assert!(!err.retryable());
        let err = SpecPair::new(HardwareSpec::rtx_3080(), HardwareSpec::a100()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid spec: 'NVIDIA A100-SXM4-40GB' is not a CPU spec"
        );

        let swapped = SpecPair {
            gpu: HardwareSpec::grace(),
            cpu: HardwareSpec::rtx_3080(),
        };
        assert_eq!(swapped.validate().len(), 2);
    }

    #[test]
    fn preset_lookup_errors_convert_to_spec_errors() {
        let err: PceError = HardwareSpec::preset_by_name("no-such-chip")
            .unwrap_err()
            .into();
        assert_eq!(err.kind(), "spec");
        assert!(err
            .to_string()
            .contains("unknown hardware spec 'no-such-chip'"));
        assert!(err.to_string().contains("known presets:"));
        assert!(!err.retryable());
    }

    #[test]
    fn serde_round_trip() {
        let hw = HardwareSpec::rtx_3080();
        let json = serde_json::to_string(&hw).unwrap();
        let back: HardwareSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(hw, back);

        let pair = SpecPair::paper_default();
        let json = serde_json::to_string(&pair).unwrap();
        let back: SpecPair = serde_json::from_str(&json).unwrap();
        assert_eq!(pair, back);
    }
}
