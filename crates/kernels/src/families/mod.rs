//! The kernel-family registry: 30 benchmark families spanning the workload
//! categories HeCBench covers (streaming, reductions, stencils, dense
//! linear algebra, sparse/irregular, and compute-heavy kernels).
//!
//! Each family builds a [`Variant`] — the paired (source text, kernel IR,
//! launch) description of one program instance — from a [`FamilyInput`]
//! (problem size, iteration count, precision, scaffold verbosity).

pub mod compute;
pub mod dense;
pub mod streaming;

use pce_gpu_sim::{KernelIr, LaunchConfig, Precision};

use crate::source::Verbosity;

/// Parameters a family is instantiated with.
#[derive(Debug, Clone, Copy)]
pub struct FamilyInput {
    /// Problem size (elements / matrix order / bodies …).
    pub n: u64,
    /// Iteration count for iterative kernels.
    pub iters: u64,
    /// Floating-point precision of the variant.
    pub precision: Precision,
    /// Scaffolding verbosity (0–3).
    pub verbosity: u8,
}

impl FamilyInput {
    /// C type name for the chosen precision.
    pub fn c_type(&self) -> &'static str {
        match self.precision {
            Precision::F32 => "float",
            Precision::F64 => "double",
        }
    }

    /// Literal suffix for the chosen precision (`1.0f` vs `1.0`).
    pub fn lit(&self, v: &str) -> String {
        match self.precision {
            Precision::F32 => format!("{v}f"),
            Precision::F64 => v.to_string(),
        }
    }

    /// Math-intrinsic name for the chosen precision (`expf` vs `exp`).
    pub fn fun(&self, base: &str) -> String {
        match self.precision {
            Precision::F32 => format!("{base}f"),
            Precision::F64 => base.to_string(),
        }
    }

    /// Element width in bytes.
    pub fn elem(&self) -> u64 {
        self.precision.bytes()
    }

    /// Verbosity wrapper.
    pub fn verb(&self) -> Verbosity {
        Verbosity(self.verbosity)
    }
}

/// One generated program instance, before corpus packaging.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Family name (e.g. `"saxpy"`).
    pub family: &'static str,
    /// Name of the primary (first) kernel.
    pub kernel_name: String,
    /// Kernel IR for the simulator.
    pub ir: KernelIr,
    /// Launch configuration (geometry + named params).
    pub launch: LaunchConfig,
    /// Full CUDA source text.
    pub cuda: String,
    /// Full OpenMP-offload source text, when the family has an OMP port.
    pub omp: Option<String>,
    /// Command-line arguments the binary is launched with (positional).
    pub args: Vec<String>,
}

/// A registered family: name, whether an OMP port exists, and the builder.
#[derive(Clone, Copy)]
pub struct Family {
    /// Family name.
    pub name: &'static str,
    /// Whether this family ships an OpenMP-offload port (HeCBench has
    /// fewer OMP benchmarks than CUDA ones: 303 vs 446).
    pub has_omp: bool,
    /// Variant builder.
    pub build: fn(&FamilyInput) -> Variant,
}

impl std::fmt::Debug for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("name", &self.name)
            .field("has_omp", &self.has_omp)
            .finish()
    }
}

/// The full registry, in a stable order.
pub fn registry() -> Vec<Family> {
    let mut fams = Vec::with_capacity(32);
    fams.extend(streaming::families());
    fams.extend(dense::families());
    fams.extend(compute::families());
    fams
}

/// Look up a family by name.
pub fn family(name: &str) -> Option<Family> {
    registry().into_iter().find(|f| f.name == name)
}

/// Shared helper: the standard 1-D launch used by elementwise families.
pub(crate) fn linear_launch(input: &FamilyInput) -> LaunchConfig {
    LaunchConfig::linear(input.n, 256)
        .expect("corpus launch shapes are statically valid")
        .with_param("n", input.n)
        .with_param("iters", input.iters)
}

/// Shared helper: entry-guard fraction for a padded 1-D launch.
pub(crate) fn guard_fraction(input: &FamilyInput, launch: &LaunchConfig) -> f64 {
    input.n as f64 / launch.total_threads() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_input() -> FamilyInput {
        FamilyInput {
            n: 1 << 16,
            iters: 10,
            precision: Precision::F32,
            verbosity: 1,
        }
    }

    #[test]
    fn registry_has_thirty_families_with_unique_names() {
        let fams = registry();
        assert!(
            fams.len() >= 30,
            "expected >= 30 families, got {}",
            fams.len()
        );
        let mut names: Vec<_> = fams.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate family names");
    }

    #[test]
    fn omp_coverage_is_partial_like_hecbench() {
        let fams = registry();
        let with_omp = fams.iter().filter(|f| f.has_omp).count();
        assert!(with_omp >= 18, "need enough OMP ports, got {with_omp}");
        assert!(with_omp < fams.len(), "some families must be CUDA-only");
    }

    #[test]
    fn every_family_builds_a_consistent_variant() {
        let input = demo_input();
        for fam in registry() {
            let v = (fam.build)(&input);
            assert_eq!(v.family, fam.name);
            assert!(
                v.cuda.contains("__global__"),
                "{}: CUDA source must contain a kernel",
                fam.name
            );
            assert!(
                v.cuda.contains(&v.kernel_name),
                "{}: kernel name {} missing from source",
                fam.name,
                v.kernel_name
            );
            assert_eq!(
                v.omp.is_some(),
                fam.has_omp,
                "{}: OMP port mismatch",
                fam.name
            );
            if let Some(omp) = &v.omp {
                assert!(
                    omp.contains("#pragma omp target"),
                    "{}: OMP source must contain a target region",
                    fam.name
                );
            }
            assert!(v.ir.validate().is_empty(), "{}: invalid IR", fam.name);
            assert!(!v.args.is_empty(), "{}: programs take CLI args", fam.name);
        }
    }

    #[test]
    fn precision_switches_types_in_source_and_ir() {
        let sp = demo_input();
        let dp = FamilyInput {
            precision: Precision::F64,
            ..sp
        };
        let fam = family("saxpy").unwrap();
        let vs = (fam.build)(&sp);
        let vd = (fam.build)(&dp);
        assert!(vs.cuda.contains("float"));
        assert!(vd.cuda.contains("double"));
        assert_ne!(vs.cuda, vd.cuda);
    }

    #[test]
    fn family_lookup_works() {
        assert!(family("saxpy").is_some());
        assert!(family("definitely-not-a-family").is_none());
    }

    #[test]
    fn helpers_format_precision_correctly() {
        let sp = demo_input();
        assert_eq!(sp.lit("2.0"), "2.0f");
        assert_eq!(sp.fun("exp"), "expf");
        let dp = FamilyInput {
            precision: Precision::F64,
            ..sp
        };
        assert_eq!(dp.lit("2.0"), "2.0");
        assert_eq!(dp.fun("sqrt"), "sqrt");
    }
}
