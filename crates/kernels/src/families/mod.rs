//! The kernel-family registry: 30 benchmark families spanning the workload
//! categories HeCBench covers (streaming, reductions, stencils, dense
//! linear algebra, sparse/irregular, and compute-heavy kernels).
//!
//! Each family builds a [`Variant`] — the paired (source text, kernel IR,
//! launch) description of one program instance — from a [`FamilyInput`]
//! (problem size, iteration count, precision, scaffold verbosity, and
//! language). There is one packaging path: a family names its [`Pieces`]
//! (kernel and launch text, optional OpenMP region, buffers, scalars,
//! args, IR, launch) and calls [`Pieces::package`], which renders only
//! the dialect the input asks for, through the one [`assemble`].

pub mod compute;
pub mod dense;
pub mod streaming;

use pce_gpu_sim::{KernelIr, LaunchConfig, Precision};

use crate::source::{assemble, Language};

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
    /// The dialect the program's source is rendered in.
    pub language: Language,
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
}

/// One generated program instance, before corpus packaging.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Name of the primary (first) kernel.
    pub kernel_name: String,
    /// Kernel IR for the simulator.
    pub ir: KernelIr,
    /// Launch configuration (geometry + named params).
    pub launch: LaunchConfig,
    /// Full source text in the input's language; `None` when the family
    /// has no port in that language.
    pub source: Option<String>,
    /// Command-line arguments the binary is launched with (positional).
    pub args: Vec<String>,
}

/// A family's pieces, by name: everything [`Pieces::package`] turns into
/// a [`Variant`], and everything [`assemble`] reads.
#[derive(Debug)]
pub struct Pieces {
    /// Program name, printed in banners and usage lines.
    pub name: &'static str,
    /// Name of the primary (first) kernel.
    pub kernel_name: &'static str,
    /// CUDA kernel definition(s).
    pub cuda_kernel: String,
    /// CUDA host-side launch statement(s).
    pub cuda_launch: String,
    /// The OpenMP target region that stands in for kernel and launch;
    /// `None` when the family has no OMP port.
    pub omp_region: Option<String>,
    /// Buffer declarations: `(name, c_type, length_expr)`.
    pub buffers: Vec<(String, String, String)>,
    /// Scalars parsed from argv, in argv order: `(name, c_type, default)`.
    pub scalars: Vec<(String, String, String)>,
    /// Command-line arguments the binary is launched with (positional).
    pub args: Vec<String>,
    /// Kernel IR for the simulator.
    pub ir: KernelIr,
    /// Launch configuration (geometry + named params).
    pub launch: LaunchConfig,
}

impl Pieces {
    /// The one packaging path: render these pieces in `input.language`
    /// only.
    pub fn package(self, input: &FamilyInput) -> Variant {
        let source = assemble(&self, input.language, input.verbosity);
        Variant {
            kernel_name: self.kernel_name.to_string(),
            ir: self.ir,
            launch: self.launch,
            source,
            args: self.args,
        }
    }
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

/// Shared helper: the argv of the 1-D families, as `(scalars, args)`:
/// `n` then `iters`, defaulting to (and launched with) the sampled values.
pub(crate) fn n_iters_argv(input: &FamilyInput) -> (Vec<(String, String, String)>, Vec<String>) {
    let scalars = vec![
        ("n".into(), "long".into(), input.n.to_string()),
        ("iters".into(), "int".into(), input.iters.to_string()),
    ];
    (scalars, vec![input.n.to_string(), input.iters.to_string()])
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
            language: Language::Cuda,
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
        for fam in registry() {
            let cuda = (fam.build)(&demo_input());
            let omp = (fam.build)(&FamilyInput {
                language: Language::Omp,
                ..demo_input()
            });
            let src = cuda.source.as_deref().expect("every family renders CUDA");
            assert!(
                src.contains("__global__"),
                "{}: CUDA source must contain a kernel",
                fam.name
            );
            assert!(
                src.contains(&cuda.kernel_name),
                "{}: kernel name {} missing from source",
                fam.name,
                cuda.kernel_name
            );
            assert_eq!(
                omp.source.is_some(),
                fam.has_omp,
                "{}: OMP port mismatch",
                fam.name
            );
            if let Some(omp_src) = &omp.source {
                assert!(
                    omp_src.contains("#pragma omp target") && !omp_src.contains("__global__"),
                    "{}: OMP source must contain a target region and no kernel",
                    fam.name
                );
            }
            // The language picks the source text and nothing else.
            assert_eq!(
                (&omp.kernel_name, &omp.ir, &omp.launch, &omp.args),
                (&cuda.kernel_name, &cuda.ir, &cuda.launch, &cuda.args),
                "{}",
                fam.name
            );
            assert!(cuda.ir.validate().is_empty(), "{}: invalid IR", fam.name);
            assert!(
                !cuda.args.is_empty(),
                "{}: programs take CLI args",
                fam.name
            );
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
        let vs = (fam.build)(&sp).source.unwrap();
        let vd = (fam.build)(&dp).source.unwrap();
        assert!(vs.contains("float"));
        assert!(vd.contains("double"));
        assert_ne!(vs, vd);
    }

    /// FNV-1a digest of every family's output at [`pinned_input`], walked
    /// in registry order, then verbosity 0..=3, then {F32, F64}, then
    /// {CUDA, OMP when the family has a port}. Pinned before the
    /// packaging path was unified; any byte a family renders differently
    /// moves it.
    const FAMILY_OUTPUT_DIGEST: u64 = 0xe837_42f3_fdc1_62c5;
    /// Programs that walk renders: 30 families × 4 verbosities × 2
    /// precisions, plus the same again for the 24 OMP ports.
    const FAMILY_OUTPUT_COUNT: usize = 432;

    fn pinned_input(verbosity: u8, precision: Precision) -> FamilyInput {
        FamilyInput {
            n: 1 << 18,
            iters: 37,
            precision,
            verbosity,
            language: Language::Cuda,
        }
    }

    /// Continue an FNV-1a digest over one length-prefixed field.
    fn fold(mut h: u64, bytes: &[u8]) -> u64 {
        let len = (bytes.len() as u64).to_le_bytes();
        for &b in len.iter().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// One family's program in `lang`: kernel name, source, args, IR and
    /// launch; `None` when the family has no port in that language.
    fn render(fam: &Family, input: &FamilyInput, lang: Language) -> Option<(Variant, String)> {
        let mut v = (fam.build)(&FamilyInput {
            language: lang,
            ..*input
        });
        let source = v.source.take()?;
        Some((v, source))
    }

    #[test]
    fn every_family_output_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut count = 0;
        for fam in registry() {
            for verbosity in 0..=3 {
                for precision in [Precision::F32, Precision::F64] {
                    let input = pinned_input(verbosity, precision);
                    for lang in [Language::Cuda, Language::Omp] {
                        if lang == Language::Omp && !fam.has_omp {
                            continue;
                        }
                        let (v, source) = render(&fam, &input, lang)
                            .unwrap_or_else(|| panic!("{} renders no {lang}", fam.name));
                        count += 1;
                        h = fold(h, v.kernel_name.as_bytes());
                        h = fold(h, source.as_bytes());
                        for arg in &v.args {
                            h = fold(h, arg.as_bytes());
                        }
                        h = fold(h, &v.ir.fingerprint().to_le_bytes());
                        let l = &v.launch;
                        for d in [l.grid, l.block] {
                            for x in [d.x, d.y, d.z] {
                                h = fold(h, &x.to_le_bytes());
                            }
                        }
                        h = fold(h, &l.regs_per_thread.to_le_bytes());
                        h = fold(h, &l.shared_bytes_per_block.to_le_bytes());
                        for (name, value) in &l.params {
                            h = fold(h, name.as_bytes());
                            h = fold(h, &value.to_le_bytes());
                        }
                    }
                }
            }
        }
        assert_eq!(
            (h, count),
            (FAMILY_OUTPUT_DIGEST, FAMILY_OUTPUT_COUNT),
            "a family's rendered program moved"
        );
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
