//! Program-text assembly: [`assemble`] wraps a family's pieces into one
//! complete benchmark program (headers, helpers, host harness, argument
//! parsing) in the one dialect its corpus slot asks for, CUDA or
//! OpenMP offload. It is the only assembler; every family reaches it
//! through [`Pieces::package`].
//!
//! The assembler's *verbosity* knob controls how much non-kernel scaffolding
//! a program carries (validation code, timing helpers, long banners). This
//! is what gives the corpus the heavy-tailed token distribution the paper
//! prunes at 8 000 tokens (§2.2) — in real HeCBench, program length varies
//! wildly for exactly these reasons.

use std::sync::LazyLock;

use serde::Serialize;

use crate::families::Pieces;

/// Corpus language, matching the paper's two HeCBench subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Language {
    /// CUDA C++.
    Cuda,
    /// OpenMP target offload C++.
    Omp,
}

impl Language {
    /// Label used in prompts ("CUDA" / "OMP", as the paper abbreviates).
    pub fn label(self) -> &'static str {
        match self {
            Language::Cuda => "CUDA",
            Language::Omp => "OMP",
        }
    }

    /// The hardware class this language targets: CUDA kernels run on a
    /// GPU, the OpenMP-offload half of the corpus is labeled against a
    /// CPU roofline. This is the single routing point the whole pipeline
    /// (profiling, labeling, prompts, suite) keys spec choice on.
    pub fn spec_class(self) -> pce_roofline::SpecClass {
        match self {
            Language::Cuda => pce_roofline::SpecClass::Gpu,
            Language::Omp => pce_roofline::SpecClass::Cpu,
        }
    }
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Assemble a family's complete program in `language`, at scaffolding
/// verbosity 0 (bare) to 3 (bloated). Returns `None` when the family has
/// no port in that language (no OpenMP region).
///
/// Both dialects share one skeleton. They differ only in the banner's
/// dialect name and the include line, the `CUDA_CHECK` helper (CUDA,
/// verbosity ≥ 1), the kernel definitions (CUDA only: the OpenMP region
/// sits inside `main`), and, in `main`, the launch code, the CUDA device
/// buffers and copies, and the host buffer names.
pub fn assemble(p: &Pieces, language: Language, verbosity: u8) -> Option<String> {
    let (dialect, include, launch_code) = match language {
        Language::Cuda => ("CUDA", "#include <cuda.h>\n\n", p.cuda_launch.as_str()),
        Language::Omp => (
            "OpenMP offload",
            "#include <omp.h>\n\n",
            p.omp_region.as_deref()?,
        ),
    };
    let cuda = language == Language::Cuda;
    let mut out = String::with_capacity(8 * 1024);
    banner(&mut out, p.name, dialect, verbosity);
    out.push_str("#include <cstdio>\n#include <cstdlib>\n#include <cmath>\n");
    out.push_str(include);
    if cuda && verbosity >= 1 {
        out.push_str(CUDA_CHECK_HELPER);
    }
    if verbosity >= 2 {
        out.push_str(TIMER_HELPER);
        out.push_str(FILL_HELPERS);
    }
    bulk_scaffolding(&mut out, p.name, verbosity);
    out.push('\n');
    if cuda {
        out.push_str(&p.cuda_kernel);
        out.push('\n');
    }
    host_main(&mut out, p, launch_code, language, verbosity);
    Some(out)
}

/// Long-form scaffolding appended to mid/high-verbosity programs: tuning
/// notes, usage documentation, and precomputed coefficient tables. Real
/// benchmark suites carry exactly this kind of bulk, and it is what pushes
/// a program past the paper's 8 000-token pruning cutoff.
///
/// Only the usage lines name the program. The tuning notes and the
/// reference table with its checksum helper are the same bytes in every
/// program (about 130 formatted lines and 576 float renders), so each is
/// rendered once per process ([`TUNING_NOTES`], [`REFERENCE_TABLE`]) and
/// copied in.
fn bulk_scaffolding(out: &mut String, name: &str, verbosity: u8) {
    if verbosity >= 2 {
        out.push_str(&TUNING_NOTES);
    }
    if verbosity >= 3 {
        out.push_str(
            "// ---- usage ------------------------------------------------------\n\
             // This benchmark accepts positional arguments; see main() for the\n\
             // parse order. Typical invocations used in nightly sweeps:\n",
        );
        for i in 0..48 {
            out.push_str(&format!(
                "//   ./{name} {} {}   # sweep point {i}\n",
                1 << (12 + i % 14),
                1 + (i * 7) % 500
            ));
        }
        out.push_str(&REFERENCE_TABLE);
    }
}

/// The verbosity-2 tuning-notes block, rendered on first use.
static TUNING_NOTES: LazyLock<String> = LazyLock::new(|| {
    let mut out = String::new();
    out.push_str("// ---- tuning notes ----------------------------------------------\n");
    for sm in [60, 68, 80, 84, 108, 128] {
        for block in [64, 128, 256, 512] {
            out.push_str(&format!(
                "//   on a {sm}-SM part with {block}-thread blocks, measured \
                 occupancy-limited behaviour differs; retune grid divisors and \
                 confirm with the profiler before trusting wall-clock numbers.\n"
            ));
        }
    }
    out.push_str("// Additional launch-shape observations, per driver release:\n");
    for rel in 0..105 {
        out.push_str(&format!(
            "//   r{rel:03}: default heuristics pick {} blocks/SM with {} regs/thread; \
             override via env when the resident-warp estimate disagrees with nvvp \
             timelines, and re-verify the {} KiB shared-memory carveout.\n",
            1 + rel % 6,
            24 + (rel * 8) % 72,
            8 << (rel % 4)
        ));
    }
    out.push('\n');
    out
});

/// The verbosity-3 `kReferenceTable` and `reference_checksum` block,
/// rendered on first use.
static REFERENCE_TABLE: LazyLock<String> = LazyLock::new(|| {
    let mut out = String::new();
    out.push_str("\nstatic const double kReferenceTable[] = {\n");
    for row in 0..96 {
        out.push_str("  ");
        for col in 0..6 {
            let v = ((row * 6 + col) as f64 * 0.618_033_988_75).fract();
            out.push_str(&format!("{v:.12},"));
        }
        out.push('\n');
    }
    out.push_str("};\n");
    out.push_str(
        "static double reference_checksum(long n) {\n\
         \x20 double acc = 0.0;\n\
         \x20 for (long i = 0; i < n; i++) acc += kReferenceTable[i % 576];\n\
         \x20 return acc;\n}\n\n",
    );
    out
});

fn banner(out: &mut String, name: &str, dialect: &str, verbosity: u8) {
    out.push_str(&format!("// {name} benchmark ({dialect} version)\n"));
    if verbosity >= 1 {
        out.push_str(
            "// Part of a heterogeneous computing benchmark collection.\n\
             // Ground-truth performance characteristics are obtained by\n\
             // profiling on the target device; this source is the input\n\
             // to source-level performance estimation studies.\n",
        );
    }
    if verbosity >= 3 {
        out.push_str(
            "//\n// Redistribution and use in source and binary forms, with or without\n\
             // modification, are permitted provided that the following conditions\n\
             // are met: redistributions of source code must retain the above\n\
             // copyright notice, this list of conditions and the following\n\
             // disclaimer in the documentation and/or other materials provided\n\
             // with the distribution. THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT\n\
             // HOLDERS AND CONTRIBUTORS \"AS IS\" AND ANY EXPRESS OR IMPLIED\n\
             // WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES\n\
             // OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE\n\
             // DISCLAIMED.\n//\n",
        );
    }
    out.push('\n');
}

/// Host-side buffer names: CUDA keeps `h_x` beside the device copy
/// `d_x`, an OpenMP program maps its one `x`.
fn host_prefix(language: Language) -> &'static str {
    match language {
        Language::Cuda => "h_",
        Language::Omp => "",
    }
}

fn host_main(out: &mut String, p: &Pieces, launch_code: &str, language: Language, verbosity: u8) {
    let cuda = language == Language::Cuda;
    let h = host_prefix(language);
    out.push_str("int main(int argc, char* argv[]) {\n");
    // Argv parsing: positional scalars with defaults.
    for (pos, (name, c_type, default)) in p.scalars.iter().enumerate() {
        let idx = pos + 1;
        let parse = if c_type.contains("float") || c_type.contains("double") {
            format!("atof(argv[{idx}])")
        } else {
            format!("atol(argv[{idx}])")
        };
        out.push_str(&format!(
            "  {c_type} {name} = (argc > {idx}) ? ({c_type}){parse} : {default};\n"
        ));
    }
    out.push('\n');
    for (name, c_type, len) in &p.buffers {
        out.push_str(&format!(
            "  {c_type}* {h}{name} = ({c_type}*)malloc(sizeof({c_type}) * ({len}));\n"
        ));
        if cuda {
            out.push_str(&format!("  {c_type}* d_{name};\n"));
            out.push_str(&format!(
                "  cudaMalloc(&d_{name}, sizeof({c_type}) * ({len}));\n"
            ));
        }
    }
    if verbosity >= 2 {
        for (name, c_type, len) in &p.buffers {
            out.push_str(&format!(
                "  fill_{}({h}{name}, ({len}));\n",
                short_type(c_type)
            ));
        }
    }
    if cuda {
        for (name, c_type, len) in &p.buffers {
            out.push_str(&format!(
                "  cudaMemcpy(d_{name}, h_{name}, sizeof({c_type}) * ({len}), cudaMemcpyHostToDevice);\n"
            ));
        }
    }
    out.push('\n');
    if verbosity >= 2 {
        out.push_str("  double t0 = wall_time();\n");
    }
    out.push_str(launch_code);
    if cuda {
        out.push_str("  cudaDeviceSynchronize();\n");
    }
    if verbosity >= 2 {
        out.push_str("  double t1 = wall_time();\n  printf(\"kernel time: %f s\\n\", t1 - t0);\n");
    }
    if cuda {
        if let Some((name, c_type, len)) = p.buffers.last() {
            out.push_str(&format!(
                "  cudaMemcpy(h_{name}, d_{name}, sizeof({c_type}) * ({len}), cudaMemcpyDeviceToHost);\n"
            ));
        }
    }
    if verbosity >= 3 {
        validation_block(out, p, language);
    }
    for (name, ..) in &p.buffers {
        if cuda {
            out.push_str(&format!("  cudaFree(d_{name});\n"));
        }
        out.push_str(&format!("  free({h}{name});\n"));
    }
    out.push_str("  return 0;\n}\n");
}

fn validation_block(out: &mut String, p: &Pieces, language: Language) {
    if let Some((name, c_type, len)) = p.buffers.last() {
        let prefix = host_prefix(language);
        out.push_str(&format!(
            "  // lightweight sanity check against NaNs and wild values\n\
             \x20 long bad = 0;\n\
             \x20 for (long v = 0; v < (long)({len}); v++) {{\n\
             \x20   {c_type} val = {prefix}{name}[v];\n\
             \x20   if (val != val) bad++;\n\
             \x20 }}\n\
             \x20 printf(\"validation: %ld suspicious values\\n\", bad);\n"
        ));
    }
}

fn short_type(c_type: &str) -> &'static str {
    if c_type.contains("double") {
        "f64"
    } else if c_type.contains("float") {
        "f32"
    } else {
        "i32"
    }
}

const CUDA_CHECK_HELPER: &str = "\
#define CUDA_CHECK(call)                                            \\\n\
  do {                                                              \\\n\
    cudaError_t err_ = (call);                                      \\\n\
    if (err_ != cudaSuccess) {                                      \\\n\
      fprintf(stderr, \"CUDA error %d at %s:%d\\n\", err_, __FILE__, \\\n\
              __LINE__);                                            \\\n\
      exit(1);                                                      \\\n\
    }                                                               \\\n\
  } while (0)\n\n";

const TIMER_HELPER: &str = "\
#include <chrono>\n\
static double wall_time() {\n\
  auto now = std::chrono::high_resolution_clock::now();\n\
  return std::chrono::duration<double>(now.time_since_epoch()).count();\n\
}\n\n";

const FILL_HELPERS: &str = "\
static void fill_f32(float* p, long n) {\n\
  for (long i = 0; i < n; i++) p[i] = (float)(i % 97) * 0.013f + 0.5f;\n\
}\n\
static void fill_f64(double* p, long n) {\n\
  for (long i = 0; i < n; i++) p[i] = (double)(i % 89) * 0.017 + 0.25;\n\
}\n\
static void fill_i32(int* p, long n) {\n\
  for (long i = 0; i < n; i++) p[i] = (int)((i * 1103515245 + 12345) & 0x7fffffff);\n\
}\n\n";

#[cfg(test)]
mod tests {
    use pce_gpu_sim::{AccessPattern, Extent, KernelIr, LaunchConfig, Op};

    use super::*;

    fn demo_pieces() -> Pieces {
        Pieces {
            name: "saxpy",
            kernel_name: "saxpy",
            cuda_kernel: "__global__ void saxpy(int n, float a, const float* x, float* y) {\n  int i = blockIdx.x * blockDim.x + threadIdx.x;\n  if (i < n) y[i] = a * x[i] + y[i];\n}\n".into(),
            cuda_launch: "  saxpy<<<(n + 255) / 256, 256>>>(n, 2.0f, d_x, d_y);\n".into(),
            omp_region: Some("#pragma omp target teams distribute parallel for map(to: x[0:n]) map(tofrom: y[0:n])\n  for (int i = 0; i < n; i++) y[i] = 2.0f * x[i] + y[i];\n".into()),
            buffers: vec![
                ("x".into(), "float".into(), "n".into()),
                ("y".into(), "float".into(), "n".into()),
            ],
            scalars: vec![("n".into(), "int".into(), "1048576".into())],
            args: vec!["1048576".into()],
            ir: KernelIr::builder("saxpy")
                .buffer("x", 4, Extent::Param("n".into()))
                .op(Op::load("x", AccessPattern::Coalesced))
                .build(),
            launch: LaunchConfig::linear(1 << 20, 256).expect("valid launch"),
        }
    }

    fn cuda(verbosity: u8) -> String {
        assemble(&demo_pieces(), Language::Cuda, verbosity).expect("CUDA always renders")
    }

    #[test]
    fn cuda_program_has_expected_sections() {
        let src = cuda(1);
        for needle in [
            "#include <cuda.h>",
            "__global__ void saxpy",
            "int main(int argc",
            "cudaMalloc",
            "cudaMemcpy",
            "atol(argv[1])",
            "cudaFree",
        ] {
            assert!(src.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn omp_program_has_no_cuda_artifacts() {
        let mut pieces = demo_pieces();
        let src = assemble(&pieces, Language::Omp, 3).expect("has an OMP region");
        assert!(src.contains("#include <omp.h>"));
        assert!(src.contains("#pragma omp target"));
        assert!(src.contains("val = y[v];"), "host buffers keep their names");
        for cuda_only in ["cudaMalloc", "__global__", "CUDA_CHECK", "h_x"] {
            assert!(!src.contains(cuda_only), "leaked {cuda_only}");
        }
        pieces.omp_region = None;
        assert_eq!(assemble(&pieces, Language::Omp, 1), None);
    }

    #[test]
    fn verbosity_strictly_grows_source() {
        let sizes: Vec<usize> = (0..4).map(|v| cuda(v).len()).collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "verbosity must add text: {sizes:?}");
        }
    }

    #[test]
    fn verbose_programs_carry_helpers_and_validation() {
        let src = cuda(3);
        assert!(src.contains("wall_time"));
        assert!(src.contains("fill_f32"));
        assert!(src.contains("validation"));
        assert!(src.contains("val = h_y[v];"));
    }

    #[test]
    fn scalar_defaults_appear() {
        assert!(cuda(0).contains(": 1048576;"));
    }

    #[test]
    fn language_labels_match_paper() {
        assert_eq!(Language::Cuda.label(), "CUDA");
        assert_eq!(Language::Omp.label(), "OMP");
    }
}
