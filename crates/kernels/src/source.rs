//! Program-text assembly: wrap a kernel body into a complete benchmark
//! program (headers, helpers, host harness, argument parsing) in either
//! CUDA or OpenMP-offload dialect.
//!
//! The assembler's *verbosity* knob controls how much non-kernel scaffolding
//! a program carries (validation code, timing helpers, long banners). This
//! is what gives the corpus the heavy-tailed token distribution the paper
//! prunes at 8 000 tokens (§2.2) — in real HeCBench, program length varies
//! wildly for exactly these reasons.

use std::sync::LazyLock;

use serde::{Deserialize, Serialize};

/// Corpus language, matching the paper's two HeCBench subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

/// Scaffolding richness of the generated program, 0 (bare) to 3 (bloated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verbosity(pub u8);

/// Everything needed to assemble one program's source text.
#[derive(Debug, Clone)]
pub struct ProgramParts {
    /// Benchmark name (family + variant), used in banners and filenames.
    pub name: String,
    /// The kernel definition(s), already rendered in the target dialect.
    pub kernel_code: String,
    /// Host-side launch statement(s).
    pub launch_code: String,
    /// Buffer declarations: `(name, c_type, length_expr)`.
    pub buffers: Vec<(String, String, String)>,
    /// Scalar argument declarations parsed from argv:
    /// `(name, c_type, default)` — position in this list = argv position.
    pub scalars: Vec<(String, String, String)>,
    /// Extra helper functions required by this family (verbatim).
    pub extra_helpers: String,
}

/// Assemble a complete CUDA program.
pub fn assemble_cuda(parts: &ProgramParts, verbosity: Verbosity) -> String {
    let mut out = String::with_capacity(8 * 1024);
    banner(&mut out, &parts.name, "CUDA", verbosity);
    out.push_str("#include <cstdio>\n#include <cstdlib>\n#include <cmath>\n");
    out.push_str("#include <cuda.h>\n\n");
    if verbosity.0 >= 1 {
        out.push_str(CUDA_CHECK_HELPER);
    }
    if verbosity.0 >= 2 {
        out.push_str(TIMER_HELPER);
        out.push_str(FILL_HELPERS);
    }
    bulk_scaffolding(&mut out, &parts.name, verbosity);
    out.push_str(&parts.extra_helpers);
    out.push('\n');
    out.push_str(&parts.kernel_code);
    out.push('\n');
    host_main(&mut out, parts, Language::Cuda, verbosity);
    out
}

/// Assemble a complete OpenMP-offload program.
pub fn assemble_omp(parts: &ProgramParts, verbosity: Verbosity) -> String {
    let mut out = String::with_capacity(8 * 1024);
    banner(&mut out, &parts.name, "OpenMP offload", verbosity);
    out.push_str("#include <cstdio>\n#include <cstdlib>\n#include <cmath>\n");
    out.push_str("#include <omp.h>\n\n");
    if verbosity.0 >= 2 {
        out.push_str(TIMER_HELPER);
        out.push_str(FILL_HELPERS);
    }
    bulk_scaffolding(&mut out, &parts.name, verbosity);
    out.push_str(&parts.extra_helpers);
    out.push('\n');
    host_main(&mut out, parts, Language::Omp, verbosity);
    out
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
fn bulk_scaffolding(out: &mut String, name: &str, verbosity: Verbosity) {
    if verbosity.0 >= 2 {
        out.push_str(&TUNING_NOTES);
    }
    if verbosity.0 >= 3 {
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

fn banner(out: &mut String, name: &str, dialect: &str, verbosity: Verbosity) {
    out.push_str(&format!("// {name} benchmark ({dialect} version)\n"));
    if verbosity.0 >= 1 {
        out.push_str(
            "// Part of a heterogeneous computing benchmark collection.\n\
             // Ground-truth performance characteristics are obtained by\n\
             // profiling on the target device; this source is the input\n\
             // to source-level performance estimation studies.\n",
        );
    }
    if verbosity.0 >= 3 {
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

fn host_main(out: &mut String, parts: &ProgramParts, lang: Language, verbosity: Verbosity) {
    out.push_str("int main(int argc, char* argv[]) {\n");
    // Argv parsing: positional scalars with defaults.
    for (pos, (name, c_type, default)) in parts.scalars.iter().enumerate() {
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
    match lang {
        Language::Cuda => {
            for (name, c_type, len) in &parts.buffers {
                out.push_str(&format!(
                    "  {c_type}* h_{name} = ({c_type}*)malloc(sizeof({c_type}) * ({len}));\n"
                ));
                out.push_str(&format!("  {c_type}* d_{name};\n"));
                out.push_str(&format!(
                    "  cudaMalloc(&d_{name}, sizeof({c_type}) * ({len}));\n"
                ));
            }
            if verbosity.0 >= 2 {
                for (name, c_type, len) in &parts.buffers {
                    out.push_str(&format!(
                        "  fill_{}(h_{name}, ({len}));\n",
                        short_type(c_type)
                    ));
                }
            }
            for (name, c_type, len) in &parts.buffers {
                out.push_str(&format!(
                    "  cudaMemcpy(d_{name}, h_{name}, sizeof({c_type}) * ({len}), cudaMemcpyHostToDevice);\n"
                ));
            }
            out.push('\n');
            if verbosity.0 >= 2 {
                out.push_str("  double t0 = wall_time();\n");
            }
            out.push_str(&parts.launch_code);
            out.push_str("  cudaDeviceSynchronize();\n");
            if verbosity.0 >= 2 {
                out.push_str(
                    "  double t1 = wall_time();\n  printf(\"kernel time: %f s\\n\", t1 - t0);\n",
                );
            }
            if let Some((name, c_type, len)) = parts.buffers.last() {
                out.push_str(&format!(
                    "  cudaMemcpy(h_{name}, d_{name}, sizeof({c_type}) * ({len}), cudaMemcpyDeviceToHost);\n"
                ));
            }
            if verbosity.0 >= 3 {
                validation_block(out, parts);
            }
            for (name, ..) in &parts.buffers {
                out.push_str(&format!("  cudaFree(d_{name});\n  free(h_{name});\n"));
            }
        }
        Language::Omp => {
            for (name, c_type, len) in &parts.buffers {
                out.push_str(&format!(
                    "  {c_type}* {name} = ({c_type}*)malloc(sizeof({c_type}) * ({len}));\n"
                ));
            }
            if verbosity.0 >= 2 {
                for (name, c_type, len) in &parts.buffers {
                    out.push_str(&format!(
                        "  fill_{}({name}, ({len}));\n",
                        short_type(c_type)
                    ));
                }
            }
            out.push('\n');
            if verbosity.0 >= 2 {
                out.push_str("  double t0 = wall_time();\n");
            }
            out.push_str(&parts.launch_code);
            if verbosity.0 >= 2 {
                out.push_str(
                    "  double t1 = wall_time();\n  printf(\"kernel time: %f s\\n\", t1 - t0);\n",
                );
            }
            if verbosity.0 >= 3 {
                validation_block(out, parts);
            }
            for (name, ..) in &parts.buffers {
                out.push_str(&format!("  free({name});\n"));
            }
        }
    }
    out.push_str("  return 0;\n}\n");
}

fn validation_block(out: &mut String, parts: &ProgramParts) {
    if let Some((name, c_type, len)) = parts.buffers.last() {
        let prefix = if parts.kernel_code.contains("__global__") {
            "h_"
        } else {
            ""
        };
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
    use super::*;

    fn demo_parts() -> ProgramParts {
        ProgramParts {
            name: "saxpy".into(),
            kernel_code: "__global__ void saxpy(int n, float a, const float* x, float* y) {\n  int i = blockIdx.x * blockDim.x + threadIdx.x;\n  if (i < n) y[i] = a * x[i] + y[i];\n}\n".into(),
            launch_code: "  saxpy<<<(n + 255) / 256, 256>>>(n, 2.0f, d_x, d_y);\n".into(),
            buffers: vec![
                ("x".into(), "float".into(), "n".into()),
                ("y".into(), "float".into(), "n".into()),
            ],
            scalars: vec![("n".into(), "int".into(), "1048576".into())],
            extra_helpers: String::new(),
        }
    }

    #[test]
    fn cuda_program_has_expected_sections() {
        let src = assemble_cuda(&demo_parts(), Verbosity(1));
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
        let mut parts = demo_parts();
        parts.kernel_code = String::new();
        parts.launch_code = "#pragma omp target teams distribute parallel for map(to: x[0:n]) map(tofrom: y[0:n])\n  for (int i = 0; i < n; i++) y[i] = 2.0f * x[i] + y[i];\n".into();
        let src = assemble_omp(&parts, Verbosity(1));
        assert!(src.contains("#include <omp.h>"));
        assert!(src.contains("#pragma omp target"));
        assert!(!src.contains("cudaMalloc"));
    }

    #[test]
    fn verbosity_strictly_grows_source() {
        let parts = demo_parts();
        let sizes: Vec<usize> = (0..4)
            .map(|v| assemble_cuda(&parts, Verbosity(v)).len())
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "verbosity must add text: {sizes:?}");
        }
    }

    #[test]
    fn verbose_programs_carry_helpers_and_validation() {
        let src = assemble_cuda(&demo_parts(), Verbosity(3));
        assert!(src.contains("wall_time"));
        assert!(src.contains("fill_f32"));
        assert!(src.contains("validation"));
    }

    #[test]
    fn scalar_defaults_appear() {
        let src = assemble_cuda(&demo_parts(), Verbosity(0));
        assert!(src.contains(": 1048576;"));
    }

    #[test]
    fn language_labels_match_paper() {
        assert_eq!(Language::Cuda.label(), "CUDA");
        assert_eq!(Language::Omp.label(), "OMP");
    }
}
