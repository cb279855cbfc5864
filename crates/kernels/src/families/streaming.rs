//! Streaming / memory-movement families: the bandwidth-bound backbone of
//! the corpus (vector ops, reductions, transposes, gathers, histograms).

use pce_gpu_sim::{AccessPattern, Extent, IntKind, KernelIr, Op};

use super::{guard_fraction, linear_launch, n_iters_argv, Family, FamilyInput, Pieces, Variant};

/// The streaming family set.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "vecadd",
            has_omp: true,
            build: vecadd,
        },
        Family {
            name: "saxpy",
            has_omp: true,
            build: saxpy,
        },
        Family {
            name: "triad",
            has_omp: true,
            build: triad,
        },
        Family {
            name: "devicecopy",
            has_omp: true,
            build: devicecopy,
        },
        Family {
            name: "vecscale",
            has_omp: true,
            build: vecscale,
        },
        Family {
            name: "dotprod",
            has_omp: true,
            build: dotprod,
        },
        Family {
            name: "reduction",
            has_omp: true,
            build: reduction,
        },
        Family {
            name: "stencil1d",
            has_omp: true,
            build: stencil1d,
        },
        Family {
            name: "transpose",
            has_omp: false,
            build: transpose,
        },
        Family {
            name: "gather",
            has_omp: true,
            build: gather,
        },
        Family {
            name: "scatter",
            has_omp: false,
            build: scatter,
        },
        Family {
            name: "histogram",
            has_omp: true,
            build: histogram,
        },
    ]
}

fn vecadd(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("vecadd")
        .buffer("a", input.elem(), Extent::Param("n".into()))
        .buffer("b", input.elem(), Extent::Param("n".into()))
        .buffer("c", input.elem(), Extent::Param("n".into()))
        .op(Op::load("a", AccessPattern::Coalesced))
        .op(Op::load("b", AccessPattern::Coalesced))
        .op(Op::Flop(input.precision))
        .op(Op::store("c", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "vecadd",
        kernel_name: "vecadd",
        cuda_kernel: format!(
            "__global__ void vecadd(long n, const {t}* a, const {t}* b, {t}* c) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) c[i] = a[i] + b[i];\n}}\n"
        ),
        cuda_launch: "  vecadd<<<(n + 255) / 256, 256>>>(n, d_a, d_b, d_c);\n".into(),
        omp_region: Some(
            "#pragma omp target teams distribute parallel for map(to: a[0:n], b[0:n]) map(from: c[0:n])\n\
             \x20 for (long i = 0; i < n; i++) c[i] = a[i] + b[i];\n"
                .into(),
        ),
        buffers: vec![
            ("a".into(), t.into(), "n".into()),
            ("b".into(), t.into(), "n".into()),
            ("c".into(), t.into(), "n".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn saxpy(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let name = if input.elem() == 8 { "daxpy" } else { "saxpy" };
    let launch = linear_launch(input);
    let ir = KernelIr::builder(name)
        .buffer("x", input.elem(), Extent::Param("n".into()))
        .buffer("y", input.elem(), Extent::Param("n".into()))
        .op(Op::load("x", AccessPattern::Coalesced))
        .op(Op::load("y", AccessPattern::Coalesced))
        .op(Op::Fma(input.precision))
        .op(Op::store("y", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let a = input.lit("2.5");
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "saxpy",
        kernel_name: name,
        cuda_kernel: format!(
            "__global__ void {name}(long n, {t} a, const {t}* x, {t}* y) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) y[i] = a * x[i] + y[i];\n}}\n"
        ),
        cuda_launch: format!("  {name}<<<(n + 255) / 256, 256>>>(n, {a}, d_x, d_y);\n"),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: x[0:n]) map(tofrom: y[0:n])\n\
             \x20 for (long i = 0; i < n; i++) y[i] = {a} * x[i] + y[i];\n"
        )),
        buffers: vec![
            ("x".into(), t.into(), "n".into()),
            ("y".into(), t.into(), "n".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn triad(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("triad")
        .buffer("b", input.elem(), Extent::Param("n".into()))
        .buffer("c", input.elem(), Extent::Param("n".into()))
        .buffer("a", input.elem(), Extent::Param("n".into()))
        .op(Op::load("b", AccessPattern::Coalesced))
        .op(Op::load("c", AccessPattern::Coalesced))
        .op(Op::Fma(input.precision))
        .op(Op::store("a", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let s = input.lit("3.0");
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "triad",
        kernel_name: "triad",
        cuda_kernel: format!(
            "__global__ void triad(long n, {t} s, const {t}* b, const {t}* c, {t}* a) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) a[i] = b[i] + s * c[i];\n}}\n"
        ),
        cuda_launch: format!("  triad<<<(n + 255) / 256, 256>>>(n, {s}, d_b, d_c, d_a);\n"),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: b[0:n], c[0:n]) map(from: a[0:n])\n\
             \x20 for (long i = 0; i < n; i++) a[i] = b[i] + {s} * c[i];\n"
        )),
        buffers: vec![
            ("b".into(), t.into(), "n".into()),
            ("c".into(), t.into(), "n".into()),
            ("a".into(), t.into(), "n".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn devicecopy(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("devicecopy")
        .buffer("src", input.elem(), Extent::Param("n".into()))
        .buffer("dst", input.elem(), Extent::Param("n".into()))
        .op(Op::load("src", AccessPattern::Coalesced))
        .op(Op::store("dst", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "devicecopy",
        kernel_name: "devicecopy",
        cuda_kernel: format!(
            "__global__ void devicecopy(long n, const {t}* src, {t}* dst) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) dst[i] = src[i];\n}}\n"
        ),
        cuda_launch: "  devicecopy<<<(n + 255) / 256, 256>>>(n, d_src, d_dst);\n".into(),
        omp_region: Some(
            "#pragma omp target teams distribute parallel for map(to: src[0:n]) map(from: dst[0:n])\n\
             \x20 for (long i = 0; i < n; i++) dst[i] = src[i];\n"
                .into(),
        ),
        buffers: vec![("src".into(), t.into(), "n".into()), ("dst".into(), t.into(), "n".into())],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn vecscale(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("vecscale")
        .buffer("v", input.elem(), Extent::Param("n".into()))
        .op(Op::load("v", AccessPattern::Coalesced))
        .op(Op::Flop(input.precision))
        .op(Op::store("v", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let k = input.lit("0.5");
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "vecscale",
        kernel_name: "vecscale",
        cuda_kernel: format!(
            "__global__ void vecscale(long n, {t} k, {t}* v) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) v[i] = v[i] * k;\n}}\n"
        ),
        cuda_launch: format!("  vecscale<<<(n + 255) / 256, 256>>>(n, {k}, d_v);\n"),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(tofrom: v[0:n])\n\
             \x20 for (long i = 0; i < n; i++) v[i] = v[i] * {k};\n"
        )),
        buffers: vec![("v".into(), t.into(), "n".into())],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn dotprod(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("dotprod")
        .buffer("x", input.elem(), Extent::Param("n".into()))
        .buffer("y", input.elem(), Extent::Param("n".into()))
        .buffer("partial", input.elem(), Extent::Const(4096))
        .op(Op::load("x", AccessPattern::Coalesced))
        .op(Op::load("y", AccessPattern::Coalesced))
        .op(Op::Fma(input.precision))
        // Block-level tree reduction in shared memory.
        .op(Op::loop_n(
            Extent::Const(8),
            vec![
                Op::Shared(pce_gpu_sim::ir::Dir::Read),
                Op::Flop(input.precision),
                Op::Sync,
            ],
        ))
        .op(Op::Guard {
            fraction: 1.0 / 256.0,
            body: vec![Op::store("partial", AccessPattern::Coalesced)],
        })
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "dotprod",
        kernel_name: "dotprod",
        cuda_kernel: format!(
            "__global__ void dotprod(long n, const {t}* x, const {t}* y, {t}* partial) {{\n\
             \x20 __shared__ {t} cache[256];\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 {t} acc = 0;\n\
             \x20 if (i < n) acc = x[i] * y[i];\n\
             \x20 cache[threadIdx.x] = acc;\n\
             \x20 __syncthreads();\n\
             \x20 for (int s = 128; s > 0; s >>= 1) {{\n\
             \x20   if (threadIdx.x < s) cache[threadIdx.x] += cache[threadIdx.x + s];\n\
             \x20   __syncthreads();\n\
             \x20 }}\n\
             \x20 if (threadIdx.x == 0) partial[blockIdx.x] = cache[0];\n}}\n"
        ),
        cuda_launch: "  dotprod<<<(n + 255) / 256, 256>>>(n, d_x, d_y, d_partial);\n".into(),
        omp_region: Some(format!(
            "  {t} sum = 0;\n\
             #pragma omp target teams distribute parallel for reduction(+:sum) map(to: x[0:n], y[0:n])\n\
             \x20 for (long i = 0; i < n; i++) sum += x[i] * y[i];\n\
             \x20 printf(\"dot = %f\\n\", (double)sum);\n"
        )),
        buffers: vec![
            ("x".into(), t.into(), "n".into()),
            ("y".into(), t.into(), "n".into()),
            ("partial".into(), t.into(), "4096".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn reduction(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("reduce_sum")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Const(4096))
        .op(Op::load("in", AccessPattern::Coalesced))
        .op(Op::loop_n(
            Extent::Const(8),
            vec![
                Op::Shared(pce_gpu_sim::ir::Dir::Read),
                Op::Flop(input.precision),
                Op::Sync,
            ],
        ))
        .op(Op::Guard {
            fraction: 1.0 / 256.0,
            body: vec![Op::store("out", AccessPattern::Coalesced)],
        })
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "reduction",
        kernel_name: "reduce_sum",
        cuda_kernel: format!(
            "__global__ void reduce_sum(long n, const {t}* in, {t}* out) {{\n\
             \x20 __shared__ {t} buf[256];\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 buf[threadIdx.x] = (i < n) ? in[i] : 0;\n\
             \x20 __syncthreads();\n\
             \x20 for (int s = 128; s > 0; s >>= 1) {{\n\
             \x20   if (threadIdx.x < s) buf[threadIdx.x] += buf[threadIdx.x + s];\n\
             \x20   __syncthreads();\n\
             \x20 }}\n\
             \x20 if (threadIdx.x == 0) out[blockIdx.x] = buf[0];\n}}\n"
        ),
        cuda_launch: "  reduce_sum<<<(n + 255) / 256, 256>>>(n, d_in, d_out);\n".into(),
        omp_region: Some(format!(
            "  {t} total = 0;\n\
             #pragma omp target teams distribute parallel for reduction(+:total) map(to: in[0:n])\n\
             \x20 for (long i = 0; i < n; i++) total += in[i];\n\
             \x20 printf(\"sum = %f\\n\", (double)total);\n"
        )),
        buffers: vec![
            ("in".into(), t.into(), "n".into()),
            ("out".into(), t.into(), "4096".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn stencil1d(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("stencil1d")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .op(Op::load("in", AccessPattern::Coalesced))
        .op(Op::load("in", AccessPattern::Coalesced))
        .op(Op::load("in", AccessPattern::Coalesced))
        .op(Op::Flop(input.precision))
        .op(Op::Flop(input.precision))
        .op(Op::Flop(input.precision))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch) * 0.999)
        .build();
    let third = input.lit("0.333333");
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "stencil1d",
        kernel_name: "stencil1d",
        cuda_kernel: format!(
            "__global__ void stencil1d(long n, const {t}* in, {t}* out) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i > 0 && i < n - 1) {{\n\
             \x20   out[i] = (in[i - 1] + in[i] + in[i + 1]) * {third};\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  stencil1d<<<(n + 255) / 256, 256>>>(n, d_in, d_out);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: in[0:n]) map(from: out[0:n])\n\
             \x20 for (long i = 1; i < n - 1; i++) out[i] = (in[i - 1] + in[i] + in[i + 1]) * {third};\n"
        )),
        buffers: vec![("in".into(), t.into(), "n".into()), ("out".into(), t.into(), "n".into())],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn transpose(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = (input.n as f64).sqrt() as u64;
    let dim = dim.max(32);
    let n2 = dim * dim;
    let launch = pce_gpu_sim::LaunchConfig::plane(dim, dim, 16, 16)
        .expect("corpus launch shapes are statically valid")
        .with_param("n", n2)
        .with_param("dim", dim);
    let ir = KernelIr::builder("transpose")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .op(Op::load("in", AccessPattern::Coalesced))
        .op(Op::store("out", AccessPattern::Strided(32)))
        .guard_fraction((n2 as f64 / launch.total_threads() as f64).min(1.0))
        .build();
    Pieces {
        name: "transpose",
        kernel_name: "transpose",
        cuda_kernel: format!(
            "__global__ void transpose(long dim, const {t}* in, {t}* out) {{\n\
             \x20 long x = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 long y = blockIdx.y * (long)blockDim.y + threadIdx.y;\n\
             \x20 if (x < dim && y < dim) {{\n\
             \x20   out[x * dim + y] = in[y * dim + x];\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  dim3 block(16, 16);\n  dim3 grid((dim + 15) / 16, (dim + 15) / 16);\n\
             \x20 transpose<<<grid, block>>>(dim, d_in, d_out);\n"
            .into(),
        omp_region: None,
        buffers: vec![
            ("in".into(), t.into(), "dim * dim".into()),
            ("out".into(), t.into(), "dim * dim".into()),
        ],
        scalars: vec![("dim".into(), "long".into(), format!("{dim}"))],
        args: vec![dim.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn gather(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("gather")
        .buffer("idx", 4, Extent::Param("n".into()))
        .buffer("src", input.elem(), Extent::Param("n".into()))
        .buffer("dst", input.elem(), Extent::Param("n".into()))
        .op(Op::load("idx", AccessPattern::Coalesced))
        .op(Op::load("src", AccessPattern::Random))
        .op(Op::store("dst", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "gather",
        kernel_name: "gather",
        cuda_kernel: format!(
            "__global__ void gather(long n, const int* idx, const {t}* src, {t}* dst) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) dst[i] = src[idx[i]];\n}}\n"
        ),
        cuda_launch: "  gather<<<(n + 255) / 256, 256>>>(n, d_idx, d_src, d_dst);\n".into(),
        omp_region: Some(
            "#pragma omp target teams distribute parallel for map(to: idx[0:n], src[0:n]) map(from: dst[0:n])\n\
             \x20 for (long i = 0; i < n; i++) dst[i] = src[idx[i]];\n"
                .into(),
        ),
        buffers: vec![
            ("idx".into(), "int".into(), "n".into()),
            ("src".into(), t.into(), "n".into()),
            ("dst".into(), t.into(), "n".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn scatter(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("scatter")
        .buffer("idx", 4, Extent::Param("n".into()))
        .buffer("src", input.elem(), Extent::Param("n".into()))
        .buffer("dst", input.elem(), Extent::Param("n".into()))
        .op(Op::load("idx", AccessPattern::Coalesced))
        .op(Op::load("src", AccessPattern::Coalesced))
        .op(Op::store("dst", AccessPattern::Random))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "scatter",
        kernel_name: "scatter",
        cuda_kernel: format!(
            "__global__ void scatter(long n, const int* idx, const {t}* src, {t}* dst) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) dst[idx[i]] = src[i];\n}}\n"
        ),
        cuda_launch: "  scatter<<<(n + 255) / 256, 256>>>(n, d_idx, d_src, d_dst);\n".into(),
        omp_region: None,
        buffers: vec![
            ("idx".into(), "int".into(), "n".into()),
            ("src".into(), t.into(), "n".into()),
            ("dst".into(), t.into(), "n".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn histogram(input: &FamilyInput) -> Variant {
    let launch = linear_launch(input);
    let ir = KernelIr::builder("histogram")
        .buffer("data", 4, Extent::Param("n".into()))
        .buffer("bins", 4, Extent::Const(256))
        .op(Op::load("data", AccessPattern::Coalesced))
        .op(Op::int(IntKind::Simple))
        .op(Op::int(IntKind::Simple))
        // Atomic add into a small bin array: random within 1 KB.
        .op(Op::store("bins", AccessPattern::Random))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "histogram",
        kernel_name: "histogram",
        cuda_kernel: "__global__ void histogram(long n, const int* data, int* bins) {\n\
         \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
         \x20 if (i < n) {\n\
         \x20   int bin = (data[i] >> 4) & 255;\n\
         \x20   atomicAdd(&bins[bin], 1);\n\
         \x20 }\n}\n"
            .into(),
        cuda_launch: "  histogram<<<(n + 255) / 256, 256>>>(n, d_data, d_bins);\n".into(),
        omp_region: Some(
            "#pragma omp target teams distribute parallel for map(to: data[0:n]) map(tofrom: bins[0:256])\n\
             \x20 for (long i = 0; i < n; i++) {\n\
             \x20   int bin = (data[i] >> 4) & 255;\n\
             #pragma omp atomic\n\
             \x20   bins[bin]++;\n\
             \x20 }\n"
                .into(),
        ),
        buffers: vec![
            ("data".into(), "int".into(), "n".into()),
            ("bins".into(), "int".into(), "256".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Language;
    use pce_gpu_sim::{Precision, Profiler};
    use pce_roofline::{classify_joint, Boundedness, HardwareSpec};

    fn input(n: u64) -> FamilyInput {
        FamilyInput {
            n,
            iters: 1,
            precision: Precision::F32,
            verbosity: 1,
            language: Language::Cuda,
        }
    }

    fn omp_input(n: u64) -> FamilyInput {
        FamilyInput {
            language: Language::Omp,
            ..input(n)
        }
    }

    #[test]
    fn streaming_families_profile_bandwidth_bound_at_scale() {
        let hw = HardwareSpec::rtx_3080();
        let prof = Profiler::new(hw.clone());
        for fam in families() {
            // Large sizes: footprints far beyond L2.
            let v = (fam.build)(&input(1 << 24));
            let p = prof.profile(&v.ir, &v.launch);
            let label = classify_joint(&hw, &p.counts).label;
            assert_eq!(
                label,
                Boundedness::Bandwidth,
                "{} should be BB at 16M elements",
                fam.name
            );
        }
    }

    #[test]
    fn saxpy_source_and_ir_agree_on_flops() {
        let v = saxpy(&input(1 << 20));
        // IR: one FMA = 2 flops per element.
        let summary = v.ir.summarize(&v.launch.params);
        assert_eq!(summary.costs.flops_sp, 2.0 * v.ir.active_fraction);
        // Source mentions the same computation.
        assert!(v.source.unwrap().contains("a * x[i] + y[i]"));
    }

    #[test]
    fn transpose_has_strided_store_and_2d_launch() {
        let v = transpose(&input(1 << 20));
        assert!(v.source.unwrap().contains("dim3 block(16, 16)"));
        assert_eq!(v.launch.block.count(), 256);
        assert!(transpose(&omp_input(1 << 20)).source.is_none());
    }

    #[test]
    fn dot_and_reduce_carry_shared_memory_reductions() {
        for build in [dotprod as fn(&FamilyInput) -> Variant, reduction] {
            let cuda = build(&input(1 << 20)).source.unwrap();
            assert!(cuda.contains("__shared__"));
            assert!(cuda.contains("__syncthreads"));
            let omp = build(&omp_input(1 << 20)).source.expect("has OMP port");
            assert!(omp.contains("reduction(+:"));
        }
    }

    #[test]
    fn histogram_is_integer_dominated() {
        let v = histogram(&input(1 << 22));
        let p = Profiler::new(HardwareSpec::rtx_3080()).profile(&v.ir, &v.launch);
        assert!(p.counts.intops > 0);
        assert_eq!(p.counts.flops_sp, 0);
        assert_eq!(p.counts.flops_dp, 0);
    }

    #[test]
    fn args_encode_problem_size_first() {
        let v = vecadd(&input(12345));
        assert_eq!(v.args[0], "12345");
    }
}
