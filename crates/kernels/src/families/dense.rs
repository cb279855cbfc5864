//! Dense linear-algebra and structured-grid families: the mid-intensity
//! band of the corpus where cache reuse decides the roofline class — the
//! cases that make source-level prediction genuinely hard.

use pce_gpu_sim::{AccessPattern, Extent, KernelIr, LaunchConfig, Op};

use crate::source::Language;

use super::{Family, FamilyInput, Pieces, Variant};

/// The dense/structured family set.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "gemm",
            has_omp: true,
            build: gemm,
        },
        Family {
            name: "gemm_tiled",
            has_omp: false,
            build: gemm_tiled,
        },
        Family {
            name: "gemv",
            has_omp: true,
            build: gemv,
        },
        Family {
            name: "stencil2d",
            has_omp: true,
            build: stencil2d,
        },
        Family {
            name: "stencil3d",
            has_omp: false,
            build: stencil3d,
        },
        Family {
            name: "jacobi2d",
            has_omp: true,
            build: jacobi2d,
        },
        Family {
            name: "conv2d",
            has_omp: true,
            build: conv2d,
        },
        Family {
            name: "softmax",
            has_omp: true,
            build: softmax,
        },
        Family {
            name: "layernorm",
            has_omp: true,
            build: layernorm,
        },
    ]
}

/// Matrix order for an `n`-element budget (≈ n elements total).
fn matrix_dim(n: u64) -> u64 {
    ((n as f64).sqrt() as u64).clamp(64, 4096)
}

fn plane_launch(dim: u64, input: &FamilyInput) -> LaunchConfig {
    LaunchConfig::plane(dim, dim, 16, 16)
        .expect("corpus launch shapes are statically valid")
        .with_param("n", dim * dim)
        .with_param("dim", dim)
        .with_param("iters", input.iters)
}

fn gemm(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = matrix_dim(input.n);
    let launch = plane_launch(dim, input);
    let ir = KernelIr::builder("gemm_naive")
        .buffer("A", input.elem(), Extent::Param("n".into()))
        .buffer("B", input.elem(), Extent::Param("n".into()))
        .buffer("C", input.elem(), Extent::Param("n".into()))
        .op(Op::loop_n(
            Extent::Param("dim".into()),
            vec![
                Op::load("A", AccessPattern::Strided(8)),
                Op::load("B", AccessPattern::Coalesced),
                Op::Fma(input.precision),
            ],
        ))
        .op(Op::store("C", AccessPattern::Coalesced))
        .guard_fraction((dim * dim) as f64 / launch.total_threads() as f64)
        .build();
    Pieces {
        name: "gemm",
        kernel_name: "gemm_naive",
        cuda_kernel: format!(
            "__global__ void gemm_naive(long dim, const {t}* A, const {t}* B, {t}* C) {{\n\
             \x20 long col = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 long row = blockIdx.y * (long)blockDim.y + threadIdx.y;\n\
             \x20 if (row < dim && col < dim) {{\n\
             \x20   {t} acc = 0;\n\
             \x20   for (long k = 0; k < dim; k++) {{\n\
             \x20     acc += A[row * dim + k] * B[k * dim + col];\n\
             \x20   }}\n\
             \x20   C[row * dim + col] = acc;\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  dim3 block(16, 16);\n  dim3 grid((dim + 15) / 16, (dim + 15) / 16);\n\
             \x20 gemm_naive<<<grid, block>>>(dim, d_A, d_B, d_C);\n"
            .into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for collapse(2) map(to: A[0:dim*dim], B[0:dim*dim]) map(from: C[0:dim*dim])\n\
             \x20 for (long row = 0; row < dim; row++) {{\n\
             \x20   for (long col = 0; col < dim; col++) {{\n\
             \x20     {t} acc = 0;\n\
             \x20     for (long k = 0; k < dim; k++) acc += A[row * dim + k] * B[k * dim + col];\n\
             \x20     C[row * dim + col] = acc;\n\
             \x20   }}\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("A".into(), t.into(), "dim * dim".into()),
            ("B".into(), t.into(), "dim * dim".into()),
            ("C".into(), t.into(), "dim * dim".into()),
        ],
        scalars: vec![("dim".into(), "long".into(), format!("{dim}"))],
        args: vec![dim.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn gemm_tiled(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = matrix_dim(input.n);
    let launch = plane_launch(dim, input).with_shared_bytes(2 * 16 * 16 * input.elem() as u32);
    let tiles = Extent::ParamScaled("dim".into(), 1.0 / 16.0);
    let ir = KernelIr::builder("gemm_tiled")
        .buffer("A", input.elem(), Extent::Param("n".into()))
        .buffer("B", input.elem(), Extent::Param("n".into()))
        .buffer("C", input.elem(), Extent::Param("n".into()))
        .op(Op::loop_n(
            tiles,
            vec![
                Op::load("A", AccessPattern::Coalesced),
                Op::load("B", AccessPattern::Coalesced),
                Op::Shared(pce_gpu_sim::ir::Dir::Write),
                Op::Shared(pce_gpu_sim::ir::Dir::Write),
                Op::Sync,
                Op::loop_n(
                    Extent::Const(16),
                    vec![
                        Op::Shared(pce_gpu_sim::ir::Dir::Read),
                        Op::Shared(pce_gpu_sim::ir::Dir::Read),
                        Op::Fma(input.precision),
                    ],
                ),
                Op::Sync,
            ],
        ))
        .op(Op::store("C", AccessPattern::Coalesced))
        .guard_fraction((dim * dim) as f64 / launch.total_threads() as f64)
        .build();
    Pieces {
        name: "gemm_tiled",
        kernel_name: "gemm_tiled",
        cuda_kernel: format!(
            "#define TILE 16\n\
             __global__ void gemm_tiled(long dim, const {t}* A, const {t}* B, {t}* C) {{\n\
             \x20 __shared__ {t} As[TILE][TILE];\n\
             \x20 __shared__ {t} Bs[TILE][TILE];\n\
             \x20 long col = blockIdx.x * TILE + threadIdx.x;\n\
             \x20 long row = blockIdx.y * TILE + threadIdx.y;\n\
             \x20 {t} acc = 0;\n\
             \x20 for (long tk = 0; tk < dim / TILE; tk++) {{\n\
             \x20   As[threadIdx.y][threadIdx.x] = A[row * dim + tk * TILE + threadIdx.x];\n\
             \x20   Bs[threadIdx.y][threadIdx.x] = B[(tk * TILE + threadIdx.y) * dim + col];\n\
             \x20   __syncthreads();\n\
             \x20   for (int k = 0; k < TILE; k++) {{\n\
             \x20     acc += As[threadIdx.y][k] * Bs[k][threadIdx.x];\n\
             \x20   }}\n\
             \x20   __syncthreads();\n\
             \x20 }}\n\
             \x20 if (row < dim && col < dim) C[row * dim + col] = acc;\n}}\n"
        ),
        cuda_launch: "  dim3 block(16, 16);\n  dim3 grid((dim + 15) / 16, (dim + 15) / 16);\n\
             \x20 gemm_tiled<<<grid, block>>>(dim, d_A, d_B, d_C);\n"
            .into(),
        omp_region: None,
        buffers: vec![
            ("A".into(), t.into(), "dim * dim".into()),
            ("B".into(), t.into(), "dim * dim".into()),
            ("C".into(), t.into(), "dim * dim".into()),
        ],
        scalars: vec![("dim".into(), "long".into(), format!("{dim}"))],
        args: vec![dim.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn gemv(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = matrix_dim(input.n).min(16384);
    let launch = LaunchConfig::linear(dim, 256)
        .expect("corpus launch shapes are statically valid")
        .with_param("dim", dim)
        .with_param("n", dim * dim);
    let ir = KernelIr::builder("gemv")
        .buffer("M", input.elem(), Extent::Param("n".into()))
        .buffer("x", input.elem(), Extent::Param("dim".into()))
        .buffer("y", input.elem(), Extent::Param("dim".into()))
        .op(Op::loop_n(
            Extent::Param("dim".into()),
            vec![
                Op::load("M", AccessPattern::Strided(32)),
                Op::load("x", AccessPattern::Broadcast),
                Op::Fma(input.precision),
            ],
        ))
        .op(Op::store("y", AccessPattern::Coalesced))
        .guard_fraction(dim as f64 / launch.total_threads() as f64)
        .build();
    Pieces {
        name: "gemv",
        kernel_name: "gemv",
        cuda_kernel: format!(
            "__global__ void gemv(long dim, const {t}* M, const {t}* x, {t}* y) {{\n\
             \x20 long row = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (row < dim) {{\n\
             \x20   {t} acc = 0;\n\
             \x20   for (long j = 0; j < dim; j++) acc += M[row * dim + j] * x[j];\n\
             \x20   y[row] = acc;\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  gemv<<<(dim + 255) / 256, 256>>>(dim, d_M, d_x, d_y);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: M[0:dim*dim], x[0:dim]) map(from: y[0:dim])\n\
             \x20 for (long row = 0; row < dim; row++) {{\n\
             \x20   {t} acc = 0;\n\
             \x20   for (long j = 0; j < dim; j++) acc += M[row * dim + j] * x[j];\n\
             \x20   y[row] = acc;\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("M".into(), t.into(), "dim * dim".into()),
            ("x".into(), t.into(), "dim".into()),
            ("y".into(), t.into(), "dim".into()),
        ],
        scalars: vec![("dim".into(), "long".into(), format!("{dim}"))],
        args: vec![dim.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn stencil2d(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = matrix_dim(input.n);
    let launch = plane_launch(dim, input);
    let ir = KernelIr::builder("stencil2d")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .ops((0..5).map(|_| Op::load("in", AccessPattern::Coalesced)))
        .ops((0..6).map(|_| Op::Flop(input.precision)))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(0.98 * (dim * dim) as f64 / launch.total_threads() as f64)
        .build();
    let c = input.lit("0.2");
    Pieces {
        name: "stencil2d",
        kernel_name: "stencil2d",
        cuda_kernel: format!(
            "__global__ void stencil2d(long dim, const {t}* in, {t}* out) {{\n\
             \x20 long x = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 long y = blockIdx.y * (long)blockDim.y + threadIdx.y;\n\
             \x20 if (x > 0 && x < dim - 1 && y > 0 && y < dim - 1) {{\n\
             \x20   out[y * dim + x] = {c} * (in[y * dim + x] + in[y * dim + x - 1] +\n\
             \x20       in[y * dim + x + 1] + in[(y - 1) * dim + x] + in[(y + 1) * dim + x]);\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  dim3 block(16, 16);\n  dim3 grid((dim + 15) / 16, (dim + 15) / 16);\n\
             \x20 stencil2d<<<grid, block>>>(dim, d_in, d_out);\n"
            .into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for collapse(2) map(to: in[0:dim*dim]) map(from: out[0:dim*dim])\n\
             \x20 for (long y = 1; y < dim - 1; y++)\n\
             \x20   for (long x = 1; x < dim - 1; x++)\n\
             \x20     out[y * dim + x] = {c} * (in[y * dim + x] + in[y * dim + x - 1] +\n\
             \x20         in[y * dim + x + 1] + in[(y - 1) * dim + x] + in[(y + 1) * dim + x]);\n"
        )),
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

fn stencil3d(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = ((input.n as f64).cbrt() as u64).clamp(32, 512);
    let n3 = dim * dim * dim;
    let launch = LaunchConfig::plane(dim * dim, dim, 16, 16)
        .expect("corpus launch shapes are statically valid")
        .with_param("n", n3)
        .with_param("dim", dim);
    let ir = KernelIr::builder("stencil3d")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .ops((0..7).map(|_| Op::load("in", AccessPattern::Coalesced)))
        .ops((0..8).map(|_| Op::Flop(input.precision)))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(0.95 * n3 as f64 / launch.total_threads() as f64)
        .build();
    let c = input.lit("0.1428");
    Pieces {
        name: "stencil3d",
        kernel_name: "stencil3d",
        cuda_kernel: format!(
            "__global__ void stencil3d(long dim, const {t}* in, {t}* out) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 long z = i / (dim * dim);\n\
             \x20 long y = (i / dim) % dim;\n\
             \x20 long x = i % dim;\n\
             \x20 if (x > 0 && x < dim-1 && y > 0 && y < dim-1 && z > 0 && z < dim-1) {{\n\
             \x20   long c0 = (z * dim + y) * dim + x;\n\
             \x20   out[c0] = {c} * (in[c0] + in[c0-1] + in[c0+1] + in[c0-dim] +\n\
             \x20       in[c0+dim] + in[c0-dim*dim] + in[c0+dim*dim]);\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  stencil3d<<<(dim * dim * dim + 255) / 256, 256>>>(dim, d_in, d_out);\n"
            .into(),
        omp_region: None,
        buffers: vec![
            ("in".into(), t.into(), "dim * dim * dim".into()),
            ("out".into(), t.into(), "dim * dim * dim".into()),
        ],
        scalars: vec![("dim".into(), "long".into(), format!("{dim}"))],
        args: vec![dim.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn jacobi2d(input: &FamilyInput) -> Variant {
    // Same per-sweep shape as stencil2d, but the host loops `iters` sweeps;
    // profiling captures only the first invocation (§2.1), while the source
    // prominently shows the iteration count — a realistic static-analysis trap.
    let mut v = stencil2d(input);
    v.ir.name = "jacobi_sweep".into();
    v.source = v.source.map(|src| {
        let src = src.replace("stencil2d", "jacobi_sweep");
        let src = match input.language {
            Language::Cuda => src.replace(
                "  jacobi_sweep<<<grid, block>>>(dim, d_in, d_out);\n",
                &format!(
                    "  for (int sweep = 0; sweep < iters; sweep++) {{\n\
                     \x20   jacobi_sweep<<<grid, block>>>(dim, d_in, d_out);\n\
                     \x20   {0}* tmp = d_in; d_in = d_out; d_out = tmp;\n\
                     \x20 }}\n",
                    input.c_type()
                ),
            ),
            // The sweep loop opens at the target region and its `}` is
            // appended at the end of the source, after `main`'s own closing
            // brace: a known misplacement, kept because fixing it moves
            // every pinned source.
            Language::Omp => {
                src.replace(
                    "#pragma omp target teams",
                    "  for (int sweep = 0; sweep < iters; sweep++) {\n#pragma omp target teams",
                ) + "  }\n"
            }
        };
        // The scalar list gains the sweep count as a second CLI arg.
        src.replace(
            "int main(int argc, char* argv[]) {\n",
            "int main(int argc, char* argv[]) {\n  int iters = (argc > 2) ? atoi(argv[2]) : 100;\n",
        )
    });
    v.kernel_name = "jacobi_sweep".into();
    v.args.push(input.iters.to_string());
    v
}

fn conv2d(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let dim = matrix_dim(input.n);
    let ksize = 2 * (1 + input.iters % 3) + 1; // 3, 5, or 7
    let launch = plane_launch(dim, input).with_param("ksize", ksize);
    let ir = KernelIr::builder("conv2d")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("filt", input.elem(), Extent::Const(49))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .op(Op::loop_n(
            Extent::Param("ksize".into()),
            vec![Op::loop_n(
                Extent::Param("ksize".into()),
                vec![
                    Op::load("in", AccessPattern::Coalesced),
                    Op::load("filt", AccessPattern::Broadcast),
                    Op::Fma(input.precision),
                ],
            )],
        ))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(0.95 * (dim * dim) as f64 / launch.total_threads() as f64)
        .build();
    Pieces {
        name: "conv2d",
        kernel_name: "conv2d",
        cuda_kernel: format!(
            "__global__ void conv2d(long dim, int ksize, const {t}* in, const {t}* filt, {t}* out) {{\n\
             \x20 long x = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 long y = blockIdx.y * (long)blockDim.y + threadIdx.y;\n\
             \x20 int r = ksize / 2;\n\
             \x20 if (x >= r && x < dim - r && y >= r && y < dim - r) {{\n\
             \x20   {t} acc = 0;\n\
             \x20   for (int fy = 0; fy < ksize; fy++) {{\n\
             \x20     for (int fx = 0; fx < ksize; fx++) {{\n\
             \x20       acc += in[(y + fy - r) * dim + (x + fx - r)] * filt[fy * ksize + fx];\n\
             \x20     }}\n\
             \x20   }}\n\
             \x20   out[y * dim + x] = acc;\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  dim3 block(16, 16);\n  dim3 grid((dim + 15) / 16, (dim + 15) / 16);\n\
             \x20 conv2d<<<grid, block>>>(dim, ksize, d_in, d_filt, d_out);\n"
            .into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for collapse(2) map(to: in[0:dim*dim], filt[0:49]) map(from: out[0:dim*dim])\n\
             \x20 for (long y = ksize/2; y < dim - ksize/2; y++) {{\n\
             \x20   for (long x = ksize/2; x < dim - ksize/2; x++) {{\n\
             \x20     {t} acc = 0;\n\
             \x20     for (int fy = 0; fy < ksize; fy++)\n\
             \x20       for (int fx = 0; fx < ksize; fx++)\n\
             \x20         acc += in[(y + fy - ksize/2) * dim + (x + fx - ksize/2)] * filt[fy * ksize + fx];\n\
             \x20     out[y * dim + x] = acc;\n\
             \x20   }}\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("in".into(), t.into(), "dim * dim".into()),
            ("filt".into(), t.into(), "49".into()),
            ("out".into(), t.into(), "dim * dim".into()),
        ],
        scalars: vec![
            ("dim".into(), "long".into(), format!("{dim}")),
            ("ksize".into(), "int".into(), format!("{ksize}")),
        ],
        args: vec![dim.to_string(), ksize.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn softmax(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = super::linear_launch(input);
    let ir = KernelIr::builder("softmax_exp")
        .buffer("in", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .op(Op::load("in", AccessPattern::Coalesced))
        .op(Op::Flop(input.precision))
        .op(Op::Special(input.precision, pce_gpu_sim::SpecialFn::ExpLog))
        .op(Op::Flop(input.precision))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(super::guard_fraction(input, &launch))
        .build();
    let expfn = input.fun("exp");
    let mx = input.lit("4.0");
    let inv = input.lit("0.0039");
    Pieces {
        name: "softmax",
        kernel_name: "softmax_exp",
        cuda_kernel: format!(
            "__global__ void softmax_exp(long n, const {t}* in, {t}* out) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) {{\n\
             \x20   out[i] = {expfn}(in[i] - {mx}) * {inv};\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch: "  softmax_exp<<<(n + 255) / 256, 256>>>(n, d_in, d_out);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: in[0:n]) map(from: out[0:n])\n\
             \x20 for (long i = 0; i < n; i++) out[i] = {expfn}(in[i] - {mx}) * {inv};\n"
        )),
        buffers: vec![
            ("in".into(), t.into(), "n".into()),
            ("out".into(), t.into(), "n".into()),
        ],
        scalars: vec![("n".into(), "long".into(), format!("{}", input.n))],
        args: vec![input.n.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn layernorm(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = super::linear_launch(input);
    let ir = KernelIr::builder("layernorm_apply")
        .buffer("x", input.elem(), Extent::Param("n".into()))
        .buffer("gamma", input.elem(), Extent::Const(4096))
        .buffer("beta", input.elem(), Extent::Const(4096))
        .buffer("y", input.elem(), Extent::Param("n".into()))
        .op(Op::load("x", AccessPattern::Coalesced))
        .op(Op::load("gamma", AccessPattern::Coalesced))
        .op(Op::load("beta", AccessPattern::Coalesced))
        .ops((0..4).map(|_| Op::Flop(input.precision)))
        .op(Op::store("y", AccessPattern::Coalesced))
        .guard_fraction(super::guard_fraction(input, &launch))
        .build();
    let mean = input.lit("0.5");
    let rstd = input.lit("1.25");
    Pieces {
        name: "layernorm",
        kernel_name: "layernorm_apply",
        cuda_kernel: format!(
            "__global__ void layernorm_apply(long n, const {t}* x, const {t}* gamma, const {t}* beta, {t}* y) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i < n) {{\n\
             \x20   long c = i & 4095;\n\
             \x20   y[i] = (x[i] - {mean}) * {rstd} * gamma[c] + beta[c];\n\
             \x20 }}\n}}\n"
        ),
        cuda_launch:
            "  layernorm_apply<<<(n + 255) / 256, 256>>>(n, d_x, d_gamma, d_beta, d_y);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: x[0:n], gamma[0:4096], beta[0:4096]) map(from: y[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   long c = i & 4095;\n\
             \x20   y[i] = (x[i] - {mean}) * {rstd} * gamma[c] + beta[c];\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("x".into(), t.into(), "n".into()),
            ("gamma".into(), t.into(), "4096".into()),
            ("beta".into(), t.into(), "4096".into()),
            ("y".into(), t.into(), "n".into()),
        ],
        scalars: vec![("n".into(), "long".into(), format!("{}", input.n))],
        args: vec![input.n.to_string()],
        ir,
        launch,
    }
    .package(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_gpu_sim::{Precision, Profiler};
    use pce_roofline::{classify_joint, Boundedness, HardwareSpec, OpClass};

    fn input(n: u64, precision: Precision) -> FamilyInput {
        FamilyInput {
            n,
            iters: 100,
            precision,
            verbosity: 1,
            language: Language::Cuda,
        }
    }

    #[test]
    fn dp_gemm_is_compute_bound_despite_low_static_ai() {
        let hw = HardwareSpec::rtx_3080();
        let v = gemm(&input(1 << 22, Precision::F64)); // 2048x2048
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        let joint = classify_joint(&hw, &p.counts);
        assert_eq!(joint.label, Boundedness::Compute, "DP gemm 2048 must be CB");
        assert!(joint.compute_bound_classes().contains(&OpClass::Dp));
        // The static (requested-bytes) AI sits below the DP balance point —
        // only the cache-aware empirical AI crosses it. This is the class of
        // kernel where source-only prediction structurally fails.
        let requested = 2.0 * 2048.0 * 8.0; // per-thread requested bytes (K*2 loads * 8B)
        let static_ai = (2.0 * 2048.0) / requested;
        assert!(static_ai < hw.roofline(OpClass::Dp).balance_point());
        let empirical_ai = p.counts.flops_dp as f64 / p.counts.total_bytes() as f64;
        assert!(empirical_ai > 10.0 * static_ai);
    }

    #[test]
    fn dp_conv2d_crosses_the_dp_balance_point() {
        let hw = HardwareSpec::rtx_3080();
        // iters picks the filter size; 2 -> ksize 7 (49-tap window).
        let v = conv2d(&FamilyInput {
            iters: 2,
            ..input(1 << 22, Precision::F64)
        });
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        let joint = classify_joint(&hw, &p.counts);
        assert_eq!(joint.label, Boundedness::Compute);
        assert!(joint.compute_bound_classes().contains(&OpClass::Dp));
    }

    #[test]
    fn sp_softmax_is_bandwidth_bound_but_dp_softmax_is_not() {
        let hw = HardwareSpec::rtx_3080();
        let prof = Profiler::new(hw.clone());
        let sp = softmax(&input(1 << 24, Precision::F32));
        let dp = softmax(&input(1 << 24, Precision::F64));
        let p_sp = prof.profile(&sp.ir, &sp.launch);
        let p_dp = prof.profile(&dp.ir, &dp.launch);
        assert_eq!(
            classify_joint(&hw, &p_sp.counts).label,
            Boundedness::Bandwidth
        );
        assert_eq!(
            classify_joint(&hw, &p_dp.counts).label,
            Boundedness::Compute
        );
    }

    #[test]
    fn layernorm_streams_bandwidth_bound() {
        let hw = HardwareSpec::rtx_3080();
        let v = layernorm(&input(1 << 24, Precision::F32));
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        assert_eq!(classify_joint(&hw, &p.counts).label, Boundedness::Bandwidth);
    }

    #[test]
    fn jacobi_source_shows_host_iteration_loop() {
        let v = jacobi2d(&input(1 << 20, Precision::F32));
        assert!(v
            .source
            .unwrap()
            .contains("for (int sweep = 0; sweep < iters"));
        assert_eq!(v.kernel_name, "jacobi_sweep");
        assert_eq!(v.args.len(), 2);
        let omp = jacobi2d(&FamilyInput {
            language: Language::Omp,
            ..input(1 << 20, Precision::F32)
        });
        let src = omp.source.expect("jacobi2d has an OMP port");
        assert!(src.contains("for (int sweep = 0; sweep < iters"));
        assert!(!src.contains("stencil2d"));
    }

    #[test]
    fn tiled_gemm_uses_shared_memory_in_source_and_ir() {
        let v = gemm_tiled(&input(1 << 20, Precision::F32));
        assert!(v.source.as_deref().unwrap().contains("__shared__"));
        let s = v.ir.summarize(&v.launch.params);
        assert!(s.costs.shared_accesses > 0.0);
        assert!(s.costs.syncs > 0.0);
    }

    #[test]
    fn gemv_streams_the_matrix() {
        let hw = HardwareSpec::rtx_3080();
        let v = gemv(&input(1 << 22, Precision::F32));
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        assert_eq!(classify_joint(&hw, &p.counts).label, Boundedness::Bandwidth);
    }
}
