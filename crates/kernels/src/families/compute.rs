//! Compute-heavy families: iteration-dominated kernels with tiny memory
//! footprints relative to their arithmetic — the corpus's compute-bound
//! anchor (Monte-Carlo, fractals, n-body, crypto, polynomial evaluation).

use pce_gpu_sim::{AccessPattern, Extent, IntKind, KernelIr, Op, SpecialFn};

use super::{guard_fraction, linear_launch, n_iters_argv, Family, FamilyInput, Pieces, Variant};

/// The compute-heavy family set.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "mandelbrot",
            has_omp: true,
            build: mandelbrot,
        },
        Family {
            name: "nbody",
            has_omp: true,
            build: nbody,
        },
        Family {
            name: "blackscholes",
            has_omp: true,
            build: blackscholes,
        },
        Family {
            name: "montecarlo",
            has_omp: true,
            build: montecarlo,
        },
        Family {
            name: "hashcrypt",
            has_omp: false,
            build: hashcrypt,
        },
        Family {
            name: "polyeval",
            has_omp: true,
            build: polyeval,
        },
        Family {
            name: "gelu",
            has_omp: true,
            build: gelu,
        },
        Family {
            name: "rngstream",
            has_omp: true,
            build: rngstream,
        },
        Family {
            name: "matexp",
            has_omp: false,
            build: matexp,
        },
    ]
}

fn mandelbrot(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("mandelbrot")
        .buffer("out", 4, Extent::Param("n".into()))
        .op(Op::loop_n(
            Extent::Param("iters".into()),
            vec![
                Op::Fma(input.precision),
                Op::Fma(input.precision),
                Op::Flop(input.precision),
                Op::Flop(input.precision),
                Op::Flop(input.precision),
            ],
        ))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let two = input.lit("2.0");
    let four = input.lit("4.0");
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "mandelbrot",
        kernel_name: "mandelbrot",
        cuda_kernel: format!(
            "__global__ void mandelbrot(long n, int iters, int* out) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i >= n) return;\n\
             \x20 {t} cx = ({t})(i % 1024) / 512 - 1.5;\n\
             \x20 {t} cy = ({t})(i / 1024) / 512 - 1.0;\n\
             \x20 {t} zx = 0, zy = 0;\n\
             \x20 int it = 0;\n\
             \x20 for (it = 0; it < iters; it++) {{\n\
             \x20   {t} nzx = zx * zx - zy * zy + cx;\n\
             \x20   zy = {two} * zx * zy + cy;\n\
             \x20   zx = nzx;\n\
             \x20   if (zx * zx + zy * zy > {four}) break;\n\
             \x20 }}\n\
             \x20 out[i] = it;\n}}\n"
        ),
        cuda_launch: "  mandelbrot<<<(n + 255) / 256, 256>>>(n, iters, d_out);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(from: out[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   {t} cx = ({t})(i % 1024) / 512 - 1.5;\n\
             \x20   {t} cy = ({t})(i / 1024) / 512 - 1.0;\n\
             \x20   {t} zx = 0, zy = 0;\n\
             \x20   int it = 0;\n\
             \x20   for (it = 0; it < iters; it++) {{\n\
             \x20     {t} nzx = zx * zx - zy * zy + cx;\n\
             \x20     zy = {two} * zx * zy + cy;\n\
             \x20     zx = nzx;\n\
             \x20     if (zx * zx + zy * zy > {four}) break;\n\
             \x20   }}\n\
             \x20   out[i] = it;\n\
             \x20 }}\n"
        )),
        buffers: vec![("out".into(), "int".into(), "n".into())],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn nbody(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let bodies = input.n.clamp(1024, 65536);
    let launch = pce_gpu_sim::LaunchConfig::linear(bodies, 256)
        .expect("corpus launch shapes are statically valid")
        .with_param("n", bodies)
        .with_param("iters", input.iters);
    let ir = KernelIr::builder("nbody_force")
        .buffer("pos", input.elem() * 4, Extent::Param("n".into()))
        .buffer("acc", input.elem() * 4, Extent::Param("n".into()))
        .op(Op::load("pos", AccessPattern::Coalesced))
        .op(Op::loop_n(
            Extent::Param("n".into()),
            vec![
                Op::load("pos", AccessPattern::Broadcast),
                Op::Flop(input.precision),
                Op::Flop(input.precision),
                Op::Flop(input.precision),
                Op::Fma(input.precision),
                Op::Fma(input.precision),
                Op::Fma(input.precision),
                Op::Special(input.precision, SpecialFn::Rcp),
                Op::Special(input.precision, SpecialFn::Sqrt),
                Op::Fma(input.precision),
                Op::Fma(input.precision),
                Op::Fma(input.precision),
            ],
        ))
        .op(Op::store("acc", AccessPattern::Coalesced))
        .guard_fraction(bodies as f64 / launch.total_threads() as f64)
        .build();
    let soft = input.lit("1e-9");
    let rsq = input.fun("rsqrt");
    Pieces {
        name: "nbody",
        kernel_name: "nbody_force",
        cuda_kernel: format!(
            "struct Body {{ {t} x, y, z, m; }};\n\
             __global__ void nbody_force(long n, const Body* pos, Body* acc) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i >= n) return;\n\
             \x20 {t} ax = 0, ay = 0, az = 0;\n\
             \x20 Body pi = pos[i];\n\
             \x20 for (long j = 0; j < n; j++) {{\n\
             \x20   {t} dx = pos[j].x - pi.x;\n\
             \x20   {t} dy = pos[j].y - pi.y;\n\
             \x20   {t} dz = pos[j].z - pi.z;\n\
             \x20   {t} d2 = dx * dx + dy * dy + dz * dz + {soft};\n\
             \x20   {t} inv = {rsq}(d2);\n\
             \x20   {t} f = pos[j].m * inv * inv * inv;\n\
             \x20   ax += f * dx; ay += f * dy; az += f * dz;\n\
             \x20 }}\n\
             \x20 acc[i].x = ax; acc[i].y = ay; acc[i].z = az;\n}}\n"
        ),
        cuda_launch: "  nbody_force<<<(n + 255) / 256, 256>>>(n, d_pos, d_acc);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: pos[0:n]) map(from: acc[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   {t} ax = 0, ay = 0, az = 0;\n\
             \x20   for (long j = 0; j < n; j++) {{\n\
             \x20     {t} dx = pos[j].x - pos[i].x;\n\
             \x20     {t} dy = pos[j].y - pos[i].y;\n\
             \x20     {t} dz = pos[j].z - pos[i].z;\n\
             \x20     {t} d2 = dx * dx + dy * dy + dz * dz + {soft};\n\
             \x20     {t} inv = 1 / sqrt(d2);\n\
             \x20     {t} f = pos[j].m * inv * inv * inv;\n\
             \x20     ax += f * dx; ay += f * dy; az += f * dz;\n\
             \x20   }}\n\
             \x20   acc[i].x = ax; acc[i].y = ay; acc[i].z = az;\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("pos".into(), "Body".into(), "n".into()),
            ("acc".into(), "Body".into(), "n".into()),
        ],
        scalars: vec![("n".into(), "long".into(), format!("{bodies}"))],
        args: vec![bodies.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn blackscholes(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("blackscholes")
        .buffer("price", input.elem(), Extent::Param("n".into()))
        .buffer("strike", input.elem(), Extent::Param("n".into()))
        .buffer("call", input.elem(), Extent::Param("n".into()))
        .buffer("put", input.elem(), Extent::Param("n".into()))
        .op(Op::load("price", AccessPattern::Coalesced))
        .op(Op::load("strike", AccessPattern::Coalesced))
        .ops((0..8).map(|_| Op::Flop(input.precision)))
        .op(Op::Special(input.precision, SpecialFn::ExpLog))
        .op(Op::Special(input.precision, SpecialFn::ExpLog))
        .op(Op::Special(input.precision, SpecialFn::Sqrt))
        .ops((0..6).map(|_| Op::Fma(input.precision)))
        .op(Op::store("call", AccessPattern::Coalesced))
        .op(Op::store("put", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let logf = input.fun("log");
    let expf = input.fun("exp");
    let sqrtf = input.fun("sqrt");
    let r = input.lit("0.02");
    let v = input.lit("0.30");
    let tm = input.lit("1.0");
    Pieces {
        name: "blackscholes",
        kernel_name: "blackscholes",
        cuda_kernel: format!(
            "__global__ void blackscholes(long n, const {t}* price, const {t}* strike, {t}* call, {t}* put) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i >= n) return;\n\
             \x20 {t} s = price[i], k = strike[i];\n\
             \x20 {t} d1 = ({logf}(s / k) + ({r} + {v} * {v} / 2) * {tm}) / ({v} * {sqrtf}({tm}));\n\
             \x20 {t} d2 = d1 - {v} * {sqrtf}({tm});\n\
             \x20 {t} nd1 = 1 / (1 + {expf}(-d1 * 1.702));\n\
             \x20 {t} nd2 = 1 / (1 + {expf}(-d2 * 1.702));\n\
             \x20 call[i] = s * nd1 - k * {expf}(-{r} * {tm}) * nd2;\n\
             \x20 put[i] = call[i] - s + k * {expf}(-{r} * {tm});\n}}\n"
        ),
        cuda_launch: "  blackscholes<<<(n + 255) / 256, 256>>>(n, d_price, d_strike, d_call, d_put);\n"
            .into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: price[0:n], strike[0:n]) map(from: call[0:n], put[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   {t} s = price[i], k = strike[i];\n\
             \x20   {t} d1 = ({logf}(s / k) + ({r} + {v} * {v} / 2) * {tm}) / ({v} * {sqrtf}({tm}));\n\
             \x20   {t} d2 = d1 - {v} * {sqrtf}({tm});\n\
             \x20   {t} nd1 = 1 / (1 + {expf}(-d1 * 1.702));\n\
             \x20   {t} nd2 = 1 / (1 + {expf}(-d2 * 1.702));\n\
             \x20   call[i] = s * nd1 - k * {expf}(-{r} * {tm}) * nd2;\n\
             \x20   put[i] = call[i] - s + k * {expf}(-{r} * {tm});\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("price".into(), t.into(), "n".into()),
            ("strike".into(), t.into(), "n".into()),
            ("call".into(), t.into(), "n".into()),
            ("put".into(), t.into(), "n".into()),
        ],
        scalars: vec![("n".into(), "long".into(), format!("{}", input.n))],
        args: vec![input.n.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn montecarlo(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("mc_pi")
        .buffer("counts", 4, Extent::Param("n".into()))
        .op(Op::loop_n(
            Extent::Param("iters".into()),
            vec![
                Op::int(IntKind::Mul),
                Op::int(IntKind::Simple),
                Op::int(IntKind::Mul),
                Op::int(IntKind::Simple),
                Op::Flop(input.precision),
                Op::Flop(input.precision),
                Op::Fma(input.precision),
                Op::int(IntKind::Simple),
            ],
        ))
        .op(Op::store("counts", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let one = input.lit("1.0");
    let scale = input.lit("4.6566e-10");
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "montecarlo",
        kernel_name: "mc_pi",
        cuda_kernel: format!(
            "__global__ void mc_pi(long n, int iters, int* counts) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i >= n) return;\n\
             \x20 unsigned state = (unsigned)(i * 2654435761u + 12345u);\n\
             \x20 int inside = 0;\n\
             \x20 for (int s = 0; s < iters; s++) {{\n\
             \x20   state = state * 1664525u + 1013904223u;\n\
             \x20   {t} x = ({t})state * {scale};\n\
             \x20   state = state * 1664525u + 1013904223u;\n\
             \x20   {t} y = ({t})state * {scale};\n\
             \x20   if (x * x + y * y < {one}) inside++;\n\
             \x20 }}\n\
             \x20 counts[i] = inside;\n}}\n"
        ),
        cuda_launch: "  mc_pi<<<(n + 255) / 256, 256>>>(n, iters, d_counts);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(from: counts[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   unsigned state = (unsigned)(i * 2654435761u + 12345u);\n\
             \x20   int inside = 0;\n\
             \x20   for (int s = 0; s < iters; s++) {{\n\
             \x20     state = state * 1664525u + 1013904223u;\n\
             \x20     {t} x = ({t})state * {scale};\n\
             \x20     state = state * 1664525u + 1013904223u;\n\
             \x20     {t} y = ({t})state * {scale};\n\
             \x20     if (x * x + y * y < {one}) inside++;\n\
             \x20   }}\n\
             \x20   counts[i] = inside;\n\
             \x20 }}\n"
        )),
        buffers: vec![("counts".into(), "int".into(), "n".into())],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn hashcrypt(input: &FamilyInput) -> Variant {
    let launch = linear_launch(input);
    let ir = KernelIr::builder("hash_rounds")
        .buffer("msg", 4, Extent::Param("n".into()))
        .buffer("digest", 4, Extent::Param("n".into()))
        .op(Op::load("msg", AccessPattern::Coalesced))
        .op(Op::loop_n(
            Extent::Param("iters".into()),
            vec![
                Op::int(IntKind::Mul),
                Op::int(IntKind::Simple),
                Op::int(IntKind::Simple),
                Op::int(IntKind::Simple),
                Op::int(IntKind::Mul),
                Op::int(IntKind::Simple),
            ],
        ))
        .op(Op::store("digest", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "hashcrypt",
        kernel_name: "hash_rounds",
        cuda_kernel: "__global__ void hash_rounds(long n, int iters, const unsigned* msg, unsigned* digest) {\n\
         \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
         \x20 if (i >= n) return;\n\
         \x20 unsigned h = msg[i];\n\
         \x20 for (int r = 0; r < iters; r++) {\n\
         \x20   h = h * 0x9e3779b1u;\n\
         \x20   h ^= h >> 15;\n\
         \x20   h += 0x85ebca6bu;\n\
         \x20   h = (h << 13) | (h >> 19);\n\
         \x20   h = h * 5u + 0xe6546b64u;\n\
         \x20 }\n\
         \x20 digest[i] = h;\n}\n"
            .into(),
        cuda_launch: "  hash_rounds<<<(n + 255) / 256, 256>>>(n, iters, d_msg, d_digest);\n".into(),
        omp_region: None,
        buffers: vec![
            ("msg".into(), "unsigned".into(), "n".into()),
            ("digest".into(), "unsigned".into(), "n".into()),
        ],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn polyeval(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let degree = (input.iters).clamp(8, 512);
    let launch = linear_launch(input).with_param("degree", degree);
    let ir = KernelIr::builder("polyeval")
        .buffer("x", input.elem(), Extent::Param("n".into()))
        .buffer("coef", input.elem(), Extent::Const(512))
        .buffer("y", input.elem(), Extent::Param("n".into()))
        .op(Op::load("x", AccessPattern::Coalesced))
        .op(Op::loop_n(
            Extent::Param("degree".into()),
            vec![
                Op::load("coef", AccessPattern::Broadcast),
                Op::Fma(input.precision),
            ],
        ))
        .op(Op::store("y", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    Pieces {
        name: "polyeval",
        kernel_name: "polyeval",
        cuda_kernel: format!(
            "__global__ void polyeval(long n, int degree, const {t}* x, const {t}* coef, {t}* y) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i >= n) return;\n\
             \x20 {t} v = x[i];\n\
             \x20 {t} acc = coef[0];\n\
             \x20 for (int d = 1; d < degree; d++) {{\n\
             \x20   acc = acc * v + coef[d];\n\
             \x20 }}\n\
             \x20 y[i] = acc;\n}}\n"
        ),
        cuda_launch: "  polyeval<<<(n + 255) / 256, 256>>>(n, degree, d_x, d_coef, d_y);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: x[0:n], coef[0:512]) map(from: y[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   {t} v = x[i];\n\
             \x20   {t} acc = coef[0];\n\
             \x20   for (int d = 1; d < degree; d++) acc = acc * v + coef[d];\n\
             \x20   y[i] = acc;\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("x".into(), t.into(), "n".into()),
            ("coef".into(), t.into(), "512".into()),
            ("y".into(), t.into(), "n".into()),
        ],
        scalars: vec![
            ("n".into(), "long".into(), format!("{}", input.n)),
            ("degree".into(), "int".into(), format!("{degree}")),
        ],
        args: vec![input.n.to_string(), degree.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn gelu(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    let ir = KernelIr::builder("gelu_fwd")
        .buffer("x", input.elem(), Extent::Param("n".into()))
        .buffer("y", input.elem(), Extent::Param("n".into()))
        .op(Op::load("x", AccessPattern::Coalesced))
        .ops((0..5).map(|_| Op::Flop(input.precision)))
        .op(Op::Special(input.precision, SpecialFn::Trig))
        .ops((0..2).map(|_| Op::Fma(input.precision)))
        .op(Op::store("y", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let tanhf = input.fun("tanh");
    let c0 = input.lit("0.79788456");
    let c1 = input.lit("0.044715");
    let half = input.lit("0.5");
    let one = input.lit("1.0");
    Pieces {
        name: "gelu",
        kernel_name: "gelu_fwd",
        cuda_kernel: format!(
            "__global__ void gelu_fwd(long n, const {t}* x, {t}* y) {{\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (i >= n) return;\n\
             \x20 {t} v = x[i];\n\
             \x20 {t} inner = {c0} * (v + {c1} * v * v * v);\n\
             \x20 y[i] = {half} * v * ({one} + {tanhf}(inner));\n}}\n"
        ),
        cuda_launch: "  gelu_fwd<<<(n + 255) / 256, 256>>>(n, d_x, d_y);\n".into(),
        omp_region: Some(format!(
            "#pragma omp target teams distribute parallel for map(to: x[0:n]) map(from: y[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {{\n\
             \x20   {t} v = x[i];\n\
             \x20   {t} inner = {c0} * (v + {c1} * v * v * v);\n\
             \x20   y[i] = {half} * v * ({one} + {tanhf}(inner));\n\
             \x20 }}\n"
        )),
        buffers: vec![
            ("x".into(), t.into(), "n".into()),
            ("y".into(), t.into(), "n".into()),
        ],
        scalars: vec![("n".into(), "long".into(), format!("{}", input.n))],
        args: vec![input.n.to_string()],
        ir,
        launch,
    }
    .package(input)
}

fn rngstream(input: &FamilyInput) -> Variant {
    let launch = linear_launch(input);
    let ir = KernelIr::builder("rng_fill")
        .buffer("out", 4, Extent::Param("n".into()))
        .op(Op::loop_n(
            Extent::Param("iters".into()),
            vec![
                Op::int(IntKind::Mul),
                Op::int(IntKind::Simple),
                Op::int(IntKind::Simple),
            ],
        ))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "rngstream",
        kernel_name: "rng_fill",
        cuda_kernel: "__global__ void rng_fill(long n, int iters, unsigned* out) {\n\
         \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
         \x20 if (i >= n) return;\n\
         \x20 unsigned state = (unsigned)i + 88172645u;\n\
         \x20 for (int r = 0; r < iters; r++) {\n\
         \x20   state ^= state << 13;\n\
         \x20   state ^= state >> 17;\n\
         \x20   state ^= state << 5;\n\
         \x20 }\n\
         \x20 out[i] = state;\n}\n"
            .into(),
        cuda_launch: "  rng_fill<<<(n + 255) / 256, 256>>>(n, iters, d_out);\n".into(),
        omp_region: Some(
            "#pragma omp target teams distribute parallel for map(from: out[0:n])\n\
             \x20 for (long i = 0; i < n; i++) {\n\
             \x20   unsigned state = (unsigned)i + 88172645u;\n\
             \x20   for (int r = 0; r < iters; r++) {\n\
             \x20     state ^= state << 13;\n\
             \x20     state ^= state >> 17;\n\
             \x20     state ^= state << 5;\n\
             \x20   }\n\
             \x20   out[i] = state;\n\
             \x20 }\n"
                .into(),
        ),
        buffers: vec![("out".into(), "unsigned".into(), "n".into())],
        scalars,
        args,
        ir,
        launch,
    }
    .package(input)
}

fn matexp(input: &FamilyInput) -> Variant {
    let t = input.c_type();
    let launch = linear_launch(input);
    // Each thread raises its own 4x4 matrix to the `iters` power:
    // 4x4 matmul = 64 FMA + bookkeeping, repeated `iters` times.
    let ir = KernelIr::builder("matexp4")
        .buffer("mats", input.elem(), Extent::Param("n".into()))
        .buffer("out", input.elem(), Extent::Param("n".into()))
        .op(Op::load("mats", AccessPattern::Coalesced))
        .op(Op::loop_n(
            Extent::Param("iters".into()),
            vec![Op::loop_n(
                Extent::Const(64),
                vec![Op::Fma(input.precision)],
            )],
        ))
        .op(Op::store("out", AccessPattern::Coalesced))
        .guard_fraction(guard_fraction(input, &launch))
        .build();
    let (scalars, args) = n_iters_argv(input);
    Pieces {
        name: "matexp",
        kernel_name: "matexp4",
        cuda_kernel: format!(
            "__global__ void matexp4(long n, int iters, const {t}* mats, {t}* out) {{\n\
             \x20 long idx = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 if (idx >= n) return;\n\
             \x20 {t} m[16], r[16], tmp[16];\n\
             \x20 for (int e = 0; e < 16; e++) {{ m[e] = mats[(idx * 16 + e) % n]; r[e] = (e % 5 == 0) ? 1 : 0; }}\n\
             \x20 for (int p = 0; p < iters; p++) {{\n\
             \x20   for (int row = 0; row < 4; row++) {{\n\
             \x20     for (int col = 0; col < 4; col++) {{\n\
             \x20       {t} acc = 0;\n\
             \x20       for (int k = 0; k < 4; k++) acc += r[row * 4 + k] * m[k * 4 + col];\n\
             \x20       tmp[row * 4 + col] = acc;\n\
             \x20     }}\n\
             \x20   }}\n\
             \x20   for (int e = 0; e < 16; e++) r[e] = tmp[e];\n\
             \x20 }}\n\
             \x20 out[idx] = r[0];\n}}\n"
        ),
        cuda_launch: "  matexp4<<<(n + 255) / 256, 256>>>(n, iters, d_mats, d_out);\n".into(),
        omp_region: None,
        buffers: vec![
            ("mats".into(), t.into(), "n".into()),
            ("out".into(), t.into(), "n".into()),
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
    use pce_roofline::{classify_joint, Boundedness, HardwareSpec, OpClass};

    fn input(n: u64, iters: u64) -> FamilyInput {
        FamilyInput {
            n,
            iters,
            precision: Precision::F32,
            verbosity: 1,
            language: Language::Cuda,
        }
    }

    #[test]
    fn iteration_heavy_kernels_profile_compute_bound() {
        let hw = HardwareSpec::rtx_3080();
        let prof = Profiler::new(hw.clone());
        for build in [
            mandelbrot as fn(&FamilyInput) -> Variant,
            montecarlo,
            hashcrypt,
            matexp,
        ] {
            let v = build(&input(1 << 20, 500));
            let p = prof.profile(&v.ir, &v.launch);
            assert_eq!(
                classify_joint(&hw, &p.counts).label,
                Boundedness::Compute,
                "{} with 500 iters must be CB",
                v.kernel_name
            );
        }
    }

    #[test]
    fn rngstream_with_few_iters_is_bandwidth_bound() {
        let hw = HardwareSpec::rtx_3080();
        let v = rngstream(&input(1 << 24, 2));
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        assert_eq!(classify_joint(&hw, &p.counts).label, Boundedness::Bandwidth);
    }

    #[test]
    fn rngstream_with_many_iters_flips_to_compute_bound() {
        let hw = HardwareSpec::rtx_3080();
        let v = rngstream(&input(1 << 24, 2000));
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        let joint = classify_joint(&hw, &p.counts);
        assert_eq!(joint.label, Boundedness::Compute);
        assert!(joint.compute_bound_classes().contains(&OpClass::Int));
    }

    #[test]
    fn nbody_is_compute_bound_via_inner_loop_reuse() {
        let hw = HardwareSpec::rtx_3080();
        let v = nbody(&input(16384, 1));
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        assert_eq!(classify_joint(&hw, &p.counts).label, Boundedness::Compute);
    }

    #[test]
    fn hashcrypt_is_integer_only() {
        let v = hashcrypt(&input(1 << 20, 100));
        let p = Profiler::new(HardwareSpec::rtx_3080()).profile(&v.ir, &v.launch);
        assert_eq!(p.counts.flops_sp, 0);
        assert_eq!(p.counts.flops_dp, 0);
        assert!(p.counts.intops > 0);
    }

    #[test]
    fn blackscholes_sp_is_bandwidth_bound_on_3080() {
        let hw = HardwareSpec::rtx_3080();
        let v = blackscholes(&input(1 << 24, 1));
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        assert_eq!(classify_joint(&hw, &p.counts).label, Boundedness::Bandwidth);
    }

    #[test]
    fn blackscholes_dp_is_compute_bound_on_3080() {
        let hw = HardwareSpec::rtx_3080();
        let dp = FamilyInput {
            precision: Precision::F64,
            ..input(1 << 24, 1)
        };
        let v = blackscholes(&dp);
        let p = Profiler::new(hw.clone()).profile(&v.ir, &v.launch);
        assert_eq!(classify_joint(&hw, &p.counts).label, Boundedness::Compute);
    }

    #[test]
    fn polyeval_degree_controls_the_class() {
        let hw = HardwareSpec::rtx_3080();
        let prof = Profiler::new(hw.clone());
        let low = polyeval(&input(1 << 24, 8));
        let high = polyeval(&input(1 << 24, 512));
        let p_low = prof.profile(&low.ir, &low.launch);
        let p_high = prof.profile(&high.ir, &high.launch);
        assert_eq!(
            classify_joint(&hw, &p_low.counts).label,
            Boundedness::Bandwidth
        );
        assert_eq!(
            classify_joint(&hw, &p_high.counts).label,
            Boundedness::Compute
        );
    }

    #[test]
    fn sources_mention_their_iteration_args() {
        let v = montecarlo(&input(1000, 77));
        assert!(v.source.unwrap().contains("iters"));
        assert_eq!(v.args, vec!["1000".to_string(), "77".to_string()]);
    }
}
