//! Performance-portability analysis: profile one kernel across several
//! GPUs and watch its roofline class flip with the hardware — the paper's
//! "Expanding Dataset" future-work scenario (§4).
//!
//! Run with: `cargo run --example roofline_analysis`

use parallel_code_estimation::gpu_sim::{
    AccessPattern, Extent, KernelIr, LaunchConfig, Op, Precision, Profiler,
};
use parallel_code_estimation::roofline::{classify_joint, HardwareSpec, OpClass};

fn main() {
    // A high-order double-precision stencil: past the DP balance point on
    // consumer silicon (1/64-rate DP pipes), comfortably bandwidth-bound
    // on HPC parts with full-rate DP.
    let kernel = KernelIr::builder("dp_stencil_ho")
        .buffer("in", 8, Extent::Param("n".into()))
        .buffer("out", 8, Extent::Param("n".into()))
        .ops((0..5).map(|_| Op::load("in", AccessPattern::Coalesced)))
        .ops((0..25).map(|_| Op::flop(Precision::F64)))
        .op(Op::store("out", AccessPattern::Coalesced))
        .build();
    let n = 16_000_000u64;
    let launch = LaunchConfig::linear(n, 256)
        .expect("valid launch")
        .with_param("n", n);

    println!("kernel: high-order (25-flop) DP stencil, n = {n}\n");
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>10}",
        "GPU", "DP bal.", "DP AI", "runtime", "class"
    );
    for hw in HardwareSpec::presets() {
        let profile = Profiler::new(hw.clone()).profile(&kernel, &launch);
        let joint = classify_joint(&hw, &profile.counts);
        let ai = profile.counts.ai(OpClass::Dp);
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>9.2} ms {:>10}",
            hw.name,
            hw.roofline(OpClass::Dp).balance_point(),
            ai,
            profile.runtime_s * 1e3,
            joint.label.short()
        );
    }

    println!(
        "\nThe same source code changes class across devices — why the paper \
         argues per-hardware labels are needed for generalizable prediction."
    );
}
