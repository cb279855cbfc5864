//! Quickstart: the whole study in miniature.
//!
//! Builds a small benchmark corpus, profiles one program on the simulated
//! RTX 3080, derives its ground-truth roofline label, then asks a
//! reasoning and a non-reasoning surrogate LLM to classify it from source
//! alone — the paper's core comparison, end to end.
//!
//! Run with: `cargo run --example quickstart`

use parallel_code_estimation::fault::RetryPolicy;
use parallel_code_estimation::gpu_sim::Profiler;
use parallel_code_estimation::kernels::{build_corpus, CorpusConfig};
use parallel_code_estimation::llm::SurrogateEngine;
use parallel_code_estimation::prompt::{render_classify_prompt, ClassifyRequest, ShotStyle};
use parallel_code_estimation::roofline::{classify_joint, HardwareSpec};

fn main() {
    // 1. A small HeCBench-like corpus (deterministic, seeded).
    let corpus = build_corpus(&CorpusConfig {
        seed: 42,
        cuda_programs: 12,
        omp_programs: 6,
    })
    .expect("corpus builds");
    let program = &corpus[1];
    println!(
        "program {} ({} kernel '{}')",
        program.id, program.language, program.kernel_name
    );

    // 2. Profile it on the simulated RTX 3080 — the paper's ground truth.
    let hw = HardwareSpec::rtx_3080();
    let profile = Profiler::new(hw.clone()).profile(&program.ir, &program.launch);
    println!(
        "runtime {:.3} us, {:?}",
        profile.runtime_s * 1e6,
        profile.counts
    );

    // 3. The three-roofline joint label (§2.1).
    let joint = classify_joint(&hw, &profile.counts);
    println!(
        "ground truth: {} (CB classes: {:?})\n",
        joint.label,
        joint.compute_bound_classes()
    );

    // 4. Ask two surrogate LLMs, zero-shot, from source only (Fig. 4).
    let prompt = render_classify_prompt(
        &ClassifyRequest {
            language: program.language.label().to_string(),
            kernel_name: program.kernel_name.clone(),
            hardware: hw,
            geometry: program.launch.geometry_string(),
            args: program.args.clone(),
            source: program.source.clone(),
        },
        ShotStyle::ZeroShot,
    );
    let engine = SurrogateEngine::new();
    for model in ["o3-mini-high", "gpt-4o-mini"] {
        let verdict = engine
            .complete_with_retry(model, &prompt, None, 0, &RetryPolicy::none())
            .verdict
            .expect("fault-free engine answers known models");
        println!(
            "{model:>14} answers: {:<10} (correct: {})",
            verdict.answer_token(),
            verdict == joint.label
        );
    }
    println!("\nsimulated API spend: ${:.4}", engine.meter().total_cost());
}
