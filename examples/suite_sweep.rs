//! Cross-hardware sweep: run the smoke-scale experiment matrix over a
//! (GPU × CPU) preset grid, then show — per language — which kernels flip
//! ground-truth boundedness along their own hardware axis and how
//! zero-shot accuracy tracks the flips.
//!
//! Run with: `cargo run --release --example suite_sweep`

use parallel_code_estimation::core::caches::SuiteCaches;
use parallel_code_estimation::core::suite::{run_suite_cached, Suite};
use parallel_code_estimation::roofline::{HardwareSpec, OpClass};

fn main() {
    let suite = Suite::smoke_with_matrix(
        vec![
            HardwareSpec::rtx_3080(),
            HardwareSpec::rtx_4090(),
            HardwareSpec::mi250x(),
        ],
        vec![HardwareSpec::epyc_9654(), HardwareSpec::xeon_8480p()],
    );
    println!(
        "sweeping {} GPU x {} CPU specs ({} cells) × 9 models (smoke scale)...\n",
        suite.specs.len(),
        suite.cpu_specs.len(),
        suite.cells().len()
    );
    let outcome =
        run_suite_cached(&suite, &SuiteCaches::new()).expect("smoke matrix axes are valid");

    println!(
        "{:<28} {:<28} {:>9} {:>9} {:>8} {:>10}",
        "GPU", "CPU", "SP ridge", "CPU SP rg", "dataset", "best RQ2"
    );
    for s in outcome.completed() {
        let best = s
            .table
            .rows
            .iter()
            .map(|r| r.rq2.accuracy)
            .fold(f64::MIN, f64::max);
        println!(
            "{:<28} {:<28} {:>9.2} {:>9.2} {:>8} {:>9.2}%",
            s.spec.name,
            s.cpu_spec.name,
            s.spec.ridge_point(OpClass::Sp),
            s.cpu_spec.ridge_point(OpClass::Sp),
            s.funnel.final_size,
            best,
        );
    }

    for section in &outcome.flips.by_language {
        println!(
            "\n{} of {} {} kernels change ground-truth class across the {} axis.",
            section.flipping,
            section.kernels.len(),
            section.language,
            section.axis_class,
        );
        for (name, n) in section
            .spec_names
            .iter()
            .zip(&section.flips_vs_reference)
            .skip(1)
        {
            println!(
                "  {name}: {n} kernels relabeled vs {}",
                section.spec_names[0]
            );
        }

        // A few concrete flippers, with their per-spec labels.
        println!("example flipping {} kernels:", section.language);
        for k in section.kernels.iter().filter(|k| k.flips()).take(3) {
            let labels: Vec<&str> = k.labels.iter().map(|l| l.short()).collect();
            println!("  {:<26} {}", k.id, labels.join(" → "));
        }

        if let (Some(on_flip), Some(on_stable)) =
            (section.accuracy_on_flipping, section.accuracy_on_stable)
        {
            println!(
                "pooled zero-shot accuracy ({}): {on_flip:.1}% on flipping kernels vs \
                 {on_stable:.1}% on stable ones — hardware-sensitive kernels are \
                 exactly where source-only prediction is hardest.",
                section.language
            );
        }
    }
}
