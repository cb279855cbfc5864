//! Regenerate the cross-hardware suite: one shared corpus/tokenizer/RQ1
//! build, a per-cell Table 1 for every (GPU, CPU) preset pair, and the
//! language-split label-flip analysis.
//!
//! `--smoke` runs the reduced-scale study; `--specs <name,name,...>`
//! restricts the GPU axis and `--cpu-specs <name,name,...>` the CPU axis
//! (names resolve case/format-insensitively, e.g. `--specs
//! "a100,rtx-4090" --cpu-specs "epyc-9654,grace"`; a preset of the wrong
//! class for its axis is rejected by name). Default is paper scale across
//! the full preset catalog: every GPU preset × every CPU preset.
//!
//! `--chaos <seed>` turns on deterministic fault injection against the
//! surrogate engine (truncations, mangled answers, refusals, timeouts,
//! transient errors); `--fault-rate <r>` sets the total injection
//! probability (default 0.1). The run degrades gracefully — retried and
//! failed responses land in a response ledger rendered with the reports —
//! and the same seed reproduces the same faults byte-for-byte.

use pce_bench::{chaos_from_args, parse_specs_of, study_from_args};
use pce_core::caches::SuiteCaches;
use pce_core::report::{render_accounting_csv, render_flips_csv, render_suite, render_suite_csv};
use pce_core::suite::{run_suite_cached, Suite};
use pce_roofline::{HardwareSpec, SpecClass};

/// Resolve one axis flag (`--specs` / `--cpu-specs`) to a preset list, or
/// exit with the grouped catalog on any error.
fn axis_from_args(
    args: &[String],
    flag: &str,
    class: SpecClass,
    default: Vec<HardwareSpec>,
) -> Vec<HardwareSpec> {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => {
            let list = args.get(i + 1).map(String::as_str).unwrap_or("");
            match parse_specs_of(list, class) {
                Ok(specs) if !specs.is_empty() => specs,
                Ok(_) => {
                    eprintln!(
                        "{flag} needs a comma-separated list of {class} preset names; known presets:\n{}",
                        HardwareSpec::catalog_listing()
                    );
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let specs = axis_from_args(
        &args,
        "--specs",
        SpecClass::Gpu,
        HardwareSpec::gpu_presets(),
    );
    let cpu_specs = axis_from_args(
        &args,
        "--cpu-specs",
        SpecClass::Cpu,
        HardwareSpec::cpu_presets(),
    );
    let mut base = study_from_args();
    base.chaos = match chaos_from_args(&args) {
        Ok(chaos) => chaos,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let chaos_active = base.chaos.is_some();
    let suite = Suite {
        base,
        specs,
        cpu_specs,
    };

    let outcome = match run_suite_cached(&suite, &SuiteCaches::new()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("suite failed: {e}");
            std::process::exit(2);
        }
    };

    println!("{}", render_suite(&outcome));
    println!(
        "### CSV — per-cell metrics\n\n{}",
        render_suite_csv(&outcome)
    );
    println!("### CSV — label flips\n\n{}", render_flips_csv(&outcome));
    if chaos_active {
        let acc = outcome.accounting();
        println!(
            "### CSV — response ledger\n\n{}",
            render_accounting_csv(&outcome)
        );
        println!(
            "chaos summary: injected={} recovered={} invalid={} refused={} retries={} backoff_ms={} balanced={}",
            acc.injected,
            acc.retried_valid,
            acc.invalid,
            acc.refused,
            acc.retries,
            acc.backoff_ms,
            acc.balanced(),
        );
    }
}
