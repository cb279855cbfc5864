//! # pce-bench
//!
//! The benchmark harness: one regeneration binary per paper artifact and
//! Criterion performance benches over the substrates.
//!
//! Regeneration binaries (`cargo run -p pce-bench --release --bin <name>`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 (all models × RQ1/RQ2/RQ3 metrics) |
//! | `suite` | Cross-hardware suite (per-spec Table 1 + label flips) |
//! | `fig1` | Figure 1 roofline scatter (CSV + summary) |
//! | `fig2` | Figure 2 token-count box plots |
//! | `rq4_finetune` | §3.7 fine-tuning collapse |
//! | `hyperparams` | §3.2 chi-squared sampling-parameter check |
//! | `dataset_stats` | §2.1–2.2 dataset funnel |
//!
//! All binaries accept `--smoke` for a reduced-scale run (CI-friendly) and
//! default to the paper-scale study otherwise; `suite` also accepts
//! `--specs <name,name,...>` to pick the hardware matrix rows. The
//! repository benchmark that times the pipeline and the suite lives in
//! `perfbench/`.

use pce_core::study::{ChaosConfig, Study};
use pce_roofline::{HardwareSpec, SpecClass};

/// Parse the common CLI convention: `--smoke` selects the reduced study.
pub fn study_from_args() -> Study {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        Study::smoke()
    } else {
        Study::default()
    }
}

/// A moderately sized study for criterion benches: big enough to be
/// representative, small enough to iterate.
pub fn bench_study() -> Study {
    Study::smoke()
}

/// The value following `flag`, when present and not itself a flag.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1)
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
}

/// Parse the chaos convention: `--chaos <seed>` switches fault injection
/// on, `--fault-rate <r>` tunes the total injection probability (default
/// 0.1, split evenly across the fault kinds), and `--wire-rate <r>` adds
/// connection-layer chaos (torn lines / disconnects / stalls, split
/// evenly; default 0). Without `--chaos` the run is fault-free;
/// `--fault-rate` or `--wire-rate` alone is rejected so a typo can't
/// silently drop the chaos layer.
pub fn chaos_from_args(args: &[String]) -> Result<Option<ChaosConfig>, String> {
    let has_chaos = args.iter().any(|a| a == "--chaos");
    let has_rate = args.iter().any(|a| a == "--fault-rate");
    let has_wire = args.iter().any(|a| a == "--wire-rate");
    if !has_chaos {
        if has_rate {
            return Err("--fault-rate requires --chaos <seed>".to_string());
        }
        if has_wire {
            return Err("--wire-rate requires --chaos <seed>".to_string());
        }
        return Ok(None);
    }
    let seed = flag_value(args, "--chaos")
        .ok_or("--chaos needs a seed, e.g. --chaos 42")?
        .parse::<u64>()
        .map_err(|e| format!("--chaos seed must be a u64: {e}"))?;
    let unit_rate = |flag: &str, default: f64| -> Result<f64, String> {
        match flag_value(args, flag) {
            None if args.iter().any(|a| a == flag) => {
                Err(format!("{flag} needs a value in [0, 1]"))
            }
            None => Ok(default),
            Some(raw) => {
                let r = raw
                    .parse::<f64>()
                    .map_err(|e| format!("{flag} must be a number: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("{flag} must be in [0, 1], got {r}"));
                }
                Ok(r)
            }
        }
    };
    let rate = unit_rate("--fault-rate", 0.1)?;
    let wire = unit_rate("--wire-rate", 0.0)?;
    let mut chaos = ChaosConfig::uniform(seed, rate);
    chaos.plan = chaos.plan.with_wire(pce_fault::WireRates::uniform(wire));
    Ok(Some(chaos))
}

/// Parse a comma-separated spec list into hardware presets of any class.
///
/// Names resolve case- and format-insensitively (`"a100"`, `"RTX 3080"`,
/// `"epyc-9654"`); an unknown or ambiguous name produces an error message
/// listing every known preset grouped by [`SpecClass`], so CLI users
/// never have to guess.
pub fn parse_specs(list: &str) -> Result<Vec<HardwareSpec>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| HardwareSpec::preset_by_name(name).map_err(|e| e.to_string()))
        .collect()
}

/// [`parse_specs`] restricted to one machine class: the `suite` bin's
/// `--specs` axis takes GPU presets, `--cpu-specs` takes CPU presets, and
/// a preset of the other class is rejected by name rather than silently
/// mislabeling half the corpus.
pub fn parse_specs_of(list: &str, class: SpecClass) -> Result<Vec<HardwareSpec>, String> {
    parse_specs(list)?
        .into_iter()
        .map(|hw| {
            if hw.class == class {
                Ok(hw)
            } else {
                Err(format!(
                    "'{}' is a {} preset, but this axis takes {class} specs; known presets:\n{}",
                    hw.name,
                    hw.class,
                    HardwareSpec::catalog_listing()
                ))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specs_resolves_mixed_formats() {
        let specs = parse_specs("a100, RTX 3080,mi250x").unwrap();
        let names: Vec<_> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "NVIDIA A100-SXM4-40GB",
                "NVIDIA GeForce RTX 3080",
                "AMD Instinct MI250X"
            ]
        );
        // Empty segments are skipped, an empty list parses to no specs.
        assert!(parse_specs(" , ,").unwrap().is_empty());
    }

    #[test]
    fn chaos_flags_parse_and_reject_typos() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(chaos_from_args(&args(&["suite", "--smoke"])), Ok(None));

        let cfg = chaos_from_args(&args(&["suite", "--chaos", "42"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.plan.seed, 42);
        assert!((cfg.plan.rates.total() - 0.1).abs() < 1e-12);

        let cfg = chaos_from_args(&args(&["suite", "--chaos", "7", "--fault-rate", "0.25"]))
            .unwrap()
            .unwrap();
        assert!((cfg.plan.rates.total() - 0.25).abs() < 1e-12);

        for bad in [
            vec!["suite", "--fault-rate", "0.1"],
            vec!["suite", "--chaos"],
            vec!["suite", "--chaos", "--smoke"],
            vec!["suite", "--chaos", "nope"],
            vec!["suite", "--chaos", "1", "--fault-rate"],
            vec!["suite", "--chaos", "1", "--fault-rate", "1.5"],
            vec!["suite", "--chaos", "1", "--fault-rate", "abc"],
        ] {
            assert!(chaos_from_args(&args(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_specs_error_lists_known_presets() {
        let err = parse_specs("a100,notreal").unwrap_err();
        assert!(err.contains("unknown hardware spec 'notreal'"), "{err}");
        for name in HardwareSpec::preset_names() {
            assert!(err.contains(&name), "error must list {name}");
        }
        // Grouped by class, and ambiguity is an error too.
        assert!(err.contains("GPU presets:") && err.contains("CPU presets:"));
        let err = parse_specs("nvidia").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
    }

    #[test]
    fn class_restricted_parsing_rejects_the_other_axis() {
        let gpus = parse_specs_of("a100,rtx-4090", SpecClass::Gpu).unwrap();
        assert!(gpus.iter().all(|hw| hw.class == SpecClass::Gpu));
        let cpus = parse_specs_of("epyc-9654,grace", SpecClass::Cpu).unwrap();
        assert!(cpus.iter().all(|hw| hw.class == SpecClass::Cpu));

        let err = parse_specs_of("a100,epyc-9654", SpecClass::Gpu).unwrap_err();
        assert!(err.contains("'AMD EPYC 9654' is a CPU preset"), "{err}");
        assert!(err.contains("GPU presets:"), "{err}");
        let err = parse_specs_of("a100", SpecClass::Cpu).unwrap_err();
        assert!(err.contains("GPU preset"), "{err}");
    }
}
