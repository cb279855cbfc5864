//! # pce-bench
//!
//! The paper's regeneration binaries, plus the command-line front ends
//! of the prediction service (`serve`, `loadgen`) and the kernel lint
//! (`lint`).
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
//! `--specs <name,name,...>` to pick the hardware matrix rows. Each
//! binary declares its flags and checks its arguments first
//! ([`check_args`]): an argument it does not declare, or a flag that takes
//! a value given without one, is a usage error (exit status 2) naming the
//! argument, never a silent fall-back to a default. The repository
//! benchmark, which times the layers these binaries run, lives in
//! `perfbench/`.

use std::fmt::Display;
use std::str::FromStr;

use pce_core::study::{ChaosConfig, Study};
use pce_roofline::{HardwareSpec, SpecClass};

/// Parse the common CLI convention: `--smoke` selects the reduced study.
pub fn study_from_args(args: &[String]) -> Study {
    if args.iter().any(|a| a == "--smoke") {
        Study::smoke()
    } else {
        Study::default()
    }
}

/// Check every argument after the program name against a binary's
/// declared flags: each must be one of `switches`, one of `value_flags`,
/// or the value right after a value flag. Anything else is an error
/// naming the argument and listing the declared flags; a value flag
/// followed by nothing, or by another `--` argument, is the
/// [`flag_value`] error.
pub fn check_args(args: &[String], switches: &[&str], value_flags: &[&str]) -> Result<(), String> {
    let mut at = 1;
    while let Some(arg) = args.get(at) {
        if value_flags.contains(&arg.as_str()) {
            value_after(args, at, arg)?;
            at += 2;
        } else if switches.contains(&arg.as_str()) {
            at += 1;
        } else {
            let declared: Vec<String> = switches
                .iter()
                .map(|s| s.to_string())
                .chain(value_flags.iter().map(|f| format!("{f} <value>")))
                .collect();
            return Err(format!(
                "unknown argument '{arg}'; flags: {}",
                declared.join(" ")
            ));
        }
    }
    Ok(())
}

/// The value following `flag`: `Ok(None)` when the flag is absent, and
/// an error naming the flag when it is present but nothing, or another
/// `--flag`, follows it.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(at) => value_after(args, at, flag).map(Some),
    }
}

/// The value after `args[at]`, the value flag `flag`: an error naming the
/// flag when nothing, or another `--` argument, follows it.
fn value_after<'a>(args: &'a [String], at: usize, flag: &str) -> Result<&'a str, String> {
    match args.get(at + 1) {
        Some(value) if !value.starts_with("--") => Ok(value),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// [`flag_value`] parsed as `T`: `Ok(None)` when the flag is absent, and
/// an error naming the flag when its value is missing or does not parse.
pub fn parsed_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    flag_value(args, flag)?
        .map(|raw| {
            raw.parse().map_err(|e| {
                format!(
                    "{flag} needs a {}, got '{raw}': {e}",
                    std::any::type_name::<T>()
                )
            })
        })
        .transpose()
}

/// `result`'s value; on an error, print it to stderr and exit with status
/// 2, the binaries' usage-error status.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Parse the chaos convention: `--chaos <seed>` switches fault injection
/// on, `--fault-rate <r>` tunes the total injection probability (default
/// 0.1, split evenly across the fault kinds), and `--wire-rate <r>` adds
/// connection-layer chaos (torn lines / disconnects / stalls, split
/// evenly; default 0). Without `--chaos` the run is fault-free;
/// `--fault-rate` or `--wire-rate` alone is rejected so a typo can't
/// silently drop the chaos layer.
pub fn chaos_from_args(args: &[String]) -> Result<Option<ChaosConfig>, String> {
    let Some(seed) = parsed_flag::<u64>(args, "--chaos")? else {
        for flag in ["--fault-rate", "--wire-rate"] {
            if args.iter().any(|a| a == flag) {
                return Err(format!("{flag} requires --chaos <seed>"));
            }
        }
        return Ok(None);
    };
    let unit_rate = |flag: &str, default: f64| -> Result<f64, String> {
        let r = parsed_flag::<f64>(args, flag)?.unwrap_or(default);
        if !(0.0..=1.0).contains(&r) {
            return Err(format!("{flag} must be in [0, 1], got {r}"));
        }
        Ok(r)
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const SWITCHES: &[&str] = &["--smoke", "--storm"];
    const VALUE_FLAGS: &[&str] = &["--jobs", "--seed"];

    #[test]
    fn declared_switches_and_values_pass() {
        for argv in [
            args(&["loadgen"]),
            args(&["loadgen", "--smoke"]),
            args(&["loadgen", "--jobs", "40", "--storm", "--seed", "-1"]),
        ] {
            assert_eq!(check_args(&argv, SWITCHES, VALUE_FLAGS), Ok(()), "{argv:?}");
        }
    }

    #[test]
    fn undeclared_arguments_fail_naming_them() {
        for (argv, named) in [
            (args(&["loadgen", "--smoke", "--bogus"]), "--bogus"),
            (args(&["loadgen", "--job", "5"]), "--job"),
            (args(&["loadgen", "--smoke", "stray"]), "stray"),
        ] {
            let err = check_args(&argv, SWITCHES, VALUE_FLAGS).unwrap_err();
            assert!(err.contains(&format!("'{named}'")), "{err}");
            assert!(
                err.contains("--storm") && err.contains("--jobs <value>"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_flag_value_is_never_a_positional() {
        // "5" and "smoke" are values here; a lone "5" is a stray.
        let argv = args(&["loadgen", "--jobs", "5", "--seed", "smoke"]);
        assert_eq!(check_args(&argv, SWITCHES, VALUE_FLAGS), Ok(()));
        let err = check_args(&args(&["loadgen", "5"]), SWITCHES, VALUE_FLAGS).unwrap_err();
        assert!(err.contains("'5'"), "{err}");
        // A valueless value flag keeps its own error.
        for argv in [
            args(&["loadgen", "--jobs"]),
            args(&["loadgen", "--jobs", "--smoke"]),
        ] {
            let err = check_args(&argv, SWITCHES, VALUE_FLAGS).unwrap_err();
            assert_eq!(err, "--jobs needs a value");
        }
    }

    #[test]
    fn absent_flag_leaves_the_default_to_the_caller() {
        let argv = args(&["serve", "--smoke"]);
        assert_eq!(flag_value(&argv, "--listen"), Ok(None));
        assert_eq!(parsed_flag::<usize>(&argv, "--batch"), Ok(None));
    }

    #[test]
    fn present_flag_gives_the_parsed_value() {
        let argv = args(&["serve", "--smoke", "--queue-depth", "8", "--listen", "x:1"]);
        assert_eq!(parsed_flag::<usize>(&argv, "--queue-depth"), Ok(Some(8)));
        assert_eq!(flag_value(&argv, "--listen"), Ok(Some("x:1")));
    }

    #[test]
    fn valueless_flag_is_an_error_naming_it() {
        for argv in [
            args(&["serve", "--smoke", "--queue-depth"]),
            args(&["serve", "--queue-depth", "--smoke"]),
        ] {
            let err = parsed_flag::<usize>(&argv, "--queue-depth").unwrap_err();
            assert!(err.contains("--queue-depth"), "{err}");
            assert!(flag_value(&argv, "--queue-depth").is_err(), "{argv:?}");
        }
    }

    #[test]
    fn unparsable_flag_value_is_an_error_naming_it() {
        for raw in ["eight", "-1", "8.5", ""] {
            let argv = args(&["loadgen", "--jobs", raw]);
            let err = parsed_flag::<usize>(&argv, "--jobs").unwrap_err();
            assert!(err.contains("--jobs") && err.contains(raw), "{err}");
        }
    }

    #[test]
    fn chaos_flags_parse_and_reject_typos() {
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
        for hw in HardwareSpec::presets() {
            assert!(err.contains(&hw.name), "error must list {}", hw.name);
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
