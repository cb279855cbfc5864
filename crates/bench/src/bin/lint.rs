//! Kernel lint report: run the `pce-static-analysis` hazard diagnostics
//! over every generated corpus program and render a per-kernel, per-rule
//! report.
//!
//! ```text
//! lint [--smoke] [--csv <path>] [--emit-predict clean|racy]
//! ```
//!
//! The text report lists every rule (id, severity, firings over the
//! corpus's distinct sources) and then every program that carries a
//! diagnostic, one line per finding with its stable `line:col` span.
//! `--csv <path>` additionally writes one row per finding
//! (`program,kernel,rule,severity,line,col,message`).
//!
//! Exit status: `0` when the corpus is free of error-severity
//! diagnostics (warnings are allowed — generated kernels legitimately
//! carry serialized accumulators and strided subscripts), `1` when any
//! error-severity hazard fires. CI's `lint-smoke` job runs this over the
//! full corpus and treats a nonzero exit as a regression.
//!
//! `--emit-predict` prints a ready-made raw-source `predict src=...`
//! protocol line (a `pce_core::serve::Job`'s `Display`, which
//! percent-encodes the source) for a known-clean or known-racy kernel, so
//! smoke scripts can pipe an accept and a reject case through the `serve`
//! bin without quoting gymnastics.

use std::collections::BTreeMap;
use std::io::Write;

use pce_bench::{check_args, flag_value, or_exit, study_from_args};
use pce_core::serve::{Job, STATIC_MODEL};
use pce_kernels::build_corpus;
use pce_prompt::ShotStyle;
use pce_static_analysis::{diagnose, RuleId, Severity};

/// A clean kernel for `--emit-predict clean`: saxpy with a guarded,
/// thread-distinct store.
const CLEAN_SRC: &str = "__global__ void saxpy(int n, float a, const float* x, float* y) {\n    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    if (i < n) { y[i] = a * x[i] + y[i]; }\n}\n";

/// A racy kernel for `--emit-predict racy`: a tree reduction with the
/// loop barrier deleted — `shared-race` fires at error severity.
const RACY_SRC: &str = "__global__ void reduce_sum(const float* x, float* out, int n) {\n    __shared__ float buf[256];\n    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    buf[threadIdx.x] = (i < n) ? x[i] : 0.0f;\n    __syncthreads();\n    for (int s = 128; s > 0; s >>= 1) {\n        if (threadIdx.x < s) { buf[threadIdx.x] += buf[threadIdx.x + s]; }\n    }\n    if (threadIdx.x == 0) { out[blockIdx.x] = buf[0]; }\n}\n";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(
        &args,
        &["--smoke"],
        &["--csv", "--emit-predict"],
    ));
    let csv_path = or_exit(flag_value(&args, "--csv"));

    if let Some(which) = or_exit(flag_value(&args, "--emit-predict")) {
        let (id, src) = match which {
            "clean" => ("lint-clean", CLEAN_SRC),
            "racy" => ("lint-racy", RACY_SRC),
            other => {
                eprintln!("--emit-predict takes clean|racy, got '{other}'");
                std::process::exit(2);
            }
        };
        let job = Job {
            id: id.to_string(),
            kernel: "-".to_string(),
            spec: "rtx-3080".to_string(),
            model: STATIC_MODEL.to_string(),
            style: ShotStyle::ZeroShot,
            deadline_ms: None,
            src: Some(src.to_string()),
        };
        println!("{job}");
        return;
    }

    let study = study_from_args(&args);
    let corpus = match build_corpus(&study.corpus) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus generation failed: {e}");
            std::process::exit(2);
        }
    };

    // Diagnose each distinct source once, in corpus order; variants that
    // share a source share its findings.
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut rule_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut findings: Vec<(String, String, pce_static_analysis::Diagnostic)> = Vec::new();
    let mut programs_audited = 0usize;
    for p in &corpus {
        if !seen.insert(p.source.as_str()) {
            continue;
        }
        programs_audited += 1;
        for d in diagnose(&p.source) {
            *rule_totals.entry(d.rule.id()).or_insert(0) += 1;
            findings.push((p.id.clone(), p.kernel_name.clone(), d));
        }
    }

    println!(
        "lint: {} programs ({} distinct sources), {} findings",
        corpus.len(),
        programs_audited,
        findings.len()
    );
    println!("{:<20} {:<8} findings", "rule", "severity");
    for rule in RuleId::all() {
        println!(
            "{:<20} {:<8} {}",
            rule.id(),
            rule.severity().to_string(),
            rule_totals.get(rule.id()).copied().unwrap_or(0)
        );
    }
    for (id, _, d) in &findings {
        println!(
            "{id}: {} {} at {}:{} — {}",
            d.severity, d.rule, d.span.line, d.span.col, d.message
        );
    }

    if let Some(path) = csv_path {
        let mut csv = String::from("program,kernel,rule,severity,line,col,message\n");
        for (id, kernel, d) in &findings {
            csv.push_str(&format!(
                "{id},{kernel},{},{},{},{},\"{}\"\n",
                d.rule,
                d.severity,
                d.span.line,
                d.span.col,
                d.message.replace('"', "'")
            ));
        }
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }

    let errors = findings
        .iter()
        .filter(|(_, _, d)| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        let mut err = std::io::stderr();
        let _ = writeln!(err, "lint: {errors} error-severity findings");
        std::process::exit(1);
    }
}
