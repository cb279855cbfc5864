//! Rendering: markdown tables and CSV series for every regenerated
//! artifact.

use std::fmt::Write as _;

use pce_dataset::PipelineReport;
use pce_roofline::OpClass;

use crate::experiments::{HyperparamCheck, Rq4Outcome};
use crate::figures::{Fig1, Fig2};
use crate::suite::SuiteOutcome;
use crate::table1::Table1;

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "–".to_string(),
    }
}

/// Render Table 1 as markdown, column-for-column like the paper.
pub fn render_table1(table: &Table1) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(
        "| Model Name | Reasoning | Cost (1M tokens) | RQ1 Acc. | RQ1 CoT Acc. | RQ2 Acc. | RQ2 F1 | RQ2 MCC | RQ3 Acc. | RQ3 F1 | RQ3 MCC |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in &table.rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.model,
            if r.reasoning { "✓" } else { "" },
            r.cost,
            fmt_opt(r.rq1_acc),
            fmt_opt(r.rq1_cot_acc),
            r.rq2.accuracy,
            r.rq2.macro_f1,
            r.rq2.mcc,
            r.rq3.accuracy,
            r.rq3.macro_f1,
            r.rq3.mcc,
        );
    }
    let _ = writeln!(out, "\nTotal simulated API spend: ${:.2}", table.total_cost);
    let acc = table.accounting();
    if acc.faulted() {
        out.push_str("\n### Response accounting\n\n");
        out.push_str(
            "| Model | Valid | Retried→valid | Invalid | Refused | Injected | Retries | Backoff (ms) |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for r in &table.rows {
            let a = &r.accounting;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                r.model,
                a.valid,
                a.retried_valid,
                a.invalid,
                a.refused,
                a.injected,
                a.retries,
                a.backoff_ms,
            );
        }
        let _ = writeln!(
            out,
            "\nLedger: {} injected = {} recovered + {} invalid + {} refused ({}).",
            acc.injected,
            acc.retried_valid,
            acc.invalid,
            acc.refused,
            if acc.balanced() {
                "balanced"
            } else {
                "UNBALANCED"
            },
        );
    }
    out
}

/// Render the cross-hardware suite as markdown: the hardware catalog, a
/// per-cell summary, the language-split label-flip analysis, and one
/// Table-1 section per (GPU, CPU) cell.
pub fn render_suite(outcome: &SuiteOutcome) -> String {
    let completed = outcome.completed();
    let mut out = String::with_capacity(8192);
    let _ = writeln!(
        out,
        "# Cross-hardware suite — {} cells × {} models\n",
        outcome.cells.len(),
        completed.first().map_or(0, |s| s.table.rows.len()),
    );

    // Distinct specs on either axis, with their class and ridge points.
    // Failed cells keep their catalog entries so the matrix stays legible.
    out.push_str("| Hardware | Class | SP ridge | DP ridge | INT ridge |\n");
    out.push_str("|---|---|---|---|---|\n");
    let mut seen = std::collections::BTreeSet::new();
    for c in &outcome.cells {
        let (gpu, cpu) = c.specs();
        for hw in [gpu, cpu] {
            if seen.insert(hw.name.clone()) {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.2} | {:.2} | {:.2} |",
                    hw.name,
                    hw.class,
                    hw.ridge_point(OpClass::Sp),
                    hw.ridge_point(OpClass::Dp),
                    hw.ridge_point(OpClass::Int),
                );
            }
        }
    }

    out.push_str(
        "\n| GPU | CPU | Dataset | Best RQ2 model | Best RQ2 acc. | Spend |\n|---|---|---|---|---|---|\n",
    );
    for s in &completed {
        // Deterministic argmax: strictly-greater keeps the first (highest
        // RQ1-sorted) row on ties.
        let best = s
            .table
            .rows
            .iter()
            .fold(None::<&crate::table1::Table1Row>, |acc, r| match acc {
                Some(b) if b.rq2.accuracy >= r.rq2.accuracy => Some(b),
                _ => Some(r),
            })
            .expect("table has rows");
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.2} | ${:.2} |",
            s.spec.name,
            s.cpu_spec.name,
            s.funnel.final_size,
            best.model,
            best.rq2.accuracy,
            s.table.total_cost,
        );
    }

    let failures = outcome.failures();
    if !failures.is_empty() {
        out.push_str("\n## Failed cells\n\n");
        let _ = writeln!(
            out,
            "{} of {} cells failed; their results are omitted below.\n",
            failures.len(),
            outcome.cells.len(),
        );
        for (label, error) in &failures {
            let _ = writeln!(out, "- {label}: {error}");
        }
    }

    let flips = &outcome.flips;
    out.push_str("\n## Label-flip analysis\n\n");
    let total = flips.total_kernels();
    let _ = writeln!(
        out,
        "{} of {} corpus kernels ({:.1}%) change ground-truth boundedness \
         along their language's hardware axis.",
        flips.flipping,
        total,
        if total == 0 {
            0.0
        } else {
            100.0 * flips.flipping as f64 / total as f64
        },
    );
    for section in &flips.by_language {
        let _ = writeln!(
            out,
            "\n### {} kernels × {} specs\n",
            section.language, section.axis_class
        );
        let _ = writeln!(
            out,
            "{} of {} {} kernels flip across the {} axis.\n",
            section.flipping,
            section.kernels.len(),
            section.language,
            section.axis_class,
        );
        if let Some(reference) = section.spec_names.first() {
            let _ = writeln!(out, "Labels flipped vs the reference ({reference}):\n");
            for (name, n) in section.spec_names.iter().zip(&section.flips_vs_reference) {
                let _ = writeln!(out, "- {name}: {n}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "Pooled zero-shot accuracy — flipping kernels: {}, stable kernels: {}.",
            fmt_opt(section.accuracy_on_flipping),
            fmt_opt(section.accuracy_on_stable),
        );
    }

    for s in &completed {
        let _ = writeln!(out, "\n## Table 1 — {}\n", s.pair_label());
        out.push_str(&render_table1(&s.table));
    }
    out
}

/// Render the suite's ((GPU, CPU) × model) metric cells as CSV.
pub fn render_suite_csv(outcome: &SuiteOutcome) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(
        "hardware,cpu_hardware,model,reasoning,rq1_acc,rq1_cot_acc,rq2_acc,rq2_f1,rq2_mcc,rq3_acc,rq3_f1,rq3_mcc\n",
    );
    let csv_opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.2}"));
    for s in outcome.completed() {
        for r in &s.table.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
                s.spec.name,
                s.cpu_spec.name,
                r.model,
                r.reasoning,
                csv_opt(r.rq1_acc),
                csv_opt(r.rq1_cot_acc),
                r.rq2.accuracy,
                r.rq2.macro_f1,
                r.rq2.mcc,
                r.rq3.accuracy,
                r.rq3.macro_f1,
                r.rq3.mcc,
            );
        }
    }
    out
}

/// Render the suite's per-(cell, model) response ledger as CSV, one row
/// per model per completed cell, using the workspace-shared
/// [`pce_fault::ACCOUNTING_CSV_COLUMNS`] schema — the same columns the
/// serve bin reports its per-model ledger with, serving counters
/// included (all-zero for the suite, which never queues jobs).
pub fn render_accounting_csv(outcome: &SuiteOutcome) -> String {
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "hardware,cpu_hardware,model,{}",
        pce_fault::ACCOUNTING_CSV_COLUMNS
    );
    for s in outcome.completed() {
        for r in &s.table.rows {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                s.spec.name,
                s.cpu_spec.name,
                r.model,
                r.accounting.csv_row(),
            );
        }
    }
    out
}

/// Render the per-kernel label matrix as CSV: one section per language
/// (`# language=CUDA axis=GPU`, `# language=OMP axis=CPU`), each with one
/// column per spec of that language's axis plus a `flips` marker.
pub fn render_flips_csv(outcome: &SuiteOutcome) -> String {
    let flips = &outcome.flips;
    let mut out = String::with_capacity(64 * (flips.total_kernels() + 2));
    for section in &flips.by_language {
        let _ = writeln!(
            out,
            "# language={} axis={}",
            section.language, section.axis_class
        );
        out.push_str("kernel,family,language");
        for name in &section.spec_names {
            let _ = write!(out, ",{name}");
        }
        out.push_str(",flips\n");
        for k in &section.kernels {
            let _ = write!(out, "{},{},{}", k.id, k.family, section.language);
            for label in &k.labels {
                let _ = write!(out, ",{}", label.short());
            }
            let _ = writeln!(out, ",{}", k.flips());
        }
    }
    out
}

/// Render the §2.2 dataset funnel.
pub fn render_funnel(report: &PipelineReport) -> String {
    let mut out = String::new();
    out.push_str("Dataset funnel (paper §2.1–2.2):\n");
    for (lang, n) in &report.built {
        let _ = writeln!(out, "  built {lang:5} programs: {n}");
    }
    for (lang, n) in &report.after_prune {
        let _ = writeln!(out, "  after 8e3-token pruning {lang:5}: {n}");
    }
    for (combo, n) in &report.combo_before_balance {
        let _ = writeln!(out, "  pre-balance cell {combo:8}: {n}");
    }
    let _ = writeln!(out, "  balanced per-cell size: {}", report.per_combo);
    let _ = writeln!(out, "  final dataset: {}", report.final_size);
    let _ = writeln!(
        out,
        "  train/validation: {}/{}",
        report.train_size, report.validation_size
    );
    let _ = writeln!(
        out,
        "  profile dedup: {} unique / {} duplicate ({:.1}% hit rate)",
        report.dedup.unique,
        report.dedup.duplicates,
        report.dedup.hit_rate() * 100.0
    );
    out
}

/// Render Figure 1 as CSV (series per roofline + per-class scatter).
pub fn render_fig1_csv(fig: &Fig1) -> String {
    fig.plot.to_csv()
}

/// Render Figure 1 headline statistics.
pub fn render_fig1_summary(fig: &Fig1) -> String {
    format!(
        "Figure 1 ({}): BB fractions — SP {:.1}%, DP {:.1}%, INT {:.1}%; {} scatter points\n",
        fig.plot.hardware,
        fig.sp_bb_fraction * 100.0,
        fig.dp_bb_fraction * 100.0,
        fig.int_bb_fraction * 100.0,
        fig.plot.scatter.len()
    )
}

/// Render Figure 2 as a markdown table of box-plot statistics.
pub fn render_fig2(fig: &Fig2) -> String {
    let mut out = String::new();
    out.push_str("| Split | Lang | Class | n | min | Q1 | median | Q3 | max | mean |\n");
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for r in &fig.rows {
        let s = &r.stats;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} |",
            r.split, r.language, r.class, s.n, s.min, s.q1, s.median, s.q3, s.max, s.mean
        );
    }
    out
}

/// Render the RQ4 outcome.
pub fn render_rq4(out4: &Rq4Outcome) -> String {
    format!(
        "RQ4 fine-tuning on {} train / {} validation samples:\n\
         \x20 epoch train accuracy: {:?}\n\
         \x20 validation: acc {:.2}, macro-F1 {:.2}, MCC {:.2}\n\
         \x20 prediction concentration: {:.1}% (collapsed to '{}')\n",
        out4.train_size,
        out4.validation_size,
        out4.epoch_train_accuracy,
        out4.metrics.accuracy,
        out4.metrics.macro_f1,
        out4.metrics.mcc,
        out4.prediction_concentration * 100.0,
        out4.collapsed_to
    )
}

/// Render the hyperparameter chi-squared check.
pub fn render_hyperparams(check: &HyperparamCheck) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Sampling-hyperparameter check for {}:", check.model);
    for (s, row) in check.settings.iter().zip(&check.table) {
        let _ = writeln!(
            out,
            "  temp {:.1} top_p {:.2}: Compute {} / Bandwidth {}",
            s.temperature, s.top_p, row[0], row[1]
        );
    }
    let _ = writeln!(
        out,
        "  chi2 = {:.4}, dof = {}, p = {:.4} -> {}",
        check.chi2.statistic,
        check.chi2.dof,
        check.chi2.p_value,
        if check.chi2.significant_at(0.05) {
            "SIGNIFICANT (unexpected)"
        } else {
            "not significant (matches §3.2)"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{build_fig1, build_fig2};
    use crate::study::{Study, StudyData};

    #[test]
    fn funnel_report_renders_all_stages() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let text = render_funnel(&data.report);
        for needle in ["built", "pruning", "balanced per-cell", "train/validation"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn suite_renderers_cover_every_spec_and_kernel() {
        let suite = crate::suite::Suite::smoke_with_specs(vec![
            pce_roofline::HardwareSpec::rtx_3080(),
            pce_roofline::HardwareSpec::a100(),
        ]);
        let outcome =
            crate::suite::run_suite_cached(&suite, &crate::caches::SuiteCaches::new()).unwrap();

        let md = render_suite(&outcome);
        for s in outcome.completed() {
            assert!(
                md.contains(&format!("## Table 1 — {}", s.pair_label())),
                "missing per-cell table for {}",
                s.pair_label()
            );
        }
        assert!(md.contains("## Label-flip analysis"));
        assert!(md.contains("### CUDA kernels × GPU specs"));
        assert!(md.contains("### OMP kernels × CPU specs"));
        assert!(md.contains("Pooled zero-shot accuracy"));
        // Fault-free runs carry no accounting or failure sections.
        assert!(!md.contains("### Response accounting"));
        assert!(!md.contains("## Failed cells"));

        let csv = render_suite_csv(&outcome);
        assert!(csv.starts_with("hardware,cpu_hardware,model,reasoning"));
        // Header + (cells × 9 models) rows.
        assert_eq!(csv.lines().count(), 1 + outcome.completed().len() * 9);

        let acc_csv = render_accounting_csv(&outcome);
        assert!(acc_csv.starts_with("hardware,cpu_hardware,model,valid"));
        assert_eq!(acc_csv.lines().count(), 1 + outcome.completed().len() * 9);

        let flips = render_flips_csv(&outcome);
        assert!(flips.contains("# language=CUDA axis=GPU"));
        assert!(flips.contains("# language=OMP axis=CPU"));
        // Two section markers + two headers + one row per corpus kernel.
        assert_eq!(flips.lines().count(), 4 + outcome.flips.total_kernels());
        // Every data row carries one label column per axis spec.
        for section in &outcome.flips.by_language {
            let cols = 4 + section.spec_names.len();
            let header = format!("# language={}", section.language);
            let at = flips.find(&header).unwrap();
            for line in flips[at..].lines().skip(2).take(3) {
                assert_eq!(line.split(',').count(), cols, "{line}");
            }
        }
    }

    #[test]
    fn fig_renderers_produce_parseable_output() {
        let study = Study::smoke();
        let data = StudyData::build(&study).expect("study builds");
        let fig1 = build_fig1(&study, &data.corpus, true);
        let csv = render_fig1_csv(&fig1);
        assert!(csv.starts_with("series,id,ai,gops,verdict"));
        assert!(render_fig1_summary(&fig1).contains("BB fractions"));

        let fig2 = build_fig2(&data.split);
        let md = render_fig2(&fig2);
        assert_eq!(md.lines().count(), 2 + fig2.rows.len());
    }
}
