//! End-to-end integration tests spanning every workspace crate: corpus →
//! profiling → dataset → prompts → surrogate models → metrics → artifacts.

use parallel_code_estimation::core::caches::SuiteCaches;
use parallel_code_estimation::core::experiments::{
    render_prompts, run_classification, run_hyperparam_check, run_rq1, run_rq4,
};
use parallel_code_estimation::core::figures::{build_fig1, build_fig2};
use parallel_code_estimation::core::report;
use parallel_code_estimation::core::study::{Study, StudyData};
use parallel_code_estimation::core::table1::{build_table1_from_bank_cached, Rq1Bank};
use parallel_code_estimation::llm::SurrogateEngine;
use parallel_code_estimation::prompt::ShotStyle;
use parallel_code_estimation::roofline::Boundedness;

fn study_and_data() -> (Study, StudyData) {
    let study = Study::smoke();
    let data = StudyData::build(&study).expect("study builds");
    (study, data)
}

#[test]
fn dataset_funnel_mirrors_the_papers_shape() {
    let (_, data) = study_and_data();
    // All four cells equal, dataset = 4 × cell.
    assert_eq!(data.dataset.len(), data.report.per_combo * 4);
    // 80/20 split within cells.
    let expected_train = (data.report.per_combo as f64 * 0.8).round() as usize * 4;
    assert_eq!(data.split.train.len(), expected_train);
    // Pruning dropped something (the corpus has a verbosity tail).
    let built: usize = data.report.built.values().sum();
    let kept: usize = data.report.after_prune.values().sum();
    assert!(kept < built);
    // Every sample respects the cutoff.
    assert!(data.dataset.samples.iter().all(|s| s.token_count <= 8_000));
}

#[test]
fn paper_scale_study_defaults_are_wired_through() {
    let study = Study::default();
    assert_eq!(study.corpus.cuda_programs, 446);
    assert_eq!(study.corpus.omp_programs, 303);
    assert_eq!(study.pipeline.per_combo_cap, 85);
    assert_eq!(study.rq1_rooflines, 240);
}

#[test]
fn rq1_hierarchy_reasoning_at_ceiling_standard_below() {
    let (study, _) = study_and_data();
    let engine = SurrogateEngine::new();
    let o3 = run_rq1(&study, &engine, "o3-mini-high");
    let mini = run_rq1(&study, &engine, "gpt-4o-mini");
    assert_eq!(o3.best_acc, 100.0);
    assert_eq!(o3.best_acc_cot, 100.0);
    assert!(mini.best_acc < 100.0);
    assert!(mini.best_acc_cot >= mini.best_acc);
}

#[test]
fn zero_shot_reasoning_advantage_and_sane_bands() {
    let (study, data) = study_and_data();
    let engine = SurrogateEngine::new();
    let samples = &data.dataset.samples;
    let prompts = render_prompts(&study, samples, ShotStyle::ZeroShot);
    let strong = run_classification(
        &study,
        &engine,
        "o3-mini-high",
        samples,
        &prompts,
        ShotStyle::ZeroShot,
    );
    let weak = run_classification(
        &study,
        &engine,
        "gpt-4o-mini-2024-07-18",
        samples,
        &prompts,
        ShotStyle::ZeroShot,
    );
    assert!(strong.metrics.accuracy > weak.metrics.accuracy);
    assert!(strong.metrics.mcc > weak.metrics.mcc);
    // Nobody is anywhere near the RQ1 ceiling without profiling data.
    assert!(strong.metrics.accuracy < 85.0);
}

#[test]
fn rq4_collapse_reproduces() {
    let (study, data) = study_and_data();
    let out = run_rq4(&study, &data.split).expect("smoke split is not empty");
    // Collapse signature: predictions concentrate on one class. The
    // residual minority's MCC is noisy at smoke scale (n = 56), so the
    // concentration is the load-bearing assertion.
    assert!(out.prediction_concentration > 0.85);
    assert!(out.metrics.mcc.abs() < 50.0);
}

#[test]
fn hyperparameter_insensitivity_reproduces() {
    let (study, data) = study_and_data();
    let engine = SurrogateEngine::new();
    let check = run_hyperparam_check(&study, &engine, "gpt-4o-2024-11-20", &data.dataset.samples)
        .expect("hyperparameter check runs");
    assert!(!check.chi2.significant_at(0.05));
}

#[test]
fn figures_and_reports_render() {
    let (study, data) = study_and_data();
    let fig1 = build_fig1(&study, &data.corpus, true);
    assert!(fig1.sp_bb_fraction > 0.5); // BB majority, as in the paper
    let fig2 = build_fig2(&data.split);
    assert_eq!(fig2.rows.len(), 8);
    assert!(report::render_fig1_summary(&fig1).contains("BB fractions"));
    assert!(report::render_fig2(&fig2).contains("| train |"));
    assert!(report::render_funnel(&data.report).contains("balanced per-cell"));
}

#[test]
fn table1_smoke_has_paper_structure() {
    let (study, data) = study_and_data();
    let caches = SuiteCaches::new();
    let bank = Rq1Bank::build_cached(&study, &caches.llm);
    let table = build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &caches).table;
    assert_eq!(table.rows.len(), 9);
    let text = report::render_table1(&table);
    assert!(text.contains("o3-mini-high"));
    assert!(
        text.contains("| – | – |") || text.contains("| – |"),
        "omitted RQ1 cells render as –"
    );
    // Ground truth labels are balanced, so a majority-class predictor
    // cannot exceed ~50% + noise; every model should beat MCC -100.
    for row in &table.rows {
        assert!(row.rq2.mcc > -50.0, "{} degenerate", row.model);
    }
}

#[test]
fn engine_answers_are_always_parseable_class_tokens() {
    let (study, data) = study_and_data();
    let engine = SurrogateEngine::new();
    let samples = &data.dataset.samples;
    let prompts = render_prompts(&study, samples, ShotStyle::FewShot);
    let out = run_classification(
        &study,
        &engine,
        "gemini-2.0-flash-001",
        samples,
        &prompts,
        ShotStyle::FewShot,
    );
    // No invalid answers: the prompt's single-word instruction works on
    // surrogates exactly as the paper reports for the hosted models.
    assert_eq!(out.confusion.invalid_pos + out.confusion.invalid_neg, 0);
    assert_eq!(out.metrics.n as usize, data.dataset.len());
    let _ = Boundedness::parse("Compute").unwrap();
}
