//! End-to-end tests for the cross-hardware suite: its shared build must
//! be exactly equivalent to rebuilding every (GPU, CPU) cell from
//! scratch on fresh cache bundles, the corpus/tokenizer work must be
//! shared (not redone per cell), and each language's hardware axis must
//! actually flip its own kernels' labels.

use parallel_code_estimation::core::caches::SuiteCaches;
use parallel_code_estimation::core::study::StudyData;
use parallel_code_estimation::core::suite::{run_suite_cached, Suite, SuiteOutcome};
use parallel_code_estimation::core::table1::{build_table1_from_bank_cached, Rq1Bank};
use parallel_code_estimation::dataset::tokenize_corpus;
use parallel_code_estimation::kernels::{build_corpus, Language};
use parallel_code_estimation::roofline::{Boundedness, HardwareSpec};

fn small_suite() -> Suite {
    // Three GPU specs spanning the catalog's extremes: consumer 1/64-rate
    // DP (3080), balanced datacenter (A100), bandwidth-rich full-rate DP
    // (MI250X) — each paired with EPYC 9654 (SP ridge 16.0) and Xeon
    // 8480+ (23.3): the corpus has kernels between those two ridges, so
    // the OMP half genuinely flips along the CPU axis (Grace at 13.1 sits
    // too close to the EPYC to bracket any).
    Suite::smoke_with_matrix(
        vec![
            HardwareSpec::rtx_3080(),
            HardwareSpec::a100(),
            HardwareSpec::mi250x(),
        ],
        vec![HardwareSpec::epyc_9654(), HardwareSpec::xeon_8480p()],
    )
}

/// The suite on a cold cache bundle.
fn run(suite: &Suite) -> SuiteOutcome {
    run_suite_cached(suite, &SuiteCaches::new()).expect("suite axes are valid")
}

#[test]
fn shared_build_is_equivalent_to_independent_rebuilds() {
    let suite = small_suite();
    let outcome = run(&suite);
    assert_eq!(outcome.completed().len(), suite.cells().len());

    for (pair, spec_out) in suite.cells().iter().zip(outcome.completed()) {
        // Rebuild this cell completely from scratch on fresh bundles:
        // fresh corpus, fresh tokenizer training, fresh RQ1 runs.
        let study = suite.base.with_specs(pair.clone());
        let data = StudyData::build(&study).expect("study builds");
        let caches = SuiteCaches::new();
        let bank = Rq1Bank::build_cached(&study, &caches.llm);
        let table =
            build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &caches).table;

        let label = pair.label();
        assert_eq!(spec_out.funnel, data.report, "{label}: funnel diverged");
        assert_eq!(
            spec_out.table, table,
            "{label}: Table 1 diverged from a from-scratch rebuild"
        );
        let ids: Vec<String> = data.dataset.samples.iter().map(|s| s.id.clone()).collect();
        assert_eq!(spec_out.dataset_ids, ids, "{label}");
    }
}

#[test]
fn corpus_and_tokenizer_are_built_once_and_shared() {
    let suite = small_suite();
    let outcome = run(&suite);
    let corpus = build_corpus(&suite.base.corpus).expect("corpus builds");
    let tokenized = tokenize_corpus(&corpus, &suite.base.pipeline);

    // Every cell's funnel must carry the one tokenization of the base
    // study verbatim, not a per-cell retrain.
    assert!(tokenized.raw_token_stats.is_some());
    assert_eq!(tokenized.token_counts.len(), corpus.len());
    for spec_out in outcome.completed() {
        assert_eq!(
            spec_out.funnel.raw_token_stats,
            tokenized.raw_token_stats,
            "{}: tokenization was not shared",
            spec_out.pair_label()
        );
        // Hardware never changes what was built, only how it is labeled.
        let built: usize = spec_out.funnel.built.values().sum();
        assert_eq!(built, corpus.len(), "{}", spec_out.pair_label());
        assert_eq!(
            spec_out.funnel.corpus_labels.len(),
            corpus.len(),
            "{}",
            spec_out.pair_label()
        );
    }
}

#[test]
fn each_language_flips_along_its_own_axis() {
    let suite = small_suite();
    let outcome = run(&suite);
    let flips = &outcome.flips;

    for section in &flips.by_language {
        assert!(
            section.flipping >= 1,
            "no {} kernel flipped along the {} axis",
            section.language,
            section.axis_class
        );
        assert!(
            section.flipping < section.kernels.len(),
            "every {} kernel flipped — labels degenerate",
            section.language
        );
        // A flipping kernel really does carry two distinct labels.
        let flipper = section.kernels.iter().find(|k| k.flips()).unwrap();
        assert!(flipper.labels.contains(&Boundedness::Compute));
        assert!(flipper.labels.contains(&Boundedness::Bandwidth));
        // The reference column of `flips_vs_reference` is zero by
        // definition, while some other axis spec disagrees with it.
        assert_eq!(section.flips_vs_reference[0], 0);
        assert!(section.flips_vs_reference.iter().any(|&n| n > 0));
        // Both accuracy pools exist at this scale (flipping and stable
        // kernels both reach the balanced dataset).
        assert!(
            section.accuracy_on_flipping.is_some(),
            "{}",
            section.language
        );
        assert!(section.accuracy_on_stable.is_some(), "{}", section.language);
    }
    assert_eq!(
        flips.flipping,
        flips.by_language.iter().map(|l| l.flipping).sum::<usize>()
    );
    // The two sections partition the corpus.
    let cuda = flips.language(Language::Cuda).unwrap();
    let omp = flips.language(Language::Omp).unwrap();
    assert_eq!(
        cuda.kernels.len() + omp.kernels.len(),
        build_corpus(&suite.base.corpus)
            .expect("corpus builds")
            .len()
    );
}

#[test]
fn suite_smoke_covers_the_preset_catalog() {
    // Acceptance: the `suite` binary's default matrix (all presets) spans
    // ≥ 6 GPU specs × ≥ 3 CPU specs at smoke scale. Structural check
    // here; CI runs the bin.
    assert!(Suite::smoke().specs.len() >= 6);
    assert!(Suite::smoke().cpu_specs.len() >= 3);
    assert!(Suite::default().specs.len() >= 6);
    assert!(Suite::default().cpu_specs.len() >= 3);
    for hw in Suite::smoke().specs.iter().chain(&Suite::smoke().cpu_specs) {
        assert!(hw.validate().is_empty(), "{} invalid", hw.name);
    }
    for pair in Suite::smoke().cells() {
        assert!(pair.validate().is_empty(), "{}", pair.label());
    }
}
