//! The cross-hardware study suite: one shared data build, per-cell
//! Table-1 evaluations over a (GPU spec × CPU spec) matrix, and the
//! language-split label-flip analysis.
//!
//! The paper evaluates everything on a single RTX 3080, but its roofline
//! framing is hardware-parametric: the same kernel flips between compute-
//! and bandwidth-bound as the peak-FLOPs/bandwidth ratio changes — and
//! half the corpus is OpenMP code whose ground truth belongs to a *CPU*
//! roofline, not a GPU's. This module runs the full experiment matrix —
//! (GPU spec × CPU spec) × model zoo × RQ1/RQ2/RQ3:
//!
//! * the hardware-*independent* work (corpus generation, tokenizer
//!   training, per-program token counts, the RQ1 random-roofline runs) is
//!   done **once** per [`run_suite_cached`] call and reused by every cell,
//! * the hardware-*dependent* work (profiling, labeling, balancing,
//!   RQ2/RQ3 classification) runs per (GPU, CPU) cell, with each cell's
//!   pipeline routing CUDA kernels to the GPU spec and OMP kernels to the
//!   CPU spec; rayon fans out over cells and the model zoo,
//! * a [`FlipAnalysis`] reports — **per language** — which kernels change
//!   ground-truth boundedness along their own hardware axis (CUDA across
//!   GPU specs, OMP across CPU specs) and how zero-shot model accuracy
//!   tracks those flips.
//!
//! Everything is deterministic: results are collected in input order and
//! costs derive from integer token totals, so the suite renders
//! byte-identically under any `RAYON_NUM_THREADS`.

use std::collections::{BTreeMap, BTreeSet};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pce_dataset::{run_pipeline_cached, tokenize_corpus, PipelineReport, TokenizedCorpus};
use pce_fault::{PceError, ResponseAccounting};
use pce_kernels::{build_corpus, Language, Program};
use pce_roofline::{Boundedness, HardwareSpec, SpecClass, SpecPair};

use crate::caches::SuiteCaches;
use crate::study::Study;
use crate::table1::{build_table1_from_bank_cached, Rq1Bank, Table1};

/// Cross-hardware suite configuration: one base study re-targeted at
/// every cell of a (GPU spec × CPU spec) matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Suite {
    /// The base study (corpus, pipeline, RQ1 scale, seeds). Its spec pair
    /// is replaced per cell via [`Study::with_specs`].
    pub base: Study,
    /// The GPU axis (labels the CUDA corpus half). The first spec is the
    /// CUDA flip-analysis reference.
    pub specs: Vec<HardwareSpec>,
    /// The CPU axis (labels the OMP corpus half). The first spec is the
    /// OMP flip-analysis reference.
    pub cpu_specs: Vec<HardwareSpec>,
}

impl Default for Suite {
    /// Paper-scale base study across the full preset catalog: every GPU
    /// preset crossed with every CPU preset.
    fn default() -> Self {
        Suite {
            base: Study::default(),
            specs: HardwareSpec::gpu_presets(),
            cpu_specs: HardwareSpec::cpu_presets(),
        }
    }
}

impl Suite {
    /// Reduced-scale suite across the full preset catalog (CI-friendly).
    pub fn smoke() -> Self {
        Suite {
            base: Study::smoke(),
            ..Suite::default()
        }
    }

    /// Reduced-scale suite over an explicit GPU spec list with the
    /// paper-default CPU spec (cheap tests that only exercise the GPU
    /// axis; one cell per GPU spec).
    pub fn smoke_with_specs(specs: Vec<HardwareSpec>) -> Self {
        Suite::smoke_with_matrix(specs, vec![HardwareSpec::epyc_9654()])
    }

    /// Reduced-scale suite over an explicit (GPU × CPU) matrix.
    pub fn smoke_with_matrix(specs: Vec<HardwareSpec>, cpu_specs: Vec<HardwareSpec>) -> Self {
        Suite {
            base: Study::smoke(),
            specs,
            cpu_specs,
        }
    }

    /// The matrix cells in evaluation order: GPU-major, i.e. every CPU
    /// spec for the first GPU spec, then the second GPU spec, ...
    pub fn cells(&self) -> Vec<SpecPair> {
        self.specs
            .iter()
            .flat_map(|gpu| {
                self.cpu_specs.iter().map(move |cpu| SpecPair {
                    gpu: gpu.clone(),
                    cpu: cpu.clone(),
                })
            })
            .collect()
    }
}

/// Everything the suite produces for one (GPU, CPU) matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecOutcome {
    /// The GPU spec this cell ran on (labels the CUDA half).
    pub spec: HardwareSpec,
    /// The CPU spec this cell ran on (labels the OMP half).
    pub cpu_spec: HardwareSpec,
    /// The cell's Table 1 (all models × RQ1/RQ2/RQ3).
    pub table: Table1,
    /// The cell's dataset funnel (labels, pruning, balancing).
    pub funnel: PipelineReport,
    /// Sample ids of the cell's balanced dataset, in dataset order.
    pub dataset_ids: Vec<String>,
    /// Zero-shot per-sample correctness per model (zoo order), aligned
    /// with `dataset_ids`.
    pub zero_shot_correct: Vec<(String, Vec<bool>)>,
}

impl SpecOutcome {
    /// The cell's spec pair (rebuilt from the two stored specs).
    pub fn pair(&self) -> SpecPair {
        SpecPair {
            gpu: self.spec.clone(),
            cpu: self.cpu_spec.clone(),
        }
    }

    /// `"<gpu name> + <cpu name>"`, for report headings (delegates to
    /// [`SpecPair::label`] so the format lives in one place).
    pub fn pair_label(&self) -> String {
        self.pair().label()
    }
}

/// Ground-truth labels for one corpus kernel across its language's
/// hardware axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelLabels {
    /// Corpus program id.
    pub id: String,
    /// Kernel family.
    pub family: String,
    /// The kernel's label under each spec of its language's axis, in
    /// suite axis order (GPU specs for CUDA kernels, CPU specs for OMP).
    pub labels: Vec<Boundedness>,
}

impl KernelLabels {
    /// Does the ground truth differ between any two specs?
    pub fn flips(&self) -> bool {
        self.labels.windows(2).any(|w| w[0] != w[1])
    }
}

/// The flip analysis for one corpus language along its own hardware axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LanguageFlips {
    /// The corpus language this section covers.
    pub language: Language,
    /// The machine class of this language's hardware axis.
    pub axis_class: SpecClass,
    /// Axis spec names, in suite order (index 0 is the reference).
    pub spec_names: Vec<String>,
    /// Per-kernel label vectors, in corpus order, restricted to this
    /// language's kernels.
    pub kernels: Vec<KernelLabels>,
    /// Number of kernels whose label differs between at least two axis
    /// specs.
    pub flipping: usize,
    /// Per axis spec: kernels labeled differently than under the
    /// reference (first) spec. Entry 0 is always zero.
    pub flips_vs_reference: Vec<usize>,
    /// Mean zero-shot accuracy (×100, pooled over all models × cells) on
    /// dataset samples of this language whose kernel flips along the
    /// axis. `None` when no evaluated sample flips.
    pub accuracy_on_flipping: Option<f64>,
    /// Same, on samples whose kernel keeps one label everywhere.
    pub accuracy_on_stable: Option<f64>,
}

/// Which kernels change ground-truth boundedness across the hardware
/// matrix — split by language, since each language sweeps its own axis —
/// and how model accuracy tracks those flips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlipAnalysis {
    /// One section per corpus language: CUDA (across the GPU axis) first,
    /// then OMP (across the CPU axis).
    pub by_language: Vec<LanguageFlips>,
    /// Total flipping kernels across both languages.
    pub flipping: usize,
}

impl FlipAnalysis {
    /// The section for one language, if present.
    pub fn language(&self, language: Language) -> Option<&LanguageFlips> {
        self.by_language.iter().find(|l| l.language == language)
    }

    /// Total corpus kernels covered by the analysis.
    pub fn total_kernels(&self) -> usize {
        self.by_language.iter().map(|l| l.kernels.len()).sum()
    }
}

/// One matrix cell's result: a completed Table-1 evaluation, or a
/// structured failure that leaves the rest of the matrix intact.
#[expect(
    clippy::large_enum_variant,
    reason = "a suite holds at most a few dozen cells, so the size gap \
              between the completed and failed variants costs nothing"
)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The cell ran to completion.
    Completed(SpecOutcome),
    /// The cell could not produce a usable Table 1 — an invalid spec pair,
    /// or every response exhausted its retries. The error explains why;
    /// the rest of the matrix renders around it.
    Failed {
        /// The GPU spec of the failed cell.
        spec: HardwareSpec,
        /// The CPU spec of the failed cell.
        cpu_spec: HardwareSpec,
        /// What went wrong.
        error: PceError,
    },
}

impl CellOutcome {
    /// The completed outcome, if the cell succeeded.
    pub fn completed(&self) -> Option<&SpecOutcome> {
        match self {
            CellOutcome::Completed(out) => Some(out),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// The failure error, if the cell failed.
    pub fn error(&self) -> Option<&PceError> {
        match self {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// The cell's (GPU, CPU) spec pair — available whether or not the
    /// cell completed, so catalogs can cover the whole matrix.
    pub fn specs(&self) -> (&HardwareSpec, &HardwareSpec) {
        match self {
            CellOutcome::Completed(out) => (&out.spec, &out.cpu_spec),
            CellOutcome::Failed { spec, cpu_spec, .. } => (spec, cpu_spec),
        }
    }

    /// `"<gpu name> + <cpu name>"`, matching [`SpecOutcome::pair_label`].
    pub fn pair_label(&self) -> String {
        match self {
            CellOutcome::Completed(out) => out.pair_label(),
            CellOutcome::Failed { spec, cpu_spec, .. } => SpecPair {
                gpu: spec.clone(),
                cpu: cpu_spec.clone(),
            }
            .label(),
        }
    }
}

/// The full suite result: per-cell outcomes plus the flip analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteOutcome {
    /// One outcome per (GPU, CPU) cell, in [`Suite::cells`] order
    /// (GPU-major). Failed cells stay in place so the matrix shape is
    /// preserved.
    pub cells: Vec<CellOutcome>,
    /// The cross-spec, language-split label-flip analysis (over the
    /// completed cells).
    pub flips: FlipAnalysis,
}

impl SuiteOutcome {
    /// The completed cells, in matrix order.
    pub fn completed(&self) -> Vec<&SpecOutcome> {
        self.cells
            .iter()
            .filter_map(CellOutcome::completed)
            .collect()
    }

    /// The failed cells as `(pair label, error)`, in matrix order.
    pub fn failures(&self) -> Vec<(String, &PceError)> {
        self.cells
            .iter()
            .filter_map(|c| c.error().map(|e| (c.pair_label(), e)))
            .collect()
    }

    /// The suite-wide response ledger: every completed cell's Table-1
    /// accounting merged.
    pub fn accounting(&self) -> ResponseAccounting {
        self.completed()
            .iter()
            .fold(ResponseAccounting::new(), |acc, out| {
                acc.merged(&out.table.accounting())
            })
    }
}

/// Run the whole suite against a shared cache bundle: validate the axes,
/// build the hardware-independent half once — the corpus, its
/// tokenization, and the RQ1 bank — then evaluate every (GPU, CPU, model)
/// cell and the flip analysis.
///
/// Fails with [`PceError::Spec`] when an axis is empty, or when corpus
/// generation fails; any *per-cell* problem (a misclassed spec, chaos
/// exhausting every retry) degrades that cell to [`CellOutcome::Failed`]
/// instead. Reusing one bundle across runs also reuses per-(kernel, spec)
/// profiles and analyses; pass a fresh [`SuiteCaches::new`] for a cold
/// run. Warm and cold bundles produce byte-identical outcomes.
pub fn run_suite_cached(suite: &Suite, caches: &SuiteCaches) -> Result<SuiteOutcome, PceError> {
    validate_axes(suite)?;
    let corpus = build_corpus(&suite.base.corpus)?;
    let tokenized = tokenize_corpus(&corpus, &suite.base.pipeline);
    let rq1 = Rq1Bank::build_cached(&suite.base, &caches.llm);
    let cells = run_specs(suite, &corpus, &tokenized, &rq1, caches);
    let flips = analyze_flips(suite, &corpus, &cells);
    Ok(SuiteOutcome { cells, flips })
}

/// The only suite-fatal configuration problem: an empty axis leaves no
/// cells to evaluate at all.
fn validate_axes(suite: &Suite) -> Result<(), PceError> {
    if suite.specs.is_empty() {
        return Err(PceError::spec("suite needs at least one GPU spec"));
    }
    if suite.cpu_specs.is_empty() {
        return Err(PceError::spec("suite needs at least one CPU spec"));
    }
    Ok(())
}

/// Per-cell spec validation: each half of the pair must sit on the right
/// machine-class axis.
fn validate_pair(pair: &SpecPair) -> Result<(), PceError> {
    if pair.gpu.class != SpecClass::Gpu {
        return Err(PceError::spec(format!(
            "'{}' on the GPU axis is a {}",
            pair.gpu.name, pair.gpu.class
        )));
    }
    if pair.cpu.class != SpecClass::Cpu {
        return Err(PceError::spec(format!(
            "'{}' on the CPU axis is a {}",
            pair.cpu.name, pair.cpu.class
        )));
    }
    Ok(())
}

/// Evaluate every matrix cell (parallel) against the shared corpus,
/// tokenization and RQ1 bank, degrading per-cell failures to
/// [`CellOutcome::Failed`].
fn run_specs(
    suite: &Suite,
    corpus: &[Program],
    tokenized: &TokenizedCorpus,
    rq1: &Rq1Bank,
    caches: &SuiteCaches,
) -> Vec<CellOutcome> {
    suite
        .cells()
        .par_iter()
        .map(|pair| {
            if let Err(error) = validate_pair(pair) {
                return CellOutcome::Failed {
                    spec: pair.gpu.clone(),
                    cpu_spec: pair.cpu.clone(),
                    error,
                };
            }
            let study = suite.base.with_specs(pair.clone());
            // Re-profile and relabel the shared corpus under this cell's
            // language-routed spec pair; no per-cell corpus clone or
            // tokenizer retrain, and the cache bundle shares body
            // summaries across the whole matrix. Profiles memoize per
            // (kernel, routed spec), so a GPU row's CUDA half and a CPU
            // column's OMP half are each profiled once across the matrix.
            let (dataset, _split, funnel) =
                run_pipeline_cached(corpus, tokenized, &study.pipeline, &caches.sim);
            let detail = build_table1_from_bank_cached(&study, &dataset.samples, rq1, caches);
            // A cell whose every response exhausted retries has no signal
            // left to tabulate: degrade it instead of reporting a table
            // of all-invalid confusion matrices as if it were data.
            let acc = detail.table.accounting();
            if acc.total() > 0 && acc.valid + acc.retried_valid == 0 {
                return CellOutcome::Failed {
                    spec: pair.gpu.clone(),
                    cpu_spec: pair.cpu.clone(),
                    error: PceError::io(format!(
                        "all {} responses were invalid or refused after retries",
                        acc.total()
                    )),
                };
            }
            CellOutcome::Completed(SpecOutcome {
                spec: pair.gpu.clone(),
                cpu_spec: pair.cpu.clone(),
                dataset_ids: dataset.samples.iter().map(|s| s.id.clone()).collect(),
                zero_shot_correct: detail.zero_shot_correct,
                table: detail.table,
                funnel,
            })
        })
        .collect()
}

/// Cross-spec label comparison plus flip-tracking accuracy, one section
/// per language.
///
/// A kernel's label depends only on its own language's axis spec, so the
/// CUDA section reads one completed cell per GPU row and the OMP section
/// one per CPU column — after asserting the labels really are invariant
/// along the other axis. Failed cells are skipped: an axis spec with no
/// completed cell at all is dropped from its section.
fn analyze_flips(suite: &Suite, corpus: &[Program], cells: &[CellOutcome]) -> FlipAnalysis {
    let n_cpu = suite.cpu_specs.len();
    let cell = |gpu_idx: usize, cpu_idx: usize| cells[gpu_idx * n_cpu + cpu_idx].completed();

    // Labels of one language must not vary along the other language's
    // axis — the routing invariant the whole refactor exists to enforce.
    // Checked across every pair of completed cells that shares a row or
    // column.
    for (i, _) in suite.specs.iter().enumerate() {
        for j in 1..n_cpu {
            let (Some(a), Some(b)) = (cell(i, j), cell(i, 0)) else {
                continue;
            };
            for (k, p) in corpus.iter().enumerate() {
                if p.language == Language::Cuda {
                    assert_eq!(
                        a.funnel.corpus_labels[k], b.funnel.corpus_labels[k],
                        "{}: CUDA label varied along the CPU axis",
                        p.id
                    );
                }
            }
        }
    }
    for j in 0..n_cpu {
        for i in 1..suite.specs.len() {
            let (Some(a), Some(b)) = (cell(i, j), cell(0, j)) else {
                continue;
            };
            for (k, p) in corpus.iter().enumerate() {
                if p.language == Language::Omp {
                    assert_eq!(
                        a.funnel.corpus_labels[k], b.funnel.corpus_labels[k],
                        "{}: OMP label varied along the GPU axis",
                        p.id
                    );
                }
            }
        }
    }

    let language_section = |language: Language| -> LanguageFlips {
        let axis_class = language.spec_class();
        // One completed cell per axis index; axis entries with no
        // completed cell are dropped (their labels are unknowable).
        let (axis_names, label_cells): (Vec<String>, Vec<&SpecOutcome>) = match axis_class {
            SpecClass::Gpu => suite
                .specs
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    (0..n_cpu)
                        .find_map(|j| cell(i, j))
                        .map(|c| (s.name.clone(), c))
                })
                .unzip(),
            SpecClass::Cpu => suite
                .cpu_specs
                .iter()
                .enumerate()
                .filter_map(|(j, s)| {
                    (0..suite.specs.len())
                        .find_map(|i| cell(i, j))
                        .map(|c| (s.name.clone(), c))
                })
                .unzip(),
        };
        let kernels: Vec<KernelLabels> = corpus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.language == language)
            .map(|(i, p)| KernelLabels {
                id: p.id.clone(),
                family: p.family.clone(),
                labels: label_cells
                    .iter()
                    .map(|c| c.funnel.corpus_labels[i])
                    .collect(),
            })
            .collect();
        let flipping = kernels.iter().filter(|k| k.flips()).count();
        let flips_vs_reference = (0..label_cells.len())
            .map(|j| {
                kernels
                    .iter()
                    .filter(|k| k.labels[j] != k.labels[0])
                    .count()
            })
            .collect();

        // Pool zero-shot correctness over every (model, cell, sample) of
        // this language, split by whether the sample's kernel flips
        // anywhere along its axis.
        let language_of: BTreeMap<&str, Language> =
            corpus.iter().map(|p| (p.id.as_str(), p.language)).collect();
        let flippy: BTreeSet<&str> = kernels
            .iter()
            .filter(|k| k.flips())
            .map(|k| k.id.as_str())
            .collect();
        let (mut flip_hits, mut flip_n, mut stable_hits, mut stable_n) = (0u64, 0u64, 0u64, 0u64);
        for c in cells.iter().filter_map(CellOutcome::completed) {
            for (_, correct) in &c.zero_shot_correct {
                for (id, &ok) in c.dataset_ids.iter().zip(correct) {
                    if language_of.get(id.as_str()) != Some(&language) {
                        continue;
                    }
                    if flippy.contains(id.as_str()) {
                        flip_n += 1;
                        flip_hits += ok as u64;
                    } else {
                        stable_n += 1;
                        stable_hits += ok as u64;
                    }
                }
            }
        }
        let pct = |hits: u64, n: u64| (n > 0).then(|| 100.0 * hits as f64 / n as f64);
        LanguageFlips {
            language,
            axis_class,
            spec_names: axis_names,
            kernels,
            flipping,
            flips_vs_reference,
            accuracy_on_flipping: pct(flip_hits, flip_n),
            accuracy_on_stable: pct(stable_hits, stable_n),
        }
    };

    let by_language = vec![
        language_section(Language::Cuda),
        language_section(Language::Omp),
    ];
    let flipping = by_language.iter().map(|l| l.flipping).sum();
    FlipAnalysis {
        by_language,
        flipping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shrink(suite: &mut Suite) {
        // The structure, not the scale, is under test.
        suite.base.corpus.cuda_programs = 90;
        suite.base.corpus.omp_programs = 72;
        suite.base.rq1_rooflines = 16;
        suite.base.pipeline.per_combo_cap = 10;
    }

    fn tiny_suite() -> Suite {
        let mut suite =
            Suite::smoke_with_specs(vec![HardwareSpec::rtx_3080(), HardwareSpec::mi250x()]);
        shrink(&mut suite);
        suite
    }

    /// The suite on a cold cache bundle.
    fn run_cold(suite: &Suite) -> Result<SuiteOutcome, PceError> {
        run_suite_cached(suite, &SuiteCaches::new())
    }

    fn tiny_matrix_suite() -> Suite {
        let mut suite = Suite::smoke_with_matrix(
            vec![HardwareSpec::rtx_3080(), HardwareSpec::mi250x()],
            vec![HardwareSpec::epyc_9654(), HardwareSpec::grace()],
        );
        shrink(&mut suite);
        suite
    }

    #[test]
    fn suite_produces_one_outcome_per_cell_in_gpu_major_order() {
        let suite = tiny_matrix_suite();
        let outcome = run_cold(&suite).unwrap();
        assert_eq!(outcome.completed().len(), 4);
        assert!(outcome.failures().is_empty());
        let cells = suite.cells();
        for (pair, out) in cells.iter().zip(outcome.completed()) {
            assert_eq!(out.spec.name, pair.gpu.name);
            assert_eq!(out.cpu_spec.name, pair.cpu.name);
            assert_eq!(out.table.rows.len(), 9);
            assert!(out.table.total_cost > 0.0);
            assert_eq!(out.dataset_ids.len(), out.funnel.final_size);
            assert_eq!(
                out.pair_label(),
                format!("{} + {}", pair.gpu.name, pair.cpu.name)
            );
        }
        // Flip sections: CUDA over the GPU axis, OMP over the CPU axis.
        let cuda = outcome.flips.language(Language::Cuda).unwrap();
        assert_eq!(cuda.axis_class, SpecClass::Gpu);
        assert_eq!(cuda.spec_names.len(), 2);
        assert_eq!(cuda.flips_vs_reference[0], 0);
        let omp = outcome.flips.language(Language::Omp).unwrap();
        assert_eq!(omp.axis_class, SpecClass::Cpu);
        assert_eq!(omp.spec_names.len(), 2);
        assert_eq!(omp.flips_vs_reference[0], 0);
        assert_eq!(
            outcome.flips.total_kernels(),
            suite.base.corpus.cuda_programs + suite.base.corpus.omp_programs
        );
    }

    #[test]
    fn consumer_vs_hpc_silicon_flips_dp_kernels() {
        // The 3080's 1/64-rate DP pipes put its DP ridge at ~0.6 flop/B;
        // the MI250X's full-rate DP over 3.2 TB/s sits at ~14.6. Any
        // DP-heavy CUDA kernel in between must flip.
        let outcome = run_cold(&tiny_suite()).unwrap();
        let cuda = outcome.flips.language(Language::Cuda).unwrap();
        assert!(
            cuda.flipping > 0,
            "no CUDA kernel flipped between RTX 3080 and MI250X"
        );
        assert!(cuda.flipping < cuda.kernels.len(), "every kernel flipped");
        // One CPU spec on the axis: OMP labels cannot flip here.
        let omp = outcome.flips.language(Language::Omp).unwrap();
        assert_eq!(omp.flipping, 0);
        assert!(omp.accuracy_on_flipping.is_none());
    }

    #[test]
    fn cpu_axis_flips_omp_kernels() {
        // EPYC 9654 (SP ridge 16.0) vs Xeon 8480+ (23.3): OMP kernels
        // between the two ridges flip; CUDA labels must not move at all.
        // (Grace at 13.1 is closer to the EPYC and brackets almost no
        // kernel in this corpus, so the EPYC/Xeon pair is the one that
        // reliably exercises CPU-axis flips.)
        let mut suite = Suite::smoke_with_matrix(
            vec![HardwareSpec::rtx_3080()],
            vec![HardwareSpec::epyc_9654(), HardwareSpec::xeon_8480p()],
        );
        shrink(&mut suite);
        let outcome = run_cold(&suite).unwrap();
        let omp = outcome.flips.language(Language::Omp).unwrap();
        assert!(
            omp.flipping > 0,
            "no OMP kernel flipped between EPYC 9654 and Xeon 8480+"
        );
        assert!(omp.flipping < omp.kernels.len());
        let flipper = omp.kernels.iter().find(|k| k.flips()).unwrap();
        assert!(flipper.labels.contains(&Boundedness::Compute));
        assert!(flipper.labels.contains(&Boundedness::Bandwidth));
        let cuda = outcome.flips.language(Language::Cuda).unwrap();
        assert_eq!(cuda.flipping, 0, "single GPU spec cannot flip CUDA");
    }

    #[test]
    fn flip_analysis_counts_are_consistent() {
        let outcome = run_cold(&tiny_matrix_suite()).unwrap();
        let mut total = 0;
        for section in &outcome.flips.by_language {
            let recount = section.kernels.iter().filter(|k| k.flips()).count();
            assert_eq!(section.flipping, recount, "{}", section.language);
            total += recount;
            for k in &section.kernels {
                assert_eq!(k.labels.len(), section.spec_names.len());
            }
            for acc in [section.accuracy_on_flipping, section.accuracy_on_stable]
                .into_iter()
                .flatten()
            {
                assert!((0.0..=100.0).contains(&acc), "{acc}");
            }
        }
        assert_eq!(outcome.flips.flipping, total);
    }

    #[test]
    fn warm_and_cold_bundles_produce_identical_outcomes() {
        let suite = tiny_suite();
        let cold = run_cold(&suite).unwrap();
        let caches = SuiteCaches::new();
        let warm_first = run_suite_cached(&suite, &caches).unwrap();
        let warm_second = run_suite_cached(&suite, &caches).unwrap();
        assert_eq!(cold, warm_first, "cold vs first cached run");
        assert_eq!(cold, warm_second, "cold vs fully-warm rerun");
        // The rerun must have been served from the profile memo and the
        // analysis cache, not recomputed.
        let report = caches.report();
        assert!(report.profile.hits > 0, "{report:?}");
        assert!(report.analysis.hits > 0, "{report:?}");
        assert!(report.summary.hits > 0, "{report:?}");
    }

    #[test]
    fn default_suite_spans_the_full_catalog() {
        let suite = Suite::default();
        assert!(suite.specs.len() >= 6, "suite must span ≥ 6 GPU presets");
        assert!(
            suite.cpu_specs.len() >= 3,
            "suite must span ≥ 3 CPU presets"
        );
        assert_eq!(Suite::smoke().specs.len(), suite.specs.len());
        assert_eq!(Suite::smoke().cpu_specs.len(), suite.cpu_specs.len());
        assert_eq!(
            suite.cells().len(),
            suite.specs.len() * suite.cpu_specs.len()
        );
        assert!(suite.cells().iter().all(|pair| validate_pair(pair).is_ok()));
    }

    #[test]
    fn misclassed_pairs_are_rejected_by_axis() {
        let cpu_on_gpu_axis = SpecPair {
            gpu: HardwareSpec::epyc_9654(),
            cpu: HardwareSpec::epyc_9654(),
        };
        let err = validate_pair(&cpu_on_gpu_axis).unwrap_err();
        assert!(err.to_string().contains("on the GPU axis"), "{err}");
        let gpu_on_cpu_axis = SpecPair {
            gpu: HardwareSpec::rtx_3080(),
            cpu: HardwareSpec::rtx_4090(),
        };
        let err = validate_pair(&gpu_on_cpu_axis).unwrap_err();
        assert!(err.to_string().contains("on the CPU axis"), "{err}");
    }

    #[test]
    fn misclassed_cells_degrade_instead_of_poisoning_the_matrix() {
        // A GPU spec in the CPU slot: every cell of that column fails
        // with a Spec error, the valid column still completes, and the
        // flip analysis drops the dead axis entry.
        let mut suite = tiny_suite();
        suite.cpu_specs = vec![HardwareSpec::epyc_9654(), HardwareSpec::rtx_3080()];
        let outcome = run_cold(&suite).unwrap();
        assert_eq!(outcome.cells.len(), 4);
        assert_eq!(outcome.completed().len(), 2);
        let failures = outcome.failures();
        assert_eq!(failures.len(), 2);
        for (label, error) in &failures {
            assert!(label.contains("+ NVIDIA GeForce RTX 3080"), "{label}");
            assert_eq!(error.kind(), "spec");
            assert!(error.to_string().contains("on the CPU axis"), "{error}");
        }
        // The OMP section keeps only the axis entry with completed cells.
        let omp = outcome.flips.language(Language::Omp).unwrap();
        assert_eq!(omp.spec_names.len(), 1);
        let cuda = outcome.flips.language(Language::Cuda).unwrap();
        assert_eq!(cuda.spec_names.len(), 2);
    }

    #[test]
    fn chaos_suite_completes_every_cell_with_a_balanced_ledger() {
        let mut suite = tiny_suite();
        suite.base.chaos = Some(crate::study::ChaosConfig::uniform(42, 0.1));
        let outcome = run_cold(&suite).unwrap();
        // A 10% fault rate recovers through retries; no cell dies.
        assert_eq!(outcome.completed().len(), outcome.cells.len());
        let acc = outcome.accounting();
        assert!(acc.injected > 0, "chaos must actually inject");
        assert!(acc.retried_valid > 0, "retries must actually recover");
        assert!(acc.balanced(), "{acc:?}");
        for s in outcome.completed() {
            assert!(s.table.accounting().balanced());
        }
        // The same seed reproduces the ledger exactly.
        let again = run_cold(&suite).unwrap();
        assert_eq!(outcome, again);
    }

    #[test]
    fn empty_axes_are_suite_fatal() {
        let mut suite = tiny_suite();
        suite.cpu_specs.clear();
        let err = run_cold(&suite).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid spec: suite needs at least one CPU spec"
        );
        suite.specs.clear();
        let err = run_cold(&suite).unwrap_err();
        assert!(err.to_string().contains("at least one GPU spec"));
    }
}
