//! The end-to-end dataset pipeline.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::BTreeMap;

use pce_fault::PceError;
use pce_gpu_sim::SimCaches;
use pce_kernels::{Language, Program};
use pce_memo::{DedupStats, Fnv};
use pce_roofline::{Boundedness, OpCounts, SpecPair};
use pce_tokenizer::{token_quartiles, BpeTrainer, TokenStats, Tokenizer};

use crate::sample::Sample;
use crate::stream::{run_sharded, Input};

/// Pipeline configuration (§2.1–2.2 defaults).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Profiling hardware, one spec per machine class: CUDA programs are
    /// profiled and labeled against `specs.gpu` (the paper's RTX 3080),
    /// OMP programs against `specs.cpu`.
    pub specs: SpecPair,
    /// Token-count cutoff (the paper's 8e3).
    pub max_tokens: usize,
    /// Per-(language × class) cap after balancing (the paper's 85).
    pub per_combo_cap: usize,
    /// BPE vocabulary size for token counting.
    pub tokenizer_vocab: usize,
    /// Train the tokenizer on every k-th corpus source.
    pub tokenizer_stride: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            specs: SpecPair::paper_default(),
            max_tokens: 8_000,
            per_combo_cap: 85,
            tokenizer_vocab: 1_200,
            tokenizer_stride: 7,
        }
    }
}

/// A labeled dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialize to pretty JSON.
    ///
    /// Fails with [`PceError::Io`] if the serializer reports an error —
    /// in practice only under resource exhaustion, but the signature is
    /// honest about it rather than panicking inside a library crate.
    pub fn to_json(&self) -> Result<String, PceError> {
        serde_json::to_string_pretty(self).map_err(|e| PceError::io(e.to_string()))
    }
}

/// The 80/20 fine-tuning split.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Split {
    /// Training set (~272 samples at paper scale).
    pub train: Dataset,
    /// Validation set (~68 samples).
    pub validation: Dataset,
}

/// The hardware-independent half of the pipeline: a trained tokenizer and
/// per-program token counts for one corpus.
///
/// Build it once with [`tokenize_corpus`] and feed it to
/// [`run_pipeline_cached`] for every hardware spec — only profiling and
/// labeling depend on the hardware, so a cross-hardware sweep never
/// retrains the tokenizer or recounts tokens.
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    /// The trained tokenizer (for downstream consumers such as prompts).
    pub tokenizer: Tokenizer,
    /// BPE token count per corpus program, in corpus order.
    pub token_counts: Vec<usize>,
    /// Token-count distribution over the raw corpus (`None` only for an
    /// empty corpus).
    pub raw_token_stats: Option<TokenStats>,
}

/// Train the tokenizer on the configured corpus subsample and token-count
/// every source. Depends only on `cfg.tokenizer_vocab` and
/// `cfg.tokenizer_stride`, never on the hardware.
pub fn tokenize_corpus(corpus: &[Program], cfg: &PipelineConfig) -> TokenizedCorpus {
    let training_docs: Vec<&str> = corpus
        .iter()
        .step_by(cfg.tokenizer_stride.max(1))
        .map(|p| p.source.as_str())
        .collect();
    let vocab = BpeTrainer::new(cfg.tokenizer_vocab).train(training_docs);
    let tokenizer = Tokenizer::new(vocab);

    let sources: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
    let token_counts = tokenizer.count_batch(&sources);
    let raw_token_stats = (!token_counts.is_empty()).then(|| token_quartiles(&token_counts));
    TokenizedCorpus {
        tokenizer,
        token_counts,
        raw_token_stats,
    }
}

/// Stage-by-stage counts, mirroring the paper's §2.2 funnel numbers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineReport {
    /// Programs profiled, per language.
    pub built: BTreeMap<String, usize>,
    /// Token-count distribution over the *raw* corpus, before the cutoff
    /// prune (`None` only for an empty corpus). Reuses the pipeline's own
    /// batch token counts, so consumers (e.g. the `dataset_stats` bin)
    /// don't retrain a tokenizer to see the pre-funnel view.
    pub raw_token_stats: Option<TokenStats>,
    /// Programs surviving the token cutoff, per language.
    pub after_prune: BTreeMap<String, usize>,
    /// Ground-truth label per input corpus program (corpus order), taken
    /// *before* pruning and balancing — the cross-hardware suite's
    /// label-flip analysis compares these vectors across specs.
    pub corpus_labels: Vec<Boundedness>,
    /// Counts per (language, class) cell before balancing.
    pub combo_before_balance: BTreeMap<String, usize>,
    /// The balanced per-cell size.
    pub per_combo: usize,
    /// Final dataset size (paper: 340).
    pub final_size: usize,
    /// Train size (paper: 272).
    pub train_size: usize,
    /// Validation size (paper: 68).
    pub validation_size: usize,
    /// Profile-level dedup over the input corpus: how many programs map
    /// to an (IR, launch, routed-hardware) tuple already seen earlier in
    /// corpus order. Variant-expanded corpora dedup heavily here — a
    /// duplicate's profile is a memo hit, not a recompute. `hit_rate()`
    /// is the headline number.
    pub dedup: DedupStats,
    /// Per-rule hazard diagnostic counts over the corpus's *distinct*
    /// sources (lint rule id → firings), from the
    /// `pce_static_analysis::diagnostics` audit of every generated
    /// variant. Only rules that fired appear, so a hazard-clean corpus
    /// reports an empty map. Deduped by source text, so
    /// variant expansion cannot inflate the counts.
    pub hazards: BTreeMap<String, u64>,
}

/// Run the full pipeline over a materialized corpus — profile, label,
/// prune, balance, split — against a shared profiler cache bundle.
///
/// `tokenized` is the corpus's [`tokenize_corpus`] output, built once and
/// reused for every hardware spec. Body summaries are hardware-independent,
/// so a cross-hardware suite that runs this once per spec pair folds each
/// kernel exactly once; profiles themselves are memoized per (kernel,
/// launch, hardware) — the hardware key is the *routed* spec, so a CUDA
/// profile taken on the GPU spec can never be served to an OMP lookup or
/// vice versa. Pass a fresh [`SimCaches::new`] for a cold run; warm and
/// cold bundles produce byte-identical output.
///
/// Runs the sharded core of
/// [`run_pipeline_streamed`](crate::run_pipeline_streamed) with one shard
/// per rayon thread, borrowing the programs and their token counts.
///
/// # Panics
/// Panics when `tokenized` was built from a different corpus (length
/// mismatch), when `cfg.specs` holds a spec in the wrong class slot, or
/// when two programs share an id (the selection stage's uniqueness check).
pub fn run_pipeline_cached(
    corpus: &[Program],
    tokenized: &TokenizedCorpus,
    cfg: &PipelineConfig,
    caches: &SimCaches,
) -> (Dataset, Split, PipelineReport) {
    assert_eq!(
        tokenized.token_counts.len(),
        corpus.len(),
        "tokenized corpus does not match the program corpus"
    );
    let shard_size = corpus.len().div_ceil(rayon::current_num_threads());
    let input = Input::Corpus {
        programs: corpus,
        tokenized,
    };
    let (dataset, split, report, _) = run_sharded(input, cfg, caches, shard_size)
        .expect("an in-memory corpus fails only on an invalid spec pair");
    (dataset, split, report)
}

/// The lightweight per-program record the selection stages operate on.
///
/// Pruning, balancing, and splitting only need these fields — never the
/// source text — which is what lets the sharded core (`crate::stream`)
/// run selection over the whole corpus while holding full programs for at
/// most one shard at a time. The profile results ride along so
/// materializing a selected sample never profiles it again.
#[derive(Debug, Clone)]
pub(crate) struct SampleMeta {
    /// Position in the input corpus (stream index).
    pub(crate) index: usize,
    /// Program id (the balance/split sort key).
    pub(crate) id: String,
    /// Source language.
    pub(crate) language: Language,
    /// Ground-truth label against the routed spec.
    pub(crate) label: Boundedness,
    /// BPE token count of the source.
    pub(crate) token_count: usize,
    /// Profiled counters against the routed spec.
    pub(crate) counts: OpCounts,
    /// Profiled runtime in seconds.
    pub(crate) runtime_s: f64,
}

/// Outcome of the prune → balance → split selection, as metadata: which
/// corpus indices land in each split, in final (id-sorted) order, plus
/// the funnel counts the report needs.
pub(crate) struct Selection {
    pub(crate) built: BTreeMap<String, usize>,
    pub(crate) after_prune: BTreeMap<String, usize>,
    pub(crate) combo_before_balance: BTreeMap<String, usize>,
    pub(crate) per_combo: usize,
    pub(crate) train: Vec<SampleMeta>,
    pub(crate) validation: Vec<SampleMeta>,
}

/// Training fraction of each balanced cell (the paper's 80/20 split).
const TRAIN_FRACTION: f64 = 0.8;

/// Shuffle seed for balancing and splitting.
const SHUFFLE_SEED: u64 = 0x0da7a5e7;

/// Prune by token count, balance (language × class) cells, and split —
/// entirely on metadata, in corpus order.
///
/// The seeded shuffle permutation depends only on each cell's length and
/// the RNG stream, so shuffling metadata reproduces precisely the
/// permutation the historical code applied to full samples.
///
/// # Panics
/// Panics when two programs share an id — that means corpus generation
/// broke its uniqueness invariant upstream.
pub(crate) fn select_and_balance(mut metas: Vec<SampleMeta>, cfg: &PipelineConfig) -> Selection {
    let count_lang = |metas: &[SampleMeta]| {
        let mut m = BTreeMap::new();
        for s in metas {
            *m.entry(s.language.label().to_string()).or_insert(0) += 1;
        }
        m
    };
    let built = count_lang(&metas);

    // --- Token-count pruning --------------------------------------------
    metas.retain(|m| m.token_count <= cfg.max_tokens);
    let after_prune = count_lang(&metas);

    // --- First kernel per program ----------------------------------------
    // Corpus programs carry exactly one profiled kernel (the first in the
    // object dump); a duplicate id would mean the invariant broke upstream.
    {
        let mut ids: Vec<&str> = metas.iter().map(|m| m.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate program ids in corpus");
    }

    // --- Balance (language × class) --------------------------------------
    let mut by_combo: BTreeMap<(Language, Boundedness), Vec<SampleMeta>> = BTreeMap::new();
    for m in metas {
        by_combo.entry((m.language, m.label)).or_default().push(m);
    }
    let combo_before_balance = by_combo
        .iter()
        .map(|((lang, label), v)| (format!("{}/{}", lang.label(), label.short()), v.len()))
        .collect();
    let min_cell = by_combo.values().map(|v| v.len()).min().unwrap_or(0);
    let per_combo = min_cell.min(cfg.per_combo_cap);

    let mut rng = ChaCha8Rng::seed_from_u64(SHUFFLE_SEED);
    let mut train = Vec::with_capacity(per_combo * 4);
    let mut validation = Vec::with_capacity(per_combo * 4);
    for (_, mut cell) in by_combo {
        cell.shuffle(&mut rng);
        cell.truncate(per_combo);
        // Split inside each cell so both splits stay balanced (§2.2: 68
        // train + 17 validation per cell).
        let train_n = (per_combo as f64 * TRAIN_FRACTION).round() as usize;
        for (i, m) in cell.into_iter().enumerate() {
            if i < train_n {
                train.push(m);
            } else {
                validation.push(m);
            }
        }
    }
    // Deterministic final ordering.
    train.sort_by(|a, b| a.id.cmp(&b.id));
    validation.sort_by(|a, b| a.id.cmp(&b.id));
    Selection {
        built,
        after_prune,
        combo_before_balance,
        per_combo,
        train,
        validation,
    }
}

/// Merge two id-sorted sample slices into the balanced union: one bulk
/// clone pass, no re-sort.
pub(crate) fn merge_sorted(train: &[Sample], validation: &[Sample]) -> Vec<Sample> {
    let mut balanced = Vec::with_capacity(train.len() + validation.len());
    let (mut t, mut v) = (train.iter().peekable(), validation.iter().peekable());
    loop {
        let take_train = match (t.peek(), v.peek()) {
            (Some(a), Some(b)) => a.id <= b.id,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let next = if take_train { t.next() } else { v.next() };
        if let Some(s) = next {
            balanced.push(s.clone());
        }
    }
    balanced
}

/// Hazard counts of one source, aligned with
/// [`pce_static_analysis::RuleId::all`] order. A pure function of the
/// source text, so shards can compute it in parallel and the sequential
/// merge stays independent of sharding.
pub(crate) fn hazard_counts(source: &str) -> Vec<u64> {
    let diags = pce_static_analysis::diagnose(source);
    pce_static_analysis::RuleId::all()
        .iter()
        .map(|r| diags.iter().filter(|d| d.rule == *r).count() as u64)
        .collect()
}

/// Corpus-order hazard audit, deduped by source text: each *distinct*
/// source contributes its per-rule diagnostic counts exactly once, so a
/// variant-expanded corpus (many ids, few distinct sources) reports the
/// hazards of its kernels, not of its multiplicity.
pub(crate) struct HazardAudit {
    seen: std::collections::HashSet<u64>,
    counts: BTreeMap<String, u64>,
}

impl HazardAudit {
    pub(crate) fn new() -> HazardAudit {
        HazardAudit {
            seen: std::collections::HashSet::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The dedup key of one source text.
    pub(crate) fn source_fp(source: &str) -> u64 {
        let mut h = Fnv::new();
        h.str(source);
        h.finish()
    }

    /// Fold one program's precomputed [`hazard_counts`] under its source
    /// fingerprint; repeat sources are no-ops.
    pub(crate) fn observe_counts(&mut self, src_fp: u64, counts: &[u64]) {
        if !self.seen.insert(src_fp) {
            return;
        }
        for (rule, n) in pce_static_analysis::RuleId::all().iter().zip(counts) {
            if *n > 0 {
                *self.counts.entry(rule.id().to_string()).or_insert(0) += n;
            }
        }
    }

    /// The per-rule totals (only rules that fired).
    pub(crate) fn into_counts(self) -> BTreeMap<String, u64> {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_gpu_sim::Profiler;
    use pce_kernels::{build_corpus, CorpusConfig};
    use pce_roofline::classify_joint;

    fn small_corpus() -> Vec<Program> {
        build_corpus(&CorpusConfig {
            seed: 3,
            cuda_programs: 90,
            omp_programs: 72,
        })
        .expect("corpus builds")
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            per_combo_cap: 10,
            tokenizer_vocab: 500,
            tokenizer_stride: 11,
            ..Default::default()
        }
    }

    /// The pipeline on a cold cache bundle.
    fn run(corpus: &[Program], cfg: &PipelineConfig) -> (Dataset, Split, PipelineReport) {
        run_pipeline_cached(
            corpus,
            &tokenize_corpus(corpus, cfg),
            cfg,
            &SimCaches::new(),
        )
    }

    #[test]
    fn pipeline_produces_balanced_cells() {
        let (dataset, _, report) = run(&small_corpus(), &cfg());
        let mut cells: BTreeMap<(Language, Boundedness), usize> = BTreeMap::new();
        for s in &dataset.samples {
            *cells.entry(s.combo()).or_insert(0) += 1;
        }
        assert_eq!(cells.len(), 4, "all four cells populated: {cells:?}");
        let sizes: Vec<_> = cells.values().copied().collect();
        assert!(
            sizes.iter().all(|&n| n == sizes[0]),
            "unbalanced: {cells:?}"
        );
        assert_eq!(report.final_size, sizes[0] * 4);
    }

    #[test]
    fn split_sizes_follow_the_train_fraction() {
        let (dataset, split, report) = run(&small_corpus(), &cfg());
        assert_eq!(split.train.len() + split.validation.len(), dataset.len());
        assert_eq!(report.train_size, split.train.len());
        // 80% of each cell, rounded.
        let expected_train = (report.per_combo as f64 * 0.8).round() as usize * 4;
        assert_eq!(split.train.len(), expected_train);
    }

    #[test]
    fn split_cells_stay_balanced() {
        let (_, split, _) = run(&small_corpus(), &cfg());
        for ds in [&split.train, &split.validation] {
            let mut cells: BTreeMap<(Language, Boundedness), usize> = BTreeMap::new();
            for s in &ds.samples {
                *cells.entry(s.combo()).or_insert(0) += 1;
            }
            let sizes: Vec<_> = cells.values().copied().collect();
            assert!(sizes.iter().all(|&n| n == sizes[0]), "{cells:?}");
        }
    }

    #[test]
    fn pruning_respects_the_token_cutoff() {
        let mut c = cfg();
        c.max_tokens = 2_000;
        let (dataset, _, report) = run(&small_corpus(), &c);
        assert!(dataset.samples.iter().all(|s| s.token_count <= 2_000));
        let built: usize = report.built.values().sum();
        let kept: usize = report.after_prune.values().sum();
        assert!(kept < built, "a 2k cutoff must drop some programs");
    }

    #[test]
    fn cached_pipeline_is_bit_identical_and_shares_summaries_across_specs() {
        let corpus = small_corpus();
        let c = cfg();
        let tokenized = tokenize_corpus(&corpus, &c);
        let caches = SimCaches::new();
        let mut other = c.clone();
        other.specs.gpu = pce_roofline::HardwareSpec::a100();
        for cfg in [&c, &other] {
            let cold = run_pipeline_cached(&corpus, &tokenized, cfg, &SimCaches::new());
            let warm = run_pipeline_cached(&corpus, &tokenized, cfg, &caches);
            assert_eq!(cold, warm, "{}", cfg.specs.label());
        }
        // The corpus was summarized exactly once per kernel. The second
        // config only moves the GPU spec, so its CUDA half re-resolves
        // via the summary cache while the OMP half (same CPU spec) is
        // served straight from the whole-profile memo — summaries are
        // never re-consulted for it.
        let cuda_count = corpus
            .iter()
            .filter(|p| p.language == Language::Cuda)
            .count();
        let sc = caches.summaries().counters();
        assert_eq!(sc.misses as usize, corpus.len());
        assert_eq!(sc.hits as usize, cuda_count);
        let pc = caches.profiles().counters();
        assert_eq!(pc.hits as usize, corpus.len() - cuda_count);
        // Re-running a spec hits the whole-profile memo.
        let before = caches.profiles().counters().hits;
        let _ = run_pipeline_cached(&corpus, &tokenized, &c, &caches);
        assert_eq!(
            caches.profiles().counters().hits - before,
            corpus.len() as u64
        );
    }

    #[test]
    fn report_labels_cover_the_whole_corpus_in_order() {
        let corpus = small_corpus();
        let c = cfg();
        let (_, _, report) = run(&corpus, &c);
        assert_eq!(report.corpus_labels.len(), corpus.len());
        // Spot-check alignment: relabeling program i (against its
        // language-routed spec) reproduces entry i.
        for (i, p) in corpus.iter().enumerate().step_by(17) {
            let hw = c.specs.for_class(p.language.spec_class());
            let profile = Profiler::new(hw.clone()).profile(&p.ir, &p.launch);
            assert_eq!(
                classify_joint(hw, &profile.counts).label,
                report.corpus_labels[i],
                "{}",
                p.id
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_tokenized_corpus_is_rejected() {
        let corpus = small_corpus();
        let c = cfg();
        let mut tokenized = tokenize_corpus(&corpus, &c);
        tokenized.token_counts.pop();
        run_pipeline_cached(&corpus, &tokenized, &c, &SimCaches::new());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let corpus = small_corpus();
        let (a, sa, _) = run(&corpus, &cfg());
        let (b, sb, _) = run(&corpus, &cfg());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn labels_match_reprofiling() {
        let c = cfg();
        let (dataset, _, _) = run(&small_corpus(), &c);
        for s in dataset.samples.iter().take(10) {
            let hw = c.specs.for_class(s.language.spec_class());
            assert_eq!(classify_joint(hw, &s.counts).label, s.label, "{}", s.id);
            assert_eq!(s.spec_name, hw.name, "{}", s.id);
            assert_eq!(s.spec_class, hw.class, "{}", s.id);
        }
    }

    #[test]
    fn json_round_trip() {
        let (dataset, _, _) = run(&small_corpus(), &cfg());
        let json = dataset.to_json().expect("dataset serializes");
        let back = serde_json::from_str(&json).expect("to_json output parses");
        fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
            v.as_object().and_then(|m| m.get(key)).expect(key)
        }
        let samples = field(&back, "samples").as_array().expect("samples array");
        // Float fields may round-trip within 1 ULP (the JSON parser is not
        // shortest-repr exact); everything else must be identical.
        assert_eq!(dataset.len(), samples.len());
        for (a, b) in dataset.samples.iter().zip(samples) {
            assert_eq!(field(b, "id").as_str(), Some(a.id.as_str()));
            assert_eq!(field(b, "label").as_str(), Some(a.label.answer_token()));
            assert_eq!(field(b, "token_count").as_u64(), Some(a.token_count as u64));
            let runtime_s = field(b, "runtime_s").as_f64().expect("runtime_s");
            let rel = (a.runtime_s - runtime_s).abs() / a.runtime_s;
            assert!(
                rel < 1e-12,
                "runtime drifted: {} vs {runtime_s}",
                a.runtime_s
            );
        }
        assert!(serde_json::from_str("not json").is_err());
    }

    #[test]
    fn train_and_validation_are_disjoint() {
        let (_, split, _) = run(&small_corpus(), &cfg());
        let train_ids: std::collections::BTreeSet<_> =
            split.train.samples.iter().map(|s| &s.id).collect();
        for s in &split.validation.samples {
            assert!(
                !train_ids.contains(&s.id),
                "{} leaked into both splits",
                s.id
            );
        }
    }
}
