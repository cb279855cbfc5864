//! The sharded pipeline core, and its streamed entry points.
//!
//! Every pipeline run goes through one core, whether its input is a
//! materialized corpus ([`run_pipeline_cached`](crate::run_pipeline_cached))
//! or a [`CorpusSpec`] that is never materialized
//! ([`run_pipeline_streamed`]). The spec form regenerates programs per
//! shard (generation is random-access — any index rebuilds from the seed
//! alone), consumes them, and drops them, so peak memory is
//! `O(shard_size × rayon threads)` programs plus per-program metadata and
//! the final dataset, instead of `O(corpus)` samples.
//!
//! Stages:
//!
//! 1. **tokenize-train** — spec input only: stream every
//!    `tokenizer_stride`-th source and train the BPE tokenizer. A
//!    materialized corpus arrives with its [`TokenizedCorpus`].
//! 2. **shard-profile** — rayon over shards: take the shard's programs
//!    (borrowed, or regenerated) and token counts (precomputed, or
//!    batch-counted), profile + label each against the language-routed
//!    spec through the shared [`SimCaches`] memos, and keep only a
//!    lightweight [`SampleMeta`] plus the dedup and hazard-audit inputs.
//!    Variant expansion makes many programs map to an identical
//!    (IR, launch, hardware) tuple — those profile as memo hits, and the
//!    fingerprints are folded (sequentially, in corpus order, so the
//!    numbers are independent of sharding and thread count) into the
//!    report's dedup statistics.
//! 3. **select-balance** — `select_and_balance`, on metadata only.
//! 4. **materialize** — build full [`Sample`]s for just the selected
//!    programs, reusing the profile results the shard stage kept.
//!
//! Output is byte-identical for both input forms, every shard size, and
//! every `RAYON_NUM_THREADS` — pinned by the root `pipeline_stream` test.

use std::borrow::Cow;
use std::collections::HashSet;
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pce_fault::PceError;
use pce_gpu_sim::{Profiler, SimCaches};
use pce_kernels::{CorpusSpec, Program};
use pce_memo::StreamDedup;
use pce_roofline::{classify_joint, SpecClass};
use pce_tokenizer::{token_quartiles, BpeTrainer, Tokenizer};

use crate::pipeline::{
    hazard_counts, merge_sorted, profile_fingerprint, select_and_balance, Dataset, HazardAudit,
    PipelineConfig, PipelineReport, SampleMeta, Split, TokenizedCorpus,
};
use crate::sample::Sample;

/// Wall-clock of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (`tokenize-train`, `shard-profile`, `select-balance`,
    /// `materialize`).
    pub stage: String,
    /// Elapsed seconds.
    pub seconds: f64,
}

impl StageTiming {
    fn new(stage: &str, elapsed: std::time::Duration) -> StageTiming {
        StageTiming {
            stage: stage.to_string(),
            seconds: elapsed.as_secs_f64(),
        }
    }
}

/// Run the full pipeline over a (possibly variant-expanded) corpus spec
/// as a sharded stream with bounded memory.
///
/// Byte-identical to materializing `spec.stream()` and running
/// [`run_pipeline_cached`](crate::run_pipeline_cached), for any
/// `shard_size ≥ 1` and any rayon thread count. The shared `caches` carry
/// profile memos across shards (and across calls — re-streaming the same
/// spec profiles zero new kernels).
pub fn run_pipeline_streamed(
    spec: &CorpusSpec,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
) -> Result<(Dataset, Split, PipelineReport), PceError> {
    let (dataset, split, report, _) = run_pipeline_streamed_timed(spec, cfg, caches, shard_size)?;
    Ok((dataset, split, report))
}

/// [`run_pipeline_streamed`], additionally reporting the wall-clock of
/// each of the four stages.
pub fn run_pipeline_streamed_timed(
    spec: &CorpusSpec,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
) -> Result<(Dataset, Split, PipelineReport, Vec<StageTiming>), PceError> {
    // --- Stage 1: tokenizer training (stride subsample, streamed) --------
    let t = Instant::now();
    let training_docs = (0..spec.len())
        .step_by(cfg.tokenizer_stride.max(1))
        .map(|k| spec.program(k).map(|p| p.source))
        .collect::<Result<Vec<_>, PceError>>()?;
    let vocab =
        BpeTrainer::new(cfg.tokenizer_vocab).train(training_docs.iter().map(String::as_str));
    let tokenizer = Tokenizer::new(vocab);
    drop(training_docs);
    let trained = StageTiming::new("tokenize-train", t.elapsed());

    let input = Input::Spec {
        spec,
        tokenizer: &tokenizer,
    };
    let (dataset, split, report, mut timings) = run_sharded(input, cfg, caches, shard_size)?;
    timings.insert(0, trained);
    Ok((dataset, split, report, timings))
}

/// One shard's programs and their token counts, borrowed or owned.
type Shard<'a> = (Cow<'a, [Program]>, Cow<'a, [usize]>);

/// The programs one core run reads.
pub(crate) enum Input<'a> {
    /// A materialized corpus and its tokenization: shards borrow both.
    Corpus {
        programs: &'a [Program],
        tokenized: &'a TokenizedCorpus,
    },
    /// A corpus spec and a trained tokenizer: shards regenerate their
    /// programs and count their tokens.
    Spec {
        spec: &'a CorpusSpec,
        tokenizer: &'a Tokenizer,
    },
}

impl Input<'_> {
    fn len(&self) -> usize {
        match self {
            Input::Corpus { programs, .. } => programs.len(),
            Input::Spec { spec, .. } => spec.len(),
        }
    }

    /// Programs `start..end` and their token counts.
    fn shard(&self, start: usize, end: usize) -> Result<Shard<'_>, PceError> {
        match self {
            Input::Corpus {
                programs,
                tokenized,
            } => Ok((
                Cow::Borrowed(&programs[start..end]),
                Cow::Borrowed(&tokenized.token_counts[start..end]),
            )),
            Input::Spec { spec, tokenizer } => {
                let programs = spec
                    .stream_range(start, end)
                    .collect::<Result<Vec<_>, PceError>>()?;
                let sources: Vec<&str> = programs.iter().map(|p| p.source.as_str()).collect();
                let counts = tokenizer.count_batch(&sources);
                Ok((Cow::Owned(programs), Cow::Owned(counts)))
            }
        }
    }

    /// Program `index`, borrowed or regenerated.
    fn program(&self, index: usize) -> Result<Cow<'_, Program>, PceError> {
        match self {
            Input::Corpus { programs, .. } => Ok(Cow::Borrowed(&programs[index])),
            Input::Spec { spec, .. } => spec.program(index).map(Cow::Owned),
        }
    }
}

/// The pipeline core: shard-profile, the corpus-order fold,
/// select-balance, and materialize over `input`, in shards of
/// `shard_size` programs. Returns the timings of those three stages.
pub(crate) fn run_sharded(
    input: Input<'_>,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
) -> Result<(Dataset, Split, PipelineReport, Vec<StageTiming>), PceError> {
    let spec_errors = cfg.specs.validate();
    if !spec_errors.is_empty() {
        return Err(PceError::spec(format!(
            "invalid spec pair: {spec_errors:?}"
        )));
    }
    let shard_size = shard_size.max(1);
    let total = input.len();
    let mut timings = Vec::with_capacity(4);

    // --- Stage 2: per-shard profile + label + token count -----------------
    let t = Instant::now();
    let gpu = Profiler::new(cfg.specs.gpu.clone()).with_caches(caches.clone());
    let cpu = Profiler::new(cfg.specs.cpu.clone()).with_caches(caches.clone());
    let bounds: Vec<(usize, usize)> = (0..total)
        .step_by(shard_size)
        .map(|s| (s, (s + shard_size).min(total)))
        .collect();
    type ShardRow = (SampleMeta, u64, u64, Vec<u64>);
    let shards: Vec<Result<Vec<ShardRow>, PceError>> = bounds
        .par_iter()
        .map(|&(start, end)| {
            // A regenerated shard lives here and is dropped on return:
            // only the metas survive.
            let (programs, counts) = input.shard(start, end)?;
            let mut shard_sources = HashSet::new();
            let mut out = Vec::with_capacity(programs.len());
            for (off, p) in programs.iter().enumerate() {
                let profiler = match p.language.spec_class() {
                    SpecClass::Gpu => &gpu,
                    SpecClass::Cpu => &cpu,
                };
                let hw = profiler.hardware();
                let profile = profiler.profile_shared(&p.ir, &p.launch);
                // Hazard audit inputs: a pure function of the source, so
                // computing them here (parallel) and folding them in
                // corpus order below is exact. A source already seen in
                // this shard is a repeat the fold ignores, so it is not
                // diagnosed again.
                let src_fp = HazardAudit::source_fp(&p.source);
                let diag_counts = if shard_sources.insert(src_fp) {
                    hazard_counts(&p.source)
                } else {
                    Vec::new()
                };
                out.push((
                    SampleMeta {
                        index: start + off,
                        id: p.id.clone(),
                        language: p.language,
                        label: classify_joint(hw, &profile.counts).label,
                        token_count: counts[off],
                        counts: profile.counts,
                        runtime_s: profile.runtime_s,
                    },
                    profile_fingerprint(p, &hw.name),
                    src_fp,
                    diag_counts,
                ));
            }
            Ok(out)
        })
        .collect();
    // Deterministic merge: shard order is corpus order, and the dedup fold
    // runs sequentially over it, so the stats are independent of sharding
    // and thread count.
    let mut metas = Vec::with_capacity(total);
    let mut dedup = StreamDedup::new();
    let mut hazards = HazardAudit::new();
    let mut corpus_labels = Vec::with_capacity(total);
    let mut token_counts = Vec::with_capacity(total);
    for shard in shards {
        for (meta, fp, src_fp, diag_counts) in shard? {
            dedup.observe(fp);
            hazards.observe_counts(src_fp, &diag_counts);
            corpus_labels.push(meta.label);
            token_counts.push(meta.token_count);
            metas.push(meta);
        }
    }
    let raw_token_stats = (!token_counts.is_empty()).then(|| token_quartiles(&token_counts));
    drop(token_counts);
    timings.push(StageTiming::new("shard-profile", t.elapsed()));

    // --- Stage 3: prune → balance → split ---------------------------------
    let t = Instant::now();
    let selection = select_and_balance(metas, cfg);
    timings.push(StageTiming::new("select-balance", t.elapsed()));

    // --- Stage 4: materialize only the selected samples -------------------
    let t = Instant::now();
    let materialize = |chosen: &[SampleMeta]| -> Result<Vec<Sample>, PceError> {
        let rows: Vec<Result<Sample, PceError>> = chosen
            .par_iter()
            .map(|m| {
                let p = input.program(m.index)?;
                let hw = cfg.specs.for_class(p.language.spec_class());
                Ok(Sample {
                    id: p.id.clone(),
                    family: p.family.clone(),
                    language: p.language,
                    kernel_name: p.kernel_name.clone(),
                    geometry: p.launch.geometry_string(),
                    source: p.source.clone(),
                    args: p.args.clone(),
                    token_count: m.token_count,
                    spec_name: hw.name.clone(),
                    spec_class: hw.class,
                    counts: m.counts,
                    runtime_s: m.runtime_s,
                    label: m.label,
                })
            })
            .collect();
        rows.into_iter().collect()
    };
    let train = materialize(&selection.train)?;
    let validation = materialize(&selection.validation)?;
    let balanced = merge_sorted(&train, &validation);
    timings.push(StageTiming::new("materialize", t.elapsed()));

    let report = PipelineReport {
        built: selection.built,
        raw_token_stats,
        after_prune: selection.after_prune,
        corpus_labels,
        combo_before_balance: selection.combo_before_balance,
        per_combo: selection.per_combo,
        final_size: balanced.len(),
        train_size: train.len(),
        validation_size: validation.len(),
        dedup: dedup.stats(),
        hazards: hazards.into_counts(),
    };
    Ok((
        Dataset { samples: balanced },
        Split {
            train: Dataset { samples: train },
            validation: Dataset {
                samples: validation,
            },
        },
        report,
        timings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline_cached, tokenize_corpus};
    use pce_kernels::{CorpusConfig, VariantAxes};

    fn small_spec(axes: VariantAxes) -> CorpusSpec {
        CorpusSpec {
            base: CorpusConfig {
                seed: 3,
                cuda_programs: 40,
                omp_programs: 32,
            },
            axes,
        }
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            per_combo_cap: 8,
            tokenizer_vocab: 400,
            tokenizer_stride: 11,
            ..Default::default()
        }
    }

    #[test]
    fn streamed_matches_materialized_for_identity_and_expanded_specs() {
        for axes in [
            VariantAxes::none(),
            VariantAxes {
                unroll: vec![4],
                flip_precision: true,
                ..VariantAxes::none()
            },
        ] {
            let spec = small_spec(axes);
            let corpus: Vec<_> = spec
                .stream()
                .collect::<Result<_, _>>()
                .expect("corpus builds");
            let c = cfg();
            let tokenized = tokenize_corpus(&corpus, &c);
            let materialized = run_pipeline_cached(&corpus, &tokenized, &c, &SimCaches::new());
            for shard_size in [1, 17, 1_000_000] {
                let caches = SimCaches::new();
                let streamed = run_pipeline_streamed(&spec, &c, &caches, shard_size)
                    .expect("streamed pipeline runs");
                assert_eq!(materialized, streamed, "shard_size={shard_size}");
            }
        }
    }

    #[test]
    fn corpus_hazard_audit_is_error_clean() {
        let spec = small_spec(VariantAxes::none());
        let caches = SimCaches::new();
        let (_, _, report) =
            run_pipeline_streamed(&spec, &cfg(), &caches, 64).expect("pipeline runs");
        // Generated kernels may legitimately carry warning-severity
        // hazards (serialized accumulators, strided subscripts) but must
        // never ship an error-severity one (races, missing barriers).
        for rule in pce_static_analysis::RuleId::all() {
            if rule.severity() == pce_static_analysis::Severity::Error {
                assert_eq!(
                    report.hazards.get(rule.id()),
                    None,
                    "corpus fires error rule {rule}"
                );
            }
        }
    }

    #[test]
    fn expanded_corpus_reports_nonzero_dedup() {
        let spec = small_spec(VariantAxes {
            unroll: vec![2, 4],
            ..VariantAxes::none()
        });
        let caches = SimCaches::new();
        let (_, _, report) =
            run_pipeline_streamed(&spec, &cfg(), &caches, 64).expect("pipeline runs");
        // Unroll variants change only the source text, so 2/3 of the
        // corpus dedups onto the base programs' profiles.
        assert_eq!(report.dedup.total() as usize, spec.len());
        assert!(
            report.dedup.duplicates as usize >= spec.len() / 2,
            "expected heavy unroll dedup, got {:?}",
            report.dedup
        );
        assert!(report.dedup.hit_rate() > 0.5);
    }

    #[test]
    fn restreaming_profiles_zero_new_kernels() {
        let spec = small_spec(VariantAxes {
            flip_precision: true,
            ..VariantAxes::none()
        });
        let caches = SimCaches::new();
        let first = run_pipeline_streamed(&spec, &cfg(), &caches, 32).expect("first pass runs");
        let misses_after_first = caches.profiles().counters().misses;
        let second = run_pipeline_streamed(&spec, &cfg(), &caches, 32).expect("second pass runs");
        assert_eq!(
            caches.profiles().counters().misses,
            misses_after_first,
            "re-streaming the same seed must profile zero new kernels"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn invalid_spec_pair_is_a_typed_error() {
        let mut c = cfg();
        c.specs.cpu = c.specs.gpu.clone();
        let err = run_pipeline_streamed(&small_spec(VariantAxes::none()), &c, &SimCaches::new(), 8)
            .expect_err("mismatched spec classes must be rejected");
        assert_eq!(err.kind(), "spec");
    }

    #[test]
    fn stage_timings_name_every_stage() {
        let caches = SimCaches::new();
        let (_, _, _, timings) =
            run_pipeline_streamed_timed(&small_spec(VariantAxes::none()), &cfg(), &caches, 16)
                .expect("pipeline runs");
        let names: Vec<&str> = timings.iter().map(|t| t.stage.as_str()).collect();
        assert_eq!(
            names,
            [
                "tokenize-train",
                "shard-profile",
                "select-balance",
                "materialize"
            ]
        );
        assert!(timings.iter().all(|t| t.seconds >= 0.0));
    }
}
