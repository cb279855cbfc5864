//! Streaming corpus generation with parametric variant expansion.
//!
//! The paper's corpus is ~750 programs — far too few for the suite's
//! flip/transfer statistics. This module scales generation two ways:
//!
//! * **Variant axes** ([`VariantAxes`]): every base program expands into a
//!   cross product of problem-size shifts, datatype flips, unroll-pragma
//!   factors, and fused-op chain lengths. A 210-program smoke corpus with
//!   modest axes becomes a 10k+-variant corpus without new family code.
//! * **Lazy streaming** ([`CorpusStream`]): programs are generated on
//!   demand, in a deterministic order, from nothing but the spec and an
//!   index. Nothing is materialized until a consumer asks, and any
//!   sub-range can be regenerated independently — which is what lets the
//!   dataset pipeline run in bounded-memory shards.
//!
//! [`build_corpus`](crate::build_corpus) is now just the eager consumer:
//! `CorpusSpec::materialized(cfg).stream().collect()`. With all axes empty
//! the stream yields byte-identical programs (same ids, same order) to the
//! historical materialized builder — the invariant the whole refactor
//! hangs on.
//!
//! Many variants are *near-duplicates by construction*: an unroll pragma
//! changes the source text but not the kernel IR or launch, and a
//! precision flip on an integer-only family changes nothing at all. The
//! profile memos downstream absorb these — the pipeline reports the
//! resulting dedup hit rate.

use serde::{Deserialize, Serialize};

use pce_fault::PceError;
use pce_gpu_sim::{Op, Precision};

use crate::corpus::{sample_input, weighted_families, CorpusConfig, Program};
use crate::families::Family;
use crate::source::Language;

/// Parametric variant axes: every base program expands into the cross
/// product of these lists (each axis contributes its identity variant, so
/// empty axes mean no expansion).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariantAxes {
    /// Problem-size shifts in log2 steps: a shift of `2` rebuilds the
    /// program with `4×` the sampled element count (clamped to
    /// `2^10..=2^28`), moving it along the arithmetic-intensity axis.
    #[serde(default)]
    pub size_shifts: Vec<i8>,
    /// Rebuild each program with the opposite floating-point precision
    /// (datatype mix). Integer-only families render identically under the
    /// flip — those variants are pure duplicates the profile memo absorbs.
    #[serde(default)]
    pub flip_precision: bool,
    /// Unroll factors: each injects `#pragma unroll N` ahead of the
    /// kernel's first loop. Source-only — the IR and launch are untouched,
    /// so these variants dedup to their base at profiling time.
    #[serde(default)]
    pub unroll: Vec<u32>,
    /// Fused-op chain lengths: each appends N fused multiply-add stages
    /// to the kernel IR (and a matching epilogue helper to the source),
    /// raising arithmetic intensity — genuinely new work, not a duplicate.
    #[serde(default)]
    pub fused: Vec<u32>,
}

impl VariantAxes {
    /// Axes that expand nothing: every base program yields exactly its
    /// identity variant.
    pub fn none() -> VariantAxes {
        VariantAxes::default()
    }

    /// Variants generated per base program (≥ 1).
    pub fn expansion_factor(&self) -> usize {
        (1 + self.size_shifts.len())
            * (1 + usize::from(self.flip_precision))
            * (1 + self.unroll.len())
            * (1 + self.fused.len())
    }

    /// A modest default expansion for scale runs: 2 size shifts,
    /// precision flip, 3 unroll factors and 2 fused chains, each axis
    /// also keeping its identity: 3 × 2 × 4 × 3 = 72 variants per base
    /// program.
    pub fn scale() -> VariantAxes {
        VariantAxes {
            size_shifts: vec![-2, 2],
            flip_precision: true,
            unroll: vec![2, 4, 8],
            fused: vec![8, 32],
        }
    }
}

/// A corpus specification: the base generation config plus variant axes.
/// The total stream length is `(cuda + omp) × expansion_factor`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Base corpus parameters (seed, per-language program counts).
    pub base: CorpusConfig,
    /// Variant expansion axes.
    #[serde(default)]
    pub axes: VariantAxes,
}

impl CorpusSpec {
    /// The spec equivalent to the historical materialized builder: no
    /// variant expansion. `spec.stream()` then yields byte-identical
    /// programs to `build_corpus(&cfg)`.
    pub fn materialized(base: CorpusConfig) -> CorpusSpec {
        CorpusSpec {
            base,
            axes: VariantAxes::none(),
        }
    }

    /// Total number of programs the stream yields.
    pub fn len(&self) -> usize {
        (self.base.cuda_programs + self.base.omp_programs) * self.axes.expansion_factor()
    }

    /// Whether the stream yields nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A lazy iterator over the whole corpus, in deterministic order:
    /// base programs in the historical order, each immediately followed
    /// by its expanded variants.
    pub fn stream(&self) -> CorpusStream {
        CorpusStream::new(self.clone(), 0, self.len())
    }

    /// A lazy iterator over the index range `start..end` (clamped to the
    /// corpus length) — the shard primitive: any sub-range regenerates
    /// independently of the rest of the corpus.
    pub fn stream_range(&self, start: usize, end: usize) -> CorpusStream {
        let end = end.min(self.len());
        CorpusStream::new(self.clone(), start.min(end), end)
    }

    /// Generate the program at stream index `k` (random access). Every
    /// program derives from the spec and its index alone, so shards never
    /// need the rest of the corpus in memory.
    pub fn program(&self, k: usize) -> Result<Program, PceError> {
        let (fams, omp_fams) = weighted_families();
        generate(self, &fams, &omp_fams, k)
    }
}

/// A lazy, deterministic iterator over a [`CorpusSpec`]'s programs.
///
/// Yields `Result<Program, PceError>`: generation fails only on a family
/// registry violation (a family advertising an OMP port it does not
/// render), surfaced as [`PceError::Spec`] instead of a panic.
pub struct CorpusStream {
    spec: CorpusSpec,
    fams: Vec<Family>,
    omp_fams: Vec<Family>,
    next: usize,
    end: usize,
}

impl std::fmt::Debug for CorpusStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusStream")
            .field("next", &self.next)
            .field("end", &self.end)
            .finish_non_exhaustive()
    }
}

impl CorpusStream {
    fn new(spec: CorpusSpec, start: usize, end: usize) -> CorpusStream {
        let (fams, omp_fams) = weighted_families();
        CorpusStream {
            spec,
            fams,
            omp_fams,
            next: start,
            end,
        }
    }

    /// Programs remaining in the stream.
    pub fn remaining(&self) -> usize {
        self.end - self.next
    }
}

impl Iterator for CorpusStream {
    type Item = Result<Program, PceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some(generate(&self.spec, &self.fams, &self.omp_fams, k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for CorpusStream {}

/// One decoded variant selection: which entry of each axis applies
/// (`None` = the identity on that axis).
struct VariantSel {
    size_shift: Option<i8>,
    flip_precision: bool,
    unroll: Option<u32>,
    fused: Option<u32>,
}

/// Decode variant index `v` (mixed radix, identity-first on every axis).
fn decode_variant(axes: &VariantAxes, mut v: usize) -> VariantSel {
    let pick = |v: &mut usize, len: usize| -> Option<usize> {
        let radix = len + 1;
        let digit = *v % radix;
        *v /= radix;
        digit.checked_sub(1)
    };
    let fused = pick(&mut v, axes.fused.len()).map(|i| axes.fused[i]);
    let unroll = pick(&mut v, axes.unroll.len()).map(|i| axes.unroll[i]);
    let flip = axes.flip_precision && {
        let f = v % 2;
        v /= 2;
        f == 1
    };
    let size_shift = pick(&mut v, axes.size_shifts.len()).map(|i| axes.size_shifts[i]);
    VariantSel {
        size_shift,
        flip_precision: flip,
        unroll,
        fused,
    }
}

/// Generate the program at stream index `k`.
fn generate(
    spec: &CorpusSpec,
    fams: &[Family],
    omp_fams: &[Family],
    k: usize,
) -> Result<Program, PceError> {
    let factor = spec.axes.expansion_factor();
    let base_slot = k / factor;
    let v = k % factor;
    let (language, index, fam) = if base_slot < spec.base.cuda_programs {
        (Language::Cuda, base_slot, &fams[base_slot % fams.len()])
    } else {
        let i = base_slot - spec.base.cuda_programs;
        if i >= spec.base.omp_programs {
            return Err(PceError::spec(format!(
                "stream index {k} beyond corpus length {}",
                spec.len()
            )));
        }
        (Language::Omp, i, &omp_fams[i % omp_fams.len()])
    };

    let sel = decode_variant(&spec.axes, v);
    let mut input = sample_input(spec.base.seed, language, fam.name, index);
    if let Some(shift) = sel.size_shift {
        input.n = shift_n(input.n, shift);
    }
    if sel.flip_precision {
        input.precision = match input.precision {
            Precision::F32 => Precision::F64,
            Precision::F64 => Precision::F32,
        };
    }

    let variant = (fam.build)(&input);
    let mut source = match language {
        Language::Cuda => variant.cuda,
        Language::Omp => variant.omp.ok_or_else(|| {
            PceError::spec(format!(
                "family '{}' advertises an OMP port but rendered none",
                fam.name
            ))
        })?,
    };
    let mut ir = variant.ir;

    if let Some(factor) = sel.unroll {
        source = inject_unroll(&source, factor, language);
    }
    if let Some(stages) = sel.fused {
        append_fused_chain(&mut source, &mut ir, stages, input.precision, language);
    }
    // Consumers hold a shard or a whole corpus of programs at once: keep
    // each one's text without the slack its assembly grew into.
    source.shrink_to_fit();

    let lang_tag = match language {
        Language::Cuda => "cuda",
        Language::Omp => "omp",
    };
    let id = if v == 0 {
        format!("{lang_tag}-{}-{index:04}", fam.name)
    } else {
        format!("{lang_tag}-{}-{index:04}-v{v:03}", fam.name)
    };
    Ok(Program {
        id,
        family: fam.name.to_string(),
        language,
        source,
        kernel_name: variant.kernel_name,
        ir,
        launch: variant.launch,
        args: variant.args,
    })
}

/// Shift a problem size by `shift` log2 steps, clamped to `2^10..=2^28`
/// (the launch shapes every family supports).
fn shift_n(n: u64, shift: i8) -> u64 {
    // `unsigned_abs` keeps `i8::MIN` in range; any step past 20 already
    // lands on a clamp bound.
    let steps = u32::from(shift.unsigned_abs().min(20));
    let scaled = if shift >= 0 {
        n.saturating_mul(1u64 << steps)
    } else {
        n >> steps
    };
    scaled.clamp(1 << 10, 1 << 28)
}

/// Inject `#pragma unroll N` ahead of the kernel's first `for (` loop —
/// after the kernel marker so host-side helper loops are skipped. Source
/// text only: the IR and launch stay byte-identical to the base variant.
fn inject_unroll(source: &str, factor: u32, language: Language) -> String {
    let marker = match language {
        Language::Cuda => "__global__",
        Language::Omp => "#pragma omp target",
    };
    let from = source.find(marker).unwrap_or(0);
    let Some(rel) = source[from..].find("for (") else {
        return source.to_string();
    };
    let at = from + rel;
    let line_start = source[..at].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let indent: String = source[line_start..at]
        .chars()
        .take_while(|c| *c == ' ')
        .collect();
    let mut out = String::with_capacity(source.len() + 32);
    out.push_str(&source[..line_start]);
    out.push_str(&indent);
    out.push_str(&format!("#pragma unroll {factor}\n"));
    out.push_str(&source[line_start..]);
    out
}

/// Append a fused multiply-add chain: `stages` extra FMA ops on the kernel
/// IR (raising arithmetic intensity) plus a matching epilogue helper in
/// the source text.
fn append_fused_chain(
    source: &mut String,
    ir: &mut pce_gpu_sim::KernelIr,
    stages: u32,
    precision: Precision,
    language: Language,
) {
    for _ in 0..stages {
        ir.body.push(Op::fma(precision));
    }
    let (ct, suffix) = match precision {
        Precision::F32 => ("float", "f"),
        Precision::F64 => ("double", ""),
    };
    let qualifier = match language {
        Language::Cuda => "__device__ __forceinline__",
        Language::Omp => "static inline",
    };
    source.push_str(&format!(
        "\n// ---- fused epilogue ({stages} fma stages) -----------------------\n\
         // Additional in-register arithmetic applied to the kernel's output\n\
         // value before the final store; keeps the memory footprint fixed\n\
         // while raising arithmetic intensity.\n\
         {qualifier} {ct} fused_chain_{stages}({ct} v) {{\n"
    ));
    for s in 0..stages {
        let scale = 1.0 + 1.0 / (1024.0 + s as f64);
        source.push_str(&format!(
            "  v = v * {scale:.12}{suffix} + {off:.12}{suffix};\n",
            off = 1.0 / (4096.0 + s as f64)
        ));
    }
    source.push_str("  return v;\n}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_corpus;

    fn small_cfg() -> CorpusConfig {
        CorpusConfig {
            seed: 42,
            cuda_programs: 12,
            omp_programs: 9,
        }
    }

    fn scale_axes() -> VariantAxes {
        VariantAxes {
            size_shifts: vec![-2, 2],
            flip_precision: true,
            unroll: vec![4],
            fused: vec![16],
        }
    }

    #[test]
    fn identity_stream_matches_materialized_builder() {
        let cfg = small_cfg();
        let eager = build_corpus(&cfg).expect("corpus builds");
        let streamed: Vec<_> = CorpusSpec::materialized(cfg)
            .stream()
            .collect::<Result<_, _>>()
            .expect("stream builds");
        assert_eq!(eager, streamed);
    }

    #[test]
    fn expansion_factor_multiplies_stream_length() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: scale_axes(),
        };
        assert_eq!(spec.axes.expansion_factor(), 3 * 2 * 2 * 2);
        assert_eq!(spec.len(), 21 * 24);
        let programs: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        assert_eq!(programs.len(), spec.len());
    }

    #[test]
    fn variant_ids_are_unique_and_identity_keeps_base_ids() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: scale_axes(),
        };
        let programs: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        let mut ids: Vec<_> = programs.iter().map(|p| p.id.clone()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate variant ids");
        // Every expansion_factor-th program is the identity variant with
        // the historical id.
        let factor = spec.axes.expansion_factor();
        let base = build_corpus(&spec.base).expect("corpus builds");
        for (b, p) in base.iter().zip(programs.iter().step_by(factor)) {
            assert_eq!(b, p, "identity variant must equal the base program");
        }
    }

    #[test]
    fn random_access_matches_the_stream() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: scale_axes(),
        };
        let all: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        for k in [0usize, 1, 23, 24, 100, spec.len() - 1] {
            assert_eq!(
                all[k],
                spec.program(k).expect("program builds"),
                "index {k}"
            );
        }
        assert!(spec.program(spec.len() + 7).is_err());
    }

    #[test]
    fn range_streams_shard_cleanly() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: scale_axes(),
        };
        let all: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        let mut sharded = Vec::new();
        let shard = 37;
        let mut at = 0;
        while at < spec.len() {
            let chunk: Vec<_> = spec
                .stream_range(at, at + shard)
                .collect::<Result<_, _>>()
                .expect("shard builds");
            sharded.extend(chunk);
            at += shard;
        }
        assert_eq!(all, sharded);
    }

    #[test]
    fn unroll_variants_share_ir_with_their_base() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: VariantAxes {
                unroll: vec![4],
                ..VariantAxes::none()
            },
        };
        let programs: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        for pair in programs.chunks(2) {
            let (base, unrolled) = (&pair[0], &pair[1]);
            assert_eq!(base.ir, unrolled.ir, "{}", unrolled.id);
            assert_eq!(base.launch, unrolled.launch, "{}", unrolled.id);
            assert_ne!(base.id, unrolled.id);
        }
        // At least some sources actually carry the pragma (families whose
        // kernel has no textual loop pass through unchanged).
        let with_pragma = programs
            .iter()
            .filter(|p| p.source.contains("#pragma unroll 4"))
            .count();
        assert!(with_pragma > 0, "no variant carried the unroll pragma");
    }

    #[test]
    fn fused_variants_extend_the_ir_and_validate() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: VariantAxes {
                fused: vec![16],
                ..VariantAxes::none()
            },
        };
        let programs: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        for pair in programs.chunks(2) {
            let (base, fused) = (&pair[0], &pair[1]);
            assert_eq!(fused.ir.body.len(), base.ir.body.len() + 16, "{}", fused.id);
            assert!(fused.ir.validate().is_empty(), "{}", fused.id);
            assert!(fused.source.contains("fused_chain_16"), "{}", fused.id);
            assert_eq!(base.launch, fused.launch);
        }
    }

    #[test]
    fn size_shift_moves_the_launch_params() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: VariantAxes {
                size_shifts: vec![2],
                ..VariantAxes::none()
            },
        };
        let programs: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        let mut grew = 0;
        for pair in programs.chunks(2) {
            let (base, shifted) = (&pair[0], &pair[1]);
            let n0 = base.launch.params.get("n").copied().unwrap_or(0);
            let n1 = shifted.launch.params.get("n").copied().unwrap_or(0);
            if n1 > n0 {
                grew += 1;
            }
            assert!(n1 <= 1 << 28, "{}: n={n1} beyond clamp", shifted.id);
        }
        assert!(grew > 0, "no size-shift variant grew its problem size");
    }

    #[test]
    fn streaming_is_deterministic() {
        let spec = CorpusSpec {
            base: small_cfg(),
            axes: scale_axes(),
        };
        let a: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        let b: Vec<_> = spec.stream().collect::<Result<_, _>>().expect("builds");
        assert_eq!(a, b);
    }

    #[test]
    fn shift_n_clamps_to_supported_sizes() {
        assert_eq!(shift_n(1 << 20, 2), 1 << 22);
        assert_eq!(shift_n(1 << 20, -2), 1 << 18);
        assert_eq!(shift_n(1 << 11, -8), 1 << 10);
        assert_eq!(shift_n(1 << 27, 8), 1 << 28);
        assert_eq!(shift_n(1 << 20, i8::MIN), 1 << 10);
        assert_eq!(shift_n(1 << 20, i8::MAX), 1 << 28);
    }

    #[test]
    fn axes_serde_default_is_identity() {
        let spec: CorpusSpec =
            serde_json::from_str(r#"{"base":{"seed":1,"cuda_programs":2,"omp_programs":1}}"#)
                .expect("spec parses");
        assert_eq!(spec.axes.expansion_factor(), 1);
        assert_eq!(spec.len(), 3);
    }
}
