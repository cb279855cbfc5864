//! Property-based tests (proptest) over the core data structures and
//! invariants: roofline algebra, counters, tokenizer losslessness,
//! metric bounds, statistics, the memory model, and corpus specs at
//! their extremes.

use proptest::prelude::*;

use parallel_code_estimation::gpu_sim::memory::coalescing_factor;
use parallel_code_estimation::gpu_sim::AccessPattern;
use parallel_code_estimation::kernels::{CorpusConfig, CorpusSpec, VariantAxes};
use parallel_code_estimation::metrics::{chi_squared_independence, ConfusionMatrix};
use parallel_code_estimation::roofline::{Boundedness, HardwareSpec, OpClass, OpCounts, Roofline};
use parallel_code_estimation::tokenizer::{reference, token_quartiles, BpeTrainer, Tokenizer};

/// Pieces of the segment-rule texts: every newline kind, blank-line runs,
/// single and multiple spaces or tabs before a newline, identifiers,
/// digits, punctuation and one multibyte character.
const SEGMENT_PIECES: [&str; 24] = [
    "\n", "\r", "\r\n", "\n\n\n", "\r\n\r\n", " \n", "  \n", "\t\n", " \t\r\n", " ", "  ", "\t",
    " x", "idx", "blockDim", "_tmp", "42", " 7", "(", ";", "+=", " {", "}", "λ",
];

/// A tokenizer whose merges cover the segment pieces, newline runs
/// included.
fn segment_tokenizer() -> Tokenizer {
    let corpus =
        "for (int idx = 0; idx < 42; ++idx) {\r\n  x[idx] += _tmp * blockDim;\n}\n\n\n \t\n";
    Tokenizer::new(BpeTrainer::new(360).train([corpus, corpus]))
}

proptest! {
    #[test]
    fn corpus_specs_build_at_any_size_shift(
        seed in 0u64..1_000_000,
        slot in 0usize..749,
        shifts in prop::collection::vec(i8::MIN..=i8::MAX, 0..4),
    ) {
        // Arbitrary shifts plus both extremes: every variant of one base
        // program builds, and its problem size stays in the window every
        // family supports.
        let mut size_shifts = shifts.clone();
        size_shifts.extend([i8::MIN, i8::MAX]);
        let spec = CorpusSpec {
            base: CorpusConfig { seed, ..CorpusConfig::default() },
            axes: VariantAxes { size_shifts, ..VariantAxes::none() },
        };
        let factor = spec.axes.expansion_factor();
        for k in slot * factor..(slot + 1) * factor {
            let p = spec.program(k).expect("variant builds");
            if let Some(&n) = p.launch.params.get("n") {
                prop_assert!((1 << 10..=1 << 28).contains(&n), "{}: n={n}", p.id);
            }
        }
    }

    #[test]
    fn roofline_attainable_never_exceeds_either_bound(
        peak in 1.0f64..1e5,
        bw in 1.0f64..1e4,
        ai in 1e-6f64..1e6,
    ) {
        let roof = Roofline::new(peak, bw);
        let att = roof.attainable_gops(ai);
        prop_assert!(att <= peak + 1e-9);
        prop_assert!(att <= bw * ai + 1e-9);
        // And it achieves one of them (the min).
        prop_assert!((att - peak.min(bw * ai)).abs() < 1e-9);
    }

    #[test]
    fn roofline_classification_agrees_with_balance_point(
        peak in 1.0f64..1e5,
        bw in 1.0f64..1e4,
        ai in 1e-6f64..1e6,
    ) {
        let roof = Roofline::new(peak, bw);
        let verdict = roof.classify(ai);
        if ai < roof.balance_point() {
            prop_assert_eq!(verdict, Boundedness::Bandwidth);
        } else {
            prop_assert_eq!(verdict, Boundedness::Compute);
        }
    }

    #[test]
    fn op_counts_ai_is_scale_invariant(
        sp in 1u64..1_000_000,
        bytes in 1u64..1_000_000,
        k in 1u64..1000,
    ) {
        let a = OpCounts { flops_sp: sp, dram_read_bytes: bytes, ..Default::default() };
        let b = OpCounts {
            flops_sp: sp * k,
            dram_read_bytes: bytes * k,
            ..Default::default()
        };
        let ra = a.ai(OpClass::Sp);
        let rb = b.ai(OpClass::Sp);
        prop_assert!((ra - rb).abs() < 1e-9 * ra.max(1.0));
    }

    #[test]
    fn tokenizer_roundtrips_arbitrary_ascii(text in "[ -~\n\t]{0,400}") {
        // Train on unrelated material; encode/decode must still be exact.
        let vocab = BpeTrainer::new(400).train(["float x = a[i] * b[i]; for (int i = 0; i < n; i++)"]);
        let tok = Tokenizer::new(vocab);
        prop_assert_eq!(tok.decode(&tok.encode(&text)), text);
    }

    #[test]
    fn tokenizer_roundtrips_unicode(text in "\\PC{0,80}") {
        let tok = Tokenizer::new(BpeTrainer::new(300).train(["hello world"]));
        prop_assert_eq!(tok.decode(&tok.encode(&text)), text);
    }

    #[test]
    fn fast_trainer_matches_naive_reference(
        docs in prop::collection::vec("[ -~\n\t]{0,60}", 1..8),
        extra_vocab in 0usize..80,
    ) {
        // The incremental trainer must produce a bit-identical merge
        // table to the naive recount-per-merge reference: same argmax
        // (freq desc, then smallest pair), same merge application, same
        // stopping rule at the trainer's fixed minimum pair frequency, 2.
        let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
        let vocab_size = 256 + extra_vocab;
        let fast = BpeTrainer::new(vocab_size).train(refs.iter().copied());
        let naive = reference::naive_train(vocab_size, 2, refs.iter().copied());
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn fast_encoder_matches_naive_reference(
        corpus in "[a-z {}();=+*\n]{20,200}",
        text in "[ -~\n\t]{0,150}",
    ) {
        // The heap-merge encoder must produce exactly the ids the naive
        // lowest-rank-first rescan produces, on text unrelated to the
        // training corpus.
        let tok = Tokenizer::new(BpeTrainer::new(350).train([corpus.as_str()]));
        prop_assert_eq!(tok.encode(&text), reference::naive_encode(&tok, &text));
    }

    #[test]
    fn trained_tokenizer_roundtrips_its_own_corpus(
        docs in prop::collection::vec("\\PC{0,50}", 1..6),
    ) {
        // Training on arbitrary unicode then encoding the very same
        // documents must be lossless.
        let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
        let tok = Tokenizer::new(BpeTrainer::new(320).train(refs.iter().copied()));
        for doc in &docs {
            prop_assert_eq!(&tok.decode(&tok.encode(doc)), doc);
        }
    }

    #[test]
    fn batch_apis_match_sequential_encoding(
        docs in prop::collection::vec("[ -~]{0,80}", 1..10),
    ) {
        let tok = Tokenizer::new(BpeTrainer::new(300).train(["shared training corpus text"]));
        let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
        let batch_counts = tok.count_batch(&refs);
        for (doc, n) in docs.iter().zip(batch_counts) {
            prop_assert_eq!(n, tok.encode(doc).len());
        }
    }

    #[test]
    fn token_counts_split_at_newline_runs(
        pieces in prop::collection::vec(prop::sample::select(SEGMENT_PIECES.to_vec()), 0..48),
    ) {
        // The segment memo counts each newline-terminated segment on its
        // own; the naive encoder of the whole text is the oracle.
        let tok = segment_tokenizer();
        let text = pieces.concat();
        let naive = reference::naive_encode(&tok, &text);
        prop_assert_eq!(tok.count(&text), naive.len(), "{:?}", text);
        prop_assert_eq!(tok.encode(&text), naive, "{:?}", text);
    }

    #[test]
    fn batches_of_shared_lines_count_like_naive(
        pool in prop::collection::vec(
            prop::collection::vec(prop::sample::select(SEGMENT_PIECES.to_vec()), 0..10),
            1..8,
        ),
        picks in prop::collection::vec(prop::collection::vec(0usize..64, 0..12), 1..10),
    ) {
        // Texts drawn from one pool of lines repeat segments, so the
        // per-worker memo hits. Each text ends with its last line again,
        // without the newline, so texts also end mid-segment.
        let tok = segment_tokenizer();
        let lines: Vec<String> = pool.iter().map(|p| p.concat() + "\n").collect();
        let texts: Vec<String> = picks
            .iter()
            .map(|pick| {
                let mut text: String =
                    pick.iter().map(|&i| lines[i % lines.len()].as_str()).collect();
                if let Some(&last) = pick.last() {
                    text.push_str(&pool[last % pool.len()].concat());
                }
                text
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let want: Vec<usize> =
            texts.iter().map(|t| reference::naive_encode(&tok, t).len()).collect();
        prop_assert_eq!(tok.count_batch(&refs), want);
    }

    #[test]
    fn token_count_is_subadditive_under_concatenation(
        a in "[a-z ]{0,80}",
        b in "[a-z ]{0,80}",
    ) {
        // Concatenation can only merge at the seam: count(a+b) can differ
        // from count(a)+count(b) by at most a constant from seam effects,
        // and is never more than 1 larger.
        let tok = Tokenizer::new(BpeTrainer::new(350).train(["the quick brown fox jumps"]));
        let joined = format!("{a}{b}");
        let sum = tok.count(&a) + tok.count(&b);
        prop_assert!(tok.count(&joined) <= sum + 1);
    }

    #[test]
    fn confusion_metrics_stay_in_bounds(
        tp in 0u64..500, fp in 0u64..500, tn in 0u64..500, fn_ in 0u64..500,
    ) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_, invalid_pos: 0, invalid_neg: 0 };
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.macro_f1()));
        prop_assert!((-1.0..=1.0).contains(&cm.mcc()));
    }

    #[test]
    fn mcc_is_antisymmetric_under_prediction_flip(
        tp in 0u64..200, fp in 0u64..200, tn in 0u64..200, fn_ in 0u64..200,
    ) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_, invalid_pos: 0, invalid_neg: 0 };
        // Flipping every *prediction* swaps tp<->fn and tn<->fp.
        let flipped = ConfusionMatrix {
            tp: fn_, fn_: tp, tn: fp, fp: tn,
            invalid_pos: 0, invalid_neg: 0,
        };
        prop_assert!((cm.mcc() + flipped.mcc()).abs() < 1e-9);
    }

    #[test]
    fn chi2_p_values_are_probabilities(
        a in 1u64..200, b in 1u64..200, c in 1u64..200, d in 1u64..200,
    ) {
        let r = chi_squared_independence(&[vec![a, b], vec![c, d]]).unwrap();
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        prop_assert!(r.statistic >= 0.0);
    }

    #[test]
    fn quartiles_are_ordered_and_within_range(counts in prop::collection::vec(0usize..100_000, 1..200)) {
        let s = token_quartiles(&counts);
        prop_assert!(s.min <= s.q1);
        prop_assert!(s.q1 <= s.median);
        prop_assert!(s.median <= s.q3);
        prop_assert!(s.q3 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn coalescing_factor_is_bounded(
        stride in 1u32..4096,
        elem in prop::sample::select(vec![1u64, 2, 4, 8, 16, 32]),
    ) {
        for pattern in [
            AccessPattern::Coalesced,
            AccessPattern::Strided(stride),
            AccessPattern::Random,
            AccessPattern::Broadcast,
        ] {
            let f = coalescing_factor(pattern, elem);
            // Bounded by one sector per lane (32B / elem) below, and the
            // warp-broadcast saving above.
            prop_assert!(f >= 1.0 / 32.0, "{pattern:?} {elem}: {f}");
            prop_assert!(f <= (32.0 / elem as f64).max(1.0) + 1e-9, "{pattern:?} {elem}: {f}");
        }
    }

    #[test]
    fn boundedness_parse_roundtrips(b in prop::sample::select(vec![Boundedness::Compute, Boundedness::Bandwidth])) {
        prop_assert_eq!(Boundedness::parse(b.answer_token()), Some(b));
        prop_assert_eq!(Boundedness::parse(&b.answer_token().to_lowercase()), Some(b));
        prop_assert_eq!(b.flipped().flipped(), b);
    }

    #[test]
    fn preset_lookup_survives_case_and_separator_mangling(
        idx in 0usize..10,
        case_seed in prop::collection::vec(0u8..2, 64..65),
        sep in prop::sample::select(vec!["", " ", "-", "_", ".", "  "]),
    ) {
        let presets = HardwareSpec::presets();
        prop_assert!(idx < presets.len());
        let original = &presets[idx];
        // Mangle: random per-character case, separators swapped for an
        // arbitrary (possibly empty) non-alphanumeric string.
        let mut mangled = String::new();
        for (i, c) in original.name.chars().enumerate() {
            if c.is_ascii_alphanumeric() {
                if case_seed[i % case_seed.len()] == 0 {
                    mangled.push(c.to_ascii_lowercase());
                } else {
                    mangled.push(c.to_ascii_uppercase());
                }
            } else {
                mangled.push_str(sep);
            }
        }
        let found = HardwareSpec::preset_by_name(&mangled);
        prop_assert!(found.is_ok(), "'{}' failed to resolve", mangled);
        prop_assert_eq!(&found.unwrap().name, &original.name);
    }

    #[test]
    fn ridge_points_are_finite_positive_and_monotone_in_bandwidth(
        idx in 0usize..10,
        scale in 1.01f64..100.0,
    ) {
        // Satellite invariant for BOTH spec classes (GPU and CPU presets
        // alike): every class's ridge point is finite and positive, and
        // raising bandwidth strictly lowers it (ridge = peak / bandwidth,
        // in the class's own units — FLOP/byte or INTOP/byte).
        let presets = HardwareSpec::presets();
        prop_assert!(idx < presets.len());
        let hw = &presets[idx];
        let mut wider = hw.clone();
        wider.bandwidth_gbs *= scale;
        for class in OpClass::ALL {
            let ridge = hw.ridge_point(class);
            let ridge_wider = wider.ridge_point(class);
            prop_assert!(ridge.is_finite() && ridge > 0.0, "{} {class}: {ridge}", hw.name);
            prop_assert!(
                ridge_wider.is_finite() && ridge_wider > 0.0,
                "{} {class}: {ridge_wider}", hw.name
            );
            prop_assert!(
                ridge_wider < ridge,
                "{} {class}: ridge must fall as bandwidth rises ({ridge_wider} !< {ridge})",
                hw.name
            );
            // Exactly inverse-proportional: ridge(bw*k) * k == ridge(bw).
            prop_assert!((ridge_wider * scale - ridge).abs() < 1e-9 * ridge.max(1.0));
        }
    }
}

// ---------------------------------------------------------------------
// Hardware-catalog invariants: exhaustive over the preset list (the
// "arbitrary input" here is every catalog entry, present and future).
// ---------------------------------------------------------------------

#[test]
fn every_preset_has_positive_peaks_and_bandwidth() {
    let presets = HardwareSpec::presets();
    assert!(presets.len() >= 6, "catalog shrank below the suite minimum");
    for hw in &presets {
        assert!(hw.validate().is_empty(), "{}: {:?}", hw.name, hw.validate());
        for class in OpClass::ALL {
            assert!(hw.peak_gops(class) > 0.0, "{} {class}", hw.name);
        }
        assert!(hw.bandwidth_gbs > 0.0, "{}", hw.name);
    }
}

#[test]
fn every_preset_ridge_point_is_finite_and_class_consistent() {
    for hw in HardwareSpec::presets() {
        for class in OpClass::ALL {
            let ridge = hw.ridge_point(class);
            assert!(
                ridge.is_finite() && ridge > 0.0,
                "{} {class}: ridge {ridge}",
                hw.name
            );
            // The ridge point IS the roofline balance point.
            assert_eq!(ridge, hw.roofline(class).balance_point(), "{}", hw.name);
        }
        // DP peak never exceeds SP peak (validated), so with one shared
        // bandwidth the DP ridge can never exceed the SP ridge.
        assert!(
            hw.ridge_point(OpClass::Dp) <= hw.ridge_point(OpClass::Sp),
            "{}: DP ridge above SP ridge",
            hw.name
        );
    }
}

#[test]
fn preset_by_name_round_trips_every_catalog_name() {
    let presets = HardwareSpec::presets();
    for hw in &presets {
        let by_full = HardwareSpec::preset_by_name(&hw.name)
            .unwrap_or_else(|e| panic!("'{}' did not resolve: {e}", hw.name));
        assert_eq!(&by_full, hw, "full-name lookup must be exact");
        let by_lower = HardwareSpec::preset_by_name(&hw.name.to_lowercase()).unwrap();
        assert_eq!(&by_lower, hw);
        let by_upper = HardwareSpec::preset_by_name(&hw.name.to_uppercase()).unwrap();
        assert_eq!(&by_upper, hw);
    }
}
