//! Fuzz-style property tests for the prompt parsers and the static
//! analyzer: whatever bytes a (possibly fault-injected) completion hands
//! back, `parse_classify`, `parse_rq1`, and `Boundedness::parse` must
//! return a structured result — never panic — and whatever bytes a
//! `predict src=...` client sends, `lex`/`analyze`/`diagnose` must do
//! the same, with every token's text the source at its span. Mutations
//! mirror the chaos layer's fault kinds: truncation at arbitrary char
//! boundaries, random splices, and refusal text.

use proptest::prelude::*;

use parallel_code_estimation::fault::{corrupt_text, FaultKind, REFUSAL_TEXT};
use parallel_code_estimation::llm::parse::{parse_classify, parse_rq1};
use parallel_code_estimation::prompt::{
    generate_rq1_suite, render_classify_prompt, render_rq1_prompt, ClassifyRequest, ShotStyle,
};
use parallel_code_estimation::roofline::{Boundedness, HardwareSpec};
use parallel_code_estimation::static_analysis::{
    analyze, diagnose, lex, AnalyzeOptions, TokenKind,
};

/// A real Fig.-4 classification prompt to mutate.
fn classify_prompt() -> String {
    render_classify_prompt(
        &ClassifyRequest {
            language: "CUDA".to_string(),
            kernel_name: "saxpy_like".to_string(),
            hardware: HardwareSpec::rtx_3080(),
            geometry: "grid (128, 1, 1), block (256, 1, 1)".to_string(),
            args: vec!["n=1048576".to_string()],
            source: "__global__ void saxpy_like(float* y) { /* ... */ }".to_string(),
        },
        ShotStyle::ZeroShot,
    )
}

/// A real RQ1 prompt to mutate.
fn rq1_prompt() -> String {
    let suite = generate_rq1_suite(4, 0x51);
    render_rq1_prompt(&suite, 0, 2, false)
}

/// A real CUDA kernel (tree reduction with shared memory, barriers, and
/// a strided tail loop) to mutate for the static-analysis properties.
fn kernel_source() -> String {
    "__global__ void reduce_sum(long n, const float* in, float* out) {\n\
     \x20 __shared__ float buf[256];\n\
     \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
     \x20 buf[threadIdx.x] = (i < n) ? in[i] : 0; /* guarded load */\n\
     \x20 __syncthreads();\n\
     \x20 for (int s = 128; s > 0; s >>= 1) {\n\
     \x20   if (threadIdx.x < s) buf[threadIdx.x] += buf[threadIdx.x + s];\n\
     \x20   __syncthreads();\n\
     \x20 }\n\
     \x20 if (threadIdx.x == 0) out[blockIdx.x] = buf[0];\n}\n"
        .to_string()
}

/// The lexer's zero-copy contract over `src`: each token's text is the
/// source at its span, spans increase without overlapping, and a pragma
/// token starts with its `#`.
fn assert_token_spans(src: &str) {
    let mut prev_end = 0;
    for t in lex(src) {
        let (start, end) = t.span;
        prop_assert!(
            prev_end <= start && start < end,
            "{t:?} after byte {prev_end}"
        );
        prop_assert_eq!(src.get(start..end), Some(t.text), "{:?}", t);
        if t.kind == TokenKind::Pragma {
            prop_assert!(t.text.starts_with('#'), "{t:?}");
        }
        prev_end = end;
    }
}

/// Truncate at the nearest char boundary at or below `at`.
fn truncate_clean(s: &str, at: usize) -> &str {
    let mut cut = at.min(s.len());
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    &s[..cut]
}

proptest! {
    #[test]
    fn parsers_never_panic_on_arbitrary_strings(text in "\\PC{0,300}") {
        // Any outcome is acceptable; getting one without unwinding is the
        // property under test.
        let _ = parse_classify(&text);
        let _ = parse_rq1(&text);
        let _ = Boundedness::parse(&text);
    }

    #[test]
    fn parsers_never_panic_on_truncated_real_prompts(at in 0usize..6000) {
        let classify = classify_prompt();
        let rq1 = rq1_prompt();
        let _ = parse_classify(truncate_clean(&classify, at));
        let _ = parse_rq1(truncate_clean(&rq1, at));
    }

    #[test]
    fn parsers_never_panic_on_spliced_real_prompts(
        at in 0usize..4000,
        splice in "[ -~\n{}\"]{0,40}",
    ) {
        let base = classify_prompt();
        let cut = truncate_clean(&base, at);
        let mutated = format!("{cut}{splice}{}", truncate_clean(&base, at / 2));
        let _ = parse_classify(&mutated);
        let _ = parse_rq1(&mutated);
        let _ = Boundedness::parse(&mutated);
    }

    #[test]
    fn static_analysis_never_panics_on_arbitrary_source(text in "\\PC{0,300}") {
        // Any source a raw `predict src=...` client can send must lex,
        // analyze, and diagnose to a structured (possibly empty) result.
        assert_token_spans(&text);
        let _ = analyze(&text, &AnalyzeOptions::default());
        let _ = diagnose(&text);
    }

    #[test]
    fn static_analysis_never_panics_on_truncated_kernels(at in 0usize..600) {
        let src = kernel_source();
        let cut = truncate_clean(&src, at);
        let _ = lex(cut);
        let _ = analyze(cut, &AnalyzeOptions::default());
        let _ = diagnose(cut);
    }

    #[test]
    fn static_analysis_never_panics_on_spliced_kernels(
        at in 0usize..600,
        splice in "[ -~\n{}\"/*#\\\\]{0,40}",
    ) {
        // Splices cover the lexer's hard cases: unterminated comments
        // and strings, stray backslash continuations, orphan braces.
        let src = kernel_source();
        let mutated = format!(
            "{}{splice}{}",
            truncate_clean(&src, at),
            truncate_clean(&src, at / 2)
        );
        assert_token_spans(&mutated);
        let _ = analyze(&mutated, &AnalyzeOptions::default());
        let diags = diagnose(&mutated);
        // Whatever fires must carry spans inside the mutated source.
        for d in &diags {
            prop_assert!(d.span.start <= d.span.end);
            prop_assert!(d.span.end <= mutated.len());
        }
    }

    #[test]
    fn injected_corruptions_always_parse_to_structured_failures(
        label in prop::sample::select(vec!["Compute-bound", "Bandwidth-bound"]),
    ) {
        // The engine's body corruptions must land in the invalid/refused
        // ledger columns, so the verdict parser must reject all of them
        // without panicking.
        for kind in FaultKind::ALL {
            if let Some(bad) = corrupt_text(kind, label) {
                prop_assert_eq!(Boundedness::parse(&bad), None, "{:?}", kind);
            }
        }
        prop_assert_eq!(Boundedness::parse(REFUSAL_TEXT), None);
    }
}

#[test]
fn well_formed_prompts_still_parse_after_hardening() {
    // The Result-returning parsers keep accepting what the renderers emit.
    assert!(parse_classify(&classify_prompt()).is_ok());
    assert!(parse_rq1(&rq1_prompt()).is_ok());
}
