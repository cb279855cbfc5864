//! Structural recovery: find kernel entry points and loop nests in a token
//! stream.
//!
//! Two kinds of kernels are recognised, matching the paper's two corpus
//! languages (§2.1):
//!
//! * **CUDA** — functions declared `__global__ void name(args) { … }`,
//! * **OpenMP offload** — `#pragma omp target …` directives followed by a
//!   loop nest (possibly inside a function body).
//!
//! This is the only code that recovers `for` loops: the estimator's
//! [`find_loops`], OMP region recovery and the lint rules' [`all_loops`]
//! all go through one `parse_for`. Every recovered range lies inside the
//! token stream, whatever the input.

use crate::lexer::{Token, TokenKind};

/// A recovered kernel region: name plus the token range of its body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KernelRegion {
    /// Kernel name (`__global__` function name, or a synthesized
    /// `target_region_N` for anonymous OMP target regions).
    pub name: String,
    /// Half-open token index range of the body (inside the braces).
    pub body: (usize, usize),
    /// Token index range of the parameter list, when present.
    pub params: Option<(usize, usize)>,
    /// True for OpenMP target regions.
    pub is_omp: bool,
}

/// Find the matching closer for the bracket pair `open_s`/`close_s`
/// (`"{"`/`"}"`, `"("`/`")"`, `"["`/`"]"`) whose opener is at token index
/// `open`. Returns the closer's index, or `tokens.len()` if unbalanced.
pub(crate) fn match_paren_like(
    tokens: &[Token<'_>],
    open: usize,
    open_s: &str,
    close_s: &str,
) -> usize {
    debug_assert!(tokens[open].is(open_s));
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.is(open_s) {
                depth += 1;
            } else if t.is(close_s) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    tokens.len()
}

/// Locate all kernel regions in a token stream.
pub(crate) fn find_kernels(tokens: &[Token<'_>]) -> Vec<KernelRegion> {
    let mut kernels = Vec::new();
    let mut omp_counter = 0usize;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // CUDA: __global__ [launch_bounds...] void name ( ... ) { ... }
        if t.kind == TokenKind::Ident && t.text == "__global__" {
            if let Some(region) = parse_cuda_kernel(tokens, i) {
                i = region.body.1;
                kernels.push(region);
                continue;
            }
        }
        // OMP: #pragma omp target ... followed by a loop or block.
        if t.kind == TokenKind::Pragma && t.text.contains("omp") && t.text.contains("target") {
            if let Some(region) = parse_omp_region(tokens, i, omp_counter) {
                omp_counter += 1;
                i = region.body.1;
                kernels.push(region);
                continue;
            }
        }
        i += 1;
    }
    kernels
}

fn parse_cuda_kernel(tokens: &[Token<'_>], at: usize) -> Option<KernelRegion> {
    // Scan forward for the function name: the identifier immediately before
    // the first '(' after `__global__`.
    let mut j = at + 1;
    let mut name_idx = None;
    while j < tokens.len() && j < at + 16 {
        if tokens[j].is("(") {
            break;
        }
        if tokens[j].kind == TokenKind::Ident {
            name_idx = Some(j);
        }
        j += 1;
    }
    let name_idx = name_idx?;
    if j >= tokens.len() || !tokens[j].is("(") {
        return None;
    }
    let params_end = match_paren_like(tokens, j, "(", ")");
    // Body must open right after the parameter list (modulo qualifiers).
    let mut k = params_end + 1;
    while k < tokens.len() && !tokens[k].is("{") {
        if tokens[k].is(";") {
            return None; // forward declaration
        }
        k += 1;
    }
    if k >= tokens.len() {
        return None;
    }
    let body_end = match_paren_like(tokens, k, "{", "}");
    Some(KernelRegion {
        name: tokens[name_idx].text.to_string(),
        body: (k + 1, body_end),
        params: Some((j + 1, params_end)),
        is_omp: false,
    })
}

fn parse_omp_region(tokens: &[Token<'_>], at: usize, counter: usize) -> Option<KernelRegion> {
    // Skip stacked pragmas (`#pragma omp target` + `#pragma omp parallel for`).
    let j = (at + 1..tokens.len()).find(|&j| tokens[j].kind != TokenKind::Pragma)?;
    // The region body is either the following brace block or the following
    // `for` statement, header included so trip counts are visible.
    let body = if tokens[j].is("{") {
        (j + 1, match_paren_like(tokens, j, "{", "}"))
    } else {
        (j, parse_for(tokens, j, tokens.len())?.body.1)
    };
    Some(KernelRegion {
        name: format!("target_region_{counter}"),
        body,
        params: None,
        is_omp: true,
    })
}

/// A `for` loop found inside a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopInfo<'a> {
    /// Token index of the `for` keyword.
    pub at: usize,
    /// Induction variable: the identifier right before the first `=` in
    /// the header (`for (int i = 0; …` gives `i`), if any.
    pub var: Option<&'a str>,
    /// Trip-count bound expression: `Some(ident-or-number)` when the loop
    /// looks like `for (… ; i < BOUND; …)`, else `None`.
    pub bound: Option<Token<'a>>,
    /// Half-open token range of the loop body.
    pub body: (usize, usize),
}

/// Find the top-level `for` loops within a token range.
pub(crate) fn find_loops<'a>(tokens: &[Token<'a>], range: (usize, usize)) -> Vec<LoopInfo<'a>> {
    let mut loops = Vec::new();
    let mut i = range.0;
    while i < range.1.min(tokens.len()) {
        if let Some(info) = parse_for(tokens, i, range.1) {
            i = info.body.1;
            loops.push(info);
            continue;
        }
        i += 1;
    }
    loops
}

/// Every `for` loop within a token range at any nesting depth, in source
/// order, so each outer loop comes before the loops in its body. Each
/// loop is parsed against the end of `range`: a loop nested in a braceless
/// body, which [`find_loops`] cuts off at the first `;` of the inner
/// header, is still found.
pub(crate) fn all_loops<'a>(tokens: &[Token<'a>], range: (usize, usize)) -> Vec<LoopInfo<'a>> {
    (range.0..range.1.min(tokens.len()))
        .filter_map(|i| parse_for(tokens, i, range.1))
        .collect()
}

/// Parse the `for` loop whose keyword is at `at`, if its header closes
/// before `limit`.
fn parse_for<'a>(tokens: &[Token<'a>], at: usize, limit: usize) -> Option<LoopInfo<'a>> {
    if !tokens[at].is("for") {
        return None;
    }
    let limit = limit.min(tokens.len());
    let header_end = paren_after(tokens, at, limit)?;
    let header = &tokens[at + 2..header_end];
    let var = header
        .windows(2)
        .find(|w| w[0].kind == TokenKind::Ident && w[1].is("="))
        .map(|w| w[0].text);
    // The bound is the number or ident after the last `<` / `<=` in the
    // condition (the second `;`-separated clause).
    let condition = header.split(|t| t.is(";")).nth(1).unwrap_or_default();
    let bound = condition
        .windows(2)
        .rev()
        .find(|w| {
            (w[0].is("<") || w[0].is("<="))
                && matches!(w[1].kind, TokenKind::Ident | TokenKind::Number)
        })
        .map(|w| w[1]);
    let (body, _) = stmt_or_block(tokens, header_end + 1, limit);
    Some(LoopInfo {
        at,
        var,
        bound,
        body,
    })
}

/// The token index of the `)` matching the `(` right after `i`, if it
/// closes before `limit`.
pub(crate) fn paren_after(tokens: &[Token<'_>], i: usize, limit: usize) -> Option<usize> {
    if i + 1 < limit && tokens[i + 1].is("(") {
        let end = match_paren_like(tokens, i + 1, "(", ")");
        (end < limit).then_some(end)
    } else {
        None
    }
}

/// Body range of the statement-or-block starting at `start` (a brace
/// block's inside, or up to and including the next `;`), clamped to
/// `limit` and the token stream, plus the resume index after it.
pub(crate) fn stmt_or_block(
    tokens: &[Token<'_>],
    start: usize,
    limit: usize,
) -> ((usize, usize), usize) {
    let limit = limit.min(tokens.len());
    if start < limit && tokens[start].is("{") {
        let end = match_paren_like(tokens, start, "{", "}");
        ((start + 1, end.min(limit)), (end + 1).min(limit + 1))
    } else {
        let mut j = start;
        while j < limit && !tokens[j].is(";") {
            j += 1;
        }
        ((start, (j + 1).min(limit)), (j + 1).min(limit + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_cuda_kernel_and_name() {
        let toks = lex("__global__ void saxpy(int n, float* x) { x[0] = 1.0f; }");
        let kernels = find_kernels(&toks);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].name, "saxpy");
        assert!(!kernels[0].is_omp);
        assert!(kernels[0].params.is_some());
    }

    #[test]
    fn skips_forward_declarations() {
        let toks = lex("__global__ void decl(int n); __global__ void real(int n) { }");
        let kernels = find_kernels(&toks);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].name, "real");
    }

    #[test]
    fn finds_multiple_kernels() {
        let toks =
            lex("__global__ void a() { } __global__ void b() { int x = 0; } void host() { }");
        let names: Vec<_> = find_kernels(&toks).into_iter().map(|k| k.name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn finds_omp_target_for_region() {
        let src = "#pragma omp target teams distribute parallel for\nfor (int i = 0; i < n; i++) y[i] += x[i];";
        let kernels = find_kernels(&lex(src));
        assert_eq!(kernels.len(), 1);
        assert!(kernels[0].is_omp);
        assert_eq!(kernels[0].name, "target_region_0");
    }

    #[test]
    fn finds_omp_target_block_region() {
        let src = "#pragma omp target\n{ a[0] = 1; }";
        let kernels = find_kernels(&lex(src));
        assert_eq!(kernels.len(), 1);
    }

    #[test]
    fn stacked_pragmas_are_skipped() {
        let src = "#pragma omp target data map(to: x)\n#pragma omp target teams\nfor (int i = 0; i < 10; ++i) s += x[i];";
        let kernels = find_kernels(&lex(src));
        assert_eq!(kernels.len(), 1);
    }

    #[test]
    fn brace_matching_is_balanced() {
        let toks = lex("{ { } { { } } }");
        assert_eq!(match_paren_like(&toks, 0, "{", "}"), toks.len() - 1);
    }

    #[test]
    fn loop_bound_extraction() {
        let toks = lex("for (int i = 0; i < 128; i++) { x += 1; }");
        let loops = find_loops(&toks, (0, toks.len()));
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].bound.unwrap().text, "128");
    }

    #[test]
    fn loop_bound_identifier() {
        let toks = lex("for (int i = 0; i < n; ++i) y[i] = 0;");
        let loops = find_loops(&toks, (0, toks.len()));
        assert_eq!(loops[0].bound.unwrap().text, "n");
    }

    #[test]
    fn nested_loops_found_at_top_level_only() {
        let toks = lex("for (int i = 0; i < 4; i++) { for (int j = 0; j < 8; j++) { s += 1; } }");
        let outer = find_loops(&toks, (0, toks.len()));
        assert_eq!(outer.len(), 1);
        let inner = find_loops(&toks, outer[0].body);
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].bound.unwrap().text, "8");
    }

    #[test]
    fn all_loops_finds_braceless_nests_with_their_variables() {
        // `find_loops` cuts the outer body at the inner header's first `;`,
        // but every loop is still recovered, outer first.
        let toks = lex("for (int i = 0; i < n; i++) for (j = 0; j < 8; j++) s += a[j];");
        let loops = all_loops(&toks, (0, toks.len()));
        let vars: Vec<_> = loops.iter().map(|lp| lp.var).collect();
        assert_eq!(vars, vec![Some("i"), Some("j")]);
        assert_eq!(loops[1].bound.unwrap().text, "8");
        assert_eq!(find_loops(&toks, (0, toks.len())).len(), 1);
    }

    #[test]
    fn unclosed_omp_loop_header_is_no_region_and_bodies_stay_in_the_stream() {
        let src = "#pragma omp target teams distribute parallel for\nfor (long i = 0; i < n; i++";
        let toks = lex(src);
        assert_eq!(toks.len(), 14);
        assert_eq!(find_kernels(&toks), vec![]);

        for src in [
            "#pragma omp target teams distribute parallel for\n\
             for (long i = 0; i < n; i++) { for (int k = 0; k < 4; k++) y[i] += x[k]; }",
            "#pragma omp target teams distribute parallel for\n\
             for (long i = 0; i < n; i++) y[i] += a * x[i];",
            "__global__ void k(int n, float* y) {\n\
             \x20 for (int s = 0; s < n; s++) { y[threadIdx.x] += 1.0f; }\n}",
        ] {
            let toks = lex(src);
            for n in 0..=toks.len() {
                let prefix = &toks[..n];
                for region in find_kernels(prefix) {
                    let (lo, hi) = region.body;
                    assert!(lo <= hi && hi <= n, "{region:?} in {n} tokens of {src:?}");
                    for lp in all_loops(prefix, region.body) {
                        assert!(
                            lp.body.0 <= lp.body.1 && lp.body.1 <= n,
                            "{lp:?} in {n} tokens of {src:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loop_without_braces() {
        let toks = lex("for (int i = 0; i < 10; i++) s += a[i];");
        let loops = find_loops(&toks, (0, toks.len()));
        assert_eq!(loops.len(), 1);
        // Body covers the single statement.
        assert!(loops[0].body.1 > loops[0].body.0);
    }
}
