//! Structural recovery: find kernel entry points and loop nests in a token
//! stream.
//!
//! Two kinds of kernels are recognised, matching the paper's two corpus
//! languages (§2.1):
//!
//! * **CUDA** — functions declared `__global__ void name(args) { … }`,
//! * **OpenMP offload** — `#pragma omp target …` directives followed by a
//!   loop nest (possibly inside a function body).

use crate::lexer::{Token, TokenKind};

/// A recovered kernel region: name plus the token range of its body.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRegion {
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
pub fn match_paren_like(tokens: &[Token], open: usize, open_s: &str, close_s: &str) -> usize {
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
pub fn find_kernels(tokens: &[Token]) -> Vec<KernelRegion> {
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

fn parse_cuda_kernel(tokens: &[Token], at: usize) -> Option<KernelRegion> {
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
        name: tokens[name_idx].text.clone(),
        body: (k + 1, body_end),
        params: Some((j + 1, params_end)),
        is_omp: false,
    })
}

fn parse_omp_region(tokens: &[Token], at: usize, counter: usize) -> Option<KernelRegion> {
    // The region body is either the following brace block or the following
    // `for` statement (take its body plus header).
    let mut j = at + 1;
    // Skip stacked pragmas (`#pragma omp target` + `#pragma omp parallel for`).
    while j < tokens.len() && tokens[j].kind == TokenKind::Pragma {
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    if tokens[j].is("{") {
        let end = match_paren_like(tokens, j, "{", "}");
        return Some(KernelRegion {
            name: format!("target_region_{counter}"),
            body: (j + 1, end),
            params: None,
            is_omp: true,
        });
    }
    if tokens[j].kind == TokenKind::Ident && tokens[j].text == "for" {
        // Find the loop body: after the for(...) header.
        let paren = (j + 1 < tokens.len() && tokens[j + 1].is("(")).then_some(j + 1)?;
        let header_end = match_paren_like(tokens, paren, "(", ")");
        let mut k = header_end + 1;
        let end = if k < tokens.len() && tokens[k].is("{") {
            match_paren_like(tokens, k, "{", "}")
        } else {
            // Single-statement body: up to the next ';' (crude but safe).
            while k < tokens.len() && !tokens[k].is(";") {
                k += 1;
            }
            k + 1
        };
        return Some(KernelRegion {
            name: format!("target_region_{counter}"),
            // Include the for-header so trip counts are visible.
            body: (j, end),
            params: None,
            is_omp: true,
        });
    }
    None
}

/// A `for` loop found inside a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// Token index of the `for` keyword.
    pub at: usize,
    /// Trip-count bound expression: `Some(ident-or-number)` when the loop
    /// looks like `for (… ; i < BOUND; …)`, else `None`.
    pub bound: Option<Token>,
    /// Half-open token range of the loop body.
    pub body: (usize, usize),
}

/// Find the top-level `for` loops within a token range.
pub fn find_loops(tokens: &[Token], range: (usize, usize)) -> Vec<LoopInfo> {
    let mut loops = Vec::new();
    let mut i = range.0;
    while i < range.1.min(tokens.len()) {
        if tokens[i].kind == TokenKind::Ident && tokens[i].text == "for" {
            if let Some(info) = parse_for(tokens, i, range.1) {
                i = info.body.1;
                loops.push(info);
                continue;
            }
        }
        i += 1;
    }
    loops
}

fn parse_for(tokens: &[Token], at: usize, limit: usize) -> Option<LoopInfo> {
    if at + 1 >= tokens.len() || !tokens[at + 1].is("(") {
        return None;
    }
    let header_end = match_paren_like(tokens, at + 1, "(", ")");
    if header_end >= limit {
        return None;
    }
    // Extract the bound: look for `< BOUND` or `<= BOUND` in the condition
    // (the second ;-separated clause).
    let mut bound = None;
    let mut semis = 0;
    let mut k = at + 2;
    while k < header_end {
        if tokens[k].is(";") {
            semis += 1;
        } else if semis == 1 && (tokens[k].is("<") || tokens[k].is("<=")) {
            // Bound is the next number/ident token; prefer the last token
            // before the ';' to catch simple `n` or `n_elems`.
            if k + 1 < header_end
                && matches!(tokens[k + 1].kind, TokenKind::Ident | TokenKind::Number)
            {
                bound = Some(tokens[k + 1].clone());
            }
        }
        k += 1;
    }
    let mut b = header_end + 1;
    let body = if b < tokens.len() && tokens[b].is("{") {
        let end = match_paren_like(tokens, b, "{", "}");
        (b + 1, end)
    } else {
        while b < tokens.len() && !tokens[b].is(";") && b < limit {
            b += 1;
        }
        (header_end + 1, (b + 1).min(limit))
    };
    Some(LoopInfo { at, bound, body })
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
        assert_eq!(loops[0].bound.as_ref().unwrap().text, "128");
    }

    #[test]
    fn loop_bound_identifier() {
        let toks = lex("for (int i = 0; i < n; ++i) y[i] = 0;");
        let loops = find_loops(&toks, (0, toks.len()));
        assert_eq!(loops[0].bound.as_ref().unwrap().text, "n");
    }

    #[test]
    fn nested_loops_found_at_top_level_only() {
        let toks = lex("for (int i = 0; i < 4; i++) { for (int j = 0; j < 8; j++) { s += 1; } }");
        let outer = find_loops(&toks, (0, toks.len()));
        assert_eq!(outer.len(), 1);
        let inner = find_loops(&toks, outer[0].body);
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].bound.as_ref().unwrap().text, "8");
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
