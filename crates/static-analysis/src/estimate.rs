//! The operation/byte estimator: from a token stream to per-thread FLOP,
//! INTOP, and byte tallies.
//!
//! The estimator is deliberately the kind of analysis a careful reader (or
//! a reasoning LLM) can do from source alone: type-resolve operands through
//! a declaration symbol table, weight statements by loop trip counts
//! (resolving bounds against known launch parameters, guessing otherwise),
//! and count *requested* memory traffic from subscript expressions. It has
//! no cache model and no coalescing model — matching the information
//! actually present in the prompt.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::lexer::{lex, Token, TokenKind};
use crate::structure::{find_kernels, find_loops, KernelRegion};

/// Numeric type lattice used for operand resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NumType {
    Unknown,
    Int,
    Float,
    Double,
}

/// Estimated per-thread operation/byte tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OpTally {
    /// Single-precision FLOPs.
    pub flops_sp: f64,
    /// Double-precision FLOPs.
    pub flops_dp: f64,
    /// Integer operations.
    pub intops: f64,
    /// Bytes read (requested, pre-cache).
    pub read_bytes: f64,
    /// Bytes written.
    pub write_bytes: f64,
}

impl OpTally {
    /// Total requested bytes.
    pub fn total_bytes(&self) -> f64 {
        self.read_bytes + self.write_bytes
    }

    /// Static arithmetic intensity for an op class
    /// (`0` = SP, `1` = DP, `2` = INT ordering follows
    /// `pce_roofline::OpClass::ALL`).
    pub fn ai(&self, class_index: usize) -> f64 {
        let ops = match class_index {
            0 => self.flops_sp,
            1 => self.flops_dp,
            _ => self.intops,
        };
        let bytes = self.total_bytes();
        if bytes <= 0.0 {
            if ops > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            ops / bytes
        }
    }

    fn add_scaled(&mut self, other: &OpTally, w: f64) {
        self.flops_sp += other.flops_sp * w;
        self.flops_dp += other.flops_dp * w;
        self.intops += other.intops * w;
        self.read_bytes += other.read_bytes * w;
        self.write_bytes += other.write_bytes * w;
    }
}

/// Analysis result for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelAnalysis {
    /// Kernel name.
    pub name: String,
    /// True for OpenMP target regions.
    pub is_omp: bool,
    /// Per-thread (CUDA) or per-iteration (OMP) tally.
    pub tally: OpTally,
    /// Deepest loop nesting observed.
    pub max_loop_depth: u32,
    /// Product of resolved trip counts along the deepest nest (an
    /// iteration-weight indicator the surrogate models use as a
    /// compute-heaviness signal).
    pub trip_weight: f64,
}

/// Whole-file analysis result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceAnalysis {
    /// Per-kernel analyses, in source order.
    pub kernels: Vec<KernelAnalysis>,
    /// Flat whole-file tally (used by shallow/non-reasoning analysis).
    pub file_tally: OpTally,
    /// Hazard diagnostics from the lint rules ([`crate::diagnostics`]),
    /// sorted by span then rule. Empty for clean source.
    #[serde(default)]
    pub diagnostics: Vec<crate::diagnostics::Diagnostic>,
}

impl SourceAnalysis {
    /// The analysis for a kernel by name, or the first kernel, or `None`.
    pub fn kernel(&self, name: &str) -> Option<&KernelAnalysis> {
        self.kernels
            .iter()
            .find(|k| k.name == name)
            .or_else(|| self.kernels.first())
    }

    /// Number of error-severity diagnostics (correctness hazards).
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == crate::diagnostics::Severity::Error)
            .count()
    }
}

/// Options controlling the analysis.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Known launch parameters (problem sizes from CLI args) used to
    /// resolve identifier loop bounds.
    pub params: BTreeMap<String, u64>,
    /// Trip count assumed for loops whose bound cannot be resolved.
    pub default_trip: f64,
    /// When false, loop weighting is disabled (every statement counts
    /// once) — the "shallow reader" mode of non-reasoning surrogates.
    pub loop_aware: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            params: BTreeMap::new(),
            default_trip: 64.0,
            loop_aware: true,
        }
    }
}

/// Analyze a source file.
pub fn analyze(source: &str, opts: &AnalyzeOptions) -> SourceAnalysis {
    let tokens = lex(source);
    let regions = find_kernels(&tokens);

    let kernels = regions
        .iter()
        .map(|region| analyze_kernel(&tokens, region, opts))
        .collect();

    // Shallow whole-file tally: no loop weighting, whole token stream.
    let file_symbols = collect_symbols(&tokens, 0, tokens.len());
    let mut file_tally = OpTally::default();
    tally_flat(&tokens, (0, tokens.len()), &file_symbols, &mut file_tally);

    SourceAnalysis {
        kernels,
        file_tally,
        diagnostics: crate::diagnostics::diagnose_tokens(source, &tokens, &regions),
    }
}

fn analyze_kernel(
    tokens: &[Token<'_>],
    region: &KernelRegion,
    opts: &AnalyzeOptions,
) -> KernelAnalysis {
    // Symbol table: parameters + body declarations.
    let mut symbols = BTreeMap::new();
    if let Some((ps, pe)) = region.params {
        collect_symbols_into(tokens, ps, pe, &mut symbols);
    }
    collect_symbols_into(tokens, region.body.0, region.body.1, &mut symbols);

    let mut tally = OpTally::default();
    let mut max_depth = 0u32;
    let mut trip_weight = 1.0f64;
    walk(
        tokens,
        region.body,
        &symbols,
        opts,
        1.0,
        0,
        region.is_omp,
        &mut tally,
        &mut max_depth,
        &mut trip_weight,
    );

    KernelAnalysis {
        name: region.name.clone(),
        is_omp: region.is_omp,
        tally,
        max_loop_depth: max_depth,
        trip_weight,
    }
}

/// Recursive region walk: statements outside loops count at `weight`;
/// loop bodies multiply by trip count (unless the *outermost* OMP loop,
/// which is the parallel dimension and counts once per "thread").
#[allow(clippy::too_many_arguments)]
fn walk(
    tokens: &[Token<'_>],
    range: (usize, usize),
    symbols: &BTreeMap<&str, NumType>,
    opts: &AnalyzeOptions,
    weight: f64,
    depth: u32,
    omp_outer: bool,
    tally: &mut OpTally,
    max_depth: &mut u32,
    trip_weight: &mut f64,
) {
    *max_depth = (*max_depth).max(depth);
    let loops = find_loops(tokens, range);
    let mut cursor = range.0;
    for lp in &loops {
        // Flat stretch before this loop.
        let mut flat = OpTally::default();
        tally_flat(tokens, (cursor, lp.at), symbols, &mut flat);
        tally.add_scaled(&flat, weight);

        // The parallel dimension of an OMP outer loop contributes one
        // iteration per thread; loop-unaware analysis flattens every loop.
        let trip = if (omp_outer && depth == 0) || !opts.loop_aware {
            1.0
        } else {
            resolve_trip(lp.bound, opts)
        };
        if trip > 1.0 {
            *trip_weight *= trip;
        }
        // Loop-header overhead: one int compare + one increment per trip.
        tally.intops += 2.0 * trip * weight;
        walk(
            tokens,
            lp.body,
            symbols,
            opts,
            weight * trip,
            depth + 1,
            false,
            tally,
            max_depth,
            trip_weight,
        );
        cursor = lp.body.1;
    }
    let mut flat = OpTally::default();
    tally_flat(tokens, (cursor, range.1), symbols, &mut flat);
    tally.add_scaled(&flat, weight);
}

fn resolve_trip(bound: Option<Token<'_>>, opts: &AnalyzeOptions) -> f64 {
    match bound {
        Some(t) if t.kind == TokenKind::Number => parse_number(t.text).unwrap_or(opts.default_trip),
        Some(t) if t.kind == TokenKind::Ident => opts
            .params
            .get(t.text)
            .map(|&v| v as f64)
            .unwrap_or(opts.default_trip),
        _ => opts.default_trip,
    }
}

fn parse_number(text: &str) -> Option<f64> {
    // Check for a hex prefix *before* stripping suffix letters: hex digits
    // are alphabetic, so trimming first would eat them (0xFF -> "0").
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        let digits = hex.trim_end_matches(['u', 'U', 'l', 'L']);
        return u64::from_str_radix(digits, 16).ok().map(|v| v as f64);
    }
    let clean = text.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    clean.parse::<f64>().ok()
}

/// Count ops and memory accesses in a flat token stretch (no loop logic).
fn tally_flat(
    tokens: &[Token<'_>],
    range: (usize, usize),
    symbols: &BTreeMap<&str, NumType>,
    tally: &mut OpTally,
) {
    let (start, end) = (range.0, range.1.min(tokens.len()));
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => {
                let text = t.text;
                match text {
                    "+" | "-" | "*" | "/"
                        // Skip unary/pointer contexts: previous token must be
                        // an operand terminator.
                        if is_operand_end(tokens, i) => {
                            let ty = op_type(tokens, i, symbols);
                            charge_arith_n(tally, ty, 1.0);
                        }
                    "+=" | "-=" | "*=" | "/=" => {
                        let ty = op_type(tokens, i, symbols);
                        charge_arith_n(tally, ty, 1.0);
                    }
                    "%" | "&" | "|" | "^" | "<<" | ">>" | "%=" | "&=" | "|=" | "^=" | "<<="
                    | ">>="
                        if (is_operand_end(tokens, i) || text.ends_with('=')) => {
                            tally.intops += 1.0;
                        }
                    "++" | "--" => tally.intops += 1.0,
                    "<" | ">" | "<=" | ">=" | "==" | "!="
                        if is_operand_end(tokens, i) => {
                            tally.intops += 1.0;
                        }
                    "["
                        // Subscript on an identifier: a memory access.
                        if i > start && tokens[i - 1].kind == TokenKind::Ident => {
                            let array = tokens[i - 1].text;
                            if !is_builtin_index(array) {
                                let elem = elem_bytes(symbols.get(array).copied());
                                let close = crate::structure::match_paren_like(tokens, i, "[", "]");
                                let is_write = close + 1 < end
                                    && tokens[close + 1].kind == TokenKind::Punct
                                    && matches!(
                                        tokens[close + 1].text,
                                        "=" | "+=" | "-=" | "*=" | "/="
                                    );
                                if is_write {
                                    tally.write_bytes += elem;
                                    // Compound assignment also reads.
                                    if tokens[close + 1].text != "=" {
                                        tally.read_bytes += elem;
                                    }
                                } else {
                                    tally.read_bytes += elem;
                                }
                                // Index arithmetic.
                                tally.intops += 1.0;
                            }
                        }
                    _ => {}
                }
            }
            TokenKind::Ident
                // Intrinsic math calls.
                if i + 1 < end && tokens[i + 1].is("(") => {
                    if let Some((flops, ty)) = intrinsic_cost(t.text) {
                        charge_arith_n(tally, ty, flops);
                    }
                }
            _ => {}
        }
        i += 1;
    }
}

fn is_operand_end(tokens: &[Token<'_>], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &tokens[i - 1];
    matches!(prev.kind, TokenKind::Ident | TokenKind::Number) || prev.is(")") || prev.is("]")
}

fn is_builtin_index(name: &str) -> bool {
    matches!(name, "threadIdx" | "blockIdx" | "blockDim" | "gridDim")
}

fn elem_bytes(ty: Option<NumType>) -> f64 {
    match ty {
        Some(NumType::Double) => 8.0,
        Some(NumType::Float) => 4.0,
        Some(NumType::Int) => 4.0,
        _ => 4.0,
    }
}

fn charge_arith_n(tally: &mut OpTally, ty: NumType, n: f64) {
    match ty {
        NumType::Double => tally.flops_dp += n,
        NumType::Float => tally.flops_sp += n,
        NumType::Int | NumType::Unknown => tally.intops += n,
    }
}

/// Resolve the numeric type of the operation at punct index `i`.
fn op_type(tokens: &[Token<'_>], i: usize, symbols: &BTreeMap<&str, NumType>) -> NumType {
    let left = operand_type(tokens, i, -1, symbols);
    let right = operand_type(tokens, i, 1, symbols);
    left.max(right)
}

fn operand_type(
    tokens: &[Token<'_>],
    op_at: usize,
    dir: isize,
    symbols: &BTreeMap<&str, NumType>,
) -> NumType {
    let mut j = op_at as isize + dir;
    // Hop over one bracket group toward the operand's head.
    if j >= 0 && (j as usize) < tokens.len() {
        let t = &tokens[j as usize];
        if dir < 0 && (t.is("]") || t.is(")")) {
            // Walk back to the opener, then the ident before it.
            let (open, close) = if t.is("]") { ("[", "]") } else { ("(", ")") };
            let mut depth = 0;
            while j >= 0 {
                let tt = &tokens[j as usize];
                if tt.is(close) {
                    depth += 1;
                } else if tt.is(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            j -= 1; // the ident before '[' or '('
        }
    }
    if j < 0 || (j as usize) >= tokens.len() {
        return NumType::Unknown;
    }
    let t = &tokens[j as usize];
    match t.kind {
        TokenKind::Number => number_type(t.text),
        TokenKind::Ident => {
            // Member access (`obj.x`, `ptr->x`): the member name must not
            // be confused with a like-named variable. Builtin thread-index
            // members are integers; anything else is unknown.
            if j >= 1 {
                let prev = &tokens[(j - 1) as usize];
                if prev.is(".") || prev.is("->") {
                    if j >= 2 && is_builtin_index(tokens[(j - 2) as usize].text) {
                        return NumType::Int;
                    }
                    return NumType::Unknown;
                }
            }
            if let Some((_, ty)) = intrinsic_cost(t.text) {
                return ty;
            }
            symbols.get(t.text).copied().unwrap_or(NumType::Unknown)
        }
        _ => NumType::Unknown,
    }
}

/// Literal type from its spelling, letters compared case-insensitively.
fn number_type(text: &str) -> NumType {
    let bytes = text.as_bytes();
    let has = |letter: u8| bytes.iter().any(|b| b.eq_ignore_ascii_case(&letter));
    if bytes.len() >= 2 && bytes[..2].eq_ignore_ascii_case(b"0x") {
        return NumType::Int;
    }
    let is_floaty = has(b'.') || (has(b'e') && !has(b'x'));
    if !is_floaty {
        NumType::Int
    } else if bytes.last().is_some_and(|b| b.eq_ignore_ascii_case(&b'f')) {
        NumType::Float
    } else {
        NumType::Double
    }
}

/// (equivalent FLOPs, result type) of math intrinsics.
fn intrinsic_cost(name: &str) -> Option<(f64, NumType)> {
    let (flops, ty) = match name {
        "sqrtf" | "rsqrtf" | "__fsqrt_rn" | "fabsf" => (4.0, NumType::Float),
        "sqrt" | "rsqrt" | "fabs" => (4.0, NumType::Double),
        "expf" | "logf" | "__expf" | "__logf" | "exp2f" | "powf" => (8.0, NumType::Float),
        "exp" | "log" | "pow" | "exp2" => (8.0, NumType::Double),
        "sinf" | "cosf" | "tanf" | "__sinf" | "__cosf" | "atan2f" | "sincosf" => {
            (12.0, NumType::Float)
        }
        "sin" | "cos" | "tan" | "atan2" | "sincos" => (12.0, NumType::Double),
        "fmaf" | "__fmaf_rn" => (2.0, NumType::Float),
        "fma" => (2.0, NumType::Double),
        "fminf" | "fmaxf" => (1.0, NumType::Float),
        "fmin" | "fmax" => (1.0, NumType::Double),
        _ => return None,
    };
    Some((flops, ty))
}

fn collect_symbols<'a>(
    tokens: &[Token<'a>],
    start: usize,
    end: usize,
) -> BTreeMap<&'a str, NumType> {
    let mut map = BTreeMap::new();
    collect_symbols_into(tokens, start, end, &mut map);
    map
}

/// Harvest `type ident` declarations (including pointers and qualifiers).
fn collect_symbols_into<'a>(
    tokens: &[Token<'a>],
    start: usize,
    end: usize,
    map: &mut BTreeMap<&'a str, NumType>,
) {
    let end = end.min(tokens.len());
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            let ty = match t.text {
                "float" => Some(NumType::Float),
                "double" => Some(NumType::Double),
                "int" | "unsigned" | "long" | "short" | "size_t" | "uint32_t" | "int32_t"
                | "uint64_t" | "int64_t" | "char" => Some(NumType::Int),
                _ => None,
            };
            if let Some(ty) = ty {
                // Bind every identifier in the declarator list up to ; or )
                // or = (skip over *, &, const).
                let mut j = i + 1;
                while j < end {
                    let tj = &tokens[j];
                    if tj.is(";") || tj.is(")") || tj.is("=") || tj.is("{") {
                        break;
                    }
                    if tj.kind == TokenKind::Ident
                        && !matches!(tj.text, "const" | "restrict" | "__restrict__")
                    {
                        map.entry(tj.text).or_insert(ty);
                        // Only the first identifier after the type keyword:
                        // `float* a, float b` style lists re-enter via the
                        // next type keyword; `float a, b` is rare in kernels.
                        break;
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_default(src: &str) -> SourceAnalysis {
        analyze(src, &AnalyzeOptions::default())
    }

    #[test]
    fn parse_number_handles_hex_decimal_and_suffixes() {
        assert_eq!(parse_number("0xFF"), Some(255.0));
        assert_eq!(parse_number("0X1F"), Some(31.0));
        assert_eq!(parse_number("0xFFu"), Some(255.0));
        assert_eq!(parse_number("100"), Some(100.0));
        assert_eq!(parse_number("1024u"), Some(1024.0));
        assert_eq!(parse_number("2.5f"), Some(2.5));
        assert_eq!(parse_number("abc"), None);
    }

    const SAXPY: &str = r#"
__global__ void saxpy(int n, float a, const float* x, float* y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
"#;

    #[test]
    fn saxpy_counts_two_sp_flops_and_twelve_bytes() {
        let a = analyze_default(SAXPY);
        let k = &a.kernels[0];
        assert_eq!(k.name, "saxpy");
        // a * x[i] and + y[i]: two SP flops.
        assert!(
            (k.tally.flops_sp - 2.0).abs() < 1e-9,
            "sp={}",
            k.tally.flops_sp
        );
        assert_eq!(k.tally.flops_dp, 0.0);
        // Reads x[i], y[i]; writes y[i]: 8 read + 4 written.
        assert!(
            (k.tally.read_bytes - 8.0).abs() < 1e-9,
            "rd={}",
            k.tally.read_bytes
        );
        assert!((k.tally.write_bytes - 4.0).abs() < 1e-9);
    }

    #[test]
    fn double_kernel_counts_dp() {
        let src = r#"
__global__ void daxpy(int n, double a, const double* x, double* y) {
    int i = threadIdx.x;
    y[i] = a * x[i] + y[i];
}
"#;
        let a = analyze_default(src);
        let k = &a.kernels[0];
        assert!((k.tally.flops_dp - 2.0).abs() < 1e-9);
        assert_eq!(k.tally.flops_sp, 0.0);
        assert!((k.tally.read_bytes - 16.0).abs() < 1e-9);
        assert!((k.tally.write_bytes - 8.0).abs() < 1e-9);
    }

    #[test]
    fn constant_loop_bounds_multiply_work() {
        let src = r#"
__global__ void iterate(float* out) {
    float acc = 0.0f;
    for (int it = 0; it < 100; it++) {
        acc = acc * 1.5f + 2.0f;
    }
    out[threadIdx.x] = acc;
}
"#;
        let a = analyze_default(src);
        let k = &a.kernels[0];
        // 2 SP flops per iteration × 100.
        assert!(
            (k.tally.flops_sp - 200.0).abs() < 1e-9,
            "sp={}",
            k.tally.flops_sp
        );
        assert_eq!(k.max_loop_depth, 1);
        assert!((k.trip_weight - 100.0).abs() < 1e-9);
    }

    #[test]
    fn param_loop_bounds_resolve_from_options() {
        let src = r#"
__global__ void iters(float* out, int steps) {
    float acc = 1.0f;
    for (int s = 0; s < steps; ++s) { acc += 3.0f; }
    out[threadIdx.x] = acc;
}
"#;
        let mut opts = AnalyzeOptions::default();
        opts.params.insert("steps".into(), 1000);
        let a = analyze(src, &opts);
        assert!((a.kernels[0].tally.flops_sp - 1000.0).abs() < 1e-9);
        // Unresolved: falls back to default_trip.
        let fallback = analyze_default(src);
        assert!((fallback.kernels[0].tally.flops_sp - 64.0).abs() < 1e-9);
    }

    #[test]
    fn shallow_mode_ignores_loops() {
        let src = r#"
__global__ void heavy(float* out) {
    for (int i = 0; i < 100000; i++) { out[0] += 1.0f; }
}
"#;
        let opts = AnalyzeOptions {
            loop_aware: false,
            ..Default::default()
        };
        let a = analyze(src, &opts);
        assert!(a.kernels[0].tally.flops_sp <= 2.0);
    }

    #[test]
    fn intrinsics_are_weighted() {
        let src = r#"
__global__ void trig(float* out) {
    out[threadIdx.x] = sinf(0.5f) + sqrtf(2.0f);
}
"#;
        let a = analyze_default(src);
        // sinf 12 + sqrtf 4 + the '+' 1 = 17 SP flops.
        assert!((a.kernels[0].tally.flops_sp - 17.0).abs() < 1e-9);
    }

    #[test]
    fn omp_outer_loop_is_the_parallel_dimension() {
        let src = r#"
#pragma omp target teams distribute parallel for map(tofrom: y[0:n])
for (int i = 0; i < n; i++) {
    y[i] = a * y[i] + x[i];
}
"#;
        let mut opts = AnalyzeOptions::default();
        opts.params.insert("n".into(), 1_000_000);
        let a = analyze(src, &opts);
        let k = &a.kernels[0];
        assert!(k.is_omp);
        // Per-iteration, not ×1M: 2 unknown-type flops -> counted somewhere,
        // bytes from two reads + one write of unknown arrays (4B default).
        assert!(k.tally.total_bytes() <= 16.0);
    }

    #[test]
    fn nested_loops_compose() {
        let src = r#"
__global__ void mm(const float* a, const float* b, float* c) {
    float s = 0.0f;
    for (int i = 0; i < 16; i++) {
        for (int j = 0; j < 8; j++) {
            s += a[i] * b[j];
        }
    }
    c[threadIdx.x] = s;
}
"#;
        let a = analyze_default(src);
        let k = &a.kernels[0];
        // 2 SP flops × 128 iterations.
        assert!(
            (k.tally.flops_sp - 256.0).abs() < 1e-9,
            "sp={}",
            k.tally.flops_sp
        );
        assert_eq!(k.max_loop_depth, 2);
        assert!((k.trip_weight - 128.0).abs() < 1e-9);
    }

    #[test]
    fn compound_assignment_reads_and_writes() {
        let src = r#"
__global__ void acc(float* y) {
    y[threadIdx.x] += 1.0f;
}
"#;
        let a = analyze_default(src);
        let k = &a.kernels[0];
        assert!((k.tally.read_bytes - 4.0).abs() < 1e-9);
        assert!((k.tally.write_bytes - 4.0).abs() < 1e-9);
        assert!((k.tally.flops_sp - 1.0).abs() < 1e-9);
    }

    #[test]
    fn builtin_indices_are_not_memory() {
        let src = r#"
__global__ void idx(int* out) {
    out[threadIdx.x] = blockIdx.x;
}
"#;
        let a = analyze_default(src);
        // Only the out[] write counts as traffic.
        assert_eq!(a.kernels[0].tally.read_bytes, 0.0);
        assert!((a.kernels[0].tally.write_bytes - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ai_estimates_are_consistent() {
        let a = analyze_default(SAXPY);
        let t = &a.kernels[0].tally;
        assert!((t.ai(0) - t.flops_sp / t.total_bytes()).abs() < 1e-12);
        // No DP ops: zero AI.
        assert_eq!(t.ai(1), 0.0);
    }

    #[test]
    fn file_tally_covers_host_code_too() {
        let src = format!("float host_helper(float v) {{ return v * 2.0f; }}\n{SAXPY}");
        let a = analyze_default(&src);
        assert!(a.file_tally.flops_sp > a.kernels[0].tally.flops_sp);
    }

    #[test]
    fn empty_source_yields_empty_analysis() {
        let a = analyze_default("");
        assert!(a.kernels.is_empty());
        assert_eq!(a.file_tally, OpTally::default());
    }
}
