//! Rule-based hazard diagnostics over kernel source.
//!
//! The estimator in [`crate::estimate`] counts ops and bytes; this module
//! reads the same token stream for the *hazards* that distinguish parallel
//! kernels: data races, missing barriers, serialized accumulator chains,
//! and uncoalesced access. Each finding is a typed [`Diagnostic`] with a
//! stable byte [`Span`] into the original source.
//!
//! The rules are deliberately token-level (no real dataflow): they mirror
//! what a careful human reviewer — or the paper's "LLM as static analyst"
//! — can conclude from source text alone, and they degrade safely on
//! malformed input because the lexer and structural recovery never fail.
//!
//! Severity policy: rules that diagnose *incorrect* parallel code
//! (races, missing reductions, divergent barriers) are
//! [`Severity::Error`]; rules that diagnose *slow but correct* code
//! (serialized accumulators, strided subscripts) are
//! [`Severity::Warning`]. The shipped corpus is error-clean by
//! construction; warnings are expected and informative.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;

use crate::lexer::{lex, Token, TokenKind};
use crate::structure::{
    all_loops, find_kernels, match_paren_like, paren_after, stmt_or_block, KernelRegion, LoopInfo,
};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Likely-slow but correct code (performance hazard).
    Warning,
    /// Likely-incorrect parallel code (correctness hazard).
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The registered lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum RuleId {
    /// Shared-memory write→read across threads without `__syncthreads()`.
    SharedRace,
    /// Accumulation into a global array with a thread-independent index
    /// and no `atomicAdd`.
    GlobalRace,
    /// OMP parallel-for accumulation into a scalar declared outside the
    /// region without a `reduction(...)` clause.
    OmpReduction,
    /// `__syncthreads()` inside a thread-divergent branch.
    BarrierDivergence,
    /// Loop-carried scalar accumulator chain (serialized FMA chain).
    LoopCarriedDep,
    /// Thread- or innermost-loop-index multiplied inside a subscript:
    /// strided, uncoalesced access.
    StridedAccess,
}

impl RuleId {
    /// Stable kebab-case rule name (used in reports, CSV, and tests).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::SharedRace => "shared-race",
            RuleId::GlobalRace => "global-race",
            RuleId::OmpReduction => "omp-reduction",
            RuleId::BarrierDivergence => "barrier-divergence",
            RuleId::LoopCarriedDep => "loop-carried-dep",
            RuleId::StridedAccess => "strided-access",
        }
    }

    /// The severity this rule always reports at.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::SharedRace
            | RuleId::GlobalRace
            | RuleId::OmpReduction
            | RuleId::BarrierDivergence => Severity::Error,
            RuleId::LoopCarriedDep | RuleId::StridedAccess => Severity::Warning,
        }
    }

    /// One-line description of what the rule catches.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::SharedRace => {
                "shared-memory write then cross-thread read without __syncthreads()"
            }
            RuleId::GlobalRace => {
                "global accumulation with a thread-independent index and no atomicAdd"
            }
            RuleId::OmpReduction => {
                "OMP parallel-for accumulates into a shared scalar without reduction(...)"
            }
            RuleId::BarrierDivergence => "__syncthreads() inside a thread-divergent branch",
            RuleId::LoopCarriedDep => "loop-carried scalar accumulator serializes the loop",
            RuleId::StridedAccess => "index multiplied inside a subscript: strided access",
        }
    }

    /// Every registered rule, in report order.
    pub fn all() -> [RuleId; 6] {
        [
            RuleId::SharedRace,
            RuleId::GlobalRace,
            RuleId::OmpReduction,
            RuleId::BarrierDivergence,
            RuleId::LoopCarriedDep,
            RuleId::StridedAccess,
        ]
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// A resolved source location: byte offsets plus 1-based line / column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Byte offset of the start of the flagged token(s).
    pub start: usize,
    /// Byte offset one past the end.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column (in bytes) of `start` within its line.
    pub col: u32,
}

impl Span {
    /// Resolve a byte range against the source it indexes.
    pub fn locate(source: &str, start: usize, end: usize) -> Span {
        let mut line = 1u32;
        let mut col = 1u32;
        for b in source.as_bytes().iter().take(start.min(source.len())) {
            if *b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Span {
            start,
            end,
            line,
            col,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity (always `rule.severity()`).
    pub severity: Severity,
    /// Stable location of the offending token(s).
    pub span: Span,
    /// Human-readable explanation, deterministic for a given source.
    pub message: String,
    /// The kernel the finding is in.
    pub kernel: String,
}

/// Diagnose a source string: lex, recover kernels, run every rule.
///
/// Deterministic and total: any input produces a (possibly empty) list,
/// ordered by span start then rule.
pub fn diagnose(source: &str) -> Vec<Diagnostic> {
    let tokens = lex(source);
    let kernels = find_kernels(&tokens);
    diagnose_tokens(source, &tokens, &kernels)
}

/// [`diagnose`] against an existing token stream and kernel set, so
/// the estimator's `analyze` doesn't lex twice.
pub(crate) fn diagnose_tokens(
    source: &str,
    tokens: &[Token<'_>],
    kernels: &[KernelRegion],
) -> Vec<Diagnostic> {
    let mut sink = Sink::default();
    for kernel in kernels {
        let loops = all_loops(tokens, kernel.body);
        let inductions: BTreeSet<&str> = loops.iter().filter_map(|lp| lp.var).collect();
        if kernel.is_omp {
            check_omp_reduction(source, tokens, kernel, &inductions, &mut sink);
            check_strided_omp(source, tokens, kernel, &loops, &mut sink);
        } else {
            let ctx = CudaCtx::new(tokens, kernel);
            let mut state = RaceState::default();
            walk_range(source, &ctx, kernel.body, false, &mut state, &mut sink);
            check_global_subscripts(source, &ctx, &mut sink);
        }
        check_loop_carried(source, tokens, kernel, &loops, &inductions, &mut sink);
    }
    let mut out = sink.diags;
    out.sort_by_key(|d| (d.span.start, d.rule));
    out
}

/// Collects diagnostics, deduplicating by (rule, span start).
#[derive(Default)]
struct Sink {
    diags: Vec<Diagnostic>,
    seen: BTreeSet<(RuleId, usize)>,
}

impl Sink {
    fn emit(&mut self, source: &str, rule: RuleId, tok: &Token<'_>, kernel: &str, message: String) {
        if !self.seen.insert((rule, tok.span.0)) {
            return;
        }
        self.diags.push(Diagnostic {
            rule,
            severity: rule.severity(),
            span: Span::locate(source, tok.span.0, tok.span.1),
            message,
            kernel: kernel.to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// Shared context for the CUDA rules.
// ---------------------------------------------------------------------------

/// What every CUDA rule reads; the name sets borrow from the source,
/// like the tokens.
struct CudaCtx<'t, 'a> {
    tokens: &'t [Token<'a>],
    kernel: &'t KernelRegion,
    /// `__shared__` array names declared in the kernel body.
    shared: BTreeSet<&'a str>,
    /// Pointer/array parameter names (global memory).
    params: BTreeSet<&'a str>,
    /// Idents derived (transitively) from any threadIdx/blockIdx component.
    thread_taint: BTreeSet<&'a str>,
    /// Idents derived (transitively) from `threadIdx.x` specifically —
    /// the coalescing-relevant lane index.
    lane_taint: BTreeSet<&'a str>,
}

impl<'t, 'a> CudaCtx<'t, 'a> {
    fn new(tokens: &'t [Token<'a>], kernel: &'t KernelRegion) -> Self {
        let shared = find_shared_arrays(tokens, kernel.body);
        let params = kernel
            .params
            .map(|range| find_param_names(tokens, range))
            .unwrap_or_default();
        let (thread_taint, lane_taint) = compute_taint(tokens, kernel.body);
        CudaCtx {
            tokens,
            kernel,
            shared,
            params,
            thread_taint,
            lane_taint,
        }
    }
}

/// Names of `__shared__` arrays declared within a token range.
fn find_shared_arrays<'a>(tokens: &[Token<'a>], range: (usize, usize)) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    let hi = range.1.min(tokens.len());
    let mut i = range.0;
    while i < hi {
        if tokens[i].is("__shared__") {
            // Scan forward for the first ident immediately followed by '['.
            let mut j = i + 1;
            while j + 1 < hi && !tokens[j].is(";") {
                if tokens[j].kind == TokenKind::Ident && tokens[j + 1].is("[") {
                    out.insert(tokens[j].text);
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Parameter names from a parameter-list token range: the last ident of
/// each comma-separated declarator.
fn find_param_names<'a>(tokens: &[Token<'a>], range: (usize, usize)) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    let hi = range.1.min(tokens.len());
    let mut last_ident: Option<&str> = None;
    let mut i = range.0;
    while i < hi {
        let t = &tokens[i];
        if t.is(",") {
            if let Some(name) = last_ident.take() {
                out.insert(name);
            }
        } else if t.kind == TokenKind::Ident {
            last_ident = Some(t.text);
        }
        i += 1;
    }
    if let Some(name) = last_ident {
        out.insert(name);
    }
    out
}

/// Whether the token at `i` starts a `threadIdx.x` component reference;
/// returns the matched component (`"x"`, `"y"`, `"z"`) when it does.
fn thread_component(tokens: &[Token<'_>], i: usize, base: &str) -> Option<&'static str> {
    if !tokens[i].is(base) {
        return None;
    }
    if i + 2 < tokens.len() && tokens[i + 1].is(".") {
        for c in ["x", "y", "z"] {
            if tokens[i + 2].is(c) {
                return Some(c);
            }
        }
    }
    None
}

/// Two-pass taint propagation over simple assignments: an ident assigned
/// from an expression mentioning threadIdx/blockIdx (or an already-tainted
/// ident) becomes tainted. The second set tracks `threadIdx.x` only — the
/// lane index whose scaling breaks coalescing.
fn compute_taint<'a>(
    tokens: &[Token<'a>],
    range: (usize, usize),
) -> (BTreeSet<&'a str>, BTreeSet<&'a str>) {
    let mut thread = BTreeSet::new();
    let mut lane = BTreeSet::new();
    let hi = range.1.min(tokens.len());
    for _pass in 0..2 {
        let mut i = range.0;
        while i + 1 < hi {
            // LHS: plain ident followed by '=' (not '==', not an array store).
            let is_assign = tokens[i].kind == TokenKind::Ident
                && tokens[i + 1].is("=")
                && (i == range.0 || !tokens[i - 1].is("]"));
            if is_assign {
                let lhs = tokens[i].text;
                let mut j = i + 2;
                let mut rhs_thread = false;
                let mut rhs_lane = false;
                while j < hi && !tokens[j].is(";") {
                    if tokens[j].kind == TokenKind::Ident {
                        if tokens[j].is("threadIdx") || tokens[j].is("blockIdx") {
                            rhs_thread = true;
                            if thread_component(tokens, j, "threadIdx") == Some("x") {
                                rhs_lane = true;
                            }
                        } else {
                            rhs_thread |= thread.contains(tokens[j].text);
                            rhs_lane |= lane.contains(tokens[j].text);
                        }
                    }
                    j += 1;
                }
                if rhs_thread {
                    thread.insert(lhs);
                }
                if rhs_lane {
                    lane.insert(lhs);
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }
    (thread, lane)
}

// ---------------------------------------------------------------------------
// Statement walker: shared-memory races and divergent barriers.
// ---------------------------------------------------------------------------

/// Pending unsynchronized accesses per shared array: index-expression
/// text → token index of the access.
#[derive(Default, Clone)]
struct RaceState<'a> {
    writes: BTreeMap<&'a str, BTreeMap<String, usize>>,
    reads: BTreeMap<&'a str, BTreeMap<String, usize>>,
}

impl RaceState<'_> {
    fn clear(&mut self) {
        self.writes.clear();
        self.reads.clear();
    }
}

/// One extracted shared-array access within a statement.
struct Access<'a> {
    /// Token index of the array ident.
    at: usize,
    array: &'a str,
    /// Concatenated text of every subscript group, e.g. `[tid][k]`.
    index: String,
    is_write: bool,
}

/// Walk the statements of `range`, simulating barrier/race state.
fn walk_range<'a>(
    source: &str,
    ctx: &CudaCtx<'_, 'a>,
    range: (usize, usize),
    divergent: bool,
    state: &mut RaceState<'a>,
    sink: &mut Sink,
) {
    let hi = range.1.min(ctx.tokens.len());
    let mut i = range.0;
    while i < hi {
        let next = walk_stmt(source, ctx, i, hi, divergent, state, sink);
        i = next.max(i + 1);
    }
}

/// Walk one statement starting at `i`; returns the resume index.
fn walk_stmt<'a>(
    source: &str,
    ctx: &CudaCtx<'_, 'a>,
    i: usize,
    limit: usize,
    divergent: bool,
    state: &mut RaceState<'a>,
    sink: &mut Sink,
) -> usize {
    let tokens = ctx.tokens;
    let t = &tokens[i];
    if t.kind == TokenKind::Pragma {
        return i + 1;
    }
    if t.is("{") {
        let end = match_paren_like(tokens, i, "{", "}");
        walk_range(source, ctx, (i + 1, end.min(limit)), divergent, state, sink);
        return end + 1;
    }
    if t.is("for") || t.is("while") {
        let Some(header_end) = paren_after(tokens, i, limit) else {
            return i + 1;
        };
        let (body, resume) = stmt_or_block(tokens, header_end + 1, limit);
        // Virtual unrolling: two passes over the loop body expose hazards
        // that only manifest across iterations (the dedup sink keeps each
        // finding single).
        for _pass in 0..2 {
            walk_range(source, ctx, body, divergent, state, sink);
        }
        return resume;
    }
    if t.is("do") {
        let (body, resume) = stmt_or_block(tokens, i + 1, limit);
        for _pass in 0..2 {
            walk_range(source, ctx, body, divergent, state, sink);
        }
        // Skip the trailing `while (...)` condition.
        let mut j = resume;
        while j < limit && !tokens[j].is(";") {
            j += 1;
        }
        return j + 1;
    }
    if t.is("if") {
        let Some(header_end) = paren_after(tokens, i, limit) else {
            return i + 1;
        };
        let cond_divergent = cond_is_thread_divergent(ctx, (i + 2, header_end));
        let (body, mut resume) = stmt_or_block(tokens, header_end + 1, limit);
        walk_range(source, ctx, body, divergent || cond_divergent, state, sink);
        if resume < limit && tokens[resume].is("else") {
            if resume + 1 < limit && tokens[resume + 1].is("if") {
                // `else if`: recurse on the nested if at the same level.
                return walk_stmt(
                    source,
                    ctx,
                    resume + 1,
                    limit,
                    divergent || cond_divergent,
                    state,
                    sink,
                );
            }
            let (else_body, else_resume) = stmt_or_block(tokens, resume + 1, limit);
            walk_range(
                source,
                ctx,
                else_body,
                divergent || cond_divergent,
                state,
                sink,
            );
            resume = else_resume;
        }
        return resume;
    }
    if t.is("__syncthreads") {
        if divergent {
            sink.emit(
                source,
                RuleId::BarrierDivergence,
                t,
                &ctx.kernel.name,
                format!(
                    "__syncthreads() inside a thread-divergent branch in '{}': \
                     threads that skip the branch never reach the barrier (deadlock)",
                    ctx.kernel.name
                ),
            );
        }
        state.clear();
        let mut j = i + 1;
        while j < limit && !tokens[j].is(";") {
            j += 1;
        }
        return j + 1;
    }
    // Plain statement: scan to the `;` (or a `{`, which we hand back to
    // the range walker) and process shared-memory accesses.
    let mut j = i;
    while j < limit && !tokens[j].is(";") && !tokens[j].is("{") {
        j += 1;
    }
    process_statement(source, ctx, (i, j), state, sink);
    if j < limit && tokens[j].is("{") {
        return j; // let walk_stmt treat the block
    }
    j + 1
}

/// Whether a condition token range mentions threadIdx (any component) or
/// a thread-tainted ident. blockIdx is uniform within a block, so it
/// cannot diverge a `__syncthreads()`.
fn cond_is_thread_divergent(ctx: &CudaCtx<'_, '_>, range: (usize, usize)) -> bool {
    let hi = range.1.min(ctx.tokens.len());
    ctx.tokens[range.0..hi].iter().any(|t| {
        t.kind == TokenKind::Ident && (t.is("threadIdx") || ctx.thread_taint.contains(t.text))
    })
}

/// Extract shared-array accesses from one statement and update race state.
fn process_statement<'a>(
    source: &str,
    ctx: &CudaCtx<'_, 'a>,
    range: (usize, usize),
    state: &mut RaceState<'a>,
    sink: &mut Sink,
) {
    // Declarations (`__shared__ float buf[256];`) are not accesses.
    let hi = range.1.min(ctx.tokens.len());
    if ctx.tokens[range.0..hi].iter().any(|t| t.is("__shared__")) {
        return;
    }
    let accesses = extract_accesses(ctx.tokens, range, &ctx.shared);
    if accesses.is_empty() {
        return;
    }
    // Reads committed before this statement (intra-statement read/write
    // pairs like `cache[t] += cache[t+s]` are same-thread, not races).
    let prior_reads = state.reads.clone();
    for a in accesses.iter().filter(|a| !a.is_write) {
        if let Some(pending) = state.writes.get(a.array) {
            if let Some((other, _)) = pending.iter().find(|(idx, _)| **idx != a.index) {
                sink.emit(
                    source,
                    RuleId::SharedRace,
                    &ctx.tokens[a.at],
                    &ctx.kernel.name,
                    format!(
                        "read of {}{} may race with the write of {}{} \
                         pending since before the last __syncthreads()",
                        a.array, a.index, a.array, other
                    ),
                );
            }
        }
        state
            .reads
            .entry(a.array)
            .or_default()
            .insert(a.index.clone(), a.at);
    }
    for a in accesses.iter().filter(|a| a.is_write) {
        if let Some(pending) = prior_reads.get(a.array) {
            if let Some((other, _)) = pending.iter().find(|(idx, _)| **idx != a.index) {
                sink.emit(
                    source,
                    RuleId::SharedRace,
                    &ctx.tokens[a.at],
                    &ctx.kernel.name,
                    format!(
                        "write of {}{} may race with the unsynchronized read of {}{}",
                        a.array, a.index, a.array, other
                    ),
                );
            }
        }
        state
            .writes
            .entry(a.array)
            .or_default()
            .insert(a.index.clone(), a.at);
    }
}

/// Find every `name[...]...` access in a statement range for arrays in
/// `names`, classifying each as read or write.
fn extract_accesses<'a>(
    tokens: &[Token<'a>],
    range: (usize, usize),
    names: &BTreeSet<&str>,
) -> Vec<Access<'a>> {
    let hi = range.1.min(tokens.len());
    subscripts(tokens, range, |name| names.contains(name))
        .map(|(at, after)| {
            let pre_incr = at > range.0 && (tokens[at - 1].is("++") || tokens[at - 1].is("--"));
            let is_write = pre_incr
                || (after < hi
                    && matches!(
                        tokens[after].text,
                        "=" | "+="
                            | "-="
                            | "*="
                            | "/="
                            | "%="
                            | "&="
                            | "|="
                            | "^="
                            | "++"
                            | "--"
                            | "<<="
                            | ">>="
                    ));
            Access {
                at,
                array: tokens[at].text,
                index: joined_text(&tokens[at + 1..after]),
                is_write,
            }
        })
        .collect()
}

/// Every `name[...]...` access in `range` whose name token satisfies
/// `pick`: yields the name's token index and the index just past its
/// subscript groups, and resumes the scan there. Names `pick` rejects
/// are stepped over, so their subscripts are scanned too.
fn subscripts<'t>(
    tokens: &'t [Token<'t>],
    range: (usize, usize),
    pick: impl Fn(&str) -> bool + 't,
) -> impl Iterator<Item = (usize, usize)> + 't {
    let hi = range.1.min(tokens.len());
    let mut i = range.0;
    std::iter::from_fn(move || {
        while i < hi {
            let at = i;
            i += 1;
            if tokens[at].kind == TokenKind::Ident && pick(tokens[at].text) {
                if let Some(after) = subscript_end(tokens, at + 1, hi) {
                    i = after;
                    return Some((at, after));
                }
            }
        }
        None
    })
}

/// The index just past the consecutive `[...]` groups starting at `i`
/// (`limit` for an unbalanced subscript), or `None` when `i` is not a
/// `[`. [`joined_text`] of the covered tokens is the subscript key, e.g.
/// `[tid][k]`.
fn subscript_end(tokens: &[Token<'_>], i: usize, limit: usize) -> Option<usize> {
    if i >= limit || !tokens[i].is("[") {
        return None;
    }
    let mut j = i;
    while j < limit && tokens[j].is("[") {
        let close = match_paren_like(tokens, j, "[", "]");
        if close >= limit {
            // Unbalanced subscript: take what's there and stop.
            return Some(limit);
        }
        j = close + 1;
    }
    Some(j)
}

/// The tokens' texts concatenated without the whitespace between them.
fn joined_text(tokens: &[Token<'_>]) -> String {
    tokens.iter().map(|t| t.text).collect()
}

// ---------------------------------------------------------------------------
// Global-memory subscripts (CUDA): accumulation races and strided lanes.
// ---------------------------------------------------------------------------

/// One pass over the subscripts of the parameter arrays that are not
/// `__shared__` (global memory):
///
/// * compound accumulation whose subscript is uniform across threads —
///   every thread hammers the same element (`global-race`);
/// * a lane-index-derived ident (from `threadIdx.x`) scaled by a
///   multiplication — adjacent threads touch elements a stride apart
///   (`strided-access`).
fn check_global_subscripts(source: &str, ctx: &CudaCtx<'_, '_>, sink: &mut Sink) {
    let (tokens, kernel) = (ctx.tokens, ctx.kernel);
    let hi = kernel.body.1.min(tokens.len());
    let global = |name: &str| ctx.params.contains(name) && !ctx.shared.contains(name);
    for (at, after) in subscripts(tokens, kernel.body, global) {
        let t = &tokens[at];
        let accumulates =
            after < hi && matches!(tokens[after].text, "+=" | "-=" | "*=" | "/=" | "++" | "--");
        if accumulates && !index_mentions_thread(ctx, (at + 1, after)) {
            sink.emit(
                source,
                RuleId::GlobalRace,
                t,
                &kernel.name,
                format!(
                    "'{}{}' accumulates into global memory with a \
                     thread-independent index and no atomicAdd: \
                     every thread races on the same element",
                    t.text,
                    joined_text(&tokens[at + 1..after])
                ),
            );
        }
        if let Some(scaled) = find_scaled_ident(tokens, (at + 1, after), |name, k| {
            ctx.lane_taint.contains(name)
                || (k > 0 && thread_component(tokens, k, "threadIdx") == Some("x"))
        }) {
            sink.emit(
                source,
                RuleId::StridedAccess,
                t,
                &kernel.name,
                format!(
                    "subscript of '{}' multiplies the lane index '{}': adjacent \
                     threads access elements a stride apart (uncoalesced)",
                    t.text, scaled
                ),
            );
        }
    }
}

/// Whether a subscript token range mentions threadIdx/blockIdx or any
/// thread-tainted ident (if it does, threads hit distinct elements).
/// Idents inside *nested* subscripts don't count: in `bins[data[i]]` the
/// bin index is a loaded value, not a thread-distinct coordinate.
fn index_mentions_thread(ctx: &CudaCtx<'_, '_>, range: (usize, usize)) -> bool {
    let hi = range.1.min(ctx.tokens.len());
    let mut depth = 0i32;
    for t in &ctx.tokens[range.0..hi] {
        if t.is("[") {
            depth += 1;
            continue;
        }
        if t.is("]") {
            depth -= 1;
            continue;
        }
        if depth == 1
            && t.kind == TokenKind::Ident
            && (t.is("threadIdx") || t.is("blockIdx") || ctx.thread_taint.contains(t.text))
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// OMP reduction rule.
// ---------------------------------------------------------------------------

/// Pragma text lines immediately preceding an OMP region body.
fn region_pragmas<'a>(tokens: &[Token<'a>], kernel: &KernelRegion) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = kernel.body.0;
    while i > 0 {
        i -= 1;
        if tokens[i].kind == TokenKind::Pragma {
            out.push(tokens[i].text);
        } else if tokens[i].is("{") || out.is_empty() {
            // Walk past the opening brace / `for` header tokens that sit
            // between the pragma stack and the body start.
            continue;
        } else {
            break;
        }
        if out.len() >= 8 {
            break;
        }
    }
    out
}

/// Variable names listed in `reduction(op: a, b)` clauses.
fn reduction_vars<'a>(pragmas: &[&'a str]) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    for &p in pragmas {
        let mut rest = p;
        while let Some(at) = rest.find("reduction") {
            rest = &rest[at + "reduction".len()..];
            let Some(open) = rest.find('(') else { break };
            let Some(close) = rest[open..].find(')') else {
                break;
            };
            let clause = &rest[open + 1..open + close];
            if let Some(colon) = clause.find(':') {
                for name in clause[colon + 1..].split(',') {
                    let name = name.trim();
                    if !name.is_empty() {
                        out.insert(name);
                    }
                }
            }
            rest = &rest[open + close..];
        }
    }
    out
}

/// C type-ish keywords that begin a declaration.
fn is_type_keyword(text: &str) -> bool {
    matches!(
        text,
        "int"
            | "long"
            | "short"
            | "char"
            | "float"
            | "double"
            | "unsigned"
            | "signed"
            | "bool"
            | "size_t"
            | "auto"
            | "const"
    )
}

/// Idents declared inside a token range (`type name ...`), including
/// for-header inductions and comma-separated declarators.
fn declared_idents<'a>(tokens: &[Token<'a>], range: (usize, usize)) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    let hi = range.1.min(tokens.len());
    let mut i = range.0;
    while i + 1 < hi {
        if tokens[i].kind == TokenKind::Ident && is_type_keyword(tokens[i].text) {
            // Consume the declarator list: idents separated by ',' until
            // ';', '=', or anything that ends a simple declaration.
            let mut j = i + 1;
            let mut expecting_name = true;
            while j < hi {
                let t = &tokens[j];
                if t.kind == TokenKind::Ident {
                    if is_type_keyword(t.text) || t.is("omp") {
                        j += 1;
                        continue;
                    }
                    if expecting_name {
                        out.insert(t.text);
                        expecting_name = false;
                        j += 1;
                        continue;
                    }
                    break;
                }
                if t.is("*") {
                    j += 1;
                    continue;
                }
                if t.is(",") {
                    expecting_name = true;
                    j += 1;
                    continue;
                }
                if t.is("=") {
                    // Skip the initializer up to ',' or ';'.
                    let mut depth = 0i32;
                    while j < hi {
                        let u = &tokens[j];
                        if u.is("(") || u.is("[") {
                            depth += 1;
                        } else if u.is(")") || u.is("]") {
                            depth -= 1;
                        } else if depth == 0 && (u.is(",") || u.is(";")) {
                            break;
                        }
                        j += 1;
                    }
                    continue;
                }
                if t.is("[") {
                    let close = match_paren_like(tokens, j, "[", "]");
                    j = close + 1;
                    continue;
                }
                break;
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// Scalar accumulation in a parallel OMP region without a matching
/// `reduction` clause, declared-inside privatization, or atomic guard.
fn check_omp_reduction(
    source: &str,
    tokens: &[Token<'_>],
    kernel: &KernelRegion,
    inductions: &BTreeSet<&str>,
    sink: &mut Sink,
) {
    let pragmas = region_pragmas(tokens, kernel);
    let parallel = pragmas
        .iter()
        .any(|p| p.contains("parallel") || p.contains("distribute"));
    if !parallel {
        return;
    }
    let reductions = reduction_vars(&pragmas);
    let declared = declared_idents(tokens, kernel.body);
    let hi = kernel.body.1.min(tokens.len());
    let mut i = kernel.body.0;
    while i + 1 < hi {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && !is_type_keyword(t.text) {
            let prev_subscripted = i > 0 && tokens[i - 1].is("]");
            let compound = matches!(tokens[i + 1].text, "+=" | "-=" | "*=" | "/=" | "++" | "--");
            // `x = x + ...` self-accumulation, same hazard as `x += ...`.
            let self_assign = tokens[i + 1].is("=") && {
                let mut j = i + 2;
                let mut found = false;
                while j < hi && !tokens[j].is(";") {
                    if tokens[j].is(t.text) {
                        found = true;
                        break;
                    }
                    j += 1;
                }
                found
            };
            let scalar = i + 1 < hi && !tokens[i + 1].is("[") && !prev_subscripted;
            if scalar
                && (compound || self_assign)
                && !reductions.contains(t.text)
                && !declared.contains(t.text)
                && !inductions.contains(t.text)
                && !atomic_guarded(tokens, kernel.body.0, i)
            {
                sink.emit(
                    source,
                    RuleId::OmpReduction,
                    t,
                    &kernel.name,
                    format!(
                        "'{}' accumulates across parallel iterations without a \
                         reduction(...) clause (and is not privatized in the region)",
                        t.text
                    ),
                );
            }
        }
        i += 1;
    }
}

/// Whether the statement containing token `i` is immediately preceded by
/// an `#pragma omp atomic` / `critical` guard.
fn atomic_guarded(tokens: &[Token<'_>], lo: usize, i: usize) -> bool {
    let mut j = i;
    while j > lo {
        j -= 1;
        if tokens[j].is(";") || tokens[j].is("{") || tokens[j].is("}") {
            // Statement boundary: look just before it too (pragma tokens
            // sit between statements).
            break;
        }
        if tokens[j].kind == TokenKind::Pragma {
            return tokens[j].text.contains("atomic") || tokens[j].text.contains("critical");
        }
    }
    // The token right after the boundary may be the pragma itself.
    while j > lo {
        if tokens[j].kind == TokenKind::Pragma {
            return tokens[j].text.contains("atomic") || tokens[j].text.contains("critical");
        }
        if !(tokens[j].is(";") || tokens[j].is("{") || tokens[j].is("}")) {
            break;
        }
        j -= 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Loop-carried dependency chains.
// ---------------------------------------------------------------------------

/// Scalar compound accumulation inside a loop body: each iteration waits
/// on the previous one's result (a serialized FMA chain).
fn check_loop_carried(
    source: &str,
    tokens: &[Token<'_>],
    kernel: &KernelRegion,
    loops: &[LoopInfo<'_>],
    inductions: &BTreeSet<&str>,
    sink: &mut Sink,
) {
    for lp in loops {
        let (mut i, body_hi) = lp.body;
        while i + 1 < body_hi {
            let t = &tokens[i];
            let prev_subscripted = i > 0 && tokens[i - 1].is("]");
            if t.kind == TokenKind::Ident
                && !prev_subscripted
                && !tokens[i + 1].is("[")
                && matches!(tokens[i + 1].text, "+=" | "-=" | "*=")
                && !inductions.contains(t.text)
                && !t.is("threadIdx")
                && !t.is("blockIdx")
            {
                sink.emit(
                    source,
                    RuleId::LoopCarriedDep,
                    t,
                    &kernel.name,
                    format!(
                        "'{}' forms a loop-carried dependency chain: each iteration \
                         waits on the previous accumulation (consider multiple \
                         accumulators or a tree reduction)",
                        t.text
                    ),
                );
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Strided / uncoalesced subscripts.
// ---------------------------------------------------------------------------

/// OMP: the innermost loop's induction variable scaled by a
/// multiplication inside a subscript — consecutive iterations touch
/// elements a stride apart (defeats vectorized/contiguous access). A loop
/// is innermost when no `for` token appears in its body.
fn check_strided_omp(
    source: &str,
    tokens: &[Token<'_>],
    kernel: &KernelRegion,
    loops: &[LoopInfo<'_>],
    sink: &mut Sink,
) {
    let innermost: BTreeSet<&str> = loops
        .iter()
        .filter(|lp| !tokens[lp.body.0..lp.body.1].iter().any(|t| t.is("for")))
        .filter_map(|lp| lp.var)
        .collect();
    if innermost.is_empty() {
        return;
    }
    for (at, after) in subscripts(tokens, kernel.body, |_| true) {
        if let Some(scaled) =
            find_scaled_ident(tokens, (at + 1, after), |name, _| innermost.contains(name))
        {
            let t = &tokens[at];
            sink.emit(
                source,
                RuleId::StridedAccess,
                t,
                &kernel.name,
                format!(
                    "subscript of '{}' multiplies the innermost loop index \
                     '{}': consecutive iterations access elements a stride \
                     apart (uncoalesced / unvectorizable)",
                    t.text, scaled
                ),
            );
        }
    }
}

/// An ident inside `range` that is adjacent to a `*` (either side) and
/// satisfies `pred(name, token_index)`; returns the ident's text.
fn find_scaled_ident<F>(tokens: &[Token<'_>], range: (usize, usize), pred: F) -> Option<String>
where
    F: Fn(&str, usize) -> bool,
{
    let hi = range.1.min(tokens.len());
    for k in range.0..hi {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `threadIdx . x * e` — the `*` sits after the component.
        let after = if t.is("threadIdx") && k + 2 < hi && tokens[k + 1].is(".") {
            k + 3
        } else {
            k + 1
        };
        let mul_after = after < hi && tokens[after].is("*");
        let mul_before = k > range.0 && tokens[k - 1].is("*")
            // `(cast)* x` or `a ** b` don't occur; `e * x` is what we want,
            // so require an expression token before the `*`.
            && k >= 2
            && (tokens[k - 2].kind != TokenKind::Punct
                || tokens[k - 2].is(")")
                || tokens[k - 2].is("]"));
        if (mul_after || mul_before) && pred(t.text, k) {
            let name = if t.is("threadIdx") && k + 2 < hi && tokens[k + 1].is(".") {
                format!("threadIdx.{}", tokens[k + 2].text)
            } else {
                t.text.to_string()
            };
            return Some(name);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> BTreeSet<&'static str> {
        diagnose(src).into_iter().map(|d| d.rule.id()).collect()
    }

    fn cuda_reduction_kernel(with_loop_sync: bool) -> String {
        format!(
            "__global__ void reduce_sum(long n, const float* in, float* out) {{\n\
             \x20 __shared__ float buf[256];\n\
             \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
             \x20 buf[threadIdx.x] = (i < n) ? in[i] : 0;\n\
             \x20 __syncthreads();\n\
             \x20 for (int s = 128; s > 0; s >>= 1) {{\n\
             \x20   if (threadIdx.x < s) buf[threadIdx.x] += buf[threadIdx.x + s];\n\
             {}\
             \x20 }}\n\
             \x20 if (threadIdx.x == 0) out[blockIdx.x] = buf[0];\n}}\n",
            if with_loop_sync {
                " \x20  __syncthreads();\n"
            } else {
                ""
            }
        )
    }

    #[test]
    fn well_formed_tree_reduction_is_error_clean() {
        let diags = diagnose(&cuda_reduction_kernel(true));
        assert!(
            diags.iter().all(|d| d.severity < Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn deleting_the_loop_sync_fires_shared_race() {
        let src = cuda_reduction_kernel(false);
        let diags = diagnose(&src);
        let race: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::SharedRace)
            .collect();
        assert!(!race.is_empty(), "{diags:?}");
        // The span lands on a `buf` access inside the loop.
        let d = race[0];
        assert_eq!(&src[d.span.start..d.span.end], "buf");
        assert!(d.span.line >= 6, "span {:?} should be in the loop", d.span);
        assert_eq!(d.kernel, "reduce_sum");
    }

    #[test]
    fn deleting_the_store_sync_fires_shared_race() {
        let src = "__global__ void k(const float* in, float* out) {\n\
                   \x20 __shared__ float c[256];\n\
                   \x20 c[threadIdx.x] = in[threadIdx.x];\n\
                   \x20 out[threadIdx.x] = c[255 - threadIdx.x];\n}\n";
        assert!(rules_hit(src).contains("shared-race"));
    }

    #[test]
    fn tiled_gemm_with_both_syncs_is_error_clean() {
        let src = "__global__ void gemm_tiled(int dim, const float* A, const float* B, float* C) {\n\
                   \x20 __shared__ float As[16][16];\n\
                   \x20 __shared__ float Bs[16][16];\n\
                   \x20 int row = blockIdx.y * 16 + threadIdx.y;\n\
                   \x20 int col = blockIdx.x * 16 + threadIdx.x;\n\
                   \x20 float acc = 0;\n\
                   \x20 for (int t = 0; t < dim / 16; t++) {\n\
                   \x20   As[threadIdx.y][threadIdx.x] = A[row * dim + t * 16 + threadIdx.x];\n\
                   \x20   Bs[threadIdx.y][threadIdx.x] = B[(t * 16 + threadIdx.y) * dim + col];\n\
                   \x20   __syncthreads();\n\
                   \x20   for (int k = 0; k < 16; k++) acc += As[threadIdx.y][k] * Bs[k][threadIdx.x];\n\
                   \x20   __syncthreads();\n\
                   \x20 }\n\
                   \x20 if (row < dim && col < dim) C[row * dim + col] = acc;\n}\n";
        let errors: Vec<_> = diagnose(src)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn deleting_either_gemm_sync_fires_shared_race() {
        for cut in 0..2 {
            let mut src = String::from(
                "__global__ void gemm_tiled(int dim, const float* A, float* C) {\n\
                 \x20 __shared__ float As[16][16];\n\
                 \x20 int row = blockIdx.y * 16 + threadIdx.y;\n\
                 \x20 float acc = 0;\n\
                 \x20 for (int t = 0; t < dim / 16; t++) {\n",
            );
            if cut != 0 {
                src.push_str("   As[threadIdx.y][threadIdx.x] = A[row * dim + t];\n");
                src.push_str("   __syncthreads();\n");
            } else {
                src.push_str("   As[threadIdx.y][threadIdx.x] = A[row * dim + t];\n");
            }
            src.push_str("   for (int k = 0; k < 16; k++) acc += As[threadIdx.y][k];\n");
            if cut != 1 {
                src.push_str("   __syncthreads();\n");
            }
            src.push_str(" }\n C[row] = acc;\n}\n");
            assert!(
                rules_hit(&src).contains("shared-race"),
                "cut {cut} must fire"
            );
        }
    }

    #[test]
    fn barrier_in_divergent_branch_fires() {
        let src = "__global__ void k(float* x) {\n\
                   \x20 __shared__ float c[32];\n\
                   \x20 int tid = threadIdx.x;\n\
                   \x20 if (tid < 16) {\n\
                   \x20   c[tid] = x[tid];\n\
                   \x20   __syncthreads();\n\
                   \x20 }\n\
                   \x20 x[tid] = c[tid];\n}\n";
        let diags = diagnose(src);
        let hit: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::BarrierDivergence)
            .collect();
        assert_eq!(hit.len(), 1, "{diags:?}");
        assert_eq!(&src[hit[0].span.start..hit[0].span.end], "__syncthreads");
    }

    #[test]
    fn uniform_barrier_is_clean() {
        // Barrier under a blockIdx condition (uniform per block) is fine.
        let src = "__global__ void k(float* x) {\n\
                   \x20 if (blockIdx.x == 0) { __syncthreads(); }\n\
                   \x20 __syncthreads();\n}\n";
        assert!(!rules_hit(src).contains("barrier-divergence"));
    }

    #[test]
    fn global_accumulation_without_atomic_fires() {
        let src = "__global__ void hist(long n, const int* data, int* bins) {\n\
                   \x20 long i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                   \x20 if (i < n) bins[data[i] & 255] += 1;\n}\n";
        // data[i]&255 mentions no thread-derived ident → every thread can
        // collide on the same bin.
        assert!(rules_hit(src).contains("global-race"));
    }

    #[test]
    fn thread_indexed_accumulation_is_clean() {
        let src = "__global__ void k(long n, float* y, const float* x) {\n\
                   \x20 long i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                   \x20 if (i < n) y[i] += x[i];\n}\n";
        assert!(!rules_hit(src).contains("global-race"));
    }

    #[test]
    fn omp_accumulation_without_reduction_fires() {
        let src = "float sum = 0;\n\
                   #pragma omp target teams distribute parallel for map(to: x[0:n])\n\
                   for (long i = 0; i < n; i++) sum += x[i];\n";
        let diags = diagnose(src);
        let hit: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::OmpReduction)
            .collect();
        assert_eq!(hit.len(), 1, "{diags:?}");
        assert_eq!(&src[hit[0].span.start..hit[0].span.end], "sum");
    }

    #[test]
    fn omp_reduction_clause_silences_the_rule() {
        let src = "float sum = 0;\n\
                   #pragma omp target teams distribute parallel for reduction(+:sum) map(to: x[0:n])\n\
                   for (long i = 0; i < n; i++) sum += x[i];\n";
        assert!(!rules_hit(src).contains("omp-reduction"));
    }

    #[test]
    fn omp_privatized_accumulator_is_clean() {
        // Accumulator declared inside the parallel body is per-iteration
        // private — the corpus gemm/gemv OMP ports use this shape.
        let src = "#pragma omp target teams distribute parallel for map(from: y[0:n])\n\
                   for (long i = 0; i < n; i++) {\n\
                   \x20 float acc = 0;\n\
                   \x20 for (long j = 0; j < n; j++) acc += j;\n\
                   \x20 y[i] = acc;\n}\n";
        assert!(!rules_hit(src).contains("omp-reduction"));
    }

    #[test]
    fn loop_carried_accumulator_warns() {
        let src = "__global__ void dot(long n, const float* x, float* out) {\n\
                   \x20 float acc = 0;\n\
                   \x20 for (long j = 0; j < n; j++) acc += x[j];\n\
                   \x20 out[0] = acc;\n}\n";
        let diags = diagnose(src);
        let hit: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::LoopCarriedDep)
            .collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].severity, Severity::Warning);
        assert_eq!(&src[hit[0].span.start..hit[0].span.end], "acc");
    }

    #[test]
    fn strided_cuda_subscript_warns() {
        // Transposed store: the lane index is row-scaled.
        let src = "__global__ void transpose(int dim, const float* in, float* out) {\n\
                   \x20 int x = blockIdx.x * blockDim.x + threadIdx.x;\n\
                   \x20 int y = blockIdx.y * blockDim.y + threadIdx.y;\n\
                   \x20 out[x * dim + y] = in[y * dim + x];\n}\n";
        let diags = diagnose(src);
        let hit: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::StridedAccess)
            .collect();
        assert_eq!(hit.len(), 1, "{diags:?}");
        assert_eq!(hit[0].severity, Severity::Warning);
        assert_eq!(&src[hit[0].span.start..hit[0].span.end], "out");
    }

    #[test]
    fn coalesced_cuda_subscript_is_clean() {
        let src = "__global__ void saxpy(long n, float a, const float* x, float* y) {\n\
                   \x20 long i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                   \x20 if (i < n) y[i] = a * x[i] + y[i];\n}\n";
        assert!(!rules_hit(src).contains("strided-access"));
    }

    #[test]
    fn strided_omp_subscript_warns() {
        let src = "#pragma omp target teams distribute parallel for collapse(2)\n\
                   for (int y = 0; y < dim; y++) {\n\
                   \x20 for (int x = 0; x < dim; x++) {\n\
                   \x20   out[x * dim + y] = in[y * dim + x];\n\
                   \x20 }\n}\n";
        assert!(rules_hit(src).contains("strided-access"));
    }

    #[test]
    fn subscript_scan_resumes_past_picked_subscripts_only() {
        let toks = lex("a[b[i]][j] = c[k] + d;");
        let names = |pick: &dyn Fn(&str) -> bool| -> Vec<&str> {
            subscripts(&toks, (0, toks.len()), pick)
                .map(|(at, after)| {
                    assert!(toks[at + 1].is("[") && toks[after - 1].is("]"));
                    toks[at].text
                })
                .collect()
        };
        assert_eq!(names(&|_| true), vec!["a", "c"]);
        assert_eq!(names(&|name| name != "a"), vec!["b", "c"]);
    }

    #[test]
    fn diagnostics_are_sorted_and_deduplicated() {
        let src = cuda_reduction_kernel(false);
        let diags = diagnose(&src);
        let mut sorted = diags.clone();
        sorted.sort_by_key(|d| (d.span.start, d.rule));
        assert_eq!(diags, sorted);
        let mut keys: Vec<_> = diags.iter().map(|d| (d.rule, d.span.start)).collect();
        keys.dedup();
        assert_eq!(keys.len(), diags.len(), "no duplicate findings");
    }

    #[test]
    fn diagnose_is_total_on_junk() {
        for src in [
            "",
            "{{{{",
            "__global__ void k(",
            "__global__ void k() { for (;;) ",
            "#pragma omp target\n",
            "__shared__ int x[4]; x[0] = 1;",
            "\"unterminated\n__global__ void k() { }",
        ] {
            let _ = diagnose(src);
        }
    }

    #[test]
    fn rule_registry_is_consistent() {
        let all = RuleId::all();
        let ids: BTreeSet<_> = all.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), all.len(), "rule ids are unique");
        for r in all {
            assert!(!r.summary().is_empty());
            // Display matches the id.
            assert_eq!(format!("{r}"), r.id());
        }
    }

    #[test]
    fn span_locate_reports_line_and_column() {
        let src = "abc\ndef ghi\n";
        let s = Span::locate(src, 8, 11);
        assert_eq!((s.line, s.col), (2, 5));
        assert_eq!(&src[s.start..s.end], "ghi");
    }
}
