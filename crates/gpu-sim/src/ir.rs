//! The kernel intermediate representation.
//!
//! A [`KernelIr`] describes the *per-thread* work of a GPU kernel as a tree
//! of operations: arithmetic ops tagged with precision, memory accesses
//! tagged with an access pattern and a target buffer, loop nests with
//! launch-parameter-dependent trip counts, and divergence guards. Benchmark
//! source generators lower to this IR; the simulator folds the tree into
//! per-thread cost vectors.

use pce_memo::Fnv;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Floating-point precision of an arithmetic op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit single precision.
    F32,
    /// 64-bit double precision.
    F64,
}

impl Precision {
    /// Bytes per element of this precision.
    pub fn bytes(self) -> u64 {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

/// Kind of integer operation (all count as one INTOP; the distinction
/// feeds the timing model's issue-rate table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntKind {
    /// Add/sub/logical — full rate.
    Simple,
    /// 32-bit multiply / multiply-add.
    Mul,
    /// Integer division / modulo — many-cycle sequence.
    Div,
}

/// Transcendental / special-function unit ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialFn {
    /// Square root.
    Sqrt,
    /// Reciprocal.
    Rcp,
    /// exp / log family.
    ExpLog,
    /// sin / cos family.
    Trig,
}

impl SpecialFn {
    /// Equivalent FLOP count charged for one special-function evaluation,
    /// following the nvprof convention of weighting specials heavier.
    pub fn flop_weight(self) -> u64 {
        match self {
            SpecialFn::Sqrt | SpecialFn::Rcp => 4,
            SpecialFn::ExpLog => 8,
            SpecialFn::Trig => 12,
        }
    }
}

/// How consecutive threads of a warp touch memory for one access site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Thread `i` touches element `base + i`: fully coalesced.
    Coalesced,
    /// Thread `i` touches element `base + i * stride` (stride in elements).
    Strided(u32),
    /// Effectively random addresses over the buffer footprint.
    Random,
    /// All threads of a warp read the same address.
    Broadcast,
}

/// A buffer length or loop trip count, possibly launch-parameter dependent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Extent {
    /// A compile-time constant.
    Const(u64),
    /// The value of a named launch parameter.
    Param(String),
    /// A named launch parameter scaled by a constant factor
    /// (e.g. `n/256` tiles → `ParamScaled("n", 1.0/256.0)`).
    ParamScaled(String, f64),
}

impl Extent {
    /// Resolve against launch parameters. Missing parameters resolve to 1
    /// (mirroring benchmark binaries that default absent CLI args).
    pub fn resolve(&self, params: &BTreeMap<String, u64>) -> u64 {
        match self {
            Extent::Const(v) => *v,
            Extent::Param(name) => params.get(name).copied().unwrap_or(1),
            Extent::ParamScaled(name, scale) => {
                let base = params.get(name).copied().unwrap_or(1) as f64;
                (base * scale).max(1.0).round() as u64
            }
        }
    }
}

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dir {
    /// Global-memory read.
    Read,
    /// Global-memory write.
    Write,
}

/// One per-thread operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// One floating-point add/mul (1 FLOP).
    Flop(Precision),
    /// One fused multiply-add (2 FLOPs, 1 instruction).
    Fma(Precision),
    /// One special-function evaluation (weighted FLOPs).
    Special(Precision, SpecialFn),
    /// One integer op.
    Int(IntKind),
    /// A global-memory access to `buffer` with `pattern`.
    Mem {
        /// Declared buffer name this access targets.
        buffer: String,
        /// Read or write.
        dir: Dir,
        /// Warp-level address pattern.
        pattern: AccessPattern,
    },
    /// A shared-memory access (never reaches DRAM; costs latency only).
    Shared(Dir),
    /// `__syncthreads()` — block barrier (timing only).
    Sync,
    /// A loop running `trip` times per thread over `body`.
    Loop {
        /// Per-thread trip count.
        trip: Extent,
        /// Loop body.
        body: Vec<Op>,
    },
    /// A divergent region executed by `fraction` of threads (0..=1).
    Guard {
        /// Fraction of threads that take the branch.
        fraction: f64,
        /// Guarded body.
        body: Vec<Op>,
    },
}

impl Op {
    /// Shorthand: coalesced/strided/random load of `buffer`.
    pub fn load(buffer: &str, pattern: AccessPattern) -> Op {
        Op::Mem {
            buffer: buffer.to_string(),
            dir: Dir::Read,
            pattern,
        }
    }

    /// Shorthand: store to `buffer`.
    pub fn store(buffer: &str, pattern: AccessPattern) -> Op {
        Op::Mem {
            buffer: buffer.to_string(),
            dir: Dir::Write,
            pattern,
        }
    }

    /// Shorthand: one FLOP.
    pub fn flop(p: Precision) -> Op {
        Op::Flop(p)
    }

    /// Shorthand: one FMA.
    pub fn fma(p: Precision) -> Op {
        Op::Fma(p)
    }

    /// Shorthand: one integer op.
    pub fn int(k: IntKind) -> Op {
        Op::Int(k)
    }

    /// Shorthand: a counted loop.
    pub fn loop_n(trip: Extent, body: Vec<Op>) -> Op {
        Op::Loop { trip, body }
    }

    /// Approximate heap footprint of this op, nested bodies included —
    /// a cost input for bounded caches, not an exact measure.
    pub fn approx_bytes(&self) -> u64 {
        let own = std::mem::size_of::<Op>() as u64;
        match self {
            Op::Mem { buffer, .. } => own + buffer.len() as u64,
            Op::Loop { body, .. } | Op::Guard { body, .. } => {
                own + body.iter().map(Op::approx_bytes).sum::<u64>()
            }
            _ => own,
        }
    }
}

/// A declared global buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferDecl {
    /// Buffer name referenced by `Op::Mem`.
    pub name: String,
    /// Element size in bytes.
    pub elem_bytes: u64,
    /// Number of elements (resolved at launch).
    pub len: Extent,
}

/// A complete kernel: buffers plus the per-thread op tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelIr {
    /// Kernel (function) name, as it would appear in an object dump.
    pub name: String,
    /// Declared global buffers.
    pub buffers: Vec<BufferDecl>,
    /// Per-thread body.
    pub body: Vec<Op>,
    /// Fraction of launched threads that do any work at all (bounds-check
    /// guard at kernel entry, e.g. `if (i < n)`).
    pub active_fraction: f64,
}

/// Accumulated per-thread costs after folding the op tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadCosts {
    /// Single-precision FLOPs per thread.
    pub flops_sp: f64,
    /// Double-precision FLOPs per thread.
    pub flops_dp: f64,
    /// Integer ops per thread.
    pub intops: f64,
    /// Issued FP32-pipe instructions (for timing).
    pub inst_fp32: f64,
    /// Issued FP64-pipe instructions (for timing).
    pub inst_fp64: f64,
    /// Issued INT-pipe instructions weighted by issue cost (for timing).
    pub inst_int: f64,
    /// Issued special-function instructions (for timing).
    pub inst_sfu: f64,
    /// Shared-memory accesses per thread (for timing).
    pub shared_accesses: f64,
    /// Block barriers encountered per thread (for timing).
    pub syncs: f64,
    /// Divergence penalty estimate: extra issue fraction from guards.
    pub divergence: f64,
}

/// Per-(buffer, direction, pattern) memory demand per thread.
#[derive(Debug, Clone, PartialEq)]
pub struct MemDemand {
    /// Buffer name.
    pub buffer: String,
    /// Direction.
    pub dir: Dir,
    /// Pattern at the access site.
    pub pattern: AccessPattern,
    /// Accesses per launched thread (fractional under guards).
    pub accesses_per_thread: f64,
}

/// The folded, launch-resolved summary of a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub struct BodySummary {
    /// Arithmetic/issue costs per thread.
    pub costs: ThreadCosts,
    /// Memory demands, one entry per distinct access site.
    pub demands: Vec<MemDemand>,
}

impl KernelIr {
    /// Start building a kernel.
    pub fn builder(name: &str) -> KernelBuilder {
        KernelBuilder {
            name: name.to_string(),
            buffers: Vec::new(),
            body: Vec::new(),
            active_fraction: 1.0,
        }
    }

    /// Look up a buffer declaration.
    pub fn buffer(&self, name: &str) -> Option<&BufferDecl> {
        self.buffers.iter().find(|b| b.name == name)
    }

    /// Approximate heap footprint in bytes (name, buffer table, op tree) —
    /// the cost input bounded caches charge per cached IR.
    pub fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<KernelIr>() as u64
            + self.name.len() as u64
            + self
                .buffers
                .iter()
                .map(|b| std::mem::size_of::<BufferDecl>() as u64 + b.name.len() as u64)
                .sum::<u64>()
            + self.body.iter().map(Op::approx_bytes).sum::<u64>()
    }

    /// Validate internal consistency (all `Mem` ops reference declared
    /// buffers, fractions in range). Returns problems; empty when valid.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !(0.0..=1.0).contains(&self.active_fraction) {
            problems.push(format!(
                "active_fraction {} outside [0,1]",
                self.active_fraction
            ));
        }
        let mut names: Vec<&str> = self.buffers.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        if names.len() != before {
            problems.push("duplicate buffer declarations".to_string());
        }
        fn walk(ops: &[Op], kernel: &KernelIr, problems: &mut Vec<String>) {
            for op in ops {
                match op {
                    Op::Mem { buffer, .. } if kernel.buffer(buffer).is_none() => {
                        problems.push(format!("access to undeclared buffer '{buffer}'"));
                    }
                    Op::Loop { body, .. } => walk(body, kernel, problems),
                    Op::Guard { fraction, body } => {
                        if !(0.0..=1.0).contains(fraction) {
                            problems.push(format!("guard fraction {fraction} outside [0,1]"));
                        }
                        walk(body, kernel, problems);
                    }
                    _ => {}
                }
            }
        }
        walk(&self.body, self, &mut problems);
        problems
    }

    /// Fold the op tree into per-thread costs and memory demands, resolving
    /// loop trip counts against `params`.
    pub fn summarize(&self, params: &BTreeMap<String, u64>) -> BodySummary {
        let mut costs = ThreadCosts::default();
        let mut demands: Vec<MemDemand> = Vec::new();
        fold(&self.body, 1.0, params, &mut costs, &mut demands);
        // The entry guard scales everything uniformly.
        scale_costs(&mut costs, self.active_fraction);
        for d in &mut demands {
            d.accesses_per_thread *= self.active_fraction;
        }
        BodySummary { costs, demands }
    }

    /// A structural fingerprint of the kernel (FNV-1a over the op tree,
    /// buffer declarations, and entry guard).
    ///
    /// The profiler's memoization layer buckets cache entries by this
    /// value; collisions are tolerated because caches verify candidate
    /// entries with full structural equality before reusing them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.name);
        h.u64(self.buffers.len() as u64);
        for b in &self.buffers {
            h.str(&b.name);
            h.u64(b.elem_bytes);
            hash_extent(&b.len, &mut h);
        }
        hash_ops(&self.body, &mut h);
        h.f64(self.active_fraction);
        h.finish()
    }
}

fn hash_extent(e: &Extent, h: &mut Fnv) {
    match e {
        Extent::Const(v) => {
            h.u64(0);
            h.u64(*v);
        }
        Extent::Param(name) => {
            h.u64(1);
            h.str(name);
        }
        Extent::ParamScaled(name, scale) => {
            h.u64(2);
            h.str(name);
            h.f64(*scale);
        }
    }
}

fn hash_ops(ops: &[Op], h: &mut Fnv) {
    h.u64(ops.len() as u64);
    for op in ops {
        match op {
            Op::Flop(p) => {
                h.u64(10);
                h.u64(p.bytes());
            }
            Op::Fma(p) => {
                h.u64(11);
                h.u64(p.bytes());
            }
            Op::Special(p, f) => {
                h.u64(12);
                h.u64(p.bytes());
                h.u64(f.flop_weight());
            }
            Op::Int(kind) => {
                h.u64(13);
                h.u64(match kind {
                    IntKind::Simple => 0,
                    IntKind::Mul => 1,
                    IntKind::Div => 2,
                });
            }
            Op::Mem {
                buffer,
                dir,
                pattern,
            } => {
                h.u64(14);
                h.str(buffer);
                h.u64(matches!(dir, Dir::Write) as u64);
                match pattern {
                    AccessPattern::Coalesced => h.u64(0),
                    AccessPattern::Strided(s) => {
                        h.u64(1);
                        h.u64(*s as u64);
                    }
                    AccessPattern::Random => h.u64(2),
                    AccessPattern::Broadcast => h.u64(3),
                }
            }
            Op::Shared(dir) => {
                h.u64(15);
                h.u64(matches!(dir, Dir::Write) as u64);
            }
            Op::Sync => h.u64(16),
            Op::Loop { trip, body } => {
                h.u64(17);
                hash_extent(trip, h);
                hash_ops(body, h);
            }
            Op::Guard { fraction, body } => {
                h.u64(18);
                h.f64(*fraction);
                hash_ops(body, h);
            }
        }
    }
}

fn scale_costs(c: &mut ThreadCosts, f: f64) {
    c.flops_sp *= f;
    c.flops_dp *= f;
    c.intops *= f;
    c.inst_fp32 *= f;
    c.inst_fp64 *= f;
    c.inst_int *= f;
    c.inst_sfu *= f;
    c.shared_accesses *= f;
    // syncs are *not* scaled: barriers execute regardless of divergence.
    c.divergence *= f;
}

fn fold(
    ops: &[Op],
    weight: f64,
    params: &BTreeMap<String, u64>,
    costs: &mut ThreadCosts,
    demands: &mut Vec<MemDemand>,
) {
    for op in ops {
        match op {
            Op::Flop(p) => match p {
                Precision::F32 => {
                    costs.flops_sp += weight;
                    costs.inst_fp32 += weight;
                }
                Precision::F64 => {
                    costs.flops_dp += weight;
                    costs.inst_fp64 += weight;
                }
            },
            Op::Fma(p) => match p {
                Precision::F32 => {
                    costs.flops_sp += 2.0 * weight;
                    costs.inst_fp32 += weight;
                }
                Precision::F64 => {
                    costs.flops_dp += 2.0 * weight;
                    costs.inst_fp64 += weight;
                }
            },
            Op::Special(p, f) => {
                let flops = f.flop_weight() as f64 * weight;
                match p {
                    Precision::F32 => costs.flops_sp += flops,
                    Precision::F64 => costs.flops_dp += flops,
                }
                costs.inst_sfu += weight;
            }
            Op::Int(kind) => {
                costs.intops += weight;
                costs.inst_int += weight
                    * match kind {
                        IntKind::Simple => 1.0,
                        IntKind::Mul => 1.0,
                        IntKind::Div => 8.0,
                    };
            }
            Op::Mem {
                buffer,
                dir,
                pattern,
            } => {
                // Address arithmetic implied by the access: one int op.
                costs.intops += weight;
                costs.inst_int += weight;
                if let Some(existing) = demands
                    .iter_mut()
                    .find(|d| d.buffer == *buffer && d.dir == *dir && d.pattern == *pattern)
                {
                    existing.accesses_per_thread += weight;
                } else {
                    demands.push(MemDemand {
                        buffer: buffer.clone(),
                        dir: *dir,
                        pattern: *pattern,
                        accesses_per_thread: weight,
                    });
                }
            }
            Op::Shared(_) => costs.shared_accesses += weight,
            Op::Sync => costs.syncs += 1.0,
            Op::Loop { trip, body } => {
                let n = trip.resolve(params) as f64;
                fold(body, weight * n, params, costs, demands);
            }
            Op::Guard { fraction, body } => {
                // A divergent warp issues both paths; charge the extra
                // issue bandwidth as a divergence penalty.
                costs.divergence += weight * (1.0 - fraction).min(*fraction) * 2.0;
                fold(body, weight * fraction, params, costs, demands);
            }
        }
    }
}

/// Fluent builder for [`KernelIr`].
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    buffers: Vec<BufferDecl>,
    body: Vec<Op>,
    active_fraction: f64,
}

impl KernelBuilder {
    /// Declare a buffer of `elem_bytes`-sized elements with length `len`.
    pub fn buffer(mut self, name: &str, elem_bytes: u64, len: Extent) -> Self {
        self.buffers.push(BufferDecl {
            name: name.to_string(),
            elem_bytes,
            len,
        });
        self
    }

    /// Append an op to the kernel body.
    pub fn op(mut self, op: Op) -> Self {
        self.body.push(op);
        self
    }

    /// Append several ops.
    pub fn ops(mut self, ops: impl IntoIterator<Item = Op>) -> Self {
        self.body.extend(ops);
        self
    }

    /// Set the entry-guard active fraction (`if (i < n)`).
    pub fn guard_fraction(mut self, fraction: f64) -> Self {
        self.active_fraction = fraction;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if the kernel fails validation — builders are only used from
    /// generator code, so an invalid kernel is a programming error.
    pub fn build(self) -> KernelIr {
        let kernel = KernelIr {
            name: self.name,
            buffers: self.buffers,
            body: self.body,
            active_fraction: self.active_fraction,
        };
        let problems = kernel.validate();
        assert!(problems.is_empty(), "invalid kernel IR: {problems:?}");
        kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u64) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        m.insert("n".to_string(), n);
        m
    }

    fn saxpy() -> KernelIr {
        KernelIr::builder("saxpy")
            .buffer("x", 4, Extent::Param("n".into()))
            .buffer("y", 4, Extent::Param("n".into()))
            .op(Op::load("x", AccessPattern::Coalesced))
            .op(Op::load("y", AccessPattern::Coalesced))
            .op(Op::fma(Precision::F32))
            .op(Op::store("y", AccessPattern::Coalesced))
            .build()
    }

    #[test]
    fn saxpy_per_thread_costs() {
        let s = saxpy().summarize(&params(1024));
        // One FMA = 2 SP flops.
        assert_eq!(s.costs.flops_sp, 2.0);
        assert_eq!(s.costs.flops_dp, 0.0);
        // 3 memory ops charge 3 implied int address ops.
        assert_eq!(s.costs.intops, 3.0);
        assert_eq!(s.demands.len(), 3);
    }

    #[test]
    fn loops_multiply_costs() {
        let k = KernelIr::builder("loop")
            .buffer("a", 8, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(10),
                vec![
                    Op::fma(Precision::F64),
                    Op::load("a", AccessPattern::Coalesced),
                ],
            ))
            .build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.flops_dp, 20.0);
        assert_eq!(s.demands[0].accesses_per_thread, 10.0);
    }

    #[test]
    fn nested_loops_compose_multiplicatively() {
        let k = KernelIr::builder("nest")
            .op(Op::loop_n(
                Extent::Const(4),
                vec![Op::loop_n(Extent::Const(5), vec![Op::flop(Precision::F32)])],
            ))
            .build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.flops_sp, 20.0);
    }

    #[test]
    fn param_trip_counts_resolve_from_launch() {
        let k = KernelIr::builder("param")
            .op(Op::loop_n(
                Extent::Param("iters".into()),
                vec![Op::int(IntKind::Simple)],
            ))
            .build();
        let mut p = BTreeMap::new();
        p.insert("iters".to_string(), 7);
        assert_eq!(k.summarize(&p).costs.intops, 7.0);
        // Missing param defaults to 1.
        assert_eq!(k.summarize(&BTreeMap::new()).costs.intops, 1.0);
    }

    #[test]
    fn param_scaled_extent_rounds_and_clamps() {
        let e = Extent::ParamScaled("n".into(), 1.0 / 256.0);
        assert_eq!(e.resolve(&params(1024)), 4);
        assert_eq!(e.resolve(&params(1)), 1); // clamps to >= 1
    }

    #[test]
    fn guards_scale_costs_and_record_divergence() {
        let k = KernelIr::builder("guarded")
            .op(Op::Guard {
                fraction: 0.25,
                body: vec![Op::flop(Precision::F32); 4],
            })
            .build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.flops_sp, 1.0); // 4 flops * 0.25
        assert!(s.costs.divergence > 0.0);
    }

    #[test]
    fn entry_guard_scales_everything_but_syncs() {
        let k = KernelIr::builder("entry")
            .buffer("a", 4, Extent::Const(100))
            .op(Op::flop(Precision::F32))
            .op(Op::Sync)
            .op(Op::load("a", AccessPattern::Coalesced))
            .guard_fraction(0.5)
            .build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.flops_sp, 0.5);
        assert_eq!(s.costs.syncs, 1.0);
        assert_eq!(s.demands[0].accesses_per_thread, 0.5);
    }

    #[test]
    fn fma_counts_two_flops_one_instruction() {
        let k = KernelIr::builder("fma").op(Op::fma(Precision::F32)).build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.flops_sp, 2.0);
        assert_eq!(s.costs.inst_fp32, 1.0);
    }

    #[test]
    fn special_functions_weight_flops() {
        let k = KernelIr::builder("sfu")
            .op(Op::Special(Precision::F32, SpecialFn::Trig))
            .build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.flops_sp, 12.0);
        assert_eq!(s.costs.inst_sfu, 1.0);
    }

    #[test]
    fn int_div_is_issue_expensive() {
        let k = KernelIr::builder("div").op(Op::int(IntKind::Div)).build();
        let s = k.summarize(&params(1));
        assert_eq!(s.costs.intops, 1.0);
        assert!(s.costs.inst_int > 1.0);
    }

    #[test]
    fn repeated_access_sites_merge() {
        let k = KernelIr::builder("merge")
            .buffer("a", 4, Extent::Const(10))
            .op(Op::load("a", AccessPattern::Coalesced))
            .op(Op::load("a", AccessPattern::Coalesced))
            .build();
        let s = k.summarize(&params(1));
        assert_eq!(s.demands.len(), 1);
        assert_eq!(s.demands[0].accesses_per_thread, 2.0);
    }

    #[test]
    fn validation_catches_undeclared_buffer_and_bad_fractions() {
        let k = KernelIr {
            name: "bad".into(),
            buffers: vec![],
            body: vec![
                Op::load("ghost", AccessPattern::Coalesced),
                Op::Guard {
                    fraction: 2.0,
                    body: vec![],
                },
            ],
            active_fraction: -0.5,
        };
        let problems = k.validate();
        assert_eq!(problems.len(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid kernel IR")]
    fn builder_panics_on_invalid() {
        KernelIr::builder("bad")
            .op(Op::load("nope", AccessPattern::Coalesced))
            .build();
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        assert_eq!(saxpy().fingerprint(), saxpy().fingerprint());
        // Any structural edit moves the fingerprint.
        let mut renamed = saxpy();
        renamed.name = "saxpy2".into();
        assert_ne!(renamed.fingerprint(), saxpy().fingerprint());
        let mut guarded = saxpy();
        guarded.active_fraction = 0.5;
        assert_ne!(guarded.fingerprint(), saxpy().fingerprint());
        let extra_op = KernelIr::builder("saxpy")
            .buffer("x", 4, Extent::Param("n".into()))
            .buffer("y", 4, Extent::Param("n".into()))
            .op(Op::load("x", AccessPattern::Coalesced))
            .op(Op::load("y", AccessPattern::Coalesced))
            .op(Op::fma(Precision::F32))
            .op(Op::fma(Precision::F32))
            .op(Op::store("y", AccessPattern::Coalesced))
            .build();
        assert_ne!(extra_op.fingerprint(), saxpy().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_field_boundaries() {
        // "ab"+"c" vs "a"+"bc" across adjacent string fields must differ
        // (lengths are folded in).
        let a = KernelIr::builder("ab")
            .buffer("c", 4, Extent::Const(1))
            .build();
        let b = KernelIr::builder("a")
            .buffer("bc", 4, Extent::Const(1))
            .build();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
