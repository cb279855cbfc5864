//! # pce-fault
//!
//! The chaos layer: a deterministic stand-in for everything that goes
//! wrong between a harness and a hosted LLM endpoint.
//!
//! The paper's real pipeline queries hosted models that time out, truncate
//! answers, refuse, and reply in formats the automation cannot parse; those
//! conditions are *counted*, not crashed on. This crate provides the
//! machinery the rest of the workspace threads that resilience through:
//!
//! * [`PceError`] — the workspace-wide typed error taxonomy
//!   (`Parse`/`Timeout`/`Refusal`/`Spec`/`Io`) with retryability
//!   classification,
//! * [`FaultPlan`] — a seeded plan that decides, per
//!   (model, prompt-fingerprint, request seed, attempt), whether a
//!   completion is truncated, format-mangled, refused, timed out, or hit by
//!   a transient service error — a pure function, so chaos runs are
//!   byte-identical across thread counts,
//! * [`RetryPolicy`] — bounded retries with deterministic exponential
//!   backoff and fingerprint-seeded jitter; [`attempt_seed`] salts retried
//!   completions so they differ from the first attempt reproducibly,
//! * [`ResponseAccounting`] — valid / retried-then-valid / invalid /
//!   refused tallies that surface in Table 1 and the suite renderers.

#![forbid(unsafe_code)]

pub mod accounting;
pub mod error;
pub mod plan;
pub mod retry;
pub mod wire;

pub use accounting::{ResponseAccounting, ACCOUNTING_CSV_COLUMNS};
pub use error::PceError;
pub use plan::{corrupt_text, is_refusal_text, FaultKind, FaultPlan, FaultRates, REFUSAL_TEXT};
pub use retry::{attempt_seed, RetryPolicy};
pub use wire::{WireFault, WirePlan, WireRates};

/// Byte-level FNV-1a over the concatenation of `parts` — the one owner of
/// the byte-serial digest: the chaos draws here, the surrogate engine's
/// response noise stream, and the fine-tune head's feature hash all call
/// it. (Cache keys use `pce_memo::Fnv`, which folds whole words instead.)
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One xorshift64* scramble: turns a structured hash into uniform bits.
pub(crate) fn scramble(mut x: u64) -> u64 {
    x |= 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Map 64 uniform bits onto `[0, 1)`.
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic uniform draw in `[0, 1)` keyed purely on identity
/// bytes — the primitive behind every chaos decision in this crate,
/// exported so serving-layer mechanisms (circuit-breaker half-open
/// probes) draw from the same reproducible stream family instead of a
/// thread-local RNG.
pub fn seeded_unit(parts: &[&[u8]]) -> f64 {
    unit(scramble(fnv1a(parts)))
}
