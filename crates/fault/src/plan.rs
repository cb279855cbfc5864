//! Seeded, deterministic fault injection plans.

use crate::wire::{WirePlan, WireRates};
use crate::{fnv1a, scramble, unit};

/// The injectable fault classes, mirroring the failure modes the paper's
/// automation observes from hosted endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The answer is cut off mid-token ("Comp" instead of "Compute").
    Truncate,
    /// The answer comes back wrapped in a format the single-token parser
    /// rejects (a JSON-ish envelope).
    Mangle,
    /// The model declines to answer.
    Refuse,
    /// The request times out with no answer at all.
    Timeout,
    /// A transient service error (connection reset / 5xx).
    Transient,
}

impl FaultKind {
    /// All kinds, in the cumulative-draw order [`FaultPlan::draw`] uses.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Truncate,
        FaultKind::Mangle,
        FaultKind::Refuse,
        FaultKind::Timeout,
        FaultKind::Transient,
    ];
}

/// The canonical refusal body injected by [`FaultKind::Refuse`]; the retry
/// loop recognizes refusals by this text, as real harnesses pattern-match
/// hosted refusal phrasing.
pub const REFUSAL_TEXT: &str = "I'm sorry, but I can't help with that request.";

/// Whether a response body is a refusal.
pub fn is_refusal_text(text: &str) -> bool {
    text.trim_start().starts_with("I'm sorry")
}

/// Corrupt a clean answer according to a fault kind that has a body.
///
/// Every corruption is unparseable by the harness's single-token answer
/// parser *by construction*, so an injected fault always shows up in the
/// response accounting (never silently passes as valid).
///
/// Returns `None` for body-less kinds (`Timeout`/`Transient`) — those
/// surface as [`crate::PceError`]s, not as text.
pub fn corrupt_text(kind: FaultKind, clean: &str) -> Option<String> {
    match kind {
        FaultKind::Truncate => Some(clean[..clean.floor_char_boundary(4)].to_string()),
        FaultKind::Mangle => Some(format!("{{\"label\": \"{clean}\", \"confidence\": 0.5}}")),
        FaultKind::Refuse => Some(REFUSAL_TEXT.to_string()),
        FaultKind::Timeout | FaultKind::Transient => None,
    }
}

/// Per-kind injection probabilities. Each rate is a Bernoulli probability
/// in `[0, 1]`; their sum must stay ≤ 1 (at most one fault per attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of a truncated answer.
    pub truncate: f64,
    /// Probability of a format-mangled answer.
    pub mangle: f64,
    /// Probability of a refusal.
    pub refuse: f64,
    /// Probability of a request timeout.
    pub timeout: f64,
    /// Probability of a transient service error.
    pub transient: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn zero() -> FaultRates {
        FaultRates::uniform(0.0)
    }

    /// Split one total fault rate evenly across the five kinds.
    pub fn uniform(total: f64) -> FaultRates {
        let each = total.clamp(0.0, 1.0) / FaultKind::ALL.len() as f64;
        FaultRates {
            truncate: each,
            mangle: each,
            refuse: each,
            timeout: each,
            transient: each,
        }
    }

    /// The rates in [`FaultKind::ALL`] order.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.truncate,
            self.mangle,
            self.refuse,
            self.timeout,
            self.transient,
        ]
    }

    /// Total per-attempt fault probability.
    pub fn total(&self) -> f64 {
        self.as_array().iter().sum()
    }
}

/// A seeded chaos plan: a pure function from request identity to an
/// optional injected fault.
///
/// The draw depends only on `(plan seed, model, prompt fingerprint,
/// request seed, attempt)` — never on wall-clock, thread id, or
/// evaluation order — so a chaos run renders byte-identically under any
/// `RAYON_NUM_THREADS`, and a retried attempt re-rolls its own fault
/// independently of the first attempt's.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The chaos seed (`suite --chaos <seed>`).
    pub seed: u64,
    /// Per-kind injection rates.
    pub rates: FaultRates,
    /// Connection-layer injection rates (torn lines, disconnects,
    /// stalls), consumed through [`FaultPlan::wire_plan`]. Zero for
    /// response-only plans.
    pub wire: WireRates,
}

impl FaultPlan {
    /// Plan-selection salt, fixed so the realized fault pattern is pinned
    /// across builds.
    const PLAN_SALT: u64 = 0xfa_17_00_01;

    /// A plan with one total rate split evenly across all response fault
    /// kinds and no wire faults.
    pub fn uniform(seed: u64, total_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: FaultRates::uniform(total_rate),
            wire: WireRates::zero(),
        }
    }

    /// This plan with its wire-layer rates replaced.
    pub fn with_wire(self, wire: WireRates) -> FaultPlan {
        FaultPlan { wire, ..self }
    }

    /// The connection-layer view of this plan, sharing its seed. The wire
    /// stream is salted independently of the response-fault stream, so
    /// enabling one never re-rolls the other.
    pub fn wire_plan(&self) -> WirePlan {
        WirePlan {
            seed: self.seed,
            rates: self.wire,
        }
    }

    /// Whether this plan can ever inject anything (response- *or*
    /// wire-level).
    pub fn is_active(&self) -> bool {
        self.rates.total() > 0.0 || self.wire.total() > 0.0
    }

    /// Decide the fault (if any) for one request attempt.
    pub fn draw(
        &self,
        model: &str,
        prompt_fp: u64,
        request_seed: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        let h = fnv1a(&[
            &(self.seed ^ Self::PLAN_SALT).to_le_bytes(),
            model.as_bytes(),
            &prompt_fp.to_le_bytes(),
            &request_seed.to_le_bytes(),
            &attempt.to_le_bytes(),
        ]);
        let u = unit(scramble(h));
        let mut cumulative = 0.0;
        for (kind, rate) in FaultKind::ALL.iter().zip(self.rates.as_array()) {
            cumulative += rate;
            if u < cumulative {
                return Some(*kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        let plan = FaultPlan::uniform(42, 0.3);
        for attempt in 0..4 {
            assert_eq!(
                plan.draw("o3-mini", 0xabc, 7, attempt),
                plan.draw("o3-mini", 0xabc, 7, attempt)
            );
        }
    }

    #[test]
    fn draw_depends_on_every_identity_component() {
        // With a high rate, most draws inject; flipping any identity
        // component must change at least some outcomes over a window.
        let plan = FaultPlan::uniform(1, 0.9);
        let base: Vec<_> = (0..64).map(|i| plan.draw("m", i, 0, 0)).collect();
        let other_model: Vec<_> = (0..64).map(|i| plan.draw("n", i, 0, 0)).collect();
        let other_seed: Vec<_> = (0..64).map(|i| plan.draw("m", i, 1, 0)).collect();
        let other_attempt: Vec<_> = (0..64).map(|i| plan.draw("m", i, 0, 1)).collect();
        let other_plan: Vec<_> = (0..64)
            .map(|i| FaultPlan::uniform(2, 0.9).draw("m", i, 0, 0))
            .collect();
        assert_ne!(base, other_model);
        assert_ne!(base, other_seed);
        assert_ne!(base, other_attempt);
        assert_ne!(base, other_plan);
    }

    #[test]
    fn zero_rate_never_injects_and_is_inactive() {
        let plan = FaultPlan::uniform(9, 0.0);
        assert!(!plan.is_active());
        for i in 0..256 {
            assert_eq!(plan.draw("o1", i, i, 0), None);
        }
    }

    #[test]
    fn injection_frequency_tracks_the_rate() {
        let plan = FaultPlan::uniform(3, 0.2);
        let n = 4000;
        let injected = (0..n)
            .filter(|&i| plan.draw("gpt-4o", i, i, 0).is_some())
            .count();
        let freq = injected as f64 / n as f64;
        assert!((freq - 0.2).abs() < 0.03, "observed {freq}");
    }

    #[test]
    fn all_kinds_are_reachable_under_uniform_rates() {
        let plan = FaultPlan::uniform(5, 0.5);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..4000 {
            if let Some(kind) = plan.draw("m", i, i, 0) {
                seen.insert(format!("{kind:?}"));
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len(), "{seen:?}");
    }

    #[test]
    fn corruptions_never_parse_as_answers() {
        // The harness's answer parser accepts "compute"/"bandwidth"/
        // "memory" prefixes (case-insensitive); every injected body must
        // miss all three.
        for clean in ["Compute", "Bandwidth"] {
            for kind in FaultKind::ALL {
                let Some(body) = corrupt_text(kind, clean) else {
                    assert!(matches!(kind, FaultKind::Timeout | FaultKind::Transient));
                    continue;
                };
                let lower = body.trim().to_ascii_lowercase();
                assert!(
                    !lower.starts_with("compute")
                        && !lower.starts_with("bandwidth")
                        && !lower.starts_with("memory"),
                    "{kind:?} produced a parseable body: {body}"
                );
            }
        }
        assert!(is_refusal_text(REFUSAL_TEXT));
        assert!(!is_refusal_text("Compute"));
    }

    #[test]
    fn truncation_cuts_on_a_char_boundary() {
        // In "aéé" byte 4 falls inside the second 'é': the cut backs off to 3.
        for (clean, cut) in [
            ("Compute", "Comp"),
            ("ok", "ok"),
            ("", ""),
            ("aéé", "aé"),
            ("★★", "★"),
        ] {
            assert_eq!(
                corrupt_text(FaultKind::Truncate, clean).as_deref(),
                Some(cut)
            );
        }
    }

    #[test]
    fn uniform_split_is_even_and_clamped() {
        let r = FaultRates::uniform(0.5);
        assert!((r.total() - 0.5).abs() < 1e-12);
        assert_eq!(r.truncate, r.transient);
        assert!((FaultRates::uniform(7.0).total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wire_plan_shares_the_seed_and_activates_the_plan() {
        let quiet = FaultPlan::uniform(9, 0.0);
        assert!(!quiet.is_active());
        let wired = quiet.with_wire(WireRates::uniform(0.3));
        assert!(wired.is_active());
        assert_eq!(wired.wire_plan().seed, 9);
        // Wire chaos never bleeds into the response-fault stream.
        for i in 0..256 {
            assert_eq!(wired.draw("o1", i, i, 0), None);
        }
    }
}
