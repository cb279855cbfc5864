//! Bounded, deterministic retry policy.

use crate::{fnv1a, scramble, unit};

/// Salt mixed into retried request seeds so attempt `k > 0` samples a
/// different (but reproducible) completion than attempt 0.
const ATTEMPT_SALT: u64 = 0xfa_17_00_02;

/// The request seed for one retry attempt.
///
/// Attempt 0 is the identity — a chaos-free run issues exactly the same
/// seeds it always has, keeping fault-rate-0 reports byte-identical to
/// the historical goldens. Later attempts fold a scrambled attempt index
/// into the seed so a retried completion differs from the first attempt
/// reproducibly.
pub fn attempt_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        // Shift the attempt index off bit 0: the scrambler forces its
        // low input bit to 1, which would alias adjacent attempts.
        seed ^ scramble(ATTEMPT_SALT ^ ((attempt as u64) << 1))
    }
}

/// Delay before the first retry, in milliseconds.
const BASE_BACKOFF_MS: u64 = 100;
/// Multiplier applied per additional retry.
const MULTIPLIER: f64 = 2.0;
/// Ceiling on any single delay (before jitter), in milliseconds.
const MAX_BACKOFF_MS: u64 = 5_000;
/// Fraction of the delay used as ± jitter range (0.25 → ±25%).
const JITTER: f64 = 0.25;

/// Bounded retries with deterministic exponential backoff.
///
/// Backoff delays are *recorded*, never slept: the surrogate has no real
/// service behind it, so the policy reports what a production loop would
/// have waited while keeping runs instant and reproducible. The schedule
/// is fixed: 100 ms before the first retry, doubling per retry up to
/// 5,000 ms, each delay jittered by ±25%. Jitter is seeded from the
/// request fingerprint, not a thread-local RNG, so the recorded delays are
/// identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts total).
    pub max_retries: u32,
    /// Ceiling on *cumulative* recorded backoff per request, in
    /// milliseconds. When a retry's delay would push the running total to
    /// or past this budget, the retry loop stops and the request fails
    /// with a deadline [`crate::PceError::Timeout`] instead — so a job
    /// with a deadline can never be accounted both `retried_valid` and
    /// `expired`. `None` leaves backoff unbudgeted (the historical
    /// behavior).
    pub backoff_budget_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_budget_ms: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// This policy with cumulative recorded backoff capped at `budget_ms`
    /// (a job deadline, typically).
    pub fn with_budget(self, budget_ms: u64) -> RetryPolicy {
        RetryPolicy {
            backoff_budget_ms: Some(budget_ms),
            ..self
        }
    }

    /// Total attempts this policy allows (first try + retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The deterministic backoff before retry attempt `attempt` (1-based:
    /// the delay taken *before* issuing that attempt), jittered by the
    /// request fingerprint.
    pub fn backoff_ms(&self, fingerprint: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = MULTIPLIER.powi(attempt.saturating_sub(1) as i32);
        let raw = (BASE_BACKOFF_MS as f64 * exp).min(MAX_BACKOFF_MS as f64);
        let h = fnv1a(&[
            &fingerprint.to_le_bytes(),
            &(attempt as u64 ^ ATTEMPT_SALT).to_le_bytes(),
        ]);
        // Map jitter onto [-JITTER, +JITTER] around the raw delay.
        let wiggle = (unit(scramble(h)) * 2.0 - 1.0) * JITTER;
        let delayed = raw * (1.0 + wiggle);
        delayed.max(0.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_keeps_the_seed_unchanged() {
        for seed in [0u64, 1, 0x9f0f_11e5, u64::MAX] {
            assert_eq!(attempt_seed(seed, 0), seed);
        }
    }

    #[test]
    fn retried_attempts_get_distinct_reproducible_seeds() {
        let seeds: Vec<u64> = (0..4).map(|a| attempt_seed(7, a)).collect();
        let again: Vec<u64> = (0..4).map(|a| attempt_seed(7, a)).collect();
        assert_eq!(seeds, again);
        let unique: std::collections::BTreeSet<&u64> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "{seeds:?}");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for attempt in 1..=6 {
            let a = policy.backoff_ms(0xfeed, attempt);
            let b = policy.backoff_ms(0xfeed, attempt);
            assert_eq!(a, b);
            let cap = (MAX_BACKOFF_MS as f64 * (1.0 + JITTER)).ceil() as u64;
            assert!(a <= cap, "attempt {attempt}: {a} > {cap}");
        }
        assert_eq!(policy.backoff_ms(0xfeed, 0), 0);
    }

    #[test]
    fn backoff_grows_roughly_exponentially() {
        let policy = RetryPolicy::default();
        for fp in [0u64, 1, 0xfeed, 0x9f0f_11e5, u64::MAX] {
            for attempt in 1..=10u32 {
                // 100 ms doubling per retry, capped at 5,000 ms, ± 25%.
                let raw = (100.0 * 2f64.powi(attempt as i32 - 1)).min(5_000.0);
                let delay = policy.backoff_ms(fp, attempt) as f64;
                assert!(
                    (raw * 0.75..=raw * 1.25).contains(&delay),
                    "fingerprint {fp:#x}, attempt {attempt}: {delay} not within 25% of {raw}"
                );
            }
        }
    }

    #[test]
    fn jitter_varies_with_the_fingerprint() {
        let policy = RetryPolicy::default();
        let delays: std::collections::BTreeSet<u64> =
            (0..32).map(|fp| policy.backoff_ms(fp, 2)).collect();
        assert!(delays.len() > 1, "jitter had no effect: {delays:?}");
    }

    #[test]
    fn attempt_budget_counts_the_first_try() {
        assert_eq!(RetryPolicy::default().max_attempts(), 4);
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
    }

    #[test]
    fn backoff_budget_defaults_off_and_round_trips() {
        assert_eq!(RetryPolicy::default().backoff_budget_ms, None);
        let p = RetryPolicy::default().with_budget(750);
        assert_eq!(p.backoff_budget_ms, Some(750));
    }
}
