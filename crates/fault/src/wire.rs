//! Wire-level (connection) chaos: torn lines, disconnects, and
//! slow-client stalls for the serve line protocol.
//!
//! The response-level [`crate::FaultPlan`] corrupts what a model *says*;
//! this layer corrupts how the bytes *arrive*. A [`WirePlan`] is a pure
//! function from a request line's bytes (plus the plan seed) to an
//! optional [`WireFault`], so every torn line, dropped connection, and
//! stall lands on the same request at any batch size or
//! `RAYON_NUM_THREADS` — and stalls advance a *virtual* clock, never a
//! real sleep, keeping chaos runs instant and byte-reproducible.

use crate::{fnv1a, scramble, unit};

/// Salt separating wire draws from the response-fault and retry-seed
/// streams, fixed so realized wire chaos is pinned across builds.
const WIRE_SALT: u64 = 0xfa_17_00_03;

/// Smallest stall a slow client injects, in virtual milliseconds.
pub const MIN_STALL_MS: u64 = 10;
/// Largest stall a slow client injects, in virtual milliseconds.
pub const MAX_STALL_MS: u64 = 250;

/// The injectable connection faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The line arrives cut off after `at` bytes (a partial write); the
    /// server sees only the prefix and must answer it as a parse error,
    /// never hang waiting for the rest.
    Torn {
        /// Byte offset of the tear — always a UTF-8 character boundary
        /// strictly inside the line.
        at: usize,
    },
    /// The client vanishes mid-session: nothing after this line is read,
    /// and in-flight work must still drain to a balanced ledger.
    Disconnect,
    /// A slow client: the line arrives `ms` virtual milliseconds late,
    /// advancing the server's virtual clock (never a real sleep).
    Stall {
        /// The virtual delay, in `[MIN_STALL_MS, MAX_STALL_MS]`.
        ms: u64,
    },
}

/// Per-kind wire fault probabilities. Bernoulli rates in `[0, 1]` whose
/// sum must stay ≤ 1 (at most one wire fault per line).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRates {
    /// Probability a line arrives torn.
    pub torn: f64,
    /// Probability the connection drops at this line.
    pub disconnect: f64,
    /// Probability the line arrives after a stall.
    pub stall: f64,
}

impl WireRates {
    /// No wire faults at all: what [`crate::FaultPlan::uniform`] arms, so
    /// response-only chaos plans never touch a protocol line.
    pub fn zero() -> WireRates {
        WireRates {
            torn: 0.0,
            disconnect: 0.0,
            stall: 0.0,
        }
    }

    /// Split one total wire-fault rate evenly across the three kinds.
    pub fn uniform(total: f64) -> WireRates {
        let each = total.clamp(0.0, 1.0) / 3.0;
        WireRates {
            torn: each,
            disconnect: each,
            stall: each,
        }
    }

    /// The rates in cumulative-draw order: torn, disconnect, stall.
    pub fn as_array(&self) -> [f64; 3] {
        [self.torn, self.disconnect, self.stall]
    }

    /// Total per-line wire fault probability.
    pub fn total(&self) -> f64 {
        self.as_array().iter().sum()
    }
}

/// A seeded connection-chaos plan: a pure function from a request line's
/// bytes to an optional [`WireFault`].
///
/// The draw depends only on `(plan seed, line bytes)` — never on
/// wall-clock, thread id, batch position, or queue depth — so a storm
/// transcript (including exactly which jobs were torn, dropped, or
/// stalled) is byte-identical across `RAYON_NUM_THREADS` and repeated
/// runs at the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePlan {
    /// The chaos seed shared with the owning [`crate::FaultPlan`].
    pub seed: u64,
    /// Per-kind wire injection rates.
    pub rates: WireRates,
}

impl WirePlan {
    /// Whether this plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.rates.total() > 0.0
    }

    /// Decide the wire fault (if any) for one protocol line.
    ///
    /// A `Torn` draw on a line shorter than two bytes degrades to `None`:
    /// there is no interior offset to tear at.
    pub fn draw(&self, line: &str) -> Option<WireFault> {
        if !self.is_active() {
            return None;
        }
        let h = fnv1a(&[&(self.seed ^ WIRE_SALT).to_le_bytes(), line.as_bytes()]);
        let u = unit(scramble(h));
        // A second independent stream for the fault's parameter (tear
        // offset or stall length), derived from the same identity.
        let param = scramble(h ^ WIRE_SALT.rotate_left(32));
        let mut cumulative = 0.0;
        for (idx, rate) in self.rates.as_array().into_iter().enumerate() {
            cumulative += rate;
            if u < cumulative {
                return match idx {
                    0 => tear_at(line, param).map(|at| WireFault::Torn { at }),
                    1 => Some(WireFault::Disconnect),
                    _ => Some(WireFault::Stall {
                        ms: MIN_STALL_MS + param % (MAX_STALL_MS - MIN_STALL_MS + 1),
                    }),
                };
            }
        }
        None
    }
}

/// Pick a UTF-8-safe tear offset strictly inside `line`, or `None` when
/// the line is too short to tear.
fn tear_at(line: &str, param: u64) -> Option<usize> {
    if line.len() < 2 {
        return None;
    }
    let mut at = line.floor_char_boundary(1 + (param as usize) % (line.len() - 1));
    // Flooring to a boundary can only land on 0 if byte 1 sat inside a
    // multi-byte char; tear after it instead so a prefix survives.
    if at == 0 {
        at = line
            .char_indices()
            .nth(1)
            .map(|(i, _)| i)
            .unwrap_or(line.len());
    }
    (at < line.len()).then_some(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_injects_and_is_inactive() {
        let plan = WirePlan {
            seed: 7,
            rates: WireRates::zero(),
        };
        assert!(!plan.is_active());
        for i in 0..256 {
            assert_eq!(plan.draw(&format!("predict id=j{i}")), None);
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = WirePlan {
            seed: 1,
            rates: WireRates::uniform(0.9),
        };
        let b = WirePlan { seed: 2, ..a };
        let draw = |p: WirePlan| -> Vec<Option<WireFault>> {
            (0..64).map(|i| p.draw(&format!("line {i}"))).collect()
        };
        assert_eq!(draw(a), draw(a));
        assert_ne!(draw(a), draw(b));
    }

    #[test]
    fn all_kinds_are_reachable_and_frequency_tracks_the_rate() {
        let plan = WirePlan {
            seed: 3,
            rates: WireRates::uniform(0.3),
        };
        let mut torn = 0usize;
        let mut disconnect = 0usize;
        let mut stall = 0usize;
        let n = 4000;
        for i in 0..n {
            match plan.draw(&format!("predict id=s{i} kernel=axpy")) {
                Some(WireFault::Torn { at }) => {
                    assert!(at > 0);
                    torn += 1;
                }
                Some(WireFault::Disconnect) => disconnect += 1,
                Some(WireFault::Stall { ms }) => {
                    assert!((MIN_STALL_MS..=MAX_STALL_MS).contains(&ms));
                    stall += 1;
                }
                None => {}
            }
        }
        assert!(torn > 0 && disconnect > 0 && stall > 0);
        let freq = (torn + disconnect + stall) as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.03, "observed {freq}");
    }

    #[test]
    fn tears_land_on_char_boundaries_inside_the_line() {
        for param in 0..64u64 {
            for line in ["ab", "predict id=j1", "héllo wörld ★ spec=a100"] {
                if let Some(at) = tear_at(line, param) {
                    assert!(at > 0 && at < line.len(), "{line}: {at}");
                    assert!(line.is_char_boundary(at));
                }
            }
            assert_eq!(tear_at("", param), None);
            assert_eq!(tear_at("x", param), None);
            // A 2-byte line made of one multi-byte char has no interior
            // boundary the floored offset can use; the nth(1) fallback lands
            // past the end and is rejected.
            assert_eq!(tear_at("é", param), None);
        }
    }
}
