//! Valid / retried / invalid / refused response tallies.

/// Per-bucket response accounting, the ledger the paper's automation keeps
/// when hosted answers go wrong: how many completions parsed first try,
/// how many needed a retry, and how many were unusable.
///
/// Two balance invariants hold. The *response* invariant
/// `injected == retried_valid + invalid + refused` holds because every
/// injected fault corrupts the answer (never silently passes) while an
/// un-injected surrogate completion always parses. The *serving*
/// invariant `admitted == completed + shed + expired + lint` holds
/// because the prediction service answers every submitted job exactly
/// once: with a completion, a load-shed rejection, a deadline expiry, or
/// a static-diagnostics rejection of raw source. Layers that never queue
/// jobs (the suite) leave the serving counters at zero, which balances
/// trivially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseAccounting {
    /// Completions that parsed on the first attempt.
    pub valid: u64,
    /// Completions that failed at least once but parsed after a retry.
    pub retried_valid: u64,
    /// Completions that exhausted retries without a parseable answer.
    pub invalid: u64,
    /// Completions terminated by a refusal.
    pub refused: u64,
    /// Attempts on which the fault plan injected a failure.
    pub injected: u64,
    /// Extra attempts issued beyond the first, across all requests.
    pub retries: u64,
    /// Total deterministic backoff the retry loop recorded, in ms.
    pub backoff_ms: u64,
    /// Jobs submitted to the serving layer (including ones later shed).
    pub admitted: u64,
    /// Jobs answered with a terminal completion (ok or a definitive err).
    pub completed: u64,
    /// Jobs shed under load: full admission queue, open circuit breaker,
    /// or a draining server.
    pub shed: u64,
    /// Jobs whose deadline passed before an answer could be delivered —
    /// distinct from upstream [`crate::PceError::Timeout`] faults, which
    /// land in `invalid`/`retried_valid`.
    pub expired: u64,
    /// The subset of `shed` rejected by an open circuit breaker.
    pub breaker_open: u64,
    /// Raw-source jobs rejected at admission by error-severity static
    /// diagnostics ([`crate::PceError::Lint`]).
    pub lint: u64,
}

/// The CSV column list shared by every ledger renderer (the suite's
/// response-ledger CSV and the serve bin's per-model ledger), in
/// [`ResponseAccounting::csv_row`] order.
pub const ACCOUNTING_CSV_COLUMNS: &str =
    "valid,retried_valid,invalid,refused,injected,retries,backoff_ms,\
     admitted,completed,shed,expired,breaker_open,lint";

impl ResponseAccounting {
    /// An empty ledger.
    pub fn new() -> ResponseAccounting {
        ResponseAccounting::default()
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &ResponseAccounting) {
        self.valid += other.valid;
        self.retried_valid += other.retried_valid;
        self.invalid += other.invalid;
        self.refused += other.refused;
        self.injected += other.injected;
        self.retries += other.retries;
        self.backoff_ms += other.backoff_ms;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.expired += other.expired;
        self.breaker_open += other.breaker_open;
        self.lint += other.lint;
    }

    /// Merge-and-return, for fold chains.
    pub fn merged(mut self, other: &ResponseAccounting) -> ResponseAccounting {
        self.merge(other);
        self
    }

    /// Total requests accounted for.
    pub fn total(&self) -> u64 {
        self.valid + self.retried_valid + self.invalid + self.refused
    }

    /// Requests that a fault hit but a retry repaired.
    pub fn recovered(&self) -> u64 {
        self.retried_valid
    }

    /// Whether any fault touched this bucket — gates the accounting
    /// sections in reports so chaos-free runs render byte-identically to
    /// the historical goldens.
    pub fn faulted(&self) -> bool {
        self.injected > 0 || self.retried_valid > 0 || self.invalid > 0 || self.refused > 0
    }

    /// The response-level chaos balance invariant: every injected fault
    /// must end up recovered, invalid, or refused.
    pub fn response_balanced(&self) -> bool {
        self.injected == self.retried_valid + self.invalid + self.refused
    }

    /// The serving-level balance invariant: every submitted job must be
    /// answered exactly once — completed, shed, expired, or
    /// lint-rejected — and breaker rejections are a subset of sheds.
    pub fn serve_balanced(&self) -> bool {
        self.admitted == self.completed + self.shed + self.expired + self.lint
            && self.breaker_open <= self.shed
    }

    /// Both ledger invariants:
    /// `injected == retried_valid + invalid + refused` ∧
    /// `admitted == completed + shed + expired + lint`.
    pub fn balanced(&self) -> bool {
        self.response_balanced() && self.serve_balanced()
    }

    /// This ledger as one CSV row fragment, in
    /// [`ACCOUNTING_CSV_COLUMNS`] order — shared by the suite's
    /// response-ledger CSV and the serve bin's per-model ledger so both
    /// report the same schema.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.valid,
            self.retried_valid,
            self.invalid,
            self.refused,
            self.injected,
            self.retries,
            self.backoff_ms,
            self.admitted,
            self.completed,
            self.shed,
            self.expired,
            self.breaker_open,
            self.lint,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_clean_and_balanced() {
        let a = ResponseAccounting::new();
        assert_eq!(a.total(), 0);
        assert!(!a.faulted());
        assert!(a.balanced());
    }

    #[test]
    fn merge_adds_every_counter() {
        let a = ResponseAccounting {
            valid: 10,
            retried_valid: 2,
            invalid: 1,
            refused: 1,
            injected: 4,
            retries: 5,
            backoff_ms: 700,
            admitted: 17,
            completed: 14,
            shed: 1,
            expired: 1,
            breaker_open: 1,
            lint: 1,
        };
        let merged = a.merged(&a);
        assert_eq!(merged.valid, 20);
        assert_eq!(merged.retried_valid, 4);
        assert_eq!(merged.invalid, 2);
        assert_eq!(merged.refused, 2);
        assert_eq!(merged.injected, 8);
        assert_eq!(merged.retries, 10);
        assert_eq!(merged.backoff_ms, 1400);
        assert_eq!(merged.admitted, 34);
        assert_eq!(merged.completed, 28);
        assert_eq!(merged.shed, 2);
        assert_eq!(merged.expired, 2);
        assert_eq!(merged.breaker_open, 2);
        assert_eq!(merged.lint, 2);
        assert_eq!(merged.total(), 28);
        assert_eq!(merged.recovered(), 4);
        assert!(merged.faulted());
        assert!(merged.balanced());
    }

    #[test]
    fn imbalance_is_detected() {
        let a = ResponseAccounting {
            injected: 3,
            retried_valid: 1,
            ..ResponseAccounting::new()
        };
        assert!(!a.response_balanced());
        assert!(!a.balanced());
    }

    #[test]
    fn serve_imbalance_is_detected() {
        // A job admitted but never answered breaks the serving invariant
        // even when the response invariant holds.
        let a = ResponseAccounting {
            admitted: 5,
            completed: 3,
            shed: 1,
            ..ResponseAccounting::new()
        };
        assert!(a.response_balanced());
        assert!(!a.serve_balanced());
        assert!(!a.balanced());
        // Breaker rejections exceeding total sheds are also an imbalance.
        let b = ResponseAccounting {
            admitted: 2,
            shed: 1,
            completed: 1,
            breaker_open: 2,
            ..ResponseAccounting::new()
        };
        assert!(!b.serve_balanced());
    }

    #[test]
    fn csv_row_matches_the_shared_column_list() {
        let a = ResponseAccounting {
            valid: 1,
            retried_valid: 2,
            invalid: 3,
            refused: 4,
            injected: 9,
            retries: 6,
            backoff_ms: 123,
            admitted: 12,
            completed: 8,
            shed: 2,
            expired: 1,
            breaker_open: 1,
            lint: 1,
        };
        assert_eq!(a.csv_row(), "1,2,3,4,9,6,123,12,8,2,1,1,1");
        assert_eq!(
            a.csv_row().split(',').count(),
            ACCOUNTING_CSV_COLUMNS.split(',').count()
        );
    }
}
