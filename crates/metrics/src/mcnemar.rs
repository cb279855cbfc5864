//! McNemar's test for comparing two classifiers evaluated on the *same*
//! samples (paired design) — used by the harness to test whether, e.g., the
//! RQ3 few-shot run differs significantly from the RQ2 zero-shot run for a
//! given model, backing the paper's "not much of a difference" claims.

use crate::chi2::chi2_sf;

/// Result of McNemar's test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McNemarResult {
    /// Samples classifier A got right and B got wrong.
    pub a_only: u64,
    /// Samples classifier B got right and A got wrong.
    pub b_only: u64,
    /// Continuity-corrected chi-squared statistic (1 dof).
    pub statistic: f64,
    /// Right-tail p-value.
    pub p_value: f64,
}

impl McNemarResult {
    /// Whether the paired difference is significant at `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Run McNemar's test (with Edwards' continuity correction) over paired
/// correctness indicators.
///
/// `a_correct[i]` / `b_correct[i]` state whether each classifier answered
/// sample `i` correctly.
///
/// # Panics
/// Panics when the slices have different lengths — that would mean the
/// design is not actually paired.
pub fn mcnemar_test(a_correct: &[bool], b_correct: &[bool]) -> McNemarResult {
    assert_eq!(
        a_correct.len(),
        b_correct.len(),
        "paired test requires equal-length outcome vectors"
    );
    let mut a_only = 0u64;
    let mut b_only = 0u64;
    for (&a, &b) in a_correct.iter().zip(b_correct) {
        match (a, b) {
            (true, false) => a_only += 1,
            (false, true) => b_only += 1,
            _ => {}
        }
    }
    let n = a_only + b_only;
    let (statistic, p_value) = if n == 0 {
        // Identical discordance pattern: no evidence of difference.
        (0.0, 1.0)
    } else {
        let diff = (a_only as f64 - b_only as f64).abs() - 1.0;
        let stat = (diff.max(0.0)).powi(2) / n as f64;
        (stat, chi2_sf(stat, 1))
    };
    McNemarResult {
        a_only,
        b_only,
        statistic,
        p_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_classifiers_are_not_different() {
        let a = vec![true, false, true, true];
        let r = mcnemar_test(&a, &a);
        assert_eq!(r.a_only, 0);
        assert_eq!(r.b_only, 0);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn symmetric_disagreement_is_not_significant() {
        let a = vec![true, false, true, false];
        let b = vec![false, true, false, true];
        let r = mcnemar_test(&a, &b);
        assert_eq!(r.a_only, 2);
        assert_eq!(r.b_only, 2);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn strong_one_sided_disagreement_is_significant() {
        // A right/B wrong on 30 samples, the reverse on 2.
        let mut a = vec![true; 32];
        let mut b = vec![false; 32];
        for item in b.iter_mut().take(2) {
            *item = true;
        }
        for item in a.iter_mut().take(2) {
            *item = false;
        }
        let r = mcnemar_test(&a, &b);
        assert_eq!(r.a_only, 30);
        assert_eq!(r.b_only, 2);
        assert!(r.significant_at(0.001));
    }

    #[test]
    fn known_textbook_example() {
        // Classic 10 vs 25 discordant pairs:
        // stat = (|10-25|-1)^2/35 = 196/35 = 5.6, p ~ 0.0180
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..10 {
            a.push(true);
            b.push(false);
        }
        for _ in 0..25 {
            a.push(false);
            b.push(true);
        }
        let r = mcnemar_test(&a, &b);
        assert!((r.statistic - 5.6).abs() < 1e-12);
        assert!((r.p_value - 0.0179712).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn unequal_lengths_panic() {
        mcnemar_test(&[true], &[true, false]);
    }
}
