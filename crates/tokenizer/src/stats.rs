//! Token-count statistics: the quartile/box-whisker summaries behind the
//! paper's Figure 2.

use serde::Serialize;

/// Five-number summary (plus mean) of a token-count sample — one box in a
/// box-and-whisker plot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TokenStats {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl TokenStats {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Compute quartile statistics over token counts.
///
/// Quantiles use the standard linear-interpolation estimator (type 7, the
/// numpy/matplotlib default — what the paper's box plots would have used).
///
/// # Panics
/// Panics on an empty sample.
pub fn token_quartiles(counts: &[usize]) -> TokenStats {
    assert!(!counts.is_empty(), "cannot summarize an empty sample");
    let mut sorted: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        let idx = p * (sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (idx - lo as f64) * (sorted[hi] - sorted[lo])
        }
    };
    TokenStats {
        n: sorted.len(),
        min: sorted[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: *sorted.last().expect("sample verified non-empty above"),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_quartiles_match_numpy() {
        // numpy.percentile([1..=9], [25,50,75]) -> 3.0, 5.0, 7.0
        let counts: Vec<usize> = (1..=9).collect();
        let s = token_quartiles(&counts);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q3, 7.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn interpolated_quartiles() {
        // numpy.percentile([1,2,3,4], 25) = 1.75
        let s = token_quartiles(&[1, 2, 3, 4]);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn single_element_collapses() {
        let s = token_quartiles(&[42]);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.iqr(), 0.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = token_quartiles(&[9, 1, 5, 3, 7]);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        token_quartiles(&[]);
    }
}
