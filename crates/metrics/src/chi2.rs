//! Pearson's chi-squared test of independence on r×c contingency tables,
//! with p-values computed through the regularised upper incomplete gamma
//! function (no external stats dependency).
//!
//! The paper uses this test to show that temperature/top_p changes have no
//! statistically significant effect on predicted outcomes (§3.2).

use pce_fault::PceError;
use serde::Serialize;

/// Result of a chi-squared independence test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Chi2Result {
    /// The chi-squared statistic.
    pub statistic: f64,
    /// Degrees of freedom `(r-1)(c-1)`.
    pub dof: u32,
    /// Right-tail p-value.
    pub p_value: f64,
}

impl Chi2Result {
    /// Whether the null hypothesis of independence is rejected at `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Pearson chi-squared test of independence.
///
/// `table[r][c]` holds observed counts. Rows/columns that sum to zero are
/// dropped (they carry no information and would divide by zero).
///
/// # Errors
/// Returns a [`PceError::Spec`] when fewer than two informative rows or
/// columns remain — a degenerate table is a study-design problem, not a
/// data condition worth panicking over.
pub fn chi_squared_independence(table: &[Vec<u64>]) -> Result<Chi2Result, PceError> {
    if table.is_empty() {
        return Err(PceError::spec("empty contingency table"));
    }
    let ncols = table[0].len();
    if table.iter().any(|row| row.len() != ncols) {
        return Err(PceError::spec("ragged contingency table"));
    }

    let row_sums: Vec<u64> = table.iter().map(|r| r.iter().sum()).collect();
    let col_sums: Vec<u64> = (0..ncols)
        .map(|c| table.iter().map(|r| r[c]).sum())
        .collect();
    let grand: u64 = row_sums.iter().sum();
    if grand == 0 {
        return Err(PceError::spec("all-zero contingency table"));
    }

    let live_rows: Vec<usize> = (0..table.len()).filter(|&r| row_sums[r] > 0).collect();
    let live_cols: Vec<usize> = (0..ncols).filter(|&c| col_sums[c] > 0).collect();
    if live_rows.len() < 2 || live_cols.len() < 2 {
        return Err(PceError::spec(
            "need at least a 2x2 contingency table with nonzero marginals",
        ));
    }

    let grand_f = grand as f64;
    let mut stat = 0.0;
    for &r in &live_rows {
        for &c in &live_cols {
            let expected = row_sums[r] as f64 * col_sums[c] as f64 / grand_f;
            let observed = table[r][c] as f64;
            stat += (observed - expected).powi(2) / expected;
        }
    }
    let dof = ((live_rows.len() - 1) * (live_cols.len() - 1)) as u32;
    let p_value = chi2_sf(stat, dof);
    Ok(Chi2Result {
        statistic: stat,
        dof,
        p_value,
    })
}

/// Survival function of the chi-squared distribution:
/// `P(X >= x)` with `k` degrees of freedom, i.e. `Q(k/2, x/2)` where `Q` is
/// the regularised upper incomplete gamma function.
pub fn chi2_sf(x: f64, k: u32) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    regularized_gamma_q(k as f64 / 2.0, x / 2.0)
}

/// Regularised upper incomplete gamma function `Q(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction
/// otherwise — the classic Numerical-Recipes split, accurate to ~1e-12 over
/// the ranges a statistics test ever sees.
pub fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid gamma arguments a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Lower regularised gamma `P(a, x)` via its power series.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Upper regularised gamma `Q(a, x)` via Lentz's continued fraction.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut sum = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        sum += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // ln Γ(n) = ln (n-1)!
        let cases = [
            (1.0, 0.0),
            (2.0, 0.0),
            (5.0, 24f64.ln()),
            (10.0, 362880f64.ln()),
        ];
        for (x, expected) in cases {
            assert!(
                (ln_gamma(x) - expected).abs() < 1e-10,
                "ln_gamma({x}) = {} != {expected}",
                ln_gamma(x)
            );
        }
    }

    #[test]
    fn ln_gamma_half_is_log_sqrt_pi() {
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-12);
    }

    #[test]
    fn chi2_sf_matches_known_critical_values() {
        // Critical values from standard chi-squared tables.
        // P(X >= 3.841) with 1 dof = 0.05
        assert!((chi2_sf(3.841458820694124, 1) - 0.05).abs() < 1e-6);
        // P(X >= 5.991) with 2 dof = 0.05
        assert!((chi2_sf(5.991464547107979, 2) - 0.05).abs() < 1e-6);
        // P(X >= 6.635) with 1 dof = 0.01
        assert!((chi2_sf(6.6348966010212145, 1) - 0.01).abs() < 1e-6);
        // sf at 0 is 1
        assert_eq!(chi2_sf(0.0, 3), 1.0);
    }

    #[test]
    fn independence_test_on_independent_table_is_not_significant() {
        // Perfectly proportional rows: statistic exactly 0.
        let table = vec![vec![20, 30], vec![40, 60]];
        let r = chi_squared_independence(&table).unwrap();
        assert!(r.statistic.abs() < 1e-9);
        assert_eq!(r.dof, 1);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn independence_test_on_dependent_table_is_significant() {
        let table = vec![vec![50, 5], vec![5, 50]];
        let r = chi_squared_independence(&table).unwrap();
        assert!(r.statistic > 50.0);
        assert!(r.p_value < 1e-9);
        assert!(r.significant_at(0.01));
    }

    #[test]
    fn known_2x2_example_matches_scipy() {
        // scipy.stats.chi2_contingency([[10,20],[30,40]], correction=False)
        // -> statistic 0.7936..., p 0.37299848361348714
        let table = vec![vec![10, 20], vec![30, 40]];
        let r = chi_squared_independence(&table).unwrap();
        assert!((r.statistic - 0.7936507936507936).abs() < 1e-9);
        assert!((r.p_value - 0.37299848361348714).abs() < 1e-6);
    }

    #[test]
    fn zero_rows_and_columns_are_dropped() {
        let table = vec![vec![10, 0, 20], vec![0, 0, 0], vec![30, 0, 40]];
        let r = chi_squared_independence(&table).unwrap();
        assert_eq!(r.dof, 1); // collapses to 2x2
    }

    #[test]
    fn degenerate_tables_error() {
        assert!(chi_squared_independence(&[]).is_err());
        assert!(chi_squared_independence(&[vec![1, 2]]).is_err());
        assert!(chi_squared_independence(&[vec![0, 0], vec![0, 0]]).is_err());
        assert!(chi_squared_independence(&[vec![1], vec![2]]).is_err());
        assert!(chi_squared_independence(&[vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn degenerate_tables_name_the_problem() {
        let cases: [(&[Vec<u64>], &str); 4] = [
            (&[], "invalid spec: empty contingency table"),
            (
                &[vec![1, 2], vec![3]],
                "invalid spec: ragged contingency table",
            ),
            (
                &[vec![0, 0], vec![0, 0]],
                "invalid spec: all-zero contingency table",
            ),
            (
                &[vec![1, 2]],
                "invalid spec: need at least a 2x2 contingency table with nonzero marginals",
            ),
        ];
        for (table, message) in cases {
            let err = chi_squared_independence(table).unwrap_err();
            assert_eq!(err.to_string(), message);
            assert_eq!(err.kind(), "spec");
            assert!(!err.retryable(), "a bad table never fixes itself");
        }
    }
}
