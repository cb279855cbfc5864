//! Binary confusion matrix and the paper's three reported metrics.
//!
//! The matrix is *label-symmetric*: the paper deliberately picks accuracy,
//! macro-F1 and MCC because neither CB nor BB is a natural "positive"
//! class (§3.1). We arbitrarily map one class to `true` at the call site;
//! every metric here is invariant (accuracy, macro-F1) or equivariant (MCC
//! keeps its sign structure) under that choice.

use serde::Serialize;

/// A 2×2 confusion matrix over an arbitrary binary labeling.
///
/// `truth=true, pred=true` increments `tp`, etc. Unparseable model answers
/// should be recorded with [`ConfusionMatrix::record_invalid`], which counts
/// them as errors against the true class (matching the paper's automation,
/// which marks any non-singleton answer wrong).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// truth=true predicted true.
    pub tp: u64,
    /// truth=false predicted true.
    pub fp: u64,
    /// truth=false predicted false.
    pub tn: u64,
    /// truth=true predicted false.
    pub fn_: u64,
    /// truth=true with an unparseable prediction.
    pub invalid_pos: u64,
    /// truth=false with an unparseable prediction.
    pub invalid_neg: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (truth, prediction) pair.
    #[inline]
    pub fn record(&mut self, truth: bool, pred: bool) {
        match (truth, pred) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Record a sample whose prediction could not be parsed into a class.
    #[inline]
    pub fn record_invalid(&mut self, truth: bool) {
        if truth {
            self.invalid_pos += 1;
        } else {
            self.invalid_neg += 1;
        }
    }

    /// Record an optional prediction (`None` = unparseable).
    #[inline]
    pub fn record_opt(&mut self, truth: bool, pred: Option<bool>) {
        match pred {
            Some(p) => self.record(truth, p),
            None => self.record_invalid(truth),
        }
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
        self.invalid_pos += other.invalid_pos;
        self.invalid_neg += other.invalid_neg;
    }

    /// Total number of recorded samples (including invalid answers).
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_ + self.invalid_pos + self.invalid_neg
    }

    /// Number of correct predictions.
    pub fn correct(&self) -> u64 {
        self.tp + self.tn
    }

    /// Accuracy in `[0, 1]`; 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.correct() as f64 / total as f64
        }
    }

    /// F1 of the `true` class. Invalid answers count as misses.
    pub fn f1_positive(&self) -> f64 {
        let tp = self.tp as f64;
        let denom = 2.0 * tp + self.fp as f64 + (self.fn_ + self.invalid_pos) as f64;
        if denom == 0.0 {
            0.0
        } else {
            2.0 * tp / denom
        }
    }

    /// F1 of the `false` class.
    pub fn f1_negative(&self) -> f64 {
        let tn = self.tn as f64;
        let denom = 2.0 * tn + (self.fn_) as f64 + (self.fp + self.invalid_neg) as f64;
        if denom == 0.0 {
            0.0
        } else {
            2.0 * tn / denom
        }
    }

    /// Macro F1: the unweighted mean of both class F1 scores (§3.1).
    pub fn macro_f1(&self) -> f64 {
        0.5 * (self.f1_positive() + self.f1_negative())
    }

    /// Matthews Correlation Coefficient in `[-1, 1]`.
    ///
    /// +1 is perfect prediction, 0 matches a random predictor, −1 is
    /// perfect inverse prediction (§3.1). Invalid answers are folded into
    /// the miss counts of their true class. When any marginal is zero the
    /// coefficient is defined as 0 (the standard convention).
    pub fn mcc(&self) -> f64 {
        let tp = self.tp as f64;
        let tn = self.tn as f64;
        let fp = (self.fp + self.invalid_neg) as f64;
        let fn_ = (self.fn_ + self.invalid_pos) as f64;
        let denom = (tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_);
        if denom == 0.0 {
            0.0
        } else {
            (tp * tn - fp * fn_) / denom.sqrt()
        }
    }

    /// Accuracy as `Some(value)` — `None` for an empty matrix, so callers
    /// whose invalid-response filtering emptied a bucket can render "–"
    /// instead of a fabricated 0.
    pub fn accuracy_opt(&self) -> Option<f64> {
        if self.total() == 0 {
            None
        } else {
            Some(self.accuracy())
        }
    }

    /// The three Table-1 metrics, ×100.
    pub fn bundle(&self) -> MetricBundle {
        MetricBundle {
            accuracy: self.accuracy() * 100.0,
            macro_f1: self.macro_f1() * 100.0,
            mcc: self.mcc() * 100.0,
            n: self.total(),
        }
    }

    /// [`ConfusionMatrix::bundle`] as `Some(bundle)` — `None` for an empty
    /// matrix rather than an all-zero bundle that reads like a real score.
    pub fn bundle_opt(&self) -> Option<MetricBundle> {
        if self.total() == 0 {
            None
        } else {
            Some(self.bundle())
        }
    }
}

/// Accuracy / macro-F1 / MCC scaled ×100, as reported in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MetricBundle {
    /// Accuracy × 100.
    pub accuracy: f64,
    /// Macro F1 × 100.
    pub macro_f1: f64,
    /// MCC × 100.
    pub mcc: f64,
    /// Number of evaluated samples.
    pub n: u64,
}

impl std::fmt::Display for MetricBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acc={:.2} f1={:.2} mcc={:.2} (n={})",
            self.accuracy, self.macro_f1, self.mcc, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(tp: u64, fp: u64, tn: u64, fn_: u64) -> ConfusionMatrix {
        ConfusionMatrix {
            tp,
            fp,
            tn,
            fn_,
            invalid_pos: 0,
            invalid_neg: 0,
        }
    }

    #[test]
    fn perfect_prediction_scores_ceiling_on_all_metrics() {
        let cm = matrix(50, 0, 50, 0);
        assert!((cm.accuracy() - 1.0).abs() < 1e-12);
        assert!((cm.macro_f1() - 1.0).abs() < 1e-12);
        assert!((cm.mcc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_prediction_has_mcc_minus_one() {
        let cm = matrix(0, 50, 0, 50);
        assert!((cm.mcc() + 1.0).abs() < 1e-12);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn random_balanced_prediction_has_mcc_zero() {
        let cm = matrix(25, 25, 25, 25);
        assert!(cm.mcc().abs() < 1e-12);
        assert!((cm.accuracy() - 0.5).abs() < 1e-12);
        assert!((cm.macro_f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn always_one_class_has_mcc_zero() {
        // The RQ4 collapse mode: model always answers the same class.
        let cm = matrix(50, 50, 0, 0);
        assert_eq!(cm.mcc(), 0.0);
        assert!((cm.accuracy() - 0.5).abs() < 1e-12);
        // Macro F1 is pulled below 0.5: one class has F1 2/3, the other 0.
        assert!((cm.macro_f1() - (2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn known_sklearn_example_matches() {
        // sklearn: y_true=[1,1,1,0], y_pred=[1,0,1,0]
        // tp=2 fn=1 tn=1 fp=0 -> acc .75, f1_pos .8, f1_neg 2/3, mcc ~0.577
        let cm = matrix(2, 0, 1, 1);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
        assert!((cm.f1_positive() - 0.8).abs() < 1e-12);
        assert!((cm.f1_negative() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.mcc() - 0.5773502691896258).abs() < 1e-9);
    }

    #[test]
    fn invalid_answers_penalize_accuracy_and_f1() {
        let mut cm = matrix(10, 0, 10, 0);
        let acc_before = cm.accuracy();
        cm.record_invalid(true);
        cm.record_invalid(false);
        assert!(cm.accuracy() < acc_before);
        assert_eq!(cm.total(), 22);
        assert!(cm.macro_f1() < 1.0);
        assert!(cm.mcc() < 1.0);
    }

    #[test]
    fn record_opt_routes_to_invalid() {
        let mut cm = ConfusionMatrix::new();
        cm.record_opt(true, Some(true));
        cm.record_opt(false, None);
        assert_eq!(cm.tp, 1);
        assert_eq!(cm.invalid_neg, 1);
    }

    #[test]
    fn merge_sums_all_cells() {
        let mut a = matrix(1, 2, 3, 4);
        let b = matrix(10, 20, 30, 40);
        a.merge(&b);
        assert_eq!(a, matrix(11, 22, 33, 44));
    }

    #[test]
    fn empty_matrix_is_all_zeros() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.macro_f1(), 0.0);
        assert_eq!(cm.mcc(), 0.0);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn opt_accessors_distinguish_empty_from_zero_score() {
        let empty = ConfusionMatrix::new();
        assert_eq!(empty.accuracy_opt(), None);
        assert_eq!(empty.bundle_opt(), None);
        // A genuinely zero accuracy still reports as a value...
        let all_wrong = matrix(0, 5, 0, 5);
        assert_eq!(all_wrong.accuracy_opt(), Some(0.0));
        assert_eq!(all_wrong.bundle_opt(), Some(all_wrong.bundle()));
        // ...and so does a matrix holding only invalid answers.
        let mut only_invalid = ConfusionMatrix::new();
        only_invalid.record_invalid(true);
        assert_eq!(only_invalid.accuracy_opt(), Some(0.0));
    }

    #[test]
    fn bundle_scales_by_100() {
        let cm = matrix(25, 25, 25, 25);
        let b = cm.bundle();
        assert!((b.accuracy - 50.0).abs() < 1e-9);
        assert!((b.macro_f1 - 50.0).abs() < 1e-9);
        assert!(b.mcc.abs() < 1e-9);
        assert_eq!(b.n, 100);
    }

    #[test]
    fn metrics_are_label_flip_invariant() {
        // Swapping the arbitrary true/false assignment must not change
        // accuracy, macro-F1, or |MCC| — this is why the paper picked them.
        let cm = matrix(30, 10, 40, 20);
        let flipped = matrix(40, 20, 30, 10);
        assert!((cm.accuracy() - flipped.accuracy()).abs() < 1e-12);
        assert!((cm.macro_f1() - flipped.macro_f1()).abs() < 1e-12);
        assert!((cm.mcc() - flipped.mcc()).abs() < 1e-12);
    }
}
