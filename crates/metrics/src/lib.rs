//! # pce-metrics
//!
//! Evaluation metrics for the binary roofline-classification task, exactly
//! as defined in §3.1 of the paper:
//!
//! * **accuracy** — fraction of correct predictions,
//! * **macro F1** — unweighted mean of per-class F1 scores (chosen because
//!   it does not require designating a "positive" class),
//! * **MCC** — Matthews Correlation Coefficient in `[-1, +1]`,
//!
//! all scaled ×100 for readability, as in Table 1.
//!
//! Also provided: the chi-squared test of independence the paper uses to
//! show temperature/top_p insensitivity (§3.2) and McNemar's test for
//! paired classifier comparison.
//!
//! ```
//! use pce_metrics::ConfusionMatrix;
//!
//! let mut cm = ConfusionMatrix::new();
//! for (truth, pred) in [(true, true), (true, false), (false, false), (false, false)] {
//!     cm.record(truth, pred);
//! }
//! assert_eq!(cm.total(), 4);
//! assert!((cm.accuracy() - 0.75).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod chi2;
pub mod confusion;
pub mod mcnemar;

pub use chi2::{chi_squared_independence, Chi2Result};
pub use confusion::{ConfusionMatrix, MetricBundle};
pub use mcnemar::{mcnemar_test, McNemarResult};
