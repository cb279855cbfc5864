//! CB/BB classification, including the paper's joint three-roofline rule.
//!
//! §2.1: *"we classify each of the kernels as BB or CB, relative to the
//! three arithmetic operation rooflines: SP-FLOP, DP-FLOP, or INTOP … If a
//! kernel is BB in all 3 arithmetic operations, we consider it BB for
//! classification; otherwise if there exists at least 1 operation type where
//! the kernel is CB, we consider it CB."*

use serde::{Deserialize, Serialize};

use crate::hardware::{HardwareSpec, OpClass};
use crate::observation::OpCounts;

/// The binary roofline class: the label space of the whole study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Boundedness {
    /// Performance limited by arithmetic throughput ("Compute" in prompts).
    Compute,
    /// Performance limited by memory bandwidth ("Bandwidth" in prompts).
    Bandwidth,
}

impl Boundedness {
    /// Both classes, CB first (the order used in Table 1's metrics).
    pub const ALL: [Boundedness; 2] = [Boundedness::Compute, Boundedness::Bandwidth];

    /// The single-word answer token the prompts require
    /// (`'Compute'` / `'Bandwidth'`, Fig. 4).
    pub fn answer_token(self) -> &'static str {
        match self {
            Boundedness::Compute => "Compute",
            Boundedness::Bandwidth => "Bandwidth",
        }
    }

    /// Short label used in figures ("CB"/"BB").
    pub fn short(self) -> &'static str {
        match self {
            Boundedness::Compute => "CB",
            Boundedness::Bandwidth => "BB",
        }
    }

    /// The opposite class.
    pub fn flipped(self) -> Boundedness {
        match self {
            Boundedness::Compute => Boundedness::Bandwidth,
            Boundedness::Bandwidth => Boundedness::Compute,
        }
    }

    /// Parse a (possibly decorated) model answer into a class.
    ///
    /// Accepts the canonical answer tokens case-insensitively, plus the
    /// common long forms "compute-bound"/"bandwidth-bound" and "memory".
    /// Returns `None` for anything else — the harness counts those as
    /// incorrect, as the paper's automation does.
    pub fn parse(answer: &str) -> Option<Boundedness> {
        let trimmed = answer
            .trim()
            .trim_matches(|c: char| c == '.' || c == '\'' || c == '"' || c == '`' || c == ':');
        let lower = trimmed.to_ascii_lowercase();
        if lower.starts_with("compute") {
            Some(Boundedness::Compute)
        } else if lower.starts_with("bandwidth") || lower.starts_with("memory") {
            Some(Boundedness::Bandwidth)
        } else {
            None
        }
    }
}

impl std::fmt::Display for Boundedness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.answer_token())
    }
}

/// Per-class classification outcome for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassOutcome {
    /// The operation class this outcome refers to.
    pub class: OpClass,
    /// Arithmetic intensity under this class (ops / total DRAM bytes).
    pub ai: f64,
    /// Balance point of this class's roofline.
    pub balance_point: f64,
    /// The verdict for this class alone.
    pub verdict: Boundedness,
}

/// The joint classification of a kernel under all three rooflines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointClassification {
    /// Per-class outcomes in `OpClass::ALL` order.
    pub per_class: Vec<ClassOutcome>,
    /// The paper's joint label: CB iff any class is CB.
    pub label: Boundedness,
}

impl JointClassification {
    /// The classes under which this kernel is compute-bound.
    pub fn compute_bound_classes(&self) -> Vec<OpClass> {
        self.per_class
            .iter()
            .filter(|o| o.verdict == Boundedness::Compute)
            .map(|o| o.class)
            .collect()
    }
}

/// Classify one kernel's counters against each of the hardware's three
/// rooflines independently.
///
/// Classes with zero executed operations have AI 0 and are trivially
/// bandwidth-bound, matching how zero counters behave in the paper's
/// pipeline.
pub fn classify_per_class(hw: &HardwareSpec, counts: &OpCounts) -> Vec<ClassOutcome> {
    OpClass::ALL
        .iter()
        .map(|&class| {
            let roof = hw.roofline(class);
            let ai = counts.ai(class);
            let verdict = if ai.is_infinite() {
                Boundedness::Compute
            } else {
                roof.classify(ai)
            };
            ClassOutcome {
                class,
                ai,
                balance_point: roof.balance_point(),
                verdict,
            }
        })
        .collect()
}

/// The paper's joint labeling rule: BB iff bandwidth-bound under **all**
/// three op-class rooflines, CB if compute-bound under at least one.
pub fn classify_joint(hw: &HardwareSpec, counts: &OpCounts) -> JointClassification {
    let per_class = classify_per_class(hw, counts);
    let label = if per_class.iter().any(|o| o.verdict == Boundedness::Compute) {
        Boundedness::Compute
    } else {
        Boundedness::Bandwidth
    };
    JointClassification { per_class, label }
}

/// The static roofline verdict from source-level estimates: the best
/// per-class margin, in decades, of arithmetic intensity over the ridge
/// point decides the side. `ai` and `ridge` are in [`OpClass::ALL`]
/// order. Returns the verdict and the best margin.
///
/// Classes with no estimated operations (AI ≤ 0) are skipped, and an
/// infinite AI (operations but no memory traffic) counts as a margin of
/// 3 decades. The kernel is compute-bound when any margin is ≥ 0; the
/// best margin is −1 (a far bandwidth-bound guess) when no class counted.
pub fn static_verdict(ai: [f64; 3], ridge: [f64; 3]) -> (Boundedness, f64) {
    let mut verdict = Boundedness::Bandwidth;
    let mut best_margin = f64::NEG_INFINITY;
    for (ai, ridge) in ai.into_iter().zip(ridge) {
        if ai <= 0.0 {
            continue;
        }
        let m = if ai.is_infinite() {
            3.0
        } else {
            (ai / ridge).log10()
        };
        best_margin = best_margin.max(m);
        if m >= 0.0 {
            verdict = Boundedness::Compute;
        }
    }
    if best_margin == f64::NEG_INFINITY {
        best_margin = -1.0;
    }
    (verdict, best_margin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareSpec {
        HardwareSpec::rtx_3080()
    }

    #[test]
    fn streaming_kernel_is_bandwidth_bound() {
        // SAXPY-ish: very low AI in every class.
        let counts = OpCounts {
            flops_sp: 2_000_000,
            intops: 1_000_000,
            dram_read_bytes: 8_000_000,
            dram_write_bytes: 4_000_000,
            ..OpCounts::default()
        };
        let joint = classify_joint(&hw(), &counts);
        assert_eq!(joint.label, Boundedness::Bandwidth);
        assert!(joint.compute_bound_classes().is_empty());
    }

    #[test]
    fn dp_heavy_kernel_is_compute_bound_via_dp_roofline() {
        // DP balance point on the 3080 is ~0.61 flop/B, so a DP kernel with
        // AI 1.0 is CB by DP even though it would be BB by SP.
        let counts = OpCounts {
            flops_dp: 12_000_000,
            dram_read_bytes: 8_000_000,
            dram_write_bytes: 4_000_000,
            ..OpCounts::default()
        };
        let joint = classify_joint(&hw(), &counts);
        assert_eq!(joint.label, Boundedness::Compute);
        assert_eq!(joint.compute_bound_classes(), vec![OpClass::Dp]);
    }

    #[test]
    fn joint_rule_is_cb_if_any_class_cb() {
        // Sp AI 50 (> ~39.2 balance) forces CB regardless of other classes.
        let counts = OpCounts {
            flops_sp: 600_000_000,
            dram_read_bytes: 8_000_000,
            dram_write_bytes: 4_000_000,
            ..OpCounts::default()
        };
        let joint = classify_joint(&hw(), &counts);
        assert_eq!(joint.label, Boundedness::Compute);
    }

    #[test]
    fn cache_resident_counts_are_compute_bound() {
        let counts = OpCounts {
            flops_sp: 1000,
            ..OpCounts::default()
        };
        let joint = classify_joint(&hw(), &counts);
        assert_eq!(joint.label, Boundedness::Compute);
    }

    #[test]
    fn per_class_outcomes_cover_all_three_rooflines() {
        let counts = OpCounts::default();
        let outcomes = classify_per_class(&hw(), &counts);
        assert_eq!(outcomes.len(), 3);
        let classes: Vec<_> = outcomes.iter().map(|o| o.class).collect();
        assert_eq!(classes, OpClass::ALL.to_vec());
        // Zero counters: all BB.
        assert!(outcomes.iter().all(|o| o.verdict == Boundedness::Bandwidth));
    }

    #[test]
    fn balance_points_are_ordered_dp_int_sp_on_3080() {
        let outcomes = classify_per_class(&hw(), &OpCounts::default());
        let bp: std::collections::HashMap<_, _> = outcomes
            .iter()
            .map(|o| (o.class, o.balance_point))
            .collect();
        assert!(bp[&OpClass::Dp] < bp[&OpClass::Int]);
        assert!(bp[&OpClass::Int] < bp[&OpClass::Sp]);
    }

    #[test]
    fn answer_token_parsing_accepts_variants() {
        assert_eq!(Boundedness::parse("Compute"), Some(Boundedness::Compute));
        assert_eq!(
            Boundedness::parse(" bandwidth "),
            Some(Boundedness::Bandwidth)
        );
        assert_eq!(
            Boundedness::parse("Compute-bound."),
            Some(Boundedness::Compute)
        );
        assert_eq!(
            Boundedness::parse("'Bandwidth'"),
            Some(Boundedness::Bandwidth)
        );
        assert_eq!(
            Boundedness::parse("memory-bound"),
            Some(Boundedness::Bandwidth)
        );
        assert_eq!(Boundedness::parse("dunno"), None);
        assert_eq!(Boundedness::parse(""), None);
    }

    #[test]
    fn static_verdict_takes_the_best_counted_margin() {
        let ridge = [10.0, 1.0, 5.0];
        // Every class below its ridge: bandwidth-bound by the closest one.
        let (v, m) = static_verdict([1.0, 0.1, 0.5], ridge);
        assert_eq!(v, Boundedness::Bandwidth);
        assert!((m + 1.0).abs() < 1e-12, "{m}");
        // One class at its ridge is enough for compute-bound.
        let (v, m) = static_verdict([1.0, 1.0, 0.0], ridge);
        assert_eq!((v, m), (Boundedness::Compute, 0.0));
        // Classes with no operations are skipped, not scored as -inf.
        let (v, m) = static_verdict([0.0, 0.01, -3.0], ridge);
        assert_eq!(v, Boundedness::Bandwidth);
        assert!((m + 2.0).abs() < 1e-12, "{m}");
        // Traffic-free operations count as three decades above the ridge.
        assert_eq!(
            static_verdict([f64::INFINITY, 0.0, 0.0], ridge),
            (Boundedness::Compute, 3.0)
        );
        // Nothing counted: the far bandwidth-bound guess.
        assert_eq!(
            static_verdict([0.0; 3], ridge),
            (Boundedness::Bandwidth, -1.0)
        );
    }

    #[test]
    fn flipped_is_involutive() {
        for b in Boundedness::ALL {
            assert_eq!(b.flipped().flipped(), b);
        }
    }
}
