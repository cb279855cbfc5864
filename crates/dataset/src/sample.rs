//! The evaluation sample: one profiled, labeled, token-counted program.

use serde::Serialize;

use pce_kernels::Language;
use pce_roofline::{Boundedness, OpCounts, SpecClass};

/// One dataset sample — everything RQ2/RQ3 prompts need, plus the
/// ground-truth label and provenance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Sample {
    /// Program id from the corpus.
    pub id: String,
    /// Kernel family.
    pub family: String,
    /// Source language.
    pub language: Language,
    /// Name of the profiled (first) kernel.
    pub kernel_name: String,
    /// Full source text.
    pub source: String,
    /// Launch geometry string for the prompt.
    pub geometry: String,
    /// CLI arguments.
    pub args: Vec<String>,
    /// BPE token count of `source`.
    pub token_count: usize,
    /// Name of the hardware spec this sample was profiled and labeled on
    /// (the language-routed member of the pipeline's spec pair).
    pub spec_name: String,
    /// Machine class of that spec: `Gpu` for CUDA samples, `Cpu` for OMP.
    pub spec_class: SpecClass,
    /// Profiled counters (ground truth inputs).
    pub counts: OpCounts,
    /// Profiled runtime in seconds.
    pub runtime_s: f64,
    /// Ground-truth roofline class.
    pub label: Boundedness,
}

impl Sample {
    /// The (language, label) balance cell this sample belongs to.
    pub fn combo(&self) -> (Language, Boundedness) {
        (self.language, self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(lang: Language, label: Boundedness) -> Sample {
        Sample {
            id: "x".into(),
            family: "saxpy".into(),
            language: lang,
            kernel_name: "saxpy".into(),
            source: "__global__".into(),
            geometry: "(1,1,1) and (1,1,1)".into(),
            args: vec![],
            token_count: 10,
            spec_name: "NVIDIA GeForce RTX 3080".into(),
            spec_class: lang.spec_class(),
            counts: OpCounts::default(),
            runtime_s: 1e-6,
            label,
        }
    }

    #[test]
    fn combo_pairs_language_and_label() {
        let s = sample(Language::Cuda, Boundedness::Compute);
        assert_eq!(s.combo(), (Language::Cuda, Boundedness::Compute));
    }
}
