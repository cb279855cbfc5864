//! Dataset statistics: the Figure-2 token-distribution rows.

use pce_kernels::Language;
use pce_roofline::Boundedness;
use pce_tokenizer::{token_quartiles, TokenStats};

use crate::pipeline::Split;

/// One box of the Figure-2 box-and-whisker plot:
/// (split, language, class) → token-count distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// `"train"` or `"validation"`.
    pub split: String,
    /// `"CUDA"` or `"OMP"`.
    pub language: String,
    /// `"CB"` or `"BB"`.
    pub class: String,
    /// The distribution summary.
    pub stats: TokenStats,
}

/// Compute the eight Figure-2 rows (2 splits × 2 languages × 2 classes).
pub fn fig2_stats(split: &Split) -> Vec<Fig2Row> {
    let mut rows = Vec::with_capacity(8);
    for (split_name, ds) in [("train", &split.train), ("validation", &split.validation)] {
        for lang in [Language::Cuda, Language::Omp] {
            for label in [Boundedness::Compute, Boundedness::Bandwidth] {
                let counts: Vec<usize> = ds
                    .samples
                    .iter()
                    .filter(|s| s.language == lang && s.label == label)
                    .map(|s| s.token_count)
                    .collect();
                if counts.is_empty() {
                    continue;
                }
                rows.push(Fig2Row {
                    split: split_name.to_string(),
                    language: lang.label().to_string(),
                    class: label.short().to_string(),
                    stats: token_quartiles(&counts),
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline_cached, tokenize_corpus, PipelineConfig};
    use pce_gpu_sim::SimCaches;
    use pce_kernels::{build_corpus, CorpusConfig};

    fn split() -> Split {
        let corpus = build_corpus(&CorpusConfig {
            seed: 5,
            cuda_programs: 90,
            omp_programs: 72,
        })
        .expect("corpus builds");
        let cfg = PipelineConfig {
            per_combo_cap: 10,
            tokenizer_vocab: 400,
            tokenizer_stride: 15,
            ..Default::default()
        };
        let tokenized = tokenize_corpus(&corpus, &cfg);
        run_pipeline_cached(&corpus, &tokenized, &cfg, &SimCaches::new()).1
    }

    #[test]
    fn fig2_has_all_eight_rows() {
        let rows = fig2_stats(&split());
        assert_eq!(rows.len(), 8);
        let train_rows = rows.iter().filter(|r| r.split == "train").count();
        assert_eq!(train_rows, 4);
    }

    #[test]
    fn fig2_stats_are_internally_consistent() {
        for row in fig2_stats(&split()) {
            let s = &row.stats;
            assert!(s.min <= s.q1 && s.q1 <= s.median);
            assert!(s.median <= s.q3 && s.q3 <= s.max);
            assert!(s.n > 0);
        }
    }

    #[test]
    fn report_raw_token_stats_matches_sequential_counts() {
        use pce_tokenizer::{BpeTrainer, Tokenizer};
        let corpus = build_corpus(&CorpusConfig {
            seed: 5,
            cuda_programs: 20,
            omp_programs: 12,
        })
        .expect("corpus builds");
        let cfg = PipelineConfig {
            per_combo_cap: 4,
            tokenizer_vocab: 400,
            tokenizer_stride: 15,
            ..Default::default()
        };
        let tokenized = tokenize_corpus(&corpus, &cfg);
        let (_, _, report) = run_pipeline_cached(&corpus, &tokenized, &cfg, &SimCaches::new());
        let stats = report.raw_token_stats.expect("non-empty corpus");
        assert_eq!(stats.n, corpus.len());
        // Recompute with a sequentially-driven tokenizer: must agree.
        let docs: Vec<&str> = corpus
            .iter()
            .step_by(cfg.tokenizer_stride)
            .map(|p| p.source.as_str())
            .collect();
        let tok = Tokenizer::new(BpeTrainer::new(cfg.tokenizer_vocab).train(docs));
        let counts: Vec<usize> = corpus.iter().map(|p| tok.count(&p.source)).collect();
        assert_eq!(stats, pce_tokenizer::token_quartiles(&counts));
    }
}
