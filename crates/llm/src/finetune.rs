//! RQ4: fine-tuning simulation.
//!
//! The paper fine-tunes gpt-4o-mini on its 272-sample training split and
//! observes total collapse: after two epochs the model answers the same
//! class for the whole validation set (§3.7).
//!
//! We reproduce the *mechanism*, not just the outcome: a generative model
//! fine-tuned on single-token answers is, at the answer head, a logistic
//! model over its text features plus an answer-token prior. We train
//! exactly that — an SGD logistic head over hashed bag-of-token features —
//! with the aggressive schedule small fine-tune jobs use. Two ingredients
//! produce the paper's collapse, robustly across seeds:
//!
//! 1. the answer-token *prior* (the bias) is updated on every step, far
//!    more often than any individual text feature, so it saturates and
//!    oscillates between all-Compute / all-Bandwidth states
//!    (`answer_prior_rate`), and
//! 2. per-occurrence weight decay (the sparse-SGD form, standard in
//!    fine-tune schedules) keeps class-informative lexical features from
//!    accumulating enough mass to counter the prior on a few hundred
//!    samples (`weight_decay`).
//!
//! Wherever the oscillation stops, the saturated head answers one class
//! for everything — the collapse the paper reports in §3.7.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use pce_fault::fnv1a;
use pce_roofline::Boundedness;

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FineTuneConfig {
    /// Epochs over the training set (the paper ran 2).
    pub epochs: u32,
    /// SGD learning rate. Fine-tune-style schedules are aggressive; this
    /// is what drives saturation on tiny datasets.
    pub learning_rate: f64,
    /// Learning-rate multiplier on the bias (answer-token prior). A
    /// generative model fine-tuned on single-token completions updates the
    /// answer token's output prior on *every* step — far more often than
    /// any individual text feature — which is what makes small fine-tunes
    /// overfit the answer distribution itself.
    pub answer_prior_rate: f64,
    /// Multiplicative decay applied to a feature's weight on each update
    /// it participates in — i.e. lazy/per-occurrence decay, the cheap
    /// sparse-SGD form (the bias is exempt, as output priors are rarely
    /// regularised). On tiny datasets this caps how much mass lexical
    /// features can accumulate, so they cannot counter the prior.
    pub weight_decay: f64,
    /// Hashed feature dimensionality.
    pub hash_dim: usize,
    /// Shuffle/initialisation seed.
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 2,
            learning_rate: 12.0,
            answer_prior_rate: 8.0,
            weight_decay: 0.02,
            hash_dim: 4096,
            seed: 0,
        }
    }
}

/// A fine-tuning job: training text/label pairs plus the schedule.
#[derive(Debug, Clone)]
pub struct FineTuneJob {
    samples: Vec<(String, Boundedness)>,
    config: FineTuneConfig,
}

/// The trained head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineTunedModel {
    /// Hashed-feature weights.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
    /// Per-epoch training accuracy, for reporting.
    pub epoch_train_accuracy: Vec<f64>,
    /// Config the model was trained with.
    pub config: FineTuneConfig,
}

impl FineTuneJob {
    /// Create a job from (source text, label) pairs.
    pub fn new(samples: Vec<(String, Boundedness)>, config: FineTuneConfig) -> Self {
        assert!(!samples.is_empty(), "cannot fine-tune on an empty dataset");
        FineTuneJob { samples, config }
    }

    /// Run SGD and return the trained head.
    pub fn run(&self) -> FineTunedModel {
        let dim = self.config.hash_dim;
        let mut weights = vec![0.0f64; dim];
        let mut bias = 0.0f64;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        let features: Vec<(Vec<(usize, f64)>, f64)> = self
            .samples
            .iter()
            .map(|(text, label)| {
                let y = match label {
                    Boundedness::Compute => 1.0,
                    Boundedness::Bandwidth => 0.0,
                };
                (hash_features(text, dim), y)
            })
            .collect();

        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut epoch_train_accuracy = Vec::with_capacity(self.config.epochs as usize);
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let (x, y) = &features[idx];
                let p = sigmoid(dot(&weights, bias, x));
                let grad = p - y;
                bias -= self.config.learning_rate * self.config.answer_prior_rate * grad;
                for &(f, v) in x {
                    weights[f] = weights[f] * (1.0 - self.config.weight_decay)
                        - self.config.learning_rate * grad * v;
                }
            }
            let correct = features
                .iter()
                .filter(|(x, y)| (sigmoid(dot(&weights, bias, x)) >= 0.5) == (*y >= 0.5))
                .count();
            epoch_train_accuracy.push(correct as f64 / features.len() as f64);
        }
        FineTunedModel {
            weights,
            bias,
            epoch_train_accuracy,
            config: self.config,
        }
    }
}

impl FineTunedModel {
    /// Predict the class of a source text.
    pub fn predict(&self, text: &str) -> Boundedness {
        let x = hash_features(text, self.config.hash_dim);
        if sigmoid(dot(&self.weights, self.bias, &x)) >= 0.5 {
            Boundedness::Compute
        } else {
            Boundedness::Bandwidth
        }
    }

    /// Fraction of `texts` answered with the majority predicted class —
    /// 1.0 means total collapse.
    pub fn prediction_concentration(&self, texts: &[String]) -> f64 {
        if texts.is_empty() {
            return 1.0;
        }
        let compute = texts
            .iter()
            .filter(|t| self.predict(t) == Boundedness::Compute)
            .count();
        let majority = compute.max(texts.len() - compute);
        majority as f64 / texts.len() as f64
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

fn dot(weights: &[f64], bias: f64, x: &[(usize, f64)]) -> f64 {
    bias + x.iter().map(|&(f, v)| weights[f] * v).sum::<f64>()
}

/// Hashed, L2-normalised bag-of-token features.
fn hash_features(text: &str, dim: usize) -> Vec<(usize, f64)> {
    let mut counts = std::collections::BTreeMap::new();
    for token in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
        if token.is_empty() {
            continue;
        }
        let h = fnv1a(&[token.as_bytes()]);
        *counts.entry((h % dim as u64) as usize).or_insert(0.0f64) += 1.0;
    }
    let norm: f64 = counts.values().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        counts.iter_mut().for_each(|(_, v)| *v /= norm);
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic "programs" shaped like the real corpus: heavy shared
    /// boilerplate, and — when `informative` is false — a label that
    /// depends only on *numeric parameter values* (loop trip counts,
    /// problem sizes), which bag-of-token features cannot represent. The
    /// real dataset is exactly like that: the same kernel family appears in
    /// both classes depending on its CLI arguments (§2.2), which is why the
    /// paper's fine-tune had nothing lexical to learn.
    fn synthetic_samples(n: usize, seed: u64, informative: bool) -> Vec<(String, Boundedness)> {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = if i % 2 == 0 {
                    Boundedness::Compute
                } else {
                    Boundedness::Bandwidth
                };
                let iters = match label {
                    Boundedness::Compute => rng.gen_range(500..100_000),
                    Boundedness::Bandwidth => rng.gen_range(1..40),
                };
                let marker = if informative {
                    match label {
                        Boundedness::Compute => "iterate burn flops unroll",
                        Boundedness::Bandwidth => "stream copy memcpy store",
                    }
                } else {
                    "kernel body"
                };
                // Programs share almost all of their text (headers, host
                // harness, helper calls) — like real benchmark suites. The
                // only sample-distinct tokens are numeric values and a
                // unique id, neither of which recurs in validation.
                let noise: String = (0..rng.gen_range(3..8))
                    .map(|_| format!("tok{} ", rng.gen_range(0..9)))
                    .collect();
                (
                    format!(
                        "#include <cstdio>\n#include <cuda.h>\n#include <cmath>\n\
                         static double wall_time() {{ return 0.0; }}\n\
                         int main(int argc, char* argv[]) {{ \
                         long n = atol(argv[1]); float* h_data; float* d_data; \
                         cudaMalloc cudaMemcpy cudaDeviceSynchronize cudaFree free malloc printf \
                         launch grid block threads {marker} uniq{i}x{iters} \
                         for (int s = 0; s < {iters}; s++) {noise} return 0; }}"
                    ),
                    label,
                )
            })
            .collect()
    }

    #[test]
    fn two_epoch_finetune_on_small_data_collapses() {
        // The paper's setting: ~272 training samples, 2 epochs, and labels
        // that lexical features cannot explain.
        let train = synthetic_samples(272, 11, false);
        let model = FineTuneJob::new(train, FineTuneConfig::default()).run();
        let val: Vec<String> = synthetic_samples(68, 99, false)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let concentration = model.prediction_concentration(&val);
        assert!(
            concentration > 0.85,
            "expected near-total collapse, got concentration {concentration}"
        );
    }

    #[test]
    fn gentle_schedule_on_informative_data_does_not_collapse() {
        // The counterfactual the paper hypothesises: learnable signal (and
        // a sane learning rate) generalises instead of collapsing.
        let train = synthetic_samples(4000, 5, true);
        let cfg = FineTuneConfig {
            learning_rate: 0.3,
            epochs: 4,
            answer_prior_rate: 1.0,
            weight_decay: 0.0,
            ..Default::default()
        };
        let model = FineTuneJob::new(train, cfg).run();
        let val = synthetic_samples(400, 77, true);
        let correct = val
            .iter()
            .filter(|(t, label)| model.predict(t) == *label)
            .count();
        let acc = correct as f64 / val.len() as f64;
        assert!(
            acc > 0.8,
            "informative features should be learnable, got {acc}"
        );
        let texts: Vec<String> = val.into_iter().map(|(t, _)| t).collect();
        assert!(model.prediction_concentration(&texts) < 0.9);
    }

    #[test]
    fn training_accuracy_is_tracked_per_epoch() {
        let model =
            FineTuneJob::new(synthetic_samples(50, 3, true), FineTuneConfig::default()).run();
        assert_eq!(model.epoch_train_accuracy.len(), 2);
        for acc in &model.epoch_train_accuracy {
            assert!((0.0..=1.0).contains(acc));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let a = FineTuneJob::new(synthetic_samples(40, 1, true), FineTuneConfig::default()).run();
        let b = FineTuneJob::new(synthetic_samples(40, 1, true), FineTuneConfig::default()).run();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn feature_hashing_is_normalized_and_stable() {
        let x = hash_features("alpha beta alpha", 128);
        let norm: f64 = x.iter().map(|(_, v)| v * v).sum::<f64>();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(x, hash_features("alpha beta alpha", 128));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_job_panics() {
        FineTuneJob::new(vec![], FineTuneConfig::default());
    }
}
