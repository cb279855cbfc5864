//! Chat-completion API types: sampling parameters, token usage and cost
//! accounting — the shape of the service boundary the paper's harness
//! talks to (Azure OpenAI / Gemini endpoints).

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::zoo;

/// Sampling hyperparameters (§3.2). Reasoning models ignore them, exactly
/// as the hosted o-series endpoints reject sampling overrides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SamplingParams {
    /// Softmax temperature.
    pub temperature: f64,
    /// Nucleus cutoff.
    pub top_p: f64,
}

impl Default for SamplingParams {
    fn default() -> Self {
        // The paper settles on (0.1, 0.2) after its chi-squared check.
        SamplingParams {
            temperature: 0.1,
            top_p: 0.2,
        }
    }
}

/// Token usage of one completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Usage {
    /// Prompt-side tokens.
    pub prompt_tokens: u64,
    /// Completion-side tokens (reasoning models bill hidden thinking
    /// tokens here, as the o-series does).
    pub completion_tokens: u64,
}

/// Thread-safe accumulator of token usage across a run, priced from the
/// zoo.
///
/// The meter keeps only integer token totals per model; dollar costs are
/// derived at read time from the totals and the model's `$ / 1M token`
/// prices in the [`zoo`]. Integer addition is associative, so the
/// reported cost is independent of recording order — parallel runs bill
/// byte-identically to serial ones — and prices cannot disagree with the
/// zoo. A name outside the zoo has no price and costs nothing.
#[derive(Debug, Clone, Default)]
pub struct UsageMeter {
    inner: Arc<Mutex<BTreeMap<String, Usage>>>,
}

impl UsageMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completion's usage against `model`.
    pub fn record(&self, model: &str, usage: Usage) {
        let mut map = self.inner.lock();
        // Looked up by `&str`: only a model's first completion pays for
        // an owned key.
        let total = match map.get_mut(model) {
            Some(total) => total,
            None => map.entry(model.to_string()).or_default(),
        };
        total.prompt_tokens += usage.prompt_tokens;
        total.completion_tokens += usage.completion_tokens;
    }

    /// Fold another meter's accumulated usage into this one, as if every
    /// request billed there had been billed here. No-op when `other` is
    /// this meter (or a clone sharing its storage).
    pub fn absorb(&self, other: &UsageMeter) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let theirs = other.inner.lock().clone();
        let mut map = self.inner.lock();
        for (model, usage) in theirs {
            let total = map.entry(model).or_default();
            total.prompt_tokens += usage.prompt_tokens;
            total.completion_tokens += usage.completion_tokens;
        }
    }

    /// Accumulated (usage, cost) per model.
    pub fn snapshot(&self) -> BTreeMap<String, (Usage, f64)> {
        self.inner
            .lock()
            .iter()
            .map(|(model, usage)| (model.clone(), (*usage, cost(model, usage))))
            .collect()
    }

    /// Total dollar cost across models (summed in model-name order).
    pub fn total_cost(&self) -> f64 {
        self.inner
            .lock()
            .iter()
            .map(|(model, usage)| cost(model, usage))
            .sum()
    }
}

/// The dollar cost of `usage` at `model`'s zoo prices (zero outside the
/// zoo).
fn cost(model: &str, usage: &Usage) -> f64 {
    zoo::model(model).map_or(0.0, |spec| {
        usage.prompt_tokens as f64 / 1e6 * spec.input_cost
            + usage.completion_tokens as f64 / 1e6 * spec.output_cost
    })
}

/// Crude token estimate for usage accounting: whitespace-delimited words
/// plus punctuation density (≈ chars/4 on source code). Billing-grade
/// token counts come from `pce-tokenizer`; this keeps the API crate free
/// of that dependency.
pub fn approx_tokens(text: &str) -> u64 {
    (text.len() as u64 / 4).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sampling_matches_paper() {
        let s = SamplingParams::default();
        assert_eq!(s.temperature, 0.1);
        assert_eq!(s.top_p, 0.2);
    }

    /// `usage` priced by hand at `model`'s zoo prices.
    fn zoo_cost(model: &str, usage: Usage) -> f64 {
        let spec = zoo::model(model).expect("a zoo model");
        usage.prompt_tokens as f64 / 1e6 * spec.input_cost
            + usage.completion_tokens as f64 / 1e6 * spec.output_cost
    }

    #[test]
    fn meter_accumulates_cost() {
        let meter = UsageMeter::new();
        let usage = Usage {
            prompt_tokens: 1_000_000,
            completion_tokens: 500_000,
        };
        meter.record("o1", usage);
        meter.record("o1", usage);
        let total = Usage {
            prompt_tokens: 2_000_000,
            completion_tokens: 1_000_000,
        };
        let snap = meter.snapshot();
        assert_eq!(snap["o1"].0, total);
        assert_eq!(snap["o1"].1, zoo_cost("o1", total));
        // o1 bills $15 in and $60 out per 1M tokens: 2 × 15 + 1 × 60 = 90.
        assert!((meter.total_cost() - 90.0).abs() < 1e-9);
        // A name outside the zoo is counted but has no price.
        meter.record("not-a-model", usage);
        assert_eq!(meter.snapshot()["not-a-model"], (usage, 0.0));
        assert!((meter.total_cost() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn meter_is_shareable_across_threads() {
        let meter = UsageMeter::new();
        let usage = Usage {
            prompt_tokens: 10,
            completion_tokens: 1,
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let meter = meter.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        meter.record("gpt-4o-mini", usage);
                    }
                });
            }
        });
        let (total, cost) = meter.snapshot()["gpt-4o-mini"];
        assert_eq!(total.prompt_tokens, 8000);
        assert_eq!(cost, zoo_cost("gpt-4o-mini", total));
    }

    #[test]
    fn absorb_merges_usage_and_matches_inline_billing() {
        let usage = |prompt: u64| Usage {
            prompt_tokens: prompt,
            completion_tokens: 3,
        };
        // Billing a and b separately, then absorbing b into a, must equal
        // billing everything on one meter.
        let inline = UsageMeter::new();
        inline.record("o1", usage(100));
        inline.record("gpt-4o-mini", usage(50));
        inline.record("o1", usage(7));

        let a = UsageMeter::new();
        a.record("o1", usage(100));
        let b = UsageMeter::new();
        b.record("gpt-4o-mini", usage(50));
        b.record("o1", usage(7));
        a.absorb(&b);

        assert_eq!(a.snapshot().len(), inline.snapshot().len());
        for (model, (usage, cost)) in a.snapshot() {
            let (iu, ic) = inline.snapshot()[&model];
            assert_eq!(usage, iu, "{model}");
            assert_eq!(cost, ic, "{model}: derived costs must be bitwise equal");
            assert_eq!(cost, zoo_cost(&model, usage), "{model}");
        }
        assert_eq!(a.total_cost(), inline.total_cost());

        // Absorbing a clone of itself is a no-op, not a deadlock/double.
        let before = a.total_cost();
        let alias = a.clone();
        a.absorb(&alias);
        assert_eq!(a.total_cost(), before);
    }

    #[test]
    fn approx_tokens_scales_with_length() {
        assert!(approx_tokens("abcd") >= 1);
        let short = approx_tokens("int main() {}");
        let long = approx_tokens(&"int main() {}".repeat(100));
        assert!(long > 50 * short);
    }
}
