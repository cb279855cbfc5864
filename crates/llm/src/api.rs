//! Chat-completion API types: sampling parameters, responses, token usage
//! and cost accounting — the shape of the service boundary the paper's
//! harness talks to (Azure OpenAI / Gemini endpoints).

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

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

impl Usage {
    /// Total tokens.
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }
}

/// One completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatResponse {
    /// Model that produced the answer.
    pub model: String,
    /// The answer text (a single class token in this study).
    pub text: String,
    /// Optional reasoning trace (surrogate of hidden chain-of-thought;
    /// exposed for debugging, never parsed by the harness).
    pub trace: Option<String>,
    /// Token usage.
    pub usage: Usage,
}

/// Per-model running token totals plus the prices they are billed at.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    usage: Usage,
    input_cost: f64,
    output_cost: f64,
}

impl Tally {
    fn cost(&self) -> f64 {
        self.usage.prompt_tokens as f64 / 1e6 * self.input_cost
            + self.usage.completion_tokens as f64 / 1e6 * self.output_cost
    }
}

/// Thread-safe accumulator of usage and dollar cost across a run.
///
/// Only integer token totals are accumulated; dollar costs are derived
/// from the totals at read time. Integer addition is associative, so the
/// reported cost is independent of recording order — parallel runs bill
/// byte-identically to serial ones.
#[derive(Debug, Clone, Default)]
pub struct UsageMeter {
    inner: Arc<Mutex<BTreeMap<String, Tally>>>,
}

impl UsageMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one response against a model's `$ / 1M token` prices.
    ///
    /// Prices must be constant per model across a meter's lifetime (they
    /// are zoo constants): cost is derived from the accumulated token
    /// totals at read time, so a price change mid-run would retroactively
    /// reprice earlier traffic. Debug builds assert this.
    pub fn record(&self, resp: &ChatResponse, input_cost: f64, output_cost: f64) {
        let mut map = self.inner.lock();
        // Looked up by `&str`: only a model's first completion pays for
        // an owned key.
        let entry = match map.get_mut(resp.model.as_str()) {
            Some(entry) => entry,
            None => map.entry(resp.model.clone()).or_default(),
        };
        debug_assert!(
            entry.usage.total() == 0
                || (entry.input_cost == input_cost && entry.output_cost == output_cost),
            "model '{}' re-billed at different prices",
            resp.model
        );
        entry.usage.prompt_tokens += resp.usage.prompt_tokens;
        entry.usage.completion_tokens += resp.usage.completion_tokens;
        entry.input_cost = input_cost;
        entry.output_cost = output_cost;
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
        for (model, t) in theirs {
            let entry = map.entry(model).or_default();
            debug_assert!(
                entry.usage.total() == 0
                    || (entry.input_cost == t.input_cost && entry.output_cost == t.output_cost),
                "a model was absorbed at different prices"
            );
            entry.usage.prompt_tokens += t.usage.prompt_tokens;
            entry.usage.completion_tokens += t.usage.completion_tokens;
            entry.input_cost = t.input_cost;
            entry.output_cost = t.output_cost;
        }
    }

    /// Accumulated (usage, cost) per model.
    pub fn snapshot(&self) -> BTreeMap<String, (Usage, f64)> {
        self.inner
            .lock()
            .iter()
            .map(|(model, t)| (model.clone(), (t.usage, t.cost())))
            .collect()
    }

    /// Total dollar cost across models (summed in model-name order).
    pub fn total_cost(&self) -> f64 {
        self.inner.lock().values().map(Tally::cost).sum()
    }
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

    #[test]
    fn usage_totals() {
        let u = Usage {
            prompt_tokens: 100,
            completion_tokens: 5,
        };
        assert_eq!(u.total(), 105);
    }

    #[test]
    fn meter_accumulates_cost() {
        let meter = UsageMeter::new();
        let resp = ChatResponse {
            model: "m".into(),
            text: "Compute".into(),
            trace: None,
            usage: Usage {
                prompt_tokens: 1_000_000,
                completion_tokens: 500_000,
            },
        };
        meter.record(&resp, 2.0, 8.0);
        meter.record(&resp, 2.0, 8.0);
        let snap = meter.snapshot();
        assert_eq!(snap["m"].0.prompt_tokens, 2_000_000);
        // 2 * (1.0 * 2 + 0.5 * 8) = 12.
        assert!((meter.total_cost() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn meter_is_shareable_across_threads() {
        let meter = UsageMeter::new();
        let resp = ChatResponse {
            model: "m".into(),
            text: "Bandwidth".into(),
            trace: None,
            usage: Usage {
                prompt_tokens: 10,
                completion_tokens: 1,
            },
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let meter = meter.clone();
                let resp = resp.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        meter.record(&resp, 1.0, 1.0);
                    }
                });
            }
        });
        assert_eq!(meter.snapshot()["m"].0.prompt_tokens, 8000);
    }

    #[test]
    fn absorb_merges_usage_and_matches_inline_billing() {
        let resp = |model: &str, prompt: u64| ChatResponse {
            model: model.into(),
            text: "Compute".into(),
            trace: None,
            usage: Usage {
                prompt_tokens: prompt,
                completion_tokens: 3,
            },
        };
        // Billing a and b separately, then absorbing b into a, must equal
        // billing everything on one meter.
        let inline = UsageMeter::new();
        inline.record(&resp("m1", 100), 2.0, 8.0);
        inline.record(&resp("m2", 50), 1.0, 4.0);
        inline.record(&resp("m1", 7), 2.0, 8.0);

        let a = UsageMeter::new();
        a.record(&resp("m1", 100), 2.0, 8.0);
        let b = UsageMeter::new();
        b.record(&resp("m2", 50), 1.0, 4.0);
        b.record(&resp("m1", 7), 2.0, 8.0);
        a.absorb(&b);

        assert_eq!(a.snapshot().len(), inline.snapshot().len());
        for (model, (usage, cost)) in a.snapshot() {
            let (iu, ic) = inline.snapshot()[&model];
            assert_eq!(usage, iu, "{model}");
            assert_eq!(cost, ic, "{model}: derived costs must be bitwise equal");
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
