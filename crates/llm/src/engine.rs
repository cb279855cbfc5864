//! The surrogate completion engine.
//!
//! One engine serves every model in the zoo. Given a request it:
//!
//! 1. identifies the task by re-parsing the prompt ([`crate::parse`]),
//! 2. solves it with the model's mechanisms — exact balance-point
//!    arithmetic for reasoning models, slip-prone arithmetic for standard
//!    ones; deep loop-aware static analysis vs. shallow whole-file token
//!    counting for source classification,
//! 3. perturbs borderline answers with seeded, sampling-dependent noise
//!    (the hosted models' run-to-run variance), and
//! 4. bills usage to the shared [`UsageMeter`].
//!
//! Determinism: the answer is a pure function of (model, prompt, seed,
//! sampling params).

use std::collections::BTreeMap;

use pce_fault::{
    attempt_seed, corrupt_text, fnv1a, is_refusal_text, FaultKind, FaultPlan, PceError,
    ResponseAccounting, RetryPolicy,
};
use pce_roofline::{static_verdict, Boundedness};

use crate::api::{approx_tokens, ChatResponse, SamplingParams, Usage, UsageMeter};
use crate::cache::{prompt_fingerprint, LlmCaches, ParsedClassify};
use crate::parse::{has_cot_examples, is_rq1_prompt};
use crate::zoo::{model, Capability, ModelSpec};

/// The simulated deadline an injected [`FaultKind::Timeout`] reports.
const SIMULATED_DEADLINE_MS: u64 = 30_000;

/// The result of one retried completion: the final response (when any
/// attempt produced usable text), the parsed verdict, the terminal error,
/// and the per-request [`ResponseAccounting`] ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionOutcome {
    /// The last response body seen, if any attempt returned one.
    pub response: Option<ChatResponse>,
    /// The parsed boundedness verdict, when the final response parsed.
    pub verdict: Option<Boundedness>,
    /// The terminal error when no attempt yielded a parseable answer.
    pub error: Option<PceError>,
    /// Exactly one of valid / retried_valid / invalid / refused is set.
    pub accounting: ResponseAccounting,
}

/// The shared engine.
#[derive(Debug, Clone, Default)]
pub struct SurrogateEngine {
    meter: UsageMeter,
    caches: LlmCaches,
    faults: Option<FaultPlan>,
}

impl SurrogateEngine {
    /// A fresh engine with an empty usage meter and its own caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine (empty usage meter) backed by an existing cache
    /// bundle. Suites hand every per-spec engine a clone of one
    /// [`LlmCaches`] so analyses and prompt parses are shared across the
    /// whole hardware matrix; billing stays per-engine.
    pub fn with_caches(caches: LlmCaches) -> Self {
        Self::with_caches_and_faults(caches, None)
    }

    /// [`SurrogateEngine::with_caches`] with a chaos plan attached: every
    /// completion consults the plan and may come back truncated, mangled,
    /// refused, or as a retryable [`PceError`].
    pub fn with_caches_and_faults(caches: LlmCaches, faults: Option<FaultPlan>) -> Self {
        SurrogateEngine {
            meter: UsageMeter::new(),
            caches,
            faults,
        }
    }

    /// The engine's usage meter.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// The engine's cache bundle (clone it to share with other engines).
    pub fn caches(&self) -> &LlmCaches {
        &self.caches
    }

    /// One attempt of a completion: resolve the model, consult the chaos
    /// plan, answer, corrupt if injected, and bill. Returns the result
    /// plus whether a fault was injected into this attempt.
    ///
    /// `prompt_fp` is the request's one pass over the prompt text
    /// ([`prompt_fingerprint`]): it keys the parse caches, seeds the noise
    /// stream, and addresses the fault plan on every attempt. Attempt 0
    /// with no plan attached is the clean answer, billed once.
    fn complete_attempt(
        &self,
        model_name: &str,
        prompt: &str,
        prompt_fp: u64,
        sampling: Option<SamplingParams>,
        seed: u64,
        attempt: u32,
    ) -> (Result<ChatResponse, PceError>, bool) {
        let Some(spec) = model(model_name) else {
            return (
                Err(PceError::spec(format!(
                    "model '{model_name}' is not in the zoo"
                ))),
                false,
            );
        };
        let sampling = sampling.unwrap_or_default();
        let fault = self
            .faults
            .as_ref()
            .and_then(|plan| plan.draw(model_name, prompt_fp, seed, attempt));
        match fault {
            Some(FaultKind::Timeout) => {
                return (
                    Err(PceError::Timeout {
                        ms: SIMULATED_DEADLINE_MS,
                    }),
                    true,
                );
            }
            Some(FaultKind::Transient) => {
                return (Err(PceError::io("injected connection reset")), true);
            }
            _ => {}
        }

        // Retried attempts are salted so the re-asked completion differs
        // from the first answer reproducibly.
        let eff_seed = attempt_seed(seed, attempt);
        let mut rng = NoiseStream::new(&spec.name, prompt_fp, eff_seed, sampling);
        let (clean, trace) = self.answer(spec, prompt, prompt_fp, &mut rng);

        // Body-level faults corrupt the clean answer but are still billed:
        // a truncated or refused hosted response costs real tokens.
        let (text, trace, injected) = match fault.and_then(|k| corrupt_text(k, &clean)) {
            Some(body) => {
                let kind = fault.map(|k| format!("{k:?}")).unwrap_or_default();
                (body, Some(format!("injected fault: {kind}")), true)
            }
            None => (clean, trace, false),
        };

        let usage = Usage {
            prompt_tokens: approx_tokens(prompt),
            completion_tokens: 1 + spec.reasoning_tokens,
        };
        let resp = ChatResponse {
            model: spec.name.clone(),
            text,
            trace,
            usage,
        };
        self.meter.record(&resp, spec.input_cost, spec.output_cost);
        (Ok(resp), injected)
    }

    /// Complete a request under a bounded [`RetryPolicy`], classifying the
    /// final answer and keeping the per-request response ledger. This is
    /// the engine's only completion entry: [`RetryPolicy::none`] asks
    /// once, and `sampling: None` means the model defaults.
    ///
    /// The loop retries retryable failures (injected timeouts and
    /// transient errors, unparseable answers) with deterministic backoff,
    /// salting each retry's seed so re-asked completions differ
    /// reproducibly; refusals and spec errors (a model that is not in the
    /// zoo) terminate immediately. Backoff is recorded, never slept.
    pub fn complete_with_retry(
        &self,
        model_name: &str,
        prompt: &str,
        sampling: Option<SamplingParams>,
        seed: u64,
        policy: &RetryPolicy,
    ) -> CompletionOutcome {
        let prompt_fp = prompt_fingerprint(prompt);
        // Jitter fingerprint: the request identity, independent of attempt.
        let mut fp = pce_memo::Fnv::new();
        fp.str(model_name);
        fp.u64(prompt_fp);
        fp.u64(seed);
        let fingerprint = fp.finish();

        let mut acc = ResponseAccounting::new();
        let mut injected_any = false;
        let mut last_response: Option<ChatResponse> = None;
        let mut last_error = PceError::io("no attempts were made");

        for attempt in 0..policy.max_attempts() {
            if attempt > 0 {
                let delay = policy.backoff_ms(fingerprint, attempt);
                // Cap cumulative recorded backoff at the job's budget (its
                // deadline): a retry that would blow the budget is not
                // taken, so a job can never be accounted both
                // `retried_valid` and `expired`.
                if let Some(budget) = policy.backoff_budget_ms {
                    if acc.backoff_ms + delay >= budget {
                        acc.backoff_ms = budget;
                        last_error = PceError::Timeout { ms: budget };
                        break;
                    }
                }
                acc.retries += 1;
                acc.backoff_ms += delay;
            }
            let (result, injected) =
                self.complete_attempt(model_name, prompt, prompt_fp, sampling, seed, attempt);
            injected_any |= injected;
            match result {
                Ok(resp) => {
                    if is_refusal_text(&resp.text) {
                        acc.refused += 1;
                        acc.injected += injected_any as u64;
                        return CompletionOutcome {
                            error: Some(PceError::Refusal {
                                model: resp.model.clone(),
                            }),
                            response: Some(resp),
                            verdict: None,
                            accounting: acc,
                        };
                    }
                    match Boundedness::parse(&resp.text) {
                        Some(verdict) => {
                            if attempt == 0 {
                                acc.valid += 1;
                            } else {
                                acc.retried_valid += 1;
                            }
                            acc.injected += injected_any as u64;
                            return CompletionOutcome {
                                response: Some(resp),
                                verdict: Some(verdict),
                                error: None,
                                accounting: acc,
                            };
                        }
                        None => {
                            last_error = PceError::parse(format!(
                                "response '{}' is not a recognizable answer",
                                truncate_for_error(&resp.text)
                            ));
                            last_response = Some(resp);
                        }
                    }
                }
                Err(e) => {
                    let terminal = !e.retryable();
                    last_error = e;
                    if terminal {
                        break;
                    }
                }
            }
        }

        acc.invalid += 1;
        acc.injected += injected_any as u64;
        CompletionOutcome {
            response: last_response,
            verdict: None,
            error: Some(last_error),
            accounting: acc,
        }
    }

    /// The task dispatch every completion shares: RQ1 prompts go to the
    /// balance-point arithmetic, parseable classify prompts to the source
    /// reader, and anything else to the model's prior.
    fn answer(
        &self,
        spec: &ModelSpec,
        prompt: &str,
        prompt_fp: u64,
        rng: &mut NoiseStream,
    ) -> (String, Option<String>) {
        if is_rq1_prompt(prompt) {
            return self.answer_rq1(spec, prompt, prompt_fp, rng);
        }
        match self.caches.classify_fp(prompt, prompt_fp).as_ref() {
            Some(p) => self.answer_classify(spec, p, prompt, rng),
            None => {
                let answer = if spec.caps.bias_bandwidth {
                    Boundedness::Bandwidth
                } else {
                    Boundedness::Compute
                };
                (
                    answer.answer_token().to_string(),
                    Some("prior-only guess".to_string()),
                )
            }
        }
    }

    fn answer_rq1(
        &self,
        spec: &ModelSpec,
        prompt: &str,
        prompt_fp: u64,
        rng: &mut NoiseStream,
    ) -> (String, Option<String>) {
        let Some(q) = *self.caches.rq1_fp(prompt, prompt_fp) else {
            return (
                "Bandwidth".to_string(),
                Some("failed to parse question".into()),
            );
        };
        let balance = q.peak_gflops / q.bandwidth_gbs;
        let correct = if q.ai >= balance {
            Boundedness::Compute
        } else {
            Boundedness::Bandwidth
        };
        let margin = (q.ai / balance).log10().abs();

        let mut answer = correct;
        if !spec.reasoning {
            let slip_p = if has_cot_examples(prompt) {
                spec.caps.arith_slip_cot
            } else {
                spec.caps.arith_slip
            };
            // Slips only flip answers near the balance point: a mis-divided
            // balance still classifies 10x-away intensities correctly.
            if margin < Capability::SLIP_MARGIN_DECADES && rng.chance(slip_p) {
                answer = answer.flipped();
            }
        }
        let trace = format!(
            "balance = {:.4} / {:.4} = {:.4} FLOP/B; AI = {:.4}; margin = {:.2} decades",
            q.peak_gflops, q.bandwidth_gbs, balance, q.ai, margin
        );
        (answer.answer_token().to_string(), Some(trace))
    }

    fn answer_classify(
        &self,
        spec: &ModelSpec,
        parsed: &ParsedClassify,
        prompt: &str,
        rng: &mut NoiseStream,
    ) -> (String, Option<String>) {
        let q = &parsed.question;
        // Prior-bias short circuit: skewed models sometimes answer from
        // their prior without consulting the code.
        if rng.chance(spec.caps.bias_strength) {
            let answer = if spec.caps.bias_bandwidth {
                Boundedness::Bandwidth
            } else {
                Boundedness::Compute
            };
            return (
                answer.answer_token().to_string(),
                Some("prior-driven answer".into()),
            );
        }

        // Deep readers (reasoning models, and frontier-scale standard
        // models) bind CLI args to source variables and weight loops;
        // shallow models skim the whole file flat. The binding is
        // precomputed by the parse cache; the analysis itself is memoized
        // per (source, options) across every model and hardware spec.
        let empty = BTreeMap::new();
        let deep = spec.reasoning || spec.caps.insight >= 0.6;
        let params = if deep { &parsed.deep_params } else { &empty };
        let analysis = self.caches.analysis(&q.source, params, 64.0, deep);

        let (tally, trip_weight) = if deep {
            match analysis.kernel(&q.kernel_name) {
                Some(k) => (k.tally, k.trip_weight),
                None => (analysis.file_tally, 1.0),
            }
        } else {
            (analysis.file_tally, 1.0)
        };

        // Reuse anticipation: loop-nest reuse shrinks true DRAM traffic, so
        // an aware reader scales its AI estimate up with iteration weight.
        let reuse_boost = 1.0 + spec.caps.reuse_aware * trip_weight.clamp(1.0, 4096.0).powf(0.4);

        let balances = [
            q.peak_sp / q.bandwidth,
            q.peak_dp / q.bandwidth,
            q.peak_int / q.bandwidth,
        ];
        let (verdict, best_margin) = static_verdict(
            std::array::from_fn(|class_idx| tally.ai(class_idx) * reuse_boost),
            balances,
        );

        // Classification noise. Two regimes:
        //
        // * Deep readers mis-estimate trip counts, miss templated paths,
        //   and cannot see the memory system — errors that concentrate near
        //   the balance point but persist (with a long decay) even far from
        //   it. This is what holds the o-series near the paper's ~64 %.
        // * Shallow readers barely consult the code; their answers carry a
        //   flat, margin-independent error floor that keeps them near
        //   chance (paper: accuracies ≈ 50 %, MCC ≈ 0).
        //
        // In-context learning: real code examples in the prompt (RQ3) give
        // shallow models a small insight bump — the paper's "~2 %"
        // improvement for the minis.
        let insight = if deep {
            spec.caps.insight
        } else {
            let bump = if prompt_has_real_examples(prompt) {
                0.10
            } else {
                0.0
            };
            (spec.caps.insight + bump).min(1.0)
        };
        let flip_p = if deep {
            ((1.0 - 0.62 * insight) * 1.1 * (-best_margin.abs() / 2.2).exp()).min(0.45)
        } else {
            0.45 * (1.0 - insight).powi(2)
        };
        // Hazard consultation: the analysis cache carries the lint
        // diagnostics, and error-severity hazards (races, missing
        // barriers) make the op/byte tallies themselves suspect — a
        // racy reduction does not perform the work its source implies.
        // Deep readers notice and lose confidence: the flip probability
        // rises toward its cap with each distinct hazard. The shipped
        // corpus is hazard-clean, so this path adds exactly zero noise
        // to the paper's accuracy bands.
        let hazards = analysis.error_count();
        let flip_p = if deep && hazards > 0 {
            (flip_p + 0.05 * hazards.min(4) as f64).min(0.45)
        } else {
            flip_p
        };
        let mut answer = verdict;
        if rng.chance(flip_p) {
            answer = answer.flipped();
        }
        let mut trace = format!(
            "static AI margins vs (sp,dp,int) balances {:?}; best margin {:.2}; reuse x{:.2}",
            balances, best_margin, reuse_boost
        );
        if hazards > 0 {
            trace.push_str(&format!("; {hazards} hazard diagnostics"));
        }
        (answer.answer_token().to_string(), Some(trace))
    }
}

/// Clip a response body for embedding in an error message.
fn truncate_for_error(text: &str) -> &str {
    let mut end = text.len().min(40);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// Whether the prompt's example section carries *real* code (RQ3) rather
/// than pseudo-code (RQ2): real examples contain actual kernel syntax
/// before the "Now, analyze" marker.
fn prompt_has_real_examples(prompt: &str) -> bool {
    let example_section = match prompt.find("Now, analyze") {
        Some(at) => &prompt[..at],
        None => prompt,
    };
    example_section.contains("__global__") || example_section.contains("#pragma omp")
}

/// Deterministic noise stream: FNV-1a over the request identity, then
/// xorshift64*. Sampling parameters are folded into the seed so different
/// temperatures give different-but-statistically-identical streams — the
/// behaviour behind the paper's chi-squared insensitivity result (§3.2).
///
/// The prompt enters through [`prompt_fingerprint`], the same word-wise
/// digest that keys the parse caches: the stream stays a pure function of
/// (model, prompt bytes, seed, sampling), but an 11 KB prompt is digested
/// once per request instead of byte-at-a-time here (the byte-serial FNV
/// chain was two thirds of a warm completion's cost).
struct NoiseStream {
    state: u64,
}

impl NoiseStream {
    /// Stream-selection salt. The surrogate's *statistical* behaviour is
    /// salt-invariant (every salt is an equally valid realization of the
    /// hosted models' run-to-run variance); this value pins the
    /// realization the smoke-scale acceptance bands were verified on.
    const STREAM_SALT: u64 = 0xa5a5_0010;

    fn new(model: &str, prompt_fp: u64, seed: u64, sampling: SamplingParams) -> Self {
        let h = fnv1a(&[
            model.as_bytes(),
            &(prompt_fp ^ Self::STREAM_SALT).to_le_bytes(),
            &seed.to_le_bytes(),
            &sampling.temperature.to_bits().to_le_bytes(),
            &sampling.top_p.to_bits().to_le_bytes(),
        ]);
        NoiseStream { state: h | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — plenty for Bernoulli draws.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_prompt::{generate_rq1_suite, render_rq1_prompt};

    /// One attempt with no retries, as a plain result: the response when
    /// the engine produced a body, else the error that stopped it.
    fn ask(
        engine: &SurrogateEngine,
        model_name: &str,
        prompt: &str,
        sampling: Option<SamplingParams>,
        seed: u64,
    ) -> Result<ChatResponse, PceError> {
        let out =
            engine.complete_with_retry(model_name, prompt, sampling, seed, &RetryPolicy::none());
        out.response.ok_or_else(|| {
            out.error
                .expect("an outcome without a response carries its error")
        })
    }

    fn rq1_accuracy(model_name: &str, shots: usize, cot: bool) -> f64 {
        let suite = generate_rq1_suite(120, 99);
        let engine = SurrogateEngine::new();
        let mut correct = 0;
        for (i, item) in suite.items.iter().enumerate() {
            let prompt = render_rq1_prompt(&suite, i, shots, cot);
            let resp = ask(&engine, model_name, &prompt, None, i as u64).unwrap();
            if Boundedness::parse(&resp.text) == Some(item.truth) {
                correct += 1;
            }
        }
        correct as f64 / suite.items.len() as f64
    }

    #[test]
    fn reasoning_models_score_100_on_rq1() {
        for name in ["o3-mini-high", "o3-mini", "o1-mini-2024-09-12"] {
            assert_eq!(rq1_accuracy(name, 2, false), 1.0, "{name}");
            assert_eq!(rq1_accuracy(name, 2, true), 1.0, "{name} CoT");
        }
    }

    #[test]
    fn standard_models_score_90ish_and_improve_with_cot() {
        let plain = rq1_accuracy("gpt-4o-mini", 4, false);
        let cot = rq1_accuracy("gpt-4o-mini", 4, true);
        assert!(plain > 0.82 && plain < 0.97, "plain accuracy {plain}");
        assert!(cot > plain, "CoT must help: {cot} vs {plain}");
        assert!(cot > 0.97, "CoT accuracy {cot}");
    }

    #[test]
    fn analysis_cache_carries_hazard_diagnostics() {
        // The surrogate's mental model sees the lint diagnostics through
        // the same memoized analysis it uses for op/byte tallies.
        let racy = r#"
__global__ void reduce(float* out, const float* in) {
    __shared__ float buf[256];
    buf[threadIdx.x] = in[threadIdx.x];
    for (int s = 128; s > 0; s >>= 1) {
        if (threadIdx.x < s) buf[threadIdx.x] += buf[threadIdx.x + s];
    }
    if (threadIdx.x == 0) out[0] = buf[0];
}
"#;
        let engine = SurrogateEngine::new();
        let a = engine.caches.analysis(racy, &BTreeMap::new(), 64.0, true);
        assert!(a.error_count() > 0, "race must surface as an error");
        // Recall hits the cache and sees the same diagnostics.
        let b = engine.caches.analysis(racy, &BTreeMap::new(), 64.0, true);
        assert_eq!(a.diagnostics, b.diagnostics);
    }

    #[test]
    fn responses_are_deterministic() {
        let suite = generate_rq1_suite(5, 1);
        let prompt = render_rq1_prompt(&suite, 0, 2, false);
        let engine = SurrogateEngine::new();
        assert_eq!(
            ask(&engine, "gpt-4o-mini", &prompt, None, 7).unwrap().text,
            ask(&engine, "gpt-4o-mini", &prompt, None, 7).unwrap().text
        );
    }

    #[test]
    fn temperature_changes_stream_but_not_statistics() {
        let suite = generate_rq1_suite(200, 3);
        let engine = SurrogateEngine::new();
        let mut acc = vec![];
        for temp in [0.1, 1.0] {
            let sampling = SamplingParams {
                temperature: temp,
                top_p: 0.2,
            };
            let mut correct = 0;
            for (i, item) in suite.items.iter().enumerate() {
                let prompt = render_rq1_prompt(&suite, i, 2, false);
                let resp = ask(
                    &engine,
                    "gemini-2.0-flash-001",
                    &prompt,
                    Some(sampling),
                    i as u64,
                )
                .unwrap();
                if Boundedness::parse(&resp.text) == Some(item.truth) {
                    correct += 1;
                }
            }
            acc.push(correct as f64 / suite.items.len() as f64);
        }
        // Different streams, statistically indistinguishable accuracy.
        assert!((acc[0] - acc[1]).abs() < 0.05, "{acc:?}");
    }

    #[test]
    fn usage_is_metered_with_reasoning_tokens() {
        let engine = SurrogateEngine::new();
        let suite = generate_rq1_suite(5, 1);
        let prompt = render_rq1_prompt(&suite, 0, 2, false);
        ask(&engine, "o1", &prompt, None, 0).unwrap();
        ask(&engine, "gpt-4o-mini", &prompt, None, 0).unwrap();
        let snap = engine.meter().snapshot();
        assert!(
            snap["o1"].0.completion_tokens > 1000,
            "o-series bills thinking tokens"
        );
        assert_eq!(snap["gpt-4o-mini"].0.completion_tokens, 1);
        assert!(snap["o1"].1 > snap["gpt-4o-mini"].1, "o1 costs more");
    }

    #[test]
    fn cached_engines_answer_bit_identically_to_fresh_ones() {
        use pce_prompt::{render_classify_prompt, ClassifyRequest, ShotStyle};
        let hw = pce_roofline::HardwareSpec::rtx_3080();
        let src = "__global__ void scale(long n, const float* a, float* b) {\n\
                   \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
                   \x20 if (i < n) b[i] = 2.0f * a[i];\n}\n";
        let shared = LlmCaches::new();
        let suite = generate_rq1_suite(8, 5);
        for style in [ShotStyle::ZeroShot, ShotStyle::FewShot] {
            let prompt = render_classify_prompt(
                &ClassifyRequest {
                    language: "CUDA".into(),
                    kernel_name: "scale".into(),
                    hardware: hw.clone(),
                    geometry: "(4096,1,1) and (256,1,1)".into(),
                    args: vec!["1048576".into()],
                    source: src.into(),
                },
                style,
            );
            for model_name in ["o3-mini", "gpt-4o-mini", "o1", "gemini-2.0-flash-001"] {
                for seed in 0..8 {
                    let fresh = ask(&SurrogateEngine::new(), model_name, &prompt, None, seed);
                    let warm = ask(
                        &SurrogateEngine::with_caches(shared.clone()),
                        model_name,
                        &prompt,
                        None,
                        seed,
                    );
                    let (fresh, warm) = (fresh.unwrap(), warm.unwrap());
                    assert_eq!(fresh, warm, "{model_name} seed {seed}");
                }
            }
        }
        // RQ1 prompts round through the rq1 parse cache identically.
        let prompt = render_rq1_prompt(&suite, 3, 2, true);
        let warm = SurrogateEngine::with_caches(shared.clone());
        assert_eq!(
            ask(&SurrogateEngine::new(), "gpt-4o-mini", &prompt, None, 11).unwrap(),
            ask(&warm, "gpt-4o-mini", &prompt, None, 11).unwrap()
        );
        // The shared bundle actually collapsed work across those engines.
        assert!(shared.analysis_counters().hits > 0);
        assert!(shared.classify_counters().hits > 0);
    }

    #[test]
    fn unparseable_prompt_falls_back_to_prior() {
        let engine = SurrogateEngine::new();
        let resp = ask(&engine, "gpt-4o-mini", "hello there", None, 0).unwrap();
        assert!(Boundedness::parse(&resp.text).is_some());
        assert_eq!(resp.trace.as_deref(), Some("prior-only guess"));
    }

    #[test]
    fn unknown_model_is_a_spec_error() {
        let err = ask(&SurrogateEngine::new(), "gpt-6", "hi", None, 0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid spec: model 'gpt-6' is not in the zoo"
        );
        assert!(!err.retryable());
    }

    #[test]
    fn classification_consults_the_source() {
        use pce_prompt::{render_classify_prompt, ClassifyRequest, ShotStyle};
        let hw = pce_roofline::HardwareSpec::rtx_3080();
        // A transparently compute-bound kernel: huge iteration loop, one store.
        let cb_src = "__global__ void burn(long n, int iters, float* out) {\n\
                      \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
                      \x20 float x = 1.5f;\n\
                      \x20 for (int s = 0; s < 100000; s++) { x = x * 1.0001f + 0.1f; }\n\
                      \x20 out[i] = x;\n}\n";
        // A transparently streaming kernel.
        let bb_src = "__global__ void copy(long n, const float* a, float* b) {\n\
                      \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
                      \x20 if (i < n) b[i] = a[i];\n}\n";
        let engine = SurrogateEngine::new();
        let mk = |name: &str, src: &str| {
            let req = ClassifyRequest {
                language: "CUDA".into(),
                kernel_name: name.into(),
                hardware: hw.clone(),
                geometry: "(4096,1,1) and (256,1,1)".into(),
                args: vec!["1048576".into()],
                source: src.into(),
            };
            render_classify_prompt(&req, ShotStyle::ZeroShot)
        };
        let cb = ask(&engine, "o3-mini-high", &mk("burn", cb_src), None, 0).unwrap();
        let bb = ask(&engine, "o3-mini-high", &mk("copy", bb_src), None, 0).unwrap();
        assert_eq!(cb.text, "Compute");
        assert_eq!(bb.text, "Bandwidth");
    }

    #[test]
    fn chaos_free_retry_matches_single_shot() {
        let suite = generate_rq1_suite(6, 1);
        let engine = SurrogateEngine::new();
        for i in 0..suite.items.len() {
            let prompt = render_rq1_prompt(&suite, i, 2, false);
            let single = ask(&engine, "gpt-4o-mini", &prompt, None, i as u64).unwrap();
            let retried = engine.complete_with_retry(
                "gpt-4o-mini",
                &prompt,
                None,
                i as u64,
                &RetryPolicy::default(),
            );
            assert_eq!(retried.response.as_ref().unwrap().text, single.text);
            assert_eq!(retried.verdict, Boundedness::parse(&single.text));
            assert_eq!(retried.accounting.valid, 1);
            assert!(!retried.accounting.faulted());
            assert!(retried.accounting.balanced());
        }
    }

    #[test]
    fn inactive_plan_is_billing_identical_to_no_plan() {
        let suite = generate_rq1_suite(4, 2);
        let prompt = render_rq1_prompt(&suite, 0, 2, false);
        let clean = SurrogateEngine::new();
        let zeroed = SurrogateEngine::with_caches_and_faults(
            LlmCaches::new(),
            Some(FaultPlan::uniform(42, 0.0)),
        );
        let a = ask(&clean, "o3-mini", &prompt, None, 5).unwrap();
        let b = ask(&zeroed, "o3-mini", &prompt, None, 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(clean.meter().snapshot(), zeroed.meter().snapshot());
    }

    #[test]
    fn injected_faults_balance_and_recover() {
        let suite = generate_rq1_suite(80, 7);
        let plan = FaultPlan::uniform(42, 0.3);
        let engine = SurrogateEngine::with_caches_and_faults(LlmCaches::new(), Some(plan));
        let mut acc = ResponseAccounting::new();
        for i in 0..suite.items.len() {
            let prompt = render_rq1_prompt(&suite, i, 2, false);
            let out = engine.complete_with_retry(
                "gpt-4o-mini",
                &prompt,
                None,
                i as u64,
                &RetryPolicy::default(),
            );
            assert!(out.accounting.balanced(), "{:?}", out.accounting);
            acc.merge(&out.accounting);
        }
        assert_eq!(acc.total(), suite.items.len() as u64);
        assert!(acc.injected > 0, "{acc:?}");
        assert!(acc.recovered() > 0, "{acc:?}");
        assert!(acc.balanced(), "{acc:?}");
        // Recorded backoff accompanies every retry burst.
        assert!(acc.retries > 0 && acc.backoff_ms > 0, "{acc:?}");
    }

    #[test]
    fn chaos_outcomes_are_deterministic() {
        let suite = generate_rq1_suite(20, 3);
        let run = || {
            let plan = FaultPlan::uniform(9, 0.4);
            let engine = SurrogateEngine::with_caches_and_faults(LlmCaches::new(), Some(plan));
            (0..suite.items.len())
                .map(|i| {
                    let prompt = render_rq1_prompt(&suite, i, 2, false);
                    engine.complete_with_retry(
                        "o3-mini",
                        &prompt,
                        None,
                        i as u64,
                        &RetryPolicy::default(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn certain_timeouts_exhaust_retries_into_invalid() {
        let plan = FaultPlan {
            seed: 1,
            rates: pce_fault::FaultRates {
                timeout: 1.0,
                ..pce_fault::FaultRates::zero()
            },
            wire: pce_fault::WireRates::zero(),
        };
        let engine = SurrogateEngine::with_caches_and_faults(LlmCaches::new(), Some(plan));
        let err = ask(&engine, "o1", "hello", None, 0).unwrap_err();
        assert_eq!(err.to_string(), "request timed out after 30000 ms");
        let out = engine.complete_with_retry("o1", "hello", None, 0, &RetryPolicy::default());
        assert_eq!(out.accounting.invalid, 1);
        assert_eq!(out.accounting.injected, 1);
        assert_eq!(
            out.accounting.retries,
            RetryPolicy::default().max_retries as u64
        );
        assert!(out.verdict.is_none());
        assert!(out.accounting.balanced());
        // Timeouts are transport-level: nothing was billed.
        assert!(engine.meter().snapshot().is_empty());
    }

    #[test]
    fn backoff_budget_caps_recorded_delay_and_stops_retrying() {
        let plan = FaultPlan {
            seed: 1,
            rates: pce_fault::FaultRates {
                timeout: 1.0,
                ..pce_fault::FaultRates::zero()
            },
            wire: pce_fault::WireRates::zero(),
        };
        let engine = SurrogateEngine::with_caches_and_faults(LlmCaches::new(), Some(plan));
        let unbudgeted =
            engine.complete_with_retry("o1", "hello", None, 0, &RetryPolicy::default());
        assert!(unbudgeted.accounting.backoff_ms > 0);

        // A budget below the unbudgeted total must cut retries short, pin
        // the recorded backoff at exactly the budget, and surface a
        // deadline timeout.
        let budget = unbudgeted.accounting.backoff_ms / 2;
        let policy = RetryPolicy::default().with_budget(budget);
        let out = engine.complete_with_retry("o1", "hello", None, 0, &policy);
        assert!(out.accounting.retries < unbudgeted.accounting.retries);
        assert_eq!(out.accounting.backoff_ms, budget);
        assert_eq!(out.accounting.invalid, 1);
        assert!(out.accounting.balanced());
        assert_eq!(
            out.error.unwrap().to_string(),
            format!("request timed out after {budget} ms")
        );

        // A roomy budget changes nothing.
        let roomy = RetryPolicy::default().with_budget(u64::MAX);
        let same = engine.complete_with_retry("o1", "hello", None, 0, &roomy);
        assert_eq!(same.accounting, unbudgeted.accounting);
    }

    #[test]
    fn refusals_terminate_without_retry() {
        let plan = FaultPlan {
            seed: 1,
            rates: pce_fault::FaultRates {
                refuse: 1.0,
                ..pce_fault::FaultRates::zero()
            },
            wire: pce_fault::WireRates::zero(),
        };
        let engine = SurrogateEngine::with_caches_and_faults(LlmCaches::new(), Some(plan));
        let out = engine.complete_with_retry("o1", "hello", None, 0, &RetryPolicy::default());
        assert_eq!(out.accounting.refused, 1);
        assert_eq!(out.accounting.retries, 0);
        assert_eq!(
            out.error.as_ref().unwrap().to_string(),
            "model 'o1' refused to answer"
        );
        assert!(out.accounting.balanced());
    }
}
