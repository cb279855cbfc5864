//! Prediction-as-a-service: an overload-safe batched request loop in
//! front of the surrogate engine.
//!
//! The suite answers one fixed experiment matrix and exits; this module
//! turns the same substrate into something that can be *queried*. A
//! [`PredictionService`] owns a corpus, a (bounded) [`SuiteCaches`]
//! bundle, and a [`SurrogateEngine`], and answers jobs of the form
//! *(kernel, hardware, model, shot-style)* over a line protocol:
//!
//! ```text
//! predict id=j1 kernel=cuda-saxpy-0000 spec=rtx-3080 model=gpt-4o shots=zero
//! predict id=j2 kernel=cuda-saxpy-0000 spec=rtx-3080 model=o1 shots=few deadline_ms=50
//! predict id=j3 src=__global__%20void%20k... spec=rtx-3080
//! stats
//! drain
//! quit
//! ```
//!
//! Each `predict` answers with exactly one line —
//! `ok id=... prediction=Compute truth=Bandwidth correct=false` on
//! success, `err id=... kind=spec error="..."` on a bad job,
//! `err id=... kind=overload shed=queue ...` when load-shed, and
//! `err id=... kind=timeout ...` when its deadline expires — and
//! `stats` reports job/cache/ledger totals. Responses never carry
//! timing, so a transcript is byte-reproducible across thread counts,
//! batch sizes, and cache bounds.
//!
//! ## Raw-source jobs
//!
//! A `predict` line may carry `src=` (percent-encoded kernel source, see
//! [`encode_src`]/[`decode_src`]) instead of `kernel=`/`model=`/`shots=`.
//! At admission the server runs the full static pipeline —
//! lex → structure → diagnose → estimate — over the *untrusted* source:
//! source with error-severity hazard diagnostics (data races, missing
//! barriers, missing reduction clauses) is rejected with a typed
//! [`PceError::Lint`] (`err id=... kind=lint ...`, counted in the
//! ledger's `lint` column), and clean source answers
//! `ok id=... kernel=<name> model=static prediction=<label>
//! margin=<decades> warnings=<n>` with a static roofline label against
//! the requested spec. The pass is deterministic and span-stable, so
//! raw-source transcripts are byte-identical across thread counts and
//! batch sizes.
//!
//! ## Admission batching
//!
//! Jobs are admitted in batches ([`PredictionService::predict_batch`],
//! driven by [`PredictionService::serve_session`]): within a batch, jobs
//! that share a *(kernel, spec, shot-style)* group profile the kernel
//! and render the Fig.-4 prompt **once**, exactly as the suite's Table-1
//! assembly amortizes renders across the model zoo. Groups and then
//! per-job completions fan out across the rayon pool.
//!
//! ## Overload model
//!
//! Time inside a session is *virtual*: the clock (`vnow`, in virtual
//! milliseconds) advances only on wire-chaos stalls, and each dispatched
//! job advances a `busy_until` horizon by [`ServeConfig::cost_ms_per_job`].
//! Nothing ever sleeps. On that clock the server enforces, in order:
//!
//! 1. **Drain** — after a `drain` command (or EOF / disconnect) admission
//!    stops; late jobs are shed with `shed=drain`.
//! 2. **Circuit breaker** — per model, [`ServeConfig::breaker_threshold`]
//!    consecutive invalid/refused responses open the breaker; while open,
//!    a seeded half-open probe (rate [`ServeConfig::breaker_probe_rate`])
//!    admits the occasional job, and a probe success closes it. Shed jobs
//!    answer `shed=breaker` and count in `breaker_open`.
//! 3. **Bounded queue** — with [`ServeConfig::queue_depth`] set, a job
//!    arriving while the server is busy (`vnow < busy_until`) and the
//!    queue is full is shed with `shed=queue` instead of queuing forever.
//! 4. **Deadlines** — `deadline_ms=` (or the server default) is enforced
//!    at admission (the earliest possible dispatch already misses it), at
//!    batch formation (overdue queued jobs answer `err timeout` without
//!    costing a completion), and at completion fan-out (retry backoff is
//!    budgeted to the remaining deadline via
//!    [`RetryPolicy::backoff_budget_ms`](pce_fault::RetryPolicy), and a
//!    chunk that finishes past a job's deadline expires it).
//!
//! Every admitted job is answered exactly once, and the per-model ledger
//! keeps the extended invariant
//! `injected == retried_valid + invalid + refused` ∧
//! `admitted == completed + shed + expired + lint`.
//!
//! ## Determinism
//!
//! A job's sampling seed is derived from its *(kernel, spec, model,
//! shot-style)* identity — never from its request id, arrival order, or
//! batch position. Wire faults are drawn per line from the chaos seed,
//! breaker probes from the study seed, and the virtual clock from the
//! input stream alone — so the full transcript, including which jobs
//! were shed or expired, is byte-identical across `RAYON_NUM_THREADS`,
//! queue depths that do not change admission decisions, and repeated
//! runs. With an unbounded queue, no deadlines, and chaos off, the
//! transcript reduces exactly to the historical (pre-overload) behavior.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::sync::Mutex;

use rayon::prelude::*;

use pce_fault::{seeded_unit, PceError, ResponseAccounting, RetryPolicy, WireFault, WirePlan};
use pce_gpu_sim::Profiler;
use pce_kernels::{build_corpus, Program};
use pce_llm::{SamplingParams, SurrogateEngine};
use pce_memo::Fnv;
use pce_prompt::{render_classify_prompt, ClassifyRequest, ShotStyle};
use pce_roofline::{classify_joint, Boundedness, HardwareSpec};

use crate::caches::{CacheBudget, SuiteCaches};
use crate::study::Study;

/// One prediction job, as parsed from a `predict` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Caller-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// Corpus program id, e.g. `cuda-saxpy-0000`.
    pub kernel: String,
    /// Hardware preset name (resolved case/format-insensitively).
    pub spec: String,
    /// Model-zoo model name.
    pub model: String,
    /// Zero- or few-shot prompting.
    pub style: ShotStyle,
    /// Per-job deadline in virtual milliseconds (`deadline_ms=`);
    /// `None` falls back to the server default.
    pub deadline_ms: Option<u64>,
    /// Decoded raw kernel source for `src=` jobs; `None` for corpus
    /// jobs. Raw-source jobs carry `kernel = "-"`, `model =`
    /// [`STATIC_MODEL`], and zero-shot style.
    pub src: Option<String>,
}

/// The ledger bucket raw-source (`src=`) jobs are accounted under: they
/// are answered by the static analyzer, not a zoo model.
pub const STATIC_MODEL: &str = "static";

/// Percent-encode raw kernel source for the whitespace-split line
/// protocol: every byte outside `[A-Za-z0-9_.~-]` becomes `%XX`.
pub fn encode_src(src: &str) -> String {
    let mut out = String::with_capacity(src.len() + src.len() / 2);
    for b in src.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(
                    char::from_digit(u32::from(b >> 4), 16)
                        .unwrap_or('0')
                        .to_ascii_uppercase(),
                );
                out.push(
                    char::from_digit(u32::from(b & 0xf), 16)
                        .unwrap_or('0')
                        .to_ascii_uppercase(),
                );
            }
        }
    }
    out
}

/// Decode a percent-encoded `src=` value back into source text.
pub fn decode_src(enc: &str) -> Result<String, PceError> {
    let bytes = enc.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = enc
                .get(i + 1..i + 3)
                .ok_or_else(|| PceError::parse("truncated %-escape in src"))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| PceError::parse(format!("bad %-escape '%{hex}' in src")))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| PceError::parse("src is not valid UTF-8"))
}

/// One parsed protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// A prediction job.
    Predict(Job),
    /// Report job/cache/ledger totals.
    Stats,
    /// Stop admission, flush in-flight work, report final stats — but
    /// keep answering `stats` until `quit`/EOF.
    Drain,
    /// Flush pending jobs and stop serving.
    Quit,
}

impl Command {
    /// Parse one protocol line (leading/trailing whitespace ignored).
    ///
    /// Duplicate and unknown `key=` tokens are rejected with a
    /// [`PceError::Parse`] naming the offending key; `stats`, `drain`,
    /// and `quit` reject trailing tokens for the same reason.
    pub fn parse(line: &str) -> Result<Command, PceError> {
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().unwrap_or("");
        match verb {
            "stats" | "drain" | "quit" => {
                if let Some(extra) = tokens.next() {
                    return Err(PceError::parse(format!(
                        "{verb} takes no arguments, got '{extra}'"
                    )));
                }
                Ok(match verb {
                    "stats" => Command::Stats,
                    "drain" => Command::Drain,
                    _ => Command::Quit,
                })
            }
            "predict" => {
                let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
                for tok in tokens {
                    let (k, v) = tok.split_once('=').ok_or_else(|| {
                        PceError::parse(format!("expected key=value, got '{tok}'"))
                    })?;
                    if fields.insert(k, v).is_some() {
                        return Err(PceError::parse(format!("duplicate field '{k}'")));
                    }
                }
                let take = |fields: &BTreeMap<&str, &str>, k: &str| -> Result<String, PceError> {
                    fields
                        .get(k)
                        .map(|v| v.to_string())
                        .ok_or_else(|| PceError::parse(format!("predict needs {k}=...")))
                };
                let deadline_ms = fields
                    .get("deadline_ms")
                    .map(|v| {
                        v.parse::<u64>().map_err(|_| {
                            PceError::parse(format!(
                                "deadline_ms must be a non-negative integer, got '{v}'"
                            ))
                        })
                    })
                    .transpose()?;
                for k in fields.keys() {
                    if !matches!(
                        *k,
                        "id" | "kernel" | "spec" | "model" | "shots" | "deadline_ms" | "src"
                    ) {
                        return Err(PceError::parse(format!("unknown field '{k}'")));
                    }
                }
                if fields.contains_key("src") {
                    // A raw-source job: the static analyzer answers it, so
                    // the corpus/model/shot fields make no sense here.
                    for k in ["kernel", "model", "shots"] {
                        if fields.contains_key(k) {
                            return Err(PceError::parse(format!(
                                "src= is mutually exclusive with {k}="
                            )));
                        }
                    }
                    let src = decode_src(&take(&fields, "src")?)?;
                    return Ok(Command::Predict(Job {
                        id: take(&fields, "id")?,
                        kernel: "-".to_string(),
                        spec: take(&fields, "spec")?,
                        model: STATIC_MODEL.to_string(),
                        style: ShotStyle::ZeroShot,
                        deadline_ms,
                        src: Some(src),
                    }));
                }
                let style = match take(&fields, "shots")?.as_str() {
                    "zero" => ShotStyle::ZeroShot,
                    "few" => ShotStyle::FewShot,
                    other => {
                        return Err(PceError::parse(format!(
                            "shots must be zero|few, got '{other}'"
                        )))
                    }
                };
                Ok(Command::Predict(Job {
                    id: take(&fields, "id")?,
                    kernel: take(&fields, "kernel")?,
                    spec: take(&fields, "spec")?,
                    model: take(&fields, "model")?,
                    style,
                    deadline_ms,
                    src: None,
                }))
            }
            other => Err(PceError::parse(format!(
                "unknown command '{other}' (expected predict|stats|drain|quit)"
            ))),
        }
    }
}

/// Collapse a (possibly multi-line) error display into one protocol-safe
/// line: responses are one line each, but some error sources (the
/// hardware-preset catalog listing, for one) render across many.
fn one_line(msg: impl std::fmt::Display) -> String {
    msg.to_string().replace('\n', "; ").replace('"', "'")
}

/// Serving-side knobs for one [`PredictionService::serve_session`].
///
/// The default configuration — unbounded queue, no deadline, breaker
/// that only trips under chaos — reproduces the historical protocol
/// behavior byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission batch size (jobs grouped per dispatch).
    pub batch: usize,
    /// Admission queue depth; `None` queues without bound (the
    /// historical behavior), `Some(d)` sheds jobs that arrive while the
    /// server is busy with `d` jobs already queued.
    pub queue_depth: Option<usize>,
    /// Deadline applied to jobs that carry no `deadline_ms=` of their
    /// own, in virtual milliseconds.
    pub default_deadline_ms: Option<u64>,
    /// Virtual service cost per dispatched job, in milliseconds — the
    /// unit the `busy_until` horizon advances by.
    pub cost_ms_per_job: u64,
    /// Consecutive invalid/refused responses that open a model's
    /// circuit breaker.
    pub breaker_threshold: u32,
    /// Probability an open breaker admits a half-open probe, drawn
    /// deterministically from the study seed.
    pub breaker_probe_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch: 8,
            queue_depth: None,
            default_deadline_ms: None,
            cost_ms_per_job: 2,
            breaker_threshold: 4,
            breaker_probe_rate: 0.25,
        }
    }
}

impl ServeConfig {
    /// The historical protocol loop at this batch size: unbounded queue,
    /// no deadlines.
    pub fn classic(batch: usize) -> ServeConfig {
        ServeConfig {
            batch,
            ..ServeConfig::default()
        }
    }
}

/// What a [`CircuitBreaker`] decided about one arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Breaker closed: admit normally.
    Admit,
    /// Breaker open, but this job is a half-open probe: admit it and let
    /// its outcome close (or keep open) the breaker.
    Probe,
    /// Breaker open: shed.
    Shed,
}

#[derive(Debug, Default, Clone)]
struct BreakerState {
    consecutive: u32,
    open: bool,
    /// Bumped on every open/close transition so each open period draws
    /// a fresh probe stream.
    epoch: u64,
    /// Draws made in the current epoch.
    draws: u64,
}

/// A deterministic per-model circuit breaker.
///
/// `threshold` consecutive failed responses (invalid or refused) open a
/// model's breaker; while open, each arriving job for that model draws a
/// seeded half-open probe with probability `probe_rate` — the draw is
/// keyed on (seed, model, epoch, draw index), never on wall-clock or
/// thread scheduling, so trip/probe/close sequences are byte-reproducible.
/// A probe that succeeds closes the breaker; one that fails keeps it open.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    probe_rate: f64,
    seed: u64,
    states: BTreeMap<String, BreakerState>,
}

/// Salt separating breaker probe draws from the chaos streams.
const BREAKER_SALT: u64 = 0xfa_17_00_04;

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures (min 1),
    /// probing at `probe_rate` from `seed`.
    pub fn new(threshold: u32, probe_rate: f64, seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            probe_rate: probe_rate.clamp(0.0, 1.0),
            seed,
            states: BTreeMap::new(),
        }
    }

    /// Whether `model`'s breaker is currently open.
    pub fn is_open(&self, model: &str) -> bool {
        self.states.get(model).map(|s| s.open).unwrap_or(false)
    }

    /// Decide admission for one arriving job of `model`.
    pub fn admit(&mut self, model: &str) -> BreakerDecision {
        let state = self.states.entry(model.to_string()).or_default();
        if !state.open {
            return BreakerDecision::Admit;
        }
        state.draws += 1;
        let u = seeded_unit(&[
            &(self.seed ^ BREAKER_SALT).to_le_bytes(),
            model.as_bytes(),
            &state.epoch.to_le_bytes(),
            &state.draws.to_le_bytes(),
        ]);
        if u < self.probe_rate {
            BreakerDecision::Probe
        } else {
            BreakerDecision::Shed
        }
    }

    /// Record one completed response for `model`: `success` means the
    /// answer was valid (first try or retried); failure means invalid or
    /// refused.
    pub fn record(&mut self, model: &str, success: bool) {
        let state = self.states.entry(model.to_string()).or_default();
        if success {
            state.consecutive = 0;
            if state.open {
                state.open = false;
                state.epoch += 1;
                state.draws = 0;
            }
        } else {
            state.consecutive = state.consecutive.saturating_add(1);
            if !state.open && state.consecutive >= self.threshold {
                state.open = true;
                state.epoch += 1;
                state.draws = 0;
            }
        }
    }
}

/// Profiled-and-rendered state shared by every job in one
/// (kernel, spec, shot-style) admission group.
struct GroupPrep {
    prompt: String,
    truth: Boundedness,
}

/// A job waiting in the admission queue, stamped with its arrival on the
/// virtual clock and its resolved deadline.
#[derive(Debug, Clone)]
struct QueuedJob {
    job: Job,
    arrival_ms: u64,
    deadline_ms: Option<u64>,
}

/// How one admitted job left the serving layer.
enum ServeOutcome {
    Completed,
    Expired,
    /// A raw-source job rejected by error-severity static diagnostics.
    LintRejected,
}

/// One fanned-out job before the ledger merge: response line, response
/// accounting, resolution, and the optional `(model, success)` breaker
/// signal.
type FannedAnswer = (
    String,
    ResponseAccounting,
    ServeOutcome,
    Option<(String, bool)>,
);

/// One answered job from a dispatched chunk.
struct Answer {
    line: String,
    /// `(model, success)` when a model actually responded — feeds the
    /// circuit breaker in request order.
    breaker_signal: Option<(String, bool)>,
}

struct ChunkResult {
    answers: Vec<Answer>,
    /// The virtual time the chunk finished.
    t_end: u64,
}

/// A long-lived prediction service over one study's corpus.
pub struct PredictionService {
    study: Study,
    programs: Vec<Program>,
    index: HashMap<String, usize>,
    caches: SuiteCaches,
    engine: SurrogateEngine,
    policy: RetryPolicy,
    ledgers: Mutex<BTreeMap<String, ResponseAccounting>>,
}

impl PredictionService {
    /// Build a service: generate the study's corpus, stand up a cache
    /// bundle (bounded per `budget`, unbounded when `None`), and wire the
    /// engine through it — chaos included if the study carries any.
    /// Fails only when corpus generation does.
    pub fn new(study: Study, budget: Option<CacheBudget>) -> Result<PredictionService, PceError> {
        let programs = build_corpus(&study.corpus)?;
        let index = programs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.clone(), i))
            .collect();
        let caches = match budget {
            Some(b) => SuiteCaches::with_budget(b),
            None => SuiteCaches::new(),
        };
        let engine = SurrogateEngine::with_caches_and_faults(
            caches.llm.clone(),
            study.chaos.as_ref().map(|c| c.plan.clone()),
        );
        let policy = study.chaos.as_ref().map(|c| c.retry).unwrap_or_default();
        Ok(PredictionService {
            study,
            programs,
            index,
            caches,
            engine,
            policy,
            ledgers: Mutex::new(BTreeMap::new()),
        })
    }

    /// The corpus this service answers jobs against, in corpus order.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// The cache bundle (for effectiveness reporting).
    pub fn caches(&self) -> &SuiteCaches {
        &self.caches
    }

    /// The study's wire-chaos plan, when one is active.
    fn wire_plan(&self) -> Option<WirePlan> {
        self.study
            .chaos
            .as_ref()
            .map(|c| c.plan.wire_plan())
            .filter(|w| w.is_active())
    }

    /// Total `predict` jobs admitted so far (including shed and expired).
    pub fn jobs_served(&self) -> u64 {
        self.ledger().admitted
    }

    /// The service-wide ledger: every per-model bucket merged.
    pub fn ledger(&self) -> ResponseAccounting {
        self.ledgers
            .lock()
            .map(|map| {
                map.values()
                    .fold(ResponseAccounting::new(), |acc, l| acc.merged(l))
            })
            .unwrap_or_default()
    }

    /// The per-model ledgers, keyed by the model name jobs arrived with.
    pub fn ledgers(&self) -> BTreeMap<String, ResponseAccounting> {
        self.ledgers
            .lock()
            .map(|map| map.clone())
            .unwrap_or_default()
    }

    /// Whether the extended ledger invariant
    /// (`injected == retried_valid + invalid + refused` ∧
    /// `admitted == completed + shed + expired + lint`) holds globally
    /// *and* in every per-model bucket.
    pub fn ledger_balanced(&self) -> bool {
        self.ledgers
            .lock()
            .map(|map| map.values().all(|l| l.balanced()))
            .unwrap_or(false)
            && self.ledger().balanced()
    }

    /// The one-line `stats` response: totals, then per-model overload
    /// segments (`overload[model]=shed/expired/breaker_open`) for every
    /// model that shed or expired anything.
    pub fn stats_line(&self) -> String {
        let report = self.caches.report();
        let (hits, misses) = report
            .layers()
            .iter()
            .fold((0, 0), |(h, m), (_, c)| (h + c.hits, m + c.misses));
        let total = self.ledger();
        let mut line = format!(
            "stats jobs={} cache_hits={hits} cache_misses={misses} evictions={} resident_bytes={} completed={} shed={} expired={} breaker_open={} lint={} ledger_balanced={}",
            total.admitted,
            report.total_evictions(),
            report.total_resident_bytes(),
            total.completed,
            total.shed,
            total.expired,
            total.breaker_open,
            total.lint,
            self.ledger_balanced(),
        );
        for (model, l) in self.ledgers() {
            if l.shed + l.expired + l.breaker_open > 0 {
                line.push_str(&format!(
                    " overload[{model}]={}/{}/{}",
                    l.shed, l.expired, l.breaker_open
                ));
            }
        }
        line
    }

    /// The deterministic sampling seed of one job: a fingerprint of its
    /// *(kernel, spec, model, shot-style)* identity folded into the study
    /// seed. Request ids and arrival order never enter.
    fn job_seed(&self, job: &Job) -> u64 {
        let mut h = Fnv::new();
        h.str(&job.kernel);
        h.str(&job.spec);
        h.str(&job.model);
        h.u64(matches!(job.style, ShotStyle::FewShot) as u64);
        self.study.seed ^ h.finish()
    }

    /// Resolve a job against the corpus, preset catalog, and model zoo.
    fn resolve(&self, job: &Job) -> Result<(usize, HardwareSpec), PceError> {
        let prog = *self
            .index
            .get(&job.kernel)
            .ok_or_else(|| PceError::spec(format!("unknown kernel '{}'", job.kernel)))?;
        let spec = HardwareSpec::preset_by_name(&job.spec)
            .map_err(|e| PceError::spec(format!("spec '{}': {e}", job.spec)))?;
        if pce_llm::zoo::model(&job.model).is_none() {
            return Err(PceError::spec(format!("unknown model '{}'", job.model)));
        }
        Ok((prog, spec))
    }

    /// Account one shed job (never dispatched).
    fn account_shed(&self, model: &str, breaker: bool) {
        if let Ok(mut map) = self.ledgers.lock() {
            let l = map.entry(model.to_string()).or_default();
            l.admitted += 1;
            l.shed += 1;
            if breaker {
                l.breaker_open += 1;
            }
        }
    }

    /// Account one job expired at admission (never dispatched).
    fn account_admission_expiry(&self, model: &str) {
        if let Ok(mut map) = self.ledgers.lock() {
            let l = map.entry(model.to_string()).or_default();
            l.admitted += 1;
            l.expired += 1;
        }
    }

    /// Answer one raw-source job: run the full static pipeline
    /// (lex → structure → diagnose → estimate) over the untrusted
    /// source, reject hazards, and label clean source against the
    /// requested spec's static rooflines.
    ///
    /// Errors map to response kinds: unknown spec / kernel-free source →
    /// [`PceError::Spec`]; error-severity diagnostics →
    /// [`PceError::Lint`] naming each firing rule. The whole path is a
    /// pure function of `(src, spec)` — no cache, clock, or seed — so
    /// the answer line is byte-stable across batches and thread counts.
    fn static_answer(&self, job: &Job, src: &str) -> Result<String, PceError> {
        use pce_static_analysis::{analyze, AnalyzeOptions, Severity};
        let spec = HardwareSpec::preset_by_name(&job.spec)
            .map_err(|e| PceError::spec(format!("spec '{}': {e}", job.spec)))?;
        let analysis = analyze(src, &AnalyzeOptions::default());
        let errors: Vec<String> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| {
                format!(
                    "{} at {}:{}: {}",
                    d.rule, d.span.line, d.span.col, d.message
                )
            })
            .collect();
        if !errors.is_empty() {
            let shown = errors.len().min(3);
            let mut what = errors[..shown].join("; ");
            if errors.len() > shown {
                what.push_str(&format!(" (+{} more)", errors.len() - shown));
            }
            return Err(PceError::lint(what));
        }
        let kernel = analysis.kernels.first().ok_or_else(|| {
            PceError::spec("src contains no CUDA __global__ kernel or OMP target region")
        })?;
        // Static roofline label: the best margin (in decades) of any op
        // class's static AI over the spec's ridge point decides the side,
        // mirroring the deep readers' mental model in `pce_llm`.
        let mut verdict = Boundedness::Bandwidth;
        let mut best_margin = f64::NEG_INFINITY;
        for (idx, class) in pce_roofline::OpClass::ALL.iter().enumerate() {
            let ai = kernel.tally.ai(idx);
            if ai <= 0.0 {
                continue;
            }
            let m = if ai.is_infinite() {
                3.0
            } else {
                (ai / spec.ridge_point(*class)).log10()
            };
            best_margin = best_margin.max(m);
            if m >= 0.0 {
                verdict = Boundedness::Compute;
            }
        }
        if best_margin == f64::NEG_INFINITY {
            best_margin = -1.0; // no ops counted at all: far-bandwidth guess
        }
        Ok(format!(
            "ok id={} kernel={} model={STATIC_MODEL} prediction={} margin={:+.2} warnings={}",
            job.id,
            kernel.name,
            verdict.answer_token(),
            best_margin,
            analysis.diagnostics.len(),
        ))
    }

    /// Answer one admission batch with no queue, deadlines, or virtual
    /// clock — the direct replay entry point. Responses come back aligned
    /// with `jobs`, one line each; invalid jobs get `err` lines and cost
    /// nothing. Jobs sharing a (kernel, spec, shot-style) group profile
    /// and render once, then completions fan out per job.
    pub fn predict_batch(&self, jobs: &[Job]) -> Vec<String> {
        let queued: Vec<QueuedJob> = jobs
            .iter()
            .map(|job| QueuedJob {
                job: job.clone(),
                arrival_ms: 0,
                deadline_ms: None,
            })
            .collect();
        self.run_chunk(&queued, 0, 0)
            .answers
            .into_iter()
            .map(|a| a.line)
            .collect()
    }

    /// Dispatch one chunk of queued jobs at virtual time `dispatch_ms`.
    ///
    /// Deadline enforcement: jobs already past their deadline at batch
    /// formation answer `err timeout` without costing a completion;
    /// dispatched jobs get their retry backoff budgeted to the remaining
    /// deadline; and jobs whose chunk finishes past their deadline expire
    /// at completion fan-out. Expired-after-dispatch jobs still merge
    /// their response accounting, keeping the `injected` balance exact.
    fn run_chunk(&self, chunk: &[QueuedJob], dispatch_ms: u64, cost_ms: u64) -> ChunkResult {
        // Admission: resolve every job, grouping the live ones.
        type GroupKey = (usize, String, bool);
        enum Slot {
            Live(GroupKey),
            FormationExpired(u64),
            Rejected(String),
            /// A raw-source job answered by the static analyzer.
            Static(String),
            /// A raw-source job rejected by error-severity diagnostics.
            LintRejected(String),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(chunk.len());
        let mut groups: BTreeMap<GroupKey, HardwareSpec> = BTreeMap::new();
        let mut live = 0u64;
        for q in chunk {
            if let Some(d) = q.deadline_ms {
                if dispatch_ms > q.arrival_ms + d {
                    slots.push(Slot::FormationExpired(d));
                    continue;
                }
            }
            if let Some(src) = &q.job.src {
                slots.push(match self.static_answer(&q.job, src) {
                    Ok(line) => Slot::Static(line),
                    Err(e @ PceError::Lint { .. }) => Slot::LintRejected(format!(
                        "err id={} kind={} error=\"{}\"",
                        q.job.id,
                        e.kind(),
                        one_line(&e)
                    )),
                    Err(e) => Slot::Rejected(format!(
                        "err id={} kind={} error=\"{}\"",
                        q.job.id,
                        e.kind(),
                        one_line(&e)
                    )),
                });
                continue;
            }
            match self.resolve(&q.job) {
                Ok((prog, spec)) => {
                    let key = (
                        prog,
                        spec.name.clone(),
                        matches!(q.job.style, ShotStyle::FewShot),
                    );
                    groups.entry(key.clone()).or_insert(spec);
                    slots.push(Slot::Live(key));
                    live += 1;
                }
                Err(e) => slots.push(Slot::Rejected(format!(
                    "err id={} kind={} error=\"{}\"",
                    q.job.id,
                    e.kind(),
                    one_line(&e)
                ))),
            }
        }
        let t_end = dispatch_ms + cost_ms * live;

        // Shared phase: one profile + ground truth + rendered prompt per
        // group, in parallel across groups.
        let group_list: Vec<(GroupKey, HardwareSpec)> = groups.into_iter().collect();
        let prepared: BTreeMap<GroupKey, GroupPrep> = group_list
            .par_iter()
            .map(|(key, spec)| {
                let p = &self.programs[key.0];
                let profile = Profiler::new(spec.clone())
                    .with_caches(self.caches.sim.clone())
                    .profile_shared(&p.ir, &p.launch);
                let truth = classify_joint(spec, &profile.counts).label;
                let style = if key.2 {
                    ShotStyle::FewShot
                } else {
                    ShotStyle::ZeroShot
                };
                let req = ClassifyRequest {
                    language: p.language.label().to_string(),
                    kernel_name: p.kernel_name.clone(),
                    hardware: spec.clone(),
                    geometry: p.launch.geometry_string(),
                    args: p.args.clone(),
                    source: p.source.clone(),
                };
                let prompt = render_classify_prompt(&req, style);
                self.caches.count_prompt_renders(1);
                (key.clone(), GroupPrep { prompt, truth })
            })
            .collect();

        // Per-job phase: completions fan out across the pool.
        let sampling = SamplingParams::default();
        let answered: Vec<FannedAnswer> = chunk
                .par_iter()
                .enumerate()
                .map(|(i, q)| {
                    let key = match &slots[i] {
                        Slot::Live(key) => key,
                        Slot::FormationExpired(d) => {
                            let line = format!(
                                "err id={} kind=timeout error=\"deadline {d} ms exceeded in queue (arrived {} ms, dispatched {dispatch_ms} ms)\"",
                                q.job.id, q.arrival_ms,
                            );
                            return (line, ResponseAccounting::new(), ServeOutcome::Expired, None);
                        }
                        Slot::Rejected(line) | Slot::Static(line) => {
                            return (
                                line.clone(),
                                ResponseAccounting::new(),
                                ServeOutcome::Completed,
                                None,
                            )
                        }
                        Slot::LintRejected(line) => {
                            return (
                                line.clone(),
                                ResponseAccounting::new(),
                                ServeOutcome::LintRejected,
                                None,
                            )
                        }
                    };
                    let prep = &prepared[key];
                    // Budget retry backoff to the remaining deadline so a
                    // retried job can never outlive it.
                    let budget = q
                        .deadline_ms
                        .map(|d| (q.arrival_ms + d).saturating_sub(dispatch_ms));
                    let policy = match budget {
                        Some(b) => self.policy.with_budget(b),
                        None => self.policy,
                    };
                    let out = self.engine.complete_with_retry(
                        &q.job.model,
                        &prep.prompt,
                        Some(sampling),
                        self.job_seed(&q.job),
                        &policy,
                    );
                    let success = out.accounting.valid + out.accounting.retried_valid > 0;
                    let signal = Some((q.job.model.clone(), success));
                    // Completion fan-out deadline checks: the retry loop
                    // ran out of backoff budget, or the chunk finished
                    // past this job's deadline.
                    let budget_timeout = matches!(
                        (&out.error, budget),
                        (Some(PceError::Timeout { ms }), Some(b)) if *ms == b
                    );
                    if let Some(d) = q.deadline_ms {
                        if budget_timeout || t_end > q.arrival_ms + d {
                            let line = format!(
                                "err id={} kind=timeout error=\"deadline {d} ms exceeded during completion\"",
                                q.job.id,
                            );
                            return (line, out.accounting, ServeOutcome::Expired, signal);
                        }
                    }
                    let prediction = match out.verdict {
                        Some(b) => b.answer_token(),
                        None => "invalid",
                    };
                    let correct = out.verdict == Some(prep.truth);
                    let line = format!(
                        "ok id={} kernel={} model={} prediction={prediction} truth={} correct={correct}",
                        q.job.id,
                        q.job.kernel,
                        q.job.model,
                        prep.truth.answer_token(),
                    );
                    (line, out.accounting, ServeOutcome::Completed, signal)
                })
                .collect();

        // Sequential ledger merge, in request order.
        let mut answers = Vec::with_capacity(answered.len());
        let mut map = self.ledgers.lock();
        for ((line, acc, outcome, breaker_signal), q) in answered.into_iter().zip(chunk) {
            if let Ok(map) = map.as_mut() {
                let l = map.entry(q.job.model.clone()).or_default();
                l.admitted += 1;
                match outcome {
                    ServeOutcome::Completed => l.completed += 1,
                    ServeOutcome::Expired => l.expired += 1,
                    ServeOutcome::LintRejected => l.lint += 1,
                }
                l.merge(&acc);
            }
            answers.push(Answer {
                line,
                breaker_signal,
            });
        }
        drop(map);
        ChunkResult { answers, t_end }
    }

    /// Dispatch the first `n` pending jobs at `max(vnow, busy_until)`,
    /// advancing the busy horizon, feeding the breaker, and writing
    /// response lines in request order.
    #[allow(clippy::too_many_arguments)]
    fn dispatch<W: Write>(
        &self,
        pending: &mut Vec<QueuedJob>,
        n: usize,
        vnow: u64,
        busy_until: &mut u64,
        cost_ms: u64,
        breaker: &mut CircuitBreaker,
        writer: &mut W,
    ) -> std::io::Result<()> {
        let t = vnow.max(*busy_until);
        let chunk: Vec<QueuedJob> = pending.drain(..n.min(pending.len())).collect();
        let result = self.run_chunk(&chunk, t, cost_ms);
        *busy_until = result.t_end;
        for answer in result.answers {
            if let Some((model, success)) = answer.breaker_signal {
                breaker.record(&model, success);
            }
            writeln!(writer, "{}", answer.line)?;
        }
        Ok(())
    }

    /// Flush the whole queue in batch-sized chunks (each advancing the
    /// virtual clock, so deadlines keep biting during the drain).
    #[allow(clippy::too_many_arguments)]
    fn drain_queue<W: Write>(
        &self,
        pending: &mut Vec<QueuedJob>,
        batch: usize,
        vnow: u64,
        busy_until: &mut u64,
        cost_ms: u64,
        breaker: &mut CircuitBreaker,
        writer: &mut W,
    ) -> std::io::Result<()> {
        while !pending.is_empty() {
            let n = batch.min(pending.len());
            self.dispatch(pending, n, vnow, busy_until, cost_ms, breaker, writer)?;
        }
        Ok(())
    }

    /// Drive the line protocol with the historical defaults (unbounded
    /// queue, no deadlines) at this batch size.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
        batch: usize,
    ) -> std::io::Result<()> {
        self.serve_session(reader, writer, &ServeConfig::classic(batch))
    }

    /// Drive the overload-safe line protocol: read commands from
    /// `reader`, write response lines to `writer`, enforcing the
    /// queue/deadline/breaker/drain model described at module level.
    ///
    /// Every job is answered exactly once. Completions come back in
    /// request order; jobs rejected at admission (shed, breaker-open,
    /// or already past deadline) are answered immediately, ahead of
    /// earlier jobs still waiting in the queue.
    pub fn serve_session<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
        config: &ServeConfig,
    ) -> std::io::Result<()> {
        let batch = config.batch.max(1);
        let depth = config.queue_depth.map(|d| d.max(1));
        // A bounded server dispatches as soon as a full batch *or* a full
        // queue is ready; an unbounded one keeps the historical
        // batch-only trigger.
        let trigger = depth.map(|d| d.min(batch)).unwrap_or(batch);
        let cost = config.cost_ms_per_job;
        let wire = self.wire_plan();
        let mut breaker = CircuitBreaker::new(
            config.breaker_threshold,
            config.breaker_probe_rate,
            self.study.seed,
        );
        let mut pending: Vec<QueuedJob> = Vec::new();
        let mut vnow: u64 = 0;
        let mut busy_until: u64 = 0;
        let mut draining = false;
        let mut disconnected = false;

        for line in reader.lines() {
            let line = line?;
            let arrived = line.trim();
            if arrived.is_empty() {
                continue;
            }
            // Wire chaos: tear, drop, or stall this line — drawn from the
            // line's own bytes, so the realized faults are independent of
            // batching and threading.
            let mut torn_at: Option<usize> = None;
            if let Some(w) = &wire {
                match w.draw(arrived) {
                    Some(WireFault::Torn { at }) => torn_at = Some(at),
                    Some(WireFault::Disconnect) => {
                        disconnected = true;
                        break;
                    }
                    Some(WireFault::Stall { ms }) => vnow += ms,
                    None => {}
                }
            }
            let effective = match torn_at {
                Some(at) => arrived[..at].trim_end(),
                None => arrived,
            };
            // A stall may have idled the server past its busy horizon:
            // give the queue a chance to move before admission decisions.
            if depth.is_some() {
                while vnow >= busy_until && pending.len() >= trigger {
                    self.dispatch(
                        &mut pending,
                        batch,
                        vnow,
                        &mut busy_until,
                        cost,
                        &mut breaker,
                        &mut writer,
                    )?;
                }
            }
            match Command::parse(effective) {
                Ok(Command::Predict(job)) => {
                    if draining {
                        writeln!(
                            writer,
                            "err id={} kind=overload shed=drain error=\"{}\"",
                            job.id,
                            one_line(PceError::overload("server is draining"))
                        )?;
                        self.account_shed(&job.model, false);
                        continue;
                    }
                    match breaker.admit(&job.model) {
                        BreakerDecision::Shed => {
                            writeln!(
                                writer,
                                "err id={} kind=overload shed=breaker error=\"{}\"",
                                job.id,
                                one_line(PceError::overload(format!(
                                    "circuit breaker open for model '{}'",
                                    job.model
                                )))
                            )?;
                            self.account_shed(&job.model, true);
                            continue;
                        }
                        BreakerDecision::Admit | BreakerDecision::Probe => {}
                    }
                    if let Some(d) = depth {
                        if pending.len() >= d {
                            // The idle case already dispatched above, so a
                            // full queue here means the server is busy.
                            writeln!(
                                writer,
                                "err id={} kind=overload shed=queue error=\"{}\"",
                                job.id,
                                one_line(PceError::overload(format!(
                                    "admission queue full (depth {d})"
                                )))
                            )?;
                            self.account_shed(&job.model, false);
                            continue;
                        }
                    }
                    let deadline_ms = job.deadline_ms.or(config.default_deadline_ms);
                    if let Some(d) = deadline_ms {
                        let earliest = vnow.max(busy_until);
                        if earliest > vnow + d {
                            writeln!(
                                writer,
                                "err id={} kind=timeout error=\"deadline {d} ms expired at admission (earliest dispatch {earliest} ms, arrived {vnow} ms)\"",
                                job.id,
                            )?;
                            self.account_admission_expiry(&job.model);
                            continue;
                        }
                    }
                    pending.push(QueuedJob {
                        job,
                        arrival_ms: vnow,
                        deadline_ms,
                    });
                    if depth.is_some() {
                        while vnow >= busy_until && pending.len() >= trigger {
                            self.dispatch(
                                &mut pending,
                                batch,
                                vnow,
                                &mut busy_until,
                                cost,
                                &mut breaker,
                                &mut writer,
                            )?;
                        }
                    } else if pending.len() >= batch {
                        self.dispatch(
                            &mut pending,
                            batch,
                            vnow,
                            &mut busy_until,
                            cost,
                            &mut breaker,
                            &mut writer,
                        )?;
                    }
                }
                Ok(Command::Stats) => {
                    self.drain_queue(
                        &mut pending,
                        batch,
                        vnow,
                        &mut busy_until,
                        cost,
                        &mut breaker,
                        &mut writer,
                    )?;
                    writeln!(writer, "{}", self.stats_line())?;
                }
                Ok(Command::Drain) => {
                    self.drain_queue(
                        &mut pending,
                        batch,
                        vnow,
                        &mut busy_until,
                        cost,
                        &mut breaker,
                        &mut writer,
                    )?;
                    draining = true;
                    writeln!(writer, "{}", self.stats_line())?;
                }
                Ok(Command::Quit) => {
                    self.drain_queue(
                        &mut pending,
                        batch,
                        vnow,
                        &mut busy_until,
                        cost,
                        &mut breaker,
                        &mut writer,
                    )?;
                    writer.flush()?;
                    return Ok(());
                }
                Err(e) => {
                    writeln!(
                        writer,
                        "err id=- kind={} error=\"{}\"",
                        e.kind(),
                        one_line(&e)
                    )?;
                }
            }
        }
        // EOF (or a chaos disconnect): stop admission, flush in-flight
        // work, and close the session with a final balanced-ledger stats
        // line.
        self.drain_queue(
            &mut pending,
            batch,
            vnow,
            &mut busy_until,
            cost,
            &mut breaker,
            &mut writer,
        )?;
        let _ = disconnected;
        writeln!(writer, "{}", self.stats_line())?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let cmd = Command::parse(
            "predict id=j1 kernel=cuda-saxpy-0000 spec=rtx-3080 model=gpt-4o shots=zero",
        )
        .expect("valid line");
        match cmd {
            Command::Predict(job) => {
                assert_eq!(job.id, "j1");
                assert_eq!(job.kernel, "cuda-saxpy-0000");
                assert_eq!(job.style, ShotStyle::ZeroShot);
                assert_eq!(job.deadline_ms, None);
            }
            other => panic!("expected predict, got {other:?}"),
        }
        let cmd = Command::parse("predict id=j2 kernel=k spec=s model=m shots=few deadline_ms=40")
            .expect("valid line with deadline");
        match cmd {
            Command::Predict(job) => assert_eq!(job.deadline_ms, Some(40)),
            other => panic!("expected predict, got {other:?}"),
        }
        assert_eq!(Command::parse("stats"), Ok(Command::Stats));
        assert_eq!(Command::parse("drain"), Ok(Command::Drain));
        assert_eq!(Command::parse(" quit "), Ok(Command::Quit));
    }

    #[test]
    fn src_round_trips_through_percent_encoding() {
        let src = "__global__ void k(float* x) {\n  x[threadIdx.x] *= 2.0f; // \"quoted\"\n}\n";
        let enc = encode_src(src);
        assert!(!enc.contains(char::is_whitespace), "{enc}");
        assert!(!enc.contains('='), "{enc}");
        assert_eq!(decode_src(&enc).expect("decodes"), src);
        // Malformed escapes are parse errors, not panics.
        assert!(decode_src("abc%2").is_err());
        assert!(decode_src("abc%zz").is_err());
        assert!(decode_src("%FF%FE").is_err(), "invalid UTF-8 rejected");
    }

    #[test]
    fn parse_accepts_src_jobs_and_rejects_mixed_fields() {
        let enc = encode_src("__global__ void k() {}");
        let cmd = Command::parse(&format!("predict id=s1 src={enc} spec=rtx-3080"))
            .expect("valid src line");
        match cmd {
            Command::Predict(job) => {
                assert_eq!(job.id, "s1");
                assert_eq!(job.kernel, "-");
                assert_eq!(job.model, STATIC_MODEL);
                assert_eq!(job.style, ShotStyle::ZeroShot);
                assert_eq!(job.src.as_deref(), Some("__global__ void k() {}"));
            }
            other => panic!("expected predict, got {other:?}"),
        }
        for bad in [
            format!("predict id=s1 src={enc} spec=s kernel=k"),
            format!("predict id=s1 src={enc} spec=s model=m"),
            format!("predict id=s1 src={enc} spec=s shots=zero"),
            format!("predict id=s1 src={enc}"),
            "predict id=s1 src=%2 spec=s".to_string(),
        ] {
            let err = Command::parse(&bad).expect_err(&format!("accepted: {bad}"));
            assert_eq!(err.kind(), "parse", "{bad}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "explode",
            "predict id=j1",
            "predict id=j1 kernel=k spec=s model=m shots=maybe",
            "predict id=j1 kernel=k spec=s model=m shots=zero bogus=1",
            "predict id=j1 id=j2 kernel=k spec=s model=m shots=zero",
            "predict id=j1 kernel=k spec=s model=m shots=zero deadline_ms=soon",
            "predict id=j1 kernel=k spec=s model=m shots=zero deadline_ms=-5",
            "predict novalue",
            "stats now",
            "drain --force",
            "quit 0",
        ] {
            let err = Command::parse(bad).expect_err(&format!("accepted: {bad}"));
            assert_eq!(err.kind(), "parse", "{bad}");
            assert!(!err.to_string().contains('\n'), "{bad}");
        }
    }

    #[test]
    fn breaker_trips_probes_and_recovers_deterministically() {
        let mut b = CircuitBreaker::new(3, 0.5, 42);
        assert!(!b.is_open("o1"));
        for _ in 0..2 {
            b.record("o1", false);
        }
        assert!(!b.is_open("o1"), "below threshold");
        b.record("o1", false);
        assert!(b.is_open("o1"), "third consecutive failure trips");
        // Other models are unaffected.
        assert_eq!(b.admit("gpt-4o"), BreakerDecision::Admit);
        // Open-breaker decisions are a deterministic seeded stream with
        // both probes and sheds present.
        let decisions: Vec<BreakerDecision> = (0..32).map(|_| b.admit("o1")).collect();
        let mut again = CircuitBreaker::new(3, 0.5, 42);
        for _ in 0..3 {
            again.record("o1", false);
        }
        let replay: Vec<BreakerDecision> = (0..32).map(|_| again.admit("o1")).collect();
        assert_eq!(decisions, replay);
        assert!(decisions.contains(&BreakerDecision::Probe));
        assert!(decisions.contains(&BreakerDecision::Shed));
        // A successful probe closes the breaker; an intervening failure
        // would have kept it open.
        b.record("o1", true);
        assert!(!b.is_open("o1"));
        assert_eq!(b.admit("o1"), BreakerDecision::Admit);
        // It takes `threshold` fresh consecutive failures to re-trip.
        b.record("o1", false);
        assert!(!b.is_open("o1"));
    }

    #[test]
    fn breaker_success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(2, 0.25, 7);
        b.record("m", false);
        b.record("m", true);
        b.record("m", false);
        assert!(!b.is_open("m"), "non-consecutive failures never trip");
        b.record("m", false);
        assert!(b.is_open("m"));
    }
}
