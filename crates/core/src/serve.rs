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
//! job advances a `busy_until` horizon by 2 virtual milliseconds.
//! Nothing ever sleeps. On that clock the server enforces, in order:
//!
//! 1. **Drain** — after a `drain` command (or EOF / disconnect) admission
//!    stops; late jobs are shed with `shed=drain`.
//! 2. **Circuit breaker** — per model, 4 consecutive invalid/refused
//!    responses open the breaker; while open, a seeded half-open probe
//!    (rate 0.25) admits the occasional job, and a probe success closes
//!    it. Shed jobs answer `shed=breaker` and count in `breaker_open`.
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
use std::fmt;
use std::io::{self, BufRead, Write};

use parking_lot::Mutex;
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

impl fmt::Display for Job {
    /// The job's `predict` protocol line, the inverse of
    /// [`Command::parse`]: raw source goes out through [`encode_src`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "predict id={}", self.id)?;
        match &self.src {
            Some(src) => write!(f, " src={} spec={}", encode_src(src), self.spec)?,
            None => write!(
                f,
                " kernel={} spec={} model={} shots={}",
                self.kernel,
                self.spec,
                self.model,
                match self.style {
                    ShotStyle::ZeroShot => "zero",
                    ShotStyle::FewShot => "few",
                }
            )?,
        }
        if let Some(d) = self.deadline_ms {
            write!(f, " deadline_ms={d}")?;
        }
        Ok(())
    }
}

/// The `err` response line rendering `e` for job `id`, tagged `shed=`
/// when load shedding rejected the job. Responses are one line each, but
/// some error sources (the hardware-preset catalog listing, for one)
/// render across many, so the message is collapsed onto one line.
fn err_line(id: &str, e: &PceError, shed: Option<&str>) -> String {
    let shed = shed.map(|tag| format!(" shed={tag}")).unwrap_or_default();
    let msg = e.to_string().replace('\n', "; ").replace('"', "'");
    format!("err id={id} kind={}{shed} error=\"{msg}\"", e.kind())
}

/// Serving-side knobs for one [`PredictionService::serve_session`].
///
/// The default configuration — unbounded queue, no deadline — reproduces
/// the historical protocol behavior byte-for-byte.
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
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::classic(8)
    }
}

impl ServeConfig {
    /// The historical protocol loop at this batch size: unbounded queue,
    /// no deadlines.
    pub fn classic(batch: usize) -> ServeConfig {
        ServeConfig {
            batch,
            queue_depth: None,
            default_deadline_ms: None,
        }
    }
}

/// Virtual service cost per dispatched job, in milliseconds — the unit
/// the `busy_until` horizon advances by.
const COST_MS_PER_JOB: u64 = 2;

/// Consecutive invalid/refused responses that open a model's circuit
/// breaker.
const BREAKER_THRESHOLD: u32 = 4;

/// Probability an open breaker admits a half-open probe.
const BREAKER_PROBE_RATE: f64 = 0.25;

/// Salt separating breaker probe draws from the chaos streams.
const BREAKER_SALT: u64 = 0xfa_17_00_04;

#[derive(Default)]
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
struct CircuitBreaker {
    threshold: u32,
    probe_rate: f64,
    seed: u64,
    states: BTreeMap<String, BreakerState>,
}

impl CircuitBreaker {
    fn new(threshold: u32, probe_rate: f64, seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold,
            probe_rate,
            seed,
            states: BTreeMap::new(),
        }
    }

    /// Whether one arriving job of `model` may enter: always while the
    /// breaker is closed, as a half-open probe while it is open.
    fn admit(&mut self, model: &str) -> bool {
        let state = self.states.entry(model.to_string()).or_default();
        if !state.open {
            return true;
        }
        state.draws += 1;
        seeded_unit(&[
            &(self.seed ^ BREAKER_SALT).to_le_bytes(),
            model.as_bytes(),
            &state.epoch.to_le_bytes(),
            &state.draws.to_le_bytes(),
        ]) < self.probe_rate
    }

    /// Record one completed response for `model`: `success` means the
    /// answer was valid (first try or retried); failure means invalid or
    /// refused.
    fn record(&mut self, model: &str, success: bool) {
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

/// A job's admission group: (corpus index, preset name, few-shot). Jobs
/// of one group share a profile and a rendered prompt.
type GroupKey = (usize, String, bool);

/// A job waiting in the admission queue, stamped with its arrival on the
/// virtual clock and its resolved deadline.
struct QueuedJob {
    job: Job,
    arrival_ms: u64,
    deadline: Option<Deadline>,
}

/// A job's resolved deadline and the virtual time it expires, computed
/// once at arrival. The expiry saturates, so `deadline_ms=u64::MAX` never
/// overflows the clock.
#[derive(Clone, Copy)]
struct Deadline {
    ms: u64,
    expires_ms: u64,
}

/// How one admitted job left the serving layer.
#[derive(Clone, Copy)]
enum Outcome {
    /// Answered: an `ok` line, or an `err` line for a job that could not
    /// be resolved.
    Completed,
    /// Its deadline passed before an answer could be delivered.
    Expired,
    /// A raw-source job rejected by error-severity static diagnostics.
    Lint,
    /// Shed under load; `breaker` when an open circuit breaker shed it.
    Shed { breaker: bool },
}

/// One answered job: its response line, its ledger outcome, the engine's
/// response accounting, and — when a model actually responded — whether
/// it answered validly, which feeds the circuit breaker in request order.
struct Answer {
    line: String,
    outcome: Outcome,
    accounting: ResponseAccounting,
    success: Option<bool>,
}

impl Answer {
    /// An answer no model took part in.
    fn settled(line: String, outcome: Outcome) -> Answer {
        Answer {
            line,
            outcome,
            accounting: ResponseAccounting::new(),
            success: None,
        }
    }
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

    /// The service-wide ledger: every per-model bucket merged.
    pub fn ledger(&self) -> ResponseAccounting {
        self.ledgers
            .lock()
            .values()
            .fold(ResponseAccounting::new(), |acc, l| acc.merged(l))
    }

    /// The per-model ledgers, keyed by the model name jobs arrived with.
    pub fn ledgers(&self) -> BTreeMap<String, ResponseAccounting> {
        self.ledgers.lock().clone()
    }

    /// Whether the extended ledger invariant
    /// (`injected == retried_valid + invalid + refused` ∧
    /// `admitted == completed + shed + expired + lint`) holds globally
    /// *and* in every per-model bucket.
    pub fn ledger_balanced(&self) -> bool {
        let per_model = self.ledgers.lock().values().all(|l| l.balanced());
        per_model && self.ledger().balanced()
    }

    /// Count one admitted job into `model`'s ledger: its outcome and the
    /// engine's response accounting.
    fn account(&self, model: &str, outcome: Outcome, accounting: &ResponseAccounting) {
        let mut ledgers = self.ledgers.lock();
        let l = ledgers.entry(model.to_string()).or_default();
        l.admitted += 1;
        match outcome {
            Outcome::Completed => l.completed += 1,
            Outcome::Expired => l.expired += 1,
            Outcome::Lint => l.lint += 1,
            Outcome::Shed { breaker } => {
                l.shed += 1;
                l.breaker_open += u64::from(breaker);
            }
        }
        l.merge(accounting);
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

    /// Resolve a corpus job against the corpus, preset catalog, and model
    /// zoo into its admission group.
    fn resolve(&self, job: &Job) -> Result<(GroupKey, HardwareSpec), PceError> {
        let prog = *self
            .index
            .get(&job.kernel)
            .ok_or_else(|| PceError::spec(format!("unknown kernel '{}'", job.kernel)))?;
        let spec = HardwareSpec::preset_by_name(&job.spec)
            .map_err(|e| PceError::spec(format!("spec '{}': {e}", job.spec)))?;
        if pce_llm::zoo::model(&job.model).is_none() {
            return Err(PceError::spec(format!("unknown model '{}'", job.model)));
        }
        let key = (prog, spec.name.clone(), job.style == ShotStyle::FewShot);
        Ok((key, spec))
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
                deadline: None,
            })
            .collect();
        let (answers, _) = self.run_chunk(&queued, 0);
        answers.into_iter().map(|a| a.line).collect()
    }

    /// Answer one chunk of queued jobs dispatched at virtual time
    /// `dispatch_ms`, in request order, counting every answer into its
    /// model's ledger. Also returns the virtual time the chunk finishes.
    ///
    /// Jobs that need no model are settled at admission: overdue at batch
    /// formation (`err timeout`, costing no completion), unresolvable
    /// (`err spec`), and raw source (the static answer or its lint
    /// rejection). Only the live jobs fan out, with their retry backoff
    /// budgeted to the remaining deadline; a live job whose chunk
    /// finishes past its deadline expires at completion fan-out but still
    /// merges its response accounting, keeping the `injected` balance
    /// exact.
    fn run_chunk(&self, chunk: &[QueuedJob], dispatch_ms: u64) -> (Vec<Answer>, u64) {
        // Admission: settle every job that needs no model, group the rest.
        let mut groups: BTreeMap<GroupKey, HardwareSpec> = BTreeMap::new();
        let mut live: Vec<(usize, GroupKey)> = Vec::new();
        let mut answers: Vec<Option<Answer>> = Vec::with_capacity(chunk.len());
        for (i, q) in chunk.iter().enumerate() {
            let job = &q.job;
            answers.push(match (q.deadline, &job.src) {
                (Some(d), _) if dispatch_ms > d.expires_ms => Some(Answer::settled(
                    format!(
                        "err id={} kind=timeout error=\"deadline {} ms exceeded in queue (arrived {} ms, dispatched {dispatch_ms} ms)\"",
                        job.id, d.ms, q.arrival_ms,
                    ),
                    Outcome::Expired,
                )),
                (_, Some(src)) => Some(match self.static_answer(job, src) {
                    Ok(line) => Answer::settled(line, Outcome::Completed),
                    Err(e) => {
                        let outcome = match e {
                            PceError::Lint { .. } => Outcome::Lint,
                            _ => Outcome::Completed,
                        };
                        Answer::settled(err_line(&job.id, &e, None), outcome)
                    }
                }),
                (_, None) => match self.resolve(job) {
                    Ok((key, spec)) => {
                        groups.entry(key.clone()).or_insert(spec);
                        live.push((i, key));
                        None
                    }
                    Err(e) => Some(Answer::settled(
                        err_line(&job.id, &e, None),
                        Outcome::Completed,
                    )),
                },
            });
        }
        let t_end = dispatch_ms + COST_MS_PER_JOB * live.len() as u64;

        // Shared phase: one profile + ground truth + rendered prompt per
        // group, in parallel across groups.
        let groups: Vec<(GroupKey, HardwareSpec)> = groups.into_iter().collect();
        let prepared: BTreeMap<&GroupKey, (String, Boundedness)> = groups
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
                (key, (prompt, truth))
            })
            .collect();

        // Per-job phase: the live jobs' completions fan out across the
        // pool.
        let completed: Vec<Answer> = live
            .par_iter()
            .map(|(i, key)| self.complete(&chunk[*i], &prepared[key], dispatch_ms, t_end))
            .collect();
        for ((i, _), answer) in live.iter().zip(completed) {
            answers[*i] = Some(answer);
        }

        let answers: Vec<Answer> = answers.into_iter().flatten().collect();
        for (q, a) in chunk.iter().zip(&answers) {
            self.account(&q.job.model, a.outcome, &a.accounting);
        }
        (answers, t_end)
    }

    /// Complete one live job against its group's prompt and ground truth,
    /// dispatched at `dispatch_ms` in a chunk that finishes at `t_end`.
    fn complete(
        &self,
        q: &QueuedJob,
        (prompt, truth): &(String, Boundedness),
        dispatch_ms: u64,
        t_end: u64,
    ) -> Answer {
        // Budget retry backoff to the remaining deadline so a retried job
        // can never outlive it.
        let budget = q.deadline.map(|d| d.expires_ms.saturating_sub(dispatch_ms));
        let policy = match budget {
            Some(b) => self.policy.with_budget(b),
            None => self.policy,
        };
        let out = self.engine.complete_with_retry(
            &q.job.model,
            prompt,
            Some(SamplingParams::default()),
            self.job_seed(&q.job),
            &policy,
        );
        // Completion fan-out deadline checks: the retry loop ran out of
        // backoff budget, or the chunk finished past this job's deadline.
        let budget_timeout = matches!(
            (&out.error, budget),
            (Some(PceError::Timeout { ms }), Some(b)) if *ms == b
        );
        let (line, outcome) = match q.deadline {
            Some(d) if budget_timeout || t_end > d.expires_ms => (
                format!(
                    "err id={} kind=timeout error=\"deadline {} ms exceeded during completion\"",
                    q.job.id, d.ms,
                ),
                Outcome::Expired,
            ),
            _ => (
                format!(
                    "ok id={} kernel={} model={} prediction={} truth={} correct={}",
                    q.job.id,
                    q.job.kernel,
                    q.job.model,
                    out.verdict.map_or("invalid", |b| b.answer_token()),
                    truth.answer_token(),
                    out.verdict == Some(*truth),
                ),
                Outcome::Completed,
            ),
        };
        Answer {
            line,
            outcome,
            success: Some(out.accounting.valid + out.accounting.retried_valid > 0),
            accounting: out.accounting,
        }
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
        writer: W,
        config: &ServeConfig,
    ) -> io::Result<()> {
        let wire = self.wire_plan();
        let mut session = Session {
            service: self,
            batch: config.batch.max(1),
            depth: config.queue_depth.map(|d| d.max(1)),
            default_deadline_ms: config.default_deadline_ms,
            pending: Vec::new(),
            vnow: 0,
            busy_until: 0,
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_PROBE_RATE, self.study.seed),
            draining: false,
            writer,
        };
        for line in reader.lines() {
            let line = line?;
            let mut effective = line.trim();
            if effective.is_empty() {
                continue;
            }
            // Wire chaos: tear, drop, or stall this line — drawn from the
            // line's own bytes, so the realized faults are independent of
            // batching and threading.
            match wire.as_ref().and_then(|w| w.draw(effective)) {
                Some(WireFault::Torn { at }) => effective = effective[..at].trim_end(),
                Some(WireFault::Disconnect) => break,
                Some(WireFault::Stall { ms }) => session.vnow += ms,
                None => {}
            }
            // A stall may have idled the server past its busy horizon:
            // give the queue a chance to move before admission decisions.
            session.dispatch_ready()?;
            match Command::parse(effective) {
                Ok(Command::Predict(job)) => session.admit(job)?,
                Ok(command @ (Command::Stats | Command::Drain)) => {
                    session.drain()?;
                    session.draining |= command == Command::Drain;
                    writeln!(session.writer, "{}", self.stats_line())?;
                }
                Ok(Command::Quit) => {
                    session.drain()?;
                    return session.writer.flush();
                }
                Err(e) => writeln!(session.writer, "{}", err_line("-", &e, None))?,
            }
        }
        // EOF (or a chaos disconnect): stop admission, flush in-flight
        // work, and close the session with a final balanced-ledger stats
        // line.
        session.drain()?;
        writeln!(session.writer, "{}", self.stats_line())?;
        session.writer.flush()
    }
}

/// One protocol session: the admission queue, the virtual clock, the
/// per-model circuit breakers, and the response writer.
struct Session<'s, W> {
    service: &'s PredictionService,
    /// Admission batch size, at least 1.
    batch: usize,
    /// Admission queue depth, at least 1; `None` queues without bound.
    depth: Option<usize>,
    default_deadline_ms: Option<u64>,
    pending: Vec<QueuedJob>,
    /// Virtual now, in ms; advanced only by wire-chaos stalls.
    vnow: u64,
    /// Virtual time the last dispatched chunk finishes.
    busy_until: u64,
    breaker: CircuitBreaker,
    /// Set by `drain`: every later job is shed.
    draining: bool,
    writer: W,
}

impl<W: Write> Session<'_, W> {
    /// Admit one arriving job. A job that a draining server, an open
    /// breaker, or a full queue on a busy server sheds — or whose
    /// deadline falls before its earliest possible dispatch — is answered
    /// at once; any other job joins the queue.
    fn admit(&mut self, job: Job) -> io::Result<()> {
        let deadline = job
            .deadline_ms
            .or(self.default_deadline_ms)
            .map(|ms| Deadline {
                ms,
                expires_ms: self.vnow.saturating_add(ms),
            });
        let earliest = self.vnow.max(self.busy_until);
        let shed = |tag, what: String| {
            let line = err_line(&job.id, &PceError::overload(what), Some(tag));
            Some((
                line,
                Outcome::Shed {
                    breaker: tag == "breaker",
                },
            ))
        };
        let settled = if self.draining {
            shed("drain", "server is draining".to_string())
        } else if !self.breaker.admit(&job.model) {
            shed(
                "breaker",
                format!("circuit breaker open for model '{}'", job.model),
            )
        } else if let Some(d) = self.depth.filter(|&d| self.pending.len() >= d) {
            // The idle case already dispatched, so a full queue here means
            // the server is busy.
            shed("queue", format!("admission queue full (depth {d})"))
        } else if let Some(d) = deadline.filter(|d| earliest > d.expires_ms) {
            let line = format!(
                "err id={} kind=timeout error=\"deadline {} ms expired at admission (earliest dispatch {earliest} ms, arrived {} ms)\"",
                job.id, d.ms, self.vnow,
            );
            Some((line, Outcome::Expired))
        } else {
            None
        };
        match settled {
            Some((line, outcome)) => {
                self.service
                    .account(&job.model, outcome, &ResponseAccounting::new());
                writeln!(self.writer, "{line}")
            }
            None => {
                self.pending.push(QueuedJob {
                    job,
                    arrival_ms: self.vnow,
                    deadline,
                });
                self.dispatch_ready()
            }
        }
    }

    /// Dispatch batches while the queue is ready: it holds at least
    /// `min(batch, depth)` jobs, and it is unbounded or the server is
    /// idle. An unbounded queue never holds a full batch between lines,
    /// so for it this dispatches at most once, right after a push.
    fn dispatch_ready(&mut self) -> io::Result<()> {
        let trigger = self.depth.map_or(self.batch, |d| d.min(self.batch));
        while self.pending.len() >= trigger
            && (self.depth.is_none() || self.vnow >= self.busy_until)
        {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Flush the whole queue in batch-sized chunks (each advancing the
    /// virtual clock, so deadlines keep biting during the drain).
    fn drain(&mut self) -> io::Result<()> {
        while !self.pending.is_empty() {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Dispatch the next batch at `max(vnow, busy_until)`: advance the
    /// busy horizon, feed the breaker, and write the answers in request
    /// order.
    fn dispatch(&mut self) -> io::Result<()> {
        let n = self.batch.min(self.pending.len());
        let chunk: Vec<QueuedJob> = self.pending.drain(..n).collect();
        let (answers, t_end) = self
            .service
            .run_chunk(&chunk, self.vnow.max(self.busy_until));
        self.busy_until = t_end;
        for (q, answer) in chunk.iter().zip(answers) {
            if let Some(success) = answer.success {
                self.breaker.record(&q.job.model, success);
            }
            writeln!(self.writer, "{}", answer.line)?;
        }
        Ok(())
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

    fn is_open(b: &CircuitBreaker, model: &str) -> bool {
        b.states.get(model).is_some_and(|s| s.open)
    }

    #[test]
    fn breaker_trips_probes_and_recovers_deterministically() {
        let mut b = CircuitBreaker::new(3, 0.5, 42);
        assert!(!is_open(&b, "o1"));
        for _ in 0..2 {
            b.record("o1", false);
        }
        assert!(!is_open(&b, "o1"), "below threshold");
        b.record("o1", false);
        assert!(is_open(&b, "o1"), "third consecutive failure trips");
        // Other models are unaffected.
        assert!(b.admit("gpt-4o"));
        assert!(!is_open(&b, "gpt-4o"));
        // Open-breaker decisions are a deterministic seeded stream with
        // both probes (true) and sheds (false) present.
        let decisions: Vec<bool> = (0..32).map(|_| b.admit("o1")).collect();
        let mut again = CircuitBreaker::new(3, 0.5, 42);
        for _ in 0..3 {
            again.record("o1", false);
        }
        let replay: Vec<bool> = (0..32).map(|_| again.admit("o1")).collect();
        assert_eq!(decisions, replay);
        assert!(decisions.contains(&true));
        assert!(decisions.contains(&false));
        // A successful probe closes the breaker; an intervening failure
        // would have kept it open.
        b.record("o1", true);
        assert!(!is_open(&b, "o1"));
        assert!(b.admit("o1"));
        // It takes `threshold` fresh consecutive failures to re-trip.
        b.record("o1", false);
        assert!(!is_open(&b, "o1"));
    }

    #[test]
    fn a_poisoned_ledger_lock_keeps_its_counts() {
        let service = PredictionService::new(Study::smoke(), None).expect("service builds");
        let job = Job {
            id: "p1".into(),
            kernel: service.programs()[0].id.clone(),
            spec: "rtx-3080".into(),
            model: "o3-mini".into(),
            style: ShotStyle::ZeroShot,
            deadline_ms: None,
            src: None,
        };
        let lines = service.predict_batch(&[job]);
        assert!(lines[0].starts_with("ok id=p1 "), "{lines:?}");
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = service.ledgers.lock();
                panic!("poison the ledger lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert_eq!(service.ledger().admitted, 1);
        assert!(service.ledger_balanced());
    }

    #[test]
    fn breaker_success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(2, 0.25, 7);
        b.record("m", false);
        b.record("m", true);
        b.record("m", false);
        assert!(!is_open(&b, "m"), "non-consecutive failures never trip");
        b.record("m", false);
        assert!(is_open(&b, "m"));
    }
}
