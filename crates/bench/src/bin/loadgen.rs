//! Load generator / latency bench for the prediction service.
//!
//! Replays a seeded job mix (uniform over corpus kernels, hardware
//! presets, zoo models, and shot styles) against an in-process
//! [`PredictionService`] and reports:
//!
//! * a **bounded-vs-unbounded identity check** — the same jobs run
//!   against a tightly bounded cache bundle (evictions forced) and an
//!   unbounded one must produce byte-identical response transcripts,
//! * **p50/p99 per-job latency and sustained predictions/sec** at 1, 4,
//!   and all-core `RAYON_NUM_THREADS`, written to `BENCH_serve.json`
//!   (override with `--out <path>`) — the regression baseline CI guards.
//!
//! Per-job latency is its admission batch's wall-clock: every job in a
//! batch completes when the batch does, which is what a caller blocked on
//! the line protocol actually observes.
//!
//! `--jobs <n>` (default 120), `--seed <s>`, `--batch <n>` (default 24),
//! and `--cache-bytes <n>` (default 256 KiB per cache, small enough to
//! evict under the default mix) control the run; `--smoke` uses the
//! reduced-scale corpus. `--emit-jobs` prints the job mix as protocol
//! lines (plus `stats` and `quit`) and exits — CI pipes that into the
//! `serve` bin to smoke the stdin front end.
//!
//! `--storm` additionally drives the whole mix (every job carrying a
//! tight `deadline_ms=`) plus a `drain` and a few post-drain stragglers
//! through a *bounded* `serve_session` (`--queue-depth <n>`, default 8)
//! at 1 and 4 threads, asserting byte-identical transcripts, exactly one
//! response per job, and a balanced extended ledger; the resulting
//! shed-rate/goodput profile lands in the report's `storm` field.
//! `--emit-jobs --storm` prints the raw storm stream for piping into the
//! `serve` bin.

use std::time::Instant;

use pce_bench::{flag_value, study_from_args};
use pce_core::caches::CacheBudget;
use pce_core::serve::{Job, PredictionService, ServeConfig};
use pce_core::study::Study;
use pce_llm::model_zoo;
use pce_prompt::ShotStyle;
use pce_roofline::HardwareSpec;

/// The committed `BENCH_serve.json` shape: the `loadgen` bin's latency /
/// throughput baseline plus its bounded-vs-unbounded identity check and
/// (since the overload work) its storm-mode shedding profile.
#[derive(Debug, serde::Serialize)]
struct ServeBenchReport {
    /// Jobs replayed per measured run.
    jobs: usize,
    /// Admission batch size.
    batch: usize,
    /// Job-mix seed.
    seed: u64,
    /// Per-cache byte capacity of the bounded runs.
    cache_bytes: u64,
    /// Bounded-vs-unbounded determinism check.
    identity: IdentityCheck,
    /// One latency/throughput point per measured thread count.
    threads: Vec<ThreadPoint>,
    /// Overload behavior under `loadgen --storm` (`null` without it).
    storm: Option<StormReport>,
}

/// Result of replaying the same job mix against a bounded and an
/// unbounded service.
#[derive(Debug, serde::Serialize)]
struct IdentityCheck {
    /// Whether the two response transcripts were byte-identical.
    bounded_equals_unbounded: bool,
    /// Evictions the bounded run performed (must be > 0 for the check to
    /// mean anything).
    evictions: u64,
    /// Resident cache bytes in the bounded service after the run.
    resident_bytes: u64,
}

/// Latency/throughput at one `RAYON_NUM_THREADS` setting. Per-job latency
/// is its admission batch's wall-clock (every job in a batch completes
/// when the batch does).
#[derive(Debug, serde::Serialize)]
struct ThreadPoint {
    /// Worker threads.
    threads: usize,
    /// Median per-job latency in milliseconds.
    p50_ms: f64,
    /// 99th-percentile per-job latency in milliseconds.
    p99_ms: f64,
    /// Sustained predictions per second over the whole run.
    predictions_per_sec: f64,
    /// Total wall-clock of the run in milliseconds.
    total_ms: f64,
}

/// Shedding and goodput under the `loadgen --storm` overload run.
#[derive(Debug, serde::Serialize)]
struct StormReport {
    /// Jobs submitted by the storm.
    jobs: usize,
    /// Admission queue depth the storm ran against.
    queue_depth: usize,
    /// Per-job deadline applied by the storm, in virtual ms.
    deadline_ms: u64,
    /// Jobs answered with a completion.
    completed: u64,
    /// Jobs shed under load (queue, breaker, or drain).
    shed: u64,
    /// Jobs that missed their deadline.
    expired: u64,
    /// `shed / jobs`.
    shed_rate: f64,
    /// Completed predictions per wall-clock second.
    goodput_per_sec: f64,
    /// Whether the storm transcript was byte-identical across the
    /// measured thread counts.
    transcript_identical_across_threads: bool,
}

/// Deterministic splitmix64 stream for the job mix.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

fn usize_flag(args: &[String], flag: &str, default: usize) -> usize {
    match flag_value(args, flag) {
        None => default,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} needs a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
    }
}

fn u64_flag(args: &[String], flag: &str, default: u64) -> u64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("{flag} needs an integer, got '{v}'");
                std::process::exit(2);
            }
        },
    }
}

/// The seeded job mix: uniform over kernels × presets × models × styles.
fn job_mix(study: &Study, jobs: usize, seed: u64) -> Vec<Job> {
    let programs = pce_kernels::build_corpus(&study.corpus).expect("corpus builds");
    let kernel_ids: Vec<String> = programs.into_iter().map(|p| p.id).collect();
    // Preset names carry spaces ("AMD Instinct MI250X"); the protocol is
    // whitespace-tokenized, so emit dash slugs — `preset_by_name` resolves
    // them format-insensitively.
    let slug = |name: &str| -> String {
        let mut out = String::with_capacity(name.len());
        for c in name.chars() {
            if c.is_ascii_alphanumeric() {
                out.push(c.to_ascii_lowercase());
            } else if !out.ends_with('-') {
                out.push('-');
            }
        }
        out.trim_matches('-').to_string()
    };
    let specs: Vec<String> = HardwareSpec::gpu_presets()
        .into_iter()
        .chain(HardwareSpec::cpu_presets())
        .map(|hw| slug(&hw.name))
        .collect();
    let models: Vec<String> = model_zoo().iter().map(|m| m.name.clone()).collect();
    let mut mix = Mix(seed);
    (0..jobs)
        .map(|i| Job {
            id: format!("j{i}"),
            kernel: mix.pick(&kernel_ids).clone(),
            spec: mix.pick(&specs).clone(),
            model: mix.pick(&models).clone(),
            style: if mix.next().is_multiple_of(2) {
                ShotStyle::ZeroShot
            } else {
                ShotStyle::FewShot
            },
            deadline_ms: None,
            src: None,
        })
        .collect()
}

/// Render one job as its protocol line.
fn job_line(job: &Job) -> String {
    let mut line = format!(
        "predict id={} kernel={} spec={} model={} shots={}",
        job.id,
        job.kernel,
        job.spec,
        job.model,
        match job.style {
            ShotStyle::ZeroShot => "zero",
            ShotStyle::FewShot => "few",
        }
    );
    if let Some(d) = job.deadline_ms {
        line.push_str(&format!(" deadline_ms={d}"));
    }
    line
}

/// Deadline every storm job carries, in virtual milliseconds. Against
/// the default 2 ms/job virtual cost and depth-8 queue this is tight
/// enough that one dispatch completes, the drained backlog expires, and
/// everything past the full queue is shed — all three outcomes exercised.
const STORM_DEADLINE_MS: u64 = 25;

/// The storm protocol stream: the seeded mix under a uniform tight
/// deadline, then `drain`, then a few stragglers (which a draining
/// server must shed), then `quit`.
fn storm_lines(jobs: &[Job]) -> Vec<String> {
    let mut lines = Vec::with_capacity(jobs.len() + 6);
    let with_deadline = |job: &Job, id: Option<String>| {
        let mut j = job.clone();
        j.deadline_ms = Some(STORM_DEADLINE_MS);
        if let Some(id) = id {
            j.id = id;
        }
        job_line(&j)
    };
    for job in jobs {
        lines.push(with_deadline(job, None));
    }
    lines.push("drain".to_string());
    for (i, job) in jobs.iter().take(4).enumerate() {
        lines.push(with_deadline(job, Some(format!("pd{i}"))));
    }
    lines.push("quit".to_string());
    lines
}

/// Drive the storm stream through a bounded `serve_session` at 1 and 4
/// threads; assert byte-identical transcripts, exactly one response per
/// submitted job, and a balanced extended ledger.
fn run_storm(study: &Study, jobs: &[Job], batch: usize, depth: usize) -> StormReport {
    let input: String = storm_lines(jobs).iter().map(|l| format!("{l}\n")).collect();
    let expected_ids: Vec<String> = jobs
        .iter()
        .map(|j| j.id.clone())
        .chain((0..4).map(|i| format!("pd{i}")))
        .collect();
    let config = ServeConfig {
        batch,
        queue_depth: Some(depth),
        ..ServeConfig::default()
    };
    let mut reference: Option<Vec<u8>> = None;
    let mut identical = true;
    let (mut completed, mut shed, mut expired, mut goodput) = (0u64, 0u64, 0u64, 0.0f64);
    for threads in [1usize, 4] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let service = PredictionService::new(study.clone(), Some(CacheBudget::uniform(256 * 1024)))
            .expect("service builds");
        let mut out = Vec::new();
        let t0 = Instant::now();
        if let Err(e) = service.serve_session(input.as_bytes(), &mut out, &config) {
            eprintln!("storm serve failed at {threads} threads: {e}");
            std::process::exit(2);
        }
        let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
        if !service.ledger_balanced() {
            eprintln!("storm ledger unbalanced at {threads} threads");
            std::process::exit(2);
        }
        let ledger = service.ledger();
        (completed, shed, expired) = (ledger.completed, ledger.shed, ledger.expired);
        goodput = ledger.completed as f64 / wall_s;
        if completed + shed + expired != expected_ids.len() as u64 {
            eprintln!(
                "storm accounting hole: {} submitted but {completed}+{shed}+{expired} resolved",
                expected_ids.len()
            );
            std::process::exit(2);
        }
        let text = String::from_utf8_lossy(&out);
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for line in text.lines() {
            if line.starts_with("ok ") || line.starts_with("err ") {
                if let Some(id) = line.split_whitespace().find_map(|t| t.strip_prefix("id=")) {
                    *counts.entry(id).or_default() += 1;
                }
            }
        }
        for id in &expected_ids {
            if counts.get(id.as_str()) != Some(&1) {
                eprintln!(
                    "storm job {id} answered {} times (want exactly 1)",
                    counts.get(id.as_str()).copied().unwrap_or(0)
                );
                std::process::exit(2);
            }
        }
        match &reference {
            None => reference = Some(out),
            Some(r) => identical &= *r == out,
        }
    }
    if !identical {
        eprintln!("storm transcripts diverged across thread counts");
        std::process::exit(2);
    }
    if shed == 0 {
        eprintln!("storm shed nothing — queue depth {depth} is not an overload");
        std::process::exit(2);
    }
    eprintln!(
        "storm: {} jobs, completed={completed} shed={shed} expired={expired} goodput={goodput:.1}/s",
        expected_ids.len()
    );
    StormReport {
        jobs: expected_ids.len(),
        queue_depth: depth,
        deadline_ms: STORM_DEADLINE_MS,
        completed,
        shed,
        expired,
        shed_rate: shed as f64 / expected_ids.len() as f64,
        goodput_per_sec: goodput,
        transcript_identical_across_threads: identical,
    }
}

/// Replay `jobs` in admission batches, returning (responses, per-job
/// latencies in ms, total wall ms).
fn replay(service: &PredictionService, jobs: &[Job], batch: usize) -> (Vec<String>, Vec<f64>, f64) {
    let mut responses = Vec::with_capacity(jobs.len());
    let mut latencies = Vec::with_capacity(jobs.len());
    let run_start = Instant::now();
    for chunk in jobs.chunks(batch) {
        let t0 = Instant::now();
        let lines = service.predict_batch(chunk);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        latencies.extend(std::iter::repeat_n(ms, lines.len()));
        responses.extend(lines);
    }
    let total_ms = run_start.elapsed().as_secs_f64() * 1e3;
    (responses, latencies, total_ms)
}

/// Percentile over an unsorted latency sample (nearest-rank on a sorted
/// copy).
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let study = study_from_args();
    let jobs_n = usize_flag(&args, "--jobs", 120);
    let seed = u64_flag(&args, "--seed", 0x10ad);
    let batch = usize_flag(&args, "--batch", 24);
    let cache_bytes = u64_flag(&args, "--cache-bytes", 256 * 1024);
    let out = flag_value(&args, "--out")
        .map(str::to_string)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let jobs = job_mix(&study, jobs_n, seed);

    let storm = args.iter().any(|a| a == "--storm");
    if args.iter().any(|a| a == "--emit-jobs") {
        if storm {
            for line in storm_lines(&jobs) {
                println!("{line}");
            }
        } else {
            for job in &jobs {
                println!("{}", job_line(job));
            }
            println!("stats");
            println!("quit");
        }
        return;
    }

    // Identity check: bounded (evicting) vs unbounded transcripts must be
    // byte-identical — evictions only cost recomputation, never answers.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let bounded = PredictionService::new(study.clone(), Some(CacheBudget::uniform(cache_bytes)))
        .expect("service builds");
    let (bounded_lines, _, _) = replay(&bounded, &jobs, batch);
    let report = bounded.caches().report();
    let (evictions, resident) = (report.total_evictions(), report.total_resident_bytes());
    let unbounded = PredictionService::new(study.clone(), None).expect("service builds");
    let (unbounded_lines, _, _) = replay(&unbounded, &jobs, batch);
    let matched = bounded_lines == unbounded_lines;
    eprintln!(
        "identity: bounded==unbounded {matched}, evictions={evictions}, resident_bytes={resident}"
    );
    if !matched {
        eprintln!("bounded and unbounded transcripts diverged");
        std::process::exit(2);
    }
    if evictions == 0 {
        eprintln!(
            "warning: no evictions at --cache-bytes {cache_bytes}; \
             lower the cap for a meaningful identity check"
        );
    }

    // Latency sweep: fresh (cold, bounded) service per thread count; the
    // transcripts must also agree across thread counts.
    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize, 4, all];
    counts.sort_unstable();
    counts.dedup();
    let mut points = Vec::new();
    for threads in counts {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let service =
            PredictionService::new(study.clone(), Some(CacheBudget::uniform(cache_bytes)))
                .expect("service builds");
        let (lines, latencies, total_ms) = replay(&service, &jobs, batch);
        if lines != bounded_lines {
            eprintln!("transcript at {threads} threads diverged from the 4-thread run");
            std::process::exit(2);
        }
        let point = ThreadPoint {
            threads,
            p50_ms: percentile(&latencies, 50.0),
            p99_ms: percentile(&latencies, 99.0),
            predictions_per_sec: jobs.len() as f64 / (total_ms / 1e3),
            total_ms,
        };
        eprintln!(
            "threads={} p50={:.2}ms p99={:.2}ms rate={:.1}/s",
            point.threads, point.p50_ms, point.p99_ms, point.predictions_per_sec
        );
        points.push(point);
    }

    let storm_report = if storm {
        Some(run_storm(
            &study,
            &jobs,
            batch,
            usize_flag(&args, "--queue-depth", 8),
        ))
    } else {
        None
    };

    let report = ServeBenchReport {
        jobs: jobs.len(),
        batch,
        seed,
        cache_bytes,
        identity: IdentityCheck {
            bounded_equals_unbounded: matched,
            evictions,
            resident_bytes: resident,
        },
        threads: points,
        storm: storm_report,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {out}");
        }
        Err(e) => {
            eprintln!("cannot serialize report: {e}");
            std::process::exit(2);
        }
    }
}
