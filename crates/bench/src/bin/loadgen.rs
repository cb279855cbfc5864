//! Job-stream emitter for the prediction service.
//!
//! Prints a seeded job mix (uniform over corpus kernels, hardware
//! presets, zoo models, and shot styles) as `predict` protocol lines,
//! then `stats` and `quit`, for piping into the `serve` bin:
//!
//! ```text
//! loadgen --smoke --jobs 40 | serve --smoke --batch 8
//! loadgen --smoke --jobs 40 --storm | serve --smoke --queue-depth 8
//! ```
//!
//! `--jobs <n>` (default 120) and `--seed <s>` pick the mix; `--smoke`
//! draws kernels from the reduced-scale corpus. `--storm` prints the
//! overload stream instead: every job under a tight uniform
//! `deadline_ms=`, then `drain`, a few post-drain stragglers a draining
//! server must shed, and `quit`.
//!
//! Serve latency is measured by the repository benchmark's `serve-mix`
//! workload (see `perfbench/README.md`).

use pce_bench::{check_args, or_exit, parsed_flag, study_from_args};
use pce_core::serve::Job;
use pce_core::study::Study;
use pce_llm::model_zoo;
use pce_prompt::ShotStyle;
use pce_roofline::HardwareSpec;

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

/// Deadline every storm job carries, in virtual milliseconds. Against
/// the 2 ms/job virtual cost and a depth-8 queue this is tight enough
/// that one dispatch completes, the drained backlog expires, and
/// everything past the full queue is shed — all three outcomes exercised.
const STORM_DEADLINE_MS: u64 = 25;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(
        &args,
        &["--smoke", "--storm"],
        &["--jobs", "--seed"],
    ));
    let study = study_from_args(&args);
    let jobs = job_mix(
        &study,
        or_exit(parsed_flag(&args, "--jobs")).unwrap_or(120),
        or_exit(parsed_flag(&args, "--seed")).unwrap_or(0x10ad),
    );
    if args.iter().any(|a| a == "--storm") {
        let tight = |job: &Job, id: String| Job {
            id,
            deadline_ms: Some(STORM_DEADLINE_MS),
            ..job.clone()
        };
        for job in &jobs {
            println!("{}", tight(job, job.id.clone()));
        }
        println!("drain");
        for (i, job) in jobs.iter().take(4).enumerate() {
            println!("{}", tight(job, format!("pd{i}")));
        }
    } else {
        for job in &jobs {
            println!("{job}");
        }
        println!("stats");
    }
    println!("quit");
}
