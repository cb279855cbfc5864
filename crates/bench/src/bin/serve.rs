//! Prediction-as-a-service front end: answer (kernel, hardware, model,
//! shot-style) jobs over the line protocol, batched and fanned out across
//! the rayon pool.
//!
//! By default the service reads commands from stdin and writes responses
//! to stdout; `--listen <addr:port>` serves the same protocol over TCP
//! instead (one thread per connection, all connections sharing one
//! service and its caches).
//!
//! Protocol (one command per line):
//!
//! ```text
//! predict id=<token> kernel=<corpus-id> spec=<preset> model=<zoo-name> shots=<zero|few> [deadline_ms=<n>]
//! predict id=<token> src=<percent-encoded-source> spec=<preset> [deadline_ms=<n>]
//! stats
//! drain
//! quit
//! ```
//!
//! The `src=` form submits raw kernel source (percent-encoded, see the
//! `lint` bin's `--emit-predict`): the static analyzer answers it at
//! admission — clean source gets a static roofline label, source with
//! error-severity hazard diagnostics is rejected with `kind=lint`.
//!
//! `--smoke` serves the reduced-scale corpus; `--batch <n>` sets the
//! admission batch size (default 32). Caches are *bounded* by default
//! (64 MiB per cache layer); `--cache-bytes <n>` overrides the per-cache
//! capacity and `--unbounded` disables bounding entirely. `--chaos
//! <seed>` / `--fault-rate <r>` inject deterministic engine faults, as in
//! the `suite` bin, and `--wire-rate <r>` adds connection chaos (torn
//! lines, disconnects, virtual-clock stalls).
//!
//! Overload safety: `--queue-depth <n>` bounds the admission queue (jobs
//! arriving on a busy, full queue are shed with `err ... shed=queue`),
//! and `--default-deadline-ms <n>` applies a deadline to jobs without
//! their own `deadline_ms=`. The deadline/queue model runs on a virtual
//! cost of 2 ms per job, and 4 consecutive invalid/refused responses open
//! a model's circuit breaker. Responses carry no timing, so transcripts
//! are byte-reproducible across batch sizes, thread counts, and cache
//! bounds.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

use pce_bench::{chaos_from_args, check_args, flag_value, or_exit, parsed_flag, study_from_args};
use pce_core::caches::CacheBudget;
use pce_core::serve::{PredictionService, ServeConfig};

/// Default per-cache capacity: generous enough that a normal smoke
/// workload never evicts, small enough to bound a long-lived process.
const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// `flag`'s value as a positive integer, `None` when the flag is absent.
fn positive_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match parsed_flag(args, flag)? {
        Some(0) => Err(format!("{flag} needs a positive integer, got 0")),
        n => Ok(n),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(
        &args,
        &["--smoke", "--unbounded"],
        &[
            "--batch",
            "--cache-bytes",
            "--queue-depth",
            "--default-deadline-ms",
            "--listen",
            "--chaos",
            "--fault-rate",
            "--wire-rate",
        ],
    ));
    let mut study = study_from_args(&args);
    study.chaos = or_exit(chaos_from_args(&args));
    let batch = or_exit(positive_flag(&args, "--batch")).unwrap_or(32);
    let cache_bytes = or_exit(parsed_flag(&args, "--cache-bytes")).unwrap_or(DEFAULT_CACHE_BYTES);
    let budget =
        (!args.iter().any(|a| a == "--unbounded")).then(|| CacheBudget::uniform(cache_bytes));
    let config = ServeConfig {
        batch,
        queue_depth: or_exit(positive_flag(&args, "--queue-depth")),
        default_deadline_ms: or_exit(parsed_flag(&args, "--default-deadline-ms")),
    };
    let listen = or_exit(flag_value(&args, "--listen"));
    let service = Arc::new(PredictionService::new(study, budget).expect("service builds"));
    eprintln!(
        "serving {} kernels (batch={batch}, queue {}, caches {})",
        service.programs().len(),
        match config.queue_depth {
            Some(d) => format!("bounded (depth {d})"),
            None => "unbounded".to_string(),
        },
        if budget.is_some() {
            "bounded"
        } else {
            "unbounded"
        },
    );

    match listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = service.serve_session(stdin.lock(), stdout.lock(), &config) {
                eprintln!("serve failed: {e}");
                std::process::exit(2);
            }
        }
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot listen on {addr}: {e}");
                    std::process::exit(2);
                }
            };
            eprintln!("listening on {addr}");
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("accept failed: {e}");
                        continue;
                    }
                };
                let service = Arc::clone(&service);
                let config = config.clone();
                std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(r) => BufReader::new(r),
                        Err(e) => {
                            eprintln!("cannot clone connection: {e}");
                            return;
                        }
                    };
                    let mut writer = stream;
                    if let Err(e) = service.serve_session(reader, &mut writer, &config) {
                        eprintln!("connection failed: {e}");
                    }
                    let _ = writer.flush();
                });
            }
        }
    }
}
