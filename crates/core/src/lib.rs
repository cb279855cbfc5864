//! # pce-core
//!
//! The experiment harness — the paper's primary artifact. It wires every
//! substrate together and reproduces each numbered result:
//!
//! * [`study`] — study configuration and the shared data build
//!   (corpus → profiles → balanced dataset → split),
//! * [`experiments`] — one runner per research question:
//!   RQ1 baseline roofline calculations, RQ2 zero-shot, RQ3 few-shot,
//!   RQ4 fine-tuning, plus the §3.2 sampling-hyperparameter chi-squared
//!   check,
//! * [`table1`] — assembles the paper's Table 1 across all nine models
//!   (rayon-parallel over the zoo),
//! * [`suite`] — the cross-hardware study matrix: every (hardware spec ×
//!   model × RQ) cell from one shared corpus/tokenizer/RQ1 build, plus
//!   the label-flip analysis,
//! * [`caches`] — the cross-layer memoization bundle ([`SuiteCaches`])
//!   the suite threads through the profiler, the surrogate engine, and
//!   the prompt renderer so each pure computation happens once,
//! * [`figures`] — the Figure 1 roofline scatter and Figure 2 token
//!   distributions,
//! * [`report`] — markdown/CSV rendering of all of the above.
//!
//! ```no_run
//! use pce_core::caches::SuiteCaches;
//! use pce_core::study::{Study, StudyData};
//! use pce_core::table1::{build_table1_from_bank_cached, Rq1Bank};
//!
//! let study = Study::default();
//! let data = StudyData::build(&study).expect("study builds");
//! let caches = SuiteCaches::new();
//! let bank = Rq1Bank::build_cached(&study, &caches.llm);
//! let table = build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &caches).table;
//! println!("{}", pce_core::report::render_table1(&table));
//! ```

#![forbid(unsafe_code)]

pub mod caches;
pub mod experiments;
pub mod figures;
pub mod report;
pub mod serve;
pub mod study;
pub mod suite;
pub mod table1;

pub use caches::{CacheBudget, CacheReport, SuiteCaches};
pub use serve::{Command, Job, PredictionService};
pub use study::{ChaosConfig, Study, StudyData};
pub use suite::{run_suite_cached, CellOutcome, Suite, SuiteOutcome};
