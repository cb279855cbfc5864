//! Regenerate the paper's Table 1: every model × (RQ1, RQ1-CoT, RQ2, RQ3).
//!
//! `--smoke` runs the reduced-scale study; default is paper scale
//! (340 balanced samples, 240 RQ1 rooflines).

use pce_bench::{check_args, or_exit, study_from_args};
use pce_core::caches::SuiteCaches;
use pce_core::report::{render_funnel, render_table1};
use pce_core::study::StudyData;
use pce_core::table1::{build_table1_from_bank_cached, Rq1Bank};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--smoke"], &[]));
    let study = study_from_args(&args);
    let data = StudyData::build(&study).expect("study builds");
    println!("{}", render_funnel(&data.report));
    let caches = SuiteCaches::new();
    let bank = Rq1Bank::build_cached(&study, &caches.llm);
    let detail = build_table1_from_bank_cached(&study, &data.dataset.samples, &bank, &caches);
    println!("{}", render_table1(&detail.table));
}
