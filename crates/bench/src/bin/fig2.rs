//! Regenerate Figure 2: token-count box-and-whisker statistics of the
//! train/validation splits, per language and class.

use pce_bench::{check_args, or_exit, study_from_args};
use pce_core::report::render_fig2;
use pce_core::study::StudyData;
use pce_dataset::fig2_stats;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--smoke"], &[]));
    let study = study_from_args(&args);
    let data = StudyData::build(&study).expect("study builds");
    println!("{}", render_fig2(&fig2_stats(&data.split)));
}
