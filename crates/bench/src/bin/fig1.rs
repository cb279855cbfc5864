//! Regenerate Figure 1: the RTX 3080 rooflines with every profiled kernel
//! scattered on top. Prints a summary and writes `fig1.csv` into the
//! working directory.

use pce_bench::{check_args, or_exit, study_from_args};
use pce_core::figures::build_fig1;
use pce_core::report::{render_fig1_csv, render_fig1_summary};
use pce_core::study::StudyData;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--smoke"], &[]));
    let study = study_from_args(&args);
    let data = StudyData::build(&study).expect("study builds");
    let fig = build_fig1(&study, &data.corpus);
    print!("{}", render_fig1_summary(&fig));
    let csv = render_fig1_csv(&fig);
    std::fs::write("fig1.csv", &csv).expect("write fig1 csv");
    println!("wrote fig1.csv ({} rows)", csv.lines().count() - 1);
}
