//! Regenerate the RQ4 fine-tuning experiment (§3.7): train the surrogate
//! head on the 80% split and report the validation collapse.

use pce_bench::{check_args, or_exit, study_from_args};
use pce_core::experiments::run_rq4;
use pce_core::report::render_rq4;
use pce_core::study::StudyData;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--smoke"], &[]));
    let study = study_from_args(&args);
    let data = StudyData::build(&study).expect("study builds");
    match run_rq4(&study, &data.split) {
        Ok(out) => println!("{}", render_rq4(&out)),
        Err(e) => {
            eprintln!("fine-tuning experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
