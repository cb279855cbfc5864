//! Regenerate the §2.1–2.2 dataset funnel, with a token-cutoff sweep
//! (DESIGN.md ablation).

use pce_bench::{check_args, or_exit, study_from_args};
use pce_core::report::render_funnel;
use pce_core::study::StudyData;
use pce_dataset::{run_pipeline_cached, tokenize_corpus};
use pce_gpu_sim::SimCaches;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--smoke"], &[]));
    let study = study_from_args(&args);
    let data = StudyData::build(&study).expect("study builds");
    println!("{}", render_funnel(&data.report));

    // Pre-funnel token distribution over the raw corpus, straight from
    // the pipeline's own batch counts (no retraining).
    if let Some(stats) = &data.report.raw_token_stats {
        println!(
            "Raw corpus tokens: n={} min={:.0} q1={:.0} median={:.0} q3={:.0} max={:.0} mean={:.1}",
            stats.n, stats.min, stats.q1, stats.median, stats.q3, stats.max, stats.mean
        );
    }

    // The cutoff only moves pruning: tokenize once, profile once.
    println!("Token-cutoff ablation:");
    let tokenized = tokenize_corpus(&data.corpus, &study.pipeline);
    let caches = SimCaches::new();
    for cutoff in [2_000usize, 4_000, 8_000, 16_000] {
        let mut cfg = study.pipeline.clone();
        cfg.max_tokens = cutoff;
        let (_, _, report) = run_pipeline_cached(&data.corpus, &tokenized, &cfg, &caches);
        let kept: usize = report.after_prune.values().sum();
        println!(
            "  cutoff {:>6}: kept {:>4} programs, final dataset {:>4}",
            cutoff, kept, report.final_size
        );
    }
}
