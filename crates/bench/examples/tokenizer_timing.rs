//! Wall-clock timing for the tokenizer and the full dataset pipeline on
//! the smoke corpus — a quick manual sanity check, not a criterion bench.

use pce_core::study::Study;
use pce_dataset::{run_pipeline_cached, tokenize_corpus};
use pce_gpu_sim::SimCaches;
use pce_kernels::build_corpus;
use pce_tokenizer::{reference, BpeTrainer, Tokenizer};
use std::time::Instant;

fn main() {
    let study = Study::smoke();
    let corpus = build_corpus(&study.corpus).expect("corpus builds");
    let sources: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
    let training: Vec<&str> = sources
        .iter()
        .copied()
        .step_by(study.pipeline.tokenizer_stride)
        .collect();

    // Tokenizer stage, seed-style: naive train + naive per-source encode.
    let t0 = Instant::now();
    let naive_vocab =
        reference::naive_train(study.pipeline.tokenizer_vocab, 2, training.iter().copied());
    let t_naive_train = t0.elapsed();
    let naive_tok = Tokenizer::new(naive_vocab);
    let t0 = Instant::now();
    let mut total = 0usize;
    for s in &sources {
        total += reference::naive_encode(&naive_tok, s).len();
    }
    let t_naive_count = t0.elapsed();

    // Tokenizer stage, fast: incremental train + count_batch.
    let t0 = Instant::now();
    let vocab = BpeTrainer::new(study.pipeline.tokenizer_vocab).train(training.iter().copied());
    let t_fast_train = t0.elapsed();
    let tok = Tokenizer::new(vocab.clone());
    let t0 = Instant::now();
    let fast_total: usize = tok.count_batch(&sources).iter().sum();
    let t_fast_count = t0.elapsed();
    assert_eq!(total, fast_total);

    // Full pipeline, 3 runs each.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let tokenized = tokenize_corpus(&corpus, &study.pipeline);
        let out = run_pipeline_cached(&corpus, &tokenized, &study.pipeline, &SimCaches::new());
        std::hint::black_box(&out);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "naive train: {:?}  naive count: {:?}",
        t_naive_train, t_naive_count
    );
    println!(
        "fast  train: {:?}  batch count: {:?}",
        t_fast_train, t_fast_count
    );
    println!(
        "train speedup: {:.1}x  count speedup: {:.1}x",
        t_naive_train.as_secs_f64() / t_fast_train.as_secs_f64(),
        t_naive_count.as_secs_f64() / t_fast_count.as_secs_f64()
    );
    println!(
        "tokenizer stage total: naive {:.1} ms -> fast {:.1} ms",
        (t_naive_train + t_naive_count).as_secs_f64() * 1e3,
        (t_fast_train + t_fast_count).as_secs_f64() * 1e3
    );
    println!(
        "full tokenize + pipeline, cold caches (smoke, best of 3): {:.1} ms",
        best * 1e3
    );
}
