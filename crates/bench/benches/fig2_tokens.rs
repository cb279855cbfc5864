//! Criterion bench regenerating Figure 2 (token statistics) plus the full
//! dataset pipeline that feeds it.

use criterion::{criterion_group, criterion_main, Criterion};

use pce_bench::bench_study;
use pce_core::figures::build_fig2;
use pce_core::study::StudyData;
use pce_dataset::{run_pipeline_cached, tokenize_corpus};
use pce_gpu_sim::SimCaches;

fn bench_fig2(c: &mut Criterion) {
    let study = bench_study();
    let data = StudyData::build(&study).expect("study builds");
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("stats_only", |b| {
        b.iter(|| std::hint::black_box(build_fig2(&data.split)))
    });
    g.bench_function("full_pipeline", |b| {
        b.iter(|| {
            let tokenized = tokenize_corpus(&data.corpus, &study.pipeline);
            std::hint::black_box(run_pipeline_cached(
                &data.corpus,
                &tokenized,
                &study.pipeline,
                &SimCaches::new(),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
