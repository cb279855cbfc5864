//! Criterion benches over the substrate crates: profiler throughput,
//! tokenizer throughput, static analysis, corpus generation, and the
//! metrics kernels. These are the hot paths of every experiment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use pce_gpu_sim::Profiler;
use pce_kernels::{build_corpus, CorpusConfig};
use pce_roofline::HardwareSpec;
use pce_static_analysis::{analyze, diagnose, lex, AnalyzeOptions};
use pce_tokenizer::{BpeTrainer, Tokenizer};

fn bench_profiler(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig {
        seed: 1,
        cuda_programs: 32,
        omp_programs: 0,
    })
    .expect("corpus builds");
    let profiler = Profiler::new(HardwareSpec::rtx_3080());
    let mut g = c.benchmark_group("gpu_sim");
    g.throughput(Throughput::Elements(corpus.len() as u64));
    g.bench_function("profile_32_kernels", |b| {
        b.iter(|| {
            for p in &corpus {
                std::hint::black_box(profiler.profile(&p.ir, &p.launch));
            }
        })
    });
    g.finish();
}

fn bench_tokenizer(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig {
        seed: 2,
        cuda_programs: 24,
        omp_programs: 0,
    })
    .expect("corpus builds");
    let docs: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
    let tok = Tokenizer::new(BpeTrainer::new(800).train(docs.iter().copied()));
    let bytes: usize = docs.iter().map(|d| d.len()).sum();
    let mut g = c.benchmark_group("tokenizer");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("encode_corpus", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for d in &docs {
                total += tok.count(d);
            }
            std::hint::black_box(total)
        })
    });
    g.bench_function("train_vocab_400", |b| {
        b.iter_batched(
            || docs.clone(),
            |docs| std::hint::black_box(BpeTrainer::new(400).train(docs)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_static_analysis(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig {
        seed: 3,
        cuda_programs: 16,
        omp_programs: 16,
    })
    .expect("corpus builds");
    let opts = AnalyzeOptions::default();
    let bytes: usize = corpus.iter().map(|p| p.source.len()).sum();
    let mut g = c.benchmark_group("static_analysis");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("lex_corpus", |b| {
        b.iter(|| {
            for p in &corpus {
                std::hint::black_box(lex(&p.source));
            }
        })
    });
    g.bench_function("diagnose_corpus", |b| {
        b.iter(|| {
            for p in &corpus {
                std::hint::black_box(diagnose(&p.source));
            }
        })
    });
    g.bench_function("analyze_corpus", |b| {
        b.iter(|| {
            for p in &corpus {
                std::hint::black_box(analyze(&p.source, &opts));
            }
        })
    });
    g.finish();
}

fn bench_corpus_generation(c: &mut Criterion) {
    c.bench_function("corpus/generate_64_programs", |b| {
        b.iter(|| {
            std::hint::black_box(
                build_corpus(&CorpusConfig {
                    seed: 4,
                    cuda_programs: 48,
                    omp_programs: 16,
                })
                .expect("corpus builds"),
            )
        })
    });
}

fn bench_metrics(c: &mut Criterion) {
    use pce_metrics::{chi_squared_independence, ConfusionMatrix};
    let outcomes: Vec<bool> = (0..340).map(|i| i % 3 != 0).collect();
    c.bench_function("metrics/bundle_340", |b| {
        b.iter(|| {
            let mut cm = ConfusionMatrix::new();
            for (i, &ok) in outcomes.iter().enumerate() {
                cm.record(i % 2 == 0, ok);
            }
            std::hint::black_box(cm.bundle())
        })
    });
    c.bench_function("metrics/chi2_3x2", |b| {
        let table = vec![vec![180u64, 160], vec![175, 165], vec![170, 170]];
        b.iter(|| {
            std::hint::black_box(chi_squared_independence(&table).expect("table is well-formed"))
        })
    });
}

criterion_group!(
    benches,
    bench_profiler,
    bench_tokenizer,
    bench_static_analysis,
    bench_corpus_generation,
    bench_metrics
);
criterion_main!(benches);
