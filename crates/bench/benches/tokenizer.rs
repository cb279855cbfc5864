//! Criterion bench for the BPE tokenizer hot path: incremental trainer vs
//! the naive reference, encode throughput, and batch encoding.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use pce_kernels::{build_corpus, CorpusConfig};
use pce_tokenizer::{reference, BpeTrainer, Tokenizer};

fn corpus_docs() -> Vec<String> {
    build_corpus(&CorpusConfig {
        seed: 11,
        cuda_programs: 48,
        omp_programs: 36,
    })
    .expect("corpus builds")
    .into_iter()
    .map(|p| p.source)
    .collect()
}

fn bench_train(c: &mut Criterion) {
    let docs = corpus_docs();
    let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
    let bytes: usize = docs.iter().map(|d| d.len()).sum();
    let mut g = c.benchmark_group("bpe_train");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10);
    g.bench_function("incremental_vocab_1200", |b| {
        b.iter_batched(
            || refs.clone(),
            |docs| std::hint::black_box(BpeTrainer::new(1200).train(docs)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("naive_reference_vocab_1200", |b| {
        b.iter_batched(
            || refs.clone(),
            |docs| std::hint::black_box(reference::naive_train(1200, 2, docs)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_encode(c: &mut Criterion) {
    let docs = corpus_docs();
    let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
    let vocab = BpeTrainer::new(1200).train(refs.iter().copied());
    let bytes: usize = docs.iter().map(|d| d.len()).sum();
    let mut g = c.benchmark_group("bpe_encode");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10);
    g.bench_function("heap_merge_corpus", |b| {
        // Every `count` call starts with a cold segment memo of its own,
        // so each iteration does the same work: the memo pays off only
        // on lines repeated within one program. `count_batch_corpus`
        // below shares one memo per worker across programs.
        let tok = Tokenizer::new(vocab.clone());
        b.iter(|| {
            let mut total = 0usize;
            for d in &refs {
                total += tok.count(d);
            }
            std::hint::black_box(total)
        })
    });
    g.bench_function("naive_reference_corpus", |b| {
        let tok = Tokenizer::new(vocab.clone());
        b.iter(|| {
            let mut total = 0usize;
            for d in &refs {
                total += reference::naive_encode(&tok, d).len();
            }
            std::hint::black_box(total)
        })
    });
    g.bench_function("count_batch_corpus", |b| {
        let tok = Tokenizer::new(vocab.clone());
        b.iter(|| std::hint::black_box(tok.count_batch(&refs)))
    });
    g.finish();
}

criterion_group!(benches, bench_train, bench_encode);
criterion_main!(benches);
