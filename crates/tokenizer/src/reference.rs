//! Naive reference implementations of BPE training and encoding.
//!
//! These are the seed repository's original textbook algorithms, kept as
//! the correctness oracle for the fast paths in [`crate::train`] and
//! [`crate::bpe`]:
//!
//! * [`naive_train`] re-counts every adjacent pair over the whole corpus
//!   on every merge — O(vocab × corpus) — and picks the argmax by
//!   (frequency, then smallest pair value).
//! * [`naive_encode`] rescans the whole chunk for the lowest-rank pair on
//!   every merge and compacts with `Vec::remove` — O(n²) per chunk.
//!
//! Property tests assert the fast implementations are *bit-identical* to
//! these on arbitrary corpora. Only the fast paths run in a workload, and
//! the repository benchmark times them (`tokenizer.count.*`,
//! `tokenizer.train.busy_ms`).

use std::collections::HashMap;

use crate::bpe::{Tokenizer, Vocab};
use crate::pretokenizer::pretokenize;

/// Learn a vocabulary with the naive re-counting trainer.
///
/// Semantics (shared with the fast trainer): pairs are counted over
/// distinct pre-token chunks weighted by frequency; each round merges the
/// most frequent pair with ties broken toward the smallest pair value;
/// training stops at `vocab_size` or when no pair reaches
/// `min_frequency`.
pub fn naive_train<'a>(
    vocab_size: usize,
    min_frequency: u64,
    docs: impl IntoIterator<Item = &'a str>,
) -> Vocab {
    assert!(vocab_size >= 256, "vocab must include all 256 byte tokens");
    let min_frequency = min_frequency.max(1);

    // Distinct chunk -> frequency.
    let mut chunk_freq: HashMap<&str, u64> = HashMap::new();
    for doc in docs {
        for chunk in pretokenize(doc) {
            *chunk_freq.entry(chunk).or_insert(0) += 1;
        }
    }

    // Working representation: each distinct chunk as a symbol sequence,
    // in deterministic order regardless of HashMap layout.
    let mut words: Vec<(Vec<u32>, u64)> = chunk_freq
        .iter()
        .map(|(chunk, &freq)| (chunk.bytes().map(|b| b as u32).collect(), freq))
        .collect();
    words.sort_by(|a, b| a.0.cmp(&b.0));

    let mut merges = Vec::with_capacity(vocab_size - 256);
    while 256 + merges.len() < vocab_size {
        // Count all adjacent pairs, from scratch.
        let mut pair_freq: HashMap<(u32, u32), u64> = HashMap::new();
        for (symbols, freq) in &words {
            for w in symbols.windows(2) {
                *pair_freq.entry((w[0], w[1])).or_insert(0) += freq;
            }
        }
        // Deterministic argmax: highest frequency, ties by pair value.
        let best = pair_freq
            .iter()
            .filter(|(_, &f)| f >= min_frequency)
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)));
        let (&pair, _) = match best {
            Some(p) => p,
            None => break,
        };
        let new_id = 256 + merges.len() as u32;
        merges.push(pair);

        // Apply the merge to every word, left to right, non-overlapping.
        for (symbols, _) in &mut words {
            let mut i = 0;
            while i + 1 < symbols.len() {
                if symbols[i] == pair.0 && symbols[i + 1] == pair.1 {
                    symbols[i] = new_id;
                    symbols.remove(i + 1);
                } else {
                    i += 1;
                }
            }
        }
    }
    Vocab { merges }
}

/// Encode text with the naive quadratic scan-and-remove merge loop.
pub fn naive_encode(tok: &Tokenizer, text: &str) -> Vec<u32> {
    let mut out = Vec::with_capacity(text.len() / 3 + 1);
    for chunk in pretokenize(text) {
        naive_encode_chunk(tok, chunk.as_bytes(), &mut out);
    }
    out
}

fn naive_encode_chunk(tok: &Tokenizer, bytes: &[u8], out: &mut Vec<u32>) {
    if bytes.is_empty() {
        return;
    }
    let ranks = tok.merge_ranks();
    let mut ids: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
    // Greedy lowest-rank-first merging, the canonical BPE inference.
    loop {
        let mut best: Option<(u32, usize, u32)> = None; // (rank, pos, new_id)
        for i in 0..ids.len() - 1 {
            if let Some(&(rank, new_id)) = ranks.get(&(ids[i], ids[i + 1])) {
                if best.is_none_or(|(r, _, _)| rank < r) {
                    best = Some((rank, i, new_id));
                }
            }
        }
        match best {
            Some((_, pos, new_id)) => {
                ids[pos] = new_id;
                ids.remove(pos + 1);
                if ids.len() < 2 {
                    break;
                }
            }
            None => break,
        }
    }
    out.extend_from_slice(&ids);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::BpeTrainer;

    #[test]
    fn naive_train_learns_frequent_merges_first() {
        let docs = ["aaaa aaaa aaaa", "b"];
        let vocab = naive_train(260, 2, docs.iter().copied());
        assert!(!vocab.merges.is_empty());
        assert_eq!(vocab.merges[0], (b'a' as u32, b'a' as u32));
    }

    #[test]
    fn naive_encode_round_trips() {
        let docs = ["__global__ void k(float* a) { a[0] = 1.0f; }"];
        let tok = Tokenizer::new(BpeTrainer::new(400).train(docs.iter().copied()));
        let ids = naive_encode(&tok, docs[0]);
        assert_eq!(tok.decode(&ids), docs[0]);
    }

    #[test]
    fn naive_matches_fast_on_a_small_corpus() {
        let docs = [
            "__global__ void add(const float* a, float* b, int n) {",
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;",
            "  if (i < n) { b[i] = a[i] + b[i]; }",
            "#pragma omp target teams distribute parallel for",
        ];
        let fast = BpeTrainer::new(420).train(docs.iter().copied());
        let naive = naive_train(420, 2, docs.iter().copied());
        assert_eq!(fast, naive);
        let tok = Tokenizer::new(fast);
        for d in docs {
            assert_eq!(tok.encode(d), naive_encode(&tok, d));
        }
    }
}
