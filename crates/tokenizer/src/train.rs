//! BPE training: learn a merge table from a corpus — fast.
//!
//! The trainer is incremental, the standard technique production BPE
//! trainers (e.g. HuggingFace `tokenizers`) use:
//!
//! * **Parallel chunk counting.** Documents are pre-tokenized and distinct
//!   chunks counted in parallel shards, then merged (rayon).
//! * **Pair bookkeeping.** A `pair -> frequency` map plus a
//!   `pair -> {word index}` inverted index mean each merge only touches
//!   the words that actually contain the merged pair.
//! * **Lazy max-heap.** Candidate pairs sit in a binary heap keyed by
//!   (frequency, then smallest pair value). Entries are validated against
//!   the live frequency map on pop and re-pushed when stale, so stale
//!   entries cost O(log n) instead of a rescan.
//! * **Delta updates.** Applying a merge rewrites only the affected words
//!   and feeds the frequency deltas of their changed windows back into
//!   the map and heap — no global recount.
//!
//! Per merge this is O(touched words × word length + changed pairs ×
//! log pairs) instead of the naive O(corpus); end-to-end training drops
//! from O(vocab × corpus) to roughly O(corpus + vocab log corpus). The
//! result is **bit-identical** to [`crate::reference::naive_train`]: the
//! same (frequency desc, pair value asc) argmax, the same left-to-right
//! non-overlapping merge application, the same stopping rule —
//! property-tested in `tests/properties.rs`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use rayon::prelude::*;

use crate::bpe::Vocab;
use crate::pretokenizer::pretokenize;

/// Pairs must occur at least this often to be merged.
const MIN_FREQUENCY: u64 = 2;

/// BPE trainer configuration.
#[derive(Debug, Clone)]
pub struct BpeTrainer {
    /// Target vocabulary size (bytes + merges); at least 256.
    pub vocab_size: usize,
}

/// A heap entry: max by frequency, ties broken toward the *smallest*
/// pair value (the naive trainer's argmax order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    freq: u64,
    pair: (u32, u32),
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.freq
            .cmp(&other.freq)
            .then_with(|| other.pair.cmp(&self.pair))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl BpeTrainer {
    /// Trainer targeting `vocab_size` total tokens.
    pub fn new(vocab_size: usize) -> Self {
        assert!(vocab_size >= 256, "vocab must include all 256 byte tokens");
        BpeTrainer { vocab_size }
    }

    /// Learn a vocabulary from an iterator of documents.
    pub fn train<'a>(&self, docs: impl IntoIterator<Item = &'a str>) -> Vocab {
        let docs: Vec<&str> = docs.into_iter().collect();

        // --- Parallel distinct-chunk counting -----------------------------
        let shard = docs.len().div_ceil(rayon::current_num_threads()).max(1);
        let partials: Vec<HashMap<&str, u64>> = docs
            .par_chunks(shard)
            .map(|part| {
                let mut local: HashMap<&str, u64> = HashMap::new();
                for doc in part {
                    for chunk in pretokenize(doc) {
                        *local.entry(chunk).or_insert(0) += 1;
                    }
                }
                local
            })
            .collect();
        let mut chunk_freq: HashMap<&str, u64> = HashMap::new();
        for local in partials {
            for (chunk, n) in local {
                *chunk_freq.entry(chunk).or_insert(0) += n;
            }
        }

        // Working representation: each distinct chunk as a symbol sequence,
        // in deterministic order regardless of HashMap layout.
        let mut words: Vec<(Vec<u32>, u64)> = chunk_freq
            .iter()
            .map(|(chunk, &freq)| (chunk.bytes().map(|b| b as u32).collect(), freq))
            .collect();
        words.sort_by(|a, b| a.0.cmp(&b.0));

        // --- Initial pair frequencies + inverted index --------------------
        let mut pair_freq: HashMap<(u32, u32), u64> = HashMap::new();
        let mut pair_words: HashMap<(u32, u32), HashSet<u32>> = HashMap::new();
        for (wi, (symbols, freq)) in words.iter().enumerate() {
            for w in symbols.windows(2) {
                let pair = (w[0], w[1]);
                *pair_freq.entry(pair).or_insert(0) += freq;
                pair_words.entry(pair).or_default().insert(wi as u32);
            }
        }
        let mut heap: BinaryHeap<Candidate> = pair_freq
            .iter()
            .filter(|(_, &f)| f >= MIN_FREQUENCY)
            .map(|(&pair, &freq)| Candidate { freq, pair })
            .collect();

        // --- Merge loop ---------------------------------------------------
        let mut merges = Vec::with_capacity(self.vocab_size - 256);
        let mut delta: HashMap<(u32, u32), i64> = HashMap::new();
        while 256 + merges.len() < self.vocab_size {
            // Pop until a live entry surfaces; re-push stale entries with
            // their current frequency. Every pushed entry has
            // freq >= MIN_FREQUENCY (initial filter + both push guards),
            // so a validated entry is always above threshold.
            let best = loop {
                match heap.pop() {
                    None => break None,
                    Some(cand) => {
                        let live = pair_freq.get(&cand.pair).copied().unwrap_or(0);
                        if live == cand.freq {
                            break Some(cand.pair);
                        }
                        if live >= MIN_FREQUENCY {
                            heap.push(Candidate {
                                freq: live,
                                pair: cand.pair,
                            });
                        }
                    }
                }
            };
            let pair = match best {
                Some(p) => p,
                None => break,
            };
            let new_id = 256 + merges.len() as u32;
            merges.push(pair);

            // Rewrite only the words that (may) contain the pair; collect
            // window deltas. Counts are commutative sums, so the index's
            // iteration order does not affect the result.
            delta.clear();
            let affected = pair_words.remove(&pair).unwrap_or_default();
            for wi in affected {
                let (symbols, freq) = &mut words[wi as usize];
                let freq = *freq as i64;
                if !contains_pair(symbols, pair) {
                    continue; // stale index entry: pair already consumed
                }
                for w in symbols.windows(2) {
                    *delta.entry((w[0], w[1])).or_insert(0) -= freq;
                }
                merge_in_place(symbols, pair, new_id);
                for w in symbols.windows(2) {
                    let p = (w[0], w[1]);
                    *delta.entry(p).or_insert(0) += freq;
                    if p.0 == new_id || p.1 == new_id {
                        pair_words.entry(p).or_default().insert(wi);
                    }
                }
            }

            // Apply deltas; push refreshed candidates for changed pairs.
            for (&p, &d) in &delta {
                if d == 0 {
                    continue;
                }
                let slot = pair_freq.entry(p).or_insert(0);
                let updated = (*slot as i64 + d).max(0) as u64;
                *slot = updated;
                if updated == 0 {
                    pair_freq.remove(&p);
                } else if updated >= MIN_FREQUENCY {
                    heap.push(Candidate {
                        freq: updated,
                        pair: p,
                    });
                }
            }
        }
        Vocab { merges }
    }
}

/// Does `symbols` contain `pair` as an adjacent window?
#[inline]
fn contains_pair(symbols: &[u32], pair: (u32, u32)) -> bool {
    symbols.windows(2).any(|w| (w[0], w[1]) == pair)
}

/// Replace every left-to-right, non-overlapping occurrence of `pair`
/// with `new_id`, in place — identical semantics to the naive trainer's
/// scan (which never re-matches the freshly written `new_id`).
fn merge_in_place(symbols: &mut Vec<u32>, pair: (u32, u32), new_id: u32) {
    let mut write = 0;
    let mut read = 0;
    while read < symbols.len() {
        if read + 1 < symbols.len() && symbols[read] == pair.0 && symbols[read + 1] == pair.1 {
            symbols[write] = new_id;
            read += 2;
        } else {
            symbols[write] = symbols[read];
            read += 1;
        }
        write += 1;
    }
    symbols.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpe::Tokenizer;
    use crate::reference::naive_train;

    #[test]
    fn training_learns_frequent_merges_first() {
        // 'aa' dominates: the first merge must be (a, a).
        let docs = ["aaaa aaaa aaaa", "b"];
        let vocab = BpeTrainer::new(260).train(docs.iter().copied());
        assert!(!vocab.merges.is_empty());
        assert_eq!(vocab.merges[0], (b'a' as u32, b'a' as u32));
    }

    #[test]
    fn vocab_size_is_respected() {
        let docs = ["the quick brown fox jumps over the lazy dog ".repeat(50)];
        let vocab = BpeTrainer::new(300).train(docs.iter().map(|s| s.as_str()));
        assert!(vocab.size() <= 300);
        assert!(vocab.size() > 256, "should have learned some merges");
    }

    #[test]
    fn min_frequency_stops_early() {
        // Every chunk unique: nothing repeats; with a minimum pair
        // frequency of 2 no merges can be learned beyond within-chunk
        // repetition.
        let docs = ["abcdefg"];
        let vocab = BpeTrainer::new(10_000).train(docs.iter().copied());
        assert_eq!(vocab.size(), 256);
    }

    #[test]
    fn training_is_deterministic() {
        let docs = [
            "__global__ void k(float* a) { a[0] = 1.0f; }",
            "#pragma omp parallel for reduction(+:sum)",
        ];
        let a = BpeTrainer::new(400).train(docs.iter().copied());
        let b = BpeTrainer::new(400).train(docs.iter().copied());
        assert_eq!(a, b);
    }

    #[test]
    fn trained_tokenizer_round_trips_corpus() {
        let docs = ["kernel void compute(global float* data) { data[get_global_id(0)] *= 2.0f; }"];
        let vocab = BpeTrainer::new(500).train(docs.iter().copied());
        let tok = Tokenizer::new(vocab);
        assert_eq!(tok.decode(&tok.encode(docs[0])), docs[0]);
    }

    #[test]
    fn matches_naive_trainer_exactly() {
        let docs = [
            "__global__ void add(const float* a, float* b, int n) {",
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;",
            "  if (i < n) { b[i] = a[i] + b[i]; }",
            "}",
            "#pragma omp target teams distribute parallel for",
            "for (int i = 0; i < n; ++i) b[i] += a[i];",
            "aaaa bbbb aaaa bbbb cccc",
        ];
        for vocab_size in [256, 270, 300, 600, 2000] {
            let fast = BpeTrainer::new(vocab_size).train(docs.iter().copied());
            let naive = naive_train(vocab_size, 2, docs.iter().copied());
            assert_eq!(fast, naive, "diverged at vocab {vocab_size}");
        }
    }

    #[test]
    fn overlapping_runs_merge_like_naive() {
        // "aaaa" -> the (a,a) windows overlap; both trainers must count
        // and merge them identically.
        let docs = ["aaaa aaa aa a", "aaaaaaa"];
        let fast = BpeTrainer::new(300).train(docs.iter().copied());
        let naive = naive_train(300, 2, docs.iter().copied());
        assert_eq!(fast, naive);
    }

    #[test]
    fn merge_in_place_is_left_to_right_non_overlapping() {
        let mut s = vec![97, 97, 97];
        merge_in_place(&mut s, (97, 97), 300);
        assert_eq!(s, vec![300, 97]);

        let mut s = vec![97, 97, 97, 97];
        merge_in_place(&mut s, (97, 97), 300);
        assert_eq!(s, vec![300, 300]);

        let mut s = vec![98, 97, 97, 99];
        merge_in_place(&mut s, (97, 97), 300);
        assert_eq!(s, vec![98, 300, 99]);
    }

    #[test]
    #[should_panic(expected = "vocab must include")]
    fn undersized_vocab_panics() {
        BpeTrainer::new(100);
    }
}
