//! The BPE vocabulary and encoder/decoder.
//!
//! Encoding is the hot path of the dataset pipeline (every corpus program
//! is token-counted to enforce the 8e3 cutoff), so `encode_chunk` uses a
//! linked-list + min-heap merge — O(n log n) per chunk instead of the
//! naive rescan-per-merge O(n²) — behind a segment memo. No chunk crosses
//! the end of a newline run (see [`pretokenize`]), so text encodes segment
//! by segment, and generated sources (above all the variants of one base
//! program) repeat most of their lines. Each call, or in `count_batch`
//! each worker's group of texts, owns its memo: no lock, no shared
//! mutable state.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;

use rayon::prelude::*;

use crate::pretokenizer::{pretokenize, segments};

/// A trained BPE vocabulary: 256 byte tokens plus learned merges.
///
/// Token ids `0..256` are the raw bytes; id `256 + r` is the token produced
/// by merge rank `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocab {
    /// Learned merges in rank order: `(left_id, right_id)`.
    pub merges: Vec<(u32, u32)>,
}

impl Vocab {
    /// An empty vocabulary (byte-level only).
    pub fn byte_level() -> Self {
        Vocab { merges: Vec::new() }
    }

    /// Total vocabulary size (256 bytes + merges).
    pub fn size(&self) -> usize {
        256 + self.merges.len()
    }

    /// Reconstruct the byte string of a token id.
    pub fn token_bytes(&self, id: u32) -> Vec<u8> {
        if id < 256 {
            vec![id as u8]
        } else {
            let (l, r) = self.merges[(id - 256) as usize];
            let mut out = self.token_bytes(l);
            out.extend(self.token_bytes(r));
            out
        }
    }
}

/// A private memo of token ids per newline-terminated segment and, on a
/// segment miss, per pre-token chunk. Keys borrow the encoded texts, so
/// none is allocated; each maps to its ids' range in one arena.
#[derive(Default)]
struct SegmentMemo<'a> {
    segments: HashMap<&'a str, Range<usize>>,
    chunks: HashMap<&'a str, Range<usize>>,
    ids: Vec<u32>,
}

impl<'a> SegmentMemo<'a> {
    /// The ids of `segment`, as a range of `self.ids`.
    fn segment(&mut self, tok: &Tokenizer, segment: &'a str) -> Range<usize> {
        if let Some(ids) = self.segments.get(segment) {
            return ids.clone();
        }
        let start = self.ids.len();
        for chunk in pretokenize(segment) {
            let at = self.ids.len();
            match self.chunks.get(chunk) {
                Some(ids) => self.ids.extend_from_within(ids.clone()),
                None => {
                    tok.encode_chunk(chunk.as_bytes(), &mut self.ids);
                    self.chunks.insert(chunk, at..self.ids.len());
                }
            }
        }
        self.segments.insert(segment, start..self.ids.len());
        start..self.ids.len()
    }
}

/// A BPE encoder/decoder over a trained [`Vocab`].
#[derive(Debug, Clone)]
pub struct Tokenizer {
    vocab: Vocab,
    /// merge pair -> (rank, produced id)
    ranks: HashMap<(u32, u32), (u32, u32)>,
}

/// A merge candidate in the encode heap: ordered by (rank, position) so
/// popping yields the lowest-rank, leftmost pair — exactly the naive
/// scan's greedy choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MergeCand {
    rank: u32,
    pos: u32,
    left: u32,
    right: u32,
    new_id: u32,
}

impl Ord for MergeCand {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum
        // (rank, pos) on top.
        other
            .rank
            .cmp(&self.rank)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for MergeCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Sentinel for "no neighbor" in the linked-list arrays.
const NONE_IDX: u32 = u32::MAX;

impl Tokenizer {
    /// Wrap a vocabulary into an encoder.
    pub fn new(vocab: Vocab) -> Self {
        let mut ranks = HashMap::with_capacity(vocab.merges.len());
        for (rank, &(l, r)) in vocab.merges.iter().enumerate() {
            ranks.insert((l, r), (rank as u32, 256 + rank as u32));
        }
        Tokenizer { vocab, ranks }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The merge-rank table (`pair -> (rank, produced id)`); used by the
    /// naive reference encoder.
    pub(crate) fn merge_ranks(&self) -> &HashMap<(u32, u32), (u32, u32)> {
        &self.ranks
    }

    /// Encode text to token ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut memo = SegmentMemo::default();
        let mut out = Vec::with_capacity(text.len() / 3 + 1);
        for segment in segments(text) {
            let ids = memo.segment(self, segment);
            out.extend_from_slice(&memo.ids[ids]);
        }
        out
    }

    /// Number of tokens `text` encodes to.
    pub fn count(&self, text: &str) -> usize {
        self.count_with(text, &mut SegmentMemo::default())
    }

    /// Token counts for a batch of texts, in parallel: one contiguous
    /// group of texts per rayon worker, each sharing one segment memo.
    /// This is the pipeline's pruning hot path.
    pub fn count_batch(&self, texts: &[&str]) -> Vec<usize> {
        let group = texts.len().div_ceil(rayon::current_num_threads()).max(1);
        let counts: Vec<Vec<usize>> = texts
            .par_chunks(group)
            .map(|group| {
                let mut memo = SegmentMemo::default();
                group
                    .iter()
                    .map(|t| self.count_with(t, &mut memo))
                    .collect()
            })
            .collect();
        counts.concat()
    }

    fn count_with<'a>(&self, text: &'a str, memo: &mut SegmentMemo<'a>) -> usize {
        segments(text).map(|s| memo.segment(self, s).len()).sum()
    }

    /// Merge one chunk with a linked list + min-heap: every adjacent pair
    /// with a known rank enters the heap; popping yields the lowest-rank,
    /// leftmost candidate (the canonical greedy order); merging patches
    /// the list and pushes at most two fresh candidates. O(n log n).
    fn encode_chunk(&self, bytes: &[u8], out: &mut Vec<u32>) {
        let n = bytes.len();
        if n == 0 {
            return;
        }
        if n == 1 || self.ranks.is_empty() {
            out.extend(bytes.iter().map(|&b| b as u32));
            return;
        }

        let mut ids: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
        let mut next: Vec<u32> = (1..=n as u32).collect();
        next[n - 1] = NONE_IDX;
        let mut prev: Vec<u32> = (0..n as u32).map(|i| i.wrapping_sub(1)).collect();
        prev[0] = NONE_IDX;

        let mut heap: BinaryHeap<MergeCand> = BinaryHeap::with_capacity(n);
        for i in 0..n - 1 {
            if let Some(&(rank, new_id)) = self.ranks.get(&(ids[i], ids[i + 1])) {
                heap.push(MergeCand {
                    rank,
                    pos: i as u32,
                    left: ids[i],
                    right: ids[i + 1],
                    new_id,
                });
            }
        }

        while let Some(cand) = heap.pop() {
            let i = cand.pos as usize;
            let j = next[i];
            // Validate: the position must still start a live pair with the
            // snapshotted ids (merges at or around it invalidate entries).
            if j == NONE_IDX || ids[i] != cand.left || ids[j as usize] != cand.right {
                continue;
            }
            let j = j as usize;

            // Fuse j into i.
            ids[i] = cand.new_id;
            let k = next[j];
            next[i] = k;
            if k != NONE_IDX {
                prev[k as usize] = i as u32;
            }
            next[j] = NONE_IDX; // invalidate stale candidates anchored at j

            // New candidates across the fused token.
            let p = prev[i];
            if p != NONE_IDX {
                if let Some(&(rank, new_id)) = self.ranks.get(&(ids[p as usize], ids[i])) {
                    heap.push(MergeCand {
                        rank,
                        pos: p,
                        left: ids[p as usize],
                        right: ids[i],
                        new_id,
                    });
                }
            }
            if k != NONE_IDX {
                if let Some(&(rank, new_id)) = self.ranks.get(&(ids[i], ids[k as usize])) {
                    heap.push(MergeCand {
                        rank,
                        pos: i as u32,
                        left: ids[i],
                        right: ids[k as usize],
                        new_id,
                    });
                }
            }
        }

        // In-place compaction: walk the surviving list from the head.
        let mut i = 0u32;
        while i != NONE_IDX {
            out.push(ids[i as usize]);
            i = next[i as usize];
        }
    }

    /// Decode token ids back to text.
    ///
    /// # Panics
    /// Panics if the byte stream is not valid UTF-8 (possible only for id
    /// sequences that never came from [`Tokenizer::encode`]).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::with_capacity(ids.len() * 3);
        for &id in ids {
            bytes.extend(self.vocab.token_bytes(id));
        }
        String::from_utf8(bytes).expect("decoded byte stream was not UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_encode;
    use crate::train::BpeTrainer;

    fn trained() -> Tokenizer {
        let corpus = [
            "__global__ void add(const float* a, float* b, int n) {",
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;",
            "  if (i < n) { b[i] = a[i] + b[i]; }",
            "}",
            "#pragma omp target teams distribute parallel for",
            "for (int i = 0; i < n; ++i) b[i] += a[i];",
        ];
        Tokenizer::new(BpeTrainer::new(600).train(corpus.iter().copied()))
    }

    #[test]
    fn byte_level_encodes_one_token_per_byte() {
        let tok = Tokenizer::new(Vocab::byte_level());
        let ids = tok.encode("abc");
        assert_eq!(ids, vec![97, 98, 99]);
    }

    #[test]
    fn roundtrip_on_training_like_text() {
        let tok = trained();
        let text = "__global__ void add(const float* a) { int i = threadIdx.x; }";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn roundtrip_on_unseen_text_including_unicode() {
        let tok = trained();
        for text in [
            "zebra quux 0xDEADBEEF",
            "λ-calculus ∑",
            "\n\n\t  mixed \r\n",
        ] {
            assert_eq!(tok.decode(&tok.encode(text)), text, "failed on {text:?}");
        }
    }

    #[test]
    fn training_compresses_frequent_patterns() {
        let tok = trained();
        let text = "float* a, float* b, float* c";
        let trained_count = tok.count(text);
        let byte_count = Tokenizer::new(Vocab::byte_level()).count(text);
        assert!(
            trained_count < byte_count / 2,
            "trained {trained_count} vs bytes {byte_count}"
        );
    }

    #[test]
    fn count_matches_encode_len() {
        let tok = trained();
        let text = "if (i < n) { b[i] = a[i] + b[i]; }";
        assert_eq!(tok.count(text), tok.encode(text).len());
    }

    #[test]
    fn empty_text_is_zero_tokens() {
        let tok = trained();
        assert_eq!(tok.encode(""), Vec::<u32>::new());
        assert_eq!(tok.count(""), 0);
    }

    #[test]
    fn token_bytes_reconstruct_merges() {
        let tok = trained();
        for id in 256..(tok.vocab().size() as u32) {
            let bytes = tok.vocab().token_bytes(id);
            assert!(bytes.len() >= 2, "merge token must span >= 2 bytes");
        }
    }

    #[test]
    fn deterministic_encoding() {
        let tok = trained();
        let text = "#pragma omp target teams distribute parallel for";
        assert_eq!(tok.encode(text), tok.encode(text));
    }

    #[test]
    fn heap_encoder_matches_naive() {
        let tok = trained();
        for text in [
            "__global__ void add(const float* a, float* b, int n) {",
            "aaaa aaa aa a",
            "completely unseen identifiers zebra_quux_9000",
            "for (int i = 0; i < n; ++i) b[i] += a[i];",
            "  \t\t  mixed   whitespace \r\n\n",
        ] {
            assert_eq!(tok.encode(text), naive_encode(&tok, text), "on {text:?}");
        }
    }

    #[test]
    fn segment_edges_match_naive() {
        let tok = trained();
        let texts = [
            "x \n",
            "a\r\n\r\nb",
            " \n",
            "int i = 0;\n  float x;",
            "\n",
            "",
        ];
        let counts = tok.count_batch(&texts);
        for (text, n) in texts.iter().zip(counts) {
            let naive = naive_encode(&tok, text);
            assert_eq!(tok.encode(text), naive, "on {text:?}");
            assert_eq!(
                (tok.count(text), n),
                (naive.len(), naive.len()),
                "on {text:?}"
            );
        }
    }

    #[test]
    fn batch_apis_match_sequential() {
        let tok = trained();
        let texts = [
            "__global__ void k(float* a) { a[0] = 1.0f; }",
            "#pragma omp parallel for",
            "",
            "λ λ λ",
        ];
        let batch_counts = tok.count_batch(&texts);
        for (t, n) in texts.iter().zip(batch_counts) {
            assert_eq!(n, tok.count(t), "count diverged on {t:?}");
            assert_eq!(n, tok.encode(t).len(), "encode length diverged on {t:?}");
        }
    }
}
