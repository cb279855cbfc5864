//! # pce-tokenizer
//!
//! A from-scratch byte-level BPE (byte-pair-encoding) tokenizer, standing
//! in for the gpt-4o-mini tokenizer (tiktoken `o200k_base`) the paper uses
//! for its token-count pruning step (§2.2) and the Figure-2 token
//! distribution plots.
//!
//! The design follows the GPT lineage:
//!
//! 1. [`pretokenize`](pretokenizer::pretokenize) splits text into
//!    word-like chunks (identifier runs, number runs, punctuation,
//!    leading-space words) so merges never cross chunk boundaries,
//! 2. [`BpeTrainer`] learns a merge table from a corpus
//!    by repeatedly fusing the most frequent adjacent symbol pair,
//! 3. [`Tokenizer`] applies the merge table greedily
//!    (lowest merge rank first) to encode arbitrary text; decoding is the
//!    exact inverse.
//!
//! Only *relative* token counts matter downstream — the 8 000-token cutoff
//! and the box-plot statistics — so fidelity to the exact OpenAI vocabulary
//! is not required, but the tokenizer is a real, lossless BPE.
//!
//! ## Performance
//!
//! Training and encoding sit on the critical path of every experiment
//! (the §2.2 funnel tokenizes the whole corpus), so both are the fast
//! variants of the textbook algorithms:
//!
//! * [`BpeTrainer`] is *incremental*: a pair→frequency
//!   map, a pair→words inverted index, and a lazily-validated max-heap
//!   replace the per-merge global recount — O(corpus + vocab·log corpus)
//!   instead of O(vocab × corpus) — with rayon-parallel initial chunk
//!   counting.
//! * [`Tokenizer::encode`](bpe::Tokenizer::encode) merges each chunk with
//!   a linked list + min-heap in O(n log n) behind a lock-free memo of
//!   newline-terminated segments: one per call or, in
//!   [`count_batch`](bpe::Tokenizer::count_batch), one per worker.
//!
//! The original naive algorithms live on in [`mod@reference`] as the
//! correctness oracle (property-tested bit-identical) and the benchmark
//! baseline.
//!
//! ```
//! use pce_tokenizer::{BpeTrainer, Tokenizer};
//!
//! let corpus = ["__global__ void add(float* a) { a[0] += 1.0f; }"];
//! let vocab = BpeTrainer::new(300).train(corpus.iter().copied());
//! let tok = Tokenizer::new(vocab);
//! let ids = tok.encode(corpus[0]);
//! assert_eq!(tok.decode(&ids), corpus[0]);
//! ```

#![forbid(unsafe_code)]

pub mod bpe;
pub mod pretokenizer;
pub mod reference;
pub mod stats;
pub mod train;

pub use bpe::{Tokenizer, Vocab};
pub use stats::{token_quartiles, TokenStats};
pub use train::BpeTrainer;
