//! # pce-memo
//!
//! The memoization primitives shared by the suite-scale caches in
//! `pce-gpu-sim` (body summaries, kernel profiles) and `pce-llm` (static
//! analyses, prompt parses):
//!
//! * [`Fnv`] — a word-granular FNV-1a accumulator for structural
//!   fingerprints (f64s enter via `to_bits`, strings are length-prefixed
//!   so adjacent fields cannot alias),
//! * [`Memo`] — a sharded, fingerprint-bucketed memo table whose buckets
//!   hold the *full* keys: entries are verified with `PartialEq` before
//!   reuse, so a fingerprint collision degrades to a bucket scan — never
//!   to a wrong value. That property is what lets the caches guarantee
//!   bit-identical warm and cold runs,
//! * [`CacheCounters`] — hit/miss/eviction counters every cache exposes
//!   to the bench harness's effectiveness report,
//! * [`Budget`] — the one per-table byte capacity every bounded cache
//!   bundle is built with.
//!
//! ## Bounding
//!
//! A memo table is either *unbounded* ([`Memo::new`]) or *bounded*
//! ([`Memo::bounded`]) by a byte capacity plus a caller-supplied cost
//! function. Bounded tables evict with a sharded second-chance (CLOCK)
//! sweep that walks entries in ascending fingerprint order, so which
//! entry is evicted depends only on the resident set — not on insertion
//! order or thread scheduling. Because every cached function in this
//! workspace is pure, an eviction is observationally just a future miss:
//! bounded and unbounded runs produce byte-identical outputs.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::Serialize;

/// Number of lock shards per memo table. Small power of two: enough to
/// keep a rayon team from serializing on one lock, cheap enough to scan
/// when reporting counters.
const SHARDS: usize = 16;

/// Finalizing mixer (splitmix64) applied to a fingerprint before shard
/// selection: FNV-1a's high bits are poorly mixed for short inputs, so
/// taking `fp >> 60` straight would pile short keys onto a few shards.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// The byte capacity bounded caches are built with: one capacity per
/// memo table, charged through that table's own cost function.
///
/// There is deliberately no `Default`: a zero-byte budget would make
/// every lookup miss, whereas "no budget" means unbounded — which is what
/// the caches' plain `new()` constructors build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    bytes_per_table: u64,
}

impl Budget {
    /// Bound every memo table to `bytes` (approximate, per the table's
    /// cost function).
    pub fn uniform(bytes: u64) -> Budget {
        Budget {
            bytes_per_table: bytes,
        }
    }

    /// A [`Memo::bounded`] table at this budget's per-table capacity.
    pub fn memo<K: PartialEq, V>(
        self,
        cost: impl Fn(&K, &V) -> u64 + Send + Sync + 'static,
    ) -> Memo<K, V> {
        Memo::bounded(self.bytes_per_table, cost)
    }
}

/// Hit/miss/eviction counters for one cache, as reported by the bench
/// harness. `resident_bytes` is a point-in-time gauge (0 for unbounded
/// tables, which do no size accounting); the rest are monotone counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then populated the cache).
    pub misses: u64,
    /// Entries evicted to stay under the configured byte capacity.
    pub evictions: u64,
    /// Bytes currently resident, per the caller's cost function.
    pub resident_bytes: u64,
}

impl CacheCounters {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (0 for an unused cache).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Counters of a first-seen/duplicate classification over a fingerprint
/// stream — what the sharded corpus pipeline reports as its variant-dedup
/// rate. Unlike [`CacheCounters`] (a live gauge on a concurrent table),
/// these are a pure fold over an *ordered* stream, so two runs over the
/// same corpus produce identical stats regardless of shard count or
/// thread schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DedupStats {
    /// Fingerprints seen for the first time (distinct work items).
    pub unique: u64,
    /// Fingerprints already seen earlier in the stream (work that a
    /// fingerprint memo serves without recomputation).
    pub duplicates: u64,
}

impl DedupStats {
    /// Total fingerprints observed.
    pub fn total(&self) -> u64 {
        self.unique + self.duplicates
    }

    /// Duplicate fraction in `[0, 1]` (0 for an empty stream): the share
    /// of the stream a fingerprint memo absorbs.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.total() as f64
        }
    }
}

/// A seen-set over 64-bit fingerprints that classifies each observation
/// as first-seen or duplicate. Feed it an ordered fingerprint stream
/// (e.g. per-program profile identities in corpus order) and read the
/// [`DedupStats`] off at the end.
#[derive(Debug, Default)]
pub struct StreamDedup {
    seen: std::collections::BTreeSet<u64>,
    stats: DedupStats,
}

impl StreamDedup {
    /// A fresh, empty dedup set.
    pub fn new() -> StreamDedup {
        StreamDedup::default()
    }

    /// Observe one fingerprint. Returns `true` when it is new (first
    /// occurrence in the stream), `false` for a duplicate.
    pub fn observe(&mut self, fp: u64) -> bool {
        let new = self.seen.insert(fp);
        if new {
            self.stats.unique += 1;
        } else {
            self.stats.duplicates += 1;
        }
        new
    }

    /// The accumulated first-seen/duplicate counters.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Number of distinct fingerprints seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no fingerprint has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// A tiny word-granular FNV-1a accumulator: the fingerprint primitive
/// behind every cache key (and the kernel IR's structural fingerprint).
/// Word-at-a-time folding keeps hashing cheap relative to the work being
/// memoized.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh accumulator at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    /// Resume from a previously [`finish`](Fnv::finish)ed state — used to
    /// derive sub-keys (e.g. tagging one prompt fingerprint for several
    /// caches) without re-hashing the underlying bytes.
    #[inline]
    pub fn resume(state: u64) -> Fnv {
        Fnv(state)
    }

    /// Fold one 64-bit word.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    /// Fold one float (by bit pattern).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a name → value map (length-prefixed, entries in map order) —
    /// the shape of launch-parameter and CLI-binding cache keys.
    pub fn map_u64(&mut self, map: &std::collections::BTreeMap<String, u64>) {
        self.u64(map.len() as u64);
        for (name, value) in map {
            self.str(name);
            self.u64(*value);
        }
    }

    /// Fold a string 8 bytes at a time (length included, so `"ab" + "c"`
    /// and `"a" + "bc"` cannot collide across adjacent fields).
    #[inline]
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.u64(u64::from_le_bytes(tail));
    }

    /// The accumulated fingerprint.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One resident entry: the full key, its shared value, the cost charged
/// at insertion, and the CLOCK reference bit (set on every hit, cleared
/// by the sweep to grant one second chance).
struct Entry<K, V> {
    key: K,
    value: Arc<V>,
    cost: u64,
    referenced: AtomicBool,
}

/// One lock shard: fingerprint-ordered buckets (ordering is what makes
/// the eviction sweep deterministic), resident-byte tally, and the CLOCK
/// hand — the fingerprint where the next sweep resumes.
struct Shard<K, V> {
    buckets: BTreeMap<u64, Vec<Entry<K, V>>>,
    bytes: u64,
    hand: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            buckets: BTreeMap::new(),
            bytes: 0,
            hand: 0,
        }
    }
}

/// Per-entry cost function for bounded tables.
type CostFn<K, V> = Arc<dyn Fn(&K, &V) -> u64 + Send + Sync>;

/// A sharded fingerprint-bucketed memo table, optionally bounded.
///
/// Keys are bucketed by a caller-supplied 64-bit fingerprint; each bucket
/// holds the full keys (verified with `PartialEq`) so collisions degrade
/// to a scan, never to a wrong answer.
///
/// [`Memo::bounded`] adds a byte capacity with a per-entry cost function:
/// after each insert the owning shard sweeps entries in ascending
/// fingerprint order (second-chance/CLOCK) until it is back under its
/// slice of the capacity. Eviction order depends only on the resident
/// set, never on insertion order, so runs are reproducible.
pub struct Memo<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    capacity: Option<u64>,
    cost: Option<CostFn<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

impl<K, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("capacity", &self.capacity)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .field("resident_bytes", &self.resident.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: PartialEq, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            capacity: None,
            cost: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }
}

impl<K: PartialEq, V> Memo<K, V> {
    /// A fresh, empty, unbounded table (no size accounting, no eviction).
    pub fn new() -> Self {
        Memo::default()
    }

    /// A fresh table bounded to `capacity_bytes`, with `cost` charging
    /// each entry at insertion. Capacity is split evenly across shards;
    /// an entry larger than its shard's slice is admitted, returned, and
    /// evicted by the very next sweep — callers still get correct values,
    /// the table just stops retaining them (all-miss behavior).
    pub fn bounded(
        capacity_bytes: u64,
        cost: impl Fn(&K, &V) -> u64 + Send + Sync + 'static,
    ) -> Self {
        Memo {
            capacity: Some(capacity_bytes),
            cost: Some(Arc::new(cost)),
            ..Memo::default()
        }
    }

    /// Look up by fingerprint + exact key match, computing and inserting
    /// on a miss. `compute` must be pure: under concurrent misses both
    /// threads may compute, and whichever inserts first wins — identical
    /// values make the race unobservable.
    pub fn get_or_insert_with(
        &self,
        fp: u64,
        matches: impl Fn(&K) -> bool,
        make_key: impl FnOnce() -> K,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        let shard = &self.shards[mix64(fp) as usize % SHARDS];
        if let Some(bucket) = shard.read().buckets.get(&fp) {
            if let Some(e) = bucket.iter().find(|e| matches(&e.key)) {
                e.referenced.store(true, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return e.value.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        let key = make_key();
        let cost = match &self.cost {
            Some(f) => f(&key, &value),
            None => 0,
        };
        let mut guard = shard.write();
        let bucket = guard.buckets.entry(fp).or_default();
        // Another worker may have inserted while we computed; reuse its
        // entry so every caller shares one allocation.
        if let Some(e) = bucket.iter().find(|e| matches(&e.key)) {
            e.referenced.store(true, Ordering::Relaxed);
            return e.value.clone();
        }
        // New entries start with the reference bit clear: a second chance
        // is earned by a hit, so churn that is never re-read cannot push
        // hot entries out of the table.
        bucket.push(Entry {
            key,
            value: value.clone(),
            cost,
            referenced: AtomicBool::new(false),
        });
        guard.bytes += cost;
        self.resident.fetch_add(cost, Ordering::Relaxed);
        if let Some(capacity) = self.capacity {
            self.enforce(&mut guard, capacity / SHARDS as u64);
        }
        value
    }

    /// Second-chance sweep: walk buckets in ascending fingerprint order
    /// from the shard's hand (wrapping once past the largest key), clear
    /// reference bits on the first pass, evict on the second, until the
    /// shard is back under `budget`. Holding the write lock means no hit
    /// can re-set a bit mid-sweep, so each iteration either evicts an
    /// entry or clears at least one set bit — the sweep terminates even
    /// at a budget of zero.
    fn enforce(&self, shard: &mut Shard<K, V>, budget: u64) {
        while shard.bytes > budget {
            let fp = match shard
                .buckets
                .range(shard.hand..)
                .next()
                .map(|(k, _)| *k)
                .or_else(|| shard.buckets.keys().next().copied())
            {
                Some(fp) => fp,
                None => break,
            };
            let bucket = shard.buckets.get_mut(&fp).expect("bucket at swept fp");
            if let Some(pos) = bucket
                .iter()
                .position(|e| !e.referenced.load(Ordering::Relaxed))
            {
                let evicted = bucket.remove(pos);
                if bucket.is_empty() {
                    shard.buckets.remove(&fp);
                }
                shard.bytes = shard.bytes.saturating_sub(evicted.cost);
                self.resident.fetch_sub(evicted.cost, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                for e in bucket.iter() {
                    e.referenced.store(false, Ordering::Relaxed);
                }
            }
            shard.hand = fp.wrapping_add(1);
        }
    }

    /// Hit/miss/eviction counters plus the current resident-byte gauge.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct entries held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().buckets.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_dedup_classifies_and_counts() {
        let mut d = StreamDedup::new();
        assert!(d.is_empty());
        assert!(d.observe(1));
        assert!(d.observe(2));
        assert!(!d.observe(1));
        assert!(!d.observe(2));
        assert!(d.observe(3));
        let s = d.stats();
        assert_eq!((s.unique, s.duplicates), (3, 2));
        assert_eq!(s.total(), 5);
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(d.len(), 3);
        assert_eq!(DedupStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn fnv_is_stable_and_length_prefixed() {
        let fp = |parts: &[&str]| {
            let mut h = Fnv::new();
            for p in parts {
                h.str(p);
            }
            h.finish()
        };
        assert_eq!(fp(&["abc"]), fp(&["abc"]));
        assert_ne!(fp(&["abc"]), fp(&["abd"]));
        // Field boundaries cannot alias.
        assert_ne!(fp(&["ab", "c"]), fp(&["a", "bc"]));
        assert_ne!(fp(&["abc", ""]), fp(&["abc"]));
    }

    #[test]
    fn fnv_folds_floats_by_bit_pattern() {
        let fp = |v: f64| {
            let mut h = Fnv::new();
            h.f64(v);
            h.finish()
        };
        assert_eq!(fp(1.5), fp(1.5));
        assert_ne!(fp(0.0), fp(-0.0), "signed zeros are distinct bit patterns");
    }

    #[test]
    fn memo_hits_after_first_compute_and_shares_the_allocation() {
        let memo: Memo<u32, String> = Memo::new();
        let a = memo.get_or_insert_with(7, |&k| k == 1, || 1, || "one".to_string());
        let b = memo.get_or_insert_with(7, |&k| k == 1, || 1, || unreachable!());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            memo.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn colliding_fingerprints_stay_distinct_entries() {
        let memo: Memo<u32, u32> = Memo::new();
        // Same fingerprint, different keys: the bucket scan must keep both.
        let a = memo.get_or_insert_with(42, |&k| k == 1, || 1, || 10);
        let b = memo.get_or_insert_with(42, |&k| k == 2, || 2, || 20);
        assert_eq!((*a, *b), (10, 20));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.counters().misses, 2);
        assert_eq!(*memo.get_or_insert_with(42, |&k| k == 2, || 2, || 99), 20);
    }

    #[test]
    fn concurrent_misses_converge_on_one_entry() {
        let memo: Arc<Memo<u32, u64>> = Arc::new(Memo::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let memo = memo.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(*memo.get_or_insert_with(3, |&k| k == 3, || 3, || 30), 30);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.counters().total(), 400);
    }

    #[test]
    fn counters_report_rates() {
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(c.total(), 4);
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn unbounded_table_does_no_size_accounting() {
        let memo: Memo<u32, u64> = Memo::new();
        for k in 0..100u32 {
            memo.get_or_insert_with(k as u64, |&x| x == k, || k, || k as u64);
        }
        let c = memo.counters();
        assert_eq!((c.evictions, c.resident_bytes), (0, 0));
        assert_eq!(memo.len(), 100);
    }

    #[test]
    fn bounded_table_stays_under_capacity_and_counts_evictions() {
        // 16 shards × 64-byte slices; every entry costs 32 bytes, so each
        // shard retains at most 2 entries.
        let memo: Memo<u32, u64> = Memo::bounded(1024, |_, _| 32);
        for k in 0..200u32 {
            let fp = {
                let mut h = Fnv::new();
                h.u64(k as u64);
                h.finish()
            };
            memo.get_or_insert_with(fp, |&x| x == k, || k, || k as u64);
        }
        let c = memo.counters();
        assert!(c.resident_bytes <= 1024, "resident={}", c.resident_bytes);
        assert!(c.evictions > 0, "expected evictions at this capacity");
        assert_eq!(c.misses, 200);
        assert_eq!(
            memo.len() as u64 * 32,
            c.resident_bytes,
            "byte tally matches entry count"
        );
    }

    #[test]
    fn capacity_one_table_still_returns_correct_values() {
        // A 1-byte capacity admits nothing durably: every lookup is a
        // miss, every insert is evicted by its own sweep — but returned
        // values are always correct.
        let memo: Memo<u32, u64> = Memo::bounded(1, |_, _| 64);
        for round in 0..3 {
            for k in 0..20u32 {
                let got = memo.get_or_insert_with(k as u64, |&x| x == k, || k, || (k as u64) * 10);
                assert_eq!(*got, (k as u64) * 10, "round {round}");
            }
        }
        let c = memo.counters();
        assert_eq!(c.hits, 0, "capacity-1 cache cannot retain entries");
        assert_eq!(c.misses, 60);
        assert_eq!(c.evictions, 60);
        assert_eq!(c.resident_bytes, 0);
        assert!(memo.is_empty());
    }

    #[test]
    fn recently_hit_entries_survive_the_sweep() {
        // One shard's slice fits 2 entries. Keep hitting key A while
        // inserting churn keys routed to the same shard: the CLOCK's
        // second chance must keep A resident.
        let memo: Memo<u64, u64> = Memo::bounded(16 * 64, |_, _| 32);
        let same_shard: Vec<u64> = (0..1 << 16)
            .filter(|&fp| (mix64(fp) as usize).is_multiple_of(SHARDS))
            .take(12)
            .collect();
        assert!(same_shard.len() >= 12, "need enough colliding fingerprints");
        let a = same_shard[0];
        memo.get_or_insert_with(a, |&k| k == a, || a, || 111);
        for &fp in &same_shard[1..] {
            // Touch A, then insert churn.
            assert_eq!(
                *memo.get_or_insert_with(a, |&k| k == a, || a, || 0),
                111,
                "hot entry must survive churn at fp {fp}"
            );
            memo.get_or_insert_with(fp, |&k| k == fp, || fp, || fp);
        }
        assert!(memo.counters().evictions > 0);
    }

    #[test]
    fn sweep_evicts_in_ascending_fingerprint_order() {
        // The sweep walks fingerprints, not insertion history: whichever
        // order three same-shard entries arrive in, the lowest unreferenced
        // fingerprint is evicted first, leaving the same resident set.
        let fps: Vec<u64> = (0..1u64 << 16)
            .filter(|&fp| mix64(fp) as usize % SHARDS == 3)
            .take(3)
            .collect();
        let run = |order: &[u64]| -> Vec<u64> {
            // One shard's slice fits 2 entries of 32 bytes.
            let memo: Memo<u64, u64> = Memo::bounded(16 * 64, |_, _| 32);
            for &fp in order {
                memo.get_or_insert_with(fp, |&k| k == fp, || fp, || fp);
            }
            assert_eq!(memo.counters().evictions, 1);
            let resident = memo.shards[3].read().buckets.keys().copied().collect();
            resident
        };
        let mut rev = fps.clone();
        rev.reverse();
        assert_eq!(run(&fps), fps[1..], "lowest fingerprint goes first");
        assert_eq!(run(&rev), fps[1..], "insertion order does not matter");
    }

    #[test]
    fn shards_spread_short_string_fingerprints() {
        // Satellite fix: FNV-1a fingerprints of short strings concentrate
        // in the top bits; after mixing, shard occupancy must be spread.
        let mut occupancy = [0usize; SHARDS];
        for i in 0..1000 {
            let mut h = Fnv::new();
            h.str(&format!("kernel_{i}"));
            occupancy[mix64(h.finish()) as usize % SHARDS] += 1;
        }
        let (min, max) = (
            *occupancy.iter().min().expect("non-empty"),
            *occupancy.iter().max().expect("non-empty"),
        );
        // Expected 62.5 per shard; demand every shard is populated and no
        // shard hoards more than 3× its fair share.
        assert!(min >= 20, "under-filled shard: {occupancy:?}");
        assert!(max <= 187, "over-filled shard: {occupancy:?}");

        // And the memo table itself actually lands entries on many shards.
        let memo: Memo<String, u64> = Memo::new();
        for i in 0..1000 {
            let key = format!("kernel_{i}");
            let mut h = Fnv::new();
            h.str(&key);
            let fp = h.finish();
            let key2 = key.clone();
            memo.get_or_insert_with(fp, |k| *k == key, move || key2, || i);
        }
        let populated = memo
            .shards
            .iter()
            .filter(|s| !s.read().buckets.is_empty())
            .count();
        assert_eq!(populated, SHARDS, "all shards should see entries");
    }
}
