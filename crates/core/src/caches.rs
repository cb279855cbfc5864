//! The suite's cross-layer cache bundle.
//!
//! One [`SuiteCaches`] threads every memoization layer through the whole
//! experiment matrix:
//!
//! * the simulator's body-summary and profile memos
//!   ([`pce_gpu_sim::SimCaches`]) — shared by every hardware spec's
//!   pipeline pass and across repeated suite runs,
//! * the surrogate engine's analysis and prompt-parse caches
//!   ([`pce_llm::LlmCaches`]) — shared by every (spec, model, shot-style)
//!   cell,
//! * a prompt-render counter — [`crate::table1`] renders each
//!   (sample, shot-style) prompt once and shares it across the 9-model
//!   zoo, and the counter lets the bench harness report how many renders
//!   actually happened.
//!
//! `Clone` is shallow (clones share storage), and every cached function
//! is pure, so warm and cold bundles produce byte-identical artifacts —
//! the golden tests in `tests/cache_golden.rs` hold the suite to that.
//!
//! [`SuiteCaches::new`] leaves all five memo tables unbounded;
//! [`SuiteCaches::with_budget`] gives each the one per-table capacity of
//! a [`CacheBudget`] (the workspace's [`pce_memo::Budget`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pce_gpu_sim::SimCaches;
use pce_llm::LlmCaches;
use pce_memo::CacheCounters;

/// The suite's name for the workspace memo budget, kept so callers that
/// import `pce_core::caches::CacheBudget` (the `serve` binary and the
/// benchmark harness among them) build their bundles unchanged.
pub use pce_memo::Budget as CacheBudget;

/// The shared cache bundle one suite run (or several) threads through
/// every layer.
#[derive(Debug, Clone, Default)]
pub struct SuiteCaches {
    /// Profiler memos (body summaries + whole profiles).
    pub sim: SimCaches,
    /// Engine memos (static analyses + prompt parses).
    pub llm: LlmCaches,
    prompt_renders: Arc<AtomicU64>,
}

impl SuiteCaches {
    /// A fresh, empty, unbounded bundle.
    pub fn new() -> SuiteCaches {
        SuiteCaches::default()
    }

    /// A fresh bundle with every layer bounded to `budget`'s per-table
    /// capacity. Purity makes evictions unobservable in the rendered
    /// artifacts — bounded and unbounded runs stay byte-identical; only
    /// the eviction and resident-byte counters differ.
    pub fn with_budget(budget: CacheBudget) -> SuiteCaches {
        SuiteCaches {
            sim: SimCaches::with_budget(budget),
            llm: LlmCaches::with_budget(budget),
            prompt_renders: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record `n` classification-prompt renders (called by the Table-1
    /// assembly, once per (sample, shot-style) — not per model).
    pub fn count_prompt_renders(&self, n: u64) {
        self.prompt_renders.fetch_add(n, Ordering::Relaxed);
    }

    /// Total classification prompts rendered through this bundle.
    pub fn prompt_renders(&self) -> u64 {
        self.prompt_renders.load(Ordering::Relaxed)
    }

    /// Snapshot every layer's counters for the bench report.
    pub fn report(&self) -> CacheReport {
        CacheReport {
            summary: self.sim.summaries().counters(),
            profile: self.sim.profiles().counters(),
            analysis: self.llm.analysis_counters(),
            classify_parse: self.llm.classify_counters(),
            rq1_parse: self.llm.rq1_counters(),
            prompt_renders: self.prompt_renders(),
        }
    }
}

/// Per-cache hit/miss counters across the bundle. Every layer reports
/// through the shared [`CacheCounters`] type from `pce-memo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// Hardware-independent body-summary folds (gpu-sim).
    pub summary: CacheCounters,
    /// Whole-profile memo (gpu-sim).
    pub profile: CacheCounters,
    /// Static-analysis cache (llm).
    pub analysis: CacheCounters,
    /// Classification prompt-parse cache (llm).
    pub classify_parse: CacheCounters,
    /// RQ1 prompt-parse cache (llm).
    pub rq1_parse: CacheCounters,
    /// Classification prompts rendered (once per (sample, shot-style),
    /// shared across the model zoo).
    pub prompt_renders: u64,
}

impl CacheReport {
    /// Every per-layer counter, paired with its layer name.
    pub fn layers(&self) -> [(&'static str, CacheCounters); 5] {
        [
            ("summary", self.summary),
            ("profile", self.profile),
            ("analysis", self.analysis),
            ("classify_parse", self.classify_parse),
            ("rq1_parse", self.rq1_parse),
        ]
    }

    /// Total evictions across every layer.
    pub fn total_evictions(&self) -> u64 {
        self.layers().iter().map(|(_, c)| c.evictions).sum()
    }

    /// Total resident bytes across every layer (0 for unbounded bundles,
    /// which do no size accounting).
    pub fn total_resident_bytes(&self) -> u64 {
        self.layers().iter().map(|(_, c)| c.resident_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_render_counter() {
        let caches = SuiteCaches::new();
        let alias = caches.clone();
        caches.count_prompt_renders(3);
        alias.count_prompt_renders(4);
        assert_eq!(caches.prompt_renders(), 7);
        assert_eq!(alias.report().prompt_renders, 7);
    }
}
