//! Stage-output memoization for pipeline sweeps.
//!
//! `ekm sweep` runs many stage compositions over the *same* dataset, and
//! compositions routinely share a prefix — e.g. `jl,fss` under every QT
//! width. The source-local stages (`jl`, `fss`, `stream`) are pure,
//! seed-deterministic functions of (stage config, shared parameters,
//! the source's position, the source's upstream state), so each
//! [`crate::SourceExecutor`] can memoize them across pipelines: a
//! [`StageCache`] maps a 64-bit key — stage config ⊕ parameter knobs ⊕
//! source id and count ⊕ a fingerprint of every upstream bit the stage
//! can observe — to the snapshot of the state the stage produced.
//!
//! Cache hits are **bit-identical to a cold run by construction**: the
//! key covers all inputs of the stage's computation, the snapshot stores
//! the complete post-stage executor state (including the deterministic
//! operation count the executor reports), and the interactive stages
//! (`dispca`, `disss`) and the transmission phase are never cached —
//! their traffic always flows through the live protocol, which keeps
//! the bit ledger of a cached sweep identical to an uncached one.

use crate::stage::JlBook;
use ekm_linalg::Matrix;
use std::collections::HashMap;

/// One source's complete executor state after a cached stage, plus the
/// deterministic operation count and the seconds the cold run reported
/// for it — what a hit replays.
#[derive(Debug, Clone)]
pub(crate) struct StageSnapshot {
    pub part: Matrix,
    pub weights: Option<Vec<f64>>,
    pub delta: f64,
    pub basis: Option<Matrix>,
    pub basis_shared: bool,
    pub jl: JlBook,
    pub ops: u64,
    /// Compute seconds the cold run reported, replayed on a hit so
    /// cached sweeps report comparable source timings (`ops` is the
    /// exact counterpart).
    pub seconds: f64,
}

impl StageSnapshot {
    /// Approximate heap footprint of the snapshot, for the LRU budget.
    /// Matrices and weight vectors dominate; per-entry bookkeeping is
    /// charged a small flat overhead.
    fn approx_bytes(&self) -> usize {
        let matrix_bytes = |m: &Matrix| m.rows() * m.cols() * 8 + 64;
        let mut bytes = 128 + matrix_bytes(&self.part);
        if let Some(w) = &self.weights {
            bytes += w.len() * 8 + 24;
        }
        if let Some(b) = &self.basis {
            bytes += matrix_bytes(b);
        }
        bytes
    }
}

/// Memoized per-stage outputs, shared across the pipelines of a sweep.
///
/// Create one cache, pass it to every
/// [`StagePipeline::run_cached`](crate::StagePipeline::run_cached) /
/// [`run_shards_cached`](crate::StagePipeline::run_shards_cached)
/// call of the sweep, and shared prefixes are computed once; outputs and
/// bit accounting are bit-identical to uncached runs. Every executor
/// looks up its own shard, so a run over `m` sources counts `m` lookups
/// per cacheable stage. Those executors run concurrently, so under a
/// byte budget the eviction order (and with it the hit count) of a
/// multi-source run can vary from run to run; the outputs cannot.
///
/// # Example
///
/// ```
/// use ekm_core::cache::StageCache;
/// use ekm_core::StagePipeline;
/// use ekm_core::params::SummaryParams;
/// use ekm_net::Network;
/// use ekm_linalg::Matrix;
///
/// let data = Matrix::from_fn(300, 16, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.2);
/// let params = SummaryParams::practical(2, 300, 16).with_seed(7);
/// let mut cache = StageCache::new();
/// for stages in ["jl,fss,qt:6", "jl,fss,qt:10"] {
///     let pipe = StagePipeline::from_names(stages, params.clone()).unwrap();
///     let mut net = Network::new(1);
///     pipe.run_cached(&data, &mut net, &mut cache).unwrap();
/// }
/// // The second pipeline replayed the shared jl,fss prefix.
/// assert_eq!(cache.hits(), 2);
/// assert_eq!(cache.misses(), 2);
/// ```
#[derive(Debug, Default)]
pub struct StageCache {
    entries: HashMap<u64, CacheEntry>,
    /// Optional byte budget; `None` caches without bound.
    budget: Option<usize>,
    /// Approximate bytes currently held.
    held_bytes: usize,
    /// Monotonic recency clock (bumped on every lookup hit and store).
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct CacheEntry {
    snapshot: StageSnapshot,
    bytes: usize,
    last_used: u64,
}

impl StageCache {
    /// An empty, unbounded cache.
    pub fn new() -> StageCache {
        StageCache::default()
    }

    /// An empty cache that evicts least-recently-used entries whenever
    /// the held snapshots exceed `budget` bytes (approximate footprint;
    /// a single snapshot larger than the budget is still admitted alone,
    /// so sweeps degrade to cold behavior rather than failing).
    pub fn with_budget(budget: usize) -> StageCache {
        StageCache {
            budget: Some(budget),
            ..StageCache::default()
        }
    }

    /// Number of stage executions answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cacheable stage executions that ran cold (and were
    /// stored).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries evicted to stay under the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate bytes of snapshot data currently held.
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Fraction of cacheable stage executions answered from the cache
    /// (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of distinct stage outputs held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no stage output is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries (the counters persist).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.held_bytes = 0;
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    pub(crate) fn lookup(&mut self, key: u64) -> Option<StageSnapshot> {
        let tick = self.touch();
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = tick;
            self.hits += 1;
            return Some(entry.snapshot.clone());
        }
        self.misses += 1;
        None
    }

    pub(crate) fn store(&mut self, key: u64, snapshot: StageSnapshot) {
        let tick = self.touch();
        let bytes = snapshot.approx_bytes();
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                snapshot,
                bytes,
                last_used: tick,
            },
        ) {
            self.held_bytes -= old.bytes;
        }
        self.held_bytes += bytes;
        self.enforce_budget(key);
    }

    /// Evicts least-recently-used entries until the budget holds.
    /// `just_stored` is never evicted in its own store (otherwise a
    /// snapshot above the budget would thrash forever).
    fn enforce_budget(&mut self, just_stored: u64) {
        let Some(budget) = self.budget else { return };
        while self.held_bytes > budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != just_stored)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { return };
            if let Some(entry) = self.entries.remove(&victim) {
                self.held_bytes -= entry.bytes;
                self.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(rows: usize) -> StageSnapshot {
        StageSnapshot {
            part: Matrix::zeros(rows, 8),
            weights: None,
            delta: 0.0,
            basis: None,
            basis_shared: false,
            jl: JlBook::default(),
            ops: 3,
            seconds: 0.0,
        }
    }

    #[test]
    fn cache_counters_and_inventory() {
        let mut cache = StageCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(cache.lookup(7).is_none());
        cache.store(7, snapshot(1));
        assert!(cache.lookup(7).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert!(cache.held_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.held_bytes(), 0);
        assert_eq!(cache.hits(), 1, "counters persist across clear");
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let one = snapshot(100).approx_bytes();
        // Room for two snapshots, not three.
        let mut cache = StageCache::with_budget(2 * one + one / 2);
        cache.store(1, snapshot(100));
        cache.store(2, snapshot(100));
        assert_eq!(cache.evictions(), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.store(3, snapshot(100));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert!(cache.held_bytes() <= 2 * one + one / 2);
    }

    #[test]
    fn oversized_snapshot_is_admitted_alone() {
        let mut cache = StageCache::with_budget(8);
        cache.store(1, snapshot(1000));
        assert_eq!(cache.len(), 1, "a single oversized entry is kept");
        cache.store(2, snapshot(1000));
        assert_eq!(cache.len(), 1, "storing another evicts the previous");
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(1).is_none());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut cache = StageCache::new();
        for key in 0..64 {
            cache.store(key, snapshot(50));
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.evictions(), 0);
    }
}
