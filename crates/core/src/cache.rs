//! Stage-output memoization for pipeline sweeps.
//!
//! `ekm sweep` runs many stage compositions over the *same* dataset, and
//! compositions routinely share a prefix — e.g. `jl,fss` under every QT
//! width. The source-local stages (`jl`, `fss`, `stream`) are pure,
//! seed-deterministic functions of (stage kind, shared parameters,
//! the source's position, the source's upstream state), so each
//! [`crate::SourceExecutor`] can memoize them across pipelines: a
//! [`StageCache`] maps a 64-bit key — stage kind ⊕ the JL seed stream
//! its plan position gives it ⊕ parameter knobs ⊕ source id and count ⊕
//! a fingerprint of every upstream bit the stage can observe — to the
//! snapshot of the state the stage produced.
//!
//! The key is built before every cacheable stage, hit or miss, so it
//! must cost far less than the stage a hit skips. FNV-1a
//! ([`ekm_net::fnv::Fnv`]) hashes the stage, knobs, ids and shapes;
//! the upstream points, weights and basis go in as one word-parallel
//! [`ekm_net::fnv::digest_f64s`] each, which reads them at about memory
//! speed.
//!
//! Cache hits are **bit-identical to a cold run by construction**: the
//! key covers all inputs of the stage's computation, the snapshot stores
//! the complete post-stage executor state (including the deterministic
//! operation count the executor reports), and the interactive stages
//! (`dispca`, `disss`) and the transmission phase are never cached —
//! their traffic always flows through the live protocol, which keeps
//! the bit ledger of a cached sweep identical to an uncached one.

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
    pub ops: u64,
    /// Compute seconds the cold run reported, replayed on a hit so
    /// cached sweeps report comparable source timings (`ops` is the
    /// exact counterpart).
    pub seconds: f64,
}

impl StageSnapshot {
    /// Approximate heap footprint of the snapshot. Matrices and weight
    /// vectors dominate; per-entry bookkeeping is charged a small flat
    /// overhead.
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
/// per cacheable stage. The cache holds every snapshot it stores until
/// [`clear`](StageCache::clear) or drop: a sweep runs over one dataset,
/// so it holds one snapshot per distinct stage prefix and source.
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
    entries: HashMap<u64, StageSnapshot>,
    /// Approximate bytes currently held.
    held_bytes: usize,
    hits: u64,
    misses: u64,
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> StageCache {
        StageCache::default()
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

    pub(crate) fn lookup(&mut self, key: u64) -> Option<StageSnapshot> {
        if let Some(snapshot) = self.entries.get(&key) {
            self.hits += 1;
            return Some(snapshot.clone());
        }
        self.misses += 1;
        None
    }

    pub(crate) fn store(&mut self, key: u64, snapshot: StageSnapshot) {
        self.held_bytes += snapshot.approx_bytes();
        if let Some(old) = self.entries.insert(key, snapshot) {
            self.held_bytes -= old.approx_bytes();
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
    fn the_cache_holds_every_snapshot_it_stores() {
        let mut cache = StageCache::new();
        for key in 0..64 {
            cache.store(key, snapshot(50));
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.held_bytes(), 64 * snapshot(50).approx_bytes());
        // A store under a held key replaces the entry and its bytes.
        cache.store(0, snapshot(1));
        assert_eq!(cache.len(), 64);
        assert_eq!(
            cache.held_bytes(),
            63 * snapshot(50).approx_bytes() + snapshot(1).approx_bytes()
        );
    }
}
