//! Pipeline configuration.
//!
//! The paper's theorems fix every size as a function of `(n, d, k, ε, δ)`
//! with large constants; its experiments instead tune sizes so all
//! algorithms reach a similar empirical error (§7.2.1). [`SummaryParams`]
//! carries the tuned knobs, and [`SummaryParams::practical`] derives
//! defaults from the scaled-down formulas:
//!
//! * coreset size `⌈25·k·ln n⌉` (clamped),
//! * FSS/disPCA intrinsic dimension `t = k + ⌈4k/ε²⌉ − 1` (Theorem 5.1),
//! * first JL dimension `⌈ln(nk)/ε²⌉` (Lemma 4.1 shape, unit constant),
//! * second JL dimension `⌈ln(n'k)/ε²⌉` (Lemma 4.2 shape).

use ekm_net::wire::{Compute, Precision};
use ekm_net::DeadlinePolicy;
use ekm_quant::RoundingQuantizer;
use ekm_sketch::JlKind;

/// How the driver aggregates per-source summaries in the server-driven
/// protocol. Both topologies produce bit-identical centers, digests, and
/// per-source classic counters; they differ only in where the merge
/// arithmetic runs and how many fold inputs reach the server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// Every source uplinks its summary; the server folds all `s` of
    /// them (the paper's literal model — `O(s)` server fold inputs).
    #[default]
    Star,
    /// Sources pairwise-merge summaries up the canonical `next_2_power`
    /// reduction tree in `ceil(log2 s)` rounds; one root delivers the
    /// folded result (`O(1)` server fold inputs, `O(log s)` rounds).
    Tree,
}

impl Topology {
    /// The CLI token (`star` / `tree`).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Star => "star",
            Topology::Tree => "tree",
        }
    }

    /// Parses a CLI token.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for unknown tokens.
    pub fn parse(s: &str) -> crate::Result<Topology> {
        match s {
            "star" => Ok(Topology::Star),
            "tree" => Ok(Topology::Tree),
            _ => Err(crate::CoreError::InvalidConfig {
                reason: "unknown topology (expected star or tree)",
            }),
        }
    }
}

/// Tunable configuration shared by all pipelines.
#[derive(Debug, Clone)]
pub struct SummaryParams {
    /// Number of k-means centers `k`.
    pub k: usize,
    /// Error parameter ε (drives derived dimensions).
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Sensitivity-sampling coreset size.
    pub coreset_size: usize,
    /// FSS / disPCA intrinsic dimension `t` (`t1 = t2`).
    pub pca_dim: usize,
    /// Dimension of the JL projection applied *before* CR (`d'`).
    pub jl_dim_before: usize,
    /// Dimension of the JL projection applied *after* CR (`d''`).
    pub jl_dim_after: usize,
    /// JL family used for every projection.
    pub jl_kind: JlKind,
    /// Optional quantizer applied to transmitted coreset points (§6).
    pub quantizer: Option<RoundingQuantizer>,
    /// Seed shared by sources and server (projections are regenerated
    /// from it, never transmitted).
    pub seed: u64,
    /// k-means++ restarts of the server-side solver.
    pub kmeans_restarts: usize,
    /// Leaf-buffer size of the `stream` stage's merge-and-reduce tree.
    pub stream_leaf_size: usize,
    /// Worker threads of the sharded server-side Lloyd solve (`0`
    /// follows the hardware). Centers are bit-identical at every value.
    pub solver_shards: usize,
    /// Wire precision of the auxiliary float payloads — bases, coreset
    /// weights, SVD summaries ([`Precision::Full`] by default;
    /// [`Precision::F32`] halves them at a bounded accuracy cost).
    pub precision: Precision,
    /// Compute precision of the distance kernels (seeding, assignment,
    /// adaptive sampling) on both sources and server
    /// ([`Compute::F64`] by default — the bit-reproducibility reference;
    /// [`Compute::F32`] trades bit-identity for speed under the same
    /// center-perturbation / cost-ratio contract as wire `F32`).
    pub compute: Compute,
    /// Straggler deadlines of the driver's command rounds (and the
    /// per-read/write socket timeouts beneath them). Excluded from stage
    /// keys and handshake fingerprints — it shapes *when* a run fails
    /// over, never the bits it computes.
    pub deadline: DeadlinePolicy,
    /// Aggregation topology of the server-driven protocol (star by
    /// default; tree runs are bit-identical to star). Part of the
    /// handshake/journal fingerprint — a resume cannot silently switch
    /// topologies mid-run.
    pub topology: Topology,
    /// Shard replication factor `r` of the server-driven protocol
    /// (`1` = no replicas, today's behavior). Each shard `i` gets an
    /// owner plus `r − 1` cold replica holders at sources
    /// `(i + 1) % m .. (i + r − 1) % m` — the canonical assignment both
    /// ends derive independently, so it is part of the
    /// handshake/journal fingerprint. A dead owner's rounds are
    /// replayed to a promoted replica instead of degrading the run.
    pub replication: usize,
}

/// The source indices holding cold replicas of shard `origin` under
/// replication factor `replication` with `m` sources: the next
/// `min(replication, m) − 1` sources in ring order. Canonical — driver
/// and executors derive the same assignment from the fingerprinted
/// params, so no shard placement is ever negotiated on the wire.
pub fn replica_holders(origin: usize, m: usize, replication: usize) -> Vec<usize> {
    (1..replication.min(m)).map(|j| (origin + j) % m).collect()
}

/// The origins whose cold replicas source `holder` keeps under
/// replication factor `replication` with `m` sources — the inverse of
/// [`replica_holders`]: the previous `min(replication, m) − 1` sources
/// in ring order.
pub fn replica_origins(holder: usize, m: usize, replication: usize) -> Vec<usize> {
    (1..replication.min(m))
        .map(|j| (holder + m - j) % m)
        .collect()
}

impl SummaryParams {
    /// Practical defaults for a dataset of `n` points in `d` dimensions,
    /// with `ε = 0.5`, `δ = 0.1` — the regime the paper's experiments
    /// operate in.
    ///
    /// # Panics
    ///
    /// Panics if `k`, `n`, or `d` is zero.
    pub fn practical(k: usize, n: usize, d: usize) -> Self {
        assert!(k > 0 && n > 0 && d > 0, "k, n, d must be positive");
        let epsilon = 0.5;
        let delta = 0.1;
        let coreset_size = ekm_coreset::size::practical_fss_sample_size(n, k, 25.0);
        let pca_dim = ekm_sketch::dims::theorem51_pca_dim(k, epsilon).min(d);
        // The pre-CR projection controls the quality of the final center
        // lift `X = X'·Π⁺` much more than the communication cost (its size
        // only enters through the small FSS basis), so it gets a larger
        // constant plus a floor of d/2. The floor matches the paper's own
        // operating point: Lemma 4.1 with the §6.3.2 constant gives
        // d' = ⌈8·ln(4nk/δ)/ε²⌉ ≈ 0.6·d at MNIST scale (≈493 of 784).
        let jl_before = ekm_sketch::dims::practical_jl_dim(n, k, epsilon, 2.0, d)
            .max(d.div_ceil(2))
            .min(d);
        // After CR the cardinality is the coreset size (plus bicriteria
        // centers); Lemma 4.2 uses that smaller n'.
        let n_prime = coreset_size.max(2);
        let jl_after = ekm_sketch::dims::practical_jl_dim(n_prime, k, epsilon, 1.0, d);
        SummaryParams {
            k,
            epsilon,
            delta,
            coreset_size,
            pca_dim,
            jl_dim_before: jl_before,
            jl_dim_after: jl_after,
            jl_kind: JlKind::Gaussian,
            quantizer: None,
            seed: 0,
            kmeans_restarts: 3,
            // Leaves of a few coresets' worth keep the merge-and-reduce
            // tree shallow without hurting the per-leaf sample quality.
            stream_leaf_size: (2 * coreset_size).max(64),
            solver_shards: 0,
            precision: Precision::Full,
            compute: Compute::F64,
            deadline: DeadlinePolicy::default(),
            topology: Topology::Star,
            replication: 1,
        }
    }

    /// Sets the shared seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the error parameter and rederives nothing (explicit knobs win).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the coreset size.
    pub fn with_coreset_size(mut self, size: usize) -> Self {
        self.coreset_size = size;
        self
    }

    /// Sets the FSS/disPCA intrinsic dimension.
    pub fn with_pca_dim(mut self, t: usize) -> Self {
        self.pca_dim = t.max(1);
        self
    }

    /// Sets the pre-CR JL dimension `d'`.
    pub fn with_jl_dim_before(mut self, d: usize) -> Self {
        self.jl_dim_before = d.max(1);
        self
    }

    /// Sets the post-CR JL dimension `d''`.
    pub fn with_jl_dim_after(mut self, d: usize) -> Self {
        self.jl_dim_after = d.max(1);
        self
    }

    /// Sets the JL family.
    pub fn with_jl_kind(mut self, kind: JlKind) -> Self {
        self.jl_kind = kind;
        self
    }

    /// Attaches a quantizer (the `+QT` pipeline variants of §6).
    pub fn with_quantizer(mut self, q: RoundingQuantizer) -> Self {
        self.quantizer = Some(q);
        self
    }

    /// Removes the quantizer.
    pub fn without_quantizer(mut self) -> Self {
        self.quantizer = None;
        self
    }

    /// Sets the server-side k-means restarts.
    pub fn with_kmeans_restarts(mut self, restarts: usize) -> Self {
        self.kmeans_restarts = restarts.max(1);
        self
    }

    /// Sets the `stream` stage's leaf-buffer size.
    pub fn with_stream_leaf_size(mut self, leaf: usize) -> Self {
        self.stream_leaf_size = leaf.max(1);
        self
    }

    /// Sets the sharded server solve's worker count (`0` = hardware).
    pub fn with_solver_shards(mut self, shards: usize) -> Self {
        self.solver_shards = shards;
        self
    }

    /// Sets the wire precision of the auxiliary payloads (bases, coreset
    /// weights, SVD summaries).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the compute precision of the distance kernels.
    pub fn with_compute(mut self, compute: Compute) -> Self {
        self.compute = compute;
        self
    }

    /// Sets the straggler deadline policy.
    pub fn with_deadline(mut self, deadline: DeadlinePolicy) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the aggregation topology of the server-driven protocol.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the shard replication factor (`0` is clamped to `1`).
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// Validates the configuration against a dataset shape.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] describing the problem.
    pub fn validate(&self, n: usize, d: usize) -> crate::Result<()> {
        if self.k == 0 {
            return Err(crate::CoreError::InvalidConfig {
                reason: "k is zero",
            });
        }
        if n == 0 || d == 0 {
            return Err(crate::CoreError::InvalidConfig {
                reason: "empty dataset",
            });
        }
        if self.coreset_size == 0 {
            return Err(crate::CoreError::InvalidConfig {
                reason: "coreset size is zero",
            });
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(crate::CoreError::InvalidConfig {
                reason: "epsilon outside (0,1)",
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(crate::CoreError::InvalidConfig {
                reason: "delta outside (0,1)",
            });
        }
        if self.stream_leaf_size == 0 {
            return Err(crate::CoreError::InvalidConfig {
                reason: "stream leaf size is zero",
            });
        }
        if self.precision.validate().is_err() {
            return Err(crate::CoreError::InvalidConfig {
                reason: "invalid wire precision",
            });
        }
        if self.replication == 0 {
            return Err(crate::CoreError::InvalidConfig {
                reason: "replication factor is zero",
            });
        }
        Ok(())
    }

    /// The pre-CR JL dimension, clamped to the data dimension.
    pub fn effective_jl_before(&self, d: usize) -> usize {
        self.jl_dim_before.min(d).max(1)
    }

    /// The post-CR JL dimension, clamped to the dimension of whatever
    /// space the coreset lives in.
    pub fn effective_jl_after(&self, current_dim: usize) -> usize {
        self.jl_dim_after.min(current_dim).max(1)
    }

    /// The intrinsic (PCA) dimension, clamped.
    pub fn effective_pca_dim(&self, d: usize) -> usize {
        self.pca_dim.min(d).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn practical_defaults_reasonable() {
        let p = SummaryParams::practical(2, 60_000, 784);
        assert_eq!(p.k, 2);
        assert!(
            p.coreset_size >= 100 && p.coreset_size <= 2000,
            "{}",
            p.coreset_size
        );
        assert!(p.pca_dim >= 2 && p.pca_dim <= 784);
        assert!(p.jl_dim_before >= 2 && p.jl_dim_before <= 784);
        assert!(p.jl_dim_after <= p.jl_dim_before);
        assert!(p.validate(60_000, 784).is_ok());
    }

    #[test]
    fn builders_apply() {
        let p = SummaryParams::practical(2, 1000, 50)
            .with_seed(9)
            .with_epsilon(0.3)
            .with_coreset_size(77)
            .with_pca_dim(5)
            .with_jl_dim_before(20)
            .with_jl_dim_after(10)
            .with_jl_kind(JlKind::Achlioptas)
            .with_kmeans_restarts(0);
        assert_eq!(p.seed, 9);
        assert_eq!(p.epsilon, 0.3);
        assert_eq!(p.coreset_size, 77);
        assert_eq!(p.pca_dim, 5);
        assert_eq!(p.jl_dim_before, 20);
        assert_eq!(p.jl_dim_after, 10);
        assert_eq!(p.jl_kind, JlKind::Achlioptas);
        assert_eq!(p.kmeans_restarts, 1); // clamped
    }

    #[test]
    fn stream_solver_and_precision_knobs() {
        let p = SummaryParams::practical(2, 1000, 50);
        assert!(p.stream_leaf_size >= p.coreset_size);
        assert_eq!(p.solver_shards, 0);
        assert_eq!(p.precision, Precision::Full);
        assert_eq!(p.compute, Compute::F64);
        let p = p
            .with_stream_leaf_size(0)
            .with_solver_shards(4)
            .with_precision(Precision::F32)
            .with_compute(Compute::F32);
        assert_eq!(p.stream_leaf_size, 1); // clamped
        assert_eq!(p.solver_shards, 4);
        assert_eq!(p.precision, Precision::F32);
        assert_eq!(p.compute, Compute::F32);
        assert!(p.validate(1000, 50).is_ok());
        let p = p.with_deadline(DeadlinePolicy::uniform(std::time::Duration::from_millis(5)));
        assert_eq!(p.deadline.io, p.deadline.command);
        let mut bad = p;
        bad.stream_leaf_size = 0;
        assert!(bad.validate(1000, 50).is_err());
    }

    #[test]
    fn quantizer_attach_detach() {
        let q = RoundingQuantizer::new(8).unwrap();
        let p = SummaryParams::practical(2, 100, 10).with_quantizer(q);
        assert!(p.quantizer.is_some());
        let p = p.without_quantizer();
        assert!(p.quantizer.is_none());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let p = SummaryParams::practical(2, 100, 10);
        assert!(p.validate(0, 10).is_err());
        assert!(p.validate(100, 0).is_err());
        let mut bad = p.clone();
        bad.k = 0;
        assert!(bad.validate(100, 10).is_err());
        let mut bad = p.clone();
        bad.coreset_size = 0;
        assert!(bad.validate(100, 10).is_err());
        let mut bad = p.clone();
        bad.epsilon = 1.0;
        assert!(bad.validate(100, 10).is_err());
        let mut bad = p;
        bad.delta = 0.0;
        assert!(bad.validate(100, 10).is_err());
    }

    #[test]
    fn effective_dims_clamp() {
        let p = SummaryParams::practical(2, 1000, 100)
            .with_jl_dim_before(500)
            .with_jl_dim_after(400)
            .with_pca_dim(300);
        assert_eq!(p.effective_jl_before(100), 100);
        assert_eq!(p.effective_jl_after(30), 30);
        assert_eq!(p.effective_pca_dim(100), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn practical_zero_k_panics() {
        let _ = SummaryParams::practical(0, 10, 10);
    }

    #[test]
    fn replication_knob_and_validation() {
        let p = SummaryParams::practical(2, 100, 10);
        assert_eq!(p.replication, 1);
        let p = p.with_replication(0);
        assert_eq!(p.replication, 1); // clamped
        let p = p.with_replication(3);
        assert_eq!(p.replication, 3);
        assert!(p.validate(100, 10).is_ok());
        let mut bad = p;
        bad.replication = 0;
        assert!(bad.validate(100, 10).is_err());
    }

    #[test]
    fn replica_assignment_is_a_canonical_ring() {
        // r = 1: nobody holds replicas.
        assert!(replica_holders(0, 4, 1).is_empty());
        assert!(replica_origins(0, 4, 1).is_empty());
        // r = 2 at m = 4: each shard's replica lives on the next source.
        assert_eq!(replica_holders(2, 4, 2), vec![3]);
        assert_eq!(replica_holders(3, 4, 2), vec![0]);
        assert_eq!(replica_origins(0, 4, 2), vec![3]);
        // r = 3 at m = 5: two successors hold each shard.
        assert_eq!(replica_holders(4, 5, 3), vec![0, 1]);
        assert_eq!(replica_origins(1, 5, 3), vec![0, 4]);
        // r clamped to m: never more holders than sources.
        assert_eq!(replica_holders(0, 3, 9), vec![1, 2]);
        // The two views are exact inverses for every (origin, holder).
        for m in 1..=6 {
            for r in 1..=4 {
                for origin in 0..m {
                    for holder in replica_holders(origin, m, r) {
                        assert!(
                            replica_origins(holder, m, r).contains(&origin),
                            "m={m} r={r} origin={origin} holder={holder}"
                        );
                    }
                }
            }
        }
    }
}
