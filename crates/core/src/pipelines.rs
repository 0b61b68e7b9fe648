//! Single-data-source pipelines (paper §4 and the §6 quantized variants),
//! as canned stage lists over [`StagePipeline`].
//!
//! Every run plays both roles of the protocol: the *data source* builds
//! a summary and uplinks it (the [`Network`] ledger records the encoded
//! bits), and the *server* solves weighted k-means on what arrives and
//! maps the centers back to the original space. JL projection matrices
//! are regenerated from the shared seed on the server side — they are
//! never transmitted.
//!
//! The named types here are thin constructors kept for the paper-legend
//! names and for API stability; they all delegate to
//! [`crate::engine::StagePipeline`], so `JlFssJl::new(p)` and
//! `StagePipeline::from_names("jl,fss,jl", p)` are the same pipeline —
//! bit-identical uplink and identical centers (asserted by the
//! `stage_equivalence` integration tests).

use crate::engine::StagePipeline;
use crate::params::SummaryParams;
use crate::stage::Stage;
use crate::{Result, RunOutput};
use ekm_linalg::Matrix;
use ekm_net::wire::Precision;
use ekm_net::Network;
use ekm_quant::RoundingQuantizer;

/// Seed streams derived from the shared seed (source and server derive
/// identical values).
pub(crate) mod seeds {
    /// First (pre-CR) JL projection.
    pub const JL_BEFORE: u64 = 1;
    /// Second (post-CR) JL projection.
    pub const JL_AFTER: u64 = 2;
    /// FSS / sensitivity sampling randomness.
    pub const FSS: u64 = 3;
    /// Server-side k-means solver.
    pub const SERVER: u64 = 4;
    /// Streaming merge-and-reduce randomness (each source derives its
    /// own stream from this one by source index).
    pub const STREAM: u64 = 5;
    /// Base stream for JL stages beyond the paper's two (arbitrary
    /// compositions may stack more projections; each needs fresh
    /// randomness).
    pub const JL_EXTRA_BASE: u64 = 32;
}

/// A pipeline in the single-data-source (centralized) setting.
pub trait CentralizedPipeline {
    /// Human-readable name matching the paper's legends ("JL+FSS", …).
    fn name(&self) -> String;

    /// Runs the full source → server protocol on `data`, charging all
    /// traffic to source 0 of `net`.
    ///
    /// # Errors
    ///
    /// Propagates configuration, numeric, and protocol failures.
    fn run(&self, data: &Matrix, net: &mut Network) -> Result<RunOutput>;
}

impl CentralizedPipeline for StagePipeline {
    fn name(&self) -> String {
        StagePipeline::name(self)
    }

    fn run(&self, data: &Matrix, net: &mut Network) -> Result<RunOutput> {
        StagePipeline::run(self, data, net)
    }
}

/// Quantizes points for the wire if a quantizer is configured; returns the
/// payload and its [`Precision`].
pub(crate) fn quantize_for_wire(
    points: &Matrix,
    quantizer: Option<&RoundingQuantizer>,
) -> (Matrix, Precision) {
    match quantizer {
        Some(q) => (
            q.quantize_matrix(points),
            Precision::Quantized {
                s: q.significant_bits(),
            },
        ),
        None => (points.clone(), Precision::Full),
    }
}

macro_rules! declare_centralized_pipeline {
    ($(#[$meta:meta])* $name:ident, [$($stage:expr),*]) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            inner: StagePipeline,
        }

        impl $name {
            /// Creates the pipeline with the given parameters (a
            /// quantizer in `params` adds the `+QT` wire stage).
            pub fn new(params: SummaryParams) -> Self {
                let stages = crate::stage::with_default_qt(vec![$($stage),*], &params);
                $name {
                    inner: StagePipeline::new(stages, params),
                }
            }

            /// The canned stage list as a reusable [`StagePipeline`].
            pub fn into_stage_pipeline(self) -> StagePipeline {
                self.inner
            }
        }

        impl CentralizedPipeline for $name {
            fn name(&self) -> String {
                self.inner.name()
            }

            fn run(&self, data: &Matrix, net: &mut Network) -> Result<RunOutput> {
                self.inner.run(data, net)
            }
        }
    };
}

/// The "no reduction" baseline: ship the raw dataset, solve at the
/// server. (Ignores any configured quantizer, like the paper's NR —
/// only `k`, `kmeans_restarts`, and `seed` matter.)
#[derive(Debug, Clone)]
pub struct NoReduction {
    inner: StagePipeline,
}

impl NoReduction {
    /// Creates the baseline with the given parameters.
    pub fn new(params: SummaryParams) -> Self {
        NoReduction {
            inner: StagePipeline::new(Vec::new(), params),
        }
    }

    /// The (empty) stage list as a reusable [`StagePipeline`].
    pub fn into_stage_pipeline(self) -> StagePipeline {
        self.inner
    }
}

impl CentralizedPipeline for NoReduction {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&self, data: &Matrix, net: &mut Network) -> Result<RunOutput> {
        self.inner.run(data, net)
    }
}

declare_centralized_pipeline!(
    /// The FSS baseline \[11\]: PCA-subspace coreset, transmitted as
    /// coordinates **plus the subspace basis** (the `O(kd/ε²)`
    /// communication cost of Theorem 4.1).
    Fss,
    [Stage::fss()]
);

declare_centralized_pipeline!(
    /// **Algorithm 1** (JL+FSS): JL projection first, then FSS in the
    /// projected space. Communication `O(k·log n/ε⁴)`, source complexity
    /// `Õ(nd/ε²)` (Theorem 4.2).
    JlFss,
    [Stage::jl(), Stage::fss()]
);

declare_centralized_pipeline!(
    /// **Algorithm 2** (FSS+JL): FSS in the original space, then JL
    /// projection of the coreset points. Communication `Õ(k³/ε⁶)` (no
    /// basis, no `log n`), source complexity `O(nd·min(n,d))`
    /// (Theorem 4.3).
    FssJl,
    [Stage::fss(), Stage::jl()]
);

declare_centralized_pipeline!(
    /// **Algorithm 3** (JL+FSS+JL): JL before *and* after FSS — the
    /// communication of Algorithm 2 at the complexity of Algorithm 1
    /// (Theorem 4.4).
    JlFssJl,
    [Stage::jl(), Stage::fss(), Stage::jl()]
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use ekm_clustering::cost::cost;
    use ekm_data::synth::GaussianMixture;

    /// A paper-regime workload: moderately separated mixture, normalized
    /// to zero mean / [-1, 1] exactly as §7.1 prescribes. (The JL-based
    /// pipelines lift centers through Π⁺, which — like in the paper —
    /// assumes centroid norms are modest relative to in-cluster scatter;
    /// normalization is what makes that hold on the real datasets too.)
    fn workload(n: usize, d: usize, seed: u64) -> Matrix {
        let raw = GaussianMixture::new(n, d, 2)
            .with_separation(4.0)
            .with_cluster_std(1.0)
            .with_seed(seed)
            .generate()
            .unwrap()
            .points;
        ekm_data::normalize::normalize_paper(&raw).0
    }

    fn params(n: usize, d: usize) -> SummaryParams {
        SummaryParams::practical(2, n, d).with_seed(11)
    }

    fn all_pipelines(p: &SummaryParams) -> Vec<Box<dyn CentralizedPipeline>> {
        vec![
            Box::new(Fss::new(p.clone())),
            Box::new(JlFss::new(p.clone())),
            Box::new(FssJl::new(p.clone())),
            Box::new(JlFssJl::new(p.clone())),
        ]
    }

    #[test]
    fn all_pipelines_produce_good_centers() {
        let data = workload(600, 40, 1);
        let p = params(600, 40);
        let mut net = Network::new(1);
        let reference = NoReduction::new(p.clone()).run(&data, &mut net).unwrap();
        let ref_cost = cost(&data, &reference.centers).unwrap();
        for pipe in all_pipelines(&p) {
            let out = pipe.run(&data, &mut net).unwrap();
            assert_eq!(out.centers.shape(), (2, 40), "{}", pipe.name());
            let c = cost(&data, &out.centers).unwrap();
            let ratio = c / ref_cost;
            assert!(ratio < 1.35, "{}: normalized cost {ratio}", pipe.name());
        }
    }

    #[test]
    fn communication_ordering_matches_table2() {
        // For d ≫ log n the paper's Table 2 predicts:
        // NR ≫ FSS > JL-based methods.
        let data = workload(500, 200, 2);
        let p = params(500, 200);
        let mut net = Network::new(1);
        let nr = NoReduction::new(p.clone()).run(&data, &mut net).unwrap();
        let fss = Fss::new(p.clone()).run(&data, &mut net).unwrap();
        let jlfss = JlFss::new(p.clone()).run(&data, &mut net).unwrap();
        let fssjl = FssJl::new(p.clone()).run(&data, &mut net).unwrap();
        let jlfssjl = JlFssJl::new(p.clone()).run(&data, &mut net).unwrap();
        assert!(
            fss.uplink_bits < nr.uplink_bits / 2,
            "FSS {} vs NR {}",
            fss.uplink_bits,
            nr.uplink_bits
        );
        assert!(
            jlfss.uplink_bits < fss.uplink_bits,
            "JL+FSS {} vs FSS {}",
            jlfss.uplink_bits,
            fss.uplink_bits
        );
        assert!(fssjl.uplink_bits < fss.uplink_bits);
        assert!(jlfssjl.uplink_bits < fss.uplink_bits);
    }

    #[test]
    fn quantization_reduces_bits_without_hurting_cost_much() {
        let data = workload(500, 60, 3);
        let p = params(500, 60);
        let q = RoundingQuantizer::new(10).unwrap();
        let pq = p.clone().with_quantizer(q);
        let mut net = Network::new(1);
        let plain = JlFssJl::new(p.clone()).run(&data, &mut net).unwrap();
        let quant = JlFssJl::new(pq).run(&data, &mut net).unwrap();
        assert!(
            quant.uplink_bits < plain.uplink_bits,
            "quantized {} vs plain {}",
            quant.uplink_bits,
            plain.uplink_bits
        );
        let c_plain = cost(&data, &plain.centers).unwrap();
        let c_quant = cost(&data, &quant.centers).unwrap();
        assert!(
            c_quant < 1.3 * c_plain,
            "QT cost {c_quant} vs plain {c_plain}"
        );
    }

    #[test]
    fn pipeline_names() {
        let p = params(100, 10);
        assert_eq!(NoReduction::new(p.clone()).name(), "NR");
        assert_eq!(Fss::new(p.clone()).name(), "FSS");
        assert_eq!(JlFss::new(p.clone()).name(), "JL+FSS");
        assert_eq!(FssJl::new(p.clone()).name(), "FSS+JL");
        assert_eq!(JlFssJl::new(p.clone()).name(), "JL+FSS+JL");
        let q = RoundingQuantizer::new(4).unwrap();
        assert_eq!(Fss::new(p.clone().with_quantizer(q)).name(), "FSS+QT");
        assert_eq!(JlFssJl::new(p.with_quantizer(q)).name(), "JL+FSS+JL+QT");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = workload(300, 20, 4);
        let p = params(300, 20);
        let mut net = Network::new(1);
        let a = JlFssJl::new(p.clone()).run(&data, &mut net).unwrap();
        let b = JlFssJl::new(p).run(&data, &mut net).unwrap();
        assert!(a.centers.approx_eq(&b.centers, 0.0));
        assert_eq!(a.uplink_bits, b.uplink_bits);
    }

    #[test]
    fn uplink_accounting_is_delta_based() {
        let data = workload(200, 15, 5);
        let p = params(200, 15);
        let mut net = Network::new(1);
        let first = JlFss::new(p.clone()).run(&data, &mut net).unwrap();
        let second = JlFss::new(p).run(&data, &mut net).unwrap();
        // Same pipeline twice: identical per-run bits even though the
        // network accumulates.
        assert_eq!(first.uplink_bits, second.uplink_bits);
        assert_eq!(
            net.stats().total_uplink_bits(),
            first.uplink_bits + second.uplink_bits
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let data = workload(50, 5, 6);
        let mut p = params(50, 5);
        p.coreset_size = 0;
        let mut net = Network::new(1);
        assert!(matches!(
            JlFss::new(p).run(&data, &mut net),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn summary_points_far_fewer_than_n() {
        let data = workload(2000, 30, 7);
        let p = params(2000, 30);
        let mut net = Network::new(1);
        let out = JlFssJl::new(p).run(&data, &mut net).unwrap();
        assert!(out.summary_points < 2000 / 2, "{}", out.summary_points);
        assert!(out.summary_points > 0);
    }

    #[test]
    fn named_constructors_expose_their_stage_lists() {
        let p = params(100, 10);
        let sp = JlFssJl::new(p.clone()).into_stage_pipeline();
        assert_eq!(sp.stages().len(), 3);
        assert_eq!(sp.name(), "JL+FSS+JL");
        let q = RoundingQuantizer::new(8).unwrap();
        let sp = FssJl::new(p.with_quantizer(q)).into_stage_pipeline();
        assert_eq!(sp.stages().len(), 3, "QT stage appended");
        assert_eq!(sp.name(), "FSS+JL+QT");
    }
}
