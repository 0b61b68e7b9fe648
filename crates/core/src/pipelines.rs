//! The paper's eight pipelines (§4, §5 and the §6 `+QT` variants), as
//! one table of stage lists over [`StagePipeline`].
//!
//! Every run plays both roles of the protocol: the *data sources* build
//! summaries and uplink them (the [`ekm_net::Network`] ledger records
//! the encoded bits), and the *server* solves weighted k-means on what
//! arrives and maps the centers back to the original space. JL
//! projection matrices are regenerated from the shared seed on the
//! server side — they are never transmitted.
//!
//! [`named`] builds any of them from its `--pipeline` name in [`NAMES`]
//! ("nr", "jl-fss-jl", "bklw", …), and each has a legend type
//! ([`NoReduction`], [`JlFssJl`], [`Bklw`], …) declared from the same
//! table that derefs to its [`StagePipeline`]. So `JlFssJl::new(p)`,
//! `named("jl-fss-jl", p)` and `StagePipeline::from_names("jl,fss,jl", p)`
//! are the same pipeline — bit-identical uplink and identical centers
//! (asserted by the `stage_equivalence` integration tests). The
//! multi-source types are also exported from [`crate::distributed`].

use crate::engine::StagePipeline;
use crate::params::SummaryParams;
use crate::stage::{with_default_qt, Stage};
use ekm_linalg::Matrix;
use ekm_net::wire::Precision;
use ekm_quant::RoundingQuantizer;
use std::ops::Deref;

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

/// Quantizes points for the wire, in place, if a quantizer is
/// configured; returns them with their [`Precision`]. The points are the
/// sender's own summary, moved in: shipping them writes no second copy.
pub(crate) fn quantize_for_wire(
    mut points: Matrix,
    quantizer: Option<&RoundingQuantizer>,
) -> (Matrix, Precision) {
    match quantizer {
        Some(q) => {
            q.quantize_in_place(points.as_mut_slice());
            let s = q.significant_bits();
            (points, Precision::Quantized { s })
        }
        None => (points, Precision::Full),
    }
}

/// Builds the paper pipeline called `name` (one of [`NAMES`]) under its
/// legend name ("JL+FSS", "BKLW", …), or `None` for any other name.
///
/// A quantizer in `params` arms the `+QT` wire stage (before disSS in
/// the multi-source pipelines; see [`with_default_qt`]) and appends
/// "+QT" to the name — except in NR, which ships the raw data whatever
/// the parameters say.
pub fn named(name: &str, params: SummaryParams) -> Option<StagePipeline> {
    let &(_, legend, stages) = TABLE.iter().find(|row| row.0 == name)?;
    let mut stages: Vec<Stage> = stages.iter().map(|stage| stage()).collect();
    let mut legend = legend.to_string();
    if !stages.is_empty() && params.quantizer.is_some() {
        stages = with_default_qt(stages, &params);
        legend.push_str("+QT");
    }
    Some(StagePipeline::new(stages, params).with_name(legend))
}

/// Declares the table behind [`named`] and [`NAMES`], and one legend
/// type per row.
macro_rules! paper_pipelines {
    ($($(#[$doc:meta])* $ty:ident = $name:literal, $legend:literal, [$($stage:ident),*];)*) => {
        /// Every paper pipeline's name, legend name and stage list.
        const TABLE: &[(&str, &str, &[fn() -> Stage])] =
            &[$(($name, $legend, &[$(Stage::$stage),*])),*];

        /// The `--pipeline` names of the paper's pipelines, in table order.
        pub const NAMES: &[&str] = &[$($name),*];

        $(
            $(#[$doc])*
            ///
            /// Derefs to its [`StagePipeline`] (see [`named`]).
            #[derive(Debug, Clone)]
            pub struct $ty(StagePipeline);

            impl $ty {
                /// Creates the pipeline with the given parameters (a
                /// quantizer in `params` adds the `+QT` wire stage).
                pub fn new(params: SummaryParams) -> Self {
                    $ty(named($name, params).expect("every legend type has a table row"))
                }

                /// The pipeline as a reusable [`StagePipeline`].
                pub fn into_stage_pipeline(self) -> StagePipeline {
                    self.0
                }
            }

            impl Deref for $ty {
                type Target = StagePipeline;

                fn deref(&self) -> &StagePipeline {
                    &self.0
                }
            }
        )*
    };
}

paper_pipelines! {
    /// The "no reduction" baseline: ship the raw dataset, solve at the
    /// server. (Ignores any configured quantizer, like the paper's NR —
    /// only `k`, `kmeans_restarts`, and `seed` matter.)
    NoReduction = "nr", "NR", [];

    /// The FSS baseline \[11\]: PCA-subspace coreset, transmitted as
    /// coordinates **plus the subspace basis** (the `O(kd/ε²)`
    /// communication cost of Theorem 4.1).
    Fss = "fss", "FSS", [fss];

    /// **Algorithm 1** (JL+FSS): JL projection first, then FSS in the
    /// projected space. Communication `O(k·log n/ε⁴)`, source complexity
    /// `Õ(nd/ε²)` (Theorem 4.2).
    JlFss = "jl-fss", "JL+FSS", [jl, fss];

    /// **Algorithm 2** (FSS+JL): FSS in the original space, then JL
    /// projection of the coreset points. Communication `Õ(k³/ε⁶)` (no
    /// basis, no `log n`), source complexity `O(nd·min(n,d))`
    /// (Theorem 4.3).
    FssJl = "fss-jl", "FSS+JL", [fss, jl];

    /// **Algorithm 3** (JL+FSS+JL): JL before *and* after FSS — the
    /// communication of Algorithm 2 at the complexity of Algorithm 1
    /// (Theorem 4.4).
    JlFssJl = "jl-fss-jl", "JL+FSS+JL", [jl, fss, jl];

    /// The BKLW baseline \[27\]: disPCA followed by disSS, k-means at the
    /// server on the union coreset, centers lifted through the global
    /// basis.
    Bklw = "bklw", "BKLW", [dispca, disss];

    /// **Algorithm 4** (JL+BKLW): shared-seed JL projection at every
    /// source, then BKLW in the projected space (Theorem 5.4).
    JlBklw = "jl-bklw", "JL+BKLW", [jl, dispca, disss];

    /// The §5.2 thought-experiment: JL applied *after* BKLW (the
    /// distributed counterpart of Algorithm 2). The paper argues — and
    /// this implementation verifies empirically (see the ablation bench)
    /// — that it is **not competitive**: the disPCA summaries already
    /// cost `O(mkd/ε²)`, so the late projection cannot improve the
    /// communication order, while its distortion adds to the
    /// approximation error.
    BklwJl = "bklw-jl", "BKLW+JL", [dispca, jl, disss];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use ekm_clustering::cost::cost;
    use ekm_data::synth::GaussianMixture;
    use ekm_net::Network;

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

    fn all_pipelines(p: &SummaryParams) -> Vec<StagePipeline> {
        ["fss", "jl-fss", "fss-jl", "jl-fss-jl"]
            .into_iter()
            .map(|name| named(name, p.clone()).unwrap())
            .collect()
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
        let q = RoundingQuantizer::new(4).unwrap();
        let legends = [
            "NR",
            "FSS",
            "JL+FSS",
            "FSS+JL",
            "JL+FSS+JL",
            "BKLW",
            "JL+BKLW",
            "BKLW+JL",
        ];
        assert_eq!(NAMES.len(), legends.len());
        for (&name, legend) in NAMES.iter().zip(legends) {
            assert_eq!(named(name, p.clone()).unwrap().name(), legend);
            let quantized = named(name, p.clone().with_quantizer(q)).unwrap();
            if name == "nr" {
                // The unreduced baseline ships the raw data regardless.
                assert_eq!(quantized.name(), "NR");
                assert!(quantized.stages().is_empty());
            } else {
                assert_eq!(quantized.name(), format!("{legend}+QT"));
            }
        }
        assert_eq!(Fss::new(p.clone().with_quantizer(q)).name(), "FSS+QT");
        assert_eq!(JlFssJl::new(p.clone()).name(), "JL+FSS+JL");
        assert!(named("jlfss", p.clone()).is_none());
        assert!(named("jl,fss", p).is_none());
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
