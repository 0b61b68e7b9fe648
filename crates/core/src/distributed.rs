//! The multi-data-source protocols (paper §5) behind the BKLW
//! pipelines.
//!
//! * disPCA (`dispca` stage) — distributed PCA \[11\]/\[35\]: each
//!   source sends its top-`t1` local SVD summary `(Σ_i^{(t1)},
//!   V_i^{(t1)})`; the server folds the summaries pairwise (stack
//!   `[Σ_aV_aᵀ; Σ_bV_bᵀ]`, keep the top-`t` SVD) to one, takes its
//!   top-`t2` right singular vectors, and broadcasts them back.
//! * disSS (`disss` stage) — distributed sensitivity sampling \[4\]:
//!   sources report local bicriteria costs, the server allocates the
//!   global sample budget proportionally, sources reply with D²-sampled
//!   points plus their bicriteria centers, weighted by the \[4\]
//!   deterministic-total rule of
//!   [`ekm_coreset::sensitivity::deterministic_total`] (the FSS
//!   sampler's own), so every cluster carries exactly its point count.
//! * [`Bklw`] — the state-of-the-art baseline \[27\]: disPCA + disSS.
//! * [`JlBklw`] — **Algorithm 4**: every source applies the shared-seed JL
//!   projection first, shrinking the disPCA summaries from `O(kd/ε²)` to
//!   `O(k·log n/ε⁴)` per source (Theorem 5.4).
//! * [`BklwJl`] — the §5.2 variant with JL after disPCA.
//!
//! This module holds the protocols' steps as shared functions: the
//! source-local ones run in [`crate::executor`], the server folds in
//! [`crate::driver`]. The three named pipelines are rows of the table in
//! [`crate::pipelines`], re-exported here.

pub use crate::pipelines::{Bklw, BklwJl, JlBklw};

use crate::pipelines::quantize_for_wire;
use crate::{CoreError, Result};
use ekm_clustering::bicriteria::{bicriteria, BicriteriaConfig};
use ekm_clustering::cost::assign_engine;
use ekm_coreset::sensitivity::deterministic_total;
use ekm_linalg::distance::DistanceEngine;
use ekm_linalg::random::{derive_seed, rng_from_seed, sample_weighted_indices};
use ekm_linalg::{svd, Matrix};
use ekm_net::messages::Message;
use ekm_net::wire::{Compute, Precision};

/// Computes the top-`t` local SVD summary `(σ, V)` of one shard.
///
/// Always the exact (Gram) SVD: disPCA step 1 is "each data source
/// computes local SVD `A_Pi = U_iΣ_iV_iᵀ`", and BKLW's
/// `O(nd·min(n,d))` complexity (Theorem 5.3) comes precisely from this
/// step — swapping in a randomized SVD would erase the complexity
/// separation from Algorithm 4 that the paper measures.
pub(crate) fn local_svd_summary(data: &Matrix, t: usize) -> Result<(Vec<f64>, Matrix)> {
    let max_rank = data.rows().min(data.cols());
    let t = t.min(max_rank);
    Ok(svd::top_right_singular(data, t)?)
}

/// `Σ Vᵀ` of one summary — the (rank × d) block disPCA stacks.
fn scaled_stack(sv: &[f64], v: &Matrix) -> Matrix {
    let mut scaled = v.clone();
    for r in 0..scaled.rows() {
        let row = scaled.row_mut(r);
        for (x, s) in row.iter_mut().zip(sv) {
            *x *= s;
        }
    }
    scaled.transpose()
}

/// Passes a summary through its wire encoding at `precision`, returning
/// exactly what a receiver would decode. Every merge output is
/// roundtripped, so a fold at `Precision::F32` works on the values the
/// wire carries; the golden hashes pin this step with the rest of the
/// fold.
fn wire_roundtrip_summary(
    singular_values: Vec<f64>,
    basis: Matrix,
    precision: Precision,
) -> Result<(Vec<f64>, Matrix)> {
    let msg = Message::SvdSummary {
        singular_values,
        basis,
        precision,
    };
    let (buf, bits) = msg.encode();
    match Message::decode(&buf, bits)? {
        Message::SvdSummary {
            singular_values,
            basis,
            ..
        } => Ok((singular_values, basis)),
        _ => Err(CoreError::Protocol {
            reason: "svd summary roundtrip changed kind",
        }),
    }
}

/// The canonical pairwise disPCA merge: stacks `[Σ_aV_aᵀ; Σ_bV_bᵀ]`,
/// takes the thin SVD truncated to rank `t`, and roundtrips the result
/// through its wire encoding. One step of [`dispca_fold`].
pub(crate) fn dispca_merge_pair(
    a: &(Vec<f64>, Matrix),
    b: &(Vec<f64>, Matrix),
    t: usize,
    precision: Precision,
) -> Result<(Vec<f64>, Matrix)> {
    let y = scaled_stack(&a.0, &a.1).vstack(&scaled_stack(&b.0, &b.1))?;
    let rank = t.min(y.rows().min(y.cols()));
    let (sv, v) = svd::top_right_singular(&y, rank)?;
    wire_roundtrip_summary(sv, v, precision)
}

/// Folds the summaries to one: the leading ones, as many as the
/// largest power of two below their count, fold on their own, the rest
/// likewise, and the two results merge. The golden fixtures' hashes pin
/// this tree: folding the same summaries in any other shape moves the
/// global basis.
pub(crate) fn dispca_fold(
    summaries: &[(Vec<f64>, Matrix)],
    t: usize,
    precision: Precision,
) -> Result<(Vec<f64>, Matrix)> {
    match summaries {
        [] => Err(CoreError::Protocol {
            reason: "disPCA fold of zero summaries",
        }),
        [one] => Ok(one.clone()),
        _ => {
            let (head, tail) = summaries.split_at(summaries.len().next_power_of_two() / 2);
            let head = dispca_fold(head, t, precision)?;
            dispca_merge_pair(&head, &dispca_fold(tail, t, precision)?, t, precision)
        }
    }
}

/// disPCA step 2, the server-side fold: folds the summaries to one
/// ([`dispca_fold`]), then finalizes it — stack `ΣVᵀ` and take the
/// global top-`t` right singular vectors. The paper's disPCA stacks
/// every summary for one SVD instead; this fold's pairwise shape is
/// kept because the golden hashes pin it.
pub(crate) fn dispca_global_basis(
    summaries: &[(Vec<f64>, Matrix)],
    t: usize,
    precision: Precision,
) -> Result<Matrix> {
    let (sv, v) = dispca_fold(summaries, t, precision)?;
    let y = scaled_stack(&sv, &v);
    let global_rank = t.min(y.rows().min(y.cols()));
    Ok(svd::top_right_singular(&y, global_rank)?.1)
}

/// disSS step 1, the source-local bicriteria solution for source `i`
/// (seed stream `100 + i` of the protocol seed).
pub(crate) fn disss_local_bicriteria(
    shard: &Matrix,
    k: usize,
    seed: u64,
    i: usize,
    compute: Compute,
) -> Result<ekm_clustering::bicriteria::BicriteriaSolution> {
    let w = vec![1.0; shard.rows()];
    bicriteria(
        shard,
        &w,
        k,
        &BicriteriaConfig {
            seed: derive_seed(seed, 100 + i as u64),
            compute,
            ..BicriteriaConfig::default()
        },
    )
    .map_err(CoreError::Clustering)
}

/// disSS step 2, the server-side budget allocation: proportional to the
/// reported costs, rounded per source.
pub(crate) fn disss_allocations(costs: &[f64], sample_size: usize) -> Vec<usize> {
    let total_cost: f64 = costs.iter().sum();
    if total_cost > 0.0 {
        costs
            .iter()
            .map(|c| ((sample_size as f64) * c / total_cost).round() as usize)
            .collect()
    } else {
        vec![0; costs.len()]
    }
}

/// disSS step 3, the source-local sample construction for source `i`:
/// D²-samples `s_i` points against the bicriteria solution, weights them
/// by the \[4\] deterministic-total rule over the clusters of the
/// assignment they were drawn from, appends the bicriteria centers, and
/// builds the (possibly quantized) coreset message exactly as it goes on
/// the wire.
#[allow(clippy::too_many_arguments)]
pub(crate) fn disss_local_sample(
    shard: &Matrix,
    bic: &ekm_clustering::bicriteria::BicriteriaSolution,
    s_i: usize,
    seed: u64,
    i: usize,
    quantizer: Option<&ekm_quant::RoundingQuantizer>,
    precision: Precision,
    compute: Compute,
) -> Result<Message> {
    let a = assign_engine(&DistanceEngine::new(shard, compute), &bic.centers)?;
    let sizes = a.cluster_weights(bic.centers.rows(), &vec![1.0; shard.rows()]);

    // D² sampling ∝ cost({p}, X_i); weight cost_i/(s_i·q(p)) =
    // (cost_total/s)·1/cost(p) by proportional allocation.
    let drawn = if s_i > 0 && bic.cost > 0.0 {
        let mut rng = rng_from_seed(derive_seed(seed, 200 + i as u64));
        sample_weighted_indices(&mut rng, &a.distances_sq, s_i)
    } else {
        Vec::new()
    };
    let weights = (drawn.iter())
        .map(|&p| bic.cost / (s_i as f64 * a.distances_sq[p]))
        .collect();
    let (points, weights) = deterministic_total(shard, &drawn, weights, &a, &sizes, &bic.centers)?;

    let (wire_points, points_precision) = quantize_for_wire(points, quantizer);
    Ok(Message::Coreset {
        points: wire_points,
        weights,
        delta: 0.0,
        precision: points_precision,
        weights_precision: precision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StagePipeline;
    use crate::params::SummaryParams;
    use crate::stage::Stage;
    use ekm_clustering::cost::cost;
    use ekm_clustering::kmeans::KMeans;
    use ekm_coreset::Coreset;
    use ekm_data::partition::partition_uniform;
    use ekm_data::synth::GaussianMixture;
    use ekm_linalg::ops;
    use ekm_net::Network;

    /// Paper-regime workload: moderate separation, §7.1 normalization
    /// (see the note on the centralized tests' `workload`).
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

    fn shards(data: &Matrix, m: usize) -> Vec<Matrix> {
        partition_uniform(data, m, 99).unwrap()
    }

    /// disPCA steps 1–2 as the executors and the driver run them.
    fn dispca_basis(parts: &[Matrix], t: usize) -> Matrix {
        let summaries: Vec<_> = parts
            .iter()
            .map(|p| local_svd_summary(p, t).unwrap())
            .collect();
        dispca_global_basis(&summaries, t, Precision::Full).unwrap()
    }

    /// disSS steps 1–4 as the executors and the driver run them.
    fn disss_coreset(parts: &[Matrix], k: usize, budget: usize, seed: u64) -> Coreset {
        let bics: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| disss_local_bicriteria(p, k, seed, i, Compute::F64).unwrap())
            .collect();
        let costs: Vec<f64> = bics.iter().map(|b| b.cost).collect();
        let allocations = disss_allocations(&costs, budget);
        let samples: Vec<Coreset> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let msg = disss_local_sample(
                    p,
                    &bics[i],
                    allocations[i],
                    seed,
                    i,
                    None,
                    Precision::Full,
                    Compute::F64,
                )
                .unwrap();
                match msg {
                    Message::Coreset {
                        points,
                        weights,
                        delta,
                        ..
                    } => Coreset::new(points, weights, delta).unwrap(),
                    other => panic!("expected a coreset, got {}", other.kind()),
                }
            })
            .collect();
        Coreset::merge(samples.iter()).unwrap()
    }

    /// The level loop the recursive fold replaced: level `ℓ` merges
    /// position `i + 2^ℓ` into position `i` for every `i` that is a
    /// multiple of `2^(ℓ+1)`, over `ceil(log2 m)` levels, and the root
    /// ends at position 0.
    fn level_fold(
        summaries: &[(Vec<f64>, Matrix)],
        t: usize,
        precision: Precision,
    ) -> (Vec<f64>, Matrix) {
        let mut slots: Vec<_> = summaries.iter().cloned().map(Some).collect();
        let mut stride = 1;
        while stride < slots.len() {
            let mut i = 0;
            while i + stride < slots.len() {
                let (a, b) = (slots[i].take().unwrap(), slots[i + stride].take().unwrap());
                slots[i] = Some(dispca_merge_pair(&a, &b, t, precision).unwrap());
                i += 2 * stride;
            }
            stride *= 2;
        }
        slots[0].take().unwrap()
    }

    #[test]
    fn the_recursive_fold_is_the_level_loop_bit_for_bit() {
        let parts = shards(&workload(9 * 40, 12, 12), 9);
        let summaries: Vec<_> = (parts.iter())
            .map(|p| local_svd_summary(p, 4).unwrap())
            .collect();
        let bits = |(sv, v): &(Vec<f64>, Matrix)| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(sv), v.shape(), bits(v.as_slice()))
        };
        for precision in [Precision::Full, Precision::F32] {
            for m in 1..=9 {
                let got = dispca_fold(&summaries[..m], 4, precision).unwrap();
                let want = level_fold(&summaries[..m], 4, precision);
                assert_eq!(bits(&got), bits(&want), "{m} summaries at {precision:?}");
            }
        }
    }

    #[test]
    fn dispca_basis_is_orthonormal_and_captures_energy() {
        // Strong low-rank structure so a rank-6 basis must capture most
        // energy (no lifting involved, so no need for the paper regime).
        let data = GaussianMixture::new(500, 30, 2)
            .with_separation(12.0)
            .with_cluster_std(1.0)
            .with_seed(1)
            .generate()
            .unwrap()
            .points;
        let parts = shards(&data, 5);
        let basis = dispca_basis(&parts, 6);
        assert_eq!(basis.shape(), (30, 6));
        let g = ops::gram(&basis);
        assert!(g.approx_eq(&Matrix::identity(6), 1e-6));
        let coords_energy: f64 = parts
            .iter()
            .map(|s| ops::matmul(s, &basis).unwrap().frobenius_norm_sq())
            .sum();
        let total: f64 = parts.iter().map(|s| s.frobenius_norm_sq()).sum();
        assert!(
            coords_energy / total > 0.8,
            "captured {}",
            coords_energy / total
        );
    }

    #[test]
    fn dispca_close_to_centralized_pca() {
        let data = workload(400, 20, 2);
        let parts = shards(&data, 4);
        let basis = dispca_basis(&parts, 5);
        // Residual energy of the distributed basis vs the centralized one.
        let coords = ops::matmul(&data, &basis).unwrap();
        let dist_resid = data.frobenius_norm_sq() - coords.frobenius_norm_sq();
        let pca = ekm_sketch::Pca::fit(&data, 5).unwrap();
        let cent_resid = pca.residual_sq();
        assert!(
            dist_resid <= 1.2 * cent_resid + 1e-6,
            "disPCA residual {dist_resid} vs centralized {cent_resid}"
        );
    }

    #[test]
    fn disss_coreset_weight_matches_n() {
        let data = workload(600, 10, 3);
        let coreset = disss_coreset(&shards(&data, 6), 2, 80, 7);
        assert!(
            (coreset.total_weight() - 600.0).abs() < 1e-6,
            "Σw = {}",
            coreset.total_weight()
        );
        assert_eq!(coreset.delta(), 0.0);
    }

    #[test]
    fn disss_coreset_approximates_cost() {
        let data = workload(800, 8, 4);
        let coreset = disss_coreset(&shards(&data, 4), 2, 200, 8);
        for trial in 0..3 {
            let x = ekm_linalg::random::gaussian_matrix(40 + trial, 2, 8, 6.0);
            let truth = cost(&data, &x).unwrap();
            let approx = coreset.cost(&x).unwrap();
            let ratio = approx / truth;
            assert!((0.6..=1.4).contains(&ratio), "distortion {ratio}");
        }
    }

    #[test]
    fn bklw_and_jlbklw_produce_good_centers() {
        let data = workload(900, 60, 5);
        let parts = shards(&data, 10);
        let reference = KMeans::new(2)
            .with_seed(1)
            .with_n_init(5)
            .fit(&data)
            .unwrap();
        for (name, out) in [
            (
                "BKLW",
                Bklw::new(SummaryParams::practical(2, 900, 60).with_seed(3))
                    .run_shards(&parts, &mut Network::new(10))
                    .unwrap(),
            ),
            (
                "JL+BKLW",
                JlBklw::new(SummaryParams::practical(2, 900, 60).with_seed(3))
                    .run_shards(&parts, &mut Network::new(10))
                    .unwrap(),
            ),
        ] {
            assert_eq!(out.centers.shape(), (2, 60), "{name}");
            let c = cost(&data, &out.centers).unwrap();
            let ratio = c / reference.inertia;
            assert!(ratio < 1.35, "{name}: normalized cost {ratio}");
        }
    }

    #[test]
    fn jl_bklw_sends_fewer_bits_for_high_dim() {
        let data = workload(600, 300, 6);
        let parts = shards(&data, 5);
        let params = SummaryParams::practical(2, 600, 300).with_seed(4);
        let mut net1 = Network::new(5);
        let bklw = Bklw::new(params.clone())
            .run_shards(&parts, &mut net1)
            .unwrap();
        let mut net2 = Network::new(5);
        let jl = JlBklw::new(params).run_shards(&parts, &mut net2).unwrap();
        assert!(
            jl.uplink_bits < bklw.uplink_bits,
            "JL+BKLW {} vs BKLW {}",
            jl.uplink_bits,
            bklw.uplink_bits
        );
    }

    #[test]
    fn quantized_variants_cut_bits() {
        let data = workload(500, 40, 7);
        let parts = shards(&data, 5);
        let base = SummaryParams::practical(2, 500, 40).with_seed(5);
        let q = ekm_quant::RoundingQuantizer::new(8).unwrap();
        let mut net1 = Network::new(5);
        let plain = Bklw::new(base.clone())
            .run_shards(&parts, &mut net1)
            .unwrap();
        let mut net2 = Network::new(5);
        let quant = Bklw::new(base.with_quantizer(q))
            .run_shards(&parts, &mut net2)
            .unwrap();
        assert!(quant.uplink_bits < plain.uplink_bits);
        let c_plain = cost(&data, &plain.centers).unwrap();
        let c_quant = cost(&data, &quant.centers).unwrap();
        assert!(c_quant < 1.3 * c_plain, "QT cost {c_quant} vs {c_plain}");
    }

    #[test]
    fn names() {
        let p = SummaryParams::practical(2, 100, 10);
        assert_eq!(Bklw::new(p.clone()).name(), "BKLW");
        assert_eq!(JlBklw::new(p.clone()).name(), "JL+BKLW");
        let q = ekm_quant::RoundingQuantizer::new(4).unwrap();
        assert_eq!(Bklw::new(p.clone().with_quantizer(q)).name(), "BKLW+QT");
        assert_eq!(JlBklw::new(p.with_quantizer(q)).name(), "JL+BKLW+QT");
    }

    #[test]
    fn config_errors() {
        let p = SummaryParams::practical(2, 100, 10);
        let mut net = Network::new(2);
        assert!(Bklw::new(p.clone()).run_shards(&[], &mut net).is_err());
        // More shards than the ledger tracks.
        let data = workload(40, 5, 8);
        let parts = shards(&data, 4);
        assert!(Bklw::new(p.clone()).run_shards(&parts, &mut net).is_err());
        // Zero disSS budget.
        let mut net4 = Network::new(4);
        let zero = StagePipeline::new(vec![Stage::disss()], p.with_coreset_size(0));
        assert!(zero.run_shards(&parts, &mut net4).is_err());
    }

    #[test]
    fn disss_handles_zero_cost_shards() {
        // One shard entirely at a single point: cost 0, allocation 0,
        // still contributes its center with the right weight.
        let a = Matrix::from_fn(50, 3, |_, _| 2.0);
        let b = workload(50, 3, 9);
        let coreset = disss_coreset(&[a, b], 2, 30, 1);
        assert!((coreset.total_weight() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = workload(300, 20, 10);
        let parts = shards(&data, 3);
        let params = SummaryParams::practical(2, 300, 20).with_seed(21);
        let a = JlBklw::new(params.clone())
            .run_shards(&parts, &mut Network::new(3))
            .unwrap();
        let b = JlBklw::new(params)
            .run_shards(&parts, &mut Network::new(3))
            .unwrap();
        assert!(a.centers.approx_eq(&b.centers, 0.0));
        assert_eq!(a.uplink_bits, b.uplink_bits);
    }

    #[test]
    fn bklw_jl_variant_runs_but_does_not_beat_bklw_on_comm() {
        // §5.2: applying JL *after* BKLW keeps the same communication
        // order (the disPCA summaries dominate) — the reason the paper
        // dismisses this ordering in the distributed setting.
        let data = workload(600, 80, 11);
        let parts = shards(&data, 5);
        let params = SummaryParams::practical(2, 600, 80).with_seed(13);
        let plain = Bklw::new(params.clone())
            .run_shards(&parts, &mut Network::new(5))
            .unwrap();
        let after = BklwJl::new(params)
            .run_shards(&parts, &mut Network::new(5))
            .unwrap();
        assert_eq!(after.centers.shape(), (2, 80));
        assert!(after.centers.as_slice().iter().all(|v| v.is_finite()));
        // Same order of magnitude: no dramatic saving from the late JL.
        assert!(
            after.uplink_bits * 2 > plain.uplink_bits,
            "BKLW+JL {} vs BKLW {} — late JL should not halve the bits",
            after.uplink_bits,
            plain.uplink_bits
        );
        let c = cost(&data, &after.centers).unwrap();
        let reference = KMeans::new(2)
            .with_seed(1)
            .with_n_init(5)
            .fit(&data)
            .unwrap();
        assert!(
            c / reference.inertia < 1.5,
            "BKLW+JL cost ratio {}",
            c / reference.inertia
        );
    }

    #[test]
    fn bklw_jl_name() {
        let p = SummaryParams::practical(2, 100, 10);
        assert_eq!(BklwJl::new(p.clone()).name(), "BKLW+JL");
        let q = ekm_quant::RoundingQuantizer::new(4).unwrap();
        assert_eq!(BklwJl::new(p.with_quantizer(q)).name(), "BKLW+JL+QT");
    }
}
