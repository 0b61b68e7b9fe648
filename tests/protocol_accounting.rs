//! Integration tests of the communication accounting: the bits the
//! pipelines report must be exactly the bits the wire format produced.

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::net::messages::Message;
use edge_kmeans::net::wire::Precision;
use edge_kmeans::prelude::*;

fn workload(n: usize, side: usize, seed: u64) -> Matrix {
    let ds = MnistLike::new(n, side).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

#[test]
fn pipeline_bits_match_network_counters() {
    let data = workload(600, 10, 1);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(2);
    let mut net = Network::new(1);
    let out = JlFssJl::new(params).run(&data, &mut net).unwrap();
    assert_eq!(out.uplink_bits, net.stats().total_uplink_bits());
    assert_eq!(out.downlink_bits, net.stats().total_downlink_bits());
}

#[test]
fn fss_uplink_decomposes_into_basis_plus_coreset() {
    // Recompute the exact expected bit count of the FSS transmission from
    // its components and compare with the pipeline's measurement.
    let data = workload(500, 10, 3);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(4);
    let mut net = Network::new(1);
    let out = Fss::new(params.clone()).run(&data, &mut net).unwrap();

    // Rebuild the identical summary (same seed) and encode it manually.
    let fss = edge_kmeans::coreset::FssBuilder::new(2)
        .with_pca_dim(params.effective_pca_dim(d))
        .with_sample_size(params.coreset_size)
        .with_seed(ekm_linalg::random::derive_seed(params.seed, 3)) // seeds::FSS
        .build(&data)
        .unwrap();
    let basis_bits = Message::Basis {
        basis: fss.basis().clone(),
        precision: Precision::Full,
    }
    .encode()
    .1;
    let coreset_bits = Message::Coreset {
        points: fss.coordinates().clone(),
        weights: fss.weights().to_vec(),
        delta: fss.delta(),
        precision: Precision::Full,
        weights_precision: Precision::Full,
    }
    .encode()
    .1;
    assert_eq!(out.uplink_bits, (basis_bits + coreset_bits) as u64);
}

#[test]
fn quantized_bits_scale_with_s() {
    // The coreset-point payload is |S|·d''·(12+s) bits; check the slope.
    let data = workload(700, 10, 5);
    let (n, d) = data.shape();
    let base = SummaryParams::practical(2, n, d).with_seed(6);
    let bits_at = |s: u32| {
        let q = RoundingQuantizer::new(s).unwrap();
        let mut net = Network::new(1);
        JlFssJl::new(base.clone().with_quantizer(q))
            .run(&data, &mut net)
            .unwrap()
            .uplink_bits
    };
    let b8 = bits_at(8);
    let b16 = bits_at(16);
    let b32 = bits_at(32);
    // Same summary shape at every s (same seed): the point-payload slope
    // is exactly |S|·d'' bits per extra significand bit.
    let slope1 = (b16 - b8) as f64 / 8.0;
    let slope2 = (b32 - b16) as f64 / 16.0;
    assert!(
        (slope1 - slope2).abs() < 1e-9,
        "payload slope not constant: {slope1} vs {slope2}"
    );
    assert!(slope1 > 0.0);
}

#[test]
fn distributed_total_is_sum_of_sources() {
    let data = workload(900, 10, 7);
    let (n, d) = data.shape();
    let shards = partition_uniform(&data, 5, 8).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(9);
    let mut net = Network::new(5);
    let out = Bklw::new(params).run_shards(&shards, &mut net).unwrap();
    let per_source: u64 = (0..5).map(|i| net.stats().uplink_bits(i)).sum();
    assert_eq!(out.uplink_bits, per_source);
}

#[test]
fn rerunning_same_pipeline_same_bits() {
    let data = workload(500, 10, 9);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(10);
    let run = || {
        let mut net = Network::new(1);
        FssJl::new(params.clone())
            .run(&data, &mut net)
            .unwrap()
            .uplink_bits
    };
    assert_eq!(run(), run());
}

#[test]
fn downlink_only_in_distributed_protocols() {
    let data = workload(500, 10, 11);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(12);
    // Centralized pipelines never use the downlink.
    let mut net = Network::new(1);
    let out = JlFss::new(params.clone()).run(&data, &mut net).unwrap();
    assert_eq!(out.downlink_bits, 0);
    // Distributed ones do (basis broadcast + allocations).
    let shards = partition_uniform(&data, 4, 13).unwrap();
    let mut net4 = Network::new(4);
    let out = Bklw::new(params).run_shards(&shards, &mut net4).unwrap();
    assert!(out.downlink_bits > 0);
}

#[test]
fn bklw_uplink_dominated_by_svd_summaries() {
    // The §5.2 argument quantified: in BKLW the disPCA SVD summaries are
    // the dominant uplink phase for wide data, which is exactly the term
    // Algorithm 4's pre-projection shrinks.
    let data = workload(800, 14, 15); // 196-dim
    let (n, d) = data.shape();
    let shards = partition_uniform(&data, 5, 16).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(17);
    let mut net = Network::new(5);
    let out = Bklw::new(params.clone())
        .run_shards(&shards, &mut net)
        .unwrap();
    let by_kind = net.stats().uplink_bits_by_kind();
    let svd = by_kind["svd-summary"];
    let coreset = by_kind["coreset"];
    let reports = by_kind["cost-report"];
    assert_eq!(svd + coreset + reports, out.uplink_bits);
    assert!(
        svd > coreset,
        "svd {svd} should dominate coreset {coreset} for wide data"
    );
    // Footnote 1: the scalar cost-report round is negligible.
    assert!(reports * 100 < out.uplink_bits);

    // And JL+BKLW shrinks precisely the svd-summary term.
    let mut net2 = Network::new(5);
    let _ = JlBklw::new(params).run_shards(&shards, &mut net2).unwrap();
    let svd_jl = net2.stats().uplink_bits_by_kind()["svd-summary"];
    assert!(
        svd_jl < svd,
        "JL+BKLW svd bits {svd_jl} should be below BKLW's {svd}"
    );
}
