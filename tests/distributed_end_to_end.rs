//! End-to-end integration tests for the multi-source pipelines
//! (§7.2 Figure 2 / Table 4 conditions, scaled; 10 data sources as in the
//! paper).

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::{partition_skewed, partition_uniform};
use edge_kmeans::prelude::*;

fn workload(n: usize, side: usize, seed: u64) -> Matrix {
    let ds = MnistLike::new(n, side).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

#[test]
fn figure2_regime_both_pipelines_close_to_reference() {
    let data = workload(1500, 12, 1);
    let (n, d) = data.shape();
    let shards = partition_uniform(&data, 10, 3).unwrap();
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(4);
    for pipe in [
        Bklw::new(params.clone()).into_stage_pipeline(),
        JlBklw::new(params.clone()).into_stage_pipeline(),
    ] {
        let mut net = Network::new(10);
        let out = pipe.run_shards(&shards, &mut net).unwrap();
        let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
        // Paper Fig. 2: both land within ~2-10% of optimal.
        assert!(nc < 1.25, "{}: normalized cost {nc}", pipe.name());
        assert_eq!(out.centers.shape(), (2, d));
    }
}

#[test]
fn table4_shape_jl_bklw_cheaper_than_bklw() {
    let data = workload(2000, 16, 2);
    let (n, d) = data.shape();
    let shards = partition_uniform(&data, 10, 5).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(6);
    let mut net1 = Network::new(10);
    let bklw = Bklw::new(params.clone())
        .run_shards(&shards, &mut net1)
        .unwrap();
    let mut net2 = Network::new(10);
    let jl = JlBklw::new(params).run_shards(&shards, &mut net2).unwrap();
    let c_bklw = bklw.normalized_comm(n, d);
    let c_jl = jl.normalized_comm(n, d);
    assert!(c_bklw < 0.5, "BKLW comm {c_bklw} not a reduction");
    assert!(
        c_jl < c_bklw,
        "JL+BKLW ({c_jl}) must beat BKLW ({c_bklw}) on communication"
    );
}

#[test]
fn every_source_participates_in_uplink() {
    let data = workload(1200, 12, 3);
    let (n, d) = data.shape();
    let shards = partition_uniform(&data, 10, 7).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(8);
    let mut net = Network::new(10);
    let _ = JlBklw::new(params).run_shards(&shards, &mut net).unwrap();
    for i in 0..10 {
        assert!(net.stats().uplink_bits(i) > 0, "source {i} sent nothing");
        assert!(
            net.stats().downlink_bits(i) > 0,
            "source {i} received nothing (basis broadcast missing?)"
        );
    }
    // Protocol round count: SVD summary + cost report + samples = 3 uplink
    // messages per source; basis broadcast + allocation = 2 downlink.
    assert_eq!(net.stats().total_uplink_messages(), 30);
    assert_eq!(net.stats().total_downlink_messages(), 20);
}

#[test]
fn skewed_shards_still_work() {
    let data = workload(1500, 12, 4);
    let (n, d) = data.shape();
    // Highly imbalanced devices (geometric share sizes).
    let shards = partition_skewed(&data, 10, 0.6, 9).unwrap();
    let reference = evaluation::reference(&data, 2, 5, 2).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(10);
    let mut net = Network::new(10);
    let out = JlBklw::new(params).run_shards(&shards, &mut net).unwrap();
    let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
    assert!(nc < 1.3, "skewed-shard normalized cost {nc}");
}

#[test]
fn distributed_matches_centralized_quality() {
    // Splitting the data across sources should not cost much quality
    // relative to the centralized JL+FSS pipeline on the union.
    let data = workload(1500, 12, 5);
    let (n, d) = data.shape();
    let reference = evaluation::reference(&data, 2, 5, 3).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(11);

    let mut net1 = Network::new(1);
    let central = JlFss::new(params.clone()).run(&data, &mut net1).unwrap();
    let nc_central = evaluation::normalized_cost(&data, &central.centers, reference.cost).unwrap();

    let shards = partition_uniform(&data, 10, 12).unwrap();
    let mut net10 = Network::new(10);
    let dist = JlBklw::new(params).run_shards(&shards, &mut net10).unwrap();
    let nc_dist = evaluation::normalized_cost(&data, &dist.centers, reference.cost).unwrap();

    assert!(
        nc_dist < nc_central + 0.25,
        "distributed {nc_dist} much worse than centralized {nc_central}"
    );
}

#[test]
fn quantized_distributed_pipelines() {
    let data = workload(1200, 12, 6);
    let (n, d) = data.shape();
    let shards = partition_uniform(&data, 10, 13).unwrap();
    let reference = evaluation::reference(&data, 2, 5, 4).unwrap();
    let q = RoundingQuantizer::new(10).unwrap();
    let base = SummaryParams::practical(2, n, d).with_seed(14);

    let mut net1 = Network::new(10);
    let plain = JlBklw::new(base.clone())
        .run_shards(&shards, &mut net1)
        .unwrap();
    let mut net2 = Network::new(10);
    let quant = JlBklw::new(base.with_quantizer(q))
        .run_shards(&shards, &mut net2)
        .unwrap();

    assert!(
        quant.uplink_bits < plain.uplink_bits,
        "quantized {} >= plain {}",
        quant.uplink_bits,
        plain.uplink_bits
    );
    let nc = evaluation::normalized_cost(&data, &quant.centers, reference.cost).unwrap();
    assert!(nc < 1.3, "quantized distributed cost {nc}");
}
