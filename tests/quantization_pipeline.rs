//! Integration tests for the joint DR/CR/QT extension (paper §6), plus
//! the F32 auxiliary-payload precision (`ekm run --precision f32`).

use edge_kmeans::clustering::lower_bound::cost_lower_bound;
use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::net::wire::Precision;
use edge_kmeans::prelude::*;

fn workload(n: usize, side: usize, seed: u64) -> Matrix {
    let ds = MnistLike::new(n, side).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

#[test]
fn comm_bits_increase_monotonically_with_s() {
    // Figure 3(b)/4(b): the transmitted bits grow linearly in s.
    let data = workload(1000, 12, 1);
    let (n, d) = data.shape();
    let base = SummaryParams::practical(2, n, d).with_seed(2);
    let mut last = 0u64;
    for s in [4u32, 12, 24, 40, 52] {
        let q = RoundingQuantizer::new(s).unwrap();
        let mut net = Network::new(1);
        let out = JlFssJl::new(base.clone().with_quantizer(q))
            .run(&data, &mut net)
            .unwrap();
        assert!(
            out.uplink_bits > last,
            "bits not increasing at s={s}: {} <= {last}",
            out.uplink_bits
        );
        last = out.uplink_bits;
    }
}

#[test]
fn quantized_summary_never_much_worse_than_full_precision() {
    // Figure 3(a)/4(a) right-hand plateau: moderate-to-large s matches the
    // unquantized cost.
    let data = workload(1000, 12, 3);
    let (n, d) = data.shape();
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let base = SummaryParams::practical(2, n, d).with_seed(4);
    let mut net = Network::new(1);
    let plain = JlFssJl::new(base.clone()).run(&data, &mut net).unwrap();
    let nc_plain = evaluation::normalized_cost(&data, &plain.centers, reference.cost).unwrap();
    for s in [12u32, 24, 52] {
        let q = RoundingQuantizer::new(s).unwrap();
        let out = JlFssJl::new(base.clone().with_quantizer(q))
            .run(&data, &mut net)
            .unwrap();
        let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
        assert!(
            nc < nc_plain + 0.1,
            "s={s}: quantized cost {nc} vs plain {nc_plain}"
        );
    }
}

#[test]
fn all_quantized_pipeline_variants_run() {
    let data = workload(800, 10, 5);
    let (n, d) = data.shape();
    let q = RoundingQuantizer::new(16).unwrap();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(6)
        .with_quantizer(q);
    let variants: Vec<Box<dyn CentralizedPipeline>> = vec![
        Box::new(Fss::new(params.clone())),
        Box::new(JlFss::new(params.clone())),
        Box::new(FssJl::new(params.clone())),
        Box::new(JlFssJl::new(params.clone())),
    ];
    for pipe in variants {
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        assert!(pipe.name().ends_with("+QT"), "{}", pipe.name());
        assert!(out.centers.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn section63_optimizer_on_real_lower_bound() {
    // Build the full §6.3 stack: adaptive-sampling lower bound E, then the
    // optimizer, then run the chosen configuration end to end.
    let data = workload(900, 10, 7);
    let (n, d) = data.shape();
    let weights = vec![1.0; n];
    let e = cost_lower_bound(&data, &weights, 2, 0.1, 8).unwrap();
    assert!(e.lower_bound > 0.0);

    let optimizer = QtOptimizer {
        n,
        d,
        k: 2,
        y0: 2.5,
        delta0: 0.1,
        lower_bound_e: e.lower_bound,
        diameter: 2.0 * (d as f64).sqrt(),
        max_norm: data.max_row_norm(),
    };
    let report = optimizer.optimize().unwrap();
    let s_star = report.best().s;
    assert!((1..=52).contains(&s_star));

    // The chosen s must be *feasible* and runnable end to end.
    let q = report.best_quantizer();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(9)
        .with_quantizer(q);
    let mut net = Network::new(1);
    let out = JlFssJl::new(params).run(&data, &mut net).unwrap();
    let reference = evaluation::reference(&data, 2, 5, 2).unwrap();
    let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
    // The optimizer's bound Y0 = 2.5 is loose; empirically we stay near 1.
    assert!(
        nc < 2.5,
        "normalized cost {nc} violates the optimizer bound"
    );
}

/// Relative Frobenius distance between two center sets — the "center
/// perturbation" metric of the F32 accuracy contract.
fn relative_center_perturbation(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        diff += (x - y) * (x - y);
        norm += x * x;
    }
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

#[test]
fn f32_aux_precision_cuts_bits_with_bounded_perturbation() {
    // `--precision f32` halves the basis + weight payloads. That is NOT
    // a bit-identity contract (the basis really is rounded): the
    // assertions are a relative center perturbation and a cost-ratio
    // bound, the accuracy analogue of the §6 quantization plateau.
    let data = workload(900, 12, 13);
    let (n, d) = data.shape();
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let base = SummaryParams::practical(2, n, d).with_seed(14);
    // FSS ships the basis (the payload f32 shrinks) plus the weights.
    let run_at = |p: SummaryParams| {
        let mut net = Network::new(1);
        let out = JlFss::new(p).run(&data, &mut net).unwrap();
        (out, net.stats().clone())
    };
    let (full, _) = run_at(base.clone());
    let (single, _) = run_at(base.clone().with_precision(Precision::F32));

    assert!(
        single.uplink_bits < full.uplink_bits,
        "f32 {} vs full {}",
        single.uplink_bits,
        full.uplink_bits
    );
    let rel = relative_center_perturbation(&full.centers, &single.centers);
    assert!(rel < 1e-2, "relative center perturbation {rel}");
    let nc_full = evaluation::normalized_cost(&data, &full.centers, reference.cost).unwrap();
    let nc_single = evaluation::normalized_cost(&data, &single.centers, reference.cost).unwrap();
    assert!(
        nc_single < nc_full * 1.05 + 0.01,
        "f32 cost {nc_single} vs full {nc_full}"
    );
    // Reruns at f32 are still fully deterministic.
    let (again, _) = run_at(base.with_precision(Precision::F32));
    assert_eq!(again.uplink_bits, single.uplink_bits);
    assert!(again.centers.approx_eq(&single.centers, 0.0));
}

#[test]
fn f32_aux_precision_shrinks_distributed_svd_summaries() {
    // In BKLW the disPCA SVD summaries dominate the uplink; f32 halves
    // exactly that term, and the sources project onto the rounded basis
    // with a bounded accuracy cost.
    let data = workload(800, 14, 15);
    let (n, d) = data.shape();
    let shards = edge_kmeans::data::partition::partition_uniform(&data, 5, 16).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(17);
    let reference = evaluation::reference(&data, 2, 5, 2).unwrap();

    let mut net_full = Network::new(5);
    let full = Bklw::new(params.clone())
        .run(&shards, &mut net_full)
        .unwrap();
    let mut net_single = Network::new(5);
    let single = Bklw::new(params.with_precision(Precision::F32))
        .run(&shards, &mut net_single)
        .unwrap();

    let svd_full = net_full.stats().uplink_bits_by_kind()["svd-summary"];
    let svd_single = net_single.stats().uplink_bits_by_kind()["svd-summary"];
    // The matrix payload halves; only the shape/tag overhead survives.
    assert!(
        (svd_single as f64) < 0.6 * svd_full as f64,
        "f32 svd bits {svd_single} vs full {svd_full}"
    );
    assert!(single.downlink_bits < full.downlink_bits, "basis broadcast");

    let nc_full = evaluation::normalized_cost(&data, &full.centers, reference.cost).unwrap();
    let nc_single = evaluation::normalized_cost(&data, &single.centers, reference.cost).unwrap();
    assert!(
        nc_single < nc_full * 1.1 + 0.02,
        "f32 cost {nc_single} vs full {nc_full}"
    );
}

#[test]
fn eq14_error_bound_holds_on_pipeline_payloads() {
    // The quantization error of the actual transmitted coreset points
    // respects Δ_QT ≤ 2^{-s}·max‖p‖ (paper eq. (14)).
    let data = workload(600, 10, 9);
    for s in [3u32, 8, 20] {
        let q = RoundingQuantizer::new(s).unwrap();
        let measured = q.measured_max_error(&data);
        let bound = q.max_error_bound(data.max_row_norm());
        assert!(
            measured <= bound * (1.0 + 1e-12),
            "s={s}: {measured} > {bound}"
        );
    }
}

#[test]
fn wire_payload_is_exactly_representable() {
    // decode(encode(Γ(x))) == Γ(x) bit for bit, through the wire payload.
    let data = workload(300, 8, 11);
    let q = RoundingQuantizer::new(7).unwrap();
    let quantized = q.quantize_matrix(&data);
    let msg = edge_kmeans::net::messages::Message::Coreset {
        points: quantized.clone(),
        weights: vec![1.0; quantized.rows()],
        delta: 0.0,
        precision: edge_kmeans::net::wire::Precision::Quantized { s: 7 },
        weights_precision: edge_kmeans::net::wire::Precision::Full,
    };
    let received = edge_kmeans::net::protocol::Payload::of(&msg)
        .decode()
        .unwrap();
    match received {
        edge_kmeans::net::messages::Message::Coreset { points, .. } => {
            assert!(points.approx_eq(&quantized, 0.0), "wire not bit-exact");
        }
        _ => panic!("wrong message type"),
    }
}
