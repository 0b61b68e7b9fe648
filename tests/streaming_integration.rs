//! Integration: streaming collection composed with the paper's
//! DR/CR/QT summary machinery, end to end through the protocol.

use edge_kmeans::coreset::StreamingCoreset;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::messages::Message;
use edge_kmeans::net::protocol::Payload;
use edge_kmeans::net::wire::Precision;
use edge_kmeans::prelude::*;

fn workload(n: usize, d: usize, seed: u64) -> Matrix {
    let raw = GaussianMixture::new(n, d, 2)
        .with_separation(4.0)
        .with_seed(seed)
        .generate()
        .unwrap()
        .points;
    normalize_paper(&raw).0
}

/// `true` when the CI matrix (or a local run) asks for the full-scale
/// axis: `EKM_SCALE=full` grows the streamed workloads by an order of
/// magnitude, so the sharded server solve and the merge-and-reduce tree
/// run at depth.
fn full_scale() -> bool {
    std::env::var("EKM_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("full"))
}

/// Smoke-vs-full cardinality for the stream-stage tests.
fn scaled(n_smoke: usize) -> usize {
    if full_scale() {
        n_smoke * 10
    } else {
        n_smoke
    }
}

#[test]
fn stream_stage_pipeline_is_seed_deterministic() {
    let data = workload(scaled(3_000), 20, 21);
    let (n, d) = data.shape();
    let p = SummaryParams::practical(2, n, d).with_seed(9);
    let pipe = StagePipeline::from_names("jl,stream,qt", p).unwrap();
    let run = || {
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        (out, net.stats().clone())
    };
    let (a, stats_a) = run();
    let (b, stats_b) = run();
    assert_eq!(a.uplink_bits, b.uplink_bits);
    assert_eq!(a.summary_points, b.summary_points);
    assert_eq!(stats_a, stats_b);
    for (x, y) in a.centers.as_slice().iter().zip(b.centers.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn stream_stage_cost_within_fss_bound_factor_of_batch() {
    // Both the streamed and the batch FSS summaries are (1±ε)-coresets,
    // so the centers they induce can differ in data cost by at most the
    // bound factor (1+ε)/(1−ε) — empirically they sit within a few
    // percent of each other.
    let data = workload(scaled(3_000), 16, 22);
    let (n, d) = data.shape();
    let p = SummaryParams::practical(2, n, d).with_seed(4);
    let bound_factor = (1.0 + p.epsilon) / (1.0 - p.epsilon);

    let cost_of = |list: &str| {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        ekm_clustering::cost::cost(&data, &out.centers).unwrap()
    };
    let streamed = cost_of("jl,stream,qt");
    let batch = cost_of("jl,fss,qt");
    let ratio = streamed / batch;
    assert!(
        ratio <= bound_factor && ratio >= 1.0 / bound_factor,
        "stream/batch cost ratio {ratio} outside the FSS bound factor {bound_factor}"
    );
    // And far inside it in practice.
    assert!(ratio < 1.3, "stream/batch cost ratio {ratio}");
}

#[test]
fn stream_stage_bounds_summary_and_uplink() {
    let data = workload(scaled(4_000), 24, 23);
    let (n, d) = data.shape();
    let p = SummaryParams::practical(2, n, d)
        .with_seed(5)
        .with_coreset_size(160);
    let shards = edge_kmeans::data::partition::partition_uniform(&data, 4, 6).unwrap();
    let pipe = StagePipeline::from_names("jl,stream,qt", p).unwrap();
    let mut net = Network::new(4);
    let out = pipe.run_shards(&shards, &mut net).unwrap();
    // Four bounded summaries, not four shards.
    assert!(out.summary_points < n / 4, "{} points", out.summary_points);
    assert!(
        net.stats().normalized_uplink(n, d) < 0.1,
        "normalized comm {}",
        net.stats().normalized_uplink(n, d)
    );
    // The whole stream's weight reaches the server.
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
    assert!(nc < 1.5, "streamed pipeline cost {nc}");
}

#[test]
fn stream_then_ship_then_solve() {
    let data = workload(4_000, 24, 1);
    let (n, d) = data.shape();

    // Device: stream the data in bursts into a bounded summary.
    let mut stream = StreamingCoreset::new(2, 256, 128).with_seed(2);
    for chunk in (0..n).step_by(500) {
        let idx: Vec<usize> = (chunk..(chunk + 500).min(n)).collect();
        stream.push_batch(&data.select_rows(&idx)).unwrap();
    }
    let coreset = stream.finalize().unwrap();
    assert!((coreset.total_weight() - n as f64).abs() < 1e-6);

    // Device: project (shared seed) + quantize, then ship one message.
    let pi = JlProjection::generate(JlKind::Gaussian, d, 12, 77);
    let q = RoundingQuantizer::new(12).unwrap();
    let projected = pi.project(coreset.points()).unwrap();
    let shipped = q.quantize_matrix(&projected);
    let msg = Message::Coreset {
        points: shipped,
        weights: coreset.weights().to_vec(),
        delta: coreset.delta(),
        precision: Precision::Quantized { s: 12 },
        weights_precision: Precision::Full,
    };
    let payload = Payload::of(&msg);
    let received = payload.decode().unwrap();

    // Server: solve in projected space, lift with the shared-seed Π⁺.
    let (points, weights) = match received {
        Message::Coreset {
            points, weights, ..
        } => (points, weights),
        _ => panic!("wrong message"),
    };
    let model = KMeans::new(2)
        .with_n_init(3)
        .with_seed(3)
        .fit_weighted(&points, &weights)
        .unwrap();
    let pi_server = JlProjection::generate(JlKind::Gaussian, d, 12, 77);
    let centers = pi_server.lift(&model.centers).unwrap();

    // Quality: close to the full-data reference despite streaming + DR +
    // QT + the wire round-trip.
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let nc = evaluation::normalized_cost(&data, &centers, reference.cost).unwrap();
    assert!(nc < 1.5, "stream+DR+QT normalized cost {nc}");

    // And the message was genuinely small: well under 5% of raw bits.
    let norm_comm = payload.bits() as f64 / (n * d * 64) as f64;
    assert!(norm_comm < 0.05, "normalized comm {norm_comm}");
}

#[test]
fn streaming_matches_batch_summary_quality() {
    let data = workload(3_000, 16, 4);
    let reference = evaluation::reference(&data, 2, 5, 2).unwrap();

    // Batch: one-shot sensitivity sampling at the same budget.
    let batch = edge_kmeans::coreset::SensitivitySampler::new(2, 128)
        .with_seed(5)
        .sample(&data, None)
        .unwrap();
    // Stream: same budget via merge-and-reduce.
    let mut stream = StreamingCoreset::new(2, 256, 128).with_seed(5);
    stream.push_batch(&data).unwrap();
    let streamed = stream.finalize().unwrap();

    let solve = |c: &Coreset| {
        let model = KMeans::new(2)
            .with_n_init(3)
            .with_seed(1)
            .fit_weighted(c.points(), c.weights())
            .unwrap();
        evaluation::normalized_cost(&data, &model.centers, reference.cost).unwrap()
    };
    let nc_batch = solve(&batch);
    let nc_stream = solve(&streamed);
    assert!(nc_batch < 1.2, "batch {nc_batch}");
    assert!(
        nc_stream < nc_batch + 0.2,
        "stream {nc_stream} much worse than batch {nc_batch}"
    );
}

#[test]
fn interleaved_streams_from_multiple_devices() {
    // Two devices stream independently; the server merges their final
    // summaries — the one-round distributed story with streaming sources.
    let data = workload(2_000, 12, 6);
    let (left, right) = {
        let idx_a: Vec<usize> = (0..1000).collect();
        let idx_b: Vec<usize> = (1000..2000).collect();
        (data.select_rows(&idx_a), data.select_rows(&idx_b))
    };
    let mut streams = [
        StreamingCoreset::new(2, 128, 64).with_seed(7),
        StreamingCoreset::new(2, 128, 64).with_seed(8),
    ];
    streams[0].push_batch(&left).unwrap();
    streams[1].push_batch(&right).unwrap();
    let parts: Vec<Coreset> = streams.iter().map(|s| s.finalize().unwrap()).collect();
    let union = Coreset::merge(parts.iter()).unwrap();
    assert!((union.total_weight() - 2000.0).abs() < 1e-6);

    let model = KMeans::new(2)
        .with_n_init(3)
        .with_seed(2)
        .fit_weighted(union.points(), union.weights())
        .unwrap();
    let reference = evaluation::reference(&data, 2, 5, 3).unwrap();
    let nc = evaluation::normalized_cost(&data, &model.centers, reference.cost).unwrap();
    assert!(nc < 1.3, "two-device streamed cost {nc}");
}
