//! Transport-equivalence tests: a pipeline run over the event-driven
//! TCP backend (`ekm_net::event`) — the driver on real loopback sockets,
//! one executor per source holding only its shard — must be
//! indistinguishable from the in-process run: the same `NetworkStats` to
//! the bit (total, per source, per message kind), bit-identical centers,
//! and equal deterministic op counts, for every named paper pipeline and
//! for arbitrary `--stages` compositions. The reference is
//! `StagePipeline::run_shards` over a `Network` ledger (executor threads
//! borrowing the caller's shards); `run_channel_detailed`, whose
//! executors own theirs, must match it as well.
//!
//! Both protocol backends also prove *isolation*: a source's entire
//! downlink is the basis broadcast and the sample allocation — it never
//! receives any other source's shard (asserted on the bytes and message
//! kinds each executor observed). `tests/golden/` pins the results of
//! these configurations themselves.

use edge_kmeans::core::executor::SourceExecutor;
use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::net::event::{EventServerBinding, EventTcpSource};
use edge_kmeans::net::{CommandTransport, NetworkStats};
use edge_kmeans::prelude::*;
use std::time::Duration;

const SOURCES: usize = 4;
const FP: u64 = 0x7E57_C0DE;

fn workload(seed: u64) -> Matrix {
    let ds = MnistLike::new(360, 8).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

/// `EKM_COMPUTE=f32` reruns the whole equivalence matrix under the f32
/// distance kernels: transports must agree with the reference run at
/// either compute precision (f64 stays the default leg).
fn params(data: &Matrix) -> SummaryParams {
    let (n, d) = data.shape();
    let mut p = SummaryParams::practical(2, n, d).with_seed(23);
    if std::env::var("EKM_COMPUTE").as_deref() == Ok("f32") {
        p = p.with_compute(edge_kmeans::net::wire::Compute::F32);
    }
    p
}

/// The per-source shards a pipeline runs over: the whole dataset for a
/// single-source pipeline, a uniform partition otherwise.
fn shards(pipe: &StagePipeline, data: &Matrix) -> (Vec<Matrix>, usize) {
    if pipe.is_distributed() {
        let parts = partition_uniform(data, SOURCES, pipe.params().seed).unwrap();
        (parts, SOURCES)
    } else {
        (vec![data.clone()], 1)
    }
}

/// The reference run: `pipe` in process over a `Network` ledger.
fn run_reference(pipe: &StagePipeline, parts: &[Matrix], m: usize) -> (RunOutput, NetworkStats) {
    let mut net = Network::new(m);
    let out = pipe.run_shards(parts, &mut net).unwrap();
    (out, net.stats().clone())
}

/// Runs `pipe` over the event-driven TCP protocol backend: the driver
/// in the calling thread over real loopback sockets, one executor
/// thread per source — each constructed with **only its own shard**.
fn run_event_tcp(
    pipe: &StagePipeline,
    parts: Vec<Matrix>,
) -> (RunOutput, NetworkStats, Vec<SourceRunReport>) {
    let m = parts.len();
    let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
    let addr = binding.local_addr().unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                scope.spawn(move || {
                    let mut endpoint =
                        EventTcpSource::connect(addr, i, m, FP, Duration::from_secs(20)).unwrap();
                    SourceExecutor::new(pipe.stages(), pipe.params(), i, m, shard)
                        .serve(&mut endpoint)
                        .unwrap()
                })
            })
            .collect();
        let mut net = binding.accept(m, FP).unwrap();
        let out = pipe.run_driver(&mut net).unwrap();
        let reports = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (out, net.stats().clone(), reports)
    })
}

/// Protocol outputs equal the reference run bit for bit, and every
/// source saw only control traffic plus the two legitimate downlink
/// payloads.
fn assert_protocol_equivalent(
    label: &str,
    pipe: &StagePipeline,
    data: &Matrix,
    run: impl FnOnce(Vec<Matrix>) -> (RunOutput, NetworkStats, Vec<SourceRunReport>),
) {
    let (parts, m) = shards(pipe, data);
    let (ref_out, ref_stats) = run_reference(pipe, &parts, m);
    let shard_bits: Vec<u64> = parts
        .iter()
        .map(|p| (p.rows() * p.cols() * 64) as u64)
        .collect();
    let (out, stats, reports) = run(parts);

    assert_eq!(
        stats, ref_stats,
        "{label}: driver NetworkStats differ from the reference run"
    );
    assert_eq!(out.uplink_bits, ref_out.uplink_bits, "{label}: uplink");
    assert_eq!(
        out.downlink_bits, ref_out.downlink_bits,
        "{label}: downlink"
    );
    assert_eq!(out.source_ops, ref_out.source_ops, "{label}: op counts");
    assert_eq!(
        out.summary_points, ref_out.summary_points,
        "{label}: summary size"
    );
    for (a, b) in out
        .centers
        .as_slice()
        .iter()
        .zip(ref_out.centers.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: centers diverge");
    }

    assert_eq!(reports.len(), m);
    for (i, report) in reports.iter().enumerate() {
        // Per-source accounting: what the executor observed equals the
        // driver's ledger and the reference run's.
        assert_eq!(
            report.uplink_bits,
            ref_stats.uplink_bits(i),
            "{label}: source {i} uplink"
        );
        assert_eq!(
            report.downlink_bits,
            ref_stats.downlink_bits(i),
            "{label}: source {i} downlink"
        );
        // Isolation: the only data-plane payloads a source ever
        // receives are the disPCA basis and the disSS allocation —
        // never raw data or another source's coreset.
        for kind in report.downlink_kinds.keys() {
            assert!(
                matches!(*kind, "basis" | "sample-allocation"),
                "{label}: source {i} received a {kind} payload"
            );
        }
        // And in bytes: every other source's shard is bigger than this
        // source's entire downlink, so no shard can have crossed.
        for (j, &bits) in shard_bits.iter().enumerate() {
            if j != i {
                assert!(
                    report.downlink_bits < bits,
                    "{label}: source {i} received {} bits, source {j}'s shard is {} bits",
                    report.downlink_bits,
                    bits
                );
            }
        }
    }
}

/// The event-TCP run of `pipe` against the reference run.
fn assert_transport_equivalent(label: &str, pipe: &StagePipeline, data: &Matrix) {
    assert_protocol_equivalent(label, pipe, data, |parts| run_event_tcp(pipe, parts));
}

fn named(name: &str, p: &SummaryParams) -> StagePipeline {
    let p = p.clone();
    match name {
        "NR" => NoReduction::new(p).into_stage_pipeline(),
        "FSS" => Fss::new(p).into_stage_pipeline(),
        "JL+FSS" => JlFss::new(p).into_stage_pipeline(),
        "FSS+JL" => FssJl::new(p).into_stage_pipeline(),
        "JL+FSS+JL" => JlFssJl::new(p).into_stage_pipeline(),
        "BKLW" => Bklw::new(p).into_stage_pipeline(),
        "JL+BKLW" => JlBklw::new(p).into_stage_pipeline(),
        "BKLW+JL" => BklwJl::new(p).into_stage_pipeline(),
        other => panic!("unknown pipeline {other}"),
    }
}

#[test]
fn centralized_named_pipelines_are_transport_equivalent() {
    let data = workload(1);
    let p = params(&data);
    for name in ["NR", "FSS", "JL+FSS", "FSS+JL", "JL+FSS+JL"] {
        assert_transport_equivalent(name, &named(name, &p), &data);
    }
}

#[test]
fn distributed_named_pipelines_are_transport_equivalent() {
    let data = workload(2);
    let p = params(&data);
    for name in ["BKLW", "JL+BKLW", "BKLW+JL"] {
        assert_transport_equivalent(name, &named(name, &p), &data);
    }
}

#[test]
fn quantized_pipelines_are_transport_equivalent() {
    let data = workload(3);
    let q = RoundingQuantizer::new(8).unwrap();
    let p = params(&data).with_quantizer(q);
    for name in ["JL+FSS+JL", "BKLW"] {
        assert_transport_equivalent(&format!("{name}+QT"), &named(name, &p), &data);
    }
}

#[test]
fn arbitrary_stage_compositions_are_transport_equivalent() {
    let data = workload(4);
    let p = params(&data);
    // One centralized and one distributed composition the paper never
    // evaluated, exactly as `--stages` would build them.
    for list in ["jl,fss,qt:6,jl", "jl,dispca,qt:9,disss"] {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        assert_transport_equivalent(list, &pipe, &data);
    }
}

#[test]
fn streaming_compositions_are_transport_equivalent() {
    // Per-source merge-and-reduce summaries over loopback TCP are
    // bit-identical to the in-process runs, composed with DR before and
    // DR/QT after, with and without quantization.
    let data = workload(6);
    let p = params(&data);
    for list in ["jl,stream,qt:8", "stream,jl", "stream"] {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        assert!(pipe.is_distributed(), "{list} shards per source");
        assert_transport_equivalent(list, &pipe, &data);
    }
}

#[test]
fn f32_aux_precision_is_transport_equivalent() {
    // The F32 wire variant changes the payloads (and the bits), so it
    // must survive the real wire too.
    let data = workload(7);
    let p = params(&data).with_precision(edge_kmeans::net::wire::Precision::F32);
    for name in ["FSS", "JL+FSS", "BKLW"] {
        assert_transport_equivalent(&format!("{name}/f32"), &named(name, &p), &data);
    }
}

#[test]
fn channel_protocol_matches_simulation_for_named_pipelines() {
    let data = workload(8);
    let p = params(&data);
    for name in [
        "NR",
        "FSS",
        "JL+FSS",
        "FSS+JL",
        "JL+FSS+JL",
        "BKLW",
        "JL+BKLW",
        "BKLW+JL",
    ] {
        let pipe = named(name, &p);
        assert_protocol_equivalent(&format!("channel/{name}"), &pipe, &data, |parts| {
            let (out, stats, reports) = pipe.run_channel_detailed(parts).unwrap();
            (out, stats, reports)
        });
    }
}

#[test]
fn channel_protocol_matches_simulation_for_stage_compositions() {
    // Sampled points of the composition space, mirroring what
    // `--stages` builds: quantized, doubly-projected, streaming, and
    // f32-auxiliary variants.
    let data = workload(9);
    let p = params(&data);
    let f32p = p
        .clone()
        .with_precision(edge_kmeans::net::wire::Precision::F32);
    for (list, p) in [
        ("jl,fss,qt:6,jl", &p),
        ("jl,dispca,qt:9,disss", &p),
        ("jl,stream,qt:8", &p),
        ("stream,jl", &p),
        ("dispca,disss", &f32p),
        ("jl,stream", &f32p),
    ] {
        let pipe = StagePipeline::from_names(list, (*p).clone()).unwrap();
        assert_protocol_equivalent(&format!("channel/{list}"), &pipe, &data, |parts| {
            let (out, stats, reports) = pipe.run_channel_detailed(parts).unwrap();
            (out, stats, reports)
        });
    }
}

#[test]
fn event_tcp_protocol_matches_simulation_for_named_pipelines() {
    let data = workload(10);
    let p = params(&data);
    for name in ["NR", "JL+FSS+JL", "BKLW", "JL+BKLW"] {
        let pipe = named(name, &p);
        assert_protocol_equivalent(&format!("event-tcp/{name}"), &pipe, &data, |parts| {
            run_event_tcp(&pipe, parts)
        });
    }
}

#[test]
fn event_tcp_protocol_matches_simulation_for_stage_compositions() {
    let data = workload(11);
    let q = RoundingQuantizer::new(8).unwrap();
    let p = params(&data).with_quantizer(q);
    for list in ["jl,dispca,disss", "jl,stream,qt:8", "jl,fss,qt:6,jl"] {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        assert_protocol_equivalent(&format!("event-tcp/{list}"), &pipe, &data, |parts| {
            run_event_tcp(&pipe, parts)
        });
    }
}
