//! Stage-list equivalence: every paper pipeline, expressed as an
//! explicit `--stages`-style list, must reproduce its named
//! constructor's `RunOutput` *exactly* — the same `uplink_bits` to the
//! bit, the same centers to the last ulp, and the same per-source
//! network statistics — and reruns must be deterministic. The
//! distributed protocols must also give the same run through the
//! library entry point and the channel backend at every source count.
//! The named pipelines' results themselves are pinned in
//! `tests/golden/`.

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::net::{NetworkStats, RunDigest};
use edge_kmeans::prelude::*;

const SOURCES: usize = 6;

fn workload(seed: u64) -> Matrix {
    let ds = MnistLike::new(900, 10).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

fn params(data: &Matrix, quantized: bool) -> SummaryParams {
    let (n, d) = data.shape();
    let p = SummaryParams::practical(2, n, d).with_seed(17);
    if quantized {
        p.with_quantizer(RoundingQuantizer::new(8).unwrap())
    } else {
        p
    }
}

/// Runs a pipeline on a fresh network and returns its output plus the
/// network's final statistics.
fn run(pipe: &StagePipeline, data: &Matrix) -> (RunOutput, NetworkStats) {
    let out = if pipe.is_distributed() {
        let shards = partition_uniform(data, SOURCES, pipe.params().seed).unwrap();
        let mut net = Network::new(SOURCES);
        let out = pipe.run_shards(&shards, &mut net).unwrap();
        (out, net.stats().clone())
    } else {
        let mut net = Network::new(1);
        let out = pipe.run(data, &mut net).unwrap();
        (out, net.stats().clone())
    };
    out
}

/// Asserts two runs of the same summary protocol are indistinguishable.
fn assert_identical(label: &str, a: (RunOutput, NetworkStats), b: (RunOutput, NetworkStats)) {
    let ((oa, sa), (ob, sb)) = (a, b);
    assert_eq!(oa.uplink_bits, ob.uplink_bits, "{label}: uplink bits");
    assert_eq!(oa.downlink_bits, ob.downlink_bits, "{label}: downlink bits");
    assert_eq!(
        oa.summary_points, ob.summary_points,
        "{label}: summary size"
    );
    assert_eq!(oa.centers.shape(), ob.centers.shape(), "{label}: shape");
    assert!(
        oa.centers.approx_eq(&ob.centers, 0.0),
        "{label}: centers differ"
    );
    assert_eq!(sa, sb, "{label}: network statistics");
}

/// The seven paper pipelines and the stage lists that must match them.
fn named_vs_stages(
    p: &SummaryParams,
    quantized: bool,
) -> Vec<(&'static str, StagePipeline, StagePipeline)> {
    let stages = |list: &str| StagePipeline::from_names(list, p.clone()).unwrap();
    let mut cases = vec![
        (
            "NR",
            NoReduction::new(p.clone()).into_stage_pipeline(),
            StagePipeline::new(Vec::new(), p.clone()),
        ),
        (
            "FSS",
            Fss::new(p.clone()).into_stage_pipeline(),
            stages(if quantized { "fss,qt" } else { "fss" }),
        ),
        (
            "JL+FSS",
            JlFss::new(p.clone()).into_stage_pipeline(),
            stages(if quantized { "jl,fss,qt" } else { "jl,fss" }),
        ),
        (
            "FSS+JL",
            FssJl::new(p.clone()).into_stage_pipeline(),
            stages(if quantized { "fss,jl,qt" } else { "fss,jl" }),
        ),
        (
            "JL+FSS+JL",
            JlFssJl::new(p.clone()).into_stage_pipeline(),
            stages(if quantized {
                "jl,fss,jl,qt"
            } else {
                "jl,fss,jl"
            }),
        ),
        (
            "BKLW",
            Bklw::new(p.clone()).into_stage_pipeline(),
            stages(if quantized {
                "dispca,qt,disss"
            } else {
                "dispca,disss"
            }),
        ),
        (
            "JL+BKLW",
            JlBklw::new(p.clone()).into_stage_pipeline(),
            stages(if quantized {
                "jl,dispca,qt,disss"
            } else {
                "jl,dispca,disss"
            }),
        ),
    ];
    // The eighth (§5.2 thought-experiment) variant rides along for free.
    cases.push((
        "BKLW+JL",
        BklwJl::new(p.clone()).into_stage_pipeline(),
        stages(if quantized {
            "dispca,qt,jl,disss"
        } else {
            "dispca,jl,disss"
        }),
    ));
    cases
}

#[test]
fn all_seven_paper_pipelines_bit_identical_through_the_engine() {
    let data = workload(1);
    let p = params(&data, false);
    for (label, named, listed) in named_vs_stages(&p, false) {
        assert_identical(label, run(&named, &data), run(&listed, &data));
    }
}

#[test]
fn quantized_variants_bit_identical_through_the_engine() {
    let data = workload(2);
    let p = params(&data, true);
    for (label, named, listed) in named_vs_stages(&p, true) {
        assert_identical(label, run(&named, &data), run(&listed, &data));
    }
}

#[test]
fn reruns_are_deterministic() {
    let data = workload(3);
    let p = params(&data, false);
    for (label, named, _) in named_vs_stages(&p, false) {
        assert_identical(label, run(&named, &data), run(&named, &data));
    }
}

/// The streaming compositions this suite locks down: per-source
/// merge-and-reduce summaries composed with DR before and DR/QT after.
const STREAM_LISTS: [&str; 4] = ["stream", "jl,stream,qt", "stream,jl", "jl,stream,jl,qt:8"];

#[test]
fn stream_compositions_are_seed_deterministic() {
    let data = workload(6);
    let p = params(&data, false);
    for list in STREAM_LISTS {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        assert!(pipe.is_distributed(), "{list} shards per source");
        assert_identical(list, run(&pipe, &data), run(&pipe, &data));
    }
}

#[test]
fn stream_composes_with_every_downstream_stage_the_engine_accepts() {
    // Downstream of `stream` a run accepts exactly the stages that
    // operate on weighted per-source summaries: jl and qt. A second CR
    // stage or an interactive protocol is a configuration error.
    let data = workload(8);
    let p = params(&data, false);
    for (list, ok) in [
        ("stream,jl", true),
        ("stream,qt", true),
        ("stream,jl,qt:6", true),
        ("stream,fss", false),
        ("stream,stream", false),
        ("stream,dispca", false),
        ("stream,disss", false),
    ] {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        let shards = partition_uniform(&data, SOURCES, pipe.params().seed).unwrap();
        let mut net = Network::new(SOURCES);
        assert_eq!(
            pipe.run_shards(&shards, &mut net).is_ok(),
            ok,
            "{list}: acceptance changed"
        );
    }
}

/// `run_shards` (executors borrowing the caller's shards) against
/// `run_channel_detailed` (executors owning theirs) at every source
/// count from 1 to 9, non-powers of two included, where the disPCA fold
/// leaves positions unpaired: centers to the bit, the run digest, every
/// ledger, op counts, summary size, and each executor's own report
/// against its row of the server's ledger.
#[test]
fn channel_runs_match_library_runs_at_every_source_count() {
    let data = workload(9);
    let p = params(&data, false);
    for list in ["dispca,disss", "jl,dispca,qt:8,disss", "jl,stream,qt"] {
        let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
        for m in 1..=9 {
            let label = format!("{list}/{m}");
            let shards = partition_uniform(&data, m, pipe.params().seed).unwrap();
            let mut net = Network::new(m);
            let library = pipe.run_shards(&shards, &mut net).unwrap();
            let (channel, stats, reports) = pipe.run_channel_detailed(shards).unwrap();
            assert_eq!(
                RunDigest::new(net.stats(), &library.centers),
                RunDigest::new(&stats, &channel.centers),
                "{label}: digest"
            );
            assert_eq!(library.source_ops, channel.source_ops, "{label}: ops");
            assert_eq!(reports.len(), m, "{label}: reports");
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(report.uplink_bits, stats.uplink_bits(i), "{label}: {i} up");
                assert_eq!(
                    report.downlink_bits,
                    stats.downlink_bits(i),
                    "{label}: {i} down"
                );
            }
            assert_identical(&label, (library, net.stats().clone()), (channel, stats));
        }
    }
}

#[test]
fn engine_names_match_paper_legends() {
    let data = workload(5);
    let p = params(&data, false);
    let expected = [
        "NR",
        "FSS",
        "JL+FSS",
        "FSS+JL",
        "JL+FSS+JL",
        "BKLW",
        "JL+BKLW",
        "BKLW+JL",
    ];
    for ((_, named, _), want) in named_vs_stages(&p, false).into_iter().zip(expected) {
        assert_eq!(named.name(), want);
    }
    let pq = params(&data, true);
    for ((_, named, _), want) in named_vs_stages(&pq, true).into_iter().zip(expected) {
        assert_eq!(named.name(), format!("{want}+QT").replace("NR+QT", "NR"));
    }
}
