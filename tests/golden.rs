//! Golden fixtures: every named pipeline, jl-fss-jl and jl-bklw under
//! `--quantize 8`, `--precision f32` and `--compute f32`, the stage
//! compositions `jl,fss,qt:6,jl`, `jl,dispca,qt:9,disss`,
//! `jl,stream,qt:8`, `stream,jl`, `stream` and (at `--precision f32`)
//! `jl,stream`, and jl-bklw and `jl,stream,qt:8` under
//! `--topology tree`, all on one small Gaussian mixture.
//!
//! Each case runs twice: through the `ekm run` path
//! (`StagePipeline::run_channel_detailed`, which owns its shards) and
//! through `StagePipeline::run_shards` over a caller's `Network` ledger
//! (what `ekm sweep` and the library entry points use). Both runs must
//! agree with each other and with the committed files:
//!
//! * `tests/golden/pipelines.txt` — the FNV-1a hash of the centers'
//!   shape and `f64` bits (as `RunDigest` computes it), uplink and
//!   downlink bits, the deterministic `source_ops`, and
//!   `summary_points`;
//! * `tests/golden/ledgers.txt` — every source's uplink and downlink
//!   bits and the uplink bits by message kind.
//!
//! A tree-topology case must equal its star twin field for field.
//!
//! Equivalence tests compare two execution paths of today's code, so a
//! change that moves both sides together passes them; these rows pin
//! the results themselves. On drift the test prints the files as they
//! would read now: a change meant to move results commits that text,
//! and the diff shows in review what moved.

use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::wire::Compute;
use edge_kmeans::net::{NetworkStats, RunDigest};
use edge_kmeans::prelude::*;

const PIPELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pipelines.txt");
const LEDGERS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledgers.txt");

// The shape: small enough to keep the suite quick, large enough that
// every SVD route runs (tall shards and FSS inputs, wide disPCA stacks
// of 2·pca_dim < d rows).
const N: usize = 1500;
const D: usize = 96;
const K: usize = 2;
const SEED: u64 = 42;
const SOURCES: usize = 4;

/// Tree-topology cases and the star cases they must equal.
const TREE_TWINS: [(&str, &str); 2] = [
    ("jl-bklw+tree", "jl-bklw"),
    ("jl,stream,qt:8+tree", "jl,stream,qt:8"),
];

fn dataset() -> Matrix {
    let raw = GaussianMixture::new(N, D, K)
        .with_separation(4.0)
        .with_seed(SEED)
        .generate()
        .unwrap()
        .points;
    normalize_paper(&raw).0
}

/// `(case name, pipeline)` for every fixture row, with the parameters
/// `ekm run --dataset mixture --n 1500 --d 96 --k 2 --sources 4` builds.
fn cases() -> Vec<(String, StagePipeline)> {
    let base = SummaryParams::practical(K, N, D).with_seed(SEED);
    let named = |name: &str, p: SummaryParams| match name {
        "nr" => NoReduction::new(p).into_stage_pipeline(),
        "fss" => Fss::new(p).into_stage_pipeline(),
        "jl-fss" => JlFss::new(p).into_stage_pipeline(),
        "fss-jl" => FssJl::new(p).into_stage_pipeline(),
        "jl-fss-jl" => JlFssJl::new(p).into_stage_pipeline(),
        "bklw" => Bklw::new(p).into_stage_pipeline(),
        "jl-bklw" => JlBklw::new(p).into_stage_pipeline(),
        "bklw-jl" => BklwJl::new(p).into_stage_pipeline(),
        list => StagePipeline::from_names(list, p).unwrap(),
    };
    let mut cases = Vec::new();
    for name in [
        "nr",
        "fss",
        "jl-fss",
        "fss-jl",
        "jl-fss-jl",
        "bklw",
        "jl-bklw",
        "bklw-jl",
    ] {
        cases.push((name.to_string(), named(name, base.clone())));
    }
    let quantized = base
        .clone()
        .with_quantizer(RoundingQuantizer::new(8).unwrap());
    let f32_wire = base.clone().with_precision(Precision::F32);
    for name in ["jl-fss-jl", "jl-bklw"] {
        cases.push((format!("{name}+qt8"), named(name, quantized.clone())));
        cases.push((format!("{name}+f32"), named(name, f32_wire.clone())));
    }
    for list in [
        "jl,fss,qt:6,jl",
        "jl,dispca,qt:9,disss",
        "jl,stream,qt:8",
        "stream,jl",
        "stream",
    ] {
        cases.push((list.to_string(), named(list, base.clone())));
    }
    cases.push(("jl,stream+f32".to_string(), named("jl,stream", f32_wire)));
    let f32_compute = base.clone().with_compute(Compute::F32);
    for name in ["jl-fss-jl", "jl-bklw"] {
        cases.push((format!("{name}+c32"), named(name, f32_compute.clone())));
    }
    let tree = base.with_topology(Topology::Tree);
    for (case, star) in TREE_TWINS {
        cases.push((case.to_string(), named(star, tree.clone())));
    }
    cases
}

/// One case's recorded fields: the pipelines row (without the name) and
/// the ledger lines (per source, then per uplink message kind).
#[derive(Debug, PartialEq)]
struct Record {
    row: String,
    ledger: Vec<String>,
}

fn record(out: &RunOutput, stats: &NetworkStats, sources: usize) -> Record {
    let digest = RunDigest::new(stats, &out.centers);
    assert_eq!(digest.uplink_bits, out.uplink_bits, "ledger total");
    assert_eq!(digest.downlink_bits, out.downlink_bits, "ledger total");
    let row = format!(
        "{:#018x} {:>12} {:>13} {:>12} {:>14}",
        digest.centers_hash, out.uplink_bits, out.downlink_bits, out.source_ops, out.summary_points
    );
    let mut ledger: Vec<String> = (0..sources)
        .map(|i| {
            format!(
                "source {i:<12} {:>12} {:>13}",
                stats.uplink_bits(i),
                stats.downlink_bits(i)
            )
        })
        .collect();
    for (kind, bits) in stats.uplink_bits_by_kind() {
        ledger.push(format!("kind   {kind:<12} {bits:>12}"));
    }
    Record { row, ledger }
}

/// Runs one case through both entry points, checks they agree, and
/// returns the record.
fn run_case(name: &str, pipe: &StagePipeline, data: &Matrix) -> Record {
    let shards = if pipe.is_distributed() {
        partition_uniform(data, SOURCES, pipe.params().seed).unwrap()
    } else {
        vec![data.clone()]
    };
    let m = shards.len();
    let mut net = Network::new(m);
    let library = pipe.run_shards(&shards, &mut net).unwrap();
    let (out, stats, _) = pipe.run_channel_detailed(shards).unwrap();
    let channel = record(&out, &stats, m);
    assert_eq!(
        record(&library, net.stats(), m),
        channel,
        "{name}: run_shards over a Network disagrees with run_channel"
    );
    channel
}

fn pipelines_file(records: &[(String, Record)]) -> String {
    let mut text = format!(
        "# ekm golden fixtures: mixture n={N} d={D} k={K} seed={SEED}, \
         {SOURCES} sources for distributed pipelines\n\
         # {:<12} {:<18} {:>12} {:>13} {:>12} {:>14}\n",
        "case", "centers_hash", "uplink_bits", "downlink_bits", "source_ops", "summary_points"
    );
    for (name, rec) in records {
        text.push_str(&format!("{name:<14} {}\n", rec.row));
    }
    text
}

fn ledgers_file(records: &[(String, Record)]) -> String {
    let mut text = format!(
        "# ekm golden ledgers: the runs of pipelines.txt, per source \
         (uplink_bits downlink_bits) and per uplink message kind (uplink_bits)\n\
         # {:<20} {:<19} {:>12} {:>13}\n",
        "case", "entry", "uplink_bits", "downlink_bits"
    );
    for (name, rec) in records {
        for line in &rec.ledger {
            text.push_str(&format!("{name:<22} {line}\n"));
        }
    }
    text
}

fn drift(path: &str, actual: &str) -> Option<String> {
    let expected = std::fs::read_to_string(path).unwrap();
    if actual == expected {
        return None;
    }
    let lines: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    Some(format!(
        "{path} drifted:\n{}\n\nThe file would now read:\n{actual}",
        lines.join("\n")
    ))
}

#[test]
fn pipelines_match_golden_fixtures() {
    let data = dataset();
    let records: Vec<(String, Record)> = cases()
        .iter()
        .map(|(name, pipe)| (name.clone(), run_case(name, pipe, &data)))
        .collect();
    for (tree, star) in TREE_TWINS {
        let find = |name: &str| &records.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(find(tree), find(star), "{tree} differs from {star}");
    }
    let failures: Vec<String> = [
        drift(PIPELINES, &pipelines_file(&records)),
        drift(LEDGERS, &ledgers_file(&records)),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
