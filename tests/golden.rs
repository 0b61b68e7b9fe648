//! Golden fixtures: every named pipeline, jl-fss-jl and jl-bklw under
//! `--quantize 8`, `--precision f32` and `--compute f32`, the stage
//! compositions `jl,fss,qt:6,jl`, `jl,dispca,qt:9,disss`,
//! `jl,stream,qt:8`, `stream,jl`, `stream` and (at `--precision f32`)
//! `jl,stream`, all on one small Gaussian mixture.
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
//! `tests/golden/rounds.txt` pins the driver's rounds themselves: the
//! journal of `jl,dispca,qt:9,disss` at four sources and of `jl-fss`
//! (whose basis travels in its own round) at one, a line per command
//! sent and response taken, in the order the driver took them. A
//! resumed run compares the driver's sends with these records byte for
//! byte, so a reordered round would strand every existing journal even
//! where the centers and ledgers stay put.
//!
//! Equivalence tests compare two execution paths of today's code, so a
//! change that moves both sides together passes them; these rows pin
//! the results themselves. On drift the test prints the files as they
//! would read now: a change meant to move results commits that text,
//! and the diff shows in review what moved.

use edge_kmeans::core::journal::{read_journal, JournalEntry, JournalingTransport};
use edge_kmeans::core::pipelines;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::fnv::Fnv;
use edge_kmeans::net::protocol::{channel_pairs, Command, Response};
use edge_kmeans::net::wire::Compute;
use edge_kmeans::net::{NetworkStats, RunDigest};
use edge_kmeans::prelude::*;

const PIPELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pipelines.txt");
const LEDGERS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledgers.txt");
const ROUNDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rounds.txt");

// The shape: small enough to keep the suite quick, large enough that
// every SVD route runs (tall shards and FSS inputs, wide disPCA stacks
// of 2·pca_dim < d rows).
const N: usize = 1500;
const D: usize = 96;
const K: usize = 2;
const SEED: u64 = 42;
const SOURCES: usize = 4;

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
    let named = |name: &str, p: SummaryParams| {
        pipelines::named(name, p.clone())
            .unwrap_or_else(|| StagePipeline::from_names(name, p).unwrap())
    };
    let mut cases = Vec::new();
    for name in pipelines::NAMES {
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
    let f32_compute = base.with_compute(Compute::F32);
    for name in ["jl-fss-jl", "jl-bklw"] {
        cases.push((format!("{name}+c32"), named(name, f32_compute.clone())));
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

/// The case's shards: `SOURCES` for a distributed pipeline, else one.
fn shards(pipe: &StagePipeline, data: &Matrix) -> Vec<Matrix> {
    if pipe.is_distributed() {
        partition_uniform(data, SOURCES, pipe.params().seed).unwrap()
    } else {
        vec![data.clone()]
    }
}

/// Runs one case through both entry points, checks they agree, and
/// returns the record.
fn run_case(name: &str, pipe: &StagePipeline, data: &Matrix) -> Record {
    let shards = shards(pipe, data);
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

/// The journal of one run of `pipe` over the channel backend.
fn journal(name: &str, pipe: &StagePipeline, shards: Vec<Matrix>) -> Vec<JournalEntry> {
    let m = shards.len();
    let path = std::env::temp_dir().join(format!(
        "ekm-golden-rounds-{}-{}.journal",
        std::process::id(),
        name.replace([',', ':'], "_")
    ));
    std::thread::scope(|scope| {
        let (hub, endpoints) = channel_pairs(m);
        for (i, (mut ep, shard)) in endpoints.into_iter().zip(shards).enumerate() {
            let (stages, params) = (pipe.stages(), pipe.params());
            scope.spawn(move || SourceExecutor::new(stages, params, i, m, shard).serve(&mut ep));
        }
        let mut net = JournalingTransport::record(hub, &path, 0).unwrap();
        pipe.run_driver(&mut net).unwrap();
    });
    let (_, entries) = read_journal(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    entries
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(bytes);
    h.finish()
}

/// One journal record as a fixture line. A response's `seconds` is wall
/// time, so it is left out; an uplink payload is hashed on its wire
/// bytes under a zeroed header.
fn round_line(entry: &JournalEntry) -> String {
    match entry {
        JournalEntry::Cmd { source, bytes } => {
            let cmd = Command::decode(bytes).unwrap();
            format!("{source} cmd  {:<15} {:#018x}", cmd.name(), fnv(bytes))
        }
        JournalEntry::Resp { source, bytes } => {
            let resp = Response::decode(bytes).unwrap();
            let round = resp.round().map_or("-".to_string(), |r| r.to_string());
            let detail = match &resp {
                Response::Done {
                    rows, cols, ops, ..
                } => format!("{rows}x{cols} ops {ops}"),
                Response::Up { payload, ops, .. } => {
                    let wire = Response::Up {
                        round: 0,
                        payload: payload.clone(),
                        ops: 0,
                        seconds: 0.0,
                    };
                    format!(
                        "ops {ops} {} {} bits {:#018x}",
                        payload.kind().unwrap(),
                        payload.bits(),
                        fnv(&wire.encode())
                    )
                }
                Response::Fin {
                    uplink_bits,
                    downlink_bits,
                    ..
                } => format!("up {uplink_bits} down {downlink_bits}"),
                other => format!("{other:?}"),
            };
            format!(
                "{source} resp {:<15} round {round:<3} {detail}",
                resp.name()
            )
        }
        other => format!("{other:?}"),
    }
}

fn rounds_file(journals: &[(String, Vec<JournalEntry>)]) -> String {
    let mut text = format!(
        "# ekm golden rounds: the journals of two runs of pipelines.txt over the channel \
         backend, one line per record in the order the driver sent and received\n\
         # {:<20} {}\n",
        "case", "source record name round detail"
    );
    for (name, entries) in journals {
        for entry in entries {
            text.push_str(&format!("{name:<22} {}\n", round_line(entry)));
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
    let failures: Vec<String> = [
        drift(PIPELINES, &pipelines_file(&records)),
        drift(LEDGERS, &ledgers_file(&records)),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn driver_rounds_match_golden_fixture() {
    let data = dataset();
    let journals: Vec<(String, Vec<JournalEntry>)> = cases()
        .into_iter()
        .filter(|(name, _)| name == "jl-fss" || name == "jl,dispca,qt:9,disss")
        .map(|(name, pipe)| {
            let entries = journal(&name, &pipe, shards(&pipe, &data));
            (name, entries)
        })
        .collect();
    if let Some(failure) = drift(ROUNDS, &rounds_file(&journals)) {
        panic!("{failure}");
    }
}
