//! Golden fixtures: every named pipeline, plus jl-fss-jl and jl-bklw
//! under `--quantize 8` and under `--precision f32`, run through the
//! `ekm run` path (`StagePipeline::run_channel`) on one small Gaussian
//! mixture and compared against `tests/golden/pipelines.txt`.
//!
//! Equivalence tests compare two execution paths of today's code, so a
//! change that moves both sides together passes them; these rows pin
//! the results themselves. Each row records the FNV-1a hash of the
//! centers' shape and `f64` bits (as `RunDigest` computes it), uplink
//! and downlink bits, the deterministic `source_ops`, and
//! `summary_points`.
//!
//! On drift the test prints the file as it would read now: a change
//! meant to move results commits that text, and the diff of
//! `tests/golden/pipelines.txt` shows in review what moved.

use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::RunDigest;
use edge_kmeans::prelude::*;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pipelines.txt");

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
    let named = |name: &str, p: SummaryParams| match name {
        "nr" => NoReduction::new(p).into_stage_pipeline(),
        "fss" => Fss::new(p).into_stage_pipeline(),
        "jl-fss" => JlFss::new(p).into_stage_pipeline(),
        "fss-jl" => FssJl::new(p).into_stage_pipeline(),
        "jl-fss-jl" => JlFssJl::new(p).into_stage_pipeline(),
        "bklw" => Bklw::new(p).into_stage_pipeline(),
        "jl-bklw" => JlBklw::new(p).into_stage_pipeline(),
        "bklw-jl" => BklwJl::new(p).into_stage_pipeline(),
        other => unreachable!("no pipeline {other}"),
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
    cases
}

/// One fixture row: the case name and its recorded fields.
fn row(name: &str, pipe: &StagePipeline, data: &Matrix) -> String {
    let shards = if pipe.is_distributed() {
        partition_uniform(data, SOURCES, pipe.params().seed).unwrap()
    } else {
        vec![data.clone()]
    };
    let (out, stats, _) = pipe.run_channel_detailed(shards).unwrap();
    let digest = RunDigest::new(&stats, &out.centers);
    assert_eq!(digest.uplink_bits, out.uplink_bits, "{name}: ledger");
    assert_eq!(digest.downlink_bits, out.downlink_bits, "{name}: ledger");
    format!(
        "{name:<14} {:#018x} {:>12} {:>13} {:>12} {:>14}",
        digest.centers_hash, out.uplink_bits, out.downlink_bits, out.source_ops, out.summary_points
    )
}

fn header() -> String {
    format!(
        "# ekm golden fixtures: mixture n={N} d={D} k={K} seed={SEED}, \
         {SOURCES} sources for distributed pipelines\n\
         # {:<12} {:<18} {:>12} {:>13} {:>12} {:>14}",
        "case", "centers_hash", "uplink_bits", "downlink_bits", "source_ops", "summary_points"
    )
}

#[test]
fn pipelines_match_golden_fixtures() {
    let data = dataset();
    let rows: Vec<String> = cases()
        .iter()
        .map(|(name, pipe)| row(name, pipe, &data))
        .collect();
    let actual = format!("{}\n{}\n", header(), rows.join("\n"));
    let expected = std::fs::read_to_string(FIXTURE).unwrap();
    if actual != expected {
        let drifted: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("  want {want}\n  got  {got}"))
            .collect();
        panic!(
            "golden fixtures drifted:\n{}\n\nThe fixture file would now read:\n{actual}",
            drifted.join("\n")
        );
    }
}
