//! Stage-output cache equivalence: an `ekm sweep`-style sequence of
//! compositions sharing a `jl,fss` prefix, run with one shared
//! [`StageCache`], must (a) compute the shared prefix exactly once and
//! (b) produce outputs — centers, run-digest fingerprints, uplink bits,
//! per-source `NetworkStats`, deterministic op counts — bit-identical
//! to an uncached sweep.

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::net::NetworkStats;
use edge_kmeans::net::RunDigest;
use edge_kmeans::prelude::*;

const SOURCES: usize = 4;

fn workload(seed: u64) -> Matrix {
    let ds = MnistLike::new(800, 10).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

fn params(data: &Matrix) -> SummaryParams {
    let (n, d) = data.shape();
    SummaryParams::practical(2, n, d).with_seed(23)
}

/// One sweep entry: the run output plus the transport's final counters
/// and the end-of-run digest (the "fingerprint" a TCP deployment would
/// exchange to verify bit-identity).
struct SweepRow {
    name: String,
    out: RunOutput,
    stats: NetworkStats,
    digest: RunDigest,
}

/// Runs every composition over fresh networks, optionally sharing one
/// stage cache across the whole sweep.
fn sweep(lists: &[&str], data: &Matrix, mut cache: Option<&mut StageCache>) -> Vec<SweepRow> {
    lists
        .iter()
        .map(|list| {
            let pipe = StagePipeline::from_names(list, params(data)).unwrap();
            let (out, stats) = if pipe.is_distributed() {
                let shards = partition_uniform(data, SOURCES, pipe.params().seed).unwrap();
                let mut net = Network::new(SOURCES);
                let out = match cache.as_deref_mut() {
                    Some(cache) => pipe.run_shards_cached(&shards, &mut net, cache),
                    None => pipe.run_shards(&shards, &mut net),
                }
                .unwrap();
                (out, net.stats().clone())
            } else {
                let mut net = Network::new(1);
                let out = match cache.as_deref_mut() {
                    Some(cache) => pipe.run_cached(data, &mut net, cache),
                    None => pipe.run(data, &mut net),
                }
                .unwrap();
                (out, net.stats().clone())
            };
            let digest = RunDigest::new(&stats, &out.centers);
            SweepRow {
                name: pipe.name(),
                out,
                stats,
                digest,
            }
        })
        .collect()
}

fn assert_rows_identical(cached: &[SweepRow], uncached: &[SweepRow]) {
    assert_eq!(cached.len(), uncached.len());
    for (c, u) in cached.iter().zip(uncached) {
        let label = &c.name;
        assert_eq!(c.name, u.name);
        assert_eq!(c.digest, u.digest, "{label}: run digest (fingerprint)");
        assert!(
            c.out.centers.approx_eq(&u.out.centers, 0.0),
            "{label}: centers differ"
        );
        assert_eq!(c.out.uplink_bits, u.out.uplink_bits, "{label}: uplink");
        assert_eq!(
            c.out.downlink_bits, u.out.downlink_bits,
            "{label}: downlink"
        );
        assert_eq!(c.out.source_ops, u.out.source_ops, "{label}: op counts");
        assert_eq!(
            c.out.summary_points, u.out.summary_points,
            "{label}: summary size"
        );
        assert_eq!(c.stats, u.stats, "{label}: per-source network stats");
    }
}

#[test]
fn cached_sweep_is_bit_identical_to_uncached() {
    let data = workload(3);
    // The acceptance shape: one jl,fss prefix under every QT width.
    let lists = [
        "jl,fss",
        "jl,fss,qt:4",
        "jl,fss,qt:8",
        "jl,fss,qt:12",
        "jl,fss,qt:8,jl",
    ];
    let mut cache = StageCache::new();
    let cached = sweep(&lists, &data, Some(&mut cache));
    let uncached = sweep(&lists, &data, None);
    assert_rows_identical(&cached, &uncached);

    // The shared prefix ran once: 2 cold stages (jl, fss) plus the last
    // composition's trailing jl; every other cacheable execution hit.
    assert_eq!(cache.misses(), 3, "jl, fss, trailing jl");
    assert_eq!(cache.hits(), 2 * (lists.len() as u64 - 1));
}

#[test]
fn cached_sweep_covers_streaming_shards() {
    let data = workload(5);
    let lists = ["jl,stream,qt:6", "jl,stream,qt:10", "jl,stream"];
    let mut cache = StageCache::new();
    let cached = sweep(&lists, &data, Some(&mut cache));
    let uncached = sweep(&lists, &data, None);
    assert_rows_identical(&cached, &uncached);
    // Every executor looks up its own shard: jl and stream miss once per
    // source, then both hit per source in the two later compositions.
    assert_eq!(cache.misses(), 2 * SOURCES as u64, "jl, stream per source");
    assert_eq!(cache.hits(), 4 * SOURCES as u64);
}

#[test]
fn interactive_stages_always_run_live() {
    // disPCA/disSS traffic must flow through the transport on every
    // run — the cache holds only source-side stage outputs, so a
    // repeated distributed pipeline still uplinks its summaries.
    let data = workload(7);
    let lists = ["dispca,disss", "dispca,disss"];
    let mut cache = StageCache::new();
    let rows = sweep(&lists, &data, Some(&mut cache));
    assert_eq!(cache.hits() + cache.misses(), 0, "nothing cacheable");
    assert_eq!(rows[0].digest, rows[1].digest);
    assert!(rows[1].out.uplink_bits > 0);
}

#[test]
fn a_shard_one_bit_away_misses_every_stage_that_sees_it() {
    let lists = ["jl,fss", "jl,fss,qt:8", "fss,qt:4"];
    // 7 × 7 images: at 49 columns the leading jl keeps every column
    // (the identity map), so a changed bit reaches the fss stage after
    // it unaltered and every cacheable stage of these lists sees it.
    let ds = MnistLike::new(800, 7).with_seed(13).generate().unwrap();
    let mut base = normalize_paper(&ds.points).0;
    let d = base.cols();
    assert_eq!(params(&base).effective_jl_before(d), d);
    base.row_mut(5)[7] = 0.0;
    let mut signed_zero = base.clone();
    signed_zero.row_mut(5)[7] = -0.0;
    let mut last_bit = base.clone();
    last_bit.row_mut(11)[3] = f64::from_bits(base.row(11)[3].to_bits() ^ 1);

    for (label, shard) in [
        ("sign of a zero", &signed_zero),
        ("last significand bit", &last_bit),
    ] {
        let mut cache = StageCache::new();
        sweep(&lists, &base, Some(&mut cache));
        assert_eq!((cache.hits(), cache.misses()), (2, 3), "{label}: warm-up");

        // Over the changed shard the warm cache must behave exactly as
        // a cold one: jl, fss and the leading fss miss (the second list
        // then hits what the first stored), and the outputs are those
        // of an uncached sweep over the changed shard.
        let cached = sweep(&lists, shard, Some(&mut cache));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (2 + 2, 3 + 3),
            "{label}: a stage reused the other shard's output"
        );
        assert_rows_identical(&cached, &sweep(&lists, shard, None));

        // The unchanged shard still hits everything it stored.
        sweep(&lists, &base, Some(&mut cache));
        assert_eq!((cache.hits(), cache.misses()), (4 + 5, 6), "{label}");
    }
}
