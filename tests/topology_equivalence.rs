//! Aggregation-topology equivalence: `--topology tree` must be a pure
//! placement change. For every source count (including non-powers of
//! two) and pipeline, the tree run's centers, run digest, and classic
//! per-source ledgers are bit-identical to the star run and to the
//! library run (`run_shards`) — the pairwise reduction follows the
//! same canonical merge schedule the server's fold uses, and every
//! merge output is wire-roundtripped, so where the fold *runs* cannot
//! change what it computes. The tree's own physical counters then prove the
//! headline: `ceil(log2 s) + 1` merge rounds and a single server-side
//! fold input per gather, with the star-only counters staying zero.
//!
//! The fault path composes: a holder that dies mid-tree takes exactly
//! its absorbed subtree out of the run, a holder that dies *after* its
//! summary reached the server loses only its own leaf, and the
//! degradation record keeps the `(1 + eps) / (1 - p)` cost-ratio bound
//! from the straggler work.

use edge_kmeans::core::executor::SourceExecutor;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::protocol::{
    channel_pairs, Command, CommandTransport, DeadlinePolicy, Response,
};
use edge_kmeans::net::{NetError, Network, NetworkStats, RunDigest, SourceEndpoint};
use edge_kmeans::prelude::*;
use proptest::prelude::*;

const PIPELINES: [&str; 3] = ["dispca,disss", "jl,dispca,qt:8,disss", "jl,stream,qt"];

/// Gathers the tree reduces for each pipeline: one per disPCA summary
/// collection, one per disSS coreset collection, one for the final
/// transmit (absent when disSS already handed the summary off).
fn expected_gathers(list: &str) -> u64 {
    let dispca = list.matches("dispca").count() as u64;
    let disss = list.matches("disss").count() as u64;
    dispca + disss + u64::from(disss == 0)
}

fn ceil_log2(m: u64) -> u64 {
    (m as f64).log2().ceil() as u64
}

fn workload(n: usize, d: usize, seed: u64) -> Matrix {
    let raw = GaussianMixture::new(n, d, 2)
        .with_separation(4.0)
        .with_seed(seed)
        .generate()
        .unwrap()
        .points;
    edge_kmeans::data::normalize::normalize_paper(&raw).0
}

fn run_topology(
    list: &str,
    data: &Matrix,
    m: usize,
    topology: Topology,
) -> (RunOutput, NetworkStats) {
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(17)
        .with_topology(topology);
    let pipe = StagePipeline::from_names(list, params).unwrap();
    let shards = if m == 1 {
        vec![data.clone()]
    } else {
        partition_uniform(data, m, pipe.params().seed).unwrap()
    };
    let (out, stats, reports) = pipe.run_channel_detailed(shards).unwrap();
    // Every executor's self-reported ledger matches the server's row
    // for it — the driver verified this at Fin time, re-checked here.
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(report.uplink_bits, stats.uplink_bits(i), "{list}/{m}");
        assert_eq!(report.downlink_bits, stats.downlink_bits(i), "{list}/{m}");
    }
    (out, stats)
}

/// The full cross-topology contract for one `(pipeline, m)` cell.
fn assert_tree_matches(list: &str, m: usize) {
    let data = workload(45 * m.max(4), 10, 7 + m as u64);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(17);
    let pipe = StagePipeline::from_names(list, params).unwrap();
    let shards = if m == 1 {
        vec![data.clone()]
    } else {
        partition_uniform(&data, m, pipe.params().seed).unwrap()
    };
    let mut net = Network::new(m);
    let library = pipe.run_shards(&shards, &mut net).unwrap();

    let (star, star_stats) = run_topology(list, &data, m, Topology::Star);
    let (tree, tree_stats) = run_topology(list, &data, m, Topology::Tree);

    // Centers: bit-identical across the library run, star, and tree.
    for ((a, b), c) in library
        .centers
        .as_slice()
        .iter()
        .zip(star.centers.as_slice())
        .zip(tree.centers.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{list}/{m}: star centers");
        assert_eq!(a.to_bits(), c.to_bits(), "{list}/{m}: tree centers");
    }
    // Digests: the hash the sources verify at shutdown.
    let star_digest = RunDigest::new(&star_stats, &star.centers);
    let tree_digest = RunDigest::new(&tree_stats, &tree.centers);
    assert_eq!(star_digest, tree_digest, "{list}/{m}: digest");
    assert_eq!(
        RunDigest::new(net.stats(), &library.centers),
        tree_digest,
        "{list}/{m}: library digest"
    );
    // Classic ledgers: identical per source and per message kind.
    for i in 0..m {
        assert_eq!(
            star_stats.uplink_bits(i),
            tree_stats.uplink_bits(i),
            "{list}/{m}: source {i} uplink"
        );
        assert_eq!(
            star_stats.downlink_bits(i),
            tree_stats.downlink_bits(i),
            "{list}/{m}: source {i} downlink"
        );
    }
    assert_eq!(
        star_stats.uplink_bits_by_kind(),
        tree_stats.uplink_bits_by_kind(),
        "{list}/{m}: kinds"
    );
    assert_eq!(
        star_stats.total_uplink_messages(),
        tree_stats.total_uplink_messages(),
        "{list}/{m}: uplink messages"
    );
    assert_eq!(library.uplink_bits, tree.uplink_bits, "{list}/{m}: uplink");
    assert_eq!(
        library.downlink_bits, tree.downlink_bits,
        "{list}/{m}: downlink"
    );
    assert_eq!(library.source_ops, star.source_ops, "{list}/{m}: star ops");
    assert_eq!(library.source_ops, tree.source_ops, "{list}/{m}: tree ops");
    assert_eq!(library.summary_points, tree.summary_points, "{list}/{m}");

    // The star run never touches the tree-only physical counters.
    assert_eq!(star_stats.total_relay_bits(), 0, "{list}/{m}");
    assert_eq!(star_stats.server_fold_inputs(), 0, "{list}/{m}");
    assert!(star_stats.merge_levels().is_empty(), "{list}/{m}");

    if m == 1 {
        // A single source is its own root: tree degenerates to star.
        assert_eq!(tree_stats.server_fold_inputs(), 0, "{list}/{m}");
        return;
    }
    // The headline counters: one server-side fold input per gather and
    // at most `ceil(log2 m) + 1` merge rounds (the `+ 1` is the root's
    // delivery to the server).
    assert_eq!(
        tree_stats.server_fold_inputs(),
        expected_gathers(list),
        "{list}/{m}: fold inputs"
    );
    assert_eq!(
        tree_stats.max_merge_rounds(),
        ceil_log2(m as u64) + 1,
        "{list}/{m}: merge rounds"
    );
    assert!(tree_stats.total_relay_bits() > 0, "{list}/{m}: relay");
    // The server folds strictly less than the star run ships to it.
    assert!(
        tree_stats.server_fold_bits() < star_stats.total_uplink_bits(),
        "{list}/{m}: fold ingest {} >= star uplink {}",
        tree_stats.server_fold_bits(),
        star_stats.total_uplink_bits()
    );
    // Per-gather active sets start at the responder count and halve.
    for (&(_, level), &active) in tree_stats.merge_levels() {
        assert!(
            active <= (m as u64).div_ceil(1 << level.min(62)),
            "{list}/{m}: level {level} active {active}"
        );
    }
}

#[test]
fn tree_matches_star_and_simulation_at_every_source_count() {
    for m in 1..=9 {
        assert_tree_matches("dispca,disss", m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn tree_matches_star_across_pipelines(m in 1usize..=9, p in 0usize..PIPELINES.len()) {
        assert_tree_matches(PIPELINES[p], m);
    }
}

/// A real executor behind an endpoint that dies on its `die_at`-th
/// command receive — the channel-backend analogue of a machine failing
/// mid-protocol at a chosen round.
struct DyingEndpoint<E> {
    inner: E,
    received: usize,
    die_at: usize,
}

impl<E: SourceEndpoint> SourceEndpoint for DyingEndpoint<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        self.received += 1;
        if self.received >= self.die_at {
            return Err(NetError::Transport {
                context: "fault injection",
                detail: "the source host failed".to_string(),
            });
        }
        self.inner.recv_command()
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        self.inner.send_response(resp)
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }
}

/// Runs `jl,stream,qt` at `m = 4` over the tree with source `victim`
/// dying on its `die_at`-th command, returning the degraded output.
/// Commands per source: describe, three stage rounds, transmit, then
/// the merge rounds — `die_at = 6` is the victim's first `MergeWith`.
fn run_with_mid_tree_death(victim: usize, die_at: usize) -> (RunOutput, Vec<u64>) {
    let m = 4;
    let data = workload(240, 10, 31);
    let params = SummaryParams::practical(2, 240, 10)
        .with_seed(17)
        .with_topology(Topology::Tree);
    let pipe = StagePipeline::from_names("jl,stream,qt", params).unwrap();
    let shards = partition_uniform(&data, m, pipe.params().seed).unwrap();
    let rows: Vec<u64> = shards.iter().map(|s| s.rows() as u64).collect();
    let (mut hub, endpoints) = channel_pairs(m);
    let out = std::thread::scope(|scope| {
        for (i, (endpoint, shard)) in endpoints.into_iter().zip(shards).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            scope.spawn(move || {
                let mut endpoint = DyingEndpoint {
                    inner: endpoint,
                    received: 0,
                    die_at: if i == victim { die_at } else { usize::MAX },
                };
                let _ = SourceExecutor::new(stages, params, i, m, shard).serve(&mut endpoint);
            });
        }
        pipe.run_driver(&mut hub).unwrap()
    });
    (out, rows)
}

#[test]
fn a_holder_lost_before_emitting_degrades_onto_the_survivors() {
    // Source 1 dies when asked to emit its buffered summary: its leaf
    // never reached anyone, so exactly source 1 is lost.
    let (out, rows) = run_with_mid_tree_death(1, 6);
    let record = out.degraded.expect("the lost holder must be recorded");
    let lost: Vec<usize> = record.lost_sources.iter().map(|&(i, _)| i).collect();
    assert_eq!(lost, vec![1]);
    assert_eq!(record.rows_lost, rows[1] as usize);
    assert_eq!(record.rows_total, rows.iter().sum::<u64>() as usize);
    let frac = record.rows_lost as f64 / record.rows_total as f64;
    let expected = (1.0 + 0.5) / (1.0 - frac);
    assert!(
        (record.cost_ratio_bound - expected).abs() < 1e-9,
        "cost-ratio bound {} vs {}",
        record.cost_ratio_bound,
        expected
    );
    assert!(out.summary_points > 0);
}

#[test]
fn a_holder_lost_after_its_partner_emitted_strands_only_its_own_leaf() {
    // Source 0 dies receiving source 1's emitted summary: the summary
    // already transited the server and joins the server-side fold, so
    // only source 0's leaf is lost.
    let (out, rows) = run_with_mid_tree_death(0, 6);
    let record = out.degraded.expect("the lost holder must be recorded");
    let lost: Vec<usize> = record.lost_sources.iter().map(|&(i, _)| i).collect();
    assert_eq!(lost, vec![0]);
    assert_eq!(record.rows_lost, rows[0] as usize);
    assert!(out.summary_points > 0);
}

/// Runs `jl,stream,qt` at replication 2 over the tree topology, with
/// `victim` (if any) dying on its `die_at`-th command. Every source
/// carries the cold replica shards its ring position assigns it, and
/// the driver runs behind the routing layer so a promoted origin's
/// merge rounds reach the persona via origin-id routing.
fn run_tree_replicated(
    m: usize,
    victim: Option<usize>,
    die_at: usize,
) -> (RunOutput, NetworkStats) {
    let data = workload(45 * m.max(4), 10, 31);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(17)
        .with_topology(Topology::Tree)
        .with_replication(2);
    let pipe = StagePipeline::from_names("jl,stream,qt", params).unwrap();
    let shards = partition_uniform(&data, m, pipe.params().seed).unwrap();
    let (hub, endpoints) = channel_pairs(m);
    std::thread::scope(|scope| {
        for (i, (endpoint, shard)) in endpoints.into_iter().zip(shards.clone()).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            let replicas: std::collections::BTreeMap<usize, Matrix> =
                edge_kmeans::core::params::replica_origins(i, m, 2)
                    .into_iter()
                    .map(|origin| (origin, shards[origin].clone()))
                    .collect();
            scope.spawn(move || {
                let mut endpoint = DyingEndpoint {
                    inner: endpoint,
                    received: 0,
                    die_at: if Some(i) == victim {
                        die_at
                    } else {
                        usize::MAX
                    },
                };
                let _ = SourceExecutor::new(stages, params, i, m, shard)
                    .with_replicas(replicas)
                    .serve(&mut endpoint);
            });
        }
        let mut routed = edge_kmeans::net::RoutingTransport::new(hub);
        let out = pipe.run_driver(&mut routed).unwrap();
        let stats = routed.stats().clone();
        (out, stats)
    })
}

/// Promotion under the tree, against the clean twin: whether the owner
/// dies before it emitted its summary (odd victim, killed on its
/// `MergeWith{emit}`), after its partner already emitted (even victim,
/// killed receiving the partner's summary), or mid-stage before any
/// merge began, the replica persona inherits the victim's merge role
/// via origin-id routing and the run recovers bit-identical.
fn assert_tree_promotion_recovers(m: usize) {
    let (clean, clean_stats) = run_tree_replicated(m, None, 0);
    assert!(clean.recovered.is_none() && clean.degraded.is_none());
    // die_at = 6 is the victim's first merge command (after describe,
    // three stage rounds, and transmit); die_at = 3 is mid-stage.
    for (victim, die_at) in [(1usize, 6usize), (0, 6), (1, 3)] {
        if victim >= m {
            continue;
        }
        let tag = format!("m={m} victim={victim} die_at={die_at}");
        let (out, stats) = run_tree_replicated(m, Some(victim), die_at);
        let host = (victim + 1) % m;
        assert!(out.degraded.is_none(), "{tag}: must not degrade");
        let rec = out.recovered.as_ref().expect("promotion must be recorded");
        assert_eq!(rec.promoted, vec![(victim, host)], "{tag}");
        for (a, b) in out.centers.as_slice().iter().zip(clean.centers.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: centers");
        }
        for i in 0..m {
            assert_eq!(
                stats.uplink_bits(i),
                clean_stats.uplink_bits(i),
                "{tag}: source {i} uplink"
            );
            assert_eq!(
                stats.downlink_bits(i),
                clean_stats.downlink_bits(i),
                "{tag}: source {i} downlink"
            );
        }
        assert_eq!(
            RunDigest::new(&stats, &out.centers),
            RunDigest::new(&clean_stats, &clean.centers),
            "{tag}: digest"
        );
        assert_eq!(stats.replica_promotions(), 1, "{tag}");
        assert!(stats.replica_bits() > 0, "{tag}");
    }
}

#[test]
fn tree_promotion_recovers_bit_identical() {
    for m in [2, 4, 5] {
        assert_tree_promotion_recovers(m);
    }
}

#[test]
fn tree_promotion_recovers_at_every_source_count() {
    // The full sweep rides CI's EKM_SCALE=full axis; the smoke axis
    // covers {2, 4, 5} above.
    if !std::env::var("EKM_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("full")) {
        return;
    }
    for m in 2..=9 {
        assert_tree_promotion_recovers(m);
    }
}
