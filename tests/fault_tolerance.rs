//! Fault tolerance end to end, in process: a source lost mid-stage
//! degrades the run (completes on the survivors, reports the dropped
//! shard, stays within the documented cost-ratio bound), and a driver
//! that crashes mid-run resumes from its journal to bit-identical
//! centers and network statistics — without the surviving executors
//! recomputing anything.

use edge_kmeans::core::journal::JournalingTransport;
use edge_kmeans::core::CoreError;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::protocol::{
    channel_pairs, Command, CommandTransport, EncodedCommand, Response, SourceEndpoint,
};
use edge_kmeans::net::{NetError, NetworkStats};
use edge_kmeans::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const FP: u64 = 0xFA17_70B5;

fn workload(n: usize, d: usize, seed: u64) -> Matrix {
    let raw = GaussianMixture::new(n, d, 2)
        .with_separation(4.0)
        .with_seed(seed)
        .generate()
        .unwrap()
        .points;
    edge_kmeans::data::normalize::normalize_paper(&raw).0
}

fn pipeline(list: &str, n: usize, d: usize) -> StagePipeline {
    StagePipeline::from_names(list, SummaryParams::practical(2, n, d).with_seed(9)).unwrap()
}

fn scratch_journal(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "ekm-ft-{tag}-{}-{}.journal",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_centers_bit_identical(a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "centers diverge: {x} vs {y}");
    }
}

/// A source endpoint that dies (typed transport error, then the
/// channel drops) after serving `remaining` commands — the in-process
/// stand-in for a killed edge device.
struct DyingEndpoint<E: SourceEndpoint> {
    inner: E,
    remaining: usize,
}

impl<E: SourceEndpoint> SourceEndpoint for DyingEndpoint<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        if self.remaining == 0 {
            return Err(NetError::Transport {
                context: "injected fault",
                detail: "source process killed".to_string(),
            });
        }
        self.remaining -= 1;
        self.inner.recv_command()
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        self.inner.send_response(resp)
    }
}

/// A driver-side transport that silently swallows every send after the
/// first `sends_before_crash`, or after it received the first loss of
/// `crash_after_loss_of`, and fails every receive from then on — the
/// in-process stand-in for a driver process dying mid-round.
struct FaultInjector<T: CommandTransport> {
    inner: T,
    sends_before_crash: usize,
    crash_after_loss_of: Option<usize>,
}

impl<T: CommandTransport> FaultInjector<T> {
    fn tripped(&self) -> bool {
        self.sends_before_crash == 0
    }
}

impl<T: CommandTransport> CommandTransport for FaultInjector<T> {
    fn sources(&self) -> usize {
        self.inner.sources()
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<(), NetError> {
        if self.tripped() {
            // The crashed driver reaches nobody — not even with the
            // abort broadcast `run_driver` fires on the way down.
            return Ok(());
        }
        self.sends_before_crash -= 1;
        self.inner.send_encoded(source, enc)
    }

    fn recv(&mut self, source: usize) -> Result<Response, NetError> {
        if self.tripped() {
            return Err(NetError::Transport {
                context: "injected fault",
                detail: "driver process crashed".to_string(),
            });
        }
        let resp = self.inner.recv(source)?;
        if matches!(resp, Response::SourceLost { .. }) && self.crash_after_loss_of == Some(source) {
            self.sends_before_crash = 0;
        }
        Ok(resp)
    }

    fn stats(&self) -> &NetworkStats {
        self.inner.stats()
    }

    fn promote(&mut self, origin: usize, host: usize) -> Result<(), NetError> {
        if self.tripped() {
            return Err(NetError::Transport {
                context: "injected fault",
                detail: "driver process crashed".to_string(),
            });
        }
        self.inner.promote(origin, host)
    }

    fn replaying(&self) -> bool {
        self.inner.replaying()
    }
}

#[test]
fn lost_source_degrades_within_the_documented_bound() {
    let n = 600;
    let d = 24;
    let m = 3;
    let pipe = pipeline("dispca,disss", n, d);
    let data = workload(n, d, 11);
    let shards = partition_uniform(&data, m, 7).unwrap();
    let lost_rows = shards[2].rows();

    // Clean twin: every source answers.
    let clean = pipe.run_channel(shards.clone()).unwrap();
    assert!(clean.degraded.is_none());

    // Faulted run: source 2 serves two commands (describe + the first
    // stage round), then dies mid-run.
    let (mut hub, endpoints) = channel_pairs(m);
    let degraded = std::thread::scope(|scope| {
        for (i, (ep, shard)) in endpoints.into_iter().zip(shards.clone()).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            scope.spawn(move || {
                let mut ep = DyingEndpoint {
                    inner: ep,
                    remaining: if i == 2 { 2 } else { usize::MAX },
                };
                let _ = SourceExecutor::new(stages, params, i, m, shard).serve(&mut ep);
            });
        }
        pipe.run_driver(&mut hub).unwrap()
    });

    let record = degraded.degraded.as_ref().expect("run must be degraded");
    assert_eq!(record.lost_sources.len(), 1);
    assert_eq!(record.lost_sources[0].0, 2);
    assert_eq!(record.rows_total, n);
    assert_eq!(record.rows_lost, lost_rows);
    let frac = lost_rows as f64 / n as f64;
    let expected_bound = (1.0 + pipe.params().epsilon) / (1.0 - frac);
    assert!((record.cost_ratio_bound - expected_bound).abs() < 1e-12);

    // The paper's accounting: the survivors still summarize their share
    // within (1 + ε), so the degraded centers' cost on the FULL dataset
    // stays within the documented ratio of the clean twin's.
    let degraded_cost = edge_kmeans::clustering::cost::cost(&data, &degraded.centers).unwrap();
    let clean_cost = edge_kmeans::clustering::cost::cost(&data, &clean.centers).unwrap();
    let ratio = degraded_cost / clean_cost;
    assert!(
        ratio <= record.cost_ratio_bound,
        "cost ratio {ratio:.4} exceeds the documented bound {:.4}",
        record.cost_ratio_bound
    );
}

#[test]
fn losing_every_source_is_a_typed_error_not_a_degraded_run() {
    let n = 300;
    let d = 12;
    let pipe = pipeline("dispca,disss", n, d);
    let data = workload(n, d, 13);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    let (mut hub, endpoints) = channel_pairs(2);
    std::thread::scope(|scope| {
        for (i, (ep, shard)) in endpoints.into_iter().zip(shards).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            scope.spawn(move || {
                // Both sources die after the describe round.
                let mut ep = DyingEndpoint {
                    inner: ep,
                    remaining: 1,
                };
                let _ = SourceExecutor::new(stages, params, i, 2, shard).serve(&mut ep);
            });
        }
        let err = pipe.run_driver(&mut hub).unwrap_err();
        assert!(
            matches!(err, CoreError::Net(NetError::Transport { .. })),
            "expected a typed transport error once no source survives, got {err:?}"
        );
    });
}

/// Runs `pipe` over the channel backend with replica shards distributed
/// per the canonical ring, killing each source after its entry in
/// `remaining` commands (use `usize::MAX` to keep one alive).
fn run_replicated_with_deaths(
    pipe: &StagePipeline,
    shards: &[Matrix],
    remaining: &[usize],
) -> edge_kmeans::core::Result<(RunOutput, NetworkStats)> {
    let m = shards.len();
    let r = pipe.params().replication;
    let (hub, endpoints) = channel_pairs(m);
    let mut routed = edge_kmeans::net::RoutingTransport::new(hub);
    std::thread::scope(|scope| {
        for (i, (ep, shard)) in endpoints.into_iter().zip(shards.to_vec()).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            let replicas: std::collections::BTreeMap<usize, Matrix> =
                edge_kmeans::core::params::replica_origins(i, m, r)
                    .into_iter()
                    .map(|o| (o, shards[o].clone()))
                    .collect();
            let die_after = remaining[i];
            scope.spawn(move || {
                let mut ep = DyingEndpoint {
                    inner: ep,
                    remaining: die_after,
                };
                let _ = SourceExecutor::new(stages, params, i, m, shard)
                    .with_replicas(replicas)
                    .serve(&mut ep);
            });
        }
        let out = pipe.run_driver(&mut routed)?;
        Ok((out, routed.stats().clone()))
    })
}

#[test]
fn promoted_replica_keeps_the_run_bit_identical() {
    let n = 600;
    let d = 24;
    let m = 4;
    let data = workload(n, d, 23);
    let shards = partition_uniform(&data, m, 7).unwrap();
    for list in ["dispca,disss", "jl,stream,qt"] {
        let params = SummaryParams::practical(2, n, d)
            .with_seed(9)
            .with_replication(2);
        let pipe = StagePipeline::from_names(list, params).unwrap();

        // Twin where the replica owned the shard from the start: executor
        // identity is (source id, shard), so that twin is exactly the
        // clean run — promotion rebuilds the same persona elsewhere.
        let (clean, clean_stats, _) = pipe.run_channel_detailed(shards.clone()).unwrap();
        assert!(clean.recovered.is_none(), "{list}: clean run promoted");

        // Source 1 dies after describe + two stage rounds; its ring
        // replica lives on source 2.
        let mut remaining = vec![usize::MAX; m];
        remaining[1] = 3;
        let (out, stats) = run_replicated_with_deaths(&pipe, &shards, &remaining).unwrap();

        assert!(out.degraded.is_none(), "{list}: degraded instead");
        let rec = out
            .recovered
            .as_ref()
            .expect("run must record the recovery");
        assert_eq!(rec.promoted, vec![(1, 2)], "{list}");

        assert_centers_bit_identical(&out.centers, &clean.centers);
        assert_eq!(out.uplink_bits, clean.uplink_bits, "{list}: uplink");
        assert_eq!(out.downlink_bits, clean.downlink_bits, "{list}: downlink");
        assert_eq!(out.summary_points, clean.summary_points, "{list}");
        for i in 0..m {
            assert_eq!(
                stats.uplink_bits(i),
                clean_stats.uplink_bits(i),
                "{list}: {i}"
            );
            assert_eq!(
                stats.downlink_bits(i),
                clean_stats.downlink_bits(i),
                "{list}: {i}"
            );
        }
        // The recovery overhead lives in its own counters, and the
        // digest (classic ledgers + centers) is unperturbed by it.
        assert_eq!(stats.replica_promotions(), 1, "{list}");
        assert!(stats.replica_bits() > 0, "{list}");
        assert!(stats.replayed_rounds() > 0, "{list}");
        assert_eq!(
            edge_kmeans::net::RunDigest::new(&stats, &out.centers),
            edge_kmeans::net::RunDigest::new(&clean_stats, &clean.centers),
            "{list}: digest"
        );
    }
}

#[test]
fn dead_owner_and_dead_replica_degrade_cleanly() {
    let n = 600;
    let d = 24;
    let m = 4;
    let data = workload(n, d, 29);
    let shards = partition_uniform(&data, m, 7).unwrap();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(9)
        .with_replication(2);
    let pipe = StagePipeline::from_names("dispca,disss", params).unwrap();

    // Sources 2 and 3 both die. Shard 2's only replica lives on 3 —
    // equally dead — so shard 2 degrades (the clean PR 7 path). Shard
    // 3's replica lives on 0 and recovers. One run, both records.
    let mut remaining = vec![usize::MAX; m];
    remaining[2] = 2;
    remaining[3] = 3;
    let (out, _) = run_replicated_with_deaths(&pipe, &shards, &remaining).unwrap();
    let record = out.degraded.as_ref().expect("run must be degraded");
    let lost: Vec<usize> = record.lost_sources.iter().map(|&(i, _)| i).collect();
    assert_eq!(lost, vec![2], "only the replica-less shard degrades");
    let rec = out.recovered.as_ref().expect("shard 3 must recover on 0");
    assert_eq!(rec.promoted, vec![(3, 0)]);
}

#[test]
fn crashed_driver_resumes_to_bit_identical_centers_and_stats() {
    let n = 600;
    let d = 20;
    let m = 3;
    let pipe = pipeline("dispca,disss", n, d);
    let data = workload(n, d, 17);
    let shards = partition_uniform(&data, m, 5).unwrap();

    // Clean twin for the bitwise comparison.
    let (clean, clean_stats, _) = pipe.run_channel_detailed(shards.clone()).unwrap();

    let journal = scratch_journal("resume");
    let (out, stats, replayed) = std::thread::scope(|scope| {
        let (hub, endpoints) = channel_pairs(m);
        for (i, (mut ep, shard)) in endpoints.into_iter().zip(shards.clone()).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            // The executors outlive the driver crash: real processes
            // keep their sockets open while the driver restarts.
            scope.spawn(move || SourceExecutor::new(stages, params, i, m, shard).serve(&mut ep));
        }

        // Attempt 1: the driver journals every round, then "crashes"
        // mid-fanout — after the describe round plus part of the first
        // stage broadcast.
        let recording = JournalingTransport::record(hub, &journal, FP).unwrap();
        let mut crashing = FaultInjector {
            inner: recording,
            sends_before_crash: 5,
            crash_after_loss_of: None,
        };
        let err = pipe.run_driver(&mut crashing).unwrap_err();
        assert!(
            matches!(err, CoreError::Net(NetError::Transport { .. })),
            "the injected crash must surface as a transport error, got {err:?}"
        );
        let hub = crashing.inner.into_inner();

        // Attempt 2: a fresh driver resumes from the journal over the
        // same executors. Replayed rounds come from disk; the round in
        // flight is reconciled from the executors' fingerprints; the
        // rest of the run happens live.
        let mut resuming = JournalingTransport::resume(hub, &journal, FP).unwrap();
        let replayed = resuming.replayed_entries();
        let out = pipe.run_driver(&mut resuming).unwrap();
        let stats = resuming.stats().clone();
        (out, stats, replayed)
    });
    let _ = std::fs::remove_file(&journal);

    assert!(replayed > 0, "the resume must replay journaled rounds");
    assert!(
        out.degraded.is_none(),
        "a resumed run is not a degraded run"
    );
    assert_centers_bit_identical(&out.centers, &clean.centers);
    assert_eq!(out.uplink_bits, clean.uplink_bits);
    assert_eq!(out.downlink_bits, clean.downlink_bits);
    assert_eq!(out.summary_points, clean.summary_points);
    for i in 0..m {
        assert_eq!(stats.uplink_bits(i), clean_stats.uplink_bits(i));
        assert_eq!(stats.downlink_bits(i), clean_stats.downlink_bits(i));
    }
}

#[test]
fn a_resumed_run_that_crashes_again_resumes_again() {
    let (n, d, m) = (600, 20, 3);
    let pipe = pipeline("dispca,disss", n, d);
    let data = workload(n, d, 17);
    let shards = partition_uniform(&data, m, 5).unwrap();
    let (clean, clean_stats, _) = pipe.run_channel_detailed(shards.clone()).unwrap();

    // The driver crashes after `first` sends, its resume after `second`
    // (the replayed ones included), and a third attempt resumes over the
    // same executors. A first crash inside a broadcast leaves a round
    // pending; the first resume journals its reissued answer between
    // that round's command records, where the second resume meets it.
    let mut failures = Vec::new();
    for (first, second) in [
        (3, 5),
        (4, 6),
        (5, 8),
        (6, 9),
        (7, 12),
        (8, 16),
        (10, 14),
        (12, 15),
    ] {
        let tag = format!("crashes after {first} then {second} sends");
        let journal = scratch_journal("twice");
        let third = std::thread::scope(|scope| {
            let (hub, endpoints) = channel_pairs(m);
            for (i, (mut ep, shard)) in endpoints.into_iter().zip(shards.clone()).enumerate() {
                let (stages, params) = (pipe.stages(), pipe.params());
                scope
                    .spawn(move || SourceExecutor::new(stages, params, i, m, shard).serve(&mut ep));
            }
            let mut crashing = FaultInjector {
                inner: JournalingTransport::record(hub, &journal, FP).unwrap(),
                sends_before_crash: first,
                crash_after_loss_of: None,
            };
            pipe.run_driver(&mut crashing).unwrap_err();
            let hub = crashing.inner.into_inner();
            let mut crashing = FaultInjector {
                inner: JournalingTransport::resume(hub, &journal, FP).unwrap(),
                sends_before_crash: second,
                crash_after_loss_of: None,
            };
            let second_attempt = pipe.run_driver(&mut crashing);
            assert!(
                second_attempt.is_err(),
                "{tag}: the second crash never fired"
            );
            let hub = crashing.inner.into_inner();
            let mut resuming = JournalingTransport::resume(hub, &journal, FP).unwrap();
            let out = pipe.run_driver(&mut resuming);
            out.map(|out| (out, resuming.stats().clone()))
        });
        let _ = std::fs::remove_file(&journal);
        let (out, stats) = match third {
            Ok(third) => third,
            Err(e) => {
                failures.push(format!("{tag}: the third attempt failed: {e}"));
                continue;
            }
        };
        let same_centers = out.centers.shape() == clean.centers.shape()
            && (out.centers.as_slice().iter())
                .zip(clean.centers.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same_centers || out.degraded.is_some() {
            failures.push(format!("{tag}: centers differ or the run degraded"));
        }
        if out.summary_points != clean.summary_points {
            failures.push(format!("{tag}: summary points differ"));
        }
        for i in 0..m {
            let bits = |s: &NetworkStats| (s.uplink_bits(i), s.downlink_bits(i));
            if bits(&stats) != bits(&clean_stats) {
                failures.push(format!("{tag}: source {i}'s bits differ"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn crash_during_promotion_resumes_to_bit_identical_centers() {
    let n = 600;
    let d = 20;
    let m = 3;
    let data = workload(n, d, 31);
    let shards = partition_uniform(&data, m, 5).unwrap();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(9)
        .with_replication(2);
    let pipe = StagePipeline::from_names("dispca,disss", params).unwrap();

    // Clean twin (no faults, no journal) for the bitwise comparison.
    let (clean, clean_stats, _) = pipe.run_channel_detailed(shards.clone()).unwrap();

    // Sweep the driver's crash point across the whole failover window —
    // before, during, and after the promotion — and require every
    // resume to land on the same bits. At least one point must fall
    // with the promotion record journaled but the run unfinished.
    let mut saw_promotion_window = false;
    for crash_after_sends in 12..=20 {
        let journal = scratch_journal("promo");
        let (out, stats, promo_journaled) = std::thread::scope(|scope| {
            let (hub, endpoints) = channel_pairs(m);
            for (i, (ep, shard)) in endpoints.into_iter().zip(shards.clone()).enumerate() {
                let stages = pipe.stages();
                let params = pipe.params();
                let replicas: std::collections::BTreeMap<usize, Matrix> =
                    edge_kmeans::core::params::replica_origins(i, m, 2)
                        .into_iter()
                        .map(|o| (o, shards[o].clone()))
                        .collect();
                scope.spawn(move || {
                    // Source 1 dies after describe + stage + basis; the
                    // other executors outlive the driver crash.
                    let mut ep = DyingEndpoint {
                        inner: ep,
                        remaining: if i == 1 { 3 } else { usize::MAX },
                    };
                    let _ = SourceExecutor::new(stages, params, i, m, shard)
                        .with_replicas(replicas)
                        .serve(&mut ep);
                });
            }

            // Attempt 1: source 1's death triggers a promotion onto
            // source 2; the driver crashes around it.
            let routed = edge_kmeans::net::RoutingTransport::new(hub);
            let recording = JournalingTransport::record(routed, &journal, FP).unwrap();
            let mut crashing = FaultInjector {
                inner: recording,
                sends_before_crash: crash_after_sends,
                crash_after_loss_of: None,
            };
            pipe.run_driver(&mut crashing).unwrap_err();
            let hub = crashing.inner.into_inner().into_inner();

            let (_, entries) = edge_kmeans::core::journal::read_journal(&journal).unwrap();
            let promo_journaled = entries.iter().any(|e| {
                matches!(
                    e,
                    edge_kmeans::core::journal::JournalEntry::Promoted { origin: 1, host: 2 }
                )
            });

            // Attempt 2: a fresh driver (fresh routing layer) resumes;
            // a journaled promotion re-fires at reconcile time.
            let routed = edge_kmeans::net::RoutingTransport::new(hub);
            let mut resuming = JournalingTransport::resume(routed, &journal, FP).unwrap();
            assert!(resuming.replayed_entries() > 0);
            let out = pipe.run_driver(&mut resuming).unwrap();
            let stats = resuming.stats().clone();
            (out, stats, promo_journaled)
        });
        let _ = std::fs::remove_file(&journal);
        saw_promotion_window |= promo_journaled;

        let tag = format!("crash after {crash_after_sends} sends");
        assert!(out.degraded.is_none(), "{tag}: recovery must not degrade");
        let rec = out.recovered.as_ref().expect("promotion must be recorded");
        assert_eq!(rec.promoted, vec![(1, 2)], "{tag}");
        assert_centers_bit_identical(&out.centers, &clean.centers);
        assert_eq!(out.uplink_bits, clean.uplink_bits, "{tag}");
        assert_eq!(out.downlink_bits, clean.downlink_bits, "{tag}");
        for i in 0..m {
            assert_eq!(
                stats.uplink_bits(i),
                clean_stats.uplink_bits(i),
                "{tag}: {i}"
            );
            assert_eq!(
                stats.downlink_bits(i),
                clean_stats.downlink_bits(i),
                "{tag}: {i}"
            );
        }
        assert_eq!(
            edge_kmeans::net::RunDigest::new(&stats, &out.centers),
            edge_kmeans::net::RunDigest::new(&clean_stats, &clean.centers),
            "{tag}: digest"
        );
    }
    assert!(
        saw_promotion_window,
        "no crash point landed inside the promotion window"
    );
}

/// A replica host that dies on receiving its first `Replay`: it acks
/// the promotion, then is lost while the driver rebuilds the persona.
struct DiesOnReplay<E: SourceEndpoint>(E);

impl<E: SourceEndpoint> SourceEndpoint for DiesOnReplay<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        match self.0.recv_command()? {
            Command::Replay { .. } => Err(NetError::Transport {
                context: "injected fault",
                detail: "replica host killed mid-replay".to_string(),
            }),
            cmd => Ok(cmd),
        }
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        self.0.send_response(resp)
    }
}

/// Runs `pipe` over fresh channel executors with replica shards on the
/// canonical ring (r = 2): `origin` dies after describe + stage + basis,
/// and `host`, its one replica holder, dies on the first replayed round.
/// Returns the driver's routed end of the channels.
fn spawn_replay_loss<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    pipe: &'env StagePipeline,
    shards: &'env [Matrix],
    origin: usize,
    host: usize,
) -> edge_kmeans::net::RoutingTransport<edge_kmeans::net::protocol::ChannelHub> {
    let m = shards.len();
    let (hub, endpoints) = channel_pairs(m);
    for (i, ep) in endpoints.into_iter().enumerate() {
        let replicas: std::collections::BTreeMap<usize, Matrix> =
            edge_kmeans::core::params::replica_origins(i, m, 2)
                .into_iter()
                .map(|o| (o, shards[o].clone()))
                .collect();
        let shard = shards[i].clone();
        scope.spawn(move || {
            let mut exec = SourceExecutor::new(pipe.stages(), pipe.params(), i, m, shard)
                .with_replicas(replicas);
            let _ = if i == origin {
                exec.serve(&mut DyingEndpoint {
                    inner: ep,
                    remaining: 3,
                })
            } else if i == host {
                exec.serve(&mut DiesOnReplay(ep))
            } else {
                exec.serve(&mut { ep })
            };
        });
    }
    edge_kmeans::net::RoutingTransport::new(hub)
}

#[test]
fn a_host_lost_while_rebuilding_a_persona_resumes_as_a_failed_attempt() {
    use edge_kmeans::core::journal::{absorbed_origins, read_journal, JournalEntry};
    let (n, d, m) = (600, 20, 3);
    let data = workload(n, d, 37);
    let shards = partition_uniform(&data, m, 5).unwrap();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(9)
        .with_replication(2);
    let pipe = StagePipeline::from_names("dispca,disss", params).unwrap();

    // (origin, host, the host's own replica holder). Source 1's host
    // dies on the first replayed round; source 2's host, source 0, has
    // answered its own round first, so its answer is journaled inside
    // the attempt. Either way the origin's shard degrades and the
    // host's fails over onto the third source.
    for (origin, host, next) in [(1, 2, 0), (2, 0, 1)] {
        let tag = format!("origin {origin}, host {host}");
        let journal = scratch_journal("replay-loss");
        let (live, live_stats) = std::thread::scope(|scope| {
            let routed = spawn_replay_loss(scope, &pipe, &shards, origin, host);
            let mut recording = JournalingTransport::record(routed, &journal, FP).unwrap();
            let out = pipe.run_driver(&mut recording).unwrap();
            (out, recording.stats().clone())
        });
        let lost = live.degraded.as_ref().map(|d| &d.lost_sources[..]);
        assert!(
            matches!(lost, Some([(i, _)]) if *i == origin),
            "{tag}: {lost:?}"
        );
        let rec = live
            .recovered
            .as_ref()
            .expect("the host's shard fails over");
        assert_eq!(rec.promoted, vec![(host, next)], "{tag}");

        // The attempt is journaled as the promotion, then nothing but
        // the host's own answers, then its receive-side loss; it
        // absorbed nothing.
        let (_, entries) = read_journal(&journal).unwrap();
        let attempt = entries
            .iter()
            .position(|e| matches!(e, JournalEntry::Promoted { origin: o, host: h } if (*o, *h) == (origin as u32, host as u32)))
            .expect("the promotion onto the host is journaled");
        let end = attempt
            + 1
            + entries[attempt + 1..]
                .iter()
                .take_while(
                    |e| matches!(e, JournalEntry::Resp { source, .. } if *source as usize == host),
                )
                .count();
        assert!(
            matches!(entries[end], JournalEntry::Lost { source, via_send: false, .. } if source as usize == host),
            "{tag}: {:?}",
            &entries[attempt..=end]
        );
        assert_eq!(absorbed_origins(&journal).unwrap(), vec![host], "{tag}");

        // Resuming the whole journal replays every record, the failed
        // attempt included, and never goes live: no executor is attached.
        let (hub, _endpoints) = channel_pairs(m);
        let routed = edge_kmeans::net::RoutingTransport::new(hub);
        let mut resuming = JournalingTransport::resume(routed, &journal, FP).unwrap();
        let resumed = pipe.run_driver(&mut resuming).unwrap();
        let resumed_stats = resuming.stats().clone();

        // A driver that crashed right after the attempt resumes over the
        // live executors, the dead host left out of reconciliation.
        let crashed = std::thread::scope(|scope| {
            let routed = spawn_replay_loss(scope, &pipe, &shards, origin, host);
            let recording = JournalingTransport::record(routed, &journal, FP).unwrap();
            let mut crashing = FaultInjector {
                inner: recording,
                sends_before_crash: usize::MAX,
                crash_after_loss_of: Some(host),
            };
            pipe.run_driver(&mut crashing).unwrap_err();
            let routed = crashing.inner.into_inner();
            let mut resuming = JournalingTransport::resume(routed, &journal, FP).unwrap();
            let out = pipe.run_driver(&mut resuming).unwrap();
            (out, resuming.stats().clone())
        });
        let _ = std::fs::remove_file(&journal);

        for (leg, (out, stats)) in [
            ("whole journal", (resumed, resumed_stats)),
            ("crash", crashed),
        ] {
            assert_centers_bit_identical(&out.centers, &live.centers);
            // Lost shards with their reasons, rows and bound.
            assert_eq!(out.degraded, live.degraded, "{tag}, {leg}");
            assert_eq!(out.recovered, live.recovered, "{tag}, {leg}");
            assert_eq!(out.uplink_bits, live.uplink_bits, "{tag}, {leg}");
            assert_eq!(out.downlink_bits, live.downlink_bits, "{tag}, {leg}");
            for i in 0..m {
                assert_eq!(
                    stats.uplink_bits(i),
                    live_stats.uplink_bits(i),
                    "{tag}, {leg}: {i}"
                );
                assert_eq!(
                    stats.downlink_bits(i),
                    live_stats.downlink_bits(i),
                    "{tag}, {leg}: {i}"
                );
            }
        }
    }
}

/// A source endpoint that dies on receiving a round command once it has
/// served `rounds` of them. Recovery frames (`Reissue`, `Resume`) are not
/// rounds, so the death stays at the same round however many of them a
/// resume sends.
struct DiesAfterRounds<E: SourceEndpoint> {
    inner: E,
    rounds: usize,
}

impl<E: SourceEndpoint> SourceEndpoint for DiesAfterRounds<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        let cmd = self.inner.recv_command()?;
        if cmd.is_round() {
            if self.rounds == 0 {
                return Err(NetError::Transport {
                    context: "injected fault",
                    detail: "source process killed".to_string(),
                });
            }
            self.rounds -= 1;
        }
        Ok(cmd)
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        self.inner.send_response(resp)
    }
}

/// The schedule of [`spawn_replay_loss`] with the origin's death counted
/// in round commands: it serves describe, stage and basis, and dies on
/// its fourth round command.
fn spawn_round_loss<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    pipe: &'env StagePipeline,
    shards: &'env [Matrix],
    origin: usize,
    host: usize,
) -> edge_kmeans::net::RoutingTransport<edge_kmeans::net::protocol::ChannelHub> {
    let m = shards.len();
    let (hub, endpoints) = channel_pairs(m);
    for (i, ep) in endpoints.into_iter().enumerate() {
        let replicas: std::collections::BTreeMap<usize, Matrix> =
            edge_kmeans::core::params::replica_origins(i, m, 2)
                .into_iter()
                .map(|o| (o, shards[o].clone()))
                .collect();
        let shard = shards[i].clone();
        scope.spawn(move || {
            let mut exec = SourceExecutor::new(pipe.stages(), pipe.params(), i, m, shard)
                .with_replicas(replicas);
            let _ = if i == origin {
                exec.serve(&mut DiesAfterRounds {
                    inner: ep,
                    rounds: 3,
                })
            } else if i == host {
                exec.serve(&mut DiesOnReplay(ep))
            } else {
                exec.serve(&mut { ep })
            };
        });
    }
    edge_kmeans::net::RoutingTransport::new(hub)
}

/// The lost sources of a run with their rows and bound, without the
/// reasons.
fn lost_shards(out: &RunOutput) -> Option<(Vec<usize>, usize, usize, u64)> {
    out.degraded.as_ref().map(|d| {
        let ids = d.lost_sources.iter().map(|&(i, _)| i).collect();
        (ids, d.rows_lost, d.rows_total, d.cost_ratio_bound.to_bits())
    })
}

#[test]
fn every_crash_point_of_a_replica_loss_resumes_as_the_live_run() {
    let (n, d, m) = (600, 20, 3);
    let data = workload(n, d, 37);
    let shards = partition_uniform(&data, m, 5).unwrap();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(9)
        .with_replication(2);
    let pipe = StagePipeline::from_names("dispca,disss", params).unwrap();

    // The two schedules of the failed-attempt test above: the origin
    // dies mid-run and its one replica holder dies rebuilding its
    // persona. The driver crashes after each send count in turn, up to
    // its last send, and resumes over the same executors and routing
    // layer.
    let mut failures = Vec::new();
    for (origin, host) in [(1, 2), (2, 0)] {
        let journal = scratch_journal("sweep");
        let (live, live_stats, sends) = std::thread::scope(|scope| {
            let routed = spawn_round_loss(scope, &pipe, &shards, origin, host);
            let mut counting = FaultInjector {
                inner: JournalingTransport::record(routed, &journal, FP).unwrap(),
                sends_before_crash: usize::MAX,
                crash_after_loss_of: None,
            };
            let out = pipe.run_driver(&mut counting).unwrap();
            let sends = usize::MAX - counting.sends_before_crash;
            (out, counting.stats().clone(), sends)
        });
        assert!(live.degraded.is_some() && live.recovered.is_some());
        for crash in 1..=sends {
            let tag = format!("origin {origin}, host {host}, crash after {crash} of {sends} sends");
            let resumed = std::thread::scope(|scope| {
                let routed = spawn_round_loss(scope, &pipe, &shards, origin, host);
                let mut crashing = FaultInjector {
                    inner: JournalingTransport::record(routed, &journal, FP).unwrap(),
                    sends_before_crash: crash,
                    crash_after_loss_of: None,
                };
                pipe.run_driver(&mut crashing).unwrap_err();
                let routed = crashing.inner.into_inner();
                let mut resuming = JournalingTransport::resume(routed, &journal, FP).unwrap();
                let out = pipe.run_driver(&mut resuming);
                out.map(|out| (out, resuming.stats().clone()))
            });
            let (out, stats) = match resumed {
                Ok(resumed) => resumed,
                Err(e) => {
                    failures.push(format!("{tag}: resume failed: {e}"));
                    continue;
                }
            };
            let same_centers = out.centers.shape() == live.centers.shape()
                && (out.centers.as_slice().iter())
                    .zip(live.centers.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            let ledgers = |s: &NetworkStats| {
                (0..m)
                    .map(|i| (s.uplink_bits(i), s.downlink_bits(i)))
                    .collect::<Vec<_>>()
            };
            if !same_centers {
                failures.push(format!("{tag}: centers differ"));
            }
            if ledgers(&stats) != ledgers(&live_stats) {
                failures.push(format!("{tag}: per-source bits differ"));
            }
            if out.recovered != live.recovered {
                failures.push(format!(
                    "{tag}: recovered {:?}, live {:?}",
                    out.recovered, live.recovered
                ));
            }
            if lost_shards(&out) != lost_shards(&live) {
                failures.push(format!(
                    "{tag}: lost {:?}, live {:?}",
                    out.degraded, live.degraded
                ));
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_journal_that_diverges_from_the_run_ends_it_at_the_diverging_send() {
    let (n, d, m) = (300, 12, 2);
    let data = workload(n, d, 41);
    let shards = partition_uniform(&data, m, 3).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(9);
    let full = StagePipeline::from_names("dispca,disss", params.clone()).unwrap();
    let journal = scratch_journal("diverge");
    std::thread::scope(|scope| {
        let (hub, endpoints) = channel_pairs(m);
        for (i, (mut ep, shard)) in endpoints.into_iter().zip(shards).enumerate() {
            let full = &full;
            scope.spawn(move || {
                SourceExecutor::new(full.stages(), full.params(), i, m, shard).serve(&mut ep)
            });
        }
        let mut net = JournalingTransport::record(hub, &journal, FP).unwrap();
        full.run_driver(&mut net).unwrap();
    });

    // The same journal under the same fingerprint, resumed by a run
    // that broadcasts its disPCA basis at f32: the replay matches every
    // record up to that broadcast, which differs from the first copy.
    let narrow =
        StagePipeline::from_names("dispca,disss", params.with_precision(Precision::F32)).unwrap();
    let (hub, _endpoints) = channel_pairs(m);
    let mut resuming = JournalingTransport::resume(hub, &journal, FP).unwrap();
    let err = narrow.run_driver(&mut resuming).unwrap_err();
    let _ = std::fs::remove_file(&journal);
    match err {
        CoreError::Journal { reason } => {
            assert!(
                reason.starts_with("driver sent deliver to source 0 but the journal holds"),
                "{reason}"
            );
            // The record is named, not dumped.
            assert!(reason.len() < 200, "{reason}");
        }
        other => panic!("expected a journal failure, got {other:?}"),
    }
}

#[test]
fn resume_with_a_different_run_fingerprint_is_refused() {
    let n = 200;
    let d = 10;
    let pipe = pipeline("dispca,disss", n, d);
    let data = workload(n, d, 19);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    let journal = scratch_journal("fp");

    std::thread::scope(|scope| {
        let (hub, endpoints) = channel_pairs(2);
        for (i, (mut ep, shard)) in endpoints.into_iter().zip(shards).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            scope.spawn(move || SourceExecutor::new(stages, params, i, 2, shard).serve(&mut ep));
        }
        let mut net = JournalingTransport::record(hub, &journal, FP).unwrap();
        pipe.run_driver(&mut net).unwrap();
    });

    // Resuming the finished journal under a different configuration
    // fingerprint must be a typed error, not a silent wrong replay.
    let (hub, _endpoints) = channel_pairs(2);
    let err = match JournalingTransport::resume(hub, &journal, FP ^ 1) {
        Ok(_) => panic!("a stale fingerprint must refuse to resume"),
        Err(e) => e,
    };
    let _ = std::fs::remove_file(&journal);
    assert!(
        matches!(err, CoreError::Journal { ref reason } if reason.contains("fingerprint")),
        "{err:?}"
    );
}

/// Satellite 2: a journal torn at *any* byte offset — the tail a crash
/// can leave when the filesystem drops the unsynced suffix — must
/// either parse cleanly (the truncation landed on a record boundary) or
/// fail with the typed journal error. Never a panic, never a
/// misclassified error, never a silently wrong entry list.
#[test]
fn journal_torn_at_every_byte_is_clean_or_typed() {
    use edge_kmeans::core::executor::SourceExecutor;
    use edge_kmeans::core::journal::read_journal;

    let n = 240;
    let d = 10;
    let m = 2;
    let data = workload(n, d, 29);
    let shards = partition_uniform(&data, m, 5).unwrap();
    let pipe = pipeline("dispca,disss", n, d);

    let journal = scratch_journal("torn");
    std::thread::scope(|scope| {
        let (hub, endpoints) = channel_pairs(m);
        for (i, (mut ep, shard)) in endpoints.into_iter().zip(shards).enumerate() {
            let stages = pipe.stages();
            let params = pipe.params();
            scope.spawn(move || SourceExecutor::new(stages, params, i, m, shard).serve(&mut ep));
        }
        let mut net = JournalingTransport::record(hub, &journal, FP).unwrap();
        pipe.run_driver(&mut net).unwrap();
    });

    let full = std::fs::read(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    let (_, complete) = {
        let torn = scratch_journal("torn-cut");
        std::fs::write(&torn, &full).unwrap();
        let parsed = read_journal(&torn).unwrap();
        let _ = std::fs::remove_file(&torn);
        parsed
    };
    assert!(complete.len() > 10, "run too short to tear meaningfully");

    let torn = scratch_journal("torn-cut");
    let mut clean_cuts = 0;
    for cut in 0..full.len() {
        std::fs::write(&torn, &full[..cut]).unwrap();
        match read_journal(&torn) {
            Ok((_, entries)) => {
                clean_cuts += 1;
                // A clean parse must be a strict prefix of the full
                // journal, not a reshuffled or invented history.
                assert!(entries.len() < complete.len(), "cut {cut}");
                assert_eq!(entries, complete[..entries.len()], "cut {cut}");
            }
            Err(CoreError::Journal { .. }) => {}
            Err(other) => panic!("cut {cut}: untyped error {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&torn);
    // Record boundaries exist where the torn tail parses cleanly — the
    // fsync-at-append discipline guarantees a crashed driver's journal
    // is one of these prefixes plus at most one torn record.
    assert!(clean_cuts >= complete.len(), "{clean_cuts} clean cuts");
}

mod health_properties {
    //! Satellite 3: the health machine's escalation contract, checked
    //! against a reference model for arbitrary loss patterns. The model
    //! is the documented spec: a loss against a source that answered
    //! (or was just re-homed) earns exactly one reissue; a loss against
    //! a suspect consumes the next ring replica; a failed promotion
    //! consumes the next replica with no reissue owed; an exhausted
    //! ring degrades, and degradation is absorbing.

    use edge_kmeans::core::health::{HealthMachine, RecoveryAction};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Ev {
        Loss,
        Response,
        PromoteFails,
    }

    fn events() -> impl Strategy<Value = Vec<Ev>> {
        proptest::collection::vec(
            prop_oneof![Just(Ev::Loss), Just(Ev::Response), Just(Ev::PromoteFails)],
            0..48,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escalation_order_is_deterministic_for_any_loss_pattern(
            ring_len in 0usize..5,
            events in events(),
        ) {
            let ring: Vec<usize> = (10..10 + ring_len).collect();
            let mut machine = HealthMachine::new(ring.clone());

            // The reference model.
            let mut unconsumed = ring.clone();
            let mut owed_reissue = true;
            let mut dead = false;
            let mut absorbed_on: Option<usize> = None;
            // Whether the driver is allowed to report a failed
            // promotion (only right after a Promote action).
            let mut promote_outstanding = false;

            for ev in events {
                match ev {
                    Ev::Response => {
                        machine.on_response();
                        owed_reissue = true;
                        promote_outstanding = false;
                    }
                    Ev::PromoteFails => {
                        if !promote_outstanding {
                            continue;
                        }
                        let got = machine.on_promotion_failed();
                        promote_outstanding = false;
                        if dead {
                            prop_assert_eq!(got, RecoveryAction::Degrade);
                            continue;
                        }
                        if unconsumed.is_empty() {
                            prop_assert_eq!(got, RecoveryAction::Degrade);
                            dead = true;
                            absorbed_on = None;
                        } else {
                            let host = unconsumed.remove(0);
                            prop_assert_eq!(got, RecoveryAction::Promote { host });
                            absorbed_on = Some(host);
                            promote_outstanding = true;
                            // next_replica clears suspicion: the fresh
                            // host gets its own reissue before the ring
                            // is consulted again.
                            owed_reissue = true;
                        }
                    }
                    Ev::Loss => {
                        let got = machine.on_loss();
                        promote_outstanding = false;
                        if dead {
                            prop_assert_eq!(got, RecoveryAction::Degrade);
                            continue;
                        }
                        if owed_reissue {
                            prop_assert_eq!(got, RecoveryAction::Reissue);
                            owed_reissue = false;
                        } else if unconsumed.is_empty() {
                            prop_assert_eq!(got, RecoveryAction::Degrade);
                            dead = true;
                            absorbed_on = None;
                        } else {
                            let host = unconsumed.remove(0);
                            prop_assert_eq!(got, RecoveryAction::Promote { host });
                            absorbed_on = Some(host);
                            promote_outstanding = true;
                            owed_reissue = true;
                        }
                    }
                }

                // The observable host always matches the model.
                prop_assert_eq!(machine.host(), absorbed_on);
            }
        }

        /// However the losses interleave, the ring hosts are promoted
        /// in canonical order, each at most once, and only a dry ring
        /// degrades.
        #[test]
        fn ring_hosts_promote_in_order_and_at_most_once(
            ring_len in 0usize..5,
            events in events(),
        ) {
            let ring: Vec<usize> = (20..20 + ring_len).collect();
            let mut machine = HealthMachine::new(ring.clone());
            let mut promoted = Vec::new();
            let mut degraded = false;
            let mut promote_outstanding = false;
            for ev in events {
                let got = match ev {
                    Ev::Response => {
                        machine.on_response();
                        promote_outstanding = false;
                        continue;
                    }
                    Ev::PromoteFails if promote_outstanding => machine.on_promotion_failed(),
                    Ev::PromoteFails => continue,
                    Ev::Loss => machine.on_loss(),
                };
                promote_outstanding = false;
                match got {
                    RecoveryAction::Reissue => {
                        prop_assert!(!degraded, "a degraded source was reissued");
                    }
                    RecoveryAction::Promote { host } => {
                        prop_assert!(!degraded, "a degraded source was promoted");
                        promoted.push(host);
                        promote_outstanding = true;
                    }
                    RecoveryAction::Degrade => {
                        if !degraded {
                            prop_assert_eq!(
                                promoted.len(),
                                ring.len(),
                                "degraded with live replicas unconsumed"
                            );
                        }
                        degraded = true;
                    }
                }
            }
            prop_assert!(promoted.len() <= ring.len());
            prop_assert_eq!(&promoted[..], &ring[..promoted.len()]);
        }
    }
}
