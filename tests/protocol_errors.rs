//! Protocol fault paths must surface as *typed outcomes*, never hangs:
//! a source that disconnects mid-stage degrades the run, a peer that
//! answers with the wrong frame type is a typed violation, a stale
//! configuration fingerprint fails the handshake, a missed command
//! deadline is reissued once and then degraded around — on both the
//! in-process channel backend and the event-driven TCP backend — a
//! finish-round counter report off the server's ledger is a divergence,
//! and journal records round-trip bitwise (with truncated tails as typed
//! errors, not panics).

use edge_kmeans::core::executor::SourceExecutor;
use edge_kmeans::core::journal::{
    read_entry, read_header, read_journal, write_header, JournalEntry, JournalHeader,
    JournalingTransport,
};
use edge_kmeans::core::CoreError;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::linalg::LinalgError;
use edge_kmeans::net::event::{EventServerBinding, EventTcpSource};
use edge_kmeans::net::messages::Message;
use edge_kmeans::net::protocol::{
    channel_pairs, Command, CommandTransport, DeadlinePolicy, Response, SourceEndpoint,
};
use edge_kmeans::net::{NetError, NetworkStats, Payload};
use edge_kmeans::prelude::*;
use proptest::prelude::*;
use std::io::Cursor;
use std::path::Path;
use std::time::Duration;

const FP: u64 = 0x0DD5_EED5;

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
    StagePipeline::from_names(list, SummaryParams::practical(2, n, d).with_seed(5)).unwrap()
}

#[test]
fn channel_source_disconnect_mid_stage_degrades_the_run() {
    let pipe = pipeline("dispca,disss", 200, 12);
    let data = workload(200, 12, 1);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    let out = std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs
        // up on the executors instead of leaving them waiting.
        let (mut hub, mut endpoints) = channel_pairs(2);
        // Source 0 runs honestly; source 1 answers the describe round,
        // then vanishes mid-stage. The driver completes on source 0 and
        // reports the dropped shard.
        let (e1, e0) = (endpoints.pop().unwrap(), endpoints.pop().unwrap());
        let s0 = shards[0].clone();
        let stages = pipe.stages();
        let params = pipe.params();
        scope.spawn(move || {
            let mut e0 = e0;
            let _ = SourceExecutor::new(stages, params, 0, 2, s0).serve(&mut e0);
        });
        scope.spawn(move || {
            let mut e1 = e1;
            let cmd = e1.recv_command().unwrap();
            assert_eq!(cmd, Command::Describe);
            e1.send_response(Response::Done {
                round: 1,
                rows: 100,
                cols: 12,
                ops: 0,
                seconds: 0.0,
            })
            .unwrap();
            // Dropped here: the driver must degrade, not hang or abort.
        });
        pipe.run_driver(&mut hub).unwrap()
    });
    let record = out.degraded.expect("the run must report the lost source");
    assert_eq!(record.lost_sources.len(), 1);
    assert_eq!(record.lost_sources[0].0, 1);
    assert_eq!(record.rows_lost, 100);
    assert_eq!(record.rows_total, 200);
}

#[test]
fn missed_deadline_is_reissued_once_then_degraded_around() {
    let n = 200;
    let d = 12;
    let params = SummaryParams::practical(2, n, d)
        .with_seed(5)
        .with_deadline(DeadlinePolicy::uniform(Duration::from_millis(150)));
    let pipe = StagePipeline::from_names("dispca,disss", params).unwrap();
    let data = workload(n, d, 4);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    let out = std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs
        // up on the executors instead of leaving them waiting.
        let (mut hub, mut endpoints) = channel_pairs(2);
        let (e1, e0) = (endpoints.pop().unwrap(), endpoints.pop().unwrap());
        let s0 = shards[0].clone();
        let stages = pipe.stages();
        let params = pipe.params();
        scope.spawn(move || {
            let mut e0 = e0;
            let _ = SourceExecutor::new(stages, params, 0, 2, s0).serve(&mut e0);
        });
        scope.spawn(move || {
            let mut e1 = e1;
            // The driver announces its deadline policy first.
            let cmd = e1.recv_command().unwrap();
            assert!(matches!(cmd, Command::Deadline { ms: 150 }));
            assert_eq!(e1.recv_command().unwrap(), Command::Describe);
            e1.send_response(Response::Done {
                round: 1,
                rows: 100,
                cols: 12,
                ops: 0,
                seconds: 0.0,
            })
            .unwrap();
            // Go silent on the stage round: the driver's command
            // deadline expires and it reissues the round once...
            let stage = e1.recv_command().unwrap();
            assert!(matches!(stage, Command::Stage { .. }), "{stage:?}");
            let reissue = e1.recv_command().unwrap();
            assert!(
                matches!(reissue, Command::Reissue { round: 2, .. }),
                "{reissue:?}"
            );
            // ...and stays silent again: dropped on the second miss.
        });
        pipe.run_driver(&mut hub).unwrap()
    });
    let record = out.degraded.expect("the stalled source must be dropped");
    assert_eq!(record.lost_sources.len(), 1);
    assert_eq!(record.lost_sources[0].0, 1);
}

/// A source endpoint that holds its first `Up` until the driver's
/// `Reissue` of that round has arrived: the original answer comes late,
/// after the command deadline, and the executor then answers the reissue
/// from its cache, a second copy of the round.
struct LateFirstUp<E> {
    inner: E,
    delayed: bool,
    reissue: Option<Command>,
}

impl<E: SourceEndpoint> SourceEndpoint for LateFirstUp<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        match self.reissue.take() {
            Some(cmd) => Ok(cmd),
            None => self.inner.recv_command(),
        }
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        if matches!(resp, Response::Up { .. }) && !std::mem::replace(&mut self.delayed, true) {
            let cmd = self.inner.recv_command()?;
            if !matches!(cmd, Command::Reissue { .. }) {
                return Err(NetError::ProtocolViolation {
                    context: "late answer",
                    expected: "a reissue of the held round",
                    got: format!("{cmd:?}"),
                });
            }
            self.reissue = Some(cmd);
        }
        self.inner.send_response(resp)
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }
}

/// Serves `shard` as the one source of `pipe` through a [`LateFirstUp`]
/// endpoint.
fn serve_late<E: SourceEndpoint>(pipe: &StagePipeline, shard: Matrix, inner: E) {
    let mut endpoint = LateFirstUp {
        inner,
        delayed: false,
        reissue: None,
    };
    let _ = SourceExecutor::new(pipe.stages(), pipe.params(), 0, 1, shard).serve(&mut endpoint);
}

/// Runs the driver over `net`, journaled to `journal` if given, and
/// returns its output and the ledger the driver checked the sources'
/// counter reports against.
fn drive<T: CommandTransport>(
    pipe: &StagePipeline,
    mut net: T,
    journal: Option<&Path>,
) -> (RunOutput, NetworkStats) {
    match journal {
        Some(path) => {
            let mut net = JournalingTransport::record(net, path, FP).unwrap();
            let out = pipe.run_driver(&mut net).unwrap();
            (out, net.stats().clone())
        }
        None => {
            let out = pipe.run_driver(&mut net).unwrap();
            (out, net.stats().clone())
        }
    }
}

/// `jl,fss` on one source whose first upload answers late, over loopback
/// TCP or channels, un-journaled and journaled: every run completes
/// undegraded with the undelayed twin's centers and ledger, and the
/// journal holds one response per round.
fn a_late_answer_is_charged_once(tcp: bool) {
    let (n, d) = (200, 12);
    let params = SummaryParams::practical(2, n, d)
        .with_seed(5)
        .with_deadline(DeadlinePolicy::uniform(Duration::from_millis(200)));
    let pipe = StagePipeline::from_names("jl,fss", params).unwrap();
    let data = workload(n, d, 8);
    let (twin, twin_stats, _) = pipe.run_channel_detailed(vec![data.clone()]).unwrap();
    let journal = std::env::temp_dir().join(format!(
        "ekm-late-answer-{}-{tcp}.journal",
        std::process::id()
    ));
    for path in [None, Some(journal.as_path())] {
        let (out, stats) = std::thread::scope(|scope| {
            let (pipe, shard) = (&pipe, data.clone());
            if tcp {
                let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
                let addr = binding.local_addr().unwrap();
                scope.spawn(move || {
                    let ep = EventTcpSource::connect(addr, 0, 1, FP, Duration::from_secs(10));
                    serve_late(pipe, shard, ep.unwrap())
                });
                drive(pipe, binding.accept(1, FP).unwrap(), path)
            } else {
                // The hub lives in this closure, so a failed run hangs
                // up on the executor instead of leaving it waiting.
                let (hub, mut endpoints) = channel_pairs(1);
                let ep = endpoints.pop().unwrap();
                scope.spawn(move || serve_late(pipe, shard, ep));
                drive(pipe, hub, path)
            }
        });
        let label = format!("tcp {tcp}, journal {}", path.is_some());
        assert!(out.degraded.is_none(), "{label}: {:?}", out.degraded);
        assert_eq!(out.centers.as_slice(), twin.centers.as_slice(), "{label}");
        assert_eq!(stats, twin_stats, "{label}");
    }
    let (_, entries) = read_journal(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    let rounds: Vec<u64> = entries
        .iter()
        .filter_map(|e| match e {
            JournalEntry::Resp { bytes, .. } => Response::decode(bytes).unwrap().round(),
            _ => None,
        })
        .collect();
    let once: Vec<u64> = (1..=rounds.len() as u64).collect();
    assert_eq!(rounds, once, "one journaled response per round");
}

#[test]
fn a_late_answer_is_charged_once_over_channels() {
    a_late_answer_is_charged_once(false);
}

#[test]
fn a_late_answer_is_charged_once_over_tcp() {
    a_late_answer_is_charged_once(true);
}

#[test]
fn reissue_is_answered_from_the_executor_response_cache() {
    let pipe = pipeline("jl,fss", 100, 8);
    std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs
        // up on the executors instead of leaving them waiting.
        let (mut hub, mut endpoints) = channel_pairs(1);
        let shard = workload(100, 8, 2);
        let stages = pipe.stages();
        let params = pipe.params();
        let handle = scope.spawn(move || {
            let mut ep = endpoints.pop().unwrap();
            SourceExecutor::new(stages, params, 0, 1, shard).serve(&mut ep)
        });
        hub.send(0, &Command::Describe).unwrap();
        let first = hub.recv(0).unwrap();
        assert!(matches!(first, Response::Done { round: 1, .. }));

        // A reissue of the current round must resend the cached bytes —
        // no recomputation, bit-identical.
        hub.send(
            0,
            &Command::Reissue {
                round: 1,
                cmd: Box::new(Command::Describe),
            },
        )
        .unwrap();
        let replayed = hub.recv(0).unwrap();
        assert_eq!(replayed.encode(), first.encode());

        // A resume probe reports the executor's round and fingerprint.
        hub.send(0, &Command::Resume { round: 1 }).unwrap();
        match hub.recv(0).unwrap() {
            Response::Resumed { round, .. } => assert_eq!(round, 1),
            other => panic!("expected a resumed response, got {other:?}"),
        }

        // A reissue for a round the executor never saw is a violation:
        // the executor reports the reason in a best-effort `Err` frame,
        // then hangs up — so the driver learns *why* before degrading.
        hub.send(
            0,
            &Command::Reissue {
                round: 7,
                cmd: Box::new(Command::Describe),
            },
        )
        .unwrap();
        match hub.recv(0).unwrap() {
            Response::Err { reason } => {
                assert!(reason.contains("reissue"), "{reason}");
            }
            other => panic!("expected an err response, got {other:?}"),
        }
        let err = handle.join().unwrap().unwrap_err();
        assert!(matches!(
            err,
            CoreError::Net(NetError::ProtocolViolation {
                context: "reissue",
                ..
            })
        ));
    });
}

#[test]
fn a_reissued_transmit_resends_the_identical_upload_over_tcp() {
    // The executor caches its last response, whose payload shares the
    // encoding it uplinked: a reissued transmit goes out again, through
    // the vectored frame write, byte for byte the first upload.
    let pipe = pipeline("qt:8", 120, 6);
    let shard = workload(120, 6, 4);
    let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
    let addr = binding.local_addr().unwrap();
    std::thread::scope(|scope| {
        let (stages, params) = (pipe.stages(), pipe.params());
        let source = scope.spawn(move || {
            let mut ep = EventTcpSource::connect(addr, 0, 1, FP, Duration::from_secs(10)).unwrap();
            SourceExecutor::new(stages, params, 0, 1, shard).serve(&mut ep)
        });
        let mut net = binding.accept(1, FP).unwrap();
        for cmd in [Command::Describe, Command::Stage { index: 0 }] {
            net.send(0, &cmd).unwrap();
            assert!(matches!(net.recv(0).unwrap(), Response::Done { .. }));
        }
        net.send(0, &Command::Transmit).unwrap();
        let first = net.recv(0).unwrap();
        assert!(matches!(first, Response::Up { round: 3, .. }), "{first:?}");
        net.send(
            0,
            &Command::Reissue {
                round: 3,
                cmd: Box::new(Command::Transmit),
            },
        )
        .unwrap();
        let again = net.recv(0).unwrap();
        assert_eq!(again.encode(), first.encode());
        net.send(
            0,
            &Command::Finish {
                uplink_bits: 0,
                downlink_bits: 0,
                centers_hash: 0,
            },
        )
        .unwrap();
        assert!(matches!(net.recv(0).unwrap(), Response::Fin { .. }));
        source.join().unwrap().unwrap();
    });
}

#[test]
fn executor_runs_stages_only_in_plan_order() {
    // A stage command must name the next stage of the plan: skipping
    // ahead, repeating a stage or running past the end is a violation,
    // reported in a best-effort `Err` frame before the executor stops.
    let pipe = pipeline("jl,qt,fss", 100, 8);
    let cases: [(&str, &[u32]); 3] = [
        ("skipped", &[1]),
        ("repeated", &[0, 0]),
        ("past the end", &[0, 1, 2, 3]),
    ];
    for (name, order) in cases {
        std::thread::scope(|scope| {
            // The hub lives in this closure, so a failed assertion hangs
            // up on the executor instead of leaving it waiting.
            let (mut hub, mut endpoints) = channel_pairs(1);
            let mut ep = endpoints.pop().unwrap();
            let shard = workload(100, 8, 2);
            let stages = pipe.stages();
            let params = pipe.params();
            let handle = scope
                .spawn(move || SourceExecutor::new(stages, params, 0, 1, shard).serve(&mut ep));
            hub.send(0, &Command::Describe).unwrap();
            assert!(matches!(hub.recv(0).unwrap(), Response::Done { .. }));
            let (&bad, honest) = order.split_last().unwrap();
            for &index in honest {
                hub.send(0, &Command::Stage { index }).unwrap();
                let resp = hub.recv(0).unwrap();
                assert!(matches!(resp, Response::Done { .. }), "{name}: {resp:?}");
            }
            hub.send(0, &Command::Stage { index: bad }).unwrap();
            match hub.recv(0).unwrap() {
                Response::Err { reason } => {
                    assert!(reason.contains("stage command"), "{name}: {reason}");
                }
                other => panic!("{name}: expected an err response, got {other:?}"),
            }
            let err = handle.join().unwrap().unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::Net(NetError::ProtocolViolation {
                        context: "stage command",
                        ..
                    })
                ),
                "{name}: {err:?}"
            );
        });
    }
}

#[test]
fn channel_response_type_mismatch_is_typed() {
    let pipe = pipeline("jl,fss", 200, 12);
    std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs
        // up on the executors instead of leaving them waiting.
        let (mut hub, mut endpoints) = channel_pairs(1);
        let mut ep = endpoints.pop().unwrap();
        scope.spawn(move || {
            // Answer the describe round with a Fin — the wrong type.
            let _ = ep.recv_command().unwrap();
            ep.send_response(Response::Fin {
                round: 1,
                uplink_bits: 0,
                downlink_bits: 0,
            })
            .unwrap();
            // The driver aborts; drain the abort so the send doesn't
            // linger.
            let _ = ep.recv_command();
        });
        let err = pipe.run_driver(&mut hub).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Net(NetError::ProtocolViolation {
                    expected: "a done response",
                    ..
                })
            ),
            "expected a protocol violation, got {err:?}"
        );
    });
}

#[test]
fn executor_rejects_mismatched_deliver_payload() {
    // A Deliver with no pending interactive phase must be refused.
    let pipe = pipeline("jl,fss", 100, 8);
    std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs
        // up on the executors instead of leaving them waiting.
        let (mut hub, mut endpoints) = channel_pairs(1);
        let shard = workload(100, 8, 2);
        let stages = pipe.stages();
        let params = pipe.params();
        let handle = scope.spawn(move || {
            let mut ep = endpoints.pop().unwrap();
            SourceExecutor::new(stages, params, 0, 1, shard).serve(&mut ep)
        });
        hub.send(
            0,
            &Command::Deliver {
                payload: Payload::of(&Message::SampleAllocation { size: 3 }),
            },
        )
        .unwrap();
        match hub.recv(0).unwrap() {
            Response::Err { reason } => {
                assert!(reason.contains("no downlink payload"), "{reason}");
            }
            other => panic!("expected an err response, got {other:?}"),
        }
        let err = handle.join().unwrap().unwrap_err();
        assert!(matches!(
            err,
            CoreError::Net(NetError::ProtocolViolation { .. })
        ));
    });
}

#[test]
fn event_tcp_source_disconnect_mid_stage_degrades_the_run() {
    let pipe = pipeline("dispca,disss", 240, 10);
    let data = workload(240, 10, 3);
    let shards = partition_uniform(&data, 2, 4).unwrap();
    let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
    let addr = binding.local_addr().unwrap();
    let out = std::thread::scope(|scope| {
        let s0 = shards[0].clone();
        let stages = pipe.stages();
        let params = pipe.params();
        scope.spawn(move || {
            let mut ep = EventTcpSource::connect(addr, 0, 2, FP, Duration::from_secs(10)).unwrap();
            let _ = SourceExecutor::new(stages, params, 0, 2, s0).serve(&mut ep);
        });
        scope.spawn(move || {
            let mut ep = EventTcpSource::connect(addr, 1, 2, FP, Duration::from_secs(10)).unwrap();
            // Answer the describe round, then drop the socket.
            match ep.recv_command().unwrap() {
                Command::Describe => ep
                    .send_response(Response::Done {
                        round: 1,
                        rows: 120,
                        cols: 10,
                        ops: 0,
                        seconds: 0.0,
                    })
                    .unwrap(),
                other => panic!("unexpected {other:?}"),
            }
        });
        let mut net = binding.accept(2, FP).unwrap();
        pipe.run_driver(&mut net).unwrap()
    });
    let record = out.degraded.expect("the run must report the lost source");
    assert_eq!(record.lost_sources.len(), 1);
    assert_eq!(record.lost_sources[0].0, 1);
    assert_eq!(record.rows_lost, 120);
    assert_eq!(record.rows_total, 240);
}

#[test]
fn event_tcp_stale_fingerprint_fails_handshake() {
    let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
    let addr = binding.local_addr().unwrap();
    let src = std::thread::spawn(move || {
        EventTcpSource::connect(addr, 0, 1, FP ^ 0xF00, Duration::from_secs(10))
    });
    let err = binding.accept(1, FP).unwrap_err();
    assert!(
        matches!(err, NetError::Handshake { ref reason } if reason.contains("fingerprint")),
        "{err:?}"
    );
    assert!(src.join().unwrap().is_err());
}

#[test]
fn driver_validation_aborts_sources_with_the_reason() {
    // `fss` over two sources is invalid; the driver must fail with a
    // configuration error and the executors must be told to abort (typed
    // RemoteAbort), not left waiting.
    let pipe = pipeline("fss", 200, 8);
    let data = workload(200, 8, 6);
    let shards = partition_uniform(&data, 2, 5).unwrap();
    std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs
        // up on the executors instead of leaving them waiting.
        let (mut hub, endpoints) = channel_pairs(2);
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(shards)
            .enumerate()
            .map(|(i, (mut ep, shard))| {
                let stages = pipe.stages();
                let params = pipe.params();
                scope.spawn(move || SourceExecutor::new(stages, params, i, 2, shard).serve(&mut ep))
            })
            .collect();
        let err = pipe.run_driver(&mut hub).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidConfig { .. }),
            "driver error: {err:?}"
        );
        for handle in handles {
            let err = handle.join().unwrap().unwrap_err();
            match err {
                CoreError::Net(NetError::RemoteAbort { reason }) => {
                    assert!(reason.contains("single-source"), "{reason}");
                }
                other => panic!("expected a remote abort, got {other:?}"),
            }
        }
    });
}

/// A source endpoint that swaps the payload of its `nth` `Up` response
/// for a cost report: a well-formed message of the wrong kind.
struct WrongKind<E> {
    inner: E,
    nth: usize,
    seen: usize,
}

impl<E: SourceEndpoint> SourceEndpoint for WrongKind<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        self.inner.recv_command()
    }

    fn send_response(&mut self, mut resp: Response) -> Result<(), NetError> {
        if let Response::Up { payload, .. } = &mut resp {
            self.seen += 1;
            if self.seen == self.nth {
                *payload = Payload::of(&Message::CostReport { cost: 1.0 });
            }
        }
        self.inner.send_response(resp)
    }
}

#[test]
fn a_summary_of_the_wrong_kind_is_a_typed_protocol_error() {
    let data = workload(200, 12, 7);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    // (stages, which of source 0's uploads to swap, the driver's
    // reason). The third `Up` of dispca,disss is the disSS sample, after
    // the SVD summary and the cost report. A run in which that upload
    // never comes completes, and `unwrap_err` fails the case.
    for (list, nth, reason) in [
        ("dispca,disss", 1, "expected svd summary"),
        ("dispca,disss", 3, "expected a coreset message"),
        ("jl", 1, "expected raw data or a coreset"),
    ] {
        let params = SummaryParams::practical(2, 200, 12).with_seed(5);
        let pipe = StagePipeline::from_names(list, params).unwrap();
        let err = std::thread::scope(|scope| {
            // The hub lives in this closure, so a failed assertion
            // hangs up on the executors instead of leaving them waiting.
            let (mut hub, endpoints) = channel_pairs(2);
            for (i, (inner, shard)) in endpoints.into_iter().zip(&shards).enumerate() {
                let (stages, params) = (pipe.stages(), pipe.params());
                let nth = if i == 0 { nth } else { 0 };
                scope.spawn(move || {
                    let mut endpoint = WrongKind {
                        inner,
                        nth,
                        seen: 0,
                    };
                    // The driver aborts the run, so the executor fails too.
                    let _ = SourceExecutor::new(stages, params, i, 2, shard.clone())
                        .serve(&mut endpoint);
                });
            }
            pipe.run_driver(&mut hub).unwrap_err()
        });
        assert!(
            matches!(err, CoreError::Protocol { reason: r } if r == reason),
            "{list}, up {nth}: {err:?}"
        );
    }
}

/// A source endpoint that sets the first value of its first `Up` to NaN
/// — a singular value, a raw or coreset point coordinate, or a basis
/// entry: a well-formed summary holding a non-finite value.
struct NanSummary<E> {
    inner: E,
    armed: bool,
}

impl<E: SourceEndpoint> SourceEndpoint for NanSummary<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        self.inner.recv_command()
    }

    fn send_response(&mut self, mut resp: Response) -> Result<(), NetError> {
        if let Response::Up { payload, .. } = &mut resp {
            if std::mem::take(&mut self.armed) {
                let mut msg = payload.decode()?;
                match &mut msg {
                    Message::SvdSummary {
                        singular_values, ..
                    } => singular_values[0] = f64::NAN,
                    Message::RawData { points }
                    | Message::Coreset { points, .. }
                    | Message::Basis { basis: points, .. } => points.as_mut_slice()[0] = f64::NAN,
                    other => panic!("no value to poison in {other:?}"),
                }
                *payload = Payload::of(&msg);
            }
        }
        self.inner.send_response(resp)
    }
}

#[test]
fn a_non_finite_summary_is_a_typed_error_not_a_panic() {
    // Source 0's first upload is poisoned: an SVD summary the server
    // folds into the global disPCA basis (the eigensolver refuses it),
    // raw points, coreset points, or the FSS basis (the server refuses
    // those before the solve and the lift).
    for (list, m) in [("dispca,disss", 2), ("jl", 2), ("jl,stream", 2), ("fss", 1)] {
        let pipe = pipeline(list, 200, 12);
        let data = workload(200, 12, 7);
        let shards = partition_uniform(&data, m, 3).unwrap();
        let err = std::thread::scope(|scope| {
            // The hub lives in this closure, so a failed assertion hangs
            // up on the executors instead of leaving them waiting.
            let (mut hub, endpoints) = channel_pairs(m);
            for (i, (inner, shard)) in endpoints.into_iter().zip(&shards).enumerate() {
                let (stages, params) = (pipe.stages(), pipe.params());
                scope.spawn(move || {
                    let mut endpoint = NanSummary {
                        inner,
                        armed: i == 0,
                    };
                    // The driver aborts the run, so the executor fails too.
                    let _ = SourceExecutor::new(stages, params, i, m, shard.clone())
                        .serve(&mut endpoint);
                });
            }
            pipe.run_driver(&mut hub).unwrap_err()
        });
        assert!(
            matches!(err, CoreError::Linalg(LinalgError::NonFinite { .. })),
            "{list}: {err:?}"
        );
    }
}

/// A source endpoint that passes its `Fin` through `rewrite`.
struct RewriteFin<E> {
    inner: E,
    rewrite: fn(Response) -> Response,
}

impl<E: SourceEndpoint> SourceEndpoint for RewriteFin<E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        self.inner.recv_command()
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        let resp = match resp {
            fin @ Response::Fin { .. } => (self.rewrite)(fin),
            other => other,
        };
        self.inner.send_response(resp)
    }
}

#[test]
fn a_miscounted_fin_is_named_before_later_sources_answer() {
    // Source 0 reports one uplink bit more than the server's ledger
    // holds for it; source 1 answers the finish round with an error.
    // The driver checks each report as it comes in, so the run fails
    // with source 0's divergence, not source 1's abort.
    let rewrites: [fn(Response) -> Response; 2] = [
        |fin| match fin {
            Response::Fin {
                round,
                uplink_bits,
                downlink_bits,
            } => Response::Fin {
                round,
                uplink_bits: uplink_bits + 1,
                downlink_bits,
            },
            other => other,
        },
        |_| Response::Err {
            reason: "source 1 gave up".into(),
        },
    ];
    let pipe = pipeline("dispca,disss", 200, 12);
    let data = workload(200, 12, 7);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    let err = std::thread::scope(|scope| {
        // The hub lives in this closure, so a failed assertion hangs up
        // on the executors instead of leaving them waiting.
        let (mut hub, endpoints) = channel_pairs(2);
        let sources = endpoints.into_iter().zip(&shards).zip(rewrites);
        for (i, ((inner, shard), rewrite)) in sources.enumerate() {
            let (stages, params) = (pipe.stages(), pipe.params());
            scope.spawn(move || {
                let mut endpoint = RewriteFin { inner, rewrite };
                let _ =
                    SourceExecutor::new(stages, params, i, 2, shard.clone()).serve(&mut endpoint);
            });
        }
        pipe.run_driver(&mut hub).unwrap_err()
    });
    assert!(
        matches!(
            err,
            CoreError::Net(NetError::Divergence {
                source: 0,
                direction: "counter report",
            })
        ),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------
// Journal record encoding: property tests.
// ---------------------------------------------------------------------

fn short_reason() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 0..24)
        .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect())
}

fn journal_entry() -> impl Strategy<Value = JournalEntry> {
    prop_oneof![
        (0u32..64, proptest::collection::vec(0u8..=255, 0..96))
            .prop_map(|(source, bytes)| JournalEntry::Cmd { source, bytes }),
        (0u32..64, proptest::collection::vec(0u8..=255, 0..96))
            .prop_map(|(source, bytes)| JournalEntry::Resp { source, bytes }),
        (0u32..64, 0u8..2, short_reason()).prop_map(|(source, via, reason)| {
            JournalEntry::Lost {
                source,
                via_send: via == 1,
                reason,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary command rounds survive encode/decode bitwise.
    #[test]
    fn journal_entries_roundtrip(entries in proptest::collection::vec(journal_entry(), 0..12)) {
        let mut buf = Vec::new();
        write_header(&mut buf, &JournalHeader { sources: 3, fingerprint: FP }).unwrap();
        for e in &entries {
            e.write_to(&mut buf).unwrap();
        }
        let mut r = Cursor::new(buf.as_slice());
        let header = read_header(&mut r).unwrap();
        prop_assert_eq!(header, JournalHeader { sources: 3, fingerprint: FP });
        let mut decoded = Vec::new();
        while let Some(e) = read_entry(&mut r).unwrap() {
            decoded.push(e);
        }
        prop_assert_eq!(decoded, entries);
    }

    /// A journal cut anywhere mid-record is a typed error (or a clean
    /// EOF when the cut lands on a record boundary) — never a panic,
    /// and never a phantom record.
    #[test]
    fn truncated_journal_tails_are_typed_errors(
        entries in proptest::collection::vec(journal_entry(), 1..6),
        frac in 0.0f64..1.0,
    ) {
        let mut head = Vec::new();
        write_header(&mut head, &JournalHeader { sources: 2, fingerprint: FP }).unwrap();
        let header_len = head.len();
        let mut buf = head;
        let mut boundaries = vec![buf.len()];
        for e in &entries {
            e.write_to(&mut buf).unwrap();
            boundaries.push(buf.len());
        }
        let cut = header_len + ((buf.len() - header_len) as f64 * frac) as usize;
        let truncated = &buf[..cut];
        let mut r = Cursor::new(truncated);
        read_header(&mut r).unwrap();
        let mut good = 0usize;
        let outcome = loop {
            match read_entry(&mut r) {
                Ok(Some(_)) => good += 1,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // Every fully-written record before the cut decodes; the cut
        // itself is either a clean EOF (on a boundary) or a typed error.
        let full_records = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(good, full_records);
        if boundaries.contains(&cut) {
            prop_assert!(outcome.is_ok());
        } else {
            prop_assert!(matches!(outcome, Err(CoreError::Journal { .. })));
        }
    }
}
