//! Protocol fault paths must surface as *typed outcomes*, never hangs:
//! a source that disconnects mid-stage degrades the run, a peer that
//! answers with the wrong frame type is a typed violation, a stale
//! configuration fingerprint fails the handshake, a missed command
//! deadline is reissued once and then degraded around — on both the
//! in-process channel backend and the event-driven TCP backend — and
//! journal records round-trip bitwise (with truncated tails as typed
//! errors, not panics).

use edge_kmeans::core::executor::SourceExecutor;
use edge_kmeans::core::journal::{
    read_entry, read_header, write_header, JournalEntry, JournalHeader,
};
use edge_kmeans::core::CoreError;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::event::{EventServerBinding, EventTcpSource};
use edge_kmeans::net::protocol::{
    channel_pairs, Command, CommandTransport, DeadlinePolicy, Response, SourceEndpoint,
};
use edge_kmeans::net::NetError;
use edge_kmeans::prelude::*;
use proptest::prelude::*;
use std::io::Cursor;
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
    let (mut hub, mut endpoints) = channel_pairs(2);
    let data = workload(200, 12, 1);
    let shards = partition_uniform(&data, 2, 3).unwrap();
    let out = std::thread::scope(|scope| {
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
    let (mut hub, mut endpoints) = channel_pairs(2);
    let out = std::thread::scope(|scope| {
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

#[test]
fn reissue_is_answered_from_the_executor_response_cache() {
    let (mut hub, mut endpoints) = channel_pairs(1);
    let pipe = pipeline("jl,fss", 100, 8);
    std::thread::scope(|scope| {
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
fn channel_response_type_mismatch_is_typed() {
    let pipe = pipeline("jl,fss", 200, 12);
    let (mut hub, mut endpoints) = channel_pairs(1);
    std::thread::scope(|scope| {
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
    let (mut hub, mut endpoints) = channel_pairs(1);
    let pipe = pipeline("jl,fss", 100, 8);
    std::thread::scope(|scope| {
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
                payload: edge_kmeans::net::Payload::of(
                    &edge_kmeans::net::messages::Message::SampleAllocation { size: 3 },
                ),
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
    let (mut hub, endpoints) = channel_pairs(2);
    std::thread::scope(|scope| {
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
