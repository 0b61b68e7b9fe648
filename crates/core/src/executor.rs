//! The source-side executor of the server-driven protocol.
//!
//! A [`SourceExecutor`] is one data source: it holds **only its own
//! shard** plus the shared plan (stage list + parameters), and answers
//! the server driver's commands over an [`ekm_net::SourceEndpoint`]. It
//! never sees another source's points — the only downlink payloads it
//! accepts are the disPCA basis broadcast and the disSS sample
//! allocation, exactly the messages the paper's protocols send to the
//! sources.
//!
//! This is the only place a source-side stage runs. Every pipeline —
//! `ekm run`, `ekm sweep`, the library entry points of
//! [`crate::StagePipeline`], and `ekm source` across real processes —
//! computes its per-source work here, resolving each stage with the
//! shared helpers in [`crate::stage`] (dimensions, seed streams, the
//! `JlBook`) and the disSS/disPCA local steps in
//! [`crate::distributed`], so a source's responses depend only on the
//! plan and its shard. The golden fixtures in `tests/golden/` pin them.
//!
//! The source-local stages (`jl`, `fss`, `stream`) are memoized when an
//! in-process sweep attaches a shared [`StageCache`]: each executor
//! looks up and stores its own state snapshot, and a hit replays the
//! recorded operation count and seconds in its `Done` reply.

use crate::cache::{StageCache, StageSnapshot};
use crate::complexity;
use crate::distributed::{
    disss_local_bicriteria, disss_local_sample, local_svd_summary, merge_summary_messages,
};
use crate::params::{SummaryParams, Topology};
use crate::pipelines::{quantize_for_wire, seeds};
use crate::projection::MaybeProjection;
use crate::stage::{
    dispca_rank, disss_budget, fss_dims, jl_target_dim, resolve_quantizer, stream_plan, FssStage,
    JlBook, JlStage, Stage, StreamStage,
};
use crate::{CoreError, Result};
use ekm_clustering::bicriteria::BicriteriaSolution;
use ekm_coreset::{FssBuilder, StreamingCoreset};
use ekm_linalg::random::derive_seed;
use ekm_linalg::{ops, Matrix};
use ekm_net::fnv::Fnv;
use ekm_net::messages::Message;
use ekm_net::protocol::{Command, DeadlinePolicy, Payload, Response, SourceEndpoint};
use ekm_net::NetError;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// FNV-1a fingerprint of an executor's protocol position: the round
/// counter plus its own uplink/downlink ledgers. A resumed driver
/// cross-checks this against its journal-replayed counters before
/// going live again.
pub(crate) fn state_fingerprint(round: u64, uplink_bits: u64, downlink_bits: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(round);
    h.write_u64(uplink_bits);
    h.write_u64(downlink_bits);
    h.finish()
}

/// Locks the stage cache the executors of a run share. The guard is
/// only held inside `lookup` and `store`, which leave the cache
/// consistent at every step, so a poisoned lock still guards a valid
/// cache.
fn lock(cache: &Mutex<StageCache>) -> MutexGuard<'_, StageCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one executor observed over a completed run — its own traffic
/// only. The driver cross-checks the bit counts against its per-source
/// counters at shutdown, and the isolation tests assert that the
/// downlink kinds never include another source's data.
#[derive(Debug, Clone, Default)]
pub struct SourceRunReport {
    /// Data-plane bits this source sent.
    pub uplink_bits: u64,
    /// Data-plane bits this source received.
    pub downlink_bits: u64,
    /// Uplink bits by message kind.
    pub uplink_kinds: BTreeMap<&'static str, u64>,
    /// Downlink bits by message kind (a source only ever receives
    /// `basis` and `sample-allocation` payloads).
    pub downlink_kinds: BTreeMap<&'static str, u64>,
    /// The centers hash the server announced at shutdown.
    pub centers_hash: u64,
    /// The run-total uplink bits the server announced.
    pub server_uplink_bits: u64,
    /// The run-total downlink bits the server announced.
    pub server_downlink_bits: u64,
}

/// A phase started by a `Stage` command that awaits a `Deliver` payload
/// to finish (the interactive protocols' second halves).
#[derive(Debug)]
enum PendingDeliver {
    /// disPCA: the basis broadcast is next.
    DispcaBasis,
    /// disSS: the sample allocation is next; the bicriteria solution
    /// carries over from step 1.
    DisssAllocation { bic: BicriteriaSolution },
}

enum StepOutcome {
    Reply(Response),
    Finished(Response, SourceRunReport),
    Aborted(String),
}

/// A summary held back for the tree topology's pairwise fold instead of
/// being uplinked directly. The message is the *post-wire* copy (encoded
/// and decoded once), so merging it with a peer's summary is bit-identical
/// to the server folding the two decoded uplinks itself.
#[derive(Debug)]
struct MergeBuffer {
    /// The buffered summary, exactly as a receiver would decode it.
    msg: Message,
    /// Truncation rank for SVD-summary merges (ignored for coresets).
    rank: usize,
    /// Wire size of the original leaf summary, reported on this
    /// source's first `Merged` response so the server can keep the
    /// classic per-source uplink ledger identical to the star run.
    leaf_bits: u64,
    /// Wire tag of the leaf summary (recovers the message kind).
    leaf_tag: u8,
    /// Message kind of the leaf summary, for the by-kind ledger.
    leaf_kind: &'static str,
    /// Whether `leaf_bits` has already been reported.
    charged: bool,
}

/// One data source of a server-driven protocol run.
#[derive(Debug)]
pub struct SourceExecutor<'a> {
    stages: &'a [Stage],
    params: &'a SummaryParams,
    id: usize,
    m: usize,
    /// The shard, borrowed from the caller until a stage replaces it.
    part: Cow<'a, Matrix>,
    weights: Option<Vec<f64>>,
    delta: f64,
    basis: Option<Matrix>,
    basis_shared: bool,
    quantizer: Option<ekm_quant::RoundingQuantizer>,
    jl: JlBook,
    handed_off: bool,
    pending: Option<PendingDeliver>,
    /// Tree topology only: the summary awaiting pairwise merges.
    merge: Option<MergeBuffer>,
    report: SourceRunReport,
    /// Rounds answered so far (the first command of a run is round 1).
    round: u64,
    /// The last round's response, kept for `Command::Reissue` so a
    /// recovering driver can re-collect it without recomputation.
    last_response: Option<Response>,
    /// Cold replica shards held for other sources (canonical ring
    /// assignment, [`crate::params::replica_origins`]), untouched until
    /// a [`Command::Promote`] names their origin.
    replicas: BTreeMap<usize, Matrix>,
    /// Live personas for absorbed origins: full executors over the
    /// replica shard, fed by `Replay`/`Forward` wrappers.
    personas: BTreeMap<usize, SourceExecutor<'a>>,
    /// This executor's own finished report, held back while personas
    /// are still answering for their origins.
    finished: Option<SourceRunReport>,
    /// Stage-output cache shared with the other executors of an
    /// in-process run.
    cache: Option<&'a Mutex<StageCache>>,
}

impl<'a> SourceExecutor<'a> {
    /// Creates the executor for source `id` of `m`, owning `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= m` or `m == 0`.
    pub fn new(
        stages: &'a [Stage],
        params: &'a SummaryParams,
        id: usize,
        m: usize,
        shard: Matrix,
    ) -> SourceExecutor<'a> {
        SourceExecutor::lending(stages, params, id, m, Cow::Owned(shard))
    }

    /// [`SourceExecutor::new`] over a borrowed or owned shard: the
    /// in-process entry points lend the caller's matrices instead of
    /// copying them.
    ///
    /// # Panics
    ///
    /// Panics if `id >= m` or `m == 0`.
    pub(crate) fn lending(
        stages: &'a [Stage],
        params: &'a SummaryParams,
        id: usize,
        m: usize,
        shard: Cow<'a, Matrix>,
    ) -> SourceExecutor<'a> {
        assert!(m > 0 && id < m, "source id out of range");
        SourceExecutor {
            stages,
            params,
            id,
            m,
            part: shard,
            weights: None,
            delta: 0.0,
            basis: None,
            basis_shared: false,
            quantizer: None,
            jl: JlBook::default(),
            handed_off: false,
            pending: None,
            merge: None,
            report: SourceRunReport::default(),
            round: 0,
            last_response: None,
            replicas: BTreeMap::new(),
            personas: BTreeMap::new(),
            finished: None,
            cache: None,
        }
    }

    /// Memoizes this executor's source-local stages in `cache`, shared
    /// with the other executors of the run (see [`crate::cache`]).
    #[must_use]
    pub(crate) fn with_cache(mut self, cache: Option<&'a Mutex<StageCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// Arms this executor as a replica holder: `replicas` maps each
    /// origin to a cold copy of its shard, answered for only after a
    /// [`Command::Promote`] names it.
    #[must_use]
    pub fn with_replicas(mut self, replicas: BTreeMap<usize, Matrix>) -> Self {
        self.replicas = replicas;
        self
    }

    /// Serves commands until the run finishes or fails.
    ///
    /// Takes `&mut self` so a transport failure leaves the executor's
    /// state intact: a source that loses its server can reconnect and
    /// call `serve` again on a fresh endpoint, answering replayed or
    /// reissued rounds from the same position (`ekm source --reconnect`).
    ///
    /// # Errors
    ///
    /// Transport failures, [`NetError::RemoteAbort`] when the driver
    /// aborts, and local compute/validation failures (which are also
    /// reported back to the driver as an `Err` response before
    /// returning).
    pub fn serve<E: SourceEndpoint>(&mut self, endpoint: &mut E) -> Result<SourceRunReport> {
        loop {
            let cmd = endpoint.recv_command().map_err(CoreError::Net)?;
            // The transport-level and failover vocabulary is handled
            // here, against the endpoint; `execute` sees everything
            // else (round commands, recovery, aborts).
            match cmd {
                Command::Deadline { ms } => {
                    endpoint.set_deadline(DeadlinePolicy::uniform(Duration::from_millis(ms)));
                    continue;
                }
                Command::Promote { origin } => {
                    self.promote(origin as usize, endpoint)?;
                    continue;
                }
                Command::Replay { origin, round, cmd } => {
                    self.replay(origin as usize, round, *cmd, endpoint)?;
                    continue;
                }
                Command::Forward { origin, cmd } => {
                    if let Some(report) = self.forward(origin as usize, *cmd, endpoint)? {
                        return Ok(report);
                    }
                    continue;
                }
                _ => {}
            }
            match self.execute(cmd) {
                Ok(StepOutcome::Reply(resp)) => {
                    endpoint.send_response(resp).map_err(CoreError::Net)?;
                }
                Ok(StepOutcome::Finished(resp, report)) => {
                    endpoint.send_response(resp).map_err(CoreError::Net)?;
                    if self.personas.is_empty() {
                        return Ok(report);
                    }
                    // Personas still owe rounds for their absorbed
                    // origins: keep serving until the last finishes.
                    self.finished = Some(report);
                }
                Ok(StepOutcome::Aborted(reason)) => {
                    return Err(CoreError::Net(NetError::RemoteAbort { reason }));
                }
                Err(e) => {
                    // Best-effort: tell the driver why before bailing.
                    let _ = endpoint.send_response(Response::Err {
                        reason: e.to_string(),
                    });
                    return Err(e);
                }
            }
        }
    }

    /// Executes one command against this executor's state — including
    /// the `Resume`/`Reissue` recovery vocabulary — and returns the
    /// outcome. Shared between a source's own serve loop and the
    /// persona dispatch of its replica host.
    fn execute(&mut self, cmd: Command) -> Result<StepOutcome> {
        let cmd = match cmd {
            Command::Resume { .. } => {
                return Ok(StepOutcome::Reply(Response::Resumed {
                    round: self.round,
                    fingerprint: self.fingerprint(),
                }));
            }
            Command::Reissue { round, cmd: inner } => {
                if round == self.round {
                    // Already executed: resend the cached response.
                    let resp = self.last_response.clone().ok_or(CoreError::Net(
                        NetError::ProtocolViolation {
                            context: "reissue",
                            expected: "a cached response for the reissued round",
                            got: format!("round {round} with no cached response"),
                        },
                    ))?;
                    return Ok(StepOutcome::Reply(resp));
                }
                if round != self.round + 1 {
                    return Err(CoreError::Net(NetError::ProtocolViolation {
                        context: "reissue",
                        expected: "the current or next round",
                        got: format!("round {round} at executor round {}", self.round),
                    }));
                }
                // Never received: execute the carried command fresh.
                *inner
            }
            other => other,
        };
        let is_round = cmd.is_round();
        if is_round {
            self.round += 1;
        }
        let out = self.step(cmd)?;
        if is_round {
            match &out {
                StepOutcome::Reply(resp) | StepOutcome::Finished(resp, _) => {
                    self.last_response = Some(resp.clone());
                }
                StepOutcome::Aborted(_) => {}
            }
        }
        Ok(out)
    }

    fn fingerprint(&self) -> u64 {
        state_fingerprint(
            self.round,
            self.report.uplink_bits,
            self.report.downlink_bits,
        )
    }

    /// Handles [`Command::Promote`]: (re)builds a fresh persona for
    /// `origin` from its cold replica shard. Idempotent by reset — a
    /// re-promotion after a driver crash starts the persona over, so
    /// the replay sequence reproduces the same state from any crash
    /// point. A host without the replica answers `Err` (the driver
    /// walks on to the next ring entry) but keeps serving its own
    /// shard.
    fn promote<E: SourceEndpoint>(&mut self, origin: usize, endpoint: &mut E) -> Result<()> {
        match self.replicas.get(&origin) {
            Some(shard) => {
                let persona =
                    SourceExecutor::new(self.stages, self.params, origin, self.m, shard.clone());
                self.personas.insert(origin, persona);
                endpoint
                    .send_response(Response::Promoted {
                        origin: origin as u64,
                        round: 0,
                    })
                    .map_err(CoreError::Net)
            }
            None => endpoint
                .send_response(Response::Err {
                    reason: format!(
                        "source {} holds no replica of source {origin}'s shard",
                        self.id
                    ),
                })
                .map_err(CoreError::Net),
        }
    }

    /// Handles [`Command::Replay`]: the persona re-runs one of the dead
    /// owner's completed rounds. The persona's response is swallowed —
    /// its bits are booked on the persona's own ledger, reproducing the
    /// owner's exactly — and only a `Replayed` position/fingerprint ack
    /// travels back.
    fn replay<E: SourceEndpoint>(
        &mut self,
        origin: usize,
        round: u64,
        cmd: Command,
        endpoint: &mut E,
    ) -> Result<()> {
        let persona =
            self.personas
                .get_mut(&origin)
                .ok_or(CoreError::Net(NetError::ProtocolViolation {
                    context: "replay",
                    expected: "a promoted persona for the origin",
                    got: format!("no persona for source {origin}"),
                }))?;
        if round == persona.round + 1 {
            match persona.execute(cmd) {
                Ok(StepOutcome::Reply(_) | StepOutcome::Finished(..)) => {}
                Ok(StepOutcome::Aborted(reason)) => {
                    return Err(CoreError::Net(NetError::RemoteAbort { reason }));
                }
                Err(e) => {
                    let _ = endpoint.send_response(Response::Err {
                        reason: e.to_string(),
                    });
                    return Err(e);
                }
            }
        } else if round != persona.round {
            return Err(CoreError::Net(NetError::ProtocolViolation {
                context: "replay",
                expected: "the persona's current or next round",
                got: format!("round {round} at persona round {}", persona.round),
            }));
        }
        let resp = Response::Replayed {
            origin: origin as u64,
            round: persona.round,
            fingerprint: persona.fingerprint(),
        };
        endpoint.send_response(resp).map_err(CoreError::Net)
    }

    /// Handles [`Command::Forward`]: the persona executes the carried
    /// live command and its response travels back wrapped in
    /// [`Response::Forwarded`]. Returns this executor's own held-back
    /// report when the last persona finishes after the host's own run
    /// already did.
    fn forward<E: SourceEndpoint>(
        &mut self,
        origin: usize,
        cmd: Command,
        endpoint: &mut E,
    ) -> Result<Option<SourceRunReport>> {
        let persona =
            self.personas
                .get_mut(&origin)
                .ok_or(CoreError::Net(NetError::ProtocolViolation {
                    context: "forward",
                    expected: "a promoted persona for the origin",
                    got: format!("no persona for source {origin}"),
                }))?;
        match persona.execute(cmd) {
            Ok(StepOutcome::Reply(resp)) => {
                endpoint
                    .send_response(Response::Forwarded {
                        origin: origin as u64,
                        resp: Box::new(resp),
                    })
                    .map_err(CoreError::Net)?;
                Ok(None)
            }
            Ok(StepOutcome::Finished(resp, _)) => {
                // The absorbed origin's run is over; its ledger was
                // already cross-checked by the driver's Fin handling.
                endpoint
                    .send_response(Response::Forwarded {
                        origin: origin as u64,
                        resp: Box::new(resp),
                    })
                    .map_err(CoreError::Net)?;
                self.personas.remove(&origin);
                if self.personas.is_empty() {
                    return Ok(self.finished.take());
                }
                Ok(None)
            }
            Ok(StepOutcome::Aborted(reason)) => {
                Err(CoreError::Net(NetError::RemoteAbort { reason }))
            }
            Err(e) => {
                let _ = endpoint.send_response(Response::Forwarded {
                    origin: origin as u64,
                    resp: Box::new(Response::Err {
                        reason: e.to_string(),
                    }),
                });
                Err(e)
            }
        }
    }

    fn done(&self, ops: u64, seconds: f64) -> Response {
        Response::Done {
            round: self.round,
            rows: self.part.rows() as u64,
            cols: self.part.cols() as u64,
            ops,
            seconds,
        }
    }

    /// Builds a charged uplink response and books its bits.
    fn up(&mut self, msg: &Message, ops: u64, seconds: f64) -> Response {
        let payload = Payload::of(msg);
        self.report.uplink_bits += payload.bits();
        *self.report.uplink_kinds.entry(msg.kind()).or_insert(0) += payload.bits();
        Response::Up {
            round: self.round,
            payload,
            ops,
            seconds,
        }
    }

    /// Sends a summary toward the server: straight up over the star
    /// (see [`Self::up`]), or — in the tree topology with more than one
    /// source (a single source is its own root, so it always stars) —
    /// held back for the pairwise merge rounds behind a plain `Done`.
    fn emit_summary(
        &mut self,
        msg: &Message,
        rank: usize,
        ops: u64,
        seconds: f64,
    ) -> Result<StepOutcome> {
        let tree = self.params.topology == Topology::Tree && self.m > 1;
        if !tree {
            return Ok(StepOutcome::Reply(self.up(msg, ops, seconds)));
        }
        let payload = Payload::of(msg);
        // The leaf's bits are booked when they are *reported* (the first
        // `Merged` response of the gather), not here: the server charges
        // its classic ledger at that response, and a promoted replica's
        // replayed ledger must match the server's row at every completed
        // round boundary.
        let decoded = payload.decode().map_err(CoreError::Net)?;
        self.merge = Some(MergeBuffer {
            leaf_bits: payload.bits(),
            leaf_tag: payload.tag(),
            leaf_kind: msg.kind(),
            msg: decoded,
            rank,
            charged: false,
        });
        Ok(StepOutcome::Reply(self.done(ops, seconds)))
    }

    fn require_source_side(&self) -> Result<()> {
        if self.handed_off {
            return Err(CoreError::InvalidConfig {
                reason: "no stage may follow disss: the summary already lives at the server",
            });
        }
        Ok(())
    }

    fn require_no_pending(&self) -> Result<()> {
        if self.pending.is_some() {
            return Err(CoreError::Net(NetError::ProtocolViolation {
                context: "executor step",
                expected: "a deliver payload for the pending phase",
                got: "a different command".to_string(),
            }));
        }
        Ok(())
    }

    /// Re-expresses the shard in the basis' parent space and drops the
    /// basis (what a stage that needs plain points does first).
    fn lift_out_of_basis(&mut self) -> Result<()> {
        if let Some(basis) = self.basis.take() {
            self.part = Cow::Owned(ops::matmul_transb(&self.part, &basis)?);
            self.basis_shared = false;
        }
        Ok(())
    }

    fn step(&mut self, cmd: Command) -> Result<StepOutcome> {
        match cmd {
            Command::Describe => Ok(StepOutcome::Reply(self.done(0, 0.0))),
            Command::Stage { index } => {
                self.require_no_pending()?;
                self.require_source_side()?;
                let stage = self.stages.get(index as usize).ok_or(CoreError::Net(
                    NetError::ProtocolViolation {
                        context: "stage command",
                        expected: "an index into the shared stage list",
                        got: format!("stage index {index}"),
                    },
                ))?;
                self.run_stage(stage)
            }
            Command::Deliver { payload } => {
                let msg = payload.decode().map_err(CoreError::Net)?;
                self.report.downlink_bits += payload.bits();
                *self.report.downlink_kinds.entry(msg.kind()).or_insert(0) += payload.bits();
                self.deliver(msg)
            }
            Command::TransmitBasis => {
                self.require_no_pending()?;
                self.require_source_side()?;
                let basis = self.basis.clone().ok_or(CoreError::Protocol {
                    reason: "transmit-basis on a source holding no basis",
                })?;
                let msg = Message::Basis {
                    basis,
                    precision: self.params.precision,
                };
                self.basis_shared = true;
                Ok(StepOutcome::Reply(self.up(&msg, 0, 0.0)))
            }
            Command::Transmit => {
                self.require_no_pending()?;
                self.require_source_side()?;
                self.transmit()
            }
            Command::Finish {
                uplink_bits,
                downlink_bits,
                centers_hash,
            } => {
                self.report.centers_hash = centers_hash;
                self.report.server_uplink_bits = uplink_bits;
                self.report.server_downlink_bits = downlink_bits;
                let resp = Response::Fin {
                    round: self.round,
                    uplink_bits: self.report.uplink_bits,
                    downlink_bits: self.report.downlink_bits,
                };
                Ok(StepOutcome::Finished(resp, self.report.clone()))
            }
            Command::MergeWith {
                payload,
                emit,
                last,
                ..
            } => {
                // A merge round may arrive while a deliver is pending
                // (disPCA buffers its summary before the basis comes
                // back), so no pending/side checks here.
                let MergeBuffer {
                    mut msg,
                    rank,
                    leaf_bits,
                    leaf_tag,
                    leaf_kind,
                    charged,
                } = self
                    .merge
                    .take()
                    .ok_or(CoreError::Net(NetError::ProtocolViolation {
                        context: "merge-with",
                        expected: "a buffered summary awaiting the tree fold",
                        got: "no merge buffer on this source".to_string(),
                    }))?;
                if let Some(p) = payload {
                    let peer = p.decode().map_err(CoreError::Net)?;
                    msg = merge_summary_messages(msg, peer, rank, self.params.precision)?;
                }
                // The leaf's wire size rides on the first merge response
                // of each gather so the server can charge the classic
                // per-source uplink ledger exactly once, star-style.
                let (leaf_bits, leaf_tag) = if charged {
                    (0, 0)
                } else {
                    // Book the one-time leaf bits in lockstep with the
                    // server, which charges them off this response.
                    self.report.uplink_bits += leaf_bits;
                    *self.report.uplink_kinds.entry(leaf_kind).or_insert(0) += leaf_bits;
                    (leaf_bits, leaf_tag)
                };
                let payload = if emit {
                    Some(Payload::of(&msg))
                } else {
                    self.merge = Some(MergeBuffer {
                        msg,
                        rank,
                        leaf_bits: 0,
                        leaf_tag: 0,
                        leaf_kind: "",
                        charged: true,
                    });
                    None
                };
                Ok(StepOutcome::Reply(Response::Merged {
                    round: self.round,
                    payload,
                    leaf_bits,
                    leaf_tag,
                    last,
                }))
            }
            Command::Abort { reason } => Ok(StepOutcome::Aborted(reason)),
            other => Err(CoreError::Net(NetError::ProtocolViolation {
                context: "executor step",
                expected: "a known command",
                got: other.name().to_string(),
            })),
        }
    }

    fn run_stage(&mut self, stage: &Stage) -> Result<StepOutcome> {
        let k = self.params.k;
        match stage {
            Stage::Dr(_) | Stage::Cr(_) | Stage::Stream(_) => self.run_local(stage),
            Stage::Qt(cfg) => {
                self.quantizer = Some(resolve_quantizer(cfg, self.params)?);
                Ok(StepOutcome::Reply(self.done(0, 0.0)))
            }
            Stage::DisPca(cfg) => {
                if self.weights.is_some() {
                    return Err(CoreError::InvalidConfig {
                        reason: "dispca after a coreset stage is unsupported",
                    });
                }
                self.lift_out_of_basis()?;
                let cur = self.part.cols();
                let t = dispca_rank(cfg, self.params, cur);
                let t0 = Instant::now();
                let (singular_values, v) = local_svd_summary(&self.part, t)?;
                let ops = complexity::svd(self.part.rows(), cur);
                let secs = t0.elapsed().as_secs_f64();
                let msg = Message::SvdSummary {
                    singular_values,
                    basis: v,
                    precision: self.params.precision,
                };
                self.pending = Some(PendingDeliver::DispcaBasis);
                self.emit_summary(&msg, t, ops, secs)
            }
            Stage::DisSs(cfg) => {
                if self.weights.is_some() {
                    return Err(CoreError::InvalidConfig {
                        reason: "disss after a coreset stage is unsupported",
                    });
                }
                if disss_budget(cfg, self.params) == 0 {
                    return Err(CoreError::InvalidConfig {
                        reason: "zero disSS sample budget",
                    });
                }
                let seed = derive_seed(self.params.seed, seeds::FSS);
                let t0 = Instant::now();
                let bic =
                    disss_local_bicriteria(&self.part, k, seed, self.id, self.params.compute)?;
                let ops = complexity::bicriteria(self.part.rows(), self.part.cols(), k);
                let secs = t0.elapsed().as_secs_f64();
                let cost = bic.cost;
                self.pending = Some(PendingDeliver::DisssAllocation { bic });
                Ok(StepOutcome::Reply(self.up(
                    &Message::CostReport { cost },
                    ops,
                    secs,
                )))
            }
        }
    }

    /// Runs a source-local stage (`jl`, `fss`, `stream`), through the
    /// stage cache when one is attached.
    fn run_local(&mut self, stage: &Stage) -> Result<StepOutcome> {
        let cached = self.cache.map(|cache| (cache, self.stage_key(stage)));
        if let Some((cache, key)) = cached {
            let hit = lock(cache).lookup(key);
            if let Some(snap) = hit {
                let (ops, seconds) = (snap.ops, snap.seconds);
                self.restore(snap);
                return Ok(StepOutcome::Reply(self.done(ops, seconds)));
            }
        }
        let t0 = Instant::now();
        let ops = match stage {
            Stage::Dr(cfg) => self.apply_jl(cfg)?,
            Stage::Cr(cfg) => self.apply_fss(cfg)?,
            Stage::Stream(cfg) => self.apply_stream(cfg)?,
            _ => unreachable!("only source-local stages reach run_local"),
        };
        let seconds = t0.elapsed().as_secs_f64();
        if let Some((cache, key)) = cached {
            let snap = self.snapshot(ops, seconds);
            lock(cache).store(key, snap);
        }
        Ok(StepOutcome::Reply(self.done(ops, seconds)))
    }

    /// DR stage: the seeded JL projection of the shard (zero
    /// communication; the server regenerates the matrix from the shared
    /// seed to lift the centers back).
    fn apply_jl(&mut self, cfg: &JlStage) -> Result<u64> {
        self.lift_out_of_basis()?;
        let cur = self.part.cols();
        let (stream, before_role) = self.jl.next_stream();
        let target = jl_target_dim(cfg, self.params, cur, before_role);
        let pi = MaybeProjection::generate(
            self.params.jl_kind,
            cur,
            target,
            derive_seed(self.params.seed, stream),
        );
        let ops = complexity::matmul(self.part.rows(), cur, target);
        self.part = Cow::Owned(pi.project(&self.part)?);
        self.jl.any_reduction = true;
        Ok(ops)
    }

    /// CR stage: the FSS coreset of a single source's shard —
    /// coordinates, weights and Δ, plus the basis to transmit.
    fn apply_fss(&mut self, cfg: &FssStage) -> Result<u64> {
        if self.m != 1 {
            return Err(CoreError::InvalidConfig {
                reason: "fss is a single-source stage (multi-source pipelines use dispca/disss)",
            });
        }
        if self.weights.is_some() {
            return Err(CoreError::InvalidConfig {
                reason: "multiple coreset stages in one pipeline",
            });
        }
        self.lift_out_of_basis()?;
        let k = self.params.k;
        let cur = self.part.cols();
        let (t, size) = fss_dims(cfg, self.params, cur);
        let ops = complexity::fss(self.part.rows(), cur, k);
        let fss = FssBuilder::new(k)
            .with_pca_dim(t)
            .with_sample_size(size)
            .with_seed(derive_seed(self.params.seed, seeds::FSS))
            .with_compute(self.params.compute)
            .build(&self.part)?;
        self.part = Cow::Owned(fss.coordinates().clone());
        self.weights = Some(fss.weights().to_vec());
        self.delta = fss.delta();
        self.basis = Some(fss.basis().clone());
        self.basis_shared = false;
        self.jl.any_reduction = true;
        Ok(ops)
    }

    /// Streaming CR stage: the shard goes through a merge-and-reduce
    /// [`StreamingCoreset`] seeded from this source's own stream, with
    /// the global sample budget split evenly across the sources.
    fn apply_stream(&mut self, cfg: &StreamStage) -> Result<u64> {
        if self.weights.is_some() {
            return Err(CoreError::InvalidConfig {
                reason: "multiple coreset stages in one pipeline",
            });
        }
        let k = self.params.k;
        let (leaf, per_source) = stream_plan(cfg, self.params, self.m);
        let ops = complexity::stream(self.part.rows(), self.part.cols(), k, leaf);
        let stream_seed = derive_seed(self.params.seed, seeds::STREAM);
        let mut stream = StreamingCoreset::new(k, leaf, per_source)
            .with_seed(derive_seed(stream_seed, self.id as u64))
            .with_compute(self.params.compute);
        // push_batch buffers row by row and flushes a leaf whenever the
        // buffer fills, so one call is bit-identical to feeding
        // leaf-sized bursts.
        stream.push_batch(&self.part).map_err(CoreError::Coreset)?;
        let coreset = stream.finalize_reduced().map_err(CoreError::Coreset)?;
        let (points, w, delta) = coreset.into_parts();
        self.part = Cow::Owned(points);
        self.weights = Some(w);
        self.delta = delta;
        self.jl.any_reduction = true;
        Ok(ops)
    }

    /// Key of one cacheable stage execution on this source: the stage,
    /// every parameter knob the source-local stages read, the source's
    /// id and the source count (`stream` seeds from the one and splits
    /// its budget by the other), and a fingerprint of the state the
    /// stage starts from. The armed quantizer is deliberately left out
    /// — no cacheable stage reads it, which is what lets compositions
    /// that differ only in QT width share a cached prefix.
    fn stage_key(&self, stage: &Stage) -> u64 {
        let p = self.params;
        let mut h = Fnv::new();
        h.write_str(&format!("{stage:?}"));
        h.write_usize(p.k);
        h.write_u64(p.epsilon.to_bits());
        h.write_usize(p.coreset_size);
        h.write_usize(p.pca_dim);
        h.write_usize(p.jl_dim_before);
        h.write_usize(p.jl_dim_after);
        h.write_str(&format!("{:?}", p.jl_kind));
        h.write_u64(p.seed);
        h.write_usize(p.stream_leaf_size);
        h.write_str(p.compute.as_str());
        h.write_usize(self.id);
        h.write_usize(self.m);
        h.write_matrix(&self.part);
        match &self.weights {
            None => h.write_bool(false),
            Some(w) => {
                h.write_bool(true);
                h.write_f64s(w);
            }
        }
        h.write_u64(self.delta.to_bits());
        match &self.basis {
            None => h.write_bool(false),
            Some(b) => {
                h.write_bool(true);
                h.write_matrix(b);
            }
        }
        h.write_bool(self.basis_shared);
        h.write_usize(self.jl.jl_count);
        h.write_bool(self.jl.jl_after_used);
        h.write_bool(self.jl.any_reduction);
        h.finish()
    }

    /// The state a cacheable stage just produced, for storage.
    fn snapshot(&self, ops: u64, seconds: f64) -> StageSnapshot {
        StageSnapshot {
            part: self.part.as_ref().clone(),
            weights: self.weights.clone(),
            delta: self.delta,
            basis: self.basis.clone(),
            basis_shared: self.basis_shared,
            jl: self.jl.clone(),
            ops,
            seconds,
        }
    }

    /// Replaces the stage-owned state with a cached snapshot (the key
    /// guarantees the upstream state matches bit for bit).
    fn restore(&mut self, snap: StageSnapshot) {
        self.part = Cow::Owned(snap.part);
        self.weights = snap.weights;
        self.delta = snap.delta;
        self.basis = snap.basis;
        self.basis_shared = snap.basis_shared;
        self.jl = snap.jl;
    }

    fn deliver(&mut self, msg: Message) -> Result<StepOutcome> {
        match (self.pending.take(), msg) {
            (Some(PendingDeliver::DispcaBasis), Message::Basis { basis, .. }) => {
                // disPCA step 3: project onto the basis *as decoded from
                // the wire* — at F32 precision the rounded one, exactly
                // what a real edge device holds.
                let t0 = Instant::now();
                let d = self.part.cols();
                let ops = complexity::matmul(self.part.rows(), d, basis.cols());
                self.part = Cow::Owned(ops::matmul(&self.part, &basis)?);
                self.basis = Some(basis);
                self.basis_shared = true;
                self.jl.any_reduction = true;
                Ok(StepOutcome::Reply(
                    self.done(ops, t0.elapsed().as_secs_f64()),
                ))
            }
            (Some(PendingDeliver::DisssAllocation { bic }), Message::SampleAllocation { size }) => {
                let s_i = size as usize;
                let seed = derive_seed(self.params.seed, seeds::FSS);
                let t0 = Instant::now();
                let msg = disss_local_sample(
                    &self.part,
                    &bic,
                    s_i,
                    seed,
                    self.id,
                    self.quantizer.as_ref(),
                    self.params.precision,
                    self.params.compute,
                )?;
                let mut ops = complexity::assign(self.part.rows(), self.part.cols(), self.params.k);
                if self.quantizer.is_some() {
                    ops += complexity::quantize(s_i + self.params.k, self.part.cols());
                }
                let secs = t0.elapsed().as_secs_f64();
                // The summary now lives at the server.
                self.part = Cow::Owned(Matrix::zeros(0, 0));
                self.handed_off = true;
                self.emit_summary(&msg, 0, ops, secs)
            }
            (pending, msg) => Err(CoreError::Net(NetError::ProtocolViolation {
                context: "deliver payload",
                expected: match pending {
                    Some(PendingDeliver::DispcaBasis) => "a basis broadcast",
                    Some(PendingDeliver::DisssAllocation { .. }) => "a sample allocation",
                    None => "no downlink payload",
                },
                got: msg.kind().to_string(),
            })),
        }
    }

    /// The final summary uplink: this source's coreset, its quantized
    /// points, or its raw points.
    fn transmit(&mut self) -> Result<StepOutcome> {
        let quantizer = self.quantizer;
        let aux = self.params.precision;
        let ops = if quantizer.is_some() {
            complexity::quantize(self.part.rows(), self.part.cols())
        } else {
            0
        };
        let t0 = Instant::now();
        let msg = match self.weights.take() {
            Some(weights) => {
                let (wire, precision) = quantize_for_wire(&self.part, quantizer.as_ref());
                Message::Coreset {
                    points: wire,
                    weights,
                    delta: self.delta,
                    precision,
                    weights_precision: aux,
                }
            }
            None => match &quantizer {
                Some(q) => {
                    let (wire, precision) = quantize_for_wire(&self.part, Some(q));
                    Message::Coreset {
                        points: wire,
                        weights: vec![1.0; self.part.rows()],
                        delta: 0.0,
                        precision,
                        weights_precision: aux,
                    }
                }
                // An owned part moves into its message; only a still
                // borrowed shard (NR) pays the one clone the wire needs.
                None => Message::RawData {
                    points: std::mem::replace(&mut self.part, Cow::Owned(Matrix::zeros(0, 0)))
                        .into_owned(),
                },
            },
        };
        let secs = t0.elapsed().as_secs_f64();
        let outcome = self.emit_summary(&msg, 0, ops, secs);
        // Transmission is the shard's last use.
        self.part = Cow::Owned(Matrix::zeros(0, 0));
        outcome
    }
}
