//! The server-side driver of the server-driven protocol.
//!
//! [`run_driver`] executes a [`StagePipeline`] plan against its sources
//! over any [`ekm_net::CommandTransport`]: it emits one command round
//! per protocol phase, folds the responses in **fixed source-id
//! order**, and performs every server-side computation (the disPCA
//! global SVD, the disSS budget allocation and merge, the final solve
//! and center lift) — so its outputs (centers, digests,
//! [`NetworkStats`], deterministic op counts) are the same on every
//! transport.
//!
//! The driver holds **no shard data**. Its knowledge of the sources is
//! the control-plane metadata they report (shard shapes, per-phase op
//! counts) plus the decoded data-plane payloads the paper's protocols
//! legitimately give the server. JL projections are regenerated from
//! the shared seed — the driver replicates the same `JlBook`
//! seed-stream bookkeeping as the executors, exactly like the paper's
//! "shared randomness" remark prescribes.
//!
//! The in-process entry points of [`StagePipeline`] wire the driver to
//! executor threads (one per shard, each holding only its shard); the
//! event-driven TCP backend ([`ekm_net::event`]) runs the same driver
//! across real processes.

use crate::executor::state_fingerprint;
use crate::health::{HealthMachine, RecoveryAction};
use crate::output::{Degradation, Recovery};
use crate::params::{replica_holders, Topology};
use crate::pipelines::seeds;
use crate::projection::MaybeProjection;
use crate::server::{lift_centers_through_basis, solve_weighted_kmeans};
use crate::stage::{dispca_rank, disss_budget, jl_target_dim, resolve_quantizer, JlBook, Stage};
use crate::{distributed, CoreError, Result, RunOutput, StagePipeline};
use ekm_coreset::Coreset;
use ekm_linalg::random::derive_seed;
use ekm_linalg::Matrix;
use ekm_net::messages::Message;
use ekm_net::protocol::{
    Command, CommandTransport, DeadlinePolicy, EncodedCommand, Payload, Response,
};
use ekm_net::{NetError, NetworkStats, RunDigest};
use std::time::Instant;

/// Destructures a `Done` response; maps executor errors and type
/// mismatches to typed failures.
fn expect_done(resp: Response, context: &'static str) -> Result<(u64, u64, u64, f64)> {
    match resp {
        Response::Done {
            rows,
            cols,
            ops,
            seconds,
            ..
        } => Ok((rows, cols, ops, seconds)),
        Response::Err { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
        other => Err(CoreError::Net(NetError::ProtocolViolation {
            context,
            expected: "a done response",
            got: other.name().to_string(),
        })),
    }
}

/// Destructures an `Up` response.
fn expect_up(resp: Response, context: &'static str) -> Result<(Payload, u64, f64)> {
    match resp {
        Response::Up {
            payload,
            ops,
            seconds,
            ..
        } => Ok((payload, ops, seconds)),
        Response::Err { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
        other => Err(CoreError::Net(NetError::ProtocolViolation {
            context,
            expected: "an uplink response",
            got: other.name().to_string(),
        })),
    }
}

/// Destructures a `Merged` response, returning its optional surrendered
/// buffer. The leaf accounting fields are the transport's business
/// ([`ekm_net::protocol::charge_response`]), not the driver's.
fn expect_merged(resp: Response, context: &'static str) -> Result<Option<Payload>> {
    match resp {
        Response::Merged { payload, .. } => Ok(payload),
        Response::Err { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
        other => Err(CoreError::Net(NetError::ProtocolViolation {
            context,
            expected: "a merged response",
            got: other.name().to_string(),
        })),
    }
}

/// Per-source liveness bookkeeping layered over the raw transport — the
/// driver's straggler-handling seam.
///
/// Every round command is remembered per source (the full history, in
/// round order) and a [`HealthMachine`] over the source's canonical
/// replica ring decides what a transport-level [`Response::SourceLost`]
/// (a missed deadline or a dropped connection) escalates to: the first
/// loss triggers exactly one [`Command::Reissue`]; a second promotes
/// the next replica holder — the dead owner's completed rounds are
/// replayed onto a fresh persona there and the in-flight round is
/// reissued through the new route — and only when the ring is exhausted
/// does the run *degrade*: the source is marked lost, subsequent sends
/// skip it silently, and every fold proceeds over the survivors.
/// Responses carrying a round number below the source's current round
/// are duplicates surfaced by a reissue race and are dropped.
///
/// Loss during the describe round is a hard error — the driver cannot
/// bound the cost of dropping a shard whose size it never learned.
struct RoundNet<'a, T: CommandTransport> {
    inner: &'a mut T,
    alive: Vec<bool>,
    lost: Vec<Option<String>>,
    /// Every round command sent per source, in round order — the replay
    /// vocabulary for promoting a replica mid-run.
    history: Vec<Vec<Command>>,
    /// Per-source failover state over the canonical replica ring.
    health: Vec<HealthMachine>,
    /// Responses harvested out of turn (a host answering its own round
    /// while the driver was mid-promotion on its connection).
    parked: Vec<std::collections::VecDeque<Response>>,
    /// Completed rounds replayed onto promoted personas.
    replayed_rounds: u64,
    /// False until the describe round completes.
    degradable: bool,
}

impl<'a, T: CommandTransport> RoundNet<'a, T> {
    fn new(inner: &'a mut T, replication: usize) -> Self {
        let m = inner.sources();
        RoundNet {
            inner,
            alive: vec![true; m],
            lost: vec![None; m],
            history: vec![Vec::new(); m],
            health: (0..m)
                .map(|i| HealthMachine::new(replica_holders(i, m, replication)))
                .collect(),
            parked: vec![std::collections::VecDeque::new(); m],
            replayed_rounds: 0,
            degradable: false,
        }
    }

    fn survivors(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    fn rounds(&self, i: usize) -> u64 {
        self.history[i].len() as u64
    }

    fn stats(&self) -> &NetworkStats {
        self.inner.stats()
    }

    fn mark_lost(&mut self, i: usize, reason: String) -> Result<()> {
        if !self.degradable {
            return Err(CoreError::Net(NetError::Transport {
                context: "describe round",
                detail: format!("source {i} failed before describing its shard: {reason}"),
            }));
        }
        self.alive[i] = false;
        self.lost[i] = Some(reason);
        if self.survivors() == 0 {
            return Err(CoreError::Net(NetError::Transport {
                context: "fault handling",
                detail: "every source was lost; nothing left to degrade onto".to_string(),
            }));
        }
        Ok(())
    }

    /// Sends to `i` unless it is already lost. A transport failure runs
    /// the health machine (reissue → promote → degrade); every other
    /// error kind propagates.
    fn send(&mut self, i: usize, cmd: &Command) -> Result<()> {
        if !self.alive[i] {
            return Ok(());
        }
        if cmd.is_round() {
            self.history[i].push(cmd.clone());
        }
        match self.inner.send(i, cmd) {
            Ok(()) => Ok(()),
            Err(NetError::Transport { context, detail }) => {
                let reason = format!("send failed during {context}: {detail}");
                self.handle_loss(i, reason).map(|_| ())
            }
            Err(e) => Err(CoreError::Net(e)),
        }
    }

    /// [`send`](Self::send) over a shared encoding: a broadcast round is
    /// encoded once and every live source gets the same bytes. History
    /// and loss handling are identical to a per-source send.
    fn send_enc(&mut self, i: usize, enc: &EncodedCommand) -> Result<()> {
        if !self.alive[i] {
            return Ok(());
        }
        if enc.command().is_round() {
            self.history[i].push(enc.command().clone());
        }
        match self.inner.send_encoded(i, enc) {
            Ok(()) => Ok(()),
            Err(NetError::Transport { context, detail }) => {
                let reason = format!("send failed during {context}: {detail}");
                self.handle_loss(i, reason).map(|_| ())
            }
            Err(e) => Err(CoreError::Net(e)),
        }
    }

    /// Receives source `i`'s answer to the current round, or `None` when
    /// the source is (or just became) lost.
    fn recv(&mut self, i: usize) -> Result<Option<Response>> {
        if !self.alive[i] {
            return Ok(None);
        }
        loop {
            let resp = match self.parked[i].pop_front() {
                Some(resp) => Ok(resp),
                None => self.inner.recv(i),
            };
            match resp {
                Ok(Response::SourceLost { reason }) => {
                    if !self.handle_loss(i, reason)? {
                        return Ok(None);
                    }
                }
                Ok(resp) => {
                    if let Some(r) = resp.round() {
                        if r < self.rounds(i) {
                            // A duplicate from before the reissue.
                            continue;
                        }
                    }
                    self.health[i].on_response();
                    return Ok(Some(resp));
                }
                Err(e) => return Err(CoreError::Net(e)),
            }
        }
    }

    /// Runs the health machine over a transport loss on source `i`.
    /// Returns whether the source is still answerable (a reissue or a
    /// promotion is in flight) or was marked lost (`false` — the round
    /// proceeds without it). The escalation loop terminates because
    /// every iteration either succeeds or consumes a replica.
    fn handle_loss(&mut self, i: usize, reason: String) -> Result<bool> {
        if !self.degradable || self.history[i].is_empty() {
            self.mark_lost(i, reason)?;
            return Ok(false);
        }
        let mut action = self.health[i].on_loss();
        loop {
            match action {
                RecoveryAction::Reissue => {
                    if self.reissue(i).is_ok() {
                        return Ok(true);
                    }
                    // The reissue could not even be sent: escalate.
                    action = self.health[i].on_loss();
                }
                RecoveryAction::Promote { host } => {
                    if self.alive[host] && self.promote(i, host).is_ok() {
                        return Ok(true);
                    }
                    action = self.health[i].on_promotion_failed();
                }
                RecoveryAction::Degrade => {
                    self.mark_lost(i, reason)?;
                    return Ok(false);
                }
            }
        }
    }

    /// Promotes `host`'s cold replica of `i`'s shard: arms the routing
    /// layer, replays the dead owner's *completed* rounds onto the fresh
    /// persona, verifies the rebuilt state against the server's ledger,
    /// and reissues the in-flight round through the new route. During
    /// journal replay only the promotion record is consumed — the
    /// journal re-fires the recorded wire sequence at reconcile time.
    fn promote(&mut self, i: usize, host: usize) -> std::result::Result<(), NetError> {
        self.inner.promote(i, host)?;
        if self.inner.replaying() {
            return Ok(());
        }
        let completed = self.history[i].len().saturating_sub(1);
        let fingerprint = replay_rounds(
            &mut *self.inner,
            i,
            host,
            &self.history[i][..completed],
            &mut self.parked,
        )?;
        self.replayed_rounds += completed as u64;
        if completed > 0 {
            // The persona's rebuilt ledger must match the server's row
            // for the dead owner — minus the in-flight command, charged
            // at send time but only reaching the persona via the
            // reissue below.
            let inflight = match self.history[i].last() {
                Some(Command::Deliver { payload }) => payload.bits(),
                _ => 0,
            };
            let want = state_fingerprint(
                completed as u64,
                self.stats().uplink_bits(i),
                self.stats().downlink_bits(i) - inflight,
            );
            if fingerprint != want {
                return Err(NetError::Divergence {
                    source: i,
                    direction: "replica replay",
                });
            }
        }
        self.reissue(i)
    }

    /// Re-sends the current round command wrapped in [`Command::Reissue`]
    /// directly on the inner transport: the executor answers from its
    /// response cache if it already ran the round, or runs it fresh if
    /// the original command never arrived. Retransmissions are control
    /// plane — they carry recovery overhead, not protocol cost, and are
    /// not charged to [`NetworkStats`].
    fn reissue(&mut self, i: usize) -> std::result::Result<(), NetError> {
        let cmd = self.history[i].last().cloned().expect("checked by caller");
        self.inner.send(
            i,
            &Command::Reissue {
                round: self.rounds(i),
                cmd: Box::new(cmd),
            },
        )
    }

    /// The recovery record for the run, or `None` if no promotion
    /// happened. Only sources still alive at the end count as recovered
    /// — a promoted-then-degraded source belongs to the degradation
    /// record — but replayed rounds are counted for every attempt.
    fn recovery(&self) -> Option<Recovery> {
        let promoted: Vec<(usize, usize)> = self
            .health
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.alive[i])
            .filter_map(|(i, h)| h.host().map(|host| (i, host)))
            .collect();
        if promoted.is_empty() && self.replayed_rounds == 0 {
            return None;
        }
        Some(Recovery {
            promoted,
            replayed_rounds: self.replayed_rounds,
        })
    }

    /// The degradation record for the run, or `None` if every source
    /// survived. `rows` is the per-source shard size from the describe
    /// round; the bound is the documented `(1 + ε) / (1 − p)` heuristic.
    fn degradation(&self, rows: &[u64], epsilon: f64) -> Option<Degradation> {
        let lost_sources: Vec<(usize, String)> = self
            .lost
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r.clone())))
            .collect();
        if lost_sources.is_empty() {
            return None;
        }
        let rows_total: usize = rows.iter().map(|&r| r as usize).sum();
        let rows_lost: usize = lost_sources.iter().map(|&(i, _)| rows[i] as usize).sum();
        let frac = rows_lost as f64 / rows_total.max(1) as f64;
        Some(Degradation {
            lost_sources,
            rows_lost,
            rows_total,
            cost_ratio_bound: (1.0 + epsilon) / (1.0 - frac),
        })
    }
}

/// Replays `history` (the dead owner's completed rounds, in order) onto
/// the persona `host` just built for `origin`, waiting out each
/// [`Response::Replayed`] acknowledgement before the next round.
/// Returns the persona's final state fingerprint (trivial when the
/// history is empty — the persona is still at round zero).
///
/// The host may interleave answers to its *own* in-flight round on the
/// shared connection; those are parked for the driver's later
/// [`RoundNet::recv`] rather than dropped. Replay frames are charged to
/// the run's replica-overhead counters by the transport, never to the
/// classic ledgers.
fn replay_rounds<T: CommandTransport>(
    net: &mut T,
    origin: usize,
    host: usize,
    history: &[Command],
    parked: &mut [std::collections::VecDeque<Response>],
) -> std::result::Result<u64, NetError> {
    let mut fingerprint = state_fingerprint(0, 0, 0);
    for (k, cmd) in history.iter().enumerate() {
        let round = (k + 1) as u64;
        net.send(
            host,
            &Command::Replay {
                origin: origin as u64,
                round,
                cmd: Box::new(cmd.clone()),
            },
        )?;
        loop {
            match net.recv(host)? {
                Response::Replayed {
                    origin: o,
                    round: r,
                    fingerprint: f,
                } if o as usize == origin && r == round => {
                    fingerprint = f;
                    break;
                }
                Response::SourceLost { reason } => {
                    return Err(NetError::Transport {
                        context: "replica replay",
                        detail: reason,
                    });
                }
                Response::Err { reason } => {
                    return Err(NetError::RemoteAbort { reason });
                }
                // A stale acknowledgement from an earlier (abandoned)
                // replay of the same origin: the fresh persona re-walks
                // the same rounds, so old duplicates are skipped.
                Response::Replayed { .. } | Response::Promoted { .. } => {}
                resp if resp.round().is_some() => parked[host].push_back(resp),
                other => {
                    return Err(NetError::ProtocolViolation {
                        context: "replica replay",
                        expected: "a replayed acknowledgement",
                        got: other.name().to_string(),
                    });
                }
            }
        }
    }
    Ok(fingerprint)
}

/// Gather ids for [`Command::MergeWith`], one per tree-reduced phase.
const GATHER_DISPCA: u8 = 1;
const GATHER_DISSS: u8 = 2;
const GATHER_TRANSMIT: u8 = 3;

/// A tree position's occupant: the source currently holding the folded
/// summary of `origins` (its own leaf plus every subtree merged in).
struct Holder {
    source: usize,
    origins: Vec<usize>,
}

/// Marks every source whose summary `holder` had absorbed as lost — the
/// data sat in a buffer that just disappeared with the holder. The
/// holder's own source is skipped (the transport loss already marked
/// it), as is anything already lost for its own reasons.
fn mark_absorbed_lost<T: CommandTransport>(
    net: &mut RoundNet<'_, T>,
    holder: &Holder,
) -> Result<()> {
    for &o in &holder.origins {
        if o != holder.source && net.alive[o] {
            net.mark_lost(
                o,
                format!("summary absorbed by lost source {}", holder.source),
            )?;
        }
    }
    Ok(())
}

/// The tree topology's reduction: pairwise merges along the canonical
/// [`distributed::merge_schedule`] over the sources that buffered a
/// summary this gather, halving the active set each level until one
/// root delivers the folded result — `ceil(log2 s)` merge levels plus
/// the root emit, with the server folding a single input instead of
/// `s`.
///
/// Peer traffic is routed through the server in v1 (send the emitter a
/// bare `MergeWith`, forward its surrendered buffer to the partner), so
/// a holder lost *after* emitting strands its summary server-side
/// rather than losing it: stranded summaries join the root in the
/// returned list, ordered by tree position, and the driver folds them
/// with the same shared functions the star path uses. A holder lost
/// *before* emitting takes every absorbed origin down with it — the
/// degradation record then names the whole subtree.
fn tree_gather<T: CommandTransport>(
    net: &mut RoundNet<'_, T>,
    responders: &[usize],
    gather: u8,
) -> Result<Vec<Message>> {
    let mut positions: Vec<Option<Holder>> = responders
        .iter()
        .map(|&source| {
            Some(Holder {
                source,
                origins: vec![source],
            })
        })
        .collect();
    // Summaries that already transited the server when their next
    // holder died, plus (last) the root's delivery.
    let mut finals: Vec<(usize, Payload)> = Vec::new();
    let levels = distributed::merge_schedule(positions.len());
    let depth = levels.len() as u64;
    for (lvl, pairs) in levels.into_iter().enumerate() {
        let active = positions.iter().flatten().count() as u64;
        for (pi, pj) in pairs {
            let Some(src) = positions[pj].take() else {
                continue;
            };
            let Some(dst_source) = positions[pi].as_ref().map(|h| h.source) else {
                // The partner is gone: the holder advances unpaired.
                positions[pi] = Some(src);
                continue;
            };
            net.send(
                src.source,
                &Command::MergeWith {
                    gather,
                    level: lvl as u64,
                    active,
                    payload: None,
                    emit: true,
                    last: false,
                },
            )?;
            let Some(resp) = net.recv(src.source)? else {
                mark_absorbed_lost(net, &src)?;
                continue;
            };
            let payload = expect_merged(resp, "tree merge emit")?.ok_or(CoreError::Net(
                NetError::ProtocolViolation {
                    context: "tree merge emit",
                    expected: "a surrendered merge buffer",
                    got: "a merged response with no payload".to_string(),
                },
            ))?;
            net.send(
                dst_source,
                &Command::MergeWith {
                    gather,
                    level: lvl as u64,
                    active,
                    payload: Some(payload.clone()),
                    emit: false,
                    last: false,
                },
            )?;
            match net.recv(dst_source)? {
                Some(resp) => {
                    expect_merged(resp, "tree merge fold")?;
                    positions[pi]
                        .as_mut()
                        .expect("holder checked above")
                        .origins
                        .extend(src.origins);
                }
                None => {
                    // The destination died holding its subtree, but the
                    // emitted summary already reached the server: it is
                    // stranded here and joins the server-side fold.
                    let dst = positions[pi].take().expect("holder checked above");
                    mark_absorbed_lost(net, &dst)?;
                    finals.push((pj, payload));
                }
            }
        }
    }
    // The root delivers the folded tree — the server's one fold input.
    let active = positions.iter().flatten().count() as u64;
    if let Some(pos) = positions.iter().position(Option::is_some) {
        let root = positions[pos].take().expect("found above");
        net.send(
            root.source,
            &Command::MergeWith {
                gather,
                level: depth,
                active,
                payload: None,
                emit: true,
                last: true,
            },
        )?;
        match net.recv(root.source)? {
            Some(resp) => {
                let payload = expect_merged(resp, "tree root emit")?.ok_or(CoreError::Net(
                    NetError::ProtocolViolation {
                        context: "tree root emit",
                        expected: "the folded root summary",
                        got: "a merged response with no payload".to_string(),
                    },
                ))?;
                finals.push((pos, payload));
            }
            None => mark_absorbed_lost(net, &root)?,
        }
    }
    finals.sort_by_key(|&(pos, _)| pos);
    finals
        .iter()
        .map(|(_, p)| p.decode().map_err(CoreError::Net))
        .collect()
}

/// The driver's plan-derived shadow of the sources' state: the working
/// dimension, basis and coreset bookkeeping, and the projection chain
/// the final lift inverts — never the data.
struct DriverState {
    /// Working-space dimensionality (updated from verified responses).
    cur: usize,
    /// Whether the sources hold coordinates inside a basis.
    has_basis: bool,
    /// Whether the server already holds that basis.
    basis_shared: bool,
    /// Dimensionality of the basis' parent space.
    basis_parent: usize,
    /// The server's copy of the basis (disPCA: the full-precision
    /// global basis; FSS: the decoded uplink), for the final lift.
    server_basis: Option<Matrix>,
    /// Whether a CR stage has produced per-source weighted summaries.
    weights_mode: bool,
    /// Whether disSS moved the summary to the server.
    handed_off: bool,
    /// The merged summary once disSS ran.
    server_summary: Option<(Matrix, Vec<f64>)>,
    /// Positional JL bookkeeping (identical to every executor's).
    jl: JlBook,
    /// JL projections in application order, for the final lift.
    projections: Vec<MaybeProjection>,
    source_seconds: f64,
    server_seconds: f64,
    source_ops: u64,
}

/// Runs the pipeline plan as the protocol server over `net`.
///
/// On any driver-side failure every source receives a best-effort
/// [`Command::Abort`] carrying the reason, so executors terminate with
/// a typed error instead of waiting out their timeout.
///
/// # Errors
///
/// Propagates configuration, numeric, transport, and protocol failures.
pub fn run_driver<T: CommandTransport>(pipe: &StagePipeline, net: &mut T) -> Result<RunOutput> {
    match drive(pipe, net) {
        Ok(out) => Ok(out),
        Err(e) => {
            let reason = e.to_string();
            for i in 0..net.sources() {
                let _ = net.send(
                    i,
                    &Command::Abort {
                        reason: reason.clone(),
                    },
                );
            }
            Err(e)
        }
    }
}

fn drive<T: CommandTransport>(pipe: &StagePipeline, net: &mut T) -> Result<RunOutput> {
    let params = pipe.params();
    let m = net.sources();
    let up0 = net.stats().total_uplink_bits();
    let down0 = net.stats().total_downlink_bits();

    // A non-default deadline policy is announced before any round: the
    // transport arms its own timers, and every source re-arms its
    // endpoint. `Deadline` takes no response and is never journaled.
    if params.deadline != DeadlinePolicy::default() {
        net.set_deadline(params.deadline);
        let ms = params.deadline.command.as_millis() as u64;
        let enc = EncodedCommand::new(Command::Deadline { ms });
        for i in 0..m {
            net.send_encoded(i, &enc)?;
        }
    }

    let mut rnet = RoundNet::new(net, params.replication);

    // Round 0: every source describes its shard, and the driver
    // validates the shapes before any stage runs. Loss
    // here is unrecoverable — a shard of unknown size cannot be dropped
    // within a quantified bound.
    let describe = EncodedCommand::new(Command::Describe);
    for i in 0..m {
        rnet.send_enc(i, &describe)?;
    }
    let mut rows = vec![0u64; m];
    let mut d = 0usize;
    for (i, row) in rows.iter_mut().enumerate() {
        let resp = rnet.recv(i)?.ok_or(CoreError::Protocol {
            reason: "a source was lost during the describe round",
        })?;
        let (r, c, _, _) = expect_done(resp, "describe round")?;
        *row = r;
        if i == 0 {
            d = c as usize;
        } else if c as usize != d {
            return Err(CoreError::InvalidConfig {
                reason: "shards disagree on dimensionality",
            });
        }
    }
    let total_n: usize = rows.iter().map(|&r| r as usize).sum();
    params.validate(total_n, d)?;
    rnet.degradable = true;

    let mut st = DriverState {
        cur: d,
        has_basis: false,
        basis_shared: false,
        basis_parent: d,
        server_basis: None,
        weights_mode: false,
        handed_off: false,
        server_summary: None,
        jl: JlBook::default(),
        projections: Vec::new(),
        source_seconds: 0.0,
        server_seconds: 0.0,
        source_ops: 0,
    };

    for (idx, stage) in pipe.stages().iter().enumerate() {
        if st.handed_off {
            return Err(CoreError::InvalidConfig {
                reason: "no stage may follow disss: the summary already lives at the server",
            });
        }
        run_stage(pipe, &mut rnet, &mut st, idx as u32, stage, m)?;
    }

    finalize(pipe, &mut rnet, st, m, up0, down0, &rows)
}

/// Drops the driver's basis bookkeeping, mirroring the executors'
/// `lift_out_of_basis` (the sources re-expand into the parent space).
fn drop_basis(st: &mut DriverState) {
    if st.has_basis {
        st.cur = st.basis_parent;
        st.has_basis = false;
        st.basis_shared = false;
        st.server_basis = None;
    }
}

/// One `Stage` command to every surviving source, responses folded as
/// `Done`s. Returns `(max ops, max seconds, cols)` with the column count
/// verified identical across the sources that answered.
fn local_round<T: CommandTransport>(
    net: &mut RoundNet<'_, T>,
    idx: u32,
    m: usize,
    context: &'static str,
) -> Result<(u64, f64, usize)> {
    let enc = EncodedCommand::new(Command::Stage { index: idx });
    for i in 0..m {
        net.send_enc(i, &enc)?;
    }
    let mut ops = 0u64;
    let mut secs = 0.0f64;
    let mut cols: Option<usize> = None;
    for i in 0..m {
        let Some(resp) = net.recv(i)? else { continue };
        let (_, c, o, s) = expect_done(resp, context)?;
        match cols {
            None => cols = Some(c as usize),
            Some(expected) if c as usize != expected => {
                return Err(CoreError::Net(NetError::ProtocolViolation {
                    context,
                    expected: "every source in the same working dimension",
                    got: format!("source {i} reports {c} columns, an earlier source {expected}"),
                }));
            }
            Some(_) => {}
        }
        ops = ops.max(o);
        secs = secs.max(s);
    }
    let cols = cols.ok_or(CoreError::Protocol {
        reason: "no surviving source answered the round",
    })?;
    Ok((ops, secs, cols))
}

fn run_stage<T: CommandTransport>(
    pipe: &StagePipeline,
    net: &mut RoundNet<'_, T>,
    st: &mut DriverState,
    idx: u32,
    stage: &Stage,
    m: usize,
) -> Result<()> {
    let params = pipe.params();
    match stage {
        Stage::Dr(cfg) => {
            drop_basis(st);
            let (stream, before_role) = st.jl.next_stream();
            let target = jl_target_dim(cfg, params, st.cur, before_role);
            let pi = MaybeProjection::generate(
                params.jl_kind,
                st.cur,
                target,
                derive_seed(params.seed, stream),
            );
            st.cur = pi.target_dim();
            st.projections.push(pi);
            st.jl.any_reduction = true;
            let (ops, secs, cols) = local_round(net, idx, m, "jl round")?;
            verify_cols(cols, st.cur, "jl round")?;
            st.source_ops += ops;
            st.source_seconds += secs;
        }
        Stage::Cr(_) => {
            if m != 1 {
                return Err(CoreError::InvalidConfig {
                    reason:
                        "fss is a single-source stage (multi-source pipelines use dispca/disss)",
                });
            }
            if st.weights_mode {
                return Err(CoreError::InvalidConfig {
                    reason: "multiple coreset stages in one pipeline",
                });
            }
            drop_basis(st);
            // The resolved dims are the executor's business; the driver
            // only records the space change the response reports.
            st.basis_parent = st.cur;
            let (ops, secs, cols) = local_round(net, idx, m, "fss round")?;
            st.cur = cols;
            st.has_basis = true;
            st.basis_shared = false;
            st.weights_mode = true;
            st.jl.any_reduction = true;
            st.source_ops += ops;
            st.source_seconds += secs;
        }
        Stage::Stream(_cfg) => {
            if st.weights_mode {
                return Err(CoreError::InvalidConfig {
                    reason: "multiple coreset stages in one pipeline",
                });
            }
            let (ops, secs, cols) = local_round(net, idx, m, "stream round")?;
            verify_cols(cols, st.cur, "stream round")?;
            st.weights_mode = true;
            st.jl.any_reduction = true;
            st.source_ops += ops;
            st.source_seconds += secs;
        }
        Stage::Qt(cfg) => {
            // Resolve driver-side too, so a bad width fails the run
            // before any source is commanded.
            resolve_quantizer(cfg, params)?;
            let (ops, secs, _) = local_round(net, idx, m, "qt round")?;
            st.source_ops += ops;
            st.source_seconds += secs;
        }
        Stage::DisPca(cfg) => {
            if st.weights_mode {
                return Err(CoreError::InvalidConfig {
                    reason: "dispca after a coreset stage is unsupported",
                });
            }
            drop_basis(st);
            let t = dispca_rank(cfg, params, st.cur);
            // Step 1: local SVD summaries, folded in source order.
            let stage_enc = EncodedCommand::new(Command::Stage { index: idx });
            for i in 0..m {
                net.send_enc(i, &stage_enc)?;
            }
            let mut summaries = Vec::with_capacity(m);
            let mut ops1 = 0u64;
            let mut secs1 = 0.0f64;
            if params.topology == Topology::Tree && m > 1 {
                // Tree topology: sources buffer their summaries behind a
                // plain acknowledgement; the reduction happens pairwise.
                let mut holders = Vec::with_capacity(m);
                for i in 0..m {
                    let Some(resp) = net.recv(i)? else { continue };
                    let (_, _, o, s) = expect_done(resp, "dispca summary")?;
                    ops1 = ops1.max(o);
                    secs1 = secs1.max(s);
                    holders.push(i);
                }
                for msg in tree_gather(net, &holders, GATHER_DISPCA)? {
                    match msg {
                        Message::SvdSummary {
                            singular_values,
                            basis,
                            ..
                        } => summaries.push((singular_values, basis)),
                        _ => {
                            return Err(CoreError::Protocol {
                                reason: "expected svd summary",
                            })
                        }
                    }
                }
            } else {
                for i in 0..m {
                    let Some(resp) = net.recv(i)? else { continue };
                    let (payload, o, s) = expect_up(resp, "dispca summary")?;
                    ops1 = ops1.max(o);
                    secs1 = secs1.max(s);
                    match payload.decode().map_err(CoreError::Net)? {
                        Message::SvdSummary {
                            singular_values,
                            basis,
                            ..
                        } => summaries.push((singular_values, basis)),
                        _ => {
                            return Err(CoreError::Protocol {
                                reason: "expected svd summary",
                            })
                        }
                    }
                }
            }
            // Step 2: the global SVD, folded along the canonical merge
            // schedule.
            let t1 = Instant::now();
            let basis = distributed::dispca_global_basis(&summaries, t, params.precision)?;
            st.server_seconds += t1.elapsed().as_secs_f64();
            // Step 3: broadcast; the basis payload (the fattest frame
            // of the protocol) is encoded exactly once, and each source
            // projects onto its decoded copy and reports the new shape.
            let deliver = EncodedCommand::new(Command::Deliver {
                payload: Payload::of(&Message::Basis {
                    basis: basis.clone(),
                    precision: params.precision,
                }),
            });
            for i in 0..m {
                net.send_enc(i, &deliver)?;
            }
            let mut ops2 = 0u64;
            let mut secs2 = 0.0f64;
            for i in 0..m {
                let Some(resp) = net.recv(i)? else { continue };
                let (_, c, o, s) = expect_done(resp, "dispca projection")?;
                verify_cols(c as usize, basis.cols(), "dispca projection")?;
                ops2 = ops2.max(o);
                secs2 = secs2.max(s);
            }
            st.basis_parent = st.cur;
            st.cur = basis.cols();
            st.server_basis = Some(basis);
            st.has_basis = true;
            st.basis_shared = true;
            st.jl.any_reduction = true;
            st.source_ops += ops1 + ops2;
            st.source_seconds += secs1 + secs2;
        }
        Stage::DisSs(cfg) => {
            if st.weights_mode {
                return Err(CoreError::InvalidConfig {
                    reason: "disss after a coreset stage is unsupported",
                });
            }
            let budget = disss_budget(cfg, params);
            if budget == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: "zero disSS sample budget",
                });
            }
            // Step 1: bicriteria cost reports.
            let stage_enc = EncodedCommand::new(Command::Stage { index: idx });
            for i in 0..m {
                net.send_enc(i, &stage_enc)?;
            }
            // Responders are tracked by id: a lost source drops out of
            // the allocation fold, and its budget share is redistributed
            // over the survivors by the same proportional rule.
            let mut responders = Vec::with_capacity(m);
            let mut costs = Vec::with_capacity(m);
            let mut ops1 = 0u64;
            let mut secs1 = 0.0f64;
            for i in 0..m {
                let Some(resp) = net.recv(i)? else { continue };
                let (payload, o, s) = expect_up(resp, "disss cost report")?;
                ops1 = ops1.max(o);
                secs1 = secs1.max(s);
                match payload.decode().map_err(CoreError::Net)? {
                    Message::CostReport { cost } => {
                        responders.push(i);
                        costs.push(cost);
                    }
                    _ => {
                        return Err(CoreError::Protocol {
                            reason: "expected cost report",
                        })
                    }
                }
            }
            // Step 2: proportional allocation (shared fold).
            let allocations = distributed::disss_allocations(&costs, budget);
            for (&i, &s_i) in responders.iter().zip(allocations.iter()) {
                net.send(
                    i,
                    &Command::Deliver {
                        payload: Payload::of(&Message::SampleAllocation { size: s_i as u64 }),
                    },
                )?;
            }
            // Step 3: weighted samples, merged in source order.
            let mut parts = Vec::with_capacity(m);
            let mut ops2 = 0u64;
            let mut secs2 = 0.0f64;
            if params.topology == Topology::Tree && m > 1 {
                let mut holders = Vec::with_capacity(responders.len());
                for &i in &responders {
                    let Some(resp) = net.recv(i)? else { continue };
                    let (_, _, o, s) = expect_done(resp, "disss sample")?;
                    ops2 = ops2.max(o);
                    secs2 = secs2.max(s);
                    holders.push(i);
                }
                for msg in tree_gather(net, &holders, GATHER_DISSS)? {
                    match msg {
                        Message::Coreset {
                            points,
                            weights,
                            delta,
                            ..
                        } => parts.push(
                            Coreset::new(points, weights, delta).map_err(CoreError::Coreset)?,
                        ),
                        _ => {
                            return Err(CoreError::Protocol {
                                reason: "expected a coreset message",
                            })
                        }
                    }
                }
            } else {
                for &i in &responders {
                    let Some(resp) = net.recv(i)? else { continue };
                    let (payload, o, s) = expect_up(resp, "disss sample")?;
                    ops2 = ops2.max(o);
                    secs2 = secs2.max(s);
                    match payload.decode().map_err(CoreError::Net)? {
                        Message::Coreset {
                            points,
                            weights,
                            delta,
                            ..
                        } => parts.push(
                            Coreset::new(points, weights, delta).map_err(CoreError::Coreset)?,
                        ),
                        _ => {
                            return Err(CoreError::Protocol {
                                reason: "expected a coreset message",
                            })
                        }
                    }
                }
            }
            let t1 = Instant::now();
            let merged = Coreset::merge(parts.iter()).map_err(CoreError::Coreset)?;
            st.server_seconds += t1.elapsed().as_secs_f64();
            st.server_summary = Some((merged.points().clone(), merged.weights().to_vec()));
            st.handed_off = true;
            st.jl.any_reduction = true;
            st.source_ops += ops1 + ops2;
            st.source_seconds += secs1 + secs2;
        }
    }
    Ok(())
}

fn verify_cols(got: usize, expected: usize, context: &'static str) -> Result<()> {
    if got != expected {
        return Err(CoreError::Net(NetError::ProtocolViolation {
            context,
            expected: "the plan-derived working dimension",
            got: format!("{got} columns (expected {expected})"),
        }));
    }
    Ok(())
}

fn finalize<T: CommandTransport>(
    pipe: &StagePipeline,
    net: &mut RoundNet<'_, T>,
    mut st: DriverState,
    m: usize,
    up0: u64,
    down0: u64,
    rows: &[u64],
) -> Result<RunOutput> {
    let params = pipe.params();
    let (points, weights) = match st.server_summary.take() {
        Some(summary) => summary,
        None => {
            // An FSS basis travels first; the server keeps the decoded
            // copy for the final lift.
            if st.has_basis && !st.basis_shared {
                net.send(0, &Command::TransmitBasis)?;
                let resp = net.recv(0)?.ok_or(CoreError::Protocol {
                    reason: "the basis-holding source was lost before transmitting it",
                })?;
                let (payload, _, _) = expect_up(resp, "basis transmit")?;
                match payload.decode().map_err(CoreError::Net)? {
                    Message::Basis { basis, .. } => st.server_basis = Some(basis),
                    _ => {
                        return Err(CoreError::Protocol {
                            reason: "expected a basis message",
                        })
                    }
                }
                st.basis_shared = true;
            }
            let transmit = EncodedCommand::new(Command::Transmit);
            for i in 0..m {
                net.send_enc(i, &transmit)?;
            }
            let mut blocks = Vec::with_capacity(m);
            let mut weights = Vec::new();
            let mut ops = 0u64;
            let mut secs = 0.0f64;
            let mut fold_block = |msg: Message, weights: &mut Vec<f64>| match msg {
                Message::RawData { points } => {
                    weights.extend(vec![1.0; points.rows()]);
                    blocks.push(points);
                    Ok(())
                }
                Message::Coreset {
                    points, weights: w, ..
                } => {
                    weights.extend(w);
                    blocks.push(points);
                    Ok(())
                }
                _ => Err(CoreError::Protocol {
                    reason: "expected raw data or a coreset",
                }),
            };
            if params.topology == Topology::Tree && m > 1 {
                let mut holders = Vec::with_capacity(m);
                for i in 0..m {
                    let Some(resp) = net.recv(i)? else { continue };
                    let (_, _, o, s) = expect_done(resp, "summary transmit")?;
                    ops = ops.max(o);
                    secs = secs.max(s);
                    holders.push(i);
                }
                for msg in tree_gather(net, &holders, GATHER_TRANSMIT)? {
                    fold_block(msg, &mut weights)?;
                }
            } else {
                for i in 0..m {
                    let Some(resp) = net.recv(i)? else { continue };
                    let (payload, o, s) = expect_up(resp, "summary transmit")?;
                    ops = ops.max(o);
                    secs = secs.max(s);
                    fold_block(payload.decode().map_err(CoreError::Net)?, &mut weights)?;
                }
            }
            st.source_ops += ops;
            st.source_seconds += secs;
            let t1 = Instant::now();
            let stacked = Matrix::vstack_all(blocks.iter())?;
            st.server_seconds += t1.elapsed().as_secs_f64();
            (stacked, weights)
        }
    };

    let t1 = Instant::now();
    let centers_summary = solve_weighted_kmeans(
        &points,
        &weights,
        params.k,
        params.kmeans_restarts,
        derive_seed(params.seed, seeds::SERVER),
        params.solver_shards,
        params.compute,
    )?;
    let mut centers = match &st.server_basis {
        Some(basis) => lift_centers_through_basis(&centers_summary, basis)?,
        None => centers_summary,
    };
    for pi in st.projections.iter().rev() {
        centers = pi.lift(&centers)?;
    }
    st.server_seconds += t1.elapsed().as_secs_f64();

    // Shutdown: announce the digest; every source answers with the
    // traffic it observed itself, which must equal the server's
    // per-source ledger — the non-replicated integrity check.
    let digest = RunDigest::new(net.stats(), &centers);
    let finish = EncodedCommand::new(Command::Finish {
        uplink_bits: digest.uplink_bits,
        downlink_bits: digest.downlink_bits,
        centers_hash: digest.centers_hash,
    });
    for i in 0..m {
        net.send_enc(i, &finish)?;
    }
    for i in 0..m {
        let Some(resp) = net.recv(i)? else { continue };
        match resp {
            Response::Fin {
                uplink_bits,
                downlink_bits,
                ..
            } => {
                if uplink_bits != net.stats().uplink_bits(i)
                    || downlink_bits != net.stats().downlink_bits(i)
                {
                    return Err(CoreError::Net(NetError::Divergence {
                        source: i,
                        direction: "counter report",
                    }));
                }
            }
            Response::Err { reason } => {
                return Err(CoreError::Net(NetError::RemoteAbort { reason }))
            }
            other => {
                return Err(CoreError::Net(NetError::ProtocolViolation {
                    context: "finish round",
                    expected: "a fin response",
                    got: other.name().to_string(),
                }))
            }
        }
    }

    let degraded = net.degradation(rows, params.epsilon);
    let recovered = net.recovery();
    Ok(RunOutput {
        centers,
        uplink_bits: net.stats().total_uplink_bits() - up0,
        downlink_bits: net.stats().total_downlink_bits() - down0,
        source_seconds: st.source_seconds,
        server_seconds: st.server_seconds,
        source_ops: st.source_ops,
        summary_points: points.rows(),
        degraded,
        recovered,
    })
}

impl StagePipeline {
    /// Runs the pipeline as the protocol server over any
    /// [`CommandTransport`] — the sources hold the data, this end holds
    /// the plan.
    ///
    /// # Errors
    ///
    /// See [`run_driver`].
    pub fn run_driver<T: CommandTransport>(&self, net: &mut T) -> Result<RunOutput> {
        run_driver(self, net)
    }
}
