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
//! the shared seed, each on the stream its plan position names
//! (`stage::jl_stream`, which the executors read too), exactly
//! like the paper's "shared randomness" remark prescribes.
//!
//! Every phase is one or more rounds, and every round has the same two
//! halves. `RoundNet::broadcast` encodes a command once and sends it to
//! every live source; the two per-source commands (a disSS sample
//! allocation and `TransmitBasis`) go through the same `RoundNet::send`.
//! `collect` then receives the live sources' answers in source order,
//! hands each to the phase's fold, and books the round's largest ops and
//! seconds: the one place the sources' work reaches the run totals. A
//! resumed journal compares the driver's sends with its records byte for
//! byte, so the order of every send and receive is part of the protocol
//! (`tests/golden/rounds.txt` pins it).
//!
//! The in-process entry points of [`StagePipeline`] wire the driver to
//! executor threads (one per shard, each holding only its shard); the
//! event-driven TCP backend ([`ekm_net::event`]) runs the same driver
//! across real processes.

use crate::executor::state_fingerprint;
use crate::health::{HealthMachine, RecoveryAction};
use crate::output::{Degradation, Recovery};
use crate::params::replica_holders;
use crate::pipelines::seeds;
use crate::projection::MaybeProjection;
use crate::server::{lift_centers_through_basis, solve_weighted_kmeans};
use crate::stage::{check_plan, jl_stream, jl_target_dim, Stage};
use crate::{distributed, CoreError, Result, RunOutput, StagePipeline};
use ekm_coreset::Coreset;
use ekm_linalg::random::derive_seed;
use ekm_linalg::{LinalgError, Matrix};
use ekm_net::messages::Message;
use ekm_net::protocol::{
    Command, CommandTransport, DeadlinePolicy, EncodedCommand, Payload, Response,
};
use ekm_net::{NetError, NetworkStats, RunDigest};
use std::time::Instant;

/// Destructures a `Done` response into its shard shape; maps executor
/// errors and type mismatches to typed failures.
fn expect_done(resp: Response, context: &'static str) -> Result<(u64, u64)> {
    match resp {
        Response::Done { rows, cols, .. } => Ok((rows, cols)),
        Response::Err { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
        other => Err(CoreError::Net(NetError::ProtocolViolation {
            context,
            expected: "a done response",
            got: other.name().to_string(),
        })),
    }
}

/// Decodes an `Up` response's message.
fn expect_up(resp: Response, context: &'static str) -> Result<Message> {
    match resp {
        Response::Up { payload, .. } => payload.decode().map_err(CoreError::Net),
        Response::Err { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
        other => Err(CoreError::Net(NetError::ProtocolViolation {
            context,
            expected: "an uplink response",
            got: other.name().to_string(),
        })),
    }
}

/// The [`NetError::Transport`] context of a send-side loss replayed from
/// a journal: its detail is the reason the live run recorded.
pub(crate) const REPLAYED_LOSS: &str = "journal replay of a lost send";

/// The reason a source lost to a failed send is recorded under. The
/// journal records a send-side loss under this reason and fails the
/// replayed send with it as a [`REPLAYED_LOSS`], so a resumed run's
/// degradation record reads as the live run's.
pub(crate) fn send_loss_reason(context: &'static str, detail: String) -> String {
    if context == REPLAYED_LOSS {
        detail
    } else {
        format!("send failed during {context}: {detail}")
    }
}

/// Whether a recovery step failed, which escalates the loss it answered;
/// a journal failure is never a source's and ends the run instead.
fn failed(step: std::result::Result<(), NetError>) -> Result<bool> {
    match step {
        Ok(()) => Ok(false),
        Err(e @ NetError::Journal { .. }) => Err(e.into()),
        Err(_) => Ok(true),
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
            degradable: false,
        }
    }

    fn sources(&self) -> usize {
        self.alive.len()
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
    /// error kind, a journal failure included, propagates.
    fn send(&mut self, i: usize, enc: &EncodedCommand) -> Result<()> {
        if !self.alive[i] {
            return Ok(());
        }
        if enc.command().is_round() {
            self.history[i].push(enc.command().clone());
        }
        match self.inner.send_encoded(i, enc) {
            Ok(()) => Ok(()),
            Err(NetError::Transport { context, detail }) => {
                let reason = send_loss_reason(context, detail);
                self.handle_loss(i, reason).map(|_| ())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Encodes `cmd` once and sends the same bytes to every live source,
    /// in source order: the one way a round goes out.
    fn broadcast(&mut self, cmd: Command) -> Result<()> {
        let enc = EncodedCommand::new(cmd);
        for i in 0..self.sources() {
            self.send(i, &enc)?;
        }
        Ok(())
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
                            // A later copy of an answered round (the
                            // transport charged it nothing) or a
                            // misbehaving source's stale frame.
                            continue;
                        }
                    }
                    self.health[i].on_response();
                    return Ok(Some(resp));
                }
                Err(e) => return Err(e.into()),
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
                    if !failed(self.reissue(i))? {
                        return Ok(true);
                    }
                    // The reissue could not even be sent: escalate.
                    action = self.health[i].on_loss();
                }
                RecoveryAction::Promote { host } => {
                    if self.alive[host] && !failed(self.promote(i, host))? {
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
    /// layer, rebuilds the dead owner's state on the fresh persona
    /// ([`replay_rounds`]), and reissues the in-flight round through the
    /// new route. During journal replay only the promotion record is
    /// consumed — the journal rebuilds the persona through the same
    /// routine when it goes live.
    fn promote(&mut self, i: usize, host: usize) -> std::result::Result<(), NetError> {
        self.inner.promote(i, host)?;
        if self.inner.replaying() {
            return Ok(());
        }
        let (inflight, answered) = self.history[i].split_last().expect("checked by caller");
        replay_rounds(
            &mut *self.inner,
            i,
            host,
            answered,
            Some(inflight),
            &mut self.parked,
        )?;
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

    /// The recovery record for the run, or `None` if no source ended it
    /// absorbed by a replica. Only sources still alive at the end count
    /// as recovered — a promoted-then-degraded source belongs to the
    /// degradation record.
    fn recovery(&self) -> Option<Recovery> {
        let promoted: Vec<(usize, usize)> = self
            .health
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.alive[i])
            .filter_map(|(i, h)| h.host().map(|host| (i, host)))
            .collect();
        (!promoted.is_empty()).then_some(Recovery { promoted })
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

/// Rebuilds dead source `origin`'s state on the persona `host` just
/// built for it: replays `answered` (the origin's answered round
/// commands, in order), waiting out each [`Response::Replayed`]
/// acknowledgement, then checks the persona's state fingerprint against
/// `net`'s ledger row for the origin — minus `inflight`, the unanswered
/// command that was charged when sent but reaches the persona only
/// through a later reissue. A live promotion ([`RoundNet::promote`]) and
/// a journal resuming past a journaled one both rebuild through here.
///
/// The host may interleave answers to its *own* in-flight round on the
/// shared connection; those are parked for the caller rather than
/// dropped. Replay frames are charged to the run's replica-overhead
/// counters by the transport, never to the classic ledgers.
pub(crate) fn replay_rounds<T: CommandTransport>(
    net: &mut T,
    origin: usize,
    host: usize,
    answered: &[Command],
    inflight: Option<&Command>,
    parked: &mut [std::collections::VecDeque<Response>],
) -> std::result::Result<(), NetError> {
    let mut fingerprint = state_fingerprint(0, 0, 0);
    for (k, cmd) in answered.iter().enumerate() {
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
    // A persona still at round zero has nothing to check.
    if answered.is_empty() {
        return Ok(());
    }
    let inflight = match inflight {
        Some(Command::Deliver { payload }) => payload.bits(),
        _ => 0,
    };
    let want = state_fingerprint(
        answered.len() as u64,
        net.stats().uplink_bits(origin),
        net.stats().downlink_bits(origin) - inflight,
    );
    if fingerprint != want {
        return Err(NetError::Divergence {
            source: origin,
            direction: "replica replay",
        });
    }
    Ok(())
}

/// The driver's plan-derived shadow of the sources' state: the working
/// dimension, basis and coreset bookkeeping, and the projection chain
/// the final lift inverts — never the data.
#[derive(Default)]
struct DriverState {
    /// Working-space dimensionality (updated from verified responses).
    cur: usize,
    /// Whether the sources hold coordinates inside a basis.
    has_basis: bool,
    /// Dimensionality of the basis' parent space.
    basis_parent: usize,
    /// The server's copy of that basis (disPCA: the full-precision
    /// global basis; FSS: the decoded uplink, until which it is `None`),
    /// for the final lift.
    server_basis: Option<Matrix>,
    /// The merged summary once disSS ran.
    server_summary: Option<(Matrix, Vec<f64>)>,
    /// JL projections in application order, for the final lift.
    projections: Vec<MaybeProjection>,
    source_seconds: f64,
    server_seconds: f64,
    source_ops: u64,
}

/// Receives the answer of every live source in `from`, in source order,
/// and hands each to `fold` with its source id: the one way a round
/// comes back. The round's largest ops and seconds are booked to `st`,
/// the one place the sources' work reaches the run totals.
fn collect<T: CommandTransport>(
    net: &mut RoundNet<'_, T>,
    st: &mut DriverState,
    from: impl IntoIterator<Item = usize>,
    mut fold: impl FnMut(usize, Response) -> Result<()>,
) -> Result<()> {
    let mut ops = 0u64;
    let mut secs = 0.0f64;
    for i in from {
        let Some(resp) = net.recv(i)? else { continue };
        let (o, s) = match resp {
            Response::Done { ops, seconds, .. } | Response::Up { ops, seconds, .. } => {
                (ops, seconds)
            }
            _ => (0, 0.0),
        };
        ops = ops.max(o);
        secs = secs.max(s);
        fold(i, resp)?;
    }
    st.source_ops += ops;
    st.source_seconds += secs;
    Ok(())
}

/// Collects a round of `Done`s from every live source and returns the
/// column count, verified identical across the sources that answered.
fn collect_done<T: CommandTransport>(
    net: &mut RoundNet<'_, T>,
    st: &mut DriverState,
    context: &'static str,
) -> Result<usize> {
    let mut cols: Option<usize> = None;
    collect(net, st, 0..net.sources(), |i, resp| {
        let c = expect_done(resp, context)?.1 as usize;
        match cols {
            Some(expected) if c != expected => Err(CoreError::Net(NetError::ProtocolViolation {
                context,
                expected: "every source in the same working dimension",
                got: format!("source {i} reports {c} columns, an earlier source {expected}"),
            })),
            _ => {
                cols = Some(c);
                Ok(())
            }
        }
    })?;
    cols.ok_or(CoreError::Protocol {
        reason: "no surviving source answered the round",
    })
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
    let mut st = DriverState::default();

    // Round 0: every source describes its shard, and the driver
    // validates the shapes before any stage runs. Loss here is
    // unrecoverable — a shard of unknown size cannot be dropped within
    // a quantified bound — so every source answers.
    rnet.broadcast(Command::Describe)?;
    let mut rows = vec![0u64; m];
    let mut d = 0usize;
    collect(&mut rnet, &mut st, 0..m, |i, resp| {
        let (r, c) = expect_done(resp, "describe round")?;
        rows[i] = r;
        if i == 0 {
            d = c as usize;
        } else if c as usize != d {
            return Err(CoreError::InvalidConfig {
                reason: "shards disagree on dimensionality",
            });
        }
        Ok(())
    })?;
    let total_n: usize = rows.iter().map(|&r| r as usize).sum();
    params.validate(total_n, d)?;
    check_plan(pipe.stages(), params, m)?;
    rnet.degradable = true;
    st.cur = d;
    st.basis_parent = d;

    for (idx, stage) in pipe.stages().iter().enumerate() {
        run_stage(pipe, &mut rnet, &mut st, idx, stage)?;
    }

    finalize(pipe, &mut rnet, st, up0, down0, &rows)
}

/// Drops the driver's basis bookkeeping, mirroring the executors'
/// `lift_out_of_basis` (the sources re-expand into the parent space).
fn drop_basis(st: &mut DriverState) {
    if st.has_basis {
        st.cur = st.basis_parent;
        st.has_basis = false;
        st.server_basis = None;
    }
}

/// Runs the plan's stage `index`; [`check_plan`] already vetted the
/// composition. Every stage opens with a `Stage` round.
fn run_stage<T: CommandTransport>(
    pipe: &StagePipeline,
    net: &mut RoundNet<'_, T>,
    st: &mut DriverState,
    index: usize,
    stage: &Stage,
) -> Result<()> {
    let params = pipe.params();
    let m = net.sources();
    net.broadcast(Command::Stage {
        index: index as u32,
    })?;
    match stage {
        Stage::Dr(_) => {
            drop_basis(st);
            // The sources project while the server draws the same Π,
            // which it needs only for the final lift.
            let (stream, before_role) = jl_stream(pipe.stages(), index);
            let target = jl_target_dim(params, st.cur, before_role);
            let pi = MaybeProjection::generate(
                params.jl_kind,
                st.cur,
                target,
                derive_seed(params.seed, stream),
            );
            st.cur = pi.target_dim();
            st.projections.push(pi);
            let cols = collect_done(net, st, "jl round")?;
            verify_cols(cols, st.cur, "jl round")?;
        }
        Stage::Cr(_) => {
            drop_basis(st);
            // The resolved dims are the executor's business; the driver
            // only records the space change the response reports.
            st.basis_parent = st.cur;
            st.cur = collect_done(net, st, "fss round")?;
            st.has_basis = true;
        }
        Stage::Stream(_) => {
            let cols = collect_done(net, st, "stream round")?;
            verify_cols(cols, st.cur, "stream round")?;
        }
        Stage::Qt(_) => {
            collect_done(net, st, "qt round")?;
        }
        Stage::DisPca(_) => {
            drop_basis(st);
            let t = params.effective_pca_dim(st.cur);
            // Step 1: local SVD summaries, folded in source order.
            let mut summaries = Vec::with_capacity(m);
            collect(net, st, 0..m, |_, resp| {
                match expect_up(resp, "dispca summary")? {
                    Message::SvdSummary {
                        singular_values,
                        basis,
                        ..
                    } => {
                        summaries.push((singular_values, basis));
                        Ok(())
                    }
                    _ => Err(CoreError::Protocol {
                        reason: "expected svd summary",
                    }),
                }
            })?;
            // Step 2: the global SVD, folded along the canonical merge
            // schedule.
            let t1 = Instant::now();
            let basis = distributed::dispca_global_basis(&summaries, t, params.precision)?;
            st.server_seconds += t1.elapsed().as_secs_f64();
            // Step 3: broadcast; the basis payload (the fattest frame
            // of the protocol) is encoded exactly once, and each source
            // projects onto its decoded copy and reports the new shape.
            net.broadcast(Command::Deliver {
                payload: Payload::of(&Message::Basis {
                    basis: basis.clone(),
                    precision: params.precision,
                }),
            })?;
            collect(net, st, 0..m, |_, resp| {
                let (_, c) = expect_done(resp, "dispca projection")?;
                verify_cols(c as usize, basis.cols(), "dispca projection")
            })?;
            st.basis_parent = st.cur;
            st.cur = basis.cols();
            st.server_basis = Some(basis);
            st.has_basis = true;
        }
        Stage::DisSs(_) => {
            // Step 1: bicriteria cost reports. Responders are tracked by
            // id: a lost source drops out of the allocation fold, and
            // its budget share is redistributed over the survivors by
            // the same proportional rule.
            let mut responders = Vec::with_capacity(m);
            let mut costs = Vec::with_capacity(m);
            collect(net, st, 0..m, |i, resp| {
                match expect_up(resp, "disss cost report")? {
                    Message::CostReport { cost } => {
                        responders.push(i);
                        costs.push(cost);
                        Ok(())
                    }
                    _ => Err(CoreError::Protocol {
                        reason: "expected cost report",
                    }),
                }
            })?;
            // Step 2: proportional allocation (shared fold).
            let allocations = distributed::disss_allocations(&costs, params.coreset_size);
            for (&i, &s_i) in responders.iter().zip(allocations.iter()) {
                let size = s_i as u64;
                net.send(
                    i,
                    &EncodedCommand::new(Command::Deliver {
                        payload: Payload::of(&Message::SampleAllocation { size }),
                    }),
                )?;
            }
            // Step 3: weighted samples, merged in source order.
            let mut parts = Vec::with_capacity(m);
            collect(net, st, responders, |_, resp| {
                match expect_up(resp, "disss sample")? {
                    Message::Coreset {
                        points,
                        weights,
                        delta,
                        ..
                    } => {
                        parts.push(
                            Coreset::new(points, weights, delta).map_err(CoreError::Coreset)?,
                        );
                        Ok(())
                    }
                    _ => Err(CoreError::Protocol {
                        reason: "expected a coreset message",
                    }),
                }
            })?;
            let t1 = Instant::now();
            let merged = Coreset::merge(parts.iter()).map_err(CoreError::Coreset)?;
            st.server_seconds += t1.elapsed().as_secs_f64();
            st.server_summary = Some((merged.points().clone(), merged.weights().to_vec()));
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

/// Refuses a basis holding a NaN or infinite value before the server
/// lifts centers through it, as the disPCA fold refuses a non-finite
/// summary (the solve refuses non-finite summary points itself). It
/// stops early only between chunks, so each chunk's scan vectorizes.
fn check_finite(m: &Matrix, op: &'static str) -> Result<()> {
    let finite = m
        .as_slice()
        .chunks(1024)
        .all(|c| c.iter().fold(true, |ok, x| ok & x.is_finite()));
    if finite {
        Ok(())
    } else {
        Err(CoreError::Linalg(LinalgError::NonFinite { op }))
    }
}

fn finalize<T: CommandTransport>(
    pipe: &StagePipeline,
    net: &mut RoundNet<'_, T>,
    mut st: DriverState,
    up0: u64,
    down0: u64,
    rows: &[u64],
) -> Result<RunOutput> {
    let params = pipe.params();
    let m = net.sources();
    let (points, weights) = match st.server_summary.take() {
        Some(summary) => summary,
        None => {
            // An FSS basis travels first; the server keeps the decoded
            // copy for the final lift.
            if st.has_basis && st.server_basis.is_none() {
                net.send(0, &EncodedCommand::new(Command::TransmitBasis))?;
                let mut basis = None;
                collect(net, &mut st, [0], |_, resp| {
                    match expect_up(resp, "basis transmit")? {
                        Message::Basis { basis: b, .. } => {
                            check_finite(&b, "the basis lift")?;
                            basis = Some(b);
                            Ok(())
                        }
                        _ => Err(CoreError::Protocol {
                            reason: "expected a basis message",
                        }),
                    }
                })?;
                st.server_basis = Some(basis.ok_or(CoreError::Protocol {
                    reason: "the basis-holding source was lost before transmitting it",
                })?);
            }
            net.broadcast(Command::Transmit)?;
            let mut blocks = Vec::with_capacity(m);
            let mut weights = Vec::new();
            collect(net, &mut st, 0..m, |_, resp| {
                match expect_up(resp, "summary transmit")? {
                    Message::RawData { points } => {
                        weights.resize(weights.len() + points.rows(), 1.0);
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
                }
            })?;
            let t1 = Instant::now();
            let stacked = Matrix::vstack_all(blocks)?;
            st.server_seconds += t1.elapsed().as_secs_f64();
            (stacked, weights)
        }
    };
    // The solve refuses a summary holding a NaN or infinite value
    // itself, in the norm pass it makes anyway.
    let t1 = Instant::now();
    let (centers_summary, _) = solve_weighted_kmeans(
        &points,
        &weights,
        params.k,
        params.kmeans_restarts,
        derive_seed(params.seed, seeds::SERVER),
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
    // per-source ledger — the non-replicated integrity check. Neither
    // `Finish` nor `Fin` carries a payload, and a promotion charges only
    // the replica plane, so the ledger read before the round is the one
    // each report must match.
    let digest = RunDigest::new(net.stats(), &centers);
    net.broadcast(Command::Finish {
        uplink_bits: digest.uplink_bits,
        downlink_bits: digest.downlink_bits,
        centers_hash: digest.centers_hash,
    })?;
    let ledger: Vec<(u64, u64)> = (0..m)
        .map(|i| (net.stats().uplink_bits(i), net.stats().downlink_bits(i)))
        .collect();
    collect(net, &mut st, 0..m, |i, resp| match resp {
        Response::Fin {
            uplink_bits,
            downlink_bits,
            ..
        } if (uplink_bits, downlink_bits) == ledger[i] => Ok(()),
        Response::Fin { .. } => Err(CoreError::Net(NetError::Divergence {
            source: i,
            direction: "counter report",
        })),
        Response::Err { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
        other => Err(CoreError::Net(NetError::ProtocolViolation {
            context: "finish round",
            expected: "a fin response",
            got: other.name().to_string(),
        })),
    })?;

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
