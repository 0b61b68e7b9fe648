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
//! shared helpers in [`crate::stage`] (the composition rules,
//! dimensions, and JL seed streams read off the plan position) and the
//! disSS/disPCA local steps in [`crate::distributed`], so a source's
//! responses depend only on the plan and its shard. The golden fixtures
//! in `tests/golden/` pin them.
//!
//! An executor answers every command through one method,
//! [`SourceExecutor::handle`], and runs the plan's stages once each, in
//! plan order; [`SourceExecutor::serve`] is a loop that feeds it from an
//! endpoint.
//!
//! The source-local stages (`jl`, `fss`, `stream`) are memoized when an
//! in-process sweep attaches a shared [`StageCache`]: each executor
//! looks up and stores its own state snapshot, and a hit replays the
//! recorded operation count and seconds in its `Done` reply.

use crate::cache::{StageCache, StageSnapshot};
use crate::complexity;
use crate::distributed::{disss_local_bicriteria, disss_local_sample, local_svd_summary};
use crate::params::SummaryParams;
use crate::pipelines::{quantize_for_wire, seeds};
use crate::projection::MaybeProjection;
use crate::stage::{check_plan, jl_stream, jl_target_dim, resolve_quantizer, stream_plan, Stage};
use crate::{CoreError, Result};
use ekm_clustering::bicriteria::BicriteriaSolution;
use ekm_coreset::{FssBuilder, StreamingCoreset};
use ekm_linalg::random::derive_seed;
use ekm_linalg::{ops, Matrix};
use ekm_net::fnv::{digest_f64s, Fnv};
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

/// Writes a matrix into a stage key: its shape through `h`, its entries
/// as one [`digest_f64s`].
fn write_matrix_digest(h: &mut Fnv, m: &Matrix) {
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    h.write_u64(digest_f64s(m.as_slice()));
}

/// A command this executor cannot take in its current state.
fn violation(context: &'static str, expected: &'static str, got: impl Into<String>) -> CoreError {
    CoreError::Net(NetError::ProtocolViolation {
        context,
        expected,
        got: got.into(),
    })
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
    quantizer: Option<ekm_quant::RoundingQuantizer>,
    /// Stages run so far: the next `Stage` command must name this index.
    stages_run: usize,
    /// Whether disSS moved the summary to the server (nothing is left
    /// to transmit).
    handed_off: bool,
    pending: Option<PendingDeliver>,
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
    /// This executor's report once its own `Finish` ran, held back
    /// while personas are still answering for their origins.
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
            quantizer: None,
            stages_run: 0,
            handed_off: false,
            pending: None,
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

    /// Serves commands from `endpoint` until the run finishes or fails:
    /// a loop over [`handle`](Self::handle) that applies `Deadline` to
    /// the endpoint and sends every response. It returns once this
    /// source's own `Fin` has been sent and no persona remains.
    ///
    /// Takes `&mut self` so a transport failure leaves the executor's
    /// state intact: a source that loses its server can reconnect and
    /// call `serve` again on a fresh endpoint, answering replayed or
    /// reissued rounds from the same position (`ekm source --reconnect`).
    ///
    /// # Errors
    ///
    /// Transport failures, [`NetError::RemoteAbort`] when the driver
    /// aborts, and every other error of [`handle`](Self::handle), which
    /// is also reported back to the driver as an `Err` response (wrapped
    /// in `Forwarded` when the command was a `Forward`) before
    /// returning.
    pub fn serve<E: SourceEndpoint>(&mut self, endpoint: &mut E) -> Result<SourceRunReport> {
        loop {
            let cmd = endpoint.recv_command().map_err(CoreError::Net)?;
            if let Command::Deadline { ms } = cmd {
                endpoint.set_deadline(DeadlinePolicy::uniform(Duration::from_millis(ms)));
            }
            let forwarded = match cmd {
                Command::Forward { origin, .. } => Some(origin),
                _ => None,
            };
            match self.handle(cmd) {
                Ok(Some(resp)) => {
                    // A Fin — this source's own, or the last persona's
                    // (forwarded) — may end the run.
                    let fin = matches!(resp, Response::Fin { .. } | Response::Forwarded { .. });
                    endpoint.send_response(resp).map_err(CoreError::Net)?;
                    if fin && self.personas.is_empty() {
                        if let Some(report) = self.finished.take() {
                            return Ok(report);
                        }
                    }
                }
                Ok(None) => {}
                // The driver's own abort needs no answer.
                Err(e @ CoreError::Net(NetError::RemoteAbort { .. })) => return Err(e),
                Err(e) => {
                    // Best-effort: tell the driver why before bailing.
                    let err = Response::Err {
                        reason: e.to_string(),
                    };
                    let _ = endpoint.send_response(match forwarded {
                        Some(origin) => Response::Forwarded {
                            origin,
                            resp: Box::new(err),
                        },
                        None => err,
                    });
                    return Err(e);
                }
            }
        }
    }

    /// The executor's one dispatch: answers a protocol round, a
    /// `Resume`/`Reissue` recovery command or a `Promote`/`Replay`/
    /// `Forward` failover command with the response to send, and
    /// `Deadline` with `None` (the caller applies it to its endpoint).
    ///
    /// # Errors
    ///
    /// [`NetError::RemoteAbort`] for the driver's `Abort`,
    /// [`NetError::ProtocolViolation`] for a command out of turn (such
    /// as a stage out of plan order), and local compute or
    /// `check_plan` failures. The executor is unusable after an error.
    pub fn handle(&mut self, cmd: Command) -> Result<Option<Response>> {
        match cmd {
            Command::Deadline { .. } => Ok(None),
            Command::Promote { origin } => Ok(Some(self.promote(origin as usize))),
            Command::Replay { origin, round, cmd } => {
                self.replay(origin as usize, round, *cmd).map(Some)
            }
            Command::Forward { origin, cmd } => self.forward(origin as usize, *cmd).map(Some),
            cmd => self.execute(cmd).map(Some),
        }
    }

    /// Executes one command, `Resume`/`Reissue` included, against this
    /// executor's own state — for [`handle`](Self::handle) and for a
    /// replica host's personas.
    fn execute(&mut self, cmd: Command) -> Result<Response> {
        let cmd = match cmd {
            Command::Resume { .. } => {
                return Ok(Response::Resumed {
                    round: self.round,
                    fingerprint: self.fingerprint(),
                });
            }
            Command::Reissue { round, cmd: inner } => {
                if round == self.round {
                    // Already executed: resend the cached response.
                    return self.last_response.clone().ok_or_else(|| {
                        let got = format!("round {round} with no cached response");
                        violation("reissue", "a cached response for the reissued round", got)
                    });
                }
                if round != self.round + 1 {
                    let got = format!("round {round} at executor round {}", self.round);
                    return Err(violation("reissue", "the current or next round", got));
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
        let resp = self.step(cmd)?;
        if is_round {
            self.last_response = Some(resp.clone());
        }
        Ok(resp)
    }

    fn fingerprint(&self) -> u64 {
        state_fingerprint(
            self.round,
            self.report.uplink_bits,
            self.report.downlink_bits,
        )
    }

    /// The live persona answering for `origin`.
    fn persona(&mut self, origin: usize, context: &'static str) -> Result<&mut Self> {
        self.personas.get_mut(&origin).ok_or_else(|| {
            let got = format!("no persona for source {origin}");
            violation(context, "a promoted persona for the origin", got)
        })
    }

    /// Answers [`Command::Promote`]: (re)builds a fresh persona for
    /// `origin` from its cold replica shard. Idempotent by reset — a
    /// re-promotion after a driver crash starts the persona over, so
    /// the replay sequence reproduces the same state from any crash
    /// point. A host without the replica answers `Err` (the driver
    /// walks on to the next ring entry) but keeps serving its own
    /// shard.
    fn promote(&mut self, origin: usize) -> Response {
        match self.replicas.get(&origin) {
            Some(shard) => {
                let persona =
                    SourceExecutor::new(self.stages, self.params, origin, self.m, shard.clone());
                self.personas.insert(origin, persona);
                Response::Promoted {
                    origin: origin as u64,
                    round: 0,
                }
            }
            None => Response::Err {
                reason: format!(
                    "source {} holds no replica of source {origin}'s shard",
                    self.id
                ),
            },
        }
    }

    /// Answers [`Command::Replay`]: the persona re-runs one of the dead
    /// owner's completed rounds. The persona's response is swallowed —
    /// its bits are booked on the persona's own ledger, reproducing the
    /// owner's exactly — and only a `Replayed` position/fingerprint ack
    /// travels back.
    fn replay(&mut self, origin: usize, round: u64, cmd: Command) -> Result<Response> {
        let persona = self.persona(origin, "replay")?;
        if round == persona.round + 1 {
            persona.execute(cmd)?;
        } else if round != persona.round {
            let got = format!("round {round} at persona round {}", persona.round);
            return Err(violation(
                "replay",
                "the persona's current or next round",
                got,
            ));
        }
        Ok(Response::Replayed {
            origin: origin as u64,
            round: persona.round,
            fingerprint: persona.fingerprint(),
        })
    }

    /// Answers [`Command::Forward`]: the persona executes the carried
    /// live command and its response travels back wrapped in
    /// [`Response::Forwarded`]. A persona whose run finished is dropped
    /// — its ledger was already cross-checked by the driver's Fin
    /// handling.
    fn forward(&mut self, origin: usize, cmd: Command) -> Result<Response> {
        let persona = self.persona(origin, "forward")?;
        let resp = persona.execute(cmd)?;
        if persona.finished.is_some() {
            self.personas.remove(&origin);
        }
        Ok(Response::Forwarded {
            origin: origin as u64,
            resp: Box::new(resp),
        })
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

    /// Refuses a transmission once disSS moved the summary to the
    /// server.
    fn require_summary(&self, context: &'static str) -> Result<()> {
        if self.handed_off {
            let got = "a source whose summary disss moved to the server";
            return Err(violation(
                context,
                "a summary still held at the source",
                got,
            ));
        }
        Ok(())
    }

    fn require_no_pending(&self) -> Result<()> {
        if self.pending.is_some() {
            let expected = "a deliver payload for the pending phase";
            return Err(violation("executor step", expected, "a different command"));
        }
        Ok(())
    }

    /// Re-expresses the shard in the basis' parent space and drops the
    /// basis (what a stage that works on plain points does first).
    fn lift_out_of_basis(&mut self) -> Result<()> {
        if let Some(basis) = self.basis.take() {
            self.part = Cow::Owned(ops::matmul_transb(&self.part, &basis)?);
        }
        Ok(())
    }

    fn step(&mut self, cmd: Command) -> Result<Response> {
        match cmd {
            Command::Describe => Ok(self.done(0, 0.0)),
            Command::Stage { index } => {
                self.require_no_pending()?;
                // Stages run once each, in plan order — what lets both
                // ends read every plan fact off the stage's position.
                let (index, next) = (index as usize, self.stages_run);
                let Some(stage) = self.stages.get(next).filter(|_| index == next) else {
                    let got = format!("stage index {index} after {next} stages");
                    return Err(violation(
                        "stage command",
                        "the next stage of the plan",
                        got,
                    ));
                };
                check_plan(self.stages, self.params, self.m)?;
                self.stages_run += 1;
                self.run_stage(index, stage)
            }
            Command::Deliver { payload } => {
                let msg = payload.decode().map_err(CoreError::Net)?;
                self.report.downlink_bits += payload.bits();
                *self.report.downlink_kinds.entry(msg.kind()).or_insert(0) += payload.bits();
                self.deliver(msg)
            }
            Command::TransmitBasis => {
                self.require_no_pending()?;
                self.require_summary("transmit-basis")?;
                let basis = self.basis.clone().ok_or(CoreError::Protocol {
                    reason: "transmit-basis on a source holding no basis",
                })?;
                let msg = Message::Basis {
                    basis,
                    precision: self.params.precision,
                };
                Ok(self.up(&msg, 0, 0.0))
            }
            Command::Transmit => {
                self.require_no_pending()?;
                self.require_summary("transmit")?;
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
                self.finished = Some(self.report.clone());
                Ok(Response::Fin {
                    round: self.round,
                    uplink_bits: self.report.uplink_bits,
                    downlink_bits: self.report.downlink_bits,
                })
            }
            Command::Abort { reason } => Err(CoreError::Net(NetError::RemoteAbort { reason })),
            other => Err(violation("executor step", "a known command", other.name())),
        }
    }

    /// Runs stage `index`. A source-local stage (`jl`, `fss`, `stream`)
    /// goes through the stage cache when one is attached, keyed by the
    /// state it starts from; a stage that works on plain points
    /// ([`Stage::re_expands_basis`]) first lifts the shard out of its
    /// basis.
    fn run_stage(&mut self, index: usize, stage: &Stage) -> Result<Response> {
        let cacheable = matches!(stage, Stage::Dr(_) | Stage::Cr(_) | Stage::Stream(_));
        let cached =
            (self.cache.filter(|_| cacheable)).map(|cache| (cache, self.stage_key(index, stage)));
        if let Some((cache, key)) = cached {
            let hit = lock(cache).lookup(key);
            if let Some(snap) = hit {
                let (ops, seconds) = (snap.ops, snap.seconds);
                self.restore(snap);
                return Ok(self.done(ops, seconds));
            }
        }
        let t0 = Instant::now();
        if stage.re_expands_basis() {
            self.lift_out_of_basis()?;
        }
        let k = self.params.k;
        let ops = match stage {
            Stage::Dr(_) => self.apply_jl(index)?,
            Stage::Cr(_) => self.apply_fss()?,
            Stage::Stream(_) => self.apply_stream()?,
            Stage::Qt(cfg) => {
                self.quantizer = Some(resolve_quantizer(cfg, self.params)?);
                return Ok(self.done(0, 0.0));
            }
            Stage::DisPca(_) => {
                let cur = self.part.cols();
                let t = self.params.effective_pca_dim(cur);
                let (singular_values, v) = local_svd_summary(&self.part, t)?;
                let ops = complexity::svd(self.part.rows(), cur);
                let secs = t0.elapsed().as_secs_f64();
                let msg = Message::SvdSummary {
                    singular_values,
                    basis: v,
                    precision: self.params.precision,
                };
                self.pending = Some(PendingDeliver::DispcaBasis);
                return Ok(self.up(&msg, ops, secs));
            }
            Stage::DisSs(_) => {
                let seed = derive_seed(self.params.seed, seeds::FSS);
                let bic =
                    disss_local_bicriteria(&self.part, k, seed, self.id, self.params.compute)?;
                let ops = complexity::bicriteria(self.part.rows(), self.part.cols(), k);
                let secs = t0.elapsed().as_secs_f64();
                let cost = bic.cost;
                self.pending = Some(PendingDeliver::DisssAllocation { bic });
                return Ok(self.up(&Message::CostReport { cost }, ops, secs));
            }
        };
        let seconds = t0.elapsed().as_secs_f64();
        if let Some((cache, key)) = cached {
            let snap = self.snapshot(ops, seconds);
            lock(cache).store(key, snap);
        }
        Ok(self.done(ops, seconds))
    }

    /// DR stage `index`: the seeded JL projection of the shard (zero
    /// communication; the server regenerates the matrix from the shared
    /// seed to lift the centers back).
    fn apply_jl(&mut self, index: usize) -> Result<u64> {
        let cur = self.part.cols();
        let (stream, before_role) = jl_stream(self.stages, index);
        let target = jl_target_dim(self.params, cur, before_role);
        let pi = MaybeProjection::generate(
            self.params.jl_kind,
            cur,
            target,
            derive_seed(self.params.seed, stream),
        );
        let ops = complexity::matmul(self.part.rows(), cur, target);
        self.part = Cow::Owned(pi.project(&self.part)?);
        Ok(ops)
    }

    /// CR stage: the FSS coreset of a single source's shard —
    /// coordinates, weights and Δ, plus the basis to transmit.
    fn apply_fss(&mut self) -> Result<u64> {
        let k = self.params.k;
        let cur = self.part.cols();
        let ops = complexity::fss(self.part.rows(), cur, k);
        let fss = FssBuilder::new(k)
            .with_pca_dim(self.params.effective_pca_dim(cur))
            .with_sample_size(self.params.coreset_size)
            .with_seed(derive_seed(self.params.seed, seeds::FSS))
            .with_compute(self.params.compute)
            .build(&self.part)?;
        self.part = Cow::Owned(fss.coordinates().clone());
        self.weights = Some(fss.weights().to_vec());
        self.delta = fss.delta();
        self.basis = Some(fss.basis().clone());
        Ok(ops)
    }

    /// Streaming CR stage: the shard goes through a merge-and-reduce
    /// [`StreamingCoreset`] seeded from this source's own stream, with
    /// the global sample budget split evenly across the sources.
    fn apply_stream(&mut self) -> Result<u64> {
        let k = self.params.k;
        let (leaf, per_source) = stream_plan(self.params, self.m);
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
        Ok(ops)
    }

    /// Key of one cacheable execution of stage `index` on this source:
    /// the stage and the JL seed stream and role its position gives it,
    /// every parameter knob the source-local stages read, the source's
    /// id and the source count (`stream` seeds from the one and splits
    /// its budget by the other), and a fingerprint of the state the
    /// stage starts from. The armed quantizer is deliberately left out
    /// — no cacheable stage reads it, which is what lets compositions
    /// that differ only in QT width share a cached prefix.
    ///
    /// FNV-1a takes everything but the bulk data; the points, weights
    /// and basis go in as their shapes plus a [`digest_f64s`] of their
    /// bit patterns, so a key costs about one read of the state instead
    /// of one serial multiply per byte of it.
    fn stage_key(&self, index: usize, stage: &Stage) -> u64 {
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
        write_matrix_digest(&mut h, &self.part);
        match &self.weights {
            None => h.write_bool(false),
            Some(w) => {
                h.write_bool(true);
                h.write_u64(digest_f64s(w));
            }
        }
        h.write_u64(self.delta.to_bits());
        match &self.basis {
            None => h.write_bool(false),
            Some(b) => {
                h.write_bool(true);
                write_matrix_digest(&mut h, b);
            }
        }
        let (stream, before_role) = jl_stream(self.stages, index);
        h.write_u64(stream);
        h.write_bool(before_role);
        h.finish()
    }

    /// The state a cacheable stage just produced, for storage.
    fn snapshot(&self, ops: u64, seconds: f64) -> StageSnapshot {
        StageSnapshot {
            part: self.part.as_ref().clone(),
            weights: self.weights.clone(),
            delta: self.delta,
            basis: self.basis.clone(),
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
    }

    fn deliver(&mut self, msg: Message) -> Result<Response> {
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
                Ok(self.done(ops, t0.elapsed().as_secs_f64()))
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
                Ok(self.up(&msg, ops, secs))
            }
            (pending, msg) => {
                let expected = match pending {
                    Some(PendingDeliver::DispcaBasis) => "a basis broadcast",
                    Some(PendingDeliver::DisssAllocation { .. }) => "a sample allocation",
                    None => "no downlink payload",
                };
                Err(violation("deliver payload", expected, msg.kind()))
            }
        }
    }

    /// The final summary uplink: this source's coreset, its quantized
    /// points, or its raw points.
    fn transmit(&mut self) -> Result<Response> {
        let quantizer = self.quantizer;
        let aux = self.params.precision;
        let ops = if quantizer.is_some() {
            complexity::quantize(self.part.rows(), self.part.cols())
        } else {
            0
        };
        let t0 = Instant::now();
        // Transmission is the shard's last use: an owned summary moves
        // into its message (quantized in place), and only a still
        // borrowed shard pays the one copy the wire needs.
        let points =
            std::mem::replace(&mut self.part, Cow::Owned(Matrix::zeros(0, 0))).into_owned();
        let msg = match (self.weights.take(), quantizer) {
            (None, None) => Message::RawData { points },
            (weights, quantizer) => {
                let rows = points.rows();
                let (points, precision) = quantize_for_wire(points, quantizer.as_ref());
                let (weights, delta) = match weights {
                    Some(weights) => (weights, self.delta),
                    None => (vec![1.0; rows], 0.0),
                };
                Message::Coreset {
                    points,
                    weights,
                    delta,
                    precision,
                    weights_precision: aux,
                }
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        Ok(self.up(&msg, ops, secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flips bit `bit` of entry `i`.
    fn flip(vs: &mut [f64], i: usize, bit: u32) {
        vs[i] = f64::from_bits(vs[i].to_bits() ^ (1 << bit));
    }

    #[test]
    fn second_stage_keys_see_one_bit_of_weights_delta_and_basis() {
        // The `jl` after an `fss` starts from coordinates, weights, Δ and
        // a basis; set them directly and change one bit at a time.
        let stages = Stage::parse_list("fss,jl").unwrap();
        let params = SummaryParams::practical(2, 60, 8).with_seed(3);
        let shard = Matrix::from_fn(60, 8, |i, j| (i * 8 + j) as f64 * 0.25 - 7.0);
        let mut exec = SourceExecutor::new(&stages, &params, 0, 1, shard);
        exec.part = Cow::Owned(Matrix::from_fn(40, 3, |i, j| (i + 2 * j) as f64 * 0.5));
        exec.weights = Some((0..40).map(|i| 1.0 + i as f64 * 0.125).collect());
        exec.delta = 2.5;
        exec.basis = Some(Matrix::from_fn(8, 3, |i, j| (i as f64 - j as f64) * 0.1));
        let key = |e: &SourceExecutor<'_>| e.stage_key(1, &stages[1]);
        let base = key(&exec);
        assert_eq!(key(&exec), base, "a key is a function of the state");

        for bit in [0, 31, 51, 63] {
            let w = exec.weights.as_mut().unwrap();
            flip(w, 17, bit);
            assert_ne!(key(&exec), base, "weight bit {bit}");
            flip(exec.weights.as_mut().unwrap(), 17, bit);

            exec.delta = f64::from_bits(exec.delta.to_bits() ^ (1 << bit));
            assert_ne!(key(&exec), base, "delta bit {bit}");
            exec.delta = f64::from_bits(exec.delta.to_bits() ^ (1 << bit));

            flip(exec.basis.as_mut().unwrap().as_mut_slice(), 23, bit);
            assert_ne!(key(&exec), base, "basis bit {bit}");
            flip(exec.basis.as_mut().unwrap().as_mut_slice(), 23, bit);

            flip(exec.part.to_mut().as_mut_slice(), 0, bit);
            assert_ne!(key(&exec), base, "points bit {bit}");
            flip(exec.part.to_mut().as_mut_slice(), 0, bit);
        }
        assert_eq!(key(&exec), base, "every flip was undone");

        // A zero weight's sign.
        exec.weights.as_mut().unwrap()[5] = 0.0;
        let zero = key(&exec);
        exec.weights.as_mut().unwrap()[5] = -0.0;
        assert_ne!(key(&exec), zero, "the sign of a zero weight");
        exec.weights.as_mut().unwrap()[5] = 1.625;
        assert_eq!(key(&exec), base);

        // The same entries under another shape, and a present versus an
        // absent (or shorter) weight vector.
        let reshaped = |m: &Matrix, rows, cols| Matrix::from_vec(rows, cols, m.as_slice().to_vec());
        exec.part = Cow::Owned(reshaped(&exec.part, 20, 6));
        assert_ne!(key(&exec), base, "points reshaped");
        exec.part = Cow::Owned(reshaped(&exec.part, 40, 3));
        let basis = exec.basis.take().unwrap();
        exec.basis = Some(reshaped(&basis, 3, 8));
        assert_ne!(key(&exec), base, "basis reshaped");
        exec.basis = None;
        assert_ne!(key(&exec), base, "basis dropped");
        exec.basis = Some(basis);
        assert_eq!(key(&exec), base);
        let weights = exec.weights.take().unwrap();
        assert_ne!(key(&exec), base, "weights dropped");
        exec.weights = Some(weights[..39].to_vec());
        assert_ne!(key(&exec), base, "one weight fewer");
    }
}
