//! The server-driven protocol: the command/response frames of the
//! paper's deployment model, and the one execution model of every run.
//!
//! One **server driver** owns the stage plan and emits [`Command`]s;
//! each **source executor** holds *only its own shard*, answers with
//! [`Response`]s, and never observes another source's data.
//!
//! Two planes travel over one connection:
//!
//! * the **control plane** — stage advancement, shard-shape descriptions,
//!   per-phase op counts and timings, the final counter report. Control
//!   frames are *not* charged to the [`NetworkStats`]: they carry plan
//!   coordination the paper's model treats as shared configuration.
//! * the **data plane** — the exact [`Message`] encodings, wrapped as
//!   [`Payload`]s inside [`Command::Deliver`] (downlink) and
//!   [`Response::Up`] (uplink). Every payload is charged its exact
//!   encoded bit length under its message kind, so a run's
//!   `NetworkStats` is bit-identical on every backend by construction.
//!
//! Payloads stay *encoded* end to end — even the in-process channel
//! backend hands the receiver the encoded bytes to decode — so anything
//! lossy about the wire format (quantization, f32 auxiliaries) shapes
//! the computation identically on every backend.
//!
//! Backends:
//!
//! * [`channel_pairs`] — in-process mpsc channels, one executor thread
//!   per source (what `ekm run`, `ekm sweep` and the library entry
//!   points use);
//! * [`crate::event`] — a non-blocking `std::net` backend whose server
//!   multiplexes every source connection in one poll loop.

use crate::messages::Message;
use crate::network::NetworkStats;
use crate::{NetError, Result};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// The one fault-tolerance knob every backend obeys: how long any single
/// socket read/write may take (`io`) and how long the driver waits for a
/// source to answer a command round (`command`) before declaring the
/// source lost ([`Response::SourceLost`]).
///
/// Both the in-process channel backend and the event-driven TCP backend
/// derive their timeouts from this policy — so one knob
/// (`ekm serve --deadline-ms`) governs every transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Per-read/write socket deadline.
    pub io: Duration,
    /// Whole-command-round deadline: how long the driver waits for a
    /// source's response before treating the source as a straggler.
    pub command: Duration,
}

impl DeadlinePolicy {
    /// Default per-read/write socket deadline.
    pub const DEFAULT_IO: Duration = Duration::from_secs(120);

    /// Default command-round deadline (the former hard-coded
    /// [`CHANNEL_TIMEOUT`]).
    pub const DEFAULT_COMMAND: Duration = Duration::from_secs(600);

    /// A policy with both deadlines set to `d` (what `--deadline-ms`
    /// configures).
    pub fn uniform(d: Duration) -> DeadlinePolicy {
        DeadlinePolicy { io: d, command: d }
    }

    /// How long a *source* waits for its next command before concluding
    /// the server is gone. Between two commands to the same source the
    /// driver may legitimately stall several whole command deadlines —
    /// waiting out, then reissuing, every straggler in the round — so
    /// sources allow eight of them before giving up.
    pub fn idle(&self) -> Duration {
        self.command.saturating_mul(8)
    }

    /// Backoff between connection attempts while a source waits for the
    /// server to (re)bind: `io / 20`, clamped to `[1ms, 100ms]`. At the
    /// default policy this reproduces the former hard-coded 100ms sleep;
    /// a tightened `--deadline-ms` now proportionally tightens reconnect
    /// latency during `--resume` recovery instead of being ignored.
    pub fn retry_backoff(&self) -> Duration {
        (self.io / 20).clamp(Duration::from_millis(1), Duration::from_millis(100))
    }
}

impl Default for DeadlinePolicy {
    fn default() -> DeadlinePolicy {
        DeadlinePolicy {
            io: Self::DEFAULT_IO,
            command: Self::DEFAULT_COMMAND,
        }
    }
}

/// One data-plane message, kept in its exact wire encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Payload {
    bytes: Vec<u8>,
    bits: u64,
}

impl Payload {
    /// Encodes a message into a payload.
    pub fn of(msg: &Message) -> Payload {
        let (bytes, bits) = msg.encode();
        Payload {
            bytes,
            bits: bits as u64,
        }
    }

    /// Wraps already-encoded bytes (used by the frame decoders).
    pub(crate) fn from_encoded(bytes: Vec<u8>, bits: u64) -> Payload {
        Payload { bytes, bits }
    }

    /// Decodes the carried message.
    ///
    /// # Errors
    ///
    /// Wire-format decode failures.
    pub fn decode(&self) -> Result<Message> {
        Message::decode(&self.bytes, self.bits as usize)
    }

    /// Exact encoded bit length — what the transport charges.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The message kind, read from the leading tag byte without
    /// decoding the payload.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownMessageTag`] for unrecognized or empty
    /// payloads.
    pub fn kind(&self) -> Result<&'static str> {
        let tag = self
            .bytes
            .first()
            .copied()
            .ok_or(NetError::UnknownMessageTag { tag: 0 })?;
        Message::kind_of_tag(tag)
    }

    /// The leading wire tag byte (`0` for an empty payload) — what a
    /// tree-mode executor reports as its leaf kind without decoding.
    pub fn tag(&self) -> u8 {
        self.bytes.first().copied().unwrap_or(0)
    }

    fn encoded(&self) -> (&[u8], u64) {
        (&self.bytes, self.bits)
    }
}

/// A server → source protocol command.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Command {
    /// Report the shard's current shape (the first round of every run;
    /// the driver validates dimensional agreement from the answers).
    Describe,
    /// Run the source-local part of stage `index` of the shared plan.
    Stage {
        /// Index into the agreed stage list.
        index: u32,
    },
    /// A charged data-plane downlink payload (disPCA basis broadcast,
    /// disSS sample allocation).
    Deliver {
        /// The encoded message.
        payload: Payload,
    },
    /// Uplink the FSS basis (sent to the single source that owns one).
    TransmitBasis,
    /// Uplink the final summary (coreset or raw points).
    Transmit,
    /// End of run: the driver's totals, answered by a [`Response::Fin`]
    /// counter report.
    Finish {
        /// Total uplink bits the server charged.
        uplink_bits: u64,
        /// Total downlink bits the server charged.
        downlink_bits: u64,
        /// FNV-1a hash of the final centers' bit patterns.
        centers_hash: u64,
    },
    /// The driver failed; the executor should stop with an error.
    Abort {
        /// The driver-side failure.
        reason: String,
    },
    /// Fire-and-forget deadline announcement: the executor applies a
    /// uniform [`DeadlinePolicy`] of `ms` milliseconds to its endpoint.
    /// Not a round command — no response is sent.
    Deadline {
        /// Uniform deadline in milliseconds.
        ms: u64,
    },
    /// Recovery: re-deliver the response for round `round`. An executor
    /// already past the round answers from its cached last response; an
    /// executor one round behind executes `cmd` fresh.
    Reissue {
        /// The round the driver is missing a response for.
        round: u64,
        /// The original round command, re-executed if the executor never
        /// saw it.
        cmd: Box<Command>,
    },
    /// Recovery: a restarted driver asks the executor for its position.
    /// Answered by [`Response::Resumed`]; pending responses the executor
    /// already sent may arrive first.
    Resume {
        /// The last round the driver holds a journaled response for.
        round: u64,
    },
    /// Replica failover: the receiving host instantiates (or resets) a
    /// fresh executor persona for dead source `origin` from its cold
    /// replica shard, answered by [`Response::Promoted`]. Idempotent by
    /// reset — re-promoting after a driver crash rebuilds the persona
    /// from the shard again, so any crash point replays cleanly.
    Promote {
        /// The dead source whose shard the host must answer for.
        origin: u64,
    },
    /// Replica failover: re-run one of dead source `origin`'s completed
    /// round commands on the promoted persona to rebuild its state,
    /// answered by [`Response::Replayed`]. Mirrors [`Command::Reissue`]
    /// round semantics: a persona already past `round` acknowledges
    /// without re-executing, one exactly at `round − 1` executes fresh.
    Replay {
        /// The dead source being impersonated.
        origin: u64,
        /// The 1-based round the carried command completed originally.
        round: u64,
        /// The original round command, bit-identical to what the dead
        /// owner executed.
        cmd: Box<Command>,
    },
    /// Replica failover: a live command for absorbed source `origin`,
    /// delivered to its promoted host and executed by the persona. The
    /// carried command is charged exactly as if sent to `origin`
    /// directly; only the wrapper overhead is replica-plane cost.
    Forward {
        /// The absorbed source the carried command addresses.
        origin: u64,
        /// The command the persona executes.
        cmd: Box<Command>,
    },
    /// Tree-topology aggregation step, answered by [`Response::Merged`].
    /// With a `payload`, the executor folds the peer's encoded summary
    /// into its merge buffer; with `emit` set, it surrenders its buffer
    /// in the response (`last` marks the root delivery — the single
    /// server-side fold input). Peer summaries are routed through the
    /// server in v1, so the relay traffic is charged here and on the
    /// matching response, never to the star-equivalent classic ledgers.
    MergeWith {
        /// Which gather the merge belongs to (1 = disPCA summaries,
        /// 2 = disSS coresets, 3 = final transmit).
        gather: u8,
        /// Reduction-tree level, 0-based; the root emit uses the level
        /// one past the last merge level.
        level: u64,
        /// Number of summary holders still active entering this level.
        active: u64,
        /// A peer's encoded summary to fold into the local buffer.
        payload: Option<Payload>,
        /// Whether to surrender the merge buffer in the response.
        emit: bool,
        /// Whether the emitted buffer is the folded root bound for the
        /// server.
        last: bool,
    },
}

/// A source → server protocol response.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// A local phase finished; control-plane metadata only.
    Done {
        /// The executor's round counter after this command (1-based).
        round: u64,
        /// Shard rows after the phase.
        rows: u64,
        /// Shard columns after the phase.
        cols: u64,
        /// Deterministic operation count of the phase.
        ops: u64,
        /// Wall-clock seconds of the phase.
        seconds: f64,
    },
    /// A charged data-plane uplink payload plus the phase metadata.
    Up {
        /// The executor's round counter after this command (1-based).
        round: u64,
        /// The encoded message.
        payload: Payload,
        /// Deterministic operation count of the phase.
        ops: u64,
        /// Wall-clock seconds of the phase.
        seconds: f64,
    },
    /// Counter report answering [`Command::Finish`].
    Fin {
        /// The executor's round counter after this command (1-based).
        round: u64,
        /// Uplink bits this source observed itself sending.
        uplink_bits: u64,
        /// Downlink bits this source observed itself receiving.
        downlink_bits: u64,
    },
    /// The executor failed; carries the failure for the driver.
    Err {
        /// The executor-side failure.
        reason: String,
    },
    /// Answers [`Command::Resume`]: where the executor stands.
    Resumed {
        /// The executor's current round counter.
        round: u64,
        /// FNV-1a fingerprint over (round, uplink bits, downlink bits)
        /// of the executor's own ledger, cross-checked by the resumed
        /// driver against its journal-replayed counters.
        fingerprint: u64,
    },
    /// Synthesized by the *server-side* transport when a source
    /// disconnects or misses its command deadline — never sent on the
    /// wire by an executor. Typed so the driver can degrade instead of
    /// abort.
    SourceLost {
        /// What happened (disconnect vs deadline).
        reason: String,
    },
    /// Answers [`Command::Promote`]: the persona for `origin` exists
    /// and stands at `round` (always `0` — promotion resets it).
    Promoted {
        /// The absorbed source the host now answers for.
        origin: u64,
        /// The fresh persona's round counter.
        round: u64,
    },
    /// Answers [`Command::Replay`]: the persona finished rebuilding
    /// round `round` of dead source `origin`.
    Replayed {
        /// The absorbed source being impersonated.
        origin: u64,
        /// The persona's round counter after the replay.
        round: u64,
        /// The persona's own ledger fingerprint (same FNV-1a as
        /// [`Response::Resumed`]) — after the final replay the driver
        /// cross-checks it against the dead owner's journaled ledger.
        fingerprint: u64,
    },
    /// Answers [`Command::Forward`]: the persona's response for the
    /// carried command, charged exactly as if `origin` sent it.
    Forwarded {
        /// The absorbed source the carried response answers for.
        origin: u64,
        /// The persona's response.
        resp: Box<Response>,
    },
    /// Answers [`Command::MergeWith`]: an optional surrendered merge
    /// buffer plus the source's one-time leaf accounting.
    Merged {
        /// The executor's round counter after this command (1-based).
        round: u64,
        /// The surrendered merge buffer (present iff the command set
        /// `emit`).
        payload: Option<Payload>,
        /// On the source's *first* `Merged` only: the encoded bit
        /// length of its own buffered leaf summary, charged to the
        /// classic uplink ledger under `leaf_tag`'s kind — which keeps
        /// every per-source counter and the run digest identical to
        /// the star topology. Zero afterwards.
        leaf_bits: u64,
        /// Wire tag of the leaf summary (`0` when `leaf_bits == 0`).
        leaf_tag: u8,
        /// Whether `payload` is the folded root (charged as the
        /// server's single fold input rather than relay traffic).
        last: bool,
    },
}

const CMD_DESCRIBE: u8 = 1;
const CMD_STAGE: u8 = 2;
const CMD_DELIVER: u8 = 3;
const CMD_TRANSMIT_BASIS: u8 = 4;
const CMD_TRANSMIT: u8 = 5;
const CMD_FINISH: u8 = 6;
const CMD_ABORT: u8 = 7;
const CMD_DEADLINE: u8 = 8;
const CMD_REISSUE: u8 = 9;
const CMD_RESUME: u8 = 10;
const CMD_MERGE_WITH: u8 = 11;
const CMD_PROMOTE: u8 = 12;
const CMD_REPLAY: u8 = 13;
const CMD_FORWARD: u8 = 14;

const RESP_DONE: u8 = 1;
const RESP_UP: u8 = 2;
const RESP_FIN: u8 = 3;
const RESP_ERR: u8 = 4;
const RESP_RESUMED: u8 = 5;
const RESP_SOURCE_LOST: u8 = 6;
const RESP_MERGED: u8 = 7;
const RESP_PROMOTED: u8 = 8;
const RESP_REPLAYED: u8 = 9;
const RESP_FORWARDED: u8 = 10;

/// The wrapper a command frame is nested in while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wrapping {
    /// The outermost frame.
    None,
    /// Inside a [`Command::Forward`]: a reissue or replay may follow.
    Forward,
    /// Inside a [`Command::Reissue`] or [`Command::Replay`]: only a
    /// plain command may follow.
    Retry,
}

/// Encoded overhead of a [`Command::Forward`] / [`Response::Forwarded`]
/// wrapper around its carried frame (tag + origin + length prefix),
/// charged to the replica-plane ledger.
pub const FORWARD_OVERHEAD_BITS: u64 = (1 + 8 + 8) * 8;

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn push_payload(buf: &mut Vec<u8>, payload: &Payload) {
    let (bytes, bits) = payload.encoded();
    push_u64(buf, bits);
    buf.extend_from_slice(bytes);
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context,
        }
    }

    fn short(&self) -> NetError {
        NetError::Transport {
            context: self.context,
            detail: format!("truncated frame ({} bytes)", self.buf.len()),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        let v = *self.buf.get(self.pos).ok_or_else(|| self.short())?;
        self.pos += 1;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64> {
        let end = self.pos.checked_add(8).ok_or_else(|| self.short())?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(u64::from_be_bytes(slice.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(len).ok_or_else(|| self.short())?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(slice)
    }

    /// A length-prefixed inner frame, borrowed from the outer one.
    fn frame(&mut self) -> Result<&'a [u8]> {
        let len = self.u64()?;
        self.bytes(usize::try_from(len).map_err(|_| self.short())?)
    }

    fn payload(&mut self) -> Result<Payload> {
        let bits = self.u64()?;
        let bytes = self.bytes((bits as usize).div_ceil(8))?;
        Ok(Payload::from_encoded(bytes.to_vec(), bits))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u64()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).map_err(|_| NetError::Transport {
            context: self.context,
            detail: "non-utf8 reason string".to_string(),
        })
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(NetError::Transport {
                context: self.context,
                detail: format!(
                    "{} trailing bytes after a complete frame",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

impl Command {
    /// The frame name, for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Describe => "describe",
            Command::Stage { .. } => "stage",
            Command::Deliver { .. } => "deliver",
            Command::TransmitBasis => "transmit-basis",
            Command::Transmit => "transmit",
            Command::Finish { .. } => "finish",
            Command::Abort { .. } => "abort",
            Command::Deadline { .. } => "deadline",
            Command::Reissue { .. } => "reissue",
            Command::Resume { .. } => "resume",
            Command::Promote { .. } => "promote",
            Command::Replay { .. } => "replay",
            Command::Forward { .. } => "forward",
            Command::MergeWith { .. } => "merge-with",
        }
    }

    /// `true` for the commands that advance the executor's round counter
    /// and expect exactly one response (everything except `Abort` and
    /// the fault-tolerance vocabulary). A [`Command::Forward`] wrapper
    /// is itself not a round — the carried command's round-ness belongs
    /// to the absorbed origin and is accounted above the routing layer.
    pub fn is_round(&self) -> bool {
        !matches!(
            self,
            Command::Abort { .. }
                | Command::Deadline { .. }
                | Command::Reissue { .. }
                | Command::Resume { .. }
                | Command::Promote { .. }
                | Command::Replay { .. }
                | Command::Forward { .. }
        )
    }

    /// Encodes the command for a socket frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Command::Describe => buf.push(CMD_DESCRIBE),
            Command::Stage { index } => {
                buf.push(CMD_STAGE);
                push_u64(&mut buf, *index as u64);
            }
            Command::Deliver { payload } => {
                buf.push(CMD_DELIVER);
                push_payload(&mut buf, payload);
            }
            Command::TransmitBasis => buf.push(CMD_TRANSMIT_BASIS),
            Command::Transmit => buf.push(CMD_TRANSMIT),
            Command::Finish {
                uplink_bits,
                downlink_bits,
                centers_hash,
            } => {
                buf.push(CMD_FINISH);
                push_u64(&mut buf, *uplink_bits);
                push_u64(&mut buf, *downlink_bits);
                push_u64(&mut buf, *centers_hash);
            }
            Command::Abort { reason } => {
                buf.push(CMD_ABORT);
                push_str(&mut buf, reason);
            }
            Command::Deadline { ms } => {
                buf.push(CMD_DEADLINE);
                push_u64(&mut buf, *ms);
            }
            Command::Reissue { round, cmd } => {
                buf.push(CMD_REISSUE);
                push_u64(&mut buf, *round);
                let inner = cmd.encode();
                push_u64(&mut buf, inner.len() as u64);
                buf.extend_from_slice(&inner);
            }
            Command::Resume { round } => {
                buf.push(CMD_RESUME);
                push_u64(&mut buf, *round);
            }
            Command::Promote { origin } => {
                buf.push(CMD_PROMOTE);
                push_u64(&mut buf, *origin);
            }
            Command::Replay { origin, round, cmd } => {
                buf.push(CMD_REPLAY);
                push_u64(&mut buf, *origin);
                push_u64(&mut buf, *round);
                let inner = cmd.encode();
                push_u64(&mut buf, inner.len() as u64);
                buf.extend_from_slice(&inner);
            }
            Command::Forward { origin, cmd } => {
                buf.push(CMD_FORWARD);
                push_u64(&mut buf, *origin);
                let inner = cmd.encode();
                push_u64(&mut buf, inner.len() as u64);
                buf.extend_from_slice(&inner);
            }
            Command::MergeWith {
                gather,
                level,
                active,
                payload,
                emit,
                last,
            } => {
                buf.push(CMD_MERGE_WITH);
                buf.push(*gather);
                push_u64(&mut buf, *level);
                push_u64(&mut buf, *active);
                let flags =
                    u8::from(payload.is_some()) | (u8::from(*emit) << 1) | (u8::from(*last) << 2);
                buf.push(flags);
                if let Some(p) = payload {
                    push_payload(&mut buf, p);
                }
            }
        }
        buf
    }

    /// Decodes a command frame.
    ///
    /// Wrappers nest only as the driver, the journal and the routing
    /// layer emit them: at most one [`Command::Forward`] around at most
    /// one [`Command::Reissue`] or [`Command::Replay`]. Decoding stops at
    /// the first wrapper outside that grammar, so a hostile frame cannot
    /// drive the decoder deeper than three levels.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] on truncated or trailing bytes,
    /// [`NetError::ProtocolViolation`] on an unknown tag, a stage index
    /// above `u32::MAX`, or wrappers nested outside the grammar.
    pub fn decode(buf: &[u8]) -> Result<Command> {
        Command::decode_in(buf, Wrapping::None)
    }

    fn decode_in(buf: &[u8], outer: Wrapping) -> Result<Command> {
        let mut r = ByteReader::new(buf, "command decode");
        let tag = r.u8()?;
        let nested_too_deep = match tag {
            CMD_FORWARD => outer != Wrapping::None,
            CMD_REISSUE | CMD_REPLAY => outer == Wrapping::Retry,
            _ => false,
        };
        if nested_too_deep {
            return Err(NetError::ProtocolViolation {
                context: "command decode",
                expected: "at most one forward around one reissue or replay",
                got: format!("tag {tag} nested inside a wrapper"),
            });
        }
        let cmd = match tag {
            CMD_DESCRIBE => Command::Describe,
            CMD_STAGE => {
                let index = r.u64()?;
                Command::Stage {
                    index: u32::try_from(index).map_err(|_| NetError::ProtocolViolation {
                        context: "command decode",
                        expected: "a stage index of at most u32::MAX",
                        got: format!("stage index {index}"),
                    })?,
                }
            }
            CMD_DELIVER => Command::Deliver {
                payload: r.payload()?,
            },
            CMD_TRANSMIT_BASIS => Command::TransmitBasis,
            CMD_TRANSMIT => Command::Transmit,
            CMD_FINISH => Command::Finish {
                uplink_bits: r.u64()?,
                downlink_bits: r.u64()?,
                centers_hash: r.u64()?,
            },
            CMD_ABORT => Command::Abort {
                reason: r.string()?,
            },
            CMD_DEADLINE => Command::Deadline { ms: r.u64()? },
            CMD_REISSUE => Command::Reissue {
                round: r.u64()?,
                cmd: Box::new(Command::decode_in(r.frame()?, Wrapping::Retry)?),
            },
            CMD_RESUME => Command::Resume { round: r.u64()? },
            CMD_PROMOTE => Command::Promote { origin: r.u64()? },
            CMD_REPLAY => Command::Replay {
                origin: r.u64()?,
                round: r.u64()?,
                cmd: Box::new(Command::decode_in(r.frame()?, Wrapping::Retry)?),
            },
            CMD_FORWARD => Command::Forward {
                origin: r.u64()?,
                cmd: Box::new(Command::decode_in(r.frame()?, Wrapping::Forward)?),
            },
            CMD_MERGE_WITH => {
                let gather = r.u8()?;
                let level = r.u64()?;
                let active = r.u64()?;
                let flags = r.u8()?;
                let payload = if flags & 1 != 0 {
                    Some(r.payload()?)
                } else {
                    None
                };
                Command::MergeWith {
                    gather,
                    level,
                    active,
                    payload,
                    emit: flags & 2 != 0,
                    last: flags & 4 != 0,
                }
            }
            other => {
                return Err(NetError::ProtocolViolation {
                    context: "command decode",
                    expected: "a command tag",
                    got: format!("tag {other}"),
                })
            }
        };
        r.finish()?;
        Ok(cmd)
    }
}

impl Response {
    /// The frame name, for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Response::Done { .. } => "done",
            Response::Up { .. } => "up",
            Response::Fin { .. } => "fin",
            Response::Err { .. } => "err",
            Response::Resumed { .. } => "resumed",
            Response::SourceLost { .. } => "source-lost",
            Response::Promoted { .. } => "promoted",
            Response::Replayed { .. } => "replayed",
            Response::Forwarded { .. } => "forwarded",
            Response::Merged { .. } => "merged",
        }
    }

    /// The round counter a [`Response::Done`]/[`Up`](Response::Up)/
    /// [`Fin`](Response::Fin)/[`Merged`](Response::Merged) carries;
    /// `None` for the others.
    pub fn round(&self) -> Option<u64> {
        match self {
            Response::Done { round, .. }
            | Response::Up { round, .. }
            | Response::Fin { round, .. }
            | Response::Merged { round, .. } => Some(*round),
            _ => None,
        }
    }

    /// Encodes the response for a socket frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Done {
                round,
                rows,
                cols,
                ops,
                seconds,
            } => {
                buf.push(RESP_DONE);
                push_u64(&mut buf, *round);
                push_u64(&mut buf, *rows);
                push_u64(&mut buf, *cols);
                push_u64(&mut buf, *ops);
                push_u64(&mut buf, seconds.to_bits());
            }
            Response::Up {
                round,
                payload,
                ops,
                seconds,
            } => {
                buf.push(RESP_UP);
                push_u64(&mut buf, *round);
                push_u64(&mut buf, *ops);
                push_u64(&mut buf, seconds.to_bits());
                push_payload(&mut buf, payload);
            }
            Response::Fin {
                round,
                uplink_bits,
                downlink_bits,
            } => {
                buf.push(RESP_FIN);
                push_u64(&mut buf, *round);
                push_u64(&mut buf, *uplink_bits);
                push_u64(&mut buf, *downlink_bits);
            }
            Response::Err { reason } => {
                buf.push(RESP_ERR);
                push_str(&mut buf, reason);
            }
            Response::Resumed { round, fingerprint } => {
                buf.push(RESP_RESUMED);
                push_u64(&mut buf, *round);
                push_u64(&mut buf, *fingerprint);
            }
            Response::SourceLost { reason } => {
                buf.push(RESP_SOURCE_LOST);
                push_str(&mut buf, reason);
            }
            Response::Promoted { origin, round } => {
                buf.push(RESP_PROMOTED);
                push_u64(&mut buf, *origin);
                push_u64(&mut buf, *round);
            }
            Response::Replayed {
                origin,
                round,
                fingerprint,
            } => {
                buf.push(RESP_REPLAYED);
                push_u64(&mut buf, *origin);
                push_u64(&mut buf, *round);
                push_u64(&mut buf, *fingerprint);
            }
            Response::Forwarded { origin, resp } => {
                buf.push(RESP_FORWARDED);
                push_u64(&mut buf, *origin);
                let inner = resp.encode();
                push_u64(&mut buf, inner.len() as u64);
                buf.extend_from_slice(&inner);
            }
            Response::Merged {
                round,
                payload,
                leaf_bits,
                leaf_tag,
                last,
            } => {
                buf.push(RESP_MERGED);
                push_u64(&mut buf, *round);
                push_u64(&mut buf, *leaf_bits);
                buf.push(*leaf_tag);
                let flags = u8::from(payload.is_some()) | (u8::from(*last) << 1);
                buf.push(flags);
                if let Some(p) = payload {
                    push_payload(&mut buf, p);
                }
            }
        }
        buf
    }

    /// Decodes a response frame. A [`Response::Forwarded`] carries one
    /// plain response, never another wrapper.
    ///
    /// # Errors
    ///
    /// See [`Command::decode`].
    pub fn decode(buf: &[u8]) -> Result<Response> {
        Response::decode_in(buf, false)
    }

    fn decode_in(buf: &[u8], forwarded: bool) -> Result<Response> {
        let mut r = ByteReader::new(buf, "response decode");
        let tag = r.u8()?;
        if forwarded && tag == RESP_FORWARDED {
            return Err(NetError::ProtocolViolation {
                context: "response decode",
                expected: "one forwarded wrapper around a plain response",
                got: "a forwarded response nested inside another".to_string(),
            });
        }
        let resp = match tag {
            RESP_DONE => Response::Done {
                round: r.u64()?,
                rows: r.u64()?,
                cols: r.u64()?,
                ops: r.u64()?,
                seconds: r.f64()?,
            },
            RESP_UP => Response::Up {
                round: r.u64()?,
                ops: r.u64()?,
                seconds: r.f64()?,
                payload: r.payload()?,
            },
            RESP_FIN => Response::Fin {
                round: r.u64()?,
                uplink_bits: r.u64()?,
                downlink_bits: r.u64()?,
            },
            RESP_ERR => Response::Err {
                reason: r.string()?,
            },
            RESP_RESUMED => Response::Resumed {
                round: r.u64()?,
                fingerprint: r.u64()?,
            },
            RESP_SOURCE_LOST => Response::SourceLost {
                reason: r.string()?,
            },
            RESP_PROMOTED => Response::Promoted {
                origin: r.u64()?,
                round: r.u64()?,
            },
            RESP_REPLAYED => Response::Replayed {
                origin: r.u64()?,
                round: r.u64()?,
                fingerprint: r.u64()?,
            },
            RESP_FORWARDED => Response::Forwarded {
                origin: r.u64()?,
                resp: Box::new(Response::decode_in(r.frame()?, true)?),
            },
            RESP_MERGED => {
                let round = r.u64()?;
                let leaf_bits = r.u64()?;
                let leaf_tag = r.u8()?;
                let flags = r.u8()?;
                let payload = if flags & 1 != 0 {
                    Some(r.payload()?)
                } else {
                    None
                };
                Response::Merged {
                    round,
                    payload,
                    leaf_bits,
                    leaf_tag,
                    last: flags & 2 != 0,
                }
            }
            other => {
                return Err(NetError::ProtocolViolation {
                    context: "response decode",
                    expected: "a response tag",
                    got: format!("tag {other}"),
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// A [`Command`] encoded exactly once: the driver builds one of these
/// for a broadcast round and hands the *same* pre-framed bytes to every
/// source, instead of re-running the bit-packing encoder per recipient.
///
/// The original command rides along because every layer above the wire
/// still needs it — statistics charging inspects the variant, `RoundNet`
/// pushes it into replay history, the journal records its bytes, and
/// non-socket backends simply deliver it (their
/// [`CommandTransport::send_encoded`] default ignores the frame).
#[derive(Debug, Clone)]
pub struct EncodedCommand {
    cmd: Command,
    frame: crate::frame::FrameBuf,
}

impl EncodedCommand {
    /// Encodes `cmd` once into a reusable [`crate::frame::FrameBuf`]
    /// under [`crate::frame::FRAME_CMD`].
    pub fn new(cmd: Command) -> EncodedCommand {
        let bytes = cmd.encode();
        let frame = crate::frame::FrameBuf::new(crate::frame::FRAME_CMD, &bytes, bytes.len() * 8)
            .expect("command encodings are always consistent and under the frame cap");
        EncodedCommand { cmd, frame }
    }

    /// The command itself.
    pub fn command(&self) -> &Command {
        &self.cmd
    }

    /// The complete wire frame (header + encoded command).
    pub fn frame_bytes(&self) -> &[u8] {
        self.frame.bytes()
    }

    /// The encoded command bytes alone — byte-identical to
    /// `self.command().encode()`, without re-encoding.
    pub fn encoded(&self) -> &[u8] {
        self.frame.payload()
    }
}

/// The server side of a protocol run: one connection (or channel) per
/// source, exact [`NetworkStats`] accounting of the data plane.
///
/// Implementations must charge [`Command::Deliver`] payloads to the
/// downlink and [`Response::Up`] payloads to the uplink as the frames
/// pass through ([`charge_command`] / [`charge_response`] do exactly
/// that), so the driver never touches the counters itself.
pub trait CommandTransport {
    /// Number of sources.
    fn sources(&self) -> usize;

    /// Sends `cmd` to source `source`.
    ///
    /// # Errors
    ///
    /// Transport failures (a disconnected source surfaces here as a
    /// typed [`NetError::Transport`], never a hang).
    fn send(&mut self, source: usize, cmd: &Command) -> Result<()>;

    /// Sends a pre-encoded command, sharing one encoding across a
    /// fan-out. Must be observationally identical to
    /// `send(source, enc.command())` — same charging, same wire bytes —
    /// which is exactly what this default does; socket backends
    /// override it to write the shared frame without re-encoding.
    ///
    /// # Errors
    ///
    /// See [`CommandTransport::send`].
    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<()> {
        self.send(source, enc.command())
    }

    /// Receives the next response from source `source`. Backends may
    /// harvest other sources' responses in arrival order while waiting.
    ///
    /// # Errors
    ///
    /// Transport failures and decode failures.
    fn recv(&mut self, source: usize) -> Result<Response>;

    /// Read access to the accumulated data-plane statistics.
    fn stats(&self) -> &NetworkStats;

    /// Applies a deadline policy to the transport. Backends without
    /// timeouts (or with fixed ones) may ignore it.
    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        let _ = policy;
    }

    /// Arms replica failover: dead source `origin`'s traffic is
    /// henceforth answered by `host`'s promoted persona. Layered
    /// transports propagate the call downward (journaling it, arming
    /// the routing table); plain backends reject it — failover requires
    /// a [`crate::routing::RoutingTransport`] in the stack.
    ///
    /// # Errors
    ///
    /// [`NetError::ProtocolViolation`] when the transport cannot route,
    /// transport failures when the host is unreachable.
    fn promote(&mut self, origin: usize, host: usize) -> Result<()> {
        let _ = host;
        Err(NetError::ProtocolViolation {
            context: "promote",
            expected: "a routing-capable transport in the stack",
            got: format!("a transport that cannot re-home source {origin}"),
        })
    }

    /// True while the transport is replaying a journaled prefix: no
    /// wire I/O happens, so the driver must skip the live promotion
    /// handshake (the journal re-fires it during reconciliation).
    fn replaying(&self) -> bool {
        false
    }
}

/// The source side of a protocol run.
pub trait SourceEndpoint {
    /// Blocks for the next command from the server.
    ///
    /// # Errors
    ///
    /// Transport failures (a vanished server surfaces as a typed
    /// [`NetError::Transport`]).
    fn recv_command(&mut self) -> Result<Command>;

    /// Sends a response to the server.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn send_response(&mut self, resp: Response) -> Result<()>;

    /// Applies a deadline policy to the endpoint (what
    /// [`Command::Deadline`] carries). Backends without timeouts may
    /// ignore it.
    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        let _ = policy;
    }
}

/// Charges a command's data-plane payload (if any) to the downlink.
///
/// A [`Command::MergeWith`] records its tree level and charges a carried
/// peer summary to the *relay* ledger — physical merge traffic stays off
/// the classic downlink counters, which remain bit-identical to the star
/// topology by construction.
///
/// # Errors
///
/// [`NetError::UnknownMessageTag`] for a malformed payload.
pub fn charge_command(stats: &mut NetworkStats, source: usize, cmd: &Command) -> Result<()> {
    match cmd {
        Command::Deliver { payload } => {
            payload.kind()?; // malformed payloads are rejected before charging
            stats.charge_downlink(source, payload.bits() as usize);
        }
        // The replica plane: a promotion, a replayed round, and a
        // forward wrapper's overhead all stay off the classic ledgers
        // (which must remain bit-identical to a never-failed twin); the
        // carried command of a `Forward` is charged exactly as if it
        // went to the absorbed origin directly.
        Command::Promote { .. } => {
            stats.charge_promotion((cmd.encode().len() * 8) as u64);
        }
        Command::Replay { .. } => {
            stats.charge_replay((cmd.encode().len() * 8) as u64);
        }
        Command::Forward { origin, cmd } => {
            charge_command(stats, *origin as usize, cmd)?;
            stats.charge_replica_bits(FORWARD_OVERHEAD_BITS);
        }
        Command::MergeWith {
            gather,
            level,
            active,
            payload,
            ..
        } => {
            stats.note_merge_level(*gather, *level, *active);
            if let Some(p) = payload {
                p.kind()?;
                stats.charge_relay(source, p.bits());
            }
        }
        _ => {}
    }
    Ok(())
}

/// Charges a response's data-plane payload (if any) to the uplink.
///
/// A [`Response::Merged`] charges the source's one-time `leaf_bits` to
/// the classic uplink ledger under the leaf's own kind (so per-source
/// counters and the run digest match the star topology exactly), and
/// books a surrendered buffer as relay traffic — or, for the folded
/// root, as the server's single fold input.
///
/// # Errors
///
/// [`NetError::UnknownMessageTag`] for a malformed payload or leaf tag.
pub fn charge_response(stats: &mut NetworkStats, source: usize, resp: &Response) -> Result<()> {
    match resp {
        Response::Up { payload, .. } => {
            let kind = payload.kind()?;
            stats.charge_uplink(source, payload.bits() as usize, kind);
        }
        // The replica plane mirrors `charge_command`: acknowledgements
        // are pure recovery overhead, a forwarded response is charged
        // as if the absorbed origin sent it itself.
        Response::Promoted { .. } | Response::Replayed { .. } => {
            stats.charge_replica_bits((resp.encode().len() * 8) as u64);
        }
        Response::Forwarded { origin, resp } => {
            charge_response(stats, *origin as usize, resp)?;
            stats.charge_replica_bits(FORWARD_OVERHEAD_BITS);
        }
        Response::Merged {
            payload,
            leaf_bits,
            leaf_tag,
            last,
            ..
        } => {
            if *leaf_bits > 0 {
                let kind = Message::kind_of_tag(*leaf_tag)?;
                stats.charge_uplink(source, *leaf_bits as usize, kind);
            }
            if let Some(p) = payload {
                p.kind()?;
                if *last {
                    stats.charge_server_fold(p.bits());
                } else {
                    stats.charge_relay(source, p.bits());
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// How long a channel-backend receive waits before declaring the peer
/// gone (an executor thread that panicked drops its endpoint, which
/// surfaces immediately; the timeout only guards genuine wedges).
/// Alias of [`DeadlinePolicy::DEFAULT_COMMAND`].
pub const CHANNEL_TIMEOUT: Duration = DeadlinePolicy::DEFAULT_COMMAND;

/// The server half of the in-process channel backend.
#[derive(Debug)]
pub struct ChannelHub {
    to_sources: Vec<Sender<Command>>,
    from_sources: Vec<Receiver<Response>>,
    stats: NetworkStats,
    deadline: DeadlinePolicy,
}

/// The source half of the in-process channel backend.
#[derive(Debug)]
pub struct ChannelEndpoint {
    commands: Receiver<Command>,
    responses: Sender<Response>,
    deadline: DeadlinePolicy,
}

/// Builds the in-process channel backend for `m` sources: one
/// [`ChannelHub`] for the driver thread and one [`ChannelEndpoint`] per
/// executor thread.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn channel_pairs(m: usize) -> (ChannelHub, Vec<ChannelEndpoint>) {
    assert!(m > 0, "protocol needs at least one source");
    let mut to_sources = Vec::with_capacity(m);
    let mut from_sources = Vec::with_capacity(m);
    let mut endpoints = Vec::with_capacity(m);
    for _ in 0..m {
        let (cmd_tx, cmd_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        to_sources.push(cmd_tx);
        from_sources.push(resp_rx);
        endpoints.push(ChannelEndpoint {
            commands: cmd_rx,
            responses: resp_tx,
            deadline: DeadlinePolicy::default(),
        });
    }
    (
        ChannelHub {
            to_sources,
            from_sources,
            stats: NetworkStats::new(m),
            deadline: DeadlinePolicy::default(),
        },
        endpoints,
    )
}

impl ChannelHub {
    fn check(&self, source: usize) -> Result<()> {
        if source >= self.to_sources.len() {
            return Err(NetError::UnknownSource {
                source,
                sources: self.to_sources.len(),
            });
        }
        Ok(())
    }
}

impl CommandTransport for ChannelHub {
    fn sources(&self) -> usize {
        self.to_sources.len()
    }

    fn send(&mut self, source: usize, cmd: &Command) -> Result<()> {
        self.check(source)?;
        charge_command(&mut self.stats, source, cmd)?;
        self.to_sources[source]
            .send(cmd.clone())
            .map_err(|_| NetError::Transport {
                context: "channel send",
                detail: format!("source {source} hung up"),
            })
    }

    fn recv(&mut self, source: usize) -> Result<Response> {
        self.check(source)?;
        let resp = match self.from_sources[source].recv_timeout(self.deadline.command) {
            Ok(resp) => resp,
            // A vanished or stalled executor is a *typed* loss the driver
            // can degrade around, not a transport error.
            Err(RecvTimeoutError::Timeout) => {
                return Ok(Response::SourceLost {
                    reason: format!(
                        "source {source} missed the {:?} command deadline",
                        self.deadline.command
                    ),
                })
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Ok(Response::SourceLost {
                    reason: format!("source {source} disconnected"),
                })
            }
        };
        charge_response(&mut self.stats, source, &resp)?;
        Ok(resp)
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.deadline = policy;
    }
}

impl SourceEndpoint for ChannelEndpoint {
    fn recv_command(&mut self) -> Result<Command> {
        self.commands
            .recv_timeout(self.deadline.idle())
            .map_err(|e| NetError::Transport {
                context: "channel recv_command",
                detail: format!("server: {e}"),
            })
    }

    fn send_response(&mut self, resp: Response) -> Result<()> {
        self.responses.send(resp).map_err(|_| NetError::Transport {
            context: "channel send_response",
            detail: "server hung up".to_string(),
        })
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.deadline = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_linalg::Matrix;

    fn payload() -> Payload {
        Payload::of(&Message::Coreset {
            points: Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.5),
            weights: vec![1.0, 2.0, 3.0],
            delta: 0.25,
            precision: crate::wire::Precision::Full,
            weights_precision: crate::wire::Precision::Full,
        })
    }

    #[test]
    fn payload_preserves_exact_encoding() {
        let msg = Message::CostReport { cost: 1.5 };
        let p = Payload::of(&msg);
        let (_, bits) = msg.encode();
        assert_eq!(p.bits(), bits as u64);
        assert_eq!(p.kind().unwrap(), "cost-report");
        assert_eq!(p.decode().unwrap(), msg);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(matches!(
            Command::decode(&[99]),
            Err(NetError::ProtocolViolation { .. })
        ));
        assert!(matches!(
            Response::decode(&[99]),
            Err(NetError::ProtocolViolation { .. })
        ));
        // Truncated stage index.
        assert!(matches!(
            Command::decode(&[CMD_STAGE, 0, 0]),
            Err(NetError::Transport { .. })
        ));
        // Trailing garbage.
        let mut buf = Command::Describe.encode();
        buf.push(0);
        assert!(matches!(
            Command::decode(&buf),
            Err(NetError::Transport { .. })
        ));
    }

    /// `depth` copies of a 17-byte wrapper header (`tag`, origin 0, the
    /// inner length) around `base`, built in one pass: encoding a
    /// 20,000-deep `Box` chain would itself recurse that deep.
    fn nested_frame(tag: u8, depth: usize, base: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(depth * 17 + base.len());
        for level in 0..depth {
            buf.push(tag);
            buf.extend_from_slice(&0u64.to_be_bytes());
            let inner = (depth - 1 - level) * 17 + base.len();
            buf.extend_from_slice(&(inner as u64).to_be_bytes());
        }
        buf.extend_from_slice(base);
        buf
    }

    #[test]
    fn hostile_wrapper_nesting_is_a_typed_error_not_a_stack_overflow() {
        // A spawned thread runs on the default (small) stack: unbounded
        // recursion through 20,000 wrappers would abort it.
        let verdicts = std::thread::spawn(|| {
            let commands = nested_frame(CMD_FORWARD, 20_000, &Command::Describe.encode());
            let done = Response::Done {
                round: 1,
                rows: 1,
                cols: 1,
                ops: 0,
                seconds: 0.0,
            };
            let responses = nested_frame(RESP_FORWARDED, 20_000, &done.encode());
            (Command::decode(&commands), Response::decode(&responses))
        })
        .join()
        .expect("decoding must not overflow the stack");
        assert!(
            matches!(verdicts.0, Err(NetError::ProtocolViolation { .. })),
            "{:?}",
            verdicts.0
        );
        assert!(
            matches!(verdicts.1, Err(NetError::ProtocolViolation { .. })),
            "{:?}",
            verdicts.1
        );
    }

    #[test]
    fn wrappers_nest_only_as_the_driver_and_routing_emit_them() {
        let stage = || Box::new(Command::Stage { index: 2 });
        let reissue = Command::Reissue {
            round: 3,
            cmd: stage(),
        };
        let replay = Command::Replay {
            origin: 1,
            round: 3,
            cmd: stage(),
        };
        // Forward(Reissue|Replay(cmd)) is the deepest legal shape.
        for inner in [
            reissue.clone(),
            replay.clone(),
            Command::Resume { round: 2 },
        ] {
            let cmd = Command::Forward {
                origin: 1,
                cmd: Box::new(inner),
            };
            assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
        }
        let forward = Command::Forward {
            origin: 1,
            cmd: stage(),
        };
        for illegal in [
            Command::Forward {
                origin: 2,
                cmd: Box::new(forward.clone()),
            },
            Command::Reissue {
                round: 4,
                cmd: Box::new(reissue.clone()),
            },
            Command::Replay {
                origin: 1,
                round: 4,
                cmd: Box::new(forward),
            },
            Command::Reissue {
                round: 4,
                cmd: Box::new(replay),
            },
        ] {
            assert!(
                matches!(
                    Command::decode(&illegal.encode()),
                    Err(NetError::ProtocolViolation { .. })
                ),
                "{illegal:?}"
            );
        }
        let forwarded = Response::Forwarded {
            origin: 1,
            resp: Box::new(Response::Forwarded {
                origin: 2,
                resp: Box::new(Response::Err {
                    reason: "x".to_string(),
                }),
            }),
        };
        assert!(matches!(
            Response::decode(&forwarded.encode()),
            Err(NetError::ProtocolViolation { .. })
        ));
    }

    #[test]
    fn oversized_inner_lengths_are_truncation_errors() {
        let mut buf = vec![CMD_FORWARD];
        buf.extend_from_slice(&0u64.to_be_bytes());
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            Command::decode(&buf),
            Err(NetError::Transport { .. })
        ));
    }

    #[test]
    fn out_of_range_stage_index_is_a_typed_error() {
        let frame = |index: u64| {
            let mut buf = vec![CMD_STAGE];
            buf.extend_from_slice(&index.to_be_bytes());
            buf
        };
        assert_eq!(
            Command::decode(&frame(u64::from(u32::MAX))).unwrap(),
            Command::Stage { index: u32::MAX }
        );
        for index in [(1u64 << 32) + 1, 1 << 32, u64::MAX] {
            assert!(
                matches!(
                    Command::decode(&frame(index)),
                    Err(NetError::ProtocolViolation { .. })
                ),
                "stage index {index}"
            );
        }
    }

    #[test]
    fn channel_backend_routes_and_charges() {
        let (mut hub, mut eps) = channel_pairs(2);
        let p = payload();
        let bits = p.bits();

        // Downlink: Deliver is charged, Stage is not.
        hub.send(0, &Command::Stage { index: 0 }).unwrap();
        hub.send(1, &Command::Deliver { payload: p.clone() })
            .unwrap();
        assert_eq!(hub.stats().total_downlink_bits(), bits);
        assert_eq!(hub.stats().downlink_bits(1), bits);
        assert_eq!(eps[0].recv_command().unwrap(), Command::Stage { index: 0 });
        assert!(matches!(
            eps[1].recv_command().unwrap(),
            Command::Deliver { .. }
        ));

        // Uplink: Up is charged under its message kind, Done is not.
        eps[0]
            .send_response(Response::Done {
                round: 1,
                rows: 1,
                cols: 1,
                ops: 0,
                seconds: 0.0,
            })
            .unwrap();
        eps[1]
            .send_response(Response::Up {
                round: 1,
                payload: p,
                ops: 0,
                seconds: 0.0,
            })
            .unwrap();
        hub.recv(0).unwrap();
        hub.recv(1).unwrap();
        assert_eq!(hub.stats().total_uplink_bits(), bits);
        assert_eq!(hub.stats().uplink_bits_by_kind()["coreset"], bits);
        assert_eq!(hub.stats().total_uplink_messages(), 1);
    }

    #[test]
    fn dropped_endpoint_is_send_error_and_source_lost_on_recv() {
        let (mut hub, eps) = channel_pairs(1);
        drop(eps);
        assert!(matches!(
            hub.send(0, &Command::Describe),
            Err(NetError::Transport { .. })
        ));
        // The receive side degrades: a vanished executor is a typed
        // SourceLost the driver folds around, not an abort.
        match hub.recv(0) {
            Ok(Response::SourceLost { reason }) => assert!(reason.contains("disconnected")),
            other => panic!("expected SourceLost, got {other:?}"),
        }
    }

    #[test]
    fn missed_command_deadline_is_source_lost() {
        let (mut hub, _eps) = channel_pairs(1);
        hub.set_deadline(DeadlinePolicy::uniform(Duration::from_millis(10)));
        match hub.recv(0) {
            Ok(Response::SourceLost { reason }) => assert!(reason.contains("deadline")),
            other => panic!("expected SourceLost, got {other:?}"),
        }
    }

    #[test]
    fn merge_frames_charge_tree_counters_not_classic_ledgers() {
        let p = payload();
        let bits = p.bits();
        let mut stats = NetworkStats::new(3);

        // A bare emit request records the level but moves no data.
        charge_command(
            &mut stats,
            1,
            &Command::MergeWith {
                gather: 2,
                level: 0,
                active: 3,
                payload: None,
                emit: true,
                last: false,
            },
        )
        .unwrap();
        // Delivering a peer summary is relay traffic; a replayed or
        // reissued level note stays idempotent.
        charge_command(
            &mut stats,
            0,
            &Command::MergeWith {
                gather: 2,
                level: 0,
                active: 99,
                payload: Some(p.clone()),
                emit: false,
                last: false,
            },
        )
        .unwrap();
        assert_eq!(stats.total_downlink_bits(), 0);
        assert_eq!(stats.relay_bits(0), bits);
        assert_eq!(stats.merge_levels()[&(2, 0)], 3);
        assert_eq!(stats.max_merge_rounds(), 1);

        // A first Merged charges the leaf to the classic uplink under
        // its own kind; the surrendered buffer is relay traffic…
        charge_response(
            &mut stats,
            1,
            &Response::Merged {
                round: 4,
                payload: Some(p.clone()),
                leaf_bits: 100,
                leaf_tag: 2,
                last: false,
            },
        )
        .unwrap();
        assert_eq!(stats.uplink_bits(1), 100);
        assert_eq!(stats.uplink_bits_by_kind()["coreset"], 100);
        assert_eq!(stats.relay_bits(1), bits);
        assert_eq!(stats.server_fold_inputs(), 0);

        // …while the root emit is the server's single fold input.
        charge_response(
            &mut stats,
            0,
            &Response::Merged {
                round: 5,
                payload: Some(p),
                leaf_bits: 0,
                leaf_tag: 0,
                last: true,
            },
        )
        .unwrap();
        assert_eq!(stats.server_fold_inputs(), 1);
        assert_eq!(stats.server_fold_bits(), bits);
        assert_eq!(stats.total_uplink_bits(), 100);
    }

    #[test]
    fn replica_frames_charge_the_replica_plane_not_classic_ledgers() {
        let p = payload();
        let bits = p.bits();
        let mut stats = NetworkStats::new(3);

        // Promotion + replay traffic never touches the classic ledgers.
        let promote = Command::Promote { origin: 1 };
        charge_command(&mut stats, 2, &promote).unwrap();
        assert_eq!(stats.replica_promotions(), 1);
        assert_eq!(stats.replica_bits(), (promote.encode().len() * 8) as u64);
        let replay = Command::Replay {
            origin: 1,
            round: 2,
            cmd: Box::new(Command::Deliver { payload: p.clone() }),
        };
        charge_command(&mut stats, 2, &replay).unwrap();
        assert_eq!(stats.replayed_rounds(), 1);
        assert_eq!(stats.total_downlink_bits(), 0);
        assert_eq!(stats.total_uplink_bits(), 0);

        // A forwarded live round charges the carried frames to the
        // absorbed origin exactly as a direct exchange would, plus the
        // wrapper overhead on the replica plane.
        let mut fwd = NetworkStats::new(3);
        charge_command(
            &mut fwd,
            2,
            &Command::Forward {
                origin: 1,
                cmd: Box::new(Command::Deliver { payload: p.clone() }),
            },
        )
        .unwrap();
        charge_response(
            &mut fwd,
            2,
            &Response::Forwarded {
                origin: 1,
                resp: Box::new(Response::Up {
                    round: 3,
                    payload: p.clone(),
                    ops: 0,
                    seconds: 0.0,
                }),
            },
        )
        .unwrap();
        let mut direct = NetworkStats::new(3);
        charge_command(&mut direct, 1, &Command::Deliver { payload: p.clone() }).unwrap();
        charge_response(
            &mut direct,
            1,
            &Response::Up {
                round: 3,
                payload: p,
                ops: 0,
                seconds: 0.0,
            },
        )
        .unwrap();
        assert_eq!(fwd.downlink_bits(1), bits);
        assert_eq!(fwd.uplink_bits(1), direct.uplink_bits(1));
        assert_eq!(fwd.uplink_bits_by_kind(), direct.uplink_bits_by_kind());
        assert_eq!(fwd.downlink_bits(2), 0);
        assert_eq!(fwd.uplink_bits(2), 0);
        assert_eq!(fwd.replica_bits(), 2 * FORWARD_OVERHEAD_BITS);
        assert_eq!(direct.replica_bits(), 0);
    }

    #[test]
    fn retry_backoff_tracks_the_io_deadline() {
        // The default policy reproduces the former hard-coded 100ms.
        assert_eq!(
            DeadlinePolicy::default().retry_backoff(),
            Duration::from_millis(100)
        );
        // A tightened deadline tightens the backoff proportionally…
        assert_eq!(
            DeadlinePolicy::uniform(Duration::from_millis(250)).retry_backoff(),
            Duration::from_micros(12_500)
        );
        // …clamped so pathological policies neither spin nor stall.
        assert_eq!(
            DeadlinePolicy::uniform(Duration::from_micros(1)).retry_backoff(),
            Duration::from_millis(1)
        );
        assert_eq!(
            DeadlinePolicy::uniform(Duration::from_secs(3600)).retry_backoff(),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn deadline_policy_defaults_and_uniform() {
        let d = DeadlinePolicy::default();
        assert_eq!(d.io, DeadlinePolicy::DEFAULT_IO);
        assert_eq!(d.command, DeadlinePolicy::DEFAULT_COMMAND);
        let u = DeadlinePolicy::uniform(Duration::from_millis(250));
        assert_eq!(u.io, u.command);
        assert!(Command::Describe.is_round());
        assert!(!Command::Deadline { ms: 1 }.is_round());
        assert!(!Command::Resume { round: 0 }.is_round());
    }
}
