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
//! A [`Payload`] shares its bytes instead of owning them: the reissue
//! cache and traces clone a reference count, never the encoding. Frames
//! travel without intermediate copies too: [`Response::encode`] and
//! [`Command::encode`] allocate their exact length once,
//! [`Response::write_frame`] writes the frame header and fields from one
//! small buffer and a trailing payload straight from its shared bytes in
//! one vectored write, and the one decode routine behind
//! [`Response::decode_owned`] / [`Command::decode_owned`] lets a payload
//! point into the frame it arrived in ([`Response::decode`] and
//! [`Command::decode`] copy a borrowed frame once and decode that).
//!
//! Backends:
//!
//! * [`channel_pairs`] — in-process mpsc channels, one executor thread
//!   per source (what `ekm run`, `ekm sweep` and the library entry
//!   points use);
//! * [`crate::event`] — a non-blocking `std::net` backend whose server
//!   multiplexes every source connection in one poll loop.

use crate::frame::{FrameBuf, FRAME_CMD, FRAME_RESP};
use crate::messages::Message;
use crate::network::NetworkStats;
use crate::{NetError, Result};
use std::io::Write;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
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

    /// Default command-round deadline.
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
///
/// The bytes are shared: a payload is a reference-counted buffer — its
/// own encoding, or the whole frame it arrived in — plus where the
/// encoding starts in it, so a clone copies no byte. Equality compares
/// the encodings.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    start: usize,
    bits: u64,
}

impl Payload {
    /// Encodes a message into a payload.
    pub fn of(msg: &Message) -> Payload {
        let (bytes, bits) = msg.encode();
        Payload::from_encoded(bytes, bits as u64)
    }

    /// Wraps already-encoded bytes, exactly `⌈bits/8⌉` of them.
    pub(crate) fn from_encoded(bytes: Vec<u8>, bits: u64) -> Payload {
        debug_assert_eq!(bytes.len() as u64, bits.div_ceil(8));
        Payload {
            buf: Arc::new(bytes),
            start: 0,
            bits,
        }
    }

    /// Decodes the carried message.
    ///
    /// # Errors
    ///
    /// Wire-format decode failures.
    pub fn decode(&self) -> Result<Message> {
        Message::decode(self.bytes(), self.bits as usize)
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
            .bytes()
            .first()
            .copied()
            .ok_or(NetError::UnknownMessageTag { tag: 0 })?;
        Message::kind_of_tag(tag)
    }

    /// The encoded bytes, `⌈bits/8⌉` of them.
    fn bytes(&self) -> &[u8] {
        let len = (self.bits as usize).div_ceil(8);
        &self.buf[self.start..self.start + len]
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.bits == other.bits && self.bytes() == other.bytes()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("bytes", &self.bytes())
            .field("bits", &self.bits)
            .finish()
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
// 11 stays unassigned: it decodes as an unknown tag.
const CMD_PROMOTE: u8 = 12;
const CMD_REPLAY: u8 = 13;
const CMD_FORWARD: u8 = 14;

const RESP_DONE: u8 = 1;
const RESP_UP: u8 = 2;
const RESP_FIN: u8 = 3;
const RESP_ERR: u8 = 4;
const RESP_RESUMED: u8 = 5;
const RESP_SOURCE_LOST: u8 = 6;
// 7 stays unassigned: it decodes as an unknown tag.
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

/// Appends a payload field's bit length and returns its bytes: a
/// payload is the last field of every frame that carries one, so the
/// caller appends them, or writes them from the payload's own buffer.
fn push_payload_head<'p>(buf: &mut Vec<u8>, payload: &'p Payload) -> &'p [u8] {
    push_u64(buf, payload.bits);
    payload.bytes()
}

/// Encoded length of a payload field: its bit length, then its bytes.
fn payload_len(payload: &Payload) -> usize {
    8 + payload.bytes().len()
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads the fields of one frame, or of a length-prefixed frame nested
/// in it, out of a shared buffer (`frame[window]`).
struct ByteReader<'a> {
    frame: &'a Arc<Vec<u8>>,
    start: usize,
    pos: usize,
    end: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    fn new(frame: &'a Arc<Vec<u8>>, window: Range<usize>, context: &'static str) -> Self {
        ByteReader {
            frame,
            start: window.start,
            pos: window.start,
            end: window.end,
            context,
        }
    }

    fn short(&self) -> NetError {
        NetError::Transport {
            context: self.context,
            detail: format!("truncated frame ({} bytes)", self.end - self.start),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        let bytes = self.bytes(8)?;
        Ok(u64::from_be_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.end)
            .ok_or_else(|| self.short())?;
        let frame: &'a [u8] = self.frame;
        let slice = &frame[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// A length-prefixed inner frame: its window in the outer one.
    fn frame(&mut self) -> Result<Range<usize>> {
        let len = self.u64()?;
        let start = self.pos;
        self.bytes(usize::try_from(len).map_err(|_| self.short())?)?;
        Ok(start..self.pos)
    }

    /// A payload field, pointing into the frame's buffer.
    fn payload(&mut self) -> Result<Payload> {
        let bits = self.u64()?;
        let start = self.pos;
        self.bytes(usize::try_from(bits.div_ceil(8)).map_err(|_| self.short())?)?;
        Ok(Payload {
            buf: Arc::clone(self.frame),
            start,
            bits,
        })
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u64()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).map_err(|_| NetError::Transport {
            context: self.context,
            detail: "non-utf8 reason string".to_string(),
        })
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.end {
            return Err(NetError::Transport {
                context: self.context,
                detail: format!(
                    "{} trailing bytes after a complete frame",
                    self.end - self.pos
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

    /// Length of [`encode`](Self::encode)'s output, without encoding.
    fn encoded_len(&self) -> usize {
        1 + match self {
            Command::Describe | Command::TransmitBasis | Command::Transmit => 0,
            Command::Stage { .. }
            | Command::Deadline { .. }
            | Command::Resume { .. }
            | Command::Promote { .. } => 8,
            Command::Deliver { payload } => payload_len(payload),
            Command::Finish { .. } => 24,
            Command::Abort { reason } => 8 + reason.len(),
            Command::Reissue { cmd, .. } | Command::Forward { cmd, .. } => 16 + cmd.encoded_len(),
            Command::Replay { cmd, .. } => 24 + cmd.encoded_len(),
        }
    }

    /// Encodes the command for a socket frame, in one allocation of its
    /// exact length.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        let tail = self.encode_head(&mut buf);
        buf.extend_from_slice(tail);
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf
    }

    /// Appends the encoding to `buf`, all but the bytes of a trailing
    /// payload, which it returns (empty when there is none). A wrapper's
    /// carried frame is its last field, so its trailing payload is the
    /// wrapper's too.
    fn encode_head<'s>(&'s self, buf: &mut Vec<u8>) -> &'s [u8] {
        match self {
            Command::Describe => buf.push(CMD_DESCRIBE),
            Command::Stage { index } => {
                buf.push(CMD_STAGE);
                push_u64(buf, *index as u64);
            }
            Command::Deliver { payload } => {
                buf.push(CMD_DELIVER);
                return push_payload_head(buf, payload);
            }
            Command::TransmitBasis => buf.push(CMD_TRANSMIT_BASIS),
            Command::Transmit => buf.push(CMD_TRANSMIT),
            Command::Finish {
                uplink_bits,
                downlink_bits,
                centers_hash,
            } => {
                buf.push(CMD_FINISH);
                push_u64(buf, *uplink_bits);
                push_u64(buf, *downlink_bits);
                push_u64(buf, *centers_hash);
            }
            Command::Abort { reason } => {
                buf.push(CMD_ABORT);
                push_str(buf, reason);
            }
            Command::Deadline { ms } => {
                buf.push(CMD_DEADLINE);
                push_u64(buf, *ms);
            }
            Command::Reissue { round, cmd } => {
                buf.push(CMD_REISSUE);
                push_u64(buf, *round);
                push_u64(buf, cmd.encoded_len() as u64);
                return cmd.encode_head(buf);
            }
            Command::Resume { round } => {
                buf.push(CMD_RESUME);
                push_u64(buf, *round);
            }
            Command::Promote { origin } => {
                buf.push(CMD_PROMOTE);
                push_u64(buf, *origin);
            }
            Command::Replay { origin, round, cmd } => {
                buf.push(CMD_REPLAY);
                push_u64(buf, *origin);
                push_u64(buf, *round);
                push_u64(buf, cmd.encoded_len() as u64);
                return cmd.encode_head(buf);
            }
            Command::Forward { origin, cmd } => {
                buf.push(CMD_FORWARD);
                push_u64(buf, *origin);
                push_u64(buf, cmd.encoded_len() as u64);
                return cmd.encode_head(buf);
            }
        }
        &[]
    }

    /// Decodes a command frame, copying it once (see
    /// [`decode_owned`](Self::decode_owned)).
    ///
    /// # Errors
    ///
    /// See [`decode_owned`](Self::decode_owned).
    pub fn decode(buf: &[u8]) -> Result<Command> {
        Command::decode_owned(buf.to_vec())
    }

    /// Decodes a command frame the caller owns; a carried payload points
    /// into it instead of being copied out.
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
    pub fn decode_owned(frame: Vec<u8>) -> Result<Command> {
        let frame = Arc::new(frame);
        Command::decode_in(&frame, 0..frame.len(), Wrapping::None)
    }

    fn decode_in(frame: &Arc<Vec<u8>>, window: Range<usize>, outer: Wrapping) -> Result<Command> {
        let mut r = ByteReader::new(frame, window, "command decode");
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
                cmd: Box::new(Command::decode_in(frame, r.frame()?, Wrapping::Retry)?),
            },
            CMD_RESUME => Command::Resume { round: r.u64()? },
            CMD_PROMOTE => Command::Promote { origin: r.u64()? },
            CMD_REPLAY => Command::Replay {
                origin: r.u64()?,
                round: r.u64()?,
                cmd: Box::new(Command::decode_in(frame, r.frame()?, Wrapping::Retry)?),
            },
            CMD_FORWARD => Command::Forward {
                origin: r.u64()?,
                cmd: Box::new(Command::decode_in(frame, r.frame()?, Wrapping::Forward)?),
            },
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
        }
    }

    /// The round counter a [`Response::Done`]/[`Up`](Response::Up)/
    /// [`Fin`](Response::Fin) carries; `None` for the others.
    pub fn round(&self) -> Option<u64> {
        match self {
            Response::Done { round, .. }
            | Response::Up { round, .. }
            | Response::Fin { round, .. } => Some(*round),
            _ => None,
        }
    }

    /// Length of [`encode`](Self::encode)'s output, without encoding.
    fn encoded_len(&self) -> usize {
        1 + match self {
            Response::Done { .. } => 40,
            Response::Up { payload, .. } => 24 + payload_len(payload),
            Response::Fin { .. } | Response::Replayed { .. } => 24,
            Response::Err { reason } | Response::SourceLost { reason } => 8 + reason.len(),
            Response::Resumed { .. } | Response::Promoted { .. } => 16,
            Response::Forwarded { resp, .. } => 16 + resp.encoded_len(),
        }
    }

    /// Encodes the response for a socket frame, in one allocation of its
    /// exact length.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        let tail = self.encode_head(&mut buf);
        buf.extend_from_slice(tail);
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf
    }

    /// Writes the response as one [`FRAME_RESP`] frame, byte for byte
    /// what [`crate::frame::write_frame`] writes of [`encode`](Self::encode)'s
    /// output, without building that encoding: the frame header, the
    /// fields and a trailing payload go out in one vectored write, the
    /// payload straight from its shared bytes.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] on I/O failure or a frame above
    /// [`crate::frame::MAX_FRAME_BITS`].
    pub fn write_frame<W: Write>(&self, w: &mut W) -> Result<()> {
        // Every response's fields before a payload fit in 64 bytes; only
        // a long `Err` reason grows the buffer.
        let mut head = Vec::with_capacity(64);
        let tail = self.encode_head(&mut head);
        crate::frame::write_split_frame(w, FRAME_RESP, &head, tail)
    }

    /// Appends the encoding to `buf`, all but the bytes of a trailing
    /// payload, which it returns (see [`Command::encode_head`]).
    fn encode_head<'s>(&'s self, buf: &mut Vec<u8>) -> &'s [u8] {
        match self {
            Response::Done {
                round,
                rows,
                cols,
                ops,
                seconds,
            } => {
                buf.push(RESP_DONE);
                push_u64(buf, *round);
                push_u64(buf, *rows);
                push_u64(buf, *cols);
                push_u64(buf, *ops);
                push_u64(buf, seconds.to_bits());
            }
            Response::Up {
                round,
                payload,
                ops,
                seconds,
            } => {
                buf.push(RESP_UP);
                push_u64(buf, *round);
                push_u64(buf, *ops);
                push_u64(buf, seconds.to_bits());
                return push_payload_head(buf, payload);
            }
            Response::Fin {
                round,
                uplink_bits,
                downlink_bits,
            } => {
                buf.push(RESP_FIN);
                push_u64(buf, *round);
                push_u64(buf, *uplink_bits);
                push_u64(buf, *downlink_bits);
            }
            Response::Err { reason } => {
                buf.push(RESP_ERR);
                push_str(buf, reason);
            }
            Response::Resumed { round, fingerprint } => {
                buf.push(RESP_RESUMED);
                push_u64(buf, *round);
                push_u64(buf, *fingerprint);
            }
            Response::SourceLost { reason } => {
                buf.push(RESP_SOURCE_LOST);
                push_str(buf, reason);
            }
            Response::Promoted { origin, round } => {
                buf.push(RESP_PROMOTED);
                push_u64(buf, *origin);
                push_u64(buf, *round);
            }
            Response::Replayed {
                origin,
                round,
                fingerprint,
            } => {
                buf.push(RESP_REPLAYED);
                push_u64(buf, *origin);
                push_u64(buf, *round);
                push_u64(buf, *fingerprint);
            }
            Response::Forwarded { origin, resp } => {
                buf.push(RESP_FORWARDED);
                push_u64(buf, *origin);
                push_u64(buf, resp.encoded_len() as u64);
                return resp.encode_head(buf);
            }
        }
        &[]
    }

    /// Decodes a response frame, copying it once (see
    /// [`decode_owned`](Self::decode_owned)).
    ///
    /// # Errors
    ///
    /// See [`Command::decode_owned`].
    pub fn decode(buf: &[u8]) -> Result<Response> {
        Response::decode_owned(buf.to_vec())
    }

    /// Decodes a response frame the caller owns; a carried payload
    /// points into it instead of being copied out. A
    /// [`Response::Forwarded`] carries one plain response, never another
    /// wrapper.
    ///
    /// # Errors
    ///
    /// See [`Command::decode_owned`].
    pub fn decode_owned(frame: Vec<u8>) -> Result<Response> {
        let frame = Arc::new(frame);
        Response::decode_in(&frame, 0..frame.len(), false)
    }

    fn decode_in(frame: &Arc<Vec<u8>>, window: Range<usize>, forwarded: bool) -> Result<Response> {
        let mut r = ByteReader::new(frame, window, "response decode");
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
                resp: Box::new(Response::decode_in(frame, r.frame()?, true)?),
            },
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

/// A [`Command`] encoded exactly once, the form every send takes: the
/// driver hands one round's pre-framed bytes to every source. The socket
/// backend writes the frame and the journal records its encoding; the
/// command rides along for charging, replay history, the routing layer's
/// [`Command::Forward`] and the channel backend, which delivers it as is.
#[derive(Debug, Clone)]
pub struct EncodedCommand {
    cmd: Command,
    frame: FrameBuf,
}

impl EncodedCommand {
    /// Encodes `cmd` once into its wire frame (header and encoding) under
    /// [`FRAME_CMD`], in one allocation of the frame's exact size.
    pub fn new(cmd: Command) -> EncodedCommand {
        let frame = FrameBuf::build(FRAME_CMD, cmd.encoded_len(), |buf| {
            let tail = cmd.encode_head(buf);
            buf.extend_from_slice(tail);
        });
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
///
/// Each transport implements one send, [`send_encoded`](Self::send_encoded),
/// so every layer sees a command as the same encoded bytes;
/// [`send`](Self::send) encodes a lone control frame on the way in.
pub trait CommandTransport {
    /// Number of sources.
    fn sources(&self) -> usize;

    /// Sends the encoded command `enc` to source `source`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownSource`] for a source outside the run, and
    /// transport failures (a disconnected source surfaces here as a
    /// typed [`NetError::Transport`], never a hang).
    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<()>;

    /// Encodes `cmd` and sends it to source `source`: the path of the
    /// control frames the driver and the recovery layers send one at a
    /// time.
    ///
    /// # Errors
    ///
    /// See [`CommandTransport::send_encoded`].
    fn send(&mut self, source: usize, cmd: &Command) -> Result<()> {
        self.send_encoded(source, &EncodedCommand::new(cmd.clone()))
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
            stats.charge_promotion((cmd.encoded_len() * 8) as u64);
        }
        Command::Replay { .. } => {
            stats.charge_replay((cmd.encoded_len() * 8) as u64);
        }
        Command::Forward { origin, cmd } => {
            charge_command(stats, *origin as usize, cmd)?;
            stats.charge_replica_bits(FORWARD_OVERHEAD_BITS);
        }
        _ => {}
    }
    Ok(())
}

/// Charges a response's data-plane payload (if any) to the uplink if it
/// is its round's first answer, and returns whether it was. A later
/// answer to a round `source` already answered (the cached copy a
/// reissue draws after the late original arrived) is charged nothing:
/// the source counted that upload once. A response without a round
/// number always counts as a first answer.
///
/// # Errors
///
/// [`NetError::UnknownMessageTag`] for a malformed payload.
pub fn charge_response(stats: &mut NetworkStats, source: usize, resp: &Response) -> Result<bool> {
    if let Some(round) = resp.round() {
        if round <= stats.answered[source] {
            return Ok(false);
        }
        stats.answered[source] = round;
    }
    match resp {
        Response::Up { payload, .. } => {
            let kind = payload.kind()?;
            stats.charge_uplink(source, payload.bits() as usize, kind);
        }
        // The replica plane mirrors `charge_command`: acknowledgements
        // are pure recovery overhead, a forwarded response is charged
        // as if the absorbed origin sent it itself.
        Response::Promoted { .. } | Response::Replayed { .. } => {
            stats.charge_replica_bits((resp.encoded_len() * 8) as u64);
        }
        Response::Forwarded { origin, resp } => {
            if !charge_response(stats, *origin as usize, resp)? {
                return Ok(false);
            }
            stats.charge_replica_bits(FORWARD_OVERHEAD_BITS);
        }
        _ => {}
    }
    Ok(true)
}

/// Refuses a source id outside a transport of `sources` sources.
pub(crate) fn check_source(source: usize, sources: usize) -> Result<()> {
    if source >= sources {
        return Err(NetError::UnknownSource { source, sources });
    }
    Ok(())
}

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

impl CommandTransport for ChannelHub {
    fn sources(&self) -> usize {
        self.to_sources.len()
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<()> {
        check_source(source, self.sources())?;
        charge_command(&mut self.stats, source, enc.command())?;
        self.to_sources[source]
            .send(enc.command().clone())
            .map_err(|_| NetError::Transport {
                context: "channel send",
                detail: format!("source {source} hung up"),
            })
    }

    fn recv(&mut self, source: usize) -> Result<Response> {
        check_source(source, self.sources())?;
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
