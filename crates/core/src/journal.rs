//! Driver-side journaling of command rounds for deterministic recovery.
//!
//! [`JournalingTransport`] wraps any [`CommandTransport`] and appends a
//! length-prefixed record (via [`ekm_net::frame`]) for every *round*
//! command the driver sends, response it receives, source loss and
//! replica promotion, flushing before a command touches the wire
//! (write-ahead). The driver's call order is deterministic (seeded
//! randomness, fixed source-id folds, one thread), so a restarted driver
//! given the same plan walks the records to the exact pre-crash state:
//! its sends are verified byte-for-byte against them with no wire I/O,
//! and responses, losses and promotions replay as journaled, charged to
//! this transport's own [`NetworkStats`]. A response replays wherever
//! it was journaled, even past later commands (a reissued answer that a
//! resume journaled after the round's other commands), so a resumed run
//! that crashes resumes again. When the records run out, the
//! transport reconciles with the live executors from what one scan of
//! the records found, rebuilds each absorbed origin's persona with the
//! routine a live promotion runs, and goes live.
//!
//! Control-plane commands (`Abort`, `Deadline`, `Resume`, `Reissue`)
//! are never journaled: they shape recovery, not the computation.
//!
//! The journal's own failures (a failed append, flush or sync, a corrupt
//! record, a replay that diverges from the records, executors that do
//! not match them) are [`NetError::Journal`], which the driver never
//! takes for a source's loss: they end the run. A source lost while
//! reconciling is left to the driver, which meets the loss on its next
//! send or receive there and escalates it as it does a live one.

use crate::driver::{replay_rounds, send_loss_reason, REPLAYED_LOSS};
use crate::executor::state_fingerprint;
use crate::{CoreError, Result};
use ekm_net::frame::{try_read_frame, write_frame};
use ekm_net::protocol::{
    charge_command, charge_response, Command, CommandTransport, DeadlinePolicy, EncodedCommand,
    Response,
};
use ekm_net::{NetError, NetworkStats, Result as NetResult};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Journal frame kind: the one-per-file header record.
pub const JOURNAL_HEADER: u8 = 16;
/// Journal frame kind: one round command (source id + encoded bytes).
pub const JOURNAL_CMD: u8 = 17;
/// Journal frame kind: one response (source id + encoded bytes).
pub const JOURNAL_RESP: u8 = 18;
/// Journal frame kind: a source-lost event observed by the driver.
pub const JOURNAL_LOST: u8 = 19;
/// Journal frame kind: a replica promotion (origin re-homed to host).
pub const JOURNAL_PROMOTED: u8 = 20;

/// `"EKMJ"` — rejects files that are not journals before any decode.
const MAGIC: u32 = 0x454b_4d4a;
const VERSION: u16 = 1;

/// The journal's file header: enough to refuse resuming a run under a
/// different configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Number of sources the journaled run was driving.
    pub sources: u32,
    /// Caller-supplied configuration fingerprint (the CLI hashes its
    /// canonical config); a resume under a different fingerprint is
    /// rejected outright.
    pub fingerprint: u64,
}

/// One journal record, in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// A round command the driver sent to `source` — the exact encoded
    /// bytes, so replay can verify bit-identity.
    Cmd {
        /// Destination source id.
        source: u32,
        /// `Command::encode()` output.
        bytes: Vec<u8>,
    },
    /// A response received from `source` (exact encoded bytes).
    Resp {
        /// Originating source id.
        source: u32,
        /// `Response::encode()` output.
        bytes: Vec<u8>,
    },
    /// The transport declared `source` unreachable: a failed send
    /// (`via_send`) or a `SourceLost` answer on receive.
    Lost {
        /// The unreachable source id.
        source: u32,
        /// True when the loss surfaced on the send path.
        via_send: bool,
        /// The reason the driver records the loss under: a failed
        /// send's, or the `SourceLost` answer's.
        reason: String,
    },
    /// The driver promoted `host`'s cold replica of `origin`'s shard.
    /// Written write-ahead: a `Lost { source: host, .. }` record after
    /// it, on either side, with nothing between them but `host`'s own
    /// responses, marks the attempt as failed: the promotion itself
    /// failed, or the host was lost while the driver rebuilt the persona
    /// (a replayed round could not be sent to it, or its acknowledgement
    /// never came). The host's responses are its answers to its own
    /// round, harvested while the rebuild waited on its connection.
    /// After a successful promotion the next other record always
    /// concerns `origin` or is a round command: the origin's reissue
    /// answer routes through the new host but is journaled under the
    /// origin.
    Promoted {
        /// The dead source whose shard was re-homed.
        origin: u32,
        /// The replica holder that adopted it.
        host: u32,
    },
}

fn journal_io(reason: String) -> CoreError {
    CoreError::Journal { reason }
}

/// A journal failure surfaced through the [`CommandTransport`] methods,
/// which speak [`NetError`].
fn jerr(reason: String) -> NetError {
    NetError::Journal { reason }
}

/// The reason a [`JournalEntry::Lost`] records for a failed send or
/// promotion: the reason the driver records the loss under.
fn send_loss_record(e: &NetError) -> String {
    match e {
        NetError::Transport { context, detail } => send_loss_reason(context, detail.clone()),
        other => other.to_string(),
    }
}

impl JournalEntry {
    /// Appends this record as one frame.
    ///
    /// # Errors
    ///
    /// I/O failures, as [`NetError::Transport`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> NetResult<()> {
        let (kind, payload) = match self {
            JournalEntry::Cmd { source, bytes } => (JOURNAL_CMD, prefixed(*source, bytes)),
            JournalEntry::Resp { source, bytes } => (JOURNAL_RESP, prefixed(*source, bytes)),
            JournalEntry::Lost {
                source,
                via_send,
                reason,
            } => {
                let mut p = Vec::with_capacity(5 + reason.len());
                p.extend_from_slice(&source.to_be_bytes());
                p.push(u8::from(*via_send));
                p.extend_from_slice(reason.as_bytes());
                (JOURNAL_LOST, p)
            }
            JournalEntry::Promoted { origin, host } => {
                (JOURNAL_PROMOTED, prefixed(*origin, &host.to_be_bytes()))
            }
        };
        let bits = payload.len() * 8;
        write_frame(w, kind, &payload, bits)
    }

    /// Names the record for an error message by its kind, its source,
    /// the name of the frame it holds and its length, instead of printing
    /// its bytes.
    fn describe(&self) -> String {
        let (kind, source, name, len) = match self {
            JournalEntry::Cmd { source, bytes } => (
                "command",
                source,
                Command::decode(bytes).map(|c| c.name()),
                bytes.len(),
            ),
            JournalEntry::Resp { source, bytes } => (
                "response",
                source,
                Response::decode(bytes).map(|r| r.name()),
                bytes.len(),
            ),
            JournalEntry::Lost { source, reason, .. } => ("loss", source, Ok("lost"), reason.len()),
            JournalEntry::Promoted { origin, .. } => ("promotion", origin, Ok("promoted"), 4),
        };
        let name = name.unwrap_or("undecodable");
        format!("a {kind} record of source {source} ({name}, {len} bytes)")
    }
}

fn prefixed(source: u32, bytes: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + bytes.len());
    p.extend_from_slice(&source.to_be_bytes());
    p.extend_from_slice(bytes);
    p
}

fn parse_entry(kind: u8, payload: &[u8]) -> Result<JournalEntry> {
    if payload.len() < 4 {
        return Err(journal_io(format!(
            "journal record of kind {kind} is {} bytes, too short for a source id",
            payload.len()
        )));
    }
    let source = u32::from_be_bytes(payload[..4].try_into().expect("4-byte slice"));
    let body = &payload[4..];
    match kind {
        JOURNAL_CMD => Ok(JournalEntry::Cmd {
            source,
            bytes: body.to_vec(),
        }),
        JOURNAL_RESP => Ok(JournalEntry::Resp {
            source,
            bytes: body.to_vec(),
        }),
        JOURNAL_LOST => {
            if body.is_empty() {
                return Err(journal_io(
                    "lost record without a via-send flag".to_string(),
                ));
            }
            let reason = String::from_utf8(body[1..].to_vec())
                .map_err(|_| journal_io("lost record with a non-UTF-8 reason".to_string()))?;
            Ok(JournalEntry::Lost {
                source,
                via_send: body[0] != 0,
                reason,
            })
        }
        JOURNAL_PROMOTED => {
            if body.len() != 4 {
                return Err(journal_io(format!(
                    "promotion record with a {}-byte host id",
                    body.len()
                )));
            }
            Ok(JournalEntry::Promoted {
                origin: source,
                host: u32::from_be_bytes(body.try_into().expect("4-byte slice")),
            })
        }
        other => Err(journal_io(format!("unknown journal record kind {other}"))),
    }
}

/// Writes the file header record.
///
/// # Errors
///
/// I/O failures, as [`NetError::Transport`].
pub fn write_header<W: Write>(w: &mut W, header: &JournalHeader) -> NetResult<()> {
    let mut p = Vec::with_capacity(18);
    p.extend_from_slice(&MAGIC.to_be_bytes());
    p.extend_from_slice(&VERSION.to_be_bytes());
    p.extend_from_slice(&header.sources.to_be_bytes());
    p.extend_from_slice(&header.fingerprint.to_be_bytes());
    let bits = p.len() * 8;
    write_frame(w, JOURNAL_HEADER, &p, bits)
}

/// Reads and validates the file header record.
///
/// # Errors
///
/// [`CoreError::Journal`] on a missing, torn, or foreign header.
pub fn read_header<R: Read>(r: &mut R) -> Result<JournalHeader> {
    let (kind, payload, _) = try_read_frame(r)
        .map_err(|e| journal_io(format!("unreadable journal header: {e}")))?
        .ok_or_else(|| journal_io("empty journal file".to_string()))?;
    if kind != JOURNAL_HEADER || payload.len() != 18 {
        return Err(journal_io(format!(
            "first journal record is kind {kind} ({} bytes), not a header",
            payload.len()
        )));
    }
    let magic = u32::from_be_bytes(payload[..4].try_into().expect("4-byte slice"));
    let version = u16::from_be_bytes(payload[4..6].try_into().expect("2-byte slice"));
    if magic != MAGIC || version != VERSION {
        return Err(journal_io(format!(
            "journal magic/version mismatch (magic {magic:#x}, version {version})"
        )));
    }
    Ok(JournalHeader {
        sources: u32::from_be_bytes(payload[6..10].try_into().expect("4-byte slice")),
        fingerprint: u64::from_be_bytes(payload[10..18].try_into().expect("8-byte slice")),
    })
}

/// Reads the next record, strictly: a torn tail is a typed
/// [`CoreError::Journal`], never a panic and never silently dropped.
/// `Ok(None)` means a clean end of file.
///
/// # Errors
///
/// [`CoreError::Journal`] on torn or corrupt records.
pub fn read_entry<R: Read>(r: &mut R) -> Result<Option<JournalEntry>> {
    match try_read_frame(r) {
        Ok(None) => Ok(None),
        Ok(Some((kind, payload, _))) => parse_entry(kind, &payload).map(Some),
        Err(e) => Err(journal_io(format!("torn journal record: {e}"))),
    }
}

/// Strictly reads a whole journal file: header plus every record.
///
/// # Errors
///
/// [`CoreError::Journal`] on any torn or corrupt content.
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<JournalEntry>)> {
    let buf = std::fs::read(path)
        .map_err(|e| journal_io(format!("cannot read journal {}: {e}", path.display())))?;
    let mut cur = &buf[..];
    let header = read_header(&mut cur)?;
    let mut entries = Vec::new();
    while let Some(e) = read_entry(&mut cur)? {
        entries.push(e);
    }
    Ok((header, entries))
}

/// Lossily loads a journal for resumption: parsing stops at the first
/// torn record (a crash mid-append), and the byte offset of the last
/// good record boundary is returned so the file can be truncated there
/// before new records are appended.
fn load_lossy(path: &Path) -> Result<(JournalHeader, Vec<JournalEntry>, u64)> {
    let buf = std::fs::read(path)
        .map_err(|e| journal_io(format!("cannot read journal {}: {e}", path.display())))?;
    let mut cur = &buf[..];
    let header = read_header(&mut cur)?;
    let mut entries = Vec::new();
    let mut good = buf.len() - cur.len();
    while let Ok(Some((kind, payload, _))) = try_read_frame(&mut cur) {
        match parse_entry(kind, &payload) {
            Ok(e) => {
                entries.push(e);
                good = buf.len() - cur.len();
            }
            Err(_) => break,
        }
    }
    Ok((header, entries, good as u64))
}

/// Fails on the first record that names a source id outside the
/// journal's `m` sources. A corrupt or hand-made journal must be a typed
/// error, not an out-of-bounds index during replay or an id handed to
/// the accept loop.
fn check_source_ids(entries: &[JournalEntry], m: usize) -> Result<()> {
    for (k, e) in entries.iter().enumerate() {
        // Every record names two ids; one-id records repeat theirs.
        let (kind, ids) = match *e {
            JournalEntry::Cmd { source, .. } => ("command", [("source", source); 2]),
            JournalEntry::Resp { source, .. } => ("response", [("source", source); 2]),
            JournalEntry::Lost { source, .. } => ("loss", [("source", source); 2]),
            JournalEntry::Promoted { origin, host } => {
                ("promotion", [("origin", origin), ("host", host)])
            }
        };
        if let Some((field, id)) = ids.into_iter().find(|&(_, id)| id as usize >= m) {
            return Err(journal_io(format!(
                "journal record {k} ({kind}) names {field} {id}, but the journal drove {m} sources"
            )));
        }
    }
    Ok(())
}

/// If record `k` is a failed promotion attempt, the index of the host's
/// loss that failed it, by the rule on [`JournalEntry::Promoted`] — the
/// one statement of it [`scan`], [`absorbed_origins`] and replay share.
fn failed_promotion(records: &[JournalEntry], k: usize) -> Option<usize> {
    let JournalEntry::Promoted { host, .. } = records[k] else {
        return None;
    };
    let own = |e: &JournalEntry| matches!(e, JournalEntry::Resp { source, .. } if *source == host);
    let end = k + 1 + records[k + 1..].iter().take_while(|e| own(e)).count();
    matches!(records.get(end), Some(JournalEntry::Lost { source, .. }) if *source == host)
        .then_some(end)
}

/// Scans a journal for origins absorbed by a successful replica
/// promotion, without replaying it. A resumed `ekm serve` accepts
/// handshakes only from the survivors: a promoted origin's owner is
/// dead (that is why it was promoted) and its remaining rounds run
/// through its host's connection, so waiting for the owner to
/// reconnect would hang the accept loop forever. A failed attempt
/// (see [`JournalEntry::Promoted`]) does not count. Tolerates a torn tail
/// exactly like [`JournalingTransport::resume`].
///
/// # Errors
///
/// [`CoreError::Journal`] when the file is missing, its header is
/// corrupt or from a different configuration of the tool, or a record
/// names a source id outside the header's source count.
pub fn absorbed_origins(path: &Path) -> Result<Vec<usize>> {
    let (header, entries, _) = load_lossy(path)?;
    check_source_ids(&entries, header.sources as usize)?;
    // Only the records size this list: the header's source count is a
    // claim, not an allocation budget.
    let mut origins = Vec::new();
    for (k, e) in entries.iter().enumerate() {
        if let JournalEntry::Promoted { origin, .. } = e {
            if failed_promotion(&entries, k).is_none() && !origins.contains(&(*origin as usize)) {
                origins.push(*origin as usize);
            }
        }
    }
    origins.sort_unstable();
    Ok(origins)
}

/// What a journal's records establish per source, read off them in one
/// pass by [`scan`] for reconciliation (a recording transport's is the
/// scan of no records).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scan {
    /// Round commands journaled per source.
    cmds: Vec<u64>,
    /// Responses journaled per source.
    resps: Vec<u64>,
    /// Sources the driver degraded past; reconciliation never contacts
    /// these.
    dead: Vec<bool>,
    /// Each origin's host after its last successful promotion.
    hosts: Vec<Option<usize>>,
}

/// Reads the per-source state of `records` over `m` sources, whose ids
/// [`check_source_ids`] has already bounded by `m`.
fn scan(records: &[JournalEntry], m: usize) -> Scan {
    let mut s = Scan {
        cmds: vec![0; m],
        resps: vec![0; m],
        dead: vec![false; m],
        hosts: vec![None; m],
    };
    // A receive-side loss earns one reissue; a second one in a row, or a
    // send-side loss, escalates past the source.
    let mut suspect = vec![false; m];
    for (k, e) in records.iter().enumerate() {
        match *e {
            JournalEntry::Cmd { source, .. } => s.cmds[source as usize] += 1,
            JournalEntry::Resp { source, .. } => {
                s.resps[source as usize] += 1;
                suspect[source as usize] = false;
            }
            JournalEntry::Lost {
                source, via_send, ..
            } => {
                let i = source as usize;
                if via_send || suspect[i] {
                    s.dead[i] = true;
                } else {
                    suspect[i] = true;
                }
            }
            JournalEntry::Promoted { origin, host } => {
                let o = origin as usize;
                suspect[o] = false;
                // A failed attempt leaves the origin its previous host,
                // and dead until a retry succeeds; the loss that ended
                // it takes the host down too, on either side.
                s.dead[o] = failed_promotion(records, k).is_some();
                if s.dead[o] {
                    s.dead[host as usize] = true;
                } else {
                    s.hosts[o] = Some(host as usize);
                }
            }
        }
    }
    s
}

enum Mode {
    Record,
    Replay,
}

/// A write-ahead journaling layer over any [`CommandTransport`].
///
/// In **record** mode every round command is appended (and flushed)
/// before it is sent, and every response is appended as it arrives. In
/// **resume** mode ([`JournalingTransport::resume`]) the journaled
/// prefix is replayed without wire I/O; when the journal runs dry the
/// transport reconciles with the live executors (which kept their state
/// and round counters across the driver crash) and switches to record
/// mode, so the run continues — and keeps journaling — from exactly
/// where the crashed driver stopped.
///
/// The transport keeps its **own** [`NetworkStats`], charged for
/// replayed and live traffic alike: a resumed run reports the same
/// counters, bit for bit, as an uninterrupted one. Retransmissions
/// (`Resume`/`Reissue`) are control plane and never charged.
pub struct JournalingTransport<T: CommandTransport> {
    inner: T,
    writer: BufWriter<File>,
    stats: NetworkStats,
    mode: Mode,
    /// The records loaded on resume, released once reconciliation goes
    /// live (always empty in record mode).
    records: Vec<JournalEntry>,
    /// The next record replay consumes.
    cursor: usize,
    /// Per-source state, scanned from `records`.
    scan: Scan,
    /// Responses drained — and journaled, and charged — out of driver
    /// order (by replay, or by reconciliation), handed to the driver on
    /// its next `recv` without re-charging.
    buffered: Vec<VecDeque<Response>>,
    replayed: usize,
    cmds_appended: u64,
    hook: Option<Box<dyn FnMut(u64) + Send>>,
}

fn decode_command(bytes: &[u8]) -> NetResult<Command> {
    Command::decode(bytes).map_err(|e| jerr(format!("corrupt command record: {e}")))
}

fn decode_response(bytes: &[u8]) -> NetResult<Response> {
    Response::decode(bytes).map_err(|e| jerr(format!("corrupt response record: {e}")))
}

/// Passes a loss met while reconciling to the driver: whether `step`
/// failed on a lost source, which reconciliation then leaves alone. Any
/// other failure ends the run.
fn lost(step: NetResult<()>) -> NetResult<bool> {
    match step {
        Ok(()) => Ok(false),
        Err(NetError::Transport { .. }) => Ok(true),
        Err(e) => Err(e),
    }
}

impl<T: CommandTransport> JournalingTransport<T> {
    /// Starts journaling a fresh run to `path` (truncating any previous
    /// file there).
    ///
    /// # Errors
    ///
    /// [`CoreError::Journal`] when the file cannot be created.
    pub fn record(inner: T, path: &Path, fingerprint: u64) -> Result<Self> {
        let file = File::create(path)
            .map_err(|e| journal_io(format!("cannot create journal {}: {e}", path.display())))?;
        let header = JournalHeader {
            sources: inner.sources() as u32,
            fingerprint,
        };
        let mut journal = Self::build(inner, BufWriter::new(file), Vec::new(), Mode::Record);
        write_header(&mut journal.writer, &header)
            .map_err(|e| journal_io(format!("cannot write journal header: {e}")))?;
        journal.sync()?;
        Ok(journal)
    }

    /// Opens an existing journal for deterministic resumption. The file
    /// is truncated to its last intact record (a crash mid-append loses
    /// at most the torn tail), its header must match this transport's
    /// source count and the caller's `fingerprint`, and subsequent
    /// records are appended after the replayed prefix.
    ///
    /// # Errors
    ///
    /// [`CoreError::Journal`] on an unreadable file, a header
    /// mismatch, or a record naming a source id outside the run.
    pub fn resume(inner: T, path: &Path, fingerprint: u64) -> Result<Self> {
        let m = inner.sources();
        let (header, entries, good) = load_lossy(path)?;
        if header.sources as usize != m {
            return Err(journal_io(format!(
                "journal drove {} sources, this run has {m}",
                header.sources
            )));
        }
        if header.fingerprint != fingerprint {
            return Err(journal_io(
                "journal fingerprint does not match this configuration".to_string(),
            ));
        }
        check_source_ids(&entries, m)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| journal_io(format!("cannot reopen journal {}: {e}", path.display())))?;
        file.set_len(good)
            .map_err(|e| journal_io(format!("cannot truncate journal tail: {e}")))?;
        let writer = BufWriter::new(file);
        Ok(Self::build(inner, writer, entries, Mode::Replay))
    }

    /// The transport over `records`, with their per-source state
    /// scanned. Per-source state is sized by the live transport's source
    /// count, never by a header's claim (a resumed header has matched it).
    fn build(inner: T, writer: BufWriter<File>, records: Vec<JournalEntry>, mode: Mode) -> Self {
        let m = inner.sources();
        JournalingTransport {
            stats: NetworkStats::new(m),
            scan: scan(&records, m),
            buffered: vec![VecDeque::new(); m],
            replayed: records.len(),
            cursor: 0,
            records,
            inner,
            writer,
            mode,
            cmds_appended: 0,
            hook: None,
        }
    }

    /// Installs a hook fired after every *appended* (not replayed)
    /// round command, with the running count — the CLI's
    /// `--crash-after-commands` exits the process from here to test
    /// recovery.
    pub fn with_entry_hook(mut self, hook: Box<dyn FnMut(u64) + Send>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Number of journal records replayed at open (0 in record mode).
    pub fn replayed_entries(&self) -> usize {
        self.replayed
    }

    /// Recovers the wrapped transport (used by crash tests to resume
    /// over the very same channel hub).
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn append(&mut self, e: &JournalEntry) -> NetResult<()> {
        e.write_to(&mut self.writer)
            .map_err(|err| jerr(format!("cannot append a record: {err}")))?;
        self.sync()
    }

    /// Flushes and syncs what was written. Durability, not just
    /// visibility: a record the write-ahead discipline relies on must
    /// survive a power loss, so every record boundary is synced. A crash
    /// mid-append leaves at most one torn tail record, truncated away on
    /// resume.
    fn sync(&mut self) -> NetResult<()> {
        (self.writer.flush())
            .and_then(|()| self.writer.get_ref().sync_data())
            .map_err(|err| jerr(format!("cannot flush and sync a record: {err}")))
    }

    /// Charges `resp` from source `i` and journals it if it is its
    /// round's first answer; returns whether it was.
    fn journal_response(&mut self, i: usize, resp: &Response) -> NetResult<bool> {
        let first = charge_response(&mut self.stats, i, resp)?;
        if first {
            self.append(&JournalEntry::Resp {
                source: i as u32,
                bytes: resp.encode(),
            })?;
            self.scan.resps[i] += 1;
        }
        Ok(first)
    }

    /// Journals a round command write-ahead (its shared encoding's
    /// bytes), charges it, and sends the same frame on.
    fn record_send(&mut self, source: usize, enc: &EncodedCommand) -> NetResult<()> {
        let cmd = enc.command();
        if cmd.is_round() {
            self.append(&JournalEntry::Cmd {
                source: source as u32,
                bytes: enc.encoded().to_vec(),
            })?;
            self.cmds_appended += 1;
            let n = self.cmds_appended;
            if let Some(hook) = &mut self.hook {
                hook(n);
            }
        }
        // Round payloads and the replica plane (`Promote`/`Replay`)
        // both charge; recovery control frames are no-ops inside.
        charge_command(&mut self.stats, source, cmd)?;
        if let Err(e) = self.inner.send_encoded(source, enc) {
            // Journal the failure so a replay fails the same way.
            self.append(&JournalEntry::Lost {
                source: source as u32,
                via_send: true,
                reason: send_loss_record(&e),
            })?;
            return Err(e);
        }
        Ok(())
    }

    fn record_recv(&mut self, source: usize) -> NetResult<Response> {
        let resp = self.inner.recv(source)?;
        match &resp {
            Response::SourceLost { reason } => {
                self.append(&JournalEntry::Lost {
                    source: source as u32,
                    via_send: false,
                    reason: reason.clone(),
                })?;
            }
            Response::Resumed { .. } => {}
            // Replica-plane acknowledgements carry no round number, so
            // every one counts as a first answer; journaling them would
            // desync the response counts on a later resume: charge-only,
            // and a resume rebuilds the persona from the command records.
            Response::Promoted { .. } | Response::Replayed { .. } => {
                charge_response(&mut self.stats, source, &resp)?;
            }
            // Only a round's first answer is charged and journaled: a
            // later copy (surfaced by a reissue race) is dropped by the
            // driver, and journaling it would desync the counts on a
            // later resume.
            other => {
                self.journal_response(source, other)?;
            }
        }
        Ok(resp)
    }

    /// The one step replay takes before it reads a record: every
    /// journaled response at the cursor is charged and buffered for its
    /// source's next receive, and the cursor moves past them. Responses
    /// land out of driver order when a live promotion harvested a host's
    /// own answer mid-replay, or a resume reissued a pending round;
    /// wherever they lie, each is charged once and the driver takes it
    /// in its own order.
    fn pass_responses(&mut self) -> NetResult<()> {
        while let Some(JournalEntry::Resp { source, bytes }) = self.records.get(self.cursor) {
            let (s, resp) = (*source as usize, decode_response(bytes)?);
            charge_response(&mut self.stats, s, &resp)?;
            self.buffered[s].push_back(resp);
            self.cursor += 1;
        }
        Ok(())
    }

    /// Verifies a round command against the journal, by its encoded
    /// bytes, instead of sending it. A journaled send-side loss of
    /// `source` right after it replays as a failure the driver records
    /// under the live run's reason.
    fn replay_send(&mut self, source: usize, enc: &EncodedCommand) -> NetResult<()> {
        self.pass_responses()?;
        let cmd = enc.command();
        match self.records.get(self.cursor) {
            None => {
                self.reconcile()?;
                return self.record_send(source, enc);
            }
            Some(_) if !cmd.is_round() => {}
            Some(JournalEntry::Cmd { source: s, bytes })
                if *s as usize == source && *bytes == enc.encoded() =>
            {
                self.cursor += 1;
                charge_command(&mut self.stats, source, cmd)?;
            }
            Some(other) => {
                let call = format!("sent {} to source {source}", cmd.name());
                return Err(diverged(&call, other));
            }
        }
        match self.records.get(self.cursor) {
            Some(JournalEntry::Lost {
                source: s,
                via_send: true,
                reason,
            }) if *s as usize == source => {
                self.cursor += 1;
                Err(NetError::Transport {
                    context: REPLAYED_LOSS,
                    detail: reason.clone(),
                })
            }
            _ => Ok(()),
        }
    }

    fn replay_recv(&mut self, source: usize) -> NetResult<Response> {
        self.pass_responses()?;
        if let Some(resp) = self.buffered[source].pop_front() {
            return Ok(resp);
        }
        match self.records.get(self.cursor) {
            None => {
                self.reconcile()?;
                match self.buffered[source].pop_front() {
                    Some(resp) => Ok(resp),
                    None => self.record_recv(source),
                }
            }
            Some(JournalEntry::Lost {
                source: s,
                via_send: false,
                reason,
            }) if *s as usize == source => {
                self.cursor += 1;
                Ok(Response::SourceLost {
                    reason: reason.clone(),
                })
            }
            Some(other) => {
                let call = format!("expects a response from source {source}");
                Err(diverged(&call, other))
            }
        }
    }

    /// Write-ahead journals a promotion, then arms the routing layer
    /// below. A failed promotion appends the host's loss immediately
    /// after the promotion record, so a replay fails the same way (a
    /// host lost while the driver rebuilds the persona journals its own
    /// loss there, through this transport's `send_encoded` or `recv`).
    fn record_promote(&mut self, origin: usize, host: usize) -> NetResult<()> {
        self.append(&JournalEntry::Promoted {
            origin: origin as u32,
            host: host as u32,
        })?;
        if let Err(e) = self.inner.promote(origin, host) {
            self.append(&JournalEntry::Lost {
                source: host as u32,
                via_send: true,
                reason: send_loss_record(&e),
            })?;
            return Err(e);
        }
        self.charge_promotion(origin, host)
    }

    /// Mirrors the Promote/Promoted exchange, which the routing layer
    /// consumes below this transport, in this transport's own ledger.
    fn charge_promotion(&mut self, origin: usize, host: usize) -> NetResult<()> {
        let origin = origin as u64;
        charge_command(&mut self.stats, host, &Command::Promote { origin })?;
        charge_response(
            &mut self.stats,
            host,
            &Response::Promoted { origin, round: 0 },
        )?;
        Ok(())
    }

    /// Consumes a journaled promotion during replay. A successful one is
    /// charged; the persona is rebuilt when reconciliation goes live. A
    /// journaled failure (see [`JournalEntry::Promoted`]) fails here as
    /// the attempt did live, sending the driver's health machine down
    /// the same escalation path; the host's own answers journaled
    /// inside the attempt are charged and buffered for its next receive
    /// by the replay step, as the live driver parked them.
    fn replay_promote(&mut self, origin: usize, host: usize) -> NetResult<()> {
        self.pass_responses()?;
        match self.records.get(self.cursor) {
            None => {
                self.reconcile()?;
                return self.record_promote(origin, host);
            }
            Some(JournalEntry::Promoted { origin: o, host: h })
                if *o as usize == origin && *h as usize == host => {}
            Some(other) => {
                let call = format!("promoted source {origin} onto {host}");
                return Err(diverged(&call, other));
            }
        }
        let failed = failed_promotion(&self.records, self.cursor).is_some();
        self.cursor += 1;
        if !failed {
            return self.charge_promotion(origin, host);
        }
        self.pass_responses()?;
        let Some(JournalEntry::Lost { reason, .. }) = self.records.get(self.cursor) else {
            unreachable!("failed_promotion ends at the host's loss");
        };
        self.cursor += 1;
        Err(NetError::Transport {
            context: REPLAYED_LOSS,
            detail: reason.clone(),
        })
    }

    /// Source `i`'s journaled round commands, encoded, in order.
    fn journaled_commands(&self, i: usize) -> impl DoubleEndedIterator<Item = &[u8]> {
        self.records.iter().filter_map(move |e| match e {
            JournalEntry::Cmd { source, bytes } if *source as usize == i => Some(&bytes[..]),
            _ => None,
        })
    }

    /// Replay exhausted: rebuild every live absorbed origin's persona,
    /// bring every surviving executor to the exact pre-crash boundary,
    /// then go live. Personas come first, since an absorbed origin
    /// reconciles through its host's connection: each is promoted onto
    /// its last host again and rebuilt by [`replay_rounds`] over this
    /// transport in record mode, as a live promotion rebuilds one.
    /// Commands are re-sent from the records, released at the end.
    ///
    /// A source lost on the way (a failed send or a `SourceLost`, during
    /// a rebuild too) is left alone; the driver meets the loss on its
    /// next send or receive there and escalates it like a live one.
    fn reconcile(&mut self) -> NetResult<()> {
        self.mode = Mode::Record;
        let m = self.inner.sources();
        for origin in 0..m {
            let Some(host) = self.scan.hosts[origin].filter(|_| !self.scan.dead[origin]) else {
                continue;
            };
            let mut answered = self
                .journaled_commands(origin)
                .map(decode_command)
                .collect::<NetResult<Vec<_>>>()?;
            let inflight = (self.scan.cmds[origin] > self.scan.resps[origin])
                .then(|| answered.pop())
                .flatten();
            // The host's own answers are parked behind those replay
            // already buffered, and stay there if the rebuild fails.
            let mut parked = std::mem::replace(&mut self.buffered, vec![VecDeque::new(); m]);
            let rebuilt = self.inner.promote(origin, host).and_then(|()| {
                replay_rounds(
                    self,
                    origin,
                    host,
                    &answered,
                    inflight.as_ref(),
                    &mut parked,
                )
            });
            self.buffered = parked;
            self.scan.dead[origin] = lost(rebuilt)?;
        }
        for i in 0..m {
            if !self.scan.dead[i] {
                self.reconcile_source(i)?;
            }
        }
        self.records = Vec::new();
        Ok(())
    }

    /// Brings source `i` to the journal's boundary in at most two
    /// exchanges. The executor kept its round counter and response cache
    /// across the driver crash. A pending round is reissued: the executor
    /// answers from its cache, or runs the command if it never arrived.
    /// Then one `Resume` checks the executor's round and the fingerprint
    /// of its ledger against the replayed one. A source whose last round
    /// is `Finish` is done once that round is answered: it (or its host's
    /// persona) is gone, and the driver's finish round checks its
    /// counters.
    fn reconcile_source(&mut self, i: usize) -> NetResult<()> {
        let round = self.scan.cmds[i];
        let last = self.journaled_commands(i).next_back();
        let last = last.map(decode_command).transpose()?;
        if round > self.scan.resps[i] {
            let cmd = Box::new(last.clone().expect("a pending round has a command"));
            match self.exchange(i, Command::Reissue { round, cmd })? {
                None => return Ok(()),
                Some(resp) if resp.round() == Some(round) => {}
                Some(other) => return Err(mismatch(i, &other)),
            }
        }
        if matches!(last, Some(Command::Finish { .. })) {
            return Ok(());
        }
        match self.exchange(i, Command::Resume { round })? {
            None => Ok(()),
            Some(Response::Resumed {
                round: r,
                fingerprint,
            }) => {
                let (up, down) = (self.stats.uplink_bits(i), self.stats.downlink_bits(i));
                let want = state_fingerprint(round, up, down);
                if (r, fingerprint) == (round, want) {
                    return Ok(());
                }
                Err(jerr(format!(
                    "source {i} resumed at round {r} with state fingerprint {fingerprint:#x}; \
                     the journal holds round {round}, fingerprint {want:#x}"
                )))
            }
            Some(other) => Err(mismatch(i, &other)),
        }
    }

    /// Sends `cmd` to reconciling source `i` and takes its first answer
    /// that is not a later copy of a journaled round. A round's first
    /// answer is journaled, charged and buffered for the driver on the
    /// way. `None` when the source is lost.
    fn exchange(&mut self, i: usize, cmd: Command) -> NetResult<Option<Response>> {
        if lost(self.inner.send(i, &cmd))? {
            return Ok(None);
        }
        loop {
            match self.inner.recv(i)? {
                Response::SourceLost { .. } => return Ok(None),
                resp if resp.round().is_none() => return Ok(Some(resp)),
                resp => {
                    if self.journal_response(i, &resp)? {
                        self.buffered[i].push_back(resp.clone());
                        return Ok(Some(resp));
                    }
                }
            }
        }
    }
}

/// The driver's `call` that `record` does not match: the run diverged
/// from its journal.
fn diverged(call: &str, record: &JournalEntry) -> NetError {
    jerr(format!(
        "driver {call} but the journal holds {} — the run diverged from its journal",
        record.describe()
    ))
}

/// A reconciling source's answer that the journal cannot account for.
fn mismatch(i: usize, resp: &Response) -> NetError {
    match resp {
        Response::Err { reason } => jerr(format!("source {i} failed during resume: {reason}")),
        other => jerr(format!(
            "unexpected {} from source {i} during resume",
            other.name()
        )),
    }
}

impl<T: CommandTransport> CommandTransport for JournalingTransport<T> {
    fn sources(&self) -> usize {
        self.inner.sources()
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> NetResult<()> {
        match self.mode {
            Mode::Record => self.record_send(source, enc),
            Mode::Replay => self.replay_send(source, enc),
        }
    }

    fn recv(&mut self, source: usize) -> NetResult<Response> {
        if let Some(resp) = self.buffered[source].pop_front() {
            return Ok(resp);
        }
        match self.mode {
            Mode::Record => self.record_recv(source),
            Mode::Replay => self.replay_recv(source),
        }
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }

    fn promote(&mut self, origin: usize, host: usize) -> NetResult<()> {
        match self.mode {
            Mode::Record => self.record_promote(origin, host),
            Mode::Replay => self.replay_promote(origin, host),
        }
    }

    fn replaying(&self) -> bool {
        matches!(self.mode, Mode::Replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_roundtrip_bitwise() {
        let entries = vec![
            JournalEntry::Cmd {
                source: 3,
                bytes: Command::Describe.encode(),
            },
            JournalEntry::Resp {
                source: 3,
                bytes: Response::Done {
                    round: 1,
                    rows: 10,
                    cols: 4,
                    ops: 7,
                    seconds: 0.5,
                }
                .encode(),
            },
            JournalEntry::Lost {
                source: 1,
                via_send: true,
                reason: "socket closed".to_string(),
            },
        ];
        let mut buf = Vec::new();
        for e in &entries {
            e.write_to(&mut buf).unwrap();
        }
        let mut cur = &buf[..];
        for e in &entries {
            assert_eq!(read_entry(&mut cur).unwrap().as_ref(), Some(e));
        }
        assert_eq!(read_entry(&mut cur).unwrap(), None);
    }

    #[test]
    fn torn_tail_is_a_typed_error() {
        let mut buf = Vec::new();
        JournalEntry::Lost {
            source: 0,
            via_send: false,
            reason: "x".to_string(),
        }
        .write_to(&mut buf)
        .unwrap();
        for cut in 1..buf.len() {
            let mut cur = &buf[..cut];
            match read_entry(&mut cur) {
                Err(CoreError::Journal { .. }) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn header_roundtrip_and_foreign_files_rejected() {
        let h = JournalHeader {
            sources: 4,
            fingerprint: 0xdead_beef,
        };
        let mut buf = Vec::new();
        write_header(&mut buf, &h).unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_header(&mut cur).unwrap(), h);
        let mut not_a_journal = &b"not a journal at all"[..];
        assert!(matches!(
            read_header(&mut not_a_journal),
            Err(CoreError::Journal { .. })
        ));
    }

    /// A transport that only knows its source count: a rejected journal
    /// must fail `resume` before any wire I/O.
    struct Offline(NetworkStats);

    impl CommandTransport for Offline {
        fn sources(&self) -> usize {
            self.0.sources()
        }
        fn send_encoded(
            &mut self,
            _: usize,
            _: &EncodedCommand,
        ) -> std::result::Result<(), NetError> {
            unreachable!("resume must not send")
        }
        fn recv(&mut self, _: usize) -> std::result::Result<Response, NetError> {
            unreachable!("resume must not receive")
        }
        fn stats(&self) -> &NetworkStats {
            &self.0
        }
    }

    #[test]
    fn out_of_range_ids_are_typed_errors() {
        let cmd = |source| JournalEntry::Cmd {
            source,
            bytes: Command::Describe.encode(),
        };
        let resp = JournalEntry::Resp {
            source: 2,
            bytes: Response::Done {
                round: 1,
                rows: 1,
                cols: 1,
                ops: 1,
                seconds: 0.0,
            }
            .encode(),
        };
        let lost = JournalEntry::Lost {
            source: 9,
            via_send: false,
            reason: "gone".to_string(),
        };
        let cases = [
            (cmd(5), "(command) names source 5"),
            (resp, "(response) names source 2"),
            (lost, "(loss) names source 9"),
            (
                JournalEntry::Promoted { origin: 3, host: 0 },
                "(promotion) names origin 3",
            ),
            (
                JournalEntry::Promoted { origin: 0, host: 7 },
                "(promotion) names host 7",
            ),
        ];
        for (case, (bad, want)) in cases.into_iter().enumerate() {
            let path = std::env::temp_dir()
                .join(format!("ekm-bad-ids-{}-{case}.journal", std::process::id()));
            let mut buf = Vec::new();
            write_header(
                &mut buf,
                &JournalHeader {
                    sources: 2,
                    fingerprint: 7,
                },
            )
            .unwrap();
            for e in [cmd(1), bad] {
                e.write_to(&mut buf).unwrap();
            }
            std::fs::write(&path, &buf).unwrap();
            let resumed = JournalingTransport::resume(Offline(NetworkStats::new(2)), &path, 7);
            for got in [absorbed_origins(&path).err(), resumed.err()] {
                match got {
                    Some(CoreError::Journal { reason }) => {
                        assert!(reason.contains(&format!("record 1 {want}")), "{reason}")
                    }
                    other => panic!("case {case}: {other:?}"),
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_failed_append_ends_the_run_as_a_journal_failure() {
        let path =
            std::env::temp_dir().join(format!("ekm-read-only-{}.journal", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let read_only = BufWriter::new(File::open(&path).unwrap());
        // The executors never run: the first append fails before any
        // round reaches them.
        let (hub, _endpoints) = ekm_net::protocol::channel_pairs(2);
        let mut net = JournalingTransport::build(hub, read_only, Vec::new(), Mode::Record);
        let pipe =
            crate::StagePipeline::from_names("jl", crate::SummaryParams::practical(2, 40, 4))
                .unwrap();
        let err = pipe.run_driver(&mut net).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        match err {
            CoreError::Journal { reason } => {
                assert!(reason.starts_with("cannot append a record"), "{reason}")
            }
            other => panic!("expected a journal failure, got {other:?}"),
        }
    }

    #[test]
    fn absorbed_origins_skips_failed_attempts_and_dedupes() {
        let path =
            std::env::temp_dir().join(format!("ekm-absorbed-scan-{}.journal", std::process::id()));
        let mut buf = Vec::new();
        write_header(
            &mut buf,
            &JournalHeader {
                sources: 4,
                fingerprint: 0xfeed,
            },
        )
        .unwrap();
        let records = [
            // A failed attempt: the host was lost on the very next
            // send, so origin 1 is *not* absorbed by host 2…
            promoted(1, 2),
            lost(2, true),
            // …but the retry onto host 3 sticks (and host 2's own
            // death later makes origin 2 promotable too).
            promoted(1, 3),
            promoted(2, 3),
        ];
        for e in &records {
            e.write_to(&mut buf).unwrap();
        }
        std::fs::write(&path, &buf).unwrap();
        assert_eq!(absorbed_origins(&path).unwrap(), vec![1, 2]);
        std::fs::remove_file(&path).unwrap();
        // The scan agrees: hosts for exactly the absorbed origins, each
        // the host of its last successful promotion.
        assert_eq!(scan(&records, 4).hosts, [None, Some(3), Some(3), None]);
    }

    // The scan reads no record bodies, so these are empty.
    fn cmd(source: u32) -> JournalEntry {
        JournalEntry::Cmd {
            source,
            bytes: Vec::new(),
        }
    }

    fn resp(source: u32) -> JournalEntry {
        JournalEntry::Resp {
            source,
            bytes: Vec::new(),
        }
    }

    fn lost(source: u32, via_send: bool) -> JournalEntry {
        JournalEntry::Lost {
            source,
            via_send,
            reason: "gone".to_string(),
        }
    }

    fn promoted(origin: u32, host: u32) -> JournalEntry {
        JournalEntry::Promoted { origin, host }
    }

    #[test]
    fn scan_reads_counts_degradation_and_hosts_off_the_records() {
        // (records, cmds, resps, dead, hosts) over three sources.
        let cases = [
            // One receive-side loss earns a reissue; its answer arrives.
            (
                vec![cmd(0), lost(0, false), resp(0)],
                [1, 0, 0],
                [1, 0, 0],
                [false; 3],
                [None; 3],
            ),
            // A second receive-side loss in a row degrades the source.
            (
                vec![cmd(0), resp(0), cmd(0), lost(0, false), lost(0, false)],
                [2, 0, 0],
                [1, 0, 0],
                [true, false, false],
                [None; 3],
            ),
            // So does a send-side loss.
            (
                vec![cmd(0), cmd(1), lost(1, true)],
                [1, 1, 0],
                [0; 3],
                [false, true, false],
                [None; 3],
            ),
            // A failed promotion, then a retry that sticks: the origin
            // is live on the retry's host, the failed host degraded.
            (
                vec![
                    cmd(0),
                    lost(0, false),
                    lost(0, false),
                    promoted(0, 1),
                    lost(1, true),
                    promoted(0, 2),
                    resp(0),
                ],
                [1, 0, 0],
                [1, 0, 0],
                [false, true, false],
                [Some(2), None, None],
            ),
            // A failed promotion with no retry: the origin degraded,
            // with no host.
            (
                vec![
                    cmd(0),
                    lost(0, false),
                    lost(0, false),
                    promoted(0, 1),
                    lost(1, true),
                ],
                [1, 0, 0],
                [0; 3],
                [true, true, false],
                [None; 3],
            ),
        ];
        for (k, (records, cmds, resps, dead, hosts)) in cases.into_iter().enumerate() {
            let want = Scan {
                cmds: cmds.to_vec(),
                resps: resps.to_vec(),
                dead: dead.to_vec(),
                hosts: hosts.to_vec(),
            };
            assert_eq!(scan(&records, 3), want, "case {k}");
        }
    }

    #[test]
    fn a_loss_on_either_side_after_a_promotion_fails_the_attempt() {
        // The host acked the promotion and was lost while the persona
        // was rebuilt (receive side), or a replayed round could not be
        // sent to it (send side): either way the origin stays dead and
        // unabsorbed, and the host is degraded with it.
        for via_send in [false, true] {
            let records = vec![
                cmd(0),
                lost(0, false),
                lost(0, false),
                promoted(0, 1),
                lost(1, via_send),
            ];
            assert_eq!(
                failed_promotion(&records, 3),
                Some(4),
                "via_send {via_send}"
            );
            let want = Scan {
                cmds: vec![1, 0, 0],
                resps: vec![0; 3],
                dead: vec![true, true, false],
                hosts: vec![None; 3],
            };
            assert_eq!(scan(&records, 3), want, "via_send {via_send}");
        }
        // The host's own answers, harvested mid-rebuild, may sit between
        // the promotion and the loss; anything else ends the attempt as
        // a success, and so does another source's loss.
        let records = [promoted(0, 1), resp(1), resp(1), lost(1, false)];
        assert_eq!(failed_promotion(&records, 0), Some(3));
        assert_eq!(scan(&records, 3).hosts, [None; 3]);
        for records in [
            [promoted(0, 1), resp(1), resp(0), lost(1, false)],
            [promoted(0, 1), resp(1), cmd(1), lost(1, false)],
            [promoted(0, 1), resp(1), lost(2, false), lost(1, false)],
        ] {
            assert_eq!(failed_promotion(&records, 0), None, "{records:?}");
            assert_eq!(scan(&records, 3).hosts, [Some(1), None, None]);
        }
    }
}
