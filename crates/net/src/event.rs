//! Event-driven `std::net` backend for the server-driven protocol.
//!
//! After a command fan-out, responses arrive whenever each source
//! finishes its local compute, in no fixed order. This backend therefore
//! runs the whole server side in **one thread** with non-blocking
//! sockets, multiplexed by a readiness [`Reactor`]: on Linux `epoll`
//! wakes the thread the moment any connection has bytes (or the
//! deadline-derived timeout expires), ready connections are pumped
//! through per-source frame reassembly
//! ([`crate::frame::FrameAssembler`]) into per-source inboxes, and
//! [`EventTcpServer::recv`] drains the inbox it was asked for — so a
//! slow source never blocks the harvest of the others, without a thread
//! per connection. A frame larger than the assembler's ring is read into
//! a buffer of its own and decoded in place
//! ([`Response::decode_owned`]): an upload's payload is written once on
//! the server, by the reads that bring it.
//!
//! Sources stay blocking ([`EventTcpSource`]): each one strictly
//! alternates "read a command, compute, write the response", so there is
//! nothing for it to multiplex. A response goes out in one vectored
//! write, its payload straight from the executor's shared encoding
//! ([`Response::write_frame`]).
//!
//! Every connection opens with a hello frame carrying a magic number,
//! the protocol version, a role byte, the source id and count, and the
//! run-configuration [`fingerprint`], so a peer launched with a
//! different configuration fails the handshake with a typed error
//! instead of diverging mid-run. At shutdown the driver announces the
//! run's [`RunDigest`] and every source checks its own ledger against it.

use crate::fnv::Fnv;
use crate::frame::{
    expect_frame, note_single_write_frame, write_frame, FrameAssembler, FRAME_CMD, FRAME_HELLO,
    FRAME_RESP,
};
use crate::network::NetworkStats;
use crate::protocol::{
    charge_command, charge_response, check_source, Command, CommandTransport, DeadlinePolicy,
    EncodedCommand, Response, SourceEndpoint,
};
use crate::reactor::{park, Event, Reactor};
use crate::{NetError, Result};
use ekm_linalg::Matrix;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const MAGIC: u32 = 0x454B_4D31; // "EKM1"
const VERSION: u16 = 1;
/// Hello role byte of a protocol source.
pub(crate) const ROLE_PROTO_SOURCE: u8 = 2;
/// Hello role byte of a protocol server.
pub(crate) const ROLE_PROTO_SERVER: u8 = 3;

/// Per-read/write socket timeout. Generous because legitimate gaps are
/// compute (a source may run a local SVD between frames), but bounded
/// so a hung peer fails a CI run instead of wedging it. Alias of
/// [`DeadlinePolicy::DEFAULT_IO`] so one knob governs every deadline.
const IO_TIMEOUT: Duration = DeadlinePolicy::DEFAULT_IO;

pub(crate) fn transport_err(context: &'static str, e: std::io::Error) -> NetError {
    NetError::Transport {
        context,
        detail: e.to_string(),
    }
}

/// The instant `d` from now, or `None` when that lies beyond the
/// clock's range: such a deadline never expires.
fn deadline_in(d: Duration) -> Option<Instant> {
    Instant::now().checked_add(d)
}

/// Time left until `deadline` — zero once it has passed,
/// `Duration::MAX` for one that never expires.
fn time_left(deadline: Option<Instant>) -> Duration {
    deadline.map_or(Duration::MAX, |d| {
        d.saturating_duration_since(Instant::now())
    })
}

fn configure(stream: &TcpStream, io: Duration) -> Result<()> {
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(io)))
        .and_then(|()| stream.set_write_timeout(Some(io)))
        .map_err(|e| transport_err("socket configuration", e))
}

/// Hashes a canonical run-configuration string into the fingerprint both
/// ends present during the handshake (FNV-1a 64). Server and sources must
/// be launched with equivalent configurations — the fingerprint turns a
/// mismatch into an immediate handshake error instead of a divergence
/// mid-run.
pub fn fingerprint(config: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(config.as_bytes());
    h.finish()
}

fn encode_hello(role: u8, source_id: u32, sources: u32, fp: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(23);
    p.extend_from_slice(&MAGIC.to_be_bytes());
    p.extend_from_slice(&VERSION.to_be_bytes());
    p.push(role);
    p.extend_from_slice(&source_id.to_be_bytes());
    p.extend_from_slice(&sources.to_be_bytes());
    p.extend_from_slice(&fp.to_be_bytes());
    p
}

fn decode_hello(payload: &[u8]) -> Result<(u8, u32, u32, u64)> {
    if payload.len() != 23 {
        return Err(NetError::Handshake {
            reason: format!("hello frame of {} bytes (expected 23)", payload.len()),
        });
    }
    let magic = u32::from_be_bytes(payload[0..4].try_into().expect("4 bytes"));
    let version = u16::from_be_bytes(payload[4..6].try_into().expect("2 bytes"));
    if magic != MAGIC {
        return Err(NetError::Handshake {
            reason: format!("bad magic {magic:#x}"),
        });
    }
    if version != VERSION {
        return Err(NetError::Handshake {
            reason: format!("protocol version {version} (expected {VERSION})"),
        });
    }
    let role = payload[6];
    let source_id = u32::from_be_bytes(payload[7..11].try_into().expect("4 bytes"));
    let sources = u32::from_be_bytes(payload[11..15].try_into().expect("4 bytes"));
    let fp = u64::from_be_bytes(payload[15..23].try_into().expect("8 bytes"));
    Ok((role, source_id, sources, fp))
}

/// Summary of a completed run, announced at shutdown so both ends verify
/// they observed the *same* run: total bits each way plus a hash of the
/// final centers' exact bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Total uplink bits over all sources.
    pub uplink_bits: u64,
    /// Total downlink bits over all sources.
    pub downlink_bits: u64,
    /// FNV-1a hash of the result matrix's shape and `f64` bit patterns.
    pub centers_hash: u64,
}

impl RunDigest {
    /// Builds the digest of a finished run from its final statistics and
    /// centers.
    pub fn new(stats: &NetworkStats, centers: &Matrix) -> RunDigest {
        RunDigest {
            uplink_bits: stats.total_uplink_bits(),
            downlink_bits: stats.total_downlink_bits(),
            centers_hash: hash_matrix(centers),
        }
    }
}

/// FNV-1a over a matrix's shape and raw `f64` bit patterns, each as 8
/// big-endian bytes — equal iff the matrices are bit-identical (NaN
/// payloads included).
fn hash_matrix(m: &Matrix) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(&(m.rows() as u64).to_be_bytes());
    h.write_bytes(&(m.cols() as u64).to_be_bytes());
    for &x in m.as_slice() {
        h.write_bytes(&x.to_bits().to_be_bytes());
    }
    h.finish()
}

/// Read chunks one connection may pull per pump call: a firehose
/// connection yields the cycle after this many reads so every other
/// ready connection gets a turn (level-triggered readiness re-reports
/// whatever it left buffered).
const PUMP_CHUNKS: usize = 32;

/// A bound listener for the protocol backend. The two-step construction
/// lets a CLI print "listening on …" before blocking in
/// [`EventServerBinding::accept`].
#[derive(Debug)]
pub struct EventServerBinding {
    listener: TcpListener,
}

impl EventServerBinding {
    /// Binds the listening socket (`"127.0.0.1:0"` picks a free port).
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] on bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<EventServerBinding> {
        let listener = TcpListener::bind(addr).map_err(|e| transport_err("bind", e))?;
        Ok(EventServerBinding { listener })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if the socket address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| transport_err("local_addr", e))
    }

    /// Accepts and handshakes exactly `sources` protocol sources,
    /// consuming the listener. Validation: magic/version, the source
    /// role byte, matching source count and configuration fingerprint,
    /// unique in-range source ids.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] on socket failures (a refused epoll
    /// instance included), [`NetError::Handshake`] on protocol
    /// violations.
    pub fn accept(self, sources: usize, fp: u64) -> Result<EventTcpServer> {
        self.accept_absent(sources, fp, &[])
    }

    /// [`accept`](Self::accept), but the ids in `absent` are expected
    /// to never connect: their shard owners died before a resume and
    /// their rounds run through a replica host's connection instead
    /// (`ekm serve --resume` learns the set from the journal's
    /// promotion records). An absent source's slot is born closed, so
    /// any read of it yields the same typed `SourceLost` a mid-run
    /// disconnect does; a process that tries to handshake under an
    /// absent id is rejected, because the run's state for that origin
    /// lives on its host now.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] on socket failures, [`NetError::Handshake`]
    /// on protocol violations (including an absent id reconnecting).
    pub fn accept_absent(
        self,
        sources: usize,
        fp: u64,
        absent: &[usize],
    ) -> Result<EventTcpServer> {
        assert!(sources > 0, "server needs at least one source");
        let mut reactor = Reactor::new()?;
        let mut conns: Vec<Option<Conn>> = (0..sources).map(|_| None).collect();
        let mut connected = 0;
        for &id in absent {
            assert!(id < sources, "absent id {id} out of range");
            if conns[id].is_none() {
                conns[id] = Some(Conn::absent());
                connected += 1;
            }
        }
        assert!(
            connected < sources,
            "at least one source must actually connect"
        );
        while connected < sources {
            let (mut stream, _) = self
                .listener
                .accept()
                .map_err(|e| transport_err("accept", e))?;
            configure(&stream, IO_TIMEOUT)?;
            let (payload, _) = expect_frame(&mut stream, FRAME_HELLO)?;
            let (role, source_id, m, got_fp) = decode_hello(&payload)?;
            if role != ROLE_PROTO_SOURCE {
                return Err(NetError::Handshake {
                    reason: format!("unexpected role {role} in source hello"),
                });
            }
            if m as usize != sources {
                return Err(NetError::Handshake {
                    reason: format!("source expects {m} sources, server has {sources}"),
                });
            }
            if got_fp != fp {
                return Err(NetError::Handshake {
                    reason: format!(
                        "configuration fingerprint mismatch \
                         (server {fp:#018x}, source {got_fp:#018x})"
                    ),
                });
            }
            let id = source_id as usize;
            if id >= sources {
                return Err(NetError::Handshake {
                    reason: format!("source id {id} out of range (sources: {sources})"),
                });
            }
            if conns[id].is_some() {
                let reason = if absent.contains(&id) {
                    format!(
                        "source id {id} was absorbed by its replica host before the \
                         resume and cannot rejoin"
                    )
                } else {
                    format!("duplicate source id {id}")
                };
                return Err(NetError::Handshake { reason });
            }
            let ack = encode_hello(ROLE_PROTO_SERVER, source_id, sources as u32, fp);
            write_frame(&mut stream, FRAME_HELLO, &ack, ack.len() * 8)?;
            stream
                .set_nonblocking(true)
                .map_err(|e| transport_err("set_nonblocking", e))?;
            reactor.register(stream.as_raw_fd(), id)?;
            conns[id] = Some(Conn::new(stream));
            connected += 1;
        }
        Ok(EventTcpServer {
            conns: conns
                .into_iter()
                .map(|c| c.expect("all connected"))
                .collect(),
            stats: NetworkStats::new(sources),
            deadline: DeadlinePolicy::default(),
            reactor,
            events: Vec::new(),
        })
    }
}

/// One non-blocking source connection: ring-buffer frame reassembly
/// plus an inbox of complete, decoded responses. A source declared
/// absent at accept time ([`EventServerBinding::accept_absent`]) has no
/// stream at all and behaves like a connection that closed before the
/// first byte.
#[derive(Debug)]
struct Conn {
    stream: Option<TcpStream>,
    asm: FrameAssembler,
    inbox: VecDeque<Response>,
    closed: bool,
    absent: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Some(stream),
            asm: FrameAssembler::new(),
            inbox: VecDeque::new(),
            closed: false,
            absent: false,
        }
    }

    /// A source that will never connect (absorbed by its replica host
    /// before a resume): born closed, so a read maps to the same typed
    /// `SourceLost` a mid-run disconnect produces.
    fn absent() -> Conn {
        Conn {
            stream: None,
            asm: FrameAssembler::new(),
            inbox: VecDeque::new(),
            closed: true,
            absent: true,
        }
    }

    /// Reads whatever bytes are ready — directly into the reassembler,
    /// at most [`PUMP_CHUNKS`] reads — and parses the frames each read
    /// completes into the inbox. Returns `true` if any byte arrived.
    fn pump(&mut self, source: usize) -> Result<bool> {
        if self.closed {
            return Ok(false);
        }
        let stream = self.stream.as_mut().expect("an open conn has a stream");
        let mut progress = false;
        let mut budget = PUMP_CHUNKS;
        while budget > 0 {
            match stream.read(self.asm.spare()) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.asm.commit(n);
                    progress = true;
                    budget -= 1;
                    parse_frames(&mut self.asm, &mut self.inbox, source)?;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // A peer that died with traffic in flight surfaces as a
                // reset, not a clean EOF — same typed loss either way,
                // so the driver can reissue or promote around it.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                    ) =>
                {
                    self.closed = true;
                    break;
                }
                Err(e) => return Err(transport_err("protocol read", e)),
            }
        }
        Ok(progress)
    }
}

/// Drains every complete frame out of `asm` into `inbox`, decoding each
/// in the buffer it arrived in (after every read, so the assembler's
/// ring always has room for the next one).
fn parse_frames(
    asm: &mut FrameAssembler,
    inbox: &mut VecDeque<Response>,
    source: usize,
) -> Result<()> {
    while let Some((kind, payload, _bits)) = asm.next_frame().map_err(|e| match e {
        NetError::Transport { context, detail } => NetError::Transport {
            context,
            detail: format!("{detail} (from source {source})"),
        },
        other => other,
    })? {
        if kind != FRAME_RESP {
            return Err(NetError::ProtocolViolation {
                context: "protocol server read",
                expected: "a response frame",
                got: format!("frame kind {kind} from source {source}"),
            });
        }
        inbox.push_back(Response::decode_owned(payload)?);
    }
    Ok(())
}

/// The server end of an event-driven protocol run: every source
/// connection multiplexed in the calling thread by a readiness reactor,
/// responses harvested in arrival order into per-source inboxes.
#[derive(Debug)]
pub struct EventTcpServer {
    conns: Vec<Conn>,
    stats: NetworkStats,
    deadline: DeadlinePolicy,
    reactor: Reactor,
    events: Vec<Event>,
}

impl EventTcpServer {
    /// Pumps one connection and, the moment it is observed closed,
    /// deregisters its fd — a closed fd stays level-triggered-readable
    /// forever, so leaving it registered would spin every later wait.
    fn pump_conn(&mut self, source: usize) -> Result<bool> {
        if source >= self.conns.len() {
            return Ok(false);
        }
        let progress = self.conns[source].pump(source)?;
        if self.conns[source].closed {
            if let Some(stream) = self.conns[source].stream.take() {
                self.reactor.deregister(stream.as_raw_fd())?;
            }
        }
        Ok(progress)
    }

    /// One reactor cycle: wait up to `timeout` for readiness, pump every
    /// readable connection. Returns `true` if any byte arrived. The
    /// ready set (including write-readiness) is left in `self.events`
    /// for the caller to inspect.
    fn sweep(&mut self, timeout: Option<Duration>) -> Result<bool> {
        let mut events = std::mem::take(&mut self.events);
        if let Err(e) = self.reactor.wait(timeout, &mut events) {
            self.events = events;
            return Err(e);
        }
        let mut progress = false;
        let mut failure = None;
        for ev in &events {
            if ev.readable {
                match self.pump_conn(ev.token) {
                    Ok(p) => progress |= p,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
        }
        self.events = events;
        match failure {
            Some(e) => Err(e),
            None => Ok(progress),
        }
    }

    /// Writes one pre-framed buffer to a source despite the non-blocking
    /// socket: on backpressure, write interest is registered and the
    /// reactor waits for write readiness (harvesting other sources'
    /// responses meanwhile), bounded by the I/O deadline.
    fn write_frame_to(&mut self, source: usize, buf: &[u8]) -> Result<()> {
        let deadline = deadline_in(self.deadline.io);
        let mut written = 0;
        let mut interest = false;
        let result = loop {
            let write_res = match self.conns[source].stream.as_mut() {
                Some(stream) => {
                    if written == buf.len() {
                        break stream
                            .flush()
                            .map_err(|e| transport_err("protocol flush", e));
                    }
                    stream.write(&buf[written..])
                }
                None => {
                    break Err(NetError::Transport {
                        context: "protocol write",
                        detail: if self.conns[source].absent {
                            "source is absent (absorbed before the resume)".to_string()
                        } else {
                            format!("source {source} connection is closed")
                        },
                    })
                }
            };
            match write_res {
                Ok(0) => {
                    break Err(NetError::Transport {
                        context: "protocol write",
                        detail: "connection closed mid-frame".to_string(),
                    })
                }
                Ok(n) => {
                    if written == 0 && n == buf.len() && buf.len() > 9 {
                        note_single_write_frame();
                    }
                    written += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let left = time_left(deadline);
                    if left.is_zero() {
                        break Err(NetError::Transport {
                            context: "protocol write",
                            detail: "write timed out".to_string(),
                        });
                    }
                    if !interest {
                        if let Some(fd) = self.conns[source].stream.as_ref().map(|s| s.as_raw_fd())
                        {
                            if let Err(e) = self.reactor.set_write_interest(fd, source, true) {
                                break Err(e);
                            }
                            interest = true;
                        }
                        continue;
                    }
                    // Wait for write readiness; readable peers get
                    // pumped on the way (their responses just land in
                    // their inboxes), so a backpressured send cannot
                    // deadlock against a source mid-response.
                    if let Err(e) = self.sweep(Some(left)) {
                        break Err(e);
                    }
                    self.reactor.idle();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(transport_err("protocol write", e)),
            }
        };
        if interest {
            if let Some(fd) = self.conns[source].stream.as_ref().map(|s| s.as_raw_fd()) {
                // Best-effort: the fd may have been reaped mid-write.
                let _ = self.reactor.set_write_interest(fd, source, false);
            }
        }
        result
    }
}

impl CommandTransport for EventTcpServer {
    fn sources(&self) -> usize {
        self.conns.len()
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<()> {
        check_source(source, self.sources())?;
        charge_command(&mut self.stats, source, enc.command())?;
        self.write_frame_to(source, enc.frame_bytes())
    }

    fn recv(&mut self, source: usize) -> Result<Response> {
        check_source(source, self.sources())?;
        let deadline = deadline_in(self.deadline.command);
        loop {
            if let Some(resp) = self.conns[source].inbox.pop_front() {
                charge_response(&mut self.stats, source, &resp)?;
                return Ok(resp);
            }
            // A vanished or stalled source is a *typed* loss the driver
            // can degrade around, not a transport error.
            if self.conns[source].closed {
                return Ok(Response::SourceLost {
                    reason: format!("source {source} disconnected mid-run"),
                });
            }
            let progress = self.sweep(Some(time_left(deadline)))?;
            if !progress {
                if time_left(deadline).is_zero() {
                    return Ok(Response::SourceLost {
                        reason: format!(
                            "source {source} missed the {:?} command deadline",
                            self.deadline.command
                        ),
                    });
                }
                self.reactor.idle();
            }
        }
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.deadline = policy;
    }
}

/// The source end of an event-driven protocol run: a blocking
/// connection that strictly alternates command reads and response
/// writes.
#[derive(Debug)]
pub struct EventTcpSource {
    me: usize,
    stream: TcpStream,
}

impl EventTcpSource {
    /// Connects to a protocol server at `addr` and handshakes as
    /// `source_id` of `sources`, retrying for up to `retry_for` with the
    /// default [`DeadlinePolicy`]'s retry backoff.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if no connection succeeds within
    /// `retry_for`; [`NetError::Handshake`] on parameter or fingerprint
    /// mismatches (a stale source fails here, before any data moves).
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        source_id: usize,
        sources: usize,
        fp: u64,
        retry_for: Duration,
    ) -> Result<EventTcpSource> {
        Self::connect_with_policy(
            addr,
            source_id,
            sources,
            fp,
            retry_for,
            DeadlinePolicy::default(),
        )
    }

    /// [`EventTcpSource::connect`] with the retry backoff derived from
    /// `policy` ([`DeadlinePolicy::retry_backoff`]) instead of the
    /// default — a `--deadline-ms`-tightened run reconnects during
    /// `--resume` recovery at a matching cadence rather than the former
    /// hard-coded 100ms sleep. The wait itself goes through the
    /// reactor's [`park`], the one sleep site in this crate.
    ///
    /// # Errors
    ///
    /// See [`EventTcpSource::connect`].
    pub fn connect_with_policy<A: ToSocketAddrs>(
        addr: A,
        source_id: usize,
        sources: usize,
        fp: u64,
        retry_for: Duration,
        policy: DeadlinePolicy,
    ) -> Result<EventTcpSource> {
        assert!(source_id < sources, "source id out of range");
        let deadline = deadline_in(retry_for);
        let backoff = policy.retry_backoff();
        let mut stream = loop {
            match TcpStream::connect(&addr) {
                Ok(s) => break s,
                Err(e) => {
                    if time_left(deadline).is_zero() {
                        return Err(transport_err("connect", e));
                    }
                    park(backoff);
                }
            }
        };
        configure(&stream, IO_TIMEOUT)?;
        let hello = encode_hello(ROLE_PROTO_SOURCE, source_id as u32, sources as u32, fp);
        write_frame(&mut stream, FRAME_HELLO, &hello, hello.len() * 8)?;
        let (ack, _) = expect_frame(&mut stream, FRAME_HELLO)?;
        let (role, echoed_id, m, got_fp) = decode_hello(&ack)?;
        if role != ROLE_PROTO_SERVER || echoed_id as usize != source_id || m as usize != sources {
            return Err(NetError::Handshake {
                reason: "server ack disagrees with the source parameters".to_string(),
            });
        }
        if got_fp != fp {
            return Err(NetError::Handshake {
                reason: format!(
                    "configuration fingerprint mismatch \
                     (source {fp:#018x}, server {got_fp:#018x})"
                ),
            });
        }
        Ok(EventTcpSource {
            me: source_id,
            stream,
        })
    }

    /// The source id this endpoint handshook as.
    pub fn source_id(&self) -> usize {
        self.me
    }
}

impl SourceEndpoint for EventTcpSource {
    fn recv_command(&mut self) -> Result<Command> {
        let (payload, _) = expect_frame(&mut self.stream, FRAME_CMD)?;
        Command::decode_owned(payload)
    }

    fn send_response(&mut self, resp: Response) -> Result<()> {
        resp.write_frame(&mut self.stream)
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        // Waiting for the *next command* can span several whole rounds
        // (the server may be waiting out and reissuing stragglers), so
        // reads get the idle deadline; writes are pure I/O.
        // Best-effort: a failed reconfigure keeps the old timeouts.
        let _ = self
            .stream
            .set_read_timeout(Some(policy.idle()))
            .and_then(|()| self.stream.set_write_timeout(Some(policy.io)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Message;
    use crate::protocol::Payload;
    use std::thread;

    const FP: u64 = 0xBEEF_CAFE;

    fn pair(sources: usize) -> (EventTcpServer, Vec<EventTcpSource>) {
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..sources)
                .map(|i| {
                    scope.spawn(move || {
                        EventTcpSource::connect(addr, i, sources, FP, Duration::from_secs(5))
                            .unwrap()
                    })
                })
                .collect();
            let server = binding.accept(sources, FP).unwrap();
            (
                server,
                handles.into_iter().map(|h| h.join().unwrap()).collect(),
            )
        })
    }

    #[test]
    fn command_response_roundtrip_with_charging() {
        let (mut server, mut sources) = pair(2);
        let msg = Message::CostReport { cost: 2.5 };
        let payload = Payload::of(&msg);
        let bits = payload.bits();

        let handle = thread::spawn(move || {
            for src in &mut sources {
                let cmd = src.recv_command().unwrap();
                assert_eq!(cmd, Command::Stage { index: 1 });
                src.send_response(Response::Up {
                    round: 1,
                    payload: Payload::of(&Message::CostReport { cost: 2.5 }),
                    ops: 7,
                    seconds: 0.0,
                })
                .unwrap();
            }
            sources
        });

        for i in 0..2 {
            server.send(i, &Command::Stage { index: 1 }).unwrap();
        }
        // Harvest in reverse order: the reactor buffers out-of-order
        // arrivals per source.
        for i in [1usize, 0] {
            match server.recv(i).unwrap() {
                Response::Up { payload, ops, .. } => {
                    assert_eq!(ops, 7);
                    assert_eq!(payload.decode().unwrap(), msg);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        handle.join().unwrap();
        assert_eq!(server.stats().total_uplink_bits(), 2 * bits);
        assert_eq!(
            server.stats().uplink_bits_by_kind()["cost-report"],
            2 * bits
        );
        assert_eq!(
            server.stats().total_downlink_bits(),
            0,
            "Stage is control-plane"
        );
    }

    #[test]
    fn shared_encoding_is_charged_and_delivered_like_a_plain_send() {
        let (mut server, mut sources) = pair(2);
        let payload = Payload::of(&Message::SampleAllocation { size: 5 });
        let bits = payload.bits();
        let enc = EncodedCommand::new(Command::Deliver { payload });
        let handle = thread::spawn(move || {
            for src in &mut sources {
                let cmd = src.recv_command().unwrap();
                assert!(matches!(cmd, Command::Deliver { .. }));
                src.send_response(Response::Done {
                    round: 1,
                    rows: 0,
                    cols: 0,
                    ops: 0,
                    seconds: 0.0,
                })
                .unwrap();
            }
        });
        // One encoding, two recipients: same bytes, charged per source.
        for i in 0..2 {
            server.send_encoded(i, &enc).unwrap();
            server.recv(i).unwrap();
        }
        handle.join().unwrap();
        assert_eq!(server.stats().total_downlink_bits(), 2 * bits);
    }

    #[test]
    fn deliver_charges_downlink() {
        let (mut server, mut sources) = pair(1);
        let payload = Payload::of(&Message::SampleAllocation { size: 5 });
        let bits = payload.bits();
        let handle = thread::spawn(move || {
            let cmd = sources[0].recv_command().unwrap();
            assert!(matches!(cmd, Command::Deliver { .. }));
            sources[0]
                .send_response(Response::Done {
                    round: 1,
                    rows: 0,
                    cols: 0,
                    ops: 0,
                    seconds: 0.0,
                })
                .unwrap();
        });
        server.send(0, &Command::Deliver { payload }).unwrap();
        server.recv(0).unwrap();
        handle.join().unwrap();
        assert_eq!(server.stats().total_downlink_bits(), bits);
    }

    #[test]
    fn replica_control_plane_transits_the_event_backend() {
        // The failover vocabulary (Promote/Replay/Forward and their
        // acks) must cross the real socket backend like any other
        // frame, charged to the replica ledger and *never* to the
        // classic totals the run digest hashes.
        let (mut server, mut sources) = pair(2);
        let handle = thread::spawn(move || {
            let cmd = sources[1].recv_command().unwrap();
            assert_eq!(cmd, Command::Promote { origin: 0 });
            sources[1]
                .send_response(Response::Promoted {
                    origin: 0,
                    round: 0,
                })
                .unwrap();
            let cmd = sources[1].recv_command().unwrap();
            assert!(matches!(
                cmd,
                Command::Replay {
                    origin: 0,
                    round: 1,
                    ..
                }
            ));
            sources[1]
                .send_response(Response::Replayed {
                    origin: 0,
                    round: 1,
                    fingerprint: 7,
                })
                .unwrap();
            let Command::Forward { origin, cmd } = sources[1].recv_command().unwrap() else {
                panic!("expected a forward-wrapped command");
            };
            assert_eq!(origin, 0);
            assert_eq!(*cmd, Command::Stage { index: 1 });
            sources[1]
                .send_response(Response::Forwarded {
                    origin: 0,
                    resp: Box::new(Response::Done {
                        round: 2,
                        rows: 0,
                        cols: 0,
                        ops: 0,
                        seconds: 0.0,
                    }),
                })
                .unwrap();
            sources
        });

        server.send(1, &Command::Promote { origin: 0 }).unwrap();
        assert!(matches!(
            server.recv(1).unwrap(),
            Response::Promoted { origin: 0, .. }
        ));
        server
            .send(
                1,
                &Command::Replay {
                    origin: 0,
                    round: 1,
                    cmd: Box::new(Command::Stage { index: 0 }),
                },
            )
            .unwrap();
        assert!(matches!(
            server.recv(1).unwrap(),
            Response::Replayed { origin: 0, .. }
        ));
        server
            .send(
                1,
                &Command::Forward {
                    origin: 0,
                    cmd: Box::new(Command::Stage { index: 1 }),
                },
            )
            .unwrap();
        match server.recv(1).unwrap() {
            Response::Forwarded { origin, resp } => {
                assert_eq!(origin, 0);
                assert!(matches!(*resp, Response::Done { round: 2, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        handle.join().unwrap();

        assert_eq!(server.stats().replica_promotions(), 1);
        assert_eq!(server.stats().replayed_rounds(), 1);
        assert!(server.stats().replica_bits() > 0);
        // Stage is control-plane and Done carries no payload: the
        // classic ledgers saw nothing, so a promoted run's digest can
        // stay bit-identical to its never-failed twin.
        assert_eq!(server.stats().total_uplink_bits(), 0);
        assert_eq!(server.stats().total_downlink_bits(), 0);
    }

    #[test]
    fn disconnect_mid_stage_is_source_lost() {
        let (mut server, sources) = pair(1);
        drop(sources); // the source vanishes before answering
        server.send(0, &Command::Describe).ok();
        match server.recv(0).unwrap() {
            Response::SourceLost { reason } => assert!(reason.contains("disconnected")),
            other => panic!("expected SourceLost, got {other:?}"),
        }
    }

    #[test]
    fn missed_deadline_is_source_lost() {
        // The reactor's wait timeout must map to the same typed loss
        // the driver's straggler machinery expects.
        let (mut server, _sources) = pair(1);
        server.set_deadline(DeadlinePolicy::uniform(Duration::from_millis(20)));
        let t0 = Instant::now();
        // The source is alive but never answers: the command deadline
        // trips and the driver gets a typed loss, not a hang.
        match server.recv(0).unwrap() {
            Response::SourceLost { reason } => assert!(reason.contains("deadline"), "{reason}"),
            other => panic!("expected SourceLost, got {other:?}"),
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(19) && elapsed < Duration::from_secs(5),
            "deadline expiry mistimed: {elapsed:?}"
        );
    }

    #[test]
    fn partial_frames_wake_and_reassemble_one_byte_at_a_time() {
        // A response trickling in one byte per write must wake the
        // reactor on every byte and assemble exactly once — the
        // worst-case framing a real network can produce.
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        let trickler = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = encode_hello(ROLE_PROTO_SOURCE, 0, 1, FP);
            write_frame(&mut stream, FRAME_HELLO, &hello, hello.len() * 8).unwrap();
            expect_frame(&mut stream, FRAME_HELLO).unwrap();
            let resp = Response::Up {
                round: 1,
                payload: Payload::of(&Message::CostReport { cost: 4.25 }),
                ops: 3,
                seconds: 0.0,
            };
            let body = resp.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, FRAME_RESP, &body, body.len() * 8).unwrap();
            for byte in wire {
                stream.write_all(&[byte]).unwrap();
                stream.flush().unwrap();
                thread::sleep(Duration::from_micros(200));
            }
            stream
        });
        let mut server = binding.accept(1, FP).unwrap();
        match server.recv(0).unwrap() {
            Response::Up { payload, ops, .. } => {
                assert_eq!(ops, 3);
                assert_eq!(
                    payload.decode().unwrap(),
                    Message::CostReport { cost: 4.25 }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        trickler.join().unwrap();
    }

    #[test]
    fn firehose_source_cannot_starve_a_quiet_one() {
        // Source 0 floods unsolicited responses; source 1 answers once,
        // late. recv(1) must complete while the flood is still running —
        // the bounded pump and per-source inboxes guarantee the quiet
        // source's frame is harvested under pressure.
        let (mut server, mut sources) = pair(2);
        let quiet = sources.pop().unwrap();
        let mut firehose = sources.pop().unwrap();
        let flood = thread::spawn(move || {
            for round in 0..2000u64 {
                firehose
                    .send_response(Response::Up {
                        round,
                        payload: Payload::of(&Message::CostReport { cost: 1.0 }),
                        ops: 1,
                        seconds: 0.0,
                    })
                    .unwrap();
            }
            firehose
        });
        let answer = thread::spawn(move || {
            let mut quiet = quiet;
            thread::sleep(Duration::from_millis(10));
            quiet
                .send_response(Response::Done {
                    round: 9,
                    rows: 0,
                    cols: 0,
                    ops: 0,
                    seconds: 0.0,
                })
                .unwrap();
            quiet
        });
        let t0 = Instant::now();
        match server.recv(1).unwrap() {
            Response::Done { round: 9, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "quiet source starved: {:?}",
            t0.elapsed()
        );
        // The flood was buffered, not lost: drain a few to prove it.
        for _ in 0..3 {
            assert!(matches!(server.recv(0).unwrap(), Response::Up { .. }));
        }
        flood.join().unwrap();
        answer.join().unwrap();
    }

    #[test]
    fn stale_fingerprint_rejected_at_handshake() {
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        let src = thread::spawn(move || {
            EventTcpSource::connect(addr, 0, 1, FP ^ 1, Duration::from_secs(5))
        });
        let err = binding.accept(1, FP).unwrap_err();
        assert!(matches!(err, NetError::Handshake { .. }));
        assert!(src.join().unwrap().is_err());
    }

    #[test]
    fn deadlines_beyond_the_clock_never_expire() {
        // `Duration::MAX` from now overflows `Instant`: the connect
        // window and the send and receive deadlines must read it as
        // "never expires", not panic.
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        let never = DeadlinePolicy::uniform(Duration::MAX);
        let server = thread::spawn(move || {
            let mut server = binding.accept(1, FP).unwrap();
            server.set_deadline(never);
            server.send(0, &Command::Describe).unwrap();
            server.recv(0).unwrap()
        });
        let mut ep = EventTcpSource::connect(addr, 0, 1, FP, Duration::MAX).unwrap();
        ep.set_deadline(never);
        assert_eq!(ep.recv_command().unwrap(), Command::Describe);
        ep.send_response(Response::Done {
            round: 1,
            rows: 4,
            cols: 2,
            ops: 0,
            seconds: 0.0,
        })
        .unwrap();
        let resp = server.join().unwrap();
        assert!(matches!(resp, Response::Done { round: 1, .. }), "{resp:?}");
    }

    #[test]
    fn connect_retry_backoff_derives_from_the_deadline_policy() {
        // No listener: the retry loop must exhaust its window using the
        // policy-derived backoff. With the former hard-coded 100ms sleep
        // a 120ms window allowed at most two attempts; the 20ms policy
        // (1ms backoff) retries densely and still gives up on time.
        let policy = DeadlinePolicy::uniform(Duration::from_millis(20));
        assert_eq!(policy.retry_backoff(), Duration::from_millis(1));
        let t0 = Instant::now();
        let err = EventTcpSource::connect_with_policy(
            "127.0.0.1:1",
            0,
            1,
            FP,
            Duration::from_millis(120),
            policy,
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }), "{err:?}");
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(100) && elapsed < Duration::from_secs(5),
            "retry window not honored: {elapsed:?}"
        );
    }

    #[test]
    fn a_foreign_role_fails_the_handshake() {
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        let src = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = encode_hello(ROLE_PROTO_SERVER, 0, 1, FP);
            write_frame(&mut stream, FRAME_HELLO, &hello, hello.len() * 8).unwrap();
        });
        let err = binding.accept(1, FP).unwrap_err();
        assert!(
            matches!(err, NetError::Handshake { ref reason } if reason.contains("role")),
            "{err:?}"
        );
        src.join().unwrap();
    }

    #[test]
    fn hello_validation() {
        assert!(decode_hello(&[0; 5]).is_err());
        let mut ok = encode_hello(ROLE_PROTO_SOURCE, 1, 4, 9);
        assert_eq!(decode_hello(&ok).unwrap(), (ROLE_PROTO_SOURCE, 1, 4, 9));
        ok[0] ^= 0xFF; // corrupt magic
        assert!(matches!(decode_hello(&ok), Err(NetError::Handshake { .. })));
    }

    #[test]
    fn digest_reflects_bit_identity() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut b = a.clone();
        let stats = NetworkStats::new(1);
        assert_eq!(RunDigest::new(&stats, &a), RunDigest::new(&stats, &b));
        b.as_mut_slice()[0] += 1e-12;
        assert_ne!(
            RunDigest::new(&stats, &a).centers_hash,
            RunDigest::new(&stats, &b).centers_hash
        );
    }

    #[test]
    fn digest_ignores_the_replica_ledger() {
        // The digest hashes the classic uplink/downlink totals only:
        // a run that promoted a replica (and paid control-plane bits
        // for it) must still digest-match its never-failed twin.
        let centers = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let clean = NetworkStats::new(2);
        let mut failed_over = NetworkStats::new(2);
        failed_over.charge_promotion(96);
        failed_over.charge_replay(4096);
        failed_over.charge_replica_bits(136);
        assert_eq!(
            RunDigest::new(&clean, &centers),
            RunDigest::new(&failed_over, &centers)
        );
        assert_eq!(failed_over.replica_bits(), 96 + 4096 + 136);
    }

    #[test]
    fn accept_absent_serves_the_survivors_without_the_dead_owner() {
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        thread::scope(|scope| {
            // Only source 1 connects; source 0 was absorbed before the
            // resume and must not be waited for.
            let survivor = scope.spawn(move || {
                EventTcpSource::connect(addr, 1, 2, FP, Duration::from_secs(5)).unwrap()
            });
            let mut server = binding.accept_absent(2, FP, &[0]).unwrap();
            let mut src = survivor.join().unwrap();

            // The absent slot answers like a closed connection: a typed
            // loss the driver can promote around, not a transport error.
            match server.recv(0).unwrap() {
                Response::SourceLost { .. } => {}
                other => panic!("expected a source-lost answer, got {other:?}"),
            }
            // …while the survivor's connection works normally.
            let echo = scope.spawn(move || {
                let cmd = src.recv_command().unwrap();
                assert_eq!(cmd, Command::Describe);
                src.send_response(Response::Done {
                    round: 1,
                    rows: 1,
                    cols: 1,
                    ops: 0,
                    seconds: 0.0,
                })
                .unwrap();
            });
            server.send(1, &Command::Describe).unwrap();
            assert!(matches!(
                server.recv(1).unwrap(),
                Response::Done { round: 1, .. }
            ));
            echo.join().unwrap();
        });
    }

    #[test]
    fn an_absorbed_id_cannot_rejoin_a_resumed_accept() {
        let binding = EventServerBinding::bind("127.0.0.1:0").unwrap();
        let addr = binding.local_addr().unwrap();
        // The dead owner's id tries to handshake: the accept must
        // reject it — that origin's state lives on its host now.
        let ghost =
            thread::spawn(move || EventTcpSource::connect(addr, 0, 2, FP, Duration::from_secs(5)));
        let err = binding.accept_absent(2, FP, &[0]).unwrap_err();
        assert!(
            matches!(err, NetError::Handshake { ref reason } if reason.contains("absorbed")),
            "{err:?}"
        );
        assert!(ghost.join().unwrap().is_err());
    }
}
