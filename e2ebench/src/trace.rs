//! In-memory spans, and the timing wrappers a traced run places at the
//! `CommandTransport` and `SourceEndpoint` trait boundaries.
//!
//! A span has a name, a start and an end (nanoseconds since the traced
//! unit began), the span that was open around it on the same thread, and
//! the id of the run it belongs to. The driver thread records into one
//! shared [`Recorder`] (its transport wrappers nest: the wrapper above
//! the journal is the parent of the one below it); every source thread
//! records into its own. Nothing is written until the benchmark ends.

use ekm_core::Stage;
use ekm_net::frame::FRAME_CMD;
use ekm_net::protocol::{
    Command, CommandTransport, DeadlinePolicy, EncodedCommand, Payload, Response, SourceEndpoint,
};
use ekm_net::{FrameBuf, NetworkStats, Result};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Wire-frame bytes of an encoded command or response: the frame header
/// plus the encoding.
fn frame_bytes(encoded_len: usize) -> u64 {
    let header = FrameBuf::new(FRAME_CMD, &[], 0).expect("an empty frame is always valid");
    (header.bytes().len() + encoded_len) as u64
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and operation, e.g. `transport.recv` or `executor.busy`.
    pub name: &'static str,
    /// Detail: the command kind of an executor span, the pipeline of an
    /// engine span, the message kind of a transport span.
    pub label: &'static str,
    /// Start, in nanoseconds since the traced unit began.
    pub start_ns: u64,
    /// End, in nanoseconds since the traced unit began.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The traced run the span belongs to.
    pub run: u64,
    /// The source a transport call talked to.
    pub peer: Option<usize>,
    /// Wire-frame bytes of a transport call.
    pub bytes: u64,
    /// Deterministic operation count an executor reported.
    pub ops: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The spans one thread recorded.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// `None` for the driver thread, `Some(i)` for source `i`.
    pub thread: Option<usize>,
    run: u64,
    open: Vec<usize>,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Data-plane payloads the wire-level wrapper saw, for the codec
    /// replay.
    pub payloads: Vec<Payload>,
}

/// The driver thread's recorder, shared by its nested wrappers.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A recorder for run `run` whose clock starts at `epoch`.
    pub fn new(epoch: Instant, thread: Option<usize>, run: u64) -> Recorder {
        Recorder {
            epoch,
            thread,
            run,
            open: Vec::new(),
            spans: Vec::new(),
            payloads: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, label: &'static str) -> usize {
        let start_ns = self.now();
        self.push(name, label, start_ns, 0)
    }

    /// Closes span `id`, and with it any span an early return left open
    /// inside it.
    pub fn exit(&mut self, id: usize) -> &mut Span {
        debug_assert!(self.open.contains(&id), "span {id} is not open");
        let end_ns = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        &mut self.spans[id]
    }

    /// A recorded span, for annotating after it closed.
    pub fn span_mut(&mut self, id: usize) -> &mut Span {
        &mut self.spans[id]
    }

    /// Records a span that started at `start_ns` and ends now.
    fn close_since(&mut self, name: &'static str, label: &'static str, start_ns: u64) -> &mut Span {
        let end_ns = self.now();
        let id = self.push(name, label, start_ns, end_ns);
        self.open.pop();
        &mut self.spans[id]
    }

    fn push(&mut self, name: &'static str, label: &'static str, start: u64, end: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label,
            start_ns: start,
            end_ns: end,
            parent: self.open.last().copied(),
            run: self.run,
            peer: None,
            bytes: 0,
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        rec: &SharedRecorder,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = rec.borrow_mut().enter(name, label);
        let out = f();
        rec.borrow_mut().exit(id);
        out
    }

    /// Appends the spans as JSON lines to `out`, numbering them from
    /// `first_id` so ids stay unique across recorders.
    pub fn write_jsonl(&self, out: &mut String, first_id: usize) {
        let thread = match self.thread {
            None => "driver".to_string(),
            Some(i) => format!("source-{i}"),
        };
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + first_id).to_string());
            let peer = s.peer.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{parent},\"thread\":\"{thread}\",\
                 \"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"peer\":{peer},\"bytes\":{},\"ops\":{}}}",
                s.run,
                i + first_id,
                s.name,
                s.label,
                s.start_ns,
                s.end_ns,
                s.bytes,
                s.ops
            );
        }
    }
}

/// Where a [`TimedTransport`] sits in the driver's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Directly above the wire (above `RoutingTransport`): its calls are
    /// the transport layer's time, and it captures payloads and frame
    /// sizes.
    Wire,
    /// Above `JournalingTransport`: its calls minus the wire-level calls
    /// inside them are the journal's time.
    Journal,
}

/// A `CommandTransport` that times every call into the transport below
/// it and forwards it unchanged.
pub struct TimedTransport<T: CommandTransport> {
    inner: T,
    tier: Tier,
    rec: SharedRecorder,
}

impl<T: CommandTransport> TimedTransport<T> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: T, tier: Tier, rec: SharedRecorder) -> Self {
        TimedTransport { inner, tier, rec }
    }

    fn name(&self, op: Op) -> &'static str {
        match (self.tier, op) {
            (Tier::Wire, Op::Send) => "transport.send",
            (Tier::Wire, Op::Recv) => "transport.recv",
            (Tier::Wire, Op::Promote) => "transport.promote",
            (Tier::Journal, Op::Send) => "journal.send",
            (Tier::Journal, Op::Recv) => "journal.recv",
            (Tier::Journal, Op::Promote) => "journal.promote",
        }
    }

    /// Annotates a closed send span: names the peer, and at the wire
    /// tier counts the frame and keeps a downlink payload for the codec
    /// replay. The work runs in a `trace.annotate` span of its own, so no
    /// layer is charged for it.
    fn annotate_send(&self, id: usize, source: usize, cmd: &Command, frame: impl FnOnce() -> u64) {
        let mut rec = self.rec.borrow_mut();
        let own = rec.enter("trace.annotate", "");
        let wire = self.tier == Tier::Wire;
        let bytes = if wire { frame() } else { 0 };
        if let (true, Command::Deliver { payload }) = (wire, cmd) {
            rec.payloads.push(payload.clone());
        }
        let span = rec.span_mut(id);
        span.peer = Some(source);
        span.label = cmd.name();
        span.bytes = bytes;
        rec.exit(own);
    }

    /// [`annotate_send`](Self::annotate_send) for a receive: the frame
    /// is sized by re-encoding the response, and an uplink payload kept.
    fn annotate_recv(&self, id: usize, source: usize, resp: Option<&Response>) {
        let mut rec = self.rec.borrow_mut();
        let own = rec.enter("trace.annotate", "");
        let wire = self.tier == Tier::Wire;
        let bytes = match resp {
            Some(resp) if wire => frame_bytes(resp.encode().len()),
            _ => 0,
        };
        if let (true, Some(Response::Up { payload, .. })) = (wire, resp) {
            rec.payloads.push(payload.clone());
        }
        let span = rec.span_mut(id);
        span.peer = Some(source);
        span.label = resp.map_or("error", Response::name);
        span.bytes = bytes;
        rec.exit(own);
    }
}

#[derive(Clone, Copy)]
enum Op {
    Send,
    Recv,
    Promote,
}

impl<T: CommandTransport> CommandTransport for TimedTransport<T> {
    fn sources(&self) -> usize {
        self.inner.sources()
    }

    fn send(&mut self, source: usize, cmd: &Command) -> Result<()> {
        let id = self.rec.borrow_mut().enter(self.name(Op::Send), "");
        let out = self.inner.send(source, cmd);
        self.rec.borrow_mut().exit(id);
        self.annotate_send(id, source, cmd, || frame_bytes(cmd.encode().len()));
        out
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<()> {
        let id = self.rec.borrow_mut().enter(self.name(Op::Send), "");
        let out = self.inner.send_encoded(source, enc);
        self.rec.borrow_mut().exit(id);
        self.annotate_send(id, source, enc.command(), || enc.frame_bytes().len() as u64);
        out
    }

    fn recv(&mut self, source: usize) -> Result<Response> {
        let id = self.rec.borrow_mut().enter(self.name(Op::Recv), "");
        let out = self.inner.recv(source);
        self.rec.borrow_mut().exit(id);
        self.annotate_recv(id, source, out.as_ref().ok());
        out
    }

    fn stats(&self) -> &NetworkStats {
        self.inner.stats()
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }

    fn promote(&mut self, origin: usize, host: usize) -> Result<()> {
        let id = self.rec.borrow_mut().enter(self.name(Op::Promote), "");
        let out = self.inner.promote(origin, host);
        self.rec.borrow_mut().exit(id).peer = Some(host);
        out
    }

    fn replaying(&self) -> bool {
        self.inner.replaying()
    }
}

/// A `SourceEndpoint` that splits a source's time into waiting for a
/// command (`executor.idle`), executing it (`executor.busy`, from the
/// command's arrival to its response), and sending the response
/// (`transport.respond`).
pub struct TimedEndpoint<'a, E: SourceEndpoint> {
    inner: E,
    stages: &'a [Stage],
    rec: Recorder,
    /// Arrival time and kind of the command being executed.
    busy: Option<(u64, &'static str)>,
}

impl<'a, E: SourceEndpoint> TimedEndpoint<'a, E> {
    /// Wraps `inner`; `stages` names the `Stage { index }` commands.
    pub fn new(inner: E, stages: &'a [Stage], rec: Recorder) -> Self {
        TimedEndpoint {
            inner,
            stages,
            rec,
            busy: None,
        }
    }

    /// The spans recorded so far.
    pub fn into_recorder(self) -> Recorder {
        self.rec
    }

    fn close_busy(&mut self, ops: u64) {
        if let Some((start, kind)) = self.busy.take() {
            self.rec.close_since("executor.busy", kind, start).ops = ops;
        }
    }

    /// The executor layer a command's work belongs to.
    fn kind(&self, cmd: &Command) -> &'static str {
        match cmd {
            Command::Stage { index } => match self.stages.get(*index as usize) {
                Some(Stage::Dr(_)) => "jl",
                Some(Stage::Cr(_)) => "fss",
                Some(Stage::Stream(_)) => "stream",
                Some(Stage::Qt(_)) => "qt",
                Some(Stage::DisPca(_)) => "dispca",
                Some(Stage::DisSs(_)) => "disss",
                _ => "stage",
            },
            Command::Transmit | Command::TransmitBasis => "transmit",
            other => other.name(),
        }
    }
}

impl<E: SourceEndpoint> SourceEndpoint for TimedEndpoint<'_, E> {
    fn recv_command(&mut self) -> Result<Command> {
        // A command that was never answered (an abort) ends here.
        self.close_busy(0);
        let id = self.rec.enter("executor.idle", "");
        let out = self.inner.recv_command();
        let end = self.rec.exit(id).end_ns;
        if let Ok(cmd) = &out {
            self.busy = Some((end, self.kind(cmd)));
        }
        out
    }

    fn send_response(&mut self, resp: Response) -> Result<()> {
        let ops = match &resp {
            Response::Done { ops, .. } | Response::Up { ops, .. } => *ops,
            _ => 0,
        };
        self.close_busy(ops);
        let id = self.rec.enter("transport.respond", resp.name());
        let out = self.inner.send_response(resp);
        self.rec.exit(id);
        out
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }
}
