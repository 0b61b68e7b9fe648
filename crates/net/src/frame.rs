//! Length-prefixed framing for socket transports.
//!
//! A frame is `[kind: u8][bit_len: u64 BE][payload: ⌈bit_len/8⌉ bytes]`.
//! The header carries the payload's *bit* length — not its byte length —
//! because the wire encoding ([`crate::wire`]) is bit-granular and the
//! paper's communication metric counts bits; a socket transport charges
//! exactly the `bit_len` it framed, so its accounting is bit-identical to
//! the in-process channel backend by construction.
//!
//! Framing is written against `std::io::{Read, Write}` so the hardening
//! tests (partial reads, truncation, oversized headers) run against
//! in-memory streams; the TCP backend ([`crate::event`]) reuses it
//! verbatim over `TcpStream`s.
//!
//! No frame is copied on its way through: a writer hands the header and
//! the payload's pieces to one vectored write ([`write_frame`],
//! [`crate::protocol::Response::write_frame`]), and the event backend's [`FrameAssembler`]
//! reads a frame too large for its fixed ring straight into a buffer of
//! its own, which it returns by value. Every reader's buffer grows only
//! with the bytes that arrive, so a header alone allocates next to
//! nothing, whatever length it claims.

use crate::{NetError, Result};
use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame kind: connection handshake (see [`crate::event`]).
pub const FRAME_HELLO: u8 = 2;
/// Frame kind: one encoded protocol [`crate::protocol::Command`]
/// (server → source, server-driven protocol).
pub const FRAME_CMD: u8 = 4;
/// Frame kind: one encoded protocol [`crate::protocol::Response`]
/// (source → server, server-driven protocol).
pub const FRAME_RESP: u8 = 5;

/// Upper bound on a frame's payload bit length (8 GiB of payload). A
/// header claiming more is rejected *before* any allocation — garbage or
/// a malicious peer cannot make the receiver reserve absurd buffers.
pub const MAX_FRAME_BITS: u64 = 1 << 36;

fn io_err(context: &'static str, e: std::io::Error) -> NetError {
    NetError::Transport {
        context,
        detail: e.to_string(),
    }
}

/// Frames whose header and payload left in a *single* write call (a
/// `writev` on a socket). Each one is a syscall the old two-`write_all`
/// path would have spent twice on; the bench harness records the delta
/// as its `syscalls_avoided` counter.
static SINGLE_WRITE_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of frames written header+payload in one write
/// call since startup (see [`write_frame`]).
pub fn single_write_frames() -> u64 {
    SINGLE_WRITE_FRAMES.load(Ordering::Relaxed)
}

/// Records a frame that left in a single write call through a path
/// other than [`write_frame`] (the event server writes pre-framed
/// buffers directly).
pub(crate) fn note_single_write_frame() {
    SINGLE_WRITE_FRAMES.fetch_add(1, Ordering::Relaxed);
}

fn check_lengths(payload: &[u8], bit_len: usize) -> Result<()> {
    if bit_len as u64 > MAX_FRAME_BITS {
        return Err(NetError::Transport {
            context: "frame write",
            detail: format!("payload of {bit_len} bits exceeds the {MAX_FRAME_BITS}-bit cap"),
        });
    }
    if payload.len() != bit_len.div_ceil(8) {
        return Err(NetError::Transport {
            context: "frame write",
            detail: format!(
                "payload of {} bytes inconsistent with bit length {bit_len}",
                payload.len()
            ),
        });
    }
    Ok(())
}

/// Parses a 9-byte frame header into `(kind, bit_len)` — the one
/// header check of every reader.
///
/// # Errors
///
/// [`NetError::Transport`] if the header claims more than
/// [`MAX_FRAME_BITS`].
fn parse_header(header: &[u8; 9]) -> Result<(u8, usize)> {
    let bit_len = u64::from_be_bytes(header[1..].try_into().expect("8-byte slice"));
    match usize::try_from(bit_len) {
        Ok(bits) if bit_len <= MAX_FRAME_BITS => Ok((header[0], bits)),
        _ => Err(NetError::Transport {
            context: "frame header read",
            detail: format!("oversized frame: {bit_len} bits exceeds the {MAX_FRAME_BITS}-bit cap"),
        }),
    }
}

fn encode_header(kind: u8, bit_len: usize) -> [u8; 9] {
    let mut header = [0u8; 9];
    header[0] = kind;
    header[1..].copy_from_slice(&(bit_len as u64).to_be_bytes());
    header
}

/// Writes one frame and flushes the stream.
///
/// Header and payload go out through `write_vectored`, so a socket sees
/// one `writev` per frame instead of the former two `write` syscalls
/// (short writes and `Interrupted` are retried until the frame is out).
/// Validation happens before any byte is written: a rejected frame
/// leaves the stream untouched.
///
/// # Errors
///
/// * [`NetError::Transport`] if `bit_len` exceeds [`MAX_FRAME_BITS`], if
///   `payload` is not exactly `⌈bit_len/8⌉` bytes, or on I/O failure.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8], bit_len: usize) -> Result<()> {
    check_lengths(payload, bit_len)?;
    let header = encode_header(kind, bit_len);
    write_vectored_frame(w, &mut [IoSlice::new(&header), IoSlice::new(payload)])
}

/// Writes one byte-granular frame whose payload is `head` followed by
/// `tail` — byte for byte [`write_frame`] of their concatenation, without
/// building it: the header, `head` and `tail` go out in one vectored
/// write. What [`crate::protocol::Response::write_frame`] uses to send
/// a payload from its own buffer behind the fields before it.
///
/// # Errors
///
/// [`NetError::Transport`] if the frame exceeds [`MAX_FRAME_BITS`], or
/// on I/O failure.
pub(crate) fn write_split_frame<W: Write>(
    w: &mut W,
    kind: u8,
    head: &[u8],
    tail: &[u8],
) -> Result<()> {
    let bit_len = (head.len() + tail.len()) * 8;
    if bit_len as u64 > MAX_FRAME_BITS {
        return Err(NetError::Transport {
            context: "frame write",
            detail: format!("payload of {bit_len} bits exceeds the {MAX_FRAME_BITS}-bit cap"),
        });
    }
    let header = encode_header(kind, bit_len);
    write_vectored_frame(
        w,
        &mut [
            IoSlice::new(&header),
            IoSlice::new(head),
            IoSlice::new(tail),
        ],
    )
}

/// Writes a frame's pieces (header first) until all are out, then
/// flushes; a frame that left in one write call is counted in
/// [`single_write_frames`].
fn write_vectored_frame<W: Write>(w: &mut W, mut parts: &mut [IoSlice<'_>]) -> Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut first = true;
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => {
                return Err(NetError::Transport {
                    context: "frame write",
                    detail: "stream closed mid-frame".to_string(),
                })
            }
            Ok(n) => {
                // More than the 9-byte header: a frame with a payload.
                if first && n == total && total > 9 {
                    SINGLE_WRITE_FRAMES.fetch_add(1, Ordering::Relaxed);
                }
                first = false;
                IoSlice::advance_slices(&mut parts, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("frame write", e)),
        }
    }
    w.flush().map_err(|e| io_err("frame flush", e))?;
    Ok(())
}

/// A frame encoded once into one contiguous header+payload buffer:
/// build it for a broadcast, write the same bytes to every connection
/// with a single write call each, no per-recipient re-encode or
/// allocation (see [`crate::protocol::EncodedCommand`]).
#[derive(Debug, Clone)]
pub struct FrameBuf {
    bytes: Vec<u8>,
}

impl FrameBuf {
    /// Encodes `payload` under `kind`, validating exactly like
    /// [`write_frame`].
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if `bit_len` exceeds [`MAX_FRAME_BITS`]
    /// or `payload` is not exactly `⌈bit_len/8⌉` bytes.
    pub fn new(kind: u8, payload: &[u8], bit_len: usize) -> Result<FrameBuf> {
        check_lengths(payload, bit_len)?;
        let mut bytes = Vec::with_capacity(9 + payload.len());
        bytes.extend_from_slice(&encode_header(kind, bit_len));
        bytes.extend_from_slice(payload);
        Ok(FrameBuf { bytes })
    }

    /// A byte-granular frame of `len` payload bytes that `fill` appends
    /// behind the header: one allocation of the frame's exact size, with
    /// no intermediate encoding to copy.
    ///
    /// # Panics
    ///
    /// If `fill` appends other than `len` bytes, or `len` bytes exceed
    /// [`MAX_FRAME_BITS`].
    pub(crate) fn build(kind: u8, len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> FrameBuf {
        assert!(len as u64 <= MAX_FRAME_BITS / 8, "frame above the cap");
        let mut bytes = Vec::with_capacity(9 + len);
        bytes.extend_from_slice(&encode_header(kind, len * 8));
        fill(&mut bytes);
        assert_eq!(
            bytes.len(),
            9 + len,
            "frame payload of the announced length"
        );
        FrameBuf { bytes }
    }

    /// The wire bytes: 9-byte header followed by the payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload bytes alone (what [`write_frame`] was given).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[9..]
    }

    /// The frame kind byte.
    pub fn kind(&self) -> u8 {
        self.bytes[0]
    }
}

/// Reassembles frames from a non-blocking byte stream.
///
/// Bytes are read *directly into* the assembler's storage
/// ([`spare`](FrameAssembler::spare) / [`commit`](FrameAssembler::commit)).
/// A frame that fits its fixed 4 KiB ring — every control frame and the
/// small data-plane ones — is consumed by advancing an index and copied
/// out whole by [`next_frame`](FrameAssembler::next_frame). A larger
/// frame is read into a buffer of its own, which `spare` hands out and
/// `next_frame` returns by value, so its payload is written once, by the
/// reads that bring it. That buffer grows only with the bytes that
/// arrive (to at most twice what arrived, never past the header's
/// claim), so the ring never grows and a header alone allocates next to
/// nothing, whatever it claims.
///
/// Drain `next_frame` after every `commit`: the ring then holds at most
/// one incomplete frame, and `spare` is never empty.
#[derive(Debug)]
pub struct FrameAssembler {
    ring: Box<[u8]>,
    head: usize,
    len: usize,
    /// The frame too large for the ring, if one is arriving or waiting
    /// for `next_frame`; the ring's bytes all come after it.
    large: Option<LargeFrame>,
}

/// A frame too large for the ring, read into a buffer of its own.
#[derive(Debug)]
struct LargeFrame {
    kind: u8,
    bit_len: usize,
    /// The payload bytes that arrived, then zeroed room for more.
    payload: Vec<u8>,
    /// How many bytes of `payload` arrived.
    filled: usize,
}

impl LargeFrame {
    fn complete(&self) -> bool {
        self.filled == self.bit_len.div_ceil(8)
    }
}

impl Default for FrameAssembler {
    fn default() -> FrameAssembler {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// Ring capacity (a power of two: ring positions are masked).
    const RING: usize = 4096;
    const MASK: usize = Self::RING - 1;

    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler {
            ring: vec![0u8; Self::RING].into_boxed_slice(),
            head: 0,
            len: 0,
            large: None,
        }
    }

    /// `true` when no byte is buffered (parsed frames are consumed
    /// eagerly).
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.large.is_none()
    }

    /// A contiguous writable slice for the next read: the rest of an
    /// arriving large frame (grown, once full, to twice the frame's bytes
    /// so far, at most its claim), else the ring's tail. Read into it,
    /// then [`commit`](FrameAssembler::commit) the byte count; a wrapped
    /// spare region is surfaced across successive calls, so callers just
    /// loop read→commit→drain until the source runs dry.
    pub fn spare(&mut self) -> &mut [u8] {
        if let Some(large) = self.large.as_mut().filter(|large| !large.complete()) {
            if large.filled == large.payload.len() {
                let claim = large.bit_len.div_ceil(8);
                let grown = (2 * (9 + large.filled)).min(claim);
                large.payload.reserve_exact(grown - large.filled);
                large.payload.resize(grown, 0);
            }
            return &mut large.payload[large.filled..];
        }
        let tail = (self.head + self.len) & Self::MASK;
        if self.len == Self::RING {
            // Full of frames nobody drained: no room.
            &mut []
        } else if tail >= self.head {
            // Unwrapped data: spare runs from the tail to the end of
            // storage (a second region before `head` surfaces on the
            // next call, once this one fills).
            &mut self.ring[tail..]
        } else {
            // Wrapped data: the single spare region sits between the
            // tail and the head.
            &mut self.ring[tail..self.head]
        }
    }

    /// Marks `n` bytes of the last [`spare`](FrameAssembler::spare)
    /// slice as filled.
    pub fn commit(&mut self, n: usize) {
        match self.large.as_mut().filter(|large| !large.complete()) {
            Some(large) => {
                debug_assert!(large.filled + n <= large.payload.len());
                large.filled += n;
            }
            None => {
                debug_assert!(self.len + n <= Self::RING);
                self.len += n;
                if self.large.is_none() {
                    // A large frame at the front leaves the ring now, so
                    // its bytes need no room there.
                    if let Ok(Some((kind, bit_len))) = self.front() {
                        self.take_large(kind, bit_len);
                    }
                }
            }
        }
    }

    fn copy_out(&self, offset: usize, dst: &mut [u8]) {
        debug_assert!(offset + dst.len() <= self.len);
        let start = (self.head + offset) & Self::MASK;
        let first = dst.len().min(Self::RING - start);
        dst[..first].copy_from_slice(&self.ring[start..start + first]);
        if first < dst.len() {
            let rest = dst.len() - first;
            dst[first..].copy_from_slice(&self.ring[..rest]);
        }
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head = (self.head + n) & Self::MASK;
        self.len -= n;
        if self.len == 0 {
            // Empty ring: restart at 0 so the next frame lands
            // contiguously.
            self.head = 0;
        }
    }

    /// The header of the frame at the front of the ring, once all nine
    /// bytes are in.
    fn front(&self) -> Result<Option<(u8, usize)>> {
        if self.len < 9 {
            return Ok(None);
        }
        let mut header = [0u8; 9];
        self.copy_out(0, &mut header);
        parse_header(&header).map(Some)
    }

    /// If the front frame is too large for the ring, moves it into a
    /// buffer of its own: every byte buffered behind its header is its
    /// payload, as the frame is longer than the ring.
    fn take_large(&mut self, kind: u8, bit_len: usize) -> bool {
        let claim = bit_len.div_ceil(8);
        if 9 + claim <= Self::RING {
            return false;
        }
        let filled = self.len - 9;
        let mut payload = vec![0u8; (2 * self.len).min(claim)];
        self.copy_out(9, &mut payload[..filled]);
        self.consume(self.len);
        self.large = Some(LargeFrame {
            kind,
            bit_len,
            payload,
            filled,
        });
        true
    }

    /// Extracts the next complete frame, if one is fully buffered,
    /// returning `(kind, payload, bit_len)` like [`read_frame`]; a large
    /// frame's own buffer is returned as it is.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if the buffered header claims more than
    /// [`MAX_FRAME_BITS`] — detected from the header alone, before the
    /// payload arrives or anything is allocated.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>, usize)>> {
        if let Some(large) = &self.large {
            if !large.complete() {
                return Ok(None);
            }
            let LargeFrame {
                kind,
                bit_len,
                payload,
                ..
            } = self.large.take().expect("a large frame");
            return Ok(Some((kind, payload, bit_len)));
        }
        let Some((kind, bit_len)) = self.front()? else {
            return Ok(None);
        };
        let payload_len = bit_len.div_ceil(8);
        if self.take_large(kind, bit_len) || self.len < 9 + payload_len {
            return Ok(None);
        }
        let mut payload = vec![0u8; payload_len];
        self.copy_out(9, &mut payload);
        self.consume(9 + payload_len);
        Ok(Some((kind, payload, bit_len)))
    }
}

/// Reads one frame, returning `(kind, payload, bit_len)`.
///
/// Partial reads (a slow socket delivering one byte at a time) are
/// handled; a stream that ends before or inside the frame surfaces as a
/// truncation error rather than a short buffer.
///
/// # Errors
///
/// [`NetError::Transport`] on truncation, I/O failure, or a header
/// claiming more than [`MAX_FRAME_BITS`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>, usize)> {
    try_read_frame(r)?.ok_or_else(|| NetError::Transport {
        context: "frame header read",
        detail: "stream ended before a frame header".to_string(),
    })
}

/// Reads one frame like [`read_frame`], but distinguishes a *clean* end
/// of stream (zero bytes available at a frame boundary → `Ok(None)`)
/// from a *torn* frame (stream ends mid-header or mid-payload → typed
/// [`NetError::Transport`]).
///
/// This is what journal readers use: a journal that ends exactly between
/// records is complete, one that ends inside a record was truncated by a
/// crash mid-append.
///
/// The payload buffer grows only with the bytes that arrive, so a header
/// alone allocates nothing, whatever length it claims.
///
/// # Errors
///
/// [`NetError::Transport`] on a torn frame, I/O failure, or a header
/// claiming more than [`MAX_FRAME_BITS`].
pub fn try_read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>, usize)>> {
    let mut header = [0u8; 9];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None), // clean boundary
            Ok(0) => {
                return Err(NetError::Transport {
                    context: "frame header read",
                    detail: format!("stream ended {filled} bytes into a 9-byte frame header"),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("frame header read", e)),
        }
    }
    let (kind, bit_len) = parse_header(&header)?;
    let len = bit_len.div_ceil(8);
    let mut payload = Vec::new();
    r.by_ref()
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| io_err("frame payload read", e))?;
    if payload.len() < len {
        return Err(NetError::Transport {
            context: "frame payload read (truncated frame?)",
            detail: format!(
                "stream ended {} bytes into a {len}-byte payload",
                payload.len()
            ),
        });
    }
    Ok(Some((kind, payload, bit_len)))
}

/// Reads one frame and checks its kind.
///
/// # Errors
///
/// See [`read_frame`]; additionally [`NetError::Transport`] if the frame
/// kind differs from `expected`.
pub fn expect_frame<R: Read>(r: &mut R, expected: u8) -> Result<(Vec<u8>, usize)> {
    let (kind, payload, bits) = read_frame(r)?;
    if kind != expected {
        return Err(NetError::Transport {
            context: "frame kind check",
            detail: format!("expected frame kind {expected}, got {kind}"),
        });
    }
    Ok((payload, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader (or writer) that moves at most one byte per call — the
    /// worst-case partial I/O a socket can exhibit.
    struct Trickle<R>(R);

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// A writer that takes at most one byte per `write` call.
    impl<W: Write> Write for Trickle<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.write(&buf[..n])
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_RESP, &[0xAB, 0xC0], 11).unwrap();
        let (kind, payload, bits) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(kind, FRAME_RESP);
        assert_eq!(payload, vec![0xAB, 0xC0]);
        assert_eq!(bits, 11);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_CMD, &[], 0).unwrap();
        let (kind, payload, bits) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!((kind, bits), (FRAME_CMD, 0));
        assert!(payload.is_empty());
    }

    #[test]
    fn partial_reads_are_reassembled() {
        let mut buf = Vec::new();
        let payload: Vec<u8> = (0..=255).collect();
        write_frame(&mut buf, FRAME_RESP, &payload, 256 * 8).unwrap();
        let mut r = Trickle(Cursor::new(&buf));
        let (kind, got, bits) = read_frame(&mut r).unwrap();
        assert_eq!(kind, FRAME_RESP);
        assert_eq!(got, payload);
        assert_eq!(bits, 256 * 8);
    }

    #[test]
    fn truncated_header_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_RESP, &[1, 2, 3], 24).unwrap();
        for cut in [0, 1, 8] {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, NetError::Transport { .. }), "cut={cut}");
        }
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_RESP, &[1, 2, 3, 4], 32).unwrap();
        let err = read_frame(&mut Cursor::new(&buf[..buf.len() - 2])).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
        // Truncation through a trickling reader is detected too.
        let err = read_frame(&mut Trickle(Cursor::new(&buf[..buf.len() - 1]))).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
    }

    #[test]
    fn oversized_header_rejected_without_allocating() {
        let mut buf = vec![FRAME_RESP];
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        match err {
            NetError::Transport { detail, .. } => assert!(detail.contains("oversized")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_rejects_inconsistent_lengths() {
        let mut buf = Vec::new();
        assert!(write_frame(&mut buf, FRAME_RESP, &[1, 2], 24).is_err());
        assert!(write_frame(&mut buf, FRAME_RESP, &[1], (MAX_FRAME_BITS + 1) as usize).is_err());
        assert!(buf.is_empty(), "nothing written on rejection");
    }

    #[test]
    fn try_read_frame_distinguishes_clean_eof_from_torn_frames() {
        // Clean boundary: zero frames, then one frame, then Ok(None).
        assert!(try_read_frame(&mut Cursor::new(&[] as &[u8]))
            .unwrap()
            .is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_RESP, &[1, 2, 3], 24).unwrap();
        let mut cur = Cursor::new(&buf);
        let (kind, payload, bits) = try_read_frame(&mut cur).unwrap().unwrap();
        assert_eq!((kind, payload, bits), (FRAME_RESP, vec![1, 2, 3], 24));
        assert!(try_read_frame(&mut cur).unwrap().is_none());

        // Torn header and torn payload are typed errors, not Ok(None).
        for cut in [1, 8, 10] {
            let err = try_read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, NetError::Transport { .. }), "cut={cut}");
        }
        // Torn frames delivered a byte at a time are detected too.
        let err = try_read_frame(&mut Trickle(Cursor::new(&buf[..5]))).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
    }

    #[test]
    fn frame_buf_matches_write_frame_bytes() {
        let payload = [0xAB, 0xC0];
        let mut streamed = Vec::new();
        write_frame(&mut streamed, FRAME_RESP, &payload, 11).unwrap();
        let fb = FrameBuf::new(FRAME_RESP, &payload, 11).unwrap();
        assert_eq!(fb.bytes(), &streamed[..]);
        assert_eq!(fb.payload(), &payload);
        assert_eq!(fb.kind(), FRAME_RESP);
        // Same validation as the streaming writer.
        assert!(FrameBuf::new(FRAME_RESP, &payload, 24).is_err());
        assert!(FrameBuf::new(FRAME_RESP, &[1], (MAX_FRAME_BITS + 1) as usize).is_err());
    }

    #[test]
    fn a_split_frame_is_byte_for_byte_the_whole_one() {
        let payload: Vec<u8> = (0..50).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, FRAME_RESP, &payload, payload.len() * 8).unwrap();
        for cut in 0..=payload.len() {
            let mut split = Vec::new();
            let (head, tail) = payload.split_at(cut);
            write_split_frame(&mut split, FRAME_RESP, head, tail).unwrap();
            assert_eq!(split, whole, "cut at {cut}");
            // A writer that takes one byte per call still gets it all.
            let mut trickled = Trickle(Vec::new());
            write_split_frame(&mut trickled, FRAME_RESP, head, tail).unwrap();
            assert_eq!(trickled.0, whole, "cut at {cut}");
        }
    }

    #[test]
    fn single_write_counter_advances_on_vectored_frames() {
        let before = single_write_frames();
        let mut buf = Vec::new();
        // Vec's write_vectored appends every slice in one call, so this
        // counts as a single-write frame, exactly like a socket writev.
        write_frame(&mut buf, FRAME_RESP, &[1, 2, 3], 24).unwrap();
        assert!(single_write_frames() > before);
    }

    #[test]
    fn assembler_reassembles_one_byte_at_a_time() {
        let mut wire = Vec::new();
        let payload: Vec<u8> = (0..=255).collect();
        write_frame(&mut wire, FRAME_RESP, &payload, 256 * 8).unwrap();
        let mut asm = FrameAssembler::new();
        for (i, &byte) in wire.iter().enumerate() {
            assert!(
                asm.next_frame().unwrap().is_none(),
                "frame complete {i} bytes early"
            );
            asm.spare()[0] = byte;
            asm.commit(1);
        }
        let (kind, got, bits) = asm.next_frame().unwrap().expect("complete");
        assert_eq!((kind, bits), (FRAME_RESP, 256 * 8));
        assert_eq!(got, payload);
        assert!(asm.is_empty());
    }

    /// Feeds `bytes` through `spare`/`commit` in reads of at most
    /// `chunk` bytes, draining `next_frame` after each.
    fn assemble(asm: &mut FrameAssembler, bytes: &[u8], chunk: usize) -> Vec<(u8, Vec<u8>, usize)> {
        let mut frames = Vec::new();
        let mut off = 0;
        while off < bytes.len() {
            let spare = asm.spare();
            let n = spare.len().min(chunk).min(bytes.len() - off);
            assert!(n > 0, "no room at offset {off}");
            spare[..n].copy_from_slice(&bytes[off..off + n]);
            asm.commit(n);
            off += n;
            while let Some(frame) = asm.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        frames
    }

    #[test]
    fn assembler_wraps_the_ring_across_many_frames() {
        // Frames sized to never divide the ring capacity force the
        // head through every wrap offset.
        let mut asm = FrameAssembler::new();
        for round in 0..200u32 {
            let payload: Vec<u8> = (0..37 + (round % 13) as usize)
                .map(|i| (i as u32 ^ round) as u8)
                .collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, FRAME_RESP, &payload, payload.len() * 8).unwrap();
            let frames = assemble(&mut asm, &wire, usize::MAX);
            assert_eq!(
                frames,
                vec![(FRAME_RESP, payload.clone(), payload.len() * 8)],
                "round {round}"
            );
        }
        assert!(asm.is_empty());
    }

    #[test]
    fn a_frame_larger_than_the_ring_is_read_into_its_own_buffer() {
        // Small frames around a jumbo one, in one stream: the jumbo
        // frame leaves the ring as soon as its header is in, its own
        // buffer grows only with the bytes that arrive (never past
        // twice them, never past the claim), and the ring never grows.
        let jumbo: Vec<u8> = (0..64 * 1024 + 3).map(|i| (i * 7) as u8).collect();
        let small: Vec<u8> = (0..100).collect();
        let mut wire = Vec::new();
        for payload in [&small, &jumbo, &small] {
            write_frame(&mut wire, FRAME_RESP, payload, payload.len() * 8).unwrap();
        }
        let expected: Vec<_> = [&small, &jumbo, &small]
            .iter()
            .map(|p| (FRAME_RESP, p.to_vec(), p.len() * 8))
            .collect();
        for chunk in [1, 13, 4096, 64 << 10, usize::MAX] {
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            let mut off = 0;
            while off < wire.len() {
                let spare = asm.spare();
                let n = spare.len().min(chunk).min(wire.len() - off);
                spare[..n].copy_from_slice(&wire[off..off + n]);
                asm.commit(n);
                off += n;
                if let Some(large) = &asm.large {
                    let arrived = 9 + large.filled;
                    assert!(large.payload.len() <= 2 * arrived, "chunk {chunk}");
                    assert!(large.payload.len() <= jumbo.len(), "chunk {chunk}");
                }
                while let Some(frame) = asm.next_frame().unwrap() {
                    frames.push(frame);
                }
                assert_eq!(asm.ring.len(), FrameAssembler::RING);
            }
            assert_eq!(frames, expected, "chunk {chunk}");
            assert!(asm.is_empty());
        }
        // Fed whole before a single drain, as one large read would.
        let mut asm = FrameAssembler::new();
        let mut tail = Vec::new();
        write_frame(&mut tail, FRAME_RESP, &jumbo, jumbo.len() * 8).unwrap();
        let mut off = 0;
        while off < tail.len() {
            let spare = asm.spare();
            let n = spare.len().min(tail.len() - off);
            spare[..n].copy_from_slice(&tail[off..off + n]);
            asm.commit(n);
            off += n;
        }
        let (_, got, _) = asm.next_frame().unwrap().expect("complete");
        assert_eq!(got, jumbo);
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_rejects_oversized_header_before_payload() {
        let mut asm = FrameAssembler::new();
        let mut header = vec![FRAME_RESP];
        header.extend_from_slice(&u64::MAX.to_be_bytes());
        asm.spare()[..9].copy_from_slice(&header);
        asm.commit(9);
        let err = asm.next_frame().unwrap_err();
        match err {
            NetError::Transport { detail, .. } => assert!(detail.contains("oversized")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expect_frame_checks_kind() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_HELLO, &[7], 8).unwrap();
        assert!(expect_frame(&mut Cursor::new(&buf), FRAME_RESP).is_err());
        let (payload, bits) = expect_frame(&mut Cursor::new(&buf), FRAME_HELLO).unwrap();
        assert_eq!((payload, bits), (vec![7], 8));
    }
}
