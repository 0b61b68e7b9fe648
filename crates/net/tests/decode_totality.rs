//! Totality of the wire decoders: on any input, `Message::decode`,
//! `Command::decode`, `Response::decode` and the frame readers
//! (`read_frame`, `try_read_frame`, `FrameAssembler::next_frame`) return
//! a value or a typed error, never panic, and allocate at most 8 bytes
//! per input byte plus 1 KiB.
//!
//! The inputs are arbitrary bytes, and valid encodings of every message
//! kind at full, f32 and several quantized precisions, of every command
//! and response variant, and of frame streams, each with every bit
//! flipped in turn (tags, precision descriptors, shape, length and frame
//! header fields, data) and truncated at every bit or byte. Allocation is
//! measured by a counting global allocator, which is why this is a test
//! binary of its own: the counter sees only the decodes made here.
//! Counts are kept per thread, because the tests of one binary run in
//! parallel.

use ekm_linalg::Matrix;
use ekm_net::bitstream::BitWriter;
use ekm_net::frame::{
    read_frame, try_read_frame, write_frame, FrameAssembler, FRAME_CMD, FRAME_HELLO, FRAME_RESP,
    MAX_FRAME_BITS,
};
use ekm_net::messages::Message;
use ekm_net::protocol::{Command, Payload, Response};
use ekm_net::wire::{encode_len, Precision};
use ekm_net::NetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, counting the bytes each thread requests.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // A thread being torn down has no counter left; nothing to bound.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs `f`, a decode of `input`, and checks the contract: no panic, and
/// at most `8 · input.len() + 1024` bytes requested from the allocator.
fn within_bound<T>(what: &str, input: &[u8], f: impl FnOnce() -> T) -> T {
    let before = REQUESTED.with(Cell::get);
    let result = catch_unwind(AssertUnwindSafe(f));
    let requested = REQUESTED.with(Cell::get) - before;
    let result = result.unwrap_or_else(|_| panic!("{what} panicked on {}", hex(input)));
    assert!(
        requested <= 8 * input.len() + 1024,
        "{what} of {} bytes requested {requested} bytes: {}",
        input.len(),
        hex(input)
    );
    result
}

/// Decodes `bit_len` bits of `data` under the contract, and checks that
/// a failure is a decode error. Returns the decoded message, if any.
fn decode_checked(data: &[u8], bit_len: usize) -> Option<Message> {
    let result = within_bound("message decode", data, || Message::decode(data, bit_len));
    match result {
        Ok(msg) => Some(msg),
        Err(
            NetError::UnexpectedEnd { .. }
            | NetError::UnknownMessageTag { .. }
            | NetError::MalformedMessage { .. }
            | NetError::InvalidPrecision { .. },
        ) => None,
        Err(other) => panic!(
            "decode returned a non-decode error {other:?} on {}",
            hex(data)
        ),
    }
}

fn precisions() -> [Precision; 6] {
    [
        Precision::Full,
        Precision::F32,
        Precision::Quantized { s: 1 },
        Precision::Quantized { s: 8 },
        Precision::Quantized { s: 23 },
        Precision::Quantized { s: 52 },
    ]
}

/// Values exactly representable at every precision above (±0 and
/// small dyadic integers need one significand bit at most), so each
/// message decodes back to itself.
fn matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| match (i * cols + j) % 4 {
        0 => -0.0,
        1 => 2.0,
        2 => -0.5,
        _ => 1.0,
    })
}

/// One message of every kind, at every precision where it carries one.
fn messages() -> Vec<Message> {
    let mut out = vec![
        Message::RawData {
            points: matrix(3, 2),
        },
        Message::CostReport { cost: -0.0 },
        Message::SampleAllocation { size: u64::MAX },
        Message::Centers {
            centers: matrix(2, 3),
        },
    ];
    for p in precisions() {
        for weights_precision in [Precision::Full, Precision::F32, p] {
            out.push(Message::Coreset {
                points: matrix(3, 2),
                weights: vec![1.0, 2.0, -0.5],
                delta: 0.25,
                precision: p,
                weights_precision,
            });
        }
        out.push(Message::SvdSummary {
            singular_values: vec![2.0, 1.0],
            basis: matrix(3, 2),
            precision: p,
        });
        out.push(Message::Basis {
            basis: matrix(2, 2),
            precision: p,
        });
    }
    out
}

/// Bit `i` (MSB-first) of `buf` flipped.
fn flipped(buf: &[u8], i: usize) -> Vec<u8> {
    let mut out = buf.to_vec();
    out[i / 8] ^= 0x80 >> (i % 8);
    out
}

#[test]
fn valid_encodings_roundtrip_within_the_allocation_bound() {
    for msg in messages() {
        let (buf, bits) = msg.encode();
        assert_eq!(decode_checked(&buf, bits).as_ref(), Some(&msg));
    }
}

#[test]
fn every_single_bit_flip_of_a_valid_encoding_is_total() {
    for msg in messages() {
        let (buf, bits) = msg.encode();
        for i in 0..bits {
            decode_checked(&flipped(&buf, i), bits);
        }
    }
}

#[test]
fn every_truncation_of_a_valid_encoding_is_total() {
    for msg in messages() {
        let (buf, bits) = msg.encode();
        for cut in 0..bits {
            let bytes = &buf[..cut.div_ceil(8)];
            assert!(decode_checked(bytes, cut).is_none(), "{msg:?} cut at {cut}");
            // A bit length that claims more than the buffer holds is
            // clamped to it.
            decode_checked(bytes, bits);
        }
    }
}

#[test]
fn flips_and_truncations_together_are_total() {
    // Two flips, one usually in the header, then a cut: shapes and
    // lengths that disagree with the bytes that remain.
    let mut rng = StdRng::seed_from_u64(0x70_7a11);
    for msg in messages() {
        let (buf, bits) = msg.encode();
        for _ in 0..64 {
            let header = rng.gen_range(0..bits.min(150));
            let anywhere = rng.gen_range(0..bits);
            let mutated = flipped(&flipped(&buf, header), anywhere);
            let cut = rng.gen_range(0..=bits);
            decode_checked(&mutated[..cut.div_ceil(8)], cut);
        }
    }
}

#[test]
fn arbitrary_bytes_are_total() {
    let mut rng = StdRng::seed_from_u64(0xa4b1_7a47);
    for _ in 0..4_000 {
        let len = rng.gen_range(0..160usize);
        let mut data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        if len > 0 && rng.gen::<bool>() {
            // A known tag, so the bytes reach the field decoders.
            data[0] = rng.gen_range(1..=7u8);
        }
        let bit_len = rng.gen_range(0..=len * 8 + 16);
        decode_checked(&data, bit_len);
    }
}

/// A raw-data payload of `bytes` bytes claiming a `rows × cols` matrix.
fn raw_data_claim(rows: u32, cols: u32, bytes: usize) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    w.write_bits(1, 8);
    encode_len(&mut w, rows as usize);
    encode_len(&mut w, cols as usize);
    for _ in 9..bytes {
        w.write_bits(0, 8);
    }
    w.finish()
}

#[test]
fn crafted_size_claims_are_rejected_without_allocating() {
    // A shape whose entry count times 13 wraps a u64 to below the bits
    // that follow, and one whose entry count times 13 overflows it.
    for (rows, cols) in [(1_546_420_032, 917_590_489), (u32::MAX, u32::MAX)] {
        let (buf, bits) = raw_data_claim(rows, cols, 4_009);
        assert_eq!(buf.len(), 4_009);
        assert!(decode_checked(&buf, bits).is_none());
    }
    // A 118-bit coreset of 0 × 0 points whose weights claim 2³² − 1
    // values.
    let mut w = BitWriter::new();
    w.write_bits(2, 8);
    for _ in 0..2 {
        w.write_bits(0, 7); // full-precision descriptor
    }
    encode_len(&mut w, 0);
    encode_len(&mut w, 0);
    encode_len(&mut w, u32::MAX as usize);
    let (buf, bits) = w.finish();
    assert_eq!(bits, 118);
    assert!(decode_checked(&buf, bits).is_none());
}

/// The value a protocol or frame decoder returned, if any; a failure
/// must be a transport or protocol error.
fn typed<T>(result: ekm_net::Result<T>, data: &[u8]) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(NetError::Transport { .. } | NetError::ProtocolViolation { .. }) => None,
        Err(e) => panic!("decoder returned {e:?} on {}", hex(data)),
    }
}

/// Decodes `data` as one protocol frame under the contract.
fn protocol_checked<T>(data: &[u8], decode: fn(&[u8]) -> ekm_net::Result<T>) -> Option<T> {
    typed(within_bound("protocol decode", data, || decode(data)), data)
}

/// `value`'s encoding `buf` round-trips, and each of its single-bit flips
/// and truncations decodes to a value or a typed error.
fn mutations_checked<T: PartialEq + Debug>(
    value: &T,
    buf: &[u8],
    decode: fn(&[u8]) -> ekm_net::Result<T>,
) {
    assert_eq!(protocol_checked(buf, decode).as_ref(), Some(value));
    for i in 0..buf.len() * 8 {
        protocol_checked(&flipped(buf, i), decode);
    }
    for cut in 0..buf.len() {
        let short = protocol_checked(&buf[..cut], decode);
        assert!(short.is_none(), "{value:?} cut at {cut}");
    }
}

fn payload() -> Payload {
    Payload::of(&Message::Coreset {
        points: matrix(3, 2),
        weights: vec![1.0, 2.0, -0.5],
        delta: 0.25,
        precision: Precision::Quantized { s: 8 },
        weights_precision: Precision::F32,
    })
}

/// One command of every variant, payloads inside and outside wrappers,
/// wrappers nested as deep as the grammar allows, and the merge step
/// with and without a payload.
fn commands() -> Vec<Command> {
    vec![
        Command::Describe,
        Command::Stage { index: u32::MAX },
        Command::Deliver { payload: payload() },
        Command::TransmitBasis,
        Command::Transmit,
        Command::Finish {
            uplink_bits: 1 << 40,
            downlink_bits: 7,
            centers_hash: u64::MAX,
        },
        Command::Abort {
            reason: "driver failed: ü".to_string(),
        },
        Command::Deadline { ms: 250 },
        Command::Reissue {
            round: 3,
            cmd: Box::new(Command::Deliver { payload: payload() }),
        },
        Command::Resume { round: 9 },
        Command::Promote { origin: 4 },
        Command::Replay {
            origin: 1,
            round: 2,
            cmd: Box::new(Command::Deliver { payload: payload() }),
        },
        Command::Forward {
            origin: 2,
            cmd: Box::new(Command::Stage { index: 1 }),
        },
        Command::Forward {
            origin: 5,
            cmd: Box::new(Command::Reissue {
                round: 6,
                cmd: Box::new(Command::Transmit),
            }),
        },
        Command::MergeWith {
            gather: 2,
            level: 1,
            active: 3,
            payload: Some(payload()),
            emit: true,
            last: false,
        },
        Command::MergeWith {
            gather: 3,
            level: 0,
            active: 8,
            payload: None,
            emit: false,
            last: true,
        },
    ]
}

/// One response of every variant, the merge answer with and without a
/// payload.
fn responses() -> Vec<Response> {
    vec![
        Response::Done {
            round: 1,
            rows: 600,
            cols: 32,
            ops: 1 << 33,
            seconds: 0.5,
        },
        Response::Up {
            round: 2,
            payload: payload(),
            ops: 17,
            seconds: -0.0,
        },
        Response::Fin {
            round: 3,
            uplink_bits: 99,
            downlink_bits: 0,
        },
        Response::Err {
            reason: "executor failed".to_string(),
        },
        Response::Resumed {
            round: 4,
            fingerprint: u64::MAX,
        },
        Response::SourceLost {
            reason: "deadline".to_string(),
        },
        Response::Promoted {
            origin: 2,
            round: 0,
        },
        Response::Replayed {
            origin: 2,
            round: 5,
            fingerprint: 0xfeed,
        },
        Response::Forwarded {
            origin: 2,
            resp: Box::new(Response::Up {
                round: 6,
                payload: payload(),
                ops: 1,
                seconds: 1.0,
            }),
        },
        Response::Merged {
            round: 7,
            payload: Some(payload()),
            leaf_bits: 1234,
            leaf_tag: 2,
            last: true,
        },
        Response::Merged {
            round: 8,
            payload: None,
            leaf_bits: 0,
            leaf_tag: 0,
            last: false,
        },
    ]
}

#[test]
fn commands_and_responses_roundtrip_and_survive_flips_and_truncations() {
    for cmd in commands() {
        mutations_checked(&cmd, &cmd.encode(), Command::decode);
    }
    for resp in responses() {
        mutations_checked(&resp, &resp.encode(), Response::decode);
    }
}

#[test]
fn arbitrary_bytes_are_total_as_commands_and_responses() {
    let mut rng = StdRng::seed_from_u64(0xc0_4d5e);
    for _ in 0..10_000 {
        let len = rng.gen_range(0..160usize);
        let mut data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        if len > 0 && rng.gen::<bool>() {
            // A known tag, so the bytes reach the field decoders.
            data[0] = rng.gen_range(1..=14u8);
        }
        protocol_checked(&data, Command::decode);
        protocol_checked(&data, Response::decode);
    }
}

/// A reader that delivers at most one byte per `read` call.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1);
        self.0.read(&mut buf[..n])
    }
}

type Frame = (u8, Vec<u8>, usize);

/// Reads `bytes` as a frame stream through all three readers, each under
/// the contract, and checks that they agree on the frames before the
/// first failure.
fn frames_checked(bytes: &[u8]) -> Vec<Frame> {
    // Every frame takes at least its 9-byte header, so the result lists
    // never grow inside the measured reads.
    let frames = || Vec::with_capacity(bytes.len() / 9 + 1);
    let (mut blocking, mut clean_end, mut assembled) = (frames(), frames(), frames());
    within_bound("read_frame", bytes, || {
        let mut r = bytes;
        while let Some(f) = typed(read_frame(&mut r), bytes) {
            blocking.push(f);
        }
    });
    within_bound("try_read_frame", bytes, || {
        let mut r = Trickle(bytes);
        while let Some(f) = typed(try_read_frame(&mut r), bytes).flatten() {
            clean_end.push(f);
        }
    });
    // The ring's fixed starting capacity is a per-connection cost, paid
    // before any byte arrives.
    let mut asm = FrameAssembler::new();
    within_bound("FrameAssembler::next_frame", bytes, || {
        let mut off = 0;
        'feed: while off < bytes.len() {
            // Odd chunk sizes split headers and payloads anywhere.
            let spare = asm.spare();
            let n = spare.len().min(1 + off % 13).min(bytes.len() - off);
            spare[..n].copy_from_slice(&bytes[off..off + n]);
            asm.commit(n);
            off += n;
            loop {
                match typed(asm.next_frame(), bytes) {
                    Some(Some(f)) => assembled.push(f),
                    Some(None) => break,
                    None => break 'feed,
                }
            }
        }
    });
    assert_eq!(blocking, clean_end, "{}", hex(bytes));
    assert_eq!(blocking, assembled, "{}", hex(bytes));
    blocking
}

/// A valid stream of three frames of different kinds and bit lengths.
fn frame_stream() -> (Vec<u8>, Vec<Frame>) {
    let frames: Vec<Frame> = vec![
        (FRAME_HELLO, vec![0xAB, 0xC0], 11),
        (FRAME_CMD, Vec::new(), 0),
        (FRAME_RESP, (0..40u8).collect(), 40 * 8),
    ];
    let mut wire = Vec::new();
    for (kind, payload, bits) in &frames {
        write_frame(&mut wire, *kind, payload, *bits).unwrap();
    }
    (wire, frames)
}

#[test]
fn frame_streams_roundtrip_and_survive_flips_and_truncations() {
    let (wire, frames) = frame_stream();
    assert_eq!(frames_checked(&wire), frames);
    for i in 0..wire.len() * 8 {
        frames_checked(&flipped(&wire, i));
    }
    for cut in 0..wire.len() {
        let got = frames_checked(&wire[..cut]);
        assert!(
            got.len() < frames.len() && frames.starts_with(&got),
            "cut at {cut}"
        );
    }
}

#[test]
fn crafted_frame_headers_are_rejected_or_read_without_allocating() {
    // Claims up to the cap are legal until the bytes run out; the readers
    // must not reserve the claimed payload before it arrives.
    let cap = MAX_FRAME_BITS;
    for claim in [0, 1, 8, 512, 1 << 20, cap - 1, cap, cap + 1, u64::MAX] {
        for tail in [0usize, 1, 7, 64, 300] {
            let mut bytes = vec![FRAME_HELLO];
            bytes.extend_from_slice(&claim.to_be_bytes());
            bytes.extend((0..tail).map(|i| i as u8));
            let frames = frames_checked(&bytes);
            let whole = claim.div_ceil(8) <= tail as u64;
            assert_eq!(
                frames.len(),
                usize::from(whole),
                "claim {claim}, tail {tail}"
            );
        }
    }
}

#[test]
fn arbitrary_bytes_are_total_as_frame_streams() {
    let mut rng = StdRng::seed_from_u64(0xf7_a3e5);
    for _ in 0..3_000 {
        let len = rng.gen_range(0..200usize);
        let mut data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        if len >= 9 && rng.gen::<bool>() {
            // A header whose claim fits the bytes, or nearly does.
            let claim = rng.gen_range(0..=(len as u64 - 9) * 8 + 16);
            data[1..9].copy_from_slice(&claim.to_be_bytes());
        }
        frames_checked(&data);
    }
}
