//! Totality of the message decoder: on any input, `Message::decode`
//! returns a message or a typed decode error, never panics, and
//! allocates at most 8 bytes per input byte plus 1 KiB.
//!
//! The inputs are arbitrary bytes, and valid encodings of every message
//! kind at full, f32 and several quantized precisions with each bit
//! flipped in turn (tag, precision descriptors, shape and length fields,
//! data) and truncated at every bit. Allocation is measured by a
//! counting global allocator, which is why this is a test binary of its
//! own: the counter sees only the decodes made here. Counts are kept per
//! thread, because the tests of one binary run in parallel.

use ekm_linalg::Matrix;
use ekm_net::bitstream::BitWriter;
use ekm_net::messages::Message;
use ekm_net::wire::{encode_len, Precision};
use ekm_net::NetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

/// Decodes `bit_len` bits of `data` and checks the contract: no panic,
/// a decode error if it fails, and at most `8 · data.len() + 1024` bytes
/// requested from the allocator. Returns the decoded message, if any.
fn decode_checked(data: &[u8], bit_len: usize) -> Option<Message> {
    let before = REQUESTED.with(Cell::get);
    let result = catch_unwind(AssertUnwindSafe(|| Message::decode(data, bit_len)));
    let requested = REQUESTED.with(Cell::get) - before;
    let hex: String = data.iter().map(|b| format!("{b:02x}")).collect();
    let result = result.unwrap_or_else(|_| panic!("decode panicked on {bit_len} bits of {hex}"));
    assert!(
        requested <= 8 * data.len() + 1024,
        "decode of {} bytes requested {requested} bytes: {bit_len} bits of {hex}",
        data.len()
    );
    match result {
        Ok(msg) => Some(msg),
        Err(
            NetError::UnexpectedEnd { .. }
            | NetError::UnknownMessageTag { .. }
            | NetError::MalformedMessage { .. }
            | NetError::InvalidPrecision { .. },
        ) => None,
        Err(other) => panic!("decode returned a non-decode error {other:?} on {hex}"),
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
