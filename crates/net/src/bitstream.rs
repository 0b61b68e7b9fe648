//! Bit-granular serialization primitives.
//!
//! Quantized scalars occupy `1 + 11 + s` bits (paper §6.1), which is not
//! byte aligned for most `s`; the writer/reader here pack values MSB-first
//! into a byte buffer and track the exact bit length so communication
//! counters are bit-accurate.
//!
//! Both ends move whole words, not bytes:
//!
//! * [`BitWriter`] collects bits MSB-first in a 64-bit accumulator and
//!   appends it to the buffer as one big-endian word each time it fills;
//!   [`BitWriter::finish`] appends only the bytes the pending bits touch,
//!   zero-padded, so the buffer is always `⌈bit_len / 8⌉` bytes. A
//!   writer made for an encoding of known size allocates it once.
//! * [`BitReader::read_bits`] loads the big-endian 64-bit window that
//!   starts at the byte holding the read position and shifts the field
//!   out of it: any width 0..=64 at any bit offset. A 64-bit field at a
//!   nonzero offset spans 9 bytes, so it takes its last `offset` bits
//!   from the byte after the window. In the last 8 bytes of the buffer
//!   the window is copied out zero-padded instead.
//!
//! The byte layout is independent of how the bits were moved: every
//! sequence of writes yields the same bytes and bit length as a writer
//! that packs one byte at a time, and every read returns what a
//! byte-at-a-time reader would, down to the
//! [`UnexpectedEnd`](NetError::UnexpectedEnd) error of a truncated
//! stream. The unit tests check both against such a reference.

use crate::{NetError, Result};

/// An MSB-first bit writer.
///
/// # Example
///
/// ```
/// use ekm_net::bitstream::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFFFF, 16);
/// let (buf, bits) = w.finish();
/// assert_eq!(bits, 19);
/// let mut r = BitReader::new(&buf, bits);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Whole flushed words, big-endian.
    buf: Vec<u8>,
    /// Pending bits, left-aligned: the first written is bit 63.
    acc: u64,
    /// Number of pending bits in `acc` (`0..64`).
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.acc_bits as usize
    }

    /// Creates an empty writer with room for exactly `bits` bits, so an
    /// encoding whose size is known in advance is written without
    /// reallocating.
    pub(crate) fn with_capacity(bits: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bits.div_ceil(64) * 8),
            ..BitWriter::default()
        }
    }

    /// Appends the low `n` bits of `value` (MSB of those `n` first).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "write_bits: n = {n} > 64");
        if n == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - n));
        let free = 64 - self.acc_bits;
        if n < free {
            self.acc |= value << (free - n);
            self.acc_bits += n;
        } else {
            // The top `free` bits complete the word; the other `rest`
            // start the next one.
            let rest = n - free;
            self.acc |= value >> rest;
            self.buf.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = if rest == 0 { 0 } else { value << (64 - rest) };
            self.acc_bits = rest;
        }
    }

    /// Consumes the writer, returning the packed buffer and its exact bit
    /// length.
    pub fn finish(mut self) -> (Vec<u8>, usize) {
        let bits = self.bit_len();
        let tail = self.acc_bits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        (self.buf, bits)
    }
}

/// An MSB-first bit reader over a packed buffer.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    bit_len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a buffer whose meaningful prefix is `bit_len` bits.
    pub fn new(data: &'a [u8], bit_len: usize) -> Self {
        BitReader {
            data,
            bit_len: bit_len.min(data.len() * 8),
            pos: 0,
        }
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// Reads `n` bits into the low end of a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnexpectedEnd`] if fewer than `n` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        assert!(n <= 64, "read_bits: n = {n} > 64");
        if (self.remaining() as u64) < n as u64 {
            return Err(NetError::UnexpectedEnd {
                requested: n,
                remaining: self.remaining(),
            });
        }
        if n == 0 {
            return Ok(0);
        }
        let field = field_at(self.data, self.pos, n);
        self.pos += n as usize;
        Ok(field)
    }

    /// Reads `count` consecutive `n`-bit fields, in order. The run is
    /// checked against [`remaining`](Self::remaining) once, by division,
    /// and consumed whole; the fields then come out without further
    /// checks. A run that does not fit consumes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnexpectedEnd`] if fewer than `count · n` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 1..=64`.
    pub(crate) fn read_run(
        &mut self,
        n: u32,
        count: usize,
    ) -> Result<impl Iterator<Item = u64> + 'a> {
        assert!((1..=64).contains(&n), "read_run: n = {n} ∉ 1..=64");
        if count > self.remaining() / n as usize {
            return Err(NetError::UnexpectedEnd {
                requested: n,
                remaining: self.remaining(),
            });
        }
        let (data, start) = (self.data, self.pos);
        self.pos += count * n as usize;
        Ok((0..count).map(move |i| field_at(data, start + i * n as usize, n)))
    }
}

/// The `n`-bit field, `n ∈ 1..=64`, at bit `pos` of `data`, which must
/// hold it: the big-endian window at the field's first byte, shifted.
#[inline(always)]
fn field_at(data: &[u8], pos: usize, n: u32) -> u64 {
    let byte = pos / 8;
    let offset = (pos % 8) as u32;
    let field = match data.get(byte..byte + 8) {
        Some(window) => {
            let window = u64::from_be_bytes(window.try_into().expect("8-byte window"));
            let mut field = window << offset;
            if offset + n > 64 {
                // The field ends in the byte after the window, which
                // exists: the field's end lies past the window's.
                field |= u64::from(data[byte + 8]) >> (8 - offset);
            }
            field
        }
        None => {
            // Fewer than 8 bytes left, so the field ends inside them.
            let tail = &data[byte..];
            let mut window = [0u8; 8];
            window[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(window) << offset
        }
    };
    field >> (64 - n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefReader, RefWriter};
    use proptest::prelude::*;

    /// Write sequences: a lead-in of 0..=7 bits sets the start offset,
    /// then fields of every width 0..=64 whose values keep bits above
    /// the width set.
    fn writes() -> impl Strategy<Value = Vec<(u64, u32)>> {
        (
            0u32..8,
            proptest::collection::vec((0u64..=u64::MAX, 0u32..=64), 0..48),
        )
            .prop_map(|(lead, mut fields)| {
                fields.insert(0, (u64::MAX, lead));
                fields
            })
    }

    fn write_both(fields: &[(u64, u32)]) -> ((Vec<u8>, usize), (Vec<u8>, usize)) {
        let mut w = BitWriter::new();
        let mut reference = RefWriter::new();
        for &(v, n) in fields {
            w.write_bits(v, n);
            reference.write_bits(v, n);
        }
        (w.finish(), reference.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any write sequence leaves the byte-at-a-time writer's bytes
        /// and bit length, with its running bit length after every
        /// write.
        #[test]
        fn writer_is_bytewise_the_reference(fields in writes()) {
            let mut w = BitWriter::new();
            let mut written = 0usize;
            for &(v, n) in &fields {
                w.write_bits(v, n);
                written += n as usize;
                prop_assert_eq!(w.bit_len(), written);
            }
            let (ours, reference) = write_both(&fields);
            prop_assert_eq!(ours, reference);
        }

        /// Reading the written widths back returns the byte-at-a-time
        /// reader's values, and at every truncation point its exact
        /// `UnexpectedEnd { requested, remaining }`.
        #[test]
        fn reader_is_the_reference_at_every_truncation(fields in writes()) {
            let ((buf, bits), _) = write_both(&fields);
            for cut in 0..=bits {
                let mut r = BitReader::new(&buf, cut);
                let mut reference = RefReader::new(&buf, cut);
                for &(_, n) in &fields {
                    let got = r.read_bits(n);
                    prop_assert_eq!(&got, &reference.read_bits(n), "cut {} width {}", cut, n);
                    prop_assert_eq!(r.remaining(), reference.remaining());
                    if got.is_err() {
                        break;
                    }
                }
            }
        }

        /// A run of equal-width fields reads what field-by-field reads
        /// would, from every start offset; a run one field too long
        /// fails without consuming anything.
        #[test]
        fn runs_are_the_reference_reads(
            lead in 0u32..8,
            n in 1u32..=64,
            values in proptest::collection::vec(0u64..=u64::MAX, 0..40),
        ) {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            for &v in &values {
                w.write_bits(v, n);
            }
            let (buf, bits) = w.finish();
            let mut r = BitReader::new(&buf, bits);
            r.read_bits(lead).unwrap();
            let before = r.remaining();
            prop_assert!(r.read_run(n, values.len() + 1).is_err());
            prop_assert_eq!(r.remaining(), before);
            let mut reference = RefReader::new(&buf, bits);
            reference.read_bits(lead).unwrap();
            let got: Vec<u64> = r.read_run(n, values.len()).unwrap().collect();
            for f in got {
                prop_assert_eq!(f, reference.read_bits(n).unwrap());
            }
            prop_assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn wide_fields_at_every_offset_span_nine_bytes() {
        // A 64-bit field at offset o > 0 ends in the byte after its
        // window; near the buffer's end the window is padded instead.
        for lead in 0..8u32 {
            for tail in 0..16u32 {
                let fields = [
                    (0x5A5A_5A5A, lead),
                    (0x8123_4567_89AB_CDEF, 64),
                    (u64::MAX, tail),
                ];
                let ((buf, bits), reference) = write_both(&fields);
                assert_eq!((buf.clone(), bits), reference);
                let mut r = BitReader::new(&buf, bits);
                r.read_bits(lead).unwrap();
                assert_eq!(r.read_bits(64).unwrap(), 0x8123_4567_89AB_CDEF);
                let ones = if tail == 0 {
                    0
                } else {
                    u64::MAX >> (64 - tail)
                };
                assert_eq!(r.read_bits(tail).unwrap(), ones);
            }
        }
    }

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0u64, 1u32),
            (1, 1),
            (0b10110, 5),
            (0xDEADBEEF, 32),
            (u64::MAX, 64),
            (0x123456789ABCDEF0, 61),
            (7, 3),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let total: u32 = values.iter().map(|&(_, n)| n).sum();
        let (buf, bits) = w.finish();
        assert_eq!(bits, total as usize);
        let mut r = BitReader::new(&buf, bits);
        for &(v, n) in &values {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            assert_eq!(r.read_bits(n).unwrap(), v & mask, "width {n}");
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn overrun_is_detected() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert!(matches!(
            r.read_bits(3),
            Err(NetError::UnexpectedEnd {
                requested: 3,
                remaining: 2
            })
        ));
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        let (buf, bits) = w.finish();
        assert!(buf.is_empty());
        assert_eq!(bits, 0);
    }

    #[test]
    fn buffer_size_is_minimal() {
        let mut w = BitWriter::new();
        w.write_bits(0x1FF, 9); // 9 bits → 2 bytes
        let (buf, bits) = w.finish();
        assert_eq!(bits, 9);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0000000, 7);
        let (buf, _) = w.finish();
        assert_eq!(buf[0], 0b1000_0000);
    }

    #[test]
    fn values_are_masked_to_width() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits (0xF) survive
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert_eq!(r.read_bits(4).unwrap(), 0xF);
    }

    #[test]
    fn reader_clamps_bit_len_to_buffer() {
        let buf = [0xFFu8];
        let mut r = BitReader::new(&buf, 999);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
    }

    #[test]
    fn long_random_roundtrip() {
        use rand::Rng;
        let mut rng = ekm_linalg::random::rng_from_seed(5);
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for _ in 0..2000 {
            let n: u32 = rng.gen_range(1..=64);
            let v: u64 = rng.gen();
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            w.write_bits(v, n);
            expect.push((v & mask, n));
        }
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        for (v, n) in expect {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }
}
