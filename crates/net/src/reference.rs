//! Test oracle: the byte-at-a-time bit writer and reader and the
//! three-field quantized scalar codec that the word-width codec in
//! [`crate::bitstream`] and [`crate::wire`] replaced. The byte-identity
//! tests hold the production codec to these, bit for bit and error for
//! error.

use crate::wire::Precision;
use crate::{NetError, Result};
use ekm_linalg::Matrix;
use ekm_quant::rounding::{EXPONENT_BITS, STORED_SIGNIFICAND_BITS};

/// MSB-first writer that fills one byte at a time.
#[derive(Debug, Default)]
pub(crate) struct RefWriter {
    buf: Vec<u8>,
    bit_len: usize,
}

impl RefWriter {
    pub(crate) fn new() -> Self {
        RefWriter::default()
    }

    pub(crate) fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "write_bits: n = {n} > 64");
        if n == 0 {
            return;
        }
        let masked = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let mut remaining = n;
        while remaining > 0 {
            let bit_in_byte = self.bit_len % 8;
            if bit_in_byte == 0 {
                self.buf.push(0);
            }
            let space = (8 - bit_in_byte) as u32;
            let take = space.min(remaining);
            let shift = remaining - take;
            let chunk = ((masked >> shift) & ((1u64 << take) - 1)) as u8;
            let byte = self.buf.last_mut().expect("pushed above");
            *byte |= chunk << (space - take);
            self.bit_len += take as usize;
            remaining -= take;
        }
    }

    pub(crate) fn finish(self) -> (Vec<u8>, usize) {
        (self.buf, self.bit_len)
    }
}

/// MSB-first reader that drains one byte at a time.
#[derive(Debug)]
pub(crate) struct RefReader<'a> {
    data: &'a [u8],
    bit_len: usize,
    pos: usize,
}

impl<'a> RefReader<'a> {
    pub(crate) fn new(data: &'a [u8], bit_len: usize) -> Self {
        RefReader {
            data,
            bit_len: bit_len.min(data.len() * 8),
            pos: 0,
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    pub(crate) fn read_bits(&mut self, n: u32) -> Result<u64> {
        assert!(n <= 64, "read_bits: n = {n} > 64");
        if (self.remaining() as u64) < n as u64 {
            return Err(NetError::UnexpectedEnd {
                requested: n,
                remaining: self.remaining(),
            });
        }
        let mut out: u64 = 0;
        let mut remaining = n;
        while remaining > 0 {
            let byte = self.data[self.pos / 8];
            let bit_in_byte = self.pos % 8;
            let avail = (8 - bit_in_byte) as u32;
            let take = avail.min(remaining);
            let shift = avail - take;
            let chunk = ((byte >> shift) as u64) & ((1u64 << take) - 1);
            out = (out << take) | chunk;
            self.pos += take as usize;
            remaining -= take;
        }
        Ok(out)
    }
}

/// One scalar; a quantized one as three fields: sign, exponent, and the
/// top `s` stored significand bits.
pub(crate) fn encode_f64(w: &mut RefWriter, x: f64, precision: Precision) {
    match precision {
        Precision::Full => w.write_bits(x.to_bits(), 64),
        Precision::F32 => w.write_bits((x as f32).to_bits() as u64, 32),
        Precision::Quantized { s } => {
            let bits = x.to_bits();
            let sign = bits >> 63;
            let exponent = (bits >> STORED_SIGNIFICAND_BITS) & ((1u64 << EXPONENT_BITS) - 1);
            let mantissa_top =
                (bits & ((1u64 << STORED_SIGNIFICAND_BITS) - 1)) >> (STORED_SIGNIFICAND_BITS - s);
            w.write_bits(sign, 1);
            w.write_bits(exponent, EXPONENT_BITS);
            w.write_bits(mantissa_top, s);
        }
    }
}

pub(crate) fn decode_f64(r: &mut RefReader<'_>, precision: Precision) -> Result<f64> {
    match precision {
        Precision::Full => Ok(f64::from_bits(r.read_bits(64)?)),
        Precision::F32 => Ok(f32::from_bits(r.read_bits(32)? as u32) as f64),
        Precision::Quantized { s } => {
            let sign = r.read_bits(1)?;
            let exponent = r.read_bits(EXPONENT_BITS)?;
            let mantissa_top = r.read_bits(s)?;
            let bits = (sign << 63)
                | (exponent << STORED_SIGNIFICAND_BITS)
                | (mantissa_top << (STORED_SIGNIFICAND_BITS - s));
            Ok(f64::from_bits(bits))
        }
    }
}

pub(crate) fn encode_f64_slice(w: &mut RefWriter, xs: &[f64], precision: Precision) {
    w.write_bits(xs.len() as u64, 32);
    for &x in xs {
        encode_f64(w, x, precision);
    }
}

pub(crate) fn encode_matrix(w: &mut RefWriter, m: &Matrix, precision: Precision) {
    w.write_bits(m.rows() as u64, 32);
    w.write_bits(m.cols() as u64, 32);
    for &x in m.as_slice() {
        encode_f64(w, x, precision);
    }
}

/// Rejects a run the stream cannot hold, as the production decoders do
/// (the scalar-per-call decode below reads each value separately).
fn check_run(r: &RefReader<'_>, count: usize, precision: Precision) -> Result<()> {
    if count > r.remaining() / precision.bits_per_scalar() as usize {
        return Err(NetError::MalformedMessage {
            reason: "run longer than payload",
        });
    }
    Ok(())
}

pub(crate) fn decode_f64_slice(r: &mut RefReader<'_>, precision: Precision) -> Result<Vec<f64>> {
    let len = r.read_bits(32)? as usize;
    check_run(r, len, precision)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(decode_f64(r, precision)?);
    }
    Ok(out)
}

pub(crate) fn decode_matrix(r: &mut RefReader<'_>, precision: Precision) -> Result<Matrix> {
    let rows = r.read_bits(32)? as usize;
    let cols = r.read_bits(32)? as usize;
    let total = rows.checked_mul(cols).ok_or(NetError::MalformedMessage {
        reason: "matrix shape overflow",
    })?;
    check_run(r, total, precision)?;
    let mut data = Vec::with_capacity(total);
    for _ in 0..total {
        data.push(decode_f64(r, precision)?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}
