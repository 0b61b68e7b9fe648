//! Wire encoding of scalars, vectors, and matrices.
//!
//! Scalars travel either at full IEEE-754 width (64 bits) or quantized to
//! `1 + 11 + s` bits (sign, exponent, top-`s` stored significand bits —
//! paper §6.1). The quantized decoder zero-fills the dropped significand
//! bits, so `decode(encode(Γ(x))) == Γ(x)` exactly for the rounding
//! quantizer Γ with the same `s`.
//!
//! Sign, exponent and the top `s` significand bits are, in that order,
//! exactly the top `12 + s` bits of the IEEE-754 pattern, so a quantized
//! scalar is one field: `x.to_bits() >> (52 − s)` on the way out,
//! `f64::from_bits(field << (52 − s))` on the way in. Every precision is
//! therefore one [`BitWriter::write_bits`] or [`BitReader::read_bits`]
//! of 64, 32 or `12 + s` bits per scalar.
//!
//! Vectors and matrices are runs of such fields behind a 32-bit length
//! or two 32-bit shape fields. The encoders match the precision once,
//! outside the loop, and a message is encoded into one buffer of its
//! exact size (`Message::encode` knows it from the shapes). The decoders
//! first check the claimed count against the bits that remain, by
//! division so no claim can overflow the bound, and reject a run that
//! cannot fit as [`NetError::MalformedMessage`] before allocating
//! anything for it; then they read the whole run in one loop and
//! reserve exactly its length.

use crate::bitstream::{BitReader, BitWriter};
use crate::{NetError, Result};
use ekm_linalg::Matrix;
use ekm_quant::rounding::{EXPONENT_BITS, STORED_SIGNIFICAND_BITS};

/// Compute (kernel) precision, re-exported next to the wire
/// [`Precision`] so run configurations can carry both descriptors:
/// `Precision` governs how floats travel, `Compute` governs the scalar
/// type the distance kernels run in at either end.
pub use ekm_linalg::distance::Compute;

/// Precision at which float payloads are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full 64-bit IEEE-754 doubles.
    Full,
    /// 32-bit IEEE-754 singles (1 + 8 + 23): the scalar is rounded to the
    /// nearest `f32` and its bits travel verbatim — a free 2× on every
    /// full-precision payload whenever single precision suffices.
    F32,
    /// `1 + 11 + s` bits per scalar (the paper's quantized format).
    Quantized {
        /// Stored significand bits `s ∈ 1..=52`.
        s: u32,
    },
}

impl Precision {
    /// Bits one scalar occupies at this precision.
    pub fn bits_per_scalar(&self) -> u32 {
        match self {
            Precision::Full => 64,
            Precision::F32 => 32,
            Precision::Quantized { s } => 1 + EXPONENT_BITS + s,
        }
    }

    /// Validates the precision parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPrecision`] if `s ∉ 1..=52`.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Precision::Full | Precision::F32 => Ok(()),
            Precision::Quantized { s } => {
                if s == 0 || s > STORED_SIGNIFICAND_BITS {
                    Err(NetError::InvalidPrecision { s })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Encodes the precision itself (1 + 6 bits): the leading bit selects
    /// quantized, and for unquantized payloads the width field picks the
    /// IEEE-754 size (0 → 64-bit, 32 → 32-bit).
    pub(crate) fn encode(&self, w: &mut BitWriter) {
        match *self {
            Precision::Full => {
                w.write_bits(0, 1);
                w.write_bits(0, 6);
            }
            Precision::F32 => {
                w.write_bits(0, 1);
                w.write_bits(32, 6);
            }
            Precision::Quantized { s } => {
                w.write_bits(1, 1);
                w.write_bits(s as u64, 6);
            }
        }
    }

    /// Decodes a precision descriptor.
    pub(crate) fn decode(r: &mut BitReader<'_>) -> Result<Precision> {
        let quantized = r.read_bits(1)? == 1;
        let s = r.read_bits(6)? as u32;
        let p = match (quantized, s) {
            (false, 0) => Precision::Full,
            (false, 32) => Precision::F32,
            (false, _) => {
                return Err(NetError::MalformedMessage {
                    reason: "unknown unquantized precision width",
                })
            }
            (true, s) => Precision::Quantized { s },
        };
        p.validate()?;
        Ok(p)
    }
}

/// Bits a quantized scalar's IEEE-754 pattern drops: its field is the
/// pattern shifted right by this much.
fn dropped_bits(s: u32) -> u32 {
    STORED_SIGNIFICAND_BITS - s
}

/// Encodes one `f64` at the given precision.
pub fn encode_f64(w: &mut BitWriter, x: f64, precision: Precision) {
    encode_run(w, &[x], precision);
}

/// Decodes one `f64` encoded at the given precision.
///
/// # Errors
///
/// Returns [`NetError::UnexpectedEnd`] on truncated payloads.
pub fn decode_f64(r: &mut BitReader<'_>, precision: Precision) -> Result<f64> {
    Ok(match precision {
        Precision::Full => f64::from_bits(r.read_bits(64)?),
        Precision::F32 => f32::from_bits(r.read_bits(32)? as u32) as f64,
        Precision::Quantized { s } => {
            let shift = dropped_bits(s);
            f64::from_bits(r.read_bits(64 - shift)? << shift)
        }
    })
}

/// Encodes a run of scalars, one field each, matching the precision
/// once.
fn encode_run(w: &mut BitWriter, xs: &[f64], precision: Precision) {
    match precision {
        Precision::Full => xs.iter().for_each(|x| w.write_bits(x.to_bits(), 64)),
        Precision::F32 => xs
            .iter()
            .for_each(|&x| w.write_bits((x as f32).to_bits() as u64, 32)),
        Precision::Quantized { s } => {
            let shift = dropped_bits(s);
            xs.iter()
                .for_each(|x| w.write_bits(x.to_bits() >> shift, 64 - shift));
        }
    }
}

/// Decodes a run of `count` scalars. [`BitReader::read_run`] checks
/// once, by division, that the rest of the stream holds them, before
/// the result is allocated at exactly `count` values.
///
/// # Errors
///
/// Returns [`NetError::MalformedMessage`] (with `reason`) if the run
/// cannot fit.
fn decode_run(
    r: &mut BitReader<'_>,
    count: usize,
    precision: Precision,
    reason: &'static str,
) -> Result<Vec<f64>> {
    let fields = r
        .read_run(precision.bits_per_scalar(), count)
        .map_err(|_| NetError::MalformedMessage { reason })?;
    Ok(match precision {
        Precision::Full => fields.map(f64::from_bits).collect(),
        Precision::F32 => fields.map(|f| f32::from_bits(f as u32) as f64).collect(),
        Precision::Quantized { s } => {
            let shift = dropped_bits(s);
            fields.map(|f| f64::from_bits(f << shift)).collect()
        }
    })
}

/// Encodes a `u64` length/count field (fixed 32 bits — ample for our
/// payloads, negligible next to the data).
pub fn encode_len(w: &mut BitWriter, len: usize) {
    debug_assert!(len <= u32::MAX as usize, "length field overflow");
    w.write_bits(len as u64, 32);
}

/// Decodes a length/count field.
///
/// # Errors
///
/// Returns [`NetError::UnexpectedEnd`] on truncated payloads.
pub fn decode_len(r: &mut BitReader<'_>) -> Result<usize> {
    Ok(r.read_bits(32)? as usize)
}

/// Encodes a slice of `f64` (length-prefixed).
pub fn encode_f64_slice(w: &mut BitWriter, xs: &[f64], precision: Precision) {
    encode_len(w, xs.len());
    encode_run(w, xs, precision);
}

/// Decodes a slice of `f64`.
///
/// # Errors
///
/// * [`NetError::UnexpectedEnd`] on truncated payloads.
/// * [`NetError::MalformedMessage`] if the length field claims more
///   values than the payload holds.
pub fn decode_f64_slice(r: &mut BitReader<'_>, precision: Precision) -> Result<Vec<f64>> {
    let len = decode_len(r)?;
    decode_run(r, len, precision, "slice longer than payload")
}

/// Encodes a matrix (shape-prefixed, row-major entries).
pub fn encode_matrix(w: &mut BitWriter, m: &Matrix, precision: Precision) {
    encode_len(w, m.rows());
    encode_len(w, m.cols());
    encode_run(w, m.as_slice(), precision);
}

/// Decodes a matrix.
///
/// # Errors
///
/// * [`NetError::UnexpectedEnd`] on truncated payloads.
/// * [`NetError::MalformedMessage`] on absurd shapes.
pub fn decode_matrix(r: &mut BitReader<'_>, precision: Precision) -> Result<Matrix> {
    let rows = decode_len(r)?;
    let cols = decode_len(r)?;
    let total = rows.checked_mul(cols).ok_or(NetError::MalformedMessage {
        reason: "matrix shape overflow",
    })?;
    let data = decode_run(r, total, precision, "matrix larger than payload")?;
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, RefReader, RefWriter};
    use ekm_quant::RoundingQuantizer;
    use proptest::prelude::*;

    /// Values whose bit patterns stress a field codec: NaNs, ±0, ±∞,
    /// subnormals and the extremes of the normal range.
    const SPECIALS: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -2.2e-308,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0,
    ];

    fn scalar() -> impl Strategy<Value = f64> {
        prop_oneof![
            proptest::num::f64::ANY,
            (0usize..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
            -1.0e3f64..1.0e3,
        ]
    }

    /// A `rows × cols` matrix (either may be 0) preceded by a lead-in of
    /// 0..=7 bits, so runs start at every byte offset.
    fn case() -> impl Strategy<Value = (u32, Matrix)> {
        (0u32..8, 0usize..6, 0usize..6).prop_flat_map(|(lead, rows, cols)| {
            proptest::collection::vec(scalar(), rows * cols)
                .prop_map(move |data| (lead, Matrix::from_vec(rows, cols, data)))
        })
    }

    /// Full, F32 and every quantized width.
    fn precisions() -> impl Iterator<Item = Precision> {
        [Precision::Full, Precision::F32]
            .into_iter()
            .chain((1..=STORED_SIGNIFICAND_BITS).map(|s| Precision::Quantized { s }))
    }

    fn encode_both(lead: u32, m: &Matrix, p: Precision) -> ((Vec<u8>, usize), (Vec<u8>, usize)) {
        let mut w = BitWriter::new();
        let mut reference = RefWriter::new();
        w.write_bits(u64::MAX, lead);
        reference.write_bits(u64::MAX, lead);
        encode_matrix(&mut w, m, p);
        reference::encode_matrix(&mut reference, m, p);
        encode_f64_slice(&mut w, m.as_slice(), p);
        reference::encode_f64_slice(&mut reference, m.as_slice(), p);
        encode_f64(&mut w, m.as_slice().first().copied().unwrap_or(-0.0), p);
        reference::encode_f64(
            &mut reference,
            m.as_slice().first().copied().unwrap_or(-0.0),
            p,
        );
        (w.finish(), reference.finish())
    }

    /// Decodes the [`encode_both`] layout with the production decoders
    /// and with the reference, returning each side's values as bit
    /// patterns, or whether it erred.
    fn decode_both(buf: &[u8], bits: usize, lead: u32, p: Precision) -> [Option<Vec<u64>>; 2] {
        let mut r = BitReader::new(buf, bits);
        let ours = (|| {
            r.read_bits(lead)?;
            let m = decode_matrix(&mut r, p)?;
            let xs = decode_f64_slice(&mut r, p)?;
            let x = decode_f64(&mut r, p)?;
            Ok::<_, NetError>((m.shape(), m.into_vec(), xs, x))
        })();
        let mut r = RefReader::new(buf, bits);
        let theirs = (|| {
            r.read_bits(lead)?;
            let m = reference::decode_matrix(&mut r, p)?;
            let xs = reference::decode_f64_slice(&mut r, p)?;
            let x = reference::decode_f64(&mut r, p)?;
            Ok::<_, NetError>((m.shape(), m.into_vec(), xs, x))
        })();
        [ours, theirs].map(|res| {
            res.ok().map(|((rows, cols), m, xs, x)| {
                let mut out = vec![rows as u64, cols as u64];
                out.extend(m.iter().chain(&xs).chain([&x]).map(|v| v.to_bits()));
                out
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The matrix, slice and scalar encoders write the reference's
        /// bytes and bit length at every precision and start offset.
        #[test]
        fn encoders_are_bytewise_the_reference((lead, m) in case()) {
            for p in precisions() {
                let (ours, theirs) = encode_both(lead, &m, p);
                prop_assert_eq!(ours, theirs, "{:?}", p);
            }
        }

        /// On valid encodings the decoders return the reference's values
        /// bit for bit; cut anywhere, they err exactly where it does.
        #[test]
        fn decoders_are_the_reference_on_valid_and_truncated_input((lead, m) in case()) {
            for p in precisions() {
                let ((buf, bits), _) = encode_both(lead, &m, p);
                let [ours, theirs] = decode_both(&buf, bits, lead, p);
                prop_assert!(ours.is_some());
                prop_assert_eq!(&ours, &theirs, "{:?}", p);
                for cut in (0..bits).step_by(1 + bits / 97) {
                    let [ours, theirs] = decode_both(&buf, cut, lead, p);
                    prop_assert_eq!(ours, theirs, "{:?} cut at {}", p, cut);
                }
            }
        }

        /// Arbitrary bytes decode to the reference's values or fail
        /// where it fails, both raw and behind a small claimed shape
        /// that the bytes may or may not hold.
        #[test]
        fn decoders_are_the_reference_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
            (lead, rows, cols) in (0u32..8, 0u64..4, 0u64..4),
        ) {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            w.write_bits(rows, 32);
            w.write_bits(cols, 32);
            bytes.iter().for_each(|&b| w.write_bits(b.into(), 8));
            let (shaped, shaped_bits) = w.finish();
            for p in precisions() {
                let [ours, theirs] = decode_both(&bytes, bytes.len() * 8, lead, p);
                prop_assert_eq!(ours, theirs, "{:?}", p);
                let [ours, theirs] = decode_both(&shaped, shaped_bits, lead, p);
                prop_assert_eq!(ours, theirs, "{:?} behind {}x{}", p, rows, cols);
            }
        }
    }

    #[test]
    fn compute_descriptor_parses_both_ways() {
        // The re-exported compute descriptor must roundtrip through its
        // textual form, which is what run configs put on the wire.
        for c in [Compute::F64, Compute::F32] {
            assert_eq!(Compute::parse(c.as_str()), Some(c));
            assert_eq!(format!("{c}"), c.as_str());
        }
        assert_eq!(Compute::parse("f16"), None);
        assert_eq!(Compute::default(), Compute::F64);
    }

    fn roundtrip_f64(x: f64, p: Precision) -> f64 {
        let mut w = BitWriter::new();
        encode_f64(&mut w, x, p);
        let (buf, bits) = w.finish();
        assert_eq!(bits as u32, p.bits_per_scalar());
        let mut r = BitReader::new(&buf, bits);
        decode_f64(&mut r, p).unwrap()
    }

    #[test]
    fn full_precision_exact() {
        for &x in &[0.0, -0.0, 1.5, -3.25e300, f64::MIN_POSITIVE, f64::MAX] {
            let y = roundtrip_f64(x, Precision::Full);
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(roundtrip_f64(f64::NAN, Precision::Full).is_nan());
    }

    #[test]
    fn quantized_roundtrip_exact_after_quantizer() {
        use rand::Rng;
        let mut rng = ekm_linalg::random::rng_from_seed(1);
        for s in [1u32, 4, 11, 23, 52] {
            let q = RoundingQuantizer::new(s).unwrap();
            let p = Precision::Quantized { s };
            for _ in 0..500 {
                let x: f64 = (rng.gen::<f64>() - 0.5) * 1e6;
                let qx = q.quantize(x);
                let y = roundtrip_f64(qx, p);
                assert_eq!(qx.to_bits(), y.to_bits(), "s={s} x={x}");
            }
        }
    }

    #[test]
    fn quantized_encoding_truncates_unquantized_values() {
        // Encoding an unquantized value at s bits truncates (not rounds) —
        // callers must quantize first; the error is still ≤ 2^{1-s}|x|.
        let x = std::f64::consts::PI;
        let y = roundtrip_f64(x, Precision::Quantized { s: 8 });
        assert!((x - y).abs() <= x * 2f64.powi(-7));
    }

    #[test]
    fn bits_per_scalar() {
        assert_eq!(Precision::Full.bits_per_scalar(), 64);
        assert_eq!(Precision::F32.bits_per_scalar(), 32);
        assert_eq!(Precision::Quantized { s: 8 }.bits_per_scalar(), 20);
        assert_eq!(Precision::Quantized { s: 52 }.bits_per_scalar(), 64);
    }

    #[test]
    fn f32_roundtrip_is_the_nearest_single() {
        // Exact for f32-representable values (sign, zero, subnormal, inf).
        for &x in &[
            0.0,
            -0.0,
            1.5,
            -3.25,
            f32::MIN_POSITIVE as f64,
            2f64.powi(90),
        ] {
            let y = roundtrip_f64(x, Precision::F32);
            assert_eq!(y.to_bits(), x.to_bits(), "{x}");
        }
        assert!(roundtrip_f64(f64::NAN, Precision::F32).is_nan());
        // Values outside f32 range saturate to ±inf, like the cast.
        assert_eq!(roundtrip_f64(1e300, Precision::F32), f64::INFINITY);
        // Otherwise the decode is exactly (x as f32) as f64 — idempotent.
        let x = std::f64::consts::PI;
        let y = roundtrip_f64(x, Precision::F32);
        assert_eq!(y, (x as f32) as f64);
        assert_eq!(roundtrip_f64(y, Precision::F32), y);
    }

    #[test]
    fn precision_descriptor_roundtrip() {
        for p in [
            Precision::Full,
            Precision::F32,
            Precision::Quantized { s: 1 },
            Precision::Quantized { s: 52 },
        ] {
            let mut w = BitWriter::new();
            p.encode(&mut w);
            let (buf, bits) = w.finish();
            let mut r = BitReader::new(&buf, bits);
            assert_eq!(Precision::decode(&mut r).unwrap(), p);
        }
    }

    #[test]
    fn precision_validation() {
        assert!(Precision::Full.validate().is_ok());
        assert!(Precision::F32.validate().is_ok());
        assert!(Precision::Quantized { s: 52 }.validate().is_ok());
        assert!(Precision::Quantized { s: 0 }.validate().is_err());
        assert!(Precision::Quantized { s: 53 }.validate().is_err());
    }

    #[test]
    fn unknown_unquantized_width_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        w.write_bits(7, 6); // neither 0 (Full) nor 32 (F32)
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert!(matches!(
            Precision::decode(&mut r),
            Err(NetError::MalformedMessage { .. })
        ));
    }

    #[test]
    fn slice_roundtrip() {
        let xs = vec![1.0, -2.5, 0.0, 1e-10];
        let mut w = BitWriter::new();
        encode_f64_slice(&mut w, &xs, Precision::Full);
        let (buf, bits) = w.finish();
        assert_eq!(bits, 32 + 4 * 64);
        let mut r = BitReader::new(&buf, bits);
        assert_eq!(decode_f64_slice(&mut r, Precision::Full).unwrap(), xs);
    }

    #[test]
    fn matrix_roundtrip_full_and_quantized() {
        let m = Matrix::from_fn(7, 3, |i, j| (i as f64 - 3.0) * 1.37 + j as f64 * 0.11);
        // Full precision: exact.
        let mut w = BitWriter::new();
        encode_matrix(&mut w, &m, Precision::Full);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert!(decode_matrix(&mut r, Precision::Full)
            .unwrap()
            .approx_eq(&m, 0.0));
        // Quantized: exact after quantization.
        let q = RoundingQuantizer::new(10).unwrap();
        let qm = q.quantize_matrix(&m);
        let mut w = BitWriter::new();
        encode_matrix(&mut w, &qm, Precision::Quantized { s: 10 });
        let (buf, bits) = w.finish();
        assert_eq!(bits, 64 + 21 * 22);
        let mut r = BitReader::new(&buf, bits);
        assert!(decode_matrix(&mut r, Precision::Quantized { s: 10 })
            .unwrap()
            .approx_eq(&qm, 0.0));
    }

    #[test]
    fn truncated_payload_errors() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut w = BitWriter::new();
        encode_matrix(&mut w, &m, Precision::Full);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits - 10);
        assert!(decode_matrix(&mut r, Precision::Full).is_err());
    }

    #[test]
    fn oversized_shape_rejected() {
        let mut w = BitWriter::new();
        encode_len(&mut w, 1_000_000);
        encode_len(&mut w, 1_000_000);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert!(matches!(
            decode_matrix(&mut r, Precision::Full),
            Err(NetError::MalformedMessage { .. })
        ));
    }

    /// A `RawData` payload of `bytes` bytes claiming a `rows × cols`
    /// matrix, zero-filled after its shape.
    fn raw_data_claim(rows: u32, cols: u32, bytes: usize) -> (Vec<u8>, usize) {
        let mut w = BitWriter::new();
        w.write_bits(1, 8); // raw-data tag
        encode_len(&mut w, rows as usize);
        encode_len(&mut w, cols as usize);
        for _ in 9..bytes {
            w.write_bits(0, 8);
        }
        w.finish()
    }

    fn assert_malformed_everywhere(buf: Vec<u8>, bits: usize) {
        use crate::messages::Message;
        use crate::protocol::Payload;
        assert!(matches!(
            Message::decode(&buf, bits),
            Err(NetError::MalformedMessage { .. })
        ));
        assert!(matches!(
            Payload::from_encoded(buf, bits as u64).decode(),
            Err(NetError::MalformedMessage { .. })
        ));
    }

    #[test]
    fn shape_claims_that_overflow_a_size_product_are_malformed() {
        // 13 × (1,546,420,032 × 917,590,489) wraps a u64 to 31,808, which
        // an overflowing guard compared with the 32,000 remaining bits.
        let (buf, bits) = raw_data_claim(1_546_420_032, 917_590_489, 4_009);
        assert_eq!((buf.len(), bits), (4_009, 32_072));
        assert_malformed_everywhere(buf, bits);
        // (2³²−1)² fits a u64, but 13 times it does not.
        let (buf, bits) = raw_data_claim(u32::MAX, u32::MAX, 4_009);
        assert_malformed_everywhere(buf, bits);
    }

    #[test]
    fn slice_length_claims_beyond_the_payload_are_malformed() {
        // A 118-bit coreset: 0×0 points, then a weights length of 2³²−1.
        let mut w = BitWriter::new();
        w.write_bits(2, 8); // coreset tag
        Precision::Full.encode(&mut w);
        Precision::Full.encode(&mut w);
        encode_len(&mut w, 0);
        encode_len(&mut w, 0);
        encode_len(&mut w, u32::MAX as usize);
        let (buf, bits) = w.finish();
        assert_eq!(bits, 118);
        assert_malformed_everywhere(buf, bits);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = Matrix::zeros(0, 5);
        let mut w = BitWriter::new();
        encode_matrix(&mut w, &m, Precision::Full);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        let back = decode_matrix(&mut r, Precision::Full).unwrap();
        assert_eq!(back.shape(), (0, 5));
    }
}
