//! Property-based tests for the wire format and network accounting.

use ekm_linalg::Matrix;
use ekm_net::bitstream::{BitReader, BitWriter};
use ekm_net::messages::Message;
use ekm_net::protocol::{charge_response, Payload, Response};
use ekm_net::wire::{
    decode_f64, decode_f64_slice, decode_matrix, encode_f64, encode_f64_slice, encode_matrix,
    Precision,
};
use ekm_net::NetworkStats;
use ekm_quant::RoundingQuantizer;
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.0e6f64..1.0e6, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bit sequences round-trip through the bitstream.
    #[test]
    fn bitstream_roundtrip(values in proptest::collection::vec((0u64..u64::MAX, 1u32..=64), 1..64)) {
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        for &(v, n) in &values {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Full-precision f64 encoding is bit-exact.
    #[test]
    fn f64_full_roundtrip(x in proptest::num::f64::ANY) {
        let mut w = BitWriter::new();
        encode_f64(&mut w, x, Precision::Full);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        let y = decode_f64(&mut r, Precision::Full).unwrap();
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }

    /// F32 encoding decodes to exactly `(x as f32) as f64` — the nearest
    /// single — in exactly 32 bits, and is idempotent: re-encoding a
    /// decoded value is lossless.
    #[test]
    fn f32_roundtrip(x in proptest::num::f64::ANY) {
        let mut w = BitWriter::new();
        encode_f64(&mut w, x, Precision::F32);
        let (buf, bits) = w.finish();
        prop_assert_eq!(bits, 32);
        let mut r = BitReader::new(&buf, bits);
        let y = decode_f64(&mut r, Precision::F32).unwrap();
        prop_assert_eq!(y.to_bits(), ((x as f32) as f64).to_bits());
        // Idempotence: a second trip through the wire is exact.
        let mut w = BitWriter::new();
        encode_f64(&mut w, y, Precision::F32);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        prop_assert_eq!(decode_f64(&mut r, Precision::F32).unwrap().to_bits(), y.to_bits());
    }

    /// F32 matrices round-trip at exactly half the full-precision size,
    /// and losslessly once the entries are f32-representable.
    #[test]
    fn f32_matrix_roundtrip(m in small_matrix()) {
        let single = Matrix::from_vec(
            m.rows(),
            m.cols(),
            m.as_slice().iter().map(|&x| (x as f32) as f64).collect(),
        );
        let mut w = BitWriter::new();
        encode_matrix(&mut w, &single, Precision::F32);
        let (buf, bits) = w.finish();
        let entries = (m.rows() * m.cols()) as u32;
        prop_assert_eq!(bits as u32, 64 + 32 * entries);
        let mut r = BitReader::new(&buf, bits);
        let back = decode_matrix(&mut r, Precision::F32).unwrap();
        prop_assert_eq!(back.shape(), single.shape());
        for (a, b) in single.as_slice().iter().zip(back.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Coreset messages carrying an F32 payload round-trip (the
    /// precision descriptor distinguishes all three variants).
    #[test]
    fn f32_coreset_message_roundtrip(points in small_matrix(), delta in 0.0f64..10.0) {
        let single = Matrix::from_vec(
            points.rows(),
            points.cols(),
            points.as_slice().iter().map(|&x| (x as f32) as f64).collect(),
        );
        let msg = Message::Coreset {
            points: single,
            weights: vec![1.0; points.rows()],
            delta,
            precision: Precision::F32,
            weights_precision: Precision::F32,
        };
        let (buf, bits) = msg.encode();
        let back = Message::decode(&buf, bits).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Basis and SVD-summary messages carrying their payloads at F32
    /// round-trip exactly once the entries are f32-representable, and
    /// the aux payload travels at exactly half the full-precision width.
    #[test]
    fn f32_aux_payload_messages_roundtrip(m in small_matrix()) {
        let single = Matrix::from_vec(
            m.rows(),
            m.cols(),
            m.as_slice().iter().map(|&x| (x as f32) as f64).collect(),
        );
        let basis_full = Message::Basis { basis: single.clone(), precision: Precision::Full };
        let basis_f32 = Message::Basis { basis: single.clone(), precision: Precision::F32 };
        let (buf, bits) = basis_f32.encode();
        prop_assert_eq!(Message::decode(&buf, bits).unwrap(), basis_f32.clone());
        let entries = (m.rows() * m.cols()) as u32;
        prop_assert_eq!(basis_full.encode().1 as u32 - bits as u32, 32 * entries);

        let svd = Message::SvdSummary {
            singular_values: vec![1.5; single.cols()],
            basis: single,
            precision: Precision::F32,
        };
        let (buf, bits) = svd.encode();
        prop_assert_eq!(Message::decode(&buf, bits).unwrap(), svd);
    }

    /// Quantize-then-encode is lossless at the matching precision.
    #[test]
    fn quantized_roundtrip(x in -1.0e9f64..1.0e9, s in 1u32..=52) {
        let q = RoundingQuantizer::new(s).unwrap();
        let qx = q.quantize(x);
        let mut w = BitWriter::new();
        encode_f64(&mut w, qx, Precision::Quantized { s });
        let (buf, bits) = w.finish();
        prop_assert_eq!(bits as u32, 12 + s);
        let mut r = BitReader::new(&buf, bits);
        let y = decode_f64(&mut r, Precision::Quantized { s }).unwrap();
        prop_assert_eq!(qx.to_bits(), y.to_bits());
    }

    /// Every message kind round-trips through encode/decode.
    #[test]
    fn message_roundtrip(points in small_matrix(), delta in 0.0f64..100.0, cost in 0.0f64..1e9) {
        let weights = vec![1.5; points.rows()];
        let messages = vec![
            Message::RawData { points: points.clone() },
            Message::Coreset {
                points: points.clone(),
                weights,
                delta,
                precision: Precision::Full,
                weights_precision: Precision::Full,
            },
            Message::CostReport { cost },
            Message::SampleAllocation { size: points.rows() as u64 },
            Message::Centers { centers: points.clone() },
            Message::Basis { basis: points.clone(), precision: Precision::Full },
            Message::SvdSummary {
                singular_values: vec![1.0; points.cols()],
                basis: points.clone(),
                precision: Precision::Full,
            },
        ];
        for msg in messages {
            let (buf, bits) = msg.encode();
            let back = Message::decode(&buf, bits).unwrap();
            prop_assert_eq!(back, msg);
        }
    }

    /// An uplink is charged exactly the encoded size, and its payload
    /// decodes to exactly the sent message.
    #[test]
    fn network_charges_encoded_bits(points in small_matrix(), sources in 1usize..5) {
        let mut stats = NetworkStats::new(sources);
        let msg = Message::RawData { points };
        let (_, bits) = msg.encode();
        let src = sources - 1;
        let payload = Payload::of(&msg);
        prop_assert_eq!(payload.decode().unwrap(), msg);
        let up = Response::Up { round: 1, payload, ops: 0, seconds: 0.0 };
        charge_response(&mut stats, src, &up).unwrap();
        prop_assert_eq!(stats.uplink_bits(src), bits as u64);
        prop_assert_eq!(stats.total_uplink_bits(), bits as u64);
    }

    /// Quantized *vectors* round-trip losslessly at every mantissa width
    /// `s ∈ [1, 52]` — including the widths where `12 + s` is not a
    /// multiple of 8, so consecutive scalars straddle byte boundaries.
    #[test]
    fn quantized_vector_roundtrip(
        xs in proptest::collection::vec(-1.0e9f64..1.0e9, 1..40),
        s in 1u32..=52,
    ) {
        let q = RoundingQuantizer::new(s).unwrap();
        let qxs: Vec<f64> = xs.iter().map(|&x| q.quantize(x)).collect();
        let precision = Precision::Quantized { s };
        let mut w = BitWriter::new();
        encode_f64_slice(&mut w, &qxs, precision);
        let (buf, bits) = w.finish();
        // Exact payload size: 32-bit length prefix + (12+s) bits/scalar.
        prop_assert_eq!(bits as u32, 32 + (12 + s) * qxs.len() as u32);
        let mut r = BitReader::new(&buf, bits);
        let back = decode_f64_slice(&mut r, precision).unwrap();
        prop_assert_eq!(back.len(), qxs.len());
        for (a, b) in qxs.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Quantized *matrices* round-trip losslessly at every mantissa
    /// width, with the exact advertised bit size.
    #[test]
    fn quantized_matrix_roundtrip(m in small_matrix(), s in 1u32..=52) {
        let q = RoundingQuantizer::new(s).unwrap();
        let qm = q.quantize_matrix(&m);
        let precision = Precision::Quantized { s };
        let mut w = BitWriter::new();
        encode_matrix(&mut w, &qm, precision);
        let (buf, bits) = w.finish();
        // Shape header (2 × 32 bits) + (12+s) bits per entry.
        let entries = (qm.rows() * qm.cols()) as u32;
        prop_assert_eq!(bits as u32, 64 + (12 + s) * entries);
        let mut r = BitReader::new(&buf, bits);
        let back = decode_matrix(&mut r, precision).unwrap();
        prop_assert_eq!(back.shape(), qm.shape());
        for (a, b) in qm.as_slice().iter().zip(back.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// A quantized payload written after a deliberately misaligning
    /// prefix (1–7 junk bits) still round-trips: the wire format never
    /// relies on byte alignment.
    #[test]
    fn quantized_scalar_roundtrip_misaligned(
        x in -1.0e9f64..1.0e9,
        s in 1u32..=52,
        skew in 1u32..8,
    ) {
        let q = RoundingQuantizer::new(s).unwrap();
        let qx = q.quantize(x);
        let mut w = BitWriter::new();
        w.write_bits(0x55, skew);
        encode_f64(&mut w, qx, Precision::Quantized { s });
        let (buf, bits) = w.finish();
        prop_assert_eq!(bits as u32, skew + 12 + s);
        let mut r = BitReader::new(&buf, bits);
        r.read_bits(skew).unwrap();
        let y = decode_f64(&mut r, Precision::Quantized { s }).unwrap();
        prop_assert_eq!(qx.to_bits(), y.to_bits());
    }

    /// Mixed-precision streams (full-precision scalar, quantized vector,
    /// full matrix) decode in order with nothing left over.
    #[test]
    fn mixed_precision_stream_roundtrip(
        x in proptest::num::f64::ANY,
        m in small_matrix(),
        s in 1u32..=52,
    ) {
        let q = RoundingQuantizer::new(s).unwrap();
        let qm = q.quantize_matrix(&m);
        let quantized = Precision::Quantized { s };
        let mut w = BitWriter::new();
        encode_f64(&mut w, x, Precision::Full);
        encode_matrix(&mut w, &qm, quantized);
        encode_matrix(&mut w, &m, Precision::Full);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        prop_assert_eq!(decode_f64(&mut r, Precision::Full).unwrap().to_bits(), x.to_bits());
        let back_q = decode_matrix(&mut r, quantized).unwrap();
        prop_assert!(back_q.approx_eq(&qm, 0.0));
        let back_full = decode_matrix(&mut r, Precision::Full).unwrap();
        prop_assert!(back_full.approx_eq(&m, 0.0));
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Truncating any message payload produces an error, never a panic or
    /// a silently wrong message.
    #[test]
    fn truncation_is_detected(points in small_matrix(), cut in 1usize..64) {
        let msg = Message::Coreset {
            points: points.clone(),
            weights: vec![1.0; points.rows()],
            delta: 0.0,
            precision: Precision::Full,
            weights_precision: Precision::Full,
        };
        let (buf, bits) = msg.encode();
        if bits > cut {
            let result = Message::decode(&buf, bits - cut);
            // Either a decode error, or (if the cut only removed padding
            // within the final field) an equal message — never a different
            // successfully-decoded message.
            if let Ok(m) = result {
                prop_assert_eq!(m, msg);
            }
        }
    }
}
