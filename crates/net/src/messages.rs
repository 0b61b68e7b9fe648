//! Protocol messages exchanged by the paper's algorithms.
//!
//! | Message | Used by | Direction |
//! |---|---|---|
//! | [`Message::RawData`] | the "no reduction" baseline | source → server |
//! | [`Message::Coreset`] | FSS / Algorithms 1–4, disSS step 3 | source → server |
//! | [`Message::SvdSummary`] | disPCA step 1 (`Σ_i^{(t1)}, V_i^{(t1)}`) | source → server |
//! | [`Message::Basis`] | disPCA step 3 (global `V^{(t2)}`) | server → source |
//! | [`Message::CostReport`] | disSS step 1 (`cost(P_i, X_i)`) | source → server |
//! | [`Message::SampleAllocation`] | disSS step 2 (`s_i`) | server → source |
//!
//! Coreset point payloads honor a [`Precision`]; the remaining float
//! payloads (weights, singular values, bases) default to full precision,
//! matching the paper's choice to quantize only the coreset points (§6.2
//! footnote 6: "their transfer dominates the communication cost"), but
//! carry their own [`Precision`] descriptor so a deployment can downshift
//! them to [`Precision::F32`] — a free 2× on every full-precision payload.
//! Δ and the scalar protocol rounds always travel at full width.

use crate::bitstream::{BitReader, BitWriter};
use crate::wire::{
    decode_f64, decode_f64_slice, decode_matrix, encode_f64, encode_f64_slice, encode_matrix,
    Precision,
};
use crate::{NetError, Result};
use ekm_linalg::Matrix;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Message {
    /// Raw dataset upload (the NR baseline).
    RawData {
        /// The points (rows).
        points: Matrix,
    },
    /// A (possibly dimension-reduced, possibly quantized) coreset
    /// `(S, Δ, w)`.
    Coreset {
        /// Coreset points `S`.
        points: Matrix,
        /// Weights `w`, parallel to the rows of `points`.
        weights: Vec<f64>,
        /// Additive constant Δ.
        delta: f64,
        /// Precision of the `points` payload.
        precision: Precision,
        /// Precision of the `weights` payload (Δ stays full width).
        weights_precision: Precision,
    },
    /// Local SVD summary for disPCA: top singular values and right
    /// singular vectors.
    SvdSummary {
        /// Top-`t1` singular values `Σ_i^{(t1)}`.
        singular_values: Vec<f64>,
        /// Top-`t1` right singular vectors `V_i^{(t1)}` (`d × t1`).
        basis: Matrix,
        /// Precision of the singular values and basis payloads.
        precision: Precision,
    },
    /// A shared basis (disPCA's global `V^{(t2)}`), server → sources.
    Basis {
        /// The basis matrix (`d × t2`).
        basis: Matrix,
        /// Precision of the basis payload.
        precision: Precision,
    },
    /// A local clustering cost report (disSS step 1).
    CostReport {
        /// `cost(P_i, X_i)`.
        cost: f64,
    },
    /// A sample-size allocation (disSS step 2).
    SampleAllocation {
        /// `s_i` samples requested from this source.
        size: u64,
    },
}

const TAG_RAW: u8 = 1;
const TAG_CORESET: u8 = 2;
const TAG_SVD: u8 = 3;
const TAG_BASIS: u8 = 4;
const TAG_COST: u8 = 5;
const TAG_ALLOC: u8 = 6;
// 7 stays unassigned: it decodes as an unknown tag.

impl Message {
    /// Exact encoded length in bits, known from the shapes alone, so
    /// [`Message::encode`] writes into one allocation of the final size.
    fn encoded_bits(&self) -> usize {
        // Tag, precision descriptor, length and shape widths.
        const TAG: usize = 8;
        const PRECISION: usize = 7;
        const LEN: usize = 32;
        const SHAPE: usize = 2 * LEN;
        let run = |len: usize, p: Precision| len * p.bits_per_scalar() as usize;
        let full = |len: usize| run(len, Precision::Full);
        TAG + match self {
            Message::RawData { points } => SHAPE + full(points.as_slice().len()),
            Message::Coreset {
                points,
                weights,
                precision,
                weights_precision,
                ..
            } => {
                2 * PRECISION
                    + SHAPE
                    + run(points.as_slice().len(), *precision)
                    + LEN
                    + run(weights.len(), *weights_precision)
                    + full(1)
            }
            Message::SvdSummary {
                singular_values,
                basis,
                precision,
            } => {
                PRECISION
                    + LEN
                    + run(singular_values.len(), *precision)
                    + SHAPE
                    + run(basis.as_slice().len(), *precision)
            }
            Message::Basis { basis, precision } => {
                PRECISION + SHAPE + run(basis.as_slice().len(), *precision)
            }
            Message::CostReport { .. } | Message::SampleAllocation { .. } => full(1),
        }
    }

    /// Encodes the message, returning the payload and its exact bit length.
    pub fn encode(&self) -> (Vec<u8>, usize) {
        let mut w = BitWriter::with_capacity(self.encoded_bits());
        match self {
            Message::RawData { points } => {
                w.write_bits(TAG_RAW as u64, 8);
                encode_matrix(&mut w, points, Precision::Full);
            }
            Message::Coreset {
                points,
                weights,
                delta,
                precision,
                weights_precision,
            } => {
                w.write_bits(TAG_CORESET as u64, 8);
                precision.encode(&mut w);
                weights_precision.encode(&mut w);
                encode_matrix(&mut w, points, *precision);
                encode_f64_slice(&mut w, weights, *weights_precision);
                encode_f64(&mut w, *delta, Precision::Full);
            }
            Message::SvdSummary {
                singular_values,
                basis,
                precision,
            } => {
                w.write_bits(TAG_SVD as u64, 8);
                precision.encode(&mut w);
                encode_f64_slice(&mut w, singular_values, *precision);
                encode_matrix(&mut w, basis, *precision);
            }
            Message::Basis { basis, precision } => {
                w.write_bits(TAG_BASIS as u64, 8);
                precision.encode(&mut w);
                encode_matrix(&mut w, basis, *precision);
            }
            Message::CostReport { cost } => {
                w.write_bits(TAG_COST as u64, 8);
                encode_f64(&mut w, *cost, Precision::Full);
            }
            Message::SampleAllocation { size } => {
                w.write_bits(TAG_ALLOC as u64, 8);
                w.write_bits(*size, 64);
            }
        }
        debug_assert_eq!(w.bit_len(), self.encoded_bits());
        w.finish()
    }

    /// Decodes a message from a payload of `bit_len` meaningful bits.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownMessageTag`] for unrecognized tags.
    /// * [`NetError::UnexpectedEnd`] / [`NetError::MalformedMessage`] for
    ///   truncated or inconsistent payloads.
    pub fn decode(data: &[u8], bit_len: usize) -> Result<Message> {
        let mut r = BitReader::new(data, bit_len);
        let tag = r.read_bits(8)? as u8;
        match tag {
            TAG_RAW => Ok(Message::RawData {
                points: decode_matrix(&mut r, Precision::Full)?,
            }),
            TAG_CORESET => {
                let precision = Precision::decode(&mut r)?;
                let weights_precision = Precision::decode(&mut r)?;
                let points = decode_matrix(&mut r, precision)?;
                let weights = decode_f64_slice(&mut r, weights_precision)?;
                if weights.len() != points.rows() {
                    return Err(NetError::MalformedMessage {
                        reason: "coreset weight count mismatch",
                    });
                }
                let delta = decode_f64(&mut r, Precision::Full)?;
                Ok(Message::Coreset {
                    points,
                    weights,
                    delta,
                    precision,
                    weights_precision,
                })
            }
            TAG_SVD => {
                let precision = Precision::decode(&mut r)?;
                let singular_values = decode_f64_slice(&mut r, precision)?;
                let basis = decode_matrix(&mut r, precision)?;
                if singular_values.len() != basis.cols() {
                    return Err(NetError::MalformedMessage {
                        reason: "svd summary rank mismatch",
                    });
                }
                Ok(Message::SvdSummary {
                    singular_values,
                    basis,
                    precision,
                })
            }
            TAG_BASIS => {
                let precision = Precision::decode(&mut r)?;
                Ok(Message::Basis {
                    basis: decode_matrix(&mut r, precision)?,
                    precision,
                })
            }
            TAG_COST => Ok(Message::CostReport {
                cost: decode_f64(&mut r, Precision::Full)?,
            }),
            TAG_ALLOC => Ok(Message::SampleAllocation {
                size: r.read_bits(64)?,
            }),
            other => Err(NetError::UnknownMessageTag { tag: other }),
        }
    }

    /// The wire tag byte of this message (the first 8 bits of its
    /// encoding).
    fn tag(&self) -> u8 {
        match self {
            Message::RawData { .. } => TAG_RAW,
            Message::Coreset { .. } => TAG_CORESET,
            Message::SvdSummary { .. } => TAG_SVD,
            Message::Basis { .. } => TAG_BASIS,
            Message::CostReport { .. } => TAG_COST,
            Message::SampleAllocation { .. } => TAG_ALLOC,
        }
    }

    /// Maps an encoded payload's leading tag byte to its kind string —
    /// what a transport that holds only the encoded bytes charges to
    /// the by-kind counters. [`Message::kind`] routes through this
    /// table, so the two can never drift apart.
    pub(crate) fn kind_of_tag(tag: u8) -> Result<&'static str> {
        match tag {
            TAG_RAW => Ok("raw-data"),
            TAG_CORESET => Ok("coreset"),
            TAG_SVD => Ok("svd-summary"),
            TAG_BASIS => Ok("basis"),
            TAG_COST => Ok("cost-report"),
            TAG_ALLOC => Ok("sample-allocation"),
            other => Err(NetError::UnknownMessageTag { tag: other }),
        }
    }

    /// Short human-readable kind (for logs and stats).
    pub fn kind(&self) -> &'static str {
        Message::kind_of_tag(self.tag()).expect("every variant has a kind")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_quant::RoundingQuantizer;

    fn roundtrip(msg: &Message) -> Message {
        let (buf, bits) = msg.encode();
        Message::decode(&buf, bits).unwrap()
    }

    #[test]
    fn raw_data_roundtrip() {
        let msg = Message::RawData {
            points: Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5),
        };
        assert_eq!(roundtrip(&msg), msg);
        assert_eq!(msg.kind(), "raw-data");
    }

    #[test]
    fn coreset_roundtrip_full_precision() {
        let msg = Message::Coreset {
            points: Matrix::from_fn(5, 2, |i, j| (i as f64).powf(1.1) - j as f64),
            weights: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            delta: 0.75,
            precision: Precision::Full,
            weights_precision: Precision::Full,
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn coreset_roundtrip_quantized() {
        let q = RoundingQuantizer::new(9).unwrap();
        let raw = Matrix::from_fn(6, 4, |i, j| ((i + 1) as f64).ln() * (j as f64 + 0.3));
        let msg = Message::Coreset {
            points: q.quantize_matrix(&raw),
            weights: vec![1.5; 6],
            delta: 2.0,
            precision: Precision::Quantized { s: 9 },
            weights_precision: Precision::Full,
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn quantized_coreset_smaller_on_wire() {
        let points = Matrix::from_fn(50, 20, |i, j| (i * j) as f64 * 0.01);
        let full = Message::Coreset {
            points: points.clone(),
            weights: vec![1.0; 50],
            delta: 0.0,
            precision: Precision::Full,
            weights_precision: Precision::Full,
        };
        let q = RoundingQuantizer::new(6).unwrap();
        let quant = Message::Coreset {
            points: q.quantize_matrix(&points),
            weights: vec![1.0; 50],
            delta: 0.0,
            precision: Precision::Quantized { s: 6 },
            weights_precision: Precision::Full,
        };
        let (_, full_bits) = full.encode();
        let (_, quant_bits) = quant.encode();
        assert!(
            (quant_bits as f64) < 0.5 * full_bits as f64,
            "quantized {quant_bits} vs full {full_bits}"
        );
    }

    #[test]
    fn svd_summary_roundtrip_and_validation() {
        let msg = Message::SvdSummary {
            singular_values: vec![3.0, 1.0],
            basis: Matrix::from_fn(6, 2, |i, j| (i + j) as f64 * 0.1),
            precision: Precision::Full,
        };
        assert_eq!(roundtrip(&msg), msg);
        // Rank mismatch is rejected at decode time.
        let bad = Message::SvdSummary {
            singular_values: vec![3.0, 1.0, 0.5],
            basis: Matrix::from_fn(6, 2, |i, j| (i + j) as f64),
            precision: Precision::Full,
        };
        let (buf, bits) = bad.encode();
        assert!(matches!(
            Message::decode(&buf, bits),
            Err(NetError::MalformedMessage { .. })
        ));
    }

    #[test]
    fn small_messages_roundtrip() {
        for msg in [
            Message::CostReport { cost: 1.25e-3 },
            Message::SampleAllocation { size: 12345 },
            Message::Basis {
                basis: Matrix::identity(3),
                precision: Precision::Full,
            },
        ] {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn f32_aux_payloads_halve_their_bits_and_roundtrip() {
        // f32-representable payloads round-trip exactly at half the width.
        let basis = Matrix::from_fn(16, 4, |i, j| (i as f64) * 0.5 - (j as f64) * 0.25);
        let full = Message::Basis {
            basis: basis.clone(),
            precision: Precision::Full,
        };
        let single = Message::Basis {
            basis: basis.clone(),
            precision: Precision::F32,
        };
        assert_eq!(roundtrip(&single), single);
        let (_, full_bits) = full.encode();
        let (_, single_bits) = single.encode();
        let payload = 16 * 4 * 64;
        assert_eq!(full_bits - single_bits, payload / 2);

        let svd = Message::SvdSummary {
            singular_values: vec![4.0, 2.0, 1.0, 0.5],
            basis,
            precision: Precision::F32,
        };
        assert_eq!(roundtrip(&svd), svd);

        // A coreset whose weights travel at f32 while the points stay
        // quantized: each descriptor decodes independently.
        let q = RoundingQuantizer::new(8).unwrap();
        let pts = q.quantize_matrix(&Matrix::from_fn(10, 3, |i, j| (i * 3 + j) as f64 * 0.37));
        let msg = Message::Coreset {
            points: pts,
            weights: vec![2.5; 10],
            delta: 0.125,
            precision: Precision::Quantized { s: 8 },
            weights_precision: Precision::F32,
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn f32_weights_decode_to_nearest_single() {
        // Non-representable weights come back as (w as f32) as f64 — the
        // lossy-but-deterministic contract shared with the F32 scalar.
        let weights = vec![std::f64::consts::PI, 1.0 / 3.0];
        let msg = Message::Coreset {
            points: Matrix::zeros(2, 1),
            weights: weights.clone(),
            delta: 0.0,
            precision: Precision::Full,
            weights_precision: Precision::F32,
        };
        let (buf, bits) = msg.encode();
        match Message::decode(&buf, bits).unwrap() {
            Message::Coreset { weights: got, .. } => {
                for (w, g) in weights.iter().zip(&got) {
                    assert_eq!(*g, (*w as f32) as f64);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn encoded_bits_is_the_encoded_length() {
        let basis = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        for p in [
            Precision::Full,
            Precision::F32,
            Precision::Quantized { s: 7 },
        ] {
            for msg in [
                Message::RawData {
                    points: basis.clone(),
                },
                Message::Coreset {
                    points: basis.clone(),
                    weights: vec![1.0; 5],
                    delta: 0.5,
                    precision: p,
                    weights_precision: Precision::F32,
                },
                Message::SvdSummary {
                    singular_values: vec![2.0; 3],
                    basis: basis.clone(),
                    precision: p,
                },
                Message::Basis {
                    basis: basis.clone(),
                    precision: p,
                },
                Message::CostReport { cost: 1.0 },
                Message::SampleAllocation { size: 3 },
            ] {
                let (buf, bits) = msg.encode();
                assert_eq!(bits, msg.encoded_bits(), "{msg:?}");
                assert_eq!(buf.len(), bits.div_ceil(8));
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(250, 8);
        let (buf, bits) = w.finish();
        assert!(matches!(
            Message::decode(&buf, bits),
            Err(NetError::UnknownMessageTag { tag: 250 })
        ));
    }

    #[test]
    fn weight_count_mismatch_rejected() {
        // Hand-craft a coreset message with 2 points but 3 weights.
        let mut w = BitWriter::new();
        w.write_bits(2, 8); // coreset tag
        Precision::Full.encode(&mut w);
        encode_matrix(&mut w, &Matrix::zeros(2, 1), Precision::Full);
        encode_f64_slice(&mut w, &[1.0, 1.0, 1.0], Precision::Full);
        encode_f64(&mut w, 0.0, Precision::Full);
        let (buf, bits) = w.finish();
        assert!(matches!(
            Message::decode(&buf, bits),
            Err(NetError::MalformedMessage { .. })
        ));
    }

    #[test]
    fn cost_report_is_tiny() {
        let (_, bits) = Message::CostReport { cost: 7.0 }.encode();
        assert_eq!(bits, 8 + 64);
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Message::RawData {
                points: Matrix::zeros(1, 1),
            }
            .kind(),
            Message::CostReport { cost: 0.0 }.kind(),
            Message::SampleAllocation { size: 0 }.kind(),
            Message::Basis {
                basis: Matrix::zeros(1, 1),
                precision: Precision::Full,
            }
            .kind(),
        ];
        let mut sorted = kinds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
    }
}
