//! The rounding-based quantizer Γ of paper eq. (13).
//!
//! IEEE-754 `f64` stores `sign(1) | exponent(11) | significand(52)`. The
//! quantizer keeps the leading `s` stored significand bits (the implicit
//! leading 1 is `a(0)` in the paper's notation) and rounds the remaining
//! `52 − s` bits to nearest (ties away from zero), operating directly on
//! the bit representation so the result is exactly representable in
//! `1 + 11 + s` bits.

use crate::{QuantError, Result};
use ekm_linalg::Matrix;

/// Number of exponent bits in an IEEE-754 double (`m_e` in the paper).
pub const EXPONENT_BITS: u32 = 11;

/// Number of *stored* significand bits in an IEEE-754 double.
pub const STORED_SIGNIFICAND_BITS: u32 = 52;

/// The rounding-based quantizer Γ with `s` significant bits.
///
/// # Example
///
/// ```
/// use ekm_quant::RoundingQuantizer;
///
/// let q = RoundingQuantizer::new(8).unwrap();
/// let x = 0.123456789;
/// let y = q.quantize(x);
/// // Relative error bounded by 2^-8 (paper eq. (14)).
/// assert!((x - y).abs() <= x.abs() * 2f64.powi(-8));
/// // The quantized value costs 1 + 11 + 8 = 20 bits on the wire.
/// assert_eq!(q.bits_per_scalar(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundingQuantizer {
    s: u32,
}

impl RoundingQuantizer {
    /// Creates a quantizer keeping `s` stored significand bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] unless `1 ≤ s ≤ 52` (`s = 52` is
    /// the identity on normal doubles; the paper's "s = 53" no-quantization
    /// configuration is represented by not using a quantizer at all).
    pub fn new(s: u32) -> Result<Self> {
        if s == 0 || s > STORED_SIGNIFICAND_BITS {
            return Err(QuantError::InvalidBits { s });
        }
        Ok(RoundingQuantizer { s })
    }

    /// Number of significand bits retained.
    pub fn significant_bits(&self) -> u32 {
        self.s
    }

    /// Wire width of one quantized scalar: `1 + 11 + s` bits (sign,
    /// exponent, stored significand).
    pub fn bits_per_scalar(&self) -> u32 {
        1 + EXPONENT_BITS + self.s
    }

    /// Quantizes one scalar.
    ///
    /// Zero, infinities, and NaN pass through unchanged; subnormals are
    /// rounded in their storage format (which only shrinks their
    /// magnitude error). Rounding is to nearest, ties away from zero; a
    /// carry out of the significand correctly bumps the exponent
    /// (e.g. `1.111…·2^e → 1.0·2^{e+1}`).
    pub fn quantize(&self, x: f64) -> f64 {
        let mut one = [x];
        self.quantize_in_place(&mut one);
        one[0]
    }

    /// Quantizes every entry of a matrix into a new one.
    pub fn quantize_matrix(&self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        self.quantize_in_place(out.as_mut_slice());
        out
    }

    /// Quantizes every entry of `xs` in place ([`quantize`](Self::quantize)
    /// of each), so what a source ships is written into the summary it
    /// already owns.
    ///
    /// Round-half-away-from-zero on the magnitude: the IEEE encoding of
    /// the magnitude is monotone in its bit pattern, so integer
    /// arithmetic implements rounding, including exponent carries (and
    /// zero needs no case of its own: half an ulp of the kept bits
    /// rounds it back to zero). The loop has no branches, so it
    /// vectorizes.
    pub fn quantize_in_place(&self, xs: &mut [f64]) {
        if self.s == STORED_SIGNIFICAND_BITS {
            return;
        }
        const SIGN: u64 = 1 << 63;
        const INF: u64 = 0x7FF << STORED_SIGNIFICAND_BITS;
        let drop = STORED_SIGNIFICAND_BITS - self.s;
        let half = 1u64 << (drop - 1);
        let kept = !((1u64 << drop) - 1);
        // A carry into the exponent is valid rounding unless it reaches
        // infinity; it saturates at the largest quantized value then.
        let max = (0x7FEu64 << STORED_SIGNIFICAND_BITS) | (((1u64 << self.s) - 1) << drop);
        for x in xs {
            let bits = x.to_bits();
            let magnitude = bits & !SIGN;
            // Below 2⁶⁴ for any pattern; infinities and NaN pass through.
            let rounded = (magnitude + half) & kept;
            let quantized = (bits & SIGN) | if rounded >= INF { max } else { rounded };
            *x = f64::from_bits(if magnitude >= INF { bits } else { quantized });
        }
    }

    /// The paper's worst-case quantization error bound (14):
    /// `Δ_QT ≤ 2^{-s} · max_norm` where `max_norm = max_{p∈P} ‖p‖`.
    pub fn max_error_bound(&self, max_norm: f64) -> f64 {
        2f64.powi(-(self.s as i32)) * max_norm
    }

    /// Measures the actual maximum point-wise ℓ2 quantization error over
    /// the rows of `m` (`max_p ‖p − Γ(p)‖`).
    pub fn measured_max_error(&self, m: &Matrix) -> f64 {
        let mut worst = 0.0f64;
        for row in m.iter_rows() {
            let mut acc = 0.0;
            for &v in row {
                let d = v - self.quantize(v);
                acc += d * d;
            }
            worst = worst.max(acc);
        }
        worst.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_bit_counts_rejected() {
        assert!(matches!(
            RoundingQuantizer::new(0),
            Err(QuantError::InvalidBits { s: 0 })
        ));
        assert!(RoundingQuantizer::new(53).is_err());
        assert!(RoundingQuantizer::new(1).is_ok());
        assert!(RoundingQuantizer::new(52).is_ok());
    }

    #[test]
    fn s52_is_identity() {
        let q = RoundingQuantizer::new(52).unwrap();
        for &x in &[0.1, -3.7, 1e300, -1e-300, std::f64::consts::PI] {
            assert_eq!(q.quantize(x), x);
        }
    }

    #[test]
    fn special_values_pass_through() {
        let q = RoundingQuantizer::new(4).unwrap();
        assert_eq!(q.quantize(0.0), 0.0);
        assert_eq!(q.quantize(-0.0), -0.0);
        assert_eq!(q.quantize(f64::INFINITY), f64::INFINITY);
        assert_eq!(q.quantize(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(q.quantize(f64::NAN).is_nan());
    }

    #[test]
    fn relative_error_bound_holds() {
        // |x − Γ(x)| ≤ |x|·2^{-s} (paper's per-element bound).
        for s in [1u32, 2, 4, 8, 16, 24, 32, 48] {
            let q = RoundingQuantizer::new(s).unwrap();
            let mut rng = ekm_linalg::random::rng_from_seed(s as u64);
            use rand::Rng;
            for _ in 0..2000 {
                let x: f64 = (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-20..20));
                let y = q.quantize(x);
                let bound = x.abs() * 2f64.powi(-(s as i32));
                assert!(
                    (x - y).abs() <= bound * (1.0 + 1e-12),
                    "s={s} x={x} y={y} err={} bound={bound}",
                    (x - y).abs()
                );
            }
        }
    }

    #[test]
    fn rounding_is_to_nearest() {
        let q = RoundingQuantizer::new(1).unwrap();
        // With 1 stored bit, representable significands are 1.0 and 1.5.
        // 1.2 → 1.0 (nearer), 1.3 → 1.25? no: 1.3 is between 1.25? With
        // s=1 the grid in [1,2) is {1.0, 1.5}: 1.2 → 1.0, 1.3 → 1.5.
        assert_eq!(q.quantize(1.2), 1.0);
        assert_eq!(q.quantize(1.3), 1.5);
        assert_eq!(q.quantize(-1.2), -1.0);
        assert_eq!(q.quantize(-1.3), -1.5);
        // Tie 1.25 rounds away from zero → 1.5.
        assert_eq!(q.quantize(1.25), 1.5);
    }

    #[test]
    fn carry_into_exponent() {
        let q = RoundingQuantizer::new(2).unwrap();
        // 1.9375 = 1.1111₂; with 2 stored bits the grid is
        // {1.0, 1.25, 1.5, 1.75, 2.0(carry)}; nearest is 2.0.
        assert_eq!(q.quantize(1.9375), 2.0);
    }

    #[test]
    fn overflow_saturates_not_infinite() {
        let q = RoundingQuantizer::new(2).unwrap();
        let near_max = f64::MAX; // 1.111…·2^1023 rounds up → would overflow
        let y = q.quantize(near_max);
        assert!(y.is_finite(), "quantizer produced {y}");
        assert!(y > 0.0);
    }

    #[test]
    fn result_fits_in_s_bits() {
        // After quantization the low 52−s significand bits must be zero.
        for s in [1u32, 3, 7, 13, 29] {
            let q = RoundingQuantizer::new(s).unwrap();
            let drop = STORED_SIGNIFICAND_BITS - s;
            let mask = (1u64 << drop) - 1;
            let mut rng = ekm_linalg::random::rng_from_seed(100 + s as u64);
            use rand::Rng;
            for _ in 0..500 {
                let x: f64 = rng.gen::<f64>() * 2000.0 - 1000.0;
                let y = q.quantize(x);
                assert_eq!(y.to_bits() & mask, 0, "s={s} x={x} y={y}");
            }
        }
    }

    #[test]
    fn idempotent() {
        let q = RoundingQuantizer::new(6).unwrap();
        let mut rng = ekm_linalg::random::rng_from_seed(7);
        use rand::Rng;
        for _ in 0..500 {
            let x: f64 = rng.gen::<f64>() * 100.0 - 50.0;
            let y = q.quantize(x);
            assert_eq!(q.quantize(y), y, "not idempotent at {x}");
        }
    }

    #[test]
    fn more_bits_never_less_accurate() {
        let mut rng = ekm_linalg::random::rng_from_seed(8);
        use rand::Rng;
        for _ in 0..200 {
            let x: f64 = rng.gen::<f64>() * 10.0 - 5.0;
            let mut last = f64::INFINITY;
            for s in [2u32, 8, 20, 40] {
                let err = (x - RoundingQuantizer::new(s).unwrap().quantize(x)).abs();
                assert!(err <= last + f64::EPSILON, "error grew at s={s}");
                last = err;
            }
        }
    }

    #[test]
    fn bits_per_scalar_formula() {
        assert_eq!(RoundingQuantizer::new(1).unwrap().bits_per_scalar(), 13);
        assert_eq!(RoundingQuantizer::new(52).unwrap().bits_per_scalar(), 64);
        assert_eq!(RoundingQuantizer::new(20).unwrap().significant_bits(), 20);
    }

    #[test]
    fn matrix_error_bound_eq14() {
        // Δ_QT = max_p ‖p − Γ(p)‖ ≤ 2^{-s}·max_p ‖p‖.
        let m = Matrix::from_fn(50, 10, |i, j| ((i * 13 + j * 7) as f64).sin() * 3.0);
        for s in [2u32, 5, 9, 17] {
            let q = RoundingQuantizer::new(s).unwrap();
            let measured = q.measured_max_error(&m);
            let bound = q.max_error_bound(m.max_row_norm());
            assert!(
                measured <= bound * (1.0 + 1e-12),
                "s={s}: measured {measured} > bound {bound}"
            );
        }
    }

    #[test]
    fn subnormals_handled() {
        let q = RoundingQuantizer::new(4).unwrap();
        let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
        let y = q.quantize(tiny);
        assert!(y.is_finite());
        assert!((y - tiny).abs() <= tiny); // error no larger than the value
    }
}
