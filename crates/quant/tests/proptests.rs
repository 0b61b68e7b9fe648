//! Property-based tests for the rounding quantizer and the §6.3 optimizer.

use ekm_quant::config::QtOptimizer;
use ekm_quant::rounding::{RoundingQuantizer, STORED_SIGNIFICAND_BITS};
use proptest::prelude::*;

/// The scalar quantizer the branch-free slice loop replaced, kept as
/// the reference it is held to bit for bit.
fn reference_quantize(s: u32, x: f64) -> f64 {
    if s == STORED_SIGNIFICAND_BITS || x == 0.0 || !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let sign = bits & (1u64 << 63);
    let magnitude = bits & !(1u64 << 63);
    let drop = STORED_SIGNIFICAND_BITS - s;
    let half = 1u64 << (drop - 1);
    let rounded = magnitude.saturating_add(half) & !((1u64 << drop) - 1);
    let clamped = if f64::from_bits(rounded).is_infinite() {
        let max_exp_bits = (0x7FEu64) << STORED_SIGNIFICAND_BITS;
        max_exp_bits | (((1u64 << s) - 1) << drop)
    } else {
        rounded
    };
    f64::from_bits(sign | clamped)
}

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![-1.0e12f64..1.0e12, -1.0f64..1.0, -1.0e-12f64..1.0e-12,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Paper eq. (14) per element: |x − Γ(x)| ≤ |x|·2^{-s}.
    #[test]
    fn relative_error_bound(x in finite_f64(), s in 1u32..=52) {
        let q = RoundingQuantizer::new(s).unwrap();
        let y = q.quantize(x);
        prop_assert!((x - y).abs() <= x.abs() * 2f64.powi(-(s as i32)) * (1.0 + 1e-12));
    }

    /// The branch-free quantizer is bitwise the branching scalar loop it
    /// replaced on any bit pattern: zeros, subnormals, values that round
    /// up to the largest finite one, infinities and NaN payloads
    /// included.
    #[test]
    fn quantizer_is_bitwise_the_branching_reference(
        patterns in proptest::collection::vec(
            prop_oneof![
                0u64..u64::MAX,
                0u64..1 << 52,
                0x7FE0_0000_0000_0000u64..0x7FF8_0000_0000_0000,
                0xFFE0_0000_0000_0000u64..u64::MAX,
            ],
            0..64,
        ),
        s in 1u32..=52,
    ) {
        let q = RoundingQuantizer::new(s).unwrap();
        let mut xs: Vec<f64> = patterns.iter().map(|&b| f64::from_bits(b)).collect();
        q.quantize_in_place(&mut xs);
        for (&b, y) in patterns.iter().zip(&xs) {
            let want = reference_quantize(s, f64::from_bits(b)).to_bits();
            prop_assert_eq!(y.to_bits(), want, "{:#x}", b);
            prop_assert_eq!(q.quantize(f64::from_bits(b)).to_bits(), want, "{:#x}", b);
        }
    }

    /// Γ is idempotent: Γ(Γ(x)) = Γ(x).
    #[test]
    fn idempotent(x in finite_f64(), s in 1u32..=52) {
        let q = RoundingQuantizer::new(s).unwrap();
        let y = q.quantize(x);
        prop_assert_eq!(q.quantize(y).to_bits(), y.to_bits());
    }

    /// Γ preserves sign and zero.
    #[test]
    fn sign_preserving(x in finite_f64(), s in 1u32..=52) {
        let q = RoundingQuantizer::new(s).unwrap();
        let y = q.quantize(x);
        if x > 0.0 {
            prop_assert!(y >= 0.0);
        } else if x < 0.0 {
            prop_assert!(y <= 0.0);
        } else {
            prop_assert_eq!(y, 0.0);
        }
    }

    /// Γ is monotone: x ≤ y ⇒ Γ(x) ≤ Γ(y).
    #[test]
    fn monotone(a in finite_f64(), b in finite_f64(), s in 1u32..=52) {
        let q = RoundingQuantizer::new(s).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    /// The result always fits the advertised bit budget: the dropped
    /// significand bits are zero.
    #[test]
    fn fits_bit_budget(x in finite_f64(), s in 1u32..=51) {
        let q = RoundingQuantizer::new(s).unwrap();
        let y = q.quantize(x);
        if y != 0.0 && y.is_finite() {
            let drop = STORED_SIGNIFICAND_BITS - s;
            prop_assert_eq!(y.to_bits() & ((1u64 << drop) - 1), 0);
        }
    }

    /// Quantization error shrinks (weakly) as s grows.
    #[test]
    fn error_monotone_in_s(x in finite_f64()) {
        let mut last = f64::INFINITY;
        for s in [1u32, 2, 4, 8, 16, 32, 52] {
            let q = RoundingQuantizer::new(s).unwrap();
            let err = (x - q.quantize(x)).abs();
            prop_assert!(err <= last * (1.0 + 1e-12) + f64::MIN_POSITIVE);
            last = err;
        }
    }

    /// The error-bound function Y(ε, ε_QT) of (21b) is monotone in both
    /// arguments and exceeds 1.
    #[test]
    fn error_bound_monotone(e1 in 0.0f64..0.8, e2 in 0.0f64..0.8, q in 0.0f64..2.0) {
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(QtOptimizer::error_bound(lo, q) <= QtOptimizer::error_bound(hi, q) + 1e-12);
        prop_assert!(QtOptimizer::error_bound(lo, q) >= 1.0);
        prop_assert!(
            QtOptimizer::error_bound(lo, q) <= QtOptimizer::error_bound(lo, q + 0.1) + 1e-12
        );
    }

    /// Feasible ε from bisection is on the boundary: Y(ε*) ≤ Y0 but
    /// Y(ε* + δ) > Y0 (when ε* is interior).
    #[test]
    fn bisection_is_tight(y0 in 1.05f64..10.0, eqt in 0.0f64..0.5) {
        let opt = QtOptimizer {
            n: 1000, d: 100, k: 2,
            y0,
            delta0: 0.1,
            lower_bound_e: 1.0,
            diameter: 10.0,
            max_norm: 5.0,
        };
        if let Some(eps) = opt.max_feasible_epsilon(eqt) {
            prop_assert!(QtOptimizer::error_bound(eps, eqt) <= y0 * (1.0 + 1e-9));
            if eps < 0.999 {
                prop_assert!(QtOptimizer::error_bound(eps + 1e-4, eqt) > y0 * (1.0 - 1e-9));
            }
        } else {
            // Infeasible means even ε = 0 violates the bound.
            prop_assert!(QtOptimizer::error_bound(0.0, eqt) > y0);
        }
    }
}
