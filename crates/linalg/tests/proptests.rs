//! Property-based tests for the linear-algebra substrate.

use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::{cholesky::Cholesky, eig, ops, pinv, svd, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in [1, max_dim] and entries in [-10, 10].
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(m in matrix_strategy(12, 12)) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_identity_left_right(m in matrix_strategy(10, 10)) {
        let il = Matrix::identity(m.rows());
        let ir = Matrix::identity(m.cols());
        prop_assert!(ops::matmul(&il, &m).unwrap().approx_eq(&m, 1e-12));
        prop_assert!(ops::matmul(&m, &ir).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_distributes_over_add(
        a in matrix_strategy(6, 6),
        seed in 0u64..1000,
    ) {
        let b = ekm_linalg::random::gaussian_matrix(seed, a.cols(), 4, 1.0);
        let c = ekm_linalg::random::gaussian_matrix(seed + 1, a.cols(), 4, 1.0);
        let left = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let right = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn transpose_of_product((r, k, c) in (1usize..6, 1usize..6, 1usize..6), seed in 0u64..500) {
        let a = ekm_linalg::random::gaussian_matrix(seed, r, k, 1.0);
        let b = ekm_linalg::random::gaussian_matrix(seed + 7, k, c, 1.0);
        // (AB)ᵀ = BᵀAᵀ
        let lhs = ops::matmul(&a, &b).unwrap().transpose();
        let rhs = ops::matmul(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn svd_reconstruction_property(m in matrix_strategy(8, 8)) {
        let s = svd::thin_svd(&m).unwrap();
        let back = s.reconstruct().unwrap();
        prop_assert!(back.approx_eq(&m, 1e-7 * (1.0 + m.frobenius_norm())));
    }

    #[test]
    fn svd_operator_norm_bound(m in matrix_strategy(8, 8)) {
        // σ_max ≤ ‖A‖_F and Σσ² = ‖A‖_F².
        let s = svd::thin_svd(&m).unwrap();
        let fro_sq = m.frobenius_norm_sq();
        let sum_sq: f64 = s.singular_values.iter().map(|v| v * v).sum();
        prop_assert!((sum_sq - fro_sq).abs() <= 1e-6 * (1.0 + fro_sq));
        if let Some(&smax) = s.singular_values.first() {
            prop_assert!(smax * smax <= fro_sq + 1e-6 * (1.0 + fro_sq));
        }
    }

    #[test]
    fn pinv_penrose_1(m in matrix_strategy(7, 7)) {
        let p = pinv::pinv(&m).unwrap();
        let apa = ops::matmul(&ops::matmul(&m, &p).unwrap(), &m).unwrap();
        prop_assert!(apa.approx_eq(&m, 1e-6 * (1.0 + m.frobenius_norm())));
    }

    #[test]
    fn cholesky_solve_property(seed in 0u64..1000, n in 1usize..8) {
        let g = ekm_linalg::random::gaussian_matrix(seed, n + 3, n, 1.0);
        let mut a = ops::gram(&g);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let x = ch.solve_vec(&b).unwrap();
        let ax = ops::matvec(&a, &x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn eigen_reconstruction_property(seed in 0u64..1000, n in 1usize..8) {
        let g = ekm_linalg::random::gaussian_matrix(seed, n + 2, n, 1.0);
        let a = ops::gram(&g);
        let e = eig::symmetric_top(&a, n).unwrap();
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        let back = ops::matmul_transb(&ops::matmul(&e.vectors, &lam).unwrap(), &e.vectors).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-7 * (1.0 + a.frobenius_norm())));
    }

    #[test]
    fn row_norms_consistent_with_frobenius(m in matrix_strategy(10, 10)) {
        let total: f64 = m.row_norms_sq().iter().sum();
        prop_assert!((total - m.frobenius_norm_sq()).abs() < 1e-9 * (1.0 + total));
    }

    /// The engine's assignment and min-update distances agree with the
    /// naive subtract-square loop to tight relative precision, and every
    /// label's naive distance is within twice that of the naive minimum.
    #[test]
    fn assign_matches_naive(
        p in matrix_strategy(40, 12),
        seed in 0u64..1000,
        k in 1usize..70,
    ) {
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 5.0);
        let engine = DistanceEngine::new(&p, Compute::F64);
        let (labels, dists) = engine.assign(&c).unwrap();
        let mut best = vec![f64::INFINITY; p.rows()];
        engine.min_update(&c, &mut best).unwrap();
        for i in 0..p.rows() {
            let x2 = ops::dot(p.row(i), p.row(i));
            let (mut naive_min, mut tol) = (f64::INFINITY, 0.0f64);
            for j in 0..k {
                naive_min = naive_min.min(ops::sq_dist(p.row(i), c.row(j)));
                let c2 = ops::dot(c.row(j), c.row(j));
                tol = tol.max(1e-12 * (1.0 + x2 + c2));
            }
            for v in [dists[i], best[i]] {
                prop_assert!((v - naive_min).abs() <= tol, "row {}: {} vs {}", i, v, naive_min);
            }
            let chosen = ops::sq_dist(p.row(i), c.row(labels[i]));
            prop_assert!(chosen - naive_min <= 2.0 * tol, "row {}: label {}", i, labels[i]);
        }
    }

    /// The lane-accumulator kernel is bit-identical, at worker counts
    /// {1,2,4,8}, to the pre-lane blocked kernel's arithmetic: the
    /// norm-expansion form with one serial left-to-right dot product
    /// per term, each step one fused multiply-add, argmin with strict
    /// `<` in increasing center order.
    #[test]
    fn lane_kernel_bitwise_matches_serial_expansion(
        p in matrix_strategy(600, 11),
        seed in 0u64..1000,
        k in 1usize..50,
    ) {
        let serial = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).fold(0.0, |acc, (x, y)| x.mul_add(*y, acc))
        };
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 5.0);
        let mut ref_labels = vec![0usize; p.rows()];
        let mut ref_best = vec![f64::INFINITY; p.rows()];
        for (i, x) in p.iter_rows().enumerate() {
            for (j, cj) in c.iter_rows().enumerate() {
                let v = (serial(x, x) + serial(cj, cj) - 2.0 * serial(x, cj)).max(0.0);
                if v < ref_best[i] {
                    ref_best[i] = v;
                    ref_labels[i] = j;
                }
            }
        }
        let engine = DistanceEngine::new(&p, Compute::F64);
        for workers in [1usize, 2, 4, 8] {
            let (labels, dists) = engine.assign_in(&c, workers).unwrap();
            prop_assert!(labels == ref_labels, "{} workers", workers);
            prop_assert!(dists == ref_best, "{} workers", workers);
            let mut best = vec![f64::INFINITY; p.rows()];
            engine.min_update_in(&c, &mut best, workers).unwrap();
            prop_assert!(best == ref_best, "{} workers", workers);
        }
    }

    /// The f32 compute path is deterministic and worker-invariant at its
    /// own precision, and its distances stay within single-precision
    /// relative tolerance of the f64 reference.
    #[test]
    fn f32_engine_deterministic_and_close(
        p in matrix_strategy(120, 7),
        seed in 0u64..1000,
        k in 1usize..30,
    ) {
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 2.0);
        let engine = DistanceEngine::new(&p, Compute::F32);
        let (labels, dists) = engine.assign_in(&c, 1).unwrap();
        for workers in [2usize, 4, 8] {
            let (l, d) = engine.assign_in(&c, workers).unwrap();
            prop_assert!(l == labels, "{} workers", workers);
            prop_assert!(d == dists, "{} workers", workers);
        }
        let (_, dists64) = DistanceEngine::new(&p, Compute::F64).assign_in(&c, 1).unwrap();
        for (i, (&a, &b)) in dists.iter().zip(&dists64).enumerate() {
            // Relative f32 tolerance on the expansion operands.
            let scale = 1.0 + ops::dot(p.row(i), p.row(i)).abs() + b.abs();
            prop_assert!((a - b).abs() <= 1e-5 * scale, "row {}: {} vs {}", i, a, b);
        }
    }

    #[test]
    fn dot_cauchy_schwarz(
        v in proptest::collection::vec(-5.0f64..5.0, 1..32),
        w_seed in 0u64..100,
    ) {
        let w: Vec<f64> = {
            use rand::Rng;
            let mut rng = ekm_linalg::random::rng_from_seed(w_seed);
            (0..v.len()).map(|_| rng.gen_range(-5.0..5.0)).collect()
        };
        let d = ops::dot(&v, &w).abs();
        let bound = ops::norm(&v) * ops::norm(&w);
        prop_assert!(d <= bound + 1e-9);
    }
}
