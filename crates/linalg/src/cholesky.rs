//! Cholesky factorization and SPD linear solves.
//!
//! The Moore–Penrose inverse of a full-column-rank JL projection matrix
//! `Π ∈ R^{d×d'}` is `Π⁺ = (ΠᵀΠ)⁻¹Πᵀ`, which needs one SPD solve with the
//! `d'×d'` Gram matrix — exactly what this module provides.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L · Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    ///
    /// # Example
    ///
    /// ```
    /// use ekm_linalg::{Matrix, cholesky::Cholesky};
    /// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
    /// let ch = Cholesky::factor(&a).unwrap();
    /// let x = ch.solve_vec(&[8.0, 7.0]).unwrap();
    /// assert!((x[0] - 1.25).abs() < 1e-12);
    /// assert!((x[1] - 1.5).abs() < 1e-12);
    /// ```
    pub fn factor(a: &Matrix) -> Result<Cholesky> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Borrows the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` differs from
    /// the factor's dimension.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward: L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                v -= self.l[(i, k)] * yk;
            }
            y[i] = v / self.l[(i, i)];
        }
        // Backward: Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                v -= self.l[(k, i)] * xk;
            }
            x[i] = v / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` for every column of `B` at once.
    ///
    /// Forward and back substitution run once across all right-hand
    /// sides: row `i` of `Y` (then `X`) is updated as a vector, one
    /// `l_ik·Y_k` subtraction per earlier row `k`, then divided by `l_ii`.
    /// Each element gets exactly [`solve_vec`](Self::solve_vec)'s
    /// operations in its order, so column `j` of the result is bitwise
    /// `solve_vec` of column `j` of `B`. A row update is independent
    /// across the right-hand sides, so it vectorizes.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B.rows()` differs from
    /// the factor's dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let c = b.cols();
        let mut x = b.clone();
        if c == 0 {
            return Ok(x);
        }
        let xs = x.as_mut_slice();
        // Forward: L·Y = B; row i of the copy of B becomes row i of Y.
        for i in 0..n {
            let (done, rest) = xs.split_at_mut(i * c);
            let yi = &mut rest[..c];
            let li = self.l.row(i);
            for (&lik, yk) in li.iter().zip(done.chunks_exact(c)) {
                for (v, &y) in yi.iter_mut().zip(yk) {
                    *v -= lik * y;
                }
            }
            let lii = li[i];
            for v in yi.iter_mut() {
                *v /= lii;
            }
        }
        // Backward: Lᵀ·X = Y, from the last row up.
        for i in (0..n).rev() {
            let (head, done) = xs.split_at_mut((i + 1) * c);
            let xi = &mut head[i * c..];
            for (k, xk) in (i + 1..n).zip(done.chunks_exact(c)) {
                let lki = self.l[(k, i)];
                for (v, &x) in xi.iter_mut().zip(xk) {
                    *v -= lki * x;
                }
            }
            let lii = self.l[(i, i)];
            for v in xi.iter_mut() {
                *v /= lii;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::random::gaussian_matrix;
    use proptest::prelude::*;

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The column-by-column loop [`Cholesky::solve_matrix`] ran before
    /// it substituted all right-hand sides at once, kept as the
    /// reference it must match bit for bit.
    fn reference_solve_matrix(ch: &Cholesky, b: &Matrix) -> Matrix {
        let n = ch.l().rows();
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = ch.solve_vec(&b.col(j)).unwrap();
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    fn random_spd(seed: u64, n: usize) -> Matrix {
        let g = gaussian_matrix(seed, n + 4, n, 1.0);
        let mut a = ops::gram(&g);
        for i in 0..n {
            a[(i, i)] += 0.5; // well conditioned
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = random_spd(3, 8);
        let ch = Cholesky::factor(&a).unwrap();
        let back = ops::matmul_transb(ch.l(), ch.l()).unwrap();
        assert!(back.approx_eq(&a, 1e-9));
    }

    #[test]
    fn l_is_lower_triangular() {
        let a = random_spd(4, 6);
        let ch = Cholesky::factor(&a).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(ch.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_vec_residual_small() {
        let a = random_spd(5, 10);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let x = ch.solve_vec(&b).unwrap();
        let ax = ops::matvec(&a, &x).unwrap();
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = random_spd(6, 5);
        let ch = Cholesky::factor(&a).unwrap();
        let b = gaussian_matrix(7, 5, 3, 1.0);
        let x = ch.solve_matrix(&b).unwrap();
        let ax = ops::matmul(&a, &x).unwrap();
        assert!(ax.approx_eq(&b, 1e-8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn solve_matrix_is_bitwise_per_column_solve_vec(
            n in 1usize..=40,
            cols in 1usize..=24,
            seed in 0u64..10_000,
        ) {
            let ch = Cholesky::factor(&random_spd(seed, n)).unwrap();
            // Exact zeros (some -0.0) in B, as in a transposed sparse Π.
            let g = gaussian_matrix(seed + 1, n, cols, 1.0);
            let b = Matrix::from_fn(n, cols, |i, j| match (i * 5 + j * 3) % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => g[(i, j)],
            });
            prop_assert_eq!(bits(&ch.solve_matrix(&b).unwrap()), bits(&reference_solve_matrix(&ch, &b)));
        }
    }

    #[test]
    fn single_right_hand_side_is_solve_vec() {
        let ch = Cholesky::factor(&random_spd(9, 13)).unwrap();
        let b: Vec<f64> = (0..13).map(|i| (i as f64 * 0.7).sin()).collect();
        let x = ch
            .solve_matrix(&Matrix::from_vec(13, 1, b.clone()))
            .unwrap();
        let want: Vec<u64> = ch
            .solve_vec(&b)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits(&x), want);
        assert_eq!(
            ch.solve_matrix(&Matrix::zeros(13, 0)).unwrap().shape(),
            (13, 0)
        );
    }

    #[test]
    fn not_positive_definite_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // indefinite
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn shape_mismatch_in_solve() {
        let a = random_spd(8, 4);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.solve_vec(&[1.0, 2.0]).is_err());
        assert!(ch.solve_matrix(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, -2.0, 3.0, -4.0];
        assert_eq!(ch.solve_vec(&b).unwrap(), b);
    }
}
