//! Cholesky factorization and SPD linear solves.
//!
//! The Moore–Penrose inverse of a full-column-rank JL projection matrix
//! `Π ∈ R^{d×d'}` is `Π⁺ = (ΠᵀΠ)⁻¹Πᵀ`, which needs one SPD solve with the
//! `d'×d'` Gram matrix — exactly what this module provides.

use crate::ops::PAR_FLOPS_THRESHOLD;
use crate::{parallel, LinalgError, Matrix, Result};

/// Right-hand sides [`Cholesky::solve_matrix`] substitutes together:
/// an `n × 16` block stays in cache through both sweeps.
/// Results-neutral.
const SOLVE_BLOCK: usize = 16;

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
    /// Left-looking, over a column-major copy of `L`: column `j` starts
    /// as `a`'s column `j` from the diagonal down, and each earlier
    /// column `k` subtracts `l_ik·l_jk` from all of it as one vector
    /// update, for `k` ascending. Every entry so gets the operations of
    /// the textbook entry-by-entry loop in their order: `a_ij`, minus
    /// each `l_ik·l_jk` term in ascending `k`, then the pivot's square
    /// root or the division by it. A bad pivot is reported at the same
    /// column too. What changes is the dependence: the entries of a
    /// column update as independent vector lanes, where the entry loop
    /// runs one serial chain of subtractions per entry.
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
        // Column j of L is cols[j * n..(j + 1) * n]; above the diagonal
        // it stays zero.
        let mut cols = vec![0.0; n * n];
        for j in 0..n {
            let (done, rest) = cols.split_at_mut(j * n);
            let col = &mut rest[j..n];
            for (i, v) in (j..n).zip(col.iter_mut()) {
                *v = a[(i, j)];
            }
            for lk in done.chunks_exact(n) {
                let ljk = lk[j];
                for (v, &lik) in col.iter_mut().zip(&lk[j..]) {
                    *v -= lik * ljk;
                }
            }
            let diag = col[0];
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let ljj = diag.sqrt();
            col[0] = ljj;
            for v in &mut col[1..] {
                *v /= ljj;
            }
        }
        Ok(Cholesky {
            l: Matrix::from_vec(n, n, cols).transpose(),
        })
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

    /// Solves `A·X = B` for every column of `B`.
    ///
    /// The columns go in blocks of 16 right-hand sides. A block is copied
    /// into an `n × 16` buffer (50 KB at `n = 392`) that stays in cache
    /// through both sweeps, and row `i` of the buffer is updated as one
    /// vector: forward, one `l_ik·y_k` subtraction per earlier row `k`
    /// (row `i` of `L`), then the division by `l_ii`; backward, one
    /// `l_ki·x_k` subtraction per later row `k` in ascending order (row
    /// `i` of a transposed copy of `L`, so this sweep reads `L`
    /// contiguously too), then the division. Each element gets exactly
    /// [`solve_vec`](Self::solve_vec)'s operations in its order, and no
    /// column's values meet another's, so column `j` of the result is
    /// bitwise `solve_vec` of column `j` of `B`, whatever block it falls
    /// in. For the same reason the blocks are independent: once the
    /// solve's `n²·c` multiply-adds reach the kernels' parallel
    /// threshold, they split over the [`parallel::worker_count`]
    /// workers, with the same result at any count.
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
        let mut x = Matrix::zeros(n, c);
        let lt = self.l.transpose();
        let workers = if n * n * c >= PAR_FLOPS_THRESHOLD {
            parallel::worker_count()
        } else {
            1
        };
        let blocks = parallel::par_map_indices_in(c.div_ceil(SOLVE_BLOCK), workers, |blk| {
            let cols = blk * SOLVE_BLOCK..c.min((blk + 1) * SOLVE_BLOCK);
            let mut y = vec![[0.0; SOLVE_BLOCK]; n];
            for (yi, brow) in y.iter_mut().zip(b.iter_rows()) {
                yi[..cols.len()].copy_from_slice(&brow[cols.clone()]);
            }
            self.substitute(&lt, &mut y);
            y
        });
        for (blk, y) in blocks.iter().enumerate() {
            let col = blk * SOLVE_BLOCK;
            let width = SOLVE_BLOCK.min(c - col);
            for (xrow, yi) in x.as_mut_slice().chunks_exact_mut(c).zip(y) {
                xrow[col..col + width].copy_from_slice(&yi[..width]);
            }
        }
        Ok(x)
    }

    /// Both sweeps of [`solve_matrix`](Self::solve_matrix) over one
    /// block, in place; `lt` is `Lᵀ`. Lanes past the block's columns
    /// are padding, never copied out.
    fn substitute(&self, lt: &Matrix, y: &mut [[f64; SOLVE_BLOCK]]) {
        let n = y.len();
        // Forward: L·Y = B.
        for i in 0..n {
            let (done, rest) = y.split_at_mut(i);
            let li = self.l.row(i);
            let mut v = rest[0];
            for (&lik, yk) in li.iter().zip(done.iter()) {
                for (vj, &yj) in v.iter_mut().zip(yk) {
                    *vj -= lik * yj;
                }
            }
            let lii = li[i];
            for vj in &mut v {
                *vj /= lii;
            }
            rest[0] = v;
        }
        // Backward: Lᵀ·X = Y, from the last row up.
        for i in (0..n).rev() {
            let (head, done) = y.split_at_mut(i + 1);
            let lti = lt.row(i);
            let mut v = head[i];
            for (&lki, xk) in lti[i + 1..].iter().zip(done.iter()) {
                for (vj, &xj) in v.iter_mut().zip(xk) {
                    *vj -= lki * xj;
                }
            }
            let lii = lti[i];
            for vj in &mut v {
                *vj /= lii;
            }
            head[i] = v;
        }
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

    /// The row-by-row loop [`Cholesky::factor`] ran before it went
    /// left-looking, kept as the reference it must match bit for bit,
    /// error for error.
    fn reference_factor(a: &Matrix) -> Result<Matrix> {
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
        Ok(l)
    }

    /// The column-by-column loop [`Cholesky::solve_matrix`] ran before
    /// it substituted many right-hand sides at once, kept as the
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

    /// A right-hand side with exact zeros (some `-0.0`), as in a
    /// transposed sparse Π.
    fn sparse_rhs(seed: u64, n: usize, cols: usize) -> Matrix {
        let g = gaussian_matrix(seed, n, cols, 1.0);
        Matrix::from_fn(n, cols, |i, j| match (i * 5 + j * 3) % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => g[(i, j)],
        })
    }

    /// An `n × n` input of the given kind: 0 SPD; 1 SPD but for a
    /// diagonal entry pulled far negative (a mid-way non-positive pivot);
    /// 2 a symmetric Gaussian (indefinite); 3 SPD with a NaN, 4 with a
    /// `+∞`, 5 with a `−∞` at one entry, in either triangle.
    fn factor_case(kind: u8, n: usize, seed: u64) -> Matrix {
        let mut a = random_spd(seed, n);
        let (p, q) = ((seed as usize * 7) % n, (seed as usize / 7) % n);
        match kind {
            1 => a[(p, p)] -= 1e3,
            2 => {
                let g = gaussian_matrix(seed, n, n, 1.0);
                a = Matrix::from_fn(n, n, |i, j| g[(i, j)] + g[(j, i)]);
            }
            3 => a[(p, q)] = f64::NAN,
            4 => a[(p, q)] = f64::INFINITY,
            5 => a[(p, q)] = f64::NEG_INFINITY,
            _ => {}
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn solve_matrix_is_bitwise_per_column_solve_vec(
            n in 1usize..=40,
            cols in 1usize..=24,
            si in 0usize..4,
            seed in 0u64..10_000,
        ) {
            let ch = Cholesky::factor(&random_spd(seed, n)).unwrap();
            // Any width up to 24, and one straddling one or two 16-wide
            // blocks.
            for cols in [cols, [15, 16, 17, 33][si]] {
                let b = sparse_rhs(seed + 1, n, cols);
                prop_assert_eq!(bits(&ch.solve_matrix(&b).unwrap()), bits(&reference_solve_matrix(&ch, &b)), "cols={}", cols);
            }
        }

        #[test]
        fn factor_is_bitwise_the_row_by_row_loop(
            n in 1usize..=40,
            kind in 0u8..6,
            seed in 0u64..10_000,
        ) {
            let a = factor_case(kind, n, seed);
            match (Cholesky::factor(&a), reference_factor(&a)) {
                (Ok(ch), Ok(l)) => prop_assert_eq!(bits(ch.l()), bits(&l), "n={} kind={}", n, kind),
                (Err(got), Err(want)) => prop_assert_eq!(got, want, "n={} kind={}", n, kind),
                (got, want) => prop_assert!(
                    false,
                    "n={} kind={}: {:?} against {:?}",
                    n,
                    kind,
                    got.map(|_| ()),
                    want.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn a_nan_below_the_diagonal_fails_its_rows_pivot() {
        // One above the diagonal is never read.
        let mut a = random_spd(1, 6);
        a[(4, 2)] = f64::NAN;
        assert_eq!(
            Cholesky::factor(&a).err(),
            Some(LinalgError::NotPositiveDefinite { pivot: 4 })
        );
        a[(4, 2)] = 0.25;
        a[(2, 4)] = f64::NAN;
        assert!(Cholesky::factor(&a).is_ok());
    }

    #[test]
    fn parallel_solve_is_bitwise_solve_vec_at_every_worker_count() {
        // 96²·481 ≈ 4.4M multiply-adds, past PAR_FLOPS_THRESHOLD, with a
        // one-column last block.
        let (n, cols) = (96, 481);
        assert!(n * n * cols >= PAR_FLOPS_THRESHOLD);
        let ch = Cholesky::factor(&random_spd(21, n)).unwrap();
        let b = sparse_rhs(22, n, cols);
        let want = bits(&reference_solve_matrix(&ch, &b));
        for workers in [1, 2, 4] {
            parallel::set_worker_count(workers);
            assert!(
                bits(&ch.solve_matrix(&b).unwrap()) == want,
                "{workers} workers"
            );
        }
        parallel::set_worker_count(0);
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
