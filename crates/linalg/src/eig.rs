//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA and the Gram-matrix SVD route both reduce to the eigendecomposition
//! of a small symmetric matrix (`d × d` or `t × t`), for which Jacobi is
//! simple, numerically excellent, and plenty fast.

use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition of a symmetric matrix: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenvalues are sorted in descending order; `vectors.col(i)` is the unit
/// eigenvector for `values[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as the *columns* of this matrix.
    pub vectors: Matrix,
}

/// Maximum number of Jacobi sweeps before declaring failure.
const MAX_SWEEPS: usize = 64;

/// Computes the eigendecomposition of a symmetric matrix with the cyclic
/// Jacobi method.
///
/// The input is symmetrized as `(A + Aᵀ)/2` first, so tiny asymmetries from
/// accumulated floating-point error in Gram products are harmless.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `a` is not square.
/// * [`LinalgError::EmptyMatrix`] if `a` is empty.
/// * [`LinalgError::ConvergenceFailure`] if the off-diagonal mass does not
///   vanish within the sweep budget (does not happen for symmetric input).
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, eig};
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let e = eig::symmetric_eigen(&a).unwrap();
/// assert!((e.values[0] - 3.0).abs() < 1e-10);
/// assert!((e.values[1] - 1.0).abs() < 1e-10);
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "symmetric_eigen",
        });
    }
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigen",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    // Symmetrize defensively.
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut v = Matrix::identity(n);

    let scale = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&m);
        if off <= tol {
            converged = true;
            break;
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation computation.
                let theta = (aqq - app) / (2.0 * apq);
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Rotate rows p and q of M, then mirror row q into column
                // q so the later rows of this pass read current values.
                // The four entries where the two rows and columns p, q
                // cross — (p,p), (q,q), (p,q) and (q,p) — come out wrong
                // and are set right after, so no loop skips them.
                let (row_p, row_q) = split_two_rows(&mut m, p, q);
                rotate_rows(row_p, row_q, c, s);
                let data = m.as_mut_slice();
                for i in 0..n {
                    data[i * n + q] = data[q * n + i];
                }
                m[(p, p)] = app - t * apq;
                m[(q, q)] = aqq + t * apq;
                m[(p, q)] = 0.0;
                m[(q, p)] = 0.0;

                // `v` holds Vᵀ, so its rows are the eigenvectors and the
                // rotation acts on two contiguous rows.
                let (vrow_p, vrow_q) = split_two_rows(&mut v, p, q);
                rotate_rows(vrow_p, vrow_q, c, s);
            }
            // Column p is stale during the pass over q, but every later
            // rotation of the pass reads it only at a crossing entry, so
            // row p is mirrored into it once, here.
            let data = m.as_mut_slice();
            for i in 0..n {
                data[i * n + p] = data[p * n + i];
            }
        }
    }
    if !converged && off_diagonal_norm(&m) > tol {
        return Err(LinalgError::ConvergenceFailure {
            op: "symmetric_eigen (jacobi)",
            iterations: MAX_SWEEPS,
        });
    }

    // Collect and sort eigenpairs descending. `v` holds Vᵀ (rows are
    // eigenvectors), so eigenvector `old` is row `old` of `v`.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite eigenvalues"));
    let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_row)) in pairs.iter().enumerate() {
        let src = v.row(old_row);
        for i in 0..n {
            vectors[(i, new_col)] = src[i];
        }
    }

    Ok(SymmetricEigen { values, vectors })
}

/// Applies the plane rotation `(x, y) ↦ (c·x − s·y, s·x + c·y)` to each
/// element pair of two rows. Zipped slices carry no bounds checks, so the
/// loop vectorizes; every element still sees the same two products and
/// one add or subtract, in the same order.
fn rotate_rows(xs: &mut [f64], ys: &mut [f64], c: f64, s: f64) {
    for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
        let (xi, yi) = (*x, *y);
        *x = c * xi - s * yi;
        *y = s * xi + c * yi;
    }
}

/// Mutably borrows two distinct rows of a matrix at once.
///
/// # Panics
///
/// Panics if `a == b` or either index is out of bounds.
fn split_two_rows(m: &mut Matrix, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    assert_ne!(a, b, "split_two_rows: identical rows");
    let cols = m.cols();
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let data = m.as_mut_slice();
    let (head, tail) = data.split_at_mut(hi * cols);
    let row_lo = &mut head[lo * cols..(lo + 1) * cols];
    let row_hi = &mut tail[..cols];
    if a < b {
        (row_lo, row_hi)
    } else {
        (row_hi, row_lo)
    }
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let v = m[(i, j)];
                acc += v * v;
            }
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::random::gaussian_matrix;
    use proptest::prelude::*;

    /// The cyclic Jacobi loop as first written — with explicit skips for
    /// the four crossing entries and indexed row loops — kept as the
    /// reference [`symmetric_eigen`] must match bit for bit.
    fn reference_symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
        let n = a.rows();
        let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let mut v = Matrix::identity(n);
        let scale = m.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-14 * scale;
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let off = off_diagonal_norm(&m);
            if off <= tol {
                converged = true;
                break;
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = {
                        let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                        sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                    };
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    {
                        let (row_p, row_q) = split_two_rows(&mut m, p, q);
                        for i in 0..n {
                            if i != p && i != q {
                                let aip = row_p[i];
                                let aiq = row_q[i];
                                row_p[i] = c * aip - s * aiq;
                                row_q[i] = s * aip + c * aiq;
                            }
                        }
                    }
                    for i in 0..n {
                        if i != p && i != q {
                            m[(i, p)] = m[(p, i)];
                            m[(i, q)] = m[(q, i)];
                        }
                    }
                    let new_pp = app - t * apq;
                    let new_qq = aqq + t * apq;
                    m[(p, p)] = new_pp;
                    m[(q, q)] = new_qq;
                    m[(p, q)] = 0.0;
                    m[(q, p)] = 0.0;
                    {
                        let (vrow_p, vrow_q) = split_two_rows(&mut v, p, q);
                        for i in 0..n {
                            let vip = vrow_p[i];
                            let viq = vrow_q[i];
                            vrow_p[i] = c * vip - s * viq;
                            vrow_q[i] = s * vip + c * viq;
                        }
                    }
                }
            }
        }
        if !converged && off_diagonal_norm(&m) > tol {
            return Err(LinalgError::ConvergenceFailure {
                op: "symmetric_eigen (jacobi)",
                iterations: MAX_SWEEPS,
            });
        }
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite eigenvalues"));
        let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &(_, old_row)) in pairs.iter().enumerate() {
            let src = v.row(old_row);
            for i in 0..n {
                vectors[(i, new_col)] = src[i];
            }
        }
        Ok(SymmetricEigen { values, vectors })
    }

    /// A symmetric `n × n` test matrix of one of five kinds: a plain
    /// Gaussian `B + Bᵀ`; a rank-deficient Gram (repeated zero
    /// eigenvalues); a block diagonal of two identical blocks (every
    /// eigenvalue exactly repeated); a sparse matrix with most entries
    /// exactly zero, some of them `-0.0`; and `c·I` plus one off-diagonal
    /// pair.
    fn symmetric_case(n: usize, kind: u8, seed: u64) -> Matrix {
        let g = gaussian_matrix(seed, n, n, 1.0);
        match kind {
            0 => Matrix::from_fn(n, n, |i, j| g[(i, j)] + g[(j, i)]),
            1 => ops::gram(&gaussian_matrix(seed, n.div_ceil(3), n, 1.0)),
            2 => {
                let h = n.div_ceil(2);
                let b = gaussian_matrix(seed, h, h, 1.0);
                Matrix::from_fn(n, n, |i, j| {
                    if i / h == j / h {
                        b[(i % h, j % h)] + b[(j % h, i % h)]
                    } else {
                        0.0
                    }
                })
            }
            3 => Matrix::from_fn(n, n, |i, j| {
                let (lo, hi) = (i.min(j), i.max(j));
                let x = g[(lo, hi)];
                if (lo * 7 + hi * 3) % 5 < 3 {
                    if x < 0.0 {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    x
                }
            }),
            _ => {
                let mut m = Matrix::identity(n).scaled(2.5);
                if n > 1 {
                    m[(0, n - 1)] = 0.75;
                    m[(n - 1, 0)] = 0.75;
                }
                m
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn jacobi_is_bitwise_the_reference(n in 1usize..=48, kind in 0u8..5, seed in 0u64..10_000) {
            let a = symmetric_case(n, kind, seed);
            let got = symmetric_eigen(&a).unwrap();
            let want = reference_symmetric_eigen(&a).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.values), bits(&want.values), "n={} kind={}", n, kind);
            prop_assert_eq!(
                bits(got.vectors.as_slice()),
                bits(want.vectors.as_slice()),
                "n={} kind={}",
                n,
                kind
            );
        }
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 7.0],
        ]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 7.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_from_random_symmetric() {
        let g = gaussian_matrix(31, 8, 8, 1.0);
        let a = ops::gram(&g); // symmetric PSD
        let e = symmetric_eigen(&a).unwrap();
        // A ≈ V diag(λ) Vᵀ
        let mut lam = Matrix::zeros(8, 8);
        for i in 0..8 {
            lam[(i, i)] = e.values[i];
        }
        let vl = ops::matmul(&e.vectors, &lam).unwrap();
        let back = ops::matmul_transb(&vl, &e.vectors).unwrap();
        assert!(back.approx_eq(&a, 1e-8), "reconstruction failed");
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let g = gaussian_matrix(5, 10, 10, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        let vtv = ops::gram(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(10), 1e-9));
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let g = gaussian_matrix(77, 12, 12, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn psd_gram_has_nonnegative_eigenvalues() {
        let g = gaussian_matrix(13, 20, 6, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        for &l in &e.values {
            assert!(l > -1e-9, "PSD eigenvalue {l} negative");
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let g = gaussian_matrix(99, 9, 9, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        let trace: f64 = (0..9).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Top eigenvector ∝ (1, 1)/√2.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
        assert!(symmetric_eigen(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[vec![5.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![5.0]);
        assert_eq!(e.vectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // 2·I has eigenvalue 2 with multiplicity 3.
        let a = Matrix::identity(3).scaled(2.0);
        let e = symmetric_eigen(&a).unwrap();
        for &l in &e.values {
            assert!((l - 2.0).abs() < 1e-12);
        }
        let vtv = ops::gram(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-10));
    }
}
