//! Thin and top-`t` singular value decompositions.
//!
//! FSS and disPCA need the top-`t` singular values and right singular
//! vectors of a dataset matrix `A ∈ R^{n×d}` (rows are points):
//!
//! * [`top_right_singular`] — what they call: the `t` leading eigenpairs
//!   of the smaller Gram matrix (`AᵀA` or `AAᵀ`), found by
//!   [`eig::symmetric_top`] without computing the rest of the spectrum.
//!   Forming the Gram matrix is `O(nd·min(n,d))`, exactly the complexity
//!   the paper charges FSS/BKLW with (Theorems 4.3 / 5.3). It forms σ
//!   and `V_t` only, never the left factor;
//! * [`thin_svd`] — the same route with all `min(n,d)` triples including
//!   `U`, for the pseudo-inverse.
//!
//! `symmetric_top(g, t)` is bitwise the first `t` pairs of the full
//! spectrum, so `top_right_singular(a, t)` is bitwise `thin_svd(a)`
//! truncated to `t` triples.

use crate::{eig, ops, LinalgError, Matrix, Result};

/// A (possibly truncated) singular value decomposition `A ≈ U · diag(σ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns (`n × t`).
    pub u: Matrix,
    /// Singular values, descending (`t` of them).
    pub singular_values: Vec<f64>,
    /// Right singular vectors as columns (`d × t`).
    pub v: Matrix,
}

impl Svd {
    /// Number of singular triples retained.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Reconstructs `U · diag(σ) · Vᵀ`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying products.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let us = scale_cols(&self.u, &self.singular_values);
        ops::matmul_transb(&us, &self.v)
    }

    /// Returns the truncation keeping only the first `t` triples.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RankOutOfRange`] if `t > self.rank()`.
    pub fn truncate(&self, t: usize) -> Result<Svd> {
        if t > self.rank() {
            return Err(LinalgError::RankOutOfRange {
                requested: t,
                available: self.rank(),
            });
        }
        Ok(Svd {
            u: self.u.first_cols(t)?,
            singular_values: self.singular_values[..t].to_vec(),
            v: self.v.first_cols(t)?,
        })
    }
}

/// Multiplies column `j` of `m` by `s[j]`.
fn scale_cols(m: &Matrix, s: &[f64]) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        for (v, &sj) in row.iter_mut().zip(s) {
            *v *= sj;
        }
    }
    out
}

/// Relative threshold under which a singular value is treated as zero.
const SV_RELATIVE_TOL: f64 = 1e-12;

/// Computes the thin SVD of `a` via the eigendecomposition of the smaller
/// Gram matrix.
///
/// Returns `min(n, d)` triples (numerically zero singular values keep their
/// slots with zeroed `U`/`V` columns replaced by an orthonormal completion
/// where possible).
///
/// # Errors
///
/// * [`LinalgError::EmptyMatrix`] for an empty input.
/// * Propagates eigensolver failures, including
///   [`LinalgError::NonFinite`] for a NaN or infinite entry.
pub fn thin_svd(a: &Matrix) -> Result<Svd> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "thin_svd" });
    }
    let (n, d) = a.shape();
    if d <= n {
        // Eigen of AᵀA (d×d): A = U Σ Vᵀ with AᵀA = V Σ² Vᵀ.
        let (sigmas, v) = gram_eigen(&ops::gram(a), d)?;
        let u = left_vectors_from_right(a, &v, &sigmas)?;
        Ok(Svd {
            u,
            singular_values: sigmas,
            v,
        })
    } else {
        // Eigen of AAᵀ (n×n): U from eigenvectors, V = Aᵀ U Σ⁻¹.
        let (sigmas, u) = gram_eigen(&ops::outer_gram(a), n)?;
        let v = left_vectors_from_right(&a.transpose(), &u, &sigmas)?;
        Ok(Svd {
            u,
            singular_values: sigmas,
            v,
        })
    }
}

/// Computes the top-`t` singular values and right singular vectors
/// (`d × t`) of `a` — bitwise the `singular_values` and `v` of
/// `thin_svd(a)?.truncate(t)`, without forming the left factor.
///
/// This is the primitive FSS and disPCA are built on. The tall route
/// (`d ≤ n`) takes the top `t` eigenpairs of `AᵀA`. The wide route
/// takes the top `t` of `AAᵀ` and forms `V = Aᵀ·U·Σ⁻¹` from those `t`
/// columns of `U`: each output column accumulates on its own, so the
/// columns never computed change no bit of the kept ones.
///
/// # Errors
///
/// * [`LinalgError::EmptyMatrix`] for an empty input.
/// * [`LinalgError::RankOutOfRange`] if `t > min(n, d)`.
/// * Propagates eigensolver failures, including
///   [`LinalgError::NonFinite`] for a NaN or infinite entry.
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, svd};
/// let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
/// let (sigmas, v) = svd::top_right_singular(&a, 1).unwrap();
/// assert!((sigmas[0] - 4.0).abs() < 1e-12);
/// assert!((v[(1, 0)].abs() - 1.0).abs() < 1e-12);
/// ```
pub fn top_right_singular(a: &Matrix, t: usize) -> Result<(Vec<f64>, Matrix)> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "top_right_singular",
        });
    }
    let (n, d) = a.shape();
    if t > n.min(d) {
        return Err(LinalgError::RankOutOfRange {
            requested: t,
            available: n.min(d),
        });
    }
    if d <= n {
        gram_eigen(&ops::gram(a), t)
    } else {
        let (sigmas, u) = gram_eigen(&ops::outer_gram(a), t)?;
        let v = left_vectors_from_right(&a.transpose(), &u, &sigmas)?;
        Ok((sigmas, v))
    }
}

/// The top `t` singular values (descending) and eigenvectors of a Gram
/// matrix `AᵀA` or `AAᵀ`.
fn gram_eigen(gram: &Matrix, t: usize) -> Result<(Vec<f64>, Matrix)> {
    let e = eig::symmetric_top(gram, t)?;
    let sigmas = e.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    Ok((sigmas, e.vectors))
}

/// Given `A` (n×d), right singular vectors `V` (d×t) and singular values,
/// computes `U = A·V·Σ⁻¹`, zeroing columns whose σ is numerically zero.
fn left_vectors_from_right(a: &Matrix, v: &Matrix, sigmas: &[f64]) -> Result<Matrix> {
    let av = ops::matmul(a, v)?;
    let smax = sigmas.first().copied().unwrap_or(0.0);
    let tol = smax * SV_RELATIVE_TOL;
    let inv: Vec<f64> = sigmas
        .iter()
        .map(|&s| if s > tol { 1.0 / s } else { 0.0 })
        .collect();
    Ok(scale_cols(&av, &inv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;
    use crate::random::gaussian_matrix;

    fn low_rank(seed: u64, n: usize, d: usize, r: usize) -> Matrix {
        let u = gaussian_matrix(seed, n, r, 1.0);
        let v = gaussian_matrix(seed + 1, r, d, 1.0);
        ops::matmul(&u, &v).unwrap()
    }

    #[test]
    fn thin_svd_reconstructs_tall() {
        let a = gaussian_matrix(41, 12, 5, 1.0);
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.rank(), 5);
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn thin_svd_reconstructs_wide() {
        let a = gaussian_matrix(42, 5, 12, 1.0);
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.rank(), 5);
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let a = gaussian_matrix(43, 15, 8, 1.0);
        let s = thin_svd(&a).unwrap();
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(s.singular_values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn frobenius_identity() {
        // ‖A‖_F² = Σ σ_i².
        let a = gaussian_matrix(44, 10, 7, 1.0);
        let s = thin_svd(&a).unwrap();
        let sum_sq: f64 = s.singular_values.iter().map(|v| v * v).sum();
        assert!((sum_sq - a.frobenius_norm_sq()).abs() < 1e-8 * a.frobenius_norm_sq());
    }

    #[test]
    fn diag_matrix_known_svd() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
        let s = thin_svd(&a).unwrap();
        assert!((s.singular_values[0] - 4.0).abs() < 1e-10);
        assert!((s.singular_values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn u_and_v_orthonormal_on_full_rank() {
        let a = gaussian_matrix(45, 20, 6, 1.0);
        let s = thin_svd(&a).unwrap();
        assert!(ops::gram(&s.u).approx_eq(&Matrix::identity(6), 1e-8));
        assert!(ops::gram(&s.v).approx_eq(&Matrix::identity(6), 1e-8));
    }

    #[test]
    fn rank_deficient_svd() {
        let a = low_rank(46, 20, 10, 3);
        let s = thin_svd(&a).unwrap();
        for &sv in &s.singular_values[3..] {
            assert!(sv < 1e-6 * s.singular_values[0], "trailing σ = {sv}");
        }
        assert!(s
            .reconstruct()
            .unwrap()
            .approx_eq(&a, 1e-7 * a.frobenius_norm()));
    }

    #[test]
    fn truncate_keeps_top() {
        let a = gaussian_matrix(47, 9, 9, 1.0);
        let s = thin_svd(&a).unwrap();
        let t = s.truncate(3).unwrap();
        assert_eq!(t.rank(), 3);
        assert_eq!(t.singular_values, s.singular_values[..3].to_vec());
        assert!(s.truncate(10).is_err());
    }

    #[test]
    fn top_right_singular_projection_captures_energy() {
        let a = low_rank(51, 40, 12, 2);
        let (_, v) = top_right_singular(&a, 2).unwrap();
        assert_eq!(v.shape(), (12, 2));
        // Projecting onto V should preserve nearly all Frobenius energy.
        let av = ops::matmul(&a, &v).unwrap();
        let energy = av.frobenius_norm_sq();
        assert!((energy - a.frobenius_norm_sq()).abs() < 1e-6 * a.frobenius_norm_sq());
    }

    #[test]
    fn top_right_singular_is_bitwise_the_truncated_thin_svd() {
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let shapes = [
            (40, 12),
            (12, 40),
            (7, 7),
            (66, 96),
            (96, 66),
            (1, 9),
            (9, 1),
        ];
        for (i, &(n, d)) in shapes.iter().enumerate() {
            let seed = 60 + i as u64;
            for a in [gaussian_matrix(seed, n, d, 1.0), low_rank(seed, n, d, 2)] {
                let full = thin_svd(&a).unwrap();
                for t in [0, 1, n.min(d) / 2, n.min(d)] {
                    let want = full.truncate(t).unwrap();
                    let (sigmas, v) = top_right_singular(&a, t).unwrap();
                    assert_eq!(bits(&sigmas), bits(&want.singular_values), "{n}x{d} t={t}");
                    assert_eq!(bits(v.as_slice()), bits(want.v.as_slice()), "{n}x{d} t={t}");
                }
            }
        }
        let a = gaussian_matrix(70, 5, 8, 1.0);
        assert!(top_right_singular(&a, 6).is_err());
        assert!(top_right_singular(&Matrix::zeros(0, 3), 1).is_err());
    }

    #[test]
    fn top_right_singular_is_bitwise_stable_across_reruns_and_worker_counts() {
        // Past the Gram kernels' parallel threshold, on both routes.
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tall = low_rank(80, 2500, 48, 5)
            .add(&gaussian_matrix(81, 2500, 48, 0.1))
            .unwrap();
        for a in [tall.clone(), tall.transpose()] {
            parallel::set_worker_count(1);
            let (want_s, want_v) = top_right_singular(&a, 12).unwrap();
            for workers in [1, 2, 4] {
                parallel::set_worker_count(workers);
                let (s, v) = top_right_singular(&a, 12).unwrap();
                assert_eq!(bits(&s), bits(&want_s), "{workers} workers");
                assert_eq!(
                    bits(v.as_slice()),
                    bits(want_v.as_slice()),
                    "{workers} workers"
                );
            }
            parallel::set_worker_count(0);
        }
    }

    #[test]
    fn empty_inputs_error() {
        assert!(thin_svd(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn svd_of_zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let s = thin_svd(&a).unwrap();
        assert!(s.singular_values.iter().all(|&v| v == 0.0));
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-12));
    }
}
