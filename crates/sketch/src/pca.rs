//! PCA-based dimensionality reduction.
//!
//! FSS (paper Theorem 3.2 / \[11\]) first projects the dataset onto its top
//! `t` principal components to reduce the *intrinsic* dimension, keeping
//! the residual energy `Δ = ‖A − A·V_t·V_tᵀ‖²_F` as an additive constant in
//! the coreset cost. This module provides exactly that primitive. PCA here
//! follows the k-means DR literature in operating on the raw (uncentered)
//! data matrix — i.e. it is a truncated SVD.

use ekm_linalg::{ops, svd, LinalgError, Matrix};

/// A fitted PCA projection (top-`t` right singular vectors).
#[derive(Debug, Clone)]
pub struct Pca {
    components: Matrix,
    singular_values: Vec<f64>,
    residual_sq: f64,
}

impl Pca {
    /// Fits PCA with `t` components to the rows of `data` (uncentered, per
    /// the k-means DR convention).
    ///
    /// `t` is clamped to `min(n, d)`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::EmptyMatrix`] for empty input.
    /// * [`LinalgError::RankOutOfRange`] if `t == 0`.
    /// * Propagates SVD failures.
    ///
    /// # Example
    ///
    /// ```
    /// use ekm_linalg::Matrix;
    /// use ekm_sketch::Pca;
    ///
    /// // Rank-1 data: one component captures everything.
    /// let data = Matrix::from_fn(20, 6, |i, j| ((i + 1) * (j + 1)) as f64);
    /// let pca = Pca::fit(&data, 1).unwrap();
    /// assert!(pca.residual_sq() < 1e-6 * data.frobenius_norm_sq());
    /// ```
    pub fn fit(data: &Matrix, t: usize) -> Result<Pca, LinalgError> {
        if data.is_empty() {
            return Err(LinalgError::EmptyMatrix { op: "pca fit" });
        }
        if t == 0 {
            return Err(LinalgError::RankOutOfRange {
                requested: 0,
                available: data.rows().min(data.cols()),
            });
        }
        let t = t.min(data.rows()).min(data.cols());
        let (singular_values, components) = svd::top_right_singular(data, t)?;
        let captured: f64 = singular_values.iter().map(|v| v * v).sum();
        let residual_sq = (data.frobenius_norm_sq() - captured).max(0.0);
        Ok(Pca {
            components,
            singular_values,
            residual_sq,
        })
    }

    /// The component basis `V_t` (`d × t`, orthonormal columns).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Singular values associated with the kept components, descending.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// Residual energy `Δ = ‖A − A·V_t·V_tᵀ‖²_F` of the training data.
    ///
    /// This is the additive constant FSS carries in its coreset (paper
    /// Definition 3.2's Δ).
    pub fn residual_sq(&self) -> f64 {
        self.residual_sq
    }

    /// Coordinates of `data` in the component basis: `A·V_t` (`n × t`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on column mismatch.
    pub fn coordinates(&self, data: &Matrix) -> Result<Matrix, LinalgError> {
        ops::matmul(data, &self.components)
    }

    /// Projection of `data` onto the component subspace, expressed in the
    /// original space: `A·V_t·V_tᵀ` (`n × d`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on column mismatch.
    pub fn project_into_subspace(&self, data: &Matrix) -> Result<Matrix, LinalgError> {
        let coords = self.coordinates(data)?;
        ops::matmul_transb(&coords, &self.components)
    }

    /// Maps coordinate-space points (`m × t`) back to the original space
    /// (`m × d`): `Y ↦ Y·V_tᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on column mismatch.
    pub fn lift_coordinates(&self, coords: &Matrix) -> Result<Matrix, LinalgError> {
        ops::matmul_transb(coords, &self.components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_linalg::random::gaussian_matrix;

    fn low_rank(seed: u64, n: usize, d: usize, r: usize) -> Matrix {
        let u = gaussian_matrix(seed, n, r, 1.0);
        let v = gaussian_matrix(seed + 100, r, d, 1.0);
        ops::matmul(&u, &v).unwrap()
    }

    #[test]
    fn captures_low_rank_data_exactly() {
        let a = low_rank(1, 30, 12, 3);
        let pca = Pca::fit(&a, 3).unwrap();
        assert!(pca.residual_sq() < 1e-6 * a.frobenius_norm_sq());
        let back = pca.project_into_subspace(&a).unwrap();
        assert!(back.approx_eq(&a, 1e-6 * (1.0 + a.frobenius_norm())));
    }

    #[test]
    fn residual_decreases_with_components() {
        let a = gaussian_matrix(2, 40, 10, 1.0);
        let mut last = f64::INFINITY;
        for t in 1..=10 {
            let pca = Pca::fit(&a, t).unwrap();
            assert!(pca.residual_sq() <= last + 1e-9, "t={t}");
            last = pca.residual_sq();
        }
        assert!(last < 1e-6, "full-rank residual {last}");
    }

    #[test]
    fn energy_conservation() {
        // ‖A‖² = ‖A·V_t‖² + Δ.
        let a = gaussian_matrix(3, 25, 8, 1.0);
        let pca = Pca::fit(&a, 4).unwrap();
        let coords = pca.coordinates(&a).unwrap();
        let total = coords.frobenius_norm_sq() + pca.residual_sq();
        assert!((total - a.frobenius_norm_sq()).abs() < 1e-8 * a.frobenius_norm_sq());
    }

    #[test]
    fn components_are_orthonormal() {
        let a = gaussian_matrix(4, 30, 9, 1.0);
        let pca = Pca::fit(&a, 5).unwrap();
        let g = ops::gram(pca.components());
        assert!(g.approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn coordinates_roundtrip_through_lift() {
        let a = low_rank(5, 20, 10, 2);
        let pca = Pca::fit(&a, 2).unwrap();
        let coords = pca.coordinates(&a).unwrap();
        let lifted = pca.lift_coordinates(&coords).unwrap();
        // For data in the subspace, lifting coordinates reconstructs it.
        assert!(lifted.approx_eq(&a, 1e-6 * (1.0 + a.frobenius_norm())));
    }

    #[test]
    fn t_clamped_to_rank() {
        let a = gaussian_matrix(8, 5, 12, 1.0); // min(n,d)=5
        let pca = Pca::fit(&a, 100).unwrap();
        assert_eq!(pca.components().cols(), 5);
    }

    #[test]
    fn invalid_inputs_error() {
        assert!(Pca::fit(&Matrix::zeros(0, 3), 1).is_err());
        let a = gaussian_matrix(9, 4, 4, 1.0);
        assert!(Pca::fit(&a, 0).is_err());
        let pca = Pca::fit(&a, 2).unwrap();
        assert!(pca.coordinates(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn singular_values_descending() {
        let a = gaussian_matrix(10, 30, 6, 1.0);
        let pca = Pca::fit(&a, 6).unwrap();
        for w in pca.singular_values().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}
