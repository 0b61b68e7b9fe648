//! FSS: the Feldman–Schmidt–Sohler coreset construction (paper
//! Theorem 3.2, reference \[11\]).
//!
//! FSS first reduces the *intrinsic* dimension by projecting the dataset
//! onto its top `t` principal components, then runs sensitivity sampling in
//! the subspace. The projection residual `Δ = ‖A − A·V_t·V_tᵀ‖²_F` becomes
//! the additive constant of the coreset (Definition 3.2), which is exactly
//! why that definition carries a Δ at all.
//!
//! The output keeps the *factored* representation — subspace coordinates
//! plus basis — because that is what a data source transmits: `|S|·t + d·t`
//! scalars (Theorem 4.1's `O(kd/ε²)` communication cost comes from the
//! `d·t` basis term; replacing PCA with a JL projection removes it).

use crate::sensitivity::SensitivitySampler;
use crate::types::Coreset;
use crate::{CoresetError, Result};
use ekm_linalg::distance::Compute;
use ekm_linalg::{ops, Matrix};
use ekm_sketch::Pca;

/// An FSS coreset in factored form: coordinates in the PCA basis, the
/// basis itself, weights, and the PCA residual Δ.
#[derive(Debug, Clone)]
pub struct FssCoreset {
    coordinates: Matrix,
    basis: Matrix,
    weights: Vec<f64>,
    delta: f64,
}

impl FssCoreset {
    /// Coordinates of the coreset points in the basis (`|S| × t`).
    pub fn coordinates(&self) -> &Matrix {
        &self.coordinates
    }

    /// The orthonormal basis `V_t` (`d × t`).
    pub fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// Coreset weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The additive PCA-residual constant Δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of coreset points `|S|`.
    pub fn len(&self) -> usize {
        self.coordinates.rows()
    }

    /// `true` when the coreset holds no points.
    pub fn is_empty(&self) -> bool {
        self.coordinates.rows() == 0
    }

    /// Scalars a data source must transmit for this coreset:
    /// `|S|·t` (coordinates) `+ d·t` (basis) `+ |S|` (weights) `+ 1` (Δ).
    ///
    /// This is the communication-cost bookkeeping behind Theorem 4.1.
    pub fn transmitted_scalars(&self) -> usize {
        self.coordinates.rows() * self.coordinates.cols()
            + self.basis.rows() * self.basis.cols()
            + self.weights.len()
            + 1
    }

    /// Expands the factored form into an ambient-space [`Coreset`]
    /// (`S = coords · V_tᵀ`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn to_coreset(&self) -> Result<Coreset> {
        let points = ops::matmul_transb(&self.coordinates, &self.basis)?;
        Coreset::new(points, self.weights.clone(), self.delta)
    }
}

/// Builder for the FSS construction.
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
/// use ekm_coreset::FssBuilder;
///
/// let data = Matrix::from_fn(300, 10, |i, j| {
///     if i < 150 { (j as f64) * 0.1 } else { 5.0 - (j as f64) * 0.1 }
/// });
/// let fss = FssBuilder::new(2).with_pca_dim(4).with_sample_size(60)
///     .with_seed(3).build(&data).unwrap();
/// assert!(fss.len() <= 60 + 60); // samples + bicriteria centers
/// assert!(fss.delta() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FssBuilder {
    k: usize,
    pca_dim: usize,
    sample_size: usize,
    seed: u64,
    compute: Compute,
}

impl FssBuilder {
    /// Creates an FSS builder for `k`-means with the practical defaults
    /// `pca_dim = 2k + 2` and `sample_size = 50·k` (override both for
    /// theory-faithful sizes via [`crate::size`]).
    pub fn new(k: usize) -> Self {
        FssBuilder {
            k,
            pca_dim: 2 * k + 2,
            sample_size: 50 * k,
            seed: 0,
            compute: Compute::F64,
        }
    }

    /// Sets the intrinsic dimension `t` of the PCA step.
    pub fn with_pca_dim(mut self, t: usize) -> Self {
        self.pca_dim = t.max(1);
        self
    }

    /// Sets the number of sensitivity samples.
    pub fn with_sample_size(mut self, m: usize) -> Self {
        self.sample_size = m;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the compute precision of the sensitivity-sampling step, its
    /// bicriteria solve included ([`Compute::F64`] by default).
    pub fn with_compute(mut self, compute: Compute) -> Self {
        self.compute = compute;
        self
    }

    /// The configured intrinsic dimension.
    pub fn pca_dim(&self) -> usize {
        self.pca_dim
    }

    /// The configured sample size.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Runs FSS on `data` (rows are points).
    ///
    /// # Errors
    ///
    /// * [`CoresetError::Linalg`] for empty input or SVD failure.
    /// * Propagates sensitivity-sampling failures.
    pub fn build(&self, data: &Matrix) -> Result<FssCoreset> {
        if data.is_empty() {
            return Err(CoresetError::Linalg(ekm_linalg::LinalgError::EmptyMatrix {
                op: "fss build",
            }));
        }
        // 1. PCA to the intrinsic dimension.
        let pca = Pca::fit(data, self.pca_dim)?;
        let coords = pca.coordinates(data)?; // n × t
        let delta = pca.residual_sq();

        // 2. Sensitivity sampling in the subspace. Distances between
        //    subspace points are identical in coordinate and ambient
        //    representations, so sampling in coordinates is exact.
        //    The sampler's deterministic-total mode keeps Σw = n.
        let sampled = SensitivitySampler::new(self.k, self.sample_size)
            .with_seed(self.seed)
            .with_compute(self.compute)
            .sample(&coords, None)?;

        Ok(FssCoreset {
            coordinates: sampled.points().clone(),
            basis: pca.components().clone(),
            weights: sampled.weights().to_vec(),
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_clustering::kmeans::KMeans;
    use ekm_linalg::random::gaussian_matrix;

    /// Clustered data with most energy in a low-dimensional subspace plus
    /// full-dimensional noise.
    fn structured(n_per: usize, d: usize, seed: u64) -> Matrix {
        let mut m = gaussian_matrix(seed, 3 * n_per, d, 0.1);
        for i in 0..n_per {
            m.row_mut(i)[0] += 10.0;
            m.row_mut(n_per + i)[1] += 10.0;
            m.row_mut(2 * n_per + i)[0] -= 10.0;
        }
        m
    }

    #[test]
    fn delta_is_pca_residual() {
        let data = structured(100, 20, 1);
        let fss = FssBuilder::new(3)
            .with_pca_dim(5)
            .with_sample_size(50)
            .build(&data)
            .unwrap();
        let pca = Pca::fit(&data, 5).unwrap();
        assert!((fss.delta() - pca.residual_sq()).abs() < 1e-9 * (1.0 + pca.residual_sq()));
    }

    #[test]
    fn coreset_cost_tracks_true_cost() {
        let data = structured(200, 16, 2);
        let fss = FssBuilder::new(3)
            .with_pca_dim(6)
            .with_sample_size(150)
            .with_seed(5)
            .build(&data)
            .unwrap();
        let coreset = fss.to_coreset().unwrap();
        for trial in 0..4 {
            let x = gaussian_matrix(50 + trial, 3, 16, 5.0);
            let true_cost = ekm_clustering::cost::cost(&data, &x).unwrap();
            let approx = coreset.cost(&x).unwrap();
            let ratio = approx / true_cost;
            assert!(
                (0.6..=1.4).contains(&ratio),
                "FSS distortion {ratio} at trial {trial}"
            );
        }
    }

    #[test]
    fn kmeans_via_fss_close_to_direct() {
        let data = structured(200, 12, 3);
        let fss = FssBuilder::new(3)
            .with_pca_dim(6)
            .with_sample_size(120)
            .with_seed(7)
            .build(&data)
            .unwrap();
        let coreset = fss.to_coreset().unwrap();
        let model = KMeans::new(3)
            .with_seed(1)
            .fit_weighted(coreset.points(), coreset.weights())
            .unwrap();
        let via_fss = ekm_clustering::cost::cost(&data, &model.centers).unwrap();
        let direct = KMeans::new(3).with_seed(1).fit(&data).unwrap().inertia;
        assert!(
            via_fss <= 1.4 * direct,
            "FSS-derived cost {via_fss} vs direct {direct}"
        );
    }

    #[test]
    fn transmitted_scalars_formula() {
        let data = structured(100, 30, 4);
        let fss = FssBuilder::new(2)
            .with_pca_dim(4)
            .with_sample_size(40)
            .build(&data)
            .unwrap();
        let m = fss.len();
        assert_eq!(fss.transmitted_scalars(), m * 4 + 30 * 4 + m + 1);
    }

    #[test]
    fn factored_and_ambient_costs_agree() {
        // For centers inside the subspace the coordinate and ambient costs
        // agree up to Δ bookkeeping.
        let data = structured(150, 10, 5);
        let fss = FssBuilder::new(2)
            .with_pca_dim(5)
            .with_sample_size(60)
            .with_seed(2)
            .build(&data)
            .unwrap();
        let ambient = fss.to_coreset().unwrap();
        let coords = Coreset::new(
            fss.coordinates().clone(),
            fss.weights().to_vec(),
            fss.delta(),
        )
        .unwrap();
        // Random coordinate-space centers, lifted to ambient space.
        let xc = gaussian_matrix(77, 2, 5, 3.0);
        let xa = ops::matmul_transb(&xc, fss.basis()).unwrap();
        let ca = ambient.cost(&xa).unwrap();
        let cc = coords.cost(&xc).unwrap();
        assert!(
            (ca - cc).abs() < 1e-6 * (1.0 + ca),
            "ambient {ca} vs coord {cc}"
        );
    }

    #[test]
    fn pca_dim_clamped_to_rank() {
        let data = gaussian_matrix(6, 20, 4, 1.0);
        let fss = FssBuilder::new(2)
            .with_pca_dim(100)
            .with_sample_size(10)
            .build(&data)
            .unwrap();
        assert_eq!(fss.basis().cols(), 4);
        // Full rank ⇒ Δ ≈ 0.
        assert!(fss.delta() < 1e-6);
    }

    #[test]
    fn empty_input_errors() {
        assert!(FssBuilder::new(2).build(&Matrix::zeros(0, 4)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = structured(80, 8, 7);
        let a = FssBuilder::new(2).with_seed(9).build(&data).unwrap();
        let b = FssBuilder::new(2).with_seed(9).build(&data).unwrap();
        assert!(a.coordinates().approx_eq(b.coordinates(), 0.0));
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn builder_accessors() {
        let b = FssBuilder::new(3).with_pca_dim(7).with_sample_size(99);
        assert_eq!(b.pca_dim(), 7);
        assert_eq!(b.sample_size(), 99);
    }

    #[test]
    fn total_weight_is_n_in_deterministic_mode() {
        let data = structured(100, 8, 8);
        let fss = FssBuilder::new(2)
            .with_sample_size(30)
            .with_seed(3)
            .build(&data)
            .unwrap();
        let total: f64 = fss.weights().iter().sum();
        assert!((total - 300.0).abs() < 1e-6, "Σw = {total}");
    }
}
