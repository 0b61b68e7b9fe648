//! Multi-restart k-means driver: the server-side `kmeans(S', w, k)`
//! primitive of Algorithms 1–4.

use crate::cost::validate_weights;
use crate::init::kmeanspp_centers;
use crate::lloyd::{lloyd, LloydConfig};
use crate::{ClusteringError, Result};
use ekm_linalg::distance::Compute;
use ekm_linalg::random::{derive_seed, rng_from_seed};
use ekm_linalg::Matrix;

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Cluster centers (`k × d`).
    pub centers: Matrix,
    /// Final weighted cost on the training data.
    pub inertia: f64,
    /// Label of each training point.
    pub labels: Vec<usize>,
    /// Lloyd iterations of the winning restart.
    pub iterations: usize,
    /// Number of restarts performed.
    pub restarts: usize,
}

impl KMeansModel {
    /// Predicts the nearest-center label for each row of `points`.
    ///
    /// # Errors
    ///
    /// Propagates assignment errors (empty input, dimension mismatch).
    pub fn predict(&self, points: &Matrix) -> Result<Vec<usize>> {
        Ok(crate::cost::assign(points, &self.centers)?.labels)
    }

    /// k-means cost of `points` against this model's centers.
    ///
    /// # Errors
    ///
    /// Propagates assignment errors.
    pub fn score(&self, points: &Matrix) -> Result<f64> {
        crate::cost::cost(points, &self.centers)
    }
}

/// Builder-style configuration for k-means clustering.
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
/// use ekm_clustering::kmeans::KMeans;
///
/// let p = Matrix::from_rows(&[vec![0.0], vec![0.2], vec![9.0], vec![9.2]]);
/// let model = KMeans::new(2).with_n_init(4).with_seed(1).fit(&p).unwrap();
/// assert!(model.inertia < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    tol: f64,
    n_init: usize,
    seed: u64,
    compute: Compute,
}

impl KMeans {
    /// Creates a configuration for `k` clusters with the defaults
    /// `max_iter = 100`, `tol = 1e-7`, `n_init = 3`, `seed = 0`,
    /// `compute = F64`.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            max_iter: 100,
            tol: 1e-7,
            n_init: 3,
            seed: 0,
            compute: Compute::F64,
        }
    }

    /// Sets the maximum Lloyd iterations per restart.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Sets the relative-improvement convergence tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the number of k-means++ restarts (best inertia wins).
    pub fn with_n_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(1);
        self
    }

    /// Sets the RNG seed controlling all restarts.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scalar precision of the distance kernels
    /// ([`Compute::F64`] by default). `F64` is the bit-reproducibility
    /// reference; `F32` runs seeding and assignment in single precision
    /// for speed, with centroid accumulation still in f64.
    pub fn with_compute(mut self, compute: Compute) -> Self {
        self.compute = compute;
        self
    }

    /// Number of clusters this configuration will fit.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fits unweighted k-means to the rows of `points`.
    ///
    /// # Errors
    ///
    /// See [`KMeans::fit_weighted`].
    pub fn fit(&self, points: &Matrix) -> Result<KMeansModel> {
        let w = vec![1.0; points.rows()];
        self.fit_weighted(points, &w)
    }

    /// Fits weighted k-means: minimizes `Σ w_i · min_x ‖p_i − x‖²`.
    ///
    /// Runs `n_init` k-means++ initializations followed by Lloyd iteration
    /// and returns the best outcome.
    ///
    /// # Errors
    ///
    /// * [`ClusteringError::EmptyInput`] for an empty dataset.
    /// * [`ClusteringError::InvalidK`] if `k` is 0 or exceeds the number of
    ///   positive-weight points.
    /// * [`ClusteringError::InvalidWeights`] for malformed weights.
    pub fn fit_weighted(&self, points: &Matrix, weights: &[f64]) -> Result<KMeansModel> {
        if points.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        validate_weights(weights, points.rows())?;
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        if self.k == 0 || self.k > positive {
            return Err(ClusteringError::InvalidK {
                k: self.k,
                n: positive,
            });
        }
        let config = LloydConfig {
            max_iter: self.max_iter,
            tol: self.tol,
            compute: self.compute,
        };
        let mut best: Option<KMeansModel> = None;
        for restart in 0..self.n_init {
            let mut rng = rng_from_seed(derive_seed(self.seed, restart as u64));
            let init = kmeanspp_centers(&mut rng, points, weights, self.k, self.compute)?;
            let out = lloyd(points, weights, &init, &config)?;
            let better = best
                .as_ref()
                .map(|b| out.inertia < b.inertia)
                .unwrap_or(true);
            if better {
                best = Some(KMeansModel {
                    centers: out.centers,
                    inertia: out.inertia,
                    labels: out.assignment.labels,
                    iterations: out.iterations,
                    restarts: restart + 1,
                });
            }
        }
        let mut model = best.expect("n_init >= 1 guarantees a model");
        model.restarts = self.n_init;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs(per: usize) -> Matrix {
        let mut rows = Vec::new();
        for i in 0..per {
            let jitter = (i % 7) as f64 * 0.01;
            rows.push(vec![0.0 + jitter, 0.0]);
            rows.push(vec![10.0 + jitter, 10.0]);
            rows.push(vec![-10.0 + jitter, 10.0]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_three_blobs() {
        let p = three_blobs(30);
        let model = KMeans::new(3).with_seed(42).fit(&p).unwrap();
        assert!(model.inertia < 1.0, "inertia {}", model.inertia);
        // Each blob's first point should map to a distinct label.
        let l0 = model.labels[0];
        let l1 = model.labels[1];
        let l2 = model.labels[2];
        assert_ne!(l0, l1);
        assert_ne!(l1, l2);
        assert_ne!(l0, l2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = three_blobs(10);
        let m1 = KMeans::new(3).with_seed(9).fit(&p).unwrap();
        let m2 = KMeans::new(3).with_seed(9).fit(&p).unwrap();
        assert!(m1.centers.approx_eq(&m2.centers, 0.0));
        assert_eq!(m1.inertia, m2.inertia);
    }

    #[test]
    fn f32_compute_fits_comparably() {
        let p = three_blobs(20);
        let m64 = KMeans::new(3).with_seed(4).fit(&p).unwrap();
        let m32 = KMeans::new(3)
            .with_seed(4)
            .with_compute(Compute::F32)
            .fit(&p)
            .unwrap();
        // Same blobs, so the achievable inertia is essentially identical.
        assert!(
            (m32.inertia - m64.inertia).abs() <= 1e-3 * (1.0 + m64.inertia),
            "f32 {} vs f64 {}",
            m32.inertia,
            m64.inertia
        );
        // Deterministic at its own precision.
        let again = KMeans::new(3)
            .with_seed(4)
            .with_compute(Compute::F32)
            .fit(&p)
            .unwrap();
        assert_eq!(m32.inertia, again.inertia);
        assert_eq!(m32.labels, again.labels);
    }

    #[test]
    fn more_restarts_never_worse() {
        let p = three_blobs(20);
        let one = KMeans::new(3).with_n_init(1).with_seed(5).fit(&p).unwrap();
        let many = KMeans::new(3).with_n_init(8).with_seed(5).fit(&p).unwrap();
        assert!(many.inertia <= one.inertia + 1e-12);
        assert_eq!(many.restarts, 8);
    }

    #[test]
    fn weighted_fit_respects_weights() {
        // Two points; the heavy one should dominate the single center.
        let p = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let model = KMeans::new(1)
            .with_seed(3)
            .fit_weighted(&p, &[9.0, 1.0])
            .unwrap();
        assert!((model.centers[(0, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let p = three_blobs(2); // 6 distinct points
        let model = KMeans::new(6).with_seed(11).fit(&p).unwrap();
        assert!(model.inertia < 1e-18, "inertia {}", model.inertia);
    }

    #[test]
    fn predict_and_score() {
        let p = three_blobs(10);
        let model = KMeans::new(3).with_seed(1).fit(&p).unwrap();
        let labels = model.predict(&p).unwrap();
        assert_eq!(labels, model.labels);
        let s = model.score(&p).unwrap();
        assert!((s - model.inertia).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_error() {
        let p = three_blobs(2);
        assert!(matches!(
            KMeans::new(0).fit(&p),
            Err(ClusteringError::InvalidK { .. })
        ));
        assert!(KMeans::new(7).fit(&p).is_err()); // only 6 points
        assert!(KMeans::new(1).fit(&Matrix::zeros(0, 2)).is_err());
        assert!(KMeans::new(1).fit_weighted(&p, &[1.0]).is_err());
    }

    #[test]
    fn zero_weight_points_do_not_count_toward_k() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let w = [1.0, 0.0, 0.0];
        assert!(KMeans::new(2).fit_weighted(&p, &w).is_err());
        let model = KMeans::new(1).fit_weighted(&p, &w).unwrap();
        assert!((model.centers[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn builder_accessors() {
        let km = KMeans::new(4).with_max_iter(7).with_tol(0.5).with_n_init(0);
        assert_eq!(km.k(), 4);
        // n_init clamps to >= 1.
        let p = three_blobs(5);
        assert!(km.fit(&p).is_ok());
    }
}
