//! Sensitivity sampling for k-means coresets.
//!
//! Framework of Langberg–Schulman \[23\] / Feldman–Langberg \[24\] as used by
//! FSS and disSS: given a bicriteria solution `B`, upper-bound each point's
//! *sensitivity* (worst-case share of the k-means cost) by
//!
//! ```text
//! σ(p) ∝ w(p)·d²(p, B) / cost(P, B)  +  w(p) / W(cluster(p))
//! ```
//!
//! sample `m` points i.i.d. with probability `q(p) = σ(p)/Σσ`, and weight
//! each sampled copy `w(p)/(m·q(p))` so the estimator is unbiased.
//!
//! Two weight modes are provided:
//!
//! * **Plain** — exactly the above (expected total weight `n`);
//! * **Deterministic-total** (the \[4\] variant used by disSS, paper
//!   footnote 8) — the bicriteria centers join the coreset and absorb the
//!   leftover weight of their clusters so `Σ w = n` holds *exactly*.

use crate::types::Coreset;
use crate::{CoresetError, Result};
use ekm_clustering::bicriteria::{bicriteria, BicriteriaConfig, BicriteriaSolution};
use ekm_clustering::cost::{assign_engine, validate_weights};
use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::random::{derive_seed, rng_from_seed, sample_weighted_indices};
use ekm_linalg::Matrix;

/// Weighting mode for the sampled coreset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightMode {
    /// Unbiased weights `w(p)/(m·q(p))`; `E[Σw] = n`.
    Plain,
    /// The \[4\] variant: include the bicriteria centers with cluster-count
    /// matching weights so `Σw = n` deterministically.
    DeterministicTotal,
}

/// Sensitivity-sampling coreset builder.
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
/// use ekm_coreset::SensitivitySampler;
///
/// let points = Matrix::from_fn(200, 2, |i, _| if i < 100 { 0.0 } else { 10.0 });
/// let coreset = SensitivitySampler::new(2, 40)
///     .with_seed(7)
///     .sample(&points, None)
///     .unwrap();
/// assert!(coreset.len() <= 40 + coreset.points().rows());
/// // Deterministic-total mode keeps Σw = n exactly.
/// assert!((coreset.total_weight() - 200.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SensitivitySampler {
    k: usize,
    sample_size: usize,
    seed: u64,
    weight_mode: WeightMode,
    bicriteria: BicriteriaConfig,
    compute: Compute,
}

impl SensitivitySampler {
    /// Creates a sampler for `k`-means with `sample_size` drawn points,
    /// defaulting to [`WeightMode::DeterministicTotal`] (the mode both FSS
    /// footnote 8 and disSS use).
    pub fn new(k: usize, sample_size: usize) -> Self {
        SensitivitySampler {
            k,
            sample_size,
            seed: 0,
            weight_mode: WeightMode::DeterministicTotal,
            bicriteria: BicriteriaConfig::default(),
            compute: Compute::F64,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.bicriteria.seed = derive_seed(seed, 0xB1C);
        self
    }

    /// Sets the weighting mode.
    pub fn with_weight_mode(mut self, mode: WeightMode) -> Self {
        self.weight_mode = mode;
        self
    }

    /// Overrides the bicriteria configuration. The override carries its
    /// own [`Compute`] for the bicriteria stage; the sampler's assignment
    /// still follows [`SensitivitySampler::with_compute`].
    pub fn with_bicriteria(mut self, config: BicriteriaConfig) -> Self {
        self.bicriteria = config;
        self
    }

    /// Sets the compute precision of both the bicriteria solve and the
    /// sensitivity assignment ([`Compute::F64`] by default).
    pub fn with_compute(mut self, compute: Compute) -> Self {
        self.compute = compute;
        self.bicriteria.compute = compute;
        self
    }

    /// Number of points the sampler draws.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Builds a coreset of `points` (with optional input weights, e.g. when
    /// the input is itself a coreset). The returned Δ is 0.
    ///
    /// # Errors
    ///
    /// * [`CoresetError::InvalidSampleSize`] if `sample_size == 0`.
    /// * Propagates clustering failures (empty input, bad weights).
    pub fn sample(&self, points: &Matrix, weights: Option<&[f64]>) -> Result<Coreset> {
        if self.sample_size == 0 {
            return Err(CoresetError::InvalidSampleSize { requested: 0 });
        }
        let n = points.rows();
        let owned_weights: Vec<f64>;
        let w: &[f64] = match weights {
            Some(w) => {
                validate_weights(w, n).map_err(CoresetError::Clustering)?;
                w
            }
            None => {
                owned_weights = vec![1.0; n];
                &owned_weights
            }
        };

        // Tiny datasets: the whole input is the best coreset.
        if n <= self.sample_size {
            return Coreset::new(points.clone(), w.to_vec(), 0.0);
        }

        let bic = bicriteria(points, w, self.k, &self.bicriteria)?;
        self.sample_with_bicriteria(points, w, &bic)
    }

    /// Builds a coreset re-using an already-computed bicriteria solution
    /// (disSS computes it separately to report `cost(P_i, X_i)` first).
    ///
    /// # Errors
    ///
    /// See [`SensitivitySampler::sample`].
    pub fn sample_with_bicriteria(
        &self,
        points: &Matrix,
        weights: &[f64],
        bic: &BicriteriaSolution,
    ) -> Result<Coreset> {
        if self.sample_size == 0 {
            return Err(CoresetError::InvalidSampleSize { requested: 0 });
        }
        let n = points.rows();
        validate_weights(weights, n).map_err(CoresetError::Clustering)?;

        // One blocked-kernel assignment serves the cluster weights, the
        // total cost, and the per-point sensitivity terms below.
        let a = assign_engine(&DistanceEngine::new(points, self.compute), &bic.centers)?;
        let n_clusters = bic.centers.rows();
        let cluster_w = a.cluster_weights(n_clusters, weights);
        let total_cost = a.weighted_cost(weights);

        // Sensitivity upper bounds.
        let sens: Vec<f64> = (0..n)
            .map(|i| {
                let cost_term = if total_cost > 0.0 {
                    weights[i] * a.distances_sq[i] / total_cost
                } else {
                    0.0
                };
                let cluster_term = if cluster_w[a.labels[i]] > 0.0 {
                    weights[i] / cluster_w[a.labels[i]]
                } else {
                    0.0
                };
                cost_term + cluster_term
            })
            .collect();
        let sens_total: f64 = sens.iter().sum();

        let m = self.sample_size;
        let mut rng = rng_from_seed(derive_seed(self.seed, 0x5A17));
        let drawn = sample_weighted_indices(&mut rng, &sens, m);

        // Unbiased weights per drawn copy: w(p)·Σσ/(m·σ(p)).
        let mut samp_points = points.select_rows(&drawn);
        let mut samp_weights: Vec<f64> = drawn
            .iter()
            .map(|&i| weights[i] * sens_total / (m as f64 * sens[i]))
            .collect();

        if self.weight_mode == WeightMode::DeterministicTotal {
            // Per-cluster weight matching (the [4] scheme): within each
            // bicriteria cluster b, the samples plus the cluster's center
            // must carry exactly W_b. If the raw unbiased sample weights
            // overshoot W_b they are scaled down to W_b and the center gets
            // zero; otherwise the center absorbs the exact remainder. This
            // keeps every weight nonnegative and Σw = Σ_b W_b = n exactly.
            let mut absorbed = vec![0.0f64; n_clusters];
            for (pos, &i) in drawn.iter().enumerate() {
                absorbed[a.labels[i]] += samp_weights[pos];
            }
            let mut center_weights = vec![0.0f64; n_clusters];
            let mut scale = vec![1.0f64; n_clusters];
            for c in 0..n_clusters {
                if absorbed[c] > cluster_w[c] {
                    scale[c] = cluster_w[c] / absorbed[c];
                } else {
                    center_weights[c] = cluster_w[c] - absorbed[c];
                }
            }
            for (pos, &i) in drawn.iter().enumerate() {
                samp_weights[pos] *= scale[a.labels[i]];
            }
            samp_points = samp_points.vstack(&bic.centers)?;
            samp_weights.extend(center_weights);
        }

        Coreset::new(samp_points, samp_weights, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_clustering::kmeans::KMeans;
    use ekm_linalg::random::gaussian_matrix;

    fn blobs(n_per: usize, seed: u64) -> Matrix {
        let noise = gaussian_matrix(seed, n_per * 3, 4, 0.2);
        let mut m = noise;
        for i in 0..n_per {
            m.row_mut(n_per + i)[0] += 20.0;
            m.row_mut(2 * n_per + i)[1] += 20.0;
        }
        m
    }

    #[test]
    fn deterministic_total_weight_equals_n() {
        let p = blobs(300, 1);
        for seed in 0..5 {
            let c = SensitivitySampler::new(3, 50)
                .with_seed(seed)
                .sample(&p, None)
                .unwrap();
            assert!(
                (c.total_weight() - 900.0).abs() < 1e-6,
                "Σw = {}",
                c.total_weight()
            );
        }
    }

    #[test]
    fn plain_mode_total_weight_near_n_on_average() {
        let p = blobs(200, 2);
        let mut total = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let c = SensitivitySampler::new(3, 60)
                .with_seed(seed)
                .with_weight_mode(WeightMode::Plain)
                .sample(&p, None)
                .unwrap();
            total += c.total_weight();
        }
        let mean = total / runs as f64;
        assert!(
            (mean - 600.0).abs() < 60.0,
            "mean total weight {mean} (expected ≈ 600)"
        );
    }

    #[test]
    fn coreset_cost_approximates_dataset_cost() {
        let p = blobs(400, 3);
        let c = SensitivitySampler::new(3, 150)
            .with_seed(9)
            .sample(&p, None)
            .unwrap();
        // Check the ε-coreset property on a few center sets.
        for cs in 0..4 {
            let centers = gaussian_matrix(100 + cs, 3, 4, 8.0);
            let true_cost = ekm_clustering::cost::cost(&p, &centers).unwrap();
            let approx = c.cost(&centers).unwrap();
            let ratio = approx / true_cost;
            assert!(
                (0.6..=1.4).contains(&ratio),
                "coreset distortion {ratio} at trial {cs}"
            );
        }
    }

    #[test]
    fn kmeans_on_coreset_close_to_kmeans_on_data() {
        let p = blobs(400, 4);
        let c = SensitivitySampler::new(3, 120)
            .with_seed(11)
            .sample(&p, None)
            .unwrap();
        let full = KMeans::new(3).with_seed(5).fit(&p).unwrap();
        let model = KMeans::new(3)
            .with_seed(5)
            .fit_weighted(c.points(), c.weights())
            .unwrap();
        let coreset_centers_cost = ekm_clustering::cost::cost(&p, &model.centers).unwrap();
        assert!(
            coreset_centers_cost <= 1.5 * full.inertia,
            "coreset-derived centers cost {coreset_centers_cost} vs full {}",
            full.inertia
        );
    }

    #[test]
    fn small_input_returned_whole() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let c = SensitivitySampler::new(2, 10).sample(&p, None).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.weights(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn respects_input_weights() {
        // Input weights 2.0 everywhere ≈ dataset duplicated: Σw = 2n.
        let p = blobs(100, 5);
        let w = vec![2.0; p.rows()];
        let c = SensitivitySampler::new(3, 40)
            .with_seed(3)
            .sample(&p, Some(&w))
            .unwrap();
        assert!((c.total_weight() - 600.0).abs() < 1e-6);
    }

    #[test]
    fn zero_sample_size_errors() {
        let p = Matrix::from_rows(&[vec![0.0]]);
        assert!(matches!(
            SensitivitySampler::new(1, 0).sample(&p, None),
            Err(CoresetError::InvalidSampleSize { .. })
        ));
    }

    #[test]
    fn invalid_weights_propagate() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert!(SensitivitySampler::new(1, 1)
            .sample(&p, Some(&[1.0]))
            .is_err());
        assert!(SensitivitySampler::new(1, 1)
            .sample(&p, Some(&[-1.0, 1.0]))
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = blobs(100, 6);
        let a = SensitivitySampler::new(2, 30)
            .with_seed(42)
            .sample(&p, None)
            .unwrap();
        let b = SensitivitySampler::new(2, 30)
            .with_seed(42)
            .sample(&p, None)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_cost_dataset_uses_cluster_term() {
        // All points identical: cost term vanishes, cluster term drives
        // uniform sampling; weights must still sum to n.
        let p = Matrix::from_fn(50, 2, |_, _| 3.0);
        let c = SensitivitySampler::new(2, 10)
            .with_seed(1)
            .sample(&p, None)
            .unwrap();
        assert!((c.total_weight() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn larger_samples_reduce_distortion() {
        let p = blobs(400, 7);
        let centers = gaussian_matrix(55, 3, 4, 8.0);
        let true_cost = ekm_clustering::cost::cost(&p, &centers).unwrap();
        let distortion = |size: usize| {
            let mut worst: f64 = 0.0;
            for seed in 0..8 {
                let c = SensitivitySampler::new(3, size)
                    .with_seed(seed)
                    .sample(&p, None)
                    .unwrap();
                let ratio = c.cost(&centers).unwrap() / true_cost;
                worst = worst.max((ratio - 1.0).abs());
            }
            worst
        };
        let small = distortion(10);
        let large = distortion(300);
        assert!(
            large <= small + 0.05,
            "distortion did not shrink: small-sample {small}, large-sample {large}"
        );
    }
}
