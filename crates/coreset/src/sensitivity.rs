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
//! * **Deterministic-total** (the \[4\] variant, paper footnote 8) — the
//!   bicriteria centers join the coreset and absorb the leftover weight
//!   of their clusters so `Σ w = n` holds *exactly*. [`deterministic_total`]
//!   states that rule once: the sampler calls it, and so does disSS
//!   (`ekm_core::distributed`), over its own bicriteria solution and D²
//!   draw.

use crate::types::Coreset;
use crate::{CoresetError, Result};
use ekm_clustering::bicriteria::{bicriteria, BicriteriaConfig};
use ekm_clustering::cost::{assign_engine, validate_weights, Assignment};
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
            compute: Compute::F64,
        }
    }

    /// Sets the RNG seed (the bicriteria solve draws from a stream
    /// derived from it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the weighting mode.
    pub fn with_weight_mode(mut self, mode: WeightMode) -> Self {
        self.weight_mode = mode;
        self
    }

    /// Sets the compute precision of both the bicriteria solve and the
    /// sensitivity assignment ([`Compute::F64`] by default).
    pub fn with_compute(mut self, compute: Compute) -> Self {
        self.compute = compute;
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

        let config = BicriteriaConfig {
            seed: derive_seed(self.seed, 0xB1C),
            compute: self.compute,
            ..BicriteriaConfig::default()
        };
        let bic = bicriteria(points, w, self.k, &config)?;

        // One blocked-kernel assignment serves the cluster weights, the
        // total cost, and the per-point sensitivity terms below.
        let a = assign_engine(&DistanceEngine::new(points, self.compute), &bic.centers)?;
        let cluster_w = a.cluster_weights(bic.centers.rows(), w);
        let total_cost = a.weighted_cost(w);

        // Sensitivity upper bounds.
        let sens: Vec<f64> = (0..n)
            .map(|i| {
                let cost_term = if total_cost > 0.0 {
                    w[i] * a.distances_sq[i] / total_cost
                } else {
                    0.0
                };
                let cluster_term = if cluster_w[a.labels[i]] > 0.0 {
                    w[i] / cluster_w[a.labels[i]]
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
        let unbiased: Vec<f64> = drawn
            .iter()
            .map(|&i| w[i] * sens_total / (m as f64 * sens[i]))
            .collect();
        if self.weight_mode == WeightMode::Plain {
            return Coreset::new(points.select_rows(&drawn), unbiased, 0.0);
        }
        let (samples, weights) =
            deterministic_total(points, &drawn, unbiased, &a, &cluster_w, &bic.centers)?;
        Coreset::new(samples, weights, 0.0)
    }
}

/// The \[4\] deterministic-total weighting, the one statement of it
/// that [`SensitivitySampler`] and disSS share: within each bicriteria
/// cluster `b`, the drawn samples plus `b`'s center carry exactly the
/// cluster's weight `W_b`. Samples whose unbiased weights overshoot
/// `W_b` are scaled down to it and the center gets zero; otherwise the
/// center takes the exact remainder. Every weight stays nonnegative and
/// `Σw = Σ_b W_b`.
///
/// `drawn` are the rows of `points` drawn (with repeats) from
/// `assignment`, `weights` their unbiased weights, and
/// `cluster_weights` the `W_b` of `centers`' rows. Each sample counts
/// in the cluster the assignment put it in. Returns the drawn points
/// with the centers stacked under them, and their weights.
///
/// # Errors
///
/// Shape errors when `centers` and `points` differ in dimension.
///
/// # Panics
///
/// Panics if a drawn row is outside the assignment, or the assignment
/// names a cluster outside `cluster_weights` or `centers`.
pub fn deterministic_total(
    points: &Matrix,
    drawn: &[usize],
    mut weights: Vec<f64>,
    assignment: &Assignment,
    cluster_weights: &[f64],
    centers: &Matrix,
) -> Result<(Matrix, Vec<f64>)> {
    let labels = &assignment.labels;
    let mut absorbed = vec![0.0f64; centers.rows()];
    for (&p, &w) in drawn.iter().zip(&weights) {
        absorbed[labels[p]] += w;
    }
    let mut center_weights = vec![0.0f64; centers.rows()];
    let mut scale = vec![1.0f64; centers.rows()];
    for c in 0..centers.rows() {
        if absorbed[c] > cluster_weights[c] {
            scale[c] = cluster_weights[c] / absorbed[c];
        } else {
            center_weights[c] = cluster_weights[c] - absorbed[c];
        }
    }
    for (&p, w) in drawn.iter().zip(&mut weights) {
        *w *= scale[labels[p]];
    }
    weights.extend(center_weights);
    Ok((points.select_rows(drawn).vstack(centers)?, weights))
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
    fn deterministic_total_gives_each_cluster_exactly_its_weight() {
        // Two clusters of weight 4 and 6 around centers 0 and 10.
        let points = Matrix::from_rows(&[
            vec![0.5],
            vec![1.0],
            vec![-1.0],
            vec![10.0],
            vec![11.0],
            vec![9.0],
        ]);
        let assignment = Assignment {
            labels: vec![0, 0, 0, 1, 1, 1],
            distances_sq: vec![0.25, 1.0, 1.0, 0.0, 1.0, 1.0],
        };
        let cluster_w = [4.0, 6.0];
        let centers = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        // Each cluster's total over its samples (by label) plus its
        // center (the row after the samples with its index).
        let per_cluster = |drawn: &[usize], w: &[f64]| {
            let mut totals = [0.0; 2];
            for (r, &wr) in w.iter().enumerate() {
                let c = (drawn.get(r)).map_or_else(|| r - drawn.len(), |&p| assignment.labels[p]);
                totals[c] += wr;
            }
            totals
        };

        // Cluster 0 overshoots (point 1 drawn twice at 4 > 4): its samples
        // halve and its center gets nothing. Cluster 1 undershoots (1.5 <
        // 6): its center takes the remainder.
        let drawn = [1, 4, 1];
        let (pts, w) = deterministic_total(
            &points,
            &drawn,
            vec![4.0, 1.5, 4.0],
            &assignment,
            &cluster_w,
            &centers,
        )
        .unwrap();
        assert_eq!(w, [2.0, 1.5, 2.0, 0.0, 4.5]);
        assert_eq!(per_cluster(&drawn, &w), cluster_w);
        assert_eq!(pts, points.select_rows(&drawn).vstack(&centers).unwrap());

        // An empty draw: the centers carry every cluster's weight.
        let (pts, w) =
            deterministic_total(&points, &[], Vec::new(), &assignment, &cluster_w, &centers)
                .unwrap();
        assert_eq!(w, cluster_w);
        assert_eq!(per_cluster(&[], &w), cluster_w);
        assert_eq!(pts, centers);
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
