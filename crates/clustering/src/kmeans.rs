//! Multi-restart k-means driver: the server-side `kmeans(S', w, k)`
//! primitive of Algorithms 1–4.

use crate::init::kmeanspp_starts;
use crate::lloyd::{lloyd_starts, LloydConfig, LloydOutcome, Solve};
use crate::Result;
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
    n_init: usize,
    seed: u64,
    compute: Compute,
}

impl KMeans {
    /// Creates a configuration for `k` clusters with the defaults
    /// `max_iter = 100`, `n_init = 3`, `seed = 0`, `compute = F64`; the
    /// convergence tolerance is [`LloydConfig`]'s.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            max_iter: 100,
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
    /// and returns the best outcome: the first restart with the lowest
    /// inertia. The restarts run in lockstep over one prepared copy of
    /// the points: one norm pass per fit, then one pass per k-means++
    /// round and one per Lloyd iteration for all restarts at once. Each
    /// restart keeps its own random stream (`derive_seed(seed, restart)`),
    /// so its result is bitwise that of a fit from its seed alone.
    ///
    /// # Errors
    ///
    /// * [`ClusteringError::EmptyInput`](crate::ClusteringError::EmptyInput) for an empty dataset.
    /// * [`ClusteringError::Linalg`](crate::ClusteringError::Linalg) with `LinalgError::NonFinite` if a
    ///   point holds a NaN or infinite coordinate or its squared norm
    ///   overflows in the compute precision (under `Compute::F32`, a
    ///   coordinate above about 1.8e19 is enough).
    /// * [`ClusteringError::InvalidK`](crate::ClusteringError::InvalidK) if `k` is 0 or exceeds the number of
    ///   positive-weight points.
    /// * [`ClusteringError::InvalidWeights`](crate::ClusteringError::InvalidWeights) for malformed weights.
    pub fn fit_weighted(&self, points: &Matrix, weights: &[f64]) -> Result<KMeansModel> {
        let solve = Solve::new(points, weights, self.compute)?;
        let mut rngs: Vec<_> = (0..self.n_init)
            .map(|restart| rng_from_seed(derive_seed(self.seed, restart as u64)))
            .collect();
        let mut streams: Vec<_> = rngs.iter_mut().collect();
        let inits = kmeanspp_starts(&solve, self.k, &mut streams)?
            .iter()
            .map(|idx| points.select_rows(idx))
            .collect();
        let config = LloydConfig {
            max_iter: self.max_iter,
            compute: self.compute,
            ..LloydConfig::default()
        };
        let mut best: Option<LloydOutcome> = None;
        for out in lloyd_starts(&solve, inits, &config)? {
            if best.as_ref().is_none_or(|b| out.inertia < b.inertia) {
                best = Some(out);
            }
        }
        let best = best.expect("n_init >= 1 guarantees a model");
        Ok(KMeansModel {
            centers: best.centers,
            inertia: best.inertia,
            labels: best.assignment.labels,
            iterations: best.iterations,
            restarts: self.n_init,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::kmeanspp_indices;
    use crate::init::tests::reference_kmeanspp_indices;
    use crate::lloyd::lloyd;
    use crate::lloyd::tests::{assert_same_outcome, reference_lloyd};
    use crate::ClusteringError;
    use ekm_linalg::random::gaussian_matrix;
    use ekm_linalg::LinalgError;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `km` restart by restart through the reference seeding and
    /// Lloyd loops, then in lockstep at each worker count, and asserts
    /// that every restart agrees bit for bit — seeds, centers, labels,
    /// distances, inertia, iterations, convergence — and that
    /// `fit_weighted` returns the first restart with the lowest inertia.
    fn assert_lockstep_is_the_per_restart_loop(
        km: &KMeans,
        points: &Matrix,
        weights: &[f64],
        workers: &[usize],
    ) {
        let config = LloydConfig {
            max_iter: km.max_iter,
            compute: km.compute,
            ..LloydConfig::default()
        };
        let stream = |r: usize| rng_from_seed(derive_seed(km.seed, r as u64));
        let want: Vec<(Vec<usize>, LloydOutcome)> = (0..km.n_init)
            .map(|r| {
                let seeds =
                    reference_kmeanspp_indices(&mut stream(r), points, weights, km.k, km.compute)
                        .unwrap();
                let init = points.select_rows(&seeds);
                (
                    seeds,
                    reference_lloyd(points, weights, &init, &config).unwrap(),
                )
            })
            .collect();
        let mut solve = Solve::new(points, weights, km.compute).unwrap();
        for &w in workers {
            solve.workers = Some(w);
            let mut rngs: Vec<_> = (0..km.n_init).map(stream).collect();
            let mut streams: Vec<_> = rngs.iter_mut().collect();
            let seeds = kmeanspp_starts(&solve, km.k, &mut streams).unwrap();
            let inits = seeds.iter().map(|s| points.select_rows(s)).collect();
            let outs = lloyd_starts(&solve, inits, &config).unwrap();
            assert_eq!(outs.len(), km.n_init);
            for (r, ((s, o), (ws, wo))) in seeds.iter().zip(&outs).zip(&want).enumerate() {
                let context = format!("{km:?} restart {r}, {w} workers");
                assert_eq!(s, ws, "{context}");
                assert_same_outcome(o, wo, &context);
            }
        }
        let mut best = &want[0].1;
        for (_, out) in &want[1..] {
            if out.inertia < best.inertia {
                best = out;
            }
        }
        let model = km.fit_weighted(points, weights).unwrap();
        assert_eq!(
            bits(model.centers.as_slice()),
            bits(best.centers.as_slice()),
            "{km:?}"
        );
        assert_eq!(model.labels, best.assignment.labels, "{km:?}");
        assert_eq!(model.inertia.to_bits(), best.inertia.to_bits(), "{km:?}");
        assert_eq!(model.iterations, best.iterations, "{km:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lockstep restarts are bitwise the per-restart loop on three
        /// kinds of data: separated blobs; duplicate-heavy points (three
        /// distinct rows, so k > 3 reaches the zero-mass fallback and
        /// Lloyd repairs the clusters its duplicate seeds leave empty);
        /// and blobs with a fifth of the weights zero. k = 3 with 3
        /// restarts puts a group across two lane groups.
        #[test]
        fn lockstep_restarts_are_bitwise_the_per_restart_loop(
            (n, d, k, restarts, seed) in (20usize..1400, 1usize..5, 1usize..10, 1usize..6, 0u64..1000),
            (kind, cap, f32_compute) in (0usize..3, 0usize..5, 0usize..2),
        ) {
            let points = if kind == 1 {
                Matrix::from_fn(n, d, |i, j| ((i * 7 % 3) * 2 + j) as f64 * 0.5)
            } else {
                let noise = gaussian_matrix(seed, n, d, 1.0);
                Matrix::from_fn(n, d, |i, j| noise[(i, j)] + ((i + j) % 3) as f64 * 6.0)
            };
            let weights: Vec<f64> = (0..n)
                .map(|i| match (kind, i % 5) {
                    (2, 0) => 0.0,
                    (_, r) => 1.0 + r as f64 * 0.25,
                })
                .collect();
            let km = KMeans::new(k)
                .with_n_init(restarts)
                .with_seed(seed)
                .with_max_iter([0, 1, 2, 5, 100][cap])
                .with_compute([Compute::F64, Compute::F32][f32_compute]);
            assert_lockstep_is_the_per_restart_loop(&km, &points, &weights, &[1, 2]);
        }
    }

    #[test]
    fn lockstep_restarts_agree_at_every_worker_count_above_the_parallel_threshold() {
        // n·d ≥ 2¹⁹: every pass of this solve spreads over the process's
        // workers, a one-center seeding pass too, with more than one
        // 1024-row chunk per worker at 2 workers.
        let (n, d) = (2_100, 256);
        assert!(n * d >= 1 << 19);
        let noise = gaussian_matrix(3, n, d, 1.0);
        let points = Matrix::from_fn(n, d, |i, j| noise[(i, j)] + (i % 3 * (j % 2)) as f64 * 4.0);
        let weights: Vec<f64> = (0..n).map(|i| (i % 6) as f64 * 0.5).collect();
        for (k, restarts, compute) in [
            (2, 3, Compute::F64),
            (3, 3, Compute::F32),
            (9, 2, Compute::F64),
        ] {
            let km = KMeans::new(k)
                .with_n_init(restarts)
                .with_seed(11)
                .with_max_iter(20)
                .with_compute(compute);
            assert_lockstep_is_the_per_restart_loop(&km, &points, &weights, &[1, 2, 4]);
        }
    }

    #[test]
    fn non_finite_points_are_refused() {
        // Two blobs of 40 points with one coordinate poisoned. Unchecked,
        // the poisoned row's distances read as 0 (max(NaN, 0) = 0), and a
        // NaN fit returns Ok with inertia 0 and a NaN center.
        let blobs = Matrix::from_fn(80, 2, |i, j| {
            if j == 0 {
                (i % 2) as f64 * 50.0 + (i % 4) as f64 * 0.1
            } else {
                0.0
            }
        });
        let w = vec![1.0; 80];
        let refused = |e: ClusteringError| {
            matches!(e, ClusteringError::Linalg(LinalgError::NonFinite { .. }))
        };
        for (bad, what) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "+inf"),
            (f64::NEG_INFINITY, "-inf"),
            (1e200, "an overflowing norm"),
        ] {
            let mut p = blobs.clone();
            p[(17, 1)] = bad;
            for compute in [Compute::F64, Compute::F32] {
                let err = KMeans::new(2).with_compute(compute).fit(&p).unwrap_err();
                assert!(refused(err), "{what} {compute}");
            }
            let init = blobs.select_rows(&[0, 1]);
            assert!(
                refused(lloyd(&p, &w, &init, &LloydConfig::default()).unwrap_err()),
                "{what}"
            );
            let mut rng = rng_from_seed(1);
            let err = kmeanspp_indices(&mut rng, &p, &w, 2, Compute::F64).unwrap_err();
            assert!(refused(err), "{what}");
        }
        // Finite in f64 but not in f32: 1e20² overflows f32, and 1e39 is
        // past f32::MAX already. Only a solve in f32 refuses them.
        for bad in [1e20, 1e39] {
            let mut p = blobs.clone();
            p[(17, 1)] = bad;
            let err = KMeans::new(2)
                .with_compute(Compute::F32)
                .fit(&p)
                .unwrap_err();
            assert!(refused(err), "{bad} f32");
            let mut rng = rng_from_seed(1);
            let err = kmeanspp_indices(&mut rng, &p, &w, 2, Compute::F32).unwrap_err();
            assert!(refused(err), "{bad} f32");
            assert!(KMeans::new(2).fit(&p).is_ok(), "{bad} f64");
        }
    }

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
    fn score_is_the_training_inertia() {
        let p = three_blobs(10);
        let model = KMeans::new(3).with_seed(1).fit(&p).unwrap();
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
        let km = KMeans::new(4).with_max_iter(7).with_n_init(0);
        assert_eq!(km.k(), 4);
        // n_init clamps to >= 1.
        let p = three_blobs(5);
        assert!(km.fit(&p).is_ok());
    }
}
