//! Seeded Gaussian-mixture workload generation.

use crate::{DataError, Result};
use ekm_linalg::parallel::{self, PAR_ENTRIES_THRESHOLD};
use ekm_linalg::random::{derive_seed, fill_standard_normal, rng_from_seed};
use ekm_linalg::Matrix;
use rand::Rng;

/// A labeled synthetic dataset.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// The points (rows).
    pub points: Matrix,
    /// Ground-truth component index per point.
    pub labels: Vec<usize>,
}

/// Specification of a spherical Gaussian mixture.
///
/// # Example
///
/// ```
/// use ekm_data::synth::GaussianMixture;
///
/// let ds = GaussianMixture::new(300, 8, 3)
///     .with_separation(10.0)
///     .with_cluster_std(0.5)
///     .with_seed(7)
///     .generate()
///     .unwrap();
/// assert_eq!(ds.points.shape(), (300, 8));
/// assert_eq!(ds.labels.len(), 300);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    n: usize,
    d: usize,
    k: usize,
    separation: f64,
    cluster_std: f64,
    seed: u64,
}

impl GaussianMixture {
    /// Creates a mixture spec with `n` points, `d` dimensions, `k`
    /// components, separation 8, cluster std 1, seed 0.
    pub fn new(n: usize, d: usize, k: usize) -> Self {
        GaussianMixture {
            n,
            d,
            k,
            separation: 8.0,
            cluster_std: 1.0,
            seed: 0,
        }
    }

    /// Distance scale between component means.
    pub fn with_separation(mut self, separation: f64) -> Self {
        self.separation = separation;
        self
    }

    /// Standard deviation of each spherical component.
    pub fn with_cluster_std(mut self, std: f64) -> Self {
        self.cluster_std = std;
        self
    }

    /// RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    ///
    /// The k means and the n labels are drawn first, each from its own
    /// stream; then the n × d standard normals (on the workers, see
    /// [`fill_standard_normal`]); then one pass makes each point
    /// `z·std + mean[label]`, split across the workers from
    /// [`PAR_ENTRIES_THRESHOLD`] entries up. The dataset is bitwise the
    /// same at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] for zero `n`, `d`, or `k`,
    /// or negative or non-finite scales.
    pub fn generate(&self) -> Result<LabeledDataset> {
        if self.n == 0 || self.d == 0 || self.k == 0 {
            return Err(DataError::InvalidParameter {
                name: "n/d/k",
                reason: "must be positive",
            });
        }
        let valid_scale = |x: f64| x.is_finite() && x >= 0.0;
        if !valid_scale(self.separation) || !valid_scale(self.cluster_std) {
            return Err(DataError::InvalidParameter {
                name: "separation/cluster_std",
                reason: "must be finite and nonnegative",
            });
        }
        let d = self.d;
        // Component means: random Gaussian directions scaled by separation.
        let mut mean_rng = rng_from_seed(derive_seed(self.seed, 1));
        let mut means = Matrix::zeros(self.k, d);
        fill_standard_normal(&mut mean_rng, means.as_mut_slice());
        means.scale_mut(self.separation / (d as f64).sqrt());

        let mut label_rng = rng_from_seed(derive_seed(self.seed, 3));
        let labels: Vec<usize> = (0..self.n)
            .map(|_| label_rng.gen_range(0..self.k))
            .collect();

        let mut points = Matrix::zeros(self.n, d);
        let z = points.as_mut_slice();
        fill_standard_normal(&mut rng_from_seed(derive_seed(self.seed, 2)), z);
        let std = self.cluster_std;
        let parallel = z.len() >= PAR_ENTRIES_THRESHOLD;
        parallel::for_each_row_chunk(z, d, parallel, |first, chunk| {
            for (row, &c) in chunk.chunks_exact_mut(d).zip(&labels[first..]) {
                for (x, &m) in row.iter_mut().zip(means.row(c)) {
                    *x = *x * std + m;
                }
            }
        });
        Ok(LabeledDataset { points, labels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_clustering::kmeans::KMeans;
    use proptest::prelude::*;

    /// [`GaussianMixture::generate`] as it was before its one offset
    /// pass: the normals scaled by `cluster_std` in one pass, then each
    /// row's mean added as its label is drawn. Kept as the reference the
    /// generator must match bit for bit.
    fn reference_generate(g: &GaussianMixture) -> LabeledDataset {
        let mut mean_rng = rng_from_seed(derive_seed(g.seed, 1));
        let mut means = Matrix::zeros(g.k, g.d);
        fill_standard_normal(&mut mean_rng, means.as_mut_slice());
        means.scale_mut(g.separation / (g.d as f64).sqrt());

        let mut rng = rng_from_seed(derive_seed(g.seed, 2));
        let mut points = Matrix::zeros(g.n, g.d);
        fill_standard_normal(&mut rng, points.as_mut_slice());
        points.scale_mut(g.cluster_std);

        let mut label_rng = rng_from_seed(derive_seed(g.seed, 3));
        let mut labels = Vec::with_capacity(g.n);
        for i in 0..g.n {
            let c = label_rng.gen_range(0..g.k);
            labels.push(c);
            let mean_row = means.row(c).to_vec();
            let row = points.row_mut(i);
            for (x, m) in row.iter_mut().zip(mean_row) {
                *x += m;
            }
        }
        LabeledDataset { points, labels }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `g` generated at 1, 2 and 4 workers is bitwise the reference.
    fn assert_bitwise_the_reference(g: &GaussianMixture) {
        let want = reference_generate(g);
        for workers in [1, 2, 4] {
            parallel::set_worker_count(workers);
            let got = g.generate().unwrap();
            assert!(
                bits(&got.points) == bits(&want.points) && got.labels == want.labels,
                "{g:?} at {workers} workers"
            );
        }
        parallel::set_worker_count(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn generate_is_bitwise_the_reference(
            n in 1usize..40,
            d in 1usize..10,
            k in 1usize..5,
            separation in 0.0f64..20.0,
            std in 0.0f64..3.0,
            seed in 0u64..10_000,
        ) {
            // Odd d puts a Box–Muller pair across two rows.
            let g = GaussianMixture::new(n, d, k)
                .with_separation(separation)
                .with_cluster_std(std)
                .with_seed(seed);
            assert_bitwise_the_reference(&g);
        }
    }

    #[test]
    fn generate_is_bitwise_the_reference_on_both_sides_of_the_threshold() {
        // d = 7: 149796 rows fall 4 entries short of the threshold,
        // 149797 pass it by 3.
        let t = PAR_ENTRIES_THRESHOLD;
        for n in [t / 7, t / 7 + 1] {
            assert_bitwise_the_reference(&GaussianMixture::new(n, 7, 3).with_seed(n as u64));
        }
    }

    #[test]
    fn shape_and_labels() {
        let ds = GaussianMixture::new(100, 5, 4)
            .with_seed(1)
            .generate()
            .unwrap();
        assert_eq!(ds.points.shape(), (100, 5));
        assert_eq!(ds.labels.len(), 100);
        assert!(ds.labels.iter().all(|&l| l < 4));
        // All components used with overwhelming probability.
        let mut seen = [false; 4];
        for &l in &ds.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = GaussianMixture::new(50, 3, 2)
            .with_seed(9)
            .generate()
            .unwrap();
        let b = GaussianMixture::new(50, 3, 2)
            .with_seed(9)
            .generate()
            .unwrap();
        assert!(a.points.approx_eq(&b.points, 0.0));
        assert_eq!(a.labels, b.labels);
        let c = GaussianMixture::new(50, 3, 2)
            .with_seed(10)
            .generate()
            .unwrap();
        assert!(!a.points.approx_eq(&c.points, 1e-9));
    }

    #[test]
    fn well_separated_mixture_is_clusterable() {
        let ds = GaussianMixture::new(600, 10, 3)
            .with_separation(40.0)
            .with_cluster_std(0.5)
            .with_seed(3)
            .generate()
            .unwrap();
        let model = KMeans::new(3)
            .with_seed(1)
            .with_n_init(5)
            .fit(&ds.points)
            .unwrap();
        // k-means labels must refine the ground truth: points sharing a
        // ground-truth label share a k-means label.
        let mut map = [usize::MAX; 3];
        let mut agree = 0;
        for (i, &g) in ds.labels.iter().enumerate() {
            if map[g] == usize::MAX {
                map[g] = model.labels[i];
            }
            if map[g] == model.labels[i] {
                agree += 1;
            }
        }
        let frac = agree as f64 / 600.0;
        assert!(frac > 0.98, "cluster agreement {frac}");
    }

    #[test]
    fn cluster_std_controls_spread() {
        let tight = GaussianMixture::new(400, 6, 1)
            .with_cluster_std(0.1)
            .with_seed(4)
            .generate()
            .unwrap();
        let wide = GaussianMixture::new(400, 6, 1)
            .with_cluster_std(5.0)
            .with_seed(4)
            .generate()
            .unwrap();
        let spread = |m: &Matrix| {
            let mean = m.mean_row();
            let mut c = m.clone();
            c.sub_row_vector_mut(&mean);
            c.frobenius_norm_sq() / m.rows() as f64
        };
        assert!(spread(&wide.points) > 100.0 * spread(&tight.points));
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(GaussianMixture::new(0, 2, 1).generate().is_err());
        assert!(GaussianMixture::new(2, 0, 1).generate().is_err());
        assert!(GaussianMixture::new(2, 2, 0).generate().is_err());
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for g in [
                GaussianMixture::new(2, 2, 1).with_separation(bad),
                GaussianMixture::new(2, 2, 1).with_cluster_std(bad),
            ] {
                assert!(
                    matches!(g.generate(), Err(DataError::InvalidParameter { .. })),
                    "{g:?}"
                );
            }
        }
    }
}
