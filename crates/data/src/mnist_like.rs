//! Synthetic MNIST-like image dataset.
//!
//! Stand-in for the MNIST training set (60000 images, 28×28 = 784 pixels)
//! used by the paper's experiments. Ten seeded "digit prototypes" are
//! synthesized as smooth pen-stroke-like intensity fields on the pixel
//! grid (sums of a few randomly placed Gaussian bumps — low-frequency
//! structure like real digits, so the data has strong intrinsic
//! low-dimensionality, which is what FSS/PCA exploit). Samples are a
//! prototype plus per-image deformation noise, clipped to `[0, 1]`, then
//! passed through the paper's normalization by the caller.

use crate::synth::LabeledDataset;
use crate::{DataError, Result};
use ekm_linalg::random::{derive_seed, rng_from_seed};
use ekm_linalg::Matrix;
use rand::Rng;

/// Number of prototype classes (digits 0–9).
pub const N_CLASSES: usize = 10;

/// Per-pixel deformation noise amplitude.
const NOISE: f64 = 0.15;

/// Per-image multiplicative intensity jitter `j`: each image scales its
/// prototype by `α ~ U(1−j, 1+j)`, modeling stroke-width/style variation
/// — this is what gives the stand-in realistic within-class variance.
const INTENSITY_JITTER: f64 = 0.35;

/// Per-image "style" strength `s`: each image mixes in every other
/// prototype with a coefficient `~ U(−s, s)`. This puts within-class
/// scatter along the same low-dimensional subspace the class means span
/// — like real handwriting, where most per-image variance is shared
/// stroke structure, not isotropic pixel noise.
const STYLE_STRENGTH: f64 = 0.25;

/// The paper-scale configuration: 60000 images, 28×28 pixels.
pub fn paper_scale() -> MnistLike {
    MnistLike::new(60_000, 28)
}

/// Builder for the synthetic MNIST-like dataset.
///
/// # Example
///
/// ```
/// use ekm_data::mnist_like::MnistLike;
///
/// let ds = MnistLike::new(200, 14).with_seed(5).generate().unwrap();
/// assert_eq!(ds.points.shape(), (200, 14 * 14));
/// // Pixel intensities live in [0, 1] like real MNIST (scaled).
/// assert!(ds.points.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
/// ```
#[derive(Debug, Clone)]
pub struct MnistLike {
    n: usize,
    side: usize,
    seed: u64,
}

impl MnistLike {
    /// Creates a generator for `n` images on a `side × side` pixel grid.
    pub fn new(n: usize, side: usize) -> Self {
        MnistLike { n, side, seed: 0 }
    }

    /// RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Dimensionality of the generated points (`side²`).
    pub fn dim(&self) -> usize {
        self.side * self.side
    }

    /// Generates the dataset with ground-truth class labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] for zero sizes.
    pub fn generate(&self) -> Result<LabeledDataset> {
        if self.n == 0 || self.side == 0 {
            return Err(DataError::InvalidParameter {
                name: "n/side",
                reason: "must be positive",
            });
        }
        let d = self.dim();
        let prototypes = self.prototypes();
        let mut rng = rng_from_seed(derive_seed(self.seed, 10));
        let mut points = Matrix::zeros(self.n, d);
        let mut labels = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let class = rng.gen_range(0..N_CLASSES);
            labels.push(class);
            let alpha = 1.0 + (rng.gen::<f64>() - 0.5) * 2.0 * INTENSITY_JITTER;
            // Style mixture coefficients for the other prototypes.
            let betas: Vec<f64> = (0..N_CLASSES)
                .map(|c| {
                    if c == class {
                        0.0
                    } else {
                        (rng.gen::<f64>() - 0.5) * 2.0 * STYLE_STRENGTH
                    }
                })
                .collect();
            let row = points.row_mut(i);
            for (j, x) in row.iter_mut().enumerate() {
                let mut v = alpha * prototypes[(class, j)];
                for (c, &b) in betas.iter().enumerate() {
                    if b != 0.0 {
                        v += b * prototypes[(c, j)];
                    }
                }
                let noise = (rng.gen::<f64>() - 0.5) * 2.0 * NOISE;
                *x = (v + noise).clamp(0.0, 1.0);
            }
        }
        Ok(LabeledDataset { points, labels })
    }

    /// The ten class prototypes (rows), each a smooth `[0,1]` intensity
    /// field.
    pub fn prototypes(&self) -> Matrix {
        let d = self.dim();
        let mut protos = Matrix::zeros(N_CLASSES, d);
        for class in 0..N_CLASSES {
            let mut rng = rng_from_seed(derive_seed(self.seed, 100 + class as u64));
            // 3–6 Gaussian "stroke" bumps per digit.
            let bumps = rng.gen_range(3..=6);
            let centers: Vec<(f64, f64, f64, f64)> = (0..bumps)
                .map(|_| {
                    (
                        rng.gen::<f64>() * self.side as f64,                 // cx
                        rng.gen::<f64>() * self.side as f64,                 // cy
                        self.side as f64 * (0.08 + 0.12 * rng.gen::<f64>()), // radius
                        0.5 + 0.5 * rng.gen::<f64>(),                        // intensity
                    )
                })
                .collect();
            let row = protos.row_mut(class);
            for py in 0..self.side {
                for px in 0..self.side {
                    let mut v = 0.0f64;
                    for &(cx, cy, r, a) in &centers {
                        let dx = px as f64 - cx;
                        let dy = py as f64 - cy;
                        v += a * (-(dx * dx + dy * dy) / (2.0 * r * r)).exp();
                    }
                    row[py * self.side + px] = v.min(1.0);
                }
            }
        }
        protos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_paper;

    #[test]
    fn shapes_range_and_labels() {
        let ds = MnistLike::new(150, 12).with_seed(1).generate().unwrap();
        assert_eq!(ds.points.shape(), (150, 144));
        assert!(ds.points.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(ds.labels.iter().all(|&l| l < N_CLASSES));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = MnistLike::new(50, 10).with_seed(3).generate().unwrap();
        let b = MnistLike::new(50, 10).with_seed(3).generate().unwrap();
        assert!(a.points.approx_eq(&b.points, 0.0));
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn prototypes_are_smooth_nontrivial() {
        let gen = MnistLike::new(1, 16).with_seed(2);
        let protos = gen.prototypes();
        assert_eq!(protos.shape(), (N_CLASSES, 256));
        for c in 0..N_CLASSES {
            let energy: f64 = protos.row(c).iter().map(|v| v * v).sum();
            assert!(energy > 0.5, "prototype {c} nearly empty ({energy})");
        }
        // Distinct classes differ substantially.
        let d01 = ekm_linalg::ops::sq_dist(protos.row(0), protos.row(1));
        assert!(d01 > 0.1, "prototypes 0/1 identical-ish ({d01})");
    }

    #[test]
    fn has_low_intrinsic_dimension() {
        // Real digit images concentrate energy in few principal
        // components; the stand-in must too (it is what FSS exploits).
        let ds = MnistLike::new(400, 12).with_seed(4).generate().unwrap();
        let (norm, _) = normalize_paper(&ds.points);
        let pca = ekm_sketch::Pca::fit(&norm, 20).unwrap();
        let captured: f64 = pca.singular_values().iter().map(|v| v * v).sum();
        let frac = captured / norm.frobenius_norm_sq();
        assert!(frac > 0.5, "top-20 PCA captures only {frac}");
    }

    #[test]
    fn classes_are_separable_by_kmeans_cost() {
        // k-means with 10 centers should do far better than 1 center.
        let ds = MnistLike::new(300, 10).with_seed(5).generate().unwrap();
        let k10 = ekm_clustering::kmeans::KMeans::new(10)
            .with_seed(1)
            .fit(&ds.points)
            .unwrap();
        let k1 = ekm_clustering::kmeans::KMeans::new(1)
            .with_seed(1)
            .fit(&ds.points)
            .unwrap();
        assert!(
            k10.inertia < 0.35 * k1.inertia,
            "k=10 inertia {} vs k=1 {}",
            k10.inertia,
            k1.inertia
        );
    }

    #[test]
    fn paper_scale_shape() {
        let g = paper_scale();
        assert_eq!(g.dim(), 784);
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(MnistLike::new(0, 8).generate().is_err());
        assert!(MnistLike::new(8, 0).generate().is_err());
    }
}
