//! Synthetic NeurIPS-papers-like word-count dataset.
//!
//! Stand-in for the "NeurIPS Conference Papers 1987–2015" dataset used by
//! the paper: 11463 instances (words) with 5812 attributes (papers), i.e.
//! rows are words and columns are papers, entries are counts. The key
//! properties the experiments rely on are:
//!
//! * very high dimensionality with `d ≫ log n` (the regime where
//!   JL-augmented algorithms shine, Table 2 discussion);
//! * sparse, heavy-tailed (Zipfian) counts;
//! * low-rank topic structure (words cluster by topic).
//!
//! The generator draws per-word Zipf base frequencies, assigns each word a
//! topic, gives each paper a topic mixture, and emits counts
//! `c_ij ≈ Zipf(i) · affinity(topic(word i), mixture(paper j)) · noise`,
//! sparsified by a Bernoulli mask.

use crate::synth::LabeledDataset;
use crate::{DataError, Result};
use ekm_linalg::random::{derive_seed, rng_from_seed};
use ekm_linalg::Matrix;
use rand::Rng;

/// Number of latent topics (word clusters).
const TOPICS: usize = 12;

/// Expected fraction of nonzero entries.
const DENSITY: f64 = 0.06;

/// The paper-scale configuration: 11463 words × 5812 papers.
pub fn paper_scale() -> NeurIpsLike {
    NeurIpsLike::new(11_463, 5_812)
}

/// Builder for the synthetic word-count dataset.
///
/// # Example
///
/// ```
/// use ekm_data::neurips_like::NeurIpsLike;
///
/// let ds = NeurIpsLike::new(300, 120).with_seed(3).generate().unwrap();
/// assert_eq!(ds.points.shape(), (300, 120));
/// // Counts are nonnegative and mostly zero (sparse).
/// let zeros = ds.points.as_slice().iter().filter(|&&v| v == 0.0).count();
/// assert!(zeros > 300 * 120 / 2);
/// ```
#[derive(Debug, Clone)]
pub struct NeurIpsLike {
    n_words: usize,
    n_papers: usize,
    seed: u64,
}

impl NeurIpsLike {
    /// Creates a generator for `n_words × n_papers` counts with 12 topics
    /// and ~6% density.
    pub fn new(n_words: usize, n_papers: usize) -> Self {
        NeurIpsLike {
            n_words,
            n_papers,
            seed: 0,
        }
    }

    /// RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset; labels are the ground-truth word topics.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] for empty shapes.
    pub fn generate(&self) -> Result<LabeledDataset> {
        if self.n_words == 0 || self.n_papers == 0 {
            return Err(DataError::InvalidParameter {
                name: "n_words/n_papers",
                reason: "must be positive",
            });
        }
        let t = TOPICS;

        // Paper topic mixtures: each paper has one dominant topic plus a
        // uniform background.
        let mut paper_rng = rng_from_seed(derive_seed(self.seed, 1));
        let paper_topic: Vec<usize> = (0..self.n_papers)
            .map(|_| paper_rng.gen_range(0..t))
            .collect();

        let mut rng = rng_from_seed(derive_seed(self.seed, 2));
        let mut points = Matrix::zeros(self.n_words, self.n_papers);
        let mut labels = Vec::with_capacity(self.n_words);
        for w in 0..self.n_words {
            // Zipfian base frequency by rank.
            let base = 60.0 / ((w + 2) as f64).powf(0.85);
            let topic = rng.gen_range(0..t);
            labels.push(topic);
            let row = points.row_mut(w);
            for (j, x) in row.iter_mut().enumerate() {
                if rng.gen::<f64>() >= DENSITY {
                    continue;
                }
                // Words appear ~2.5× more often in papers of their topic
                // (real word-count data is only weakly clusterable at
                // k = 2: most variance is Zipf frequency, not topic).
                let affinity = if paper_topic[j] == topic { 2.5 } else { 1.0 };
                let lambda = base * affinity * (0.5 + rng.gen::<f64>());
                *x = lambda.round().max(1.0);
            }
        }
        Ok(LabeledDataset { points, labels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_sparsity_nonnegativity() {
        let ds = NeurIpsLike::new(400, 150).with_seed(1).generate().unwrap();
        assert_eq!(ds.points.shape(), (400, 150));
        assert!(ds.points.as_slice().iter().all(|&v| v >= 0.0));
        let nnz = ds.points.as_slice().iter().filter(|&&v| v > 0.0).count();
        let density = nnz as f64 / (400.0 * 150.0);
        assert!((density - 0.06).abs() < 0.02, "density {density}");
    }

    #[test]
    fn counts_are_integers() {
        let ds = NeurIpsLike::new(100, 50).with_seed(2).generate().unwrap();
        assert!(ds
            .points
            .as_slice()
            .iter()
            .all(|&v| (v - v.round()).abs() < 1e-12));
    }

    #[test]
    fn zipf_head_words_heavier() {
        let ds = NeurIpsLike::new(1000, 100).with_seed(3).generate().unwrap();
        let head: f64 = (0..50).map(|i| ds.points.row(i).iter().sum::<f64>()).sum();
        let tail: f64 = (950..1000)
            .map(|i| ds.points.row(i).iter().sum::<f64>())
            .sum();
        assert!(head > 5.0 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = NeurIpsLike::new(100, 40).with_seed(9).generate().unwrap();
        let b = NeurIpsLike::new(100, 40).with_seed(9).generate().unwrap();
        assert!(a.points.approx_eq(&b.points, 0.0));
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn topic_structure_visible_in_counts() {
        // Words of one topic are counted higher in the same papers (their
        // topic's). Summed over many words, two disjoint halves of one
        // topic's words peak on the same papers, another topic's words
        // elsewhere: compare within-topic vs cross-topic correlations of
        // the per-paper count profiles of the even and the odd words.
        let (words, papers) = (600, 2400);
        let ds = NeurIpsLike::new(words, papers)
            .with_seed(4)
            .generate()
            .unwrap();
        let mut profiles = vec![vec![0.0; papers]; 2 * TOPICS];
        // Skip the Zipf head so frequency differences don't mask the
        // topic signal.
        for w in 20..words {
            let profile = &mut profiles[2 * ds.labels[w] + w % 2];
            for (acc, x) in profile.iter_mut().zip(ds.points.row(w)) {
                *acc += x;
            }
        }
        for profile in &mut profiles {
            let mean = profile.iter().sum::<f64>() / papers as f64;
            profile.iter_mut().for_each(|x| *x -= mean);
        }
        let corr = |a: &[f64], b: &[f64]| {
            ekm_linalg::ops::dot(a, b) / (ekm_linalg::ops::norm(a) * ekm_linalg::ops::norm(b))
        };
        let (mut same, mut diff) = (0.0, 0.0);
        for t in 0..TOPICS {
            same += corr(&profiles[2 * t], &profiles[2 * t + 1]);
            for u in (0..TOPICS).filter(|&u| u != t) {
                diff += corr(&profiles[2 * t], &profiles[2 * u + 1]);
            }
        }
        let same_mean = same / TOPICS as f64;
        let diff_mean = diff / (TOPICS * (TOPICS - 1)) as f64;
        assert!(
            same_mean > diff_mean + 0.01,
            "within-topic {same_mean} vs cross-topic {diff_mean}"
        );
    }

    #[test]
    fn paper_scale_shape() {
        let g = paper_scale();
        let tiny = NeurIpsLike {
            n_words: 10,
            n_papers: 5,
            ..g
        };
        assert!(tiny.generate().is_ok());
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(NeurIpsLike::new(0, 5).generate().is_err());
        assert!(NeurIpsLike::new(5, 0).generate().is_err());
    }
}
