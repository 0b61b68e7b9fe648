//! k-means cost functions and nearest-center assignment.
//!
//! Implements the paper's objective (1) and its weighted coreset variant (4)
//! (the additive Δ shift lives in `ekm-coreset`, which owns the coreset
//! type).

use crate::{ClusteringError, Result};
use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::{ops, Matrix};

/// A nearest-center assignment of every point.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Index of the closest center for each point.
    pub labels: Vec<usize>,
    /// Squared distance to that closest center.
    pub distances_sq: Vec<f64>,
}

impl Assignment {
    /// Sum of squared distances (the unweighted k-means cost).
    pub fn total_cost(&self) -> f64 {
        self.distances_sq.iter().sum()
    }

    /// Weighted k-means cost `Σ w_i · d_i²`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the number of points.
    pub fn weighted_cost(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.distances_sq.len(), "weight count");
        self.distances_sq
            .iter()
            .zip(weights)
            .map(|(d, w)| d * w)
            .sum()
    }

    /// Number of points assigned to each of `k` clusters.
    pub fn cluster_sizes(&self, k: usize) -> Vec<usize> {
        let mut sizes = vec![0usize; k];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Total weight assigned to each of `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the number of points.
    pub fn cluster_weights(&self, k: usize, weights: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), self.labels.len(), "weight count");
        let mut totals = vec![0.0f64; k];
        for (&l, &w) in self.labels.iter().zip(weights) {
            totals[l] += w;
        }
        totals
    }
}

/// Assigns every row of `points` to its nearest row of `centers`, in
/// `f64` compute.
///
/// Builds a one-shot [`DistanceEngine`]; repeated assignments against the
/// same points (or `f32` compute) should build one engine and call
/// [`assign_engine`]. Ties break toward the lower center index, like
/// [`nearest_center`].
///
/// # Errors
///
/// See [`assign_engine`].
pub fn assign(points: &Matrix, centers: &Matrix) -> Result<Assignment> {
    assign_engine(&DistanceEngine::new(points, Compute::F64), centers)
}

/// Assigns the engine's points to their nearest rows of `centers`, in the
/// engine's compute precision. The point norms (and the f32 mirror of the
/// points, if any) are paid once at engine construction instead of per
/// call; the labels and distances are written directly into their
/// vectors, bit-identical at every worker count.
///
/// # Errors
///
/// * [`ClusteringError::EmptyInput`] if either matrix is empty.
/// * [`ClusteringError::Linalg`] on dimension mismatch.
pub fn assign_engine(engine: &DistanceEngine<'_>, centers: &Matrix) -> Result<Assignment> {
    if engine.points().is_empty() || centers.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    // The engine rejects a dimension mismatch itself.
    let (labels, distances_sq) = engine.assign(centers).map_err(ClusteringError::Linalg)?;
    Ok(Assignment {
        labels,
        distances_sq,
    })
}

/// Returns `(index, squared distance)` of the center nearest to `point`
/// — the scalar reference path (one point, subtract-square distances).
/// Batch call sites go through [`assign`]'s blocked kernel instead.
///
/// # Panics
///
/// Panics if `centers` is empty (callers validate first).
pub fn nearest_center(point: &[f64], centers: &Matrix) -> (usize, f64) {
    assert!(centers.rows() > 0, "nearest_center: no centers");
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (j, c) in centers.iter_rows().enumerate() {
        let d = ops::sq_dist(point, c);
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    (best, best_d)
}

/// Unweighted k-means cost `cost(P, X)` — the paper's eq. (1).
///
/// # Errors
///
/// Propagates errors from [`assign`].
pub fn cost(points: &Matrix, centers: &Matrix) -> Result<f64> {
    Ok(assign(points, centers)?.total_cost())
}

/// Weighted k-means cost `Σ_q w(q) · min_x ‖q − x‖²` — eq. (4) without Δ.
///
/// # Errors
///
/// * Propagates errors from [`assign`].
/// * [`ClusteringError::InvalidWeights`] on length mismatch.
pub fn weighted_cost(points: &Matrix, weights: &[f64], centers: &Matrix) -> Result<f64> {
    if weights.len() != points.rows() {
        return Err(ClusteringError::InvalidWeights {
            reason: "length differs from point count",
        });
    }
    Ok(assign(points, centers)?.weighted_cost(weights))
}

/// Validates a weight vector: right length, finite, nonnegative, not all
/// zero.
///
/// # Errors
///
/// Returns [`ClusteringError::InvalidWeights`] describing the first problem
/// found.
pub fn validate_weights(weights: &[f64], n: usize) -> Result<()> {
    if weights.len() != n {
        return Err(ClusteringError::InvalidWeights {
            reason: "length differs from point count",
        });
    }
    if weights.iter().any(|w| !w.is_finite()) {
        return Err(ClusteringError::InvalidWeights {
            reason: "non-finite weight",
        });
    }
    if weights.iter().any(|&w| w < 0.0) {
        return Err(ClusteringError::InvalidWeights {
            reason: "negative weight",
        });
    }
    if weights.iter().all(|&w| w == 0.0) {
        return Err(ClusteringError::InvalidWeights {
            reason: "all weights are zero",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> (Matrix, Matrix) {
        let points = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![10.0, 0.0],
            vec![11.0, 0.0],
        ]);
        let centers = Matrix::from_rows(&[vec![0.5, 0.0], vec![10.5, 0.0]]);
        (points, centers)
    }

    #[test]
    fn assign_labels_and_distances() {
        let (p, c) = simple();
        let a = assign(&p, &c).unwrap();
        assert_eq!(a.labels, vec![0, 0, 1, 1]);
        for &d in &a.distances_sq {
            assert!((d - 0.25).abs() < 1e-12);
        }
        assert!((a.total_cost() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_cost_scales() {
        let (p, c) = simple();
        let w = vec![2.0, 2.0, 2.0, 2.0];
        assert!((weighted_cost(&p, &w, &c).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cost_zero_when_centers_equal_points() {
        let p = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(cost(&p, &p).unwrap(), 0.0);
    }

    #[test]
    fn cluster_sizes_and_weights() {
        let (p, c) = simple();
        let a = assign(&p, &c).unwrap();
        assert_eq!(a.cluster_sizes(2), vec![2, 2]);
        let w = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.cluster_weights(2, &w), vec![3.0, 7.0]);
    }

    #[test]
    fn empty_inputs_error() {
        let p = Matrix::zeros(0, 2);
        let c = Matrix::from_rows(&[vec![0.0, 0.0]]);
        assert!(matches!(assign(&p, &c), Err(ClusteringError::EmptyInput)));
        assert!(matches!(assign(&c, &p), Err(ClusteringError::EmptyInput)));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let p = Matrix::zeros(2, 3);
        let c = Matrix::zeros(1, 2);
        assert!(matches!(assign(&p, &c), Err(ClusteringError::Linalg(_))));
    }

    #[test]
    fn validate_weights_cases() {
        assert!(validate_weights(&[1.0, 2.0], 2).is_ok());
        assert!(validate_weights(&[1.0], 2).is_err());
        assert!(validate_weights(&[1.0, -1.0], 2).is_err());
        assert!(validate_weights(&[1.0, f64::NAN], 2).is_err());
        assert!(validate_weights(&[0.0, 0.0], 2).is_err());
    }

    #[test]
    fn nearest_center_tie_breaks_to_first() {
        let c = Matrix::from_rows(&[vec![1.0], vec![-1.0]]);
        let (l, d) = nearest_center(&[0.0], &c);
        assert_eq!(l, 0);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assign_engine_f32_close_to_f64() {
        let (p, c) = simple();
        let a64 = assign(&p, &c).unwrap();
        let a32 = assign_engine(&DistanceEngine::new(&p, Compute::F32), &c).unwrap();
        assert_eq!(a64.labels, a32.labels);
        for (x, y) in a64.distances_sq.iter().zip(&a32.distances_sq) {
            assert!((x - y).abs() <= 1e-5 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn assign_engine_rejects_bad_inputs() {
        let (p, _) = simple();
        let engine = DistanceEngine::new(&p, Compute::F32);
        assert!(matches!(
            assign_engine(&engine, &Matrix::zeros(0, 2)),
            Err(ClusteringError::EmptyInput)
        ));
        assert!(matches!(
            assign_engine(&engine, &Matrix::zeros(1, 3)),
            Err(ClusteringError::Linalg(_))
        ));
    }

    #[test]
    fn blocked_assignment_matches_scalar_reference() {
        // Large enough to cross the blocked kernel's parallel threshold.
        // Integer-valued data keeps both distance forms exact, so the
        // blocked kernel must agree with the scalar path bit for bit.
        let n = 5000;
        let p = Matrix::from_fn(n, 3, |i, j| ((i * 31 + j * 17) % 101) as f64);
        let c = Matrix::from_fn(5, 3, |i, j| ((i * 13 + j * 7) % 23) as f64);
        let a = assign(&p, &c).unwrap();
        for i in (0..n).step_by(997) {
            let (l, d) = nearest_center(p.row(i), &c);
            assert_eq!(a.labels[i], l);
            assert_eq!(a.distances_sq[i], d);
        }
    }
}
