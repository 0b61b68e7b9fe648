//! The `(S, Δ, w)` coreset triple of paper Definition 3.2.

use crate::{CoresetError, Result};
use ekm_clustering::cost::assign;
use ekm_linalg::Matrix;

/// A weighted, shifted coreset `(S, Δ, w)` for k-means.
///
/// Its cost against a center set `X` is the paper's eq. (4):
/// `cost(S, X) = Σ_{q∈S} w(q) · min_{x∈X} ‖q − x‖² + Δ`.
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
/// use ekm_coreset::Coreset;
///
/// let s = Coreset::new(
///     Matrix::from_rows(&[vec![0.0], vec![4.0]]),
///     vec![2.0, 2.0],
///     1.0,
/// ).unwrap();
/// let x = Matrix::from_rows(&[vec![0.0]]);
/// // 2·0 + 2·16 + Δ = 33
/// assert_eq!(s.cost(&x).unwrap(), 33.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coreset {
    points: Matrix,
    weights: Vec<f64>,
    delta: f64,
}

impl Coreset {
    /// Creates a coreset, validating shapes and weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoresetError::Malformed`] if the weight count differs from
    /// the point count, any weight is negative or non-finite, or `delta`
    /// is negative or non-finite.
    pub fn new(points: Matrix, weights: Vec<f64>, delta: f64) -> Result<Self> {
        if weights.len() != points.rows() {
            return Err(CoresetError::Malformed {
                reason: "weight count differs from point count",
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(CoresetError::Malformed {
                reason: "weights must be finite and nonnegative",
            });
        }
        if !delta.is_finite() || delta < 0.0 {
            return Err(CoresetError::Malformed {
                reason: "delta must be finite and nonnegative",
            });
        }
        Ok(Coreset {
            points,
            weights,
            delta,
        })
    }

    /// The coreset points `S` (rows).
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// The weight function `w` (parallel to the rows of `points`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The additive constant Δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of coreset points `|S|`.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// `true` when the coreset holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.rows() == 0
    }

    /// Ambient dimensionality of the coreset points.
    pub fn dim(&self) -> usize {
        self.points.cols()
    }

    /// Total weight `Σ_q w(q)` (equals `n` for the \[4\]-style samplers).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// The shifted k-means cost of eq. (4).
    ///
    /// # Errors
    ///
    /// Propagates assignment failures (empty centers, dimension mismatch).
    pub fn cost(&self, centers: &Matrix) -> Result<f64> {
        let a = assign(&self.points, centers)?;
        Ok(a.weighted_cost(&self.weights) + self.delta)
    }

    /// Returns a coreset with `f` applied to the point matrix (weights and
    /// Δ unchanged) — used to push a coreset through a projection or a
    /// quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`CoresetError::Malformed`] if `f` changes the number of
    /// rows.
    pub fn map_points<F>(&self, f: F) -> Result<Coreset>
    where
        F: FnOnce(&Matrix) -> Matrix,
    {
        let mapped = f(&self.points);
        if mapped.rows() != self.points.rows() {
            return Err(CoresetError::Malformed {
                reason: "map_points changed the number of points",
            });
        }
        Ok(Coreset {
            points: mapped,
            weights: self.weights.clone(),
            delta: self.delta,
        })
    }

    /// Returns a copy with a different Δ.
    pub fn with_delta(&self, delta: f64) -> Result<Coreset> {
        Coreset::new(self.points.clone(), self.weights.clone(), delta)
    }

    /// Decomposes the coreset into its `(S, w, Δ)` parts without copying
    /// — how a pipeline stage hands a finalized streaming summary to the
    /// transmission machinery.
    pub fn into_parts(self) -> (Matrix, Vec<f64>, f64) {
        (self.points, self.weights, self.delta)
    }

    /// Merges several coresets into one (union of points, sum of Δ's) —
    /// how the server combines per-source coresets in the distributed
    /// setting.
    ///
    /// # Errors
    ///
    /// * [`CoresetError::Malformed`] if no parts are given or dimensions
    ///   disagree.
    pub fn merge<'a, I: IntoIterator<Item = &'a Coreset>>(parts: I) -> Result<Coreset> {
        let parts: Vec<&Coreset> = parts.into_iter().collect();
        if parts.is_empty() {
            return Err(CoresetError::Malformed {
                reason: "merge of zero coresets",
            });
        }
        let points = Matrix::vstack_all(parts.iter().map(|c| c.points.clone()))?;
        let mut weights = Vec::with_capacity(points.rows());
        let mut delta = 0.0;
        for part in &parts {
            weights.extend_from_slice(&part.weights);
            delta += part.delta;
        }
        Coreset::new(points, weights, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coreset {
        Coreset::new(
            Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 3.0]]),
            vec![1.0, 2.0, 3.0],
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.dim(), 2);
        assert_eq!(c.total_weight(), 6.0);
        assert_eq!(c.delta(), 0.5);
        assert_eq!(c.weights(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn cost_includes_delta_and_weights() {
        let c = sample();
        let x = Matrix::from_rows(&[vec![0.0, 0.0]]);
        // 1·0 + 2·4 + 3·9 + 0.5 = 35.5
        assert_eq!(c.cost(&x).unwrap(), 35.5);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let p = Matrix::from_rows(&[vec![0.0]]);
        assert!(Coreset::new(p.clone(), vec![], 0.0).is_err());
        assert!(Coreset::new(p.clone(), vec![-1.0], 0.0).is_err());
        assert!(Coreset::new(p.clone(), vec![f64::NAN], 0.0).is_err());
        assert!(Coreset::new(p.clone(), vec![1.0], -1.0).is_err());
        assert!(Coreset::new(p.clone(), vec![1.0], f64::INFINITY).is_err());
        assert!(Coreset::new(p, vec![1.0], 0.0).is_ok());
    }

    #[test]
    fn map_points_preserves_weights_delta() {
        let c = sample();
        let scaled = c.map_points(|m| m.scaled(2.0)).unwrap();
        assert_eq!(scaled.weights(), c.weights());
        assert_eq!(scaled.delta(), c.delta());
        assert_eq!(scaled.points()[(1, 0)], 4.0);
        // Changing row count is rejected.
        assert!(c.map_points(|_| Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn merge_unions_points_sums_delta() {
        let a = sample();
        let b = Coreset::new(Matrix::from_rows(&[vec![9.0, 9.0]]), vec![4.0], 1.5).unwrap();
        let m = Coreset::merge([&a, &b]).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.delta(), 2.0);
        assert_eq!(m.total_weight(), 10.0);
        assert_eq!(m.points().row(3), &[9.0, 9.0]);
        assert!(Coreset::merge([]).is_err());
    }

    #[test]
    fn merge_dimension_mismatch_errors() {
        let a = sample();
        let b = Coreset::new(Matrix::from_rows(&[vec![1.0]]), vec![1.0], 0.0).unwrap();
        assert!(Coreset::merge([&a, &b]).is_err());
    }

    #[test]
    fn with_delta_replaces() {
        let c = sample().with_delta(9.0).unwrap();
        assert_eq!(c.delta(), 9.0);
        assert!(sample().with_delta(-1.0).is_err());
    }

    #[test]
    fn coreset_cost_matches_duplicated_dataset() {
        let c = Coreset::new(
            Matrix::from_rows(&[vec![0.0], vec![5.0]]),
            vec![3.0, 2.0],
            0.0,
        )
        .unwrap();
        let x = Matrix::from_rows(&[vec![1.0]]);
        // Each point repeated as often as its weight says.
        let dup = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![0.0], vec![5.0], vec![5.0]]);
        let dup_cost = ekm_clustering::cost::cost(&dup, &x).unwrap();
        assert!((c.cost(&x).unwrap() - dup_cost).abs() < 1e-12);
    }
}
