//! JL projection wrapper that degenerates to the identity.
//!
//! When the prescribed target dimension reaches the source dimension, a
//! square Gaussian matrix is *not* a useful JL map — its smallest singular
//! values approach zero (Marchenko–Pastur hard edge), so projecting and
//! lifting through its pseudo-inverse can distort geometry arbitrarily.
//! The correct degenerate behaviour, and what "no dimensionality
//! reduction" means, is the identity map; this wrapper provides it so
//! pipelines never build near-square projections.

use crate::Result;
use ekm_linalg::Matrix;
use ekm_sketch::{JlKind, JlProjection};

/// A JL projection or the identity (when no reduction is possible).
#[derive(Debug, Clone)]
pub enum MaybeProjection {
    /// No reduction: the target dimension reached the source dimension.
    Identity {
        /// The (unchanged) dimensionality.
        dim: usize,
    },
    /// A genuine dimension-reducing JL projection.
    Jl(JlProjection),
}

impl MaybeProjection {
    /// Generates a projection `R^d → R^{min(target, d)}`, degenerating to
    /// the identity when `target >= d`.
    pub fn generate(kind: JlKind, source_dim: usize, target_dim: usize, seed: u64) -> Self {
        if target_dim >= source_dim {
            MaybeProjection::Identity { dim: source_dim }
        } else {
            MaybeProjection::Jl(JlProjection::generate(kind, source_dim, target_dim, seed))
        }
    }

    /// Output dimensionality.
    pub fn target_dim(&self) -> usize {
        match self {
            MaybeProjection::Identity { dim } => *dim,
            MaybeProjection::Jl(p) => p.target_dim(),
        }
    }

    /// Applies the projection to a dataset.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying projection.
    pub fn project(&self, data: &Matrix) -> Result<Matrix> {
        match self {
            MaybeProjection::Identity { .. } => Ok(data.clone()),
            MaybeProjection::Jl(p) => Ok(p.project(data)?),
        }
    }

    /// Maps centers back to the source space (`Π⁺` for a genuine
    /// projection, identity otherwise).
    ///
    /// # Errors
    ///
    /// Propagates shape and pseudo-inverse errors.
    pub fn lift(&self, centers: &Matrix) -> Result<Matrix> {
        match self {
            MaybeProjection::Identity { .. } => Ok(centers.clone()),
            MaybeProjection::Jl(p) => Ok(p.lift(centers)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerates_to_identity_at_full_dim() {
        let p = MaybeProjection::generate(JlKind::Gaussian, 10, 10, 1);
        assert!(matches!(p, MaybeProjection::Identity { dim: 10 }));
        assert_eq!(p.target_dim(), 10);
        let m = Matrix::from_fn(3, 10, |i, j| (i * 10 + j) as f64);
        assert!(p.project(&m).unwrap().approx_eq(&m, 0.0));
        assert!(p.lift(&m).unwrap().approx_eq(&m, 0.0));
        let over = MaybeProjection::generate(JlKind::Gaussian, 10, 50, 1);
        assert!(matches!(over, MaybeProjection::Identity { dim: 10 }));
    }

    #[test]
    fn reduces_when_target_smaller() {
        let p = MaybeProjection::generate(JlKind::Gaussian, 20, 5, 2);
        assert!(matches!(p, MaybeProjection::Jl(_)));
        assert_eq!(p.target_dim(), 5);
        let m = Matrix::from_fn(4, 20, |i, j| (i + j) as f64);
        let proj = p.project(&m).unwrap();
        assert_eq!(proj.shape(), (4, 5));
        // Lift then project is identity on the projected space.
        let lifted = p.lift(&proj).unwrap();
        assert_eq!(lifted.shape(), (4, 20));
        assert!(p.project(&lifted).unwrap().approx_eq(&proj, 1e-8));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = MaybeProjection::generate(JlKind::Achlioptas, 30, 8, 7);
        let b = MaybeProjection::generate(JlKind::Achlioptas, 30, 8, 7);
        let m = Matrix::from_fn(2, 30, |i, j| (i * 30 + j) as f64 * 0.1);
        assert!(a
            .project(&m)
            .unwrap()
            .approx_eq(&b.project(&m).unwrap(), 0.0));
    }
}
