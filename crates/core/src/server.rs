//! Server-side computation: solving weighted k-means on a received
//! summary and mapping the centers back to the original space.

use crate::{CoreError, Result};
use ekm_clustering::kmeans::KMeans;
use ekm_clustering::ClusteringError;
use ekm_linalg::distance::Compute;
use ekm_linalg::random::derive_seed;
use ekm_linalg::{ops, LinalgError, Matrix};

/// Runs the server's `kmeans(S', w, k)` step: multi-restart weighted
/// k-means++ / Lloyd on the summary points. The restarts run in
/// lockstep, so the solve reads the summary once for its norms, then
/// once per k-means++ round and once per Lloyd iteration for all
/// restarts; a pass whose distance work reaches 2¹⁹ multiply-adds
/// spreads over the process's worker threads
/// ([`ekm_linalg::parallel::worker_count`]), and the centers are
/// bit-identical at every count — the summary can reach ~10⁵ points at
/// full scale. `compute` selects the distance-kernel precision: `F64`
/// is the bit-reproducibility reference, `F32` is faster under the
/// accuracy contract.
///
/// Returns the centers and their weighted cost on `points` (the
/// winning restart's inertia: at unit weights in `F64`, bitwise
/// `cost::cost(points, &centers)`).
///
/// # Errors
///
/// * [`CoreError::Linalg`] with [`LinalgError::NonFinite`] for a
///   summary holding a NaN or infinite value, or a point whose squared
///   norm overflows in `compute` (the solve finds it in its norm pass,
///   so the check costs no pass of its own).
/// * Other clustering failures (empty summary, `k` larger than the
///   number of positive-weight points, …).
pub fn solve_weighted_kmeans(
    points: &Matrix,
    weights: &[f64],
    k: usize,
    restarts: usize,
    seed: u64,
    compute: Compute,
) -> Result<(Matrix, f64)> {
    let model = KMeans::new(k)
        .with_n_init(restarts.max(1))
        .with_seed(derive_seed(seed, 0x5EB))
        .with_compute(compute)
        .fit_weighted(points, weights)
        .map_err(|e| match e {
            ClusteringError::Linalg(LinalgError::NonFinite { .. }) => {
                CoreError::Linalg(LinalgError::NonFinite {
                    op: "the server solve",
                })
            }
            e => e.into(),
        })?;
    Ok((model.centers, model.inertia))
}

/// Maps coordinate-space centers through an orthonormal basis back to the
/// ambient space (`X = X_c · Vᵀ`), the lift used after clustering FSS /
/// disPCA coordinates.
///
/// # Errors
///
/// Propagates shape failures.
pub fn lift_centers_through_basis(centers: &Matrix, basis: &Matrix) -> Result<Matrix> {
    ops::matmul_transb(centers, basis).map_err(CoreError::Linalg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_weighted_kmeans_finds_blobs() {
        let points = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![8.0, 8.0],
            vec![8.2, 8.0],
        ]);
        let (centers, _) =
            solve_weighted_kmeans(&points, &[1.0, 1.0, 1.0, 1.0], 2, 3, 1, Compute::F64).unwrap();
        assert_eq!(centers.shape(), (2, 2));
        let mut xs: Vec<f64> = (0..2).map(|i| centers[(i, 0)]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 0.1).abs() < 1e-9);
        assert!((xs[1] - 8.1).abs() < 1e-9);
    }

    #[test]
    fn weights_pull_centers() {
        let points = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let (centers, cost) =
            solve_weighted_kmeans(&points, &[3.0, 1.0], 1, 1, 0, Compute::F64).unwrap();
        assert!((centers[(0, 0)] - 0.25).abs() < 1e-9);
        // 3 · 0.25² + 1 · 0.75²
        assert!((cost - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lift_through_basis() {
        let basis = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]); // 3×2: embeds R² into first two coords of R³
        let coords = Matrix::from_rows(&[vec![2.0, 3.0]]);
        let lifted = lift_centers_through_basis(&coords, &basis).unwrap();
        assert_eq!(lifted.shape(), (1, 3));
        assert_eq!(lifted.row(0), &[2.0, 3.0, 0.0]);
    }

    #[test]
    fn errors_propagate() {
        assert!(solve_weighted_kmeans(&Matrix::zeros(0, 2), &[], 1, 1, 0, Compute::F64).is_err());
        let poisoned = Matrix::from_rows(&[vec![0.0, 1.0], vec![f64::NAN, 2.0]]);
        assert!(matches!(
            solve_weighted_kmeans(&poisoned, &[1.0, 1.0], 1, 2, 0, Compute::F64),
            Err(CoreError::Linalg(LinalgError::NonFinite {
                op: "the server solve"
            }))
        ));
    }
}
