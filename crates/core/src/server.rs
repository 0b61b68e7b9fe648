//! Server-side computation: solving weighted k-means on a received
//! summary and mapping the centers back to the original space.

use crate::{CoreError, Result};
use ekm_clustering::kmeans::KMeans;
use ekm_clustering::ClusteringError;
use ekm_linalg::distance::Compute;
use ekm_linalg::random::derive_seed;
use ekm_linalg::{ops, LinalgError, Matrix};
use ekm_sketch::JlProjection;

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
) -> Result<Matrix> {
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
    Ok(model.centers)
}

/// Maps centers back through a chain of projections applied source-side:
/// `X = X' · Π_last⁺ · … · Π_first⁺` (the paper's `π⁻¹` composition,
/// Algorithm 3 line 8). Pass the projections in the order they were
/// *applied*; the inverses are applied in reverse.
///
/// # Errors
///
/// Propagates pseudo-inverse and shape failures.
pub fn lift_centers(centers: &Matrix, projections: &[&JlProjection]) -> Result<Matrix> {
    let mut x = centers.clone();
    for pi in projections.iter().rev() {
        x = pi.lift(&x).map_err(CoreError::Linalg)?;
    }
    Ok(x)
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
    use ekm_sketch::JlKind;

    #[test]
    fn solve_weighted_kmeans_finds_blobs() {
        let points = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![8.0, 8.0],
            vec![8.2, 8.0],
        ]);
        let centers =
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
        let centers = solve_weighted_kmeans(&points, &[3.0, 1.0], 1, 1, 0, Compute::F64).unwrap();
        assert!((centers[(0, 0)] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn lift_single_projection_roundtrip() {
        let pi = JlProjection::generate(JlKind::Gaussian, 30, 8, 3);
        let x_prime = Matrix::from_fn(2, 8, |i, j| (i + j) as f64 * 0.2);
        let lifted = lift_centers(&x_prime, &[&pi]).unwrap();
        assert_eq!(lifted.shape(), (2, 30));
        // Projecting the lifted centers returns the originals.
        let back = pi.project(&lifted).unwrap();
        assert!(back.approx_eq(&x_prime, 1e-8));
    }

    #[test]
    fn lift_composed_projections_in_reverse_order() {
        let pi1 = JlProjection::generate(JlKind::Gaussian, 40, 16, 5);
        let pi2 = JlProjection::generate(JlKind::Gaussian, 16, 6, 6);
        let x2 = Matrix::from_fn(3, 6, |i, j| (i * 6 + j) as f64 * 0.1);
        let lifted = lift_centers(&x2, &[&pi1, &pi2]).unwrap();
        assert_eq!(lifted.shape(), (3, 40));
        // π2(π1(lifted)) == x2.
        let fwd = pi2.project(&pi1.project(&lifted).unwrap()).unwrap();
        assert!(fwd.approx_eq(&x2, 1e-7));
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
        let pi = JlProjection::generate(JlKind::Gaussian, 10, 4, 1);
        // Wrong center dimension for lift.
        assert!(lift_centers(&Matrix::zeros(2, 5), &[&pi]).is_err());
    }
}
