//! Evaluation metrics (paper §7.1).
//!
//! * **Normalized k-means cost** — `cost(P, X)/cost(P, X*)` where `X` is
//!   what the evaluated pipeline returned and `X*` is the centers computed
//!   from the full dataset (the paper computes `X*` directly on `P`; we
//!   use the same multi-restart solver proxy).
//! * **Normalized communication cost** — transmitted bits over the bit
//!   size of the raw dataset (see [`crate::RunOutput::normalized_comm`]).
//! * **Complexity** — wall-clock running time at the data source(s).

use crate::server::solve_weighted_kmeans;
use crate::Result;
use ekm_linalg::distance::Compute;
use ekm_linalg::Matrix;

/// A reference solution computed from the full dataset (the `X*` proxy).
#[derive(Debug, Clone)]
pub struct Reference {
    /// Centers computed from the full dataset.
    pub centers: Matrix,
    /// Their k-means cost on the full dataset.
    pub cost: f64,
}

/// Computes the reference centers/cost with a generous multi-restart
/// solver. The cost is the solve's own: the winning restart's inertia at
/// unit weights is `cost::cost(data, &centers)` bit for bit, so no second
/// pass over the data recomputes it.
///
/// # Errors
///
/// Propagates clustering failures.
pub fn reference(data: &Matrix, k: usize, restarts: usize, seed: u64) -> Result<Reference> {
    let weights = vec![1.0; data.rows()];
    // The X* proxy is always solved in f64: it is the yardstick the
    // f32 compute path's cost-ratio contract is measured against.
    let (centers, cost) =
        solve_weighted_kmeans(data, &weights, k, restarts.max(1), seed, Compute::F64)?;
    Ok(Reference { centers, cost })
}

/// Normalized k-means cost of `centers` against a reference cost.
///
/// Values close to 1 mean the summary-based solution matches the
/// full-data solution; the paper's Figures 1–6 plot exactly this.
///
/// # Errors
///
/// Propagates assignment failures.
pub fn normalized_cost(data: &Matrix, centers: &Matrix, reference_cost: f64) -> Result<f64> {
    let c = ekm_clustering::cost::cost(data, centers)?;
    if reference_cost > 0.0 {
        Ok(c / reference_cost)
    } else {
        // Degenerate reference (cost 0): report 1 when we also hit 0.
        Ok(if c == 0.0 { 1.0 } else { f64::INFINITY })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..40 {
            let j = (i % 8) as f64 * 0.05;
            rows.push(vec![j, 0.0]);
            rows.push(vec![9.0 + j, 0.0]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn reference_is_good() {
        let data = blobs();
        let r = reference(&data, 2, 5, 1).unwrap();
        assert!(r.cost < 2.0, "reference cost {}", r.cost);
        assert_eq!(r.centers.rows(), 2);
    }

    #[test]
    fn reference_cost_is_the_cost_of_its_centers_bit_for_bit() {
        // One shape whose solve passes stay on the calling thread, one
        // whose passes reach the 2¹⁹ multiply-add threshold and spread.
        for (n, d) in [(300, 12), (4000, 32)] {
            let data = Matrix::from_fn(n, d, |i, j| {
                let blob = (i % 3) as f64 * 6.0;
                blob + ((i * 31 + j * 17) % 23) as f64 * 0.1
            });
            for seed in [1, 42] {
                let r = reference(&data, 3, 5, seed).unwrap();
                let cost = ekm_clustering::cost::cost(&data, &r.centers).unwrap();
                assert_eq!(r.cost.to_bits(), cost.to_bits(), "{n}x{d} seed {seed}");
            }
        }
    }

    #[test]
    fn normalized_cost_of_reference_is_one() {
        let data = blobs();
        let r = reference(&data, 2, 5, 2).unwrap();
        let nc = normalized_cost(&data, &r.centers, r.cost).unwrap();
        assert!((nc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worse_centers_score_above_one() {
        let data = blobs();
        let r = reference(&data, 2, 5, 3).unwrap();
        let bad = Matrix::from_rows(&[vec![100.0, 0.0], vec![200.0, 0.0]]);
        let nc = normalized_cost(&data, &bad, r.cost).unwrap();
        assert!(nc > 10.0);
    }

    #[test]
    fn degenerate_reference_handled() {
        let data = Matrix::from_fn(5, 2, |_, _| 1.0);
        let exact = Matrix::from_rows(&[vec![1.0, 1.0]]);
        assert_eq!(normalized_cost(&data, &exact, 0.0).unwrap(), 1.0);
        let off = Matrix::from_rows(&[vec![2.0, 2.0]]);
        assert!(normalized_cost(&data, &off, 0.0).unwrap().is_infinite());
    }
}
