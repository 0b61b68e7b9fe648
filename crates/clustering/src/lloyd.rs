//! Weighted Lloyd iteration with empty-cluster repair.
//!
//! The centroid-update step is *sharded*: the points are cut into
//! fixed-size row chunks, every chunk's partial sums are computed
//! independently (on up to [`parallel::worker_count`] scoped worker
//! threads, which `ekm --threads` caps, once the points hold 2¹⁹
//! scalars), and the partials are folded into the global sums in chunk
//! order. Because the chunk boundaries and the fold order depend only on
//! the number of points — never on the worker count or the thread
//! schedule — the result is **bit-identical** at every worker count,
//! including a single worker (asserted by the `accumulate_sums_*`
//! proptest).

use crate::cost::{assign_engine, validate_weights, Assignment};
use crate::{ClusteringError, Result};
use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::{parallel, Matrix};

/// Fixed row-chunk granularity of the deterministic accumulation tree.
/// A constant (rather than `n / workers`) is what makes the fold graph —
/// and therefore the floating-point rounding — independent of the
/// worker count.
const ACCUM_CHUNK: usize = 1024;

/// Point scalars (`n · d`) from which the centroid update spreads its
/// chunks over [`parallel::worker_count`] threads. Below it the update
/// runs on the calling thread: spawning the workers would cost more than
/// the fold they share (the accumulation alone breaks even near 2¹⁹
/// scalars with two workers on a 2-vCPU x86-64 host).
const PAR_ACCUM_SCALARS: usize = 1 << 19;

/// Outcome of running Lloyd's algorithm from a fixed initialization.
#[derive(Debug, Clone)]
pub struct LloydOutcome {
    /// Final centers (`k × d`).
    pub centers: Matrix,
    /// Final assignment of the input points to `centers`.
    pub assignment: Assignment,
    /// Final weighted cost (inertia).
    pub inertia: f64,
    /// Iterations executed (center-update steps).
    pub iterations: usize,
    /// Whether the relative-improvement tolerance was reached before the
    /// iteration cap.
    pub converged: bool,
}

/// Configuration for [`lloyd`].
#[derive(Debug, Clone)]
pub struct LloydConfig {
    /// Maximum number of iterations (default 100).
    pub max_iter: usize,
    /// Relative improvement threshold for convergence (default `1e-7`):
    /// stop when `(prev − cur) ≤ tol · prev`.
    pub tol: f64,
    /// Scalar precision of the assignment kernel (default
    /// [`Compute::F64`]). [`Compute::F32`] trades the f64 bit-for-bit
    /// guarantee for roughly halved memory traffic in the distance step;
    /// the centroid accumulation itself always runs in f64.
    pub compute: Compute,
}

impl Default for LloydConfig {
    fn default() -> Self {
        LloydConfig {
            max_iter: 100,
            tol: 1e-7,
            compute: Compute::F64,
        }
    }
}

/// Per-chunk partial of the weighted centroid update: `k × d` sums
/// (row-major) and `k` weight totals, accumulated in row order within
/// the chunk.
fn chunk_partial(
    points: &Matrix,
    weights: &[f64],
    labels: &[usize],
    k: usize,
    chunk: usize,
) -> (Vec<f64>, Vec<f64>) {
    let d = points.cols();
    let n = points.rows();
    let start = chunk * ACCUM_CHUNK;
    let end = (start + ACCUM_CHUNK).min(n);
    let mut sums = vec![0.0f64; k * d];
    let mut totals = vec![0.0f64; k];
    for i in start..end {
        let w = weights[i];
        if w == 0.0 {
            continue;
        }
        let c = labels[i];
        totals[c] += w;
        let srow = &mut sums[c * d..(c + 1) * d];
        for (s, &v) in srow.iter_mut().zip(points.row(i)) {
            *s += w * v;
        }
    }
    (sums, totals)
}

/// The sharded centroid-update accumulation: per-chunk partials (chunk
/// boundaries fixed by `n` alone) computed on up to `workers` threads,
/// folded into the global sums in chunk order. The computation graph is
/// identical for every worker count, so the result is bit-identical to
/// the sequential fold by construction.
fn accumulate_sums(
    points: &Matrix,
    weights: &[f64],
    labels: &[usize],
    k: usize,
    workers: usize,
) -> (Vec<f64>, Vec<f64>) {
    let d = points.cols();
    let n_chunks = points.rows().div_ceil(ACCUM_CHUNK).max(1);
    let workers = workers.min(n_chunks);
    let partials = parallel::par_map_indices_in(n_chunks, workers, |c| {
        chunk_partial(points, weights, labels, k, c)
    });
    let mut sums = vec![0.0f64; k * d];
    let mut totals = vec![0.0f64; k];
    for (psums, ptotals) in partials {
        for (s, p) in sums.iter_mut().zip(&psums) {
            *s += p;
        }
        for (t, p) in totals.iter_mut().zip(&ptotals) {
            *t += p;
        }
    }
    (sums, totals)
}

/// Runs weighted Lloyd iteration from the given initial centers.
///
/// Empty clusters are repaired by re-seeding them at the positive-weight
/// point with the largest weighted squared distance to its current center,
/// which keeps `k` centers active and never increases the objective by more
/// than the repair step itself.
///
/// # Errors
///
/// * [`ClusteringError::EmptyInput`] for an empty dataset.
/// * [`ClusteringError::InvalidWeights`] for malformed weights.
/// * [`ClusteringError::InvalidK`] if `initial_centers` has no rows.
pub fn lloyd(
    points: &Matrix,
    weights: &[f64],
    initial_centers: &Matrix,
    config: &LloydConfig,
) -> Result<LloydOutcome> {
    if points.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    validate_weights(weights, points.rows())?;
    if initial_centers.rows() == 0 {
        return Err(ClusteringError::InvalidK {
            k: 0,
            n: points.rows(),
        });
    }
    let k = initial_centers.rows();
    let d = points.cols();
    let mut centers = initial_centers.clone();
    // One engine for the whole solve: point norms (and the f32 mirror,
    // when `compute = F32`) are prepared once, not per iteration.
    let engine = DistanceEngine::new(points, config.compute);
    let mut assignment = assign_engine(&engine, &centers)?;
    let mut inertia = assignment.weighted_cost(weights);
    let mut iterations = 0;
    let mut converged = false;
    let workers = if points.rows().saturating_mul(d) >= PAR_ACCUM_SCALARS {
        parallel::worker_count()
    } else {
        1
    };

    for _ in 0..config.max_iter {
        // Update step: weighted centroid per cluster, via the sharded
        // chunk-partial accumulation (bit-identical at any worker count).
        let (sums, totals) = accumulate_sums(points, weights, &assignment.labels, k, workers);
        for c in 0..k {
            if totals[c] > 0.0 {
                let inv = 1.0 / totals[c];
                for (j, v) in sums[c * d..(c + 1) * d].iter().enumerate() {
                    centers[(c, j)] = v * inv;
                }
            }
            // Empty clusters repaired below after distances refresh.
        }

        let mut new_assignment = assign_engine(&engine, &centers)?;

        // Repair empty clusters: move each to the worst-served point.
        let mut sizes = new_assignment.cluster_weights(k, weights);
        let mut repaired = false;
        for c in 0..k {
            if sizes[c] == 0.0 {
                if let Some(worst) = worst_point(&new_assignment, weights) {
                    for j in 0..d {
                        centers[(c, j)] = points[(worst, j)];
                    }
                    repaired = true;
                }
            }
        }
        if repaired {
            new_assignment = assign_engine(&engine, &centers)?;
            sizes = new_assignment.cluster_weights(k, weights);
            let _ = sizes;
        }

        let new_inertia = new_assignment.weighted_cost(weights);
        iterations += 1;
        let improved = inertia - new_inertia;
        assignment = new_assignment;
        let prev = inertia;
        inertia = new_inertia;
        if improved <= config.tol * prev.max(f64::MIN_POSITIVE) {
            converged = true;
            break;
        }
    }

    Ok(LloydOutcome {
        centers,
        assignment,
        inertia,
        iterations,
        converged,
    })
}

/// Index of the positive-weight point with the largest weighted distance to
/// its assigned center.
fn worst_point(assignment: &Assignment, weights: &[f64]) -> Option<usize> {
    assignment
        .distances_sq
        .iter()
        .zip(weights)
        .enumerate()
        .filter(|(_, (_, &w))| w > 0.0)
        .max_by(|(_, (d1, w1)), (_, (d2, w2))| {
            (*d1 * **w1)
                .partial_cmp(&(*d2 * **w2))
                .expect("finite distances")
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![(i % 4) as f64 * 0.1, 0.0]);
            rows.push(vec![50.0 + (i % 4) as f64 * 0.1, 0.0]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn converges_on_two_blobs() {
        let p = blobs();
        let w = vec![1.0; p.rows()];
        let init = Matrix::from_rows(&[vec![1.0, 0.0], vec![45.0, 0.0]]);
        let out = lloyd(&p, &w, &init, &LloydConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.inertia < 1.0, "inertia {}", out.inertia);
        // One center near 0.15, one near 50.15.
        let mut xs: Vec<f64> = (0..2).map(|i| out.centers[(i, 0)]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 0.15).abs() < 1e-9);
        assert!((xs[1] - 50.15).abs() < 1e-9);
    }

    #[test]
    fn inertia_monotonically_nonincreasing() {
        let p = blobs();
        let w = vec![1.0; p.rows()];
        let init = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]]);
        // Run step by step by capping iterations and compare.
        let mut last = f64::INFINITY;
        for iters in 1..6 {
            let out = lloyd(
                &p,
                &w,
                &init,
                &LloydConfig {
                    max_iter: iters,
                    tol: 0.0,
                    ..LloydConfig::default()
                },
            )
            .unwrap();
            assert!(out.inertia <= last + 1e-9, "inertia rose at iter {iters}");
            last = out.inertia;
        }
    }

    #[test]
    fn weights_shift_centroid() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let w = vec![3.0, 1.0];
        let init = Matrix::from_rows(&[vec![0.5]]);
        let out = lloyd(&p, &w, &init, &LloydConfig::default()).unwrap();
        assert!((out.centers[(0, 0)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_gets_repaired() {
        let p = blobs();
        let w = vec![1.0; p.rows()];
        // Both initial centers inside the left blob; the far blob would
        // otherwise leave one cluster empty after the first update... force
        // an initially empty cluster with an absurd center.
        let init = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0e6, 0.0]]);
        let out = lloyd(&p, &w, &init, &LloydConfig::default()).unwrap();
        let sizes = out.assignment.cluster_sizes(2);
        assert!(sizes.iter().all(|&s| s > 0), "sizes {sizes:?}");
        assert!(out.inertia < 1.0);
    }

    #[test]
    fn zero_weight_points_ignored_in_update() {
        let p = Matrix::from_rows(&[vec![0.0], vec![100.0], vec![0.2]]);
        let w = vec![1.0, 0.0, 1.0];
        let init = Matrix::from_rows(&[vec![0.0]]);
        let out = lloyd(&p, &w, &init, &LloydConfig::default()).unwrap();
        assert!((out.centers[(0, 0)] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn single_point_single_center() {
        let p = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let out = lloyd(&p, &[2.0], &p.clone(), &LloydConfig::default()).unwrap();
        assert_eq!(out.inertia, 0.0);
        assert!(out.converged);
    }

    #[test]
    fn rejects_bad_inputs() {
        let p = Matrix::zeros(0, 2);
        let c = Matrix::from_rows(&[vec![0.0, 0.0]]);
        assert!(lloyd(&p, &[], &c, &LloydConfig::default()).is_err());
        let p = Matrix::from_rows(&[vec![0.0]]);
        assert!(lloyd(&p, &[1.0], &Matrix::zeros(0, 1), &LloydConfig::default()).is_err());
        assert!(lloyd(&p, &[-1.0], &c, &LloydConfig::default()).is_err());
    }

    #[test]
    fn f32_compute_converges_close_to_f64() {
        let p = blobs();
        let w = vec![1.0; p.rows()];
        let init = Matrix::from_rows(&[vec![1.0, 0.0], vec![45.0, 0.0]]);
        let out64 = lloyd(&p, &w, &init, &LloydConfig::default()).unwrap();
        let cfg32 = LloydConfig {
            compute: Compute::F32,
            ..LloydConfig::default()
        };
        let out32 = lloyd(&p, &w, &init, &cfg32).unwrap();
        assert!(out32.converged);
        assert!(
            (out32.inertia - out64.inertia).abs() <= 5e-3 * (1.0 + out64.inertia),
            "f32 inertia {} vs f64 {}",
            out32.inertia,
            out64.inertia
        );
    }

    #[test]
    fn max_iter_zero_returns_initial_assignment() {
        let p = blobs();
        let w = vec![1.0; p.rows()];
        let init = Matrix::from_rows(&[vec![0.0, 0.0], vec![50.0, 0.0]]);
        let cfg = LloydConfig {
            max_iter: 0,
            tol: 1e-7,
            ..LloydConfig::default()
        };
        let out = lloyd(&p, &w, &init, &cfg).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(!out.converged);
        assert!(out.centers.approx_eq(&init, 0.0));
    }

    proptest! {
        // Fewer, heavier cases: each folds up to a few thousand points
        // eight times.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The sharded centroid accumulation is bit-identical to the
        /// sequential fold at every tested worker count, on random
        /// weighted instances spanning several chunks — and invariant to
        /// thread scheduling (each count runs twice). The rest of a Lloyd
        /// update is worker-independent, and the assignment kernel's
        /// worker invariance is proptested in `ekm-linalg`.
        #[test]
        fn accumulate_sums_bit_identical_across_workers(
            (n, d, seed) in (300usize..2600, 1usize..4, 0u64..1000),
        ) {
            let points = ekm_linalg::random::gaussian_matrix(seed, n, d, 25.0);
            // Positive weights with some zeros mixed in.
            let weights: Vec<f64> = (0..n)
                .map(|i| match (i + seed as usize) % 7 {
                    0 => 0.0,
                    r => r as f64 * 0.5,
                })
                .collect();
            let k = 3;
            let init = ekm_linalg::random::gaussian_matrix(seed + 1, k, d, 40.0);
            let labels = crate::cost::assign(&points, &init).unwrap().labels;
            let bits = |(sums, totals): (Vec<f64>, Vec<f64>)| -> Vec<u64> {
                sums.iter().chain(&totals).map(|v| v.to_bits()).collect()
            };
            let sequential = bits(accumulate_sums(&points, &weights, &labels, k, 1));
            for workers in [1usize, 2, 4, 8] {
                for _ in 0..2 {
                    let sharded = bits(accumulate_sums(&points, &weights, &labels, k, workers));
                    prop_assert_eq!(&sharded, &sequential);
                }
            }
        }
    }
}
