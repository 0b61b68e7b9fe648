//! Weighted Lloyd iteration with empty-cluster repair, from one start or
//! from several in lockstep.
//!
//! There is one Lloyd loop. [`lloyd`] runs it from one start, and
//! `KMeans::fit_weighted` from all its k-means++ restarts at once. Each
//! iteration updates every live start's centers from its centroid sums
//! and then makes **one pass over the points for all of them**
//! ([`DistanceEngine::assign_groups`]): a block of rows is assigned to
//! every start's centers and, while those rows are in cache, folded into
//! the per-start sums of its chunk. The chunks are fixed 1024-row runs,
//! each worker takes whole chunks (on up to [`parallel::worker_count`]
//! scoped threads, which `ekm --threads` caps, once the pass's distance
//! work, `n · d` per center it measures, reaches 2¹⁹), a chunk sums its
//! rows in row order, and the chunk sums are folded in chunk order. The
//! fold graph therefore depends only on the number of points, so the
//! centers are **bit-identical** at every worker count, and a start's
//! run is bitwise its run alone: a center's distance does not depend on
//! which lane it sits in.

use crate::cost::{validate_weights, Assignment};
use crate::{ClusteringError, Result};
use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::{parallel, LinalgError, Matrix};

/// Fixed row-chunk granularity of the deterministic accumulation tree.
/// A constant (rather than `n / workers`) is what makes the fold graph —
/// and therefore the floating-point rounding — independent of the
/// worker count.
const ACCUM_CHUNK: usize = 1024;

/// Distance work of a pass (`n · d` multiply-adds per center it
/// measures, over all its groups) from which the pass spreads its chunks
/// over [`parallel::worker_count`] threads. Below it the pass runs on the
/// calling thread: spawning the workers would cost more than the pass
/// they share (two workers break even near 2¹⁹ on a 2-vCPU x86-64 host).
const PAR_PASS_WORK: usize = 1 << 19;

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

/// One start's share of a pass: its assignment, its centroid sums
/// (`k × d`, row-major) and its weight totals.
type Pass = (Assignment, Vec<f64>, Vec<f64>);

/// What every pass of one solve shares: the points, prepared once
/// (their norms are the solve's only norm pass), and their weights.
pub(crate) struct Solve<'a> {
    pub(crate) engine: DistanceEngine<'a>,
    pub(crate) weights: &'a [f64],
    /// A worker count for every pass, in place of the count chosen per
    /// pass from its size (tests force counts through it).
    pub(crate) workers: Option<usize>,
}

impl<'a> Solve<'a> {
    /// Prepares `points` for a solve under `compute`.
    ///
    /// # Errors
    ///
    /// * [`ClusteringError::EmptyInput`] for an empty dataset.
    /// * [`ClusteringError::Linalg`] with [`LinalgError::NonFinite`] if a
    ///   point holds a NaN or infinite coordinate or its squared norm
    ///   overflows in the compute precision: its distances would read
    ///   as 0 (`max(NaN, 0) = 0`). The engine's norms show it, so the
    ///   check costs no extra pass.
    /// * [`ClusteringError::InvalidWeights`] for malformed weights.
    pub(crate) fn new(
        points: &'a Matrix,
        weights: &'a [f64],
        compute: Compute,
    ) -> Result<Solve<'a>> {
        if points.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        let engine = DistanceEngine::new(points, compute);
        if !engine.norms_are_finite() {
            return Err(LinalgError::NonFinite { op: "k-means" }.into());
        }
        validate_weights(weights, points.rows())?;
        Ok(Solve {
            engine,
            weights,
            workers: None,
        })
    }

    /// The worker count of a pass measuring `columns` centers: the
    /// forced count if there is one, else every worker once the pass's
    /// distance work (`n · d · columns`) reaches [`PAR_PASS_WORK`], else
    /// 1. A pass is bitwise the same at any count.
    fn pass_workers(&self, columns: usize) -> usize {
        let (n, d) = self.engine.points().shape();
        self.workers.unwrap_or_else(|| {
            if n.saturating_mul(d).saturating_mul(columns) >= PAR_PASS_WORK {
                parallel::worker_count()
            } else {
                1
            }
        })
    }

    /// One grouped pass without a fold: every group's nearest center
    /// (`centers` stacks groups of `k` rows), as `(labels, distances)`.
    pub(crate) fn assign(&self, centers: &Matrix, k: usize) -> Result<Vec<(Vec<usize>, Vec<f64>)>> {
        let no_fold = |_: &mut (), _, _: &[&[usize]]| {};
        let workers = self.pass_workers(centers.rows());
        let (groups, _) =
            self.engine
                .assign_groups(centers, k, workers, ACCUM_CHUNK, || (), no_fold)?;
        Ok(groups)
    }

    /// One grouped pass over the points for `starts` (each `k × d`):
    /// every start's assignment and its centroid sums (`k × d`,
    /// row-major) and weight totals, accumulated per chunk in row order
    /// and folded in chunk order.
    fn assign_and_sum(&self, starts: &[&Matrix]) -> Result<Vec<Pass>> {
        let (k, d) = starts[0].shape();
        let width = starts.len() * k;
        let stacked: Vec<f64> = starts.iter().flat_map(|c| c.as_slice()).copied().collect();
        let stacked = Matrix::from_vec(width, d, stacked);
        let (points, weights) = (self.engine.points(), self.weights);
        let chunk_sums = |(sums, totals): &mut (Vec<f64>, Vec<f64>),
                          rows: std::ops::Range<usize>,
                          labels: &[&[usize]]| {
            for (off, i) in rows.enumerate() {
                let w = weights[i];
                if w == 0.0 {
                    continue;
                }
                let x = points.row(i);
                for (q, l) in labels.iter().enumerate() {
                    let c = q * k + l[off];
                    totals[c] += w;
                    for (s, &v) in sums[c * d..(c + 1) * d].iter_mut().zip(x) {
                        *s += w * v;
                    }
                }
            }
        };
        let (groups, chunks) = self.engine.assign_groups(
            &stacked,
            k,
            self.pass_workers(width),
            ACCUM_CHUNK,
            || (vec![0.0f64; width * d], vec![0.0f64; width]),
            chunk_sums,
        )?;
        let mut sums = vec![0.0f64; width * d];
        let mut totals = vec![0.0f64; width];
        for (psums, ptotals) in chunks {
            for (s, p) in sums.iter_mut().zip(&psums) {
                *s += p;
            }
            for (t, p) in totals.iter_mut().zip(&ptotals) {
                *t += p;
            }
        }
        Ok(groups
            .into_iter()
            .enumerate()
            .map(|(q, (labels, distances_sq))| {
                (
                    Assignment {
                        labels,
                        distances_sq,
                    },
                    sums[q * k * d..(q + 1) * k * d].to_vec(),
                    totals[q * k..(q + 1) * k].to_vec(),
                )
            })
            .collect())
    }
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
/// * [`ClusteringError::Linalg`] for a non-finite point (see
///   `KMeans::fit_weighted`) or centers of another dimensionality.
/// * [`ClusteringError::InvalidWeights`] for malformed weights.
/// * [`ClusteringError::InvalidK`] if `initial_centers` has no rows.
pub fn lloyd(
    points: &Matrix,
    weights: &[f64],
    initial_centers: &Matrix,
    config: &LloydConfig,
) -> Result<LloydOutcome> {
    let solve = Solve::new(points, weights, config.compute)?;
    if initial_centers.rows() == 0 {
        return Err(ClusteringError::InvalidK {
            k: 0,
            n: points.rows(),
        });
    }
    let mut outs = lloyd_starts(&solve, vec![initial_centers.clone()], config)?;
    Ok(outs.pop().expect("one start gives one outcome"))
}

/// Lloyd iteration from every start in `inits` (all `k × d`) in
/// lockstep: each iteration updates every live start's centers from its
/// sums and makes one grouped pass for all of them; then each start
/// repairs its empty clusters (re-passing itself alone), takes its
/// weighted cost and tests convergence, and a converged start drops
/// out. Each outcome is bitwise what a run from that start alone gives.
pub(crate) fn lloyd_starts(
    solve: &Solve<'_>,
    inits: Vec<Matrix>,
    config: &LloydConfig,
) -> Result<Vec<LloydOutcome>> {
    let (points, weights) = (solve.engine.points(), solve.weights);
    let (k, d) = inits[0].shape();
    let first = solve.assign_and_sum(&inits.iter().collect::<Vec<_>>())?;
    let mut runs: Vec<(LloydOutcome, Vec<f64>, Vec<f64>)> = inits
        .into_iter()
        .zip(first)
        .map(|(centers, (assignment, sums, totals))| {
            let inertia = assignment.weighted_cost(weights);
            let run = LloydOutcome {
                centers,
                assignment,
                inertia,
                iterations: 0,
                converged: false,
            };
            (run, sums, totals)
        })
        .collect();
    let mut live: Vec<usize> = if config.max_iter > 0 {
        (0..runs.len()).collect()
    } else {
        Vec::new()
    };
    while !live.is_empty() {
        // Update step: weighted centroid per cluster; an empty cluster
        // keeps its center until the repair below. The pass replaces the
        // assignment, so it is released first.
        for &r in &live {
            let (run, sums, totals) = &mut runs[r];
            run.assignment.labels = Vec::new();
            run.assignment.distances_sq = Vec::new();
            for c in 0..k {
                if totals[c] > 0.0 {
                    let inv = 1.0 / totals[c];
                    for (j, v) in sums[c * d..(c + 1) * d].iter().enumerate() {
                        run.centers[(c, j)] = v * inv;
                    }
                }
            }
        }
        let starts: Vec<&Matrix> = live.iter().map(|&r| &runs[r].0.centers).collect();
        let passed = solve.assign_and_sum(&starts)?;
        for (&r, mut next) in live.iter().zip(passed) {
            let (run, sums, totals) = &mut runs[r];
            // Repair empty clusters: move each to the worst-served point.
            // A cluster's total is zero exactly when no positive-weight
            // point is assigned to it.
            let mut repaired = false;
            for c in 0..k {
                if next.2[c] == 0.0 {
                    if let Some(worst) = worst_point(&next.0, weights) {
                        run.centers.row_mut(c).copy_from_slice(points.row(worst));
                        repaired = true;
                    }
                }
            }
            if repaired {
                next = solve
                    .assign_and_sum(&[&run.centers])?
                    .pop()
                    .expect("one start gives one pass");
            }
            let new_inertia = next.0.weighted_cost(weights);
            run.iterations += 1;
            let improved = run.inertia - new_inertia;
            let prev = run.inertia;
            (run.assignment, *sums, *totals) = next;
            run.inertia = new_inertia;
            run.converged = improved <= config.tol * prev.max(f64::MIN_POSITIVE);
        }
        live.retain(|&r| !runs[r].0.converged && runs[r].0.iterations < config.max_iter);
    }
    Ok(runs.into_iter().map(|(run, _, _)| run).collect())
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
pub(crate) mod tests {
    use super::*;
    use crate::cost::assign_engine;
    use proptest::prelude::*;

    /// The per-start Lloyd loop, the reference the lockstep loop must
    /// match bit for bit: one start, its own engine, and two passes per
    /// iteration — the assignment, then the centroid accumulation over
    /// fixed chunks (rows in order within a chunk, chunks folded in
    /// order, as at any worker count).
    pub(crate) fn reference_lloyd(
        points: &Matrix,
        weights: &[f64],
        initial_centers: &Matrix,
        config: &LloydConfig,
    ) -> Result<LloydOutcome> {
        let (k, d) = initial_centers.shape();
        let mut centers = initial_centers.clone();
        let engine = DistanceEngine::new(points, config.compute);
        let mut assignment = assign_engine(&engine, &centers)?;
        let mut inertia = assignment.weighted_cost(weights);
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..config.max_iter {
            let (sums, totals) = reference_sums(points, weights, &assignment.labels, k);
            for c in 0..k {
                if totals[c] > 0.0 {
                    let inv = 1.0 / totals[c];
                    for (j, v) in sums[c * d..(c + 1) * d].iter().enumerate() {
                        centers[(c, j)] = v * inv;
                    }
                }
            }
            let mut new_assignment = assign_engine(&engine, &centers)?;
            let sizes = new_assignment.cluster_weights(k, weights);
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

    /// The centroid sums and weight totals of `labels`, one chunk
    /// partial at a time in row order, folded in chunk order.
    fn reference_sums(
        points: &Matrix,
        weights: &[f64],
        labels: &[usize],
        k: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let (n, d) = points.shape();
        let mut sums = vec![0.0f64; k * d];
        let mut totals = vec![0.0f64; k];
        for start in (0..n).step_by(ACCUM_CHUNK) {
            let mut psums = vec![0.0f64; k * d];
            let mut ptotals = vec![0.0f64; k];
            for i in start..(start + ACCUM_CHUNK).min(n) {
                let w = weights[i];
                if w == 0.0 {
                    continue;
                }
                let c = labels[i];
                ptotals[c] += w;
                for (s, &v) in psums[c * d..(c + 1) * d].iter_mut().zip(points.row(i)) {
                    *s += w * v;
                }
            }
            for (s, p) in sums.iter_mut().zip(&psums) {
                *s += p;
            }
            for (t, p) in totals.iter_mut().zip(&ptotals) {
                *t += p;
            }
        }
        (sums, totals)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two outcomes agree bit for bit: centers, labels,
    /// distances, inertia, iteration count and convergence.
    pub(crate) fn assert_same_outcome(got: &LloydOutcome, want: &LloydOutcome, context: &str) {
        assert_eq!(
            bits(got.centers.as_slice()),
            bits(want.centers.as_slice()),
            "{context}"
        );
        assert_eq!(got.assignment.labels, want.assignment.labels, "{context}");
        assert_eq!(
            bits(&got.assignment.distances_sq),
            bits(&want.assignment.distances_sq),
            "{context}"
        );
        assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "{context}");
        assert_eq!(got.iterations, want.iterations, "{context}");
        assert_eq!(got.converged, want.converged, "{context}");
    }

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
        // Fewer, heavier cases: each runs the reference and then the
        // lockstep loop at three worker counts.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The lockstep loop from several starts is, start by start,
        /// bitwise the two-pass loop from that start alone: centers,
        /// labels, distances, inertia, iterations and convergence, at
        /// 1, 2 and 4 workers. The points span one or two 1024-row
        /// chunks, a seventh of the weights are zero, iteration caps
        /// include 0, and one start puts a center far from every point,
        /// so its first update leaves an empty cluster to repair.
        #[test]
        fn lockstep_lloyd_is_bitwise_the_two_pass_loop(
            (n, d, k, starts, seed) in (40usize..1500, 1usize..6, 1usize..9, 1usize..6, 0u64..1000),
            (cap, f32_compute) in (0usize..4, 0usize..2),
        ) {
            let points = ekm_linalg::random::gaussian_matrix(seed, n, d, 25.0);
            let weights: Vec<f64> = (0..n)
                .map(|i| match (i + seed as usize) % 7 {
                    0 => 0.0,
                    r => r as f64 * 0.5,
                })
                .collect();
            let inits: Vec<Matrix> = (0..starts)
                .map(|r| {
                    let mut c = ekm_linalg::random::gaussian_matrix(seed + 1 + r as u64, k, d, 40.0);
                    if r == 1 {
                        c[(k - 1, 0)] = 1.0e6;
                    }
                    c
                })
                .collect();
            let config = LloydConfig {
                max_iter: [0, 1, 3, 100][cap],
                compute: [Compute::F64, Compute::F32][f32_compute],
                ..LloydConfig::default()
            };
            let want: Vec<LloydOutcome> = inits
                .iter()
                .map(|init| reference_lloyd(&points, &weights, init, &config).unwrap())
                .collect();
            let mut solve = Solve::new(&points, &weights, config.compute).unwrap();
            for workers in [1, 2, 4] {
                solve.workers = Some(workers);
                let got = lloyd_starts(&solve, inits.clone(), &config).unwrap();
                prop_assert_eq!(got.len(), starts);
                for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                    let context = format!("n={n} d={d} k={k} start {r}/{starts} {config:?} {workers} workers");
                    assert_same_outcome(g, w, &context);
                }
            }
        }
    }
}
