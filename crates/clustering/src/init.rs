//! k-means++ (D²) seeding, weighted.
//!
//! The D² distribution — pick the next center with probability proportional
//! to (weight ×) squared distance to the current centers — is used three
//! ways in the paper's stack: as Lloyd seeding, as the inner loop of the
//! ADK bicriteria approximation, and (via sensitivities) in coreset
//! sampling.

use crate::cost::validate_weights;
use crate::{ClusteringError, Result};
use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::Matrix;
use rand::Rng;

/// Selects `k` initial center indices by weighted k-means++, running the
/// D² refresh in `compute` precision.
///
/// The first center is drawn with probability proportional to the weights;
/// each subsequent center with probability proportional to
/// `w(p) · D²(p)` where `D(p)` is the distance to the nearest center chosen
/// so far. Zero-weight points are never selected. `Compute::F32` may select
/// different indices than `Compute::F64`, but is still deterministic for a
/// fixed seed.
///
/// # Errors
///
/// * [`ClusteringError::EmptyInput`] for an empty dataset.
/// * [`ClusteringError::InvalidK`] if `k` is 0 or exceeds the number of
///   positive-weight points.
/// * [`ClusteringError::InvalidWeights`] for malformed weights.
pub fn kmeanspp_indices<R: Rng + ?Sized>(
    rng: &mut R,
    points: &Matrix,
    weights: &[f64],
    k: usize,
    compute: Compute,
) -> Result<Vec<usize>> {
    if points.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    let n = points.rows();
    validate_weights(weights, n)?;
    let positive = weights.iter().filter(|&&w| w > 0.0).count();
    if k == 0 || k > positive {
        return Err(ClusteringError::InvalidK { k, n: positive });
    }

    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    // First center: ∝ w.
    chosen.push(draw_index(rng, weights)?);

    // Maintain D² to the chosen set incrementally through the engine's
    // batched min-update: the point norms are paid once when the engine
    // is built, and every round's refresh against the new center runs the
    // blocked lane kernel instead of a serial per-point loop. Starting
    // from +∞ and min-updating with the first center yields exactly the
    // distances-to-first-center vector.
    let engine = DistanceEngine::new(points, compute);
    let mut d2 = vec![f64::INFINITY; n];
    engine
        .min_update(&points.select_rows(&[chosen[0]]), &mut d2)
        .map_err(ClusteringError::Linalg)?;

    while chosen.len() < k {
        let probs: Vec<f64> = d2.iter().zip(weights).map(|(&d, &w)| d * w).collect();
        let total: f64 = probs.iter().sum();
        let next = if total > 0.0 {
            draw_index(rng, &probs)?
        } else {
            // All remaining mass at distance zero (duplicate-heavy data):
            // fall back to weight-proportional sampling among unchosen
            // positive-weight points.
            let mut fallback = weights.to_vec();
            for &c in &chosen {
                fallback[c] = 0.0;
            }
            if fallback.iter().all(|&w| w == 0.0) {
                return Err(ClusteringError::InvalidK { k, n: chosen.len() });
            }
            draw_index(rng, &fallback)?
        };
        chosen.push(next);
        engine
            .min_update(&points.select_rows(&[next]), &mut d2)
            .map_err(ClusteringError::Linalg)?;
    }
    Ok(chosen)
}

/// Selects `k` initial centers (as a matrix of rows) by weighted k-means++.
///
/// # Errors
///
/// See [`kmeanspp_indices`].
pub fn kmeanspp_centers<R: Rng + ?Sized>(
    rng: &mut R,
    points: &Matrix,
    weights: &[f64],
    k: usize,
    compute: Compute,
) -> Result<Matrix> {
    let idx = kmeanspp_indices(rng, points, weights, k, compute)?;
    Ok(points.select_rows(&idx))
}

/// Draws a batch of `count` indices i.i.d. from the current D² distribution
/// with respect to `centers` (one adaptive-sampling round of ADK).
///
/// When `centers` is empty the draw is weight-proportional (the "first
/// round" of adaptive sampling).
///
/// # Errors
///
/// * [`ClusteringError::EmptyInput`] for an empty dataset.
/// * [`ClusteringError::InvalidWeights`] for malformed weights.
pub fn d2_sample_batch<R: Rng + ?Sized>(
    rng: &mut R,
    points: &Matrix,
    weights: &[f64],
    centers: Option<&Matrix>,
    count: usize,
) -> Result<Vec<usize>> {
    if points.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    validate_weights(weights, points.rows())?;
    let d2 = match centers {
        Some(c) if !c.is_empty() => {
            let engine = DistanceEngine::new(points, Compute::F64);
            let (_, d2) = engine.assign(c).map_err(ClusteringError::Linalg)?;
            Some(d2)
        }
        _ => None,
    };
    d2_sample_batch_from(rng, weights, d2.as_deref(), count)
}

/// Draws a batch of `count` indices i.i.d. from the D² distribution induced
/// by an externally maintained squared-distance vector.
///
/// This is the sampling tail of [`d2_sample_batch`] (which delegates here),
/// split out so callers that keep `D²` incrementally up to date — the
/// adaptive rounds of `bicriteria` — can draw without recomputing a full
/// assignment. `d2 = None` means "no centers yet": the draw is
/// weight-proportional. When the total `w · D²` mass vanishes (every point
/// sits on a center), sampling falls back to the raw weights.
///
/// # Errors
///
/// * [`ClusteringError::InvalidWeights`] for malformed weights.
///
/// # Panics
///
/// Panics if `d2` is `Some` with a length different from `weights`.
pub fn d2_sample_batch_from<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    d2: Option<&[f64]>,
    count: usize,
) -> Result<Vec<usize>> {
    validate_weights(weights, weights.len())?;
    let probs: Vec<f64> = match d2 {
        Some(d2) => {
            assert_eq!(d2.len(), weights.len(), "d2 length");
            d2.iter().zip(weights).map(|(&d, &w)| d * w).collect()
        }
        None => weights.to_vec(),
    };
    let total: f64 = probs.iter().sum();
    let effective = if total > 0.0 { probs } else { weights.to_vec() };
    (0..count).map(|_| draw_index(rng, &effective)).collect()
}

/// Draws one index with probability proportional to `probs` (nonnegative,
/// not all zero).
fn draw_index<R: Rng + ?Sized>(rng: &mut R, probs: &[f64]) -> Result<usize> {
    let total: f64 = probs.iter().sum();
    if total.is_nan() || total <= 0.0 || total.is_infinite() {
        return Err(ClusteringError::InvalidWeights {
            reason: "sampling distribution has no mass",
        });
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &p) in probs.iter().enumerate() {
        target -= p;
        if target <= 0.0 && p > 0.0 {
            return Ok(i);
        }
    }
    // Floating-point slack: return the last positive-probability index.
    Ok(probs
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("total > 0 implies a positive entry"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_linalg::random::rng_from_seed;

    fn two_blob_points() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(vec![0.0 + (i % 5) as f64 * 0.01, 0.0]);
        }
        for i in 0..50 {
            rows.push(vec![100.0 + (i % 5) as f64 * 0.01, 0.0]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn kmeanspp_selects_k_distinct_indices() {
        let p = two_blob_points();
        let w = vec![1.0; 100];
        let mut rng = rng_from_seed(1);
        let idx = kmeanspp_indices(&mut rng, &p, &w, 2, Compute::F64).unwrap();
        assert_eq!(idx.len(), 2);
        assert_ne!(idx[0], idx[1]);
    }

    #[test]
    fn kmeanspp_spreads_across_blobs() {
        // With two far blobs, the two seeds should land in different blobs
        // essentially always.
        let p = two_blob_points();
        let w = vec![1.0; 100];
        for seed in 0..20 {
            let mut rng = rng_from_seed(seed);
            let idx = kmeanspp_indices(&mut rng, &p, &w, 2, Compute::F64).unwrap();
            let blob = |i: usize| usize::from(i >= 50);
            assert_ne!(blob(idx[0]), blob(idx[1]), "seed {seed}");
        }
    }

    #[test]
    fn zero_weight_points_never_selected() {
        let p = two_blob_points();
        let mut w = vec![0.0; 100];
        for wv in w.iter_mut().take(10) {
            *wv = 1.0;
        }
        let mut rng = rng_from_seed(3);
        let idx = kmeanspp_indices(&mut rng, &p, &w, 3, Compute::F64).unwrap();
        assert!(idx.iter().all(|&i| i < 10));
    }

    #[test]
    fn invalid_k_errors() {
        let p = two_blob_points();
        let w = vec![1.0; 100];
        let mut rng = rng_from_seed(4);
        assert!(matches!(
            kmeanspp_indices(&mut rng, &p, &w, 0, Compute::F64),
            Err(ClusteringError::InvalidK { .. })
        ));
        assert!(kmeanspp_indices(&mut rng, &p, &w, 101, Compute::F64).is_err());
    }

    #[test]
    fn duplicate_points_fall_back_gracefully() {
        // 5 identical points, k=3: D² mass collapses to zero after the
        // first pick; fallback must still produce 3 picks.
        let p = Matrix::from_rows(&vec![vec![1.0]; 5]);
        let w = vec![1.0; 5];
        let mut rng = rng_from_seed(5);
        let idx = kmeanspp_indices(&mut rng, &p, &w, 3, Compute::F64).unwrap();
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn kmeanspp_centers_shape() {
        let p = two_blob_points();
        let w = vec![1.0; 100];
        let mut rng = rng_from_seed(6);
        let c = kmeanspp_centers(&mut rng, &p, &w, 4, Compute::F64).unwrap();
        assert_eq!(c.shape(), (4, 2));
    }

    #[test]
    fn d2_batch_first_round_is_weight_proportional() {
        let p = two_blob_points();
        let mut w = vec![0.0; 100];
        w[7] = 1.0;
        let mut rng = rng_from_seed(7);
        let batch = d2_sample_batch(&mut rng, &p, &w, None, 20).unwrap();
        assert!(batch.iter().all(|&i| i == 7));
    }

    #[test]
    fn d2_batch_avoids_points_at_existing_centers() {
        let p = two_blob_points();
        let w = vec![1.0; 100];
        // Center sitting exactly on blob 1 => all mass on blob 2.
        let c = Matrix::from_rows(&[vec![0.02, 0.0]]);
        let mut rng = rng_from_seed(8);
        let batch = d2_sample_batch(&mut rng, &p, &w, Some(&c), 50).unwrap();
        let far = batch.iter().filter(|&&i| i >= 50).count();
        assert!(far >= 49, "only {far}/50 samples in far blob");
    }

    #[test]
    fn draw_index_respects_distribution() {
        let mut rng = rng_from_seed(9);
        let probs = [0.0, 0.25, 0.75];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[draw_index(&mut rng, &probs).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac = counts[2] as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn draw_index_no_mass_errors() {
        let mut rng = rng_from_seed(10);
        assert!(draw_index(&mut rng, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn compute_f32_variant_is_deterministic_and_valid() {
        let p = two_blob_points();
        let w = vec![1.0; 100];
        let mut a = rng_from_seed(17);
        let mut b = rng_from_seed(17);
        let x = kmeanspp_indices(&mut a, &p, &w, 4, Compute::F32).unwrap();
        let y = kmeanspp_indices(&mut b, &p, &w, 4, Compute::F32).unwrap();
        assert_eq!(x, y);
        assert_eq!(x.len(), 4);
        let mut sorted = x.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "duplicate picks: {x:?}");
        // On well-separated blobs the f32 seeding still spreads.
        let blob = |i: usize| usize::from(i >= 50);
        assert!(x.iter().any(|&i| blob(i) == 0) && x.iter().any(|&i| blob(i) == 1));
    }

    #[test]
    fn d2_sample_batch_from_matches_assign_based_batch() {
        let p = two_blob_points();
        let w = vec![1.0; 100];
        let c = Matrix::from_rows(&[vec![0.02, 0.0]]);
        let d2 = DistanceEngine::new(&p, Compute::F64).assign(&c).unwrap().1;
        let mut a = rng_from_seed(12);
        let mut b = rng_from_seed(12);
        let via_centers = d2_sample_batch(&mut a, &p, &w, Some(&c), 25).unwrap();
        let via_d2 = d2_sample_batch_from(&mut b, &w, Some(&d2), 25).unwrap();
        assert_eq!(via_centers, via_d2);
    }
}
