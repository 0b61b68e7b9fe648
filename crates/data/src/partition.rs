//! Random partitioning of a dataset across `m` data sources (paper §7.1:
//! "we randomly partition each dataset among 10 data sources").

use crate::{DataError, Result};
use ekm_linalg::random::rng_from_seed;
use ekm_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Randomly partitions the rows of `data` into `parts` near-equal shares.
///
/// Every row lands in exactly one share; share sizes differ by at most 1.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] if `parts` is 0 or exceeds the
/// number of rows.
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
/// use ekm_data::partition::partition_uniform;
///
/// let data = Matrix::from_fn(10, 2, |i, _| i as f64);
/// let parts = partition_uniform(&data, 3, 42).unwrap();
/// assert_eq!(parts.len(), 3);
/// let total: usize = parts.iter().map(|p| p.rows()).sum();
/// assert_eq!(total, 10);
/// ```
pub fn partition_uniform(data: &Matrix, parts: usize, seed: u64) -> Result<Vec<Matrix>> {
    let indices = partition_indices(data.rows(), parts, seed, None)?;
    Ok(indices.iter().map(|idx| data.select_rows(idx)).collect())
}

/// Randomly partitions rows with skewed share sizes: share `i` receives a
/// fraction proportional to `skew^i` (`skew = 1` is uniform). Models
/// heterogeneous edge devices holding different amounts of data.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for invalid `parts` or a
/// `skew` that is not finite and positive.
pub fn partition_skewed(data: &Matrix, parts: usize, skew: f64, seed: u64) -> Result<Vec<Matrix>> {
    let indices = partition_indices(data.rows(), parts, seed, Some(skew))?;
    Ok(indices.iter().map(|idx| data.select_rows(idx)).collect())
}

/// Computes the row-index partition itself (shared by both entry points;
/// also useful to partition labels alongside points).
///
/// # Errors
///
/// See [`partition_uniform`] and [`partition_skewed`].
pub fn partition_indices(
    n: usize,
    parts: usize,
    seed: u64,
    skew: Option<f64>,
) -> Result<Vec<Vec<usize>>> {
    if skew.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
        return Err(DataError::InvalidParameter {
            name: "skew",
            reason: "must be finite and positive",
        });
    }
    if parts == 0 || parts > n {
        return Err(DataError::InvalidParameter {
            name: "parts",
            reason: "must be in 1..=n",
        });
    }
    let mut rng = rng_from_seed(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    // Share sizes.
    let sizes: Vec<usize> = match skew {
        None => {
            let base = n / parts;
            let extra = n % parts;
            (0..parts).map(|i| base + usize::from(i < extra)).collect()
        }
        Some(s) => {
            let raw: Vec<f64> = (0..parts).map(|i| s.powi(i as i32)).collect();
            let total: f64 = raw.iter().sum();
            let mut sizes: Vec<usize> = raw
                .iter()
                .map(|r| ((r / total) * n as f64).floor() as usize)
                .collect();
            // Guarantee non-empty shares, then distribute the remainder.
            for sz in sizes.iter_mut() {
                if *sz == 0 {
                    *sz = 1;
                }
            }
            let mut assigned: usize = sizes.iter().sum();
            // Trim if over-assigned (possible after the min-1 bump).
            let mut i = 0;
            while assigned > n {
                if sizes[i] > 1 {
                    sizes[i] -= 1;
                    assigned -= 1;
                }
                i = (i + 1) % parts;
            }
            let mut i = 0;
            while assigned < n {
                sizes[i] += 1;
                assigned += 1;
                i = (i + 1) % parts;
            }
            sizes
        }
    };

    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0;
    for &sz in &sizes {
        out.push(order[cursor..cursor + sz].to_vec());
        cursor += sz;
    }
    debug_assert_eq!(cursor, n);
    let _ = rng.gen::<u8>(); // burn one value so seed reuse is detectable
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partition_covers_all_rows_once() {
        let data = Matrix::from_fn(103, 2, |i, _| i as f64);
        let parts = partition_uniform(&data, 10, 7).unwrap();
        assert_eq!(parts.len(), 10);
        let mut seen: Vec<f64> = parts.iter().flat_map(|p| p.col(0).into_iter()).collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..103).map(|i| i as f64).collect();
        assert_eq!(seen, expect);
        // Sizes within 1 of each other.
        let sizes: Vec<usize> = parts.iter().map(|p| p.rows()).collect();
        assert!(sizes.iter().all(|&s| s == 10 || s == 11), "{sizes:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Matrix::from_fn(40, 1, |i, _| i as f64);
        let a = partition_uniform(&data, 4, 9).unwrap();
        let b = partition_uniform(&data, 4, 9).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.approx_eq(y, 0.0));
        }
        let c = partition_uniform(&data, 4, 10).unwrap();
        assert!(a.iter().zip(&c).any(|(x, y)| !x.approx_eq(y, 0.0)));
    }

    #[test]
    fn partition_is_shuffled() {
        let data = Matrix::from_fn(100, 1, |i, _| i as f64);
        let parts = partition_uniform(&data, 2, 3).unwrap();
        // The first share should not be exactly 0..50.
        let first = parts[0].col(0);
        let sorted_prefix: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_ne!(first, sorted_prefix);
    }

    #[test]
    fn skewed_shares_decrease() {
        let data = Matrix::from_fn(1000, 1, |i, _| i as f64);
        let parts = partition_skewed(&data, 5, 0.5, 1).unwrap();
        let sizes: Vec<usize> = parts.iter().map(|p| p.rows()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        // Roughly geometric: each at most the previous (with slack 2 for
        // remainder distribution).
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0] + 2, "sizes {sizes:?}");
        }
        assert!(sizes[0] > 2 * sizes[4], "sizes {sizes:?}");
    }

    #[test]
    fn skewed_shares_nonempty() {
        let data = Matrix::from_fn(20, 1, |i, _| i as f64);
        let parts = partition_skewed(&data, 6, 0.2, 2).unwrap();
        assert!(parts.iter().all(|p| p.rows() >= 1));
        assert_eq!(parts.iter().map(|p| p.rows()).sum::<usize>(), 20);
    }

    #[test]
    fn indices_partition_labels_alongside() {
        let idx = partition_indices(10, 3, 4, None).unwrap();
        let labels: Vec<usize> = (0..10).collect();
        let mut seen: Vec<usize> = idx
            .iter()
            .flat_map(|part| part.iter().map(|&i| labels[i]))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, labels);
    }

    #[test]
    fn invalid_parameters_error() {
        let data = Matrix::from_fn(5, 1, |i, _| i as f64);
        assert!(partition_uniform(&data, 0, 0).is_err());
        assert!(partition_uniform(&data, 6, 0).is_err());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    partition_skewed(&data, 2, bad, 0),
                    Err(DataError::InvalidParameter { name: "skew", .. })
                ),
                "{bad}"
            );
            assert!(partition_indices(5, 2, 0, Some(bad)).is_err(), "{bad}");
        }
    }
}
