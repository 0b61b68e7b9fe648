//! The paper's dataset normalization (§7.1): zero mean, values in
//! `[-1, 1]`.
//!
//! [`normalize_paper`] makes two passes over the data. A read pass takes
//! each column's sum in row order (so its mean is bitwise
//! [`Matrix::mean_row`]'s), minimum and maximum, with the columns split
//! across the workers. The largest centered magnitude is then the
//! largest of `|max_j − mean_j|` and `|min_j − mean_j|` over the columns:
//! rounding `x − mean_j` is monotone in `x`, so this is the largest
//! `|x − mean_j|` over every entry, with NaN and ±∞ falling out as they
//! do entry by entry. A write pass computes `(x − mean_j)·(1/scale)`
//! into the fresh matrix, with the rows split across the workers. Both
//! passes stay on the calling thread below
//! [`PAR_ENTRIES_THRESHOLD`] entries, and the result is bitwise the same
//! at any worker count.

use ekm_linalg::parallel::{self, PAR_ENTRIES_THRESHOLD};
use ekm_linalg::Matrix;

/// Parameters of a fitted normalization (kept so summaries can be mapped
/// back to raw units if needed).
#[derive(Debug, Clone, PartialEq)]
pub struct Normalization {
    /// Column means subtracted from the data.
    pub mean: Vec<f64>,
    /// The single positive scale the centered data was divided by.
    pub scale: f64,
}

/// Normalizes `data` the way the paper does: subtract the (column) mean,
/// then divide by the largest absolute value so every entry lies in
/// `[-1, 1]` with exact zero column means.
///
/// Constant datasets (all rows equal) come back as all zeros with
/// `scale = 1`.
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
/// use ekm_data::normalize::normalize_paper;
///
/// let raw = Matrix::from_rows(&[vec![0.0, 10.0], vec![4.0, 30.0]]);
/// let (norm, info) = normalize_paper(&raw);
/// assert!(norm.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
/// assert_eq!(info.mean, vec![2.0, 20.0]);
/// ```
pub fn normalize_paper(data: &Matrix) -> (Matrix, Normalization) {
    normalize_paper_with(data, data.rows() * data.cols() >= PAR_ENTRIES_THRESHOLD)
}

/// [`normalize_paper`], both passes on the workers when `parallel` is
/// set.
fn normalize_paper_with(data: &Matrix, parallel: bool) -> (Matrix, Normalization) {
    let (n, d) = data.shape();
    if n == 0 {
        return (
            data.clone(),
            Normalization {
                mean: vec![0.0; d],
                scale: 1.0,
            },
        );
    }
    let columns = column_stats(data, parallel);
    let inv_n = 1.0 / n as f64;
    let mean: Vec<f64> = columns.sum.iter().map(|s| s * inv_n).collect();
    let bounds = columns.min.iter().zip(&columns.max);
    let max_abs = mean
        .iter()
        .zip(bounds)
        .fold(0.0f64, |acc, (&m, (&lo, &hi))| {
            acc.max((hi - m).abs()).max((lo - m).abs())
        });
    let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
    let inv = 1.0 / scale;
    let mut out = Matrix::zeros(n, d);
    parallel::for_each_row_chunk(out.as_mut_slice(), d, parallel, |first, chunk| {
        let rows = data.as_slice()[first * d..].chunks_exact(d);
        for (row, x) in chunk.chunks_exact_mut(d).zip(rows) {
            for ((o, &x), &m) in row.iter_mut().zip(x).zip(&mean) {
                *o = (x - m) * inv;
            }
        }
    });
    (out, Normalization { mean, scale })
}

/// Per-column sums (in row order, from `+0`), minima and maxima.
#[derive(Debug, Clone, Default)]
struct ColumnStats {
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

/// The read pass of [`normalize_paper`]: the [`ColumnStats`] of every
/// column, the columns split into one contiguous block per worker when
/// `parallel` is set. A column holding NaN has a NaN sum, so its bounds
/// are never read.
fn column_stats(data: &Matrix, parallel: bool) -> ColumnStats {
    let d = data.cols();
    let blocks = if parallel {
        parallel::worker_count().min(d).max(1)
    } else {
        1
    };
    let width = d.div_ceil(blocks);
    let per_block = parallel::par_map_indices_in(blocks, blocks, |b| {
        let cols = (b * width).min(d)..((b + 1) * width).min(d);
        let mut sum = vec![0.0; cols.len()];
        let mut min = vec![f64::INFINITY; cols.len()];
        let mut max = vec![f64::NEG_INFINITY; cols.len()];
        for row in data.iter_rows() {
            let lanes = sum.iter_mut().zip(&mut min).zip(&mut max);
            for (((s, lo), hi), &x) in lanes.zip(&row[cols.clone()]) {
                *s += x;
                *lo = if x < *lo { x } else { *lo };
                *hi = if x > *hi { x } else { *hi };
            }
        }
        ColumnStats { sum, min, max }
    });
    let mut all = ColumnStats::default();
    for block in per_block {
        all.sum.extend(block.sum);
        all.min.extend(block.min);
        all.max.extend(block.max);
    }
    all
}

impl Normalization {
    /// Maps normalized points back to raw units: `x·scale + mean`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree with the fitted means.
    pub fn denormalize(&self, points: &Matrix) -> Matrix {
        assert_eq!(points.cols(), self.mean.len(), "dimension mismatch");
        let mut out = points.scaled(self.scale);
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (x, &m) in row.iter_mut().zip(&self.mean) {
                *x += m;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_linalg::random::{derive_seed, gaussian_matrix};
    use proptest::prelude::*;

    /// [`normalize_paper`] as it was before its two passes: mean, clone,
    /// center, fold, scale. Kept as the reference it must match bit for
    /// bit.
    fn reference_normalize_paper(data: &Matrix) -> (Matrix, Normalization) {
        if data.rows() == 0 {
            return (
                data.clone(),
                Normalization {
                    mean: vec![0.0; data.cols()],
                    scale: 1.0,
                },
            );
        }
        let mean = data.mean_row();
        let mut centered = data.clone();
        centered.sub_row_vector_mut(&mean);
        let max_abs = centered
            .as_slice()
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
        centered.scale_mut(1.0 / scale);
        (centered, Normalization { mean, scale })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values the centering and the fold must treat as the old loop did.
    const SPECIALS: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE / 4.0,
    ];

    /// A Gaussian `n × d` test matrix, with entries replaced by `kind`:
    /// 0 none; 1 a scattered eighth of them by [`SPECIALS`]; 2 every
    /// third column constant (±0 included); 3 each column's entries from
    /// one special (NaN, ±∞, huge values whose sum overflows, −0.0) at a
    /// few rows or at all of them.
    fn case(n: usize, d: usize, kind: u8, seed: u64) -> Matrix {
        let g = gaussian_matrix(seed, n, d, 3.0);
        let pick = |i: usize, j: usize| derive_seed(seed, (i * d + j) as u64);
        Matrix::from_fn(n, d, |i, j| match kind {
            1 if pick(i, j) % 8 == 0 => SPECIALS[(pick(i, j) >> 3) as usize % SPECIALS.len()],
            2 if j % 3 == 0 => SPECIALS[3 + j % 5],
            3 => {
                let special = SPECIALS[(derive_seed(seed, j as u64) % 8) as usize];
                if j % 2 == 0 || (i + j) % 3 == 0 {
                    special
                } else {
                    g[(i, j)]
                }
            }
            _ => g[(i, j)],
        })
    }

    /// `data` normalized on the public path and with both passes forced
    /// onto 1, 2 and 4 workers is bitwise the reference.
    fn assert_bitwise_the_reference(data: &Matrix, what: &str) {
        let (want, want_info) = reference_normalize_paper(data);
        let mut runs = vec![("public".to_string(), normalize_paper(data))];
        for workers in [1, 2, 4] {
            parallel::set_worker_count(workers);
            runs.push((
                format!("{workers} workers"),
                normalize_paper_with(data, true),
            ));
        }
        parallel::set_worker_count(0);
        for (how, (got, info)) in runs {
            assert_eq!(got.shape(), want.shape(), "{what}, {how}");
            assert!(
                bits(got.as_slice()) == bits(want.as_slice()),
                "{what}, {how}"
            );
            assert!(bits(&info.mean) == bits(&want_info.mean), "{what}, {how}");
            assert_eq!(
                info.scale.to_bits(),
                want_info.scale.to_bits(),
                "{what}, {how}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn normalize_is_bitwise_the_reference(
            n in prop_oneof![0usize..4, 4usize..60],
            d in 0usize..12,
            kind in 0u8..4,
            seed in 0u64..10_000,
        ) {
            let data = case(n, d, kind, seed);
            assert_bitwise_the_reference(&data, &format!("{n}x{d} kind {kind} seed {seed}"));
        }
    }

    #[test]
    fn normalize_is_bitwise_the_reference_on_both_sides_of_the_threshold() {
        // d = 785 splits unevenly into column blocks at 2 and 4 workers;
        // 1335 rows fall short of the threshold, 1336 pass it.
        for (n, kind) in [(1335, 0), (1336, 0), (1336, 1), (1336, 3)] {
            let data = case(n, 785, kind, n as u64);
            assert_bitwise_the_reference(&data, &format!("{n}x785 kind {kind}"));
        }
    }

    #[test]
    fn zero_mean_and_unit_range() {
        let raw = Matrix::from_fn(50, 6, |i, j| ((i * 7 + j * 13) % 23) as f64 - 5.0);
        let (norm, _) = normalize_paper(&raw);
        let mean = norm.mean_row();
        assert!(mean.iter().all(|m| m.abs() < 1e-12), "means {mean:?}");
        let max = norm.as_slice().iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!((max - 1.0).abs() < 1e-12, "max |v| = {max}");
    }

    #[test]
    fn denormalize_roundtrips() {
        let raw = Matrix::from_fn(20, 4, |i, j| (i as f64) * 2.5 - (j as f64) * 0.75 + 3.0);
        let (norm, info) = normalize_paper(&raw);
        let back = info.denormalize(&norm);
        assert!(back.approx_eq(&raw, 1e-9));
    }

    #[test]
    fn constant_dataset_becomes_zero() {
        let raw = Matrix::filled(5, 3, 7.5);
        let (norm, info) = normalize_paper(&raw);
        assert!(norm.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(info.scale, 1.0);
        assert_eq!(info.mean, vec![7.5, 7.5, 7.5]);
    }

    #[test]
    fn empty_dataset_passes_through() {
        let raw = Matrix::zeros(0, 4);
        let (norm, info) = normalize_paper(&raw);
        assert_eq!(norm.shape(), (0, 4));
        assert_eq!(info.scale, 1.0);
    }

    #[test]
    fn preserves_cluster_separation_order() {
        // Normalization is affine, so relative distances are preserved.
        let raw = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![100.0]]);
        let (norm, _) = normalize_paper(&raw);
        let d01 = (norm[(0, 0)] - norm[(1, 0)]).abs();
        let d02 = (norm[(0, 0)] - norm[(2, 0)]).abs();
        assert!(d02 > 50.0 * d01);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn denormalize_checks_dims() {
        let (_, info) = normalize_paper(&Matrix::zeros(2, 3));
        let _ = info.denormalize(&Matrix::zeros(2, 4));
    }
}
