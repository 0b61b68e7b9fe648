//! Matrix products and related kernels.
//!
//! All kernels use cache-friendly `i-k-j` loop ordering on the row-major
//! [`Matrix`] layout and switch to scoped-thread row parallelism above a size
//! threshold (see [`crate::parallel`]).

use crate::parallel;
use crate::{LinalgError, Matrix, Result};

/// Minimum number of multiply-adds before a kernel bothers spawning threads.
const PAR_FLOPS_THRESHOLD: usize = 1 << 22;

/// Fixed row-chunk granularity of the [`chunked_row_sum`] accumulation
/// fold behind [`matmul_transa`] and [`gram`]. A constant (rather than
/// `n / workers`) keeps the fold graph — and therefore the
/// floating-point rounding — independent of the worker count, the same
/// discipline as the sharded Lloyd update.
const ACCUM_CHUNK: usize = 1024;

/// Computes the product `A · B`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.cols() == B.rows()`.
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, ops};
/// let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
/// let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
/// assert_eq!(ops::matmul(&a, &b).unwrap()[(0, 0)], 11.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(n, m);
    let flops = n * k * m;
    let bs = b.as_slice();
    parallel::for_each_row_chunk(
        c.as_mut_slice(),
        m,
        flops >= PAR_FLOPS_THRESHOLD,
        |row_start, rows_chunk| {
            for (local_i, crow) in rows_chunk.chunks_exact_mut(m).enumerate() {
                let i = row_start + local_i;
                let arow = a.row(i);
                for (kk, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &bs[kk * m..(kk + 1) * m];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += aik * bv;
                    }
                }
            }
        },
    );
    Ok(c)
}

/// Rows of `B` per transposed tile in [`matmul_transb`]: the tile
/// (`TRANSB_TILE × k` doubles) stays cache-resident while the rows of
/// `A` stream against it — the same discipline as the blocked distance
/// kernel's center tiles.
const TRANSB_TILE: usize = 32;

/// Computes `A · Bᵀ` without materializing the full transpose.
///
/// The kernel tiles the rows of `B`, transposes each tile once into a
/// contiguous `k × tile` buffer, and runs the inner loop in `i-k-j`
/// order against it: every output column in the tile owns an
/// independent accumulator, so there is no per-element reduction chain
/// and the `j` loop vectorizes like the dense [`matmul`] kernel. This
/// is the product behind every center lift (`X = X'·Vᵀ`, the
/// `lift_out_of_basis` re-expansions, the pseudo-inverse lifts), which
/// previously ran the reduction-form [`dot`].
///
/// Each output element is accumulated over `k` in a fixed order that
/// depends only on the shapes, and parallelism only partitions rows of
/// `A` — results are **bitwise invariant across worker counts**.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.cols() == B.cols()`.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (n, k, m) = (a.rows(), a.cols(), b.rows());
    let mut c = Matrix::zeros(n, m);
    // Transpose B tile by tile: tile t holds B's rows [t·T, t·T+width)
    // as `width` contiguous columns per dimension, so the inner j loop
    // below is unit-stride.
    let tiles: Vec<Vec<f64>> = (0..m.div_ceil(TRANSB_TILE))
        .map(|t| {
            let start = t * TRANSB_TILE;
            let width = TRANSB_TILE.min(m - start);
            let mut buf = vec![0.0f64; k * width];
            for (jj, j) in (start..start + width).enumerate() {
                for (kk, &bv) in b.row(j).iter().enumerate() {
                    buf[kk * width + jj] = bv;
                }
            }
            buf
        })
        .collect();
    let flops = n * k * m;
    parallel::for_each_row_chunk(
        c.as_mut_slice(),
        m,
        flops >= PAR_FLOPS_THRESHOLD,
        |row_start, rows_chunk| {
            for (local_i, crow) in rows_chunk.chunks_exact_mut(m).enumerate() {
                let arow = a.row(row_start + local_i);
                for (t, tile) in tiles.iter().enumerate() {
                    let start = t * TRANSB_TILE;
                    let width = TRANSB_TILE.min(m - start);
                    let cslice = &mut crow[start..start + width];
                    for (kk, &aik) in arow.iter().enumerate() {
                        if aik == 0.0 {
                            continue;
                        }
                        let trow = &tile[kk * width..(kk + 1) * width];
                        for (cv, &bv) in cslice.iter_mut().zip(trow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        },
    );
    Ok(c)
}

/// Computes `Aᵀ · B`.
///
/// The rank-1 accumulation over rows runs through [`chunked_row_sum`],
/// so the result is **bitwise invariant across worker counts**.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.rows() == B.rows()`.
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_transa",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (n, da, db) = (a.rows(), a.cols(), b.cols());
    // Rank-1 partials accumulated in row order within each chunk:
    // cache friendly for both operands.
    let sum = chunked_row_sum(n, da * db, n * da * db, |p, i| {
        let brow = b.row(i);
        for (j, &aij) in a.row(i).iter().enumerate() {
            if aij == 0.0 {
                continue;
            }
            let prow = &mut p[j * db..(j + 1) * db];
            for (pv, &bv) in prow.iter_mut().zip(brow) {
                *pv += aij * bv;
            }
        }
    });
    Ok(Matrix::from_vec(da, db, sum))
}

/// Computes the Gram matrix `Aᵀ · A` (symmetric `d × d`).
///
/// Bitwise equal to `matmul_transa(a, a)` for finite input, at about half
/// its work: the row partials accumulate only the upper triangle, fold
/// over the same chunks, and the folded upper triangle is mirrored once.
/// The lower element `(l, j)` of the full product adds `a_il·a_ij` where
/// the upper `(j, l)` adds `a_ij·a_il`: IEEE multiplication commutes, and
/// the products that only one of the two zero-skips drops are exact
/// zeros, which leave a sum started at `+0` unchanged. Bitwise invariant
/// across worker counts.
pub fn gram(a: &Matrix) -> Matrix {
    let (n, d) = a.shape();
    let mut c = chunked_row_sum(n, d * d, n * d * d, |p, i| {
        let arow = a.row(i);
        for (j, &aij) in arow.iter().enumerate() {
            if aij == 0.0 {
                continue;
            }
            let prow = &mut p[j * d + j..(j + 1) * d];
            for (pv, &al) in prow.iter_mut().zip(&arow[j..]) {
                *pv += aij * al;
            }
        }
    });
    for j in 0..d {
        for l in j + 1..d {
            c[l * d + j] = c[j * d + l];
        }
    }
    Matrix::from_vec(d, d, c)
}

/// Sums per-row contributions into a `len`-element accumulator:
/// `add_row(partial, i)` adds row `i` into the partial of its fixed
/// [`ACCUM_CHUNK`]-row chunk, the partials are computed on up to
/// [`parallel::worker_count`] scoped workers once `flops` reaches the
/// parallel threshold, and they fold in chunk order. Chunk boundaries
/// and fold order depend only on `n`, so the sum is bitwise invariant
/// across worker counts.
fn chunked_row_sum<F>(n: usize, len: usize, flops: usize, add_row: F) -> Vec<f64>
where
    F: Fn(&mut [f64], usize) + Sync,
{
    let n_chunks = n.div_ceil(ACCUM_CHUNK).max(1);
    let workers = if flops >= PAR_FLOPS_THRESHOLD {
        parallel::worker_count().min(n_chunks)
    } else {
        1
    };
    let partials = parallel::par_map_indices_in(n_chunks, workers, |chunk| {
        let mut p = vec![0.0f64; len];
        for i in chunk * ACCUM_CHUNK..((chunk + 1) * ACCUM_CHUNK).min(n) {
            add_row(&mut p, i);
        }
        p
    });
    let mut sum = vec![0.0f64; len];
    for p in partials {
        for (sv, pv) in sum.iter_mut().zip(&p) {
            *sv += pv;
        }
    }
    sum
}

/// Computes the outer Gram matrix `A · Aᵀ` (symmetric `n × n`).
pub fn outer_gram(a: &Matrix) -> Matrix {
    matmul_transb(a, a).expect("outer_gram: self shapes agree")
}

/// Computes the matrix-vector product `A · x`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.cols() == x.len()`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    Ok(a.iter_rows().map(|r| dot(r, x)).collect())
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ (release builds truncate to
/// the shorter operand, which callers must not rely on).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // 4-way unrolled accumulation; the compiler vectorizes this reliably.
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc0 += a[i] * b[i];
        acc1 += a[i + 1] * b[i + 1];
        acc2 += a[i + 2] * b[i + 2];
        acc3 += a[i + 3] * b[i + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for i in chunks * 4..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// ℓ2 norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn matmul_small_known() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&mat(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let c = matmul(&a, &Matrix::identity(4)).unwrap();
        assert!(c.approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |i, j| ((i + 1) * (j + 2)) as f64);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64 - j as f64) * 0.5);
        let c1 = matmul_transb(&a, &b).unwrap();
        let c2 = matmul(&a, &b.transpose()).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let a = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 * 0.25);
        let b = Matrix::from_fn(6, 2, |i, j| (i + j) as f64);
        let c1 = matmul_transa(&a, &b).unwrap();
        let c2 = matmul(&a.transpose(), &b).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let g = gram(&a);
        assert_eq!(g.shape(), (3, 3));
        for i in 0..3 {
            assert!(g[(i, i)] >= 0.0);
            for j in 0..3 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
        // trace(AᵀA) == ‖A‖_F².
        let trace: f64 = (0..3).map(|i| g[(i, i)]).sum();
        assert!((trace - a.frobenius_norm_sq()).abs() < 1e-9);
    }

    #[test]
    fn outer_gram_shape() {
        let a = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let g = outer_gram(&a);
        assert_eq!(g.shape(), (4, 4));
        assert!((g[(1, 2)] - dot(a.row(1), a.row(2))).abs() < 1e-12);
    }

    #[test]
    fn matvec_known() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        assert_eq!(matvec(&a, &[3.0, 4.0]).unwrap(), vec![3.0, 8.0, 7.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn dot_and_sq_dist() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn matmul_large_triggers_parallel_path() {
        // Big enough to exceed PAR_FLOPS_THRESHOLD: 256*256*256 = 2^24.
        let n = 256;
        let a = Matrix::from_fn(n, n, |i, j| ((i + j) % 7) as f64);
        let b = Matrix::identity(n);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_transb_bitwise_invariant_across_worker_counts() {
        // Several tiles wide and past the parallel threshold:
        // 2000 · 40 · 96 ≈ 7.7M ≥ 2^22, 96 columns = 3 tiles.
        let a = Matrix::from_fn(2000, 40, |i, j| {
            (((i * 17 + j * 5) % 101) as f64 - 50.0) * 0.03
        });
        let b = Matrix::from_fn(96, 40, |i, j| {
            (((i * 7 + j * 13) % 83) as f64 - 41.0) * 0.04
        });
        parallel::set_worker_count(1);
        let reference = matmul_transb(&a, &b).unwrap();
        for workers in [2, 4, 8] {
            parallel::set_worker_count(workers);
            assert!(
                matmul_transb(&a, &b).unwrap() == reference,
                "{workers} workers"
            );
        }
        parallel::set_worker_count(0);
    }

    #[test]
    fn matmul_transb_ragged_tile_widths() {
        // Column counts straddling the tile width, including the ragged
        // last tile.
        for m in [1usize, 31, 32, 33, 63, 65] {
            let a = Matrix::from_fn(7, 19, |i, j| (i as f64 - j as f64) * 0.5);
            let b = Matrix::from_fn(m, 19, |i, j| ((i + 2 * j) % 11) as f64 * 0.25);
            let got = matmul_transb(&a, &b).unwrap();
            let expected = matmul(&a, &b.transpose()).unwrap();
            assert!(got.approx_eq(&expected, 1e-12), "m={m}");
        }
    }

    #[test]
    fn matmul_transa_bitwise_invariant_across_worker_counts() {
        // Big enough for several ACCUM_CHUNK chunks *and* the parallel
        // threshold: 5000 · 30 · 30 = 4.5M ≥ 2^22.
        let a = Matrix::from_fn(5000, 30, |i, j| {
            (((i * 13 + j * 7) % 97) as f64 - 48.0) * 0.07
        });
        let b = Matrix::from_fn(5000, 30, |i, j| {
            (((i * 5 + j * 11) % 89) as f64 - 44.0) * 0.05
        });
        parallel::set_worker_count(1);
        let reference = matmul_transa(&a, &b).unwrap();
        let gram_ref = gram(&a);
        for workers in [2, 4, 8] {
            parallel::set_worker_count(workers);
            assert!(
                matmul_transa(&a, &b).unwrap() == reference,
                "{workers} workers"
            );
            assert!(gram(&a) == gram_ref, "{workers} workers");
        }
        parallel::set_worker_count(0);
    }

    #[test]
    fn gram_is_bitwise_matmul_transa() {
        // Sparse rows (many exact zeros, some of them -0.0), a row of
        // zeros, and row counts spanning one to three accumulation
        // chunks, at one and several workers.
        for (n, d) in [(1, 1), (5, 3), (300, 17), (1024, 9), (2500, 48)] {
            let mut a = Matrix::from_fn(n, d, |i, j| match (i * 7 + j * 5) % 6 {
                0 | 1 => 0.0,
                2 => -0.0,
                k => ((i * 13 + j * 3) % 29) as f64 * 0.37 - 5.0 + k as f64 * 1e-3,
            });
            a.row_mut(n / 2).fill(0.0);
            let want = matmul_transa(&a, &a).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for workers in [1, 2, 4] {
                parallel::set_worker_count(workers);
                assert_eq!(bits(&gram(&a)), bits(&want), "{n}x{d}, {workers} workers");
            }
            parallel::set_worker_count(0);
        }
    }

    #[test]
    fn matmul_associativity_numeric() {
        let a = Matrix::from_fn(3, 4, |i, j| (i as f64) - (j as f64) * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64 * 0.1);
        let c = Matrix::from_fn(2, 3, |i, j| 1.0 / ((i + j + 1) as f64));
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-10));
    }
}
