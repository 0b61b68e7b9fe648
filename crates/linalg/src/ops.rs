//! Matrix products and related kernels.
//!
//! # Register-blocked products
//!
//! [`matmul`] and [`matmul_transb`] run one micro-kernel. The right
//! operand is packed once into column panels of `k × W` (`B` for
//! `matmul`, `Bᵀ` for `matmul_transb`; W = `PANEL_WIDTH`), and each
//! kernel call holds the outputs of R = `KERNEL_ROWS` rows of `A`
//! times one panel in registers while it walks `k`: one load of a panel
//! row feeds R rows, and one broadcast of `a_ik` feeds W columns. Rows
//! of `A` are split across scoped workers above a size threshold (see
//! [`crate::parallel`]). [`gram`] adds `GRAM_ROWS` rows per pass over
//! each chunk's partial instead of one, and
//! [`Cholesky::solve_matrix`](crate::cholesky::Cholesky::solve_matrix)
//! substitutes across all right-hand sides at once.
//!
//! # Bit identity
//!
//! Blocking only decides which independent outputs share a load. Every
//! output element still gets exactly the floating-point operations of
//! the plain `i-k-j` loop, in its order: an accumulator starts at `+0`
//! and adds `a_ik·b_kj` for `k` ascending (in [`gram`], row `i`'s term
//! before row `i+1`'s, over the same fixed chunks and fold). R, W,
//! `GRAM_ROWS` and the worker count are therefore results-neutral.
//!
//! The zero skip is per block: a k-step is skipped only when `a_ik` is
//! zero in all R rows, which keeps the saving on all-zero columns such
//! as normalized MNIST's border pixels. Inside a mixed block a zero
//! `a_ik` adds `a_ik·b_kj = ±0`. A sum is `−0` only when both addends
//! are (round-to-nearest gives `x + (−x) = +0`), so an accumulator that
//! starts at `+0` never becomes `−0`, and adding `±0` leaves it bitwise
//! unchanged, exactly as skipping would.
//! That needs a finite `b_kj`, since `0·∞` is NaN: the kernels are
//! bitwise the plain loop for finite right operands, and every caller
//! passes one (JL matrices, PCA bases, eigenvectors, pseudo-inverses;
//! finite data for [`gram`]).

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

/// Rows of `A` per micro-kernel call (R). The `R × W` accumulator block
/// is 96 doubles: 24 of the 32 vector registers of an AVX-512 core, at
/// the 256-bit width LLVM picks there. Taller or wider blocks spill and
/// run slower than the plain loop. An AVX2-only core (16 registers)
/// spills this block too, yet a haswell-codegen build still ran the
/// 10000×784×392 product twice as fast as the plain loop.
/// Results-neutral.
const KERNEL_ROWS: usize = 6;

/// Columns per packed panel of the right operand (W). Results-neutral.
const PANEL_WIDTH: usize = 16;

/// Rows of `A` [`gram`] adds per pass over a chunk's partial.
/// Results-neutral.
const GRAM_ROWS: usize = 8;

/// Computes the product `A · B`.
///
/// Register-blocked (see the module docs): bitwise the plain `i-k-j`
/// loop with its `a_ik == 0` skip for finite `B`, and bitwise invariant
/// across worker counts.
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
    let bs = b.as_slice();
    let m = b.cols();
    let panels = Panels::pack(b.rows(), m, |kk, j| bs[kk * m + j]);
    Ok(panels.product(a))
}

/// Computes `A · Bᵀ` without materializing the transpose.
///
/// Packs `Bᵀ` straight into the panels of [`matmul`] and runs the same
/// micro-kernel, so each output element adds `a_ik·b_jk` for `k`
/// ascending. This is the product behind every center lift (`X = X'·Vᵀ`,
/// the `lift_out_of_basis` re-expansions, the pseudo-inverse lifts).
/// Bitwise the plain loop for finite `B`, and bitwise invariant across
/// worker counts.
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
    let bs = b.as_slice();
    let k = b.cols();
    let panels = Panels::pack(k, b.rows(), |kk, j| bs[j * k + kk]);
    Ok(panels.product(a))
}

/// A `k × m` right operand packed into `⌈m / W⌉` column panels of
/// `k × W` each, row-major within a panel and zero-padded past column
/// `m`, so the micro-kernel reads one contiguous W-wide row per k-step.
struct Panels {
    k: usize,
    m: usize,
    data: Vec<f64>,
}

impl Panels {
    /// Packs the operand whose element `(kk, j)` is `at(kk, j)`.
    fn pack(k: usize, m: usize, at: impl Fn(usize, usize) -> f64) -> Panels {
        let count = m.div_ceil(PANEL_WIDTH);
        let mut data = Vec::with_capacity(count * k * PANEL_WIDTH);
        for p in 0..count {
            let cols = p * PANEL_WIDTH..m.min((p + 1) * PANEL_WIDTH);
            for kk in 0..k {
                let end = data.len() + PANEL_WIDTH;
                data.extend(cols.clone().map(|j| at(kk, j)));
                data.resize(end, 0.0);
            }
        }
        Panels { k, m, data }
    }

    /// `A ·` (this operand), one R-row block of `A` at a time against
    /// every panel; workers take disjoint row ranges.
    fn product(&self, a: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows(), self.k, self.m);
        debug_assert_eq!(a.cols(), k);
        let mut c = Matrix::zeros(n, m);
        if k == 0 {
            return c;
        }
        parallel::for_each_row_chunk(
            c.as_mut_slice(),
            m,
            n * k * m >= PAR_FLOPS_THRESHOLD,
            |row_start, rows_chunk| {
                let mut steps = Vec::with_capacity(k);
                let mut coefs = Vec::with_capacity(k);
                for (blk, cblock) in rows_chunk.chunks_mut(KERNEL_ROWS * m).enumerate() {
                    let first = row_start + blk * KERNEL_ROWS;
                    pack_block(a, first, cblock.len() / m, &mut steps, &mut coefs);
                    for (p, panel) in self.data.chunks_exact(k * PANEL_WIDTH).enumerate() {
                        let acc = micro_kernel(&steps, &coefs, panel);
                        let col = p * PANEL_WIDTH;
                        let width = PANEL_WIDTH.min(m - col);
                        for (crow, arow) in cblock.chunks_exact_mut(m).zip(&acc) {
                            crow[col..col + width].copy_from_slice(&arow[..width]);
                        }
                    }
                }
            },
        );
        c
    }
}

/// Gathers rows `first..first + rows` of `A` (`rows ≤ R`) column by
/// column: `steps` receives, in ascending order, every `k` at which one
/// of the rows is nonzero, and `coefs` that column's R values, padded
/// with `+0` past `rows`.
fn pack_block(
    a: &Matrix,
    first: usize,
    rows: usize,
    steps: &mut Vec<usize>,
    coefs: &mut Vec<[f64; KERNEL_ROWS]>,
) {
    steps.clear();
    coefs.clear();
    let mut block = [&[][..]; KERNEL_ROWS];
    for (r, slot) in block.iter_mut().enumerate().take(rows) {
        *slot = a.row(first + r);
    }
    for kk in 0..a.cols() {
        let mut col = [0.0; KERNEL_ROWS];
        for (v, row) in col.iter_mut().zip(&block[..rows]) {
            *v = row[kk];
        }
        if col.iter().any(|&v| v != 0.0) {
            steps.push(kk);
            coefs.push(col);
        }
    }
}

/// The `R × W` outputs of one row block against one panel: each
/// accumulator starts at `+0` and adds `a_ik·b_kj` over `steps` in
/// ascending `k`.
fn micro_kernel(
    steps: &[usize],
    coefs: &[[f64; KERNEL_ROWS]],
    panel: &[f64],
) -> [[f64; PANEL_WIDTH]; KERNEL_ROWS] {
    let (rows, _) = panel.as_chunks::<PANEL_WIDTH>();
    let mut acc = [[0.0f64; PANEL_WIDTH]; KERNEL_ROWS];
    for (&kk, col) in steps.iter().zip(coefs) {
        let brow = &rows[kk];
        for (accrow, &aik) in acc.iter_mut().zip(col) {
            for (cv, &bv) in accrow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
    acc
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
    let sum = chunked_row_sum(n, da * db, n * da * db, |p, rows| {
        for i in rows {
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
/// zeros, which leave a sum started at `+0` unchanged.
///
/// Within a chunk, `GRAM_ROWS` rows share each pass over the partial:
/// every partial element adds their terms in row order, and row `j` of
/// the partial is skipped only when `a_ij` is zero in all of them (see
/// the module docs). Bitwise invariant across worker counts.
pub fn gram(a: &Matrix) -> Matrix {
    let (n, d) = a.shape();
    let zeros = vec![0.0; d];
    let mut c = chunked_row_sum(n, d * d, n * d * d, |p, rows| {
        let end = rows.end;
        for i in rows.step_by(GRAM_ROWS) {
            let mut block = [&zeros[..]; GRAM_ROWS];
            for (r, slot) in block.iter_mut().enumerate().take(end - i) {
                *slot = a.row(i + r);
            }
            gram_block(p, d, &block);
        }
    });
    for j in 0..d {
        for l in j + 1..d {
            c[l * d + j] = c[j * d + l];
        }
    }
    Matrix::from_vec(d, d, c)
}

/// Adds `block`'s rows (padded with zero rows) into the upper triangle
/// of the `d × d` partial `p`, element by element in row order.
fn gram_block(p: &mut [f64], d: usize, block: &[&[f64]; GRAM_ROWS]) {
    for j in 0..d {
        let coef: [f64; GRAM_ROWS] = std::array::from_fn(|r| block[r][j]);
        if coef.iter().all(|&v| v == 0.0) {
            continue;
        }
        let prow = &mut p[j * d + j..(j + 1) * d];
        let tails: [&[f64]; GRAM_ROWS] = std::array::from_fn(|r| &block[r][j..d]);
        for (l, pv) in prow.iter_mut().enumerate() {
            let mut v = *pv;
            for (&arj, tail) in coef.iter().zip(&tails) {
                v += arj * tail[l];
            }
            *pv = v;
        }
    }
}

/// Sums per-row contributions into a `len`-element accumulator:
/// `add_rows(partial, rows)` adds a fixed [`ACCUM_CHUNK`]-row chunk
/// into its own zeroed partial, the partials are computed on up to
/// [`parallel::worker_count`] scoped workers once `flops` reaches the
/// parallel threshold, and they fold in chunk order. Chunk boundaries
/// and fold order depend only on `n`, so the sum is bitwise invariant
/// across worker counts.
fn chunked_row_sum<F>(n: usize, len: usize, flops: usize, add_rows: F) -> Vec<f64>
where
    F: Fn(&mut [f64], std::ops::Range<usize>) + Sync,
{
    let n_chunks = n.div_ceil(ACCUM_CHUNK).max(1);
    let workers = if flops >= PAR_FLOPS_THRESHOLD {
        parallel::worker_count().min(n_chunks)
    } else {
        1
    };
    let partials = parallel::par_map_indices_in(n_chunks, workers, |chunk| {
        let mut p = vec![0.0f64; len];
        add_rows(
            &mut p,
            chunk * ACCUM_CHUNK..((chunk + 1) * ACCUM_CHUNK).min(n),
        );
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
    use crate::random::gaussian_matrix;
    use proptest::prelude::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The `i-k-j` loop [`matmul`] ran before register blocking, kept as
    /// the reference the kernel must match bit for bit.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, m) = (a.rows(), b.cols());
        let mut c = Matrix::zeros(n, m);
        let bs = b.as_slice();
        for i in 0..n {
            let crow = c.row_mut(i);
            for (kk, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &bs[kk * m..(kk + 1) * m];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
        c
    }

    /// The tiled loop [`matmul_transb`] ran before it shared the
    /// micro-kernel: 32-row tiles of `B` transposed once, `i-k-j` inside.
    fn reference_matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
        const TILE: usize = 32;
        let (n, k, m) = (a.rows(), a.cols(), b.rows());
        let mut c = Matrix::zeros(n, m);
        let tiles: Vec<Vec<f64>> = (0..m.div_ceil(TILE))
            .map(|t| {
                let start = t * TILE;
                let width = TILE.min(m - start);
                let mut buf = vec![0.0f64; k * width];
                for (jj, j) in (start..start + width).enumerate() {
                    for (kk, &bv) in b.row(j).iter().enumerate() {
                        buf[kk * width + jj] = bv;
                    }
                }
                buf
            })
            .collect();
        for i in 0..n {
            let arow = a.row(i);
            let crow = c.row_mut(i);
            for (t, tile) in tiles.iter().enumerate() {
                let start = t * TILE;
                let width = TILE.min(m - start);
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
        c
    }

    /// The one-row-per-pass [`gram`] loop, over the same chunk fold.
    fn reference_gram(a: &Matrix) -> Matrix {
        let (n, d) = a.shape();
        let mut c = chunked_row_sum(n, d * d, n * d * d, |p, rows| {
            for i in rows {
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
            }
        });
        for j in 0..d {
            for l in j + 1..d {
                c[l * d + j] = c[j * d + l];
            }
        }
        Matrix::from_vec(d, d, c)
    }

    /// Row and column counts straddling the register block's height R
    /// and width W.
    fn straddling_dims() -> [usize; 12] {
        let (r, w) = (KERNEL_ROWS, PANEL_WIDTH);
        [
            1,
            2,
            r - 1,
            r,
            r + 1,
            2 * r + 1,
            w - 1,
            w,
            w + 1,
            2 * w - 1,
            2 * w + 1,
            3 * r + w,
        ]
    }

    /// A Gaussian `rows × cols` test matrix with exact zeros, half of
    /// them `-0.0`, placed by `kind`: 0 none; 1 scattered; 2 whole rows
    /// and whole columns; 3 staggered within each R-row block, so that
    /// some k-steps are zero in every row of a block and others in only
    /// some of its rows.
    fn case(rows: usize, cols: usize, kind: u8, seed: u64) -> Matrix {
        let g = gaussian_matrix(seed, rows, cols, 1.0);
        Matrix::from_fn(rows, cols, |i, j| {
            let zero = match kind {
                1 => (i * 7 + j * 3 + seed as usize).is_multiple_of(3),
                2 => i % 3 == 1 || j % 4 == 2,
                3 => i % KERNEL_ROWS <= j % (KERNEL_ROWS + 2),
                _ => false,
            };
            match (zero, (i + j) % 2) {
                (false, _) => g[(i, j)],
                (true, 0) => 0.0,
                (true, _) => -0.0,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn products_are_bitwise_the_reference(
            ni in 0usize..12,
            k in 0usize..=40,
            mi in 0usize..12,
            kind in 0u8..4,
            seed in 0u64..10_000,
        ) {
            let dims = straddling_dims();
            let (n, m) = (dims[ni], dims[mi]);
            let a = case(n, k, kind, seed);
            let b = case(k, m, kind % 2, seed + 1);
            prop_assert_eq!(
                bits(&matmul(&a, &b).unwrap()),
                bits(&reference_matmul(&a, &b)),
                "matmul {}x{}x{} kind={}", n, k, m, kind
            );
            let bt = b.transpose();
            prop_assert_eq!(
                bits(&matmul_transb(&a, &bt).unwrap()),
                bits(&reference_matmul_transb(&a, &bt)),
                "matmul_transb {}x{}x{} kind={}", n, k, m, kind
            );
        }

        #[test]
        fn gram_is_bitwise_the_reference(
            ni in 0usize..10,
            d in 0usize..=24,
            kind in 0u8..4,
            seed in 0u64..10_000,
        ) {
            // Straddling GRAM_ROWS and one to three ACCUM_CHUNK chunks.
            let (g, c) = (GRAM_ROWS, ACCUM_CHUNK);
            let n = [1, g - 1, g, g + 1, 3 * g + 5, c - 1, c, c + 1, 2 * c + g + 3, 3 * c][ni];
            let a = case(n, d, kind, seed);
            prop_assert_eq!(bits(&gram(&a)), bits(&reference_gram(&a)), "{}x{} kind={}", n, d, kind);
        }
    }

    #[test]
    fn blocked_kernels_are_bitwise_the_reference_at_every_worker_count() {
        // Past PAR_FLOPS_THRESHOLD (1001·70·77 ≈ 5.4M, 2500·48·48 ≈ 5.8M),
        // ragged against R, W and GRAM_ROWS, with partly zero blocks.
        let a = case(1001, 70, 3, 11);
        let b = case(70, 77, 1, 12);
        let bt = b.transpose();
        let g = case(2500, 48, 3, 13);
        let want = [
            bits(&reference_matmul(&a, &b)),
            bits(&reference_matmul_transb(&a, &bt)),
            bits(&reference_gram(&g)),
        ];
        for workers in [1, 2, 4, 8] {
            parallel::set_worker_count(workers);
            let got = [
                bits(&matmul(&a, &b).unwrap()),
                bits(&matmul_transb(&a, &bt).unwrap()),
                bits(&gram(&g)),
            ];
            assert!(got == want, "{workers} workers");
        }
        parallel::set_worker_count(0);
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
    fn matmul_transb_ragged_tile_widths() {
        // Column counts straddling the panel width, including the ragged
        // last panel.
        for m in [1usize, 15, 16, 17, 31, 32, 33, 63, 65] {
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
