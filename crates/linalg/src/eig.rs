//! The top-`t` eigenpairs of a symmetric matrix.
//!
//! FSS and disPCA need the leading eigenpairs of one small symmetric
//! Gram matrix (`d × d` or `n × n`), and keep only `t` of them — 33 of
//! 392 at the paper's MNIST shape. [`symmetric_top`] computes just
//! those `t`:
//!
//! 1. the matrix is symmetrized and reduced once to a tridiagonal
//!    `T = Qᵀ·A·Q` by Householder reflections — the `O(n³)` step, done
//!    as row passes over one `n × n` working copy;
//! 2. Sturm-sequence bisection finds the `t` largest eigenvalues of `T`
//!    to about `ε·‖T‖`, all `t` bisections advancing in lockstep;
//! 3. inverse iteration on `T` finds each eigenvector, reorthogonalized
//!    against the earlier vectors of its eigenvalue cluster (a run of
//!    eigenvalues each within `10⁻³·‖T‖` of the one before);
//! 4. only those `t` vectors are carried back through the reflections.
//!
//! **Prefix property.** Every eigenvalue is bisected on its own from
//! the same starting interval, and every vector depends only on its own
//! eigenvalue, a fixed start vector and the vectors before it, so
//! `symmetric_top(a, t)` is bitwise the first `t` pairs of
//! `symmetric_top(a, n)`.
//!
//! **Sign rule.** Each eigenvector is returned with its largest-magnitude
//! entry (the first, among equals) positive.
//!
//! Everything runs on the calling thread in a fixed order, so the output
//! is a deterministic function of the input bits, whatever the worker
//! count.

use crate::ops::dot;
use crate::random::derive_seed;
use crate::{LinalgError, Matrix, Result};

/// Eigenpairs of a symmetric matrix: `A·vectors.col(i) = values[i]·vectors.col(i)`.
///
/// Eigenvalues are sorted in descending order; `vectors.col(i)` is the unit
/// eigenvector for `values[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// The `t` largest eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as the *columns* of this `n × t` matrix.
    pub vectors: Matrix,
}

/// An eigenvalue within this fraction of `‖T‖` of the one before it
/// joins that one's cluster. Vectors of different clusters are left to
/// inverse iteration alone, which makes them orthogonal to about
/// `ε / CLUSTER_TOL`.
const CLUSTER_TOL: f64 = 1e-3;

/// Inverse-iteration solves per eigenvector. From a start vector with a
/// fair share of the wanted direction, each solve shrinks the directions
/// of other clusters by `ε / CLUSTER_TOL` or more relative to it, so the
/// third leaves nothing measurable.
const INVERSE_SOLVES: usize = 3;

/// Computes the `t` largest eigenvalues of a symmetric matrix and their
/// eigenvectors.
///
/// The input is symmetrized as `(A + Aᵀ)/2` first, so tiny asymmetries
/// from accumulated floating-point error in Gram products are harmless.
/// `symmetric_top(a, a.rows())` is the full eigendecomposition.
///
/// # Errors
///
/// * [`LinalgError::EmptyMatrix`] if `a` is empty.
/// * [`LinalgError::DimensionMismatch`] if `a` is not square.
/// * [`LinalgError::RankOutOfRange`] if `t > a.rows()`.
/// * [`LinalgError::NonFinite`] if any entry is NaN or infinite.
/// * [`LinalgError::ConvergenceFailure`] if inverse iteration produces a
///   zero or non-finite vector (does not happen for finite input).
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, eig};
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let e = eig::symmetric_top(&a, 2).unwrap();
/// assert!((e.values[0] - 3.0).abs() < 1e-10);
/// assert!((e.values[1] - 1.0).abs() < 1e-10);
/// let top = eig::symmetric_top(&a, 1).unwrap();
/// assert_eq!(top.values[0], e.values[0]);
/// ```
pub fn symmetric_top(a: &Matrix, t: usize) -> Result<SymmetricEigen> {
    const OP: &str = "symmetric_top";
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: OP });
    }
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: OP,
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    if t > n {
        return Err(LinalgError::RankOutOfRange {
            requested: t,
            available: n,
        });
    }
    if a.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite { op: OP });
    }
    let amax = a.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    // Every tolerance below scales with ‖A‖, so the zero matrix, whose
    // eigenpairs are (0, unit axes), is answered directly.
    if amax == 0.0 {
        return Ok(SymmetricEigen {
            values: vec![0.0; t],
            vectors: Matrix::identity(n).first_cols(t)?,
        });
    }
    // A power-of-two scale is exact and brings the largest entry to
    // [1, 2), so ‖T‖ is of order one and no tolerance below can
    // underflow or let an inverse-iteration solve overflow.
    let scale = pow2_scale(amax);
    let half = 0.5 * scale;
    let mut m = Matrix::from_fn(n, n, |i, j| half * a[(i, j)] + half * a[(j, i)]);
    let tri = tridiagonalize(&mut m);
    let values = tri.top_eigenvalues(t);
    let mut vectors = tri.eigenvectors(&values)?;
    back_transform(&m, &tri.tau, &mut vectors);
    fix_signs(&mut vectors);
    Ok(SymmetricEigen {
        values: values.iter().map(|&l| l / scale).collect(),
        vectors,
    })
}

/// The power of two that brings a positive finite `x` into `[1, 2)`
/// (or as close as the exponent range allows).
fn pow2_scale(x: f64) -> f64 {
    let exponent = ((x.to_bits() >> 52) & 0x7ff) as i64;
    f64::from_bits(((2046 - exponent).clamp(1, 2046) as u64) << 52)
}

/// The tridiagonal `T = Qᵀ·M·Q` with `Q = H_0·H_1⋯H_{n−3}` and
/// `H_k = I − τ_k·v_k·v_kᵀ`.
struct Tridiagonal {
    /// Diagonal of `T` (`n`).
    diag: Vec<f64>,
    /// Off-diagonal of `T` (`n − 1`).
    off: Vec<f64>,
    /// `τ_k` of each reflection (`n − 1`; 0 where none was needed).
    tau: Vec<f64>,
    /// `‖T‖_∞`, the scale of every tolerance.
    norm: f64,
}

/// Reduces the exactly symmetric `m` to tridiagonal form, leaving `v_k`
/// in row `k`, columns `k + 1..` (with its leading 1 stored).
///
/// Step `k` updates the trailing block `B` (rows and columns `k + 1..`)
/// to `H_k·B·H_k = B − v·wᵀ − w·vᵀ`, with `p = τ·B·v` and
/// `w = p − (τ/2)(pᵀv)·v`. Both triangles are updated, element by
/// element with the same two products in either order, so `B` stays
/// exactly symmetric and `B·v` can be summed as rows scaled by `v`:
/// every pass runs along contiguous rows.
fn tridiagonalize(m: &mut Matrix) -> Tridiagonal {
    let n = m.rows();
    let mut diag = Vec::with_capacity(n);
    let mut off = Vec::with_capacity(n - 1);
    let mut tau = vec![0.0; n - 1];
    let mut w = vec![0.0; n];
    for k in 0..n - 1 {
        diag.push(m[(k, k)]);
        let (head, block) = m.as_mut_slice().split_at_mut((k + 1) * n);
        let v = &mut head[k * n + k + 1..];
        let alpha = v[0];
        let sigma = dot(&v[1..], &v[1..]);
        if sigma == 0.0 {
            // Column k is already reduced: H_k = I.
            off.push(alpha);
            continue;
        }
        let norm = (alpha * alpha + sigma).sqrt();
        let beta = if alpha > 0.0 { -norm } else { norm };
        let tk = (beta - alpha) / beta;
        let inv = 1.0 / (alpha - beta);
        v[0] = 1.0;
        for x in &mut v[1..] {
            *x *= inv;
        }
        tau[k] = tk;
        off.push(beta);

        let w = &mut w[..n - k - 1];
        w.fill(0.0);
        for (j, &vj) in v.iter().enumerate() {
            let row = &block[j * n + k + 1..(j + 1) * n];
            for (wi, &b) in w.iter_mut().zip(row) {
                *wi += vj * b;
            }
        }
        for wi in w.iter_mut() {
            *wi *= tk;
        }
        let half_pv = 0.5 * tk * dot(w, v);
        for (wi, &vi) in w.iter_mut().zip(v.iter()) {
            *wi -= half_pv * vi;
        }
        for (j, (&vj, &wj)) in v.iter().zip(w.iter()).enumerate() {
            let row = &mut block[j * n + k + 1..(j + 1) * n];
            for ((b, &vi), &wi) in row.iter_mut().zip(v.iter()).zip(w.iter()) {
                *b -= vj * wi + wj * vi;
            }
        }
    }
    diag.push(m[(n - 1, n - 1)]);
    let norm = (0..n)
        .map(|i| {
            let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
            let right = if i + 1 < n { off[i].abs() } else { 0.0 };
            diag[i].abs() + left + right
        })
        .fold(0.0, f64::max);
    Tridiagonal {
        diag,
        off,
        tau,
        norm,
    }
}

impl Tridiagonal {
    /// The `t` largest eigenvalues, descending, by bisection on Sturm
    /// counts.
    ///
    /// Lane `j` keeps an interval `(lo, hi]` holding the eigenvalue with
    /// `n − 1 − j` others below it, starting from `±‖T‖_∞` (which holds
    /// every Gershgorin disc), and halves it until it is within
    /// `2ε·|λ| + ε·‖T‖` or cannot be split. A lane that has converged is frozen, so its result does
    /// not depend on how many lanes run beside it.
    fn top_eigenvalues(&self, t: usize) -> Vec<f64> {
        let n = self.diag.len();
        let e2: Vec<f64> = self.off.iter().map(|e| e * e).collect();
        let pivmin = f64::MIN_POSITIVE * e2.iter().fold(1.0, |m: f64, &x| m.max(x));
        let slack = 2.0 * f64::EPSILON * self.norm * n as f64 + 2.0 * pivmin;
        let (lo0, hi0) = (-self.norm - slack, self.norm + slack);
        let abs_tol = f64::EPSILON * self.norm;

        let (mut lo, mut hi) = (vec![lo0; t], vec![hi0; t]);
        let mut mid = vec![0.0; t];
        let mut open = vec![true; t];
        let (mut q, mut below) = (vec![0.0; t], vec![0u32; t]);
        loop {
            let mut any = false;
            for j in 0..t {
                mid[j] = 0.5 * (lo[j] + hi[j]);
                let width = 2.0 * f64::EPSILON * lo[j].abs().max(hi[j].abs()) + abs_tol;
                open[j] = open[j] && hi[j] - lo[j] > width && lo[j] < mid[j] && mid[j] < hi[j];
                any |= open[j];
            }
            if !any {
                break;
            }
            self.count_at_most(&e2, pivmin, &mid, &mut q, &mut below);
            for j in 0..t {
                if open[j] {
                    if below[j] as usize > n - 1 - j {
                        hi[j] = mid[j];
                    } else {
                        lo[j] = mid[j];
                    }
                }
            }
        }
        // Bisections of nearly equal eigenvalues may cross by a
        // tolerance; keep the order.
        for j in 1..t {
            mid[j] = mid[j].min(mid[j - 1]);
        }
        mid
    }

    /// Writes into `below[j]` the number of eigenvalues of `T` at most
    /// `xs[j]`: the negative pivots of `T − xs[j]·I = L·D·Lᵀ`, with
    /// pivots smaller than `pivmin` taken as `−pivmin`. The lanes are
    /// the inner loop, so independent divisions overlap.
    fn count_at_most(&self, e2: &[f64], pivmin: f64, xs: &[f64], q: &mut [f64], below: &mut [u32]) {
        let guard = |v: f64| if v.abs() < pivmin { -pivmin } else { v };
        for ((qj, bj), &x) in q.iter_mut().zip(below.iter_mut()).zip(xs) {
            *qj = guard(self.diag[0] - x);
            *bj = u32::from(*qj <= 0.0);
        }
        for (&d, &ee) in self.diag[1..].iter().zip(e2) {
            for ((qj, bj), &x) in q.iter_mut().zip(below.iter_mut()).zip(xs) {
                *qj = guard((d - x) - ee / *qj);
                *bj += u32::from(*qj <= 0.0);
            }
        }
    }

    /// Unit eigenvectors of `T` for `values`, as the columns of an
    /// `n × t` matrix, by inverse iteration from a pseudo-random start
    /// vector that depends only on the vector's index.
    fn eigenvectors(&self, values: &[f64]) -> Result<Matrix> {
        let n = self.diag.len();
        let t = values.len();
        let mut found = Matrix::zeros(t, n);
        let mut cluster = 0;
        let mut x = vec![0.0; n];
        for (j, &lambda) in values.iter().enumerate() {
            if j > 0 && values[j - 1] - lambda > CLUSTER_TOL * self.norm {
                cluster = j;
            }
            let lu = ShiftedLu::factor(self, lambda);
            for (i, xi) in x.iter_mut().enumerate() {
                let bits = derive_seed(j as u64, i as u64) >> 11;
                *xi = bits as f64 * f64::EPSILON - 1.0;
            }
            for solve in 0..=INVERSE_SOLVES {
                for q in 0..j - cluster {
                    let earlier = found.row(cluster + q);
                    let c = dot(earlier, &x);
                    for (xi, &e) in x.iter_mut().zip(earlier) {
                        *xi -= c * e;
                    }
                }
                let norm = dot(&x, &x).sqrt();
                if !(norm > 0.0 && norm.is_finite()) {
                    return Err(LinalgError::ConvergenceFailure {
                        op: "symmetric_top (inverse iteration)",
                        iterations: solve,
                    });
                }
                for xi in &mut x {
                    *xi /= norm;
                }
                if solve < INVERSE_SOLVES {
                    lu.solve(&mut x);
                }
            }
            found.row_mut(j).copy_from_slice(&x);
        }
        Ok(found.transpose())
    }
}

/// `T − λ·I` factored by Gaussian elimination with partial pivoting:
/// `P·(T − λI) = L·U`, with `U` carrying two superdiagonals. Pivots
/// smaller than `ε·‖T‖` in magnitude are raised to it (keeping their
/// sign), as inverse iteration wants at an eigenvalue.
struct ShiftedLu {
    /// Multipliers of `L`.
    l: Vec<f64>,
    /// Whether step `i` swapped rows `i` and `i + 1`.
    swapped: Vec<bool>,
    /// Diagonal and the two superdiagonals of `U`.
    u0: Vec<f64>,
    u1: Vec<f64>,
    u2: Vec<f64>,
}

impl ShiftedLu {
    fn factor(tri: &Tridiagonal, lambda: f64) -> Self {
        let n = tri.diag.len();
        let mut u0: Vec<f64> = tri.diag.iter().map(|d| d - lambda).collect();
        let mut u1 = tri.off.clone();
        let mut u2 = vec![0.0; n.saturating_sub(2)];
        let mut l = tri.off.clone();
        let mut swapped = vec![false; n - 1];
        for i in 0..n - 1 {
            if u0[i].abs() >= l[i].abs() {
                l[i] = if u0[i] == 0.0 { 0.0 } else { l[i] / u0[i] };
                u0[i + 1] -= l[i] * u1[i];
            } else {
                let fact = u0[i] / l[i];
                u0[i] = l[i];
                l[i] = fact;
                let above = u1[i];
                u1[i] = u0[i + 1];
                u0[i + 1] = above - fact * u0[i + 1];
                if i + 2 < n {
                    u2[i] = u1[i + 1];
                    u1[i + 1] *= -fact;
                }
                swapped[i] = true;
            }
        }
        let delta = f64::EPSILON * tri.norm;
        for u in &mut u0 {
            if u.abs() < delta {
                *u = delta.copysign(*u);
            }
        }
        ShiftedLu {
            l,
            swapped,
            u0,
            u1,
            u2,
        }
    }

    /// Overwrites `x` with `(T − λI)⁻¹·x`.
    fn solve(&self, x: &mut [f64]) {
        let n = x.len();
        for i in 0..n - 1 {
            if self.swapped[i] {
                let top = x[i];
                x[i] = x[i + 1];
                x[i + 1] = top - self.l[i] * x[i];
            } else {
                x[i + 1] -= self.l[i] * x[i];
            }
        }
        x[n - 1] /= self.u0[n - 1];
        if n > 1 {
            x[n - 2] = (x[n - 2] - self.u1[n - 2] * x[n - 1]) / self.u0[n - 2];
        }
        for i in (0..n.saturating_sub(2)).rev() {
            x[i] = (x[i] - self.u1[i] * x[i + 1] - self.u2[i] * x[i + 2]) / self.u0[i];
        }
    }
}

/// Carries eigenvectors of `T` (the columns of `z`) back to eigenvectors
/// of `M`: `z ← Q·z`, applying `H_{n−3}` first and `H_0` last. Each
/// reflection is one pass down the rows of `z` summing `v_kᵀ·z` and one
/// subtracting `τ_k·v_k·(v_kᵀ·z)`, so a column's arithmetic never
/// depends on the other columns.
fn back_transform(reflectors: &Matrix, tau: &[f64], z: &mut Matrix) {
    let mut s = vec![0.0; z.cols()];
    for (k, &tk) in tau.iter().enumerate().rev() {
        if tk == 0.0 {
            continue;
        }
        let v = &reflectors.row(k)[k + 1..];
        s.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            for (sj, &zj) in s.iter_mut().zip(z.row(k + 1 + i)) {
                *sj += vi * zj;
            }
        }
        for sj in &mut s {
            *sj *= tk;
        }
        for (i, &vi) in v.iter().enumerate() {
            for (zj, &sj) in z.row_mut(k + 1 + i).iter_mut().zip(&s) {
                *zj -= vi * sj;
            }
        }
    }
}

/// Negates every column whose largest-magnitude entry (the first, among
/// equals) is negative.
fn fix_signs(z: &mut Matrix) {
    for j in 0..z.cols() {
        let lead =
            (0..z.rows())
                .map(|i| z[(i, j)])
                .fold(0.0f64, |m, x| if x.abs() > m.abs() { x } else { m });
        if lead < 0.0 {
            for i in 0..z.rows() {
                z[(i, j)] = -z[(i, j)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::random::gaussian_matrix;
    use proptest::prelude::*;

    /// The cyclic Jacobi eigensolver the crate ran before
    /// [`symmetric_top`], kept as the reference it is measured against:
    /// all `n` eigenpairs, eigenvalues descending, vectors as columns.
    fn jacobi(a: &Matrix) -> (Vec<f64>, Matrix) {
        let n = a.rows();
        let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let mut v = Matrix::identity(n);
        let tol = 1e-14 * m.frobenius_norm().max(f64::MIN_POSITIVE);
        for _sweep in 0..64 {
            if off_diagonal_norm(&m) <= tol {
                break;
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows p and q of M and mirror row q into its
                    // column; the four crossing entries are set after.
                    let (row_p, row_q) = split_two_rows(&mut m, p, q);
                    rotate_rows(row_p, row_q, c, s);
                    let data = m.as_mut_slice();
                    for i in 0..n {
                        data[i * n + q] = data[q * n + i];
                    }
                    m[(p, p)] = app - t * apq;
                    m[(q, q)] = aqq + t * apq;
                    m[(p, q)] = 0.0;
                    m[(q, p)] = 0.0;
                    // `v` holds Vᵀ: its rows are the eigenvectors.
                    let (vrow_p, vrow_q) = split_two_rows(&mut v, p, q);
                    rotate_rows(vrow_p, vrow_q, c, s);
                }
                let data = m.as_mut_slice();
                for i in 0..n {
                    data[i * n + p] = data[p * n + i];
                }
            }
        }
        assert!(off_diagonal_norm(&m) <= tol, "jacobi did not converge");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| m[(y, y)].total_cmp(&m[(x, x)]));
        let values = order.iter().map(|&i| m[(i, i)]).collect();
        let vectors = Matrix::from_fn(n, n, |i, j| v[(order[j], i)]);
        (values, vectors)
    }

    /// Applies the plane rotation `(x, y) ↦ (c·x − s·y, s·x + c·y)` to
    /// each element pair of two rows.
    fn rotate_rows(xs: &mut [f64], ys: &mut [f64], c: f64, s: f64) {
        for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
            let (xi, yi) = (*x, *y);
            *x = c * xi - s * yi;
            *y = s * xi + c * yi;
        }
    }

    /// Mutably borrows two distinct rows `a < b` of a matrix at once.
    fn split_two_rows(m: &mut Matrix, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        let cols = m.cols();
        let (head, tail) = m.as_mut_slice().split_at_mut(b * cols);
        (&mut head[a * cols..(a + 1) * cols], &mut tail[..cols])
    }

    fn off_diagonal_norm(m: &Matrix) -> f64 {
        let n = m.rows();
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    acc += m[(i, j)] * m[(i, j)];
                }
            }
        }
        acc.sqrt()
    }

    /// A symmetric `n × n` test matrix of one of five kinds: a plain
    /// Gaussian `B + Bᵀ`; a rank-deficient Gram (repeated zero
    /// eigenvalues); a block diagonal of two identical blocks (every
    /// eigenvalue exactly repeated); a sparse matrix with most entries
    /// exactly zero, some of them `-0.0`; and `c·I` plus one off-diagonal
    /// pair.
    fn symmetric_case(n: usize, kind: u8, seed: u64) -> Matrix {
        let g = gaussian_matrix(seed, n, n, 1.0);
        match kind {
            0 => Matrix::from_fn(n, n, |i, j| g[(i, j)] + g[(j, i)]),
            1 => ops::gram(&gaussian_matrix(seed, n.div_ceil(3), n, 1.0)),
            2 => {
                let h = n.div_ceil(2);
                let b = gaussian_matrix(seed, h, h, 1.0);
                Matrix::from_fn(n, n, |i, j| {
                    if i / h == j / h {
                        b[(i % h, j % h)] + b[(j % h, i % h)]
                    } else {
                        0.0
                    }
                })
            }
            3 => Matrix::from_fn(n, n, |i, j| {
                let (lo, hi) = (i.min(j), i.max(j));
                let x = g[(lo, hi)];
                if (lo * 7 + hi * 3) % 5 < 3 {
                    if x < 0.0 {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    x
                }
            }),
            _ => {
                let mut m = Matrix::identity(n).scaled(2.5);
                if n > 1 {
                    m[(0, n - 1)] = 0.75;
                    m[(n - 1, 0)] = 0.75;
                }
                m
            }
        }
    }

    /// `‖A·v_j − λ_j·v_j‖₂` for every pair, as `‖A‖_F` multiples.
    fn residuals(a: &Matrix, values: &[f64], vectors: &Matrix) -> Vec<f64> {
        let av = ops::matmul(a, vectors).unwrap();
        let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
        (0..values.len())
            .map(|j| {
                let r: f64 = (0..a.rows())
                    .map(|i| (av[(i, j)] - values[j] * vectors[(i, j)]).powi(2))
                    .sum();
                r.sqrt() / scale
            })
            .collect()
    }

    /// Residual bound per pair, as a multiple of `n·ε·‖A‖_F` (the
    /// worst of 1440 cases of every kind at n ≤ 48 was 2.7).
    const RESIDUAL: f64 = 8.0;
    /// Eigenvalue bound against the reference, as a multiple of
    /// `n·ε·‖A‖_F` (the worst of the same cases was 1.6).
    const VALUE: f64 = 8.0;
    /// Bound on `|VᵀV − I|`: within a cluster the Gram–Schmidt pass
    /// leaves `O(n·ε)`; across clusters the gap of at least
    /// `CLUSTER_TOL·‖T‖` turns `O(n·ε·‖T‖)` residuals into
    /// `O(n·ε / CLUSTER_TOL)`.
    fn orthonormality_bound(n: usize) -> f64 {
        2.0 * RESIDUAL * n as f64 * f64::EPSILON / CLUSTER_TOL
    }

    /// Holds the top `t` pairs of `a` to the bounds above, against the
    /// Jacobi reference: eigenvalues, residuals, orthonormality, and the
    /// kept subspace, whose distance from the reference's
    /// (`‖W_⊥ᵀ·V_t‖_F`, `W_⊥` the reference vectors past `t`) must stay
    /// within the sin-θ bound `(‖R‖_F + ‖R_ref‖_F) / gap` wherever the
    /// spectrum has a gap at `t`.
    fn check_against_jacobi(a: &Matrix, t: usize) -> std::result::Result<(), String> {
        let n = a.rows();
        let e = symmetric_top(a, t).map_err(|err| err.to_string())?;
        if e.values.len() != t || e.vectors.shape() != (n, t) {
            return Err(format!("shape {:?} for t = {t}", e.vectors.shape()));
        }
        let (want, w) = jacobi(a);
        let scale = a.frobenius_norm();
        let unit = n as f64 * f64::EPSILON * scale;
        for (j, (&got, &reference)) in e.values.iter().zip(&want).enumerate() {
            if (got - reference).abs() > VALUE * unit {
                return Err(format!("λ_{j} = {got} vs {reference}"));
            }
        }
        if e.values.windows(2).any(|pair| pair[1] > pair[0]) {
            return Err(format!("eigenvalues out of order: {:?}", e.values));
        }
        let res = residuals(a, &e.values, &e.vectors);
        if let Some((j, r)) = res
            .iter()
            .enumerate()
            .find(|(_, &r)| r > RESIDUAL * n as f64 * f64::EPSILON)
        {
            return Err(format!("residual of pair {j}: {r:e}·‖A‖_F"));
        }
        let vtv = ops::gram(&e.vectors);
        let orth = (0..t)
            .flat_map(|i| (0..t).map(move |j| (i, j)))
            .map(|(i, j)| (vtv[(i, j)] - if i == j { 1.0 } else { 0.0 }).abs())
            .fold(0.0, f64::max);
        if orth > orthonormality_bound(n) {
            return Err(format!("|VᵀV − I| = {orth:e}"));
        }
        let gap = if t > 0 && t < n {
            e.values[t - 1] - want[t]
        } else {
            0.0
        };
        if gap > 2.0 * VALUE * unit {
            let rest = Matrix::from_fn(n, n - t, |i, j| w[(i, t + j)]);
            let frobenius = |r: Vec<f64>| r.iter().map(|x| x * x).sum::<f64>().sqrt() * scale;
            let r_ours = frobenius(res);
            let r_ref = frobenius(residuals(a, &want[t..], &rest));
            let sin = ops::matmul_transa(&rest, &e.vectors)
                .unwrap()
                .frobenius_norm();
            let bound = (r_ours + r_ref) / gap + n as f64 * f64::EPSILON;
            if sin > bound {
                return Err(format!("subspace {sin:e} > {bound:e} (gap {gap:e})"));
            }
        }
        Ok(())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn top_pairs_match_the_jacobi_reference(
            n in 1usize..=48,
            kind in 0u8..5,
            seed in 0u64..10_000,
            pick in 0usize..=48,
        ) {
            let t = pick % (n + 1);
            let a = symmetric_case(n, kind, seed);
            let checked = check_against_jacobi(&a, t);
            prop_assert!(checked.is_ok(), "n={} kind={} t={}: {:?}", n, kind, t, checked);
        }

        #[test]
        fn top_t_is_bitwise_a_prefix_of_the_full_spectrum(
            n in 1usize..=48,
            kind in 0u8..5,
            seed in 0u64..10_000,
            pick in 0usize..=48,
        ) {
            let t = pick % (n + 1);
            let a = symmetric_case(n, kind, seed);
            let full = symmetric_top(&a, n).unwrap();
            let top = symmetric_top(&a, t).unwrap();
            let again = symmetric_top(&a, t).unwrap();
            prop_assert_eq!(bits(&top.values), bits(&full.values[..t]));
            prop_assert_eq!(
                bits(top.vectors.as_slice()),
                bits(full.vectors.first_cols(t).unwrap().as_slice())
            );
            prop_assert_eq!(bits(again.values.as_slice()), bits(&top.values));
            prop_assert_eq!(bits(again.vectors.as_slice()), bits(top.vectors.as_slice()));
        }
    }

    #[test]
    fn workload_shapes_match_the_jacobi_reference() {
        // The Gram matrices FSS (d' = 392) and disPCA (d' = 250) reduce
        // at the benchmark's k = 2, ε = 0.5, keeping t = 33: a Gaussian
        // point cloud, and a rank-6 signal over a flat noise bulk, where
        // t cuts into the bulk.
        for (d, rows, seed) in [(392, 1000, 1), (250, 800, 2)] {
            let noise = gaussian_matrix(seed, rows, d, 1.0);
            let signal = ops::matmul(
                &gaussian_matrix(seed + 10, rows, 6, 6.0),
                &gaussian_matrix(seed + 20, 6, d, 1.0),
            )
            .unwrap();
            for data in [noise.clone(), noise.add(&signal).unwrap()] {
                let checked = check_against_jacobi(&ops::gram(&data), 33);
                assert!(checked.is_ok(), "d={d}: {checked:?}");
            }
        }
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = symmetric_case(6, 0, 3);
            a[(2, 4)] = bad;
            for t in [0, 2, 6] {
                assert!(
                    matches!(symmetric_top(&a, t), Err(LinalgError::NonFinite { .. })),
                    "{bad} at t = {t}"
                );
            }
        }
    }

    #[test]
    fn power_of_two_scaling_is_exact() {
        // Entries near 1e-301 and 1e301 give the same vectors, bit for
        // bit, and eigenvalues scaled exactly: no tolerance underflows
        // and no inverse-iteration solve overflows.
        for kind in 0..5 {
            let a = symmetric_case(20, kind, 4);
            let want = symmetric_top(&a, 7).unwrap();
            for k in [-1000, -30, 30, 1000] {
                let s = 2f64.powi(k);
                let got = symmetric_top(&a.scaled(s), 7).unwrap();
                let scaled: Vec<f64> = want.values.iter().map(|&l| l * s).collect();
                assert_eq!(bits(&got.values), bits(&scaled), "kind {kind}, 2^{k}");
                assert_eq!(
                    bits(got.vectors.as_slice()),
                    bits(want.vectors.as_slice()),
                    "kind {kind}, 2^{k}"
                );
            }
        }
    }

    #[test]
    fn signs_put_the_largest_entry_first_positive() {
        for kind in 0..5 {
            let a = symmetric_case(17, kind, 8);
            let e = symmetric_top(&a, 17).unwrap();
            for j in 0..17 {
                let col = e.vectors.col(j);
                let lead = col
                    .iter()
                    .fold(0.0f64, |m, &x| if x.abs() > m.abs() { x } else { m });
                assert!(lead > 0.0, "kind {kind}, column {j}");
            }
        }
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 7.0],
        ]);
        let e = symmetric_top(&a, 3).unwrap();
        assert!((e.values[0] - 7.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] + 1.0).abs() < 1e-12);
        // The sign rule makes each vector the positive unit axis.
        for (j, axis) in [2, 0, 1].into_iter().enumerate() {
            assert!((e.vectors[(axis, j)] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reconstruction_from_random_symmetric() {
        let g = gaussian_matrix(31, 8, 8, 1.0);
        let a = ops::gram(&g); // symmetric PSD
        let e = symmetric_top(&a, 8).unwrap();
        // A ≈ V diag(λ) Vᵀ
        let mut lam = Matrix::zeros(8, 8);
        for i in 0..8 {
            lam[(i, i)] = e.values[i];
        }
        let vl = ops::matmul(&e.vectors, &lam).unwrap();
        let back = ops::matmul_transb(&vl, &e.vectors).unwrap();
        assert!(back.approx_eq(&a, 1e-8), "reconstruction failed");
    }

    #[test]
    fn psd_gram_has_nonnegative_eigenvalues() {
        let g = gaussian_matrix(13, 20, 6, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_top(&a, 6).unwrap();
        for &l in &e.values {
            assert!(l > -1e-9, "PSD eigenvalue {l} negative");
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let g = gaussian_matrix(99, 9, 9, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_top(&a, 9).unwrap();
        let trace: f64 = (0..9).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_top(&a, 2).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Top eigenvector (1, 1)/√2.
        let v0 = e.vectors.col(0);
        assert!((v0[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square_empty_and_too_many_pairs() {
        assert!(symmetric_top(&Matrix::zeros(2, 3), 1).is_err());
        assert!(symmetric_top(&Matrix::zeros(0, 0), 0).is_err());
        assert!(matches!(
            symmetric_top(&Matrix::identity(3), 4),
            Err(LinalgError::RankOutOfRange {
                requested: 4,
                available: 3
            })
        ));
    }

    #[test]
    fn one_by_one_and_zero() {
        let e = symmetric_top(&Matrix::from_rows(&[vec![-5.0]]), 1).unwrap();
        assert!((e.values[0] + 5.0).abs() < 1e-14);
        assert_eq!(e.vectors.as_slice(), &[1.0]);
        let z = symmetric_top(&Matrix::zeros(4, 4), 2).unwrap();
        assert_eq!(z.values, vec![0.0, 0.0]);
        assert_eq!(z.vectors, Matrix::identity(4).first_cols(2).unwrap());
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // 2·I has eigenvalue 2 with multiplicity 3.
        let a = Matrix::identity(3).scaled(2.0);
        let e = symmetric_top(&a, 3).unwrap();
        for &l in &e.values {
            assert!((l - 2.0).abs() < 1e-12);
        }
        let vtv = ops::gram(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-10));
    }
}
