//! The dense row-major [`Matrix`] type used to represent datasets and
//! operators throughout the workspace.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// Rows represent data points when the matrix stands for a dataset, matching
/// the paper's `A_P ∈ R^{n×d}` convention (each row is one point).
///
/// # Example
///
/// ```
/// use ekm_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer has {} entries, expected {}x{}={}",
            data.len(),
            rows,
            cols,
            rows * cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "from_rows: row {i} has length {}, expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Borrows the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let r = self.row(i);
            for (j, &v) in r.iter().enumerate() {
                t.data[j * self.rows + i] = v;
            }
        }
        t
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns the matrix scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Element-wise sum; errors on shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> crate::Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference; errors on shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn sub(&self, other: &Matrix) -> crate::Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> crate::Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm `Σ a_ij²`.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>()
    }

    /// Squared ℓ2 norm of every row.
    pub fn row_norms_sq(&self) -> Vec<f64> {
        self.iter_rows()
            .map(|r| r.iter().map(|v| v * v).sum())
            .collect()
    }

    /// Maximum ℓ2 norm over all rows (0 for an empty matrix).
    ///
    /// This is the `max_{p∈P} ‖p‖` appearing in the paper's quantization
    /// error bound (14).
    pub fn max_row_norm(&self) -> f64 {
        self.row_norms_sq()
            .into_iter()
            .fold(0.0f64, f64::max)
            .sqrt()
    }

    /// The mean of all rows (the optimal 1-means center `μ(P)`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no rows.
    pub fn mean_row(&self) -> Vec<f64> {
        assert!(self.rows > 0, "mean_row of empty matrix");
        let mut mean = vec![0.0; self.cols];
        for r in self.iter_rows() {
            for (m, &v) in mean.iter_mut().zip(r) {
                *m += v;
            }
        }
        let inv = 1.0 / self.rows as f64;
        for m in &mut mean {
            *m *= inv;
        }
        mean
    }

    /// Weighted mean of all rows with the given nonnegative weights.
    ///
    /// Returns the zero vector when the total weight is zero.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.rows()`.
    pub fn weighted_mean_row(&self, weights: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), self.rows, "weighted_mean_row: weight count");
        let mut mean = vec![0.0; self.cols];
        let mut total = 0.0;
        for (r, &w) in self.iter_rows().zip(weights) {
            total += w;
            for (m, &v) in mean.iter_mut().zip(r) {
                *m += w * v;
            }
        }
        if total > 0.0 {
            let inv = 1.0 / total;
            for m in &mut mean {
                *m *= inv;
            }
        }
        mean
    }

    /// Builds a new matrix from the rows at `indices` (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.cols != other.cols && !self.is_empty() && !other.is_empty() {
            return Err(LinalgError::DimensionMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if self.is_empty() {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Stacks several matrices vertically, taking them by value; empty
    /// inputs are skipped.
    ///
    /// The result is what folding [`vstack`](Matrix::vstack) over the
    /// parts from a `0 × 0` start gives, shape and error included: with
    /// no non-empty part it is the last part (or `0 × 0`), and a part
    /// whose width differs from the rows stacked so far is reported
    /// against them. A lone non-empty part is moved, not copied; several
    /// are stacked into the first one's buffer, grown once to the total,
    /// so each part is copied at most once.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the non-empty matrices
    /// disagree on column counts.
    pub fn vstack_all<I: IntoIterator<Item = Matrix>>(parts: I) -> crate::Result<Matrix> {
        let parts: Vec<Matrix> = parts.into_iter().collect();
        let total: usize = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| p.data.len())
            .sum();
        let mut acc = Matrix::zeros(0, 0);
        for p in parts {
            if acc.is_empty() {
                acc = p;
                if !acc.is_empty() {
                    acc.data.reserve_exact(total - acc.data.len());
                }
            } else if !p.is_empty() {
                if p.cols != acc.cols {
                    return Err(LinalgError::DimensionMismatch {
                        op: "vstack",
                        lhs: acc.shape(),
                        rhs: p.shape(),
                    });
                }
                acc.data.extend_from_slice(&p.data);
                acc.rows += p.rows;
            }
        }
        Ok(acc)
    }

    /// Returns the submatrix with the first `t` columns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RankOutOfRange`] if `t > self.cols()`.
    pub fn first_cols(&self, t: usize) -> crate::Result<Matrix> {
        if t > self.cols {
            return Err(LinalgError::RankOutOfRange {
                requested: t,
                available: self.cols,
            });
        }
        let mut m = Matrix::zeros(self.rows, t);
        for i in 0..self.rows {
            m.row_mut(i).copy_from_slice(&self.row(i)[..t]);
        }
        Ok(m)
    }

    /// Subtracts `v` from every row in place (e.g. mean-centering).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn sub_row_vector_mut(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.cols, "sub_row_vector_mut: length mismatch");
        let cols = self.cols;
        for i in 0..self.rows {
            let r = &mut self.data[i * cols..(i + 1) * cols];
            for (x, &vi) in r.iter_mut().zip(v) {
                *x -= vi;
            }
        }
    }

    /// `true` when all entries of the two matrices differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// A dense, row-major matrix of `f32` values — the storage behind the
/// opt-in f32 *compute* precision of the distance kernels.
///
/// This is deliberately a small mirror of [`Matrix`], not a generic
/// container: the only producer is [`MatrixF32::from_f64`] (one rounding
/// per entry, round-to-nearest-even), and the only consumers are the
/// kernels in [`crate::distance`], which never convert back row-wise —
/// results cross back into `f64` exactly once, at the distance level.
#[derive(Clone, PartialEq, Default)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// Rounds every entry of `m` to `f32`.
    pub fn from_f64(m: &Matrix) -> Self {
        MatrixF32 {
            rows: m.rows,
            cols: m.cols,
            data: m.data.iter().map(|&v| v as f32).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Borrows the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

impl fmt::Debug for MatrixF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatrixF32 {}x{}", self.rows, self.cols)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let r = self.row(i);
            let shown = r.len().min(8);
            for (j, v) in r.iter().take(shown).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if r.len() > shown {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Vec<f64>>> for Matrix {
    fn from(rows: Vec<Vec<f64>>) -> Self {
        Matrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 4).is_empty());
    }

    #[test]
    fn identity_is_identity() {
        let i3 = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.scale_mut(-1.0);
        assert_eq!(c.as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(matches!(
            a.add(&b),
            Err(LinalgError::DimensionMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.frobenius_norm_sq() - 25.0).abs() < 1e-12);
        assert_eq!(m.row_norms_sq(), vec![25.0, 0.0]);
        assert!((m.max_row_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mean_row_is_centroid() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]);
        assert_eq!(m.mean_row(), vec![1.0, 2.0]);
    }

    #[test]
    fn weighted_mean_row_weights() {
        let m = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        assert_eq!(m.weighted_mean_row(&[1.0, 3.0]), vec![7.5]);
        assert_eq!(m.weighted_mean_row(&[0.0, 0.0]), vec![0.0]);
    }

    #[test]
    fn select_rows_with_duplicates() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.as_slice(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn vstack_matrices() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let all = Matrix::vstack_all([a, b, Matrix::zeros(0, 0)]).unwrap();
        assert_eq!(all.shape(), (3, 2));
    }

    /// The fold `vstack_all` replaced: one `vstack` per part, from 0 × 0.
    fn reference_vstack_all(parts: &[Matrix]) -> crate::Result<Matrix> {
        let mut acc = Matrix::zeros(0, 0);
        for p in parts {
            acc = acc.vstack(p)?;
        }
        Ok(acc)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Stacking 1..=4 blocks by value gives the fold's shape, bits
        /// and errors, with empty blocks of every shape and widths that
        /// may disagree.
        #[test]
        fn vstack_all_is_the_vstack_fold(
            shapes in proptest::collection::vec((0usize..4, 0usize..4), 1..=4),
            seed in 0u64..1_000,
        ) {
            let parts: Vec<Matrix> = shapes
                .iter()
                .enumerate()
                .map(|(b, &(r, c))| {
                    Matrix::from_fn(r, c, |i, j| {
                        // Signed zeros and NaNs travel by bit pattern.
                        match (seed as usize + b + i * c + j) % 5 {
                            0 => -0.0,
                            1 => f64::NAN,
                            _ => (seed * 31 + (b * 16 + i * c + j) as u64) as f64 * 0.37,
                        }
                    })
                })
                .collect();
            let expected = reference_vstack_all(&parts);
            match (Matrix::vstack_all(parts), expected) {
                (Ok(got), Ok(want)) => {
                    proptest::prop_assert_eq!(got.shape(), want.shape());
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(&got), bits(&want));
                }
                (got, want) => proptest::prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    #[test]
    fn vstack_all_moves_a_lone_block() {
        let block = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let ptr = block.as_slice().as_ptr();
        let stacked =
            Matrix::vstack_all([Matrix::zeros(0, 4), block, Matrix::zeros(2, 0)]).unwrap();
        assert_eq!(stacked.shape(), (3, 4));
        assert_eq!(stacked.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn vstack_mismatch_errors() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(a.vstack(&b).is_err());
    }

    #[test]
    fn first_cols_slices() {
        let m = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f64);
        let f = m.first_cols(2).unwrap();
        assert_eq!(f.as_slice(), &[0.0, 1.0, 4.0, 5.0]);
        assert!(m.first_cols(5).is_err());
    }

    #[test]
    fn sub_row_vector_centers() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mean = m.mean_row();
        m.sub_row_vector_mut(&mean);
        let new_mean = m.mean_row();
        assert!(new_mean.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn debug_shows_shape() {
        let m = Matrix::zeros(2, 2);
        let s = format!("{m:?}");
        assert!(s.contains("2x2"));
        assert!(!s.is_empty());
    }

    #[test]
    fn map_applies_function() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(m.map(f64::abs).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn from_vec_and_into_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matrix_f32_rounds_and_mirrors_shape() {
        let m = Matrix::from_rows(&[vec![0.1, 2.0], vec![-3.5, 1e-40]]);
        let s = MatrixF32::from_f64(&m);
        assert_eq!(s.shape(), m.shape());
        assert_eq!(s.row(0), &[0.1f32, 2.0]);
        assert_eq!(s.row(1), &[-3.5f32, 1e-40f64 as f32]);
        assert_eq!(s.iter_rows().count(), 2);
        assert_eq!(s.as_slice().len(), 4);
    }

    #[test]
    fn iter_rows_counts() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f64);
        assert_eq!(m.iter_rows().count(), 4);
        let sums: Vec<f64> = m.iter_rows().map(|r| r.iter().sum()).collect();
        assert_eq!(sums, vec![0.0, 2.0, 4.0, 6.0]);
    }
}
