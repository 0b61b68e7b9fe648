//! Dense linear-algebra substrate for the `edge-kmeans` workspace.
//!
//! This crate provides everything the paper's algorithms need from linear
//! algebra, implemented from scratch on a row-major dense [`Matrix`]:
//!
//! * basic operations: products, Gram matrices, transposes ([`ops`]),
//! * blocked pairwise-distance / nearest-center kernels ([`distance`]),
//! * the top-`t` eigenpairs of a symmetric matrix ([`eig`]),
//! * thin and top-`t` SVD ([`svd`]),
//! * Cholesky factorization and SPD solves ([`cholesky`]),
//! * Moore–Penrose pseudo-inverse ([`pinv`]) used to invert JL projections,
//! * seeded Gaussian / Rademacher sampling ([`random`]) used to build
//!   data-oblivious JL projection matrices from a shared seed.
//!
//! Datasets throughout the workspace are represented as a [`Matrix`] whose
//! rows are data points (`n × d`, matching the paper's `A_P` notation).
//!
//! # Example
//!
//! ```
//! use ekm_linalg::{Matrix, ops, svd};
//!
//! let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0], vec![0.0, 0.0]]);
//! let s = svd::thin_svd(&a).expect("svd");
//! assert!((s.singular_values[0] - 3.0).abs() < 1e-10);
//! let ata = ops::gram(&a);
//! assert_eq!(ata.rows(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cholesky;
pub mod distance;
pub mod eig;
mod error;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod pinv;
pub mod random;
pub mod svd;

pub use error::LinalgError;
pub use matrix::{Matrix, MatrixF32};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
