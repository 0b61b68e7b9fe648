use std::error::Error;
use std::fmt;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An operation requiring a non-empty matrix received an empty one.
    EmptyMatrix {
        /// Human-readable name of the failing operation.
        op: &'static str,
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot at which factorization broke down.
        pivot: usize,
    },
    /// An iterative routine did not converge within its iteration budget.
    ConvergenceFailure {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An input held a NaN or infinite entry.
    NonFinite {
        /// Human-readable name of the failing operation.
        op: &'static str,
    },
    /// A requested rank/dimension exceeds what the matrix can provide.
    RankOutOfRange {
        /// The rank that was requested.
        requested: usize,
        /// The maximum rank available.
        available: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::EmptyMatrix { op } => {
                write!(f, "empty matrix passed to {op}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::ConvergenceFailure { op, iterations } => {
                write!(f, "{op} failed to converge after {iterations} iterations")
            }
            LinalgError::NonFinite { op } => {
                write!(f, "non-finite entry passed to {op}")
            }
            LinalgError::RankOutOfRange {
                requested,
                available,
            } => write!(
                f,
                "requested rank {requested} exceeds available rank {available}"
            ),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = LinalgError::NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
    }

    #[test]
    fn display_convergence_failure() {
        let e = LinalgError::ConvergenceFailure {
            op: "jacobi",
            iterations: 100,
        };
        assert!(e.to_string().contains("jacobi"));
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn display_empty_and_rank() {
        assert!(LinalgError::EmptyMatrix { op: "qr" }
            .to_string()
            .contains("qr"));
        let e = LinalgError::RankOutOfRange {
            requested: 9,
            available: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn display_non_finite() {
        let e = LinalgError::NonFinite {
            op: "symmetric_top",
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains("symmetric_top"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<LinalgError>();
    }
}
