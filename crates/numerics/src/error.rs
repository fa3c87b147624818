//! Error type shared by every solver in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericsError {
    /// Matrix dimensions do not match the operation (`rows × cols` given).
    DimensionMismatch {
        /// What the caller tried to do.
        op: &'static str,
        /// Dimensions that were expected.
        expected: (usize, usize),
        /// Dimensions that were supplied.
        found: (usize, usize),
    },
    /// A factorization hit a pivot too small to divide by: the matrix is
    /// singular (or numerically so) at the given elimination step.
    Singular {
        /// Elimination step at which the zero pivot appeared.
        step: usize,
    },
    /// Cholesky found a non-positive diagonal: the matrix is not positive
    /// definite.
    NotPositiveDefinite {
        /// Row at which positive definiteness failed.
        row: usize,
    },
    /// The matrix is not square but the operation requires it.
    NotSquare {
        /// Dimensions that were supplied.
        found: (usize, usize),
    },
    /// An index was out of bounds for the matrix shape.
    IndexOutOfBounds {
        /// The offending `(row, col)` index.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// Input slice rows had inconsistent lengths.
    RaggedRows,
    /// A matrix entry (or vector element) was NaN or infinite.
    NonFinite {
        /// What the caller tried to do.
        op: &'static str,
        /// The offending `(row, col)` index (vectors use column 0).
        index: (usize, usize),
    },
    /// The operation observed its [`crate::cancel::CancelToken`] set and
    /// stopped cooperatively (deadline enforcement, not a numeric failure).
    Cancelled {
        /// The kernel that was interrupted.
        op: &'static str,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::DimensionMismatch {
                op,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {op}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            NumericsError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            NumericsError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite at row {row}")
            }
            NumericsError::NotSquare { found } => {
                write!(f, "matrix must be square, found {}x{}", found.0, found.1)
            }
            NumericsError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            NumericsError::RaggedRows => write!(f, "input rows have inconsistent lengths"),
            NumericsError::NonFinite { op, index } => {
                write!(f, "non-finite value in {op} at ({}, {})", index.0, index.1)
            }
            NumericsError::Cancelled { op } => write!(f, "{op} cancelled by deadline"),
        }
    }
}

impl Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = NumericsError::Singular { step: 3 };
        assert!(e.to_string().contains("singular"));
        assert!(e.to_string().contains('3'));
        let e = NumericsError::NotPositiveDefinite { row: 1 };
        assert!(e.to_string().contains("positive definite"));
        let e = NumericsError::NotSquare { found: (2, 3) };
        assert!(e.to_string().contains("2x3"));
        let e = NumericsError::DimensionMismatch {
            op: "solve",
            expected: (2, 2),
            found: (3, 1),
        };
        assert!(e.to_string().contains("solve"));
        let e = NumericsError::IndexOutOfBounds {
            index: (5, 5),
            shape: (2, 2),
        };
        assert!(e.to_string().contains("out of bounds"));
        assert!(NumericsError::RaggedRows
            .to_string()
            .contains("inconsistent"));
        let e = NumericsError::NonFinite {
            op: "audit",
            index: (1, 2),
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains("(1, 2)"));
        let e = NumericsError::Cancelled { op: "lu factor" };
        assert!(e.to_string().contains("cancelled"));
        assert!(e.to_string().contains("lu factor"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<NumericsError>();
    }
}
