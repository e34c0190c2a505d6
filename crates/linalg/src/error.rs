use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra substrate.
///
/// # Example
///
/// ```
/// use semsim_linalg::{LinalgError, Matrix};
///
/// let singular = Matrix::zeros(2, 2);
/// assert!(matches!(singular.lu(), Err(LinalgError::Singular { .. })));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Shape of the left operand (rows, cols).
        left: (usize, usize),
        /// Shape of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// A ragged row list was passed to a constructor.
    RaggedRows {
        /// Number of columns in the first row.
        expected: usize,
        /// Number of columns in the offending row.
        found: usize,
    },
    /// The matrix is singular (or numerically so) at the given pivot.
    Singular {
        /// Pivot index where elimination broke down.
        pivot: usize,
    },
    /// The matrix is not square but a square matrix was required.
    NotSquare {
        /// Actual shape (rows, cols).
        shape: (usize, usize),
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} is incompatible with {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::RaggedRows { expected, found } => write!(
                f,
                "ragged rows: expected {expected} columns, found a row with {found}"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix is {}x{}, expected square", shape.0, shape.1)
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "shape mismatch: 2x3 is incompatible with 4x5"
        );
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular { pivot: 3 };
        assert_eq!(e.to_string(), "matrix is singular at pivot 3");
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { shape: (2, 5) };
        assert_eq!(e.to_string(), "matrix is 2x5, expected square");
    }

    #[test]
    fn display_ragged() {
        let e = LinalgError::RaggedRows {
            expected: 3,
            found: 2,
        };
        assert_eq!(
            e.to_string(),
            "ragged rows: expected 3 columns, found a row with 2"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
