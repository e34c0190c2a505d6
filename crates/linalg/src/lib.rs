//! Dense linear algebra for SEMSIM.
//!
//! Single-electron circuit simulation needs exactly one nontrivial linear
//! algebra operation: building the island-block capacitance matrix `C` and
//! inverting it (the paper's `C⁻¹` in Eq. 2). `C` is assembled dense, and
//! a dense LU with partial pivoting factors it. Each island couples to
//! only a few neighbours, so the factor has a narrow profile, and
//! [`LuDecomposition::inverse_columns`] sums over the factor's nonzeros
//! only: an `O(n² + n·nnz(LU))` inverse that is bitwise the same as `n`
//! dense solves. It writes `C⁻¹` column by column, one column per row of
//! the result, because the simulator reads it by column; the inverse is
//! dense and stored dense, with no truncated view.
//!
//! # Example
//!
//! ```
//! use semsim_linalg::Matrix;
//!
//! # fn main() -> Result<(), semsim_linalg::LinalgError> {
//! let c = Matrix::from_rows(&[&[4.0, -1.0], &[-1.0, 3.0]])?;
//! let inv = c.inverse()?;
//! let id = c.mul(&inv)?;
//! assert!((id.get(0, 0) - 1.0).abs() < 1e-12);
//! assert!(id.get(0, 1).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
mod lu;
mod matrix;
mod vector;

pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use vector::{axpy, dot, norm_inf, norm_two};
