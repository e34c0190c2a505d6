//! Linear algebra for SEMSIM.
//!
//! Single-electron circuit simulation needs exactly one nontrivial linear
//! algebra operation: building the island-block capacitance matrix `C` and
//! inverting it (the paper's `C⁻¹` in Eq. 2). Each island couples to only
//! a few neighbours, so `C` is assembled sparse ([`SymmetricMatrix`]),
//! ordered by greedy minimum degree and factored as `L·D·Lᵀ`
//! ([`LdlFactor`]), which keeps a few entries of `L` per row. The inverse
//! is solved from that factor column by column and truncated where an
//! entry is below a relative cutoff ([`LdlFactor::truncated_inverse`]),
//! into one [`SparseColumns`] store; no `n × n` block is formed. The
//! static checker's singularity and condition checks run on the same
//! factor ([`SymmetricMatrix::condition_estimate`]). Dense [`Matrix`]
//! and [`LuDecomposition`] serve the nonsymmetric dense systems: the
//! SPICE baseline's nodal Jacobian and the master equation.
//!
//! # Example
//!
//! ```
//! use semsim_linalg::SymmetricMatrix;
//!
//! # fn main() -> Result<(), semsim_linalg::LinalgError> {
//! let c = SymmetricMatrix::from_entries(vec![4.0, 3.0], &[(0, 1, -1.0)]);
//! let inv = c.ldl()?.truncated_inverse(1e-8);
//! // C·C⁻¹ = I: row 0 of C dotted with column 1 of C⁻¹.
//! assert!((4.0 * inv.get(0, 1) - inv.get(1, 1)).abs() < 1e-12);
//! assert!((inv.get(0, 1) - inv.get(1, 0)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
mod lu;
mod matrix;
mod sparse;
mod vector;

pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use sparse::{LdlFactor, SparseColumn, SparseColumns, SymmetricMatrix};
pub use vector::{dot, norm_inf};

/// A pivot this small is treated as zero: an LU pivot whose magnitude
/// is below it, an LDLᵀ pivot that is not above it. The test is absolute,
/// not relative to the matrix's scale. It catches a column that is zero
/// or cancels to exactly zero, such as an island with no capacitance;
/// rounding can leave a singular island cluster a tiny nonzero pivot
/// that passes. Capacitance matrices in farads have entries near
/// 1e-18, far above the threshold.
const PIVOT_EPS: f64 = 1e-300;
