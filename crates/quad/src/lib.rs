//! Numerical integration and physics special functions for SEMSIM.
//!
//! The superconducting quasi-particle tunneling rate (paper Eq. 3) is a
//! convolution of two BCS densities of states with Fermi factors; the BCS
//! density of states diverges as an inverse square root at the gap edges,
//! so the integral needs quadrature that tolerates endpoint singularities.
//! This crate provides:
//!
//! * [`tanh_sinh`] — double-exponential quadrature, which handles
//!   integrable endpoint singularities;
//! * [`adaptive_simpson`] and [`gauss_legendre`] — for smooth integrands;
//! * physics helpers: [`fermi`], [`bcs_dos`], [`bcs_gap`],
//!   [`occupancy_factor`] (a numerically stable `x / expm1(x)`);
//! * [`LookupTable`] — monotone-grid linear interpolation used to cache
//!   expensive rate functions during Monte Carlo runs.
//!
//! # Example
//!
//! ```
//! // ∫₀¹ 1/√x dx = 2, an endpoint-singular integral.
//! let v = semsim_quad::tanh_sinh(|x| 1.0 / x.sqrt(), 0.0, 1.0, 1e-10);
//! // √ε_machine accuracy floor for inverse-sqrt endpoint singularities.
//! assert!((v - 2.0).abs() < 1e-7);
//! ```

#![forbid(unsafe_code)]

mod bcs;
mod integrate;
mod stable;
mod table;

pub use bcs::{bcs_dos, bcs_gap, fermi, BCS_GAP_TANH_COEFF};
pub use integrate::{adaptive_simpson, gauss_legendre, tanh_sinh};
pub use stable::{log1p_exp, occupancy_factor};
pub use table::{LookupTable, TableError};
