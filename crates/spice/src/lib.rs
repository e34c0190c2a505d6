//! The analytical "SPICE" baseline of the paper's evaluation.
//!
//! The paper compares SEMSIM against an analytical SET model simulated
//! in SPICE (an extended Inokawa–Takahashi model with multiple gates).
//! This crate provides the equivalent baseline built from scratch:
//!
//! * [`SetModel`] — a compact, analytical steady-state model of a SET's
//!   drain current: the exact stationary solution of the sequential-
//!   tunneling master equation over a window of island charge states.
//!   Like Inokawa's model it is **first-order only**: no cotunneling
//!   and no inter-device charge coupling (devices interact solely
//!   through node voltages) — precisely the limitations the paper
//!   ascribes to the SPICE approach (§I).
//! * [`nodal`] — a small transient nodal simulator: Newton–Raphson with
//!   backward-Euler integration, supporting capacitors, DC sources and
//!   SET devices. Non-convergence is reported as an error, mirroring
//!   the SPICE failures the paper observed on three benchmarks.
//! * [`logic_map`] — maps the logic crate's nSET/pSET netlists onto the
//!   analytical model so the same benchmarks run on both engines.
//!
//! # Example
//!
//! ```
//! use semsim_spice::SetModel;
//!
//! // The paper's Fig. 1b SET at T = 5 K.
//! let set = SetModel::symmetric(1e6, 1e-18, 3e-18, 5.0);
//! let on = set.drain_current(0.02, -0.02, 0.04); // gate near e/2Cg
//! let off = set.drain_current(0.005, -0.005, 0.0);
//! assert!(on.abs() > 10.0 * off.abs());
//! ```

#![forbid(unsafe_code)]

pub mod logic_map;
pub mod nodal;

mod error;
mod model;

pub use error::SpiceError;
pub use model::SetModel;
