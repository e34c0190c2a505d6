//! Cross-engine validation harness behind `semsim validate`.
//!
//! The paper's core claim is that the adaptive Monte Carlo engine
//! reproduces orthodox-theory observables within statistical error.
//! This crate turns that claim into a standing, CI-enforced table: a
//! declared grid of SET operating points (normal and superconducting)
//! plus a logic-benchmark delay point, each comparing the adaptive
//! engine against a reference under a *stated* tolerance derived from
//! the ensemble standard error (`σ/√n`), not a magic constant.
//!
//! Two reference kinds exist, because no single oracle covers the
//! whole grid:
//!
//! * [`Reference::Analytic`] — the `semsim-spice` stationary
//!   master-equation model ([`semsim_spice::SetModel`]). Exact (no
//!   sampling noise), but first-order and normal-state only.
//! * [`Reference::NonAdaptiveMc`] — the non-adaptive exact Monte Carlo
//!   solver on the same circuit, independently seeded. Covers the
//!   superconducting points and logic delays where no analytic model
//!   exists; its own standard error enters the tolerance.
//!
//! The harness emits a byte-stable, human-readable pass/fail table and
//! a schema-versioned machine report (`results/VALIDATE.json`, verified
//! by `semsim json-verify`). It measures no wall-clock time: the
//! optimized-vs-dense speedup is the `hotpath` harness's job.
//!
//! See `docs/validation.md` for the grid, the tolerance math, and how
//! to add a point.

#![forbid(unsafe_code)]

pub mod grid;
pub mod report;
pub mod run;
pub mod tolerance;

pub use grid::{grid, DeviceParams, GridPoint, LogicPoint, Profile, Reference, SetPoint};
pub use report::{check_report, render_table, report_json};
pub use run::{run_grid, run_points, PointResult, RunOptions, ValidationRun};
pub use tolerance::{combined_sem, sem, tolerance};
