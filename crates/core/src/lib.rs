//! SEMSIM core: adaptive multi-scale Monte Carlo simulation of
//! single-electron devices.
//!
//! This crate reproduces the simulator of *"Adaptive Simulation for
//! Single-Electron Devices"* (Allec, Knobel, Shang — DATE 2008):
//! orthodox-theory Monte Carlo simulation of single-electron circuits,
//! with second-order inelastic cotunneling, superconducting
//! quasi-particle and Cooper-pair tunneling, and the paper's **adaptive
//! solver** (Algorithm 1) that recomputes only the tunnel rates whose
//! inputs changed significantly after each event.
//!
//! # Architecture
//!
//! * [`circuit`] — circuit topology (leads, islands, tunnel junctions,
//!   capacitors) and the precomputed inverse capacitance matrix.
//! * [`energy`] — free-energy changes ΔW for tunnel events (paper Eq. 2).
//! * [`rates`] — the orthodox tunnel rate (Eq. 1) in numerically stable
//!   form.
//! * [`cotunnel`] — second-order inelastic cotunneling.
//! * [`superconduct`] — BCS quasi-particle rates (Eq. 3–4), Δ(T), and
//!   resonance-broadened Cooper-pair tunneling.
//! * [`master`] — the paper's third method: a bounded-window
//!   master-equation solver (device-level, noise-free reference).
//! * [`solver`] — the non-adaptive (conventional MC) and adaptive
//!   solvers; the adaptive hot loop runs batched kernels over flat
//!   structure-of-arrays junction buffers, bit-identical to the
//!   per-junction scalar path its dense-reference mode keeps.
//! * [`engine`] — the Monte Carlo event loop (Eq. 5), stimuli, recording
//!   and the per-point sweep measurement.
//! * [`health`] — numerical health guards, drift audits with graceful
//!   degradation, and the run supervisor (outcome taxonomy).
//! * [`checkpoint`] — versioned binary snapshots for
//!   checkpoint/resume of long runs.
//! * [`par`] — the deterministic work queue with counter-based seed
//!   splitting: bit-identical results for any thread count, panics
//!   isolated per task; [`par::par_indexed`] for plain fan-outs.
//! * [`batch`] — the sweep and ensemble drivers on top of [`par`]
//!   ([`batch::batch_sweep`], [`batch::batch_ensemble`]; a 2-D map is
//!   a sweep over the flattened grid): per-point retry with graceful
//!   degradation (reseed, θ-tightening, solver fallback),
//!   partial-result salvage ([`batch::BatchReport`]), and journaled
//!   crash-safe resume.
//! * [`journal`] — the append-only `SEMSIMJL` journal format behind
//!   `--journal`/`--resume` (shares the checkpoint codec).
//! * [`resource`] — the pre-admission memory/cost estimator behind
//!   `--max-memory` and serve's 413 admission guard.
//!
//! # Quickstart
//!
//! ```
//! use semsim_core::circuit::CircuitBuilder;
//! use semsim_core::engine::{RunLength, SimConfig, Simulation};
//!
//! # fn main() -> Result<(), semsim_core::CoreError> {
//! // A symmetric SET: source—[junction]—island—[junction]—drain, gate.
//! let mut b = CircuitBuilder::new();
//! let src = b.add_lead(10e-3);
//! let drn = b.add_lead(-10e-3);
//! let gate = b.add_lead(0.0);
//! let island = b.add_island();
//! let j1 = b.add_junction(src, island, 1e6, 1e-18)?;
//! let _j2 = b.add_junction(island, drn, 1e6, 1e-18)?;
//! b.add_capacitor(gate, island, 3e-18)?;
//! let circuit = b.build()?;
//!
//! let config = SimConfig::new(5.0).with_seed(7);
//! let mut sim = Simulation::new(&circuit, config)?;
//! let record = sim.run(RunLength::Events(20_000))?;
//! let current = record.current(j1);
//! assert!(current.abs() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod checkpoint;
pub mod circuit;
pub mod constants;
pub mod cotunnel;
pub mod energy;
pub mod engine;
pub mod events;
pub mod fenwick;
pub mod health;
pub mod journal;
pub mod master;
pub mod par;
pub mod rates;
pub mod resource;
pub mod rng;
pub mod solver;
pub mod superconduct;
pub mod trace;

mod error;
mod kernels;

pub use error::CoreError;
