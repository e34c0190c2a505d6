//! # SEMSIM — adaptive Monte Carlo simulation of single-electron devices
//!
//! A Rust reproduction of *"Adaptive Simulation for Single-Electron
//! Devices"* (Allec, Knobel, Shang — DATE 2008). This facade crate
//! re-exports the whole workspace:
//!
//! * [`core`] — orthodox-theory Monte Carlo engine, cotunneling,
//!   superconducting (quasi-particle + Cooper-pair) transport, and the
//!   adaptive solver (the paper's Algorithm 1).
//! * [`netlist`] — the SPICE-like input format (the paper's Example
//!   Input File 1) and the gate-level logic netlist format.
//! * [`logic`] — nSET/pSET logic gates and the 15 benchmark circuits of
//!   the paper's evaluation.
//! * [`spice`] — the analytical SET model + transient nodal simulator
//!   used as the comparison baseline.
//! * [`check`] — static circuit/netlist analysis (diagnostics SC001–SC011)
//!   run before engine construction; also behind `semsim lint`.
//! * [`serve`] — the `semsim serve` HTTP daemon: admission control,
//!   job journals, and crash-safe restart over the batch layer.
//! * [`chaos`] — the `semsim chaos` fault-campaign harness:
//!   deterministic composed faults across the engine, batch, journal,
//!   and serve layers, checked against the recovery invariants, with
//!   minimized replayable repros.
//! * [`validate`] — the `semsim validate` cross-engine validation
//!   harness: a declared grid of operating points comparing the
//!   adaptive engine against the analytical baseline and the exact
//!   non-adaptive solver under stated statistical tolerances.
//! * [`linalg`], [`quad`] — the numerical substrates.
//!
//! # Quickstart
//!
//! ```
//! use semsim::core::circuit::CircuitBuilder;
//! use semsim::core::engine::{RunLength, SimConfig, Simulation};
//!
//! # fn main() -> Result<(), semsim::core::CoreError> {
//! let mut b = CircuitBuilder::new();
//! let src = b.add_lead(20e-3);
//! let drn = b.add_lead(-20e-3);
//! // Background charge e/2 biases the island at the charge degeneracy
//! // point, where the Coulomb blockade is lifted.
//! let island = b.add_island_with_charge(0.5);
//! let j1 = b.add_junction(src, island, 1e6, 1e-18)?;
//! b.add_junction(island, drn, 1e6, 1e-18)?;
//! let circuit = b.build()?;
//! let mut sim = Simulation::new(&circuit, SimConfig::new(5.0))?;
//! let record = sim.run(RunLength::Events(10_000))?;
//! println!("I = {:.3e} A", record.current(j1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use semsim_chaos as chaos;
pub use semsim_check as check;
pub use semsim_core as core;
pub use semsim_linalg as linalg;
pub use semsim_logic as logic;
pub use semsim_netlist as netlist;
pub use semsim_quad as quad;
pub use semsim_serve as serve;
pub use semsim_spice as spice;
pub use semsim_validate as validate;
