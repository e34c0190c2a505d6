//! Single-electron logic for SEMSIM: nSET/pSET voltage-state gates
//! (paper Fig. 4b), elaboration of gate-level netlists into
//! single-electron circuits, the 15 evaluation benchmarks, and
//! propagation-delay measurement.
//!
//! ## The nSET/pSET scheme
//!
//! Both transistor types are ordinary SETs with a second, constant-bias
//! gate (exactly the paper's description). The *nSET* bias places the
//! island at a Coulomb conductance degeneracy when the input is high
//! and deep in blockade when it is low; the *pSET* bias does the
//! opposite, with an extra `C_Σ·V_dd` tracking term so the degeneracy
//! follows the output node as it charges toward `V_dd` (without it the
//! pull-up stalls partway — see `SetLogicParams`). Gates are then built
//! CMOS-style: series/parallel pull-up and pull-down networks with a
//! load capacitor per logic node.
//!
//! Blocking requires the supply to stay below the blockade threshold:
//! `V_dd < e/C_Σ`. The default [`SetLogicParams`] satisfy this with
//! margin; [`SetLogicParams::validate`] checks it.
//!
//! # Example
//!
//! ```
//! use semsim_netlist::LogicFile;
//! use semsim_logic::{elaborate, SetLogicParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let logic = LogicFile::parse("input a\noutput y\ninv y a\n")?;
//! let elab = elaborate(&logic, &SetLogicParams::default())?;
//! assert_eq!(elab.junction_count(), 4); // 2 SETs × 2 junctions
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod benchmarks;
mod delay;
mod elaborate;
mod error;
pub mod library;
mod params;

pub use benchmarks::{synthesize, Benchmark};
pub use delay::{
    find_sensitizing_vector, measure_delay, measure_delay_avg, settle_outputs, DelayMeasurement,
};
pub use elaborate::{elaborate, lower, Elaborated};
pub use error::LogicError;
pub use params::SetLogicParams;
