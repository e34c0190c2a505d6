//! Netlist front-end for SEMSIM.
//!
//! Two textual formats, both line-oriented with `#` comments:
//!
//! * the **circuit format** — the paper's Example Input File 1
//!   (`junc`/`cap`/`charge`/`vdc`/`symm`/`num`/`temp`/`cotunnel`/
//!   `record`/`jumps`/`sweep`, plus superconducting extensions) — parsed
//!   by [`CircuitFile`];
//! * the **logic format** — gate-level netlists (`input`/`output`/
//!   `inv`/`nand`/`nor`/`and`/`or`/`xor`/`xnor`/`buf`) that the logic
//!   crate elaborates into single-electron circuits — parsed by
//!   [`LogicFile`].
//!
//! # Example
//!
//! ```
//! use semsim_netlist::CircuitFile;
//!
//! # fn main() -> Result<(), semsim_netlist::ParseError> {
//! let f = CircuitFile::parse(
//!     "junc 1 1 4 1e-6 1e-18\n\
//!      junc 2 2 4 1e-6 1e-18\n\
//!      cap 3 4 3e-18\n\
//!      vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\n\
//!      temp 5\n",
//! )?;
//! assert_eq!(f.junctions.len(), 2);
//! assert_eq!(f.temperature, 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod circuit_file;
mod compile;
mod error;
pub mod lint;
mod logic_file;
mod render;

pub use circuit_file::{
    CapacitorDecl, CircuitFile, CircuitSpans, JumpDecl, JunctionDecl, LintAllow, ProbeDecl,
    RecordSpec, SuperDecl, SweepSpec,
};
pub use compile::{CompiledCircuit, ExecutionKind};
pub use error::ParseError;
pub use lint::{lint_circuit, lint_logic};
pub use logic_file::{gate_set_count, Gate, GateKind, LogicFile, RawLogicFile};
pub use render::{point_line, ResultLine};
