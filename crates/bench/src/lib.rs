//! Benchmark harness for the SEMSIM reproduction: shared device
//! constructors, analytic feature calculators and timing helpers used
//! by the per-figure binaries (`fig1b`, `fig1c`, `fig5`, `fig6`,
//! `fig7`, `cotunnel_check`, `jqp_cycles`, `adaptive_locality`,
//! `ablation`).
//!
//! Each binary regenerates one table/figure of the paper; see
//! EXPERIMENTS.md at the workspace root for the experiment index and
//! recorded outputs.

#![forbid(unsafe_code)]

pub mod args;
pub mod devices;
pub mod features;
pub mod timing;
