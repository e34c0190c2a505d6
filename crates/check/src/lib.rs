//! Static analysis for single-electron circuits and logic netlists.
//!
//! Simulating a malformed circuit wastes hours of Monte Carlo time on
//! results that are garbage from the first event: a capacitively
//! floating island makes the electrostatics singular, an island with no
//! tunnel path never changes charge, a combinational loop makes a logic
//! netlist unevaluable. This crate runs *before* engine construction
//! and reports such defects as structured diagnostics with source
//! locations, rustc-style.
//!
//! The second generation of the analyzer adds a typed dataflow IR
//! ([`CircuitModel`] / [`LogicModel`] record sources, swept parameters,
//! stimuli, probes and observed junctions, not just topology), an
//! influence-reachability pass over the capacitance graph
//! (the `reach` pass, diagnostics SC014–SC018), and machine-applicable
//! fix-it suggestions ([`Suggestion`]) that `semsim lint --fix` applies
//! in place.
//!
//! # Diagnostic codes
//!
//! | code | check | severity |
//! |---|---|---|
//! | SC001 | island with no capacitive path to a lead/ground | error |
//! | SC002 | singular island capacitance matrix | error |
//! | SC003 | ill-conditioned capacitance matrix (κ₁ > 10¹²) | warning |
//! | SC004 | non-positive / non-finite physical parameter | error |
//! | SC005 | island with no tunnel-junction path to a lead/ground | warning |
//! | SC006 | combinational cycle in the gate graph | error |
//! | SC007 | undriven signal (error) / unused gate output (warning) | mixed |
//! | SC008 | `symm` without source (error) / asymmetric mirror (warning) | mixed |
//! | SC009 | T ≥ Tc (error) / Δ(0) far from BCS 1.764·kB·Tc (warning) | mixed |
//! | SC014 | dead sweep / dead logic input (no influence on any observable) | warning |
//! | SC015 | constant-foldable sweep or stimulus | warning |
//! | SC016 | probe on a node whose potential is constant | warning |
//! | SC017 | adaptive threshold outside its validity regime | warning |
//! | SC018 | conflicting stimuli on the same lead at the same time | error |
//!
//! SC001–SC003 and SC005 run on the abstract [`CircuitModel`]; SC006 and
//! SC007 on the abstract [`LogicModel`]. SC004, SC008 and SC009 concern
//! netlist directives and are implemented in `semsim-netlist::lint`
//! using this crate's diagnostic vocabulary. SC014–SC018 run on the
//! dataflow facts carried by the models; a model built without those
//! facts (no sweep, no stimuli, no probes) is trivially clean.
//!
//! # Example
//!
//! ```
//! use semsim_check::{check_circuit, CircuitModel, ModelNode, Span};
//!
//! let mut m = CircuitModel::new();
//! let lead = m.add_lead();
//! let isl = m.add_island_at(Span::line(2));
//! m.add_junction(lead, isl, 1e-6, 1e-18);
//! // No second electrode: the island floats only if nothing anchors it.
//! m.add_junction(isl, ModelNode::GROUND, 1e-6, 1e-18);
//! assert!(check_circuit(&m).is_empty());
//! ```

mod circuit;
mod diag;
mod fixit;
mod ir;
mod json;
mod logic;
mod reach;

pub use circuit::{check_circuit, CONDITION_THRESHOLD};
pub use diag::{DiagCode, Diagnostic, Diagnostics, Severity, Span};
pub use fixit::{apply_suggestions, Applicability, Edit, Suggestion};
pub use ir::{
    AdaptiveInfo, CircuitModel, LogicModel, ModelEdge, ModelNode, ProbeInfo, StimulusInfo,
    SweepInfo,
};
pub use json::{parse_json, report_to_json, validate_report, Json, JsonFileReport};
pub use logic::check_logic;
pub use reach::{COUPLING_EPS, THETA_KT_LIMIT};
