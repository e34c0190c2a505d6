//! Compilation of a parsed [`CircuitFile`] into a simulatable
//! [`semsim_core::circuit::Circuit`], and a small interpreter that
//! executes the file's `jumps`/`sweep` directives — the paper's "input
//! circuit interpretation" stage (Fig. 3).

use std::collections::HashMap;

use semsim_core::batch::{batch_ensemble, batch_sweep, BatchOpts, BatchReport, ReplicaSummary};
use semsim_core::circuit::{Circuit, CircuitBuilder, JunctionId, NodeId};
use semsim_core::constants::ev_to_joule;
use semsim_core::engine::{RunLength, SimConfig, Simulation, SolverSpec, Stimulus, SweepPoint};
use semsim_core::health::RunOutcome;
use semsim_core::par::ParOpts;
use semsim_core::resource::ResourceEstimate;
use semsim_core::superconduct::SuperconductingParams;
use semsim_core::CoreError;

use semsim_check::{Diagnostics, Severity};

use crate::{CircuitFile, ParseError};

/// What executing a [`CircuitFile`] means, resolved without compiling:
/// a declared `sweep` runs one point per grid voltage through
/// [`CircuitFile::execute_batch`]; anything else runs as an ensemble of
/// `jumps` replicas (a plain single run is a one-replica ensemble)
/// through [`CircuitFile::execute_ensemble_batch`]. The serve layer
/// dispatches jobs on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionKind {
    /// The file declares a `sweep` with this many grid points.
    Sweep {
        /// Points in the voltage grid.
        points: usize,
    },
    /// Independent-replica ensemble (`jumps <events> <runs>`).
    Ensemble {
        /// Replica count (1 for a plain single run).
        replicas: usize,
    },
}

impl ExecutionKind {
    /// Total tasks (batch points) this execution fans out.
    #[must_use]
    pub fn tasks(&self) -> usize {
        match *self {
            ExecutionKind::Sweep { points } => points,
            ExecutionKind::Ensemble { replicas } => replicas,
        }
    }
}

/// A compiled circuit plus the mappings from file-level numbering to
/// core identifiers.
#[derive(Debug)]
pub struct CompiledCircuit {
    /// The simulatable circuit.
    pub circuit: Circuit,
    /// File node number → core node.
    pub nodes: HashMap<usize, NodeId>,
    /// File junction id → core junction.
    pub junctions: HashMap<usize, JunctionId>,
    /// File node number → lead index (for nodes carrying a `vdc`).
    pub leads: HashMap<usize, usize>,
    /// Non-fatal findings from the static checks (warnings only; any
    /// error-severity diagnostic aborts compilation instead).
    pub warnings: Diagnostics,
}

impl CompiledCircuit {
    /// Looks up the core node of a file node number.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for an unreferenced number.
    pub fn node(&self, file_node: usize) -> Result<NodeId, CoreError> {
        self.nodes
            .get(&file_node)
            .copied()
            .ok_or(CoreError::UnknownNode { node: file_node })
    }

    /// Looks up the core junction of a file junction id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownJunction`] for an unknown id.
    pub fn junction(&self, file_id: usize) -> Result<JunctionId, CoreError> {
        self.junctions
            .get(&file_id)
            .copied()
            .ok_or(CoreError::UnknownJunction { junction: file_id })
    }
}

impl CircuitFile {
    /// Compiles the file into a circuit: nodes carrying a `vdc` become
    /// leads (node 0 is always ground), all others become islands with
    /// their `charge` declarations as background charge.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for semantic problems (a `charge` on a
    /// source node, components referencing no-longer-existing nodes),
    /// for any error-severity finding of the static checks
    /// ([`crate::lint_circuit`], reported with its `SCnnn` code and
    /// source line), and wraps [`CoreError`]s from circuit construction.
    pub fn compile(&self) -> Result<CompiledCircuit, ParseError> {
        // Static analysis gate: errors abort before any engine work;
        // warnings ride along on the compiled circuit.
        let diags = crate::lint_circuit(self);
        if diags.has_errors() {
            let first = diags
                .iter()
                .find(|d| d.severity == Severity::Error)
                .expect("has_errors implies an error exists");
            return Err(ParseError::new(
                first.span.line,
                format!("[{}] {}", first.code.code(), first.message),
            ));
        }
        // No errors left: everything remaining is warning severity.
        let warnings = diags;

        let mut b = CircuitBuilder::new();
        let mut nodes: HashMap<usize, NodeId> = HashMap::new();
        let mut leads: HashMap<usize, usize> = HashMap::new();
        nodes.insert(0, NodeId::GROUND);
        leads.insert(0, 0);

        let source_nodes = self.source_nodes();
        let charge_of: HashMap<usize, f64> = self.charges.iter().copied().collect();
        for &(n, _) in &self.charges {
            if source_nodes.contains(&n) {
                return Err(ParseError::new(
                    0,
                    format!("node {n} has both a `charge` and a `vdc` (leads hold no background charge)"),
                ));
            }
        }

        // Leads first (their index order mirrors the file's source list),
        // then islands in ascending node-number order.
        for (lead_index, &(n, v)) in (1..).zip(&self.sources) {
            if nodes.contains_key(&n) {
                return Err(ParseError::new(
                    0,
                    format!("node {n} has two `vdc` sources"),
                ));
            }
            let id = b.add_lead(v);
            nodes.insert(n, id);
            leads.insert(n, lead_index);
        }
        for n in self.node_numbers() {
            nodes.entry(n).or_insert_with(|| {
                let q = charge_of.get(&n).copied().unwrap_or(0.0);
                b.add_island_with_charge(q)
            });
        }

        let wrap = |e: CoreError| ParseError::new(0, e.to_string());
        let mut junctions = HashMap::new();
        for j in &self.junctions {
            let a = nodes[&j.node_a];
            let bnode = nodes[&j.node_b];
            let id = b
                .add_junction(a, bnode, j.resistance(), j.capacitance)
                .map_err(wrap)?;
            junctions.insert(j.id, id);
        }
        for c in &self.capacitors {
            b.add_capacitor(nodes[&c.node_a], nodes[&c.node_b], c.capacitance)
                .map_err(wrap)?;
        }
        let circuit = b.build().map_err(wrap)?;
        Ok(CompiledCircuit {
            circuit,
            nodes,
            junctions,
            leads,
            warnings,
        })
    }

    /// Builds the [`SimConfig`] implied by the file's directives.
    ///
    /// # Errors
    ///
    /// Wraps invalid superconducting parameters.
    pub fn sim_config(&self) -> Result<SimConfig, ParseError> {
        let mut cfg = SimConfig::new(self.temperature).with_cotunneling(self.cotunnel);
        if let Some(s) = &self.superconducting {
            let params = SuperconductingParams::new(ev_to_joule(s.gap_ev), s.tc)
                .map_err(|e| ParseError::new(0, e.to_string()))?;
            cfg = cfg.with_superconducting(params);
        }
        if let Some((theta, refresh)) = self.adaptive {
            cfg = cfg.with_solver(SolverSpec::Adaptive {
                threshold: theta,
                refresh_interval: refresh,
            });
        }
        if let Some(seed) = self.seed {
            cfg = cfg.with_seed(seed);
        }
        Ok(cfg)
    }

    /// Pre-compile resource estimate from the declarations alone: leads
    /// are ground plus every distinct `vdc` node, every other mentioned
    /// node is an island. Nothing is materialised, so this is safe to
    /// call on a circuit far too large to build — which is exactly when
    /// an admission guard (`--max-memory`, serve's 413) needs it.
    #[must_use]
    pub fn resource_estimate(&self) -> ResourceEstimate {
        let source_nodes = self.source_nodes();
        let leads = 1 + source_nodes.len();
        let islands = self
            .node_numbers()
            .iter()
            .filter(|n| !source_nodes.contains(n))
            .count();
        ResourceEstimate::predict(islands, leads, self.junctions.len())
    }

    /// Executes the file: compiles it, and either runs the declared
    /// `sweep` (returning one I–V point per step, measured through the
    /// first recorded junction) or performs a single run (returning one
    /// point at the declared bias).
    ///
    /// The paper's `symm` directive is honoured: the named source is
    /// held at minus the swept voltage.
    ///
    /// Serial entry point, identical to
    /// [`CircuitFile::execute_par`]`(ParOpts::serial())`.
    ///
    /// # Errors
    ///
    /// Compilation errors as [`ParseError`]; simulation errors convert
    /// to [`ParseError`] with the core error message.
    pub fn execute(&self) -> Result<Vec<SweepPoint>, ParseError> {
        self.execute_par(ParOpts::serial())
    }

    /// [`CircuitFile::execute`] on the work queue in `opts`. A sweep
    /// runs through [`semsim_core::batch::batch_sweep`] with the default
    /// retry policy and no journal (the file's `journal` directive is
    /// for [`CircuitFile::execute_batch`]); its points are bit-identical
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// As [`CircuitFile::execute`]; when sweep points fault, the
    /// lowest-index point's fault.
    pub fn execute_par(&self, opts: ParOpts) -> Result<Vec<SweepPoint>, ParseError> {
        if self.sweep.is_some() {
            let report = self.run_sweep(&BatchOpts {
                par: opts,
                ..BatchOpts::default()
            })?;
            return match report.points.iter().find_map(|p| p.fault.as_ref()) {
                Some(fault) => Err(ParseError::new(0, fault.to_string())),
                None => Ok(report.items().flatten().copied().collect()),
            };
        }
        let compiled = self.compile()?;
        let cfg = self.sim_config()?;
        let wrap = |e: CoreError| ParseError::new(0, e.to_string());
        let record_junction = self.record_junction(&compiled)?;
        let events = self.jumps.map_or(100_000, |(e, _)| e);
        let mut sim = Simulation::new(&compiled.circuit, cfg).map_err(wrap)?;
        self.schedule_dynamics(&compiled, &mut sim).map_err(wrap)?;
        let run_result = match self.sim_time {
            Some(t) => sim.run(RunLength::Time(t)),
            None => sim.run(RunLength::Events(events)),
        };
        // A fully blockaded circuit reads zero current — the physically
        // correct result, not a failure; the outcome keeps it
        // distinguishable from a budget truncation.
        let (current, outcome, measured) = match run_result {
            Ok(record) => (
                record.current(record_junction),
                record.outcome,
                record.events,
            ),
            Err(CoreError::BlockadeStall { time }) => (0.0, RunOutcome::Blockaded { time }, 0),
            Err(e) => return Err(wrap(e)),
        };
        let bias = self
            .sweep_source_voltage()
            .unwrap_or_else(|| self.sources.first().map_or(0.0, |&(_, v)| v));
        Ok(vec![SweepPoint {
            control: bias,
            current,
            outcome,
            events: measured,
        }])
    }

    /// Executes the declared `sweep` through the resilient batch layer
    /// ([`semsim_core::batch::batch_sweep`]): per-point panic isolation
    /// and retry, partial-result salvage, and — when a journal is
    /// configured via `opts` or the file's `journal` directive —
    /// crash-safe journaled resume. Fault-free batches are bit-identical
    /// to [`CircuitFile::execute_par`].
    ///
    /// # Errors
    ///
    /// Compilation errors as [`ParseError`]; a missing `sweep`
    /// declaration; journal I/O or mismatch errors convert with the
    /// core error message.
    pub fn execute_batch(&self, opts: &BatchOpts) -> Result<BatchReport<SweepPoint>, ParseError> {
        if self.sweep.is_none() {
            return Err(ParseError::new(
                0,
                "batch sweep execution requires a `sweep` declaration".to_string(),
            ));
        }
        self.run_sweep(&self.with_default_journal(opts))
    }

    /// Compiles the file and runs its declared `sweep` through
    /// [`batch_sweep`] under exactly `opts`: one point per grid voltage,
    /// `events / 10` warmup events, the file's dynamics scheduled on
    /// every point.
    fn run_sweep(&self, opts: &BatchOpts) -> Result<BatchReport<SweepPoint>, ParseError> {
        let compiled = self.compile()?;
        let cfg = self.sim_config()?;
        let record_junction = self.record_junction(&compiled)?;
        let events = self.jumps.map_or(100_000, |(e, _)| e);
        let plan = self.sweep_plan(&compiled)?;
        batch_sweep(
            &compiled.circuit,
            &cfg,
            record_junction,
            &plan.controls,
            events / 10,
            events,
            opts,
            |sim, v, _spec| {
                plan.apply(sim, v)?;
                self.schedule_dynamics(&compiled, sim)
            },
        )
        .map_err(|e| ParseError::new(0, e.to_string()))
    }

    /// Runs the file's `jumps <events> <runs>` declaration as an
    /// independent-replica Monte Carlo ensemble through the resilient
    /// batch layer ([`semsim_core::batch::batch_ensemble`]): `runs`
    /// statistically independent copies of the single-point
    /// simulation, with per-replica panic isolation and retry,
    /// partial-result salvage, and crash-safe journaled resume when a
    /// journal is configured via `opts` or the file's `journal`
    /// directive. [`BatchReport::ensemble_stats`] gives mean ± std
    /// current; the report carries the outcome tally and the folded
    /// health report. The file must not declare a `sweep` — an
    /// ensemble of sweeps is ambiguous.
    ///
    /// # Errors
    ///
    /// Compilation errors as [`ParseError`]; a declared `sweep`
    /// conflicts with ensemble execution; journal I/O or mismatch
    /// errors convert with the core error message.
    pub fn execute_ensemble_batch(
        &self,
        opts: &BatchOpts,
    ) -> Result<BatchReport<ReplicaSummary>, ParseError> {
        if self.sweep.is_some() {
            return Err(ParseError::new(
                self.spans.sweep,
                "ensemble execution conflicts with a `sweep` declaration".to_string(),
            ));
        }
        let compiled = self.compile()?;
        let cfg = self.sim_config()?;
        let wrap = |e: CoreError| ParseError::new(0, e.to_string());
        let record_junction = self.record_junction(&compiled)?;
        let (events, runs) = self.ensemble_shape()?;
        let length = match self.sim_time {
            Some(t) => RunLength::Time(t),
            None => RunLength::Events(events),
        };
        let opts = self.with_default_journal(opts);
        batch_ensemble(
            &compiled.circuit,
            &cfg,
            record_junction,
            runs,
            0,
            length,
            &opts,
            |sim, _replica, _spec| self.schedule_dynamics(&compiled, sim),
        )
        .map_err(wrap)
    }

    /// Resolves how this file executes — sweep or ensemble — and how
    /// many batch tasks that fans out. Pure directive inspection, no
    /// compilation.
    ///
    /// # Errors
    ///
    /// A zero-work `jumps` declaration ([`ParseError`]), matching
    /// [`CircuitFile::execute_ensemble_batch`]'s validation.
    pub fn execution_kind(&self) -> Result<ExecutionKind, ParseError> {
        match &self.sweep {
            Some(spec) => {
                let start = self.sweep_source_voltage().unwrap_or(0.0);
                Ok(ExecutionKind::Sweep {
                    points: sweep_grid_len(start, spec.end, spec.step),
                })
            }
            None => {
                let (_, runs) = self.ensemble_shape()?;
                Ok(ExecutionKind::Ensemble { replicas: runs })
            }
        }
    }

    /// The `(events, runs)` declared by `jumps`, defaulting to a single
    /// 100 000-event run. Zero in either slot is rejected (the parser
    /// already refuses it; this guards programmatically built files —
    /// before, a zero run count was silently clamped to one).
    fn ensemble_shape(&self) -> Result<(u64, usize), ParseError> {
        let (events, runs) = self.jumps.unwrap_or((100_000, 1));
        if events == 0 || runs == 0 {
            return Err(ParseError::new(
                self.spans.jumps,
                format!("`jumps {events} {runs}` requests zero work; both counts must be nonzero"),
            ));
        }
        Ok((events, runs as usize))
    }

    /// Applies the file's dynamics to a fresh simulation: `jump`
    /// directives become scheduled [`Stimulus`] steps, `probe`
    /// directives attach voltage probes (trace order follows file
    /// order).
    ///
    /// Compilation already guarantees every `jump` targets a `vdc`
    /// lead and every `probe` a declared node (SC018/SC016 error
    /// facets), so failures here only arise for hand-built files that
    /// bypassed [`CircuitFile::compile`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownLead`] / [`CoreError::UnknownNode`] for
    /// references the compiled circuit cannot resolve; scheduling
    /// errors from [`Simulation::schedule`].
    pub fn schedule_dynamics(
        &self,
        compiled: &CompiledCircuit,
        sim: &mut Simulation<'_>,
    ) -> Result<(), CoreError> {
        if !self.stimuli.is_empty() {
            let stimuli = self
                .stimuli
                .iter()
                .map(|j| {
                    let lead = *compiled
                        .leads
                        .get(&j.node)
                        .ok_or(CoreError::UnknownLead { lead: j.node })?;
                    Ok(Stimulus {
                        time: j.time,
                        lead,
                        voltage: j.voltage,
                    })
                })
                .collect::<Result<Vec<_>, CoreError>>()?;
            sim.schedule(stimuli)?;
        }
        for p in &self.probes {
            let node = compiled.node(p.node)?;
            sim.add_probe(node, p.every);
        }
        Ok(())
    }

    /// The junction whose current the file reports: the `record`
    /// directive's first junction, or the first junction in the circuit.
    fn record_junction(&self, compiled: &CompiledCircuit) -> Result<JunctionId, ParseError> {
        let wrap = |e: CoreError| ParseError::new(0, e.to_string());
        match &self.record {
            Some(r) => compiled.junction(r.from).map_err(wrap),
            None => JunctionId::from_index_checked(&compiled.circuit, 0).map_err(wrap),
        }
    }

    /// Resolves the `sweep` directive against the compiled circuit:
    /// swept lead, optional `symm` partner, and the voltage grid.
    fn sweep_plan(&self, compiled: &CompiledCircuit) -> Result<SweepPlan, ParseError> {
        let spec = self
            .sweep
            .as_ref()
            .ok_or_else(|| ParseError::new(0, "no `sweep` declaration".to_string()))?;
        let lead = *compiled
            .leads
            .get(&spec.node)
            .ok_or_else(|| ParseError::new(0, format!("sweep node {} has no vdc", spec.node)))?;
        let symm_lead = match self.symmetric_with {
            Some(n) => Some(
                *compiled
                    .leads
                    .get(&n)
                    .ok_or_else(|| ParseError::new(0, format!("symm node {n} has no vdc")))?,
            ),
            None => None,
        };
        let start = self
            .sources
            .iter()
            .find(|&&(n, _)| n == spec.node)
            .map_or(0.0, |&(_, v)| v);
        let controls = sweep_grid(start, spec.end, spec.step);
        Ok(SweepPlan {
            lead,
            symm_lead,
            controls,
        })
    }

    /// Copies `opts`, filling [`BatchOpts::journal`] from the file's
    /// `journal` directive when the caller left it unset.
    fn with_default_journal(&self, opts: &BatchOpts) -> BatchOpts {
        let mut opts = opts.clone();
        if opts.journal.is_none() {
            opts.journal = self.journal.as_ref().map(std::path::PathBuf::from);
        }
        opts
    }

    fn sweep_source_voltage(&self) -> Option<f64> {
        let node = self.sweep.as_ref()?.node;
        self.sources
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, v)| v)
    }
}

/// Relative slack used when deciding how many whole steps fit in a
/// sweep range: `0 → 1` by `0.1` computes `(end-start)/step` as
/// `9.999…`, which must still count as 10 steps.
const GRID_RATIO_TOL: f64 = 1e-9;

/// Shape of a sweep voltage grid: number of whole steps from the start,
/// the step with the sign pointing toward `end`, and whether `end`
/// needs an extra trailing point (true when the leftover distance after
/// the last whole step exceeds half a step, so clamping the last grid
/// point onto `end` would stretch that interval past 1.5·step).
fn grid_shape(start: f64, end: f64, step: f64) -> (usize, f64, bool) {
    let distance = end - start;
    if distance == 0.0 || step == 0.0 || !step.is_finite() {
        return (0, 0.0, false);
    }
    let signed = step.abs() * distance.signum();
    let whole = ((distance / signed) + GRID_RATIO_TOL).floor() as usize;
    let last = start + whole as f64 * signed;
    let extra = (last - end).abs() > 0.5 * signed.abs();
    (whole, signed, extra)
}

/// The voltage grid for a `sweep` directive: index-multiplication
/// points `start + i·step` (drift-free, matching `engine::linspace`'s
/// construction), with the final point clamped to exactly `end` when it
/// lands within half a step, or `end` appended otherwise. The endpoint
/// is always present exactly once; interior spacing is exactly `step`.
pub(crate) fn sweep_grid(start: f64, end: f64, step: f64) -> Vec<f64> {
    let (whole, signed, extra) = grid_shape(start, end, step);
    if whole == 0 && !extra {
        return if start == end {
            vec![start]
        } else {
            vec![start, end]
        };
    }
    let mut controls: Vec<f64> = (0..=whole).map(|i| start + i as f64 * signed).collect();
    if extra {
        controls.push(end);
    } else {
        *controls.last_mut().expect("whole >= 1") = end;
    }
    controls
}

/// Number of points [`sweep_grid`] produces, without materializing the
/// grid (the lint pass sizes runaway sweeps before building anything).
pub(crate) fn sweep_grid_len(start: f64, end: f64, step: f64) -> usize {
    let (whole, _, extra) = grid_shape(start, end, step);
    if whole == 0 && !extra {
        return if start == end { 1 } else { 2 };
    }
    whole + 1 + usize::from(extra)
}

/// A resolved `sweep` directive: which lead to drive (plus the `symm`
/// partner held at minus the value) and the voltage grid.
struct SweepPlan {
    lead: usize,
    symm_lead: Option<usize>,
    controls: Vec<f64>,
}

impl SweepPlan {
    /// Applies one grid voltage to a fresh simulation.
    fn apply(&self, sim: &mut Simulation<'_>, v: f64) -> Result<(), CoreError> {
        sim.set_lead_voltage(self.lead, v)?;
        if let Some(sl) = self.symm_lead {
            sim.set_lead_voltage(sl, -v)?;
        }
        Ok(())
    }
}

/// Internal helper: checked construction of a junction id from a raw
/// index (used when a file has no `record` directive).
trait JunctionIdExt: Sized {
    fn from_index_checked(circuit: &Circuit, index: usize) -> Result<Self, CoreError>;
}

impl JunctionIdExt for JunctionId {
    fn from_index_checked(circuit: &Circuit, index: usize) -> Result<Self, CoreError> {
        circuit
            .junction_ids()
            .nth(index)
            .ok_or(CoreError::UnknownJunction { junction: index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SET_FILE: &str = "\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
record 1 2 2
jumps 3000 1
";

    #[test]
    fn compiles_paper_set() {
        let f = CircuitFile::parse(SET_FILE).unwrap();
        let c = f.compile().unwrap();
        assert_eq!(c.circuit.num_islands(), 1);
        assert_eq!(c.circuit.num_leads(), 4); // ground + 3 vdc
        assert_eq!(c.circuit.num_junctions(), 2);
        let island = c.node(4).unwrap();
        assert!(c.circuit.is_island(island));
        assert!((c.circuit.total_capacitance(island).unwrap() - 5e-18).abs() < 1e-30);
        assert!(c.node(99).is_err());
        assert!(c.junction(1).is_ok());
        assert!(c.junction(9).is_err());
    }

    #[test]
    fn resource_estimate_counts_match_compiled_circuit() {
        let f = CircuitFile::parse(SET_FILE).unwrap();
        let est = f.resource_estimate();
        let c = f.compile().unwrap();
        assert_eq!(est.islands as usize, c.circuit.num_islands());
        assert_eq!(est.leads as usize, c.circuit.num_leads());
        assert_eq!(est.junctions as usize, c.circuit.num_junctions());
        // The predict-time dense blocks are exact (they only depend on
        // the counts), so the estimate's dense component equals the
        // measured one.
        let measured = ResourceEstimate::measured(&c.circuit);
        assert_eq!(est.dense_matrix_bytes, measured.dense_matrix_bytes);
        assert_eq!(est.coupling_bytes, measured.coupling_bytes);
    }

    #[test]
    fn executes_single_run() {
        let f = CircuitFile::parse(SET_FILE).unwrap();
        let pts = f.execute().unwrap();
        assert_eq!(pts.len(), 1);
        // 40 mV total bias > e/CΣ = 32 mV: the SET conducts.
        assert!(pts[0].current.abs() > 1e-11, "{}", pts[0].current);
    }

    #[test]
    fn executes_sweep_with_symmetric_bias() {
        let text = format!("{SET_FILE}symm 1\nsweep 2 0.02 0.01\n");
        let f = CircuitFile::parse(&text).unwrap();
        let pts = f.execute().unwrap();
        // -0.02 → 0.02 in 0.01 steps = 5 points.
        assert_eq!(pts.len(), 5);
        // Midpoint (zero bias) is blockaded; ends conduct.
        assert!(pts[2].current.abs() < 1e-12);
        assert!(pts[0].current.abs() > 1e-11);
        assert!(pts[4].current.abs() > 1e-11);
        // Odd symmetry of the I–V under symmetric bias.
        assert!(
            (pts[0].current + pts[4].current).abs() < 0.2 * pts[4].current.abs(),
            "{} vs {}",
            pts[0].current,
            pts[4].current
        );
    }

    #[test]
    fn execute_par_is_bit_identical_to_serial() {
        let text = format!("{SET_FILE}symm 1\nsweep 2 0.02 0.01\n");
        let f = CircuitFile::parse(&text).unwrap();
        let serial = f.execute().unwrap();
        for threads in [2, 4] {
            let par = f.execute_par(ParOpts::with_threads(threads)).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn single_run_point_carries_outcome() {
        let f = CircuitFile::parse(SET_FILE).unwrap();
        let pts = f.execute().unwrap();
        assert!(matches!(pts[0].outcome, RunOutcome::Completed));
        assert_eq!(pts[0].events, 3000);
        assert!(pts[0].is_measured());
    }

    #[test]
    fn ensemble_execution_merges_replicas() {
        let text = SET_FILE.replace("jumps 3000 1", "jumps 1000 6");
        let f = CircuitFile::parse(&text).unwrap();
        let on_threads = |threads| BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        };
        let a = f.execute_ensemble_batch(&on_threads(1)).unwrap();
        assert_eq!(a.counts.ok, 6);
        assert_eq!(a.outcomes.completed, 6);
        let stats = a.ensemble_stats();
        assert!(stats.mean_current.abs() > 1e-11);
        assert!(stats.std_current > 0.0, "independent replicas disagree");
        // Thread-count invariance extends through the interpreter.
        let b = f.execute_ensemble_batch(&on_threads(4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn execute_batch_matches_execute_par() {
        let text = format!("{SET_FILE}symm 1\nsweep 2 0.02 0.01\n");
        let f = CircuitFile::parse(&text).unwrap();
        let reference = f.execute().unwrap();
        for threads in [1, 4] {
            let opts = BatchOpts {
                par: ParOpts::with_threads(threads),
                ..BatchOpts::default()
            };
            let report = f.execute_batch(&opts).unwrap();
            assert!(report.is_complete());
            assert_eq!(report.values().unwrap(), reference, "threads = {threads}");
        }
    }

    #[test]
    fn journal_directive_sets_the_default_journal() {
        let path =
            std::env::temp_dir().join(format!("semsim_compile_journal_{}.jl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let text = format!(
            "{SET_FILE}symm 1\nsweep 2 0.02 0.01\njournal {}\n",
            path.display()
        );
        let f = CircuitFile::parse(&text).unwrap();
        let report = f.execute_batch(&BatchOpts::default()).unwrap();
        assert!(report.is_complete());
        assert!(path.exists(), "journal directive should create the file");
        // Resume restores every point from the journal.
        let opts = BatchOpts {
            resume: true,
            ..BatchOpts::default()
        };
        let resumed = f.execute_batch(&opts).unwrap();
        assert_eq!(resumed.counts.skipped, report.counts.total());
        assert_eq!(resumed.values(), report.values());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_entry_points_validate_sweep_presence() {
        let f = CircuitFile::parse(SET_FILE).unwrap();
        assert!(f.execute_batch(&BatchOpts::default()).is_err());
        let text = format!("{SET_FILE}sweep 2 0.02 0.01\n");
        let f = CircuitFile::parse(&text).unwrap();
        assert!(f.execute_ensemble_batch(&BatchOpts::default()).is_err());
    }

    #[test]
    fn ensemble_rejects_sweep_files() {
        let text = format!("{SET_FILE}sweep 2 0.02 0.01\n");
        let f = CircuitFile::parse(&text).unwrap();
        let err = f.execute_ensemble_batch(&BatchOpts::default()).unwrap_err();
        assert!(
            err.to_string().contains("conflicts with a `sweep`"),
            "{err}"
        );
    }

    #[test]
    fn sweep_grid_keeps_the_exact_step() {
        // Regression: the old grid rounded (end-start)/step to a point
        // count and then linspaced, so 0 → 1 by 0.3 produced spacing
        // 1/3 instead of the requested 0.3.
        let g = sweep_grid(0.0, 1.0, 0.3);
        assert_eq!(g, vec![0.0, 0.3, 0.6, 1.0]);
        // Leftover beyond half a step: the endpoint is appended rather
        // than stretching the last interval past 1.5·step.
        assert_eq!(sweep_grid(0.0, 1.0, 0.6), vec![0.0, 0.6, 1.0]);
    }

    #[test]
    fn sweep_grid_hits_the_endpoint_exactly() {
        // 0 → 1 by 0.1: the ratio computes as 9.999…, which must still
        // count 10 whole steps, and 10·0.1 = 1.0000000000000002 must be
        // clamped to exactly 1.0.
        let g = sweep_grid(0.0, 1.0, 0.1);
        assert_eq!(g.len(), 11);
        assert_eq!(*g.last().unwrap(), 1.0);
        // Descending sweeps auto-correct the step direction.
        let d = sweep_grid(0.02, -0.02, 0.01);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 0.02);
        assert_eq!(*d.last().unwrap(), -0.02);
        assert!(d.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn sweep_grid_degenerate_ranges() {
        assert_eq!(sweep_grid(0.5, 0.5, 0.1), vec![0.5]);
        // Range shorter than one step: both endpoints, nothing else.
        assert_eq!(sweep_grid(0.0, 0.04, 0.1), vec![0.0, 0.04]);
        assert_eq!(sweep_grid_len(0.0, 0.04, 0.1), 2);
        assert_eq!(sweep_grid_len(0.0, 1.0, 0.3), 4);
        assert_eq!(sweep_grid_len(0.0, 1.0, 0.6), 3);
        assert_eq!(sweep_grid_len(0.0, 1.0, 0.1), 11);
    }

    #[test]
    fn zero_runs_is_a_compile_error_not_a_clamp() {
        // Regression: `jumps 1000 0` was silently rewritten to one run.
        let mut f = CircuitFile::parse(SET_FILE).unwrap();
        f.jumps = Some((1000, 0));
        let err = f.execute_ensemble_batch(&BatchOpts::default()).unwrap_err();
        assert!(err.to_string().contains("nonzero"), "{err}");
    }

    #[test]
    fn jump_directive_steps_the_bias_mid_run() {
        let base = CircuitFile::parse(SET_FILE).unwrap();
        let reference = base.execute().unwrap()[0].current;
        assert!(reference.abs() > 1e-11);
        // Step both source leads to zero bias very early: the SET
        // blockades and the time-averaged current collapses.
        let text = format!("{SET_FILE}jump 1 1e-9 0.0\njump 2 1e-9 0.0\n");
        let f = CircuitFile::parse(&text).unwrap();
        let stepped = f.execute().unwrap()[0].current;
        assert!(
            stepped.abs() < 0.1 * reference.abs(),
            "stepped {stepped} vs reference {reference}"
        );
    }

    #[test]
    fn probe_directive_attaches_a_trace() {
        let text = format!("{SET_FILE}probe 4 10\n");
        let f = CircuitFile::parse(&text).unwrap();
        let compiled = f.compile().unwrap();
        let cfg = f.sim_config().unwrap();
        let mut sim = Simulation::new(&compiled.circuit, cfg).unwrap();
        f.schedule_dynamics(&compiled, &mut sim).unwrap();
        let record = sim.run(RunLength::Events(500)).unwrap();
        assert_eq!(record.probes.len(), 1);
        assert!(!record.probes[0].samples().is_empty());
    }

    #[test]
    fn dynamics_survive_the_parallel_sweep_path() {
        // jump on the non-swept source + probe: every sweep point gets
        // the same schedule, and the parallel driver stays bit-identical.
        let text = format!("{SET_FILE}symm 1\nsweep 2 0.02 0.01\njump 3 1e-9 0.001\nprobe 4 50\n");
        let f = CircuitFile::parse(&text).unwrap();
        let serial = f.execute().unwrap();
        assert_eq!(serial.len(), 5);
        let par = f.execute_par(ParOpts::with_threads(4)).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn charge_on_source_node_rejected() {
        let f = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nvdc 1 0.0\ncharge 1 0.5\n").unwrap();
        assert!(f.compile().is_err());
    }

    #[test]
    fn background_charge_is_applied() {
        let f = CircuitFile::parse(
            "junc 1 0 2 1e-6 1e-18\njunc 2 2 1 1e-6 1e-18\nvdc 1 0.0\ncharge 2 0.65\n",
        )
        .unwrap();
        let c = f.compile().unwrap();
        let q = c.circuit.island_background_charges()[0];
        assert!((q - 0.65 * semsim_core::constants::E_CHARGE).abs() < 1e-25);
    }

    #[test]
    fn adaptive_and_seed_flow_into_config() {
        let f = CircuitFile::parse("junc 1 0 2 1e-6 1e-18\nadaptive 0.05 500\nseed 9\ntemp 1\n")
            .unwrap();
        let cfg = f.sim_config().unwrap();
        assert_eq!(cfg.seed, 9);
        assert!(matches!(
            cfg.solver,
            SolverSpec::Adaptive { threshold, refresh_interval }
                if threshold == 0.05 && refresh_interval == 500
        ));
    }

    #[test]
    fn superconducting_config_units() {
        let f =
            CircuitFile::parse("junc 1 0 2 1e-6 110e-18\nsuper\ngap 0.2e-3\ntc 1.2\ntemp 0.05\n")
                .unwrap();
        let cfg = f.sim_config().unwrap();
        let sc = cfg.superconducting.unwrap();
        assert!((sc.gap0 - ev_to_joule(0.2e-3)).abs() < 1e-30);
        assert_eq!(sc.tc, 1.2);
    }
}
