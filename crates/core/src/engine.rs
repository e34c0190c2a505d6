//! The Monte Carlo engine (paper Fig. 3): event-driven kinetic Monte
//! Carlo over the circuit's tunnel events, with stimuli, probes, and
//! the per-point measurement the sweep driver in [`crate::batch`] runs.
//!
//! Each iteration: (1) the chosen solver refreshes first-order rates
//! (adaptively or not), and cotunneling / Cooper-pair rates are
//! recomputed non-adaptively when enabled; (2) the event solver draws
//! the waiting time `Δt = −ln(r)/Γ_sum` (paper Eq. 5) and picks one
//! event with probability proportional to its rate; (3) the event is
//! applied and observables are recorded.

use crate::checkpoint::{Checkpoint, ProbeSnapshot, SolverSnapshot};
use crate::circuit::{Circuit, JunctionId, NodeId};
use crate::constants::{thermal_energy, E_CHARGE};
use crate::cotunnel::path_rate;
use crate::energy::{delta_w, CircuitState};
use crate::events::{enumerate_cotunnel_paths, CotunnelPath, Event, RateLayout, SlotKind};
use crate::fenwick::FenwickTree;
use crate::health::{
    measure_rate_drift, screen_finite, screen_rate, DegradationEvent, FaultStage, HealthMonitor,
    HealthReport, RunOutcome, Supervisor,
};
#[cfg(feature = "fault-inject")]
use crate::health::{FaultKind, FaultPlan};
use crate::rng::Rng;
use crate::solver::{
    AdaptiveSolver, AdaptiveStats, NonAdaptiveSolver, Solver, SolverContext, StateChange,
    TunnelModel,
};
use crate::superconduct::{
    cooper_pair_rate, gap_at, josephson_energy, QpRateTable, SuperconductingParams,
};
use crate::trace::{EventLog, Probe};
use crate::CoreError;

/// Which rate solver drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverSpec {
    /// Conventional full recalculation each event (accuracy reference).
    #[default]
    NonAdaptive,
    /// The paper's adaptive Algorithm 1.
    Adaptive {
        /// Testing threshold θ (typically 0.01–0.3).
        threshold: f64,
        /// Full-refresh period in events.
        refresh_interval: u64,
    },
    /// [`SolverSpec::Adaptive`] in dense-reference mode: dependency
    /// neighbourhoods are recomputed on every event from the stored
    /// sparse `C⁻¹` columns and the lead response, and every step runs
    /// per junction or per island on the scalar functions instead of
    /// the batched kernels. Produces bit-identical output to
    /// `Adaptive` with the same parameters — kept as the oracle the
    /// optimized hot path is validated (and benchmarked) against.
    AdaptiveDense {
        /// Testing threshold θ (typically 0.01–0.3).
        threshold: f64,
        /// Full-refresh period in events.
        refresh_interval: u64,
    },
}

/// Simulation configuration.
///
/// # Example
///
/// ```
/// use semsim_core::engine::{SimConfig, SolverSpec};
///
/// let cfg = SimConfig::new(5.0)
///     .with_seed(42)
///     .with_solver(SolverSpec::Adaptive { threshold: 0.05, refresh_interval: 500 })
///     .with_cotunneling(true);
/// assert_eq!(cfg.temperature, 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Temperature (K).
    pub temperature: f64,
    /// Rate solver.
    pub solver: SolverSpec,
    /// Include second-order inelastic cotunneling.
    pub cotunneling: bool,
    /// Superconducting circuit parameters (quasi-particle + Cooper-pair
    /// transport instead of normal tunneling).
    pub superconducting: Option<SuperconductingParams>,
    /// RNG seed.
    pub seed: u64,
    /// Optional override of the quasi-particle table's `|ΔW|` range (J).
    pub qp_table_range: Option<f64>,
    /// Optional pre-built quasi-particle rate table, shared across many
    /// simulations of the same (gap, temperature) — e.g. every point of
    /// the Fig. 5 map. Must have been built for the same gap and
    /// thermal energy this configuration implies (checked at
    /// [`Simulation::new`]).
    pub qp_table: Option<QpRateTable>,
    /// Drift-audit period in events (`None` disables auditing).
    pub audit_interval: Option<u64>,
    /// Maximum tolerated relative rate drift before an audit degrades
    /// gracefully (cache flush + threshold tightening).
    pub drift_tolerance: f64,
    /// Run supervisor limits (wall clock, event cap, blockade policy).
    pub supervisor: Supervisor,
}

impl SimConfig {
    /// Configuration at `temperature` kelvin with the non-adaptive
    /// solver, no secondary effects, seed 0.
    pub fn new(temperature: f64) -> Self {
        SimConfig {
            temperature,
            solver: SolverSpec::default(),
            cotunneling: false,
            superconducting: None,
            seed: 0,
            qp_table_range: None,
            qp_table: None,
            audit_interval: None,
            drift_tolerance: 0.25,
            supervisor: Supervisor::default(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the solver.
    pub fn with_solver(mut self, solver: SolverSpec) -> Self {
        self.solver = solver;
        self
    }

    /// Enables or disables cotunneling.
    pub fn with_cotunneling(mut self, on: bool) -> Self {
        self.cotunneling = on;
        self
    }

    /// Makes the circuit superconducting.
    pub fn with_superconducting(mut self, params: SuperconductingParams) -> Self {
        self.superconducting = Some(params);
        self
    }

    /// Overrides the quasi-particle rate table's `|ΔW|` range (J).
    pub fn with_qp_table_range(mut self, w_max: f64) -> Self {
        self.qp_table_range = Some(w_max);
        self
    }

    /// Supplies a pre-built quasi-particle rate table (see
    /// [`SimConfig::qp_table`]).
    pub fn with_qp_table(mut self, table: QpRateTable) -> Self {
        self.qp_table = Some(table);
        self
    }

    /// Audits cached rates against a ground-truth recompute every
    /// `events` events (must be ≥ 1; checked at [`Simulation::new`]).
    pub fn with_audit_interval(mut self, events: u64) -> Self {
        self.audit_interval = Some(events);
        self
    }

    /// Sets the relative rate drift beyond which an audit flushes every
    /// cache and tightens the adaptive threshold (default 0.25).
    pub fn with_drift_tolerance(mut self, tolerance: f64) -> Self {
        self.drift_tolerance = tolerance;
        self
    }

    /// Installs run supervisor limits.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }
}

/// How long to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunLength {
    /// A fixed number of tunnel events (the paper's `jumps`).
    Events(u64),
    /// A fixed span of simulated time (s).
    Time(f64),
}

/// A scheduled input-voltage step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stimulus {
    /// Simulated time of the step (s).
    pub time: f64,
    /// Lead to step.
    pub lead: usize,
    /// New voltage (V).
    pub voltage: f64,
}

/// Results of one [`Simulation::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Simulated time covered by the run (s).
    pub duration: f64,
    /// Tunnel events executed.
    pub events: u64,
    /// Net electrons transferred `node_a → node_b` per junction.
    pub electron_counts: Vec<f64>,
    /// Probe traces accumulated so far (cloned at the end of the run).
    pub probes: Vec<Probe>,
    /// Adaptive solver statistics (if the adaptive solver ran).
    pub adaptive_stats: Option<AdaptiveStats>,
    /// Total first-order rate recalculations during the run.
    pub rate_recalcs: u64,
    /// Why the run stopped (supervisor taxonomy).
    pub outcome: RunOutcome,
    /// Graceful-degradation incidents during this run, oldest first.
    pub degradations: Vec<DegradationEvent>,
}

impl Record {
    /// Time-averaged conventional current (A) through `junction` in the
    /// `node_a → node_b` direction: electrons carry `−e`, so a net
    /// electron flow `a → b` is a conventional current `b → a`.
    pub fn current(&self, junction: JunctionId) -> f64 {
        if self.duration <= 0.0 {
            return 0.0;
        }
        -E_CHARGE * self.electron_counts[junction.index()] / self.duration
    }
}

/// Superconducting run-time data derived from the circuit.
#[derive(Debug)]
struct SuperInfo {
    /// Gap at the operating temperature (J); exposed for diagnostics.
    #[allow(dead_code)]
    gap: f64,
    /// Josephson energy per junction (J).
    ej: Vec<f64>,
    /// Cooper-pair lifetime broadening per junction (1/s).
    gamma: Vec<f64>,
}

/// Builds a [`SolverContext`] from a `Simulation`'s fields. A macro
/// rather than a method so the borrow stays field-precise: the context
/// borrows only `model` (and copies the `circuit` reference), leaving
/// `state`, `rates`, and `solver` free for simultaneous `&mut` access.
macro_rules! solver_ctx {
    ($sim:expr) => {{
        let ctx = SolverContext::new($sim.circuit, $sim.kt, &$sim.model, $sim.layout);
        #[cfg(feature = "fault-inject")]
        let ctx = ctx.with_poison($sim.pending_poison);
        ctx
    }};
}

/// A running Monte Carlo simulation of one circuit.
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Simulation<'c> {
    circuit: &'c Circuit,
    kt: f64,
    model: TunnelModel,
    layout: RateLayout,
    solver: Solver,
    state: CircuitState,
    rates: FenwickTree,
    cot_paths: Vec<CotunnelPath>,
    super_info: Option<SuperInfo>,
    rng: Rng,
    time: f64,
    total_events: u64,
    electron_counts: Vec<f64>,
    probes: Vec<Probe>,
    event_log: Option<EventLog>,
    /// Pending stimuli sorted by time (ascending); consumed front-first.
    stimuli: Vec<Stimulus>,
    next_stimulus: usize,
    supervisor: Supervisor,
    health: HealthMonitor,
    #[cfg(feature = "fault-inject")]
    faults: FaultPlan,
    /// Junction whose next computed forward rate is replaced with NaN
    /// (armed by the fault-injection harness).
    #[cfg(feature = "fault-inject")]
    pending_poison: Option<usize>,
}

impl<'c> Simulation<'c> {
    /// Builds a simulation of `circuit` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid temperature or
    /// solver parameters.
    pub fn new(circuit: &'c Circuit, config: SimConfig) -> Result<Self, CoreError> {
        if !(config.temperature >= 0.0) || !config.temperature.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "temperature",
                value: config.temperature,
            });
        }
        if config.audit_interval == Some(0) {
            return Err(CoreError::InvalidConfig {
                what: "audit interval",
                value: 0.0,
            });
        }
        if !(config.drift_tolerance > 0.0) || !config.drift_tolerance.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "drift tolerance",
                value: config.drift_tolerance,
            });
        }
        if let Some(budget) = config.supervisor.wall_clock_budget {
            if !(budget > 0.0) || !budget.is_finite() {
                return Err(CoreError::InvalidConfig {
                    what: "wall clock budget",
                    value: budget,
                });
            }
        }
        let kt = thermal_energy(config.temperature);

        let (model, super_info) = match &config.superconducting {
            None => (TunnelModel::Normal, None),
            Some(params) => {
                let gap = gap_at(params, config.temperature);
                let table = match &config.qp_table {
                    Some(t) => {
                        if (t.gap() - gap).abs() > 1e-6 * gap.max(1e-30)
                            || (t.thermal_energy() - kt).abs() > 1e-6 * kt.max(1e-30)
                        {
                            return Err(CoreError::InvalidConfig {
                                what: "cached qp table gap/temperature mismatch",
                                value: t.gap(),
                            });
                        }
                        t.clone()
                    }
                    None => QpRateTable::for_circuit(circuit, &config)?,
                };
                let ej: Vec<f64> = circuit
                    .junctions()
                    .iter()
                    .map(|j| josephson_energy(j.resistance, gap, kt))
                    .collect();
                let gamma: Vec<f64> = circuit
                    .junctions()
                    .iter()
                    .map(|j| {
                        params
                            .broadening
                            .unwrap_or(gap / (E_CHARGE * E_CHARGE * j.resistance))
                    })
                    .collect();
                (
                    TunnelModel::Quasiparticle(table),
                    Some(SuperInfo { gap, ej, gamma }),
                )
            }
        };

        let cot_paths = if config.cotunneling {
            enumerate_cotunnel_paths(circuit)
        } else {
            Vec::new()
        };
        let layout = RateLayout {
            junctions: circuit.num_junctions(),
            cotunnel_paths: cot_paths.len(),
            cooper_pairs: super_info.is_some(),
        };

        let solver = match config.solver {
            SolverSpec::NonAdaptive => Solver::NonAdaptive(NonAdaptiveSolver::new()),
            SolverSpec::Adaptive {
                threshold,
                refresh_interval,
            }
            | SolverSpec::AdaptiveDense {
                threshold,
                refresh_interval,
            } => {
                if !(threshold >= 0.0) || !threshold.is_finite() {
                    return Err(CoreError::InvalidConfig {
                        what: "adaptive threshold",
                        value: threshold,
                    });
                }
                if refresh_interval == 0 {
                    return Err(CoreError::InvalidConfig {
                        what: "adaptive refresh interval",
                        value: 0.0,
                    });
                }
                let s = AdaptiveSolver::new(circuit, threshold, refresh_interval);
                Solver::Adaptive(
                    if matches!(config.solver, SolverSpec::AdaptiveDense { .. }) {
                        s.with_dense_reference()
                    } else {
                        s
                    },
                )
            }
        };

        let mut sim = Simulation {
            circuit,
            kt,
            model,
            layout,
            solver,
            state: CircuitState::new(circuit),
            rates: FenwickTree::new(layout.len()),
            cot_paths,
            super_info,
            rng: Rng::seed_from_u64(config.seed),
            time: 0.0,
            total_events: 0,
            electron_counts: vec![0.0; circuit.num_junctions()],
            probes: Vec::new(),
            event_log: None,
            stimuli: Vec::new(),
            next_stimulus: 0,
            supervisor: config.supervisor,
            health: HealthMonitor::new(config.audit_interval, config.drift_tolerance),
            #[cfg(feature = "fault-inject")]
            faults: FaultPlan::new(),
            #[cfg(feature = "fault-inject")]
            pending_poison: None,
        };
        sim.initialize()?;
        Ok(sim)
    }

    fn initialize(&mut self) -> Result<(), CoreError> {
        let ctx = solver_ctx!(self);
        self.solver
            .initialize(&ctx, &mut self.state, &mut self.rates)?;
        self.refresh_secondary_rates()?;
        debug_assert!(
            self.rates.is_consistent(),
            "rate table inconsistent after initialization"
        );
        Ok(())
    }

    /// Simulated time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total tunnel events executed since construction.
    pub fn events(&self) -> u64 {
        self.total_events
    }

    /// The electrostatic state (electron numbers, lead voltages,
    /// cached potentials).
    pub fn state(&self) -> &CircuitState {
        &self.state
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Immediately sets `lead` to `voltage`, updating rates through the
    /// solver (counts as an input step for the adaptive algorithm).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownLead`] for an out-of-range lead,
    /// [`CoreError::InvalidComponent`] for a non-finite voltage.
    pub fn set_lead_voltage(&mut self, lead: usize, voltage: f64) -> Result<(), CoreError> {
        if lead >= self.circuit.num_leads() {
            return Err(CoreError::UnknownLead { lead });
        }
        if !voltage.is_finite() {
            return Err(CoreError::InvalidComponent {
                what: "lead voltage",
                value: voltage,
            });
        }
        let old = self.state.set_lead_voltage(lead, voltage);
        let dv = voltage - old;
        if dv != 0.0 {
            let ctx = solver_ctx!(self);
            self.solver.apply_change(
                &ctx,
                &mut self.state,
                &mut self.rates,
                StateChange::LeadStep { lead, dv },
            )?;
            self.refresh_secondary_rates()?;
        }
        Ok(())
    }

    /// Schedules input steps for subsequent runs, replacing any pending
    /// ones. Stimuli are sorted by time (declaration order does not
    /// matter); duplicates with identical `(time, lead)` are collapsed
    /// to the last-declared one, counted in
    /// [`HealthReport::duplicate_stimuli_dropped`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidComponent`] for a non-finite time/voltage or
    /// a time before the current simulated time;
    /// [`CoreError::UnknownLead`] for an out-of-range lead. On error
    /// nothing is scheduled and previously pending stimuli are kept.
    pub fn schedule(&mut self, mut stimuli: Vec<Stimulus>) -> Result<(), CoreError> {
        for s in &stimuli {
            if !s.time.is_finite() {
                return Err(CoreError::InvalidComponent {
                    what: "stimulus time",
                    value: s.time,
                });
            }
            if s.time < self.time {
                return Err(CoreError::InvalidComponent {
                    what: "stimulus time before current simulation time",
                    value: s.time,
                });
            }
            if !s.voltage.is_finite() {
                return Err(CoreError::InvalidComponent {
                    what: "stimulus voltage",
                    value: s.voltage,
                });
            }
            if s.lead >= self.circuit.num_leads() {
                return Err(CoreError::UnknownLead { lead: s.lead });
            }
        }
        // Stable sort: same-(time, lead) entries keep declaration order,
        // so the dedup below retains the last-declared value.
        stimuli.sort_by(|a, b| f64::total_cmp(&a.time, &b.time).then(a.lead.cmp(&b.lead)));
        let mut dropped = 0u64;
        let mut deduped: Vec<Stimulus> = Vec::with_capacity(stimuli.len());
        for s in stimuli {
            match deduped.last_mut() {
                Some(last) if last.time.to_bits() == s.time.to_bits() && last.lead == s.lead => {
                    *last = s;
                    dropped += 1;
                }
                _ => deduped.push(s),
            }
        }
        if dropped > 0 {
            self.health.note_duplicate_stimuli(dropped);
        }
        self.stimuli = deduped;
        self.next_stimulus = 0;
        Ok(())
    }

    /// Attaches a voltage probe to `node`, sampled every `every` events;
    /// returns its index into [`Record::probes`].
    pub fn add_probe(&mut self, node: NodeId, every: u64) -> usize {
        self.probes.push(Probe::new(node, every));
        self.probes.len() - 1
    }

    /// Enables event logging with the given capacity (most recent
    /// events are kept).
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.event_log = Some(EventLog::new(capacity));
    }

    /// The event log, if enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.event_log.as_ref()
    }

    /// Potential (V) of any node right now: the lead voltage, or the
    /// island's cached potential, which both solvers keep exact after
    /// every event. The same value [`CircuitState::island_potentials`]
    /// holds.
    ///
    /// # Errors
    ///
    /// [`CoreError::NumericalFault`] (stage `IslandPotential`) if the
    /// island's potential is non-finite.
    pub fn node_potential(&self, node: NodeId) -> Result<f64, CoreError> {
        let v = self.state.potential(self.circuit, node);
        if let Some(island) = self.circuit.island_index(node) {
            screen_finite(FaultStage::IslandPotential, Some(island), v)?;
        }
        Ok(v)
    }

    /// Recomputes cotunneling and Cooper-pair rates non-adaptively (the
    /// paper's "non-adaptive solver" box in Fig. 3), screening each
    /// produced rate before it enters the table.
    fn refresh_secondary_rates(&mut self) -> Result<(), CoreError> {
        if self.cot_paths.is_empty() && self.super_info.is_none() {
            return Ok(());
        }
        for p in 0..self.cot_paths.len() {
            let path = self.cot_paths[p];
            let g = path_rate(self.circuit, &self.state, &path, self.kt);
            self.rates.set(
                self.layout.cotunnel_slot(p),
                screen_rate(FaultStage::CotunnelRate, Some(p), g)?,
            );
        }
        if let Some(info) = &self.super_info {
            for j in self.circuit.junction_ids() {
                let junction = *self.circuit.junction(j);
                let ej = info.ej[j.index()];
                let gamma = info.gamma[j.index()];
                let jx = Some(j.index());
                let dw_fw = delta_w(
                    self.circuit,
                    &self.state,
                    junction.node_a,
                    junction.node_b,
                    2,
                );
                let dw_bw = delta_w(
                    self.circuit,
                    &self.state,
                    junction.node_b,
                    junction.node_a,
                    2,
                );
                screen_finite(FaultStage::FreeEnergy, jx, dw_fw)?;
                screen_finite(FaultStage::FreeEnergy, jx, dw_bw)?;
                self.rates.set(
                    self.layout.cooper_slot(j, true),
                    screen_rate(
                        FaultStage::CooperPairRate,
                        jx,
                        cooper_pair_rate(dw_fw, ej, gamma),
                    )?,
                );
                self.rates.set(
                    self.layout.cooper_slot(j, false),
                    screen_rate(
                        FaultStage::CooperPairRate,
                        jx,
                        cooper_pair_rate(dw_bw, ej, gamma),
                    )?,
                );
            }
        }
        Ok(())
    }

    /// Applies any stimulus scheduled at or before `self.time`.
    /// Stimulus leads and voltages were validated at [`schedule`]
    /// (`Simulation::schedule`) time, so failures here are genuine
    /// numerical faults and propagate.
    fn apply_due_stimuli(&mut self) -> Result<(), CoreError> {
        while self.next_stimulus < self.stimuli.len()
            && self.stimuli[self.next_stimulus].time <= self.time
        {
            let s = self.stimuli[self.next_stimulus];
            self.next_stimulus += 1;
            self.set_lead_voltage(s.lead, s.voltage)?;
            self.sample_probes(true)?;
        }
        Ok(())
    }

    fn sample_probes(&mut self, force: bool) -> Result<(), CoreError> {
        if self.probes.is_empty() {
            return Ok(());
        }
        let t = self.time;
        let ev = self.total_events;
        for p in 0..self.probes.len() {
            let due = force || ev.is_multiple_of(self.probes[p].every);
            if due {
                let node = self.probes[p].node;
                let v = self.node_potential(node)?;
                self.probes[p].push(t, v);
            }
        }
        Ok(())
    }

    fn decode_event(&self, slot: usize) -> Event {
        match self.layout.decode(slot) {
            SlotKind::Tunnel { junction, forward } => {
                let j = self.circuit.junction(junction);
                let (from, to) = if forward {
                    (j.node_a, j.node_b)
                } else {
                    (j.node_b, j.node_a)
                };
                Event::Tunnel { junction, from, to }
            }
            SlotKind::Cotunnel { path } => {
                let p = self.cot_paths[path];
                Event::Cotunnel {
                    junction_a: p.junction_a,
                    junction_b: p.junction_b,
                    from: p.from,
                    via: p.via,
                    to: p.to,
                }
            }
            SlotKind::CooperPair { junction, forward } => {
                let j = self.circuit.junction(junction);
                let (from, to) = if forward {
                    (j.node_a, j.node_b)
                } else {
                    (j.node_b, j.node_a)
                };
                Event::CooperPair { junction, from, to }
            }
        }
    }

    /// Signed electron count `node_a → node_b` bookkeeping.
    fn count_transfer(&mut self, junction: JunctionId, from: NodeId, electrons: f64) {
        let j = self.circuit.junction(junction);
        let sign = if from == j.node_a { 1.0 } else { -1.0 };
        self.electron_counts[junction.index()] += sign * electrons;
    }

    fn apply_event(&mut self, event: Event) -> Result<(), CoreError> {
        let (from, to) = event.endpoints();
        let count = event.electron_count();
        #[cfg(debug_assertions)]
        let electrons_before: i64 = self.state.electrons().iter().sum();
        self.state.apply_transfer(self.circuit, from, to, count);
        #[cfg(debug_assertions)]
        {
            // Charge conservation: island electron totals may only change
            // through transfers that cross the island/lead boundary.
            let mut expected = electrons_before;
            if self.circuit.island_index(from).is_some() {
                expected -= count;
            }
            if self.circuit.island_index(to).is_some() {
                expected += count;
            }
            let after: i64 = self.state.electrons().iter().sum();
            debug_assert_eq!(after, expected, "charge not conserved by {event:?}");
        }
        match event {
            Event::Tunnel { junction, from, .. } => {
                self.count_transfer(junction, from, 1.0);
            }
            Event::CooperPair { junction, from, .. } => {
                self.count_transfer(junction, from, 2.0);
            }
            Event::Cotunnel {
                junction_a,
                junction_b,
                from,
                via,
                ..
            } => {
                self.count_transfer(junction_a, from, 1.0);
                self.count_transfer(junction_b, via, 1.0);
            }
        }
        let ctx = solver_ctx!(self);
        self.solver.apply_change(
            &ctx,
            &mut self.state,
            &mut self.rates,
            StateChange::Transfer { from, to, count },
        )?;
        self.refresh_secondary_rates()?;
        debug_assert!(
            self.rates.is_consistent(),
            "rate table inconsistent after {event:?} at t={}",
            self.time
        );
        self.total_events += 1;
        if let Some(log) = &mut self.event_log {
            log.push(self.time, event);
        }
        self.sample_probes(false)?;
        Ok(())
    }

    /// Flushes every cache: clears the whole rate table and rebuilds
    /// potentials and rates from the electron numbers in canonical
    /// order. The Fenwick tree is reaccumulated from zero so its
    /// internal partial sums are a pure function of the current state —
    /// the invariant checkpoint/resume bit-identity rests on.
    fn resync_rates(&mut self) -> Result<(), CoreError> {
        self.rates.clear();
        let ctx = solver_ctx!(self);
        self.solver.resync(&ctx, &mut self.state, &mut self.rates)?;
        self.refresh_secondary_rates()?;
        debug_assert!(
            self.rates.is_consistent(),
            "rate table inconsistent after resync"
        );
        Ok(())
    }

    /// One drift audit: measure cached-vs-exact rate drift; beyond
    /// tolerance, degrade gracefully (full cache flush + adaptive
    /// threshold tightening) and log the incident.
    fn run_drift_audit(&mut self) -> Result<(), CoreError> {
        let (drift, slot) = {
            let ctx = solver_ctx!(self);
            measure_rate_drift(&ctx, &self.state, &self.rates)?
        };
        self.health.note_audit(drift);
        if drift > self.health.drift_tolerance() {
            self.resync_rates()?;
            let threshold_after = self.solver.tighten_threshold();
            self.health.note_degradation(DegradationEvent {
                event: self.total_events,
                time: self.time,
                drift,
                slot,
                threshold_after,
            });
        }
        Ok(())
    }

    /// Fires every scripted fault whose event index has been reached.
    #[cfg(feature = "fault-inject")]
    fn trigger_due_faults(&mut self) -> Result<(), CoreError> {
        for i in 0..self.faults.actions.len() {
            if self.faults.actions[i].fired || self.faults.actions[i].at_event > self.total_events {
                continue;
            }
            self.faults.actions[i].fired = true;
            match self.faults.actions[i].kind {
                FaultKind::PoisonRate { junction } => {
                    self.pending_poison = Some(junction);
                }
                FaultKind::CorruptCache { junction, factor } => {
                    if let Solver::Adaptive(s) = &mut self.solver {
                        s.corrupt_cache_entry(junction, factor);
                    }
                }
                FaultKind::FailRefresh { junction } => {
                    self.pending_poison = Some(junction);
                    self.resync_rates()?;
                }
                FaultKind::PanicAt => {
                    panic!(
                        "injected fault: panic at event {}",
                        self.faults.actions[i].at_event
                    );
                }
            }
        }
        Ok(())
    }

    /// Arms a scripted fault plan (testing only).
    #[cfg(feature = "fault-inject")]
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Cumulative health summary: audits performed, worst drift,
    /// degradation incidents, dropped duplicate stimuli.
    pub fn health_report(&self) -> HealthReport {
        self.health.report()
    }

    /// Serializes the complete dynamic state as a versioned binary
    /// checkpoint (see [`crate::checkpoint`] for the format). The
    /// caches are synchronized first, which mutates solver work
    /// counters identically to what a later [`Simulation::resume`] of
    /// the snapshot does — so a resumed run and the uninterrupted
    /// original produce bit-identical [`Record`]s.
    ///
    /// # Errors
    ///
    /// Propagates numerical faults detected while synchronizing.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CoreError> {
        self.resync_rates()?;
        self.health.reset_audit_clock();
        Ok(self.capture().encode())
    }

    fn capture(&self) -> Checkpoint {
        Checkpoint {
            time: self.time,
            events: self.total_events,
            rng_state: self.rng.state(),
            islands: self.circuit.num_islands() as u64,
            leads: self.circuit.num_leads() as u64,
            junctions: self.circuit.num_junctions() as u64,
            electrons: self.state.electrons().to_vec(),
            lead_voltages: self.state.lead_voltages().to_vec(),
            electron_counts: self.electron_counts.clone(),
            stimuli: self.stimuli.clone(),
            next_stimulus: self.next_stimulus as u64,
            probes: self
                .probes
                .iter()
                .map(|p| ProbeSnapshot {
                    node: p.node.index() as u64,
                    every: p.every,
                    samples: p.samples().to_vec(),
                })
                .collect(),
            solver: match &self.solver {
                Solver::NonAdaptive(s) => SolverSnapshot::NonAdaptive {
                    rate_recalcs: s.rate_recalcs(),
                },
                Solver::Adaptive(s) => SolverSnapshot::Adaptive {
                    threshold: s.threshold(),
                    refresh_interval: s.refresh_interval(),
                    stats: *s.stats(),
                },
            },
        }
    }

    /// Restores the dynamic state from a checkpoint produced by
    /// [`Simulation::checkpoint`] on a simulation of the *same* circuit
    /// and an equivalent configuration. Probes and pending stimuli are
    /// replaced by the snapshot's.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointCorrupt`] for a damaged byte stream,
    /// [`CoreError::CheckpointMismatch`] when the snapshot does not
    /// describe this circuit/solver.
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        let cp = Checkpoint::decode(bytes)?;
        let shape = |what, expected: u64, found: u64| {
            if expected == found {
                Ok(())
            } else {
                Err(CoreError::CheckpointMismatch {
                    what,
                    expected,
                    found,
                })
            }
        };
        let islands = self.circuit.num_islands() as u64;
        let leads = self.circuit.num_leads() as u64;
        let junctions = self.circuit.num_junctions() as u64;
        shape("islands", islands, cp.islands)?;
        shape("leads", leads, cp.leads)?;
        shape("junctions", junctions, cp.junctions)?;
        if cp.electrons.len() as u64 != islands {
            return Err(CoreError::CheckpointCorrupt {
                what: "electron vector length",
            });
        }
        if cp.lead_voltages.len() as u64 != leads {
            return Err(CoreError::CheckpointCorrupt {
                what: "lead voltage vector length",
            });
        }
        if cp.electron_counts.len() as u64 != junctions {
            return Err(CoreError::CheckpointCorrupt {
                what: "electron count vector length",
            });
        }
        if !cp.time.is_finite() {
            return Err(CoreError::CheckpointCorrupt {
                what: "non-finite time",
            });
        }
        match (&self.solver, &cp.solver) {
            (Solver::NonAdaptive(_), SolverSnapshot::NonAdaptive { .. }) => {}
            (
                Solver::Adaptive(s),
                SolverSnapshot::Adaptive {
                    refresh_interval, ..
                },
            ) => {
                shape(
                    "adaptive refresh interval",
                    s.refresh_interval(),
                    *refresh_interval,
                )?;
            }
            (mine, theirs) => {
                let kind = |s: &SolverSnapshot| match s {
                    SolverSnapshot::NonAdaptive { .. } => 0,
                    SolverSnapshot::Adaptive { .. } => 1,
                };
                let my_kind = match mine {
                    Solver::NonAdaptive(_) => 0,
                    Solver::Adaptive(_) => 1,
                };
                return Err(CoreError::CheckpointMismatch {
                    what: "solver kind",
                    expected: my_kind,
                    found: kind(theirs),
                });
            }
        }
        if cp.next_stimulus as usize > cp.stimuli.len() {
            return Err(CoreError::CheckpointCorrupt {
                what: "stimulus cursor",
            });
        }
        for s in &cp.stimuli {
            if !s.time.is_finite() || !s.voltage.is_finite() || s.lead as u64 >= leads {
                return Err(CoreError::CheckpointCorrupt { what: "stimulus" });
            }
        }
        let num_nodes = (islands + leads) as usize;
        for p in &cp.probes {
            if p.node as usize >= num_nodes {
                return Err(CoreError::CheckpointCorrupt { what: "probe node" });
            }
        }

        self.state
            .restore(self.circuit, cp.electrons, cp.lead_voltages);
        self.rng = Rng::from_state(cp.rng_state);
        self.time = cp.time;
        self.total_events = cp.events;
        self.electron_counts = cp.electron_counts;
        self.stimuli = cp.stimuli;
        self.next_stimulus = cp.next_stimulus as usize;
        self.probes = cp
            .probes
            .into_iter()
            .map(|p| {
                let mut probe = Probe::new(NodeId(p.node as usize), p.every);
                probe.samples = p.samples;
                probe
            })
            .collect();
        self.resync_rates()?;
        // Overwrite the solver counters *after* the resync: the
        // checkpoint side's counters were serialized after its own
        // resync, so copying them verbatim keeps both sides equal.
        match (&mut self.solver, cp.solver) {
            (Solver::NonAdaptive(s), SolverSnapshot::NonAdaptive { rate_recalcs }) => {
                s.set_rate_recalcs(rate_recalcs);
            }
            (
                Solver::Adaptive(s),
                SolverSnapshot::Adaptive {
                    threshold, stats, ..
                },
            ) => {
                s.set_threshold(threshold);
                s.set_stats(stats);
            }
            _ => unreachable!("solver kind validated above"),
        }
        self.health.reset_audit_clock();
        Ok(())
    }

    /// Runs the Monte Carlo loop for `length`, under the configured
    /// [`Supervisor`] limits; [`Record::outcome`] states why the run
    /// stopped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BlockadeStall`] if every rate is zero, no
    /// stimulus is pending, and the requested length is event-counted
    /// (with [`RunLength::Time`] the remaining span simply elapses
    /// without transport, which is physically meaningful). With
    /// [`Supervisor::blockade_is_outcome`] set the stall is instead
    /// reported as [`RunOutcome::Blockaded`]. [`CoreError::NumericalFault`]
    /// surfaces non-finite rates the moment they are produced.
    pub fn run(&mut self, length: RunLength) -> Result<Record, CoreError> {
        let t_start = self.time;
        let ev_start = self.total_events;
        let counts_start = self.electron_counts.clone();
        let recalcs_start = self.solver.rate_recalcs();
        let deg_start = self.health.degradations().len();
        let wall_start = std::time::Instant::now();
        let mut outcome = RunOutcome::Completed;
        // One free drift audit per frozen stretch (see the blockade
        // branch below); reset whenever an event actually executes.
        let mut audited_frozen = false;

        self.apply_due_stimuli()?;

        loop {
            match length {
                RunLength::Events(n) => {
                    if self.total_events - ev_start >= n {
                        break;
                    }
                }
                RunLength::Time(t) => {
                    if self.time - t_start >= t {
                        break;
                    }
                }
            }
            if let Some(cap) = self.supervisor.max_events {
                if self.total_events >= cap {
                    outcome = RunOutcome::EventCapReached { cap };
                    break;
                }
            }
            if let Some(budget) = self.supervisor.wall_clock_budget {
                if wall_start.elapsed().as_secs_f64() >= budget {
                    outcome = RunOutcome::WallClockExceeded { budget };
                    break;
                }
            }
            #[cfg(feature = "fault-inject")]
            self.trigger_due_faults()?;

            let total = self.rates.total();
            if !total.is_finite() {
                return Err(CoreError::NumericalFault {
                    stage: FaultStage::RateTotal,
                    junction: None,
                    value: total,
                });
            }
            let next_stim_time = self
                .stimuli
                .get(self.next_stimulus)
                .map(|s| s.time.max(self.time));

            if !(total > 0.0) {
                // A frozen table is either genuine Coulomb blockade or
                // a drifted cache whose stale rates decayed to zero.
                // When the drift audit is enabled, check against ground
                // truth once before declaring blockade — a degradation
                // flushes the cache and the run continues.
                if self.health.audit_enabled() && !audited_frozen {
                    audited_frozen = true;
                    self.run_drift_audit()?;
                    if self.rates.total() > 0.0 {
                        continue;
                    }
                }
                // Frozen: jump to the next stimulus or the end of a
                // timed run.
                match (next_stim_time, length) {
                    (Some(ts), RunLength::Time(t)) if ts <= t_start + t => {
                        self.time = ts;
                        self.apply_due_stimuli()?;
                        continue;
                    }
                    (Some(ts), RunLength::Events(_)) => {
                        self.time = ts;
                        self.apply_due_stimuli()?;
                        continue;
                    }
                    (_, RunLength::Time(t)) => {
                        self.time = t_start + t;
                        break;
                    }
                    (None, RunLength::Events(_)) => {
                        if self.supervisor.blockade_is_outcome {
                            outcome = RunOutcome::Blockaded { time: self.time };
                            break;
                        }
                        return Err(CoreError::BlockadeStall { time: self.time });
                    }
                }
            }

            // Waiting time (paper Eq. 5): Δt = −ln(r)/Γ_sum.
            let u: f64 = self.rng.f64();
            let dt = -(1.0 - u).ln() / total;
            let t_next = self.time + dt;

            // An input step pre-empts the tunnel event (the Poisson
            // process is memoryless, so redrawing afterwards is exact).
            if let Some(ts) = next_stim_time {
                if ts <= t_next {
                    self.time = ts;
                    self.apply_due_stimuli()?;
                    continue;
                }
            }
            // For timed runs, do not overshoot the horizon.
            if let RunLength::Time(t) = length {
                if t_next > t_start + t {
                    self.time = t_start + t;
                    break;
                }
            }

            self.time = t_next;
            let u2: f64 = self.rng.f64();
            let slot = self.rates.sample(u2).ok_or(CoreError::NumericalFault {
                stage: FaultStage::EventSampling,
                junction: None,
                value: total,
            })?;
            let event = self.decode_event(slot);
            self.apply_event(event)?;
            audited_frozen = false;
            if self.health.audit_due() {
                self.run_drift_audit()?;
            }
        }

        Ok(Record {
            duration: self.time - t_start,
            events: self.total_events - ev_start,
            electron_counts: self
                .electron_counts
                .iter()
                .zip(&counts_start)
                .map(|(a, b)| a - b)
                .collect(),
            probes: self.probes.clone(),
            adaptive_stats: self.solver.adaptive_stats().copied(),
            rate_recalcs: self.solver.rate_recalcs() - recalcs_start,
            outcome,
            degradations: self.health.degradations()[deg_start..].to_vec(),
        })
    }
}

/// One point of a current–voltage sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Swept control value (V).
    pub control: f64,
    /// Measured time-averaged current (A).
    pub current: f64,
    /// Why the measurement run stopped. A true Coulomb-blockade zero is
    /// [`RunOutcome::Blockaded`]; a point whose supervisor budget
    /// expired before measuring anything is
    /// [`RunOutcome::WallClockExceeded`]/[`RunOutcome::EventCapReached`]
    /// — previously both read as an indistinguishable `0.0 A`.
    pub outcome: RunOutcome,
    /// Tunnel events actually measured (after warmup).
    pub events: u64,
}

impl SweepPoint {
    /// `true` when the point's current is a trustworthy measurement:
    /// the run completed, or the device is genuinely blockaded (zero is
    /// the physical reading). Budget-truncated points return `false`.
    pub fn is_measured(&self) -> bool {
        matches!(
            self.outcome,
            RunOutcome::Completed | RunOutcome::Blockaded { .. }
        )
    }
}

/// Measures one sweep point from an **already-seeded** config: a
/// fresh simulation of `circuit`, `setup` applied, `warmup` discarded
/// events, `events` measured events through `junction`. The per-point
/// health report rides along so the batch layer can merge it. This is
/// the per-attempt primitive of [`crate::batch::batch_sweep`], which
/// derives the seed from the point's task and attempt. A blockade stall
/// (zero total rate) is the physical reading of a Coulomb-blockaded
/// device: zero current with [`RunOutcome::Blockaded`], not an error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_point_seeded<F>(
    circuit: &Circuit,
    cfg: SimConfig,
    junction: JunctionId,
    control: f64,
    warmup: u64,
    events: u64,
    setup: &mut F,
) -> Result<(SweepPoint, HealthReport), CoreError>
where
    F: FnMut(&mut Simulation<'_>, f64) -> Result<(), CoreError> + ?Sized,
{
    let mut sim = Simulation::new(circuit, cfg)?;
    setup(&mut sim, control)?;
    let blockaded = |time| SweepPoint {
        control,
        current: 0.0,
        outcome: RunOutcome::Blockaded { time },
        events: 0,
    };
    match sim.run(RunLength::Events(warmup)) {
        Err(CoreError::BlockadeStall { time }) => Ok((blockaded(time), sim.health_report())),
        Err(e) => Err(e),
        Ok(_) => match sim.run(RunLength::Events(events)) {
            Err(CoreError::BlockadeStall { time }) => Ok((blockaded(time), sim.health_report())),
            Err(e) => Err(e),
            Ok(record) => {
                let point = SweepPoint {
                    control,
                    current: record.current(junction),
                    outcome: record.outcome,
                    events: record.events,
                };
                Ok((point, sim.health_report()))
            }
        },
    }
}

/// Builds an inclusive linear grid of `n ≥ 2` points from `a` to `b`.
///
/// # Example
///
/// ```
/// let g = semsim_core::engine::linspace(0.0, 1.0, 5);
/// assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    if n < 2 {
        return vec![a];
    }
    (0..n)
        .map(|i| a + (b - a) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::circuit::NodeId;

    /// The paper's Fig. 1b SET with symmetric bias ±v/2 on leads 1, 2.
    fn paper_set() -> (Circuit, JunctionId, JunctionId) {
        let mut b = CircuitBuilder::new();
        let src = b.add_lead(0.0);
        let drn = b.add_lead(0.0);
        let gate = b.add_lead(0.0);
        let island = b.add_island();
        let j1 = b.add_junction(src, island, 1e6, 1e-18).unwrap();
        let j2 = b.add_junction(island, drn, 1e6, 1e-18).unwrap();
        b.add_capacitor(gate, island, 3e-18).unwrap();
        (b.build().unwrap(), j1, j2)
    }

    #[test]
    fn blockade_suppresses_current_at_low_temperature() {
        let (c, _j1, _) = paper_set();
        // e/CΣ = 32 mV; at ±5 mV bias and 10 mK the SET is blockaded.
        let cfg = SimConfig::new(0.01).with_seed(1);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.set_lead_voltage(1, 2.5e-3).unwrap();
        sim.set_lead_voltage(2, -2.5e-3).unwrap();
        let res = sim.run(RunLength::Events(100));
        assert!(matches!(res, Err(CoreError::BlockadeStall { .. })));
    }

    #[test]
    fn conduction_above_threshold() {
        let (c, j1, j2) = paper_set();
        let cfg = SimConfig::new(0.01).with_seed(1);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        // Above e/CΣ = 32 mV the SET conducts even at T ≈ 0.
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        let r = sim.run(RunLength::Events(5000)).unwrap();
        let i1 = r.current(j1);
        let i2 = r.current(j2);
        assert!(i1 > 0.0, "positive current source→drain, got {i1}");
        // Current continuity: both junctions carry the same average
        // current (within Monte Carlo noise: counts differ by ≤ 1).
        assert!((i1 - i2).abs() / i1 < 0.01, "{i1} vs {i2}");
        // Ohmic scale sanity: I < V/(R1+R2).
        assert!(i1 < 40e-3 / 2e6);
    }

    #[test]
    fn timed_run_with_blockade_elapses_time() {
        let (c, j1, _) = paper_set();
        let cfg = SimConfig::new(0.0).with_seed(3);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        let r = sim.run(RunLength::Time(1e-6)).unwrap();
        assert!((r.duration - 1e-6).abs() < 1e-12);
        assert_eq!(r.events, 0);
        assert_eq!(r.current(j1), 0.0);
    }

    #[test]
    fn stimulus_wakes_blockaded_circuit() {
        let (c, j1, _) = paper_set();
        let cfg = SimConfig::new(0.01).with_seed(4);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.schedule(vec![
            Stimulus {
                time: 1e-7,
                lead: 1,
                voltage: 25e-3,
            },
            Stimulus {
                time: 1e-7,
                lead: 2,
                voltage: -25e-3,
            },
        ])
        .unwrap();
        let r = sim.run(RunLength::Time(1e-6)).unwrap();
        assert!(r.events > 0, "stimulus should unfreeze the device");
        assert!(r.current(j1) > 0.0);
    }

    #[test]
    fn adaptive_and_nonadaptive_currents_agree() {
        let (c, j1, _) = paper_set();
        let bias = 25e-3;
        let run = |spec: SolverSpec| {
            let cfg = SimConfig::new(5.0).with_seed(11).with_solver(spec);
            let mut sim = Simulation::new(&c, cfg).unwrap();
            sim.set_lead_voltage(1, bias).unwrap();
            sim.set_lead_voltage(2, -bias).unwrap();
            sim.run(RunLength::Events(30_000)).unwrap().current(j1)
        };
        let i_ref = run(SolverSpec::NonAdaptive);
        let i_adp = run(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 500,
        });
        let err = (i_adp - i_ref).abs() / i_ref.abs();
        assert!(
            err < 0.1,
            "adaptive {i_adp} vs non-adaptive {i_ref} ({err:.3})"
        );
    }

    #[test]
    fn adaptive_does_less_rate_work() {
        // On a multi-stage circuit the adaptive solver must recalculate
        // far fewer rates per event than the non-adaptive one.
        let mut b = CircuitBuilder::new();
        // e/CΣ ≈ 53 mV per stage island: 80 mV supply keeps stage 1
        // conducting so the Monte Carlo loop has events to process.
        let vdd = b.add_lead(80e-3);
        let mut prev = vdd;
        let mut first_j = None;
        for s in 0..10 {
            let isl = b.add_island();
            let j = b.add_junction(prev, isl, 1e6, 1e-18).unwrap();
            first_j.get_or_insert(j);
            b.add_junction(isl, NodeId::GROUND, 1e6, 1e-18).unwrap();
            let wire = b.add_island();
            b.add_capacitor(isl, wire, 1e-18).unwrap();
            b.add_capacitor(wire, NodeId::GROUND, 1e-15).unwrap();
            let _ = s;
            prev = wire;
        }
        let c = b.build().unwrap();

        let run = |spec: SolverSpec| {
            let cfg = SimConfig::new(5.0).with_seed(5).with_solver(spec);
            let mut sim = Simulation::new(&c, cfg).unwrap();
            sim.run(RunLength::Events(2_000)).unwrap().rate_recalcs
        };
        let non = run(SolverSpec::NonAdaptive);
        let adp = run(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 1_000,
        });
        assert!(
            adp * 3 < non,
            "adaptive recalcs {adp} not ≪ non-adaptive {non}"
        );
    }

    /// The batch sweep's values at `controls` under symmetric bias.
    fn swept(c: &Circuit, cfg: &SimConfig, j: JunctionId, controls: &[f64]) -> Vec<SweepPoint> {
        crate::batch::batch_sweep(
            c,
            cfg,
            j,
            controls,
            100,
            2_000,
            &crate::batch::BatchOpts::default(),
            |sim, v, _spec| {
                sim.set_lead_voltage(1, v / 2.0)?;
                sim.set_lead_voltage(2, -v / 2.0)
            },
        )
        .unwrap()
        .values()
        .unwrap()
    }

    #[test]
    fn sweep_records_blockade_as_zero() {
        let (c, j1, _) = paper_set();
        let pts = swept(&c, &SimConfig::new(0.01), j1, &[1e-3, 40e-3]);
        assert_eq!(pts[0].current, 0.0, "blockaded point reads zero");
        assert!(matches!(pts[0].outcome, RunOutcome::Blockaded { .. }));
        assert!(pts[0].is_measured(), "blockade zero is a physical reading");
        assert!(pts[1].current > 0.0);
        assert_eq!(pts[1].outcome, RunOutcome::Completed);
        assert_eq!(pts[1].events, 2_000);
    }

    #[test]
    fn sweep_wall_clock_point_distinguishable_from_blockade() {
        // Two zero-current readings with opposite meanings: a genuinely
        // blockaded device, and a conducting device whose wall-clock
        // budget expired before a single event was measured. Before
        // `SweepPoint::outcome` both collapsed to `current == 0.0`.
        let (c, j1, _) = paper_set();
        let blocked = swept(&c, &SimConfig::new(0.01), j1, &[1e-3]);
        assert_eq!(blocked[0].current, 0.0);
        assert!(matches!(blocked[0].outcome, RunOutcome::Blockaded { .. }));
        assert!(blocked[0].is_measured());

        // The same zero reading from a *conducting* device whose
        // wall-clock budget expired before a single event was measured.
        let strangled = SimConfig::new(0.01).with_supervisor(Supervisor {
            wall_clock_budget: Some(1e-12),
            ..Supervisor::default()
        });
        let cut = swept(&c, &strangled, j1, &[40e-3]);
        assert_eq!(cut[0].current, 0.0);
        assert!(
            matches!(cut[0].outcome, RunOutcome::WallClockExceeded { .. }),
            "truncated point must not masquerade as blockade: {:?}",
            cut[0].outcome
        );
        assert!(!cut[0].is_measured());
        assert_eq!(cut[0].events, 0);
    }

    #[test]
    fn probes_capture_switching() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(5.0).with_seed(6);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        let island = c.island_node(0);
        sim.add_probe(island, 1);
        sim.set_lead_voltage(1, 25e-3).unwrap();
        sim.set_lead_voltage(2, -25e-3).unwrap();
        let r = sim.run(RunLength::Events(500)).unwrap();
        assert!(!r.probes[0].samples().is_empty());
    }

    #[test]
    fn non_finite_probed_potential_is_refused_on_read() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(5.0)
            .with_seed(6)
            .with_solver(SolverSpec::Adaptive {
                threshold: 0.05,
                refresh_interval: 1000,
            });
        let mut sim = Simulation::new(&c, cfg).unwrap();
        let island = c.island_node(0);
        sim.add_probe(island, 1);
        sim.set_lead_voltage(1, 25e-3).unwrap();
        sim.set_lead_voltage(2, -25e-3).unwrap();
        sim.run(RunLength::Events(50)).unwrap();
        assert_eq!(
            sim.node_potential(island).unwrap().to_bits(),
            sim.state().island_potentials()[0].to_bits()
        );
        sim.state.phi[0] = f64::NAN;
        assert!(matches!(
            sim.node_potential(island),
            Err(CoreError::NumericalFault {
                stage: FaultStage::IslandPotential,
                junction: Some(0),
                ..
            })
        ));
        assert_eq!(sim.node_potential(NodeId::GROUND).unwrap(), 0.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let (c, _, _) = paper_set();
        assert!(Simulation::new(&c, SimConfig::new(f64::NAN)).is_err());
        assert!(Simulation::new(&c, SimConfig::new(-1.0)).is_err());
        let bad = SimConfig::new(1.0).with_solver(SolverSpec::Adaptive {
            threshold: f64::NAN,
            refresh_interval: 10,
        });
        assert!(Simulation::new(&c, bad).is_err());
        let bad2 = SimConfig::new(1.0).with_solver(SolverSpec::Adaptive {
            threshold: 0.1,
            refresh_interval: 0,
        });
        assert!(Simulation::new(&c, bad2).is_err());
        let mut sim = Simulation::new(&c, SimConfig::new(1.0)).unwrap();
        assert!(sim.set_lead_voltage(99, 0.0).is_err());
    }

    #[test]
    fn linspace_shapes() {
        assert_eq!(linspace(0.0, 1.0, 1), vec![0.0]);
        let g = linspace(-1.0, 1.0, 3);
        assert_eq!(g, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn supervisor_reports_blockade_as_outcome() {
        let (c, j1, _) = paper_set();
        let cfg = SimConfig::new(0.01)
            .with_seed(1)
            .with_supervisor(Supervisor {
                blockade_is_outcome: true,
                ..Supervisor::default()
            });
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.set_lead_voltage(1, 2.5e-3).unwrap();
        sim.set_lead_voltage(2, -2.5e-3).unwrap();
        let r = sim.run(RunLength::Events(100)).unwrap();
        assert!(matches!(r.outcome, RunOutcome::Blockaded { .. }));
        assert_eq!(r.events, 0);
        assert_eq!(r.current(j1), 0.0);
    }

    #[test]
    fn supervisor_event_cap_stops_run() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(0.01)
            .with_seed(2)
            .with_supervisor(Supervisor {
                max_events: Some(50),
                ..Supervisor::default()
            });
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        let r = sim.run(RunLength::Events(5_000)).unwrap();
        assert_eq!(r.outcome, RunOutcome::EventCapReached { cap: 50 });
        assert_eq!(r.events, 50);
        // A subsequent run stops immediately at the cap.
        let r2 = sim.run(RunLength::Events(10)).unwrap();
        assert_eq!(r2.events, 0);
        assert_eq!(r2.outcome, RunOutcome::EventCapReached { cap: 50 });
    }

    #[test]
    fn supervisor_wall_clock_budget_stops_run() {
        let (c, _, _) = paper_set();
        // A budget far below one loop iteration: the run must stop at
        // the first check with the wall-clock outcome, not an error.
        let cfg = SimConfig::new(0.01)
            .with_seed(2)
            .with_supervisor(Supervisor {
                wall_clock_budget: Some(1e-12),
                ..Supervisor::default()
            });
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        let r = sim.run(RunLength::Events(1_000_000)).unwrap();
        assert_eq!(r.outcome, RunOutcome::WallClockExceeded { budget: 1e-12 });
        assert!(r.events < 1_000_000);
    }

    #[test]
    fn invalid_supervisor_and_audit_config_rejected() {
        let (c, _, _) = paper_set();
        let bad = SimConfig::new(1.0).with_audit_interval(0);
        assert!(Simulation::new(&c, bad).is_err());
        let bad = SimConfig::new(1.0).with_drift_tolerance(f64::NAN);
        assert!(Simulation::new(&c, bad).is_err());
        let bad = SimConfig::new(1.0).with_supervisor(Supervisor {
            wall_clock_budget: Some(-1.0),
            ..Supervisor::default()
        });
        assert!(Simulation::new(&c, bad).is_err());
    }

    #[test]
    fn non_finite_lead_voltage_rejected() {
        let (c, _, _) = paper_set();
        let mut sim = Simulation::new(&c, SimConfig::new(1.0)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                sim.set_lead_voltage(1, bad),
                Err(CoreError::InvalidComponent {
                    what: "lead voltage",
                    ..
                })
            ));
        }
        // The rejected step must not have disturbed the rate table.
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        assert!(sim.run(RunLength::Events(100)).is_ok());
    }

    #[test]
    fn schedule_rejects_bad_stimuli() {
        let (c, _, _) = paper_set();
        let mut sim = Simulation::new(&c, SimConfig::new(1.0)).unwrap();
        let stim = |time, lead, voltage| Stimulus {
            time,
            lead,
            voltage,
        };
        assert!(matches!(
            sim.schedule(vec![stim(f64::NAN, 1, 1e-3)]),
            Err(CoreError::InvalidComponent {
                what: "stimulus time",
                ..
            })
        ));
        assert!(matches!(
            sim.schedule(vec![stim(1e-9, 1, f64::INFINITY)]),
            Err(CoreError::InvalidComponent {
                what: "stimulus voltage",
                ..
            })
        ));
        assert!(matches!(
            sim.schedule(vec![stim(1e-9, 99, 1e-3)]),
            Err(CoreError::UnknownLead { lead: 99 })
        ));
        // A stimulus in the simulated past is rejected too.
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        sim.run(RunLength::Time(1e-8)).unwrap();
        assert!(matches!(
            sim.schedule(vec![stim(1e-12, 1, 1e-3)]),
            Err(CoreError::InvalidComponent {
                what: "stimulus time before current simulation time",
                ..
            })
        ));
    }

    #[test]
    fn schedule_sorts_and_dedups() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(0.01).with_seed(4);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        // Declared out of order, with a duplicate (time, lead): the
        // last-declared duplicate must win, and the same-time pair on
        // different leads must both survive.
        sim.schedule(vec![
            Stimulus {
                time: 2e-7,
                lead: 1,
                voltage: 10e-3,
            },
            Stimulus {
                time: 1e-7,
                lead: 2,
                voltage: -25e-3,
            },
            Stimulus {
                time: 1e-7,
                lead: 1,
                voltage: 5e-3,
            },
            Stimulus {
                time: 2e-7,
                lead: 1,
                voltage: 25e-3,
            },
        ])
        .unwrap();
        let r = sim.run(RunLength::Time(1e-6)).unwrap();
        assert_eq!(sim.health_report().duplicate_stimuli_dropped, 1);
        assert_eq!(sim.state().lead_voltages()[1], 25e-3);
        assert_eq!(sim.state().lead_voltages()[2], -25e-3);
        assert!(r.events > 0);
    }

    #[test]
    fn drift_audits_run_clean_on_nonadaptive_solver() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(5.0).with_seed(9).with_audit_interval(100);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        let r = sim.run(RunLength::Events(1_000)).unwrap();
        let h = sim.health_report();
        assert_eq!(h.audits, 10);
        // The non-adaptive solver recomputes everything each event, so
        // drift can only be rounding noise and never degrades.
        assert!(h.worst_drift < 1e-9, "drift {}", h.worst_drift);
        assert!(r.degradations.is_empty());
    }

    #[test]
    fn checkpoint_resume_round_trip_smoke() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(5.0).with_seed(12);
        let mut sim = Simulation::new(&c, cfg.clone()).unwrap();
        sim.set_lead_voltage(1, 20e-3).unwrap();
        sim.set_lead_voltage(2, -20e-3).unwrap();
        sim.run(RunLength::Events(500)).unwrap();
        let bytes = sim.checkpoint().unwrap();

        let mut restored = Simulation::new(&c, cfg).unwrap();
        restored.resume(&bytes).unwrap();
        assert_eq!(restored.time(), sim.time());
        assert_eq!(restored.events(), sim.events());
        assert_eq!(restored.state().electrons(), sim.state().electrons());

        let a = sim.run(RunLength::Events(500)).unwrap();
        let b = restored.run(RunLength::Events(500)).unwrap();
        assert_eq!(a, b, "resumed run diverged from the original");
    }

    #[test]
    fn resume_rejects_mismatched_circuit() {
        let (c, _, _) = paper_set();
        let cfg = SimConfig::new(5.0).with_seed(12);
        let mut sim = Simulation::new(&c, cfg.clone()).unwrap();
        let bytes = sim.checkpoint().unwrap();

        // A different topology: one extra lead.
        let mut b = CircuitBuilder::new();
        let src = b.add_lead(0.0);
        let _extra = b.add_lead(0.0);
        let _gate = b.add_lead(0.0);
        let _gate2 = b.add_lead(0.0);
        let island = b.add_island();
        b.add_junction(src, island, 1e6, 1e-18).unwrap();
        let c2 = b.build().unwrap();
        let mut other = Simulation::new(&c2, SimConfig::new(5.0)).unwrap();
        assert!(matches!(
            other.resume(&bytes),
            Err(CoreError::CheckpointMismatch { .. })
        ));

        // A mismatched solver kind is caught too.
        let adaptive_cfg = SimConfig::new(5.0).with_solver(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 500,
        });
        let mut adaptive = Simulation::new(&c, adaptive_cfg).unwrap();
        assert!(matches!(
            adaptive.resume(&bytes),
            Err(CoreError::CheckpointMismatch {
                what: "solver kind",
                ..
            })
        ));

        // Corrupt bytes are rejected.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            sim.resume(&bad),
            Err(CoreError::CheckpointCorrupt { .. })
        ));
    }
}
