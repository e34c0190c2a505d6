//! The two rate solvers of the paper's Fig. 3.
//!
//! * [`NonAdaptiveSolver`] — the conventional Monte Carlo approach
//!   (SIMON/MOSES-style): after every tunnel event, update every node
//!   potential and recompute the tunnel rate of every junction.
//! * [`AdaptiveSolver`] — the paper's Algorithm 1: test only the
//!   junctions near the event (or a stepped input), accumulate the
//!   potential change across each junction in a testing factor `b`, and
//!   recompute a rate only when `|b|` exceeds a threshold fraction of
//!   the free-energy change at the last recomputation. A periodic full
//!   refresh bounds the accumulated error.
//!
//! Both solvers maintain the same flat rate table (a Fenwick tree) that
//! the event solver samples from.

mod adaptive;
mod nonadaptive;

pub use adaptive::{AdaptiveSolver, AdaptiveStats};
pub use nonadaptive::NonAdaptiveSolver;

use crate::circuit::{Circuit, JunctionId};
use crate::constants::E_CHARGE;
use crate::energy::{lead_step_delta, potential_delta, CircuitState};
use crate::events::RateLayout;
use crate::fenwick::FenwickTree;
use crate::health::{screen_finite, screen_rate, FaultStage};
use crate::rates::orthodox_rate;
use crate::superconduct::QpRateTable;
use crate::CoreError;

/// How single-electron (or quasi-particle) rates are evaluated.
#[derive(Debug, Clone)]
pub enum TunnelModel {
    /// Normal-state orthodox rate (paper Eq. 1 with ohmic `I(V)`).
    Normal,
    /// Superconducting quasi-particle rate via a precomputed table.
    Quasiparticle(QpRateTable),
}

/// Everything a solver needs to evaluate a single-electron rate.
#[derive(Debug)]
pub struct SolverContext<'a> {
    /// The circuit being simulated.
    pub circuit: &'a Circuit,
    /// Thermal energy `k_B·T` (J).
    pub kt: f64,
    /// Rate model for first-order events.
    pub model: &'a TunnelModel,
    /// Layout of the shared rate table.
    pub layout: RateLayout,
    /// Fault-injection hook: junction whose forward rate is replaced
    /// with NaN the next time it is evaluated.
    #[cfg(feature = "fault-inject")]
    pub poison_rate: Option<usize>,
}

impl<'a> SolverContext<'a> {
    /// Builds a context with no fault injection armed.
    pub fn new(circuit: &'a Circuit, kt: f64, model: &'a TunnelModel, layout: RateLayout) -> Self {
        SolverContext {
            circuit,
            kt,
            model,
            layout,
            #[cfg(feature = "fault-inject")]
            poison_rate: None,
        }
    }

    /// Arms NaN poisoning of `junction`'s forward rate.
    #[cfg(feature = "fault-inject")]
    pub fn with_poison(mut self, junction: Option<usize>) -> Self {
        self.poison_rate = junction;
        self
    }

    /// Evaluates both directed first-order rates of junction `j` from
    /// the current state, returning `(ΔW_fw, Γ_fw, ΔW_bw, Γ_bw)`.
    ///
    /// Each ΔW is [`crate::energy::delta_w`]'s expression for one electron, with the
    /// junction's charging term `C⁻¹_aa + C⁻¹_bb − 2·C⁻¹_ab` read from
    /// the circuit's per-junction coefficients, which the build computes
    /// with `delta_w`'s operands in its order. The value is therefore
    /// bitwise `delta_w`'s (the kernel tests check it), without a search
    /// of the sparse `C⁻¹` per rate.
    #[inline]
    pub fn junction_rates(&self, state: &CircuitState, j: JunctionId) -> (f64, f64, f64, f64) {
        let junction = self.circuit.junction(j);
        let soa = self.circuit.junction_soa();
        let pa = state.potential(self.circuit, junction.node_a);
        let pb = state.potential(self.circuit, junction.node_b);
        let half_e2 = 0.5 * E_CHARGE * E_CHARGE;
        let dw_fw = E_CHARGE * (pa - pb) + half_e2 * soa.charging_fw[j.index()];
        let dw_bw = E_CHARGE * (pb - pa) + half_e2 * soa.charging_bw[j.index()];
        #[allow(unused_mut)]
        let (mut g_fw, g_bw) = match self.model {
            TunnelModel::Normal => (
                orthodox_rate(dw_fw, self.kt, junction.resistance),
                orthodox_rate(dw_bw, self.kt, junction.resistance),
            ),
            TunnelModel::Quasiparticle(table) => (
                table.rate(dw_fw, junction.resistance),
                table.rate(dw_bw, junction.resistance),
            ),
        };
        #[cfg(feature = "fault-inject")]
        if self.poison_rate == Some(j.index()) {
            g_fw = f64::NAN;
        }
        (dw_fw, g_fw, dw_bw, g_bw)
    }
}

/// A change to the electrostatic inputs that solvers must react to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateChange {
    /// `count` electrons moved `from → to` (already applied to the
    /// electron numbers).
    Transfer {
        /// Source node.
        from: crate::circuit::NodeId,
        /// Destination node.
        to: crate::circuit::NodeId,
        /// Electrons moved.
        count: i64,
    },
    /// Lead `lead` stepped by `dv` volts (already applied).
    LeadStep {
        /// Lead index.
        lead: usize,
        /// Voltage change (V).
        dv: f64,
    },
}

/// Static-dispatch wrapper over the two solver implementations.
///
/// One instance lives per simulation, so the size difference between
/// the variants costs nothing; boxing the adaptive solver would add an
/// indirection on the hot path for no benefit.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Solver {
    /// Conventional full-recalculation solver.
    NonAdaptive(NonAdaptiveSolver),
    /// The paper's Algorithm 1.
    Adaptive(AdaptiveSolver),
}

impl Solver {
    /// Fully initializes potentials and every first-order rate.
    pub fn initialize(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        match self {
            Solver::NonAdaptive(s) => s.resync(ctx, state, rates),
            Solver::Adaptive(s) => s.initialize(ctx, state, rates),
        }
    }

    /// Reacts to an applied state change, updating potentials and rates
    /// per the solver's policy.
    pub fn apply_change(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
        change: StateChange,
    ) -> Result<(), CoreError> {
        match self {
            Solver::NonAdaptive(s) => s.apply_change(ctx, state, rates, change),
            Solver::Adaptive(s) => s.apply_change(ctx, state, rates, change),
        }
    }

    /// Discards every cached quantity and rebuilds potentials and the
    /// whole rate table from the electron numbers, writing rates in
    /// canonical junction order. The caller must clear the rate table
    /// first so the Fenwick partial sums are reaccumulated
    /// deterministically (required for bit-identical checkpoint/resume).
    pub(crate) fn resync(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        match self {
            Solver::NonAdaptive(s) => s.resync(ctx, state, rates),
            Solver::Adaptive(s) => s.full_refresh(ctx, state, rates),
        }
    }

    /// Halves the adaptive testing threshold (graceful degradation after
    /// a failed drift audit), returning the new value. `None` for the
    /// non-adaptive solver, which has no approximation to tighten.
    pub(crate) fn tighten_threshold(&mut self) -> Option<f64> {
        match self {
            Solver::NonAdaptive(_) => None,
            Solver::Adaptive(s) => Some(s.tighten_threshold()),
        }
    }

    /// Total number of first-order rate recalculations performed (both
    /// directions of a junction count as one recalculation).
    pub fn rate_recalcs(&self) -> u64 {
        match self {
            Solver::NonAdaptive(s) => s.rate_recalcs(),
            Solver::Adaptive(s) => s.stats().rate_recalcs,
        }
    }

    /// Adaptive statistics, if this is the adaptive solver.
    pub fn adaptive_stats(&self) -> Option<&AdaptiveStats> {
        match self {
            Solver::NonAdaptive(_) => None,
            Solver::Adaptive(s) => Some(s.stats()),
        }
    }
}

/// Writes both directed rates of `j` into the rate table, screening the
/// free-energy changes and rates for NaN/Inf/negative poison *before*
/// they can enter the Fenwick tree (whose prefix sums would silently
/// spread the corruption to every sampling decision).
#[inline]
pub(crate) fn write_junction_rates(
    ctx: &SolverContext<'_>,
    state: &CircuitState,
    rates: &mut FenwickTree,
    j: JunctionId,
) -> Result<(f64, f64), CoreError> {
    let (dw_fw, g_fw, dw_bw, g_bw) = ctx.junction_rates(state, j);
    let jx = Some(j.index());
    screen_finite(FaultStage::FreeEnergy, jx, dw_fw)?;
    screen_finite(FaultStage::FreeEnergy, jx, dw_bw)?;
    rates.set(
        ctx.layout.tunnel_slot(j, true),
        screen_rate(FaultStage::TunnelRate, jx, g_fw)?,
    );
    rates.set(
        ctx.layout.tunnel_slot(j, false),
        screen_rate(FaultStage::TunnelRate, jx, g_bw)?,
    );
    Ok((dw_fw, dw_bw))
}

/// Adds `change`'s potential delta to the cached potential of every
/// island it reaches, one island at a time with the scalar
/// [`potential_delta`] / [`lead_step_delta`] (the island cases of
/// [`AdaptiveSolver::node_delta`]), and returns how many islands that
/// is. A transfer reaches the islands its endpoints' stored `C⁻¹`
/// columns hold: column `from`'s, then those of column `to` that column
/// `from` does not store (a stored entry is nonzero, so [`Circuit::cinv`]
/// reads `0.0` exactly for the rest). A lead step reaches every island.
/// The oracle and the non-adaptive solver run this; the optimized path
/// runs `kernels::potential_update`, which adds the same deltas to the
/// same islands.
pub(crate) fn add_node_deltas(circuit: &Circuit, change: StateChange, phi: &mut [f64]) -> usize {
    match change {
        StateChange::Transfer { from, to, count } => {
            let f = circuit.island_index(from);
            let column =
                |island: Option<usize>| island.map_or(&[][..], |i| circuit.cinv_column(i).rows);
            let to_only = column(circuit.island_index(to))
                .iter()
                .filter(|&&k| f.is_none_or(|f| circuit.cinv(k as usize, f) == 0.0));
            let mut updated = 0;
            for &k in column(f).iter().chain(to_only) {
                phi[k as usize] += potential_delta(circuit, k as usize, from, to, count);
                updated += 1;
            }
            updated
        }
        StateChange::LeadStep { lead, dv } => {
            for (k, p) in phi.iter_mut().enumerate() {
                *p += lead_step_delta(circuit, k, lead, dv);
            }
            phi.len()
        }
    }
}
