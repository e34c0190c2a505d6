//! The conventional (non-adaptive) Monte Carlo solver.
//!
//! After every tunnel event or input step it updates the potential of
//! every island the event reaches through the stored `C⁻¹` and
//! recomputes the tunneling rate of every junction —
//! exactly the behaviour of conventional single-electron simulators and
//! the accuracy reference of the paper's Figs. 6–7.

use crate::energy::CircuitState;
use crate::fenwick::FenwickTree;
use crate::solver::{add_node_deltas, write_junction_rates, SolverContext, StateChange};
use crate::CoreError;

/// Conventional solver: every potential and every rate, every event.
#[derive(Debug, Default)]
pub struct NonAdaptiveSolver {
    rate_recalcs: u64,
    /// Events since the last exact potential recomputation; incremental
    /// updates are exact in exact arithmetic, so this only guards against
    /// floating-point drift over very long runs.
    events_since_exact: u64,
}

/// Recompute potentials from scratch this often to wash out accumulated
/// floating-point rounding from incremental updates.
const EXACT_REFRESH_INTERVAL: u64 = 65_536;

impl NonAdaptiveSolver {
    /// Creates the solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of junction rate recalculations performed so far.
    pub fn rate_recalcs(&self) -> u64 {
        self.rate_recalcs
    }

    pub(crate) fn apply_change(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
        change: StateChange,
    ) -> Result<(), CoreError> {
        let circuit = ctx.circuit;
        self.events_since_exact += 1;
        if self.events_since_exact >= EXACT_REFRESH_INTERVAL {
            state.recompute_potentials(circuit);
            self.events_since_exact = 0;
        } else {
            add_node_deltas(circuit, change, &mut state.phi);
        }
        for j in circuit.junction_ids() {
            write_junction_rates(ctx, state, rates, j)?;
        }
        self.rate_recalcs += circuit.num_junctions() as u64;
        Ok(())
    }

    /// Rebuilds potentials and every rate from scratch (the caller has
    /// cleared the rate table), at initialization and on resync. Resets
    /// the exact-refresh phase so a resumed run schedules its periodic
    /// recomputes identically to an uninterrupted one.
    pub(crate) fn resync(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        state.recompute_potentials(ctx.circuit);
        for j in ctx.circuit.junction_ids() {
            write_junction_rates(ctx, state, rates, j)?;
        }
        self.rate_recalcs += ctx.circuit.num_junctions() as u64;
        self.events_since_exact = 0;
        Ok(())
    }

    /// Overwrites the work counter (checkpoint restore).
    pub(crate) fn set_rate_recalcs(&mut self, n: u64) {
        self.rate_recalcs = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitBuilder, NodeId};
    use crate::constants::K_B;
    use crate::events::RateLayout;
    use crate::solver::{Solver, TunnelModel};

    fn set_ctx_and_state() -> (crate::circuit::Circuit, CircuitState) {
        let mut b = CircuitBuilder::new();
        let src = b.add_lead(5e-3);
        let drn = b.add_lead(-5e-3);
        let island = b.add_island();
        b.add_junction(src, island, 1e6, 1e-18).unwrap();
        b.add_junction(island, drn, 1e6, 1e-18).unwrap();
        b.add_capacitor(NodeId::GROUND, island, 3e-18).unwrap();
        let c = b.build().unwrap();
        let s = CircuitState::new(&c);
        (c, s)
    }

    #[test]
    fn initialize_fills_all_rates() {
        let (c, mut s) = set_ctx_and_state();
        let layout = RateLayout {
            junctions: c.num_junctions(),
            cotunnel_paths: 0,
            cooper_pairs: false,
        };
        let model = TunnelModel::Normal;
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        let mut rates = FenwickTree::new(layout.len());
        let mut solver = Solver::NonAdaptive(NonAdaptiveSolver::new());
        solver.initialize(&ctx, &mut s, &mut rates).unwrap();
        assert!(rates.total() > 0.0);
        assert_eq!(solver.rate_recalcs(), 2);
    }

    #[test]
    fn incremental_potentials_match_exact_after_events() {
        let (c, mut s) = set_ctx_and_state();
        let layout = RateLayout {
            junctions: c.num_junctions(),
            cotunnel_paths: 0,
            cooper_pairs: false,
        };
        let model = TunnelModel::Normal;
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        let mut rates = FenwickTree::new(layout.len());
        let mut solver = NonAdaptiveSolver::new();
        solver.resync(&ctx, &mut s, &mut rates).unwrap();

        let island = c.island_node(0);
        // Apply a few transfers and a lead step through the solver.
        for _ in 0..3 {
            s.apply_transfer(&c, NodeId(1), island, 1);
            solver
                .apply_change(
                    &ctx,
                    &mut s,
                    &mut rates,
                    StateChange::Transfer {
                        from: NodeId(1),
                        to: island,
                        count: 1,
                    },
                )
                .unwrap();
        }
        let old = s.set_lead_voltage(1, 9e-3);
        solver
            .apply_change(
                &ctx,
                &mut s,
                &mut rates,
                StateChange::LeadStep {
                    lead: 1,
                    dv: 9e-3 - old,
                },
            )
            .unwrap();

        let cached = s.island_potentials().to_vec();
        s.recompute_potentials(&c);
        for (a, b) in cached.iter().zip(s.island_potentials()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
