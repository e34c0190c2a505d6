//! The paper's adaptive solver (Algorithm 1).
//!
//! After each tunnel event (or input-voltage step), only the junctions
//! in the disturbance's *dependency neighbourhood* are tested: the
//! exact potential change across each tested junction is accumulated
//! into a per-junction testing factor `b`, and the junction's rates are
//! recomputed only when `|b|` exceeds the threshold `θ` times the
//! free-energy changes recorded at the last recomputation (`ΔW'_fw`,
//! `ΔW'_bw`). The neighbourhoods — precomputed at circuit build from
//! the `C⁻¹` coupling structure — contain every junction whose `ΔW`
//! moves by more than [`Circuit::COUPLING_EPS`] (relative) for the
//! event, so a strongly coupled region is fully updated while isolated
//! stages are left alone — the source of the paper's up-to-40×
//! speedup. A junction outside a neighbourhood is simply not tested;
//! the coupling it misses is below that threshold and is picked up at
//! the next full refresh.
//!
//! The optimized path runs the per-event kernels of `crate::kernels`
//! (the potential update and the testing factors) over flat
//! structure-of-arrays junction buffers. A `dense_reference` mode
//! evaluates neighbourhood membership from `C⁻¹` and lead-response
//! entries per event and runs every step in its per-junction or
//! per-island scalar form; it is the bit-identity oracle the optimized
//! path is validated against. Both modes write rates one way, junction
//! by junction through `write_junction_rates`.
//!
//! ## Potential bookkeeping
//!
//! Island potentials are *linear* in the island charges. Every state
//! change adds its delta at once to the cached potential of every
//! island it reaches (`kernels::potential_update`: the union of the two
//! truncated `C⁻¹` columns of a transfer, or the lead-response column
//! of a lead step), so every cached potential is current after every
//! event and a read is a plain load. An island outside a transfer's
//! columns misses less than `COUPLING_EPS·e·C⁻¹_ii` per endpoint and
//! electron (docs/performance.md). The approximation
//! that matters — identical to the paper's — is that *unflagged*
//! junctions keep stale rates. Because the skipped error accumulates in
//! `b₀` only for junctions that keep being tested (distant junctions
//! are not even tested), all rates are additionally recomputed every
//! `refresh_interval` events, as the paper prescribes. That full
//! refresh is the solver's one re-derivation path: it recomputes every
//! potential with the `C⁻¹·q̃` product, screens them, and rewrites every
//! rate. Initialization and resync run the same path.

use crate::circuit::{Circuit, JunctionId, NodeId};
use crate::energy::{lead_step_delta, potential_delta, CircuitState};
use crate::fenwick::FenwickTree;
use crate::health::{screen_finite, FaultStage};
use crate::kernels::{self, EventDelta};
use crate::solver::{add_node_deltas, write_junction_rates, SolverContext, StateChange};
use crate::CoreError;

/// Counters describing the work the adaptive solver actually performed
/// — the quantities behind the paper's Fig. 6 speedup argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// State changes processed.
    pub events: u64,
    /// Junction tests (Algorithm 1 lines 3–5).
    pub junctions_tested: u64,
    /// Junction rate recalculations (both directions of one junction
    /// count once).
    pub rate_recalcs: u64,
    /// Periodic full refreshes performed.
    pub full_refreshes: u64,
    /// Island potentials updated by events: the union of a transfer's
    /// two `C⁻¹` column supports, every island for a lead step. Full
    /// refreshes are not counted.
    pub potential_updates: u64,
}

/// The adaptive solver of the paper's Algorithm 1.
#[derive(Debug)]
pub struct AdaptiveSolver {
    /// The paper's threshold `θ` (λ in some notations): a tested
    /// junction is flagged when `|b| ≥ θ·min(|ΔW'_fw|, |ΔW'_bw|)`.
    threshold: f64,
    /// Full refresh period (events).
    refresh_interval: u64,
    /// ΔW at last rate computation, per junction, both directions.
    dw_fw: Vec<f64>,
    dw_bw: Vec<f64>,
    /// Accumulated testing factor `b₀` per junction.
    b0: Vec<f64>,
    /// State changes since the last full refresh.
    events_since_refresh: u64,
    stats: AdaptiveStats,
    /// Reference mode: evaluate dependency membership from matrix
    /// entries per event and run the per-junction and per-island scalar
    /// paths instead of the batched kernels. Must produce bit-identical
    /// trajectories to the optimized path.
    dense_reference: bool,
    /// The current transfer's per-island potential delta, which the
    /// testing kernel reads after the potential update wrote it.
    event_delta: EventDelta,
    /// Materialized per-event recompute set (ascending) — reused
    /// allocation.
    tested_scratch: Vec<JunctionId>,
    /// Junctions whose testing factor crossed the gate this event —
    /// reused allocation.
    flagged_scratch: Vec<JunctionId>,
}

impl AdaptiveSolver {
    /// Creates a solver with threshold `θ = threshold` and the given
    /// full-refresh period.
    ///
    /// Typical values: `threshold` in `0.01 ..= 0.3` (larger = faster,
    /// less accurate), `refresh_interval` in the hundreds or thousands.
    pub fn new(circuit: &Circuit, threshold: f64, refresh_interval: u64) -> Self {
        let nj = circuit.num_junctions();
        AdaptiveSolver {
            threshold,
            refresh_interval: refresh_interval.max(1),
            dw_fw: vec![0.0; nj],
            dw_bw: vec![0.0; nj],
            b0: vec![0.0; nj],
            events_since_refresh: 0,
            stats: AdaptiveStats::default(),
            dense_reference: false,
            event_delta: EventDelta::new(circuit.num_islands()),
            tested_scratch: Vec::new(),
            flagged_scratch: Vec::new(),
        }
    }

    /// Switches this solver to dense-reference mode: dependency
    /// membership is recomputed from `C⁻¹`/lead-response entries on
    /// every event, tests run per junction and the potential update per
    /// island on the scalar functions, over the stored `C⁻¹` columns.
    /// Slower, but free of precomputed neighbourhoods, supports and
    /// batched kernels — the oracle the optimized path is asserted
    /// bit-identical against. Rates are written as in the optimized
    /// path, junction by junction.
    pub fn with_dense_reference(mut self) -> Self {
        self.dense_reference = true;
        self
    }

    /// The threshold `θ`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The full-refresh period (events).
    pub fn refresh_interval(&self) -> u64 {
        self.refresh_interval
    }

    /// Work counters.
    pub fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }

    /// Computes every potential and rate from scratch.
    pub(crate) fn initialize(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        self.full_refresh(ctx, state, rates)?;
        // initialize() is not a "refresh" in the statistics sense.
        self.stats.full_refreshes = self.stats.full_refreshes.saturating_sub(1);
        Ok(())
    }

    /// The one re-derivation path, for periodic refreshes, resyncs and
    /// initialization: recomputes every potential with the
    /// `C⁻¹·q̃` product (never the accumulated deltas, whose rounding
    /// depends on history — checkpoint/resume relies on both sides
    /// reaching bit-identical potentials), screens them, and rewrites
    /// every junction's rates in canonical (ascending) order, resetting
    /// the `ΔW'`/`b₀` caches.
    pub(crate) fn full_refresh(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        state.recompute_potentials(ctx.circuit);
        for (island, &phi) in state.island_potentials().iter().enumerate() {
            screen_finite(FaultStage::IslandPotential, Some(island), phi)?;
        }
        for j in ctx.circuit.junction_ids() {
            self.recompute(ctx, state, rates, j)?;
        }
        self.stats.full_refreshes += 1;
        self.events_since_refresh = 0;
        Ok(())
    }

    /// Rewrites junction `j`'s rates and resets its `ΔW'`/`b₀` caches.
    fn recompute(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &CircuitState,
        rates: &mut FenwickTree,
        j: JunctionId,
    ) -> Result<(), CoreError> {
        let (dw_fw, dw_bw) = write_junction_rates(ctx, state, rates, j)?;
        let idx = j.index();
        self.dw_fw[idx] = dw_fw;
        self.dw_bw[idx] = dw_bw;
        self.b0[idx] = 0.0;
        self.stats.rate_recalcs += 1;
        Ok(())
    }

    /// Halves the testing threshold (graceful degradation after a failed
    /// drift audit), returning the new value.
    pub(crate) fn tighten_threshold(&mut self) -> f64 {
        self.threshold *= 0.5;
        self.threshold
    }

    /// Overwrites the threshold (checkpoint restore — the running value
    /// may have been tightened below the configured one).
    pub(crate) fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Overwrites the work counters (checkpoint restore).
    pub(crate) fn set_stats(&mut self, stats: AdaptiveStats) {
        self.stats = stats;
    }

    /// Scales the cached `ΔW'` magnitudes of `junction` by `factor`,
    /// silencing the testing gate so the junction's rates go stale —
    /// used by the fault-injection harness to prove the drift audit
    /// catches exactly this class of corruption.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn corrupt_cache_entry(&mut self, junction: usize, factor: f64) {
        self.dw_fw[junction] *= factor;
        self.dw_bw[junction] *= factor;
    }

    /// Potential change of `node` caused by one state change (0 for
    /// leads except the stepped lead itself) — the oracle's scalar form
    /// of the testing kernel's per-terminal delta and of the potential
    /// update's per-island delta.
    #[inline]
    pub(crate) fn node_delta(circuit: &Circuit, change: StateChange, node: NodeId) -> f64 {
        match change {
            StateChange::Transfer { from, to, count } => match circuit.island_index(node) {
                Some(k) => potential_delta(circuit, k, from, to, count),
                None => 0.0,
            },
            StateChange::LeadStep { lead, dv } => match circuit.island_index(node) {
                Some(k) => lead_step_delta(circuit, k, lead, dv),
                None => {
                    if circuit.lead_index(node) == Some(lead) {
                        dv
                    } else {
                        0.0
                    }
                }
            },
        }
    }

    pub(crate) fn apply_change(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
        change: StateChange,
    ) -> Result<(), CoreError> {
        let circuit = ctx.circuit;
        self.stats.events += 1;
        self.events_since_refresh += 1;

        // Every island the change reaches takes its potential delta now;
        // the oracle computes it per island with the scalar function.
        let updated = if self.dense_reference {
            add_node_deltas(circuit, change, &mut state.phi)
        } else {
            kernels::potential_update(circuit, change, &mut self.event_delta, &mut state.phi)
        };
        self.stats.potential_updates += updated as u64;

        if self.events_since_refresh >= self.refresh_interval {
            // Periodic full recalculation (paper: "all junction
            // tunneling rates are recalculated periodically").
            return self.full_refresh(ctx, state, rates);
        }

        // Test exactly the junctions in the disturbance's dependency
        // neighbourhood, in ascending junction order (Algorithm 1
        // lines 2–11). Lead endpoints of a transfer contribute no
        // neighbourhood: a lead is a fixed-potential wall, so the
        // hundreds of junctions sharing a supply rail with the event
        // are unaffected unless their own islands couple.
        //
        // The optimized path materializes the recompute set and hands
        // it to the batched testing kernel; the junctions it flags are
        // then recomputed in ascending order. This evaluates
        // the same tests, in the same order, with the same arithmetic
        // as the historical interleaved loop — tests read only
        // `b₀`/`ΔW'` and build-time matrices, never the quantities a
        // flagged recompute updates, so deferring the recomputes
        // changes no test outcome. Dense-reference mode keeps the
        // interleaved per-junction loop as the oracle.
        match change {
            StateChange::Transfer { from, to, .. } => {
                let ia = circuit.island_index(from);
                let ib = circuit.island_index(to);
                if self.dense_reference {
                    for j in circuit.junction_ids() {
                        let member = ia.is_some_and(|i| circuit.junction_depends_on_island(i, j))
                            || ib.is_some_and(|i| circuit.junction_depends_on_island(i, j));
                        if member {
                            self.test_junction(ctx, state, rates, change, j)?;
                        }
                    }
                } else {
                    // Allocation-free merge of the two endpoints' sorted
                    // dependent lists: ascending order, each junction
                    // tested once even when both islands list it.
                    let mut tested = std::mem::take(&mut self.tested_scratch);
                    tested.clear();
                    let la = ia.map_or(&[][..], |i| circuit.island_dependents(i));
                    let lb = ib.map_or(&[][..], |i| circuit.island_dependents(i));
                    let (mut pa, mut pb) = (0, 0);
                    while pa < la.len() || pb < lb.len() {
                        let j = match (la.get(pa), lb.get(pb)) {
                            (Some(&a), Some(&b)) if a == b => {
                                pa += 1;
                                pb += 1;
                                a
                            }
                            (Some(&a), Some(&b)) if a < b => {
                                pa += 1;
                                a
                            }
                            (Some(_), Some(&b)) => {
                                pb += 1;
                                b
                            }
                            (Some(&a), None) => {
                                pa += 1;
                                a
                            }
                            (None, Some(&b)) => {
                                pb += 1;
                                b
                            }
                            (None, None) => unreachable!("loop condition"),
                        };
                        tested.push(j);
                    }
                    self.process_tested(ctx, state, rates, change, tested)?;
                }
            }
            StateChange::LeadStep { lead, .. } => {
                if self.dense_reference {
                    for j in circuit.junction_ids() {
                        if circuit.junction_depends_on_lead(lead, j) {
                            self.test_junction(ctx, state, rates, change, j)?;
                        }
                    }
                } else {
                    let mut tested = std::mem::take(&mut self.tested_scratch);
                    tested.clear();
                    tested.extend_from_slice(circuit.lead_dependents(lead));
                    self.process_tested(ctx, state, rates, change, tested)?;
                }
            }
        }
        Ok(())
    }

    /// Runs the batched testing kernel over the materialized recompute
    /// set and recomputes the rates of every flagged junction in
    /// ascending order — the batched equivalent of calling
    /// [`AdaptiveSolver::test_junction`] per member.
    fn process_tested(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &CircuitState,
        rates: &mut FenwickTree,
        change: StateChange,
        tested: Vec<JunctionId>,
    ) -> Result<(), CoreError> {
        self.stats.junctions_tested += tested.len() as u64;
        let mut flagged = std::mem::take(&mut self.flagged_scratch);
        flagged.clear();
        kernels::test_factors(
            ctx.circuit,
            change,
            &self.event_delta,
            &tested,
            self.threshold,
            &self.dw_fw,
            &self.dw_bw,
            &mut self.b0,
            &mut flagged,
        );
        for &j in &flagged {
            self.recompute(ctx, state, rates, j)?;
        }
        self.flagged_scratch = flagged;
        self.tested_scratch = tested;
        Ok(())
    }

    /// Tests one junction against the disturbance (Algorithm 1 lines
    /// 3–5): accumulates the exact `ΔW` shift into `b` and recomputes
    /// the junction's rates when it crosses the testing gate.
    fn test_junction(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &CircuitState,
        rates: &mut FenwickTree,
        change: StateChange,
        j: JunctionId,
    ) -> Result<(), CoreError> {
        let circuit = ctx.circuit;
        self.stats.junctions_tested += 1;
        let junction = *circuit.junction(j);
        let dp_a = Self::node_delta(circuit, change, junction.node_a);
        let dp_b = Self::node_delta(circuit, change, junction.node_b);
        // The testing factor accumulates in energy units: a potential
        // change δP across the junction shifts ΔW by e·δP (Eq. 2), so
        // it is e·b that is compared against θ·|ΔW'|.
        let idx = j.index();
        let b = self.b0[idx] + crate::constants::E_CHARGE * (dp_a - dp_b);
        // Flag when |b| exceeds θ·|ΔW'| for either direction, i.e.
        // compare against the smaller magnitude.
        let gate = self.threshold * self.dw_fw[idx].abs().min(self.dw_bw[idx].abs());
        if b.abs() >= gate {
            self.recompute(ctx, state, rates, j)?;
        } else {
            self.b0[idx] = b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::constants::K_B;
    use crate::events::RateLayout;
    use crate::solver::TunnelModel;

    /// Two SET stages joined by a large coupling capacitor — the
    /// locality structure of the paper's Fig. 4.
    fn two_stage() -> (Circuit, Vec<JunctionId>) {
        let mut b = CircuitBuilder::new();
        let vdd = b.add_lead(10e-3);
        let i1 = b.add_island();
        let mid = b.add_island(); // "wire" island with large capacitance
        let i2 = b.add_island();
        let js = vec![
            b.add_junction(vdd, i1, 1e6, 1e-18).unwrap(),
            b.add_junction(i1, NodeId::GROUND, 1e6, 1e-18).unwrap(),
            b.add_junction(mid, i2, 1e6, 1e-18).unwrap(),
            b.add_junction(i2, NodeId::GROUND, 1e6, 1e-18).unwrap(),
        ];
        // Stage 1 output drives the wire through a capacitor; the wire's
        // large ground capacitance isolates stage 2.
        b.add_capacitor(i1, mid, 1e-18).unwrap();
        b.add_capacitor(mid, NodeId::GROUND, 1e-15).unwrap();
        (b.build().unwrap(), js)
    }

    fn make_parts(
        c: &Circuit,
        threshold: f64,
        interval: u64,
    ) -> (CircuitState, FenwickTree, AdaptiveSolver, RateLayout) {
        let layout = RateLayout {
            junctions: c.num_junctions(),
            cotunnel_paths: 0,
            cooper_pairs: false,
        };
        let state = CircuitState::new(c);
        let rates = FenwickTree::new(layout.len());
        let solver = AdaptiveSolver::new(c, threshold, interval);
        (state, rates, solver, layout)
    }

    #[test]
    fn zero_threshold_matches_nonadaptive_exactly() {
        // θ = 0 flags every tested junction; combined with neighbourhoods
        // reaching everything coupled, rates must equal the exact ones.
        let (c, _js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 0.0, u64::MAX);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();

        // Fire a transfer on stage 1.
        let i1 = c.island_node(0);
        state.apply_transfer(&c, NodeId(1), i1, 1);
        solver
            .apply_change(
                &ctx,
                &mut state,
                &mut rates,
                StateChange::Transfer {
                    from: NodeId(1),
                    to: i1,
                    count: 1,
                },
            )
            .unwrap();

        // Compare against a fresh exact computation.
        let mut exact_state = state.clone();
        exact_state.recompute_potentials(&c);
        let mut exact_rates = FenwickTree::new(layout.len());
        for j in c.junction_ids() {
            write_junction_rates(&ctx, &exact_state, &mut exact_rates, j).unwrap();
        }
        for slot in 0..layout.len() {
            let a = rates.get(slot);
            let e = exact_rates.get(slot);
            assert!(
                (a - e).abs() <= 1e-9 * e.abs().max(1e-12),
                "slot {slot}: {a} vs {e}"
            );
        }
    }

    #[test]
    fn isolated_stage_is_not_recalculated() {
        let (c, js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 0.05, u64::MAX);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();
        let before = solver.stats().rate_recalcs;

        let i1 = c.island_node(0);
        state.apply_transfer(&c, NodeId(1), i1, 1);
        solver
            .apply_change(
                &ctx,
                &mut state,
                &mut rates,
                StateChange::Transfer {
                    from: NodeId(1),
                    to: i1,
                    count: 1,
                },
            )
            .unwrap();
        let recalcs = solver.stats().rate_recalcs - before;
        // Stage 1 has 2 junctions; stage 2's 2 junctions must have been
        // left alone thanks to the 1 fF wire capacitance.
        assert!(recalcs <= 2, "recalculated {recalcs} junctions");
        assert!(solver.stats().junctions_tested > 0);
        let _ = js;
    }

    #[test]
    fn periodic_refresh_fires() {
        let (c, _js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 0.5, 3);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();
        let i1 = c.island_node(0);
        for k in 0..6 {
            let (from, to) = if k % 2 == 0 {
                (NodeId(1), i1)
            } else {
                (i1, NodeId(1))
            };
            state.apply_transfer(&c, from, to, 1);
            solver
                .apply_change(
                    &ctx,
                    &mut state,
                    &mut rates,
                    StateChange::Transfer { from, to, count: 1 },
                )
                .unwrap();
        }
        assert_eq!(solver.stats().full_refreshes, 2);
        assert_eq!(solver.events_since_refresh, 0);
    }

    #[test]
    fn lead_step_seeds_and_updates() {
        let (c, _js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 0.01, u64::MAX);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();
        let total_before = rates.total();

        // Step the supply lead (lead index 1 — ground is 0).
        let old = state.set_lead_voltage(1, 30e-3);
        solver
            .apply_change(
                &ctx,
                &mut state,
                &mut rates,
                StateChange::LeadStep {
                    lead: 1,
                    dv: 30e-3 - old,
                },
            )
            .unwrap();
        assert!(rates.total() != total_before);
    }

    /// Applies `n` single-electron vdd → `i1` transfers through the
    /// solver.
    fn feed_transfers(
        c: &Circuit,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
        solver: &mut AdaptiveSolver,
        n: usize,
    ) {
        let change = StateChange::Transfer {
            from: NodeId(1),
            to: c.island_node(0),
            count: 1,
        };
        for _ in 0..n {
            state.apply_transfer(c, NodeId(1), c.island_node(0), 1);
            solver.apply_change(ctx, state, rates, change).unwrap();
        }
    }

    #[test]
    fn eager_potentials_track_exact_without_refresh() {
        let (c, _js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 10.0, u64::MAX);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();

        // Huge threshold → nothing flags → no island is ever read, yet
        // every cached potential is current.
        feed_transfers(&c, &ctx, &mut state, &mut rates, &mut solver, 5);
        let old = state.set_lead_voltage(1, 20e-3);
        solver
            .apply_change(
                &ctx,
                &mut state,
                &mut rates,
                StateChange::LeadStep {
                    lead: 1,
                    dv: 20e-3 - old,
                },
            )
            .unwrap();
        let eager = state.island_potentials().to_vec();
        state.recompute_potentials(&c);
        for (a, b) in eager.iter().zip(state.island_potentials()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn potential_updates_count_the_union_of_the_event_columns() {
        // A 30-island chain whose islands each load to ground, so the
        // coupling decays along it and the truncated columns end long
        // before the chain does.
        let mut b = CircuitBuilder::new();
        let vdd = b.add_lead(10e-3);
        let islands: Vec<NodeId> = (0..30).map(|_| b.add_island()).collect();
        b.add_junction(vdd, islands[0], 1e6, 1e-18).unwrap();
        for w in islands.windows(2) {
            b.add_junction(w[0], w[1], 1e6, 1e-18).unwrap();
        }
        b.add_junction(islands[29], NodeId::GROUND, 1e6, 1e-18)
            .unwrap();
        for &i in &islands {
            b.add_capacitor(i, NodeId::GROUND, 1e-17).unwrap();
        }
        let c = b.build().unwrap();
        let n = c.num_islands();
        let support = |node: NodeId| -> std::collections::BTreeSet<u32> {
            c.island_index(node)
                .map(|k| c.cinv_column(k).rows.iter().copied().collect())
                .unwrap_or_default()
        };
        let model = TunnelModel::Normal;
        for dense in [false, true] {
            let (mut state, mut rates, mut solver, layout) = make_parts(&c, 0.05, u64::MAX);
            if dense {
                solver = solver.with_dense_reference();
            }
            let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
            solver.initialize(&ctx, &mut state, &mut rates).unwrap();
            let mut want = 0;
            for (from, to) in [
                (islands[3], islands[4]),
                (islands[0], islands[20]),
                (vdd, islands[0]),
                (islands[29], NodeId::GROUND),
                (vdd, NodeId::GROUND),
            ] {
                want += support(from).union(&support(to)).count() as u64;
                state.apply_transfer(&c, from, to, 1);
                let change = StateChange::Transfer { from, to, count: 1 };
                solver
                    .apply_change(&ctx, &mut state, &mut rates, change)
                    .unwrap();
            }
            let old = state.set_lead_voltage(1, 20e-3);
            let step = StateChange::LeadStep {
                lead: 1,
                dv: 20e-3 - old,
            };
            solver
                .apply_change(&ctx, &mut state, &mut rates, step)
                .unwrap();
            want += n as u64;
            assert_eq!(solver.stats().potential_updates, want, "dense {dense}");
            assert!(c.cinv_column(3).len() < n, "the chain truncates");
        }
    }

    #[test]
    fn non_finite_potential_is_caught_before_the_rate_table() {
        // With θ = 0 every tested junction is recomputed, so a poisoned
        // potential on the event's island reaches a flagged junction's
        // ΔW screen, which must refuse it before any rate is written.
        let (c, _js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 0.0, u64::MAX);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();

        let i1 = c.island_node(0);
        state.phi[0] = f64::NAN;
        state.apply_transfer(&c, NodeId(1), i1, 1);
        let err = solver
            .apply_change(
                &ctx,
                &mut state,
                &mut rates,
                StateChange::Transfer {
                    from: NodeId(1),
                    to: i1,
                    count: 1,
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::NumericalFault {
                    stage: FaultStage::FreeEnergy,
                    ..
                }
            ),
            "{err}"
        );
        assert!((0..layout.len()).all(|slot| rates.get(slot).is_finite()));
        assert!(rates.total().is_finite());
    }
}
