//! The paper's adaptive solver (Algorithm 1).
//!
//! After each tunnel event (or input-voltage step), only the junctions
//! in the disturbance's *dependency neighbourhood* are tested: the
//! exact potential change across each tested junction is accumulated
//! into a per-junction testing factor `b`, and the junction's rates are
//! recomputed only when `|b|` exceeds the threshold `θ` times the
//! free-energy changes recorded at the last recomputation (`ΔW'_fw`,
//! `ΔW'_bw`). The neighbourhoods — precomputed at circuit build from
//! the sparsified `C⁻¹` coupling structure — contain every junction
//! whose `ΔW` moves by more than [`Circuit::COUPLING_EPS`] (relative)
//! for the event, so a strongly coupled region is fully updated while
//! isolated stages are left alone — the source of the paper's
//! up-to-40× speedup. Junctions outside a neighbourhood feel only
//! couplings below the same threshold the sparsified exact potential
//! refresh already drops, so skipping them adds no new approximation
//! class.
//!
//! The optimized path runs the batched kernels of `crate::kernels` over
//! flat structure-of-arrays junction buffers. A `dense_reference` mode
//! evaluates neighbourhood membership from the dense matrices per event
//! and runs every step in its per-junction scalar form; it is the
//! bit-identity oracle the optimized path is validated against.
//!
//! ## Exactness bookkeeping
//!
//! Island potentials are *linear* in the island charges, so the
//! per-event potential deltas are exact. This implementation exploits
//! that: it keeps a log of every state change since the last full
//! refresh and refreshes an island's cached potential *lazily* by
//! replaying only the log entries the island has not seen. Potentials
//! used to recompute a flagged junction's rates are therefore exact; the
//! approximation — identical to the paper's — is that *unflagged*
//! junctions keep stale rates. Because the skipped error accumulates in
//! `b₀` only for junctions that keep being tested (distant junctions are
//! not even tested), all rates are additionally recomputed every
//! `refresh_interval` events, as the paper prescribes.

use crate::circuit::{Circuit, JunctionId, NodeId};
use crate::energy::{lead_step_delta, potential_delta, CircuitState};
use crate::fenwick::FenwickTree;
use crate::health::{screen_finite, screen_rate, FaultStage};
use crate::kernels::{self, ReplayEntry};
use crate::solver::{write_junction_rates, SolverContext, StateChange};
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
    /// Replay log since the last full refresh, with node references
    /// pre-resolved to flat indices ([`ReplayEntry::resolve`]) so the
    /// per-island replay fold is free of node-kind lookups.
    log: Vec<ReplayEntry>,
    /// Per-island index into `log` of the first unapplied entry.
    applied: Vec<usize>,
    events_since_refresh: u64,
    stats: AdaptiveStats,
    /// Reference mode: evaluate dependency membership from the dense
    /// matrices per event and run the per-junction scalar path instead
    /// of the batched kernels. Must produce bit-identical trajectories
    /// to the optimized path.
    dense_reference: bool,
    /// Materialized per-event recompute set (ascending) — reused
    /// allocation.
    tested_scratch: Vec<JunctionId>,
    /// Junctions whose testing factor crossed the gate this event —
    /// reused allocation.
    flagged_scratch: Vec<JunctionId>,
    /// Batched forward/backward rate buffers for `rewrite_all_rates`.
    gfw_scratch: Vec<f64>,
    gbw_scratch: Vec<f64>,
    /// Screened tunnel weights for the from-zero Fenwick rebuild.
    weights_scratch: Vec<f64>,
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
            log: Vec::new(),
            applied: vec![0; circuit.num_islands()],
            events_since_refresh: 0,
            stats: AdaptiveStats::default(),
            dense_reference: false,
            tested_scratch: Vec::new(),
            flagged_scratch: Vec::new(),
            gfw_scratch: Vec::new(),
            gbw_scratch: Vec::new(),
            weights_scratch: Vec::new(),
        }
    }

    /// Switches this solver to dense-reference mode: dependency
    /// membership is recomputed from the dense `C⁻¹`/lead-response
    /// matrices on every event, and tests, rate writes and the replay
    /// fold run per junction on the scalar functions. Slower, but free
    /// of precomputed structure and batched kernels — the oracle the
    /// optimized path is asserted bit-identical against.
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

    /// Brings `island`'s cached potential up to date: replays the
    /// unapplied tail of the change log when it is short, or recomputes
    /// the potential from the maintained charge vector in O(islands)
    /// when the island has been stale for longer than that — so one
    /// refresh never costs more than a single `C⁻¹` row product.
    pub(crate) fn refresh_island(
        &mut self,
        circuit: &Circuit,
        state: &mut CircuitState,
        island: usize,
    ) -> Result<(), CoreError> {
        let from_idx = self.applied[island];
        let pending = self.log.len() - from_idx.min(self.log.len());
        if pending == 0 {
            return Ok(());
        }
        if pending > circuit.num_islands() {
            state.phi[island] = state.exact_island_potential(circuit, island);
        } else {
            // Per-entry deltas ([`ReplayEntry::delta`] — the exact
            // `potential_delta` / `lead_step_delta` expressions over
            // pre-resolved indices) accumulated in strict log order:
            // the batched kernel and the oracle's plain fold produce
            // the same bits.
            let cinv_row = circuit.inverse_capacitance().row(island);
            let lead_row = circuit.lead_response().row(island);
            let entries = &self.log[from_idx..];
            let phi = state.phi[island];
            state.phi[island] = if self.dense_reference {
                entries
                    .iter()
                    .fold(phi, |phi, e| phi + e.delta(cinv_row, lead_row))
            } else {
                kernels::replay_fold(cinv_row, lead_row, entries, phi)
            };
        }
        self.applied[island] = self.log.len();
        screen_finite(FaultStage::IslandPotential, Some(island), state.phi[island])?;
        Ok(())
    }

    fn refresh_junction_nodes(
        &mut self,
        circuit: &Circuit,
        state: &mut CircuitState,
        j: JunctionId,
    ) -> Result<(), CoreError> {
        let junction = *circuit.junction(j);
        if let Some(i) = circuit.island_index(junction.node_a) {
            self.refresh_island(circuit, state, i)?;
        }
        if let Some(i) = circuit.island_index(junction.node_b) {
            self.refresh_island(circuit, state, i)?;
        }
        Ok(())
    }

    pub(crate) fn initialize(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        // Establish the exact-potential invariant the replay log
        // maintains from here on.
        state.recompute_potentials(ctx.circuit);
        // The rate table is freshly zeroed at construction, so the
        // initial rewrite may use the from-zero batched Fenwick
        // rebuild.
        self.full_refresh(ctx, state, rates, true)?;
        // initialize() is not a "refresh" in the statistics sense.
        self.stats.full_refreshes = self.stats.full_refreshes.saturating_sub(1);
        Ok(())
    }

    fn full_refresh(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
        rates_from_zero: bool,
    ) -> Result<(), CoreError> {
        let circuit = ctx.circuit;
        // Replaying the log per island costs O(islands·pending); the
        // exact matvec costs O(islands²). Pick the cheaper route.
        if self.log.len() < circuit.num_islands() {
            for island in 0..circuit.num_islands() {
                self.refresh_island(circuit, state, island)?;
            }
        } else {
            state.recompute_potentials(circuit);
        }
        self.log.clear();
        self.applied.iter_mut().for_each(|a| *a = 0);
        self.rewrite_all_rates(ctx, state, rates, rates_from_zero)?;
        self.stats.full_refreshes += 1;
        self.events_since_refresh = 0;
        Ok(())
    }

    /// Recomputes every junction's rates from the current potentials in
    /// canonical (ascending) order, resetting the `ΔW'`/`b₀` caches.
    ///
    /// The optimized path runs the batched kernels: all ΔW from the SoA
    /// buffers, then all directed rates, then per-junction screening
    /// and slot writes in the exact scalar order — so values, write
    /// sequence and the surfaced error (first failing junction, same
    /// fault stage) are identical to the per-junction loop.
    /// `rates_from_zero` marks the rate table as freshly zeroed (solver
    /// construction), enabling the batched Fenwick rebuild; periodic
    /// refreshes and resyncs overwrite slots incrementally and must
    /// pass `false`. Dense-reference mode (and fault-injected runs)
    /// keep the per-junction [`write_junction_rates`] loop.
    fn rewrite_all_rates(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &CircuitState,
        rates: &mut FenwickTree,
        rates_from_zero: bool,
    ) -> Result<(), CoreError> {
        let circuit = ctx.circuit;
        #[cfg(feature = "fault-inject")]
        let use_reference = self.dense_reference || ctx.poison_rate.is_some();
        #[cfg(not(feature = "fault-inject"))]
        let use_reference = self.dense_reference;
        if use_reference {
            for j in circuit.junction_ids() {
                let (dw_fw, dw_bw) = write_junction_rates(ctx, state, rates, j)?;
                self.dw_fw[j.index()] = dw_fw;
                self.dw_bw[j.index()] = dw_bw;
                self.b0[j.index()] = 0.0;
            }
            self.stats.rate_recalcs += circuit.num_junctions() as u64;
            return Ok(());
        }
        let resistance = &circuit.junction_soa().resistance;
        kernels::delta_w_all(
            circuit,
            &state.phi,
            state.lead_voltages(),
            &mut self.dw_fw,
            &mut self.dw_bw,
        );
        let mut gfw = std::mem::take(&mut self.gfw_scratch);
        let mut gbw = std::mem::take(&mut self.gbw_scratch);
        kernels::tunnel_rates(ctx.model, ctx.kt, &self.dw_fw, resistance, &mut gfw);
        kernels::tunnel_rates(ctx.model, ctx.kt, &self.dw_bw, resistance, &mut gbw);
        let mut weights = std::mem::take(&mut self.weights_scratch);
        weights.clear();
        for j in circuit.junction_ids() {
            let idx = j.index();
            let jx = Some(idx);
            screen_finite(FaultStage::FreeEnergy, jx, self.dw_fw[idx])?;
            screen_finite(FaultStage::FreeEnergy, jx, self.dw_bw[idx])?;
            if rates_from_zero {
                // tunnel_slot(j, fw) = 2j, (j, bw) = 2j + 1: pushing
                // fw then bw per ascending junction lays the weights
                // out slot-contiguously for the batched rebuild.
                weights.push(screen_rate(FaultStage::TunnelRate, jx, gfw[idx])?);
                weights.push(screen_rate(FaultStage::TunnelRate, jx, gbw[idx])?);
            } else {
                rates.set(
                    ctx.layout.tunnel_slot(j, true),
                    screen_rate(FaultStage::TunnelRate, jx, gfw[idx])?,
                );
                rates.set(
                    ctx.layout.tunnel_slot(j, false),
                    screen_rate(FaultStage::TunnelRate, jx, gbw[idx])?,
                );
            }
            self.b0[idx] = 0.0;
        }
        if rates_from_zero {
            rates.rebuild_from_zero(&weights);
        }
        self.weights_scratch = weights;
        self.gfw_scratch = gfw;
        self.gbw_scratch = gbw;
        self.stats.rate_recalcs += circuit.num_junctions() as u64;
        Ok(())
    }

    /// Discards the replay log and every cache, recomputing potentials
    /// with the full matvec (never the replay path — checkpoint/resume
    /// relies on both sides reaching bit-identical potentials, and the
    /// replay path's summation order depends on history).
    pub(crate) fn resync(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut CircuitState,
        rates: &mut FenwickTree,
    ) -> Result<(), CoreError> {
        state.recompute_potentials(ctx.circuit);
        self.log.clear();
        self.applied.iter_mut().for_each(|a| *a = 0);
        // The rate table may hold pre-resync values — overwrite
        // incrementally, never the from-zero rebuild.
        self.rewrite_all_rates(ctx, state, rates, false)?;
        self.stats.full_refreshes += 1;
        self.events_since_refresh = 0;
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

    /// Exact potential change of `node` caused by one log entry (0 for
    /// leads except the stepped lead itself) — the oracle's scalar
    /// form of the testing kernel's per-terminal delta.
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

        self.log.push(ReplayEntry::resolve(circuit, change));

        if self.events_since_refresh >= self.refresh_interval {
            // Periodic full recalculation (paper: "all junction
            // tunneling rates are recalculated periodically"). The
            // rate table holds live values here — incremental rewrite.
            return self.full_refresh(ctx, state, rates, false);
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
        state: &mut CircuitState,
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
            &tested,
            self.threshold,
            &self.dw_fw,
            &self.dw_bw,
            &mut self.b0,
            &mut flagged,
        );
        for &j in &flagged {
            self.refresh_junction_nodes(ctx.circuit, state, j)?;
            let (dw_fw, dw_bw) = write_junction_rates(ctx, state, rates, j)?;
            let idx = j.index();
            self.dw_fw[idx] = dw_fw;
            self.dw_bw[idx] = dw_bw;
            self.b0[idx] = 0.0;
            self.stats.rate_recalcs += 1;
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
        state: &mut CircuitState,
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
            self.refresh_junction_nodes(circuit, state, j)?;
            let (dw_fw, dw_bw) = write_junction_rates(ctx, state, rates, j)?;
            self.dw_fw[idx] = dw_fw;
            self.dw_bw[idx] = dw_bw;
            self.b0[idx] = 0.0;
            self.stats.rate_recalcs += 1;
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
        // θ = 0 flags every tested junction; combined with the BFS
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
        // After refreshes the log must be compact.
        assert!(solver.log.len() < 3);
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

    #[test]
    fn lazy_island_refresh_is_exact() {
        let (c, _js) = two_stage();
        let model = TunnelModel::Normal;
        let (mut state, mut rates, mut solver, layout) = make_parts(&c, 10.0, u64::MAX);
        let ctx = SolverContext::new(&c, K_B * 5.0, &model, layout);
        solver.initialize(&ctx, &mut state, &mut rates).unwrap();

        // Huge threshold → nothing flags → potentials go stale.
        let i1 = c.island_node(0);
        for _ in 0..5 {
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
        }
        // Lazily refresh each island and compare to exact.
        for island in 0..c.num_islands() {
            solver.refresh_island(&c, &mut state, island).unwrap();
        }
        let lazy = state.island_potentials().to_vec();
        state.recompute_potentials(&c);
        for (a, b) in lazy.iter().zip(state.island_potentials()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
