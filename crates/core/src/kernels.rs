//! The adaptive solver's hot-loop kernels: flat loops over the
//! structure-of-arrays junction buffers ([`JunctionSoA`]) with
//! per-event gathers from the transposed (column-contiguous) `C⁻¹` and
//! lead-response matrices.
//!
//! ## Contract
//!
//! Every kernel is **bit-identical** to the per-junction scalar
//! functions that `SolverSpec::AdaptiveDense` — the oracle — runs
//! instead: [`crate::energy::delta_w`], [`crate::energy::potential_delta`]
//! / [`crate::energy::lead_step_delta`], `orthodox_rate` /
//! `QpRateTable::rate`, sequential `FenwickTree::set` calls, and a
//! sequential per-entry replay fold. For the same inputs a kernel
//! produces exactly the oracle's bytes, junction for junction, because
//!
//! * the transposed matrices ([`Circuit::transposed_inverse_capacitance`],
//!   [`Circuit::transposed_lead_response`]) are bitwise copies of the
//!   row-major originals, so a gather from a transposed column reads
//!   the same bits as the strided row-major read;
//! * per-lane arithmetic replicates the scalar expressions operand for
//!   operand (the [`JunctionSoA`] charging coefficients are
//!   precomputed with `delta_w`'s exact operand order);
//! * nothing reassociates: per-junction computations are independent,
//!   and the replay fold adds its per-entry deltas in strict log order.
//!
//! ## Error ordering
//!
//! On the non-error path the batched kernels are bit-identical. On
//! *error* paths (non-finite ΔW or rate, which terminate the
//! simulation) the batched rewrite computes pure float lanes for
//! junctions past the failing one before the screen runs; the
//! surfaced error — first failing junction in ascending order, same
//! fault stage — is identical, but dead scratch state may differ.

use crate::circuit::{Circuit, JunctionId, JunctionSoA, NodeId};
use crate::constants::E_CHARGE;
use crate::rates::orthodox_rates;
use crate::solver::{StateChange, TunnelModel};

/// Lanes of [`replay_fold`]'s delta buffer.
const REPLAY_LANES: usize = 8;

/// Gather count below which [`replay_fold`] skips the row prefetch (a
/// short window touches too little of the row for streaming it in to
/// pay off).
#[cfg(target_arch = "x86_64")]
const PREFETCH_MIN_GATHERS: usize = 64;

/// A replay-log entry with its node references pre-resolved to flat
/// indices — the form the adaptive solver's lazy potential refresh
/// folds. Resolving once at log-push time removes the per-(island ×
/// entry) node-kind lookups a per-entry replay would pay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayEntry {
    /// Source island of a transfer ([`JunctionSoA::NONE`] for a lead
    /// endpoint, or for a lead step).
    from: u32,
    /// Destination island of a transfer ([`JunctionSoA::NONE`] for a
    /// lead endpoint, or for a lead step).
    to: u32,
    /// Stepped lead index; [`JunctionSoA::NONE`] marks a transfer.
    lead: u32,
    /// `count·e` (C) for a transfer — pre-multiplied in the scalar
    /// path's exact order — or `dv` (V) for a lead step.
    coef: f64,
}

impl ReplayEntry {
    /// Resolves a state change against the circuit's node table once,
    /// at log-push time. The transfer coefficient pre-multiplies
    /// `count as f64 * E_CHARGE` — the exact first factor of
    /// [`crate::energy::potential_delta`]'s product.
    pub(crate) fn resolve(circuit: &Circuit, change: StateChange) -> Self {
        let idx = |n: NodeId| -> u32 {
            circuit
                .island_index(n)
                .map_or(JunctionSoA::NONE, |i| i as u32)
        };
        match change {
            StateChange::Transfer { from, to, count } => ReplayEntry {
                from: idx(from),
                to: idx(to),
                lead: JunctionSoA::NONE,
                coef: count as f64 * E_CHARGE,
            },
            StateChange::LeadStep { lead, dv } => ReplayEntry {
                from: JunctionSoA::NONE,
                to: JunctionSoA::NONE,
                lead: lead as u32,
                coef: dv,
            },
        }
    }

    /// Exact potential delta this entry causes on the island whose
    /// `C⁻¹` row is `cinv_row` and lead-response row is `lead_row` —
    /// operand for operand the expression of
    /// [`crate::energy::potential_delta`] /
    /// [`crate::energy::lead_step_delta`].
    #[inline(always)]
    pub(crate) fn delta(&self, cinv_row: &[f64], lead_row: &[f64]) -> f64 {
        if self.lead != JunctionSoA::NONE {
            return lead_row[self.lead as usize] * self.coef;
        }
        let xf = if self.from != JunctionSoA::NONE {
            cinv_row[self.from as usize]
        } else {
            0.0
        };
        let xt = if self.to != JunctionSoA::NONE {
            cinv_row[self.to as usize]
        } else {
            0.0
        };
        self.coef * ((0.0 + xf) - xt)
    }
}

/// Potential change of one junction terminal for a transfer, from the
/// transposed-`C⁻¹` columns of the event's endpoints. Replicates
/// [`crate::energy::potential_delta`] operand for operand.
#[inline(always)]
fn transfer_lane(ke: f64, island: u32, colf: Option<&[f64]>, colt: Option<&[f64]>) -> f64 {
    if island == JunctionSoA::NONE {
        return 0.0;
    }
    let k = island as usize;
    let mut d = 0.0;
    if let Some(cf) = colf {
        d += cf[k];
    }
    if let Some(ct) = colt {
        d -= ct[k];
    }
    ke * d
}

/// Potential change of one junction terminal for a lead step, from the
/// transposed lead-response row. Replicates the scalar node delta.
#[inline(always)]
fn step_lane(island: u32, terminal_lead: u32, lead: u32, dv: f64, lr: &[f64]) -> f64 {
    if island != JunctionSoA::NONE {
        lr[island as usize] * dv
    } else if terminal_lead == lead {
        dv
    } else {
        0.0
    }
}

/// Terminal potential from the SoA index pair: cached island potential
/// for islands, instantaneous voltage for leads.
#[inline(always)]
fn lane_potential(island: u32, lead: u32, phi: &[f64], lead_voltages: &[f64]) -> f64 {
    if island != JunctionSoA::NONE {
        phi[island as usize]
    } else {
        lead_voltages[lead as usize]
    }
}

/// Per-event testing kernel (Algorithm 1 lines 3–5) over the
/// disturbance's dependency neighbourhood `tested` (ascending).
///
/// For each tested junction computes the updated testing factor
/// `b = b₀ + e·(δφ_a − δφ_b)`; junctions crossing the gate
/// `|b| ≥ θ·min(|ΔW'_fw|, |ΔW'_bw|)` are appended to `flagged`
/// (ascending) with `b₀` left untouched for the caller's rate
/// recompute to reset; unflagged junctions get `b₀ ← b`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn test_factors(
    circuit: &Circuit,
    change: StateChange,
    tested: &[JunctionId],
    threshold: f64,
    dw_fw: &[f64],
    dw_bw: &[f64],
    b0: &mut [f64],
    flagged: &mut Vec<JunctionId>,
) {
    let soa = circuit.junction_soa();
    let mut test = |j: JunctionId, dp_a: f64, dp_b: f64| {
        let idx = j.index();
        let b = b0[idx] + E_CHARGE * (dp_a - dp_b);
        let gate = threshold * dw_fw[idx].abs().min(dw_bw[idx].abs());
        if b.abs() >= gate {
            flagged.push(j);
        } else {
            b0[idx] = b;
        }
    };
    match change {
        StateChange::Transfer { from, to, count } => {
            let cinv_t = circuit.transposed_inverse_capacitance();
            // Resolve the two event columns once; every lane then
            // gathers from these L1-resident slices instead of
            // striding across the row-major C⁻¹.
            let colf = circuit.island_index(from).map(|f| cinv_t.row(f));
            let colt = circuit.island_index(to).map(|t| cinv_t.row(t));
            let ke = count as f64 * E_CHARGE;
            for &j in tested {
                let idx = j.index();
                test(
                    j,
                    transfer_lane(ke, soa.a_island[idx], colf, colt),
                    transfer_lane(ke, soa.b_island[idx], colf, colt),
                );
            }
        }
        StateChange::LeadStep { lead, dv } => {
            let lr = circuit.transposed_lead_response().row(lead);
            let lead = lead as u32;
            for &j in tested {
                let idx = j.index();
                test(
                    j,
                    step_lane(soa.a_island[idx], soa.a_lead[idx], lead, dv, lr),
                    step_lane(soa.b_island[idx], soa.b_lead[idx], lead, dv, lr),
                );
            }
        }
    }
}

/// Batched ΔW kernel: forward and backward single-electron
/// free-energy changes of every junction from the SoA buffers and the
/// current potentials — per junction the exact expression of
/// [`crate::energy::delta_w`] with `count = 1`.
pub(crate) fn delta_w_all(
    circuit: &Circuit,
    phi: &[f64],
    lead_voltages: &[f64],
    dw_fw: &mut [f64],
    dw_bw: &mut [f64],
) {
    let soa = circuit.junction_soa();
    for idx in 0..circuit.num_junctions() {
        let pa = lane_potential(soa.a_island[idx], soa.a_lead[idx], phi, lead_voltages);
        let pb = lane_potential(soa.b_island[idx], soa.b_lead[idx], phi, lead_voltages);
        dw_fw[idx] = E_CHARGE * (pa - pb) + 0.5 * E_CHARGE * E_CHARGE * soa.charging_fw[idx];
        dw_bw[idx] = E_CHARGE * (pb - pa) + 0.5 * E_CHARGE * E_CHARGE * soa.charging_bw[idx];
    }
}

/// Batched directed-rate kernel: `out[i] = Γ(dw[i], resistance[i])`
/// (`out` is cleared first) — per lane the exact `orthodox_rate` /
/// `QpRateTable::rate` of the model.
pub(crate) fn tunnel_rates(
    model: &TunnelModel,
    kt: f64,
    dw: &[f64],
    resistance: &[f64],
    out: &mut Vec<f64>,
) {
    out.clear();
    match model {
        TunnelModel::Normal => orthodox_rates(dw, resistance, kt, out),
        TunnelModel::Quasiparticle(table) => table.rates_batch(dw, resistance, out),
    }
}

/// Sequential fold of a replay-log window into one island's cached
/// potential: returns `phi` after adding each entry's exact delta in
/// log order. `cinv_row` is the island's dense `C⁻¹` row, `lead_row`
/// its lead-response row. Per-entry deltas are independent pure
/// products ([`ReplayEntry::delta`]) computed a buffer of lanes at a
/// time; the accumulation keeps strict log order, so the buffering
/// cannot reassociate the fold.
pub(crate) fn replay_fold(
    cinv_row: &[f64],
    lead_row: &[f64],
    entries: &[ReplayEntry],
    phi: f64,
) -> f64 {
    // The replay window gathers at scattered columns of one `C⁻¹` row
    // that has usually fallen out of cache since the island was last
    // refreshed. Stream the whole row in ahead of the gathers:
    // sequential prefetch beats hundreds of dependent random misses
    // when the window is long enough to touch most of the row.
    #[cfg(target_arch = "x86_64")]
    if entries.len() * 2 >= PREFETCH_MIN_GATHERS {
        const LINE: usize = 64 / std::mem::size_of::<f64>();
        for chunk in cinv_row.chunks(LINE) {
            // SAFETY: prefetch has no memory effects; the pointer is
            // in-bounds of the row slice.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    chunk.as_ptr() as *const i8,
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
    }
    let mut buf = [0.0f64; REPLAY_LANES];
    let mut phi = phi;
    for chunk in entries.chunks(REPLAY_LANES) {
        for (slot, e) in buf.iter_mut().zip(chunk) {
            *slot = e.delta(cinv_row, lead_row);
        }
        for &d in &buf[..chunk.len()] {
            phi += d;
        }
    }
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::constants::{ev_to_joule, K_B};
    use crate::energy::{delta_w, CircuitState};
    use crate::rates::orthodox_rate;
    use crate::solver::AdaptiveSolver;
    use crate::superconduct::QpRateTable;

    /// Eleven coupled islands (a chain with a gate lead and a cross
    /// capacitor) and fourteen junctions — neither count a multiple of
    /// the replay lane width — so every kernel exercises island and
    /// lead terminals and partial tails.
    fn rig() -> Circuit {
        let mut b = CircuitBuilder::new();
        let vdd = b.add_lead(8e-3);
        let gate = b.add_lead(1e-3);
        let islands: Vec<NodeId> = (0..11)
            .map(|k| b.add_island_with_charge(0.05 * k as f64))
            .collect();
        b.add_junction(vdd, islands[0], 1e6, 1e-18).unwrap();
        for (k, w) in islands.windows(2).enumerate() {
            b.add_junction(w[0], w[1], 1e6 + 1e5 * k as f64, 1.5e-18)
                .unwrap();
        }
        b.add_junction(islands[10], NodeId::GROUND, 3e6, 2e-18)
            .unwrap();
        b.add_junction(gate, islands[5], 2e6, 1e-18).unwrap();
        b.add_junction(vdd, NodeId::GROUND, 4e6, 1e-18).unwrap();
        for (k, &i) in islands.iter().enumerate() {
            b.add_capacitor(gate, i, (1.0 + 0.3 * k as f64) * 1e-18)
                .unwrap();
        }
        b.add_capacitor(islands[1], islands[7], 0.5e-18).unwrap();
        b.build().unwrap()
    }

    fn changes(c: &Circuit) -> Vec<StateChange> {
        let i = |k: usize| c.island_node(k);
        vec![
            StateChange::Transfer {
                from: i(1),
                to: i(2),
                count: 1,
            },
            StateChange::Transfer {
                from: NodeId::GROUND,
                to: i(10),
                count: 2,
            },
            StateChange::Transfer {
                from: i(7),
                to: NodeId(1),
                count: -1,
            },
            StateChange::Transfer {
                from: NodeId::GROUND,
                to: NodeId(1),
                count: 1,
            },
            StateChange::LeadStep { lead: 1, dv: 3e-3 },
            StateChange::LeadStep { lead: 2, dv: -2e-3 },
        ]
    }

    #[test]
    fn test_factors_match_scalar_node_deltas_bitwise() {
        let c = rig();
        let nj = c.num_junctions();
        assert_ne!(nj % REPLAY_LANES, 0);
        // ΔW' scales comparable to one event's e·δφ, so that at this
        // threshold some junctions flag and some accumulate.
        let dw_fw: Vec<f64> = (0..nj).map(|i| 1e-20 * (i as f64 + 1.0)).collect();
        let dw_bw: Vec<f64> = (0..nj).map(|i| -0.7e-20 * (i as f64 + 1.0)).collect();
        let threshold = 0.4;
        // Every junction, then a sparse ascending subset.
        let all: Vec<JunctionId> = c.junction_ids().collect();
        let some: Vec<JunctionId> = all.iter().copied().step_by(3).collect();
        let (mut n_tested, mut n_flagged) = (0, 0);
        for change in changes(&c) {
            for tested in [&all, &some] {
                let fresh_b0 = || -> Vec<f64> { (0..nj).map(|i| 1e-24 * i as f64).collect() };
                let (mut b0_ref, mut flagged_ref) = (fresh_b0(), Vec::new());
                for &j in tested.iter() {
                    let junction = c.junction(j);
                    let dp_a = AdaptiveSolver::node_delta(&c, change, junction.node_a);
                    let dp_b = AdaptiveSolver::node_delta(&c, change, junction.node_b);
                    let idx = j.index();
                    let b = b0_ref[idx] + E_CHARGE * (dp_a - dp_b);
                    if b.abs() >= threshold * dw_fw[idx].abs().min(dw_bw[idx].abs()) {
                        flagged_ref.push(j);
                    } else {
                        b0_ref[idx] = b;
                    }
                }
                let (mut b0, mut flagged) = (fresh_b0(), Vec::new());
                test_factors(
                    &c,
                    change,
                    tested,
                    threshold,
                    &dw_fw,
                    &dw_bw,
                    &mut b0,
                    &mut flagged,
                );
                assert_eq!(flagged, flagged_ref, "{change:?}");
                for (a, b) in b0.iter().zip(&b0_ref) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{change:?}");
                }
                n_tested += tested.len();
                n_flagged += flagged.len();
            }
        }
        assert!(
            0 < n_flagged && n_flagged < n_tested,
            "{n_flagged}/{n_tested}"
        );
    }

    #[test]
    fn delta_w_all_matches_scalar_delta_w_bitwise() {
        let c = rig();
        let mut state = CircuitState::new(&c);
        state.set_lead_voltage(2, 2.5e-3);
        state.apply_transfer(&c, c.island_node(3), c.island_node(4), 1);
        state.recompute_potentials(&c);
        let nj = c.num_junctions();
        let (mut fw, mut bw) = (vec![0.0; nj], vec![0.0; nj]);
        delta_w_all(
            &c,
            state.island_potentials(),
            state.lead_voltages(),
            &mut fw,
            &mut bw,
        );
        for (idx, j) in c.junctions().iter().enumerate() {
            let efw = delta_w(&c, &state, j.node_a, j.node_b, 1);
            let ebw = delta_w(&c, &state, j.node_b, j.node_a, 1);
            assert_eq!(fw[idx].to_bits(), efw.to_bits(), "junction {idx}");
            assert_eq!(bw[idx].to_bits(), ebw.to_bits(), "junction {idx}");
        }
    }

    #[test]
    fn tunnel_rates_match_scalar_rates_bitwise() {
        let kt = K_B * 4.2;
        let dw: Vec<f64> = (0..13).map(|i| (i as f64 - 6.0) * 3e-23).collect();
        let rs: Vec<f64> = (0..13).map(|i| 1e6 + 1e5 * i as f64).collect();
        let mut out = vec![42.0];
        tunnel_rates(&TunnelModel::Normal, kt, &dw, &rs, &mut out);
        assert_eq!(out.len(), dw.len());
        for ((g, &w), &r) in out.iter().zip(&dw).zip(&rs) {
            assert_eq!(g.to_bits(), orthodox_rate(w, kt, r).to_bits());
        }

        let kt = K_B * 0.3;
        let gap = ev_to_joule(0.2e-3);
        let table = QpRateTable::build(gap, kt, 6.0 * gap).unwrap();
        // Queries straddle ±2Δ (the sub-gap edge) and leave the table's
        // range on both sides.
        let dw: Vec<f64> = (0..21).map(|i| (i as f64 - 10.0) * 0.7 * gap).collect();
        let rs: Vec<f64> = (0..21).map(|i| 1e6 + 1e5 * i as f64).collect();
        let model = TunnelModel::Quasiparticle(table.clone());
        tunnel_rates(&model, kt, &dw, &rs, &mut out);
        assert_eq!(out.len(), dw.len());
        for ((g, &w), &r) in out.iter().zip(&dw).zip(&rs) {
            assert_eq!(g.to_bits(), table.rate(w, r).to_bits());
        }
    }

    #[test]
    fn replay_fold_matches_sequential_per_entry_fold_bitwise() {
        let c = rig();
        let kinds = changes(&c);
        // Window lengths around the lane width and the prefetch
        // threshold, none but the empty one a multiple of 8.
        for len in [0usize, 1, 7, 9, 31, 33, 67] {
            let log: Vec<StateChange> = (0..len)
                .map(|k| match kinds[k % kinds.len()] {
                    StateChange::LeadStep { lead, .. } => StateChange::LeadStep {
                        lead,
                        dv: 1e-4 * (k as f64 - 30.0),
                    },
                    transfer => transfer,
                })
                .collect();
            let entries: Vec<ReplayEntry> =
                log.iter().map(|&d| ReplayEntry::resolve(&c, d)).collect();
            for island in 0..c.num_islands() {
                let cinv_row = c.inverse_capacitance().row(island);
                let lead_row = c.lead_response().row(island);
                // Oracle: the per-entry sequential loop over the scalar
                // potential deltas.
                let node = c.island_node(island);
                let phi0 = 1e-5 * (island as f64 + 1.0);
                let mut expect = phi0;
                for (&d, e) in log.iter().zip(&entries) {
                    let delta = AdaptiveSolver::node_delta(&c, d, node);
                    assert_eq!(e.delta(cinv_row, lead_row).to_bits(), delta.to_bits());
                    expect += delta;
                }
                let got = replay_fold(cinv_row, lead_row, &entries, phi0);
                assert_eq!(got.to_bits(), expect.to_bits(), "len {len} island {island}");
            }
        }
    }
}
