//! The adaptive solver's hot-loop kernels: flat loops over the
//! structure-of-arrays junction buffers ([`JunctionSoA`]) and over the
//! island potentials, reading the event's contiguous `C⁻¹` or
//! lead-response columns ([`Circuit::cinv_column`],
//! [`Circuit::lead_response`]).
//!
//! ## Contract
//!
//! Every kernel is **bit-identical** to the scalar functions that
//! `SolverSpec::AdaptiveDense` — the oracle — runs instead:
//! [`crate::energy::delta_w`], [`crate::energy::potential_delta`] /
//! [`crate::energy::lead_step_delta`] (per junction terminal in the
//! tests, per island in the potential update), `orthodox_rate` /
//! `QpRateTable::rate`, and sequential `FenwickTree::set` calls. For
//! the same inputs a kernel produces exactly the oracle's bytes,
//! junction for junction and island for island, because
//!
//! * a kernel reads entry `(r, c)` from the one stored `C⁻¹` where the
//!   scalar functions' [`Circuit::cinv`] reads it, entry `r` of column
//!   `c`, and likewise for the lead response;
//! * per-lane arithmetic replicates the scalar expressions operand for
//!   operand (the [`JunctionSoA`] charging coefficients are
//!   precomputed with `delta_w`'s exact operand order);
//! * nothing reassociates: per-junction and per-island computations are
//!   independent, and each island adds one event's delta per call, in
//!   event order.
//!
//! ## Error ordering
//!
//! On the non-error path the batched kernels are bit-identical. On
//! *error* paths (non-finite ΔW or rate, which terminate the
//! simulation) the batched rewrite computes pure float lanes for
//! junctions past the failing one before the screen runs; the
//! surfaced error — first failing junction in ascending order, same
//! fault stage — is identical, but dead scratch state may differ.

use crate::circuit::{Circuit, JunctionId, JunctionSoA};
use crate::constants::E_CHARGE;
use crate::rates::orthodox_rates;
use crate::solver::{StateChange, TunnelModel};

/// Potential change of one junction terminal for a transfer, from the
/// `C⁻¹` columns of the event's endpoints. Replicates
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
/// stepped lead's response column. Replicates the scalar node delta.
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
            // Resolve the two event columns once; every lane then
            // gathers from these L1-resident slices.
            let colf = circuit.island_index(from).map(|f| circuit.cinv_column(f));
            let colt = circuit.island_index(to).map(|t| circuit.cinv_column(t));
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
            let lr = circuit.lead_response(lead);
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

/// Eager potential update: adds `change`'s exact potential delta to
/// every island's cached potential `phi`, reading the event's
/// contiguous columns (the `C⁻¹` columns of a transfer's island
/// endpoints, or the stepped lead's response column).
///
/// Per island the delta is operand for operand
/// [`crate::energy::potential_delta`] /
/// [`crate::energy::lead_step_delta`]. A lead endpoint keeps the scalar
/// path's `0.0 + x` / `0.0 − x` forms, and a lead→lead transfer still
/// adds `ke·0.0` (which can turn a `−0.0` potential into `+0.0`). Each
/// island therefore receives exactly the oracle's per-island
/// `node_delta` sum, in event order.
pub(crate) fn potential_update(circuit: &Circuit, change: StateChange, phi: &mut [f64]) {
    match change {
        StateChange::Transfer { from, to, count } => {
            let ke = count as f64 * E_CHARGE;
            match (circuit.island_index(from), circuit.island_index(to)) {
                (Some(f), Some(t)) => {
                    let (colf, colt) = (circuit.cinv_column(f), circuit.cinv_column(t));
                    for ((p, &xf), &xt) in phi.iter_mut().zip(colf).zip(colt) {
                        *p += ke * ((0.0 + xf) - xt);
                    }
                }
                (Some(f), None) => {
                    for (p, &xf) in phi.iter_mut().zip(circuit.cinv_column(f)) {
                        *p += ke * (0.0 + xf);
                    }
                }
                (None, Some(t)) => {
                    for (p, &xt) in phi.iter_mut().zip(circuit.cinv_column(t)) {
                        *p += ke * (0.0 - xt);
                    }
                }
                (None, None) => {
                    let d = ke * 0.0;
                    for p in phi.iter_mut() {
                        *p += d;
                    }
                }
            }
        }
        StateChange::LeadStep { lead, dv } => {
            for (p, &x) in phi.iter_mut().zip(circuit.lead_response(lead)) {
                *p += x * dv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitBuilder, NodeId};
    use crate::constants::{ev_to_joule, K_B};
    use crate::energy::{delta_w, CircuitState};
    use crate::rates::orthodox_rate;
    use crate::solver::AdaptiveSolver;
    use crate::superconduct::QpRateTable;

    /// Eleven coupled islands (a chain with a gate lead and a cross
    /// capacitor) and fourteen junctions — neither count a multiple of
    /// 4 or 8, the f64 lane counts of 256- and 512-bit vectors — so
    /// every kernel exercises island and lead terminals and partial
    /// vector tails.
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
        for lanes in [4, 8] {
            assert_ne!(nj % lanes, 0);
        }
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
    fn potential_update_matches_scalar_node_deltas_bitwise() {
        let c = rig();
        let n = c.num_islands();
        for lanes in [2, 4, 8] {
            assert_ne!(n % lanes, 0);
        }
        // Signed zeros (a lead→lead transfer's `ke·0.0` turns −0.0 into
        // +0.0), ordinary potentials, and one potential so large that
        // every delta is below half its ulp.
        let mut phi0: Vec<f64> = (0..n)
            .map(|k| match k % 4 {
                0 => -0.0,
                1 => 0.0,
                _ => 1e-3 * (k as f64 - 5.0),
            })
            .collect();
        phi0[n - 1] = 1e16;
        let scalar = |phi: &mut [f64], change: StateChange, seen: &mut (usize, usize)| {
            for (k, p) in phi.iter_mut().enumerate() {
                let d = AdaptiveSolver::node_delta(&c, change, c.island_node(k));
                let next = *p + d;
                if d != 0.0 && next == *p {
                    seen.0 += 1;
                }
                if p.to_bits() == (-0.0f64).to_bits() && next.to_bits() == 0.0f64.to_bits() {
                    seen.1 += 1;
                }
                *p = next;
            }
        };
        let mut seen = (0, 0);
        // Each change from the same start, then all of them in sequence,
        // twice.
        let all = changes(&c);
        let sequence: Vec<StateChange> = all.iter().chain(&all).copied().collect();
        let mut cases: Vec<&[StateChange]> = all.chunks(1).collect();
        cases.push(&sequence);
        for case in cases {
            let (mut phi, mut expect) = (phi0.clone(), phi0.clone());
            for &change in case {
                scalar(&mut expect, change, &mut seen);
                potential_update(&c, change, &mut phi);
                for (k, (a, b)) in phi.iter().zip(&expect).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{change:?} island {k}");
                }
            }
        }
        let (rounded_away, zero_flipped) = seen;
        assert!(
            rounded_away > 0 && zero_flipped > 0,
            "{rounded_away} deltas below half an ulp, {zero_flipped} −0.0 → +0.0"
        );
    }
}
