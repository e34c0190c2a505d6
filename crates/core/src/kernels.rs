//! The adaptive solver's hot-loop kernels: flat loops over the
//! structure-of-arrays junction buffers ([`JunctionSoA`]) and over the
//! island potentials, reading the event's sparse `C⁻¹` columns or its
//! contiguous lead-response column ([`Circuit::cinv_column`],
//! [`Circuit::lead_response`]). A transfer's per-island potential
//! delta is computed once, over the union of its two column supports,
//! into [`EventDelta`]; the potential update adds it and the testing
//! kernel reads it.
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
//!   `c` (a dropped entry is `0.0` to both), and likewise for the lead
//!   response;
//! * a transfer's delta is `ke·((0.0 + x_f) − x_t)` per island, the
//!   operands of [`crate::energy::potential_delta`]; the potential
//!   update adds it to the islands of the two columns' supports, which
//!   is where the oracle's loop over the stored columns adds it, and an
//!   island outside them reads `+0.0` in the tests where the oracle's
//!   `ke·0.0` may be `−0.0` — which changes no testing factor, because
//!   a factor starts at `+0.0` and so is never `−0.0`;
//! * per-lane arithmetic replicates the scalar expressions operand for
//!   operand (the [`JunctionSoA`] charging coefficients are
//!   precomputed with `delta_w`'s exact operand order; the oracle's
//!   per-junction rates read the same coefficients, and
//!   `delta_w_all_matches_scalar_delta_w_bitwise` holds them to
//!   `delta_w` itself);
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

/// One transfer's potential change per island, computed once: dense
/// over the islands, nonzero only on the union of the two endpoints'
/// `C⁻¹` column supports, which `touched` lists. Reused across events.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventDelta {
    /// Per island: the last transfer's delta on `touched`, `+0.0`
    /// elsewhere.
    delta: Vec<f64>,
    /// Column `from`'s support, then the islands only column `to`
    /// stores.
    touched: Vec<u32>,
}

impl EventDelta {
    pub(crate) fn new(n_islands: usize) -> Self {
        EventDelta {
            delta: vec![0.0; n_islands],
            touched: Vec::new(),
        }
    }

    /// Zeroes the entries the last transfer touched.
    fn clear(&mut self) {
        for &i in &self.touched {
            self.delta[i as usize] = 0.0;
        }
        self.touched.clear();
    }
}

/// Potential change of one junction terminal for a transfer, from the
/// transfer's [`EventDelta`]. Replicates
/// [`crate::energy::potential_delta`] operand for operand on the
/// supports, and gives `+0.0` off them.
#[inline(always)]
fn transfer_lane(island: u32, delta: &[f64]) -> f64 {
    if island == JunctionSoA::NONE {
        0.0
    } else {
        delta[island as usize]
    }
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
/// recompute to reset; unflagged junctions get `b₀ ← b`. A transfer
/// reads its per-island delta from `event`, which
/// [`potential_update`] filled for the same change.
#[allow(clippy::too_many_arguments)]
pub(crate) fn test_factors(
    circuit: &Circuit,
    change: StateChange,
    event: &EventDelta,
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
        StateChange::Transfer { .. } => {
            let delta = &event.delta;
            for &j in tested {
                let idx = j.index();
                test(
                    j,
                    transfer_lane(soa.a_island[idx], delta),
                    transfer_lane(soa.b_island[idx], delta),
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

/// Eager potential update: adds `change`'s potential delta to the
/// cached potential `phi` of every island it reaches, and returns how
/// many islands that is.
///
/// A transfer's delta is formed once in `event` (the previous event's
/// entries are cleared first) over the union of the stored `C⁻¹`
/// columns of its island endpoints: `(0.0 + x_f) − x_t`, each term
/// present when its column stores the island, then scaled by `ke`. That
/// is operand for operand [`crate::energy::potential_delta`], which
/// reads a dropped entry as `0.0`. Column `f` stores only nonzeros, so
/// an island the `t` column reaches is new to the union exactly when its
/// delta is still `+0.0`. A lead→lead transfer reaches no island. A lead
/// step adds its response column, `x·dv`, to every island, as
/// [`crate::energy::lead_step_delta`] does. Each island therefore
/// receives exactly the oracle's per-island `node_delta` sum, in event
/// order.
pub(crate) fn potential_update(
    circuit: &Circuit,
    change: StateChange,
    event: &mut EventDelta,
    phi: &mut [f64],
) -> usize {
    event.clear();
    match change {
        StateChange::Transfer { from, to, count } => {
            let ke = count as f64 * E_CHARGE;
            let EventDelta { delta, touched } = event;
            if let Some(f) = circuit.island_index(from) {
                for (i, x) in circuit.cinv_column(f).iter() {
                    delta[i] += x;
                    touched.push(i as u32);
                }
            }
            if let Some(t) = circuit.island_index(to) {
                for (i, x) in circuit.cinv_column(t).iter() {
                    if delta[i] == 0.0 {
                        touched.push(i as u32);
                    }
                    delta[i] -= x;
                }
            }
            for &i in touched.iter() {
                let d = &mut delta[i as usize];
                *d *= ke;
                phi[i as usize] += *d;
            }
            touched.len()
        }
        StateChange::LeadStep { lead, dv } => {
            for (p, &x) in phi.iter_mut().zip(circuit.lead_response(lead)) {
                *p += x * dv;
            }
            phi.len()
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
    use crate::solver::{add_node_deltas, AdaptiveSolver};
    use crate::superconduct::QpRateTable;

    /// Eleven coupled islands (a chain with a gate lead and a cross
    /// capacitor) plus two isolated SET islands between the supply and
    /// ground, whose `C⁻¹` couplings to everything else are exactly zero
    /// and so not stored: thirteen islands and eighteen junctions —
    /// neither count a multiple of 4 or 8, the f64 lane counts of 256-
    /// and 512-bit vectors — so every kernel exercises island and lead
    /// terminals, column supports that miss islands, and partial vector
    /// tails.
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
        for _ in 0..2 {
            let isolated = b.add_island_with_charge(0.3);
            b.add_junction(vdd, isolated, 1e6, 1e-18).unwrap();
            b.add_junction(isolated, NodeId::GROUND, 1e6, 2e-18)
                .unwrap();
        }
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
            StateChange::Transfer {
                from: i(11),
                to: i(3),
                count: 1,
            },
            StateChange::Transfer {
                from: i(12),
                to: NodeId::GROUND,
                count: -1,
            },
            StateChange::LeadStep { lead: 1, dv: 3e-3 },
            StateChange::LeadStep { lead: 2, dv: -2e-3 },
            StateChange::LeadStep { lead: 2, dv: 1e-3 },
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
                let mut event = EventDelta::new(c.num_islands());
                potential_update(&c, change, &mut event, &mut vec![0.0; c.num_islands()]);
                test_factors(
                    &c,
                    change,
                    &event,
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
    fn potential_update_matches_the_scalar_column_walk_bitwise() {
        let c = rig();
        let n = c.num_islands();
        for lanes in [2, 4, 8] {
            assert_ne!(n % lanes, 0);
        }
        // The isolated islands' columns store only their diagonals.
        assert_eq!(c.cinv_column(11).rows, &[11]);
        assert_eq!(c.cinv(3, 11), 0.0);
        // Signed zeros (a `+0.0` delta turns −0.0 into +0.0, which only
        // an island the change reaches can take), ordinary potentials,
        // and one potential so large that every delta is below half its
        // ulp.
        let mut phi0: Vec<f64> = (0..n)
            .map(|k| match k % 4 {
                0 => -0.0,
                1 => 0.0,
                _ => 1e-3 * (k as f64 - 5.0),
            })
            .collect();
        phi0[10] = 1e16;
        let mut seen = (0, 0);
        let mut scalar = |phi: &mut [f64], change: StateChange| {
            let before = phi.to_vec();
            let updated = add_node_deltas(&c, change, phi);
            for (k, (&p, &next)) in before.iter().zip(phi.iter()).enumerate() {
                let d = AdaptiveSolver::node_delta(&c, change, c.island_node(k));
                if d != 0.0 && next == p {
                    seen.0 += 1;
                }
                if p.to_bits() == (-0.0f64).to_bits() && next.to_bits() == 0.0f64.to_bits() {
                    seen.1 += 1;
                }
            }
            updated
        };
        // Each change from the same start, then all of them in sequence,
        // twice.
        let all = changes(&c);
        let sequence: Vec<StateChange> = all.iter().chain(&all).copied().collect();
        let mut cases: Vec<&[StateChange]> = all.chunks(1).collect();
        cases.push(&sequence);
        let mut event = EventDelta::new(n);
        for case in cases {
            let (mut phi, mut expect) = (phi0.clone(), phi0.clone());
            for &change in case {
                let want = scalar(&mut expect, change);
                let got = potential_update(&c, change, &mut event, &mut phi);
                assert_eq!(got, want, "{change:?} islands updated");
                for (k, (a, b)) in phi.iter().zip(&expect).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{change:?} island {k}");
                }
                // The delta the tests read is the one added, and `+0.0`
                // off the union.
                if let StateChange::Transfer { .. } = change {
                    assert_eq!(event.touched.len(), got);
                    for k in 0..n {
                        let on = event.touched.contains(&(k as u32));
                        let d = event.delta[k];
                        if on {
                            let want = AdaptiveSolver::node_delta(&c, change, c.island_node(k));
                            assert_eq!(d.to_bits(), want.to_bits(), "{change:?} island {k}");
                        } else {
                            assert_eq!(d.to_bits(), 0.0f64.to_bits(), "{change:?} island {k}");
                        }
                    }
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
