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
//! [`crate::energy::potential_delta`] /
//! [`crate::energy::lead_step_delta`], per junction terminal in the
//! tests and per island in the potential update. For the same inputs a
//! kernel produces exactly the oracle's bytes, junction for junction and
//! island for island, because
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
//! * nothing reassociates: per-junction and per-island computations are
//!   independent, and each island adds one event's delta per call, in
//!   event order.
//!
//! Rates are not computed here: both solvers and the oracle write them
//! junction by junction through `SolverContext::junction_rates`.

use crate::circuit::{Circuit, JunctionId, JunctionSoA};
use crate::constants::E_CHARGE;
use crate::solver::StateChange;

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
    use crate::constants::K_B;
    use crate::energy::{delta_w, CircuitState};
    use crate::events::RateLayout;
    use crate::solver::{add_node_deltas, AdaptiveSolver, SolverContext, TunnelModel};

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
    fn junction_rates_match_scalar_delta_w_bitwise() {
        // Both solvers' rates read the SoA charging coefficients through
        // `junction_rates`; its ΔW must be `delta_w`'s, bit for bit.
        let c = rig();
        let mut state = CircuitState::new(&c);
        state.set_lead_voltage(2, 2.5e-3);
        state.apply_transfer(&c, c.island_node(3), c.island_node(4), 1);
        state.recompute_potentials(&c);
        let layout = RateLayout {
            junctions: c.num_junctions(),
            cotunnel_paths: 0,
            cooper_pairs: false,
        };
        let model = TunnelModel::Normal;
        let ctx = SolverContext::new(&c, K_B * 4.2, &model, layout);
        for (j, junction) in c.junction_ids().zip(c.junctions()) {
            let (fw, _, bw, _) = ctx.junction_rates(&state, j);
            let efw = delta_w(&c, &state, junction.node_a, junction.node_b, 1);
            let ebw = delta_w(&c, &state, junction.node_b, junction.node_a, 1);
            assert_eq!(fw.to_bits(), efw.to_bits(), "{j:?}");
            assert_eq!(bw.to_bits(), ebw.to_bits(), "{j:?}");
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
