//! Exact-circuit feature calculators for the superconducting map of
//! Fig. 5: instead of quoting approximate textbook line formulas, these
//! evaluate the actual free-energy changes of candidate processes on
//! the built circuit, so the predicted feature positions are consistent
//! with the Monte Carlo engine by construction.

use semsim_core::circuit::{Circuit, JunctionId};
use semsim_core::energy::{delta_w, CircuitState};

/// Smallest-magnitude Cooper-pair detuning (J) over both directions of
/// both junctions — JQP/DJQP resonances sit where this crosses zero
/// for *some* junction.
pub fn best_pair_detuning(circuit: &Circuit, state: &CircuitState) -> f64 {
    let mut best = f64::INFINITY;
    for id in circuit.junction_ids() {
        let d = pair_detuning(circuit, state, id, 0);
        if d.abs() < best.abs() {
            best = d;
        }
    }
    best
}

/// Free-energy detuning (J) of a Cooper-pair tunneling event through
/// `junction` in the favourable direction, at lead voltages already set
/// in `state` and `n` excess electrons on the (single) island.
///
/// JQP/DJQP resonances sit where this crosses zero.
pub fn pair_detuning(
    circuit: &Circuit,
    state: &CircuitState,
    junction: JunctionId,
    n_shift: i64,
) -> f64 {
    let j = circuit.junction(junction);
    let mut s = state.clone();
    if n_shift != 0 {
        s.apply_transfer(circuit, j.node_a, j.node_b, n_shift);
        s.recompute_potentials(circuit);
    }
    let fw = delta_w(circuit, &s, j.node_a, j.node_b, 2);
    let bw = delta_w(circuit, &s, j.node_b, j.node_a, 2);
    if fw.abs() < bw.abs() {
        fw
    } else {
        bw
    }
}

/// Whether a full first-order quasi-particle transport *cycle* is
/// energetically open at zero temperature for gap `gap` (J): an
/// electron must be able to enter the island through one junction and
/// leave through another, each event releasing at least `2Δ` (one
/// excitation per electrode). A single allowed event only lets the
/// island hop once; steady current needs the cycle.
pub fn qp_transport_open(circuit: &Circuit, state: &CircuitState, gap: f64) -> bool {
    let gate = -2.0 * gap;
    for first in circuit.junction_ids() {
        let j1 = circuit.junction(first);
        for (a, b) in [(j1.node_a, j1.node_b), (j1.node_b, j1.node_a)] {
            if delta_w(circuit, state, a, b, 1) > gate {
                continue;
            }
            let mut after = state.clone();
            after.apply_transfer(circuit, a, b, 1);
            after.recompute_potentials(circuit);
            for second in circuit.junction_ids() {
                if second == first {
                    continue;
                }
                let j2 = circuit.junction(second);
                for (c, d) in [(j2.node_a, j2.node_b), (j2.node_b, j2.node_a)] {
                    if delta_w(circuit, &after, c, d, 1) <= gate {
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::fig5_set;
    use semsim_core::constants::ev_to_joule;

    fn biased_state(vb: f64, vg: f64) -> (semsim_core::circuit::Circuit, CircuitState) {
        let d = fig5_set().unwrap();
        let mut s = CircuitState::new(&d.circuit);
        s.set_lead_voltage(d.source_lead, vb);
        s.set_lead_voltage(d.drain_lead, 0.0);
        s.set_lead_voltage(d.gate_lead, vg);
        s.recompute_potentials(&d.circuit);
        (d.circuit, s)
    }

    #[test]
    fn qp_transport_closed_at_zero_bias() {
        let gap = ev_to_joule(0.21e-3);
        let (c, s) = biased_state(0.0, 0.0);
        assert!(!qp_transport_open(&c, &s, gap));
    }

    #[test]
    fn qp_transport_opens_at_high_bias() {
        let gap = ev_to_joule(0.21e-3);
        // Well above the 4Δ + charging threshold (~1.5 mV).
        let (c, s) = biased_state(3e-3, 0.0);
        assert!(qp_transport_open(&c, &s, gap));
    }

    #[test]
    fn pair_detuning_crosses_zero_along_bias() {
        // Somewhere in the sub-gap bias range the Cooper-pair process
        // must come into resonance for a suitable gate voltage.
        let d = fig5_set().unwrap();
        let mut found_sign_change = false;
        let mut prev: Option<f64> = None;
        for i in 0..60 {
            let vb = 0.2e-3 + 1.3e-3 * i as f64 / 59.0;
            let mut s = CircuitState::new(&d.circuit);
            s.set_lead_voltage(d.source_lead, vb);
            s.set_lead_voltage(d.gate_lead, 4e-3);
            s.recompute_potentials(&d.circuit);
            let det = best_pair_detuning(&d.circuit, &s);
            if let Some(p) = prev {
                if p.signum() != det.signum() {
                    found_sign_change = true;
                }
            }
            prev = Some(det);
        }
        assert!(found_sign_change, "no JQP resonance crossing found");
    }
}
