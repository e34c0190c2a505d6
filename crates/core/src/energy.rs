//! Electrostatic state and free-energy changes (paper Eq. 2).
//!
//! The dynamic state of a single-electron circuit is the integer number
//! of excess electrons on each island plus the instantaneous lead
//! voltages. Everything else — island charges `q̃`, potentials
//! `φ = C⁻¹q̃`, and the free-energy change `ΔW` of any candidate tunnel
//! event — is derived here.

use crate::circuit::{Circuit, NodeId};
use crate::constants::E_CHARGE;

/// Mutable electrostatic state of a circuit during simulation.
///
/// # Example
///
/// ```
/// use semsim_core::circuit::CircuitBuilder;
/// use semsim_core::energy::CircuitState;
///
/// # fn main() -> Result<(), semsim_core::CoreError> {
/// let mut b = CircuitBuilder::new();
/// let lead = b.add_lead(1e-3);
/// let island = b.add_island();
/// b.add_junction(lead, island, 1e6, 1e-18)?;
/// b.add_junction(island, semsim_core::circuit::NodeId::GROUND, 1e6, 1e-18)?;
/// let c = b.build()?;
/// let mut s = CircuitState::new(&c);
/// s.recompute_potentials(&c);
/// assert_eq!(s.electrons(), &[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitState {
    /// Excess electrons per island.
    electrons: Vec<i64>,
    /// Instantaneous lead voltages (V).
    lead_voltages: Vec<f64>,
    /// Cached island potentials (V). Exactness depends on the solver:
    /// the non-adaptive solver keeps these exact after every event, the
    /// adaptive solver refreshes them lazily.
    pub(crate) phi: Vec<f64>,
    /// Maintained island charge vector `q̃` (C): updated O(1) per
    /// transfer, marked dirty on lead steps (which are rare). Lets a
    /// single island's potential be recomputed in O(islands) without
    /// replaying event history.
    q_tilde: Vec<f64>,
    q_tilde_dirty: bool,
    /// Reusable buffer for charge-vector assembly — keeps potential
    /// refreshes allocation-free on the event loop's hot path.
    scratch_q: Vec<f64>,
}

/// Scratch-buffer contents carry no state; equality is over the
/// dynamic state proper.
impl PartialEq for CircuitState {
    fn eq(&self, other: &Self) -> bool {
        self.electrons == other.electrons
            && self.lead_voltages == other.lead_voltages
            && self.phi == other.phi
            && self.q_tilde == other.q_tilde
            && self.q_tilde_dirty == other.q_tilde_dirty
    }
}

impl CircuitState {
    /// Initial state: zero excess electrons, leads at their declared
    /// biases, potentials unset (call
    /// [`CircuitState::recompute_potentials`]).
    pub fn new(circuit: &Circuit) -> Self {
        let mut state = CircuitState {
            electrons: vec![0; circuit.num_islands()],
            lead_voltages: circuit.initial_lead_voltages().to_vec(),
            phi: vec![0.0; circuit.num_islands()],
            q_tilde: Vec::new(),
            q_tilde_dirty: false,
            scratch_q: Vec::with_capacity(circuit.num_islands()),
        };
        state.q_tilde = state.charge_vector(circuit);
        state
    }

    /// Excess electrons per island.
    pub fn electrons(&self) -> &[i64] {
        &self.electrons
    }

    /// Instantaneous lead voltages.
    pub fn lead_voltages(&self) -> &[f64] {
        &self.lead_voltages
    }

    /// Sets the voltage of `lead`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `lead` is out of range.
    pub fn set_lead_voltage(&mut self, lead: usize, v: f64) -> f64 {
        // q̃ depends on the circuit's coupling block, which this type
        // does not own here; mark the cache dirty (lead steps are rare).
        self.q_tilde_dirty = true;
        std::mem::replace(&mut self.lead_voltages[lead], v)
    }

    /// Exact potential of one island from the maintained charge vector:
    /// `φ_k = (C⁻¹)_k · q̃` over the sparsified row — O(stage) in weakly
    /// coupled circuits, independent of how much event history the
    /// caller skipped.
    pub fn exact_island_potential(&mut self, circuit: &Circuit, island: usize) -> f64 {
        if self.q_tilde_dirty {
            let mut q = std::mem::take(&mut self.q_tilde);
            fill_charge_vector(circuit, &self.electrons, &self.lead_voltages, &mut q);
            self.q_tilde = q;
            self.q_tilde_dirty = false;
        }
        circuit
            .sparse_inverse_capacitance()
            .row_dot(island, &self.q_tilde)
    }

    /// The island charge vector `q̃` (C): `−e·n + q₀ + C_ext·V`.
    pub fn charge_vector(&self, circuit: &Circuit) -> Vec<f64> {
        let mut q = Vec::with_capacity(circuit.num_islands());
        fill_charge_vector(circuit, &self.electrons, &self.lead_voltages, &mut q);
        q
    }

    /// Recomputes all island potentials exactly: `φ = C⁻¹·q̃`.
    /// Allocation-free: assembles q̃ into the reusable scratch buffer
    /// and multiplies into the existing `phi` storage.
    pub fn recompute_potentials(&mut self, circuit: &Circuit) {
        let mut q = std::mem::take(&mut self.scratch_q);
        fill_charge_vector(circuit, &self.electrons, &self.lead_voltages, &mut q);
        circuit
            .inverse_capacitance()
            .mul_vec_into(&q, &mut self.phi)
            .expect("island dimensions fixed at build");
        self.scratch_q = q;
    }

    /// Potential of a node: lead voltage for leads, cached `φ` for
    /// islands.
    #[inline]
    pub fn potential(&self, circuit: &Circuit, node: NodeId) -> f64 {
        match circuit.island_index(node) {
            Some(i) => self.phi[i],
            None => {
                let l = circuit.lead_index(node).expect("node is lead or island");
                self.lead_voltages[l]
            }
        }
    }

    /// Cached island potentials.
    pub fn island_potentials(&self) -> &[f64] {
        &self.phi
    }

    /// Rebuilds the maintained q̃ cache from scratch. Incremental q̃
    /// updates are exact only up to floating-point association order;
    /// checkpoint/resume rebuilds the cache on *both* sides so their
    /// subsequent potential refreshes agree bit-for-bit.
    pub(crate) fn rebuild_charge_cache(&mut self, circuit: &Circuit) {
        let mut q = std::mem::take(&mut self.q_tilde);
        fill_charge_vector(circuit, &self.electrons, &self.lead_voltages, &mut q);
        self.q_tilde = q;
        self.q_tilde_dirty = false;
    }

    /// Overwrites the dynamic state from a checkpoint: electron numbers
    /// and lead voltages are replaced, q̃ is rebuilt from scratch, and
    /// potentials are left for the caller to recompute.
    pub(crate) fn restore(
        &mut self,
        circuit: &Circuit,
        electrons: Vec<i64>,
        lead_voltages: Vec<f64>,
    ) {
        debug_assert_eq!(electrons.len(), circuit.num_islands());
        debug_assert_eq!(lead_voltages.len(), circuit.num_leads());
        self.electrons = electrons;
        self.lead_voltages = lead_voltages;
        self.rebuild_charge_cache(circuit);
    }

    /// Moves `count` electrons from `from` to `to` (island electron
    /// numbers and q̃ only; potentials are the solver's responsibility).
    pub fn apply_transfer(&mut self, circuit: &Circuit, from: NodeId, to: NodeId, count: i64) {
        if let Some(i) = circuit.island_index(from) {
            self.electrons[i] -= count;
            self.q_tilde[i] += count as f64 * E_CHARGE;
        }
        if let Some(i) = circuit.island_index(to) {
            self.electrons[i] += count;
            self.q_tilde[i] -= count as f64 * E_CHARGE;
        }
    }
}

/// Assembles the island charge vector `q̃ = −e·n + q₀ + C_ext·V` into
/// `out` (cleared first). The arithmetic and accumulation order are
/// identical to the historical `charge_vector`, so values are
/// bit-identical whichever entry point assembles them.
fn fill_charge_vector(
    circuit: &Circuit,
    electrons: &[i64],
    lead_voltages: &[f64],
    out: &mut Vec<f64>,
) {
    let q0 = circuit.island_background_charges();
    let cext = circuit.lead_coupling();
    out.clear();
    out.extend((0..circuit.num_islands()).map(|i| {
        let mut q = -E_CHARGE * electrons[i] as f64 + q0[i];
        for (l, &v) in lead_voltages.iter().enumerate() {
            q += cext.get(i, l) * v;
        }
        q
    }));
}

/// Free-energy change (J) for moving `count` electrons from node `from`
/// to node `to` — the paper's Eq. 2, generalized to leads (whose
/// potential is the source voltage and whose charging terms vanish) and
/// to multi-electron transfers (Cooper pairs use `count = 2`):
///
/// `ΔW = k·e·(φ_from − φ_to) + (k·e)²/2 · (C⁻¹_ff + C⁻¹_tt − 2·C⁻¹_ft)`
///
/// `ΔW < 0` means the transfer lowers the free energy.
#[inline]
pub fn delta_w(
    circuit: &Circuit,
    state: &CircuitState,
    from: NodeId,
    to: NodeId,
    count: i64,
) -> f64 {
    let ke = count as f64 * E_CHARGE;
    let phi_from = state.potential(circuit, from);
    let phi_to = state.potential(circuit, to);
    let charging = circuit.cinv_between(from, from) + circuit.cinv_between(to, to)
        - 2.0 * circuit.cinv_between(from, to);
    ke * (phi_from - phi_to) + 0.5 * ke * ke * charging
}

/// Exact change of an island's potential caused by moving `count`
/// electrons from `from` to `to`: `δφ_k = k·e·(C⁻¹_{k,from} −
/// C⁻¹_{k,to})` (lead terms are zero). Potentials are linear in the
/// island charges, so these per-event deltas are exact, which is what
/// lets the adaptive solver accumulate them without approximation error
/// in the potentials themselves.
#[inline]
pub fn potential_delta(
    circuit: &Circuit,
    island: usize,
    from: NodeId,
    to: NodeId,
    count: i64,
) -> f64 {
    let cinv = circuit.inverse_capacitance();
    let mut d = 0.0;
    if let Some(f) = circuit.island_index(from) {
        d += cinv.get(island, f);
    }
    if let Some(t) = circuit.island_index(to) {
        d -= cinv.get(island, t);
    }
    count as f64 * E_CHARGE * d
}

/// Exact change of an island's potential caused by stepping `lead` by
/// `dv` volts: `δφ_k = (C⁻¹·C_ext)_{k,lead} · dv`.
#[inline]
pub fn lead_step_delta(circuit: &Circuit, island: usize, lead: usize, dv: f64) -> f64 {
    circuit.lead_response().get(island, lead) * dv
}

/// Total electrostatic free energy of the state (J), up to a
/// state-independent constant: `F = ½·q̃ᵀ·C⁻¹·q̃`. Used by tests to
/// verify that [`delta_w`] is the exact discrete gradient of `F`.
pub fn total_free_energy(circuit: &Circuit, state: &CircuitState) -> f64 {
    let q = state.charge_vector(circuit);
    let phi = circuit
        .inverse_capacitance()
        .mul_vec(&q)
        .expect("island dimensions fixed at build");
    0.5 * semsim_linalg::dot(&q, &phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    /// Single-electron box: island, junction to ground, gate capacitor.
    fn seb(vg: f64) -> (Circuit, NodeId) {
        let mut b = CircuitBuilder::new();
        let gate = b.add_lead(vg);
        let island = b.add_island();
        b.add_junction(NodeId::GROUND, island, 1e6, 1e-18).unwrap();
        b.add_capacitor(gate, island, 2e-18).unwrap();
        (b.build().unwrap(), island)
    }

    #[test]
    fn seb_delta_w_matches_textbook() {
        // ΔW for adding electron n→n+1 from the ground lead:
        // E_C(2n+1) − e·C_g·V_g/C_Σ with E_C = e²/2C_Σ.
        let vg = 5e-3;
        let (c, island) = seb(vg);
        let mut s = CircuitState::new(&c);
        s.recompute_potentials(&c);
        let csum = 3e-18;
        let ec = E_CHARGE * E_CHARGE / (2.0 * csum);
        let expected = ec - E_CHARGE * 2e-18 * vg / csum;
        let dw = delta_w(&c, &s, NodeId::GROUND, island, 1);
        assert!(
            (dw - expected).abs() < 1e-6 * ec,
            "dw={dw}, expected={expected}"
        );
    }

    #[test]
    fn delta_w_is_discrete_gradient_of_free_energy() {
        // For island→island transfers, ΔW must equal F(after) − F(before)
        // exactly (leads additionally exchange work with their sources,
        // which ½q̃ᵀC⁻¹q̃ absorbs via the q̃ definition).
        let mut b = CircuitBuilder::new();
        let i1 = b.add_island_with_charge(0.3);
        let i2 = b.add_island();
        let lead = b.add_lead(2e-3);
        b.add_junction(lead, i1, 1e6, 1e-18).unwrap();
        b.add_junction(i1, i2, 1e6, 2e-18).unwrap();
        b.add_junction(i2, NodeId::GROUND, 1e6, 1e-18).unwrap();
        let c = b.build().unwrap();
        let mut s = CircuitState::new(&c);
        s.recompute_potentials(&c);

        let f0 = total_free_energy(&c, &s);
        let dw = delta_w(&c, &s, i1, i2, 1);
        s.apply_transfer(&c, i1, i2, 1);
        let f1 = total_free_energy(&c, &s);
        assert!(
            ((f1 - f0) - dw).abs() < 1e-9 * f0.abs().max(dw.abs()),
            "ΔF={}, ΔW={}",
            f1 - f0,
            dw
        );
    }

    #[test]
    fn forward_backward_antisymmetry() {
        // ΔW(fw from state) + ΔW(bw from successor state) = 0.
        let mut b = CircuitBuilder::new();
        let lead = b.add_lead(3e-3);
        let i1 = b.add_island();
        let i2 = b.add_island();
        b.add_junction(lead, i1, 1e6, 1e-18).unwrap();
        b.add_junction(i1, i2, 1e6, 1.5e-18).unwrap();
        b.add_junction(i2, NodeId::GROUND, 1e6, 1e-18).unwrap();
        let c = b.build().unwrap();
        let mut s = CircuitState::new(&c);
        s.recompute_potentials(&c);

        let fw = delta_w(&c, &s, i1, i2, 1);
        s.apply_transfer(&c, i1, i2, 1);
        s.recompute_potentials(&c);
        let bw = delta_w(&c, &s, i2, i1, 1);
        assert!((fw + bw).abs() < 1e-9 * fw.abs().max(1e-30), "{fw} {bw}");
    }

    #[test]
    fn cooper_pair_charging_is_quadrupled() {
        let (c, island) = seb(0.0);
        let mut s = CircuitState::new(&c);
        s.recompute_potentials(&c);
        let dw1 = delta_w(&c, &s, NodeId::GROUND, island, 1);
        let dw2 = delta_w(&c, &s, NodeId::GROUND, island, 2);
        // At zero gate bias φ = 0, so ΔW is the pure charging term:
        // k²·e²/2C_Σ → factor 4 between 2e and 1e.
        assert!((dw2 / dw1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn island_free_circuit_has_zero_free_energy() {
        // One lead→ground junction: no islands, so `C⁻¹` is 0×0.
        let mut b = CircuitBuilder::new();
        let lead = b.add_lead(1e-3);
        b.add_junction(lead, NodeId::GROUND, 1e6, 1e-18).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.num_islands(), 0);
        let s = CircuitState::new(&c);
        assert_eq!(total_free_energy(&c, &s), 0.0);
    }

    #[test]
    fn potential_delta_matches_full_recompute() {
        let mut b = CircuitBuilder::new();
        let lead = b.add_lead(1e-3);
        let i1 = b.add_island();
        let i2 = b.add_island();
        b.add_junction(lead, i1, 1e6, 1e-18).unwrap();
        b.add_junction(i1, i2, 1e6, 1e-18).unwrap();
        b.add_junction(i2, NodeId::GROUND, 1e6, 1e-18).unwrap();
        b.add_capacitor(i1, NodeId::GROUND, 5e-18).unwrap();
        let c = b.build().unwrap();
        let mut s = CircuitState::new(&c);
        s.recompute_potentials(&c);
        let before = s.island_potentials().to_vec();

        let deltas: Vec<f64> = (0..c.num_islands())
            .map(|k| potential_delta(&c, k, i1, i2, 1))
            .collect();
        s.apply_transfer(&c, i1, i2, 1);
        s.recompute_potentials(&c);
        for k in 0..c.num_islands() {
            let expected = s.island_potentials()[k] - before[k];
            assert!(
                (deltas[k] - expected).abs() < 1e-12 * expected.abs().max(1e-9),
                "island {k}: {} vs {expected}",
                deltas[k]
            );
        }
    }

    #[test]
    fn lead_step_delta_matches_full_recompute() {
        let (c, _island) = seb(0.0);
        let mut s = CircuitState::new(&c);
        s.recompute_potentials(&c);
        let before = s.island_potentials().to_vec();
        let dv = 7e-3;
        // Gate is lead index 1 (ground = 0).
        let predicted: Vec<f64> = (0..c.num_islands())
            .map(|k| lead_step_delta(&c, k, 1, dv))
            .collect();
        s.set_lead_voltage(1, dv);
        s.recompute_potentials(&c);
        for k in 0..c.num_islands() {
            let actual = s.island_potentials()[k] - before[k];
            assert!((predicted[k] - actual).abs() < 1e-15, "{k}");
        }
    }

    #[test]
    fn transfer_bookkeeping() {
        let (c, island) = seb(0.0);
        let mut s = CircuitState::new(&c);
        s.apply_transfer(&c, NodeId::GROUND, island, 1);
        assert_eq!(s.electrons(), &[1]);
        s.apply_transfer(&c, island, NodeId::GROUND, 2);
        assert_eq!(s.electrons(), &[-1]);
    }
}
