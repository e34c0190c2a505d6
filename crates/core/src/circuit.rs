//! Circuit topology and electrostatics precomputation.
//!
//! A single-electron circuit is a graph of *nodes* connected by tunnel
//! junctions and ordinary capacitors. Nodes are either **leads**
//! (fixed-potential terminals driven by voltage sources — the paper's
//! `vdc` entries) or **islands** (charge-quantized conductors). At build
//! time the island-block capacitance matrix `C` is assembled and inverted
//! once; the Monte Carlo solvers then only ever read `C⁻¹` (the paper's
//! Eq. 2) and the island–lead coupling block.

use semsim_linalg::{Matrix, SparsifiedMatrix};

use crate::constants::E_CHARGE;
use crate::CoreError;

/// Identifier of a circuit node (lead or island).
///
/// Node 0 is always the implicit ground lead created by
/// [`CircuitBuilder::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The implicit ground lead.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index of the node, unique across leads and islands.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a tunnel junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JunctionId(pub(crate) usize);

impl JunctionId {
    /// Raw index of the junction in declaration order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeKind {
    /// Fixed-potential terminal; payload is the lead index.
    Lead(usize),
    /// Charge-quantized conductor; payload is the island index.
    Island(usize),
}

/// A tunnel junction: thin insulating barrier electrons tunnel through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Junction {
    /// First terminal.
    pub node_a: NodeId,
    /// Second terminal.
    pub node_b: NodeId,
    /// Normal-state tunnel resistance (Ω).
    pub resistance: f64,
    /// Junction capacitance (F).
    pub capacitance: f64,
}

/// An ordinary (non-tunneling) capacitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    /// First terminal.
    pub node_a: NodeId,
    /// Second terminal.
    pub node_b: NodeId,
    /// Capacitance (F).
    pub capacitance: f64,
}

/// Flat structure-of-arrays junction buffers consumed by the adaptive
/// solver's batched kernels: one contiguous slice per per-junction
/// quantity, indexed by raw junction id. The kernels walk these slices
/// instead of chasing [`Junction`]/[`NodeId`] structs, and the charging
/// coefficients are precomputed with exactly the arithmetic
/// [`crate::energy::delta_w`] would evaluate — so a ΔW assembled from
/// these buffers is bit-identical to the scalar path.
#[derive(Debug, Clone, Default)]
pub(crate) struct JunctionSoA {
    /// Island index of `node_a` per junction; [`JunctionSoA::NONE`]
    /// when the terminal is a lead.
    pub a_island: Vec<u32>,
    /// Island index of `node_b` per junction; [`JunctionSoA::NONE`]
    /// when the terminal is a lead.
    pub b_island: Vec<u32>,
    /// Lead index of `node_a` per junction; [`JunctionSoA::NONE`] when
    /// the terminal is an island.
    pub a_lead: Vec<u32>,
    /// Lead index of `node_b` per junction; [`JunctionSoA::NONE`] when
    /// the terminal is an island.
    pub b_lead: Vec<u32>,
    /// Forward charging coefficient per junction:
    /// `C⁻¹_aa + C⁻¹_bb − 2·C⁻¹_ab` evaluated in exactly the operand
    /// order of [`crate::energy::delta_w`] with `from = node_a`.
    pub charging_fw: Vec<f64>,
    /// Backward charging coefficient per junction:
    /// `C⁻¹_bb + C⁻¹_aa − 2·C⁻¹_ba`. Kept separately from
    /// `charging_fw` because the LU-derived `C⁻¹` is only symmetric to
    /// rounding, and bit-identity demands the exact per-direction
    /// entries.
    pub charging_bw: Vec<f64>,
    /// Normal-state tunnel resistance (Ω) per junction.
    pub resistance: Vec<f64>,
}

impl JunctionSoA {
    /// Sentinel index meaning "terminal is not of this kind".
    pub const NONE: u32 = u32::MAX;
}

/// Builder for [`Circuit`].
///
/// # Example
///
/// ```
/// use semsim_core::circuit::{CircuitBuilder, NodeId};
///
/// # fn main() -> Result<(), semsim_core::CoreError> {
/// let mut b = CircuitBuilder::new();
/// let bias = b.add_lead(1e-3);
/// let island = b.add_island();
/// b.add_junction(bias, island, 1e6, 1e-18)?;
/// b.add_junction(island, NodeId::GROUND, 1e6, 1e-18)?;
/// let circuit = b.build()?;
/// assert_eq!(circuit.num_islands(), 1);
/// assert_eq!(circuit.num_leads(), 2); // ground + bias
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    nodes: Vec<NodeKind>,
    lead_bias: Vec<f64>,
    island_background: Vec<f64>,
    junctions: Vec<Junction>,
    capacitors: Vec<Capacitor>,
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBuilder {
    /// Creates a builder holding only the implicit ground lead (node 0).
    pub fn new() -> Self {
        CircuitBuilder {
            nodes: vec![NodeKind::Lead(0)],
            lead_bias: vec![0.0],
            island_background: Vec::new(),
            junctions: Vec::new(),
            capacitors: Vec::new(),
        }
    }

    /// Adds a lead (fixed-potential terminal) with initial bias `voltage`
    /// (V). The bias can be changed during simulation via stimuli.
    pub fn add_lead(&mut self, voltage: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeKind::Lead(self.lead_bias.len()));
        self.lead_bias.push(voltage);
        id
    }

    /// Adds an island with zero background charge.
    pub fn add_island(&mut self) -> NodeId {
        self.add_island_with_charge(0.0)
    }

    /// Adds an island with fractional background charge `q0` in units of
    /// the elementary charge (the paper's `Q_b/e`, e.g. `0.65` for the
    /// Fig. 5 experiment).
    pub fn add_island_with_charge(&mut self, q0_in_e: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes
            .push(NodeKind::Island(self.island_background.len()));
        self.island_background.push(q0_in_e * E_CHARGE);
        id
    }

    /// Adds a tunnel junction between `a` and `b` with normal-state
    /// resistance `resistance` (Ω) and capacitance `capacitance` (F).
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, self-loops, and non-positive or non-finite
    /// component values.
    pub fn add_junction(
        &mut self,
        a: NodeId,
        b: NodeId,
        resistance: f64,
        capacitance: f64,
    ) -> Result<JunctionId, CoreError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(CoreError::SelfLoop { node: a.0 });
        }
        if !(resistance > 0.0) || !resistance.is_finite() {
            return Err(CoreError::InvalidComponent {
                what: "junction resistance",
                value: resistance,
            });
        }
        if !(capacitance > 0.0) || !capacitance.is_finite() {
            return Err(CoreError::InvalidComponent {
                what: "junction capacitance",
                value: capacitance,
            });
        }
        let id = JunctionId(self.junctions.len());
        self.junctions.push(Junction {
            node_a: a,
            node_b: b,
            resistance,
            capacitance,
        });
        Ok(id)
    }

    /// Adds an ordinary capacitor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same validation as [`CircuitBuilder::add_junction`].
    pub fn add_capacitor(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacitance: f64,
    ) -> Result<(), CoreError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(CoreError::SelfLoop { node: a.0 });
        }
        if !(capacitance > 0.0) || !capacitance.is_finite() {
            return Err(CoreError::InvalidComponent {
                what: "capacitance",
                value: capacitance,
            });
        }
        self.capacitors.push(Capacitor {
            node_a: a,
            node_b: b,
            capacitance,
        });
        Ok(())
    }

    fn check_node(&self, n: NodeId) -> Result<(), CoreError> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownNode { node: n.0 })
        }
    }

    /// Finalizes the circuit: assembles and inverts the island
    /// capacitance matrix and precomputes adjacency used by the solvers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoJunctions`] for a junction-less circuit and
    /// [`CoreError::FloatingIsland`] if the capacitance matrix is
    /// singular.
    pub fn build(self) -> Result<Circuit, CoreError> {
        Circuit::from_parts(self)
    }
}

/// An immutable, analysis-ready single-electron circuit.
///
/// Constructed by [`CircuitBuilder::build`]; see the builder for an
/// example.
#[derive(Debug, Clone)]
pub struct Circuit {
    nodes: Vec<NodeKind>,
    lead_bias: Vec<f64>,
    lead_nodes: Vec<NodeId>,
    island_background: Vec<f64>,
    island_nodes: Vec<NodeId>,
    junctions: Vec<Junction>,
    capacitors: Vec<Capacitor>,
    /// Island-block capacitance matrix (islands × islands).
    cmatrix: Matrix,
    /// Its inverse — the paper's `C⁻¹`.
    cinv: Matrix,
    /// Row-sparsified view of `C⁻¹` (relative threshold 1e-8): in
    /// weakly coupled circuits each island feels only its own stage, so
    /// rows are short and the adaptive solver's exact potential
    /// refreshes cost O(stage) instead of O(islands).
    cinv_sparse: SparsifiedMatrix,
    /// Island–lead coupling block (islands × leads).
    cext: Matrix,
    /// `C⁻¹ · C_ext` — potential response of each island to a unit step
    /// on each lead.
    lead_response: Matrix,
    /// Junctions incident to each node.
    node_junctions: Vec<Vec<JunctionId>>,
    /// Sparsified dependency neighbourhood of each island: the
    /// junctions (ascending id order) whose ΔW changes by more than the
    /// sparsification threshold when that island's charge changes —
    /// i.e. junctions with a terminal island `k` such that
    /// `|C⁻¹[island,k]|` exceeds [`Circuit::COUPLING_EPS`] of the
    /// island's own diagonal. The adaptive solver walks these flat
    /// lists per event instead of scanning dense `C⁻¹` rows.
    island_dependents: Vec<Vec<JunctionId>>,
    /// Dependency neighbourhood of each lead: junctions touching the
    /// lead node plus junctions on islands whose potential responds to
    /// a step on that lead above the sparsification threshold.
    lead_dependents: Vec<Vec<JunctionId>>,
    /// Per-lead maximum `|lead_response|` over islands — the scale the
    /// lead sparsification threshold is relative to.
    lead_response_colmax: Vec<f64>,
    /// Transpose of `C⁻¹` (a bitwise copy of every entry). The
    /// per-event testing kernel gathers `C⁻¹[island, f]` for the two
    /// fixed source/destination columns `f` over many islands; in the
    /// row-major `cinv` those reads stride by a full row, in `cinv_t`
    /// the column is one contiguous cache-resident slice.
    cinv_t: Matrix,
    /// Transpose of `lead_response` — same contiguity argument, for
    /// input-voltage steps.
    lead_response_t: Matrix,
    /// Flat SoA junction buffers for the batched kernels.
    junction_soa: JunctionSoA,
}

impl Circuit {
    fn from_parts(b: CircuitBuilder) -> Result<Self, CoreError> {
        if b.junctions.is_empty() {
            return Err(CoreError::NoJunctions);
        }
        let n_nodes = b.nodes.len();
        let n_islands = b.island_background.len();
        let n_leads = b.lead_bias.len();

        let mut island_nodes = vec![NodeId(0); n_islands];
        let mut lead_nodes = vec![NodeId(0); n_leads];
        for (idx, kind) in b.nodes.iter().enumerate() {
            match *kind {
                NodeKind::Lead(l) => lead_nodes[l] = NodeId(idx),
                NodeKind::Island(i) => island_nodes[i] = NodeId(idx),
            }
        }

        // Assemble the island capacitance matrix and the island–lead
        // coupling block from every capacitive element (junctions have a
        // capacitance too).
        let mut cmatrix = Matrix::zeros(n_islands, n_islands);
        let mut cext = Matrix::zeros(n_islands, n_leads);
        let caps = b
            .junctions
            .iter()
            .map(|j| (j.node_a, j.node_b, j.capacitance))
            .chain(
                b.capacitors
                    .iter()
                    .map(|c| (c.node_a, c.node_b, c.capacitance)),
            );
        for (na, nb, c) in caps {
            let ka = b.nodes[na.0];
            let kb = b.nodes[nb.0];
            match (ka, kb) {
                (NodeKind::Island(i), NodeKind::Island(j)) => {
                    cmatrix.add_to(i, i, c);
                    cmatrix.add_to(j, j, c);
                    cmatrix.add_to(i, j, -c);
                    cmatrix.add_to(j, i, -c);
                }
                (NodeKind::Island(i), NodeKind::Lead(l)) => {
                    cmatrix.add_to(i, i, c);
                    cext.add_to(i, l, c);
                }
                (NodeKind::Lead(l), NodeKind::Island(i)) => {
                    cmatrix.add_to(i, i, c);
                    cext.add_to(i, l, c);
                }
                // A capacitor between two fixed-potential terminals does
                // not influence island dynamics.
                (NodeKind::Lead(_), NodeKind::Lead(_)) => {}
            }
        }

        let cinv = if n_islands > 0 {
            cmatrix.inverse().map_err(CoreError::FloatingIsland)?
        } else {
            Matrix::zeros(0, 0)
        };
        // The transpose is allocated while the LU factor that `inverse`
        // just freed is still one n×n block, so it reuses that block; built
        // after the sparse view's row vectors have split the block, it
        // grows glibc's heap by a whole matrix instead (+11 MiB peak RSS
        // at c432).
        let cinv_t = cinv.transposed();
        let cinv_sparse = SparsifiedMatrix::new(&cinv, 1e-8);
        let lead_response = if n_islands > 0 {
            cinv.mul(&cext).expect("shape fixed by construction")
        } else {
            Matrix::zeros(0, n_leads)
        };
        let lead_response_t = lead_response.transposed();

        // Node-level incidence.
        let mut node_junctions: Vec<Vec<JunctionId>> = vec![Vec::new(); n_nodes];
        for (idx, j) in b.junctions.iter().enumerate() {
            node_junctions[j.node_a.0].push(JunctionId(idx));
            node_junctions[j.node_b.0].push(JunctionId(idx));
        }

        let mut circuit = Circuit {
            nodes: b.nodes,
            lead_bias: b.lead_bias,
            lead_nodes,
            island_background: b.island_background,
            island_nodes,
            junctions: b.junctions,
            capacitors: b.capacitors,
            cmatrix,
            cinv,
            cinv_sparse,
            cext,
            lead_response,
            node_junctions,
            island_dependents: Vec::new(),
            lead_dependents: Vec::new(),
            lead_response_colmax: Vec::new(),
            cinv_t,
            lead_response_t,
            junction_soa: JunctionSoA::default(),
        };
        circuit.junction_soa = {
            let idx32 = |o: Option<usize>| o.map_or(JunctionSoA::NONE, |i| i as u32);
            let mut soa = JunctionSoA::default();
            for j in &circuit.junctions {
                let (a, b) = (j.node_a, j.node_b);
                soa.a_island.push(idx32(circuit.island_index(a)));
                soa.b_island.push(idx32(circuit.island_index(b)));
                soa.a_lead.push(idx32(circuit.lead_index(a)));
                soa.b_lead.push(idx32(circuit.lead_index(b)));
                // Operand order matches `delta_w`'s charging expression
                // for each direction — bit-identity depends on it.
                soa.charging_fw.push(
                    circuit.cinv_between(a, a) + circuit.cinv_between(b, b)
                        - 2.0 * circuit.cinv_between(a, b),
                );
                soa.charging_bw.push(
                    circuit.cinv_between(b, b) + circuit.cinv_between(a, a)
                        - 2.0 * circuit.cinv_between(b, a),
                );
                soa.resistance.push(j.resistance);
            }
            soa
        };

        // Sparsified dependency neighbourhoods, precomputed from the
        // same membership predicates the dense-reference solver mode
        // evaluates per event — the two paths are identical sets in
        // identical (ascending) order by construction, which is what
        // makes the optimized solver bit-identical to the reference.
        circuit.lead_response_colmax = (0..n_leads)
            .map(|l| {
                (0..n_islands).fold(0.0f64, |m, k| m.max(circuit.lead_response.get(k, l).abs()))
            })
            .collect();
        circuit.island_dependents = (0..n_islands)
            .map(|i| {
                circuit
                    .junction_ids()
                    .filter(|&j| circuit.junction_depends_on_island(i, j))
                    .collect()
            })
            .collect();
        circuit.lead_dependents = (0..n_leads)
            .map(|l| {
                circuit
                    .junction_ids()
                    .filter(|&j| circuit.junction_depends_on_lead(l, j))
                    .collect()
            })
            .collect();

        Ok(circuit)
    }

    /// Number of nodes (leads + islands), including ground.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of islands.
    pub fn num_islands(&self) -> usize {
        self.island_background.len()
    }

    /// Number of leads, including ground.
    pub fn num_leads(&self) -> usize {
        self.lead_bias.len()
    }

    /// Number of tunnel junctions.
    pub fn num_junctions(&self) -> usize {
        self.junctions.len()
    }

    /// Is `node` an island?
    pub fn is_island(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.0], NodeKind::Island(_))
    }

    /// Island index of `node`, if it is an island.
    pub fn island_index(&self, node: NodeId) -> Option<usize> {
        match self.nodes[node.0] {
            NodeKind::Island(i) => Some(i),
            NodeKind::Lead(_) => None,
        }
    }

    /// Lead index of `node`, if it is a lead.
    pub fn lead_index(&self, node: NodeId) -> Option<usize> {
        match self.nodes[node.0] {
            NodeKind::Lead(l) => Some(l),
            NodeKind::Island(_) => None,
        }
    }

    /// Node of island `island`.
    ///
    /// # Panics
    ///
    /// Panics if `island ≥ num_islands()`.
    pub fn island_node(&self, island: usize) -> NodeId {
        self.island_nodes[island]
    }

    /// Node of lead `lead`.
    ///
    /// # Panics
    ///
    /// Panics if `lead ≥ num_leads()`.
    pub fn lead_node(&self, lead: usize) -> NodeId {
        self.lead_nodes[lead]
    }

    /// Initial bias voltages of all leads (V), in lead order.
    pub fn initial_lead_voltages(&self) -> &[f64] {
        &self.lead_bias
    }

    /// Background charges of all islands (C), in island order.
    pub fn island_background_charges(&self) -> &[f64] {
        &self.island_background
    }

    /// The junctions in declaration order.
    pub fn junctions(&self) -> &[Junction] {
        &self.junctions
    }

    /// One junction.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from this circuit's builder
    /// are always valid).
    pub fn junction(&self, id: JunctionId) -> &Junction {
        &self.junctions[id.0]
    }

    /// The ordinary capacitors in declaration order.
    pub fn capacitors(&self) -> &[Capacitor] {
        &self.capacitors
    }

    /// The island capacitance matrix `C`.
    pub fn capacitance_matrix(&self) -> &Matrix {
        &self.cmatrix
    }

    /// The inverse island capacitance matrix `C⁻¹` (paper Eq. 2).
    pub fn inverse_capacitance(&self) -> &Matrix {
        &self.cinv
    }

    /// Row-sparsified view of `C⁻¹` (entries below 1e-8 of the row
    /// diagonal dropped) — the locality structure the adaptive solver
    /// exploits for exact single-island potential refreshes.
    pub fn sparse_inverse_capacitance(&self) -> &SparsifiedMatrix {
        &self.cinv_sparse
    }

    /// The island–lead coupling block `C_ext`.
    pub fn lead_coupling(&self) -> &Matrix {
        &self.cext
    }

    /// `C⁻¹·C_ext`: island-potential response to a unit lead step.
    pub fn lead_response(&self) -> &Matrix {
        &self.lead_response
    }

    /// Transpose of `C⁻¹` — bitwise-equal entries, column-contiguous
    /// layout for the testing kernel's per-event gathers.
    pub fn transposed_inverse_capacitance(&self) -> &Matrix {
        &self.cinv_t
    }

    /// Transpose of `C⁻¹·C_ext` — bitwise-equal entries, per-lead rows
    /// contiguous.
    pub fn transposed_lead_response(&self) -> &Matrix {
        &self.lead_response_t
    }

    /// Flat SoA junction buffers consumed by the batched kernels.
    pub(crate) fn junction_soa(&self) -> &JunctionSoA {
        &self.junction_soa
    }

    /// Entry of `C⁻¹` between two *nodes* — zero if either is a lead.
    #[inline]
    pub fn cinv_between(&self, a: NodeId, b: NodeId) -> f64 {
        match (self.island_index(a), self.island_index(b)) {
            (Some(i), Some(j)) => self.cinv.get(i, j),
            _ => 0.0,
        }
    }

    /// Total capacitance seen by the island at `node` (the `C_Σ` of a
    /// single-island device), or `None` for a lead.
    pub fn total_capacitance(&self, node: NodeId) -> Option<f64> {
        self.island_index(node).map(|i| self.cmatrix.get(i, i))
    }

    /// Junctions incident to `node`.
    pub fn junctions_at(&self, node: NodeId) -> &[JunctionId] {
        &self.node_junctions[node.0]
    }

    /// Relative threshold below which a `C⁻¹` (or lead-response)
    /// coupling is treated as zero when building dependency
    /// neighbourhoods. Matches the sparsification threshold of
    /// [`Circuit::sparse_inverse_capacitance`], so a junction outside a
    /// neighbourhood sees exactly the potential change the sparsified
    /// exact refresh would give it: none.
    pub const COUPLING_EPS: f64 = 1e-8;

    /// Does junction `j`'s free energy depend (above
    /// [`Circuit::COUPLING_EPS`]) on the charge of island `island`?
    ///
    /// True iff a terminal of `j` is an island `k` with
    /// `|C⁻¹[island,k]| ≥ COUPLING_EPS·|C⁻¹[island,island]|`. The
    /// diagonal always qualifies, so junctions incident to the island
    /// itself are always dependents.
    #[inline]
    pub fn junction_depends_on_island(&self, island: usize, j: JunctionId) -> bool {
        let tol = Self::COUPLING_EPS * self.cinv.get(island, island).abs();
        let junction = &self.junctions[j.0];
        [junction.node_a, junction.node_b]
            .into_iter()
            .filter_map(|n| self.island_index(n))
            .any(|k| self.cinv.get(island, k).abs() >= tol)
    }

    /// Does junction `j`'s free energy depend (above
    /// [`Circuit::COUPLING_EPS`]) on the bias voltage of `lead`?
    ///
    /// True iff `j` touches the lead node itself (the lead potential
    /// enters ΔW directly) or has an island terminal whose
    /// lead-response coefficient for `lead` is at least `COUPLING_EPS`
    /// of the largest response any island has to that lead. A lead no
    /// island responds to keeps only its directly attached junctions.
    #[inline]
    pub fn junction_depends_on_lead(&self, lead: usize, j: JunctionId) -> bool {
        let junction = &self.junctions[j.0];
        let lead_node = self.lead_nodes[lead];
        if junction.node_a == lead_node || junction.node_b == lead_node {
            return true;
        }
        let tol = Self::COUPLING_EPS * self.lead_response_colmax[lead];
        tol > 0.0
            && [junction.node_a, junction.node_b]
                .into_iter()
                .filter_map(|n| self.island_index(n))
                .any(|k| self.lead_response.get(k, lead).abs() >= tol)
    }

    /// Precomputed dependency neighbourhood of `island`: junctions
    /// satisfying [`Circuit::junction_depends_on_island`], ascending.
    pub fn island_dependents(&self, island: usize) -> &[JunctionId] {
        &self.island_dependents[island]
    }

    /// Precomputed dependency neighbourhood of `lead`: junctions
    /// satisfying [`Circuit::junction_depends_on_lead`], ascending.
    pub fn lead_dependents(&self, lead: usize) -> &[JunctionId] {
        &self.lead_dependents[lead]
    }

    /// Iterator over all junction ids.
    pub fn junction_ids(&self) -> impl ExactSizeIterator<Item = JunctionId> {
        (0..self.junctions.len()).map(JunctionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 1b device: R₁=R₂=1 MΩ, C₁=C₂=1 aF, C_g=3 aF.
    fn paper_set() -> (Circuit, NodeId, JunctionId, JunctionId) {
        let mut b = CircuitBuilder::new();
        let src = b.add_lead(0.0);
        let drn = b.add_lead(0.0);
        let gate = b.add_lead(0.0);
        let island = b.add_island();
        let j1 = b.add_junction(src, island, 1e6, 1e-18).unwrap();
        let j2 = b.add_junction(island, drn, 1e6, 1e-18).unwrap();
        b.add_capacitor(gate, island, 3e-18).unwrap();
        (b.build().unwrap(), island, j1, j2)
    }

    #[test]
    fn set_total_capacitance_is_5af() {
        let (c, island, _, _) = paper_set();
        let ct = c.total_capacitance(island).unwrap();
        assert!((ct - 5e-18).abs() < 1e-30);
    }

    #[test]
    fn set_cinv_is_reciprocal_of_ctotal() {
        let (c, island, _, _) = paper_set();
        let i = c.island_index(island).unwrap();
        assert!((c.inverse_capacitance().get(i, i) - 1.0 / 5e-18).abs() < 1e8);
    }

    #[test]
    fn lead_response_rows_sum_to_less_than_one() {
        // An island fully surrounded by leads: the response to all leads
        // stepping together by 1 V is exactly 1 V.
        let (c, island, _, _) = paper_set();
        let i = c.island_index(island).unwrap();
        let total: f64 = (0..c.num_leads())
            .map(|l| c.lead_response().get(i, l))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ground_is_node_zero() {
        let mut b = CircuitBuilder::new();
        let isl = b.add_island();
        b.add_junction(NodeId::GROUND, isl, 1e5, 1e-18).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.lead_node(0), NodeId::GROUND);
        assert!(!c.is_island(NodeId::GROUND));
        assert!(c.is_island(isl));
    }

    #[test]
    fn rejects_no_junctions() {
        let mut b = CircuitBuilder::new();
        b.add_island();
        assert!(matches!(b.build(), Err(CoreError::NoJunctions)));
    }

    #[test]
    fn rejects_floating_island() {
        // An island connected to nothing capacitively except through a
        // second floating island loop is singular; simplest case: island
        // with a junction whose capacitance is the only one — actually
        // that is well-posed. A truly floating island needs no elements,
        // which build() can only see as a zero diagonal.
        let mut b = CircuitBuilder::new();
        let i1 = b.add_island();
        let i2 = b.add_island();
        let _unused = i2;
        // i2 has no capacitance at all → zero row.
        b.add_junction(NodeId::GROUND, i1, 1e6, 1e-18).unwrap();
        assert!(matches!(b.build(), Err(CoreError::FloatingIsland(_))));
    }

    #[test]
    fn rejects_bad_components() {
        let mut b = CircuitBuilder::new();
        let i = b.add_island();
        assert!(b.add_junction(NodeId::GROUND, i, -1.0, 1e-18).is_err());
        assert!(b.add_junction(NodeId::GROUND, i, 1e6, 0.0).is_err());
        assert!(b.add_junction(NodeId::GROUND, i, f64::NAN, 1e-18).is_err());
        assert!(b.add_junction(i, i, 1e6, 1e-18).is_err());
        assert!(b.add_capacitor(i, i, 1e-18).is_err());
        assert!(b.add_capacitor(NodeId::GROUND, i, f64::INFINITY).is_err());
        assert!(b.add_junction(NodeId(99), i, 1e6, 1e-18).is_err());
    }

    #[test]
    fn island_dependents_cover_incident_and_coupled_junctions() {
        // Two islands coupled by a sizeable capacitor: each island's
        // neighbourhood must include the other island's junctions, in
        // ascending id order, and agree with the per-event predicate.
        let mut b = CircuitBuilder::new();
        let i1 = b.add_island();
        let i2 = b.add_island();
        let ja = b.add_junction(NodeId::GROUND, i1, 1e6, 1e-18).unwrap();
        let jb = b.add_junction(NodeId::GROUND, i2, 1e6, 1e-18).unwrap();
        b.add_capacitor(i1, i2, 1e-17).unwrap();
        let c = b.build().unwrap();
        for island in 0..c.num_islands() {
            let deps = c.island_dependents(island);
            assert!(deps.contains(&ja) && deps.contains(&jb));
            assert!(deps.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
            let from_predicate: Vec<JunctionId> = c
                .junction_ids()
                .filter(|&j| c.junction_depends_on_island(island, j))
                .collect();
            assert_eq!(deps, from_predicate.as_slice());
        }
    }

    #[test]
    fn island_dependents_exclude_decoupled_stages() {
        // Two SET stages that talk only through ground (a lead): their
        // C⁻¹ cross-coupling is exactly zero, so neither stage's island
        // lists the other stage's junction.
        let mut b = CircuitBuilder::new();
        let i1 = b.add_island();
        let i2 = b.add_island();
        let ja = b.add_junction(NodeId::GROUND, i1, 1e6, 1e-18).unwrap();
        let jb = b.add_junction(NodeId::GROUND, i2, 1e6, 1e-18).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.island_dependents(0), &[ja]);
        assert_eq!(c.island_dependents(1), &[jb]);
    }

    #[test]
    fn lead_dependents_cover_direct_and_responsive_junctions() {
        let (c, _, j1, j2) = paper_set();
        // Gate lead (index 3): couples to the island, whose junctions
        // both respond.
        let gate_deps = c.lead_dependents(3);
        assert!(gate_deps.contains(&j1) && gate_deps.contains(&j2));
        // Source lead (index 1): j1 touches it directly; j2 sits on the
        // island, which responds to the source step.
        let src_deps = c.lead_dependents(1);
        assert!(src_deps.contains(&j1) && src_deps.contains(&j2));
        for lead in 0..c.num_leads() {
            let from_predicate: Vec<JunctionId> = c
                .junction_ids()
                .filter(|&j| c.junction_depends_on_lead(lead, j))
                .collect();
            assert_eq!(c.lead_dependents(lead), from_predicate.as_slice());
        }
    }

    #[test]
    fn unresponsive_lead_keeps_only_direct_junctions() {
        // A lead that couples to no island at all (only a lead–lead
        // capacitor) has zero response column; its dependents must be
        // exactly the junctions touching it — here, none.
        let mut b = CircuitBuilder::new();
        let stub = b.add_lead(0.0);
        let isl = b.add_island();
        b.add_junction(NodeId::GROUND, isl, 1e6, 1e-18).unwrap();
        b.add_capacitor(stub, NodeId::GROUND, 1e-18).unwrap();
        let c = b.build().unwrap();
        let stub_idx = c.lead_index(stub).unwrap();
        assert!(c.lead_dependents(stub_idx).is_empty());
    }

    #[test]
    fn two_island_coupling_symmetric() {
        let mut b = CircuitBuilder::new();
        let i1 = b.add_island();
        let i2 = b.add_island();
        b.add_junction(NodeId::GROUND, i1, 1e6, 1e-18).unwrap();
        b.add_junction(i1, i2, 1e6, 2e-18).unwrap();
        b.add_junction(i2, NodeId::GROUND, 1e6, 1e-18).unwrap();
        let c = b.build().unwrap();
        assert!(c.capacitance_matrix().is_symmetric(1e-30));
        // C⁻¹ entries are O(1e17); allow machine-level asymmetry.
        let scale = c.cinv_between(i1, i1).abs();
        assert!(c.inverse_capacitance().is_symmetric(1e-9 * scale));
        assert_eq!(c.capacitance_matrix().get(0, 1), -2e-18);
        assert!((c.cinv_between(i1, i2) - c.cinv_between(i2, i1)).abs() < 1e-9 * scale);
        assert_eq!(c.cinv_between(NodeId::GROUND, i1), 0.0);
    }
}
