//! Circuit topology and electrostatics precomputation.
//!
//! A single-electron circuit is a graph of *nodes* connected by tunnel
//! junctions and ordinary capacitors. Nodes are either **leads**
//! (fixed-potential terminals driven by voltage sources — the paper's
//! `vdc` entries) or **islands** (charge-quantized conductors). At build
//! time the island-block capacitance matrix `C` is assembled sparse,
//! factored once as `L·D·Lᵀ` in minimum-degree order, and inverted column
//! by column into one truncated sparse store; the Monte Carlo solvers
//! then only ever read that `C⁻¹` (the paper's Eq. 2) and the
//! island–lead coupling block. No `islands × islands` block is formed.

use semsim_linalg::{Matrix, SparseColumn, SparseColumns, SymmetricMatrix};

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

/// Flat structure-of-arrays junction buffers: one contiguous slice per
/// per-junction quantity, indexed by raw junction id. The adaptive
/// solver's testing kernel walks the terminal index lanes instead of
/// chasing [`Junction`]/[`NodeId`] structs, and every rate evaluation
/// (`SolverContext::junction_rates`) reads the charging coefficients,
/// precomputed with exactly the arithmetic [`crate::energy::delta_w`]
/// would evaluate — so its ΔW is bit-identical to `delta_w`'s.
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
    /// `charging_fw` because each stored `C⁻¹` column is its own solve,
    /// symmetric to the other orientation only to rounding, and
    /// bit-identity demands the exact per-direction entries.
    pub charging_bw: Vec<f64>,
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

    /// Finalizes the circuit: assembles, factors and inverts the island
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
    /// Diagonal of the island capacitance matrix `C`: each island's
    /// total capacitance. `C` itself is not kept.
    island_capacitance: Vec<f64>,
    /// The paper's `C⁻¹`, truncated and stored sparse by column
    /// ([`semsim_linalg::LdlFactor::truncated_inverse`] at
    /// [`Circuit::COUPLING_EPS`]). Each column is its own solve, so the
    /// store is symmetric only to rounding, and this is the one
    /// orientation every reader uses: entry `(r, c)` is entry `r` of
    /// stored column `c` ([`Circuit::cinv`]), zero when dropped.
    cinv: SparseColumns,
    /// The diagonal of the stored `C⁻¹`, dense: the entry every
    /// single-island charging term reads, in one load instead of a
    /// search of its column.
    cinv_diagonal: Vec<f64>,
    /// Island–lead coupling block (islands × leads).
    cext: Matrix,
    /// `C⁻¹ · C_ext` by lead: row `l` is the potential response of every
    /// island to a unit step on lead `l`.
    lead_response: Matrix,
    /// Junctions incident to each node.
    node_junctions: Vec<Vec<JunctionId>>,
    /// Sparsified dependency neighbourhood of each island: the
    /// junctions (ascending id order) whose ΔW changes by more than the
    /// sparsification threshold when that island's charge changes —
    /// i.e. junctions with a terminal island `k` such that
    /// `|C⁻¹[island,k]|` exceeds [`Circuit::COUPLING_EPS`] of the
    /// island's own diagonal. The adaptive solver walks these flat
    /// lists per event instead of scanning `C⁻¹` per junction.
    island_dependents: Vec<Vec<JunctionId>>,
    /// Dependency neighbourhood of each lead: junctions touching the
    /// lead node plus junctions on islands whose potential responds to
    /// a step on that lead above the sparsification threshold.
    lead_dependents: Vec<Vec<JunctionId>>,
    /// Per-lead maximum `|lead_response|` over islands — the scale the
    /// lead sparsification threshold is relative to.
    lead_response_colmax: Vec<f64>,
    /// Flat SoA junction buffers for the kernels and rate evaluation.
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

        let (cmatrix, cext) = assemble(&b.nodes, &b.junctions, &b.capacitors);
        let island_capacitance = cmatrix.diagonal().to_vec();
        let factor = cmatrix.ldl().map_err(CoreError::FloatingIsland)?;
        drop(cmatrix);
        let cinv = factor.truncated_inverse(Self::COUPLING_EPS);
        drop(factor);
        let cinv_diagonal = (0..n_islands).map(|i| cinv.get(i, i)).collect();
        let lead_response = lead_response(&cinv, &cext);

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
            island_capacitance,
            cinv,
            cinv_diagonal,
            cext,
            lead_response,
            node_junctions,
            island_dependents: Vec::new(),
            lead_dependents: Vec::new(),
            lead_response_colmax: Vec::new(),
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
            }
            soa
        };

        circuit.lead_response_colmax = (0..n_leads)
            .map(|l| semsim_linalg::norm_inf(circuit.lead_response(l)))
            .collect();
        // Sparsified dependency neighbourhoods: the sets the membership
        // predicates the dense-reference solver mode evaluates per event
        // accept, in ascending order, which is what makes the optimized
        // solver bit-identical to the reference. `near[i]` lists the
        // islands `k` with `|C⁻¹[i][k]| ≥ ε·|C⁻¹[i][i]|`, found over the
        // stored columns (a dropped entry is below `ε` of both its
        // diagonals, so it fails this test too); island `i`'s dependents
        // are the junctions at those islands, each list allocated at its
        // final length.
        let tol: Vec<f64> = (0..n_islands)
            .map(|i| Self::COUPLING_EPS * circuit.cinv(i, i).abs())
            .collect();
        let mut near = vec![Vec::new(); n_islands];
        for k in 0..n_islands {
            for (i, x) in circuit.cinv_column(k).iter() {
                if x.abs() >= tol[i] {
                    near[i].push(k);
                }
            }
        }
        let mut dependents = Vec::new();
        circuit.island_dependents = near
            .into_iter()
            .map(|ks| {
                dependents.clear();
                for k in ks {
                    dependents.extend_from_slice(circuit.junctions_at(circuit.island_nodes[k]));
                }
                dependents.sort_unstable();
                dependents.dedup();
                dependents.to_vec()
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

    /// The island capacitance matrix `C`, sparse, assembled on demand
    /// from the element lists with the build's own assembly; the circuit
    /// does not keep it.
    pub fn capacitance_matrix(&self) -> SymmetricMatrix {
        assemble(&self.nodes, &self.junctions, &self.capacitors).0
    }

    /// Entry `(r, c)` of the inverse island capacitance matrix `C⁻¹`
    /// (paper Eq. 2): entry `r` of [`Circuit::cinv_column`]`(c)`, and
    /// `0.0` for an entry the truncation dropped.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not an island index.
    #[inline]
    pub fn cinv(&self, r: usize, c: usize) -> f64 {
        if r == c {
            self.cinv_diagonal[c]
        } else {
            self.cinv_off_diagonal(r, c)
        }
    }

    /// An off-diagonal entry of the stored `C⁻¹`: a search of column
    /// `c`, kept out of line so that the diagonal reads inline cheaply.
    #[inline(never)]
    fn cinv_off_diagonal(&self, r: usize, c: usize) -> f64 {
        self.cinv.get(r, c)
    }

    /// Column `c` of the truncated `C⁻¹`: its kept rows, ascending, and
    /// their values. Entry `r` is `C⁻¹[r][c]`, the potential change of
    /// island `r` per coulomb added to island `c`. Every kept entry is
    /// nonzero, and the diagonal is always kept.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not an island index.
    #[inline]
    pub fn cinv_column(&self, c: usize) -> SparseColumn<'_> {
        self.cinv.column(c)
    }

    /// The whole truncated `C⁻¹` store.
    pub(crate) fn cinv_store(&self) -> &SparseColumns {
        &self.cinv
    }

    /// The island–lead coupling block `C_ext`.
    pub fn lead_coupling(&self) -> &Matrix {
        &self.cext
    }

    /// Column `lead` of `C⁻¹·C_ext`, contiguous: entry `k` is island
    /// `k`'s potential response to a unit step on `lead`.
    ///
    /// # Panics
    ///
    /// Panics if `lead ≥ num_leads()`.
    #[inline]
    pub fn lead_response(&self, lead: usize) -> &[f64] {
        self.lead_response.row(lead)
    }

    /// Flat SoA junction buffers read by the kernels and rate
    /// evaluation.
    pub(crate) fn junction_soa(&self) -> &JunctionSoA {
        &self.junction_soa
    }

    /// Entry of `C⁻¹` between two *nodes* — zero if either is a lead.
    #[inline]
    pub fn cinv_between(&self, a: NodeId, b: NodeId) -> f64 {
        match (self.island_index(a), self.island_index(b)) {
            (Some(i), Some(j)) => self.cinv(i, j),
            _ => 0.0,
        }
    }

    /// Total capacitance seen by the island at `node` (the `C_Σ` of a
    /// single-island device), or `None` for a lead.
    pub fn total_capacitance(&self, node: NodeId) -> Option<f64> {
        self.island_index(node).map(|i| self.island_capacitance[i])
    }

    /// Junctions incident to `node`.
    pub fn junctions_at(&self, node: NodeId) -> &[JunctionId] {
        &self.node_junctions[node.0]
    }

    /// Relative threshold below which a `C⁻¹` (or lead-response)
    /// coupling is treated as zero. The stored `C⁻¹` keeps entry
    /// `(i, k)` only when `|C⁻¹[i][k]| ≥ COUPLING_EPS·min(C⁻¹[i][i],
    /// C⁻¹[k][k])`, so an event moves island `i`'s potential by at most
    /// `2·|count|·COUPLING_EPS·e·C⁻¹[i][i]` less than the full inverse
    /// would (docs/performance.md states the bounds). The adaptive
    /// solver does not test a junction whose `ΔW` an event moves by less
    /// than this; a skipped junction's rates catch up at the next full
    /// refresh.
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
        let tol = Self::COUPLING_EPS * self.cinv(island, island).abs();
        let junction = &self.junctions[j.0];
        [junction.node_a, junction.node_b]
            .into_iter()
            .filter_map(|n| self.island_index(n))
            .any(|k| self.cinv(island, k).abs() >= tol)
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
                .any(|k| self.lead_response(lead)[k].abs() >= tol)
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

/// Assembles the island capacitance matrix `C` (islands × islands,
/// sparse) and the island–lead coupling block `C_ext` (islands × leads)
/// from every capacitive element, junctions first, in declaration
/// order. Each entry of `C` sums its elements from `0.0` in that order.
fn assemble(
    nodes: &[NodeKind],
    junctions: &[Junction],
    capacitors: &[Capacitor],
) -> (SymmetricMatrix, Matrix) {
    let n_leads = nodes
        .iter()
        .filter(|k| matches!(k, NodeKind::Lead(_)))
        .count();
    let n_islands = nodes.len() - n_leads;
    let mut diagonal = vec![0.0; n_islands];
    let mut coupling = Vec::new();
    let mut cext = Matrix::zeros(n_islands, n_leads);
    let caps = junctions
        .iter()
        .map(|j| (j.node_a, j.node_b, j.capacitance))
        .chain(
            capacitors
                .iter()
                .map(|c| (c.node_a, c.node_b, c.capacitance)),
        );
    for (na, nb, c) in caps {
        match (nodes[na.0], nodes[nb.0]) {
            (NodeKind::Island(i), NodeKind::Island(j)) => {
                diagonal[i] += c;
                diagonal[j] += c;
                coupling.push((i, j, -c));
            }
            (NodeKind::Island(i), NodeKind::Lead(l)) | (NodeKind::Lead(l), NodeKind::Island(i)) => {
                diagonal[i] += c;
                cext.add_to(i, l, c);
            }
            // A capacitor between two fixed-potential terminals does
            // not influence island dynamics.
            (NodeKind::Lead(_), NodeKind::Lead(_)) => {}
        }
    }
    (SymmetricMatrix::from_entries(diagonal, &coupling), cext)
}

/// `C⁻¹·C_ext` by lead, from the truncated `C⁻¹`: row `l` of the result
/// is column `l` of the product. Each entry sums `C⁻¹[i][k]·C_ext[k][l]`
/// from `+0` over the stored columns `k` in ascending order, skipping
/// the columns whose `C_ext` entry is zero.
fn lead_response(cinv: &SparseColumns, cext: &Matrix) -> Matrix {
    let (n_islands, n_leads) = (cext.rows(), cext.cols());
    let mut response = Matrix::zeros(n_leads, n_islands);
    for l in 0..n_leads {
        for k in 0..n_islands {
            let b = cext.get(k, l);
            if b == 0.0 {
                continue;
            }
            for (i, a) in cinv.column(k).iter() {
                response.add_to(l, i, a * b);
            }
        }
    }
    response
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
        assert!((c.cinv(i, i) - 1.0 / 5e-18).abs() < 1e8);
    }

    #[test]
    fn lead_response_rows_sum_to_less_than_one() {
        // An island fully surrounded by leads: the response to all leads
        // stepping together by 1 V is exactly 1 V.
        let (c, island, _, _) = paper_set();
        let i = c.island_index(island).unwrap();
        let total: f64 = (0..c.num_leads()).map(|l| c.lead_response(l)[i]).sum();
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
        // C⁻¹ entries are O(1e17); allow machine-level asymmetry.
        let scale = c.cinv_between(i1, i1).abs();
        assert_eq!(c.capacitance_matrix().off_diagonal(0).get(1), -2e-18);
        assert!((c.cinv_between(i1, i2) - c.cinv_between(i2, i1)).abs() < 1e-9 * scale);
        assert_eq!(c.cinv_between(NodeId::GROUND, i1), 0.0);
    }
}
