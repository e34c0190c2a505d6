//! The typed dataflow IR shared by every static check.
//!
//! Both front-ends lower into these models: the netlist compiler
//! populates a [`CircuitModel`] from `junc`/`cap`/`vdc`/… directives
//! and a [`LogicModel`] from gate statements; the core circuit builder
//! populates a [`CircuitModel`] directly. The models record *def/use
//! chains*, not syntax: sources with their held voltages, the swept
//! parameter, scheduled stimuli, probes, and the measured observables —
//! everything the influence-reachability analysis (`reach`) needs to
//! decide what the simulation will actually compute.

use semsim_linalg::SymmetricMatrix;

use crate::Span;

/// A node handle in a [`CircuitModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelNode(pub(crate) usize);

impl ModelNode {
    /// The implicit ground node.
    pub const GROUND: ModelNode = ModelNode(usize::MAX);

    pub(crate) fn is_ground(self) -> bool {
        self == ModelNode::GROUND
    }
}

/// An edge handle in a [`CircuitModel`] (a junction or capacitor),
/// returned by the `add_junction*`/`add_capacitor*` methods so callers
/// can mark measured junctions as observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelEdge(pub(crate) usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    Lead,
    Island,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeInfo {
    pub(crate) kind: NodeKind,
    pub(crate) label: Option<String>,
    pub(crate) span: Span,
    /// Held DC voltage (leads only; def site of the source value).
    pub(crate) voltage: Option<f64>,
    /// Line of the `vdc` (or equivalent) declaration defining the
    /// voltage — distinct from `span`, which is the first *use*.
    pub(crate) voltage_span: Span,
}

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub(crate) a: ModelNode,
    pub(crate) b: ModelNode,
    pub(crate) capacitance: f64,
    /// Tunnel junctions carry charge; plain capacitors do not.
    pub(crate) tunnel: bool,
    pub(crate) span: Span,
}

/// The swept parameter: which source is driven, over what grid, and the
/// optional `symm` partner held at minus the swept value.
#[derive(Debug, Clone, Copy)]
pub struct SweepInfo {
    /// The driven source node.
    pub node: ModelNode,
    /// Partner source held at minus the swept voltage, if any.
    pub symm: Option<ModelNode>,
    /// First grid voltage (the source's DC value).
    pub start: f64,
    /// Final grid voltage.
    pub end: f64,
    /// Grid step.
    pub step: f64,
    /// Declaration site of the sweep.
    pub span: Span,
}

/// A scheduled voltage step on a source (`jump` directive).
#[derive(Debug, Clone, Copy)]
pub struct StimulusInfo {
    /// The stepped source node.
    pub node: ModelNode,
    /// Simulated time of the step (s).
    pub time: f64,
    /// New voltage (V).
    pub voltage: f64,
    /// Declaration site.
    pub span: Span,
}

/// A voltage probe (`probe` directive): an observable.
#[derive(Debug, Clone, Copy)]
pub struct ProbeInfo {
    /// The observed node.
    pub node: ModelNode,
    /// Sampling period in events.
    pub every: u64,
    /// Declaration site.
    pub span: Span,
}

/// The adaptive-solver request (`adaptive` directive).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveInfo {
    /// Relative recompute threshold θ.
    pub threshold: f64,
    /// Forced full-refresh interval in events.
    pub refresh_interval: u64,
    /// Declaration site.
    pub span: Span,
}

/// An abstract circuit: leads, islands, capacitive/tunnel edges, and
/// the dataflow facts — source values, the swept parameter, stimuli,
/// probes, and measured observables.
///
/// This is the input to [`crate::check_circuit`]. It deliberately knows
/// nothing about netlist syntax or the simulation engine, so both the
/// netlist compiler and the core circuit builder can populate it. The
/// dataflow registrations are optional: a model with only topology gets
/// the electrical checks, a model with sweep/observable facts also gets
/// the influence-reachability diagnostics (SC014–SC018).
///
/// # Example
///
/// ```
/// use semsim_check::{check_circuit, CircuitModel, ModelNode};
///
/// let mut m = CircuitModel::new();
/// let lead = m.add_lead();
/// let isl = m.add_island();
/// m.add_junction(lead, isl, 1e-6, 1e-18);
/// m.add_junction(isl, ModelNode::GROUND, 1e-6, 1e-18);
/// assert!(check_circuit(&m).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CircuitModel {
    pub(crate) nodes: Vec<NodeInfo>,
    pub(crate) edges: Vec<Edge>,
    /// Simulation temperature (K), when the front-end declared one.
    pub(crate) temperature: Option<f64>,
    /// Adaptive-solver request.
    pub(crate) adaptive: Option<AdaptiveInfo>,
    /// Swept parameter.
    pub(crate) sweep: Option<SweepInfo>,
    /// Scheduled voltage steps.
    pub(crate) stimuli: Vec<StimulusInfo>,
    /// Voltage probes (observables).
    pub(crate) probes: Vec<ProbeInfo>,
    /// Measured junctions (observables): edge plus declaration site.
    pub(crate) observed: Vec<(ModelEdge, Span)>,
}

impl CircuitModel {
    /// An empty model.
    pub fn new() -> Self {
        CircuitModel::default()
    }

    fn add_node(&mut self, kind: NodeKind, span: Span) -> ModelNode {
        self.nodes.push(NodeInfo {
            kind,
            label: None,
            span,
            voltage: None,
            voltage_span: Span::NONE,
        });
        ModelNode(self.nodes.len() - 1)
    }

    /// Adds a voltage-source lead.
    pub fn add_lead(&mut self) -> ModelNode {
        self.add_node(NodeKind::Lead, Span::NONE)
    }

    /// Adds a lead whose declaration sits at `span`.
    pub fn add_lead_at(&mut self, span: Span) -> ModelNode {
        self.add_node(NodeKind::Lead, span)
    }

    /// Adds an island.
    pub fn add_island(&mut self) -> ModelNode {
        self.add_node(NodeKind::Island, Span::NONE)
    }

    /// Adds an island whose first mention sits at `span`.
    pub fn add_island_at(&mut self, span: Span) -> ModelNode {
        self.add_node(NodeKind::Island, span)
    }

    /// Attaches a human-readable name (e.g. the netlist node number)
    /// used in diagnostic messages.
    pub fn set_label(&mut self, node: ModelNode, label: impl Into<String>) {
        if !node.is_ground() {
            self.nodes[node.0].label = Some(label.into());
        }
    }

    /// Records the DC voltage a lead is held at, with the definition
    /// site of the value (the `vdc` line). No-op for ground/islands.
    pub fn set_lead_voltage(&mut self, node: ModelNode, voltage: f64, span: Span) {
        if !node.is_ground() && self.nodes[node.0].kind == NodeKind::Lead {
            self.nodes[node.0].voltage = Some(voltage);
            self.nodes[node.0].voltage_span = span;
        }
    }

    /// Adds a tunnel junction (conductance is recorded for symmetry
    /// checks by callers; only the capacitance enters the matrix).
    pub fn add_junction(
        &mut self,
        a: ModelNode,
        b: ModelNode,
        _conductance: f64,
        cap: f64,
    ) -> ModelEdge {
        self.add_junction_at(a, b, _conductance, cap, Span::NONE)
    }

    /// [`CircuitModel::add_junction`] with a source location.
    pub fn add_junction_at(
        &mut self,
        a: ModelNode,
        b: ModelNode,
        _conductance: f64,
        cap: f64,
        span: Span,
    ) -> ModelEdge {
        self.edges.push(Edge {
            a,
            b,
            capacitance: cap,
            tunnel: true,
            span,
        });
        ModelEdge(self.edges.len() - 1)
    }

    /// Adds a plain capacitor.
    pub fn add_capacitor(&mut self, a: ModelNode, b: ModelNode, cap: f64) -> ModelEdge {
        self.add_capacitor_at(a, b, cap, Span::NONE)
    }

    /// [`CircuitModel::add_capacitor`] with a source location.
    pub fn add_capacitor_at(
        &mut self,
        a: ModelNode,
        b: ModelNode,
        cap: f64,
        span: Span,
    ) -> ModelEdge {
        self.edges.push(Edge {
            a,
            b,
            capacitance: cap,
            tunnel: false,
            span,
        });
        ModelEdge(self.edges.len() - 1)
    }

    /// Declares the simulation temperature (K).
    pub fn set_temperature(&mut self, kelvin: f64) {
        self.temperature = Some(kelvin);
    }

    /// Declares the adaptive-solver request.
    pub fn set_adaptive(&mut self, threshold: f64, refresh_interval: u64, span: Span) {
        self.adaptive = Some(AdaptiveInfo {
            threshold,
            refresh_interval,
            span,
        });
    }

    /// Declares the swept parameter.
    pub fn set_sweep(&mut self, sweep: SweepInfo) {
        self.sweep = Some(sweep);
    }

    /// Adds a scheduled voltage step.
    pub fn add_stimulus(&mut self, stimulus: StimulusInfo) {
        self.stimuli.push(stimulus);
    }

    /// Adds a voltage probe (an observable).
    pub fn add_probe(&mut self, probe: ProbeInfo) {
        self.probes.push(probe);
    }

    /// Marks a junction as measured (an observable), e.g. from a
    /// `record` directive or the implicit default junction.
    pub fn mark_observed(&mut self, edge: ModelEdge, span: Span) {
        self.observed.push((edge, span));
    }

    /// Number of islands in the model.
    pub fn island_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Island)
            .count()
    }

    /// `true` when the model carries any observable (measured junction
    /// or probe) — the precondition for dead-sweep reasoning.
    pub fn has_observables(&self) -> bool {
        !self.observed.is_empty() || !self.probes.is_empty()
    }

    pub(crate) fn describe(&self, node: ModelNode) -> String {
        if node.is_ground() {
            return "ground".to_string();
        }
        let info = &self.nodes[node.0];
        match (&info.label, info.kind) {
            (Some(l), NodeKind::Island) => format!("island (node {l})"),
            (Some(l), NodeKind::Lead) => format!("lead (node {l})"),
            (None, NodeKind::Island) => format!("island #{}", node.0),
            (None, NodeKind::Lead) => format!("lead #{}", node.0),
        }
    }

    /// The label attached to `node`, if any.
    pub(crate) fn label(&self, node: ModelNode) -> Option<&str> {
        if node.is_ground() {
            return None;
        }
        self.nodes[node.0].label.as_deref()
    }

    /// Best source location for a node-level finding: the node's own
    /// span, falling back to its first incident edge's span when the
    /// node was added without one.
    pub fn span_for(&self, node: ModelNode) -> Span {
        if node.is_ground() {
            return Span::NONE;
        }
        let own = self.nodes[node.0].span;
        if own.is_known() {
            return own;
        }
        self.edges
            .iter()
            .find(|e| e.a == node || e.b == node)
            .map_or(Span::NONE, |e| e.span)
    }

    /// Islands not reached from any lead/ground by a breadth-first walk
    /// over the selected edges.
    pub(crate) fn unreached_islands(&self, use_edge: impl Fn(&Edge) -> bool) -> Vec<ModelNode> {
        let n = self.nodes.len();
        // Index n stands for ground.
        let idx = |node: ModelNode| if node.is_ground() { n } else { node.0 };
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for e in self.edges.iter().filter(|e| use_edge(e)) {
            adj[idx(e.a)].push(idx(e.b));
            adj[idx(e.b)].push(idx(e.a));
        }
        let mut seen = vec![false; n + 1];
        let mut queue: Vec<usize> = vec![n];
        seen[n] = true;
        for (i, info) in self.nodes.iter().enumerate() {
            if info.kind == NodeKind::Lead {
                seen[i] = true;
                queue.push(i);
            }
        }
        while let Some(u) = queue.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push(v);
                }
            }
        }
        (0..n)
            .filter(|&i| self.nodes[i].kind == NodeKind::Island && !seen[i])
            .map(ModelNode)
            .collect()
    }

    /// The island capacitance matrix `C`, assembled as the circuit build
    /// assembles it: islands in model order, and each edge in order adds
    /// its capacitance to its island ends' diagonal and `−C` between two
    /// distinct islands. A netlist's model lists junctions before
    /// capacitors, as the build does, so both factor the same bits.
    pub fn capacitance_matrix(&self) -> SymmetricMatrix {
        let mut position = vec![None; self.nodes.len()];
        let mut islands = 0;
        for (p, info) in position.iter_mut().zip(&self.nodes) {
            if info.kind == NodeKind::Island {
                *p = Some(islands);
                islands += 1;
            }
        }
        let island = |node: ModelNode| (!node.is_ground()).then(|| position[node.0]).flatten();
        let mut diagonal = vec![0.0; islands];
        let mut coupling = Vec::new();
        for e in &self.edges {
            let (ka, kb) = (island(e.a), island(e.b));
            for k in [ka, kb].into_iter().flatten() {
                diagonal[k] += e.capacitance;
            }
            if let (Some(ka), Some(kb)) = (ka, kb) {
                if ka != kb {
                    coupling.push((ka, kb, -e.capacitance));
                }
            }
        }
        SymmetricMatrix::from_entries(diagonal, &coupling)
    }
}

/// One gate in a [`LogicModel`].
#[derive(Debug, Clone)]
pub(crate) struct ModelGate {
    pub(crate) output: String,
    pub(crate) inputs: Vec<String>,
    pub(crate) span: Span,
}

/// An abstract combinational netlist: primary inputs/outputs and gates.
///
/// Populated from a *raw* (syntax-only) parse so that structural defects
/// — cycles, undriven signals — surface as diagnostics with source
/// locations instead of opaque parse failures.
///
/// # Example
///
/// ```
/// use semsim_check::{check_logic, DiagCode, LogicModel};
///
/// let mut m = LogicModel::new();
/// m.add_input("a");
/// m.add_output("y");
/// m.add_gate("y", ["a", "ghost"]);
/// let diags = check_logic(&m);
/// assert!(diags.iter().any(|d| d.code == DiagCode::UndrivenInput));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogicModel {
    pub(crate) inputs: Vec<(String, Span)>,
    pub(crate) outputs: Vec<(String, Span)>,
    pub(crate) gates: Vec<ModelGate>,
}

impl LogicModel {
    /// An empty model.
    pub fn new() -> Self {
        LogicModel::default()
    }

    /// Declares a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) {
        self.inputs.push((name.into(), Span::NONE));
    }

    /// Declares a primary input at `span`.
    pub fn add_input_at(&mut self, name: impl Into<String>, span: Span) {
        self.inputs.push((name.into(), span));
    }

    /// Declares a primary output.
    pub fn add_output(&mut self, name: impl Into<String>) {
        self.outputs.push((name.into(), Span::NONE));
    }

    /// Declares a primary output at `span`.
    pub fn add_output_at(&mut self, name: impl Into<String>, span: Span) {
        self.outputs.push((name.into(), span));
    }

    /// Adds a gate driving `output` from `inputs`.
    pub fn add_gate<I, S>(&mut self, output: impl Into<String>, inputs: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.add_gate_at(output, inputs, Span::NONE);
    }

    /// [`LogicModel::add_gate`] with a source location.
    pub fn add_gate_at<I, S>(&mut self, output: impl Into<String>, inputs: I, span: Span)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.gates.push(ModelGate {
            output: output.into(),
            inputs: inputs.into_iter().map(Into::into).collect(),
            span,
        });
    }
}
