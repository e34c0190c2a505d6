//! Elaboration of a gate-level netlist into a single-electron circuit.
//!
//! Every gate becomes a CMOS-style complementary network of nSETs and
//! pSETs (paper Fig. 4b): NAND = parallel pull-up pSETs over a series
//! pull-down nSET chain, NOR the dual, INV one of each. Compound gates
//! are lowered first: `AND`/`OR` to NAND/NOR + INV, `BUF` to two
//! inverters, `XOR` to the standard four-NAND network, `XNOR` to XOR +
//! INV. Each logic signal becomes an island loaded by `C_L` — the large
//! "wire" capacitance that both defines the voltage-state logic levels
//! and isolates stages from each other (what makes the paper's adaptive
//! solver effective).

use std::collections::HashMap;

use semsim_core::circuit::{Circuit, CircuitBuilder, NodeId};
use semsim_netlist::{Gate, GateKind, LogicFile};

use crate::{LogicError, SetLogicParams};

/// An elaborated logic circuit, ready for Monte Carlo simulation.
#[derive(Debug)]
pub struct Elaborated {
    /// The single-electron circuit.
    pub circuit: Circuit,
    /// Lead index of the supply `V_dd`.
    pub vdd_lead: usize,
    /// Lead index of the pSET bias `V_p`.
    pub vp_lead: usize,
    /// Lead index per primary input, in netlist order.
    pub input_leads: HashMap<String, usize>,
    /// Circuit node of every logic signal (leads for primary inputs,
    /// load islands for gate outputs).
    pub signal_nodes: HashMap<String, NodeId>,
    /// Number of SETs instantiated.
    pub set_count: usize,
    /// The parameters the circuit was built with.
    pub params: SetLogicParams,
}

impl Elaborated {
    /// Number of tunnel junctions (2 per SET).
    pub fn junction_count(&self) -> usize {
        self.circuit.num_junctions()
    }

    /// Node of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::UnknownSignal`] for names not in the
    /// netlist.
    pub fn signal(&self, name: &str) -> Result<NodeId, LogicError> {
        self.signal_nodes
            .get(name)
            .copied()
            .ok_or_else(|| LogicError::UnknownSignal { name: name.into() })
    }

    /// Lead index of a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::UnknownSignal`] for non-input names.
    pub fn input_lead(&self, name: &str) -> Result<usize, LogicError> {
        self.input_leads
            .get(name)
            .copied()
            .ok_or_else(|| LogicError::UnknownSignal { name: name.into() })
    }
}

/// Lowers compound gates to the INV/NAND/NOR subset, introducing fresh
/// `$n` signals. Exposed so the analytical SPICE baseline maps exactly
/// the same transistor-level structure.
pub fn lower(logic: &LogicFile) -> Vec<Gate> {
    let mut out = Vec::new();
    let mut fresh = 0usize;
    let tmp = |fresh: &mut usize| {
        let name = format!("${fresh}");
        *fresh += 1;
        name
    };
    for g in &logic.gates {
        match g.kind {
            GateKind::Inv | GateKind::Nand | GateKind::Nor => out.push(g.clone()),
            GateKind::Buf => {
                let t = tmp(&mut fresh);
                out.push(Gate {
                    kind: GateKind::Inv,
                    output: t.clone(),
                    inputs: g.inputs.clone(),
                });
                out.push(Gate {
                    kind: GateKind::Inv,
                    output: g.output.clone(),
                    inputs: vec![t],
                });
            }
            GateKind::And | GateKind::Or => {
                let inner = if g.kind == GateKind::And {
                    GateKind::Nand
                } else {
                    GateKind::Nor
                };
                let t = tmp(&mut fresh);
                out.push(Gate {
                    kind: inner,
                    output: t.clone(),
                    inputs: g.inputs.clone(),
                });
                out.push(Gate {
                    kind: GateKind::Inv,
                    output: g.output.clone(),
                    inputs: vec![t],
                });
            }
            GateKind::Xor | GateKind::Xnor => {
                // Standard 4-NAND XOR.
                let (a, b) = (g.inputs[0].clone(), g.inputs[1].clone());
                let n1 = tmp(&mut fresh);
                let n2 = tmp(&mut fresh);
                let n3 = tmp(&mut fresh);
                out.push(Gate {
                    kind: GateKind::Nand,
                    output: n1.clone(),
                    inputs: vec![a.clone(), b.clone()],
                });
                out.push(Gate {
                    kind: GateKind::Nand,
                    output: n2.clone(),
                    inputs: vec![a, n1.clone()],
                });
                out.push(Gate {
                    kind: GateKind::Nand,
                    output: n3.clone(),
                    inputs: vec![b, n1],
                });
                let xor_out = if g.kind == GateKind::Xor {
                    g.output.clone()
                } else {
                    tmp(&mut fresh)
                };
                out.push(Gate {
                    kind: GateKind::Nand,
                    output: xor_out.clone(),
                    inputs: vec![n2, n3],
                });
                if g.kind == GateKind::Xnor {
                    out.push(Gate {
                        kind: GateKind::Inv,
                        output: g.output.clone(),
                        inputs: vec![xor_out],
                    });
                }
            }
        }
    }
    out
}

struct Builder<'p> {
    b: CircuitBuilder,
    params: &'p SetLogicParams,
    vdd: NodeId,
    vp: NodeId,
    vn: NodeId,
    sets: usize,
}

impl Builder<'_> {
    /// Adds an nSET between `drain` and `source`, gated by `input`,
    /// with the nSET bias gate.
    fn nset(&mut self, drain: NodeId, source: NodeId, input: NodeId) {
        let p = self.params;
        let island = self.b.add_island();
        self.b
            .add_junction(drain, island, p.junction_resistance, p.junction_capacitance)
            .expect("validated params");
        self.b
            .add_junction(
                island,
                source,
                p.junction_resistance,
                p.junction_capacitance,
            )
            .expect("validated params");
        self.b
            .add_capacitor(input, island, p.input_gate_capacitance)
            .expect("validated params");
        self.b
            .add_capacitor(self.vn, island, p.bias_gate_capacitance)
            .expect("validated params");
        self.sets += 1;
    }

    /// Adds a pSET between `drain` and `source`, gated by `input`, with
    /// the half-electron bias gate.
    fn pset(&mut self, drain: NodeId, source: NodeId, input: NodeId) {
        let p = self.params;
        let island = self.b.add_island();
        self.b
            .add_junction(drain, island, p.junction_resistance, p.junction_capacitance)
            .expect("validated params");
        self.b
            .add_junction(
                island,
                source,
                p.junction_resistance,
                p.junction_capacitance,
            )
            .expect("validated params");
        self.b
            .add_capacitor(input, island, p.input_gate_capacitance)
            .expect("validated params");
        self.b
            .add_capacitor(self.vp, island, p.bias_gate_capacitance)
            .expect("validated params");
        self.sets += 1;
    }

    /// Creates a logic node: an island loaded by `C_L` to ground.
    fn logic_node(&mut self) -> NodeId {
        let n = self.b.add_island();
        self.b
            .add_capacitor(n, NodeId::GROUND, self.params.load_capacitance)
            .expect("validated params");
        n
    }

    /// Builds one lowered gate driving `out` from `ins`.
    fn gate(&mut self, kind: GateKind, out: NodeId, ins: &[NodeId]) {
        match kind {
            GateKind::Inv => {
                self.pset(self.vdd, out, ins[0]);
                self.nset(out, NodeId::GROUND, ins[0]);
            }
            GateKind::Nand => {
                // Parallel pull-up pSETs.
                for &i in ins {
                    self.pset(self.vdd, out, i);
                }
                // Series pull-down nSET chain.
                let mut top = out;
                for (k, &i) in ins.iter().enumerate() {
                    let bottom = if k + 1 == ins.len() {
                        NodeId::GROUND
                    } else {
                        // Internal stack node: a bare island (its
                        // junction capacitances define C_Σ).
                        self.b.add_island()
                    };
                    self.nset(top, bottom, i);
                    top = bottom;
                }
            }
            GateKind::Nor => {
                // Series pull-up pSET chain.
                let mut top = self.vdd;
                for (k, &i) in ins.iter().enumerate() {
                    let bottom = if k + 1 == ins.len() {
                        out
                    } else {
                        self.b.add_island()
                    };
                    self.pset(top, bottom, i);
                    top = bottom;
                }
                // Parallel pull-down nSETs.
                for &i in ins {
                    self.nset(out, NodeId::GROUND, i);
                }
            }
            _ => unreachable!("lowered netlist contains only INV/NAND/NOR"),
        }
    }
}

/// Elaborates `logic` into a single-electron circuit using `params`.
///
/// # Errors
///
/// Returns [`LogicError::BadParams`] if the parameters fail
/// [`SetLogicParams::validate`], or a wrapped [`semsim_core::CoreError`]
/// if circuit construction fails.
pub fn elaborate(logic: &LogicFile, params: &SetLogicParams) -> Result<Elaborated, LogicError> {
    params.validate()?;
    let gates = lower(logic);

    let mut builder = Builder {
        b: CircuitBuilder::new(),
        params,
        vdd: NodeId::GROUND, // placeholder, set below
        vp: NodeId::GROUND,
        vn: NodeId::GROUND,
        sets: 0,
    };
    builder.vdd = builder.b.add_lead(params.vdd);
    builder.vp = builder.b.add_lead(params.vp);
    builder.vn = builder.b.add_lead(params.vn);
    let vdd_lead = 1;
    let vp_lead = 2;

    let mut signal_nodes: HashMap<String, NodeId> = HashMap::new();
    let mut input_leads: HashMap<String, usize> = HashMap::new();
    for (k, name) in logic.inputs.iter().enumerate() {
        let lead = builder.b.add_lead(0.0);
        signal_nodes.insert(name.clone(), lead);
        input_leads.insert(name.clone(), 4 + k);
    }
    // Create every gate-output logic node up front (gates are in
    // topological order but fan-in can reference later-declared loads).
    for g in &gates {
        let node = builder.logic_node();
        signal_nodes.insert(g.output.clone(), node);
    }
    for g in &gates {
        let out = signal_nodes[&g.output];
        let ins: Vec<NodeId> = g.inputs.iter().map(|s| signal_nodes[s]).collect();
        builder.gate(g.kind, out, &ins);
    }

    let set_count = builder.sets;
    let circuit = builder.b.build().map_err(LogicError::from)?;
    Ok(Elaborated {
        circuit,
        vdd_lead,
        vp_lead,
        input_leads,
        signal_nodes,
        set_count,
        params: *params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semsim_netlist::gate_set_count;

    fn parse(s: &str) -> LogicFile {
        LogicFile::parse(s).unwrap()
    }

    #[test]
    fn inverter_structure() {
        let e = elaborate(
            &parse("input a\noutput y\ninv y a\n"),
            &SetLogicParams::default(),
        )
        .unwrap();
        assert_eq!(e.set_count, 2);
        assert_eq!(e.junction_count(), 4);
        // Islands: 2 SET islands + 1 logic node.
        assert_eq!(e.circuit.num_islands(), 3);
        // Leads: ground, vdd, vp, vn, input a.
        assert_eq!(e.circuit.num_leads(), 5);
        assert!(e.signal("y").is_ok());
        assert!(e.signal("zz").is_err());
        assert_eq!(e.input_lead("a").unwrap(), 4);
    }

    #[test]
    fn nand2_structure() {
        let e = elaborate(
            &parse("input a b\noutput y\nnand y a b\n"),
            &SetLogicParams::default(),
        )
        .unwrap();
        assert_eq!(e.set_count, 4);
        assert_eq!(e.junction_count(), 8);
        // 4 SET islands + 1 stack node + 1 logic node.
        assert_eq!(e.circuit.num_islands(), 6);
    }

    #[test]
    fn set_counts_match_netlist_prediction() {
        for src in [
            "input a\noutput y\ninv y a\n",
            "input a b\noutput y\nnand y a b\n",
            "input a b\noutput y\nnor y a b\n",
            "input a b\noutput y\nand y a b\n",
            "input a b\noutput y\nor y a b\n",
            "input a b\noutput y\nxor y a b\n",
            "input a b\noutput y\nxnor y a b\n",
            "input a\noutput y\nbuf y a\n",
            "input a b c\noutput y\nnand y a b c\n",
        ] {
            let logic = parse(src);
            let predicted: usize = logic.gates.iter().map(gate_set_count).sum();
            let e = elaborate(&logic, &SetLogicParams::default()).unwrap();
            assert_eq!(e.set_count, predicted, "{src}");
            assert_eq!(e.junction_count(), 2 * predicted, "{src}");
        }
    }

    #[test]
    fn full_adder_is_the_paper_benchmark_size() {
        let fa = parse(
            "input a b cin\noutput sum cout\nxor t1 a b\nxor sum t1 cin\n\
             and t2 a b\nand t3 t1 cin\nor cout t2 t3\n",
        );
        let e = elaborate(&fa, &SetLogicParams::default()).unwrap();
        assert_eq!(e.junction_count(), 100, "paper: Full-Adder (100)");
    }

    #[test]
    fn bad_params_rejected() {
        let p = SetLogicParams {
            vdd: 1.0,
            ..SetLogicParams::default()
        };
        assert!(elaborate(&parse("input a\noutput y\ninv y a\n"), &p).is_err());
    }
}
