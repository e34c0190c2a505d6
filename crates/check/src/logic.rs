//! Structural checks over an abstract gate-level netlist.

use std::collections::{HashMap, HashSet};

use crate::ir::{LogicModel, ModelGate};
use crate::{DiagCode, Diagnostic, Diagnostics, Span};

/// Runs the structural checks: SC006 (combinational loops), SC007
/// (undriven inputs — errors; unused gate outputs — warnings), and
/// SC014 (dead primary inputs with no fanout path to any primary
/// output; the `reach` pass).
pub fn check_logic(model: &LogicModel) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let input_set: HashSet<&str> = model.inputs.iter().map(|(n, _)| n.as_str()).collect();

    // Drive map; multiply-driven signals are a drive defect too (SC007).
    let mut driver: HashMap<&str, usize> = HashMap::new();
    for (gi, g) in model.gates.iter().enumerate() {
        if input_set.contains(g.output.as_str()) {
            diags.push(Diagnostic::new(
                DiagCode::UndrivenInput,
                format!(
                    "signal `{}` is both a primary input and a gate output",
                    g.output
                ),
                g.span,
            ));
            continue;
        }
        if driver.insert(g.output.as_str(), gi).is_some() {
            diags.push(Diagnostic::new(
                DiagCode::UndrivenInput,
                format!("signal `{}` is driven by more than one gate", g.output),
                g.span,
            ));
        }
    }

    // SC007 error facet: referenced but never driven.
    for g in &model.gates {
        for s in &g.inputs {
            if !input_set.contains(s.as_str()) && !driver.contains_key(s.as_str()) {
                diags.push(Diagnostic::new(
                    DiagCode::UndrivenInput,
                    format!("gate input `{s}` is neither a primary input nor driven by any gate"),
                    g.span,
                ));
            }
        }
    }
    for (o, span) in &model.outputs {
        if !input_set.contains(o.as_str()) && !driver.contains_key(o.as_str()) {
            diags.push(Diagnostic::new(
                DiagCode::UndrivenInput,
                format!("primary output `{o}` is never driven"),
                *span,
            ));
        }
    }

    // SC007 warning facet: computed but never observed.
    let consumed: HashSet<&str> = model
        .gates
        .iter()
        .flat_map(|g| g.inputs.iter().map(std::string::String::as_str))
        .collect();
    let output_set: HashSet<&str> = model.outputs.iter().map(|(n, _)| n.as_str()).collect();
    for g in &model.gates {
        let out = g.output.as_str();
        if !consumed.contains(out) && !output_set.contains(out) {
            diags.push(Diagnostic::new(
                DiagCode::UnusedOutput,
                format!("gate output `{out}` is consumed by nothing and is not a primary output"),
                g.span,
            ));
        }
    }

    // SC006: Kahn's algorithm; whatever survives sits on a cycle.
    let n = model.gates.len();
    let mut indegree = vec![0usize; n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, g) in model.gates.iter().enumerate() {
        for s in &g.inputs {
            if let Some(&src) = driver.get(s.as_str()) {
                consumers[src].push(gi);
                indegree[gi] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut done = 0usize;
    while let Some(gi) = ready.pop() {
        done += 1;
        for &c in &consumers[gi] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.push(c);
            }
        }
    }
    if done != n {
        let mut cyclic: Vec<&ModelGate> = (0..n)
            .filter(|&i| indegree[i] > 0)
            .map(|i| &model.gates[i])
            .collect();
        cyclic.sort_by_key(|g| g.span);
        let names: Vec<&str> = cyclic.iter().map(|g| g.output.as_str()).collect();
        diags.push(Diagnostic::new(
            DiagCode::CombinationalLoop,
            format!(
                "combinational cycle through signal(s): {}",
                names.join(", ")
            ),
            cyclic.first().map_or(Span::NONE, |g| g.span),
        ));
    }

    // SC014 (logic facet): primary inputs with no fanout path to any
    // primary output.
    diags.extend(crate::reach::check_fanout(model));

    diags.sort();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_netlist_has_no_findings() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_input("b");
        m.add_output("y");
        m.add_gate("t", ["a", "b"]);
        m.add_gate("y", ["t"]);
        assert!(check_logic(&m).is_empty());
    }

    #[test]
    fn cycle_reported_with_signals() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_output("y");
        m.add_gate_at("y", ["a", "x"], Span::line(3));
        m.add_gate_at("x", ["a", "y"], Span::line(4));
        let diags = check_logic(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::CombinationalLoop)
            .expect("SC006");
        assert!(d.message.contains("y") && d.message.contains("x"));
        assert_eq!(d.span, Span::line(3));
    }

    #[test]
    fn undriven_input_is_an_error() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_output("y");
        m.add_gate_at("y", ["a", "ghost"], Span::line(5));
        let diags = check_logic(&m);
        assert!(diags.has_errors());
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::UndrivenInput)
            .expect("SC007");
        assert_eq!(d.span, Span::line(5));
        assert!(d.message.contains("ghost"));
    }

    #[test]
    fn unused_output_is_a_warning() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_output("y");
        m.add_gate("y", ["a"]);
        m.add_gate_at("dead", ["a"], Span::line(4));
        let diags = check_logic(&m);
        assert!(!diags.has_errors());
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::UnusedOutput)
            .expect("SC007 warning");
        assert_eq!(d.span, Span::line(4));
    }

    #[test]
    fn undriven_primary_output_reported() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_output_at("y", Span::line(2));
        let diags = check_logic(&m);
        assert!(diags.has_errors());
        assert!(diags.iter().any(|d| d.message.contains("never driven")));
    }

    #[test]
    fn double_driver_reported() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_input("b");
        m.add_output("y");
        m.add_gate("y", ["a"]);
        m.add_gate_at("y", ["b"], Span::line(4));
        let diags = check_logic(&m);
        assert!(diags.has_errors());
        assert!(diags
            .iter()
            .any(|d| d.message.contains("more than one gate")));
    }
}
