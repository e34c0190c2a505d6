//! Influence-reachability analysis over the dataflow IR.
//!
//! Answers the question the local checks cannot: *does the thing being
//! varied reach the thing being measured?* For circuits, influence
//! propagates from the swept source through the capacitance graph —
//! edges below the engine's coupling cutoff are dropped (the same
//! locality result the adaptive solver exploits), and fixed-potential
//! nodes (ground, non-swept leads) screen propagation because their
//! voltage cannot respond. For logic, influence is plain gate fanout.
//!
//! The diagnostics built here (SC014–SC018) carry machine-applicable
//! suggestions where a behavior-preserving rewrite exists; the edits are
//! phrased in the netlist directive syntax, so models populated without
//! source spans (e.g. straight from the core circuit builder) simply
//! get span-less display-only findings.

use std::collections::{HashMap, HashSet};

use crate::fixit::{Applicability, Edit, Suggestion};
use crate::ir::{CircuitModel, LogicModel, ModelNode, NodeKind};
use crate::{DiagCode, Diagnostic, Diagnostics, Span};

/// Relative capacitance cutoff below which a coupling is treated as
/// absent, mirroring the engine's screening threshold
/// (`semsim_core::Circuit::COUPLING_EPS`). The two constants are kept
/// equal by a cross-crate test in `semsim-netlist`; `semsim-check`
/// depends only on the linear-algebra crate, so the value is restated
/// here rather than imported.
pub const COUPLING_EPS: f64 = 1e-8;

/// Elementary charge (C) — restated from `semsim-core` for the same
/// dependency reason as [`COUPLING_EPS`].
const E_CHARGE: f64 = 1.602_176_634e-19;

/// Boltzmann constant (J/K).
const K_B: f64 = 1.380_649e-23;

/// Upper limit on θ·E_C/kT for SC017. The adaptive solver skips rate
/// recomputation while potential shifts stay below θ relative to the
/// charging-energy scale; the neglected shift must stay well inside the
/// thermal smearing kT for the frozen rates to be a valid
/// approximation. Beyond this ratio the skipped updates are no longer
/// thermally masked.
pub const THETA_KT_LIMIT: f64 = 10.0;

/// Fraction of the limit the suggested replacement θ aims for, leaving
/// headroom so the rewritten file is comfortably inside the envelope.
const THETA_SAFETY: f64 = 0.9;

/// The influence set of the sweep: which nodes and edges respond when
/// the swept voltage changes.
struct Influence {
    /// Seed leads (the swept source and its `symm` partner).
    seeds: HashSet<usize>,
    /// Influenced islands (reachable from a seed through couplings at
    /// or above the cutoff, without crossing a fixed-potential node).
    islands: HashSet<usize>,
}

impl Influence {
    fn node_influenced(&self, node: ModelNode) -> bool {
        if node == ModelNode::GROUND {
            return false;
        }
        self.seeds.contains(&node.0) || self.islands.contains(&node.0)
    }
}

/// Breadth-first influence walk from the sweep seeds. Ground and
/// non-seed leads hold their potential, so they are neither influenced
/// nor expanded through; islands both receive and relay influence.
fn influence_set(model: &CircuitModel, seeds: HashSet<usize>) -> Influence {
    let cmax = model
        .edges
        .iter()
        .map(|e| e.capacitance)
        .fold(0.0_f64, f64::max);
    let cutoff = COUPLING_EPS * cmax;
    let n = model.nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &model.edges {
        if e.capacitance < cutoff {
            continue;
        }
        if let (false, false) = (e.a == ModelNode::GROUND, e.b == ModelNode::GROUND) {
            adj[e.a.0].push(e.b.0);
            adj[e.b.0].push(e.a.0);
        }
    }
    let mut islands: HashSet<usize> = HashSet::new();
    let mut queue: Vec<usize> = seeds.iter().copied().collect();
    let mut visited: HashSet<usize> = seeds.clone();
    while let Some(u) = queue.pop() {
        for &v in &adj[u] {
            if visited.contains(&v) {
                continue;
            }
            visited.insert(v);
            if model.nodes[v].kind == NodeKind::Island {
                islands.insert(v);
                queue.push(v);
            }
            // Non-seed leads are visited (to avoid re-walking) but hold
            // a fixed potential: not influenced, not expanded.
        }
    }
    Influence { seeds, islands }
}

/// Largest single-island charging energy E_C = e²/(2·CΣ) in joules,
/// taken over every island (the smallest total capacitance dominates).
/// `None` when the model has no islands. One pass over the edges sums
/// each island's `CΣ` in edge order; an edge with both ends on one
/// island counts once.
fn max_charging_energy(model: &CircuitModel) -> Option<f64> {
    let mut csigma = vec![0.0; model.nodes.len()];
    for e in &model.edges {
        let ends = [Some(e.a), (e.b != e.a).then_some(e.b)];
        for node in ends.into_iter().flatten().filter(|n| !n.is_ground()) {
            csigma[node.0] += e.capacitance;
        }
    }
    model
        .nodes
        .iter()
        .zip(csigma)
        .filter(|&(info, c)| info.kind == NodeKind::Island && c > 0.0)
        .map(|(_, c)| c)
        .reduce(f64::min)
        .map(|c| E_CHARGE * E_CHARGE / (2.0 * c))
}

fn delete_line_fix(message: &str, span: Span) -> Option<Suggestion> {
    span.is_known().then(|| {
        Suggestion::new(
            message,
            Applicability::MachineApplicable,
            vec![Edit::delete(span.line)],
        )
    })
}

/// SC018 + SC015 (shadowed-stimulus facet): stimuli grouped by
/// `(lead, timestamp)`. The engine keeps the *last* declaration of a
/// duplicate pair, so deleting the earlier line preserves behavior.
fn check_stimuli(model: &CircuitModel, diags: &mut Diagnostics) {
    for s in &model.stimuli {
        if s.node != ModelNode::GROUND && model.nodes[s.node.0].kind == NodeKind::Island {
            diags.push(Diagnostic::new(
                DiagCode::ConflictingStimuli,
                format!(
                    "stimulus targets {}, but only source leads (`vdc` nodes) can be stepped",
                    model.describe(s.node)
                ),
                s.span,
            ));
        }
    }
    let mut by_key: HashMap<(usize, u64), usize> = HashMap::new();
    for (i, s) in model.stimuli.iter().enumerate() {
        if s.node == ModelNode::GROUND {
            continue;
        }
        let key = (s.node.0, s.time.to_bits());
        let Some(&prev) = by_key.get(&key) else {
            by_key.insert(key, i);
            continue;
        };
        let earlier = &model.stimuli[prev];
        if earlier.voltage.to_bits() == s.voltage.to_bits() {
            let mut d = Diagnostic::new(
                DiagCode::ConstantFoldableSweep,
                format!(
                    "duplicate stimulus: {} is already stepped to {} V at t = {} s by an \
                     earlier `jump`; this one is redundant",
                    model.describe(s.node),
                    s.voltage,
                    s.time
                ),
                s.span,
            );
            if let Some(fix) = delete_line_fix("delete the redundant `jump` line", s.span) {
                d = d.with_suggestion(fix);
            }
            diags.push(d);
        } else {
            let mut d = Diagnostic::new(
                DiagCode::ConflictingStimuli,
                format!(
                    "conflicting stimuli: {} is stepped to both {} V and {} V at t = {} s; \
                     the engine keeps only this later declaration",
                    model.describe(s.node),
                    earlier.voltage,
                    s.voltage,
                    s.time
                ),
                s.span,
            );
            if let Some(fix) = delete_line_fix(
                "delete the earlier, discarded `jump` line (the engine already ignores it)",
                earlier.span,
            ) {
                d = d.with_suggestion(fix);
            }
            diags.push(d);
            by_key.insert(key, i);
        }
    }
}

/// SC016: probes whose samples are decidable before the run starts —
/// ground, or a lead that is neither swept nor stimulated.
fn check_probes(model: &CircuitModel, diags: &mut Diagnostics) {
    let swept: HashSet<usize> = model
        .sweep
        .iter()
        .flat_map(|s| {
            std::iter::once(s.node)
                .chain(s.symm)
                .filter(|n| *n != ModelNode::GROUND)
                .map(|n| n.0)
        })
        .collect();
    let stimulated: HashSet<usize> = model
        .stimuli
        .iter()
        .filter(|s| s.node != ModelNode::GROUND)
        .map(|s| s.node.0)
        .collect();
    for p in &model.probes {
        let constant = if p.node == ModelNode::GROUND {
            Some("ground is held at 0 V".to_string())
        } else {
            let info = &model.nodes[p.node.0];
            (info.kind == NodeKind::Lead
                && !swept.contains(&p.node.0)
                && !stimulated.contains(&p.node.0))
            .then(|| {
                format!(
                    "{} is a source lead that is never swept or stepped",
                    model.describe(p.node)
                )
            })
        };
        if let Some(why) = constant {
            let mut d = Diagnostic::new(
                DiagCode::ConstantProbe,
                format!("probe observes a constant voltage: {why}; every sample will be equal"),
                p.span,
            );
            if let Some(fix) = delete_line_fix("delete the constant `probe` line", p.span) {
                d = d.with_suggestion(fix);
            }
            diags.push(d);
        }
    }
}

/// SC017: adaptive-threshold validity against the kT/E_C regime.
fn check_adaptive(model: &CircuitModel, diags: &mut Diagnostics) {
    let Some(a) = model.adaptive else {
        return;
    };
    if a.refresh_interval == 0 {
        let mut d = Diagnostic::new(
            DiagCode::AdaptiveThresholdRegime,
            "adaptive refresh interval 0 is silently clamped to 1, forcing a full \
             recomputation on every event — the adaptive solver degenerates to the \
             exact one",
            a.span,
        );
        if a.span.is_known() {
            d = d.with_suggestion(Suggestion::new(
                "state the clamped interval explicitly",
                Applicability::MachineApplicable,
                vec![Edit::replace(
                    a.span.line,
                    format!("adaptive {} 1", a.threshold),
                )],
            ));
        }
        diags.push(d);
    }
    if !(a.threshold > 0.0) || !a.threshold.is_finite() {
        return; // θ ≤ 0 always recomputes: valid, just not adaptive.
    }
    let Some(e_c) = max_charging_energy(model) else {
        return;
    };
    let temp = model.temperature.unwrap_or(0.0);
    if temp <= 0.0 {
        let mut d = Diagnostic::new(
            DiagCode::AdaptiveThresholdRegime,
            format!(
                "adaptive threshold θ = {} with temperature 0: at kT = 0 the tunnel \
                 rates are step functions of the potential shift, so no θ > 0 is \
                 thermally masked — skipped updates can flip a rate between zero and \
                 nonzero; use the exact solver at zero temperature",
                a.threshold
            ),
            a.span,
        );
        if a.span.is_known() {
            d = d.with_suggestion(Suggestion::new(
                "remove the `adaptive` request (the exact solver is the zero-temperature \
                 reference)",
                Applicability::MaybeIncorrect,
                vec![Edit::delete(a.span.line)],
            ));
        }
        diags.push(d);
        return;
    }
    let kt = K_B * temp;
    let ratio = a.threshold * e_c / kt;
    if ratio > THETA_KT_LIMIT {
        let suggested = THETA_SAFETY * THETA_KT_LIMIT * kt / e_c;
        let suggested = format!("{suggested:.3e}");
        let mut d = Diagnostic::new(
            DiagCode::AdaptiveThresholdRegime,
            format!(
                "adaptive threshold θ = {} is outside its validity envelope: \
                 θ·E_C/kT ≈ {ratio:.1} exceeds {THETA_KT_LIMIT:.0} (E_C ≈ {:.3e} J, \
                 T = {temp} K), so skipped rate updates are not thermally masked; \
                 tighten θ to ≲ {suggested}",
                a.threshold, e_c
            ),
            a.span,
        );
        if a.span.is_known() {
            d = d.with_suggestion(Suggestion::new(
                format!("tighten the threshold to θ = {suggested}"),
                Applicability::MachineApplicable,
                vec![Edit::replace(
                    a.span.line,
                    format!("adaptive {suggested} {}", a.refresh_interval),
                )],
            ));
        }
        diags.push(d);
    }
}

/// SC014 (circuit facets) + SC015 (degenerate-sweep and t=0-fold
/// facets): does the swept parameter reach any observable?
fn check_sweep_influence(model: &CircuitModel, diags: &mut Diagnostics) {
    // SC015 (t=0 fold): a `jump` at t = 0 on a non-swept lead applies
    // before the first event — it is just a `vdc` value in disguise.
    let swept_nodes: HashSet<usize> = model
        .sweep
        .iter()
        .flat_map(|s| {
            std::iter::once(s.node)
                .chain(s.symm)
                .filter(|n| *n != ModelNode::GROUND)
                .map(|n| n.0)
        })
        .collect();
    for s in &model.stimuli {
        if s.time != 0.0 || s.node == ModelNode::GROUND {
            continue;
        }
        let info = &model.nodes[s.node.0];
        if info.kind != NodeKind::Lead {
            continue; // island stimuli are SC018's report
        }
        if swept_nodes.contains(&s.node.0) {
            // The sweep assigns this lead's voltage per grid point, and
            // the t = 0 jump immediately overwrites it: the sweep is
            // dead (every point simulates the jump voltage).
            let mut d = Diagnostic::new(
                DiagCode::DeadSweep,
                format!(
                    "`jump` at t = 0 overwrites the swept voltage on {} before any event \
                     executes; every sweep point simulates {} V and the sweep is dead",
                    model.describe(s.node),
                    s.voltage
                ),
                s.span,
            );
            if let Some(sweep) = &model.sweep {
                if let Some(fix) = delete_line_fix("delete the dead `sweep` directive", sweep.span)
                {
                    d = d.with_suggestion(fix);
                }
            }
            diags.push(d);
        } else if let Some(label) = model.label(s.node) {
            let vspan = model.nodes[s.node.0].voltage_span;
            let mut d = Diagnostic::new(
                DiagCode::ConstantFoldableSweep,
                format!(
                    "`jump` at t = 0 on {} applies before the first event; it is \
                     equivalent to declaring `vdc {label} {}` directly",
                    model.describe(s.node),
                    s.voltage
                ),
                s.span,
            );
            if s.span.is_known() && vspan.is_known() {
                d = d.with_suggestion(Suggestion::new(
                    format!("fold the step into the `vdc {label}` declaration"),
                    Applicability::MachineApplicable,
                    vec![
                        Edit::replace(vspan.line, format!("vdc {label} {}", s.voltage)),
                        Edit::delete(s.span.line),
                    ],
                ));
            }
            diags.push(d);
        }
    }

    let Some(sweep) = &model.sweep else {
        return;
    };

    // SC015 (degenerate grid): start == end is a single effective point.
    if sweep.start == sweep.end {
        let mut d = Diagnostic::new(
            DiagCode::ConstantFoldableSweep,
            format!(
                "sweep start and end are both {} V: the grid folds to a single point \
                 and every \"swept\" result is the same run",
                sweep.end
            ),
            sweep.span,
        );
        if let Some(fix) = delete_line_fix("delete the single-point `sweep` directive", sweep.span)
        {
            d = d.with_suggestion(fix);
        }
        diags.push(d);
        return; // influence reasoning is moot for a single point
    }

    // SC014 (reachability): only meaningful when something is measured.
    if !model.has_observables() {
        return;
    }
    let infl = influence_set(model, swept_nodes);
    let junction_alive = model.observed.iter().any(|&(edge, _)| {
        let e = &model.edges[edge.0];
        infl.node_influenced(e.a) || infl.node_influenced(e.b)
    });
    let probe_alive = model.probes.iter().any(|p| infl.node_influenced(p.node));
    if junction_alive || probe_alive {
        return;
    }
    let mut d = Diagnostic::new(
        DiagCode::DeadSweep,
        format!(
            "dead sweep: the swept source ({}) has no influence path through couplings \
             stronger than {COUPLING_EPS:e}·C_max to any recorded junction or probe; \
             every sweep point computes identical observables",
            model.describe(sweep.node)
        ),
        sweep.span,
    );
    if let Some(fix) = delete_line_fix("delete the dead `sweep` directive", sweep.span) {
        d = d.with_suggestion(fix);
    }
    diags.push(d);
}

/// Runs the circuit-side influence diagnostics (SC014–SC018) over a
/// dataflow-populated model. Called from [`crate::check_circuit`]; a
/// model without sweep/stimulus/probe facts produces no findings here.
pub(crate) fn check_influence(model: &CircuitModel) -> Diagnostics {
    let mut diags = Diagnostics::new();
    check_stimuli(model, &mut diags);
    check_probes(model, &mut diags);
    check_adaptive(model, &mut diags);
    check_sweep_influence(model, &mut diags);
    diags
}

/// SC014 (logic facet): primary inputs with no fanout path to any
/// primary output — toggling them cannot change anything observable.
/// Called from [`crate::check_logic`].
pub(crate) fn check_fanout(model: &LogicModel) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if model.outputs.is_empty() {
        return diags; // SC007 already reports the real defect
    }
    // Backward reachability from the outputs: a signal is live when it
    // is an output or feeds a gate whose output is live.
    let mut live: HashSet<&str> = model.outputs.iter().map(|(n, _)| n.as_str()).collect();
    loop {
        let mut grew = false;
        for g in &model.gates {
            if live.contains(g.output.as_str()) {
                for s in &g.inputs {
                    if live.insert(s.as_str()) {
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let dead: Vec<&(String, Span)> = model
        .inputs
        .iter()
        .filter(|(n, _)| !live.contains(n.as_str()))
        .collect();
    for (name, span) in &dead {
        let mut d = Diagnostic::new(
            DiagCode::DeadSweep,
            format!(
                "primary input `{name}` has no fanout path to any primary output; \
                 toggling it cannot change the observable function"
            ),
            *span,
        );
        if span.is_known() {
            // Rewrite the whole `input` statement so every dead name on
            // the line disappears in one edit.
            let survivors: Vec<&str> = model
                .inputs
                .iter()
                .filter(|(n, s)| s.line == span.line && live.contains(n.as_str()))
                .map(|(n, _)| n.as_str())
                .collect();
            let edit = if survivors.is_empty() {
                Edit::delete(span.line)
            } else {
                Edit::replace(span.line, format!("input {}", survivors.join(" ")))
            };
            d = d.with_suggestion(Suggestion::new(
                format!("drop `{name}` from the `input` declaration"),
                Applicability::MachineApplicable,
                vec![edit],
            ));
        }
        diags.push(d);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ProbeInfo, StimulusInfo, SweepInfo};
    use crate::{check_circuit, check_logic};

    /// Two electrically separate SETs sharing only ground: leads 0/1
    /// drive island 2, leads 3/4 drive island 5.
    fn two_component_model() -> (CircuitModel, [ModelNode; 6]) {
        let mut m = CircuitModel::new();
        let l0 = m.add_lead_at(Span::line(1));
        let l1 = m.add_lead_at(Span::line(2));
        let i2 = m.add_island_at(Span::line(3));
        let l3 = m.add_lead_at(Span::line(4));
        let l4 = m.add_lead_at(Span::line(5));
        let i5 = m.add_island_at(Span::line(6));
        for (k, n) in [l0, l1, i2, l3, l4, i5].iter().enumerate() {
            m.set_label(*n, (k + 1).to_string());
        }
        m.add_junction_at(l0, i2, 1e-6, 1e-18, Span::line(1));
        m.add_junction_at(l1, i2, 1e-6, 1e-18, Span::line(2));
        let observed = m.add_junction_at(l3, i5, 1e-6, 1e-18, Span::line(4));
        m.add_junction_at(l4, i5, 1e-6, 1e-18, Span::line(5));
        m.mark_observed(observed, Span::line(7));
        m.set_lead_voltage(l0, 0.0, Span::line(1));
        m.set_lead_voltage(l1, 0.0, Span::line(2));
        m.set_lead_voltage(l3, 0.1, Span::line(4));
        m.set_lead_voltage(l4, -0.1, Span::line(5));
        (m, [l0, l1, i2, l3, l4, i5])
    }

    fn sweep_on(node: ModelNode, start: f64, end: f64) -> SweepInfo {
        SweepInfo {
            node,
            symm: None,
            start,
            end,
            step: 0.001,
            span: Span::line(8),
        }
    }

    #[test]
    fn disconnected_sweep_is_dead() {
        let (mut m, nodes) = two_component_model();
        m.set_sweep(sweep_on(nodes[0], 0.0, 0.01));
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadSweep)
            .expect("SC014");
        assert_eq!(d.span, Span::line(8));
        let fix = d.suggestion.as_ref().expect("machine fix");
        assert!(fix.is_machine_applicable());
        assert_eq!(fix.edits, vec![Edit::delete(8)]);
    }

    #[test]
    fn connected_sweep_is_alive() {
        let (mut m, nodes) = two_component_model();
        m.set_sweep(sweep_on(nodes[3], 0.1, 0.2));
        let diags = check_circuit(&m);
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::DeadSweep),
            "{diags:?}"
        );
    }

    #[test]
    fn probe_keeps_a_sweep_alive() {
        let (mut m, nodes) = two_component_model();
        m.observed.clear();
        m.add_probe(ProbeInfo {
            node: nodes[2],
            every: 10,
            span: Span::line(9),
        });
        m.set_sweep(sweep_on(nodes[0], 0.0, 0.01));
        let diags = check_circuit(&m);
        assert!(!diags.iter().any(|d| d.code == DiagCode::DeadSweep));
    }

    #[test]
    fn sub_cutoff_coupling_does_not_carry_influence() {
        let (mut m, nodes) = two_component_model();
        // A bridge far below COUPLING_EPS · C_max must not revive the
        // sweep on the disconnected component.
        m.add_capacitor_at(nodes[2], nodes[5], 1e-30, Span::line(10));
        m.set_sweep(sweep_on(nodes[0], 0.0, 0.01));
        let diags = check_circuit(&m);
        assert!(diags.iter().any(|d| d.code == DiagCode::DeadSweep));
        // At cutoff strength the same bridge carries influence.
        let (mut m2, nodes2) = two_component_model();
        m2.add_capacitor_at(nodes2[2], nodes2[5], 1e-18, Span::line(10));
        m2.set_sweep(sweep_on(nodes2[0], 0.0, 0.01));
        let diags2 = check_circuit(&m2);
        assert!(!diags2.iter().any(|d| d.code == DiagCode::DeadSweep));
    }

    #[test]
    fn fixed_leads_screen_influence() {
        // seed lead — island A — fixed lead — island B: the fixed lead
        // holds its potential, so B is not influenced through it.
        let mut m = CircuitModel::new();
        let seed = m.add_lead_at(Span::line(1));
        let ia = m.add_island_at(Span::line(2));
        let fixed = m.add_lead_at(Span::line(3));
        let ib = m.add_island_at(Span::line(4));
        m.add_junction_at(seed, ia, 1e-6, 1e-18, Span::line(1));
        m.add_junction_at(ia, fixed, 1e-6, 1e-18, Span::line(2));
        let far = m.add_junction_at(fixed, ib, 1e-6, 1e-18, Span::line(3));
        m.add_junction_at(ib, ModelNode::GROUND, 1e-6, 1e-18, Span::line(4));
        m.add_capacitor_at(ia, ModelNode::GROUND, 1e-18, Span::line(5));
        m.mark_observed(far, Span::line(6));
        m.set_sweep(sweep_on(seed, 0.0, 0.01));
        let diags = check_circuit(&m);
        // The observed junction touches island B only through the fixed
        // lead; the fixed lead's own junction end is not influenced.
        assert!(diags.iter().any(|d| d.code == DiagCode::DeadSweep));
    }

    #[test]
    fn single_point_sweep_is_constant_foldable() {
        let (mut m, nodes) = two_component_model();
        m.set_sweep(sweep_on(nodes[3], 0.1, 0.1));
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConstantFoldableSweep)
            .expect("SC015");
        assert_eq!(d.span, Span::line(8));
        assert!(!diags.iter().any(|d| d.code == DiagCode::DeadSweep));
    }

    #[test]
    fn zero_time_jump_folds_into_vdc() {
        let (mut m, nodes) = two_component_model();
        m.add_stimulus(StimulusInfo {
            node: nodes[1],
            time: 0.0,
            voltage: 0.05,
            span: Span::line(9),
        });
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConstantFoldableSweep)
            .expect("SC015 fold");
        let fix = d.suggestion.as_ref().expect("fold fix");
        assert_eq!(
            fix.edits,
            vec![Edit::replace(2, "vdc 2 0.05"), Edit::delete(9)]
        );
    }

    #[test]
    fn zero_time_jump_on_swept_lead_kills_the_sweep() {
        let (mut m, nodes) = two_component_model();
        m.set_sweep(sweep_on(nodes[3], 0.1, 0.2));
        m.add_stimulus(StimulusInfo {
            node: nodes[3],
            time: 0.0,
            voltage: 0.05,
            span: Span::line(9),
        });
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadSweep)
            .expect("SC014 override facet");
        assert_eq!(d.span, Span::line(9));
    }

    #[test]
    fn conflicting_jumps_are_an_error_fixed_by_deleting_the_loser() {
        let (mut m, nodes) = two_component_model();
        m.add_stimulus(StimulusInfo {
            node: nodes[3],
            time: 1e-6,
            voltage: 0.02,
            span: Span::line(9),
        });
        m.add_stimulus(StimulusInfo {
            node: nodes[3],
            time: 1e-6,
            voltage: 0.03,
            span: Span::line(10),
        });
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConflictingStimuli)
            .expect("SC018");
        assert_eq!(d.severity, crate::Severity::Error);
        assert_eq!(d.span, Span::line(10));
        let fix = d.suggestion.as_ref().expect("fix");
        assert_eq!(fix.edits, vec![Edit::delete(9)]);
    }

    #[test]
    fn identical_duplicate_jump_is_sc015_not_sc018() {
        let (mut m, nodes) = two_component_model();
        for line in [9, 10] {
            m.add_stimulus(StimulusInfo {
                node: nodes[3],
                time: 1e-6,
                voltage: 0.02,
                span: Span::line(line),
            });
        }
        let diags = check_circuit(&m);
        assert!(!diags.iter().any(|d| d.code == DiagCode::ConflictingStimuli));
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConstantFoldableSweep)
            .expect("SC015 duplicate facet");
        assert_eq!(d.span, Span::line(10));
    }

    #[test]
    fn ground_and_constant_lead_probes_are_sc016() {
        let (mut m, nodes) = two_component_model();
        m.add_probe(ProbeInfo {
            node: ModelNode::GROUND,
            every: 5,
            span: Span::line(9),
        });
        m.add_probe(ProbeInfo {
            node: nodes[0],
            every: 5,
            span: Span::line(10),
        });
        m.add_probe(ProbeInfo {
            node: nodes[2],
            every: 5,
            span: Span::line(11),
        });
        let diags = check_circuit(&m);
        let lines: Vec<usize> = diags
            .iter()
            .filter(|d| d.code == DiagCode::ConstantProbe)
            .map(|d| d.span.line)
            .collect();
        assert_eq!(lines, vec![9, 10]);
    }

    #[test]
    fn swept_or_stepped_lead_probe_is_not_constant() {
        let (mut m, nodes) = two_component_model();
        m.set_sweep(sweep_on(nodes[0], 0.0, 0.01));
        m.add_stimulus(StimulusInfo {
            node: nodes[1],
            time: 1e-6,
            voltage: 0.01,
            span: Span::line(9),
        });
        m.add_probe(ProbeInfo {
            node: nodes[0],
            every: 5,
            span: Span::line(10),
        });
        m.add_probe(ProbeInfo {
            node: nodes[1],
            every: 5,
            span: Span::line(11),
        });
        let diags = check_circuit(&m);
        assert!(!diags.iter().any(|d| d.code == DiagCode::ConstantProbe));
    }

    #[test]
    fn theta_outside_regime_is_sc017_with_tightening_fix() {
        let (mut m, _) = two_component_model();
        // CΣ = 2 aF → E_C ≈ 6.4e-21 J; at 0.1 K, kT ≈ 1.38e-24 J:
        // θ = 0.3 gives θ·E_C/kT ≈ 1400 ≫ 10.
        m.set_temperature(0.1);
        m.set_adaptive(0.3, 1000, Span::line(9));
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::AdaptiveThresholdRegime)
            .expect("SC017");
        let fix = d.suggestion.as_ref().expect("fix");
        assert!(fix.is_machine_applicable());
        let Some(text) = &fix.edits[0].replacement else {
            panic!("replacement edit expected")
        };
        // The suggested θ must itself be inside the envelope.
        let theta: f64 = text
            .split_whitespace()
            .nth(1)
            .expect("adaptive θ token")
            .parse()
            .expect("numeric θ");
        let e_c = max_charging_energy(&m).expect("islands exist");
        assert!(theta * e_c / (K_B * 0.1) <= THETA_KT_LIMIT);
    }

    #[test]
    fn theta_inside_regime_is_clean() {
        let (mut m, _) = two_component_model();
        // 5 K: kT ≈ 6.9e-23 J, E_C ≈ 6.4e-21 J → θ = 0.05 gives ≈ 4.6.
        m.set_temperature(5.0);
        m.set_adaptive(0.05, 1000, Span::line(9));
        let diags = check_circuit(&m);
        assert!(
            !diags
                .iter()
                .any(|d| d.code == DiagCode::AdaptiveThresholdRegime),
            "{diags:?}"
        );
    }

    #[test]
    fn adaptive_at_zero_temperature_warns_without_machine_fix() {
        let (mut m, _) = two_component_model();
        m.set_adaptive(0.05, 1000, Span::line(9));
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::AdaptiveThresholdRegime)
            .expect("SC017 at T = 0");
        let fix = d.suggestion.as_ref().expect("display-only fix");
        assert!(!fix.is_machine_applicable());
    }

    #[test]
    fn zero_refresh_interval_gets_explicit_clamp_fix() {
        let (mut m, _) = two_component_model();
        m.set_temperature(5.0);
        m.set_adaptive(0.05, 0, Span::line(9));
        let diags = check_circuit(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::AdaptiveThresholdRegime)
            .expect("SC017 refresh facet");
        let fix = d.suggestion.as_ref().expect("fix");
        assert_eq!(fix.edits, vec![Edit::replace(9, "adaptive 0.05 1")]);
    }

    #[test]
    fn dead_logic_input_reported_with_rewrite() {
        let mut m = LogicModel::new();
        m.add_input_at("a", Span::line(1));
        m.add_input_at("c", Span::line(1));
        m.add_output_at("y", Span::line(2));
        m.add_gate_at("y", ["a"], Span::line(3));
        let diags = check_logic(&m);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadSweep)
            .expect("SC014 logic facet");
        assert_eq!(d.span, Span::line(1));
        assert!(d.message.contains("`c`"));
        let fix = d.suggestion.as_ref().expect("fix");
        assert_eq!(fix.edits, vec![Edit::replace(1, "input a")]);
    }

    #[test]
    fn live_inputs_are_not_dead() {
        let mut m = LogicModel::new();
        m.add_input("a");
        m.add_input("b");
        m.add_output("y");
        m.add_gate("t", ["a", "b"]);
        m.add_gate("y", ["t"]);
        assert!(check_logic(&m).is_empty());
    }

    #[test]
    fn output_aliasing_input_is_live() {
        let mut m = LogicModel::new();
        m.add_input_at("a", Span::line(1));
        m.add_output_at("a", Span::line(2));
        let diags = check_logic(&m);
        assert!(!diags.iter().any(|d| d.code == DiagCode::DeadSweep));
    }
}
