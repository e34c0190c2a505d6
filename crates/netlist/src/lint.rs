//! Static analysis of parsed netlists: builds the abstract
//! `semsim-check` models from [`CircuitFile`] / [`RawLogicFile`] and
//! adds the directive-level checks (SC004, SC008–SC013) that need
//! netlist vocabulary.

use std::collections::HashMap;

use semsim_check::{
    check_circuit, check_logic, Applicability, CircuitModel, DiagCode, Diagnostic, Diagnostics,
    Edit, LogicModel, ModelNode, ProbeInfo, Severity, Span, StimulusInfo, Suggestion, SweepInfo,
};

use crate::{CircuitFile, LintAllow, RawLogicFile};

/// Boltzmann constant in eV/K, for the BCS gap relation in file units.
const KB_EV: f64 = 8.617_333_262e-5;

/// Relative deviation of `gap` from the BCS weak-coupling value
/// `1.764·kB·Tc` above which SC009's warning facet fires. Strong-coupling
/// superconductors reach ~2.2·kB·Tc (25% above BCS), so the gate sits
/// just beyond that.
const BCS_GAP_TOLERANCE: f64 = 0.35;

/// Point-count cap for SC010: a sweep beyond this many points is a
/// runaway — more Monte Carlo work than any I–V plot can use.
const MAX_SWEEP_POINTS: f64 = 1e6;

/// Task-count threshold for SC012: a batch of more than this many
/// points (sweep grid × ensemble runs) without a `journal` declaration
/// loses everything on a crash.
const UNJOURNALED_TASKS: f64 = 1000.0;

/// First source line mentioning each node number, for spanned
/// node-level diagnostics.
fn first_mention(file: &CircuitFile) -> HashMap<usize, usize> {
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let mut note = |node: usize, line: usize| {
        seen.entry(node).or_insert(line);
    };
    for (j, &line) in file.junctions.iter().zip(&file.spans.junctions) {
        note(j.node_a, line);
        note(j.node_b, line);
    }
    for (c, &line) in file.capacitors.iter().zip(&file.spans.capacitors) {
        note(c.node_a, line);
        note(c.node_b, line);
    }
    for (&(n, _), &line) in file.sources.iter().zip(&file.spans.sources) {
        note(n, line);
    }
    for (&(n, _), &line) in file.charges.iter().zip(&file.spans.charges) {
        note(n, line);
    }
    seen
}

/// Builds the abstract electrical model of a circuit file: `vdc` nodes
/// become leads, node 0 is ground, everything else is an island. On top
/// of the topology, every dataflow fact the file carries — source
/// values, the swept parameter, stimuli, probes, recorded junctions —
/// is registered so the influence-reachability checks (SC014–SC018)
/// can run.
fn circuit_model(file: &CircuitFile) -> CircuitModel {
    let mut model = CircuitModel::new();
    let mentions = first_mention(file);
    let sources = file.source_nodes();
    let mut nodes: HashMap<usize, ModelNode> = HashMap::new();
    nodes.insert(0, ModelNode::GROUND);
    for n in file.node_numbers() {
        let span = Span::line(mentions.get(&n).copied().unwrap_or(0));
        let node = if sources.contains(&n) {
            model.add_lead_at(span)
        } else {
            model.add_island_at(span)
        };
        model.set_label(node, n.to_string());
        nodes.insert(n, node);
    }
    let mut junction_edges = Vec::with_capacity(file.junctions.len());
    for (j, &line) in file.junctions.iter().zip(&file.spans.junctions) {
        junction_edges.push(model.add_junction_at(
            nodes[&j.node_a],
            nodes[&j.node_b],
            j.conductance,
            j.capacitance,
            Span::line(line),
        ));
    }
    for (c, &line) in file.capacitors.iter().zip(&file.spans.capacitors) {
        model.add_capacitor_at(
            nodes[&c.node_a],
            nodes[&c.node_b],
            c.capacitance,
            Span::line(line),
        );
    }

    // Dataflow facts.
    model.set_temperature(file.temperature);
    for (&(n, v), &line) in file.sources.iter().zip(&file.spans.sources) {
        if let Some(&node) = nodes.get(&n).filter(|_| n != 0) {
            model.set_lead_voltage(node, v, Span::line(line));
        }
    }
    if let Some((threshold, refresh)) = file.adaptive {
        model.set_adaptive(threshold, refresh, Span::line(file.spans.adaptive));
    }
    if let Some(spec) = &file.sweep {
        if let Some(&node) = nodes.get(&spec.node) {
            let start = file
                .sources
                .iter()
                .find(|&&(n, _)| n == spec.node)
                .map_or(0.0, |&(_, v)| v);
            model.set_sweep(SweepInfo {
                node,
                symm: file
                    .symmetric_with
                    .and_then(|s| nodes.get(&s).copied())
                    .filter(|s| *s != node),
                start,
                end: spec.end,
                step: spec.step,
                span: Span::line(file.spans.sweep),
            });
        }
    }
    for (j, &line) in file.stimuli.iter().zip(&file.spans.stimuli) {
        if let Some(&node) = nodes.get(&j.node) {
            model.add_stimulus(StimulusInfo {
                node,
                time: j.time,
                voltage: j.voltage,
                span: Span::line(line),
            });
        }
    }
    for (p, &line) in file.probes.iter().zip(&file.spans.probes) {
        if let Some(&node) = nodes.get(&p.node) {
            model.add_probe(ProbeInfo {
                node,
                every: p.every,
                span: Span::line(line),
            });
        }
    }
    match &file.record {
        Some(r) => {
            let span = Span::line(file.spans.record);
            for (j, &edge) in file.junctions.iter().zip(&junction_edges) {
                if (r.from..=r.to).contains(&j.id) {
                    model.mark_observed(edge, span);
                }
            }
        }
        None => {
            // Without an explicit `record`, the engine's default output
            // covers every junction: all of them are observables.
            for (&edge, &line) in junction_edges.iter().zip(&file.spans.junctions) {
                model.mark_observed(edge, Span::line(line));
            }
        }
    }
    model
}

/// Error facets of SC016/SC018 that the abstract model cannot express:
/// a `jump` or `probe` naming a node number the circuit never declares.
/// (A `jump` targeting an existing island is caught downstream by the
/// influence analysis.)
fn check_dataflow_refs(file: &CircuitFile, diags: &mut Diagnostics) {
    let known = file.node_numbers();
    for (j, &line) in file.stimuli.iter().zip(&file.spans.stimuli) {
        if j.node != 0 && !known.contains(&j.node) {
            diags.push(
                Diagnostic::new(
                    DiagCode::ConflictingStimuli,
                    format!(
                        "`jump` names node {}, which the circuit never declares",
                        j.node
                    ),
                    Span::line(line),
                )
                .with_severity(Severity::Error),
            );
        }
    }
    for (p, &line) in file.probes.iter().zip(&file.spans.probes) {
        if p.node != 0 && !known.contains(&p.node) {
            diags.push(
                Diagnostic::new(
                    DiagCode::ConstantProbe,
                    format!(
                        "`probe` names node {}, which the circuit never declares",
                        p.node
                    ),
                    Span::line(line),
                )
                .with_severity(Severity::Error),
            );
        }
    }
}

/// Drops findings suppressed by `lint: allow` pragmas: a file-wide
/// pragma (line 0) silences the code everywhere, a trailing pragma only
/// on its own line.
fn apply_allows(diags: &mut Diagnostics, allows: &[LintAllow]) {
    if allows.is_empty() {
        return;
    }
    diags.retain(|d| {
        !allows
            .iter()
            .any(|a| a.code == d.code.code() && (a.line == 0 || a.line == d.span.line))
    });
}

/// SC004: parameters the parser's sign checks cannot catch — values
/// that overflowed to infinity (`1e999` parses as `inf`, and `inf > 0`
/// holds) or NaN temperatures (`NaN < 0` is false).
fn check_parameters(file: &CircuitFile, diags: &mut Diagnostics) {
    for (j, &line) in file.junctions.iter().zip(&file.spans.junctions) {
        if !j.conductance.is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonPositiveParameter,
                format!("junction {} conductance is not finite", j.id),
                Span::line(line),
            ));
        }
        if !j.capacitance.is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonPositiveParameter,
                format!("junction {} capacitance is not finite", j.id),
                Span::line(line),
            ));
        }
    }
    for (c, &line) in file.capacitors.iter().zip(&file.spans.capacitors) {
        if !c.capacitance.is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonPositiveParameter,
                format!(
                    "capacitor between nodes {} and {} is not finite",
                    c.node_a, c.node_b
                ),
                Span::line(line),
            ));
        }
    }
    if !file.temperature.is_finite() {
        diags.push(Diagnostic::new(
            DiagCode::NonPositiveParameter,
            "temperature is not a finite number",
            Span::line(file.spans.temp),
        ));
    }
    if let Some(s) = &file.superconducting {
        if !(s.gap_ev > 0.0) || !s.gap_ev.is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonPositiveParameter,
                format!(
                    "superconducting gap must be positive and finite, got {}",
                    s.gap_ev
                ),
                Span::line(file.spans.gap),
            ));
        }
        if !(s.tc > 0.0) || !s.tc.is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonPositiveParameter,
                format!(
                    "critical temperature must be positive and finite, got {}",
                    s.tc
                ),
                Span::line(file.spans.tc),
            ));
        }
    }
}

/// SC008: `symm` must name a `vdc` node (error), and under a sweep the
/// symmetric node's junction set should mirror the swept node's
/// (warning) — asymmetric devices give misleading symmetric-bias I–V.
fn check_symmetry(file: &CircuitFile, diags: &mut Diagnostics) {
    let Some(symm) = file.symmetric_with else {
        return;
    };
    let span = Span::line(file.spans.symm);
    if !file.source_nodes().contains(&symm) {
        diags.push(
            Diagnostic::new(
                DiagCode::AsymmetricSymmJunction,
                format!("`symm {symm}` names a node with no `vdc` source"),
                span,
            )
            .with_severity(Severity::Error),
        );
        return;
    }
    let Some(sweep) = &file.sweep else {
        return;
    };
    let incident = |node: usize| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = file
            .junctions
            .iter()
            .filter(|j| j.node_a == node || j.node_b == node)
            .map(|j| (j.conductance.to_bits(), j.capacitance.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    if incident(symm) != incident(sweep.node) {
        diags.push(
            Diagnostic::new(
                DiagCode::AsymmetricSymmJunction,
                format!(
                    "symmetric bias pairs node {symm} with swept node {}, but their \
                     attached junctions differ; the ±V bias will not be symmetric",
                    sweep.node
                ),
                span,
            )
            .with_severity(Severity::Warning),
        );
    }
}

/// SC009: superconducting parameters must be mutually consistent —
/// `temp < tc` (error: above Tc the film is normal and the gap closes)
/// and `gap ≈ 1.764·kB·Tc` (warning: BCS weak-coupling relation).
fn check_superconducting(file: &CircuitFile, diags: &mut Diagnostics) {
    let Some(s) = &file.superconducting else {
        return;
    };
    if !s.gap_ev.is_finite() || !s.tc.is_finite() || !(s.tc > 0.0) || !(s.gap_ev > 0.0) {
        return; // already reported as SC004
    }
    if file.temperature >= s.tc {
        diags.push(
            Diagnostic::new(
                DiagCode::SuperconductingGapMismatch,
                format!(
                    "temperature {} K is at or above the critical temperature {} K; \
                 the electrodes are normal and `super` does not apply",
                    file.temperature, s.tc
                ),
                Span::line(if file.spans.temp > 0 {
                    file.spans.temp
                } else {
                    file.spans.tc
                }),
            )
            .with_severity(Severity::Error),
        );
        return;
    }
    let bcs = 1.764 * KB_EV * s.tc;
    let dev = (s.gap_ev - bcs).abs() / bcs;
    if dev > BCS_GAP_TOLERANCE {
        diags.push(Diagnostic::new(
            DiagCode::SuperconductingGapMismatch,
            format!(
                "gap {:.3e} eV deviates {:.0}% from the BCS value 1.764·kB·Tc = {:.3e} eV \
                 for Tc = {} K; check the units of `gap` or `tc`",
                s.gap_ev,
                dev * 100.0,
                bcs,
                s.tc
            ),
            Span::line(file.spans.gap),
        ));
    }
}

/// SC010: a degenerate or runaway `sweep`. A zero or non-finite step
/// can never form a voltage grid (error; the parser rejects it too, but
/// programmatically built files reach lint directly). A step pointing
/// away from the end voltage is suspicious but recoverable (warning:
/// the compiled sweep auto-corrects the direction). A grid of more than
/// [`MAX_SWEEP_POINTS`] points is a runaway simulation request (error).
///
/// Also SC013: a range that is not an integer multiple of the step
/// (warning) — the compiled grid keeps the exact step for interior
/// points, so the final interval must stretch or shrink to land on the
/// end voltage.
fn check_sweep(file: &CircuitFile, diags: &mut Diagnostics) {
    let Some(spec) = &file.sweep else {
        return;
    };
    let span = Span::line(file.spans.sweep);
    if spec.step == 0.0 || !spec.step.is_finite() {
        diags.push(Diagnostic::new(
            DiagCode::RunawaySweep,
            format!("sweep step {} cannot form a voltage grid", spec.step),
            span,
        ));
        return;
    }
    let start = file
        .sources
        .iter()
        .find(|&&(n, _)| n == spec.node)
        .map_or(0.0, |&(_, v)| v);
    let distance = spec.end - start;
    if distance != 0.0 && distance.signum() != spec.step.signum() {
        let mut d = Diagnostic::new(
            DiagCode::RunawaySweep,
            format!(
                "sweep step {} points away from the end voltage {} (start {start}); \
                 the compiled sweep auto-corrects the direction",
                spec.step, spec.end
            ),
            span,
        )
        .with_severity(Severity::Warning);
        if span.is_known() {
            // The compiled sweep already flips the sign, so writing the
            // corrected sign into the file changes nothing downstream.
            d = d.with_suggestion(Suggestion::new(
                "flip the step sign to match the sweep direction",
                Applicability::MachineApplicable,
                vec![Edit::replace(
                    span.line,
                    format!("sweep {} {} {}", spec.node, spec.end, -spec.step),
                )],
            ));
        }
        diags.push(d);
    }
    let points = (distance / spec.step).abs();
    if points > MAX_SWEEP_POINTS {
        diags.push(Diagnostic::new(
            DiagCode::RunawaySweep,
            format!(
                "sweep from {start} to {} in steps of {} takes {points:.0} points \
                 (limit {MAX_SWEEP_POINTS:.0})",
                spec.end, spec.step
            ),
            span,
        ));
        return;
    }
    // SC013: a range that is not an integer multiple of the step cannot
    // form a uniform grid — the compiled sweep lands exactly on the end
    // voltage by adjusting the final interval.
    let frac = (points - points.round()).abs();
    if distance != 0.0 && frac > 1e-6 * points.max(1.0) {
        let mut d = Diagnostic::new(
            DiagCode::NonUniformSweepGrid,
            format!(
                "sweep range {distance:e} is not an integer multiple of step {:e}; the \
                 grid keeps the exact step but the final interval is adjusted to land \
                 on {} — shrink the step or move the end voltage for a uniform grid",
                spec.step, spec.end
            ),
            span,
        );
        if span.is_known() {
            // Snap the end voltage to the nearest whole number of
            // steps. Moves the declared end, so a human should look.
            let snapped = start + spec.step.abs().copysign(distance) * points.round();
            d = d.with_suggestion(Suggestion::new(
                "move the end voltage to the nearest whole number of steps",
                Applicability::MaybeIncorrect,
                vec![Edit::replace(
                    span.line,
                    format!("sweep {} {} {}", spec.node, snapped, spec.step),
                )],
            ));
        }
        diags.push(d);
    }
}

/// SC011: a degenerate ensemble request. `jumps <events> <runs>` with
/// `1 < runs ≤ TASK_CHUNK` declares a Monte Carlo ensemble so small it
/// fits inside a single worker's task chunk
/// ([`semsim_core::par::TASK_CHUNK`]): the parallel drivers hand all
/// replicas to one thread, so the extra replicas serialize — the run
/// count should either be 1 (no ensemble) or large enough to spread
/// across threads.
fn check_ensemble(file: &CircuitFile, diags: &mut Diagnostics) {
    let Some((_, runs)) = file.jumps else {
        return;
    };
    let chunk = semsim_core::par::TASK_CHUNK as u32;
    if runs > 1 && runs <= chunk {
        diags.push(Diagnostic::new(
            DiagCode::DegenerateEnsemble,
            format!(
                "`jumps` requests an ensemble of {runs} runs, which fits in a single \
                 worker's task chunk ({chunk}); the replicas will serialize on one \
                 thread — use 1 run, or more than {chunk} for parallel speedup"
            ),
            Span::line(file.spans.jumps),
        ));
    }
}

/// SC012: a long batch with no journal. With more than
/// [`UNJOURNALED_TASKS`] points (sweep grid × ensemble runs) and no
/// `journal` declaration, a crash at hour N discards every completed
/// point; journaled execution would resume from the crash instead.
fn check_journal(file: &CircuitFile, diags: &mut Diagnostics) {
    if file.journal.is_some() {
        return;
    }
    let grid_points = match &file.sweep {
        Some(spec) if spec.step != 0.0 && spec.step.is_finite() => {
            let start = file
                .sources
                .iter()
                .find(|&&(n, _)| n == spec.node)
                .map_or(0.0, |&(_, v)| v);
            crate::compile::sweep_grid_len(start, spec.end, spec.step) as f64
        }
        Some(_) => return, // degenerate step: SC010 owns the report
        None => 1.0,
    };
    let runs = file.jumps.map_or(1, |(_, r)| r.max(1)) as f64;
    let tasks = grid_points * runs;
    if tasks <= UNJOURNALED_TASKS {
        return;
    }
    let span = Span::line(if file.sweep.is_some() {
        file.spans.sweep
    } else {
        file.spans.jumps
    });
    let mut d = Diagnostic::new(
        DiagCode::UnjournaledLongSweep,
        format!(
            "this run computes {tasks:.0} points (limit {UNJOURNALED_TASKS:.0} without a \
             journal) and a crash would discard all of them; add `journal <path>` or pass \
             `--journal` to make it resumable"
        ),
        span,
    );
    if span.is_known() {
        // Re-emit the anchoring directive and append a `journal` line
        // after it. The path is a guess, hence maybe-incorrect.
        let anchor = match (&file.sweep, file.jumps) {
            (Some(s), _) if span.line == file.spans.sweep => {
                format!("sweep {} {} {}", s.node, s.end, s.step)
            }
            (_, Some((e, r))) => format!("jumps {e} {r}"),
            _ => return,
        };
        d = d.with_suggestion(Suggestion::new(
            "journal the batch so a crash resumes instead of restarting",
            Applicability::MaybeIncorrect,
            vec![Edit::replace(
                span.line,
                format!("{anchor}\njournal run.jl"),
            )],
        ));
    }
    diags.push(d);
}

/// Runs every circuit-level check: the electrical analyses of
/// `semsim-check` (SC001–SC003, SC005), the influence-reachability
/// diagnostics (SC014–SC018), and the directive-level checks (SC004,
/// SC008–SC013). `lint: allow` pragmas are honored. Pure inspection —
/// never fails.
pub fn lint_circuit(file: &CircuitFile) -> Diagnostics {
    let mut diags = check_circuit(&circuit_model(file));
    check_parameters(file, &mut diags);
    check_symmetry(file, &mut diags);
    check_superconducting(file, &mut diags);
    check_sweep(file, &mut diags);
    check_ensemble(file, &mut diags);
    check_journal(file, &mut diags);
    check_dataflow_refs(file, &mut diags);
    apply_allows(&mut diags, &file.allows);
    diags.sort();
    diags
}

/// Runs the structural checks (SC006, SC007) and dead-input analysis
/// (SC014) on a raw logic netlist, honoring `lint: allow` pragmas.
pub fn lint_logic(raw: &RawLogicFile) -> Diagnostics {
    let mut model = LogicModel::new();
    for (name, line) in &raw.inputs {
        model.add_input_at(name.clone(), Span::line(*line));
    }
    for (name, line) in &raw.outputs {
        model.add_output_at(name.clone(), Span::line(*line));
    }
    for (gate, line) in &raw.gates {
        model.add_gate_at(
            gate.output.clone(),
            gate.inputs.iter().cloned(),
            Span::line(*line),
        );
    }
    let mut diags = check_logic(&model);
    apply_allows(&mut diags, &raw.allows);
    diags.sort();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_file_lints_clean() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn floating_island_spans_its_first_mention() {
        // Node 7 only appears in the charge directive on line 3.
        let f = CircuitFile::parse(
            "junc 1 0 2 1e-6 1e-18\nvdc 1 0.0\ncharge 7 0.5\njunc 2 2 1 1e-6 1e-18\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::FloatingIsland)
            .expect("SC001");
        assert_eq!(d.span.line, 3);
    }

    #[test]
    fn overflowed_conductance_is_sc004() {
        let f = CircuitFile::parse("junc 1 0 2 1e999 1e-18\nvdc 1 0.0\njunc 2 2 1 1e-6 1e-18\n")
            .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::NonPositiveParameter)
            .expect("SC004");
        assert_eq!(d.span.line, 1);
        assert!(diags.has_errors());
    }

    #[test]
    fn symm_without_vdc_is_sc008() {
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\nvdc 1 0.01\nsymm 5\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::AsymmetricSymmJunction)
            .expect("SC008");
        assert_eq!(d.span.line, 4);
    }

    #[test]
    fn asymmetric_mirror_warns() {
        // symm 1 pairs with swept node 2, but node 1's junction has a
        // different capacitance than node 2's.
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 2e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\nsymm 1\nsweep 2 0.02 0.01\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::AsymmetricSymmJunction)
            .expect("SC008 warning");
        assert_eq!(d.severity, Severity::Warning);
        assert!(!diags.has_errors());
    }

    #[test]
    fn temp_above_tc_is_sc009_error() {
        let f = CircuitFile::parse(
            "junc 1 0 2 1e-6 110e-18\njunc 2 2 1 1e-6 110e-18\nvdc 1 0.001\n\
             super\ngap 0.18e-3\ntc 1.2\ntemp 4.2\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::SuperconductingGapMismatch)
            .expect("SC009");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.line, 7);
    }

    #[test]
    fn gap_far_from_bcs_warns() {
        // Tc = 1.2 K → BCS gap ≈ 0.182 meV; declare 1 eV (unit slip).
        let f = CircuitFile::parse(
            "junc 1 0 2 1e-6 110e-18\njunc 2 2 1 1e-6 110e-18\nvdc 1 0.001\n\
             super\ngap 1.0\ntc 1.2\ntemp 0.05\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::SuperconductingGapMismatch)
            .expect("SC009 warning");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 5);
    }

    #[test]
    fn bcs_consistent_gap_is_clean() {
        // 1.764 · kB · 1.2 K ≈ 0.1825 meV.
        let f = CircuitFile::parse(
            "junc 1 0 2 1e-6 110e-18\njunc 2 2 1 1e-6 110e-18\nvdc 1 0.001\n\
             super\ngap 0.18e-3\ntc 1.2\ntemp 0.05\n",
        )
        .unwrap();
        assert!(lint_circuit(&f).is_empty());
    }

    #[test]
    fn zero_step_sweep_is_sc010_error() {
        // The parser rejects a zero step, so build the file in code —
        // the path a programmatic frontend would take.
        let mut f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\n",
        )
        .unwrap();
        f.sweep = Some(crate::SweepSpec {
            node: 2,
            end: 0.02,
            step: 0.0,
        });
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::RunawaySweep)
            .expect("SC010");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn wrong_sign_sweep_is_sc010_warning() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 -0.002\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::RunawaySweep)
            .expect("SC010 warning");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 8);
        assert!(!diags.has_errors());
    }

    #[test]
    fn runaway_point_count_is_sc010_error() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 1e-9\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::RunawaySweep)
            .expect("SC010");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.line, 8);
    }

    #[test]
    fn sane_sweep_is_clean() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.002\n",
        )
        .unwrap();
        assert!(lint_circuit(&f).is_empty());
    }

    #[test]
    fn non_multiple_sweep_range_is_sc013_warning() {
        // -0.02 → 0.02 is 0.04, not an integer multiple of 0.003.
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.003\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::NonUniformSweepGrid)
            .expect("SC013");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 8);
        assert!(!diags.has_errors());
    }

    #[test]
    fn integer_multiple_sweep_is_sc013_clean() {
        // 0.04 / 0.0001 = 400 whole steps despite inexact binary
        // representation of both numbers.
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.0001\n",
        )
        .unwrap();
        assert!(lint_circuit(&f).is_empty(), "{:?}", lint_circuit(&f));
    }

    #[test]
    fn degenerate_ensemble_is_sc011_warning() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\njumps 1000 2\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DegenerateEnsemble)
            .expect("SC011");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 8);
        assert!(!diags.has_errors());
    }

    #[test]
    fn single_run_and_large_ensembles_are_clean() {
        for runs in ["1", "5", "64"] {
            let f = CircuitFile::parse(&format!(
                "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
                 vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\njumps 1000 {runs}\n",
            ))
            .unwrap();
            assert!(lint_circuit(&f).is_empty(), "runs = {runs}");
        }
    }

    #[test]
    fn unjournaled_long_sweep_is_sc012_warning() {
        // -0.02 → 0.02 in 1e-5 steps = 4001 points, no journal.
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.00001\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::UnjournaledLongSweep)
            .expect("SC012");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 8);
        assert!(!diags.has_errors());
    }

    #[test]
    fn journal_directive_silences_sc012() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.00001\n\
             journal sweep.jl\n",
        )
        .unwrap();
        assert!(lint_circuit(&f).is_empty(), "{:?}", lint_circuit(&f));
    }

    #[test]
    fn unjournaled_large_ensemble_is_sc012() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\njumps 100 2000\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::UnjournaledLongSweep)
            .expect("SC012 for ensembles");
        assert_eq!(d.span.line, 8);
    }

    #[test]
    fn short_batches_need_no_journal() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.001\n",
        )
        .unwrap();
        assert!(lint_circuit(&f).is_empty());
    }

    #[test]
    fn logic_lint_reports_cycles_with_lines() {
        let raw = RawLogicFile::parse("input a\noutput y\nand y a x\nand x a y\n").unwrap();
        let diags = lint_logic(&raw);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::CombinationalLoop)
            .expect("SC006");
        assert_eq!(d.span.line, 3);
    }

    #[test]
    fn logic_lint_reports_undriven_with_lines() {
        let raw = RawLogicFile::parse("input a\noutput y\nand y a ghost\n").unwrap();
        let diags = lint_logic(&raw);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::UndrivenInput)
            .expect("SC007");
        assert_eq!(d.span.line, 3);
    }

    #[test]
    fn coupling_eps_matches_the_engine() {
        // The influence analysis restates the engine's screening cutoff
        // (the check crate cannot depend on semsim-core). This pins the
        // two constants together.
        assert_eq!(
            semsim_check::COUPLING_EPS,
            semsim_core::circuit::Circuit::COUPLING_EPS
        );
    }

    /// Two capacitively disconnected SET components; the sweep drives
    /// component A while `record` observes only component B.
    const DEAD_SWEEP: &str = "\
junc 1 1 3 1e-6 1e-18
junc 2 3 0 1e-6 1e-18
junc 3 2 4 1e-6 1e-18
junc 4 4 0 1e-6 1e-18
vdc 1 0.0
vdc 2 0.1
record 3 4 1
sweep 1 0.005 0.001
";

    #[test]
    fn dead_sweep_is_sc014_with_delete_fix() {
        let f = CircuitFile::parse(DEAD_SWEEP).unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadSweep)
            .expect("SC014");
        assert_eq!(d.span.line, 8);
        let s = d.suggestion.as_ref().expect("fix");
        assert_eq!(s.edits, vec![Edit::delete(8)]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn recording_the_swept_component_revives_the_sweep() {
        let f = CircuitFile::parse(&DEAD_SWEEP.replace("record 3 4 1", "record 1 2 1")).unwrap();
        let diags = lint_circuit(&f);
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::DeadSweep),
            "{diags:?}"
        );
    }

    #[test]
    fn file_wide_pragma_silences_sc014() {
        let f = CircuitFile::parse(&format!("* lint: allow SC014\n{DEAD_SWEEP}")).unwrap();
        let diags = lint_circuit(&f);
        assert!(!diags.iter().any(|d| d.code == DiagCode::DeadSweep));
    }

    #[test]
    fn line_scoped_pragma_silences_only_its_line() {
        let f = CircuitFile::parse(&DEAD_SWEEP.replace(
            "sweep 1 0.005 0.001",
            "sweep 1 0.005 0.001 # lint: allow SC014",
        ))
        .unwrap();
        assert!(!lint_circuit(&f)
            .iter()
            .any(|d| d.code == DiagCode::DeadSweep));
        // The same pragma on a different line must not suppress it.
        let f =
            CircuitFile::parse(&DEAD_SWEEP.replace("vdc 1 0.0", "vdc 1 0.0 # lint: allow SC014"))
                .unwrap();
        assert!(lint_circuit(&f)
            .iter()
            .any(|d| d.code == DiagCode::DeadSweep));
    }

    #[test]
    fn conflicting_jumps_are_sc018() {
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\nvdc 1 0.0\n\
             jump 1 1e-9 0.05\njump 1 1e-9 -0.05\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConflictingStimuli)
            .expect("SC018");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.line, 5);
        let s = d.suggestion.as_ref().expect("fix deletes the loser");
        assert_eq!(s.edits, vec![Edit::delete(4)]);
    }

    #[test]
    fn jump_on_undeclared_node_is_sc018_error() {
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\nvdc 1 0.0\njump 9 1e-9 0.05\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConflictingStimuli)
            .expect("SC018 unknown node");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("never declares"));
    }

    #[test]
    fn probe_on_undeclared_node_is_sc016_error() {
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\nvdc 1 0.0\nprobe 9 100\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConstantProbe)
            .expect("SC016 unknown node");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn constant_probe_is_sc016_warning() {
        // Probing a fixed vdc lead that is neither swept nor stepped.
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\nvdc 1 0.1\nprobe 1 100\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ConstantProbe)
            .expect("SC016");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 4);
    }

    #[test]
    fn theta_regime_violation_is_sc017() {
        // T = 0.1 K, E_C = e²/2·(2e-18 F) ≈ 40 µeV → E_C/kT ≈ 4645;
        // θ = 0.3 puts θ·E_C/kT far above the validity limit of 10.
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\nvdc 1 0.001\n\
             temp 0.1\nadaptive 0.3 1000\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::AdaptiveThresholdRegime)
            .expect("SC017");
        assert_eq!(d.span.line, 5);
        let s = d.suggestion.as_ref().expect("tightening fix");
        assert!(s.is_machine_applicable());
    }

    #[test]
    fn sign_flip_fix_attached_to_sc010_warning() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 -0.002\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::RunawaySweep)
            .expect("SC010 warning");
        let s = d.suggestion.as_ref().expect("sign-flip fix");
        assert!(s.is_machine_applicable());
        assert_eq!(s.edits, vec![Edit::replace(8, "sweep 2 0.02 0.002")]);
    }

    #[test]
    fn sc013_snap_fix_lands_on_a_whole_grid() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.003\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::NonUniformSweepGrid)
            .expect("SC013");
        let s = d.suggestion.as_ref().expect("snap fix");
        assert!(!s.is_machine_applicable());
        // Applying the snapped end must make SC013 go away.
        let text = s.edits[0].replacement.as_ref().unwrap();
        let snapped = CircuitFile::parse(&format!(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\n{text}\n"
        ))
        .unwrap();
        assert!(!lint_circuit(&snapped)
            .iter()
            .any(|d| d.code == DiagCode::NonUniformSweepGrid));
    }

    #[test]
    fn sc012_fix_inserts_a_journal_line() {
        let f = CircuitFile::parse(
            "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\n\
             vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\ntemp 5\nsweep 2 0.02 0.00001\n",
        )
        .unwrap();
        let diags = lint_circuit(&f);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::UnjournaledLongSweep)
            .expect("SC012");
        let s = d.suggestion.as_ref().expect("journal fix");
        let text = s.edits[0].replacement.as_ref().unwrap();
        assert!(text.contains('\n') && text.contains("journal"), "{text}");
    }

    #[test]
    fn linter_and_build_assemble_the_same_capacitance_matrix() {
        // SC002/SC003 factor the linter's `C`; they speak for the build
        // only if it is the very matrix the build factors.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut compared = 0;
        for dir in ["tests/fixtures/lint", "examples/netlists"] {
            for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|e| e != "cir") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).unwrap();
                let file = CircuitFile::parse(&text).unwrap();
                let Ok(compiled) = file.compile() else {
                    continue;
                };
                assert_eq!(
                    circuit_model(&file).capacitance_matrix(),
                    compiled.circuit.capacitance_matrix(),
                    "{}",
                    path.display()
                );
                compared += 1;
            }
        }
        assert!(compared >= 15, "only {compared} netlists compiled");
    }

    #[test]
    fn dead_logic_input_is_sc014() {
        let raw = RawLogicFile::parse("input a b\noutput y\ninv y a\n").unwrap();
        let diags = lint_logic(&raw);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadSweep)
            .expect("SC014 logic facet");
        assert_eq!(d.span.line, 1);
        let s = d.suggestion.as_ref().expect("rewrite fix");
        assert_eq!(s.edits, vec![Edit::replace(1, "input a")]);
    }

    #[test]
    fn logic_pragma_silences_sc014() {
        let raw =
            RawLogicFile::parse("* lint: allow SC014\ninput a b\noutput y\ninv y a\n").unwrap();
        assert!(lint_logic(&raw).is_empty());
    }
}
