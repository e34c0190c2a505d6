//! Electrical checks over an abstract circuit graph.

use crate::ir::CircuitModel;
use crate::{DiagCode, Diagnostic, Diagnostics, Span};

/// Condition-number estimate above which the capacitance matrix is
/// reported as numerically near-singular (SC003). `f64` carries ~16
/// digits; κ₁ ≈ 1e12 leaves fewer than 4 trustworthy digits in island
/// potentials, which is marginal for free-energy differences.
pub const CONDITION_THRESHOLD: f64 = 1e12;

/// Runs the electrical checks: SC001 (floating islands), SC002
/// (singular capacitance matrix), SC003 (ill-conditioned capacitance
/// matrix), SC005 (tunnel-unreachable islands), and — when the model
/// carries dataflow facts — the influence-reachability diagnostics
/// SC014–SC018 (the `reach` pass).
pub fn check_circuit(model: &CircuitModel) -> Diagnostics {
    let mut diags = Diagnostics::new();

    // SC001: capacitive connectivity. Zero-valued capacitances do not
    // couple anything, so they are excluded from the walk.
    let floating = model.unreached_islands(|e| e.capacitance > 0.0);
    for &node in &floating {
        diags.push(Diagnostic::new(
            DiagCode::FloatingIsland,
            format!(
                "{} has no capacitive path to any lead or ground; its potential is undetermined",
                model.describe(node)
            ),
            model.span_for(node),
        ));
    }

    // SC002 / SC003: only meaningful when the connectivity is sound —
    // a floating island already implies a singular matrix.
    if floating.is_empty() && model.island_count() > 0 {
        // Matrix-level findings are anchored to the largest capacitance:
        // both exact singularity and ill-conditioning come from extreme
        // capacitance ratios, and the dominant edge is the culprit.
        let dominant = model
            .edges
            .iter()
            .max_by(|x, y| x.capacitance.total_cmp(&y.capacitance))
            .map_or(Span::NONE, |e| e.span);
        let c = model.capacitance_matrix();
        match c.lu() {
            Err(_) => diags.push(Diagnostic::new(
                DiagCode::SingularCapacitanceMatrix,
                "island capacitance matrix is numerically singular; \
                 the capacitance ratios exceed what f64 can resolve",
                dominant,
            )),
            Ok(lu) => {
                let cond = lu
                    .inverse_norm_one_estimate()
                    .map_or(f64::INFINITY, |inv| (c.norm_one() * inv).max(1.0));
                if cond > CONDITION_THRESHOLD {
                    diags.push(Diagnostic::new(
                        DiagCode::IllConditionedCMatrix,
                        format!(
                            "island capacitance matrix is ill-conditioned \
                             (κ₁ ≈ {cond:.2e} > {CONDITION_THRESHOLD:.0e}); \
                             island potentials may lose most significant digits"
                        ),
                        dominant,
                    ));
                }
            }
        }
    }

    // SC005: tunnel reachability. An island only coupled through plain
    // capacitors holds its charge forever — legal, but usually a typo.
    for node in model.unreached_islands(|e| e.tunnel && e.capacitance > 0.0) {
        if floating.contains(&node) {
            continue; // already reported as the harder SC001
        }
        diags.push(Diagnostic::new(
            DiagCode::UnreachableNode,
            format!(
                "{} has no tunnel-junction path to any lead or ground; \
                 its charge can never change",
                model.describe(node)
            ),
            model.span_for(node),
        ));
    }

    // SC014–SC018: dataflow/influence diagnostics over the same model.
    diags.extend(crate::reach::check_influence(model));

    diags.sort();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ModelNode;

    fn well_formed_pair() -> CircuitModel {
        let mut m = CircuitModel::new();
        let lead = m.add_lead();
        let isl = m.add_island();
        m.add_junction(lead, isl, 1e-6, 1e-18);
        m.add_junction(isl, ModelNode::GROUND, 1e-6, 1e-18);
        m
    }

    #[test]
    fn clean_circuit_has_no_findings() {
        assert!(check_circuit(&well_formed_pair()).is_empty());
    }

    #[test]
    fn floating_island_reported() {
        let mut m = well_formed_pair();
        let orphan = m.add_island_at(Span::line(7));
        m.set_label(orphan, "9");
        let diags = check_circuit(&m);
        assert!(diags.has_errors());
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::FloatingIsland)
            .expect("SC001");
        assert_eq!(d.span, Span::line(7));
        assert!(d.message.contains("node 9"));
    }

    #[test]
    fn island_cluster_without_external_coupling_is_floating() {
        let mut m = well_formed_pair();
        let a = m.add_island();
        let b = m.add_island();
        m.add_junction(a, b, 1e-6, 1e-18);
        let diags = check_circuit(&m);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == DiagCode::FloatingIsland)
                .count(),
            2
        );
    }

    #[test]
    fn capacitor_only_island_is_unreachable_not_floating() {
        let mut m = well_formed_pair();
        let isl = m.add_island_at(Span::line(3));
        m.add_capacitor(isl, ModelNode::GROUND, 1e-18);
        let diags = check_circuit(&m);
        assert!(!diags.has_errors());
        assert!(diags.iter().any(|d| d.code == DiagCode::UnreachableNode));
    }

    #[test]
    fn huge_capacitance_spread_is_ill_conditioned() {
        let mut m = CircuitModel::new();
        let lead = m.add_lead();
        let a = m.add_island();
        let b = m.add_island();
        // Strong island–island coupling with vanishing anchors to the
        // outside: eigenvalues ≈ {2, 1e-15} → κ ≈ 2e15.
        m.add_junction(lead, a, 1e-6, 1e-15);
        m.add_junction(a, b, 1e-6, 1.0);
        m.add_junction(b, ModelNode::GROUND, 1e-6, 1e-15);
        let diags = check_circuit(&m);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::IllConditionedCMatrix));
        assert!(!diags.has_errors());
    }

    #[test]
    fn ground_only_circuit_is_fine() {
        let mut m = CircuitModel::new();
        let isl = m.add_island();
        m.add_junction(isl, ModelNode::GROUND, 1e-6, 1e-18);
        assert!(check_circuit(&m).is_empty());
    }
}
