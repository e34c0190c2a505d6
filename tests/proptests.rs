//! Property-style tests of the core invariants, spanning crates.
//! Plain seeded loops over randomly generated inputs.

use semsim::check::DiagCode;
use semsim::core::circuit::{Circuit, CircuitBuilder, NodeId};
use semsim::core::constants::K_B;
use semsim::core::energy::{delta_w, total_free_energy, CircuitState};
use semsim::core::fenwick::FenwickTree;
use semsim::core::rates::orthodox_rate;
use semsim::core::rng::Rng;
use semsim::core::CoreError;
use semsim::linalg::Matrix;
use semsim::quad::{occupancy_factor, LookupTable};

const CASES: usize = 64;

fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

/// A random well-posed ladder circuit: a chain of 1–6 islands between
/// two leads with random junction capacitances, random gate couplings
/// and random background charges.
fn arb_circuit(rng: &mut Rng) -> (Circuit, Vec<NodeId>) {
    let n = rng.gen_range(1..7);
    let caps: Vec<f64> = (0..12).map(|_| uniform(rng, 0.2, 5.0)).collect();
    let charges: Vec<f64> = (0..6).map(|_| uniform(rng, -0.9, 0.9)).collect();
    let bias = uniform(rng, -30e-3, 30e-3);

    let mut b = CircuitBuilder::new();
    let lead = b.add_lead(bias);
    let mut nodes = Vec::new();
    let mut prev = lead;
    for i in 0..n {
        let isl = b.add_island_with_charge(charges[i]);
        b.add_junction(prev, isl, 1e6, caps[2 * i] * 1e-18).unwrap();
        nodes.push(isl);
        prev = isl;
    }
    b.add_junction(prev, NodeId::GROUND, 1e6, caps[1] * 1e-18)
        .unwrap();
    // A gate on the first island keeps every circuit non-trivial.
    let gate = b.add_lead(5e-3);
    b.add_capacitor(gate, nodes[0], caps[2] * 1e-18).unwrap();
    (b.build().unwrap(), nodes)
}

#[test]
fn capacitance_inverse_is_consistent() {
    let mut rng = Rng::seed_from_u64(100);
    for case in 0..CASES {
        let (circuit, _nodes) = arb_circuit(&mut rng);
        let c = circuit.capacitance_matrix().to_dense();
        let n = c.rows();
        for r in 0..n {
            for col in 0..n {
                // (C·C⁻¹)[r][col] = row r of C dotted with column col of C⁻¹.
                let entry: f64 = circuit
                    .cinv_column(col)
                    .iter()
                    .map(|(k, x)| c.get(r, k) * x)
                    .sum();
                let want = if r == col { 1.0 } else { 0.0 };
                assert!((entry - want).abs() < 1e-9, "case {case} ({r},{col})");
                assert!(
                    (circuit.cinv(r, col) - circuit.cinv(col, r)).abs()
                        <= 1e-6 * circuit.cinv(0, 0).abs(),
                    "case {case}: C^-1 not symmetric"
                );
            }
        }
    }
}

#[test]
fn delta_w_is_the_discrete_free_energy_gradient() {
    let mut rng = Rng::seed_from_u64(101);
    for case in 0..CASES {
        let (circuit, nodes) = arb_circuit(&mut rng);
        let n_transfers = rng.gen_range(1..5);
        let mut state = CircuitState::new(&circuit);
        state.recompute_potentials(&circuit);
        for _ in 0..n_transfers {
            let from = nodes[rng.gen_range(0..nodes.len())];
            let to = nodes[rng.gen_range(0..nodes.len())];
            if from == to {
                continue;
            }
            let f0 = total_free_energy(&circuit, &state);
            let dw = delta_w(&circuit, &state, from, to, 1);
            state.apply_transfer(&circuit, from, to, 1);
            state.recompute_potentials(&circuit);
            let f1 = total_free_energy(&circuit, &state);
            let scale = dw.abs().max(f0.abs()).max(1e-25);
            assert!(((f1 - f0) - dw).abs() < 1e-9 * scale, "case {case}");
        }
    }
}

#[test]
fn forward_backward_deltas_cancel() {
    let mut rng = Rng::seed_from_u64(102);
    for case in 0..CASES {
        let (circuit, nodes) = arb_circuit(&mut rng);
        let mut state = CircuitState::new(&circuit);
        state.recompute_potentials(&circuit);
        let from = nodes[0];
        let to = NodeId::GROUND;
        let fw = delta_w(&circuit, &state, from, to, 1);
        state.apply_transfer(&circuit, from, to, 1);
        state.recompute_potentials(&circuit);
        let bw = delta_w(&circuit, &state, to, from, 1);
        let scale = fw.abs().max(1e-25);
        assert!((fw + bw).abs() < 1e-9 * scale, "case {case}");
    }
}

#[test]
fn orthodox_rate_detailed_balance() {
    let mut rng = Rng::seed_from_u64(103);
    for case in 0..CASES {
        let dw_mev = uniform(&mut rng, 0.01, 10.0);
        let temp = uniform(&mut rng, 0.05, 20.0);
        let dw = dw_mev * 1e-3 * semsim::core::constants::E_CHARGE;
        let kt = K_B * temp;
        let fw = orthodox_rate(dw, kt, 1e6);
        let bw = orthodox_rate(-dw, kt, 1e6);
        // Γ(ΔW)/Γ(−ΔW) = exp(−ΔW/kT); compare in log space to tolerate
        // underflow at large ΔW/kT.
        if fw > 0.0 && bw > 0.0 {
            let lhs = (fw / bw).ln();
            let rhs = -dw / kt;
            assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0), "case {case}");
        }
    }
}

#[test]
fn occupancy_factor_identity() {
    let mut rng = Rng::seed_from_u64(104);
    for case in 0..CASES {
        let x = uniform(&mut rng, -500.0, 500.0);
        // f(−x) − f(x) = x, everywhere.
        let lhs = occupancy_factor(-x) - occupancy_factor(x);
        assert!((lhs - x).abs() < 1e-9 * x.abs().max(1.0), "case {case}");
    }
}

#[test]
fn fenwick_matches_naive_prefix_sums() {
    let mut rng = Rng::seed_from_u64(105);
    for case in 0..CASES {
        let len = rng.gen_range(1..64);
        let weights: Vec<f64> = (0..len).map(|_| uniform(&mut rng, 0.0, 10.0)).collect();
        let u = rng.f64();
        let mut t = FenwickTree::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            t.set(i, w);
        }
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            assert!((t.prefix_sum(i) - acc).abs() < 1e-9, "case {case}");
        }
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            let idx = t.sample(u).unwrap();
            assert!(weights[idx] > 0.0, "case {case}: sampled zero-weight slot");
            // The sampled index must bracket u·total.
            let before: f64 = weights[..idx].iter().sum();
            let target = u * total;
            assert!(before <= target + 1e-9, "case {case}");
            assert!(before + weights[idx] >= target - 1e-9, "case {case}");
        } else {
            assert!(t.sample(u).is_none(), "case {case}");
        }
    }
}

#[test]
fn lookup_table_brackets_and_clamps() {
    let mut rng = Rng::seed_from_u64(106);
    for case in 0..CASES {
        let len = rng.gen_range(2..32);
        let ys: Vec<f64> = (0..len).map(|_| uniform(&mut rng, -5.0, 5.0)).collect();
        let x = uniform(&mut rng, -2.0, 34.0);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let t = LookupTable::new(xs, ys.clone()).unwrap();
        let v = t.eval(x);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Linear interpolation never leaves the sample hull.
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "case {case}");
    }
}

#[test]
fn lu_solves_random_dominant_systems() {
    let mut rng = Rng::seed_from_u64(107);
    for case in 0..CASES {
        let mut m = Matrix::zeros(5, 5);
        for r in 0..5 {
            let mut diag = 1.0;
            for c in 0..5 {
                if r != c {
                    let v = uniform(&mut rng, -1.0, 1.0);
                    m.set(r, c, v);
                    diag += v.abs();
                }
            }
            m.set(r, r, diag);
        }
        let rhs: Vec<f64> = (0..5).map(|_| uniform(&mut rng, -10.0, 10.0)).collect();
        let x = m.solve(&rhs).unwrap();
        let back = m.mul_vec(&x).unwrap();
        for (a, b) in back.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn synthesized_netlists_are_well_formed() {
    let mut rng = Rng::seed_from_u64(108);
    for case in 0..CASES {
        let sets = rng.gen_range(1..60);
        let inputs = rng.gen_range(1..9);
        let seed = rng.next_u64() % 1000;
        let target = 2 * sets; // even
        let logic = semsim::logic::synthesize(target, inputs, seed);
        let total: usize = logic
            .gates
            .iter()
            .map(semsim::netlist::gate_set_count)
            .sum();
        assert_eq!(total, target, "case {case}");
        // Evaluation must be defined for every vector (topological order,
        // no undriven signals).
        let vector: Vec<bool> = (0..inputs).map(|i| i % 2 == 0).collect();
        let env = logic.evaluate(&vector);
        for o in &logic.outputs {
            assert!(env.contains_key(o.as_str()), "case {case}");
        }
    }
}

#[test]
fn circuit_file_roundtrip() {
    let mut rng = Rng::seed_from_u64(109);
    for case in 0..CASES {
        let n_junc = rng.gen_range(1..6);
        let g = uniform(&mut rng, 1e-7, 1e-5);
        let cap = uniform(&mut rng, 0.1, 10.0);
        let temp = uniform(&mut rng, 0.0, 20.0);
        let mut text = String::new();
        for j in 0..n_junc {
            text.push_str(&format!(
                "junc {} {} {} {:e} {:e}\n",
                j + 1,
                j,
                j + 1,
                g,
                cap * 1e-18
            ));
        }
        text.push_str("vdc 1 0.001\n");
        text.push_str(&format!("temp {temp}\n"));
        let parsed = semsim::netlist::CircuitFile::parse(&text).unwrap();
        let reparsed = semsim::netlist::CircuitFile::parse(&parsed.to_input_format()).unwrap();
        assert_eq!(parsed, reparsed, "case {case}");
    }
}

/// Satellite property: any random circuit that passes the static checks
/// must have a non-singular capacitance matrix (the SC002 guarantee).
/// Conversely, without SC001 the linter reports SC002 exactly when the
/// build refuses the circuit as floating: both factor the same `C`.
#[test]
fn check_passing_circuits_have_invertible_cmatrix() {
    let mut rng = Rng::seed_from_u64(110);
    let (mut passed, mut singular) = (0usize, 0usize);
    for case in 0..CASES {
        let n = rng.gen_range(1..6);
        // One case in four anchors the chain to its lead through a
        // subnormal capacitance and couples its islands through 1 F, as
        // the SC002 fixture does, so `C` is singular in f64.
        let extreme = rng.gen_bool(0.25);
        // Random circuit that may or may not be well-formed: each island
        // connects to the previous node with probability 3/4, otherwise
        // it is left capacitively floating (a deliberate defect).
        let mut model = semsim::check::CircuitModel::new();
        let mut b = CircuitBuilder::new();
        let lead = b.add_lead(1e-3);
        let m_lead = model.add_lead();
        let mut prev = (lead, m_lead);
        for i in 0..n {
            let isl = b.add_island_with_charge(0.0);
            let m_isl = model.add_island();
            if rng.gen_bool(0.75) || i == 0 {
                let c = match (extreme, i) {
                    (false, _) => uniform(&mut rng, 0.5, 3.0) * 1e-18,
                    (true, 0) => 1e-320,
                    (true, _) => 1.0,
                };
                b.add_junction(prev.0, isl, 1e6, c).unwrap();
                model.add_junction(prev.1, m_isl, 1e6, c);
            }
            prev = (isl, m_isl);
        }
        let diags = semsim::check::check_circuit(&model);
        let reports = |code| diags.iter().any(|d| d.code == code);
        let built = b.build();
        if !reports(DiagCode::FloatingIsland) {
            let refused = matches!(built, Err(CoreError::FloatingIsland(_)));
            assert_eq!(
                reports(DiagCode::SingularCapacitanceMatrix),
                refused,
                "case {case}: SC002 and the build disagree"
            );
            singular += usize::from(refused);
        }
        if diags.has_errors() {
            // Static analysis predicted failure. The builder only agrees
            // when a pivot cancels to exactly zero; rounding can sneak a
            // singular island *cluster* past the factor — which is
            // precisely the gap SC001 closes. Either way the matrix is
            // unusable.
            if reports(DiagCode::FloatingIsland) {
                if let Ok(circuit) = built {
                    let cond = circuit
                        .capacitance_matrix()
                        .condition_estimate()
                        .unwrap_or(f64::INFINITY);
                    assert!(
                        cond > semsim::check::CONDITION_THRESHOLD,
                        "SC001 circuit built with usable matrix (κ₁ ≈ {cond:.2e})"
                    );
                }
            }
        } else {
            let circuit = built.expect("check-passing circuit failed to build");
            // Invertibility: C · C⁻¹ = I to tight tolerance.
            let c = circuit.capacitance_matrix().to_dense();
            for r in 0..c.rows() {
                let diagonal: f64 = circuit
                    .cinv_column(r)
                    .iter()
                    .map(|(k, x)| c.get(r, k) * x)
                    .sum();
                assert!((diagonal - 1.0).abs() < 1e-9);
            }
            passed += 1;
        }
    }
    assert!(passed > 0, "no generated circuit ever passed the checks");
    assert!(singular > 0, "no generated circuit reached SC002");
}
