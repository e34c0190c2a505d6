//! The circuit build's truncated `C⁻¹` against a test-only dense oracle:
//! the dense LU factor of `C`, solved for every unit column.
//!
//! - Every kept entry agrees with the dense inverse within
//!   `1e-13·max(C⁻¹_ii, C⁻¹_kk)`, and every dropped entry is below the
//!   cut `COUPLING_EPS·min(C⁻¹_ii, C⁻¹_kk)` (the bounds docs/performance.md
//!   states), on the paper benchmarks up to 74LS280 and on c432.
//! - At c432, the cached potentials after a run of events agree with the
//!   exact product `C⁻¹·q̃` within the stated bound: the cut times
//!   `Σ_k min(C⁻¹_ii, C⁻¹_kk)·|q̃_k|`, plus rounding.
//! - The lead response is bitwise the plain triple-loop product of the
//!   stored `C⁻¹` and `C_ext`, and each island's precomputed dependency
//!   neighbourhood is the set the per-event membership predicate
//!   accepts.

use semsim::core::circuit::{Circuit, JunctionId};
use semsim::core::constants::E_CHARGE;
use semsim::core::engine::{RunLength, SimConfig, Simulation, SolverSpec};
use semsim::linalg::Matrix;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};

/// Kept entries agree with the dense inverse to this fraction of the
/// larger of their two diagonals.
const KEPT_TOLERANCE: f64 = 1e-13;

/// The benchmarks up to 74LS280, built.
fn small_benchmarks() -> impl Iterator<Item = (Benchmark, Circuit)> {
    let params = SetLogicParams::default();
    Benchmark::all()
        .into_iter()
        .filter(|&b| b <= Benchmark::Ls280)
        .map(move |b| (b, elaborate(&b.logic(), &params).unwrap().circuit))
}

/// The dense inverse of `C`, column by column from its LU factor.
fn dense_inverse(circuit: &Circuit) -> Matrix {
    let n = circuit.num_islands();
    let lu = circuit.capacitance_matrix().to_dense().lu().unwrap();
    let mut inverse = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for c in 0..n {
        e[c] = 1.0;
        for (r, x) in lu.solve(&e).unwrap().into_iter().enumerate() {
            inverse.set(r, c, x);
        }
        e[c] = 0.0;
    }
    inverse
}

/// Checks every entry of the stored `C⁻¹` against `exact`; returns the
/// number of dropped entries.
fn assert_within_the_truncation_rule(name: &str, circuit: &Circuit, exact: &Matrix) -> usize {
    let n = circuit.num_islands();
    let d: Vec<f64> = (0..n).map(|i| exact.get(i, i)).collect();
    let eps = Circuit::COUPLING_EPS;
    let mut dropped = 0;
    for c in 0..n {
        let column = circuit.cinv_column(c);
        let mut stored = column.iter().peekable();
        for (i, &di) in d.iter().enumerate() {
            let x = exact.get(i, c);
            match stored.next_if(|&(r, _)| r == i) {
                Some((_, kept)) => assert!(
                    (kept - x).abs() <= KEPT_TOLERANCE * di.max(d[c]),
                    "{name} C⁻¹ ({i},{c}): kept {kept} vs dense {x}"
                ),
                None => {
                    dropped += 1;
                    assert!(
                        x.abs() < eps * di.min(d[c]) * (1.0 + 1e-12),
                        "{name} C⁻¹ ({i},{c}): dropped {x} is above the cut"
                    );
                }
            }
        }
    }
    dropped
}

#[test]
fn benchmark_builds_match_dense_solves_within_the_truncation_rule() {
    for (b, circuit) in small_benchmarks() {
        let (n, leads) = (circuit.num_islands(), circuit.num_leads());
        assert_within_the_truncation_rule(b.name(), &circuit, &dense_inverse(&circuit));

        let cext = circuit.lead_coupling();
        let mut product = Matrix::zeros(n, leads);
        for i in 0..n {
            for k in 0..n {
                for l in 0..leads {
                    product.add_to(i, l, circuit.cinv(i, k) * cext.get(k, l));
                }
            }
        }
        for l in 0..leads {
            for (i, &response) in circuit.lead_response(l).iter().enumerate() {
                assert_eq!(
                    response.to_bits(),
                    product.get(i, l).to_bits(),
                    "{} lead response ({i},{l})",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn c432_truncation_is_within_the_stated_bounds() {
    let params = SetLogicParams::default();
    let logic = Benchmark::C432.logic();
    let elab = elaborate(&logic, &params).unwrap();
    let circuit = &elab.circuit;
    let n = circuit.num_islands();
    let exact = dense_inverse(circuit);
    let dropped = assert_within_the_truncation_rule("c432", circuit, &exact);
    assert!(
        dropped > n * n / 2,
        "c432 keeps {} of {} entries",
        n * n - dropped,
        n * n
    );

    // A run with every input high and no refresh after the first: the
    // cached potentials carry every event's truncated delta.
    let cfg = SimConfig::new(params.temperature)
        .with_seed(1)
        .with_solver(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: u64::MAX,
        });
    let mut sim = Simulation::new(circuit, cfg).unwrap();
    for name in &logic.inputs {
        let lead = elab.input_lead(name).unwrap();
        sim.set_lead_voltage(lead, params.vdd).unwrap();
    }
    sim.run(RunLength::Events(3_000)).unwrap();
    let changes = sim.events() + logic.inputs.len() as u64;

    let q = sim.state().charge_vector(circuit);
    let phi = sim.state().island_potentials();
    let d: Vec<f64> = (0..n).map(|i| exact.get(i, i)).collect();
    let mut worst = 0.0f64;
    for i in 0..n {
        let want: f64 = (0..n).map(|k| exact.get(i, k) * q[k]).sum();
        let cut: f64 = (0..n).map(|k| d[i].min(d[k]) * q[k].abs()).sum();
        let kept: f64 = (0..n).map(|k| d[i].max(d[k]) * q[k].abs()).sum();
        let rounding = KEPT_TOLERANCE * kept
            + changes as f64 * f64::EPSILON * (phi[i].abs() + 2.0 * E_CHARGE * d[i]);
        let bound = Circuit::COUPLING_EPS * cut + rounding;
        let error = (phi[i] - want).abs();
        assert!(
            error <= bound,
            "island {i}: φ {} vs C⁻¹·q̃ {want}: error {error:e} above the bound {bound:e}",
            phi[i]
        );
        worst = worst.max(error / bound);
    }
    println!("c432: {dropped} entries dropped, worst error {worst:.3e} of the bound");
}

#[test]
fn island_dependents_are_the_membership_predicate() {
    for (b, circuit) in small_benchmarks() {
        for island in 0..circuit.num_islands() {
            let from_predicate: Vec<JunctionId> = circuit
                .junction_ids()
                .filter(|&j| circuit.junction_depends_on_island(island, j))
                .collect();
            assert_eq!(
                circuit.island_dependents(island),
                from_predicate.as_slice(),
                "{} island {island}",
                b.name()
            );
        }
    }
}
