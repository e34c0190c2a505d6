//! Cross-crate integration tests at the single-device level: the Monte
//! Carlo engine, the analytical SPICE model and textbook orthodox
//! theory must all agree on the paper's Fig. 1b transistor.

use semsim::core::batch::{batch_sweep, BatchOpts};
use semsim::core::circuit::{Circuit, CircuitBuilder, JunctionId};
use semsim::core::constants::E_CHARGE;
use semsim::core::engine::{linspace, RunLength, SimConfig, Simulation};
use semsim::spice::SetModel;

fn paper_set() -> (Circuit, JunctionId) {
    let mut b = CircuitBuilder::new();
    let src = b.add_lead(0.0);
    let drn = b.add_lead(0.0);
    let gate = b.add_lead(0.0);
    let island = b.add_island();
    let j1 = b.add_junction(src, island, 1e6, 1e-18).unwrap();
    b.add_junction(island, drn, 1e6, 1e-18).unwrap();
    b.add_capacitor(gate, island, 3e-18).unwrap();
    (b.build().unwrap(), j1)
}

/// Runs the MC at a symmetric bias and gate voltage, returning the
/// time-averaged current.
fn mc_current(circuit: &Circuit, j1: JunctionId, vds: f64, vg: f64, temp: f64) -> f64 {
    let mut sim = Simulation::new(circuit, SimConfig::new(temp).with_seed(5)).unwrap();
    sim.set_lead_voltage(1, vds / 2.0).unwrap();
    sim.set_lead_voltage(2, -vds / 2.0).unwrap();
    sim.set_lead_voltage(3, vg).unwrap();
    match sim.run(RunLength::Events(40_000)) {
        Ok(r) => r.current(j1),
        Err(_) => 0.0,
    }
}

#[test]
fn blockade_width_matches_orthodox_threshold() {
    // At Vg = 0 and T → 0 the threshold is e/CΣ = 32 mV of total bias.
    let (c, j1) = paper_set();
    let below = mc_current(&c, j1, 28e-3, 0.0, 0.01);
    let above = mc_current(&c, j1, 36e-3, 0.0, 0.01);
    assert_eq!(below, 0.0, "conduction below threshold");
    assert!(above > 1e-10, "no conduction above threshold: {above}");
}

#[test]
fn gate_period_is_e_over_cg() {
    // Currents one full gate period apart (e/Cg ≈ 53.4 mV) match.
    let (c, j1) = paper_set();
    let period = E_CHARGE / 3e-18;
    let i1 = mc_current(&c, j1, 20e-3, 5e-3, 5.0);
    let i2 = mc_current(&c, j1, 20e-3, 5e-3 + period, 5.0);
    let rel = (i1 - i2).abs() / i1.abs();
    assert!(rel < 0.05, "{i1} vs {i2} ({rel:.3})");
}

#[test]
fn gate_degeneracy_lifts_blockade() {
    let (c, j1) = paper_set();
    let half = E_CHARGE / (2.0 * 3e-18); // e/2Cg ≈ 26.7 mV
    let blocked = mc_current(&c, j1, 10e-3, 0.0, 0.05);
    let open = mc_current(&c, j1, 10e-3, half, 0.05);
    assert!(
        open.abs() > 100.0 * blocked.abs().max(1e-16),
        "{blocked} vs {open}"
    );
}

#[test]
fn monte_carlo_matches_analytic_model_across_the_iv() {
    // The MC engine and the master-equation compact model are
    // independent implementations of the same first-order physics;
    // they must agree along the whole I–V at 5 K.
    let (c, j1) = paper_set();
    let model = SetModel::symmetric(1e6, 1e-18, 3e-18, 5.0);
    for vds in [8e-3, 16e-3, 24e-3, 32e-3, 40e-3] {
        let mc = mc_current(&c, j1, vds, 10e-3, 5.0);
        let me = model.drain_current(vds / 2.0, -vds / 2.0, 10e-3);
        let tol = 0.08 * me.abs().max(1e-12);
        assert!((mc - me).abs() < tol, "vds={vds}: MC {mc} vs ME {me}");
    }
}

#[test]
fn current_scale_matches_paper_fig1b() {
    // Fig. 1b's current axis tops out near ±10 nA at ±40 mV.
    let (c, j1) = paper_set();
    let i = mc_current(&c, j1, 40e-3, 30e-3, 5.0);
    assert!(i > 5e-9 && i < 15e-9, "{i}");
}

#[test]
fn sweep_is_antisymmetric_under_symmetric_bias() {
    let (c, j1) = paper_set();
    let cfg = SimConfig::new(5.0).with_seed(9);
    let biases = linspace(-30e-3, 30e-3, 7);
    let pts = batch_sweep(
        &c,
        &cfg,
        j1,
        &biases,
        2_000,
        30_000,
        &BatchOpts::default(),
        |sim, v, _spec| {
            sim.set_lead_voltage(1, v / 2.0)?;
            sim.set_lead_voltage(2, -v / 2.0)
        },
    )
    .unwrap()
    .values()
    .unwrap();
    for k in 0..3 {
        let a = pts[k].current;
        let b = pts[6 - k].current;
        let scale = a.abs().max(b.abs()).max(1e-13);
        assert!((a + b).abs() / scale < 0.15, "{a} vs {b}");
    }
}

#[test]
fn cotunneling_dominates_deep_blockade() {
    // With cotunneling on, blockade current is orders of magnitude
    // above the sequential-only result (which is exactly zero at low T).
    let (c, j1) = paper_set();
    let base = SimConfig::new(0.1).with_seed(3);
    let run = |cfg: SimConfig| {
        let mut sim = Simulation::new(&c, cfg).unwrap();
        sim.set_lead_voltage(1, 5e-3).unwrap();
        sim.set_lead_voltage(2, -5e-3).unwrap();
        match sim.run(RunLength::Events(20_000)) {
            Ok(r) => r.current(j1),
            Err(_) => 0.0,
        }
    };
    let sequential = run(base.clone());
    let with_cot = run(base.with_cotunneling(true));
    assert_eq!(sequential, 0.0);
    assert!(with_cot.abs() > 1e-16, "{with_cot}");
}
