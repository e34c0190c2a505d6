//! Kernel equivalence suite: the optimized adaptive solver, whose hot
//! loop runs the batched structure-of-arrays kernels, must produce
//! **bit-identical trajectories** to `SolverSpec::AdaptiveDense`, the
//! oracle that runs the per-junction scalar path — across the adaptive
//! threshold range, on normal and superconducting single-electron
//! transistors.
//!
//! Everything here compares full `Record`s plus the raw bits of the
//! accumulated observables and of the simulated time, so a single
//! reassociated rounding anywhere in the hot loop fails the suite.

use semsim::core::constants::{thermal_energy, E_CHARGE};
use semsim::core::engine::{Record, RunLength, SimConfig, Simulation, SolverSpec};
use semsim::core::superconduct::{gap_at, QpRateTable};
use semsim_bench::devices::{fig5_params, fig5_set, symmetric_set, SetDevice};

/// The optimized solver and its dense-reference oracle at one
/// threshold.
fn opt_and_dense(threshold: f64) -> [SolverSpec; 2] {
    [
        SolverSpec::Adaptive {
            threshold,
            refresh_interval: 500,
        },
        SolverSpec::AdaptiveDense {
            threshold,
            refresh_interval: 500,
        },
    ]
}

/// Runs one trajectory and returns its record and simulated time.
fn run_record(dev: &SetDevice, cfg: SimConfig, vds: f64, vg: f64, events: u64) -> (Record, f64) {
    let mut sim = Simulation::new(&dev.circuit, cfg).expect("simulation");
    sim.set_lead_voltage(dev.source_lead, vds / 2.0)
        .expect("bias");
    sim.set_lead_voltage(dev.drain_lead, -vds / 2.0)
        .expect("bias");
    sim.set_lead_voltage(dev.gate_lead, vg).expect("gate");
    let r = sim.run(RunLength::Events(events)).expect("run");
    (r, sim.time())
}

/// Asserts two runs are equal **to the bit** in every observable that
/// accumulates floating-point history.
fn assert_runs_bit_identical(what: &str, a: &(Record, f64), b: &(Record, f64)) {
    assert_eq!(a.0, b.0, "{what}: records differ");
    assert_eq!(
        a.0.duration.to_bits(),
        b.0.duration.to_bits(),
        "{what}: durations differ in the last ulp"
    );
    for (i, (x, y)) in
        a.0.electron_counts
            .iter()
            .zip(&b.0.electron_counts)
            .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: electron count {i} differs in the last ulp"
        );
    }
    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{what}: simulated time");
}

#[test]
fn theta_sweep_bit_identical_on_normal_set() {
    // θ = 0 (test everything) through θ = 1 (flag almost nothing),
    // straddling the paper's 0.01–0.3 operating range. Two junctions
    // share one island, so every event tests both.
    let dev = symmetric_set(1e6, 1e-18, 3e-18, 0.5).expect("device");
    for theta in [0.0, 0.05, 0.1, 0.3, 0.5, 1.0] {
        let [opt, dense] = opt_and_dense(theta).map(|spec| {
            let cfg = SimConfig::new(4.2).with_seed(11).with_solver(spec);
            run_record(&dev, cfg, 20e-3, 10e-3, 4_000)
        });
        assert_runs_bit_identical(&format!("SET θ = {theta}"), &opt, &dense);
    }
}

#[test]
fn theta_sweep_bit_identical_on_superconducting_set() {
    // The Fig. 5 SSET near its quasi-particle threshold, every run
    // sharing one pre-built table as the Fig. 5 map does. Every
    // first-order rate goes through the table: batched in the
    // optimized path, per junction in the oracle.
    let dev = fig5_set().expect("device");
    let params = fig5_params().expect("params");
    let temp = 0.52;
    let gap = gap_at(&params, temp);
    let kt = thermal_energy(temp);
    let ec = E_CHARGE * E_CHARGE / (2.0 * 234e-18);
    let w_max = 4.0 * gap + 40.0 * kt + 8.0 * ec + 4.0 * E_CHARGE * 0.011;
    let table = QpRateTable::build(gap, kt, w_max).expect("qp table");
    for theta in [0.0, 0.1, 0.5] {
        let [opt, dense] = opt_and_dense(theta).map(|spec| {
            let cfg = SimConfig::new(temp)
                .with_seed(23)
                .with_solver(spec)
                .with_superconducting(params)
                .with_qp_table(table.clone());
            run_record(&dev, cfg, 3.2e-3, 0.0, 2_000)
        });
        assert_runs_bit_identical(&format!("SSET θ = {theta}"), &opt, &dense);
    }
}
