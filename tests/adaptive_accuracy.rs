//! Integration tests of the adaptive solver's accuracy/performance
//! contract (the substance of the paper's Figs. 6–7): on multi-stage
//! logic circuits, the adaptive solver must do far less rate work than
//! the conventional solver while reproducing its observables.

use semsim::core::batch::{batch_sweep, BatchOpts};
use semsim::core::circuit::{CircuitBuilder, NodeId};
use semsim::core::constants::ev_to_joule;
use semsim::core::engine::{
    linspace, Record, RunLength, SimConfig, Simulation, SolverSpec, SweepPoint,
};
use semsim::core::par::ParOpts;
use semsim::core::superconduct::SuperconductingParams;
use semsim::logic::{elaborate, measure_delay, synthesize, SetLogicParams};

fn adaptive_spec(theta: f64) -> SolverSpec {
    SolverSpec::Adaptive {
        threshold: theta,
        refresh_interval: 2_000,
    }
}

/// The optimized solver and its dense-reference oracle at one
/// threshold and refresh interval.
fn opt_and_dense(threshold: f64, refresh_interval: u64) -> [SolverSpec; 2] {
    [
        SolverSpec::Adaptive {
            threshold,
            refresh_interval,
        },
        SolverSpec::AdaptiveDense {
            threshold,
            refresh_interval,
        },
    ]
}

/// Asserts two `(record, simulated time)` runs are equal **to the
/// bit**: identical records (duration, electron counts, probe samples,
/// adaptive work counters) plus the raw bits of every accumulated
/// floating-point observable, so a single reassociated rounding
/// anywhere in the hot loop fails.
fn assert_bit_identical(what: &str, a: &(Record, f64), b: &(Record, f64)) {
    assert_eq!(a.0, b.0, "{what}: records differ");
    assert_eq!(a.0.duration.to_bits(), b.0.duration.to_bits(), "{what}");
    for (i, (x, y)) in
        a.0.electron_counts
            .iter()
            .zip(&b.0.electron_counts)
            .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: electron count {i}");
    }
    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{what}: simulated time");
}

#[test]
fn adaptive_reproduces_event_rate_on_logic_benchmark() {
    // The mean simulated time per event (inverse total rate) is a stiff
    // global observable; adaptive and non-adaptive must agree within a
    // few percent at θ = 0.05.
    let params = SetLogicParams::default();
    let logic = synthesize(118, 8, 42); // ≈ 74LS153-sized
    let elab = elaborate(&logic, &params).unwrap();
    let run = |spec: SolverSpec| {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(3)
            .with_solver(spec);
        let mut sim = Simulation::new(&elab.circuit, cfg).unwrap();
        for name in &logic.inputs {
            let lead = elab.input_lead(name).unwrap();
            sim.set_lead_voltage(lead, params.vdd).unwrap();
        }
        let r = sim.run(RunLength::Events(20_000)).unwrap();
        (r.duration / r.events as f64, r.rate_recalcs)
    };
    let (dt_ref, recalcs_ref) = run(SolverSpec::NonAdaptive);
    let (dt_adp, recalcs_adp) = run(adaptive_spec(0.05));
    let err = (dt_adp - dt_ref).abs() / dt_ref;
    assert!(err < 0.10, "event-rate error {err:.3}");
    assert!(
        recalcs_adp * 5 < recalcs_ref,
        "adaptive did {recalcs_adp} recalcs vs {recalcs_ref}"
    );
}

#[test]
fn tighter_threshold_is_more_accurate() {
    let params = SetLogicParams::default();
    let logic = synthesize(118, 8, 42);
    let elab = elaborate(&logic, &params).unwrap();
    let run = |spec: SolverSpec| {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(3)
            .with_solver(spec);
        let mut sim = Simulation::new(&elab.circuit, cfg).unwrap();
        for name in &logic.inputs {
            let lead = elab.input_lead(name).unwrap();
            sim.set_lead_voltage(lead, params.vdd).unwrap();
        }
        let r = sim.run(RunLength::Events(15_000)).unwrap();
        r.rate_recalcs as f64 / r.events as f64
    };
    // Work decreases monotonically with θ.
    let w_tight = run(adaptive_spec(0.005));
    let w_mid = run(adaptive_spec(0.05));
    let w_loose = run(adaptive_spec(0.5));
    assert!(
        w_tight >= w_mid && w_mid >= w_loose,
        "{w_tight} {w_mid} {w_loose}"
    );
}

#[test]
fn delay_measurement_agrees_between_solvers() {
    // One row of Fig. 7 on the smallest benchmark-style circuit: delays
    // from the two solvers agree within the paper's error band plus
    // Monte Carlo noise.
    let params = SetLogicParams::default();
    let logic = semsim::logic::Benchmark::Decoder2To10.logic();
    let elab = elaborate(&logic, &params).unwrap();
    let output = semsim::logic::Benchmark::Decoder2To10.delay_output();

    let delay = |spec: SolverSpec, seed: u64| {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(seed)
            .with_solver(spec);
        measure_delay(&elab, &logic, &cfg, output, 40.0, 100.0)
            .expect("transition observed")
            .delay
    };
    let seeds = [101u64, 102, 103];
    let d_ref: f64 = seeds
        .iter()
        .map(|&s| delay(SolverSpec::NonAdaptive, s))
        .sum::<f64>()
        / seeds.len() as f64;
    let d_adp: f64 = seeds
        .iter()
        .map(|&s| delay(adaptive_spec(0.05), s))
        .sum::<f64>()
        / seeds.len() as f64;
    let err = (d_adp - d_ref).abs() / d_ref;
    assert!(err < 0.25, "delay error {err:.3} ({d_adp} vs {d_ref})");
}

#[test]
fn zero_threshold_event_stream_is_statistically_identical() {
    // At θ = 0 every tested junction recomputes; currents must agree
    // with the reference within tight Monte Carlo noise.
    let params = SetLogicParams::default();
    let logic = synthesize(24, 4, 7);
    let elab = elaborate(&logic, &params).unwrap();
    let run = |spec: SolverSpec| {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(1)
            .with_solver(spec);
        let mut sim = Simulation::new(&elab.circuit, cfg).unwrap();
        for name in &logic.inputs {
            let lead = elab.input_lead(name).unwrap();
            sim.set_lead_voltage(lead, params.vdd).unwrap();
        }
        let r = sim.run(RunLength::Events(5_000)).unwrap();
        r.duration
    };
    let t_ref = run(SolverSpec::NonAdaptive);
    let t_adp = run(SolverSpec::Adaptive {
        threshold: 0.0,
        refresh_interval: u64::MAX,
    });
    let rel = (t_adp - t_ref).abs() / t_ref;
    assert!(rel < 0.05, "durations {t_ref} vs {t_adp} ({rel:.4})");
}

#[test]
fn drift_audit_stays_clean_on_logic_benchmark() {
    // The runtime's periodic drift audit, running on a multi-stage
    // logic circuit under the adaptive solver at a practical θ, must
    // observe only the drift the threshold permits: no degradation
    // events, and the observables still match the reference solver.
    let params = SetLogicParams::default();
    let logic = synthesize(60, 6, 21);
    let elab = elaborate(&logic, &params).unwrap();
    let run = |spec: SolverSpec, audit: Option<u64>| {
        let mut cfg = SimConfig::new(params.temperature)
            .with_seed(9)
            .with_solver(spec);
        if let Some(n) = audit {
            cfg = cfg.with_audit_interval(n).with_drift_tolerance(0.5);
        }
        let mut sim = Simulation::new(&elab.circuit, cfg).unwrap();
        for name in &logic.inputs {
            let lead = elab.input_lead(name).unwrap();
            sim.set_lead_voltage(lead, params.vdd).unwrap();
        }
        let r = sim.run(RunLength::Events(10_000)).unwrap();
        (r.duration / r.events as f64, sim.health_report())
    };
    let (dt_ref, _) = run(SolverSpec::NonAdaptive, None);
    let (dt_adp, report) = run(adaptive_spec(0.05), Some(500));
    assert_eq!(report.audits, 20, "expected an audit every 500 events");
    assert!(
        report.worst_drift.is_finite() && report.worst_drift >= 0.0,
        "{report:?}"
    );
    assert!(
        report.degradations.is_empty(),
        "θ = 0.05 drifted past tolerance: {report:?}"
    );
    let err = (dt_adp - dt_ref).abs() / dt_ref;
    assert!(err < 0.10, "event-rate error {err:.3} under auditing");
}

#[test]
fn optimized_adaptive_is_bit_identical_to_dense_reference() {
    // The hot-path contract: precomputed dependency neighbourhoods and
    // the batched kernels are pure optimizations. At every threshold —
    // from "recompute everything" (θ = 0) through ablation values to
    // "recompute almost nothing" (θ = 1) — the optimized solver must
    // reproduce the dense-reference solver's trajectory bit for bit:
    // identical Records (duration, electron counts, probe samples,
    // adaptive work counters) and identical simulated-time bits.
    let params = SetLogicParams::default();
    let logic = synthesize(60, 6, 21);
    let elab = elaborate(&logic, &params).unwrap();
    let run = |spec: SolverSpec| {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(5)
            .with_solver(spec);
        let mut sim = Simulation::new(&elab.circuit, cfg).unwrap();
        for name in &logic.inputs {
            let lead = elab.input_lead(name).unwrap();
            sim.set_lead_voltage(lead, params.vdd).unwrap();
        }
        sim.add_probe(elab.circuit.island_node(0), 100);
        let r = sim.run(RunLength::Events(8_000)).unwrap();
        (r, sim.time())
    };
    for theta in [0.0, 0.01, 0.05, 0.1, 0.3, 1.0] {
        let [opt, dense] = opt_and_dense(theta, 1_500).map(run);
        assert_bit_identical(&format!("logic θ = {theta}"), &opt, &dense);
    }
}

#[test]
fn superconducting_optimized_adaptive_matches_dense_reference() {
    // Same contract through the quasi-particle path: rates come from
    // the bucket-indexed lookup table (batched in the optimized path,
    // per junction in the oracle), and a two-island chain exercises
    // non-trivial dependency lists.
    let mut b = CircuitBuilder::new();
    let bias = b.add_lead(20e-2);
    let i1 = b.add_island();
    let i2 = b.add_island();
    b.add_junction(bias, i1, 1e6, 1e-18).unwrap();
    b.add_junction(i1, i2, 1e6, 1e-18).unwrap();
    b.add_junction(i2, NodeId::GROUND, 1e6, 1e-18).unwrap();
    let c = b.build().unwrap();
    let sc = SuperconductingParams::new(ev_to_joule(0.2e-3), 1.2).unwrap();
    let run = |spec: SolverSpec| {
        let cfg = SimConfig::new(0.05)
            .with_seed(11)
            .with_solver(spec)
            .with_superconducting(sc);
        let mut sim = Simulation::new(&c, cfg).unwrap();
        let r = sim.run(RunLength::Events(6_000)).unwrap();
        (r, sim.time())
    };
    for theta in [0.01, 0.1, 0.3] {
        let [opt, dense] = opt_and_dense(theta, 1_000).map(run);
        assert_bit_identical(&format!("SC chain θ = {theta}"), &opt, &dense);
    }
}

#[test]
fn optimized_sweep_is_bit_identical_across_modes_and_threads() {
    // SweepPoint output must not depend on the optimization or on the
    // thread count: serial optimized == serial dense-reference ==
    // parallel optimized at any worker count.
    let mut b = CircuitBuilder::new();
    let src = b.add_lead(0.0);
    let drn = b.add_lead(0.0);
    let gate = b.add_lead(0.0);
    let island = b.add_island();
    let j1 = b.add_junction(src, island, 1e6, 1e-18).unwrap();
    b.add_junction(island, drn, 1e6, 1e-18).unwrap();
    b.add_capacitor(gate, island, 3e-18).unwrap();
    let c = b.build().unwrap();
    let src_idx = c.lead_index(src).unwrap();
    let drn_idx = c.lead_index(drn).unwrap();
    let controls = linspace(10e-3, 40e-3, 6);
    let sweep = |spec: SolverSpec, threads: usize| -> Vec<SweepPoint> {
        let cfg = SimConfig::new(0.1).with_seed(21).with_solver(spec);
        let opts = BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        };
        batch_sweep(
            &c,
            &cfg,
            j1,
            &controls,
            300,
            1_200,
            &opts,
            |sim, v, _spec| {
                sim.set_lead_voltage(src_idx, 0.5 * v)?;
                sim.set_lead_voltage(drn_idx, -0.5 * v)
            },
        )
        .unwrap()
        .values()
        .unwrap()
    };

    let optimized = SolverSpec::Adaptive {
        threshold: 0.05,
        refresh_interval: 500,
    };
    let dense = SolverSpec::AdaptiveDense {
        threshold: 0.05,
        refresh_interval: 500,
    };

    let bits = |pts: &[SweepPoint]| -> Vec<(u64, u64, u64)> {
        pts.iter()
            .map(|p| (p.control.to_bits(), p.current.to_bits(), p.events))
            .collect()
    };

    let serial_opt = sweep(optimized, 1);
    let serial_dense = sweep(dense, 1);
    assert_eq!(bits(&serial_opt), bits(&serial_dense));
    assert_eq!(serial_opt, serial_dense);

    for threads in [2usize, 4, 8] {
        let par = sweep(optimized, threads);
        assert_eq!(bits(&serial_opt), bits(&par), "threads = {threads}");
        assert_eq!(serial_opt, par, "threads = {threads}");
    }
}

#[test]
fn checkpoint_round_trip_is_bit_identical() {
    // The checkpoint contract: an interrupted-and-resumed run must
    // reproduce the uninterrupted trajectory bit for bit — identical
    // event counts, identical duration, identical probe samples —
    // under both solvers.
    let params = SetLogicParams::default();
    let logic = synthesize(24, 4, 7);
    let elab = elaborate(&logic, &params).unwrap();
    for spec in [SolverSpec::NonAdaptive, adaptive_spec(0.05)] {
        let make = || {
            let cfg = SimConfig::new(params.temperature)
                .with_seed(77)
                .with_solver(spec);
            let mut sim = Simulation::new(&elab.circuit, cfg).unwrap();
            for name in &logic.inputs {
                let lead = elab.input_lead(name).unwrap();
                sim.set_lead_voltage(lead, params.vdd).unwrap();
            }
            sim.add_probe(elab.circuit.island_node(0), 250);
            sim
        };

        // Uninterrupted reference: 10k warm-up + checkpoint mid-flight,
        // then 10k more.
        let mut straight = make();
        straight.run(RunLength::Events(10_000)).unwrap();
        let snapshot = straight.checkpoint().unwrap();
        let reference = straight.run(RunLength::Events(10_000)).unwrap();

        // Interrupted run: a fresh simulation restored from the bytes.
        let mut resumed = make();
        resumed.resume(&snapshot).unwrap();
        assert_eq!(resumed.events(), 10_000);
        let replay = resumed.run(RunLength::Events(10_000)).unwrap();

        assert_eq!(reference, replay, "trajectory diverged ({spec:?})");
        assert_eq!(straight.time().to_bits(), resumed.time().to_bits());
    }
}
