//! Golden shape regressions for the committed paper figures
//! (`results/fig1b.txt`, `results/fig1c.txt`, `results/fig5.txt`,
//! `results/fig7.txt`), on reduced grids so they run in test time.
//! These don't pin exact currents — Monte Carlo noise moves the
//! digits — they pin the *physics* the figures exist to show:
//!
//! * Fig. 1b: Coulomb blockade of half-width `e/C_Σ ≈ 32 mV` at
//!   `V_g = 0` (committed data: conduction turns on between 30 and
//!   34 mV), lifted by the gate.
//! * Fig. 1c: the superconducting gap *widens* the suppressed region —
//!   32 mV conducts normally (`≈ 8e-10 A` committed) but is dead in the
//!   SSET (`≈ 6e-20 A` committed).
//! * Fig. 5: the Manninen SSET's quasi-particle transport threshold —
//!   sub-gap current at 0.4 mV is ≈ 270× below the current past the
//!   threshold at 1.6 mV (committed: 6.6e-12 A vs 1.78e-9 A).
//! * Fig. 7: the adaptive solver's propagation delay on the 2-to-10
//!   decoder tracks the exact non-adaptive solver (committed:
//!   1.0128e-7 s reference, 3.59% semsim error over 5 seeds).
//!
//! The sweeps run on [`semsim::core::batch::batch_sweep`] over the
//! deterministic work queue, so these are also end-to-end regressions
//! for the batch sweep driver.

use semsim::core::batch::{batch_sweep, BatchOpts};
use semsim::core::constants::{thermal_energy, E_CHARGE};
use semsim::core::engine::{SimConfig, SolverSpec};
use semsim::core::superconduct::{gap_at, QpRateTable};
use semsim::logic::{elaborate, measure_delay_avg, Benchmark, SetLogicParams};
use semsim_bench::devices::{fig1_set, fig1c_params, fig5_params, fig5_set, SetDevice};

const EVENTS: u64 = 3_000;
const WARMUP: u64 = 150;

/// Currents through `j1` at the given symmetric drain-source biases.
fn currents(dev: &SetDevice, config: &SimConfig, biases: &[f64], vg: f64) -> Vec<f64> {
    batch_sweep(
        &dev.circuit,
        config,
        dev.j1,
        biases,
        WARMUP,
        EVENTS,
        &BatchOpts::default(),
        |sim, vds, _spec| {
            sim.set_lead_voltage(dev.source_lead, vds / 2.0)?;
            sim.set_lead_voltage(dev.drain_lead, -vds / 2.0)?;
            sim.set_lead_voltage(dev.gate_lead, vg)
        },
    )
    .expect("sweep")
    .values()
    .expect("every point measured")
    .iter()
    .map(|p| p.current)
    .collect()
}

#[test]
fn fig1b_blockade_half_width_is_about_32_mv() {
    let dev = fig1_set().expect("device");
    let config = SimConfig::new(5.0).with_seed(42);
    let i = currents(&dev, &config, &[0.024, 0.030, 0.034, 0.040], 0.0);
    let (i24, i30, i34, i40) = (i[0].abs(), i[1].abs(), i[2].abs(), i[3].abs());

    assert!(
        i40 > 1e-9,
        "device must conduct well past the blockade: {i40:e}"
    );
    // Deep inside the blockade the current is thermally activated and
    // orders of magnitude down (committed: 6e-13 at 24 mV).
    assert!(
        i24 < 1e-3 * i40,
        "24 mV should be deep in blockade: {i24:e} vs {i40:e}"
    );
    // The turn-on sits between 30 and 34 mV — i.e. half-width ≈ e/C_Σ =
    // 32 mV (committed ratios to I(40 mV): 0.031 at 30 mV, 0.31 at 34 mV).
    assert!(
        i30 < 0.1 * i40,
        "30 mV is still inside the blockade: {i30:e}"
    );
    assert!(i34 > 0.1 * i40, "34 mV is past the blockade edge: {i34:e}");
    assert!(
        i34 > 3.0 * i30,
        "conduction must turn on steeply across 32 mV"
    );
}

#[test]
fn fig1b_gate_lifts_blockade() {
    let dev = fig1_set().expect("device");
    let config = SimConfig::new(5.0).with_seed(42);
    let biases = [0.010];
    let closed = currents(&dev, &config, &biases, 0.0)[0].abs();
    let open = currents(&dev, &config, &biases, 0.03)[0].abs();

    // Committed: 1.1e-19 A at V_g = 0 vs 2.1e-9 A at V_g = 30 mV.
    assert!(
        open > 1e-10,
        "30 mV gate should open conduction at 10 mV bias: {open:e}"
    );
    assert!(
        closed < 1e-3 * open,
        "zero gate should stay blockaded: {closed:e} vs {open:e}"
    );
}

#[test]
fn fig1c_superconducting_gap_widens_blockade() {
    let dev = fig1_set().expect("device");
    let normal = SimConfig::new(5.0).with_seed(42);
    let sset = SimConfig::new(0.05)
        .with_seed(42)
        .with_superconducting(fig1c_params().expect("params"));

    let biases = [0.032, 0.040];
    let i_normal = currents(&dev, &normal, &biases, 0.0);
    let i_sset = currents(&dev, &sset, &biases, 0.0);

    // Both variants conduct at 40 mV (committed: ≈ 6.5e-9 A each)...
    assert!(i_normal[1].abs() > 1e-9);
    assert!(i_sset[1].abs() > 1e-9);
    // ...but 32 mV — just outside the normal-state blockade (committed
    // ≈ 8e-10 A) — is suppressed by ten orders in the SSET (≈ 7e-20 A):
    // quasi-particle transport must additionally pay 2Δ per crossing.
    assert!(
        i_sset[0].abs() < 1e-3 * i_normal[0].abs(),
        "superconductivity must widen the gap region: sset {:e} vs normal {:e}",
        i_sset[0],
        i_normal[0]
    );
}

#[test]
fn fig5_qp_threshold_separates_subgap_from_open_transport() {
    // The Manninen SSET, biased exactly as `bench/src/bin/fig5.rs` does:
    // full bias on the source, drain grounded, V_g = 0. Below the
    // quasi-particle transport threshold only thermally-activated
    // sub-gap processes carry current; past it the current jumps by
    // orders of magnitude (committed fig5.txt at V_g = 0: 6.55e-12 A at
    // 0.4 mV vs 1.79e-9 A at 1.6 mV — a factor ≈ 270).
    let dev = fig5_set().expect("device");
    let params = fig5_params().expect("params");
    let temp = 0.52;
    // Pre-size the quasi-particle rate table for the largest energy the
    // sweep can reach (the fig5 driver's formula): the engine would
    // otherwise size it from the construction-time lead voltages, which
    // are zero under the sweep's setup closure.
    let gap = gap_at(&params, temp);
    let kt = thermal_energy(temp);
    let ec = E_CHARGE * E_CHARGE / (2.0 * 234e-18);
    let w_max = 4.0 * gap + 40.0 * kt + 8.0 * ec + 4.0 * E_CHARGE * 0.011;
    let config = SimConfig::new(temp)
        .with_seed(42)
        .with_superconducting(params)
        .with_qp_table(QpRateTable::build(gap, kt, w_max).expect("qp table"));

    let i = batch_sweep(
        &dev.circuit,
        &config,
        dev.j1,
        &[0.4e-3, 1.6e-3],
        WARMUP,
        EVENTS,
        &BatchOpts::default(),
        |sim, vb, _spec| {
            sim.set_lead_voltage(dev.source_lead, vb)?;
            sim.set_lead_voltage(dev.gate_lead, 0.0)
        },
    )
    .expect("sweep")
    .values()
    .expect("every point measured");
    let (i_sub, i_open) = (i[0].current.abs(), i[1].current.abs());

    assert!(
        i_open > 1e-10,
        "past the qp threshold the SSET must conduct: {i_open:e}"
    );
    assert!(
        i_open > 20.0 * i_sub,
        "sub-gap current must sit far below the open region: \
         {i_sub:e} at 0.4 mV vs {i_open:e} at 1.6 mV"
    );
    assert!(
        i_sub > 1e-16,
        "sub-gap transport is suppressed but not dead at 0.52 K: {i_sub:e}"
    );
}

#[test]
fn fig7_adaptive_delay_tracks_nonadaptive_on_decoder() {
    // Fig. 7's observable: propagation delay of a logic benchmark under
    // the adaptive solver vs the exact non-adaptive solver. Reduced to
    // one seed pair on the 2-to-10 decoder (committed fig7.txt:
    // reference 1.0128e-7 s ≈ 11 τ, semsim error 3.59% over 5 seeds).
    let logic = Benchmark::Decoder2To10.logic();
    let params = SetLogicParams::default();
    let elab = elaborate(&logic, &params).expect("elaborate");
    let output = Benchmark::Decoder2To10.delay_output();
    let tau = elab.params.switching_time();
    // Full-refresh interval scales with circuit size (Fig. 6/7 policy).
    let refresh_interval = 1_000u64.max(4 * elab.circuit.num_islands() as u64);

    let run = |solver: SolverSpec, seed: u64| {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(seed)
            .with_solver(solver);
        measure_delay_avg(&elab, &logic, &cfg, output, 30.0, 50.0, 2)
            .expect("delay measurement")
            .delay
    };
    let adaptive = run(
        SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval,
        },
        42,
    );
    // fig7's seed convention: the reference ensemble runs at seed + 100.
    let reference = run(SolverSpec::NonAdaptive, 142);

    for (name, d) in [("adaptive", adaptive), ("non-adaptive", reference)] {
        assert!(
            d > 2.0 * tau && d < 40.0 * tau,
            "{name} decoder delay must be a few switching times: \
             {d:e} s vs τ = {tau:e} s"
        );
    }
    let rel = (adaptive - reference).abs() / reference;
    assert!(
        rel < 0.5,
        "adaptive delay must track the exact solver: {adaptive:e} vs \
         {reference:e} (rel {rel:.3})"
    );
}
