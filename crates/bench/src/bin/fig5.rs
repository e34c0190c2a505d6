//! Regenerates the paper's **Fig. 5** (right panel): contour data of
//! SSET current over (V_bias, V_gate), Manninen et al. setup —
//! `T = 0.52 K`, `R = 210 kΩ`, `C = 110 aF`, `C_g = 14 aF`,
//! `Δ(0.52 K) = 0.21 meV`, `Q_b = 0.65 e`.
//!
//! Output: one row per grid point `vb vg I`, plus `#feature` rows
//! marking where the exact-circuit calculators predict the JQP
//! resonance (`ΔW_2e ≈ 0`) and the quasi-particle transport threshold —
//! the lines drawn on the paper's left panel.
//!
//! Expected shape: JQP ridges below the quasi-particle threshold,
//! thermally-activated singularity-matching structure in the sub-gap
//! region (it vanishes if you re-run with `temp=0.05`), current rising
//! sharply past the threshold.
//!
//! Arguments: `events` (default 6000), `nb` (36 bias points),
//! `ng` (26 gate points), `temp` (0.52), `seed` (7), `threads` (all
//! cores).

use semsim_bench::args::Args;
use semsim_bench::devices::{fig5_params, fig5_set};
use semsim_bench::features::{best_pair_detuning, qp_transport_open};
use semsim_core::batch::{batch_sweep, BatchOpts};
use semsim_core::constants::HBAR;
use semsim_core::energy::CircuitState;
use semsim_core::engine::{linspace, SimConfig};
use semsim_core::superconduct::{gap_at, QpRateTable};
use semsim_core::CoreError;

fn main() -> Result<(), CoreError> {
    let args = Args::from_env();
    let events = args.u64_or("events", 6_000);
    let nb = args.usize_or("nb", 36);
    let ng = args.usize_or("ng", 26);
    let temp = args.f64_or("temp", 0.52);
    let seed = args.u64_or("seed", 7);
    let opts = BatchOpts {
        par: args.par_opts(),
        ..BatchOpts::default()
    };

    let dev = fig5_set()?;
    let params = fig5_params()?;
    let gap = gap_at(&params, temp);
    // Pre-build the quasi-particle rate table once and share it across
    // all grid points (it only depends on gap and temperature).
    let kt = semsim_core::constants::thermal_energy(temp);
    let e = semsim_core::constants::E_CHARGE;
    let ec = e * e / (2.0 * 234e-18);
    let w_max = 4.0 * gap + 40.0 * kt + 8.0 * ec + 4.0 * e * 0.011;
    let table = QpRateTable::build(gap, kt, w_max)?;
    let config = SimConfig::new(temp)
        .with_seed(seed)
        .with_superconducting(params)
        .with_qp_table(table);

    // The paper's axes: V_bias 5e-4..15e-4 V (we start lower to show the
    // full sub-gap region), V_gate 0..10 mV (one e/Cg period is 11.4 mV).
    let biases = linspace(0.1e-3, 1.6e-3, nb);
    let gates = linspace(0.0, 10e-3, ng);

    println!("# Fig. 5 — SSET current map, T = {temp} K, Qb = 0.65 e");
    println!("# vb(V) vg(V) I(A)");
    // One sweep over the flattened gate-major grid: task `t` is bias
    // `t % nb` at gate `t / nb`, so its seed is the cell's row-major
    // index. The printed values are identical for any thread count.
    let map = batch_sweep(
        &dev.circuit,
        &config,
        dev.j1,
        &biases.repeat(gates.len()),
        events / 10,
        events,
        &opts,
        |sim, vb, spec| {
            sim.set_lead_voltage(dev.source_lead, vb)?;
            sim.set_lead_voltage(dev.gate_lead, gates[spec.task / biases.len()])
        },
    )?
    .values()
    .expect("every map cell measured");
    for (row, &vg) in map.chunks(biases.len()).zip(&gates) {
        for p in row {
            println!("{:>10.4e} {:>10.4e} {:>12.4e}", p.control, vg, p.current);
        }
        println!();
    }

    // Analytic feature rows: where each process turns on, per gate row.
    println!("# feature lines (exact-circuit): kind vb(V) vg(V)");
    let gamma = gap / (semsim_core::constants::E_CHARGE.powi(2) * 210e3);
    let half_width = 2.0 * HBAR * gamma; // generous resonance window
    for &vg in &gates {
        let mut qp_marked = false;
        let mut prev_det: Option<f64> = None;
        for &vb in &linspace(0.05e-3, 1.6e-3, 320) {
            let mut s = CircuitState::new(&dev.circuit);
            s.set_lead_voltage(dev.source_lead, vb);
            s.set_lead_voltage(dev.gate_lead, vg);
            s.recompute_potentials(&dev.circuit);
            if !qp_marked && qp_transport_open(&dev.circuit, &s, gap) {
                println!("#feature qp_threshold {vb:>10.4e} {vg:>10.4e}");
                qp_marked = true;
            }
            let det = best_pair_detuning(&dev.circuit, &s);
            if let Some(p) = prev_det {
                if p.signum() != det.signum() && det.abs() < 100.0 * half_width {
                    println!("#feature jqp_resonance {vb:>10.4e} {vg:>10.4e}");
                }
            }
            prev_det = Some(det);
        }
    }
    Ok(())
}
