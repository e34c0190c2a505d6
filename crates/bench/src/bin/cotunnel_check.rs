//! Regenerates the paper's §IV-A cotunneling validation: Monte Carlo
//! current deep inside the Coulomb blockade versus the analytic
//! inelastic-cotunneling approximation
//! `I = ħ/(12π e² R₁R₂)(1/ε₁+1/ε₂)²[(eV)² + (2πkT)²]·V`.
//!
//! Expected shape: the blockade-region current is non-zero only because
//! of cotunneling, scales as `V³` at low temperature, and tracks the
//! analytic curve (the paper reports "excellent agreement" of SEMSIM
//! against analytics and SIMON here).
//!
//! Arguments: `events` (default 40000), `temp` (0.1 K), `seed` (11).

use semsim_bench::args::Args;
use semsim_bench::devices::fig1_set;
use semsim_core::batch::{batch_sweep, BatchOpts};
use semsim_core::constants::thermal_energy;
use semsim_core::cotunnel::analytic_cotunnel_current;
use semsim_core::energy::{delta_w, CircuitState};
use semsim_core::engine::{linspace, SimConfig};
use semsim_core::CoreError;

fn main() -> Result<(), CoreError> {
    let args = Args::from_env();
    let events = args.u64_or("events", 40_000);
    let temp = args.f64_or("temp", 0.1);
    let seed = args.u64_or("seed", 11);

    let dev = fig1_set()?;
    let kt = thermal_energy(temp);
    let config = SimConfig::new(temp).with_seed(seed).with_cotunneling(true);

    // Stay well inside the blockade: |V| ≤ 12 mV ≪ e/CΣ = 32 mV.
    let biases = linspace(2e-3, 12e-3, 6);

    // Bias-dependent virtual intermediate energies for the analytic
    // curve (the conducting direction is drain → island → source).
    let island = dev.circuit.island_node(0);
    let eps_at = |v: f64| {
        let mut s = CircuitState::new(&dev.circuit);
        s.set_lead_voltage(1, v / 2.0);
        s.set_lead_voltage(2, -v / 2.0);
        s.recompute_potentials(&dev.circuit);
        let eps_in = delta_w(&dev.circuit, &s, dev.circuit.lead_node(2), island, 1);
        let eps_out = delta_w(&dev.circuit, &s, island, dev.circuit.lead_node(1), 1);
        (eps_in, eps_out)
    };

    let pts = batch_sweep(
        &dev.circuit,
        &config,
        dev.j1,
        &biases,
        events / 20,
        events,
        &BatchOpts::default(),
        |sim, v, _spec| {
            sim.set_lead_voltage(dev.source_lead, v / 2.0)?;
            sim.set_lead_voltage(dev.drain_lead, -v / 2.0)
        },
    )?
    .values()
    .expect("every sweep point measured");

    println!("# Cotunneling validation — SET in blockade, T = {temp} K");
    println!("# V(V)      I_mc(A)        I_analytic(A)   ratio");
    for p in &pts {
        // Electrons flow drain→source; the analytic form gives the
        // magnitude for bias v with the bias-dependent virtual energies.
        let (eps_in, eps_out) = eps_at(p.control);
        let ia = analytic_cotunnel_current(p.control, eps_in, eps_out, kt, 1e6, 1e6);
        let ratio = if ia != 0.0 { p.current / ia } else { f64::NAN };
        println!(
            "{:>9.4} {:>14.5e} {:>14.5e} {:>8.3}",
            p.control, p.current, ia, ratio
        );
    }
    println!("# V³ scaling check (T → 0 limit): I(2V)/I(V) should be ≈ 8 at low T");
    if pts.len() >= 5 {
        let i1 = pts[0].current; // 2 mV
        let i2 = pts.iter().find(|p| (p.control - 4e-3).abs() < 1e-4);
        if let Some(p2) = i2 {
            println!("# I(4mV)/I(2mV) = {:.2}", p2.current / i1);
        }
    }
    Ok(())
}
