//! Regenerates the paper's **Fig. 1c**: superconducting SET (SSET) I–V
//! at `T = 50 mK` with `Δ(0) = 0.2 meV`, `T_c = 1.2 K`, same device as
//! Fig. 1b.
//!
//! Expected shape: the suppressed-current region is *enlarged* relative
//! to Fig. 1b — quasi-particle transport needs `e·V` to additionally
//! pay `2Δ` per junction crossing, widening the gap region by ≈ `4Δ/e
//! = 0.8 mV`-per-junction scaled by the divider, and Cooper-pair (JQP)
//! structure appears inside it.
//!
//! Arguments: `events` (default 20000), `points` (41), `seed` (42),
//! `threads` (all cores).

use semsim_bench::args::Args;
use semsim_bench::devices::{fig1_set, fig1c_params};
use semsim_core::batch::{batch_sweep, BatchOpts};
use semsim_core::engine::{linspace, SimConfig};
use semsim_core::CoreError;

fn main() -> Result<(), CoreError> {
    let args = Args::from_env();
    let events = args.u64_or("events", 20_000);
    let points = args.usize_or("points", 41);
    let seed = args.u64_or("seed", 42);
    let opts = BatchOpts {
        par: args.par_opts(),
        ..BatchOpts::default()
    };

    let dev = fig1_set()?;
    let config = SimConfig::new(0.05)
        .with_seed(seed)
        .with_superconducting(fig1c_params()?);
    let biases = linspace(-0.04, 0.04, points);
    let gate_voltages = [0.0, 0.01, 0.02, 0.03];

    let mut columns = Vec::new();
    for &vg in &gate_voltages {
        let pts = batch_sweep(
            &dev.circuit,
            &config,
            dev.j1,
            &biases,
            events / 20,
            events,
            &opts,
            |sim, vds, _spec| {
                sim.set_lead_voltage(dev.source_lead, vds / 2.0)?;
                sim.set_lead_voltage(dev.drain_lead, -vds / 2.0)?;
                sim.set_lead_voltage(dev.gate_lead, vg)
            },
        )?
        .values()
        .expect("every sweep point measured");
        columns.push(pts);
    }

    println!("# Fig. 1c — SSET I-V, T = 50 mK, Δ(0) = 0.2 meV, Tc = 1.2 K");
    println!("# Vds(V), I(A) at Vg = 0 / 10 / 20 / 30 mV");
    for (i, &vds) in biases.iter().enumerate() {
        print!("{vds:>12.5}");
        for col in &columns {
            print!(" {:>13.5e}", col[i].current);
        }
        println!();
    }
    Ok(())
}
