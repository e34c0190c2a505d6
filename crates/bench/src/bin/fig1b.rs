//! Regenerates the paper's **Fig. 1b**: SET I–V at `T = 5 K` for
//! `V_g ∈ {0, 10, 20, 30} mV`, symmetric bias sweep ±40 mV.
//!
//! Expected shape: ±10 nA current scale, Coulomb blockade (flat zero
//! current) around `V_ds = 0` of half-width `e/C_Σ = 32 mV` at
//! `V_g = 0`, shrinking as the gate approaches the degeneracy.
//!
//! Arguments (key=value): `events` (default 20000), `points` (41),
//! `seed` (42), `threads` (all cores).

use semsim_bench::args::Args;
use semsim_bench::devices::fig1_set;
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
    let config = SimConfig::new(5.0).with_seed(seed);
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

    println!("# Fig. 1b — SET I-V, T = 5 K, R = 1 MΩ, C = 1 aF, Cg = 3 aF");
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
