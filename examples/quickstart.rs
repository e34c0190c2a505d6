//! Quickstart: simulate the paper's Fig. 1b single-electron transistor
//! and print its I–V curves for several gate voltages.
//!
//! The device: R₁ = R₂ = 1 MΩ, C₁ = C₂ = 1 aF, C_g = 3 aF, T = 5 K,
//! symmetric drain–source bias. The output shows the Coulomb blockade
//! (suppressed current around V_ds = 0) and its modulation by the gate.
//!
//! Run with: `cargo run --release --example quickstart`

use semsim::core::batch::{batch_sweep, BatchOpts};
use semsim::core::circuit::CircuitBuilder;
use semsim::core::engine::{linspace, SimConfig};
use semsim::core::CoreError;

fn main() -> Result<(), CoreError> {
    // Build the SET of the paper's Fig. 1a.
    let mut b = CircuitBuilder::new();
    let source = b.add_lead(0.0);
    let drain = b.add_lead(0.0);
    let gate = b.add_lead(0.0);
    let island = b.add_island();
    let j1 = b.add_junction(source, island, 1e6, 1e-18)?;
    let _j2 = b.add_junction(island, drain, 1e6, 1e-18)?;
    b.add_capacitor(gate, island, 3e-18)?;
    let circuit = b.build()?;

    let config = SimConfig::new(5.0).with_seed(42);
    let biases = linspace(-0.04, 0.04, 41);

    println!("# SET I-V at T = 5 K (paper Fig. 1b)");
    println!("# Vds(V)      I(A) per gate voltage");
    print!("# {:>10}", "Vds");
    for vg_mv in [0.0, 10.0, 20.0, 30.0] {
        print!(" {:>12}", format!("Vg={vg_mv}mV"));
    }
    println!();

    let mut columns = Vec::new();
    for vg in [0.0, 0.01, 0.02, 0.03] {
        let points = batch_sweep(
            &circuit,
            &config,
            j1,
            &biases,
            500,
            20_000,
            &BatchOpts::default(),
            |sim, vds, _spec| {
                sim.set_lead_voltage(1, vds / 2.0)?;
                sim.set_lead_voltage(2, -vds / 2.0)?;
                sim.set_lead_voltage(3, vg)
            },
        )?
        .values()
        .expect("every sweep point measured");
        columns.push(points);
    }

    for (i, &vds) in biases.iter().enumerate() {
        print!("{vds:>12.4}");
        for col in &columns {
            print!(" {:>12.4e}", col[i].current);
        }
        println!();
    }

    println!("#\n# The flat region around Vds = 0 is the Coulomb blockade;");
    println!("# its width shrinks as the gate voltage approaches e/2Cg.");
    Ok(())
}
