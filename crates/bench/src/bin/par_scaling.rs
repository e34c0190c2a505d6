//! Thread-scaling benchmark for the deterministic parallel drivers:
//! runs a reduced Fig. 5 current map (the heaviest embarrassingly
//! parallel workload in the suite) at 1/2/4/8 worker threads, reports
//! the wall-clock speedup, and verifies that every thread count
//! produces **bit-identical** output — the core guarantee of
//! [`semsim_core::par`].
//!
//! The `par-scaling-speedup-4:` line is machine-readable; `scripts/
//! ci.sh` greps it and asserts ≥ 2.5× when the host actually has four
//! cores. The process exits non-zero if any thread count diverges from
//! the serial result, so this bin doubles as a determinism smoke test.
//!
//! Arguments: `events` (default 4000), `nb` (18 bias points), `ng` (13
//! gate points), `temp` (0.52), `seed` (7).

use std::time::Instant;

use semsim_bench::args::Args;
use semsim_bench::devices::{fig5_params, fig5_set};
use semsim_core::batch::{batch_sweep, BatchOpts};
use semsim_core::engine::{linspace, SimConfig};
use semsim_core::par::{available_threads, ParOpts};
use semsim_core::superconduct::{gap_at, QpRateTable};
use semsim_core::CoreError;

fn main() -> Result<(), CoreError> {
    let args = Args::from_env();
    let events = args.u64_or("events", 4_000);
    let nb = args.usize_or("nb", 18);
    let ng = args.usize_or("ng", 13);
    let temp = args.f64_or("temp", 0.52);
    let seed = args.u64_or("seed", 7);

    let dev = fig5_set()?;
    let params = fig5_params()?;
    let gap = gap_at(&params, temp);
    let kt = semsim_core::constants::thermal_energy(temp);
    let e = semsim_core::constants::E_CHARGE;
    let ec = e * e / (2.0 * 234e-18);
    let w_max = 4.0 * gap + 40.0 * kt + 8.0 * ec + 4.0 * e * 0.011;
    let table = QpRateTable::build(gap, kt, w_max)?;
    let config = SimConfig::new(temp)
        .with_seed(seed)
        .with_superconducting(params)
        .with_qp_table(table);
    let biases = linspace(0.1e-3, 1.6e-3, nb);
    let gates = linspace(0.0, 10e-3, ng);

    let run = |threads: usize| -> Result<(Vec<u64>, f64), CoreError> {
        let t0 = Instant::now();
        let opts = BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        };
        // The flattened gate-major grid, as fig5 sweeps it.
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
        let wall = t0.elapsed().as_secs_f64();
        Ok((map.iter().map(|p| p.current.to_bits()).collect(), wall))
    };

    println!(
        "# Parallel scaling — Fig. 5 map, {nb}x{ng} points, {events} events/point, \
         {} hardware thread(s)",
        available_threads()
    );
    println!(
        "# {:>7} {:>10} {:>8} {:>10}",
        "threads", "wall(s)", "speedup", "identical"
    );

    let (ref_bits, serial_wall) = run(1)?;
    let mut all_identical = true;
    for &n in &[1usize, 2, 4, 8] {
        let (bits, wall) = if n == 1 {
            (ref_bits.clone(), serial_wall)
        } else {
            run(n)?
        };
        let identical = bits == ref_bits;
        all_identical &= identical;
        let speedup = serial_wall / wall;
        println!(
            "{n:>9} {wall:>10.3} {speedup:>7.2}x {:>10}",
            if identical { "yes" } else { "NO" }
        );
        if n == 4 {
            println!("par-scaling-speedup-4: {speedup:.2}");
        }
    }

    if !all_identical {
        eprintln!("determinism violation: thread counts disagree");
        std::process::exit(1);
    }
    Ok(())
}
