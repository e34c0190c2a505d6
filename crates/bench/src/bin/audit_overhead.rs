//! Measures the wall-clock cost of the periodic drift audit on the
//! shipped `set_sweep.cir` example: the same trajectory is timed with
//! auditing off and with auditing on, in interleaved blocks
//! ([`semsim_bench::timing::paired_overhead`]), and the median
//! per-block slowdown is printed as `audit-overhead-pct: X.XX` (the
//! line `scripts/ci.sh` greps to enforce the <5 % overhead budget).
//!
//! Arguments: `events` (timed events per run, default 400000),
//! `interval` (audit period in events, default 1000), `seed` (1);
//! the netlist is fixed to `examples/netlists/set_sweep.cir` resolved
//! against the workspace root.

use std::time::Instant;

use semsim_bench::args::Args;
use semsim_bench::timing::paired_overhead;
use semsim_core::engine::{RunLength, SimConfig, Simulation};
use semsim_netlist::CircuitFile;

/// Blocks of two (plain, audited) pairs: 42 pairs, 84 timed runs.
const BLOCKS: usize = 21;

fn netlist_path() -> std::path::PathBuf {
    // crates/bench/ → workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    root.join("examples/netlists/set_sweep.cir")
}

/// One timed repetition: a fresh simulation, warmed to steady state,
/// then `events` timed Monte Carlo events.
fn time_once(cfg: &SimConfig, circuit: &semsim_core::circuit::Circuit, events: u64) -> f64 {
    let mut sim = Simulation::new(circuit, cfg.clone()).expect("valid configuration");
    sim.run(RunLength::Events(events / 10))
        .expect("warm-up runs");
    let t0 = Instant::now();
    sim.run(RunLength::Events(events)).expect("timed run");
    t0.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::from_env();
    let events = args.u64_or("events", 400_000);
    let interval = args.u64_or("interval", 1_000);
    let seed = args.u64_or("seed", 1);

    let path = netlist_path();
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let file = CircuitFile::parse(&source).expect("shipped example parses");
    let compiled = file.compile().expect("shipped example compiles");
    let cfg = file.sim_config().expect("shipped example configures");

    println!(
        "# drift-audit overhead on {} ({} junctions, {} timed events, audit every {}, {} blocks)",
        path.display(),
        compiled.circuit.num_junctions(),
        events,
        interval,
        BLOCKS
    );

    let base_cfg = cfg.clone().with_seed(seed);
    let audit_cfg = base_cfg.clone().with_audit_interval(interval);

    let circuit = &compiled.circuit;
    let o = paired_overhead(
        BLOCKS,
        || time_once(&base_cfg, circuit, events),
        || time_once(&audit_cfg, circuit, events),
    );
    println!(
        "baseline: {:.3e} s   audited: {:.3e} s   ({:.1} ns/event baseline, medians)",
        o.plain_s,
        o.treated_s,
        o.plain_s / events as f64 * 1e9
    );
    let blocks: Vec<String> = o.block_pct.iter().map(|p| format!("{p:.1}")).collect();
    println!("per-block %: {}", blocks.join(" "));
    println!("audit-overhead-pct: {:.2}", o.median_pct());
}
