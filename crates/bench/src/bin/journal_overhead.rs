//! Measures the wall-clock cost of journaling a batch sweep on the
//! shipped `set_sweep.cir` example: the same 21-point sweep is timed
//! without a journal and with one, in interleaved blocks
//! ([`semsim_bench::timing::paired_overhead`]), the results are
//! asserted bit-identical, and the median per-block slowdown is
//! printed as `journal-overhead-pct: X.XX` (the line `scripts/ci.sh`
//! greps to enforce the <10 % overhead budget).
//!
//! Arguments: `events` (Monte Carlo events per point, default 20000),
//! `threads` (worker threads, default 1 for stable timing).

use std::time::Instant;

use semsim_bench::args::Args;
use semsim_bench::timing::paired_overhead;
use semsim_core::batch::{BatchOpts, BatchReport};
use semsim_core::engine::SweepPoint;
use semsim_core::par::ParOpts;
use semsim_netlist::CircuitFile;

/// Blocks of two (plain, journaled) pairs: 42 pairs, 84 timed sweeps.
const BLOCKS: usize = 21;

fn netlist_path() -> std::path::PathBuf {
    // crates/bench/ → workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    root.join("examples/netlists/set_sweep.cir")
}

/// Wall-clock seconds of one full batch sweep (a journal left by an
/// earlier run is deleted first); the report goes to `out` for the
/// bit-identity check.
fn time_batch(
    file: &CircuitFile,
    opts: &BatchOpts,
    out: &mut Option<BatchReport<SweepPoint>>,
) -> f64 {
    if let Some(path) = &opts.journal {
        let _ = std::fs::remove_file(path);
    }
    let t0 = Instant::now();
    let report = file.execute_batch(opts).expect("shipped example sweeps");
    let elapsed = t0.elapsed().as_secs_f64();
    *out = Some(report);
    elapsed
}

fn main() {
    let args = Args::from_env();
    let events = args.u64_or("events", 20_000);
    let threads = args.u64_or("threads", 1) as usize;

    let path = netlist_path();
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut file = CircuitFile::parse(&source).expect("shipped example parses");
    let runs = file.jumps.map(|(_, r)| r).unwrap_or(1);
    file.jumps = Some((events, runs));

    let journal =
        std::env::temp_dir().join(format!("semsim_journal_overhead_{}.jl", std::process::id()));
    let plain_opts = BatchOpts {
        par: ParOpts::with_threads(threads),
        ..BatchOpts::default()
    };
    let journal_opts = BatchOpts {
        journal: Some(journal.clone()),
        ..plain_opts.clone()
    };

    println!(
        "# journal overhead on {} ({} events/point, {} thread(s), {} blocks)",
        path.display(),
        events,
        threads,
        BLOCKS
    );

    let (mut plain, mut journaled) = (None, None);
    let o = paired_overhead(
        BLOCKS,
        || time_batch(&file, &plain_opts, &mut plain),
        || time_batch(&file, &journal_opts, &mut journaled),
    );
    let (plain, journaled) = (
        plain.expect("a plain run was timed"),
        journaled.expect("a journaled run was timed"),
    );
    let bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&journal);

    assert_eq!(
        plain.values().expect("plain batch completes"),
        journaled.values().expect("journaled batch completes"),
        "journaling changed the sweep results"
    );
    println!("bit-identity: OK ({} points)", plain.counts.total());

    println!(
        "plain: {:.3e} s   journaled: {:.3e} s   ({} journal bytes, medians)",
        o.plain_s, o.treated_s, bytes
    );
    let blocks: Vec<String> = o.block_pct.iter().map(|p| format!("{p:.1}")).collect();
    println!("per-block %: {}", blocks.join(" "));
    println!("journal-overhead-pct: {:.2}", o.median_pct());
}
