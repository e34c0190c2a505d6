//! `sset_sweep`: the paper's Fig. 1c/5 use. The superconducting SET
//! example is swept through [`CircuitFile::execute_batch`] with a
//! journal on every available thread, as `semsim sweep --threads N
//! --journal` does. Every point's `Simulation::new` builds the
//! quasi-particle rate table by quadrature, which dominates the sweep.

use std::path::{Path, PathBuf};
use std::time::Instant;

use semsim_core::batch::BatchOpts;
use semsim_core::engine::{RunLength, Simulation, SweepPoint};
use semsim_core::par::ParOpts;
use semsim_core::rng::split_seed;
use semsim_netlist::CircuitFile;

use crate::report::{Metric, Report};
use crate::stats::median;
use crate::trace::{Trace, Tracer};
use crate::{peak_rss_mib, Opts};

/// `examples/netlists/sset.cir` with the sweep thinned to eight points,
/// −1.4 … 1.4 mV in 0.4 mV steps: four ± pairs, two above the
/// quasi-particle threshold and two below it. Eight points fill two
/// work-queue chunks, one per thread on a two-core host.
const SSET: &str = "\
# A superconducting SET (aluminium electrodes): quasi-particle and
# Cooper-pair transport below Tc.
junc 1 1 3 1e-6 110e-18
junc 2 2 3 1e-6 110e-18

vdc 1 0.0014
vdc 2 -0.0014
symm 1

temp 0.05
super
gap 0.18e-3
tc 1.2

record 1 2 2
jumps 10000 1
sweep 2 0.0014 0.0004
";

/// Superconducting gap of [`SSET`] (eV). A swept bias above `4Δ/e`
/// lets quasi-particles through; below it only rare processes remain.
const GAP_EV: f64 = 0.18e-3;
/// Sweeps a traced run makes; an untraced run makes at least this many
/// and more until `--seconds`.
const SWEEPS: u64 = 2;
/// Set-ups behind `setup_s`.
const SETUPS: u64 = 3;

/// The workload's netlist text for `seed`.
fn source(seed: u64) -> String {
    format!("{SSET}seed {seed}\n")
}

/// Checks a sweep's physics: every point measured, `I(−V) = −I(V)`
/// within five standard deviations of Poisson counting noise, and every
/// above-gap current at least 10³ × every sub-gap one.
fn check(points: &[SweepPoint]) -> Result<(), String> {
    if points.len() != 8 {
        return Err(format!("expected 8 sweep points, got {}", points.len()));
    }
    let sigma = |p: &SweepPoint| p.current.abs() * (2.0 / p.events.max(1) as f64).sqrt();
    for p in points {
        if !p.is_measured() || !p.current.is_finite() {
            return Err(format!(
                "point {:e} V not measured: {:?}",
                p.control, p.outcome
            ));
        }
        let mirror = points
            .iter()
            .find(|q| (q.control + p.control).abs() < 1e-9)
            .ok_or_else(|| format!("no mirror point for {:e} V", p.control))?;
        let spread = sigma(p).hypot(sigma(mirror));
        if (p.current + mirror.current).abs() > 5.0 * spread {
            return Err(format!(
                "I({:e} V) = {:e} A is not -I({:e} V) = {:e} A within 5 x {spread:e} A",
                p.control, p.current, mirror.control, -mirror.current
            ));
        }
    }
    let threshold = 4.0 * GAP_EV;
    let (above, below): (Vec<&SweepPoint>, Vec<&SweepPoint>) =
        points.iter().partition(|p| p.control.abs() > threshold);
    let weakest = above
        .iter()
        .map(|p| p.current.abs())
        .fold(f64::INFINITY, f64::min);
    let strongest = below.iter().map(|p| p.current.abs()).fold(0.0, f64::max);
    if above.is_empty() || below.is_empty() || weakest < 1e3 * strongest {
        return Err(format!(
            "above-gap |I| >= {weakest:e} A is not 10^3 x sub-gap |I| <= {strongest:e} A"
        ));
    }
    Ok(())
}

/// What one sweep left behind for the per-layer counts, and the verdict
/// of its output checks.
struct Sweep {
    points: usize,
    events: u64,
    retries: u64,
    faulted: usize,
    journal_bytes: u64,
    verdict: Result<(), String>,
}

/// One sweep: text → parse → journaled batch → last point, checked.
/// `Err` only when the sweep could not run at all.
fn sweep(
    text: &str,
    journal: &Path,
    threads: usize,
    tracer: &Tracer,
    job: u64,
) -> Result<Sweep, String> {
    let _ = std::fs::remove_file(journal);
    let file = tracer
        .span("netlist.parse", job, || CircuitFile::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    let opts = BatchOpts {
        par: ParOpts::with_threads(threads),
        journal: Some(journal.to_path_buf()),
        ..BatchOpts::default()
    };
    let report = tracer
        .span("batch.sweep", job, || file.execute_batch(&opts))
        .map_err(|e| format!("sweep: {e}"))?;
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(journal);
    let points: Vec<SweepPoint> = report.items().flatten().copied().collect();
    let verdict = if points.len() == report.points.len() {
        check(&points)
    } else {
        Err(format!(
            "{} of {} points faulted",
            report.counts.faulted,
            report.points.len()
        ))
    };
    Ok(Sweep {
        points: report.points.len(),
        events: points.iter().map(|p| p.events).sum(),
        retries: report.retries,
        faulted: report.counts.faulted,
        journal_bytes,
        verdict,
    })
}

/// One set-up: text → parse → compile → a `Simulation` at the top of
/// the sweep, ready for its first event. `Simulation::new` builds the
/// quasi-particle table, so this is what a single `semsim run` of the
/// file waits for. A traced run then runs one point's worth of events
/// on it and returns `(events, rate recalculations)`.
fn setup(text: &str, tracer: &Tracer, job: u64, traced: bool) -> Result<(u64, u64), String> {
    let file = tracer
        .span("netlist.parse", job, || CircuitFile::parse(text))
        .map_err(|e| e.to_string())?;
    let compiled = tracer
        .span("circuit.build", job, || file.compile())
        .map_err(|e| e.to_string())?;
    let cfg = file.sim_config().map_err(|e| e.to_string())?;
    let mut sim = tracer
        .span("engine.new", job, || {
            Simulation::new(&compiled.circuit, cfg)
        })
        .map_err(|e| e.to_string())?;
    for (node, v) in [(2, -0.0014), (1, 0.0014)] {
        sim.set_lead_voltage(compiled.leads[&node], v)
            .map_err(|e| e.to_string())?;
    }
    if !traced {
        return Ok((0, 0));
    }
    let events = file.jumps.map_or(10_000, |(e, _)| e);
    let record = tracer
        .span("engine.run", job, || sim.run(RunLength::Events(events)))
        .map_err(|e| e.to_string())?;
    Ok((record.events, record.rate_recalcs))
}

pub fn run(opts: &Opts, tracer: &Tracer, trace: &mut Trace) -> Report {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::default();
    let _ = std::fs::create_dir_all(&opts.out_dir);

    let mut setup_s = Vec::new();
    let mut extra = Vec::new();
    for job in 0..SETUPS {
        let t0 = Instant::now();
        match setup(&source(split_seed(opts.seed, job)), tracer, job, opts.trace) {
            Ok(counts) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                extra.push(counts);
            }
            Err(e) => report.tally.record(Err(format!("set-up: {e}"))),
        }
    }

    let journal: PathBuf = opts.out_dir.join(format!("sset-{}.jl", std::process::id()));
    let mut result_s = Vec::new();
    let mut done = Vec::new();
    let start = Instant::now();
    let sweeps = if opts.quick { 1 } else { SWEEPS };
    for k in 0u64.. {
        let enough = k >= sweeps && (opts.trace || start.elapsed().as_secs_f64() >= opts.seconds);
        if enough || !report.tally.failures.is_empty() {
            break;
        }
        // Job ids (and seeds) continue after the set-ups'.
        let job = SETUPS + k;
        let text = source(split_seed(opts.seed, job));
        let t0 = Instant::now();
        let outcome = sweep(&text, &journal, threads, tracer, job);
        let elapsed = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(s) => {
                if s.verdict.is_ok() {
                    result_s.push(elapsed);
                }
                report.tally.record(s.verdict.clone());
                done.push(s);
            }
            Err(e) => report.tally.record(Err(e)),
        }
    }
    let rss = peak_rss_mib("self").unwrap_or(f64::NAN);
    report.end_to_end = vec![
        Metric::new(
            "time_to_result_s",
            "s",
            median(&result_s),
            format!(
                "median of {}; text -> last of 8 points on {threads} thread(s)",
                result_s.len()
            ),
        ),
        Metric::new(
            "setup_s",
            "s",
            median(&setup_s),
            format!("median of {}; text -> simulation ready", setup_s.len()),
        ),
        Metric::new("peak_rss_mib", "MiB", rss, "VmHWM of the benchmark process"),
    ];

    if opts.trace {
        trace.absorb(tracer.take());
        let events: u64 = extra.iter().map(|e| e.0).sum();
        let recalcs: u64 = extra.iter().map(|e| e.1).sum();
        let bytes: Vec<f64> = done.iter().map(|s| s.journal_bytes as f64).collect();
        report.layers = vec![
            trace.median_metric("netlist.parse_s", "netlist.parse"),
            trace.median_metric("circuit.build_s", "circuit.build"),
            trace.median_metric("engine.new_s", "engine.new"),
            trace.median_metric("engine.run_s", "engine.run"),
            Metric::new(
                "engine.events",
                "count",
                (events + done.iter().map(|s| s.events).sum::<u64>()) as f64,
                "sweep points' measured events + set-up simulations' events",
            ),
            Metric::new(
                "solver.recalcs_per_event",
                "ratio",
                if events == 0 {
                    0.0
                } else {
                    recalcs as f64 / events as f64
                },
                "Record::rate_recalcs / events of the set-up simulations",
            ),
            trace.median_metric("batch.sweep_s", "batch.sweep"),
            Metric::new(
                "batch.points",
                "count",
                done.iter().map(|s| s.points).sum::<usize>() as f64,
                "sum over sweeps",
            ),
            Metric::new(
                "batch.retries",
                "count",
                done.iter().map(|s| s.retries).sum::<u64>() as f64,
                "sum over sweeps",
            ),
            Metric::new(
                "batch.faulted",
                "count",
                done.iter().map(|s| s.faulted).sum::<usize>() as f64,
                "sum over sweeps",
            ),
            Metric::new(
                "journal.bytes",
                "bytes",
                median(&bytes),
                format!("median of {} journals", bytes.len()),
            ),
        ];
    }
    report
}
