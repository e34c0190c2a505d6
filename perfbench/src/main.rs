//! Benchmark of three SEMSIM user paths, end to end and per layer.
//!
//! ```text
//! semsim-perfbench --workload <c432_delay|sset_sweep|serve_set_jobs>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--out-dir <dir>] [--semsim <path>] [--quick]
//! ```
//!
//! With `--trace 0` the run measures the workload for `--seconds` and
//! the last stdout line carries its end-to-end metrics. With
//! `--trace 1` it runs a fixed amount of work with spans around every
//! wrapped call, writes the spans to `--out-dir`, and the last line
//! carries the per-layer metrics. Every output is checked; a failed
//! check counts as a failed operation and makes the exit code 1.
//! `--quick` shrinks every workload for the self-test.

mod c432;
mod report;
mod serve;
mod sset;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Report};
use trace::{Trace, Tracer};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub semsim: PathBuf,
    pub quick: bool,
}

/// Every per-layer metric, in output order, with its unit. A workload
/// that never calls a layer reports its metrics as 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("circuit.build_s", "s"),
    ("engine.new_s", "s"),
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("solver.tests_per_event", "ratio"),
    ("solver.recalcs_per_event", "ratio"),
    ("solver.recalcs_per_test", "ratio"),
    ("solver.full_refreshes", "count"),
    ("batch.sweep_s", "s"),
    ("batch.points", "count"),
    ("batch.retries", "count"),
    ("batch.faulted", "count"),
    ("journal.bytes", "bytes"),
    ("server.admit_s", "s"),
    ("server.stream_s", "s"),
    ("jobs.cache_hit_ratio", "ratio"),
    ("server.refused", "count"),
];

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("target/perfbench"),
        semsim: PathBuf::from("target/release/semsim"),
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(&value),
            "--semsim" => opts.semsim = PathBuf::from(&value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `pid` is a number
/// or `self`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Orders a traced run's per-layer metrics as [`LAYERS`], filling
/// layers the workload never called with 0.
fn complete_layers(measured: Vec<Metric>) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0, "layer not called"))
        })
        .collect()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let tracer = Tracer::new(opts.trace, epoch);
    let mut trace = Trace::default();
    let mut report: Report = match opts.workload.as_str() {
        "c432_delay" => c432::run(&opts, &tracer, &mut trace),
        "sset_sweep" => sset::run(&opts, &tracer, &mut trace),
        "serve_set_jobs" => serve::run(&opts, epoch, &mut trace),
        other => {
            eprintln!("error: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    if report.tally.attempted == 0 {
        report.tally.record(Err("no operation ran".to_string()));
    }
    if opts.trace {
        report.layers = complete_layers(std::mem::take(&mut report.layers));
        let path = opts
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match trace.write(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => report
                .tally
                .failures
                .push(format!("writing spans to {}: {e}", path.display())),
        }
        for (name, (count, total, own)) in trace.summary() {
            println!("# span {name:<16} count {count:>6} total {total:>12.6} s self {own:>12.6} s");
        }
    }
    let reported = if opts.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    let missing: Vec<&str> = reported
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        report
            .tally
            .failures
            .push(format!("no value for {}", missing.join(", ")));
    }
    print!("{}", report.render(&opts.workload, opts.trace));
    if report.tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
