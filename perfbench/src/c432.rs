//! `c432_delay`: the paper's Fig. 6–7 use. The c432 benchmark is
//! rendered to `.logic` text, parsed, elaborated once, and measured by
//! fresh adaptive replicas of the Fig. 7 delay measurement.

use std::time::Instant;

use semsim_core::engine::{RunLength, SimConfig, Simulation, SolverSpec};
use semsim_core::rng::split_seed;
use semsim_logic::{elaborate, find_sensitizing_vector, Benchmark, Elaborated, SetLogicParams};
use semsim_netlist::{GateKind, LogicFile};

use crate::report::{Metric, Report};
use crate::stats::median;
use crate::trace::{Trace, Tracer};
use crate::{peak_rss_mib, Opts};

/// The observed output: the benchmark's embedded 8-inverter delay line.
const OUTPUT: &str = "delay_out";
/// Settle and watch spans in units of the switching time τ. The delay
/// line's own delay is about 12 τ, so a 25 τ settle leaves it settled
/// twice over; the watch window is `fig7`'s.
const SETTLE_TAU: f64 = 25.0;
const WINDOW_TAU: f64 = 60.0;
/// Watch-window slice between crossing checks, in τ.
const SLICE_TAU: f64 = 2.0;
/// Adaptive threshold θ (`fig6`/`fig7`).
const THETA: f64 = 0.05;

/// Renders a netlist in the `.logic` format [`LogicFile::parse`] reads.
fn render(logic: &LogicFile) -> String {
    let mut out = format!(
        "input {}\noutput {}\n",
        logic.inputs.join(" "),
        logic.outputs.join(" ")
    );
    for g in &logic.gates {
        let kind = match g.kind {
            GateKind::Inv => "inv",
            GateKind::Buf => "buf",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
        };
        out.push_str(&format!("{kind} {} {}\n", g.output, g.inputs.join(" ")));
    }
    out
}

/// One delay measurement on a fresh simulation.
struct Replica {
    delay: f64,
    run_s: f64,
    events: u64,
    tested: u64,
    recalcs: u64,
    refreshes: u64,
}

/// Settles the circuit under a sensitizing vector, toggles the input
/// and watches the output cross `V_dd/2`, on a fresh adaptive
/// simulation seeded with `seed`.
fn replica(
    elab: &Elaborated,
    logic: &LogicFile,
    seed: u64,
    tracer: &Tracer,
    job: u64,
) -> Result<Replica, String> {
    let (vector, input_idx) = find_sensitizing_vector(logic, OUTPUT, seed)
        .ok_or_else(|| format!("no sensitizing vector for {OUTPUT}"))?;
    let params = &elab.params;
    let tau = params.switching_time();
    let cfg = SimConfig::new(params.temperature)
        .with_seed(seed)
        .with_solver(SolverSpec::Adaptive {
            threshold: THETA,
            refresh_interval: 1_000u64.max(4 * elab.circuit.num_islands() as u64),
        });

    let mut sim = tracer
        .span("engine.new", job, || Simulation::new(&elab.circuit, cfg))
        .map_err(|e| e.to_string())?;

    let level = |bit: bool| if bit { params.vdd } else { 0.0 };
    for (name, &bit) in logic.inputs.iter().zip(&vector) {
        let lead = elab.input_lead(name).map_err(|e| e.to_string())?;
        sim.set_lead_voltage(lead, level(bit))
            .map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let settled = tracer
        .span("engine.run", job, || {
            sim.run(RunLength::Time(SETTLE_TAU * tau))
        })
        .map_err(|e| e.to_string())?;
    let mut run_s = t.elapsed().as_secs_f64();

    let mut toggled = vector.clone();
    toggled[input_idx] = !toggled[input_idx];
    let rising = logic.evaluate(&toggled)[OUTPUT];
    let node = elab.signal(OUTPUT).map_err(|e| e.to_string())?;
    // The probe takes no sample at the toggle itself, so a crossing
    // found later is a transition only if the settled output starts on
    // the other side of V_dd/2.
    let before = sim.node_potential(node).map_err(|e| e.to_string())?;
    if (before > 0.5 * params.vdd) == rising {
        return Err(format!(
            "seed {seed}: {OUTPUT} settled at {before:e} V, already past Vdd/2 before the toggle"
        ));
    }
    let probe = sim.add_probe(node, 1);
    let t0 = sim.time();
    let lead = elab
        .input_lead(&logic.inputs[input_idx])
        .map_err(|e| e.to_string())?;
    sim.set_lead_voltage(lead, level(toggled[input_idx]))
        .map_err(|e| e.to_string())?;
    // Watch in slices and stop once the crossing has held, so the
    // replica pays for the delay rather than the whole window.
    let window = WINDOW_TAU * tau;
    let mut events = settled.events;
    let mut crossing = None;
    let mut last = settled;
    while crossing.is_none() && sim.time() - t0 < window {
        let t = Instant::now();
        last = tracer
            .span("engine.run", job, || {
                sim.run(RunLength::Time(SLICE_TAU * tau))
            })
            .map_err(|e| e.to_string())?;
        run_s += t.elapsed().as_secs_f64();
        events += last.events;
        crossing = last.probes[probe].crossing_time(t0, 0.5 * params.vdd, rising, 5);
    }
    let delay = crossing
        .map(|t| t - t0)
        .ok_or_else(|| format!("seed {seed}: {OUTPUT} never crossed Vdd/2 within {window:e} s"))?;
    if !(delay > 0.0 && delay < window) {
        return Err(format!(
            "seed {seed}: delay {delay:e} s outside (0, {window:e}) s"
        ));
    }
    let stats = last
        .adaptive_stats
        .ok_or("adaptive run reported no solver statistics")?;
    Ok(Replica {
        delay,
        run_s,
        events,
        tested: stats.junctions_tested,
        recalcs: stats.rate_recalcs,
        refreshes: stats.full_refreshes,
    })
}

/// Samples as a short list, for the printed report.
fn listed_s(samples: &[f64]) -> String {
    let s: Vec<String> = samples.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}] s", s.join(" "))
}

/// Text-to-result pipelines per run: a traced run does exactly this
/// many, an untraced run at least this many and more until `--seconds`.
const PIPELINES: u64 = 4;

/// One pipeline: text → parse → elaborate → one delay replica. Returns
/// the set-up time (parse + elaborate) and the replica.
fn pipeline(
    text: &str,
    params: &SetLogicParams,
    seed: u64,
    tracer: &Tracer,
    job: u64,
) -> Result<(f64, Replica), String> {
    let t0 = Instant::now();
    let logic = tracer
        .span("netlist.parse", job, || LogicFile::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    let elab = tracer
        .span("circuit.build", job, || elaborate(&logic, params))
        .map_err(|e| format!("elaborate: {e}"))?;
    let setup = t0.elapsed().as_secs_f64();
    Ok((setup, replica(&elab, &logic, seed, tracer, job)?))
}

pub fn run(opts: &Opts, tracer: &Tracer, trace: &mut Trace) -> Report {
    // The self-test's reduced size: a 944-junction benchmark.
    let bench = if opts.quick {
        Benchmark::Ls181
    } else {
        Benchmark::C432
    };
    let text = render(&bench.logic());
    let params = SetLogicParams::default();
    let mut report = Report::default();

    let mut result_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut done: Vec<Replica> = Vec::new();
    let start = Instant::now();
    let pipelines = if opts.quick { 1 } else { PIPELINES };
    for job in 0u64.. {
        let enough =
            job >= pipelines && (opts.trace || start.elapsed().as_secs_f64() >= opts.seconds);
        if enough {
            break;
        }
        let t0 = Instant::now();
        let outcome = tracer.span("pipeline", job, || {
            pipeline(&text, &params, split_seed(opts.seed, job), tracer, job)
        });
        let elapsed = t0.elapsed().as_secs_f64();
        match outcome {
            Ok((setup, rep)) => {
                report.tally.record(Ok(()));
                result_s.push(elapsed);
                setup_s.push(setup);
                done.push(rep);
            }
            Err(e) => report.tally.record(Err(e)),
        }
    }
    let rss = peak_rss_mib("self").unwrap_or(f64::NAN);
    let delays: Vec<f64> = done.iter().map(|r| r.delay).collect();
    let mean_delay = delays.iter().sum::<f64>() / delays.len().max(1) as f64;
    let listed: Vec<String> = delays.iter().map(|d| format!("{d:.4e}")).collect();
    println!(
        "# {}: mean delay {mean_delay:.4e} s over {} replica(s): {}",
        bench.name(),
        delays.len(),
        listed.join(" ")
    );

    let n = |v: &Vec<f64>| format!("median of {}", v.len());
    let events_per_s: Vec<f64> = done.iter().map(|r| r.events as f64 / r.run_s).collect();
    report.end_to_end = vec![
        Metric::new(
            "time_to_result_s",
            "s",
            median(&result_s),
            format!(
                "{}; text -> delay of one replica; {}",
                n(&result_s),
                listed_s(&result_s)
            ),
        ),
        Metric::new(
            "setup_s",
            "s",
            median(&setup_s),
            format!("{}; parse + elaborate; {}", n(&setup_s), listed_s(&setup_s)),
        ),
        Metric::new("peak_rss_mib", "MiB", rss, "VmHWM of the benchmark process"),
    ];
    report.extra = vec![Metric::new(
        "events_per_s",
        "1/s",
        median(&events_per_s),
        format!("{}; events per second of Simulation::run", n(&events_per_s)),
    )];

    if opts.trace {
        trace.absorb(tracer.take());
        let events: u64 = done.iter().map(|r| r.events).sum();
        let tested: u64 = done.iter().map(|r| r.tested).sum();
        let recalcs: u64 = done.iter().map(|r| r.recalcs).sum();
        let refreshes: u64 = done.iter().map(|r| r.refreshes).sum();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let run_s: Vec<f64> = done.iter().map(|r| r.run_s).collect();
        report.layers = vec![
            trace.median_metric("netlist.parse_s", "netlist.parse"),
            trace.median_metric("circuit.build_s", "circuit.build"),
            trace.median_metric("engine.new_s", "engine.new"),
            Metric::new(
                "engine.run_s",
                "s",
                median(&run_s),
                format!("{} replicas; settle + watch", n(&run_s)),
            ),
            Metric::new("engine.events", "count", events as f64, "sum over replicas"),
            Metric::new(
                "solver.tests_per_event",
                "ratio",
                ratio(tested, events),
                "AdaptiveStats::junctions_tested / events",
            ),
            Metric::new(
                "solver.recalcs_per_event",
                "ratio",
                ratio(recalcs, events),
                "AdaptiveStats::rate_recalcs / events",
            ),
            Metric::new(
                "solver.recalcs_per_test",
                "ratio",
                ratio(recalcs, tested),
                "rate_recalcs / junctions_tested",
            ),
            Metric::new(
                "solver.full_refreshes",
                "count",
                refreshes as f64,
                "sum over replicas",
            ),
        ];
    }
    report
}
