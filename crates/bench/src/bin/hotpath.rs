//! Hot-path performance harness: events/sec of the optimized adaptive
//! solver against the dense-reference oracle
//! ([`SolverSpec::AdaptiveDense`]), which reaches the same decisions by
//! scanning every junction per event with the per-junction scalar
//! functions. Both runs share one seed, so their run records must
//! agree bit-for-bit — the harness exits nonzero on any mismatch
//! before it reports a single number.
//!
//! Workloads are the Fig. 6 logic benchmarks, measured strictly
//! serially with interleaved timed windows (co-running workers would
//! pollute the per-event timings). A machine-readable summary is
//! written to `results/BENCH_hotpath.json`, and the final stdout line
//! `hotpath-speedup-largest: X.XX` is the CI gate quantity: the
//! optimized-over-dense events/sec ratio on the largest measured
//! benchmark, expected ≥ 2.5.
//!
//! The harness also re-asserts sweep bit-identity on the Fig. 1 SET:
//! a serial I–V sweep under the optimized solver must match the
//! dense-reference sweep bitwise in every control, current, and event
//! count.
//!
//! Arguments: `sample` (timed events per window, default 4000),
//! `repeats` (timed windows per solver run, min-of-N, default 5),
//! `warmup` (discarded events, default 500), `max_junctions` (default
//! 2072), `seed` (1), `temp` (K; default = the logic family's
//! operating point), `out` (default `results/BENCH_hotpath.json`).

use semsim_bench::args::Args;
use semsim_bench::devices::fig1_set;
use semsim_bench::timing::measure_pair;
use semsim_core::batch::{batch_sweep, BatchOpts};
use semsim_core::engine::{linspace, Record, SimConfig, Simulation, SolverSpec};
use semsim_core::par::ParOpts;
use semsim_core::CoreError;
use semsim_logic::{elaborate, Benchmark, SetLogicParams};

/// Sweep bit-identity: the optimized solver's I–V curve on the Fig. 1
/// SET must match the dense-reference oracle's bitwise.
fn sweep_bit_identity(seed: u64) -> Result<(), String> {
    let d = fig1_set().map_err(|e| e.to_string())?;
    let controls = linspace(10e-3, 40e-3, 6);
    let run = |spec: SolverSpec| {
        let cfg = SimConfig::new(0.1).with_seed(seed).with_solver(spec);
        let serial = BatchOpts {
            par: ParOpts::serial(),
            ..BatchOpts::default()
        };
        batch_sweep(
            &d.circuit,
            &cfg,
            d.j1,
            &controls,
            300,
            1200,
            &serial,
            |sim, v, _spec| {
                sim.set_lead_voltage(d.source_lead, v / 2.0)?;
                sim.set_lead_voltage(d.drain_lead, -v / 2.0)
            },
        )
        .map_err(|e| e.to_string())?
        .values()
        .ok_or_else(|| "a sweep point faulted".to_string())
    };
    let opt = run(SolverSpec::Adaptive {
        threshold: 0.05,
        refresh_interval: 500,
    })?;
    let dense = run(SolverSpec::AdaptiveDense {
        threshold: 0.05,
        refresh_interval: 500,
    })?;
    for (o, r) in opt.iter().zip(&dense) {
        let ob = (o.control.to_bits(), o.current.to_bits(), o.events);
        let rb = (r.control.to_bits(), r.current.to_bits(), r.events);
        if ob != rb {
            return Err(format!(
                "sweep point diverged at control {}: optimized {ob:?} vs dense {rb:?}",
                o.control
            ));
        }
    }
    Ok(())
}

fn main() {
    let args = Args::from_env();
    let sample = args.u64_or("sample", 4_000);
    let warmup = args.u64_or("warmup", 500);
    let repeats = args.u64_or("repeats", 5);
    let max_junctions = args.usize_or("max_junctions", 2072);
    let seed = args.u64_or("seed", 1);
    let out_path = std::env::args()
        .skip(1)
        .find_map(|t| t.strip_prefix("out=").map(String::from))
        .unwrap_or_else(|| "results/BENCH_hotpath.json".to_string());

    // Gate the cheap correctness check before any timing.
    if let Err(e) = sweep_bit_identity(seed) {
        eprintln!("FAIL: optimized sweep is not bit-identical to dense reference: {e}");
        std::process::exit(1);
    }
    println!("# sweep bit-identity (optimized vs dense reference): OK");

    let mut params = SetLogicParams::default();
    params.temperature = args.f64_or("temp", params.temperature);
    println!("# hotpath — serial events/sec, adaptive solver vs dense-reference");
    println!(
        "# {:<16} {:>6} {:>6} {:>12} {:>12} {:>8}",
        "benchmark", "junc", "isl", "opt(ev/s)", "dense(ev/s)", "speedup"
    );

    let benches: Vec<Benchmark> = Benchmark::all()
        .into_iter()
        .filter(|b| b.target_junctions() <= max_junctions)
        .collect();

    let mut rows: Vec<String> = Vec::new();
    let mut largest: Option<(usize, String, f64)> = None;
    let mut mismatch = false;

    for b in &benches {
        let logic = b.logic();
        let elab = match elaborate(&logic, &params) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{}: elaboration failed: {e}", b.name());
                continue;
            }
        };
        let apply_inputs = |sim: &mut Simulation<'_>| -> Result<(), CoreError> {
            for name in &logic.inputs {
                let lead = elab.input_lead(name).expect("input exists");
                sim.set_lead_voltage(lead, params.vdd)?;
            }
            Ok(())
        };
        // The full-refresh interval scales with circuit size so the
        // O(islands) refresh stays amortized-constant per event (same
        // policy as the Fig. 6 harness).
        let refresh_interval = 1_000u64.max(4 * elab.circuit.num_islands() as u64);
        let mk_cfg = |spec: SolverSpec| {
            SimConfig::new(params.temperature)
                .with_seed(seed)
                .with_solver(spec)
        };
        let pair = match measure_pair(
            &elab.circuit,
            &mk_cfg(SolverSpec::Adaptive {
                threshold: 0.05,
                refresh_interval,
            }),
            &mk_cfg(SolverSpec::AdaptiveDense {
                threshold: 0.05,
                refresh_interval,
            }),
            warmup,
            sample,
            repeats,
            apply_inputs,
        ) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: measurement failed: {e}", b.name());
                continue;
            }
        };
        if pair.opt_records != pair.dense_records {
            let events = |rs: &[Record]| -> Vec<u64> { rs.iter().map(|r| r.events).collect() };
            eprintln!(
                "FAIL: {}: optimized run records differ from dense reference \
                 (optimized events {:?}, dense events {:?})",
                b.name(),
                events(&pair.opt_records),
                events(&pair.dense_records),
            );
            mismatch = true;
            continue;
        }

        let speedup = pair.speedup();
        let junc = b.target_junctions();
        println!(
            "{:<18} {:>6} {:>6} {:>12.0} {:>12.0} {:>7.2}x",
            b.name(),
            junc,
            elab.circuit.num_islands(),
            pair.opt.events_per_sec(),
            pair.dense.events_per_sec(),
            speedup,
        );
        rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"junctions\": {}, \"islands\": {},\n",
                "     \"optimized\": {{\"events_per_sec\": {:.6e}, ",
                "\"wall_per_event\": {:.6e}, \"recalcs_per_event\": {:.6e}}},\n",
                "     \"dense\": {{\"events_per_sec\": {:.6e}, ",
                "\"wall_per_event\": {:.6e}, \"recalcs_per_event\": {:.6e}}},\n",
                "     \"speedup\": {:.4}}}"
            ),
            b.name(),
            junc,
            elab.circuit.num_islands(),
            pair.opt.events_per_sec(),
            pair.opt.wall_per_event,
            pair.opt.recalcs_per_event,
            pair.dense.events_per_sec(),
            pair.dense.wall_per_event,
            pair.dense.recalcs_per_event,
            speedup,
        ));
        if largest.as_ref().is_none_or(|&(j, _, _)| junc > j) {
            largest = Some((junc, b.name().to_string(), speedup));
        }
    }

    if mismatch {
        eprintln!("FAIL: at least one benchmark diverged from the dense reference");
        std::process::exit(1);
    }
    let Some((junc, name, speedup)) = largest else {
        eprintln!("FAIL: no benchmark measured (max_junctions too small?)");
        std::process::exit(1);
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"harness\": \"hotpath\",\n",
            "  \"sample\": {},\n",
            "  \"warmup\": {},\n",
            "  \"seed\": {},\n",
            "  \"threshold\": 0.05,\n",
            "  \"temperature\": {:.6e},\n",
            "  \"bit_identity\": \"optimized and dense-reference records compared ",
            "bitwise per benchmark, plus a Fig. 1 SET sweep\",\n",
            "  \"benchmarks\": [\n{}\n  ],\n",
            "  \"largest\": {{\"name\": \"{}\", \"junctions\": {}, \"speedup\": {:.4}}}\n",
            "}}\n"
        ),
        sample,
        warmup,
        seed,
        params.temperature,
        rows.join(",\n"),
        name,
        junc,
        speedup,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("FAIL: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("# wrote {out_path}");
    println!("hotpath-speedup-largest: {speedup:.2}");
}
