//! Wall-clock measurement helpers for the performance figures.
//!
//! The paper extrapolated the running times of the five largest
//! benchmarks from shorter runs, "adjusted for a circuit simulation
//! time of 10 µs"; these helpers implement the same methodology:
//! measure the steady-state wall-clock cost per Monte Carlo event and
//! the simulated-time advance per event, then scale to the requested
//! simulated horizon.

use std::time::Instant;

use semsim_core::circuit::Circuit;
use semsim_core::engine::{Record, RunLength, SimConfig, Simulation};
use semsim_core::CoreError;

/// Measured cost profile of one simulation method on one circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodTiming {
    /// Wall-clock seconds per Monte Carlo event (steady state).
    pub wall_per_event: f64,
    /// Simulated seconds per event (`1/Γ_sum` on average).
    pub sim_per_event: f64,
    /// Events measured.
    pub events: u64,
    /// First-order rate recalculations per event.
    pub recalcs_per_event: f64,
}

impl MethodTiming {
    /// Extrapolated wall-clock time (s) to simulate `sim_time` seconds
    /// of circuit time — the paper's Fig. 6 quantity.
    pub fn wall_for(&self, sim_time: f64) -> f64 {
        if self.sim_per_event <= 0.0 {
            return 0.0;
        }
        (sim_time / self.sim_per_event) * self.wall_per_event
    }
}

/// Measures a Monte Carlo method on `circuit`: `setup` prepares the
/// inputs, `warmup` events are discarded, `sample` events are timed.
///
/// # Errors
///
/// Propagates simulation errors (e.g. a fully blockaded circuit).
pub fn measure_mc<F>(
    circuit: &Circuit,
    config: &SimConfig,
    warmup: u64,
    sample: u64,
    mut setup: F,
) -> Result<MethodTiming, CoreError>
where
    F: FnMut(&mut Simulation<'_>) -> Result<(), CoreError>,
{
    let mut sim = Simulation::new(circuit, config.clone())?;
    setup(&mut sim)?;
    sim.run(RunLength::Events(warmup))?;
    let t0 = Instant::now();
    let record = sim.run(RunLength::Events(sample))?;
    let wall = t0.elapsed().as_secs_f64();
    Ok(MethodTiming {
        wall_per_event: wall / record.events.max(1) as f64,
        sim_per_event: record.duration / record.events.max(1) as f64,
        events: record.events,
        recalcs_per_event: record.rate_recalcs as f64 / record.events.max(1) as f64,
    })
}

/// Formats a wall-clock time the way the paper's log-scale Fig. 6 reads
/// (seconds with 3 significant digits).
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.3e}")
}

/// Steady-state cost of one solver configuration on one circuit, as
/// measured by [`measure_pair`] (minimum wall-clock per event over the
/// timed windows — the noise floor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCost {
    /// Wall-clock seconds per event (best window).
    pub wall_per_event: f64,
    /// First-order rate recalculations per event.
    pub recalcs_per_event: f64,
}

impl RunCost {
    /// Events per wall-clock second (0 when nothing was timed).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_per_event > 0.0 {
            1.0 / self.wall_per_event
        } else {
            0.0
        }
    }
}

/// One simulation being sampled in timed windows on a steady-state
/// trajectory (see [`measure_pair`]).
struct Sampler<'a> {
    sim: Simulation<'a>,
    records: Vec<Record>,
    best_wall: f64,
    events: u64,
    recalcs: u64,
}

impl<'a> Sampler<'a> {
    fn new<F>(
        circuit: &'a Circuit,
        config: &SimConfig,
        warmup: u64,
        mut setup: F,
    ) -> Result<Self, CoreError>
    where
        F: FnMut(&mut Simulation<'_>) -> Result<(), CoreError>,
    {
        let mut sim = Simulation::new(circuit, config.clone())?;
        setup(&mut sim)?;
        sim.run(RunLength::Events(warmup))?;
        Ok(Sampler {
            sim,
            records: Vec::new(),
            best_wall: f64::INFINITY,
            events: 0,
            recalcs: 0,
        })
    }

    /// Times one window of `sample` events; keeps the fastest window.
    fn window(&mut self, sample: u64) -> Result<(), CoreError> {
        let t0 = Instant::now();
        let record = self.sim.run(RunLength::Events(sample))?;
        let wall = t0.elapsed().as_secs_f64();
        self.best_wall = self.best_wall.min(wall / record.events.max(1) as f64);
        self.events += record.events;
        self.recalcs += record.rate_recalcs;
        self.records.push(record);
        Ok(())
    }

    fn cost(&self) -> RunCost {
        RunCost {
            wall_per_event: self.best_wall,
            recalcs_per_event: self.recalcs as f64 / self.events.max(1) as f64,
        }
    }
}

/// Everything [`measure_pair`] learned about one circuit: both cost
/// profiles and both per-window record lists (for the bit-identity
/// check).
pub struct PairMeasurement {
    /// Cost of the first (optimized) configuration.
    pub opt: RunCost,
    /// Cost of the second (reference) configuration.
    pub dense: RunCost,
    /// Per-window records of the optimized side, in window order.
    pub opt_records: Vec<Record>,
    /// Per-window records of the reference side, in window order.
    pub dense_records: Vec<Record>,
}

impl PairMeasurement {
    /// Events/sec ratio, reference over optimized — the speedup.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.opt.wall_per_event > 0.0 {
            self.dense.wall_per_event / self.opt.wall_per_event
        } else {
            0.0
        }
    }
}

/// Measures two solver configurations on one circuit: both are warmed
/// up, then their timed windows are *interleaved* (opt, dense, opt,
/// dense, …) so slow machine-wide drift — frequency scaling, co-tenant
/// load — hits both sides alike and cancels out of the events/sec
/// ratio. Each side keeps its minimum wall-clock per event over
/// `repeats` windows (the noise floor).
///
/// # Errors
///
/// Propagates simulation errors from either side.
pub fn measure_pair<F>(
    circuit: &Circuit,
    cfg_opt: &SimConfig,
    cfg_dense: &SimConfig,
    warmup: u64,
    sample: u64,
    repeats: u64,
    mut setup: F,
) -> Result<PairMeasurement, CoreError>
where
    F: FnMut(&mut Simulation<'_>) -> Result<(), CoreError>,
{
    let mut opt = Sampler::new(circuit, cfg_opt, warmup, &mut setup)?;
    let mut dense = Sampler::new(circuit, cfg_dense, warmup, &mut setup)?;
    for _ in 0..repeats.max(1) {
        opt.window(sample)?;
        dense.window(sample)?;
    }
    Ok(PairMeasurement {
        opt: opt.cost(),
        dense: dense.cost(),
        opt_records: opt.records,
        dense_records: dense.records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::fig1_set;

    #[test]
    fn timing_extrapolation() {
        let t = MethodTiming {
            wall_per_event: 1e-6,
            sim_per_event: 1e-10,
            events: 1000,
            recalcs_per_event: 2.0,
        };
        // 1 s of simulated time = 1e10 events × 1 µs = 1e4 s of wall.
        assert!((t.wall_for(1.0) - 1e4).abs() < 1.0);
        assert_eq!(
            MethodTiming {
                sim_per_event: 0.0,
                ..t
            }
            .wall_for(1.0),
            0.0
        );
    }

    #[test]
    fn measure_on_conducting_set() {
        let d = fig1_set().unwrap();
        let cfg = SimConfig::new(5.0).with_seed(3);
        let t = measure_mc(&d.circuit, &cfg, 200, 1000, |sim| {
            sim.set_lead_voltage(1, 20e-3)?;
            sim.set_lead_voltage(2, -20e-3)
        })
        .unwrap();
        assert!(t.wall_per_event > 0.0);
        assert!(t.sim_per_event > 0.0);
        assert_eq!(t.events, 1000);
        assert!(t.recalcs_per_event >= 1.0);
    }

    #[test]
    fn paired_measurement_is_bit_identical() {
        use semsim_core::engine::SolverSpec;

        let d = fig1_set().unwrap();
        let mk = |spec: SolverSpec| SimConfig::new(5.0).with_seed(9).with_solver(spec);
        let cfg_opt = mk(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 500,
        });
        let cfg_dense = mk(SolverSpec::AdaptiveDense {
            threshold: 0.05,
            refresh_interval: 500,
        });
        let pair = measure_pair(&d.circuit, &cfg_opt, &cfg_dense, 200, 500, 2, |sim| {
            sim.set_lead_voltage(1, 20e-3)?;
            sim.set_lead_voltage(2, -20e-3)
        })
        .unwrap();
        // Same seed, same physics: the optimized solver's records must
        // match the dense-reference oracle's bitwise.
        assert_eq!(pair.opt_records, pair.dense_records);
        assert!(pair.opt.wall_per_event > 0.0);
        assert!(pair.dense.wall_per_event > 0.0);
        assert!(pair.speedup() > 0.0);
    }
}
