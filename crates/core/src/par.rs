//! Deterministic parallel execution layer: sweeps, 2-D maps, and
//! independent-replica Monte Carlo ensembles.
//!
//! Everything SEMSIM evaluates is embarrassingly parallel — every I–V
//! sweep point, every `(V_bias, V_gate)` map cell, every ensemble
//! replica runs on its own circuit copy. This module fans those tasks
//! out over [`std::thread::scope`] with a chunked work queue (a single
//! [`AtomicUsize`] chunk cursor; the workspace is offline, so no rayon)
//! while keeping a hard determinism contract:
//!
//! **Results are bit-identical regardless of thread count**, including
//! `threads = 1` matching the serial drivers in [`crate::engine`].
//!
//! Two mechanisms carry the contract:
//!
//! 1. **Counter-based seed splitting** — task `i` draws from the PRNG
//!    stream seeded by [`split_seed`]`(master_seed, i)`, a pure function
//!    of the task index; which thread executes the task is irrelevant.
//! 2. **Index-ordered merge** — per-task results land in a slot vector
//!    indexed by task, and reductions (ensemble statistics, merged
//!    health reports, error selection) fold that vector in index order.
//!    Thread scheduling can permute *execution* order arbitrarily; it
//!    can never permute *merge* order.
//!
//! `tests/par_determinism.rs` at the workspace root pins the contract:
//! byte-identical sweeps across 1/2/4/8 threads, ensemble statistics
//! invariant under thread count and task permutation, and collision-free
//! split streams.
//!
//! Every task additionally runs under **panic isolation**: a panicking
//! job is caught at the task boundary ([`std::panic::catch_unwind`])
//! and surfaces as [`CoreError::TaskPanicked`] through the ordinary
//! lowest-index-error-wins fold — sibling tasks run to completion, and
//! the error a caller sees is the same at every thread count. The
//! retry/salvage layer in [`crate::batch`] builds on this to turn
//! isolated faults into recovered or individually-faulted points.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::circuit::{Circuit, JunctionId};
use crate::engine::{run_sweep_point, Record, RunLength, SimConfig, Simulation, SweepPoint};
use crate::health::{HealthReport, RunOutcome, Supervisor};
pub use crate::rng::split_seed;
use crate::CoreError;

/// Default number of tasks a worker claims per queue operation. Small
/// enough for load balance on heterogeneous points (a blockaded point
/// finishes orders of magnitude faster than a conducting one), large
/// enough to amortize the atomic increment. Also the reference value
/// for the SC011 lint: an ensemble of at most this many replicas fits
/// in a single worker's chunk and cannot occupy a second thread.
pub const TASK_CHUNK: usize = 4;

/// How many worker threads the parallel drivers use by default:
/// [`std::thread::available_parallelism`], or 1 when unknown.
#[must_use]
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Execution knobs for the parallel drivers. **None of them can change
/// results** — only wall-clock time and scheduling; the determinism
/// test suite exercises that promise directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParOpts {
    /// Worker threads; `0` means [`available_threads`]. Capped at the
    /// task count.
    pub threads: usize,
    /// Tasks claimed per queue operation; `0` means [`TASK_CHUNK`].
    pub chunk: usize,
    /// Hand out chunks from the tail of the queue instead of the head.
    /// Exists so tests can permute task execution order and assert the
    /// merged results do not move.
    pub reverse: bool,
}

impl ParOpts {
    /// Options for `n` worker threads (0 = all available).
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        ParOpts {
            threads: n,
            ..ParOpts::default()
        }
    }

    /// Strictly serial execution on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    fn resolved_threads(&self, tasks: usize) -> usize {
        let t = if self.threads == 0 {
            available_threads()
        } else {
            self.threads
        };
        t.clamp(1, tasks.max(1))
    }

    fn resolved_chunk(&self) -> usize {
        if self.chunk == 0 {
            TASK_CHUNK
        } else {
            self.chunk
        }
    }
}

/// Renders a caught panic payload as a message (panics carry a `&str`
/// or `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under panic isolation: an unwinding task becomes
/// [`CoreError::TaskPanicked`] instead of propagating the panic into
/// the worker (parallel path) or the caller (serial path).
fn run_isolated<T, F>(i: usize, job: &F) -> Result<T, CoreError>
where
    F: Fn(usize) -> Result<T, CoreError> + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| job(i))) {
        Ok(r) => r,
        Err(payload) => Err(CoreError::TaskPanicked {
            task: i,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Runs `tasks` fallible jobs over the chunked work queue and returns
/// their results in task order. On failure the error of the *smallest*
/// failing task index is returned — the same error the serial loop
/// would hit first, keeping error behavior thread-count-invariant.
/// Panics are isolated per task (see [`run_isolated`]) and participate
/// in the same lowest-index selection as ordinary errors.
pub(crate) fn run_tasks<T, F>(tasks: usize, opts: ParOpts, job: F) -> Result<Vec<T>, CoreError>
where
    T: Send,
    F: Fn(usize) -> Result<T, CoreError> + Sync,
{
    if tasks == 0 {
        return Ok(Vec::new());
    }
    let threads = opts.resolved_threads(tasks);
    if threads == 1 {
        // Serial fast path: short-circuits on the first (= lowest
        // index) error, exactly like the pre-parallel drivers.
        return (0..tasks).map(|i| run_isolated(i, &job)).collect();
    }
    let chunk = opts.resolved_chunk();
    let nchunks = tasks.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, CoreError>>> = Vec::new();
    slots.resize_with(tasks, || None);

    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, Result<T, CoreError>)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let c = if opts.reverse { nchunks - 1 - c } else { c };
                        let start = c * chunk;
                        let end = (start + chunk).min(tasks);
                        for i in start..end {
                            done.push((i, run_isolated(i, &job)));
                        }
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            // Jobs are panic-isolated, so a worker thread can only die
            // to something catastrophic that bypasses `catch_unwind`
            // (e.g. a double panic or stack exhaustion). Even then the
            // sibling workers' results are kept; the dead worker's
            // tasks stay `None` and surface as `TaskPanicked` below.
            if let Ok(done) = handle.join() {
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
        }
    });

    // Index-ordered fold: first error wins deterministically.
    let mut out = Vec::with_capacity(tasks);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(CoreError::TaskPanicked {
                    task: i,
                    message: "worker thread died before reporting the task result".to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// Maps `f` over `0..n` in parallel for infallible jobs, returning the
/// results in index order. A convenience over the same work queue for
/// callers outside the sweep/ensemble shapes (e.g. the bench binaries'
/// per-seed and per-setting fan-outs).
pub fn par_indexed<T, F>(n: usize, opts: ParOpts, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match run_tasks(n, opts, |i| Ok(f(i))) {
        Ok(v) => v,
        // Infallible jobs can still panic; re-raise on the caller's
        // thread with the original payload so `par_indexed` behaves
        // like a serial loop would.
        Err(CoreError::TaskPanicked { task, message }) => {
            panic!("par_indexed task {task} panicked: {message}")
        }
        Err(_) => unreachable!("infallible job returned an error"),
    }
}

/// Parallel I–V sweep: the exact computation of [`crate::engine::sweep`]
/// fanned out over the work queue. Point `i` uses the PRNG stream
/// seeded by [`split_seed`]`(config.seed, i)`; the returned vector is
/// ordered by `controls` index and bit-identical for every
/// `opts.threads`, including 1 (which matches the serial driver).
///
/// # Errors
///
/// Propagates configuration errors from [`Simulation::new`]; when
/// several points fail, the error of the lowest point index is
/// returned (the one the serial sweep would hit first).
#[allow(clippy::too_many_arguments)]
pub fn par_sweep<F>(
    circuit: &Circuit,
    config: &SimConfig,
    junction: JunctionId,
    controls: &[f64],
    warmup: u64,
    events: u64,
    opts: ParOpts,
    setup: F,
) -> Result<Vec<SweepPoint>, CoreError>
where
    F: Fn(&mut Simulation<'_>, f64) -> Result<(), CoreError> + Sync,
{
    run_tasks(controls.len(), opts, |i| {
        let mut apply = &setup;
        run_sweep_point(
            circuit,
            config,
            junction,
            i as u64,
            controls[i],
            warmup,
            events,
            &mut apply,
        )
    })
}

/// One cell of a 2-D control map (e.g. the paper's Fig. 5
/// `(V_bias, V_gate)` current map).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapPoint {
    /// Inner (fast) axis value.
    pub x: f64,
    /// Outer (slow) axis value.
    pub y: f64,
    /// Measured time-averaged current (A).
    pub current: f64,
    /// Why the measurement stopped (see [`SweepPoint::outcome`]).
    pub outcome: RunOutcome,
    /// Tunnel events measured.
    pub events: u64,
}

/// Parallel 2-D map over `ys × xs` (row-major: `y` outer, `x` inner;
/// cell `(ix, iy)` is task `iy * xs.len() + ix` and element
/// `out[iy * xs.len() + ix]`). `setup(sim, x, y)` applies both
/// controls. Seeding and determinism follow [`par_sweep`].
///
/// # Errors
///
/// As [`par_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn par_map2d<F>(
    circuit: &Circuit,
    config: &SimConfig,
    junction: JunctionId,
    xs: &[f64],
    ys: &[f64],
    warmup: u64,
    events: u64,
    opts: ParOpts,
    setup: F,
) -> Result<Vec<MapPoint>, CoreError>
where
    F: Fn(&mut Simulation<'_>, f64, f64) -> Result<(), CoreError> + Sync,
{
    let nx = xs.len();
    run_tasks(nx * ys.len(), opts, |t| {
        let (x, y) = (xs[t % nx], ys[t / nx]);
        let mut apply = |sim: &mut Simulation<'_>, x: f64| setup(sim, x, y);
        let p = run_sweep_point(
            circuit, config, junction, t as u64, x, warmup, events, &mut apply,
        )?;
        Ok(MapPoint {
            x,
            y,
            current: p.current,
            outcome: p.outcome,
            events: p.events,
        })
    })
}

/// Tally of replica [`RunOutcome`]s in an ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Replicas that completed their requested length.
    pub completed: usize,
    /// Replicas frozen in Coulomb blockade.
    pub blockaded: usize,
    /// Replicas truncated by the wall-clock budget.
    pub wall_clock_exceeded: usize,
    /// Replicas truncated by the lifetime event cap.
    pub event_cap_reached: usize,
}

impl OutcomeCounts {
    /// Records one outcome.
    pub fn note(&mut self, outcome: &RunOutcome) {
        match outcome {
            RunOutcome::Completed => self.completed += 1,
            RunOutcome::Blockaded { .. } => self.blockaded += 1,
            RunOutcome::WallClockExceeded { .. } => self.wall_clock_exceeded += 1,
            RunOutcome::EventCapReached { .. } => self.event_cap_reached += 1,
        }
    }

    /// Total outcomes recorded.
    #[must_use]
    pub fn total(&self) -> usize {
        self.completed + self.blockaded + self.wall_clock_exceeded + self.event_cap_reached
    }
}

/// Merged results of an independent-replica Monte Carlo ensemble.
///
/// Nothing a replica produced is dropped: the full per-replica
/// [`Record`]s are kept (replica-indexed), per-replica
/// [`HealthReport`]s are folded into one ensemble-level report, and
/// every [`RunOutcome`] is tallied. All reductions fold in replica
/// order, so the report is identical for every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// Per-replica run records, indexed by replica.
    pub records: Vec<Record>,
    /// Outcome tally across replicas.
    pub outcomes: OutcomeCounts,
    /// Per-replica health reports folded with [`HealthReport::absorb`]
    /// in replica order.
    pub health: HealthReport,
    /// Mean time-averaged current (A) through the recorded junction,
    /// averaged over replicas in replica order.
    pub mean_current: f64,
    /// Population standard deviation of the replica currents (A).
    pub std_current: f64,
    /// Total tunnel events executed across replicas.
    pub total_events: u64,
}

impl EnsembleReport {
    /// Replica count.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.records.len()
    }

    /// Standard error of the ensemble mean current: `σ/√n` over the
    /// replica currents. This is the statistical error bar a
    /// cross-engine comparison of [`EnsembleReport::mean_current`]
    /// should tolerate; 0 when the ensemble is empty.
    #[must_use]
    pub fn sem_current(&self) -> f64 {
        let n = self.replicas();
        if n == 0 {
            0.0
        } else {
            self.std_current / (n as f64).sqrt()
        }
    }
}

/// An independent-replica Monte Carlo ensemble of one circuit: `n`
/// statistically independent copies of the same run, each seeded by
/// [`split_seed`]`(config.seed, replica)`.
///
/// Replicas always run with
/// [`Supervisor::blockade_is_outcome`] set: a frozen replica is data
/// ([`RunOutcome::Blockaded`], tallied in the report), not an error
/// that aborts the ensemble.
///
/// # Example
///
/// ```no_run
/// use semsim_core::engine::{RunLength, SimConfig};
/// use semsim_core::par::{Ensemble, ParOpts};
/// # fn main() -> Result<(), semsim_core::CoreError> {
/// # let mut b = semsim_core::circuit::CircuitBuilder::new();
/// # let src = b.add_lead(10e-3);
/// # let island = b.add_island();
/// # let j = b.add_junction(src, island, 1e6, 1e-18)?;
/// # b.add_junction(island, semsim_core::circuit::NodeId::GROUND, 1e6, 1e-18)?;
/// # let circuit = b.build()?;
/// let report = Ensemble::new(&circuit, SimConfig::new(5.0), j, 32, RunLength::Events(10_000))
///     .with_warmup(500)
///     .run(ParOpts::default())?;
/// println!("I = {} ± {} A", report.mean_current, report.std_current);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ensemble<'c> {
    circuit: &'c Circuit,
    config: SimConfig,
    junction: JunctionId,
    replicas: usize,
    length: RunLength,
    warmup: u64,
}

impl<'c> Ensemble<'c> {
    /// An ensemble of `replicas` independent runs of `length`, with
    /// current statistics measured through `junction`.
    pub fn new(
        circuit: &'c Circuit,
        config: SimConfig,
        junction: JunctionId,
        replicas: usize,
        length: RunLength,
    ) -> Self {
        Ensemble {
            circuit,
            config,
            junction,
            replicas,
            length,
            warmup: 0,
        }
    }

    /// Discards `events` warmup events per replica before measuring.
    #[must_use]
    pub fn with_warmup(mut self, events: u64) -> Self {
        self.warmup = events;
        self
    }

    /// Runs every replica (in parallel per `opts`) with no extra
    /// per-replica setup.
    ///
    /// # Errors
    ///
    /// As [`Ensemble::run_with`].
    pub fn run(&self, opts: ParOpts) -> Result<EnsembleReport, CoreError> {
        self.run_with(opts, |_, _| Ok(()))
    }

    /// Runs every replica, calling `setup(sim, replica)` on each fresh
    /// simulation before its warmup (e.g. to set bias leads).
    ///
    /// # Errors
    ///
    /// Configuration and numerical-fault errors propagate; with several
    /// failing replicas the lowest replica index wins (see
    /// [`par_sweep`]). Blockade never errors here — it is an outcome.
    pub fn run_with<F>(&self, opts: ParOpts, setup: F) -> Result<EnsembleReport, CoreError>
    where
        F: Fn(&mut Simulation<'_>, usize) -> Result<(), CoreError> + Sync,
    {
        let per_replica = run_tasks(self.replicas, opts, |r| {
            let cfg = self
                .config
                .clone()
                .with_seed(split_seed(self.config.seed, r as u64))
                .with_supervisor(Supervisor {
                    blockade_is_outcome: true,
                    ..self.config.supervisor
                });
            let mut sim = Simulation::new(self.circuit, cfg)?;
            setup(&mut sim, r)?;
            if self.warmup > 0 {
                sim.run(RunLength::Events(self.warmup))?;
            }
            let record = sim.run(self.length)?;
            Ok((record, sim.health_report()))
        })?;

        // Replica-ordered reductions: identical for any thread count.
        let mut outcomes = OutcomeCounts::default();
        let mut health = HealthReport::empty();
        let mut total_events = 0u64;
        let mut records = Vec::with_capacity(per_replica.len());
        let mut currents = Vec::with_capacity(per_replica.len());
        for (record, h) in per_replica {
            outcomes.note(&record.outcome);
            health.absorb(&h);
            total_events += record.events;
            currents.push(record.current(self.junction));
            records.push(record);
        }
        let n = currents.len().max(1) as f64;
        let mean = currents.iter().sum::<f64>() / n;
        let var = currents
            .iter()
            .map(|c| (c - mean) * (c - mean))
            .sum::<f64>()
            / n;
        Ok(EnsembleReport {
            records,
            outcomes,
            health,
            mean_current: mean,
            std_current: var.sqrt(),
            total_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::engine::sweep;

    fn conducting_set() -> (Circuit, JunctionId) {
        let mut b = CircuitBuilder::new();
        let src = b.add_lead(0.0);
        let drn = b.add_lead(0.0);
        let gate = b.add_lead(0.0);
        let island = b.add_island();
        let j1 = b.add_junction(src, island, 1e6, 1e-18).unwrap();
        b.add_junction(island, drn, 1e6, 1e-18).unwrap();
        b.add_capacitor(gate, island, 3e-18).unwrap();
        (b.build().unwrap(), j1)
    }

    fn bits(points: &[SweepPoint]) -> Vec<(u64, u64, u64)> {
        points
            .iter()
            .map(|p| (p.control.to_bits(), p.current.to_bits(), p.events))
            .collect()
    }

    #[test]
    fn par_sweep_matches_serial_sweep_bitwise() {
        let (c, j1) = conducting_set();
        let cfg = SimConfig::new(5.0).with_seed(17);
        let controls = [-30e-3, -10e-3, 0.0, 10e-3, 30e-3];
        let bias = |sim: &mut Simulation<'_>, v: f64| {
            sim.set_lead_voltage(1, v / 2.0)?;
            sim.set_lead_voltage(2, -v / 2.0)
        };
        let serial = sweep(&c, &cfg, j1, &controls, 50, 400, bias).unwrap();
        for threads in [1, 2, 4] {
            let par = par_sweep(
                &c,
                &cfg,
                j1,
                &controls,
                50,
                400,
                ParOpts::with_threads(threads),
                bias,
            )
            .unwrap();
            assert_eq!(bits(&serial), bits(&par), "threads = {threads}");
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn map2d_layout_is_row_major_and_thread_invariant() {
        let (c, j1) = conducting_set();
        let cfg = SimConfig::new(5.0).with_seed(3);
        let xs = [10e-3, 20e-3, 30e-3];
        let ys = [0.0, 5e-3];
        let setup = |sim: &mut Simulation<'_>, x: f64, y: f64| {
            sim.set_lead_voltage(1, x)?;
            sim.set_lead_voltage(3, y)
        };
        let a = par_map2d(&c, &cfg, j1, &xs, &ys, 20, 200, ParOpts::serial(), setup).unwrap();
        assert_eq!(a.len(), 6);
        for (iy, &y) in ys.iter().enumerate() {
            for (ix, &x) in xs.iter().enumerate() {
                let p = &a[iy * xs.len() + ix];
                assert_eq!((p.x, p.y), (x, y));
            }
        }
        let b = par_map2d(
            &c,
            &cfg,
            j1,
            &xs,
            &ys,
            20,
            200,
            ParOpts {
                threads: 3,
                chunk: 1,
                reverse: true,
            },
            setup,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ensemble_merges_outcomes_and_health() {
        let (c, j1) = conducting_set();
        // Half the replicas conduct, half are blockaded: even replicas
        // get full bias, odd replicas a sub-threshold one.
        let cfg = SimConfig::new(0.01).with_seed(5).with_audit_interval(100);
        let ens = Ensemble::new(&c, cfg, j1, 6, RunLength::Events(300));
        let report = ens
            .run_with(ParOpts::default(), |sim, r| {
                let v = if r % 2 == 0 { 40e-3 } else { 1e-3 };
                sim.set_lead_voltage(1, v / 2.0)?;
                sim.set_lead_voltage(2, -v / 2.0)
            })
            .unwrap();
        assert_eq!(report.replicas(), 6);
        assert_eq!(report.outcomes.completed, 3);
        assert_eq!(report.outcomes.blockaded, 3);
        assert_eq!(report.outcomes.total(), 6);
        // Conducting replicas audited (300 events / 100); blockaded
        // replicas ran their one free frozen-table audit each.
        assert!(report.health.audits >= 9, "audits {}", report.health.audits);
        assert_eq!(report.total_events, 3 * 300);
        assert!(report.mean_current > 0.0);
        assert!(report.std_current > 0.0, "bimodal ensemble has spread");
        // Blockaded replicas are data, not errors, and stay visible.
        assert!(report.records[1].events == 0);
        assert!(matches!(
            report.records[1].outcome,
            RunOutcome::Blockaded { .. }
        ));
    }

    #[test]
    fn empty_and_single_task_edge_cases() {
        let (c, j1) = conducting_set();
        let cfg = SimConfig::new(5.0).with_seed(1);
        let none = par_sweep(&c, &cfg, j1, &[], 10, 10, ParOpts::default(), |_sim, _v| {
            Ok(())
        })
        .unwrap();
        assert!(none.is_empty());
        let one = Ensemble::new(&c, cfg, j1, 1, RunLength::Events(50))
            .run(ParOpts::with_threads(8))
            .unwrap();
        assert_eq!(one.replicas(), 1);
    }

    #[test]
    fn lowest_index_error_wins() {
        let (c, j1) = conducting_set();
        let cfg = SimConfig::new(5.0).with_seed(1);
        // Leads 7 and 8 do not exist: tasks 1 and 3 fail. Every thread
        // count must surface task 1's error (lead 7), like the serial
        // loop would.
        for threads in [1, 4] {
            let err = par_sweep(
                &c,
                &cfg,
                j1,
                &[1.0, 7.0, 2.0, 8.0],
                5,
                5,
                ParOpts::with_threads(threads),
                |sim, v| {
                    if v > 5.0 {
                        sim.set_lead_voltage(v as usize, 0.0)
                    } else {
                        sim.set_lead_voltage(1, 10e-3)
                    }
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, CoreError::UnknownLead { lead: 7 }),
                "threads {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn par_indexed_orders_results() {
        let squares = par_indexed(100, ParOpts::with_threads(4), |i| i * i);
        assert_eq!(squares.len(), 100);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
        assert!(par_indexed(0, ParOpts::default(), |i| i).is_empty());
    }

    #[test]
    fn panic_is_isolated_and_thread_count_invariant() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 2, 4] {
            let completed = AtomicUsize::new(0);
            let err = run_tasks(6, ParOpts::with_threads(threads), |i| {
                if i == 3 {
                    panic!("injected panic at task {i}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            })
            .unwrap_err();
            assert_eq!(
                err,
                CoreError::TaskPanicked {
                    task: 3,
                    message: "injected panic at task 3".to_string(),
                },
                "threads = {threads}"
            );
            // The serial path short-circuits at the panic; the parallel
            // path keeps running sibling tasks instead of tearing down
            // the scope.
            let done = completed.load(Ordering::Relaxed);
            if threads == 1 {
                assert_eq!(done, 3, "serial path stops at the panic");
            } else {
                assert_eq!(done, 5, "siblings of a panicked task still run");
            }
        }
    }

    #[test]
    fn lowest_index_wins_across_panics_and_errors() {
        // Task 1 errors, task 2 panics: the fold must pick task 1's
        // error at every thread count, like the serial loop would.
        for threads in [1, 4] {
            let err = run_tasks(4, ParOpts::with_threads(threads), |i| match i {
                1 => Err(CoreError::NoJunctions),
                2 => panic!("later panic loses"),
                _ => Ok(i),
            })
            .unwrap_err();
            assert_eq!(err, CoreError::NoJunctions, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "par_indexed task 2 panicked: boom")]
    fn par_indexed_repanics_on_caller_thread() {
        par_indexed(4, ParOpts::with_threads(2), |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
