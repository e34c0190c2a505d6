//! Deterministic parallel execution layer: the work queue under every
//! sweep, 2-D map, and independent-replica Monte Carlo ensemble.
//!
//! Everything SEMSIM evaluates is embarrassingly parallel — every I–V
//! sweep point, every `(V_bias, V_gate)` map cell, every ensemble
//! replica runs on its own circuit copy. This module fans those tasks
//! out over [`std::thread::scope`] with a chunked work queue (a single
//! [`AtomicUsize`] chunk cursor; the workspace is offline, so no rayon)
//! while keeping a hard determinism contract:
//!
//! **Results are bit-identical regardless of thread count**;
//! `threads = 1` runs every task on the calling thread in index order.
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
//! The sweep and ensemble drivers on this queue are
//! [`crate::batch::batch_sweep`] and [`crate::batch::batch_ensemble`]
//! (a 2-D map is a sweep over the flattened grid); [`par_indexed`]
//! serves every other fan-out. `tests/par_determinism.rs` at the
//! workspace root pins the contract: byte-identical sweeps across
//! 1/2/4/8 threads, ensemble statistics invariant under thread count
//! and task permutation, and collision-free split streams.
//!
//! Every task additionally runs under **panic isolation**: a panicking
//! job is caught at the task boundary ([`std::panic::catch_unwind`])
//! and surfaces as [`CoreError::TaskPanicked`] through the ordinary
//! lowest-index-error-wins fold — sibling tasks run to completion, and
//! the error a caller sees is the same at every thread count. The
//! batch drivers build their per-point retry and salvage on this.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::health::RunOutcome;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{batch_ensemble, batch_sweep, BatchOpts, TaskFault};
    use crate::circuit::{Circuit, CircuitBuilder, JunctionId};
    use crate::engine::{RunLength, SimConfig};

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

    fn on_threads(threads: usize) -> BatchOpts {
        BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        }
    }

    #[test]
    fn ensemble_merges_outcomes_and_health() {
        let (c, j1) = conducting_set();
        // Half the replicas conduct, half are blockaded: even replicas
        // get full bias, odd replicas a sub-threshold one.
        let cfg = SimConfig::new(0.01).with_seed(5).with_audit_interval(100);
        let report = batch_ensemble(
            &c,
            &cfg,
            j1,
            6,
            0,
            RunLength::Events(300),
            &BatchOpts::default(),
            |sim, r, _spec| {
                let v = if r % 2 == 0 { 40e-3 } else { 1e-3 };
                sim.set_lead_voltage(1, v / 2.0)?;
                sim.set_lead_voltage(2, -v / 2.0)
            },
        )
        .unwrap();
        assert_eq!(report.counts.ok, 6);
        assert_eq!(report.outcomes.completed, 3);
        assert_eq!(report.outcomes.blockaded, 3);
        assert_eq!(report.outcomes.total(), 6);
        // Conducting replicas audited (300 events / 100); blockaded
        // replicas ran their one free frozen-table audit each.
        assert!(report.health.audits >= 9, "audits {}", report.health.audits);
        let stats = report.ensemble_stats();
        assert_eq!(stats.total_events, 3 * 300);
        assert!(stats.mean_current > 0.0);
        assert!(stats.std_current > 0.0, "bimodal ensemble has spread");
        // Blockaded replicas are data, not errors, and stay visible.
        let blocked = report.points[1].item.unwrap();
        assert_eq!(blocked.events, 0);
        assert!(matches!(blocked.outcome, RunOutcome::Blockaded { .. }));
    }

    #[test]
    fn empty_and_single_task_edge_cases() {
        let (c, j1) = conducting_set();
        let cfg = SimConfig::new(5.0).with_seed(1);
        let none = batch_sweep(
            &c,
            &cfg,
            j1,
            &[],
            10,
            10,
            &BatchOpts::default(),
            |_sim, _v, _spec| Ok(()),
        )
        .unwrap();
        assert_eq!(none.values(), Some(Vec::new()));
        let one = batch_ensemble(
            &c,
            &cfg,
            j1,
            1,
            0,
            RunLength::Events(50),
            &on_threads(8),
            |_sim, _r, _spec| Ok(()),
        )
        .unwrap();
        assert_eq!(one.counts.total(), 1);
        assert_eq!(one.ensemble_stats().measured, 1);
    }

    #[test]
    fn lowest_index_error_wins() {
        let (c, j1) = conducting_set();
        let cfg = SimConfig::new(5.0).with_seed(1);
        // Leads 7 and 8 do not exist: tasks 1 and 3 fault. Every thread
        // count must report task 1's error (lead 7) as the first fault,
        // like the serial loop would.
        for threads in [1, 4] {
            let report = batch_sweep(
                &c,
                &cfg,
                j1,
                &[1.0, 7.0, 2.0, 8.0],
                5,
                5,
                &on_threads(threads),
                |sim, v, _spec| {
                    if v > 5.0 {
                        sim.set_lead_voltage(v as usize, 0.0)
                    } else {
                        sim.set_lead_voltage(1, 10e-3)
                    }
                },
            )
            .unwrap();
            assert_eq!(report.counts.faulted, 2, "threads {threads}");
            assert_eq!(
                report.points.iter().find_map(|p| p.fault.as_ref()),
                Some(&TaskFault::Error(CoreError::UnknownLead { lead: 7 })),
                "threads {threads}"
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
