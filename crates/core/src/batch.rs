//! The sweep and ensemble drivers: per-point retry with graceful
//! degradation, partial-result salvage, and journaled resume on top of
//! the deterministic work queue in [`crate::par`].
//!
//! [`batch_sweep`] measures one point per control value (an I–V sweep;
//! a 2-D map such as Fig. 5 is a sweep over the flattened grid whose
//! `setup` reads the slow axis from the task index) and
//! [`batch_ensemble`] runs independent replicas of one circuit. One
//! [`CoreError::NumericalFault`] (or one panic) never discards the
//! points a long batch already computed: each point gets its own small
//! supervisor:
//!
//! 1. **Attempt ladder.** A point runs as attempt 1 with the seed
//!    `split_seed(master, task)`, so a fault-free batch is a pure
//!    function of the master seed and the point index. On a
//!    *retryable* fault (numerical fault or panic) the point is
//!    retried up to [`RetryPolicy::max_retries`] times, each attempt
//!    derived purely from `(task, attempt)`:
//!    - a panic on the first attempt reruns with **identical** seed and
//!      parameters ([`RecoveryAction::RerunSame`] — the
//!      transient-crash assumption), so a once-panicking point recovers
//!      to the exact clean-run value;
//!    - otherwise the point is **reseeded**
//!      (`split_seed(split_seed(master, task), attempt)`, a stream no
//!      other point or attempt draws) with the adaptive threshold θ
//!      tightened by [`RetryPolicy::TIGHTEN_FACTOR`] per retry
//!      ([`RecoveryAction::ReseedTightened`]);
//!    - the final attempt may drop to the non-adaptive reference solver
//!      ([`RecoveryAction::SolverFallback`]) when
//!      [`RetryPolicy::solver_fallback`] is set.
//!
//!    Non-retryable errors (configuration mistakes) fault the point
//!    immediately — retrying cannot fix a wrong circuit.
//! 2. **Salvage.** Nothing aborts the batch: every point reports
//!    [`PointStatus::Ok`], [`PointStatus::Recovered`],
//!    [`PointStatus::Faulted`], or [`PointStatus::Skipped`] in a
//!    [`BatchReport`], with per-attempt logs, merged
//!    [`HealthReport`]s and [`OutcomeCounts`]. The only errors that
//!    still abort are the batch-level ones retry cannot help
//!    (opening the journal: I/O, mismatch). A failed journal *append*
//!    mid-batch (disk full, short write) is recorded on its point
//!    ([`PointReport::journal_error`]) and the value salvaged in
//!    memory — the sweep finishes.
//! 3. **Journal.** With [`BatchOpts::journal`] set, completed points
//!    are appended to a crash-safe [`crate::journal`] file as they
//!    finish; [`BatchOpts::resume`] restores them as
//!    [`PointStatus::Skipped`] and re-runs only the rest,
//!    reproducing the uninterrupted run bit-for-bit.
//!
//! Everything stays deterministic: attempt seeds, θ-scales, and solver
//! fallbacks are pure functions of `(task, attempt)` and the fault
//! sequence, which is itself deterministic — so recovered batches are
//! thread-count-invariant too. Recovery never changes the answer, only
//! whether you get one.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::checkpoint::{fnv1a64, Writer};
use crate::circuit::{Circuit, JunctionId};
use crate::engine::{run_point_seeded, RunLength, SimConfig, Simulation, SolverSpec, SweepPoint};
use crate::health::{HealthReport, RunOutcome, Supervisor};
use crate::journal::{Journal, JournalEntry, JournalHeader, JournalItem};
use crate::par::{panic_message, run_tasks, OutcomeCounts, ParOpts};
use crate::rng::split_seed;
use crate::CoreError;

/// How hard a batch fights for each point before giving up on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables recovery).
    pub max_retries: u32,
    /// Let the final attempt fall back to the non-adaptive reference
    /// solver.
    pub solver_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            solver_fallback: true,
        }
    }
}

impl RetryPolicy {
    /// Multiplier applied to the adaptive threshold θ per
    /// [`RecoveryAction::ReseedTightened`] retry (tighter testing →
    /// more recalculation → less room for numerical drift).
    pub const TIGHTEN_FACTOR: f64 = 0.5;

    /// Total attempts a point may consume (initial + retries).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        1 + self.max_retries
    }
}

/// Cooperative cancellation handle for a batch. Clones share one flag;
/// once [`CancelToken::cancel`] fires, workers finish (and journal) the
/// point they are on, then skip every remaining task as
/// [`PointStatus::Cancelled`] — the batch returns a salvageable partial
/// [`BatchReport`] instead of tearing down.
///
/// Cancellation never changes a *computed* value: points finished
/// before the flag flipped are bit-identical to the uninterrupted run,
/// so a cancelled-then-resumed batch still satisfies the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the shared flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Token equality is identity: two tokens are equal when they share
/// the same flag (so `BatchOpts` can stay `PartialEq`).
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// Options of one batch run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOpts {
    /// Work-queue knobs (thread count etc.); cannot change results.
    pub par: ParOpts,
    /// Per-point retry/degradation policy.
    pub retry: RetryPolicy,
    /// Append completed points to this journal file.
    pub journal: Option<PathBuf>,
    /// Restore already-journaled points instead of recomputing them
    /// (no-op when the file does not exist yet).
    pub resume: bool,
    /// Replace the configuration's run supervisor for every point
    /// (wall-clock/event budgets). Applied *before* the journal
    /// fingerprint is computed, so a journal written under one budget
    /// is refused under another.
    pub supervisor: Option<Supervisor>,
    /// Cooperative cancellation: when the token fires, remaining points
    /// finish as [`PointStatus::Cancelled`] and the partial report is
    /// salvaged.
    pub cancel: Option<CancelToken>,
    /// Scripted faults for the batch's attempts (testing only).
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<BatchFaultPlan>,
}

/// What kind of recovery step an attempt is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Attempt 1: seed `split_seed(master, task)` and the batch's own
    /// parameters.
    Initial,
    /// Rerun with identical seed and parameters after a panic on the
    /// initial attempt (transient-crash assumption — on success the
    /// value is bit-identical to the clean run).
    RerunSame,
    /// New seed and a tightened adaptive threshold. Attempt `a ≥ 2`
    /// of `task` draws from `split_seed(split_seed(master, task), a)`,
    /// a stream no other point or attempt of the batch uses.
    ReseedTightened,
    /// New seed and the non-adaptive reference solver.
    SolverFallback,
}

/// Fully resolved parameters of one attempt — a pure function of
/// `(task, attempt, prior fault kinds)`, never of thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptSpec {
    /// Task (point) index within the batch.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: u32,
    /// PRNG seed of this attempt.
    pub seed: u64,
    /// Recovery step this attempt embodies.
    pub action: RecoveryAction,
    /// Cumulative multiplier on the adaptive threshold θ.
    pub theta_scale: f64,
    /// Whether this attempt uses the non-adaptive fallback solver.
    pub fallback: bool,
}

/// One line of a point's attempt log.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Seed the attempt ran with.
    pub seed: u64,
    /// Recovery step the attempt embodied.
    pub action: RecoveryAction,
    /// The fault that ended the attempt; `None` for the successful one.
    pub fault: Option<String>,
}

/// The fault that terminally ended a point.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskFault {
    /// An engine error.
    Error(CoreError),
    /// A caught panic.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for TaskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFault::Error(e) => write!(f, "{e}"),
            TaskFault::Panic { message } => write!(f, "panic: {message}"),
        }
    }
}

impl TaskFault {
    /// Whether the attempt ladder may try again after this fault:
    /// numerical faults and panics are treated as transient; anything
    /// else (configuration errors, journal failures) is not fixable by
    /// rerunning.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TaskFault::Panic { .. } | TaskFault::Error(CoreError::NumericalFault { .. })
        )
    }
}

/// How one point of a batch finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// First attempt succeeded — the fault-free value.
    Ok,
    /// A retry succeeded after `attempts` total attempts.
    Recovered {
        /// Total attempts consumed (≥ 2).
        attempts: u32,
    },
    /// Every allowed attempt failed; the point carries no value (but
    /// its attempt log and terminal fault are preserved).
    Faulted,
    /// Restored from the journal without recomputation.
    Skipped,
    /// Never ran: a [`CancelToken`] fired before this point started.
    /// Carries no value; a journaled resume recomputes it.
    Cancelled,
}

/// Everything known about one point of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport<T> {
    /// Task (point) index within the batch.
    pub task: usize,
    /// How the point finished.
    pub status: PointStatus,
    /// Per-attempt log (for `Skipped` points: the log restored from
    /// the journal).
    pub attempts: Vec<AttemptRecord>,
    /// The point value; `None` only for [`PointStatus::Faulted`].
    pub item: Option<T>,
    /// Terminal fault of a [`PointStatus::Faulted`] point.
    pub fault: Option<TaskFault>,
    /// A failed journal append for this point (disk full, short
    /// write). The value is still salvaged in memory — only its
    /// durability was lost; a later `--resume` recomputes the point.
    pub journal_error: Option<String>,
}

/// Tally of [`PointStatus`]es across a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Points whose first attempt succeeded.
    pub ok: usize,
    /// Points salvaged by the retry ladder.
    pub recovered: usize,
    /// Points that exhausted every attempt.
    pub faulted: usize,
    /// Points restored from the journal.
    pub skipped: usize,
    /// Points that never ran because the batch was cancelled.
    pub cancelled: usize,
}

impl BatchCounts {
    fn note(&mut self, status: PointStatus) {
        match status {
            PointStatus::Ok => self.ok += 1,
            PointStatus::Recovered { .. } => self.recovered += 1,
            PointStatus::Faulted => self.faulted += 1,
            PointStatus::Skipped => self.skipped += 1,
            PointStatus::Cancelled => self.cancelled += 1,
        }
    }

    /// Total points tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.ok + self.recovered + self.faulted + self.skipped + self.cancelled
    }
}

/// A value the batch drivers know how to tally — both journalable
/// payloads carry the [`RunOutcome`] of the run that produced them.
pub trait BatchItem {
    /// Why the run that produced this value stopped.
    fn outcome(&self) -> RunOutcome;
}

impl BatchItem for SweepPoint {
    fn outcome(&self) -> RunOutcome {
        self.outcome
    }
}

/// Partial-result report of a batch: every point is accounted for,
/// whether it succeeded, recovered, faulted, or was restored from a
/// journal. All reductions fold in task order, so the report is
/// identical for every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport<T> {
    /// Per-point reports, indexed by task.
    pub points: Vec<PointReport<T>>,
    /// Status tally.
    pub counts: BatchCounts,
    /// [`RunOutcome`] tally over the points that carry a value.
    pub outcomes: OutcomeCounts,
    /// Health reports of the successful attempts, folded in task order
    /// (journal-restored points contribute nothing — their health was
    /// merged by the run that computed them).
    pub health: HealthReport,
    /// Total retry attempts consumed across all points.
    pub retries: u64,
    /// Corrupt journal-tail bytes discarded on resume (0 otherwise).
    pub discarded_tail_bytes: usize,
    /// Which check the discarded tail failed (`None` when no tail was
    /// discarded).
    pub discarded_tail_reason: Option<String>,
}

impl<T> BatchReport<T> {
    /// Point values in task order, `None` where the point faulted.
    pub fn items(&self) -> impl Iterator<Item = Option<&T>> {
        self.points.iter().map(|p| p.item.as_ref())
    }

    /// Points whose journal append failed (their values were salvaged
    /// in memory but are not durable — a `--resume` recomputes them).
    #[must_use]
    pub fn journal_write_failures(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.journal_error.is_some())
            .count()
    }

    /// The first (lowest-task) journal append failure, if any.
    #[must_use]
    pub fn first_journal_write_error(&self) -> Option<&str> {
        self.points.iter().find_map(|p| p.journal_error.as_deref())
    }

    /// `true` when no point faulted or was cancelled — every value is
    /// present.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.counts.faulted == 0 && self.counts.cancelled == 0
    }

    /// All point values in task order, or `None` if any point faulted.
    #[must_use]
    pub fn values(&self) -> Option<Vec<T>>
    where
        T: Clone,
    {
        self.points.iter().map(|p| p.item.clone()).collect()
    }
}

/// Applies an attempt's seed, θ-scale, and solver fallback to a
/// configuration. Attempt 1 leaves everything but the seed untouched.
fn attempt_config(config: &SimConfig, spec: &AttemptSpec) -> SimConfig {
    let mut cfg = config.clone().with_seed(spec.seed);
    if spec.fallback {
        cfg.solver = SolverSpec::NonAdaptive;
    } else if let SolverSpec::Adaptive { threshold, .. }
    | SolverSpec::AdaptiveDense { threshold, .. } = &mut cfg.solver
    {
        *threshold *= spec.theta_scale;
    }
    cfg
}

/// Applies [`BatchOpts::supervisor`] (if any) to the configuration the
/// whole batch runs — and fingerprints — under.
fn effective_config(config: &SimConfig, opts: &BatchOpts) -> SimConfig {
    let mut cfg = config.clone();
    if let Some(supervisor) = opts.supervisor {
        cfg.supervisor = supervisor;
    }
    cfg
}

/// The first attempt of `task`: its split seed, the batch's parameters.
fn initial_spec(master_seed: u64, task: usize) -> AttemptSpec {
    AttemptSpec {
        task,
        attempt: 1,
        seed: split_seed(master_seed, task as u64),
        action: RecoveryAction::Initial,
        theta_scale: 1.0,
        fallback: false,
    }
}

/// The attempt after `spec` failed with `fault`. Pure in
/// `(master_seed, spec, fault kind, policy)`.
fn next_spec(
    master_seed: u64,
    spec: &AttemptSpec,
    fault: &TaskFault,
    policy: &RetryPolicy,
) -> AttemptSpec {
    let attempt = spec.attempt + 1;
    // A panic on the untouched initial attempt is assumed transient:
    // rerun bit-identically rather than perturbing the point.
    if matches!(fault, TaskFault::Panic { .. }) && spec.action == RecoveryAction::Initial {
        return AttemptSpec {
            attempt,
            action: RecoveryAction::RerunSame,
            ..*spec
        };
    }
    let seed = split_seed(
        split_seed(master_seed, spec.task as u64),
        u64::from(attempt),
    );
    if attempt == policy.max_attempts() && policy.solver_fallback {
        AttemptSpec {
            task: spec.task,
            attempt,
            seed,
            action: RecoveryAction::SolverFallback,
            theta_scale: spec.theta_scale,
            fallback: true,
        }
    } else {
        AttemptSpec {
            task: spec.task,
            attempt,
            seed,
            action: RecoveryAction::ReseedTightened,
            theta_scale: spec.theta_scale * RetryPolicy::TIGHTEN_FACTOR,
            fallback: false,
        }
    }
}

/// Result of one task's full attempt ladder.
struct TaskRun<T> {
    status: PointStatus,
    attempts: Vec<AttemptRecord>,
    item: Option<T>,
    health: HealthReport,
    fault: Option<TaskFault>,
}

/// Runs one task through the attempt ladder, catching panics at the
/// attempt boundary so a retry can follow one.
fn run_with_retry<T, F>(
    task: usize,
    master_seed: u64,
    policy: &RetryPolicy,
    run_attempt: &F,
) -> TaskRun<T>
where
    F: Fn(&AttemptSpec) -> Result<(T, HealthReport), CoreError> + Sync,
{
    let mut spec = initial_spec(master_seed, task);
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    loop {
        let result = match catch_unwind(AssertUnwindSafe(|| run_attempt(&spec))) {
            Ok(Ok(success)) => Ok(success),
            Ok(Err(e)) => Err(TaskFault::Error(e)),
            Err(payload) => Err(TaskFault::Panic {
                message: panic_message(payload.as_ref()),
            }),
        };
        match result {
            Ok((item, health)) => {
                attempts.push(AttemptRecord {
                    attempt: spec.attempt,
                    seed: spec.seed,
                    action: spec.action,
                    fault: None,
                });
                let status = if spec.attempt == 1 {
                    PointStatus::Ok
                } else {
                    PointStatus::Recovered {
                        attempts: spec.attempt,
                    }
                };
                return TaskRun {
                    status,
                    attempts,
                    item: Some(item),
                    health,
                    fault: None,
                };
            }
            Err(fault) => {
                attempts.push(AttemptRecord {
                    attempt: spec.attempt,
                    seed: spec.seed,
                    action: spec.action,
                    fault: Some(fault.to_string()),
                });
                if !fault.is_retryable() || spec.attempt >= policy.max_attempts() {
                    return TaskRun {
                        status: PointStatus::Faulted,
                        attempts,
                        item: None,
                        health: HealthReport::empty(),
                        fault: Some(fault),
                    };
                }
                spec = next_spec(master_seed, &spec, &fault, policy);
            }
        }
    }
}

/// The generic batch driver: fans the attempt ladders out over the
/// deterministic work queue, journals completions, folds the report in
/// task order.
#[allow(clippy::too_many_arguments)]
fn run_batch<T, F>(
    tasks: usize,
    master_seed: u64,
    policy: &RetryPolicy,
    par: ParOpts,
    journal: Option<&Journal<T>>,
    restored: &HashMap<usize, JournalEntry<T>>,
    cancel: Option<&CancelToken>,
    run_attempt: F,
) -> Result<BatchReport<T>, CoreError>
where
    T: JournalItem + BatchItem + Clone + Send + Sync,
    F: Fn(&AttemptSpec) -> Result<(T, HealthReport), CoreError> + Sync,
{
    let journal_errors: Mutex<HashMap<usize, String>> = Mutex::new(HashMap::new());
    let runs = run_tasks(tasks, par, |i| {
        // Journal-restored points are salvaged even under cancellation
        // — they cost nothing and keep the partial report maximal.
        if let Some(entry) = restored.get(&i) {
            return Ok(TaskRun {
                status: PointStatus::Skipped,
                attempts: entry.attempts.clone(),
                item: Some(entry.item.clone()),
                health: HealthReport::empty(),
                fault: None,
            });
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Ok(TaskRun {
                status: PointStatus::Cancelled,
                attempts: Vec::new(),
                item: None,
                health: HealthReport::empty(),
                fault: None,
            });
        }
        let run = run_with_retry(i, master_seed, policy, &run_attempt);
        if let (Some(journal), Some(item)) = (journal, &run.item) {
            // A failed append (ENOSPC, short write) never aborts the
            // batch: the computed value is salvaged in memory and the
            // failure recorded on the point. The journal refuses all
            // further appends itself (a record written after a torn
            // one would be unreachable on resume), so later points
            // collect the same structured failure.
            if let Err(e) = journal.append(&JournalEntry {
                task: i,
                status: run.status,
                attempts: run.attempts.clone(),
                item: item.clone(),
            }) {
                journal_errors
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(i, e.to_string());
            }
        }
        Ok(run)
    })?;
    let mut journal_errors = journal_errors
        .lock()
        .unwrap_or_else(PoisonError::into_inner);

    let mut counts = BatchCounts::default();
    let mut outcomes = OutcomeCounts::default();
    let mut health = HealthReport::empty();
    let mut retries = 0u64;
    let mut points = Vec::with_capacity(runs.len());
    for (task, run) in runs.into_iter().enumerate() {
        counts.note(run.status);
        retries += run.attempts.len().saturating_sub(1) as u64;
        if let Some(item) = &run.item {
            outcomes.note(&item.outcome());
        }
        health.absorb(&run.health);
        points.push(PointReport {
            task,
            status: run.status,
            attempts: run.attempts,
            item: run.item,
            fault: run.fault,
            journal_error: journal_errors.remove(&task),
        });
    }
    Ok(BatchReport {
        points,
        counts,
        outcomes,
        health,
        retries,
        discarded_tail_bytes: journal.map_or(0, Journal::discarded_tail_bytes),
        discarded_tail_reason: journal
            .and_then(|j| j.discarded_tail_reason().map(ToOwned::to_owned)),
    })
}

/// An opened (optional) journal plus its restored entries by task.
type OpenedJournal<T> = (Option<Journal<T>>, HashMap<usize, JournalEntry<T>>);

/// Opens the journal named by `opts` (if any) and indexes its restored
/// entries by task, last write winning.
fn open_journal<T: JournalItem>(
    opts: &BatchOpts,
    header: &JournalHeader,
) -> Result<OpenedJournal<T>, CoreError> {
    let Some(path) = &opts.journal else {
        return Ok((None, HashMap::new()));
    };
    let mut journal = if opts.resume {
        Journal::resume(path, header)?
    } else {
        Journal::create(path, header)?
    };
    let mut restored = HashMap::new();
    for entry in journal.take_restored() {
        restored.insert(entry.task, entry);
    }
    Ok((Some(journal), restored))
}

/// Adaptive trajectory definition 3: an event updates the potentials of
/// the islands its truncated `C⁻¹` columns store, and a refresh is the
/// sparse `C⁻¹·q̃`. Definition 2 updated every island over dense
/// columns; definition 1 replaced a potential read more than
/// `num_islands` events after its previous read with a truncated `C⁻¹`
/// row product. This word makes their journals fail with
/// `JournalMismatch` rather than restore different numbers.
/// Non-adaptive fingerprints omit it.
const ADAPTIVE_TRAJECTORY: u32 = 3;

/// `C⁻¹` definition 1: the truncated inverse of a minimum-degree
/// `L·D·Lᵀ` factor of `C`. Before it, `C⁻¹` was the dense inverse of an
/// LU factor and no word was written. Every solver reads `C⁻¹`, so every
/// fingerprint carries it: a journal written under the dense inverse
/// fails with `JournalMismatch` rather than restore points a
/// multi-island circuit would not reproduce.
const CINV_DEFINITION: u32 = 1;

fn fingerprint_config(w: &mut Writer, config: &SimConfig) {
    w.u32(CINV_DEFINITION);
    w.f64(config.temperature);
    match config.solver {
        SolverSpec::NonAdaptive => {
            w.u32(0);
            w.f64(0.0);
            w.u64(0);
        }
        SolverSpec::Adaptive {
            threshold,
            refresh_interval,
        } => {
            w.u32(1);
            w.u32(ADAPTIVE_TRAJECTORY);
            w.f64(threshold);
            w.u64(refresh_interval);
        }
        SolverSpec::AdaptiveDense {
            threshold,
            refresh_interval,
        } => {
            w.u32(2);
            w.u32(ADAPTIVE_TRAJECTORY);
            w.f64(threshold);
            w.u64(refresh_interval);
        }
    }
    w.u32(u32::from(config.cotunneling));
    match &config.superconducting {
        None => w.u32(0),
        Some(p) => {
            w.u32(1);
            w.f64(p.gap0);
            w.f64(p.tc);
            match p.broadening {
                None => w.u32(0),
                Some(b) => {
                    w.u32(1);
                    w.f64(b);
                }
            }
        }
    }
    match config.audit_interval {
        None => w.u32(0),
        Some(n) => {
            w.u32(1);
            w.u64(n);
        }
    }
    w.f64(config.drift_tolerance);
    match config.supervisor.wall_clock_budget {
        None => w.u32(0),
        Some(b) => {
            w.u32(1);
            w.f64(b);
        }
    }
    match config.supervisor.max_events {
        None => w.u32(0),
        Some(n) => {
            w.u32(1);
            w.u64(n);
        }
    }
    w.u32(u32::from(config.supervisor.blockade_is_outcome));
}

fn fingerprint_policy(w: &mut Writer, policy: &RetryPolicy) {
    // Retry-seed scheme 2: `split_seed(split_seed(master, task),
    // attempt)`. Scheme 1 reseeded with `split_seed(master, task ·
    // attempt)`, which replayed task 0's own stream and sibling points'
    // initial streams; this word makes a journal written under it fail
    // with `JournalMismatch` rather than restore points it recovered.
    w.u32(2);
    w.u32(policy.max_retries);
    w.f64(RetryPolicy::TIGHTEN_FACTOR);
    w.u32(u32::from(policy.solver_fallback));
}

fn sweep_fingerprint(
    config: &SimConfig,
    junction: JunctionId,
    controls: &[f64],
    warmup: u64,
    events: u64,
    policy: &RetryPolicy,
) -> u64 {
    let mut w = Writer::new();
    fingerprint_config(&mut w, config);
    w.u64(junction.index() as u64);
    w.u64(warmup);
    w.u64(events);
    w.u64(controls.len() as u64);
    for &c in controls {
        w.f64(c);
    }
    fingerprint_policy(&mut w, policy);
    fnv1a64(&w.buf)
}

/// Resilient I–V sweep: one point per `controls` value, each a fresh
/// simulation of `circuit` with `setup` applied, `warmup` discarded
/// events, and `events` measured events through `junction`. Point `i`
/// first runs with `split_seed(config.seed, i)`; retry, salvage, and
/// optional journaling follow the module docs. A fully blockaded point
/// reads zero current with [`RunOutcome::Blockaded`], distinguishable
/// from a point its supervisor budget truncated.
///
/// `setup(sim, control, spec)` applies the control value; the
/// [`AttemptSpec`] identifies which attempt of which point is being set
/// up (a 2-D map reads its slow axis from `spec.task`; fault-injection
/// tests arm their plans through it; other callers ignore it).
///
/// Fault-free results are bit-identical at any thread count;
/// [`BatchReport::values`] returns them in control order.
///
/// # Errors
///
/// Per-point faults do **not** error — they surface as
/// [`PointStatus::Faulted`] in the report. Errors are batch-level
/// only: invalid configuration surfacing on every attempt path,
/// journal I/O ([`CoreError::JournalIo`]), a journal from a different
/// batch ([`CoreError::JournalMismatch`]), or an unreadable journal
/// header ([`CoreError::JournalCorrupt`]).
#[allow(clippy::too_many_arguments)]
pub fn batch_sweep<F>(
    circuit: &Circuit,
    config: &SimConfig,
    junction: JunctionId,
    controls: &[f64],
    warmup: u64,
    events: u64,
    opts: &BatchOpts,
    setup: F,
) -> Result<BatchReport<SweepPoint>, CoreError>
where
    F: Fn(&mut Simulation<'_>, f64, &AttemptSpec) -> Result<(), CoreError> + Sync,
{
    let config = &effective_config(config, opts);
    let header = JournalHeader {
        master_seed: config.seed,
        tasks: controls.len() as u64,
        fingerprint: sweep_fingerprint(config, junction, controls, warmup, events, &opts.retry),
        kind: SweepPoint::KIND,
    };
    let (journal, restored) = open_journal::<SweepPoint>(opts, &header)?;
    #[cfg(feature = "fault-inject")]
    if let (Some(plan), Some(j)) = (&opts.fault_plan, journal.as_ref()) {
        plan.arm_journal(j);
    }
    run_batch(
        controls.len(),
        config.seed,
        &opts.retry,
        opts.par,
        journal.as_ref(),
        &restored,
        opts.cancel.as_ref(),
        |spec| {
            let cfg = attempt_config(config, spec);
            let mut apply = |sim: &mut Simulation<'_>, v: f64| {
                #[cfg(feature = "fault-inject")]
                if let Some(plan) = &opts.fault_plan {
                    plan.arm(sim, spec);
                }
                setup(sim, v, spec)
            };
            run_point_seeded(
                circuit,
                cfg,
                junction,
                controls[spec.task],
                warmup,
                events,
                &mut apply,
            )
        },
    )
}

/// The journalable summary of one ensemble replica: the part of its
/// [`crate::engine::Record`] every consumer of ensemble statistics
/// uses (probe traces and per-junction counts are not kept).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSummary {
    /// Time-averaged current (A) through the recorded junction.
    pub current: f64,
    /// Simulated duration (s).
    pub duration: f64,
    /// Tunnel events measured (after warmup).
    pub events: u64,
    /// Why the replica stopped.
    pub outcome: RunOutcome,
}

impl JournalItem for ReplicaSummary {
    const KIND: u32 = 2;

    fn encode(&self, w: &mut Writer) {
        w.f64(self.current);
        w.f64(self.duration);
        w.u64(self.events);
        crate::journal::encode_outcome(w, &self.outcome);
    }

    fn decode(r: &mut crate::checkpoint::Reader<'_>) -> Result<Self, CoreError> {
        Ok(ReplicaSummary {
            current: r.f64("replica current")?,
            duration: r.f64("replica duration")?,
            events: r.u64("replica events")?,
            outcome: crate::journal::decode_outcome(r)?,
        })
    }
}

impl BatchItem for ReplicaSummary {
    fn outcome(&self) -> RunOutcome {
        self.outcome
    }
}

/// Replica statistics of a batch ensemble, folded in replica order
/// over the points that carry a value (faulted replicas are excluded —
/// and reported in the [`BatchCounts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleStats {
    /// Mean time-averaged current (A).
    pub mean_current: f64,
    /// Population standard deviation of replica currents (A).
    pub std_current: f64,
    /// Total tunnel events across replicas.
    pub total_events: u64,
    /// Replicas contributing to the statistics.
    pub measured: usize,
}

impl EnsembleStats {
    /// Standard error of the ensemble mean current: `σ/√n` over the
    /// measured replicas. This is the statistical error bar a
    /// cross-engine comparison of [`EnsembleStats::mean_current`]
    /// should tolerate (`semsim validate` builds its per-point
    /// tolerances from it); 0 when nothing was measured.
    #[must_use]
    pub fn sem_current(&self) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            self.std_current / (self.measured as f64).sqrt()
        }
    }
}

impl BatchReport<ReplicaSummary> {
    /// Computes replica statistics over the replicas that carry a
    /// value, folded in replica order.
    #[must_use]
    pub fn ensemble_stats(&self) -> EnsembleStats {
        let currents: Vec<f64> = self
            .points
            .iter()
            .filter_map(|p| p.item.as_ref().map(|s| s.current))
            .collect();
        let total_events = self
            .points
            .iter()
            .filter_map(|p| p.item.as_ref().map(|s| s.events))
            .sum();
        let n = currents.len().max(1) as f64;
        let mean = currents.iter().sum::<f64>() / n;
        let var = currents
            .iter()
            .map(|c| (c - mean) * (c - mean))
            .sum::<f64>()
            / n;
        EnsembleStats {
            mean_current: mean,
            std_current: var.sqrt(),
            total_events,
            measured: currents.len(),
        }
    }
}

fn ensemble_fingerprint(
    config: &SimConfig,
    junction: JunctionId,
    warmup: u64,
    length: RunLength,
    policy: &RetryPolicy,
) -> u64 {
    let mut w = Writer::new();
    fingerprint_config(&mut w, config);
    w.u64(junction.index() as u64);
    w.u64(warmup);
    match length {
        RunLength::Events(n) => {
            w.u32(0);
            w.u64(n);
        }
        RunLength::Time(t) => {
            w.u32(1);
            w.f64(t);
        }
    }
    fingerprint_policy(&mut w, policy);
    fnv1a64(&w.buf)
}

/// Resilient independent-replica ensemble: `replicas` statistically
/// independent runs of `length` on `circuit`, replica `r` first seeded
/// with `split_seed(config.seed, r)`, with per-replica retry, salvage,
/// and optional journaling. Replicas run with
/// [`Supervisor::blockade_is_outcome`] set: a frozen replica is data
/// ([`RunOutcome::Blockaded`], tallied in the report), not a fault.
/// `setup(sim, replica, spec)` runs before warmup; statistics come
/// from [`BatchReport::ensemble_stats`].
///
/// # Errors
///
/// As [`batch_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn batch_ensemble<F>(
    circuit: &Circuit,
    config: &SimConfig,
    junction: JunctionId,
    replicas: usize,
    warmup: u64,
    length: RunLength,
    opts: &BatchOpts,
    setup: F,
) -> Result<BatchReport<ReplicaSummary>, CoreError>
where
    F: Fn(&mut Simulation<'_>, usize, &AttemptSpec) -> Result<(), CoreError> + Sync,
{
    let config = &effective_config(config, opts);
    let header = JournalHeader {
        master_seed: config.seed,
        tasks: replicas as u64,
        fingerprint: ensemble_fingerprint(config, junction, warmup, length, &opts.retry),
        kind: ReplicaSummary::KIND,
    };
    let (journal, restored) = open_journal::<ReplicaSummary>(opts, &header)?;
    #[cfg(feature = "fault-inject")]
    if let (Some(plan), Some(j)) = (&opts.fault_plan, journal.as_ref()) {
        plan.arm_journal(j);
    }
    run_batch(
        replicas,
        config.seed,
        &opts.retry,
        opts.par,
        journal.as_ref(),
        &restored,
        opts.cancel.as_ref(),
        |spec| {
            let mut cfg = attempt_config(config, spec);
            cfg.supervisor = Supervisor {
                blockade_is_outcome: true,
                ..cfg.supervisor
            };
            let mut sim = Simulation::new(circuit, cfg)?;
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = &opts.fault_plan {
                plan.arm(&mut sim, spec);
            }
            setup(&mut sim, spec.task, spec)?;
            if warmup > 0 {
                sim.run(RunLength::Events(warmup))?;
            }
            let record = sim.run(length)?;
            let summary = ReplicaSummary {
                current: record.current(junction),
                duration: record.duration,
                events: record.events,
                outcome: record.outcome,
            };
            Ok((summary, sim.health_report()))
        },
    )
}

/// Batch-level fault scripting (testing only; requires the
/// `fault-inject` cargo feature): injects engine-level
/// [`crate::health::FaultPlan`]s into chosen tasks' attempts, via the
/// [`AttemptSpec`] the batch drivers hand to `setup`.
///
/// Transient faults (`panic_at`, `poison_rate`) fire only on the
/// initial attempt, so the retry must succeed — proving recovery.
/// Persistent faults (`persistent_poison`) fire on every attempt that
/// is not the solver fallback, so only the fallback can succeed —
/// proving the degradation ladder reaches it.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchFaultPlan {
    panics: Vec<(usize, u64)>,
    poisons: Vec<(usize, u64, usize)>,
    persistent_poisons: Vec<(usize, u64, usize)>,
    journal_full: Option<(u64, usize)>,
}

#[cfg(feature = "fault-inject")]
impl BatchFaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics inside `task`'s initial attempt once `at_event` events
    /// have executed.
    #[must_use]
    pub fn panic_at(mut self, task: usize, at_event: u64) -> Self {
        self.panics.push((task, at_event));
        self
    }

    /// Poisons a forward rate of `junction` in `task`'s initial
    /// attempt once `at_event` events have executed.
    #[must_use]
    pub fn poison_rate(mut self, task: usize, at_event: u64, junction: usize) -> Self {
        self.poisons.push((task, at_event, junction));
        self
    }

    /// Poisons a forward rate of `junction` in **every** non-fallback
    /// attempt of `task`, so only [`RecoveryAction::SolverFallback`]
    /// can rescue the point.
    #[must_use]
    pub fn persistent_poison(mut self, task: usize, at_event: u64, junction: usize) -> Self {
        self.persistent_poisons.push((task, at_event, junction));
        self
    }

    /// Scripts a journal disk-full fault: the first `after_appends`
    /// appends succeed, then every later append tears its record at
    /// `torn_bytes` bytes and fails like ENOSPC. The batch must
    /// salvage the affected points in memory and finish.
    #[must_use]
    pub fn journal_full_after(mut self, after_appends: u64, torn_bytes: usize) -> Self {
        self.journal_full = Some((after_appends, torn_bytes));
        self
    }

    /// Arms the scripted journal fault (if any) on an opened journal.
    /// The batch drivers call this right after opening.
    pub fn arm_journal<T: JournalItem>(&self, journal: &Journal<T>) {
        if let Some((after_appends, torn_bytes)) = self.journal_full {
            journal.arm_write_failure(after_appends, torn_bytes);
        }
    }

    /// Arms the faults this plan scripts for `spec` on a fresh
    /// simulation. Call from a batch driver's `setup` closure.
    pub fn arm(&self, sim: &mut Simulation<'_>, spec: &AttemptSpec) {
        let mut plan = crate::health::FaultPlan::new();
        let mut any = false;
        if spec.action == RecoveryAction::Initial {
            for &(task, at_event) in &self.panics {
                if task == spec.task {
                    plan = plan.panic_at(at_event);
                    any = true;
                }
            }
            for &(task, at_event, junction) in &self.poisons {
                if task == spec.task {
                    plan = plan.poison_rate(at_event, junction);
                    any = true;
                }
            }
        }
        for &(task, at_event, junction) in &self.persistent_poisons {
            if task == spec.task && !spec.fallback {
                plan = plan.poison_rate(at_event, junction);
                any = true;
            }
        }
        if any {
            sim.inject_faults(plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::FaultStage;

    fn point(v: f64) -> SweepPoint {
        SweepPoint {
            control: v,
            current: v * 2.0,
            outcome: RunOutcome::Completed,
            events: 10,
        }
    }

    fn numerical_fault() -> CoreError {
        CoreError::NumericalFault {
            stage: FaultStage::TunnelRate,
            junction: Some(0),
            value: f64::NAN,
        }
    }

    #[test]
    fn attempt_one_is_the_plain_split_seed() {
        for task in [0usize, 1, 7, 1000] {
            let spec = initial_spec(99, task);
            assert_eq!(spec.seed, split_seed(99, task as u64));
            assert_eq!(spec.action, RecoveryAction::Initial);
            assert_eq!(spec.theta_scale, 1.0);
            assert!(!spec.fallback);
        }
    }

    #[test]
    fn ladder_panics_rerun_then_reseed_then_fall_back() {
        let policy = RetryPolicy::default(); // 1 + 2 retries
        let spec1 = initial_spec(7, 5);
        let panic_fault = TaskFault::Panic {
            message: "x".into(),
        };
        let spec2 = next_spec(7, &spec1, &panic_fault, &policy);
        assert_eq!(spec2.action, RecoveryAction::RerunSame);
        assert_eq!(spec2.seed, spec1.seed, "rerun keeps the seed");
        assert_eq!(spec2.theta_scale, 1.0);
        // A second panic is no longer treated as transient.
        let spec3 = next_spec(7, &spec2, &panic_fault, &policy);
        assert_eq!(spec3.action, RecoveryAction::SolverFallback);
        assert_eq!(spec3.seed, split_seed(split_seed(7, 5), 3));
        assert!(spec3.fallback);

        // Numerical faults reseed+tighten immediately.
        let nf = TaskFault::Error(numerical_fault());
        let s2 = next_spec(7, &spec1, &nf, &policy);
        assert_eq!(s2.action, RecoveryAction::ReseedTightened);
        assert_eq!(s2.seed, split_seed(split_seed(7, 5), 2));
        assert_eq!(s2.theta_scale, 0.5);
        let s3 = next_spec(7, &s2, &nf, &policy);
        assert_eq!(s3.action, RecoveryAction::SolverFallback);
    }

    #[test]
    fn retry_seeds_never_alias_another_stream() {
        // Every seed a ladder can reseed with — tasks 0..8, attempts
        // 1..3 on the numerical-fault ladder — is its own stream: a
        // retry never replays its own failed stream or a sibling
        // point's.
        let policy = RetryPolicy::default();
        let nf = TaskFault::Error(numerical_fault());
        let mut seen = std::collections::HashSet::new();
        for task in 0..8 {
            let mut spec = initial_spec(33, task);
            loop {
                assert_ne!(spec.action, RecoveryAction::RerunSame);
                assert!(
                    seen.insert(spec.seed),
                    "task {task} attempt {} reuses a seed",
                    spec.attempt
                );
                if spec.attempt == policy.max_attempts() {
                    break;
                }
                spec = next_spec(33, &spec, &nf, &policy);
            }
        }
        assert_eq!(seen.len(), 8 * 3);
    }

    #[test]
    fn no_fallback_policy_keeps_tightening() {
        let policy = RetryPolicy {
            solver_fallback: false,
            ..RetryPolicy::default()
        };
        let nf = TaskFault::Error(numerical_fault());
        let s1 = initial_spec(1, 2);
        let s2 = next_spec(1, &s1, &nf, &policy);
        let s3 = next_spec(1, &s2, &nf, &policy);
        assert_eq!(s3.action, RecoveryAction::ReseedTightened);
        assert_eq!(s3.theta_scale, 0.25);
        assert!(!s3.fallback);
    }

    #[test]
    fn retry_ladder_recovers_and_logs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let policy = RetryPolicy::default();
        let calls = AtomicUsize::new(0);
        let run = run_with_retry::<SweepPoint, _>(3, 11, &policy, &|spec| {
            calls.fetch_add(1, Ordering::Relaxed);
            if spec.attempt < 3 {
                Err(numerical_fault())
            } else {
                Ok((point(1.0), HealthReport::empty()))
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(run.status, PointStatus::Recovered { attempts: 3 });
        assert_eq!(run.attempts.len(), 3);
        assert!(run.attempts[0].fault.is_some());
        assert!(run.attempts[1].fault.is_some());
        assert!(run.attempts[2].fault.is_none());
        assert_eq!(run.attempts[2].action, RecoveryAction::SolverFallback);
        assert!(run.item.is_some());
    }

    #[test]
    fn non_retryable_error_faults_immediately() {
        let policy = RetryPolicy::default();
        let run = run_with_retry::<SweepPoint, _>(0, 1, &policy, &|_| {
            Err(CoreError::UnknownLead { lead: 9 })
        });
        assert_eq!(run.status, PointStatus::Faulted);
        assert_eq!(run.attempts.len(), 1, "no retry for config errors");
        assert_eq!(
            run.fault,
            Some(TaskFault::Error(CoreError::UnknownLead { lead: 9 }))
        );
    }

    #[test]
    fn panic_in_attempt_is_caught_and_retried() {
        let policy = RetryPolicy::default();
        let run = run_with_retry::<SweepPoint, _>(2, 5, &policy, &|spec| {
            if spec.attempt == 1 {
                panic!("transient crash");
            }
            assert_eq!(spec.action, RecoveryAction::RerunSame);
            assert_eq!(spec.seed, split_seed(5, 2));
            Ok((point(2.0), HealthReport::empty()))
        });
        assert_eq!(run.status, PointStatus::Recovered { attempts: 2 });
        assert_eq!(
            run.attempts[0].fault.as_deref(),
            Some("panic: transient crash")
        );
    }

    #[test]
    fn exhausted_ladder_reports_terminal_fault() {
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let run = run_with_retry::<SweepPoint, _>(0, 0, &policy, &|_| Err(numerical_fault()));
        assert_eq!(run.status, PointStatus::Faulted);
        assert_eq!(run.attempts.len(), 2);
        assert!(matches!(
            run.fault,
            Some(TaskFault::Error(CoreError::NumericalFault { .. }))
        ));
    }

    #[test]
    fn fingerprints_are_sensitive_to_inputs() {
        let cfg = SimConfig::new(4.2).with_seed(3);
        let j = JunctionId(0);
        let policy = RetryPolicy::default();
        let base = sweep_fingerprint(&cfg, j, &[0.1, 0.2], 10, 100, &policy);
        assert_eq!(
            base,
            sweep_fingerprint(&cfg, j, &[0.1, 0.2], 10, 100, &policy),
            "fingerprint is deterministic"
        );
        assert_ne!(
            base,
            sweep_fingerprint(&cfg, j, &[0.1, 0.3], 10, 100, &policy),
            "controls matter"
        );
        assert_ne!(
            base,
            sweep_fingerprint(&cfg, j, &[0.1, 0.2], 10, 200, &policy),
            "events matter"
        );
        let cfg2 = SimConfig::new(4.2)
            .with_seed(3)
            .with_solver(SolverSpec::Adaptive {
                threshold: 0.05,
                refresh_interval: 500,
            });
        assert_ne!(
            base,
            sweep_fingerprint(&cfg2, j, &[0.1, 0.2], 10, 100, &policy),
            "solver matters"
        );
        // The seed is carried in the journal header itself, not the
        // fingerprint.
        let cfg3 = SimConfig::new(4.2).with_seed(4);
        assert_eq!(
            base,
            sweep_fingerprint(&cfg3, j, &[0.1, 0.2], 10, 100, &policy)
        );
    }

    #[test]
    fn fingerprints_pin_the_trajectory_definition() {
        // Recorded from the binary before `C⁻¹` definition 1 (dense LU
        // inverse, adaptive definition 2): every solver's fingerprint
        // must differ, so journals written by that binary are refused.
        let j = JunctionId(0);
        let policy = RetryPolicy::default();
        let nonadaptive = SimConfig::new(4.2).with_seed(3);
        for (solver, before) in [
            (SolverSpec::NonAdaptive, 0xb3b0_26cd_a48f_4afd),
            (
                SolverSpec::Adaptive {
                    threshold: 0.05,
                    refresh_interval: 500,
                },
                0x4f11_a85c_1d1b_59bc,
            ),
            (
                SolverSpec::AdaptiveDense {
                    threshold: 0.05,
                    refresh_interval: 500,
                },
                0x81e6_35f0_b993_0d1b,
            ),
        ] {
            let config = nonadaptive.clone().with_solver(solver);
            assert_ne!(
                sweep_fingerprint(&config, j, &[0.1, 0.2], 10, 100, &policy),
                before,
                "{solver:?}"
            );
        }
    }

    #[test]
    fn attempt_config_applies_the_ladder() {
        // The optimized solver and its dense oracle take the same ladder.
        let solvers = |threshold| {
            [
                SolverSpec::Adaptive {
                    threshold,
                    refresh_interval: 100,
                },
                SolverSpec::AdaptiveDense {
                    threshold,
                    refresh_interval: 100,
                },
            ]
        };
        for (solver, want) in solvers(0.2).into_iter().zip(solvers(0.1)) {
            let config = SimConfig::new(1.0).with_solver(solver);
            let tightened = attempt_config(
                &config,
                &AttemptSpec {
                    task: 1,
                    attempt: 2,
                    seed: 42,
                    action: RecoveryAction::ReseedTightened,
                    theta_scale: 0.5,
                    fallback: false,
                },
            );
            assert_eq!(tightened.seed, 42);
            assert_eq!(tightened.solver, want);
            let fell_back = attempt_config(
                &config,
                &AttemptSpec {
                    task: 1,
                    attempt: 3,
                    seed: 7,
                    action: RecoveryAction::SolverFallback,
                    theta_scale: 0.5,
                    fallback: true,
                },
            );
            assert_eq!(fell_back.solver, SolverSpec::NonAdaptive);
            // Attempt 1 only swaps the seed in.
            let initial = attempt_config(&config, &initial_spec(0, 4));
            assert_eq!(initial.solver, solver);
        }
    }
}
