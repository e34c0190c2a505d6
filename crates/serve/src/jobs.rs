//! Job lifecycle and persistence: every job lives as files under the
//! daemon's data directory, so a `kill -9` loses nothing but the
//! in-flight record the journal layer already knows how to discard.
//!
//! Per job `jN`:
//!
//! - `jN.job` — the submitted request body, verbatim. Present from
//!   admission until deletion; a `.job` without a `.done` marks a job
//!   that must be re-run (resumed) after a restart.
//! - `jN.jl` — the crash-safe `SEMSIMJL` batch journal the workers
//!   append completed points to.
//! - `jN.done` — the terminal result (phase, counts, rendered result
//!   lines) as JSON. Written once, last; its existence is the commit
//!   point of the job. The terminal phase is published in memory only
//!   after this write, so a client that has seen it finds the file on
//!   disk and a complete job already in the result cache.
//!
//! Restart recovery walks the directory: finished jobs reload into the
//! store (and the result cache), unfinished ones re-enqueue with
//! `resume = true` — the journal restores every completed point
//! byte-identically and only the remainder recomputes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use semsim_check::{json_escape, parse_json, Json};
use semsim_core::batch::{BatchCounts, CancelToken};
use semsim_core::checkpoint::{fnv1a64, Writer};
use semsim_core::par::OutcomeCounts;

use crate::api::{JobSpec, SourceFormat};

/// Which batch driver a job runs through (fixes the journal payload
/// type for streaming and status scans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One `SweepPoint` per voltage-grid point.
    Sweep,
    /// One `ReplicaSummary` per ensemble replica.
    Ensemble,
}

/// Where a job is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// The batch ran to the end (individual points may still have
    /// faulted — see the counts).
    Done,
    /// Cancelled via `DELETE /jobs/:id`; computed points are salvaged.
    Cancelled,
    /// The wall-clock deadline cancelled it; computed points are
    /// salvaged.
    TimedOut,
    /// A batch-level failure (journal I/O, worker panic outside the
    /// isolation boundary).
    Failed,
}

impl JobPhase {
    /// Lowercase wire word (`"timed-out"` style).
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
            JobPhase::TimedOut => "timed-out",
            JobPhase::Failed => "failed",
        }
    }

    fn from_word(word: &str) -> Option<Self> {
        Some(match word {
            "queued" => JobPhase::Queued,
            "running" => JobPhase::Running,
            "done" => JobPhase::Done,
            "cancelled" => JobPhase::Cancelled,
            "timed-out" => JobPhase::TimedOut,
            "failed" => JobPhase::Failed,
            _ => return None,
        })
    }

    /// Whether the job will never change again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobPhase::Queued | JobPhase::Running)
    }
}

/// Terminal result of a job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobResult {
    /// Point-status tally.
    pub counts: BatchCounts,
    /// Run-outcome tally over measured points.
    pub outcomes: OutcomeCounts,
    /// Retry attempts consumed.
    pub retries: u64,
    /// Journal-tail diagnosis when a resume discarded bytes.
    pub tail: Option<String>,
    /// Batch-level error (phase `failed` only).
    pub error: Option<String>,
    /// Rendered result lines, one per task, in task order.
    pub lines: Vec<String>,
}

impl JobResult {
    /// Renders the result's JSON fields (no surrounding braces) for the
    /// status endpoint and the `.done` file.
    #[must_use]
    pub fn render_fields(&self) -> String {
        let c = &self.counts;
        let o = &self.outcomes;
        let mut out = format!(
            "\"counts\":{{\"ok\":{},\"recovered\":{},\"faulted\":{},\"restored\":{},\"cancelled\":{}}},\
             \"outcomes\":{{\"completed\":{},\"blockaded\":{},\"wall_clock_exceeded\":{},\"event_cap_reached\":{}}},\
             \"retries\":{}",
            c.ok,
            c.recovered,
            c.faulted,
            c.skipped,
            c.cancelled,
            o.completed,
            o.blockaded,
            o.wall_clock_exceeded,
            o.event_cap_reached,
            self.retries,
        );
        match &self.tail {
            Some(t) => out.push_str(&format!(",\"tail\":\"{}\"", json_escape(t))),
            None => out.push_str(",\"tail\":null"),
        }
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":\"{}\"", json_escape(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(",\"lines\":[");
        for (i, line) in self.lines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(line));
            out.push('"');
        }
        out.push(']');
        out
    }
}

fn count(json: &Json, key: &str) -> usize {
    json.get(key).and_then(Json::as_number).unwrap_or(0.0) as usize
}

/// Decodes a `.done` file body.
fn parse_done(body: &str) -> Option<(JobPhase, JobResult)> {
    let json = parse_json(body).ok()?;
    let phase = JobPhase::from_word(json.get("phase")?.as_str()?)?;
    let counts_json = json.get("counts")?;
    let outcomes_json = json.get("outcomes")?;
    let counts = BatchCounts {
        ok: count(counts_json, "ok"),
        recovered: count(counts_json, "recovered"),
        faulted: count(counts_json, "faulted"),
        skipped: count(counts_json, "restored"),
        cancelled: count(counts_json, "cancelled"),
    };
    let outcomes = OutcomeCounts {
        completed: count(outcomes_json, "completed"),
        blockaded: count(outcomes_json, "blockaded"),
        wall_clock_exceeded: count(outcomes_json, "wall_clock_exceeded"),
        event_cap_reached: count(outcomes_json, "event_cap_reached"),
    };
    let retries = json.get("retries").and_then(Json::as_number).unwrap_or(0.0) as u64;
    let tail = json
        .get("tail")
        .and_then(Json::as_str)
        .map(ToOwned::to_owned);
    let error = json
        .get("error")
        .and_then(Json::as_str)
        .map(ToOwned::to_owned);
    let lines = json
        .get("lines")?
        .as_array()?
        .iter()
        .map(|l| l.as_str().map(ToOwned::to_owned))
        .collect::<Option<Vec<_>>>()?;
    Some((
        phase,
        JobResult {
            counts,
            outcomes,
            retries,
            tail,
            error,
            lines,
        },
    ))
}

struct JobState {
    phase: JobPhase,
    result: Option<JobResult>,
}

/// One admitted job.
pub struct Job {
    /// Numeric id (wire form `jN`).
    pub id: u64,
    /// Fair-scheduling bucket.
    pub tenant: String,
    /// The validated specification.
    pub spec: JobSpec,
    /// Which batch driver runs it.
    pub kind: JobKind,
    /// Total batch tasks.
    pub tasks: usize,
    /// Cooperative cancellation handle, shared with the running batch.
    pub cancel: CancelToken,
    /// Set by the deadline watchdog so the finish path can tell a
    /// timeout from a user cancel.
    pub timed_out: AtomicBool,
    /// Wall-clock deadline, set when the job starts running.
    pub deadline: Mutex<Option<Instant>>,
    state: Mutex<JobState>,
    /// Notified when the terminal state is published.
    terminal: Condvar,
}

impl Job {
    fn new(
        id: u64,
        spec: JobSpec,
        kind: JobKind,
        tasks: usize,
        phase: JobPhase,
        result: Option<JobResult>,
    ) -> Self {
        Job {
            id,
            tenant: spec.tenant.clone(),
            spec,
            kind,
            tasks,
            cancel: CancelToken::new(),
            timed_out: AtomicBool::new(false),
            deadline: Mutex::new(None),
            state: Mutex::new(JobState { phase, result }),
            terminal: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> JobPhase {
        self.lock().phase
    }

    /// Marks the job running and arms its wall-clock deadline.
    pub fn start(&self, deadline: Instant) {
        self.lock().phase = JobPhase::Running;
        *self.deadline.lock().unwrap_or_else(PoisonError::into_inner) = Some(deadline);
    }

    /// Waits until the job's terminal state is published or `timeout`
    /// passes; `true` when the job is terminal.
    pub fn wait_terminal(&self, timeout: Duration) -> bool {
        let (state, _) = self
            .terminal
            .wait_timeout_while(self.lock(), timeout, |state| !state.phase.is_terminal())
            .unwrap_or_else(PoisonError::into_inner);
        state.phase.is_terminal()
    }

    /// Clones the terminal result, when the job has one.
    #[must_use]
    pub fn result(&self) -> Option<JobResult> {
        self.lock().result.clone()
    }

    /// Renders the `.done` body / terminal status JSON.
    #[must_use]
    pub fn render_done(&self) -> String {
        let state = self.lock();
        self.render(state.phase, state.result.as_ref())
    }

    fn render(&self, phase: JobPhase, result: Option<&JobResult>) -> String {
        let fields = result.map(JobResult::render_fields).unwrap_or_default();
        format!(
            "{{\"id\":\"j{}\",\"phase\":\"{}\",\"tenant\":\"{}\",\"tasks\":{},{fields}}}\n",
            self.id,
            phase.word(),
            json_escape(&self.tenant),
            self.tasks,
        )
    }
}

/// Canonical cache key of a job: everything that determines its result
/// — source, format, and every override — and nothing that doesn't
/// (the tenant). Two submissions with equal keys return the same
/// completed result without recomputation.
#[must_use]
pub fn cache_key(spec: &JobSpec) -> u64 {
    let mut w = Writer::new();
    w.bytes(spec.source.as_bytes());
    w.u32(match spec.format {
        SourceFormat::Circuit => 0,
        SourceFormat::Logic => 1,
    });
    let opt_u64 = |w: &mut Writer, v: Option<u64>| match v {
        None => w.u32(0),
        Some(n) => {
            w.u32(1);
            w.u64(n);
        }
    };
    opt_u64(&mut w, spec.seed);
    opt_u64(&mut w, spec.events);
    opt_u64(&mut w, spec.replicas.map(|r| r as u64));
    match spec.timeout_secs {
        None => w.u32(0),
        Some(secs) => {
            w.u32(1);
            w.f64(secs);
        }
    }
    opt_u64(&mut w, spec.max_events);
    opt_u64(&mut w, spec.max_retries.map(u64::from));
    w.u64(spec.inputs.len() as u64);
    for (name, bit) in &spec.inputs {
        w.u32(name.len() as u32);
        w.bytes(name.as_bytes());
        w.u32(u32::from(*bit));
    }
    #[cfg(feature = "fault-inject")]
    match &spec.fault {
        None => w.u32(0),
        Some(f) => {
            w.u32(1);
            match f.panic_at {
                None => w.u32(0),
                Some((task, event)) => {
                    w.u32(1);
                    w.u64(task as u64);
                    w.u64(event);
                }
            }
            match f.poison_rate {
                None => w.u32(0),
                Some((task, event, junction)) => {
                    w.u32(1);
                    w.u64(task as u64);
                    w.u64(event);
                    w.u64(junction as u64);
                }
            }
        }
    }
    fnv1a64(w.as_bytes())
}

/// A job recovered from disk that still needs to run.
pub struct RecoveredJob {
    /// The rebuilt job (already in the store, phase `Queued`).
    pub job: Arc<Job>,
    /// Human-readable description of what its journal holds — logged at
    /// restart so operators can see exactly what a resume will reuse
    /// and why any tail was discarded.
    pub journal_note: String,
}

/// The daemon's in-memory job table plus its on-disk mirror.
pub struct JobStore {
    data_dir: PathBuf,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    cache: Mutex<HashMap<u64, u64>>,
    next_id: AtomicU64,
}

impl JobStore {
    /// Opens (creating if needed) the data directory and recovers every
    /// persisted job: finished ones reload into the store and cache,
    /// unfinished ones return as [`RecoveredJob`]s for re-enqueueing.
    ///
    /// # Errors
    ///
    /// Filesystem failures on the data directory itself. Individually
    /// damaged job files never abort recovery — they are reported in
    /// the second return slot and skipped.
    pub fn open(data_dir: &Path) -> std::io::Result<(JobStore, Vec<RecoveredJob>, Vec<String>)> {
        std::fs::create_dir_all(data_dir)?;
        let store = JobStore {
            data_dir: data_dir.to_path_buf(),
            jobs: Mutex::new(HashMap::new()),
            cache: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        };
        let mut pending = Vec::new();
        let mut notes = Vec::new();
        let mut max_id = 0u64;
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix('j'))
                .and_then(|n| n.strip_suffix(".job"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            ids.push(id);
        }
        // Deterministic recovery order regardless of directory order.
        ids.sort_unstable();
        for id in ids {
            max_id = max_id.max(id);
            let raw = match std::fs::read_to_string(store.job_path(id)) {
                Ok(raw) => raw,
                Err(e) => {
                    notes.push(format!("job j{id}: unreadable spec ({e}); skipped"));
                    continue;
                }
            };
            // Recovery never re-prices a job (budget 0): everything on
            // disk was admitted before the crash, and a restart with a
            // tighter budget must not strand work that already ran.
            let (spec, kind, tasks) = match crate::runner::resolve_spec(&raw, 0) {
                Ok(resolved) => resolved,
                Err(e) => {
                    notes.push(format!("job j{id}: invalid spec ({e}); skipped"));
                    continue;
                }
            };
            let key = cache_key(&spec);
            let done_path = store.done_path(id);
            if done_path.exists() {
                let parsed = std::fs::read_to_string(&done_path)
                    .ok()
                    .and_then(|body| parse_done(&body));
                let Some((phase, result)) = parsed else {
                    notes.push(format!("job j{id}: corrupt result file; skipped"));
                    continue;
                };
                if phase == JobPhase::Done && result.counts.faulted == 0 {
                    store.remember(key, id);
                }
                let job = Job::new(id, spec, kind, tasks, phase, Some(result));
                store.insert(Arc::new(job));
            } else {
                let note = crate::runner::journal_note(&store.journal_path(id), kind, tasks);
                let job = Arc::new(Job::new(id, spec, kind, tasks, JobPhase::Queued, None));
                store.insert(Arc::clone(&job));
                pending.push(RecoveredJob {
                    job,
                    journal_note: note,
                });
            }
        }
        store.next_id.store(max_id + 1, Ordering::SeqCst);
        Ok((store, pending, notes))
    }

    fn insert(&self, job: Arc<Job>) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(job.id, job);
    }

    /// Admits a new job: assigns an id, persists the raw request body,
    /// and inserts the job as `Queued`.
    ///
    /// # Errors
    ///
    /// Filesystem failure writing the spec file (the job is not
    /// admitted).
    pub fn create(
        &self,
        raw_body: &str,
        spec: JobSpec,
        kind: JobKind,
        tasks: usize,
    ) -> std::io::Result<Arc<Job>> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        std::fs::write(self.job_path(id), raw_body)?;
        let job = Arc::new(Job::new(id, spec, kind, tasks, JobPhase::Queued, None));
        self.insert(Arc::clone(&job));
        Ok(job)
    }

    /// Withdraws a job that failed admission after [`JobStore::create`]
    /// (queue full): removes it from the table and disk as if it never
    /// arrived.
    pub fn withdraw(&self, id: u64) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        let _ = std::fs::remove_file(self.job_path(id));
    }

    /// Looks a job up by id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
    }

    /// Snapshot of every job (for the health endpoint).
    #[must_use]
    pub fn all(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect()
    }

    /// The completed job that already answers this cache key, if any.
    #[must_use]
    pub fn cached(&self, key: u64) -> Option<u64> {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied()
    }

    /// Records a completed job under its cache key.
    pub fn remember(&self, key: u64, id: u64) {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, id);
    }

    /// Commits a job's terminal state, then publishes it: writes the
    /// `.done` file; sets the phase and result and (for complete `Done`
    /// jobs) registers the cache key, all under the job's state lock;
    /// then wakes every [`Job::wait_terminal`]. A client that sees the
    /// terminal phase finds the file on disk and a complete job in the
    /// cache, and a cache hit never renders a job that is not yet
    /// terminal. Lock order: a job's state, then the cache.
    pub fn finish(&self, job: &Job, phase: JobPhase, result: JobResult) {
        let complete = phase == JobPhase::Done && result.counts.faulted == 0;
        let committed =
            std::fs::write(self.done_path(job.id), job.render(phase, Some(&result))).is_ok();
        let mut state = job.lock();
        state.phase = phase;
        state.result = Some(result);
        if committed && complete {
            self.remember(cache_key(&job.spec), job.id);
        }
        drop(state);
        job.terminal.notify_all();
    }

    /// `jN.job` — the persisted request body.
    #[must_use]
    pub fn job_path(&self, id: u64) -> PathBuf {
        self.data_dir.join(format!("j{id}.job"))
    }

    /// `jN.jl` — the batch journal.
    #[must_use]
    pub fn journal_path(&self, id: u64) -> PathBuf {
        self.data_dir.join(format!("j{id}.jl"))
    }

    /// `jN.done` — the terminal-result commit file.
    #[must_use]
    pub fn done_path(&self, id: u64) -> PathBuf {
        self.data_dir.join(format!("j{id}.done"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::parse_job;

    fn spec(body: &str) -> JobSpec {
        parse_job(body).unwrap()
    }

    #[test]
    fn cache_key_ignores_tenant_only() {
        let base = spec(r#"{"source": "junc 1 1 2 1e-6 1e-18", "seed": 3}"#);
        let other_tenant =
            spec(r#"{"source": "junc 1 1 2 1e-6 1e-18", "seed": 3, "tenant": "bob"}"#);
        assert_eq!(cache_key(&base), cache_key(&other_tenant));
        let other_seed = spec(r#"{"source": "junc 1 1 2 1e-6 1e-18", "seed": 4}"#);
        assert_ne!(cache_key(&base), cache_key(&other_seed));
        let other_source = spec(r#"{"source": "junc 1 1 2 1e-6 2e-18", "seed": 3}"#);
        assert_ne!(cache_key(&base), cache_key(&other_source));
        let with_events = spec(r#"{"source": "junc 1 1 2 1e-6 1e-18", "seed": 3, "events": 5}"#);
        assert_ne!(cache_key(&base), cache_key(&with_events));
    }

    #[test]
    fn done_file_round_trips() {
        let result = JobResult {
            counts: BatchCounts {
                ok: 3,
                recovered: 1,
                faulted: 0,
                skipped: 2,
                cancelled: 0,
            },
            outcomes: OutcomeCounts {
                completed: 4,
                blockaded: 2,
                wall_clock_exceeded: 0,
                event_cap_reached: 0,
            },
            retries: 1,
            tail: Some("record checksum mismatch".to_string()),
            error: None,
            lines: vec![
                "1.0e-3 2.0e-12 ok".to_string(),
                "# point 1 faulted".to_string(),
            ],
        };
        let body = format!("{{\"phase\":\"done\",{}}}", result.render_fields());
        let (phase, parsed) = parse_done(&body).unwrap();
        assert_eq!(phase, JobPhase::Done);
        assert_eq!(parsed, result);
    }

    fn job(phase: JobPhase) -> Job {
        let result = phase.is_terminal().then(JobResult::default);
        Job::new(
            1,
            spec(r#"{"source": "junc 1 1 2 1e-6 1e-18"}"#),
            JobKind::Sweep,
            1,
            phase,
            result,
        )
    }

    #[test]
    fn wait_terminal_returns_at_once_for_a_terminal_job() {
        let t0 = Instant::now();
        assert!(job(JobPhase::Done).wait_terminal(Duration::from_secs(30)));
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn wait_terminal_times_out_on_a_running_job() {
        let t0 = Instant::now();
        assert!(!job(JobPhase::Running).wait_terminal(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    /// A waiter wakes on `finish`, long before its timeout, and by then
    /// the job is committed: its `.done` file is on disk and its cache
    /// key answers.
    #[test]
    fn finish_commits_then_wakes_a_waiter() {
        let dir = std::env::temp_dir().join(format!("semsim_jobs_commit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _, _) = JobStore::open(&dir).unwrap();
        let body = r#"{"source": "junc 1 1 2 1e-6 1e-18", "seed": 3}"#;
        let job = store.create(body, spec(body), JobKind::Sweep, 1).unwrap();
        job.start(Instant::now() + Duration::from_secs(60));
        let key = cache_key(&job.spec);
        let (woke, waited, committed, cached) = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let t0 = Instant::now();
                let woke = job.wait_terminal(Duration::from_secs(30));
                (
                    woke,
                    t0.elapsed(),
                    store.done_path(job.id).exists(),
                    store.cached(key),
                )
            });
            std::thread::sleep(Duration::from_millis(30));
            store.finish(&job, JobPhase::Done, JobResult::default());
            waiter.join().unwrap()
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert!(woke, "the waiter must see the terminal phase");
        assert!(waited < Duration::from_secs(10), "waited {waited:?}");
        assert!(committed, "jN.done must be on disk when the waiter wakes");
        assert_eq!(cached, Some(job.id));
    }

    #[test]
    fn phase_words_round_trip() {
        for phase in [
            JobPhase::Queued,
            JobPhase::Running,
            JobPhase::Done,
            JobPhase::Cancelled,
            JobPhase::TimedOut,
            JobPhase::Failed,
        ] {
            assert_eq!(JobPhase::from_word(phase.word()), Some(phase));
        }
        assert_eq!(JobPhase::from_word("nonsense"), None);
    }
}
