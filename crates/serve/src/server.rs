//! The daemon: a bounded worker pool behind a `std::net` accept loop.
//!
//! Life of a job: `POST /jobs` validates the body end to end (400 on
//! any violation), checks the result cache, persists the raw spec, and
//! admits it to the bounded fair queue — or answers `429 Retry-After`
//! when the queue is at capacity (admission is the *only* place memory
//! grows with load, and it is capped). Workers pop in round-robin
//! tenant order and run each job through the journaled batch drivers;
//! a deadline watchdog cancels jobs past their wall-clock budget so the
//! pool can never be wedged by one stuck job. `kill -9` at any moment
//! loses at most the record being appended: on restart the store
//! re-enqueues every unfinished job and the journal restores its
//! completed points byte-identically.
//!
//! Between a request and its answer nothing sleeps: the accept thread
//! blocks in `accept()`, workers block on the queue, and a result
//! stream wakes when its job's terminal state is published (its only
//! timed wait, 25 ms, paces the re-reads of a running job's journal).
//!
//! Shutdown is two-phase: `drain` (SIGTERM or `POST /drain`) closes
//! admission while queued and running jobs finish; once the pool is
//! idle the accept loop stops and [`Server::join`] returns.

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use semsim_check::json_escape;
use semsim_core::health::HealthReport;

use crate::api::error_body;
use crate::http::{read_request, respond_json, ChunkedWriter, Request};
use crate::jobs::{cache_key, Job, JobPhase, JobResult, JobStore, RecoveredJob};
use crate::queue::{JobQueue, PushError};
use crate::runner;

/// Daemon configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 for an ephemeral
    /// port — the tests' default).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queue capacity; submissions beyond it meet a 429.
    pub queue_depth: usize,
    /// Directory for job specs, journals, and results.
    pub data_dir: PathBuf,
    /// Server-side cap on any job's wall-clock seconds (0 disables).
    pub max_job_seconds: f64,
    /// Admission memory budget in bytes (0 disables): a job whose
    /// estimated circuit footprint exceeds this is refused with a 413
    /// instead of OOM-killing a worker mid-job.
    pub max_memory: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            data_dir: PathBuf::from("semsim-serve-data"),
            max_job_seconds: 0.0,
            max_memory: 0,
        }
    }
}

struct Shared {
    store: JobStore,
    queue: JobQueue,
    health: Mutex<HealthReport>,
    /// Jobs a worker is executing (at most `workers`): all the deadline
    /// watchdog scans.
    running: Mutex<Vec<Arc<Job>>>,
    /// Accept loop + watchdog stop flag (set once the pool is idle
    /// after a drain).
    stopped: AtomicBool,
    workers: usize,
    max_job_seconds: f64,
    max_memory: u64,
}

impl Shared {
    fn lock_health(&self) -> MutexGuard<'_, HealthReport> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_running(&self) -> MutexGuard<'_, Vec<Arc<Job>>> {
        self.running.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Exclusive ownership of a data directory, held as a `serve.lock` PID
/// file. Two daemons sharing one data dir would interleave journal
/// appends and job ids; the lock makes the second exit with an error
/// naming the holder instead. A lock left behind by a dead process
/// (`kill -9`) is detected via `/proc/<pid>` and reclaimed.
struct ServeLock {
    path: PathBuf,
}

impl ServeLock {
    fn acquire(data_dir: &Path) -> Result<ServeLock, String> {
        std::fs::create_dir_all(data_dir)
            .map_err(|e| format!("data dir {}: {e}", data_dir.display()))?;
        let path = data_dir.join("serve.lock");
        // Two rounds: create, or read-check-reclaim a stale lock and
        // create again. A second failure means a live daemon is racing
        // us for the same directory — give up rather than loop.
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    use std::io::Write as _;
                    let _ = writeln!(file, "{}", std::process::id());
                    return Ok(ServeLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    let live = holder
                        .trim()
                        .parse::<u32>()
                        .ok()
                        .filter(|&pid| pid_alive(pid));
                    if let Some(pid) = live {
                        return Err(format!(
                            "data dir {} is locked by a running `semsim serve` \
                             (pid {pid}, lock file {}); stop that daemon or use \
                             a different --data-dir",
                            data_dir.display(),
                            path.display()
                        ));
                    }
                    // The holder is dead (or the lock unreadable):
                    // stale — reclaim it and try to create again.
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(format!("cannot create lock {}: {e}", path.display())),
            }
        }
        Err(format!(
            "cannot acquire {} (another daemon is racing for this data dir)",
            path.display()
        ))
    }
}

impl Drop for ServeLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// `true` when `pid` is a live process. Uses `/proc` where it exists
/// (Linux); elsewhere a held lock is conservatively treated as live.
fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        return proc_root.join(pid.to_string()).exists();
    }
    true
}

/// A running daemon and its thread handles.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    /// Released (deleted) when the server is dropped or joined.
    _lock: ServeLock,
}

impl Server {
    /// Binds, recovers persisted jobs, and starts the pool. Returns the
    /// server and the restart log lines (one per recovered or skipped
    /// job) for the caller to print.
    ///
    /// # Errors
    ///
    /// Bind or data-directory failures, as text.
    pub fn start(config: &ServeConfig) -> Result<(Server, Vec<String>), String> {
        let lock = ServeLock::acquire(&config.data_dir)?;
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let (store, recovered, mut notes) =
            JobStore::open(&config.data_dir).map_err(|e| format!("data dir: {e}"))?;
        let shared = Arc::new(Shared {
            store,
            queue: JobQueue::new(config.queue_depth),
            health: Mutex::new(HealthReport::empty()),
            running: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
            workers: config.workers.max(1),
            max_job_seconds: config.max_job_seconds,
            max_memory: config.max_memory,
        });
        for RecoveredJob { job, journal_note } in recovered {
            notes.push(format!(
                "job j{}: restored from journal — resuming ({journal_note})",
                job.id
            ));
            // Capacity cannot refuse recovered work: the queue was
            // sized for admission, and these were all admitted before
            // the crash. Push ignoring Full by construction: open()
            // recovers before any client can submit, and a recovered
            // backlog larger than the queue still has to run. Use a
            // direct loop to be safe.
            if shared.queue.push(&job.tenant, job.id) == Err(PushError::Full) {
                notes.push(format!(
                    "job j{}: recovered backlog exceeds queue depth; job dropped from queue (resubmit it)",
                    job.id
                ));
            }
        }
        let mut workers = Vec::with_capacity(shared.workers);
        for _ in 0..shared.workers {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok((
            Server {
                shared,
                addr,
                workers,
                accept: Some(accept),
                watchdog: Some(watchdog),
                _lock: lock,
            },
            notes,
        ))
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Closes admission; queued and running jobs finish.
    pub fn drain(&self) {
        self.shared.queue.drain();
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.queue.is_draining()
    }

    /// Waits for the drained pool to empty, then stops the accept loop
    /// and watchdog. Call [`Server::drain`] first (or this blocks until
    /// someone does).
    pub fn join(mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            // The accept thread is blocked in `accept()`: one connection
            // wakes it to see the stop flag. Should that connection fail,
            // the thread is left to end with the process rather than
            // joined forever.
            if TcpStream::connect(wake_addr(self.addr)).is_ok() {
                let _ = handle.join();
            }
        }
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

/// Where [`Server::join`] connects to wake the accept thread: the bound
/// address, or loopback of the same family when the daemon listens on
/// an unspecified address (`0.0.0.0`, `::`).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        let Some(job) = shared.store.get(id) else {
            continue;
        };
        let budget = match (job.spec.timeout_secs, shared.max_job_seconds) {
            (Some(t), cap) if cap > 0.0 => t.min(cap),
            (Some(t), _) => t,
            (None, cap) if cap > 0.0 => cap,
            // No budget at all: a deadline far enough away to never
            // fire (about 11 days).
            (None, _) => 1e6,
        };
        job.start(Instant::now() + Duration::from_secs_f64(budget));
        shared.lock_running().push(Arc::clone(&job));
        let journal = shared.store.journal_path(id);
        let outcome = catch_unwind(AssertUnwindSafe(|| runner::execute(&job, &journal)));
        shared.lock_running().retain(|running| running.id != id);
        let (phase, result) = match outcome {
            Err(_) => (
                JobPhase::Failed,
                JobResult {
                    error: Some("worker panicked outside the batch isolation boundary".to_string()),
                    ..JobResult::default()
                },
            ),
            Ok(Err(e)) => (
                JobPhase::Failed,
                JobResult {
                    error: Some(e),
                    ..JobResult::default()
                },
            ),
            Ok(Ok(exec)) => {
                shared.lock_health().absorb(&exec.health);
                let phase = if job.timed_out.load(Ordering::SeqCst) {
                    JobPhase::TimedOut
                } else if job.cancel.is_cancelled() {
                    JobPhase::Cancelled
                } else {
                    JobPhase::Done
                };
                (phase, exec.result)
            }
        };
        shared.store.finish(&job, phase, result);
    }
}

/// Cancels running jobs past their wall-clock deadline (cooperative —
/// the batch driver notices the token between events, salvaging every
/// completed point).
fn watchdog_loop(shared: &Shared) {
    while !shared.stopped.load(Ordering::SeqCst) {
        let now = Instant::now();
        for job in shared.lock_running().iter() {
            if job.cancel.is_cancelled() {
                continue;
            }
            let expired = job
                .deadline
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some_and(|deadline| now >= deadline);
            if expired {
                job.timed_out.store(true, Ordering::SeqCst);
                job.cancel.cancel();
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Blocks in `accept()` and hands each connection to its own thread;
/// returns at the first connection after the stop flag is set (the one
/// [`Server::join`] makes to wake it).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(stream, &shared));
            }
            // A failed accept (EMFILE and the like): back off before
            // retrying rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(Some(bad)) => {
            let _ = respond_json(&mut stream, bad.status, &error_body(&bad.reason), &[]);
            return;
        }
        Err(None) => return,
    };
    // Every arm answers; socket errors mean the client left, which is
    // its prerogative.
    let _ = route(&mut stream, &request, shared);
}

fn route(stream: &mut TcpStream, request: &Request, shared: &Shared) -> std::io::Result<()> {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => return submit(stream, request, shared),
        ("GET", "/healthz") => return healthz(stream, shared),
        ("POST", "/drain") => {
            shared.queue.drain();
            return respond_json(stream, 200, "{\"draining\":true}\n", &[]);
        }
        _ => {}
    }
    if let Some(rest) = path.strip_prefix("/jobs/j") {
        let (id_str, stream_suffix) = match rest.strip_suffix("/stream") {
            Some(id_str) => (id_str, true),
            None => (rest, false),
        };
        if let Ok(id) = id_str.parse::<u64>() {
            let Some(job) = shared.store.get(id) else {
                return respond_json(stream, 404, &error_body("no such job"), &[]);
            };
            return match (request.method.as_str(), stream_suffix) {
                ("GET", false) => status(stream, shared, &job),
                ("GET", true) => stream_results(stream, shared, &job),
                ("DELETE", false) => {
                    job.cancel.cancel();
                    respond_json(
                        stream,
                        200,
                        &format!("{{\"id\":\"j{}\",\"cancelling\":true}}\n", job.id),
                        &[],
                    )
                }
                _ => respond_json(stream, 405, &error_body("method not allowed"), &[]),
            };
        }
    }
    respond_json(stream, 404, &error_body("no such endpoint"), &[])
}

fn submit(stream: &mut TcpStream, request: &Request, shared: &Shared) -> std::io::Result<()> {
    if shared.queue.is_draining() {
        return respond_json(stream, 503, &error_body("daemon is draining"), &[]);
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return respond_json(stream, 400, &error_body("body is not UTF-8"), &[]);
    };
    let (spec, kind, tasks) = match runner::resolve_spec(body, shared.max_memory) {
        Ok(resolved) => resolved,
        Err(runner::AdmissionError::Invalid(e)) => {
            return respond_json(stream, 400, &error_body(&e), &[])
        }
        Err(runner::AdmissionError::TooLarge {
            required,
            limit,
            breakdown,
        }) => {
            // 413: a capacity refusal, not a client error. The body
            // carries the estimator's numbers so the client can size
            // the circuit to fit.
            let body = format!(
                "{{\"error\":\"circuit exceeds the admission memory budget\",\
                 \"estimated_bytes\":{required},\"max_memory_bytes\":{limit},\
                 \"breakdown\":\"{}\"}}\n",
                json_escape(&breakdown)
            );
            return respond_json(stream, 413, &body, &[]);
        }
    };
    let key = cache_key(&spec);
    if let Some(cached_id) = shared.store.cached(key) {
        if let Some(cached) = shared.store.get(cached_id) {
            let done = cached.render_done();
            let body = format!("{{\"cached\":true,{}", &done[1..]);
            return respond_json(stream, 200, &body, &[]);
        }
    }
    let job = match shared.store.create(body, spec, kind, tasks) {
        Ok(job) => job,
        Err(e) => {
            return respond_json(
                stream,
                503,
                &error_body(&format!("cannot persist job: {e}")),
                &[],
            )
        }
    };
    match shared.queue.push(&job.tenant, job.id) {
        Ok(()) => respond_json(
            stream,
            202,
            &format!(
                "{{\"id\":\"j{}\",\"phase\":\"queued\",\"tasks\":{}}}\n",
                job.id, job.tasks
            ),
            &[],
        ),
        Err(PushError::Full) => {
            shared.store.withdraw(job.id);
            respond_json(
                stream,
                429,
                &error_body("queue full; retry later"),
                &[("Retry-After", "1")],
            )
        }
        Err(PushError::Draining) => {
            shared.store.withdraw(job.id);
            respond_json(stream, 503, &error_body("daemon is draining"), &[])
        }
    }
}

fn status(stream: &mut TcpStream, shared: &Shared, job: &Job) -> std::io::Result<()> {
    let phase = job.phase();
    if phase.is_terminal() {
        return respond_json(stream, 200, &job.render_done(), &[]);
    }
    let points_done = runner::journal_lines(&shared.store.journal_path(job.id), job.kind).len();
    respond_json(
        stream,
        200,
        &format!(
            "{{\"id\":\"j{}\",\"phase\":\"{}\",\"tenant\":\"{}\",\"tasks\":{},\"points_done\":{points_done}}}\n",
            job.id,
            phase.word(),
            json_escape(&job.tenant),
            job.tasks,
        ),
        &[],
    )
}

/// Streams result lines as they land in the job's journal: a strict
/// task-order prefix while the job runs, then whatever remains from the
/// final report, then a `# done <phase>` trailer. Because journal
/// restores are byte-identical and the rendering is shared with the
/// final report, the streamed bytes are identical whether the job ran
/// clean or resumed across a crash. A running job's journal is re-read
/// every 25 ms; the stream ends as soon as the job's terminal state is
/// published, which is after its `.done` commit.
fn stream_results(stream: &mut TcpStream, shared: &Shared, job: &Job) -> std::io::Result<()> {
    let journal = shared.store.journal_path(job.id);
    let mut writer = ChunkedWriter::start(stream, 200)?;
    let mut next = 0usize;
    loop {
        let terminal = job.phase().is_terminal();
        let by_task: HashMap<usize, String> = runner::journal_lines(&journal, job.kind)
            .into_iter()
            .collect();
        let mut burst = String::new();
        while let Some(line) = by_task.get(&next) {
            burst.push_str(line);
            burst.push('\n');
            next += 1;
        }
        writer.chunk(burst.as_bytes())?;
        if terminal {
            break;
        }
        job.wait_terminal(Duration::from_millis(25));
    }
    let phase = job.phase();
    let mut trailer = String::new();
    if let Some(result) = job.result() {
        for line in result.lines.iter().skip(next) {
            trailer.push_str(line);
            trailer.push('\n');
        }
        if let Some(error) = &result.error {
            trailer.push_str(&format!("# error: {error}\n"));
        }
    }
    trailer.push_str(&format!("# done {}\n", phase.word()));
    writer.chunk(trailer.as_bytes())?;
    writer.finish()
}

fn healthz(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let mut phases: HashMap<&'static str, usize> = HashMap::new();
    for job in shared.store.all() {
        *phases.entry(job.phase().word()).or_insert(0) += 1;
    }
    let mut jobs = String::from("{");
    let mut keys: Vec<_> = phases.keys().copied().collect();
    keys.sort_unstable();
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            jobs.push(',');
        }
        jobs.push_str(&format!("\"{key}\":{}", phases[key]));
    }
    jobs.push('}');
    let health = shared.lock_health();
    let body = format!(
        "{{\"queue_depth\":{},\"running\":{},\"workers\":{},\"draining\":{},\"jobs\":{jobs},\
         \"health\":{{\"audits\":{},\"worst_drift\":{:.3e},\"degradations\":{},\"duplicate_stimuli_dropped\":{}}}}}\n",
        shared.queue.len(),
        shared.lock_running().len(),
        shared.workers,
        shared.queue.is_draining(),
        health.audits,
        health.worst_drift,
        health.degradations.len(),
        health.duplicate_stimuli_dropped,
    );
    drop(health);
    respond_json(stream, 200, &body, &[])
}

/// SIGTERM flag: set by the handler, polled by [`run`]. `static` +
/// atomic store is the only async-signal-safe state we need.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler (no `libc` dependency — the `signal`
/// symbol comes straight from the platform C library).
fn install_sigterm() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM_NO: i32 = 15;
        unsafe {
            signal(SIGTERM_NO, on_sigterm as *const () as usize);
        }
    }
}

/// CLI entry: runs the daemon until SIGTERM, then drains gracefully.
/// Returns the process exit code.
///
/// # Errors
///
/// Startup failures (bind, data directory), as text for the CLI.
pub fn run(config: &ServeConfig) -> Result<i32, String> {
    install_sigterm();
    let (server, notes) = Server::start(config)?;
    for note in notes {
        eprintln!("serve: {note}");
    }
    eprintln!(
        "serve: listening on {} ({} worker(s), queue depth {}, data dir {})",
        server.addr(),
        config.workers.max(1),
        config.queue_depth.max(1),
        config.data_dir.display()
    );
    while !SIGTERM.load(Ordering::SeqCst) && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("serve: draining (no new jobs; queued and running jobs finish)");
    server.drain();
    server.join();
    eprintln!("serve: drained; exiting");
    Ok(0)
}
