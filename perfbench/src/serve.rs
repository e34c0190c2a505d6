//! `serve_set_jobs`: the service use. A `semsim serve` daemon runs with
//! one worker per core on a fresh data directory, and as many clients
//! work in a closed loop: each POSTs the paper's Example Input File 1
//! with its own `seed` line, streams the job to `# done`, and only then
//! submits again. One submission in four repeats an earlier one of the
//! same client verbatim, which the result cache answers. The run ends
//! with `POST /drain`.
//!
//! The per-layer figures all come from the daemon: its HTTP answers,
//! timed from the client, and the `jN.jl`/`jN.done` files it writes.
//! The local runs that check its streams are not traced.

use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use semsim_core::health::RunOutcome;
use semsim_core::par::ParOpts;
use semsim_core::rng::{split_seed, Rng};
use semsim_netlist::CircuitFile;
use semsim_serve::http::{request, ClientResponse};

use crate::report::{Metric, Report};
use crate::stats::{median, tail};
use crate::trace::{Trace, Tracer};
use crate::{peak_rss_mib, Opts};

/// `examples/netlists/set_sweep.cir` with `jumps` cut to 2000 events
/// per point, so simulation is a minority of a job's latency.
const SET_SWEEP: &str = "\
# The paper's Example Input File 1: a single SET with symmetric
# source/drain bias, swept through the Coulomb blockade at 5 K.
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
num j 2
num ext 3
num nodes 4
temp 5
cotunnel
record 1 2 2
jumps 2000 1
sweep 2 0.02 0.002
";

/// Daemon starts behind `setup_s`.
const STARTS: usize = 9;
/// Submissions per client in a traced run. An untraced run makes at
/// least this many per client on average, and more until `--seconds`.
/// Either run reads the daemon's peak RSS when this many per client have
/// completed, so the figure is the memory of a fixed amount of work: the
/// daemon keeps every finished job, and its memory would otherwise grow
/// with its speed.
const JOBS_PER_CLIENT: usize = 150;
/// Every this many fresh jobs, one is checked against a local run.
const CHECK_EVERY: usize = 8;

/// The netlist text of a fresh job.
fn source(seed: u64) -> String {
    format!("{SET_SWEEP}seed {seed}\n")
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The job body a client submits.
fn body(text: &str, client: usize) -> String {
    format!(
        "{{\"source\":{},\"tenant\":\"c{client}\"}}",
        json_string(text)
    )
}

/// The value of `"key":"value"` or `"key":value` in a flat JSON body.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
    /// Reads the daemon's stderr until it exits.
    drain: Option<JoinHandle<()>>,
}

/// One request to the daemon at `addr`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    request(&addr.to_string(), method, path, Some(body))
}

impl Daemon {
    /// Starts `semsim serve` on a fresh data directory and waits for its
    /// first answered request; returns the daemon and that wait.
    fn start(opts: &Opts, dir: PathBuf, workers: usize) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let mut child = Command::new(&opts.semsim)
            .args([
                "serve",
                "--port",
                "0",
                "--workers",
                &workers.to_string(),
                "--data-dir",
            ])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", opts.semsim.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    let listening = line
                        .split("listening on ")
                        .nth(1)
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|a| a.parse::<SocketAddr>().ok());
                    if let Some(addr) = listening {
                        break addr;
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".to_string());
                }
            }
        };
        // Keep the pipe drained so the daemon never blocks on stderr.
        let drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let mut daemon = Daemon {
            child,
            addr,
            dir,
            drain,
        };
        loop {
            match call(addr, "GET", "/healthz", "") {
                Ok(r) if r.status == 200 => break,
                Ok(r) => {
                    daemon.stop();
                    return Err(format!("healthz answered {}", r.status));
                }
                Err(_) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    daemon.stop();
                    return Err(format!("healthz: {e}"));
                }
            }
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Drains the daemon and waits for it to exit (killing it after 60 s).
    fn stop(&mut self) -> Option<String> {
        let drained = call(self.addr, "POST", "/drain", "");
        let deadline = Instant::now() + Duration::from_secs(60);
        let failure = loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break None,
                Ok(Some(status)) => break Some(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline && drained.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break Some("daemon did not drain; killed".to_string());
                }
            }
        };
        self.join_drain();
        failure
    }

    /// Joins the stderr reader, which ends once the daemon has exited.
    fn join_drain(&mut self) {
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    /// A daemon left running by an early return or a panic is killed.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_drain();
    }
}

/// One submission and what came back.
#[derive(Debug, Default)]
struct Submission {
    text: String,
    /// Index of the earlier submission of the same client this repeats.
    repeat_of: Option<usize>,
    /// Status of the POST (0 when it got no answer).
    status: u16,
    cached: bool,
    id: String,
    latency: f64,
    stream: String,
    /// The `lines` array of a cache hit's POST body.
    cached_lines: String,
    error: Option<String>,
}

/// Submits one job and streams it to `# done`.
fn submit(addr: SocketAddr, sub: &mut Submission, client: usize, tracer: &Tracer, job: u64) {
    let t0 = Instant::now();
    let posted = tracer.span("server.admit", job, || {
        call(addr, "POST", "/jobs", &body(&sub.text, client))
    });
    let posted = match posted {
        Ok(r) => r,
        Err(e) => {
            sub.error = Some(format!("POST /jobs: {e}"));
            return;
        }
    };
    sub.status = posted.status;
    let answer = posted.body;
    if !matches!(posted.status, 200 | 202) {
        sub.error = Some(format!(
            "POST /jobs answered {}: {}",
            posted.status,
            answer.trim()
        ));
        return;
    }
    sub.cached = posted.status == 200 && field(&answer, "cached") == Some("true");
    sub.id = field(&answer, "id").unwrap_or_default().to_string();
    if sub.cached {
        sub.cached_lines = answer
            .find("\"lines\":")
            .map(|i| answer[i..].trim_end().to_string())
            .unwrap_or_default();
    }
    let path = format!("/jobs/{}/stream", sub.id);
    match tracer.span("server.stream", job, || call(addr, "GET", &path, "")) {
        Ok(r) if r.status == 200 => sub.stream = r.body,
        Ok(r) => sub.error = Some(format!("GET {path} answered {}", r.status)),
        Err(e) => sub.error = Some(format!("GET {path}: {e}")),
    }
    sub.latency = t0.elapsed().as_secs_f64();
}

/// Completed submissions across all clients, and what happens when
/// their number reaches `rss_after`: the daemon's peak RSS is read.
struct Progress {
    completed: AtomicUsize,
    rss_after: usize,
    pid: u32,
    rss: OnceLock<f64>,
}

impl Progress {
    fn complete_one(&self) {
        if self.completed.fetch_add(1, Ordering::SeqCst) + 1 == self.rss_after {
            let _ = self
                .rss
                .set(peak_rss_mib(&self.pid.to_string()).unwrap_or(f64::NAN));
        }
    }
}

/// One client's closed loop: `jobs` submissions, or until `deadline`
/// once the daemon's peak RSS has been read.
fn client(
    addr: SocketAddr,
    seed: u64,
    client: usize,
    deadline: Instant,
    jobs: Option<usize>,
    progress: &Progress,
    tracer: &Tracer,
) -> Vec<Submission> {
    let mut rng = Rng::seed_from_u64(split_seed(seed, 1 << 32 | client as u64));
    let mut subs: Vec<Submission> = Vec::new();
    for i in 0.. {
        let done = match jobs {
            Some(n) => i >= n,
            None => Instant::now() >= deadline && progress.rss.get().is_some(),
        };
        if done {
            break;
        }
        // Every fourth submission repeats a fresh one at least two back,
        // which finished before the one in between was submitted.
        let repeat_of = (i % 4 == 3).then(|| {
            let fresh: Vec<usize> = (0..i - 1)
                .filter(|&k| subs[k].repeat_of.is_none())
                .collect();
            fresh[(rng.f64() * fresh.len() as f64) as usize % fresh.len()]
        });
        let text = match repeat_of {
            Some(k) => subs[k].text.clone(),
            None => source(split_seed(split_seed(seed, client as u64), i as u64)),
        };
        let mut sub = Submission {
            text,
            repeat_of,
            ..Submission::default()
        };
        submit(
            addr,
            &mut sub,
            client,
            tracer,
            (client * 1_000_000 + i) as u64,
        );
        progress.complete_one();
        subs.push(sub);
    }
    subs
}

fn outcome_tag(outcome: RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Completed => "completed",
        RunOutcome::Blockaded { .. } => "blockaded",
        RunOutcome::WallClockExceeded { .. } => "wall-clock",
        RunOutcome::EventCapReached { .. } => "event-cap",
    }
}

/// The stream a job of `text` must produce: a local `execute_par` of
/// the same text, rendered as `semsim sweep` renders points.
fn local_stream(text: &str) -> Result<String, String> {
    let file = CircuitFile::parse(text).map_err(|e| e.to_string())?;
    let points = file
        .execute_par(ParOpts::serial())
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for p in points {
        out.push_str(&format!(
            "{:.6e} {:.6e} {}\n",
            p.control,
            p.current,
            outcome_tag(p.outcome)
        ));
    }
    out.push_str("# done done\n");
    Ok(out)
}

/// The `"lines":[…]}` tail a cache hit's body must end with, given the
/// original job's stream.
fn lines_json(stream: &str) -> String {
    let lines: Vec<String> = stream
        .lines()
        .filter(|l| !l.starts_with("# done"))
        .map(json_string)
        .collect();
    format!("\"lines\":[{}]}}", lines.join(","))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn run(opts: &Opts, epoch: Instant, trace: &mut Trace) -> Report {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::default();
    let base = opts.out_dir.join(format!("serve-{}", std::process::id()));

    // Set-up: daemon start → first answered request, several times; the
    // last daemon serves the workload.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for k in 0..STARTS {
        match Daemon::start(opts, base.join(format!("d{k}")), cores) {
            Ok((mut d, secs)) => {
                setup_s.push(secs);
                if k + 1 < STARTS {
                    if let Some(e) = d.stop() {
                        report.tally.record(Err(e));
                    }
                    let _ = std::fs::remove_dir_all(&d.dir);
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                report.tally.record(Err(e));
                break;
            }
        }
    }
    let Some(mut daemon) = daemon else {
        return report;
    };

    let addr = daemon.addr;
    let per_client_jobs = if opts.quick { 12 } else { JOBS_PER_CLIENT };
    let jobs = opts.trace.then_some(per_client_jobs);
    let progress = Progress {
        completed: AtomicUsize::new(0),
        rss_after: cores * per_client_jobs,
        pid: daemon.child.id(),
        rss: OnceLock::new(),
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let per_client: Vec<(Vec<Submission>, Vec<crate::trace::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores)
            .map(|c| {
                let progress = &progress;
                s.spawn(move || {
                    let tracer = Tracer::new(opts.trace, epoch);
                    let subs = client(addr, opts.seed, c, deadline, jobs, progress, &tracer);
                    (subs, tracer.take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let rss = progress.rss.get().copied().unwrap_or(f64::NAN);
    // The closing drain is one more operation.
    report.tally.record(daemon.stop().map_or(Ok(()), Err));

    // Checks, after the measured window.
    let submissions: usize = per_client.iter().map(|(subs, _)| subs.len()).sum();
    let mut miss_s = Vec::new();
    let mut fresh_ids = Vec::new();
    let mut hits = 0usize;
    let mut refused = 0usize;
    let mut checked = 0usize;
    for (subs, spans) in &per_client {
        trace.absorb(spans.clone());
        let mut fresh_seen = 0usize;
        for sub in subs {
            let verdict = (|| -> Result<(), String> {
                if sub.status != 0 && !(200..300).contains(&sub.status) {
                    refused += 1;
                }
                if let Some(e) = &sub.error {
                    return Err(e.clone());
                }
                if !sub.stream.ends_with("# done done\n") {
                    return Err(format!(
                        "job {} did not end `# done done`: {:?}",
                        sub.id,
                        sub.stream.lines().last()
                    ));
                }
                match sub.repeat_of {
                    Some(k) => {
                        let original = &subs[k];
                        if !sub.cached {
                            return Err(format!("repeat of {} was not a cache hit", original.id));
                        }
                        hits += 1;
                        if sub.id != original.id || sub.stream != original.stream {
                            return Err(format!(
                                "cached {} differs from its original {}",
                                sub.id, original.id
                            ));
                        }
                        if sub.cached_lines != lines_json(&original.stream) {
                            return Err(format!(
                                "cached body of {} differs from its original",
                                sub.id
                            ));
                        }
                    }
                    None => {
                        miss_s.push(sub.latency);
                        fresh_ids.push(sub.id.clone());
                        fresh_seen += 1;
                        if fresh_seen % CHECK_EVERY == 1 {
                            checked += 1;
                            if local_stream(&sub.text)? != sub.stream {
                                return Err(format!(
                                    "stream of {} differs from a local execute_par",
                                    sub.id
                                ));
                            }
                        }
                    }
                }
                Ok(())
            })();
            report.tally.record(verdict);
        }
    }
    println!(
        "# serve: {submissions} submissions on {cores} client(s), {hits} cache hit(s), {checked} stream(s) checked locally"
    );

    report.end_to_end = vec![
        Metric::new(
            "time_to_result_s",
            "s",
            median(&miss_s),
            format!(
                "median of {} cache-miss jobs, POST -> `# done`",
                miss_s.len()
            ),
        ),
        Metric::new(
            "setup_s",
            "s",
            median(&setup_s),
            format!(
                "median of {}; daemon start -> first answered request",
                setup_s.len()
            ),
        ),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            rss,
            format!(
                "VmHWM of the daemon after {} completed submissions",
                progress.rss_after
            ),
        ),
    ];
    let completed = per_client
        .iter()
        .flat_map(|(subs, _)| subs)
        .filter(|sub| sub.error.is_none())
        .count();
    report.extra.push(Metric::new(
        "jobs_per_s",
        "1/s",
        completed as f64 / window,
        format!("{completed} completed submissions (cache hits included) in {window:.3} s"),
    ));
    if let Some((p, v)) = tail(&miss_s) {
        report.extra.push(Metric::new(
            "job_latency_tail_s",
            "s",
            v,
            format!("p{p} of {} cache-miss jobs", miss_s.len()),
        ));
    }

    if opts.trace {
        let journals: Vec<f64> = fresh_ids
            .iter()
            .map(|id| file_len(&daemon.dir.join(format!("{id}.jl"))) as f64)
            .collect();
        let (mut points, mut retries, mut faulted) = (0u64, 0u64, 0u64);
        for id in &fresh_ids {
            let done =
                std::fs::read_to_string(daemon.dir.join(format!("{id}.done"))).unwrap_or_default();
            let num = |key: &str| {
                field(&done, key)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            };
            points += num("tasks");
            retries += num("retries");
            faulted += num("faulted");
        }
        report.layers = vec![
            Metric::new(
                "batch.points",
                "count",
                points as f64,
                "tasks over fresh jobs",
            ),
            Metric::new(
                "batch.retries",
                "count",
                retries as f64,
                "retries over fresh jobs",
            ),
            Metric::new(
                "batch.faulted",
                "count",
                faulted as f64,
                "faulted points over fresh jobs",
            ),
            Metric::new(
                "journal.bytes",
                "bytes",
                median(&journals),
                format!("median of {} job journals", journals.len()),
            ),
            trace.median_metric("server.admit_s", "server.admit"),
            trace.median_metric("server.stream_s", "server.stream"),
            Metric::new(
                "jobs.cache_hit_ratio",
                "ratio",
                hits as f64 / submissions.max(1) as f64,
                "cache hits / submissions",
            ),
            Metric::new("server.refused", "count", refused as f64, "non-2xx answers"),
        ];
    }
    let _ = std::fs::remove_dir_all(&base);
    report
}
