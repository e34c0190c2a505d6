//! End-to-end tests of the daemon over real sockets: an in-process
//! [`Server`] on an ephemeral port, driven through the crate's own
//! HTTP client. Covers the full job lifecycle, admission control under
//! saturation, cancellation salvage, wall-clock timeouts, result
//! caching, restart-resume byte identity, and graceful drain.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use semsim_check::{parse_json, Json};
use semsim_serve::http::{fetch, request};
use semsim_serve::{ServeConfig, Server};

/// A 5-point sweep that finishes in well under a second.
const QUICK_SWEEP: &str = "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\nvdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\nsymm 1\ntemp 5\nrecord 1 2 2\njumps 2000 1\nsweep 2 0.02 0.01\n";

/// A 21-point sweep heavy enough to observe mid-flight.
const SLOW_SWEEP: &str = "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\nvdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\nsymm 1\ntemp 5\nrecord 1 2 2\njumps 150000 1\nsweep 2 0.02 0.002\n";

fn job_body(source: &str, seed: u64) -> String {
    let escaped = source.replace('\n', "\\n");
    format!("{{\"source\": \"{escaped}\", \"seed\": {seed}}}")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semsim_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, workers: usize, queue_depth: usize, max_job_seconds: f64) -> (Server, String) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        data_dir: temp_dir(name),
        max_job_seconds,
        max_memory: 0,
    };
    let (server, _notes) = Server::start(&config).expect("daemon must start");
    let addr = server.addr().to_string();
    (server, addr)
}

fn get_json(addr: &str, path: &str) -> (u16, Json) {
    let resp = request(addr, "GET", path, None).expect("request must reach the daemon");
    let json = parse_json(&resp.body).unwrap_or(Json::Null);
    (resp.status, json)
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num_field(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_number).unwrap_or(-1.0)
}

/// Polls a job until its phase is terminal; panics after `limit`.
fn wait_terminal(addr: &str, id: &str, limit: Duration) -> Json {
    let deadline = Instant::now() + limit;
    loop {
        let (status, json) = get_json(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200);
        match str_field(&json, "phase") {
            "queued" | "running" => {}
            _ => return json,
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn teardown(server: &Server, addr: &str) {
    // Cancel everything still alive so join() returns promptly.
    for id in 1..64u64 {
        let _ = request(addr, "DELETE", &format!("/jobs/j{id}"), None);
    }
    server.drain();
}

#[test]
fn submit_status_stream_lifecycle() {
    let (server, addr) = start("lifecycle", 2, 8, 0.0);
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(QUICK_SWEEP, 7))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let json = parse_json(&resp.body).unwrap();
    assert_eq!(str_field(&json, "id"), "j1");
    assert_eq!(num_field(&json, "tasks"), 5.0);

    let done = wait_terminal(&addr, "j1", Duration::from_secs(60));
    assert_eq!(str_field(&done, "phase"), "done");
    let counts = done.get("counts").unwrap();
    assert_eq!(num_field(counts, "ok"), 5.0);
    assert_eq!(num_field(counts, "faulted"), 0.0);
    let lines = done.get("lines").unwrap().as_array().unwrap();
    assert_eq!(lines.len(), 5);

    // The stream replays exactly the result lines plus the trailer.
    let stream = request(&addr, "GET", "/jobs/j1/stream", None).unwrap();
    assert_eq!(stream.status, 200);
    let expected: String = lines
        .iter()
        .map(|l| format!("{}\n", l.as_str().unwrap()))
        .collect::<String>()
        + "# done done\n";
    assert_eq!(stream.body, expected);

    // Health reflects the completed job.
    let (status, health) = get_json(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(num_field(&health, "queue_depth"), 0.0);
    assert_eq!(num_field(health.get("jobs").unwrap(), "done"), 1.0);

    teardown(&server, &addr);
    server.join();
}

#[test]
fn malformed_requests_are_structured_400s() {
    let (server, addr) = start("badreq", 1, 4, 0.0);
    for (body, why) in [
        ("not json at all", "syntax"),
        ("[1,2,3]", "not an object"),
        ("{}", "missing source"),
        (
            "{\"source\": \"junc 1 1 2 1e-6 1e-18\", \"typo\": 1}",
            "unknown key",
        ),
        (
            "{\"source\": \"this is not a netlist\"}",
            "unparseable source",
        ),
        (
            "{\"source\": \"junc 1 1 2 1e-6 1e-18\", \"seed\": -4}",
            "negative seed",
        ),
        (
            "{\"source\": \"junc 1 1 2 1e-6 1e-18\", \"inputs\": {\"a\": true}}",
            "inputs on a circuit job",
        ),
    ] {
        let resp = request(&addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(resp.status, 400, "{why}: {}", resp.body);
        let json = parse_json(&resp.body).unwrap();
        assert!(
            !str_field(&json, "error").is_empty(),
            "{why} must explain itself"
        );
    }
    // Unknown routes and methods are structured too.
    let resp = request(&addr, "GET", "/jobs/j99", None).unwrap();
    assert_eq!(resp.status, 404);
    let resp = request(&addr, "PUT", "/jobs", Some("{}")).unwrap();
    assert_eq!(resp.status, 404);
    teardown(&server, &addr);
    server.join();
}

#[test]
fn saturation_answers_429_with_retry_after() {
    // One worker, queue depth 1: the first job occupies the worker,
    // the second fills the queue, the third must bounce.
    let (server, addr) = start("saturate", 1, 1, 0.0);
    let first = request(&addr, "POST", "/jobs", Some(&job_body(SLOW_SWEEP, 1))).unwrap();
    assert_eq!(first.status, 202);
    // Wait for the worker to pick the first job up so the queue is
    // truly empty before the filler goes in.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, json) = get_json(&addr, "/jobs/j1");
        if str_field(&json, "phase") == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(20));
    }
    let second = request(&addr, "POST", "/jobs", Some(&job_body(SLOW_SWEEP, 2))).unwrap();
    assert_eq!(second.status, 202);
    let third = request(&addr, "POST", "/jobs", Some(&job_body(SLOW_SWEEP, 3))).unwrap();
    assert_eq!(third.status, 429, "{}", third.body);
    assert!(third.body.contains("retry"), "{}", third.body);
    // The bounced job never entered the store.
    let resp = request(&addr, "GET", "/jobs/j3", None).unwrap();
    assert_eq!(resp.status, 404);
    teardown(&server, &addr);
    server.join();
}

#[test]
fn cancel_mid_job_salvages_partial_results() {
    let (server, addr) = start("cancel", 1, 4, 0.0);
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(SLOW_SWEEP, 5))).unwrap();
    assert_eq!(resp.status, 202);
    // Wait until at least one point is journaled, then cancel.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, json) = get_json(&addr, "/jobs/j1");
        if num_field(&json, "points_done") >= 1.0 || str_field(&json, "phase") == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "no point ever finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = request(&addr, "DELETE", "/jobs/j1", None).unwrap();
    assert_eq!(resp.status, 200);
    let done = wait_terminal(&addr, "j1", Duration::from_secs(120));
    assert_eq!(str_field(&done, "phase"), "cancelled");
    let counts = done.get("counts").unwrap();
    let salvaged = num_field(counts, "ok") + num_field(counts, "recovered");
    assert!(salvaged >= 1.0, "salvaged {salvaged}");
    assert!(num_field(counts, "cancelled") >= 1.0);
    // The stream still serves the salvaged prefix and a clean trailer.
    let stream = request(&addr, "GET", "/jobs/j1/stream", None).unwrap();
    assert!(
        stream.body.ends_with("# done cancelled\n"),
        "{}",
        stream.body
    );
    assert!(
        stream.body.contains("cancelled before it ran"),
        "{}",
        stream.body
    );
    teardown(&server, &addr);
    server.join();
}

#[test]
fn server_side_deadline_times_jobs_out() {
    let (server, addr) = start("deadline", 1, 4, 0.4);
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(SLOW_SWEEP, 9))).unwrap();
    assert_eq!(resp.status, 202);
    let done = wait_terminal(&addr, "j1", Duration::from_secs(60));
    assert_eq!(str_field(&done, "phase"), "timed-out", "{done:?}");
    // Whatever completed before the deadline is salvaged, the rest is
    // accounted as cancelled — nothing vanishes.
    let counts = done.get("counts").unwrap();
    let total = num_field(counts, "ok")
        + num_field(counts, "recovered")
        + num_field(counts, "restored")
        + num_field(counts, "faulted")
        + num_field(counts, "cancelled");
    assert_eq!(total, 21.0);
    teardown(&server, &addr);
    server.join();
}

#[test]
fn identical_submissions_hit_the_result_cache() {
    let (server, addr) = start("cache", 1, 4, 0.0);
    let body = job_body(QUICK_SWEEP, 42);
    let first = request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(first.status, 202);
    wait_terminal(&addr, "j1", Duration::from_secs(60));
    let second = request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    let json = parse_json(&second.body).unwrap();
    assert!(matches!(json.get("cached"), Some(Json::Bool(true))));
    assert_eq!(str_field(&json, "id"), "j1", "served by the original job");
    // A different tenant still hits the cache; a different seed does not.
    let other_tenant = body.trim_end_matches('}').to_string() + ", \"tenant\": \"bob\"}";
    let resp = request(&addr, "POST", "/jobs", Some(&other_tenant)).unwrap();
    assert_eq!(resp.status, 200);
    let other_seed = job_body(QUICK_SWEEP, 43);
    let resp = request(&addr, "POST", "/jobs", Some(&other_seed)).unwrap();
    assert_eq!(resp.status, 202);
    wait_terminal(&addr, "j2", Duration::from_secs(60));
    teardown(&server, &addr);
    server.join();
}

#[test]
fn a_finished_stream_means_the_result_is_cached() {
    // The stream ends when the job's end is published, which is after
    // its commit: a resubmission the moment `# done` arrives must hit
    // the cache, not start a duplicate job.
    let (server, addr) = start("stream_then_cache", 1, 4, 0.0);
    let body = job_body(QUICK_SWEEP, 11);
    let first = request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(first.status, 202, "{}", first.body);
    let stream = request(&addr, "GET", "/jobs/j1/stream", None).unwrap();
    assert!(stream.body.ends_with("# done done\n"), "{}", stream.body);
    let again = request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(again.status, 200, "{}", again.body);
    let json = parse_json(&again.body).unwrap();
    assert!(matches!(json.get("cached"), Some(Json::Bool(true))));
    assert_eq!(str_field(&json, "id"), "j1", "served by the original job");
    teardown(&server, &addr);
    server.join();
}

#[test]
fn a_daemon_bound_to_every_interface_answers_on_loopback_and_joins() {
    // `join` wakes the blocked accept thread with a connection of its
    // own; on an unspecified bind address it must reach loopback.
    let config = ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        workers: 1,
        queue_depth: 4,
        data_dir: temp_dir("bind_any"),
        max_job_seconds: 0.0,
        max_memory: 0,
    };
    let (server, _notes) = Server::start(&config).expect("daemon must start");
    assert!(server.addr().ip().is_unspecified());
    let loopback = format!("127.0.0.1:{}", server.addr().port());
    let (status, health) = get_json(&loopback, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(num_field(&health, "running"), 0.0);
    server.drain();
    server.join();
}

#[test]
fn restart_resumes_interrupted_jobs_byte_identically() {
    // Clean reference: the same job run without interruption.
    let (clean_server, clean_addr) = start("restart_clean", 1, 4, 0.0);
    let body = job_body(SLOW_SWEEP, 77);
    let resp = request(&clean_addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(resp.status, 202);
    wait_terminal(&clean_addr, "j1", Duration::from_secs(300));
    let clean = request(&clean_addr, "GET", "/jobs/j1/stream", None).unwrap();
    teardown(&clean_server, &clean_addr);
    clean_server.join();

    // Interrupted run: same job on a fresh data dir, cancelled once at
    // least two points are journaled; then simulate the crash by
    // discarding the terminal record (exactly what a kill -9 before the
    // `.done` write leaves behind) and restart on the same directory.
    let data_dir = temp_dir("restart_crash");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        data_dir: data_dir.clone(),
        max_job_seconds: 0.0,
        max_memory: 0,
    };
    let (server_a, _) = Server::start(&config).unwrap();
    let addr_a = server_a.addr().to_string();
    let resp = request(&addr_a, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(resp.status, 202);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, json) = get_json(&addr_a, "/jobs/j1");
        if num_field(&json, "points_done") >= 2.0 {
            break;
        }
        assert!(Instant::now() < deadline, "no progress before interrupt");
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = request(&addr_a, "DELETE", "/jobs/j1", None);
    wait_terminal(&addr_a, "j1", Duration::from_secs(120));
    server_a.drain();
    server_a.join();
    std::fs::remove_file(data_dir.join("j1.done")).unwrap();

    let (server_b, notes) = Server::start(&config).unwrap();
    let addr_b = server_b.addr().to_string();
    assert!(
        notes.iter().any(|n| n.contains("restored from journal")),
        "{notes:?}"
    );
    let done = wait_terminal(&addr_b, "j1", Duration::from_secs(300));
    assert_eq!(str_field(&done, "phase"), "done");
    let counts = done.get("counts").unwrap();
    assert!(
        num_field(counts, "restored") >= 2.0,
        "journal points must restore, not recompute: {done:?}"
    );
    let resumed = request(&addr_b, "GET", "/jobs/j1/stream", None).unwrap();
    assert_eq!(
        resumed.body, clean.body,
        "resumed stream must be byte-identical to the clean run"
    );
    teardown(&server_b, &addr_b);
    server_b.join();
}

#[test]
fn streaming_delivers_points_before_the_job_finishes() {
    let (server, addr) = start("stream_live", 1, 4, 0.0);
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(SLOW_SWEEP, 21))).unwrap();
    assert_eq!(resp.status, 202);
    // Attach the stream immediately and record when each chunk lands
    // relative to the job's terminal time: at least one chunk must
    // arrive while the job is still running.
    let addr2 = addr.clone();
    let watcher = std::thread::spawn(move || {
        let mut saw_live_chunk = false;
        let mut body = Vec::new();
        let status = fetch(&addr2, "GET", "/jobs/j1/stream", None, &mut |chunk| {
            if !saw_live_chunk {
                let (_, json) = get_json(&addr2, "/jobs/j1");
                if matches!(str_field(&json, "phase"), "queued" | "running") {
                    saw_live_chunk = true;
                }
            }
            body.extend_from_slice(chunk);
        })
        .unwrap();
        (status, saw_live_chunk, String::from_utf8(body).unwrap())
    });
    let done = wait_terminal(&addr, "j1", Duration::from_secs(300));
    let (status, saw_live_chunk, body) = watcher.join().unwrap();
    assert_eq!(status, 200);
    assert!(saw_live_chunk, "no chunk arrived while the job ran");
    let lines = done.get("lines").unwrap().as_array().unwrap();
    let expected: String = lines
        .iter()
        .map(|l| format!("{}\n", l.as_str().unwrap()))
        .collect::<String>()
        + "# done done\n";
    assert_eq!(body, expected);
    teardown(&server, &addr);
    server.join();
}

#[test]
fn oversized_job_is_refused_with_a_structured_413() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        data_dir: temp_dir("admission_413"),
        max_job_seconds: 0.0,
        max_memory: 16 * 1024,
    };
    let (server, _notes) = Server::start(&config).expect("daemon must start");
    let addr = server.addr().to_string();
    // A 60-island chain: its truncated C⁻¹ alone is priced at 36 kept
    // entries per column, 60·36·12 B plus the column starts and the
    // diagonal = 26.3 KiB,
    // past the 16 KiB budget. The estimate is count-based, so the refusal happens
    // before any matrix is materialised.
    let mut big = String::from("vdc 1 0.01\ntemp 5\njumps 200 1\n");
    for i in 1..=60 {
        big.push_str(&format!("junc {i} {i} {} 1e-6 1e-18\n", i + 1));
    }
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(&big, 1))).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);
    let json = parse_json(&resp.body).unwrap();
    assert!(
        num_field(&json, "estimated_bytes") > 16.0 * 1024.0,
        "{}",
        resp.body
    );
    assert_eq!(num_field(&json, "max_memory_bytes"), 16.0 * 1024.0);
    assert!(
        str_field(&json, "breakdown").contains("C⁻¹ 26.3 KiB, its factor while building"),
        "{}",
        resp.body
    );
    // A small job fits the same budget and is admitted normally.
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(QUICK_SWEEP, 1))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    teardown(&server, &addr);
    server.join();
}

#[test]
fn second_daemon_on_the_same_data_dir_is_refused() {
    let data_dir = temp_dir("lock_held");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        data_dir: data_dir.clone(),
        max_job_seconds: 0.0,
        max_memory: 0,
    };
    let (server, _notes) = Server::start(&config).expect("first daemon must start");
    let addr = server.addr().to_string();
    let err = match Server::start(&config) {
        Err(e) => e,
        Ok(_) => panic!("second daemon must be refused"),
    };
    assert!(err.contains("locked by a running"), "{err}");
    assert!(
        err.contains(&std::process::id().to_string()),
        "refusal must name the holder: {err}"
    );
    teardown(&server, &addr);
    server.join();
    // join released the lock: the same config starts cleanly now.
    assert!(!data_dir.join("serve.lock").exists());
    let (server2, _notes) = Server::start(&config).expect("restart after join must work");
    let addr2 = server2.addr().to_string();
    teardown(&server2, &addr2);
    server2.join();
}

#[test]
fn stale_lock_from_a_dead_pid_is_reclaimed() {
    let data_dir = temp_dir("lock_stale");
    std::fs::create_dir_all(&data_dir).unwrap();
    // Beyond any kernel's pid_max, so /proc/<pid> cannot exist — the
    // shape a `kill -9`ed daemon leaves behind.
    std::fs::write(data_dir.join("serve.lock"), "999999999\n").unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        data_dir: data_dir.clone(),
        max_job_seconds: 0.0,
        max_memory: 0,
    };
    let (server, _notes) = Server::start(&config).expect("stale lock must be reclaimed");
    let addr = server.addr().to_string();
    let holder = std::fs::read_to_string(data_dir.join("serve.lock")).unwrap();
    assert_eq!(holder.trim(), std::process::id().to_string());
    teardown(&server, &addr);
    server.join();

    // An unreadable (garbage) lock is also treated as stale.
    std::fs::write(data_dir.join("serve.lock"), "not-a-pid\n").unwrap();
    let (server, _notes) = Server::start(&config).expect("garbage lock must be reclaimed");
    let addr = server.addr().to_string();
    teardown(&server, &addr);
    server.join();
}

#[test]
fn drain_refuses_new_jobs_and_finishes_queued_ones() {
    let (server, addr) = start("drain", 1, 4, 0.0);
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(QUICK_SWEEP, 3))).unwrap();
    assert_eq!(resp.status, 202);
    let resp = request(&addr, "POST", "/drain", None).unwrap();
    assert_eq!(resp.status, 200);
    let resp = request(&addr, "POST", "/jobs", Some(&job_body(QUICK_SWEEP, 4))).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    // The already-admitted job still completes before join returns.
    server.join();
}
