//! Seed and counter self-test: every workload's traced path, at reduced
//! size, gives identical counts for one seed, and `c432_delay`'s event
//! count moves with the seed.
//!
//! The serve workload needs the `semsim` binary; the test builds it
//! into the benchmark's target directory first.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_semsim-perfbench");

/// The target directory the benchmark binary was built into.
fn target_dir() -> PathBuf {
    let bin = Path::new(BENCH);
    bin.parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .to_path_buf()
}

/// Builds the repository's `semsim` binary and returns its path.
fn semsim() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "semsim",
            "--manifest-path",
        ])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building semsim failed");
    target_dir().join("release/semsim")
}

/// Parses the metrics of the benchmark's last output line into
/// `name → (value, unit)`.
fn metrics(last_line: &str) -> BTreeMap<String, (f64, String)> {
    let body = last_line
        .split_once("\"metrics\": {")
        .expect("result has metrics")
        .1;
    let mut out = BTreeMap::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
        let (value, rest) = rest.split_once(", \"unit\": \"").expect("metric unit");
        let unit = rest.split('"').next().expect("unit text");
        out.insert(
            name.trim_start_matches('"').to_string(),
            (value.parse().expect("numeric value"), unit.to_string()),
        );
    }
    out
}

/// Runs one traced, reduced-size workload and returns its counts: every
/// per-layer metric that is not a time.
fn counts(workload: &str, seed: u64, semsim: &Path) -> BTreeMap<String, f64> {
    let out_dir = target_dir().join("perfbench-selftest");
    let output = Command::new(BENCH)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1", "--quick", "--out-dir"])
        .arg(&out_dir)
        .arg("--semsim")
        .arg(semsim)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("benchmark printed a result");
    assert!(last.contains("\"correct\": true"), "{last}");
    metrics(last)
        .into_iter()
        .filter(|(_, (_, unit))| unit != "s")
        .map(|(name, (value, _))| (name, value))
        .collect()
}

#[test]
fn counts_repeat_for_one_seed_and_move_with_another() {
    let semsim = semsim();
    let mut c432_events = 0.0;
    for workload in ["c432_delay", "sset_sweep", "serve_set_jobs"] {
        let first = counts(workload, 7, &semsim);
        let second = counts(workload, 7, &semsim);
        assert!(!first.is_empty());
        assert_eq!(
            first, second,
            "{workload}: counts differ between two runs of seed 7"
        );
        if workload == "c432_delay" {
            c432_events = first["engine.events"];
        }
    }
    assert!(c432_events > 0.0, "c432_delay ran no events");
    let other = counts("c432_delay", 8, &semsim)["engine.events"];
    assert_ne!(
        c432_events, other,
        "c432_delay engine.events did not change with the seed"
    );
}
