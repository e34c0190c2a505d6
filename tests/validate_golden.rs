//! Golden byte-stability tests for `semsim validate` outputs, mirroring
//! `tests/lint_golden.rs`: the quick-profile table and machine report at
//! the default seed are committed under `tests/fixtures/validate/` and
//! must reproduce **bytewise**. The fixtures were generated by the
//! release binary; debug and release numerics are identical (same IEEE
//! operations, same libm), so this also pins debug == release.
//!
//! The machine report is additionally pushed through the real
//! `semsim json-verify` subcommand — the schema contract is enforced by
//! the shipped binary, not just by in-process calls.

use semsim::validate::{check_report, render_table, report_json, run_grid, Profile, RunOptions};

fn fixture_path(name: &str) -> String {
    format!(
        "{}/tests/fixtures/validate/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn quick_run() -> semsim::validate::ValidationRun {
    run_grid(Profile::Quick, 42, &RunOptions::default()).expect("quick grid runs")
}

#[test]
fn quick_table_is_byte_stable() {
    let table = render_table(&quick_run());
    let golden = fixture("quick_table.txt");
    assert!(
        table == golden,
        "quick-profile table drifted from the committed fixture.\n\
         If the change is intentional, regenerate with:\n\
         ./target/release/semsim validate --quick > tests/fixtures/validate/quick_table.txt\n\
         --- got ---\n{table}\n--- fixture ---\n{golden}"
    );
}

#[test]
fn quick_report_is_byte_stable_and_verifies() {
    let json = report_json(&quick_run(), "fixture");
    let golden = fixture("quick_report.json");
    assert!(
        json == golden,
        "quick-profile machine report drifted from the committed fixture.\n\
         If the change is intentional, regenerate with:\n\
         ./target/release/semsim validate --quick --commit fixture \
         --json tests/fixtures/validate/quick_report.json\n\
         --- got ---\n{json}\n--- fixture ---\n{golden}"
    );
    check_report(&golden).expect("committed fixture must verify");
}

#[test]
fn fixture_verifies_through_the_shipped_binary() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_semsim"))
        .args(["json-verify", &fixture_path("quick_report.json")])
        .output()
        .expect("spawn semsim json-verify");
    assert!(
        out.status.success(),
        "json-verify rejected the committed fixture:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("semsim-validate report"),
        "json-verify must dispatch on the schema marker: {stdout}"
    );
}

#[test]
fn tampered_fixture_fails_verification() {
    // Flip one verdict in the committed report without touching the
    // numbers: the verifier recomputes tolerances, so it must notice.
    let golden = fixture("quick_report.json");
    let tampered = golden.replacen("\"pass\": true", "\"pass\": false", 1);
    assert_ne!(tampered, golden, "fixture must contain a passing point");
    assert!(
        check_report(&tampered).is_err(),
        "a flipped verdict must fail verification"
    );
}

#[test]
fn json_verify_names_an_unknown_schema() {
    // A retired schema must be refused by name, not misreported as a
    // lint report with a missing `schema_version`.
    use std::io::Write as _;
    let doc = "{\"schema\": \"semsim-validate-trend\", \"version\": 2, \"records\": \
               [{\"commit\": \"abc\", \"benchmark\": \"74LS153\", \
               \"events_per_sec\": 2.5e5, \"speedup_dense\": 1.4647}]}";
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_semsim"))
        .arg("json-verify")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn semsim json-verify");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(doc.as_bytes())
        .expect("write document");
    let out = child.wait_with_output().expect("wait for json-verify");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown schema `semsim-validate-trend`"),
        "json-verify must name the schema: {stderr}"
    );
}
