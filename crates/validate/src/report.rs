//! Rendering and verification of validation results.
//!
//! Both outputs are **byte-stable**: they contain only quantities that
//! are deterministic functions of the grid and its pinned seeds (no
//! wall-clock, no thread counts, no journal-restoration counts), so the
//! golden tests can diff them bytewise and a `--resume`d run reproduces
//! them exactly.
//!
//! The machine report is schema-versioned (top-level
//! `"schema": "semsim-validate"`, `"version": 1`) and re-verified by
//! `semsim json-verify`, which recomputes every point's tolerance and
//! verdict from its recorded inputs — the JSON cannot drift from the
//! arithmetic in [`crate::tolerance`](mod@crate::tolerance) without
//! failing verification.

use std::fmt::Write as _;

use semsim_check::{parse_json, Json};

use crate::run::{PointResult, ValidationRun};
use crate::tolerance;

/// Schema marker of the machine report.
pub const SCHEMA: &str = "semsim-validate";

/// Current schema version.
pub const SCHEMA_VERSION: f64 = 1.0;

/// Relative slack when re-deriving recorded quantities from recorded
/// inputs (the JSON stores shortest-round-trip floats, so re-derivation
/// is exact; this only guards against pathological formatting).
const REDERIVE_RTOL: f64 = 1e-12;

/// Renders the human-readable pass/fail table.
///
/// The last line is `validate-pass: <passed>/<total>` — the stable
/// hook `scripts/ci.sh` greps for.
#[must_use]
pub fn render_table(run: &ValidationRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "semsim validate — profile {}, base seed {}",
        run.profile.name(),
        run.base_seed
    );
    let _ = writeln!(
        out,
        "{:<22} {:<15} {:<10} {:>13} {:>13} {:>13} {:>13}  verdict",
        "point", "reference", "observable", "measured", "reference", "|diff|", "tolerance"
    );
    for p in &run.points {
        let _ = writeln!(
            out,
            "{:<22} {:<15} {:<10} {:>13.6e} {:>13.6e} {:>13.6e} {:>13.6e}  {}",
            p.name,
            p.kind,
            p.observable,
            p.measured,
            p.reference,
            p.abs_diff(),
            p.tolerance(),
            if p.pass() { "pass" } else { "FAIL" },
        );
    }
    let _ = writeln!(out, "validate-pass: {}/{}", run.passed(), run.points.len());
    out
}

fn point_json(p: &PointResult) -> String {
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"observable\": \"{}\",\n",
            "     \"measured\": {:e}, \"sem_measured\": {:e},\n",
            "     \"reference\": {:e}, \"sem_reference\": {:e},\n",
            "     \"z\": {:e}, \"floor\": {:e},\n",
            "     \"abs_diff\": {:e}, \"tolerance\": {:e}, \"pass\": {}}}"
        ),
        p.name,
        p.kind,
        p.observable,
        p.measured,
        p.sem_measured,
        p.reference,
        p.sem_reference,
        p.z,
        p.floor,
        p.abs_diff(),
        p.tolerance(),
        p.pass(),
    )
}

/// Renders the schema-versioned machine report.
///
/// Floats are written with `{:e}` (shortest round-trip), so the
/// verifier re-derives tolerances exactly. `commit` is recorded
/// verbatim (use `unknown` outside a git checkout).
#[must_use]
pub fn report_json(run: &ValidationRun, commit: &str) -> String {
    let points: Vec<String> = run.points.iter().map(point_json).collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"version\": {},\n",
            "  \"commit\": \"{}\",\n",
            "  \"profile\": \"{}\",\n",
            "  \"base_seed\": {},\n",
            "  \"points\": [\n{}\n  ],\n",
            "  \"passed\": {},\n",
            "  \"failed\": {},\n",
            "  \"all_pass\": {}\n",
            "}}\n"
        ),
        SCHEMA,
        SCHEMA_VERSION,
        commit,
        run.profile.name(),
        run.base_seed,
        points.join(",\n"),
        run.passed(),
        run.failed(),
        run.all_pass(),
    )
}

fn require<'a>(doc: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn require_number(doc: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    require(doc, key, ctx)?
        .as_number()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a number"))
}

fn require_str<'a>(doc: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    require(doc, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))
}

fn require_bool(doc: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    require(doc, key, ctx)?
        .as_bool()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a boolean"))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REDERIVE_RTOL * a.abs().max(b.abs()).max(1e-300)
}

/// Verifies a `semsim-validate` machine report: schema/version, field
/// presence and types, unique point names, and — crucially — that each
/// point's recorded `tolerance`, `abs_diff` and `pass` re-derive from
/// its recorded inputs, and that the `passed`/`failed`/`all_pass`
/// totals match the points.
///
/// # Errors
///
/// Returns the first inconsistency found.
pub fn check_report(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let schema = require_str(&doc, "schema", "report")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema `{schema}`"));
    }
    let version = require_number(&doc, "version", "report")?;
    if version != SCHEMA_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    require_str(&doc, "commit", "report")?;
    let profile = require_str(&doc, "profile", "report")?;
    if profile != "quick" && profile != "full" {
        return Err(format!("unknown profile `{profile}`"));
    }
    require_number(&doc, "base_seed", "report")?;

    let points = require(&doc, "points", "report")?
        .as_array()
        .ok_or("report: `points` is not an array")?;
    if points.is_empty() {
        return Err("report: empty `points`".to_string());
    }

    let mut names: Vec<&str> = Vec::with_capacity(points.len());
    let mut passed = 0usize;
    for (i, p) in points.iter().enumerate() {
        let ctx = format!("point {i}");
        let name = require_str(p, "name", &ctx)?;
        let ctx = format!("point `{name}`");
        if names.contains(&name) {
            return Err(format!("{ctx}: duplicate name"));
        }
        names.push(name);
        let kind = require_str(p, "kind", &ctx)?;
        if kind != "analytic" && kind != "nonadaptive-mc" {
            return Err(format!("{ctx}: unknown kind `{kind}`"));
        }
        let observable = require_str(p, "observable", &ctx)?;
        if observable != "current_A" && observable != "delay_s" {
            return Err(format!("{ctx}: unknown observable `{observable}`"));
        }
        let measured = require_number(p, "measured", &ctx)?;
        let sem_m = require_number(p, "sem_measured", &ctx)?;
        let reference = require_number(p, "reference", &ctx)?;
        let sem_r = require_number(p, "sem_reference", &ctx)?;
        let z = require_number(p, "z", &ctx)?;
        let floor = require_number(p, "floor", &ctx)?;
        if sem_m < 0.0 || sem_r < 0.0 || z <= 0.0 || floor < 0.0 {
            return Err(format!("{ctx}: negative error bar or non-positive z"));
        }
        if kind == "analytic" && sem_r != 0.0 {
            return Err(format!(
                "{ctx}: analytic reference must have sem_reference = 0"
            ));
        }

        let tol = require_number(p, "tolerance", &ctx)?;
        let want_tol = tolerance::tolerance(z, sem_m, sem_r, floor);
        if !close(tol, want_tol) {
            return Err(format!(
                "{ctx}: tolerance {tol:e} does not re-derive (want {want_tol:e})"
            ));
        }
        let diff = require_number(p, "abs_diff", &ctx)?;
        let want_diff = (measured - reference).abs();
        if !close(diff, want_diff) {
            return Err(format!(
                "{ctx}: abs_diff {diff:e} does not re-derive (want {want_diff:e})"
            ));
        }
        let pass = require_bool(p, "pass", &ctx)?;
        if pass != (want_diff <= want_tol) {
            return Err(format!("{ctx}: recorded verdict contradicts the numbers"));
        }
        if pass {
            passed += 1;
        }
    }

    let rec_passed = require_number(&doc, "passed", "report")?;
    let rec_failed = require_number(&doc, "failed", "report")?;
    let rec_all = require_bool(&doc, "all_pass", "report")?;
    if rec_passed != passed as f64 || rec_failed != (points.len() - passed) as f64 {
        return Err(format!(
            "report: totals {rec_passed}/{rec_failed} disagree with points ({}/{})",
            passed,
            points.len() - passed
        ));
    }
    if rec_all != (passed == points.len()) {
        return Err("report: `all_pass` contradicts the points".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Profile;

    fn sample_run() -> ValidationRun {
        ValidationRun {
            profile: Profile::Quick,
            base_seed: 42,
            points: vec![
                PointResult {
                    name: "set-on-40mV".into(),
                    kind: "analytic",
                    observable: "current_A",
                    measured: 1.23e-9,
                    sem_measured: 1.0e-11,
                    reference: 1.25e-9,
                    sem_reference: 0.0,
                    z: 4.0,
                    floor: 2e-12,
                    restored: 0,
                },
                PointResult {
                    name: "sset-above-gap-40mV".into(),
                    kind: "nonadaptive-mc",
                    observable: "current_A",
                    measured: 3.0e-9,
                    sem_measured: 2.0e-11,
                    reference: 3.5e-9,
                    sem_reference: 2.0e-11,
                    z: 4.0,
                    floor: 2e-12,
                    restored: 1,
                },
            ],
        }
    }

    #[test]
    fn table_reports_pass_and_fail() {
        let run = sample_run();
        let table = render_table(&run);
        assert!(table.contains("set-on-40mV"));
        assert!(table.contains("pass"));
        assert!(table.contains("FAIL"), "second point is out of tolerance");
        assert!(table.ends_with("validate-pass: 1/2\n"));
    }

    #[test]
    fn emitted_json_verifies() {
        let run = sample_run();
        let json = report_json(&run, "deadbeef");
        check_report(&json).expect("self-emitted report must verify");
    }

    #[test]
    fn verifier_rejects_tampered_verdict() {
        let run = sample_run();
        let json = report_json(&run, "deadbeef");
        // Flip the failing point's verdict without touching its
        // numbers.
        let tampered = json.replacen("\"pass\": false", "\"pass\": true", 1);
        assert!(tampered != json, "fixture must contain a failing point");
        let err = check_report(&tampered).expect_err("tampered verdict must fail");
        assert!(err.contains("contradicts"), "{err}");
    }

    #[test]
    fn verifier_rejects_wrong_schema_and_totals() {
        let run = sample_run();
        let json = report_json(&run, "deadbeef");
        let wrong = json.replacen("semsim-validate", "semsim-other", 1);
        assert!(check_report(&wrong).is_err());
        let wrong = json.replacen("\"passed\": 1", "\"passed\": 2", 1);
        assert!(check_report(&wrong).is_err());
    }

    #[test]
    fn restored_counts_never_reach_the_byte_stable_outputs() {
        // A resumed run restores replicas; if that count leaked into
        // the table or JSON, resume would not be byte-identical.
        let mut run = sample_run();
        let (t0, j0) = (render_table(&run), report_json(&run, "c"));
        for p in &mut run.points {
            p.restored = 7;
        }
        assert_eq!(render_table(&run), t0);
        assert_eq!(report_json(&run, "c"), j0);
    }
}
