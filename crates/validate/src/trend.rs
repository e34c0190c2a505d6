//! Per-commit performance trend records for the validation harness.
//!
//! Wall-clock numbers never enter the byte-stable validation outputs;
//! they live here, appended per commit to
//! `results/BENCH_validate.json`. Each record carries two quantities:
//!
//! * `events_per_sec` — raw throughput of the optimized adaptive
//!   solver. Machine-dependent; recorded for observation, **not
//!   gated**.
//! * `speedup_dense` — events/sec ratio of the optimized solver over
//!   the dense-reference oracle, measured in *interleaved* windows on
//!   the same machine in the same process. Machine-wide load hits both
//!   sides alike and cancels, so this ratio is the quantity
//!   `scripts/ci.sh` gates (a drop > 10% against the previous record
//!   fails).
//!
//! The benchmark is 74LS153 (224 junctions): large enough that the
//! sparse hot path dominates, small enough to time in
//! seconds. Before any number is reported, the optimized and
//! dense-reference run records are compared bitwise — a perf record
//! from a diverged solver would be meaningless.

use std::fmt::Write as _;

use semsim_bench::timing::measure_pair;
use semsim_check::{parse_json, Json};
use semsim_core::engine::{SimConfig, Simulation, SolverSpec};
use semsim_core::CoreError;
use semsim_logic::{elaborate, Benchmark, SetLogicParams};

use crate::run::THETA;

/// Schema marker of the trend file.
pub const SCHEMA: &str = "semsim-validate-trend";

/// Current schema version.
pub const SCHEMA_VERSION: f64 = 2.0;

/// One per-commit trend record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRecord {
    /// Commit hash (or `unknown`).
    pub commit: String,
    /// Benchmark the numbers were measured on.
    pub benchmark: String,
    /// Optimized-solver throughput (machine-dependent, not gated).
    pub events_per_sec: f64,
    /// Optimized-over-dense events/sec ratio (the gated quantity).
    pub speedup_dense: f64,
}

/// Measures a trend record: the optimized adaptive solver vs the
/// dense-reference oracle on 74LS153, interleaved windows, bit-identity
/// asserted first.
///
/// # Errors
///
/// Fails on elaboration/simulation errors or if the optimized run
/// records diverge from the dense reference.
pub fn measure_trend(
    commit: &str,
    sample: u64,
    warmup: u64,
    repeats: u64,
    seed: u64,
) -> Result<TrendRecord, String> {
    let bench = Benchmark::Ls153;
    let logic = bench.logic();
    let params = SetLogicParams::default();
    let elab = elaborate(&logic, &params).map_err(|e| format!("elaboration failed: {e}"))?;
    let apply_inputs = |sim: &mut Simulation<'_>| -> Result<(), CoreError> {
        for name in &logic.inputs {
            let lead = elab
                .input_lead(name)
                .map_err(|_| CoreError::UnknownLead { lead: usize::MAX })?;
            sim.set_lead_voltage(lead, params.vdd)?;
        }
        Ok(())
    };
    let refresh_interval = 1_000u64.max(4 * elab.circuit.num_islands() as u64);
    let mk_cfg = |spec: SolverSpec| {
        SimConfig::new(params.temperature)
            .with_seed(seed)
            .with_solver(spec)
    };
    let pair = measure_pair(
        &elab.circuit,
        &mk_cfg(SolverSpec::Adaptive {
            threshold: THETA,
            refresh_interval,
        }),
        &mk_cfg(SolverSpec::AdaptiveDense {
            threshold: THETA,
            refresh_interval,
        }),
        warmup,
        sample,
        repeats,
        apply_inputs,
    )
    .map_err(|e| format!("measurement failed: {e}"))?;
    if pair.opt_records != pair.dense_records {
        return Err("optimized run records diverged from the dense reference".to_string());
    }
    Ok(TrendRecord {
        commit: commit.to_string(),
        benchmark: bench.name().to_string(),
        events_per_sec: pair.opt.events_per_sec(),
        speedup_dense: pair.speedup(),
    })
}

fn record_json(r: &TrendRecord) -> String {
    format!(
        concat!(
            "    {{\"commit\": \"{}\", \"benchmark\": \"{}\",\n",
            "     \"events_per_sec\": {:.6e}, \"speedup_dense\": {:.4}}}"
        ),
        r.commit, r.benchmark, r.events_per_sec, r.speedup_dense,
    )
}

/// Renders a trend file from `records`.
#[must_use]
pub fn render_file(records: &[TrendRecord]) -> String {
    let rows: Vec<String> = records.iter().map(record_json).collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"version\": {},\n",
            "  \"records\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SCHEMA,
        SCHEMA_VERSION,
        rows.join(",\n"),
    )
}

fn parse_record(p: &Json, i: usize) -> Result<TrendRecord, String> {
    let ctx = format!("record {i}");
    let field = |key: &str| -> Result<&Json, String> {
        p.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
    };
    let num = |key: &str| -> Result<f64, String> {
        field(key)?
            .as_number()
            .ok_or_else(|| format!("{ctx}: `{key}` is not a number"))
    };
    let rec = TrendRecord {
        commit: field("commit")?
            .as_str()
            .ok_or_else(|| format!("{ctx}: `commit` is not a string"))?
            .to_string(),
        benchmark: field("benchmark")?
            .as_str()
            .ok_or_else(|| format!("{ctx}: `benchmark` is not a string"))?
            .to_string(),
        events_per_sec: num("events_per_sec")?,
        speedup_dense: num("speedup_dense")?,
    };
    if rec.events_per_sec <= 0.0 || rec.speedup_dense <= 0.0 {
        return Err(format!("{ctx}: non-positive throughput or speedup"));
    }
    Ok(rec)
}

/// Parses a trend file.
///
/// # Errors
///
/// Returns the first schema or type violation.
pub fn load_records(text: &str) -> Result<Vec<TrendRecord>, String> {
    let doc = parse_json(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("trend: missing `schema`")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema `{schema}`"));
    }
    let version = doc
        .get("version")
        .and_then(Json::as_number)
        .ok_or("trend: missing `version`")?;
    if version != SCHEMA_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    doc.get("records")
        .and_then(Json::as_array)
        .ok_or("trend: `records` is not an array")?
        .iter()
        .enumerate()
        .map(|(i, p)| parse_record(p, i))
        .collect()
}

/// Verifies a trend file (the `semsim json-verify` hook).
///
/// # Errors
///
/// As [`load_records`]; an empty record list is also rejected.
pub fn check_trend_file(text: &str) -> Result<(), String> {
    let records = load_records(text)?;
    if records.is_empty() {
        return Err("trend: empty `records`".to_string());
    }
    Ok(())
}

/// Appends `rec` to an existing trend file's content (or starts a new
/// file when `existing` is `None`), returning the new file content.
///
/// # Errors
///
/// Fails when the existing content does not parse as a trend file — an
/// unreadable history should be fixed, not silently replaced.
pub fn append_record(existing: Option<&str>, rec: &TrendRecord) -> Result<String, String> {
    let mut records = match existing {
        Some(text) => load_records(text)?,
        None => Vec::new(),
    };
    records.push(rec.clone());
    Ok(render_file(&records))
}

/// The stable stdout lines `scripts/ci.sh` consumes: the new record's
/// quantities and the speedup ratio against the previous record
/// (`none` when this is the first record — the honest first-run skip).
#[must_use]
pub fn summary_lines(previous: Option<&TrendRecord>, current: &TrendRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "validate-events-per-sec: {:.6e}",
        current.events_per_sec
    );
    let _ = writeln!(out, "validate-speedup-dense: {:.4}", current.speedup_dense);
    match previous {
        Some(prev) if prev.speedup_dense > 0.0 => {
            let _ = writeln!(
                out,
                "validate-trend-ratio: {:.4}",
                current.speedup_dense / prev.speedup_dense
            );
        }
        _ => {
            let _ = writeln!(out, "validate-trend-ratio: none");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(commit: &str, speedup: f64) -> TrendRecord {
        TrendRecord {
            commit: commit.to_string(),
            benchmark: "74LS153".to_string(),
            events_per_sec: 4.4e5,
            speedup_dense: speedup,
        }
    }

    #[test]
    fn file_round_trips() {
        let records = vec![rec("aaa", 1.40), rec("bbb", 1.45)];
        let text = render_file(&records);
        check_trend_file(&text).expect("rendered file must verify");
        assert_eq!(load_records(&text).expect("parses"), records);
    }

    #[test]
    fn append_preserves_history() {
        let first = append_record(None, &rec("aaa", 1.40)).expect("fresh file");
        let second = append_record(Some(&first), &rec("bbb", 1.45)).expect("append");
        let records = load_records(&second).expect("parses");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].commit, "aaa");
        assert_eq!(records[1].commit, "bbb");
        // Corrupt history is an error, not a silent restart.
        assert!(append_record(Some("{}"), &rec("ccc", 1.0)).is_err());
    }

    #[test]
    fn summary_reports_ratio_or_none() {
        let prev = rec("aaa", 1.40);
        let cur = rec("bbb", 1.47);
        let s = summary_lines(Some(&prev), &cur);
        assert!(s.contains("validate-speedup-dense: 1.4700"));
        assert!(s.contains("validate-trend-ratio: 1.0500"));
        let s = summary_lines(None, &cur);
        assert!(s.contains("validate-trend-ratio: none"), "{s}");
    }

    #[test]
    fn loader_rejects_bad_records() {
        let text = render_file(&[rec("aaa", 1.4)]);
        let bad = text.replacen("\"speedup_dense\": 1.4000", "\"speedup_dense\": -1", 1);
        assert!(load_records(&bad).is_err());
        let bad = text.replacen("semsim-validate-trend", "other", 1);
        assert!(load_records(&bad).is_err());
        let old = text.replacen("\"version\": 2", "\"version\": 1", 1);
        assert!(load_records(&old).is_err(), "older versions are refused");
        assert!(check_trend_file(
            "{\"schema\": \"semsim-validate-trend\", \"version\": 2, \"records\": []}"
        )
        .is_err());
    }
}
