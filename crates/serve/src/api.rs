//! The job API's wire format: parsing a submitted job specification
//! (through [`semsim_check::parse_json`] — malformed requests become
//! structured 400s, never panics) and rendering status / result JSON.
//!
//! A job submission is a JSON object:
//!
//! ```json
//! {
//!   "source": "junc 1 1 4 1e-6 1e-18\n…",
//!   "format": "circuit",
//!   "tenant": "alice",
//!   "seed": 42,
//!   "events": 3000,
//!   "replicas": 4,
//!   "timeout_secs": 10.0,
//!   "max_events": 100000,
//!   "max_retries": 2,
//!   "inputs": {"a": true, "b": false}
//! }
//! ```
//!
//! Only `source` is required. `format` selects the circuit interpreter
//! (default) or the logic elaborator; `inputs` is logic-only. Unknown
//! keys are rejected — a typo'd knob must not silently run with
//! defaults. Fault-injection builds additionally accept a `"fault"`
//! object scripting worker panics and poisoned rates for the resilience
//! tests.

use semsim_check::{json_escape, parse_json, Json};

/// Which front-end interprets the job's `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFormat {
    /// The paper's circuit format ([`semsim_netlist::CircuitFile`]).
    Circuit,
    /// Gate-level logic ([`semsim_netlist::LogicFile`], elaborated with
    /// default [`semsim_logic::SetLogicParams`]).
    Logic,
}

/// Scripted faults for a job (fault-inject builds only): mirrors
/// [`semsim_core::batch::BatchFaultPlan`]'s transient faults.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// `(task, event)`: panic inside the task's initial attempt.
    pub panic_at: Option<(usize, u64)>,
    /// `(task, event, junction)`: poison a forward rate in the task's
    /// initial attempt.
    pub poison_rate: Option<(usize, u64, usize)>,
}

/// A validated job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Netlist or logic source text.
    pub source: String,
    /// Which front-end interprets `source`.
    pub format: SourceFormat,
    /// Fair-scheduling bucket; jobs of one tenant never starve another.
    pub tenant: String,
    /// Master-seed override.
    pub seed: Option<u64>,
    /// Per-point event-count override.
    pub events: Option<u64>,
    /// Replica-count override (ensemble jobs only).
    pub replicas: Option<usize>,
    /// Per-job wall-clock budget (also applied per point through the
    /// run supervisor, so a stuck point ends as a structured
    /// `WallClockExceeded` outcome).
    pub timeout_secs: Option<f64>,
    /// Per-point lifetime event cap (run supervisor).
    pub max_events: Option<u64>,
    /// Retry-ladder depth override.
    pub max_retries: Option<u32>,
    /// Logic-input assignment, sorted by name for a canonical cache
    /// key.
    pub inputs: Vec<(String, bool)>,
    /// Scripted faults (testing only).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<FaultSpec>,
}

const KNOWN_KEYS: &[&str] = &[
    "source",
    "format",
    "tenant",
    "seed",
    "events",
    "replicas",
    "timeout_secs",
    "max_events",
    "max_retries",
    "inputs",
    "fault",
];

fn non_negative_int(json: &Json, key: &str) -> Result<u64, String> {
    let n = json
        .as_number()
        .ok_or_else(|| format!("`{key}` must be a number"))?;
    if !(n >= 0.0) || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(format!("`{key}` must be a non-negative integer"));
    }
    Ok(n as u64)
}

#[cfg(feature = "fault-inject")]
fn parse_fault(json: &Json) -> Result<FaultSpec, String> {
    let tuple = |value: &Json, key: &str, arity: usize| -> Result<Vec<u64>, String> {
        let items = value
            .as_array()
            .ok_or_else(|| format!("`fault.{key}` must be an array"))?;
        if items.len() != arity {
            return Err(format!("`fault.{key}` must have {arity} elements"));
        }
        items
            .iter()
            .map(|item| non_negative_int(item, key))
            .collect()
    };
    let mut fault = FaultSpec::default();
    if let Some(value) = json.get("panic_at") {
        let v = tuple(value, "panic_at", 2)?;
        fault.panic_at = Some((v[0] as usize, v[1]));
    }
    if let Some(value) = json.get("poison_rate") {
        let v = tuple(value, "poison_rate", 3)?;
        fault.poison_rate = Some((v[0] as usize, v[1], v[2] as usize));
    }
    Ok(fault)
}

/// Parses and validates a submitted job body. Every failure is a
/// message destined for a 400 response.
///
/// # Errors
///
/// A human-readable description of the first violation: JSON syntax,
/// a missing/ill-typed field, or an unknown key.
pub fn parse_job(body: &str) -> Result<JobSpec, String> {
    let json = parse_json(body)?;
    let Json::Object(fields) = &json else {
        return Err("job must be a JSON object".to_string());
    };
    for (key, _) in fields {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown key `{key}`"));
        }
    }
    let source = json
        .get("source")
        .and_then(Json::as_str)
        .ok_or("`source` (string) is required")?
        .to_string();
    if source.trim().is_empty() {
        return Err("`source` is empty".to_string());
    }
    let format = match json
        .get("format")
        .map(|f| f.as_str().ok_or("`format` must be a string"))
    {
        None => SourceFormat::Circuit,
        Some(Ok("circuit")) => SourceFormat::Circuit,
        Some(Ok("logic")) => SourceFormat::Logic,
        Some(Ok(other)) => return Err(format!("unknown format `{other}`")),
        Some(Err(e)) => return Err(e.to_string()),
    };
    let tenant = match json.get("tenant") {
        None => "default".to_string(),
        Some(t) => {
            let t = t.as_str().ok_or("`tenant` must be a string")?;
            if t.is_empty()
                || t.len() > 64
                || !t
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err("`tenant` must be 1-64 characters of [A-Za-z0-9_-]".to_string());
            }
            t.to_string()
        }
    };
    let seed = json
        .get("seed")
        .map(|v| non_negative_int(v, "seed"))
        .transpose()?;
    let events = json
        .get("events")
        .map(|v| non_negative_int(v, "events"))
        .transpose()?;
    if events == Some(0) {
        return Err("`events` must be positive".to_string());
    }
    let replicas = json
        .get("replicas")
        .map(|v| non_negative_int(v, "replicas"))
        .transpose()?
        .map(|n| n as usize);
    if replicas == Some(0) {
        return Err("`replicas` must be positive".to_string());
    }
    if replicas.is_some_and(|r| r > 65_536) {
        return Err("`replicas` is capped at 65536".to_string());
    }
    let timeout_secs = match json.get("timeout_secs") {
        None => None,
        Some(v) => {
            let secs = v.as_number().ok_or("`timeout_secs` must be a number")?;
            if !(secs.is_finite() && secs > 0.0) {
                return Err("`timeout_secs` must be positive and finite".to_string());
            }
            Some(secs)
        }
    };
    let max_events = json
        .get("max_events")
        .map(|v| non_negative_int(v, "max_events"))
        .transpose()?;
    if max_events == Some(0) {
        return Err("`max_events` must be positive".to_string());
    }
    let max_retries = json
        .get("max_retries")
        .map(|v| non_negative_int(v, "max_retries"))
        .transpose()?
        .map(|n| u32::try_from(n.min(16)).unwrap_or(16));
    let mut inputs = Vec::new();
    if let Some(value) = json.get("inputs") {
        if format != SourceFormat::Logic {
            return Err("`inputs` only applies to logic jobs".to_string());
        }
        let Json::Object(pairs) = value else {
            return Err("`inputs` must be an object of booleans".to_string());
        };
        for (name, bit) in pairs {
            let Json::Bool(bit) = bit else {
                return Err(format!("input `{name}` must be true or false"));
            };
            inputs.push((name.clone(), *bit));
        }
        inputs.sort();
    }
    #[cfg(feature = "fault-inject")]
    let fault = json.get("fault").map(parse_fault).transpose()?;
    #[cfg(not(feature = "fault-inject"))]
    if json.get("fault").is_some() {
        return Err("`fault` requires a fault-inject build".to_string());
    }
    Ok(JobSpec {
        source,
        format,
        tenant,
        seed,
        events,
        replicas,
        timeout_secs,
        max_events,
        max_retries,
        inputs,
        #[cfg(feature = "fault-inject")]
        fault,
    })
}

/// Renders an `{"error": …}` body.
#[must_use]
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", json_escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_job_defaults() {
        let spec = parse_job(r#"{"source": "junc 1 1 2 1e-6 1e-18"}"#).unwrap();
        assert_eq!(spec.format, SourceFormat::Circuit);
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.seed, None);
        assert!(spec.inputs.is_empty());
    }

    #[test]
    fn rejects_malformed_and_unknown() {
        assert!(parse_job("not json").is_err());
        assert!(parse_job("[1,2]").is_err());
        assert!(parse_job("{}").is_err(), "source is required");
        assert!(parse_job(r#"{"source": "x", "typo_knob": 1}"#).is_err());
        assert!(parse_job(r#"{"source": "x", "seed": -1}"#).is_err());
        assert!(parse_job(r#"{"source": "x", "seed": 1.5}"#).is_err());
        assert!(parse_job(r#"{"source": "x", "timeout_secs": 0}"#).is_err());
        assert!(parse_job(r#"{"source": "x", "events": 0}"#).is_err());
        assert!(parse_job(r#"{"source": "x", "format": "vhdl"}"#).is_err());
        assert!(parse_job(r#"{"source": "x", "tenant": "a b"}"#).is_err());
        assert!(
            parse_job(r#"{"source": "x", "inputs": {"a": true}}"#).is_err(),
            "inputs require logic format"
        );
    }

    #[test]
    fn logic_inputs_sorted_for_canonical_key() {
        let spec = parse_job(
            r#"{"source": "input a\ninput b\noutput y\nnand y a b", "format": "logic",
                "inputs": {"b": false, "a": true}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.inputs,
            vec![("a".to_string(), true), ("b".to_string(), false)]
        );
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "line\n\"quote\"\\back\tslash\u{1}";
        let body = format!("{{\"source\": \"{}\"}}", json_escape(nasty));
        let spec = parse_job(&body).unwrap();
        assert_eq!(spec.source, nasty);
    }
}
