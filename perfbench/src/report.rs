//! What one workload run reports, and its printed form.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was formed, e.g. "median of 12".
    pub basis: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        basis: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            basis: basis.into(),
        }
    }
}

/// Operations attempted and failed, with the reasons for failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts it as failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// End-to-end metrics (measured with tracing on in a traced run).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end figures: printed, with their sample
    /// counts, but not part of the JSON result.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Report {
    /// Human-readable lines followed by the one-line JSON result. The
    /// JSON carries the end-to-end metrics, or the per-layer ones when
    /// `traced`.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let failed = self.tally.failures.len();
        for f in &self.tally.failures {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        let mode = if traced { "traced" } else { "untraced" };
        let _ = writeln!(
            out,
            "# {workload} ({mode}): {} operation(s) attempted, {failed} failed",
            self.tally.attempted
        );
        let sections = [
            ("end-to-end", &self.end_to_end),
            ("end-to-end-extra", &self.extra),
            ("per-layer", &self.layers),
        ];
        for (section, metrics) in sections {
            for m in metrics.iter() {
                let _ = writeln!(
                    out,
                    "# {section:<16} {:<24} {:>14.6e} {:<5} {}",
                    m.name, m.value, m.unit, m.basis
                );
            }
        }
        let chosen = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = chosen
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.tally.attempted,
            metrics.join(", ")
        );
        out
    }
}
