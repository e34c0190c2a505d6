//! Job execution: turns a validated [`JobSpec`] into a resilient batch
//! run and renders its results as the stable line format the stream
//! endpoint serves.
//!
//! Every job runs with a journal at `data_dir/jN.jl` and `resume =
//! true`, so the same code path covers a fresh job, a restart after
//! `kill -9` (completed points restore byte-identically), and a
//! cancelled job picked up again later. Workers give each job one
//! engine thread — the daemon parallelizes across jobs, and the batch
//! determinism contract makes the thread budget invisible in the
//! results anyway.
//!
//! Result lines are rendered by [`semsim_netlist::point_line`], as
//! `semsim sweep` renders them — one `control current outcome` line per
//! sweep point (`replica …` for ensembles), comment lines for faulted
//! or cancelled points — so a streamed job diffs cleanly against a
//! local run of the same netlist.

use std::path::Path;

use semsim_core::batch::{batch_ensemble, BatchOpts, BatchReport, ReplicaSummary, RetryPolicy};
use semsim_core::engine::{RunLength, SimConfig, SweepPoint};
use semsim_core::health::{HealthReport, Supervisor};
use semsim_core::journal::{read_header, scan, JournalItem};
use semsim_core::par::ParOpts;
use semsim_core::resource::ResourceEstimate;
use semsim_logic::{elaborate, SetLogicParams};
use semsim_netlist::{point_line, CircuitFile, ExecutionKind, LogicFile, ResultLine};

use crate::api::{parse_job, JobSpec, SourceFormat};
use crate::jobs::{Job, JobKind, JobResult};

/// Applies the spec's overrides to a parsed circuit file.
fn circuit_file(spec: &JobSpec) -> Result<CircuitFile, String> {
    let mut file =
        CircuitFile::parse(&spec.source).map_err(|e| format!("source:{}: {e}", e.line()))?;
    if let Some(seed) = spec.seed {
        file.seed = Some(seed);
    }
    if spec.events.is_some() || spec.replicas.is_some() {
        if spec.replicas.is_some() && file.sweep.is_some() {
            return Err("`replicas` conflicts with a `sweep` declaration".to_string());
        }
        let (events, runs) = file.jumps.unwrap_or((100_000, 1));
        let events = spec.events.unwrap_or(events);
        let runs = spec.replicas.map_or(runs, |r| r as u32);
        file.jumps = Some((events, runs));
    }
    // The daemon owns journal placement; a `journal` directive in the
    // source must not redirect writes outside the data directory.
    file.journal = None;
    Ok(file)
}

/// Why admission refused a job body — the HTTP status is part of the
/// contract: invalid specs are the client's fault (400), oversized
/// circuits are a capacity refusal (413) carrying the estimator's
/// numbers so the client can size down.
#[derive(Debug)]
pub enum AdmissionError {
    /// The spec or its source is invalid (HTTP 400).
    Invalid(String),
    /// The circuit's estimated footprint exceeds the daemon's
    /// `--max-memory` budget (HTTP 413).
    TooLarge {
        /// Estimated resident bytes.
        required: u64,
        /// The configured budget, bytes.
        limit: u64,
        /// The estimator's component breakdown.
        breakdown: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Invalid(message) => f.write_str(message),
            AdmissionError::TooLarge {
                required,
                limit,
                breakdown,
            } => write!(
                f,
                "circuit needs an estimated {required} bytes but the admission \
                 budget is {limit} bytes ({breakdown})"
            ),
        }
    }
}

/// Parses a raw job body and validates its source end to end (parse,
/// static checks, elaboration), returning the execution shape. Runs at
/// admission — workers only ever see jobs whose sources compile.
///
/// `max_memory` is the admission byte budget (0 disables). For circuit
/// sources the estimate is a pure function of the declaration counts
/// ([`CircuitFile::resource_estimate`]) and is enforced *before*
/// compilation, so an oversized netlist is refused without its `C⁻¹`
/// store ever being materialised. Logic sources elaborate their
/// circuit during validation anyway, so they enforce the measured
/// footprint of that circuit.
///
/// # Errors
///
/// [`AdmissionError`], which picks the response status.
pub fn resolve_spec(
    raw: &str,
    max_memory: u64,
) -> Result<(JobSpec, JobKind, usize), AdmissionError> {
    let invalid = |e: String| AdmissionError::Invalid(e);
    let check = |estimate: &ResourceEstimate| match estimate.check_budget(max_memory) {
        Err(semsim_core::CoreError::ResourceBudget {
            required,
            limit,
            breakdown,
        }) => Err(AdmissionError::TooLarge {
            required,
            limit,
            breakdown,
        }),
        _ => Ok(()),
    };
    let spec = parse_job(raw).map_err(invalid)?;
    match spec.format {
        SourceFormat::Circuit => {
            let file = circuit_file(&spec).map_err(invalid)?;
            check(&file.resource_estimate())?;
            file.compile().map_err(|e| invalid(e.to_string()))?;
            file.sim_config().map_err(|e| invalid(e.to_string()))?;
            let kind = file.execution_kind().map_err(|e| invalid(e.to_string()))?;
            let (kind, tasks) = match kind {
                ExecutionKind::Sweep { points } => (JobKind::Sweep, points),
                ExecutionKind::Ensemble { replicas } => (JobKind::Ensemble, replicas),
            };
            Ok((spec, kind, tasks))
        }
        SourceFormat::Logic => {
            let logic = LogicFile::parse(&spec.source)
                .map_err(|e| invalid(format!("source:{}: {e}", e.line())))?;
            let params = SetLogicParams::default();
            let elab = elaborate(&logic, &params).map_err(|e| invalid(e.to_string()))?;
            for (name, _) in &spec.inputs {
                elab.input_lead(name).map_err(|e| invalid(e.to_string()))?;
            }
            check(&ResourceEstimate::measured(&elab.circuit))?;
            let tasks = spec.replicas.unwrap_or(1);
            Ok((spec, JobKind::Ensemble, tasks))
        }
    }
}

/// The batch options every job runs under: one engine thread, a
/// journal with resume, the spec's retry depth, and the spec's budgets
/// mapped onto the run supervisor (a stuck point ends as a structured
/// `WallClockExceeded` outcome instead of hanging its worker).
fn job_opts(job: &Job, journal: &Path) -> BatchOpts {
    let spec = &job.spec;
    let mut retry = RetryPolicy::default();
    if let Some(n) = spec.max_retries {
        retry.max_retries = n;
    }
    BatchOpts {
        par: ParOpts::with_threads(1),
        retry,
        journal: Some(journal.to_path_buf()),
        resume: true,
        supervisor: Some(Supervisor {
            wall_clock_budget: spec.timeout_secs,
            max_events: spec.max_events,
            blockade_is_outcome: true,
        }),
        cancel: Some(job.cancel.clone()),
        #[cfg(feature = "fault-inject")]
        fault_plan: spec.fault.as_ref().map(|f| {
            let mut plan = semsim_core::batch::BatchFaultPlan::new();
            if let Some((task, event)) = f.panic_at {
                plan = plan.panic_at(task, event);
            }
            if let Some((task, event, junction)) = f.poison_rate {
                plan = plan.poison_rate(task, event, junction);
            }
            plan
        }),
    }
}

/// What executing a job produced (phase is decided by the caller from
/// the cancel/timeout flags).
pub struct ExecOutput {
    /// Counts, outcomes, retries, tail note, and rendered lines.
    pub result: JobResult,
    /// Health report to fold into the daemon-wide counters.
    pub health: HealthReport,
}

fn collect<T: ResultLine>(report: &BatchReport<T>) -> ExecOutput {
    let lines = report.points.iter().map(point_line).collect();
    let tail = (report.discarded_tail_bytes > 0).then(|| {
        format!(
            "discarded {} corrupt tail byte(s) ({})",
            report.discarded_tail_bytes,
            report.discarded_tail_reason.as_deref().unwrap_or("unknown")
        )
    });
    ExecOutput {
        result: JobResult {
            counts: report.counts,
            outcomes: report.outcomes,
            retries: report.retries,
            tail,
            error: None,
            lines,
        },
        health: report.health.clone(),
    }
}

/// Executes a job to completion (or cancellation) against its journal.
///
/// # Errors
///
/// Batch-level failures only — journal I/O, a journal from a different
/// configuration — rendered as the job's `failed` error. Per-point
/// faults are not errors; they land in the counts.
pub fn execute(job: &Job, journal: &Path) -> Result<ExecOutput, String> {
    let opts = job_opts(job, journal);
    match job.spec.format {
        SourceFormat::Circuit => {
            let file = circuit_file(&job.spec)?;
            match job.kind {
                JobKind::Sweep => {
                    let report = file.execute_batch(&opts).map_err(|e| e.to_string())?;
                    Ok(collect(&report))
                }
                JobKind::Ensemble => {
                    let report = file
                        .execute_ensemble_batch(&opts)
                        .map_err(|e| e.to_string())?;
                    Ok(collect(&report))
                }
            }
        }
        SourceFormat::Logic => {
            let logic = LogicFile::parse(&job.spec.source)
                .map_err(|e| format!("source:{}: {e}", e.line()))?;
            let params = SetLogicParams::default();
            let elab = elaborate(&logic, &params).map_err(|e| e.to_string())?;
            let junction = elab
                .circuit
                .junction_ids()
                .next()
                .ok_or_else(|| "elaborated circuit has no junctions".to_string())?;
            let mut cfg = SimConfig::new(params.temperature);
            if let Some(seed) = job.spec.seed {
                cfg = cfg.with_seed(seed);
            }
            let inputs: Vec<(usize, f64)> = job
                .spec
                .inputs
                .iter()
                .map(|(name, bit)| {
                    elab.input_lead(name)
                        .map(|lead| (lead, if *bit { params.vdd } else { 0.0 }))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, String>>()?;
            let events = job.spec.events.unwrap_or(20_000);
            let report = batch_ensemble(
                &elab.circuit,
                &cfg,
                junction,
                job.tasks,
                0,
                RunLength::Events(events),
                &opts,
                |sim, _replica, _spec| {
                    for &(lead, voltage) in &inputs {
                        sim.set_lead_voltage(lead, voltage)?;
                    }
                    Ok(())
                },
            )
            .map_err(|e| e.to_string())?;
            Ok(collect(&report))
        }
    }
}

fn scan_lines<T: JournalItem + ResultLine>(bytes: &[u8]) -> Vec<(usize, String)> {
    match scan::<T>(bytes) {
        Ok(s) => s
            .entries
            .iter()
            .map(|e| (e.task, e.item.result_line(e.task)))
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// The `(task, line)` pairs a job's journal currently holds — the
/// stream endpoint polls this while the job runs. Unreadable or absent
/// journals yield nothing (the stream falls back to the final report).
#[must_use]
pub fn journal_lines(path: &Path, kind: JobKind) -> Vec<(usize, String)> {
    let Ok(bytes) = std::fs::read(path) else {
        return Vec::new();
    };
    match kind {
        JobKind::Sweep => scan_lines::<SweepPoint>(&bytes),
        JobKind::Ensemble => scan_lines::<ReplicaSummary>(&bytes),
    }
}

/// Describes what a recovered job's journal holds, for the restart
/// log: how many points will restore, and — when the tail is damaged
/// or the header refuses to validate — exactly which check failed.
#[must_use]
pub fn journal_note(path: &Path, kind: JobKind, tasks: usize) -> String {
    if !path.exists() {
        return "no journal yet; starts fresh".to_string();
    }
    if let Err(e) = read_header(path) {
        return format!("journal rejected ({e}); the job will fail on resume");
    }
    let Ok(bytes) = std::fs::read(path) else {
        return "journal unreadable; the job will fail on resume".to_string();
    };
    let describe = |entries: usize, tail: Option<String>, tail_bytes: usize| {
        match tail {
        Some(reason) => format!(
            "journal restores {entries}/{tasks} point(s), discarding {tail_bytes} tail byte(s) ({reason})"
        ),
        None => format!("journal restores {entries}/{tasks} point(s)"),
    }
    };
    match kind {
        JobKind::Sweep => match scan::<SweepPoint>(&bytes) {
            Ok(s) => describe(s.entries.len(), s.tail_reason, s.discarded_tail_bytes),
            Err(e) => format!("journal rejected ({e}); the job will fail on resume"),
        },
        JobKind::Ensemble => match scan::<ReplicaSummary>(&bytes) {
            Ok(s) => describe(s.entries.len(), s.tail_reason, s.discarded_tail_bytes),
            Err(e) => format!("journal rejected ({e}); the job will fail on resume"),
        },
    }
}
