//! The `semsim` command-line tool.
//!
//! ```text
//! semsim lint <file>... [--fix] [--format text|json]
//!                       [--deny SCxxx|warnings] [--allow SCxxx]
//! semsim json-verify [FILE]
//! semsim run <netlist.cir> [--events N] [--threads N] [--checkpoint-every N]
//!                          [--checkpoint FILE] [--resume [FILE]]
//!                          [--journal FILE] [--max-retries N] [--max-memory BYTES]
//! semsim sweep <netlist.cir> [--events N] [--threads N]
//!                            [--journal FILE] [--resume] [--max-retries N]
//!                            [--max-memory BYTES]
//! semsim serve [--port N] [--workers N] [--queue-depth N]
//!              [--data-dir DIR] [--max-job-seconds S] [--max-memory BYTES]
//! semsim call <addr> <METHOD> <PATH> [BODY-FILE]
//! semsim validate [--quick] [--seed N] [--threads N] [--json FILE]
//!                 [--commit HASH] [--journal BASE] [--resume]
//! semsim chaos [--campaigns N] [--seed N] [--out DIR] [--replay FILE]
//! ```
//!
//! `lint` runs the static netlist checks (diagnostic codes SC001–SC018)
//! over each file and prints rustc-style diagnostics. Files are treated
//! as gate-level logic netlists when their first directive is one of the
//! logic keywords (`input`, `output`, `inv`, `nand`, …) or the file
//! ends in `.logic`; everything else is parsed as the circuit format.
//! `--fix` applies every machine-applicable suggestion in place and
//! re-lints until the file is clean or stable (at most 8 rounds);
//! `--format json` emits the schema-version-1 report documented in
//! docs/diagnostics.md; `--deny`/`--allow` escalate or silence
//! individual codes from the command line (in-source `lint: allow`
//! pragmas do the same per file). `json-verify` validates a JSON
//! document read from FILE or stdin, dispatching on its top-level
//! `schema` marker: `semsim-validate` reports verify against the
//! validation-harness schema, a document without a marker is checked
//! as a schema-version-1 lint report, and any other marker is an error.
//!
//! `validate` runs the cross-engine validation grid (see
//! docs/validation.md): the adaptive Monte Carlo engine against the
//! analytical SPICE baseline and the exact non-adaptive solver under
//! stated statistical tolerances, printing a byte-stable pass/fail
//! table and optionally a machine report (`--json`).
//!
//! `run` compiles a circuit netlist and executes a Monte Carlo run at
//! the declared bias, optionally writing a binary checkpoint every N
//! events (`--checkpoint-every`) and resuming from one (`--resume FILE`).
//! A resumed run continues to the same total event target and produces
//! the same trajectory the uninterrupted run would have. When the
//! file's `jumps <events> <runs>` declares more than one run, the runs
//! execute as an independent-replica ensemble over `--threads` worker
//! threads (incompatible with checkpointing — each replica is its own
//! short trajectory), through the resilient batch layer: per-replica
//! panic isolation and retry, optional journaling (`--journal`), and
//! crash-safe resume (the bare `--resume` flag).
//!
//! `sweep` executes the file's `sweep` declaration over `--threads`
//! worker threads through the resilient batch layer. Results are
//! bit-identical for every thread count (see docs/parallelism.md);
//! faulted points never abort the sweep (they print as comment lines),
//! and `--journal`/`--resume` make long sweeps crash-safe (see
//! docs/robustness.md).
//!
//! Exit status: 0 when every file is clean or carries only warnings,
//! 1 when any file has an error-severity finding (including warnings
//! escalated by `--deny`) or fails to parse, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use semsim::check::{
    apply_suggestions, report_to_json, validate_report, DiagCode, Diagnostics, JsonFileReport,
    Severity, Suggestion,
};
use semsim::core::batch::{BatchCounts, BatchOpts, RetryPolicy};
use semsim::core::constants::E_CHARGE;
use semsim::core::engine::{RunLength, Simulation};
use semsim::core::health::{RunOutcome, Supervisor};
use semsim::core::par::{available_threads, ParOpts};
use semsim::netlist::{lint_circuit, lint_logic, point_line, CircuitFile, RawLogicFile};
use semsim::serve::ServeConfig;

const USAGE: &str = "usage: semsim <command>

commands:
  lint <netlist>... [--fix] [--format text|json]
                    [--deny SCxxx|warnings] [--allow SCxxx]
      Run the static circuit/logic netlist checks (SC001-SC018) and
      print rustc-style diagnostics. --fix applies every
      machine-applicable suggestion in place and re-lints until the
      file is clean or stable. --format json emits the stable
      schema-version-1 report (see docs/diagnostics.md). --deny SCxxx
      escalates that code's warnings to errors; --deny warnings
      escalates every warning; --allow SCxxx silences the code (both
      flags repeat; `# lint: allow SCxxx` pragmas in the netlist do the
      same per file or per line). Exit status: 0 when every file is
      clean or carries only warnings, 1 when any file has an error
      (including escalated warnings) or fails to parse, 2 on usage
      errors.

  json-verify [FILE]
      Validate a semsim JSON document read from FILE (or stdin),
      dispatching on its top-level `schema` marker: `semsim-validate`
      machine reports verify against the validation-harness schema
      (every tolerance and verdict is re-derived from the recorded
      inputs); a document without a `schema` key is checked as a
      `semsim lint --format json` schema-version-1 report; any other
      marker is an error. Exit status: 0 when the document validates,
      1 otherwise.

  validate [--quick] [--seed N] [--threads N] [--json FILE]
           [--commit HASH] [--journal BASE] [--resume]
      Run the cross-engine validation grid: adaptive-solver ensembles
      at declared SET operating points (normal and superconducting)
      plus a logic-benchmark delay point, each compared against the
      analytical SPICE baseline or an exact non-adaptive ensemble
      under a stated tolerance derived from the ensemble standard
      error (see docs/validation.md). Prints a byte-stable pass/fail
      table whose last line is `validate-pass: N/M`; exit status 1
      when any point is out of tolerance. --quick runs the reduced
      grid (debug-build friendly); --seed rederives every point seed
      (default 42); --threads caps the worker pool (results are
      bit-identical for any value); --json writes the schema-versioned
      machine report (verified by `semsim json-verify`) under the
      --commit label (default `unknown`); --journal BASE journals
      every ensemble crash-safely under BASE.p<NN> and --resume
      restores finished replicas (the count goes to stderr; stdout
      stays byte-identical).

  run <netlist.cir> [--events N] [--threads N] [--checkpoint-every N]
                    [--checkpoint FILE] [--resume [FILE]]
                    [--journal FILE] [--max-retries N] [--max-memory BYTES]
      Compile the circuit and execute a Monte Carlo run at the declared
      bias. --events overrides the file's `jumps` directive (total
      events since the start of the trajectory). --checkpoint-every
      writes a binary snapshot to FILE (default: <netlist>.ckpt) every
      N events; --resume FILE restores one and continues the identical
      trajectory. See docs/robustness.md. When `jumps` declares more
      than one run, the runs execute as an independent-replica ensemble
      over --threads worker threads (default: all cores) with per-replica
      retry (--max-retries, default 2); --journal appends finished
      replicas to a crash-safe journal and the bare --resume flag
      restores them instead of recomputing. Ensembles cannot be combined
      with checkpointing. --max-memory refuses the circuit before
      compilation when its estimated footprint (the truncated C⁻¹, its
      factor while building, lead coupling, neighborhood tables, kernel
      SoA, journal buffer) exceeds the budget — accepts plain bytes or
      64k/16m/2g; the refusal prints the estimator's component
      breakdown.

  sweep <netlist.cir> [--events N] [--threads N]
                      [--journal FILE] [--resume] [--max-retries N]
                      [--max-memory BYTES]
      Execute the file's `sweep` declaration in parallel over --threads
      worker threads (default: all cores) and print one `control
      current outcome` line per point. Output is bit-identical for
      every thread count (see docs/parallelism.md). Points that fault
      print as comment lines instead of aborting the sweep; --journal
      appends finished points to a crash-safe journal (default: the
      file's `journal` directive) and --resume skips them on the next
      invocation, reproducing the uninterrupted sweep bit-for-bit. See
      docs/robustness.md. --max-memory works as for `run`.

  serve [--port N] [--workers N] [--queue-depth N]
        [--data-dir DIR] [--max-job-seconds S] [--max-memory BYTES]
      Run the simulation service: accept netlist/logic jobs as JSON over
      HTTP on 127.0.0.1:<port> (default 8080), execute them on a pool of
      --workers threads (default 2) behind a bounded admission queue
      (--queue-depth, default 16; saturation answers 429 Retry-After).
      Every job journals completed points under --data-dir (default
      semsim-serve-data), so a killed daemon resumes all in-flight jobs
      byte-identically on restart. --max-job-seconds caps any job's
      wall clock (0 = no cap); --max-memory refuses any job whose
      estimated circuit footprint exceeds the budget with a structured
      413 carrying the estimate (0 = no budget). The data dir holds a
      `serve.lock` PID file, so a second daemon on the same dir exits
      with an error naming the holder (stale locks from dead processes
      are reclaimed). SIGTERM or POST /drain drains gracefully:
      queued and running jobs finish, then the daemon exits 0. See
      docs/serving.md for the API.

  chaos [--campaigns N] [--seed N] [--out DIR] [--replay FILE]
      Run deterministic cross-layer fault campaigns (fault-inject
      builds only): each campaign composes engine poisons, batch
      panics, journal truncation/bit-rot, kill-and-resume cuts and
      cooperative cancels against a small canonical circuit, then
      checks the recovery invariants (recovery never changes the
      answer; every run ends in a documented state; a journal on disk
      is always loadable or rejected with a reason). Campaigns are a
      pure function of --seed, so the campaign log is byte-identical
      across machines. A failing campaign is greedily minimized and
      written to --out (default results/) as a replayable
      chaos_repro_*.json; --replay re-runs one. Exit status: 0 when
      every invariant holds, 1 otherwise. See docs/robustness.md.

  call <addr> <METHOD> <PATH> [BODY-FILE]
      Minimal HTTP client for the service (the workspace has no curl):
      send METHOD PATH to addr (host:port), with the body read from
      BODY-FILE (`-` for stdin) when given. The response body streams to
      stdout as it arrives; the status goes to stderr as `HTTP <code>`.
      Exit status: 0 for 2xx, 1 otherwise.";

/// Directive keywords that identify the gate-level logic format.
const LOGIC_KEYWORDS: [&str; 10] = [
    "input", "output", "inv", "buf", "nand", "nor", "and", "or", "xor", "xnor",
];

/// `true` if `source` looks like a logic netlist: first non-comment,
/// non-empty line starts with a logic directive.
fn is_logic_format(path: &str, source: &str) -> bool {
    if path.ends_with(".logic") {
        return true;
    }
    for line in source.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let word = line.split_whitespace().next().unwrap_or("");
        return LOGIC_KEYWORDS.contains(&word);
    }
    false
}

/// Output format for `semsim lint`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
}

/// Parsed `semsim lint` options.
struct LintOpts {
    files: Vec<String>,
    /// Apply machine-applicable suggestions in place (`--fix`).
    fix: bool,
    format: LintFormat,
    /// Escalate every warning to an error (`--deny warnings`).
    deny_warnings: bool,
    /// Codes escalated to errors (`--deny SCxxx`), normalized uppercase.
    deny: Vec<String>,
    /// Codes silenced entirely (`--allow SCxxx`), normalized uppercase.
    allow: Vec<String>,
}

/// Validates and normalizes an `SCxxx` code given to `--deny`/`--allow`.
fn parse_code_arg(flag: &str, value: &str) -> Result<String, String> {
    let code = value.to_ascii_uppercase();
    if DiagCode::parse(&code).is_empty() {
        return Err(format!(
            "unknown diagnostic code `{value}` for `{flag}` (expected SC001..SC018)"
        ));
    }
    Ok(code)
}

fn parse_lint_opts(args: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts {
        files: Vec::new(),
        fix: false,
        format: LintFormat::Text,
        deny_warnings: false,
        deny: Vec::new(),
        allow: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match arg.as_str() {
            "--fix" => opts.fix = true,
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    other => {
                        return Err(format!(
                            "invalid `--format` value `{other}` (expected `text` or `json`)"
                        ));
                    }
                };
            }
            "--deny" => {
                let v = value("--deny")?;
                if v == "warnings" {
                    opts.deny_warnings = true;
                } else {
                    opts.deny.push(parse_code_arg("--deny", &v)?);
                }
            }
            "--allow" => {
                let v = value("--allow")?;
                opts.allow.push(parse_code_arg("--allow", &v)?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `semsim lint`"));
            }
            path => opts.files.push(path.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("`semsim lint` needs at least one netlist file".into());
    }
    Ok(opts)
}

/// What linting one file produced.
struct FileOutcome {
    path: String,
    /// The source text after any `--fix` rewrites (for rendering).
    source: Option<String>,
    diags: Diagnostics,
    /// `(line, message)` when the file could not be read or parsed;
    /// line 0 means the failure was not tied to a source line.
    parse_error: Option<(usize, String)>,
}

/// Parses and lints `source`, picking the front-end by format sniffing.
fn lint_source(path: &str, source: &str) -> Result<Diagnostics, (usize, String)> {
    if is_logic_format(path, source) {
        RawLogicFile::parse(source)
            .map(|raw| lint_logic(&raw))
            .map_err(|e| (e.line(), e.to_string()))
    } else {
        CircuitFile::parse(source)
            .map(|file| lint_circuit(&file))
            .map_err(|e| (e.line(), e.to_string()))
    }
}

/// Drops findings whose code is on the `--allow` list.
fn filter_allowed(diags: &mut Diagnostics, allow: &[String]) {
    if !allow.is_empty() {
        diags.retain(|d| !allow.iter().any(|c| c == d.code.code()));
    }
}

/// Escalates warnings to errors per `--deny warnings` / `--deny SCxxx`.
fn escalate_denied(diags: &mut Diagnostics, opts: &LintOpts) {
    for d in diags.iter_mut() {
        let denied = opts.deny_warnings || opts.deny.iter().any(|c| c == d.code.code());
        if denied && d.severity == Severity::Warning {
            d.severity = Severity::Error;
        }
    }
}

/// Upper bound on `--fix` rounds. Each round either shrinks the finding
/// set or reaches a fixed point, so this is a safety net, not a tuning
/// knob.
const FIX_ROUNDS: usize = 8;

/// Lints one file, applying `--fix` rewrites first when requested.
fn lint_one(path: &str, opts: &LintOpts) -> FileOutcome {
    let mut outcome = FileOutcome {
        path: path.to_string(),
        source: None,
        diags: Diagnostics::new(),
        parse_error: None,
    };
    let mut source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            outcome.parse_error = Some((0, format!("cannot read file: {e}")));
            return outcome;
        }
    };
    if opts.fix {
        for _ in 0..FIX_ROUNDS {
            let Ok(mut diags) = lint_source(path, &source) else {
                break;
            };
            filter_allowed(&mut diags, &opts.allow);
            let fixes: Vec<&Suggestion> = diags
                .iter()
                .filter_map(|d| d.suggestion.as_ref())
                .filter(|s| s.is_machine_applicable())
                .collect();
            if fixes.is_empty() {
                break;
            }
            let rewritten = apply_suggestions(&source, &fixes);
            if rewritten == source {
                break;
            }
            if let Err(e) = std::fs::write(path, &rewritten) {
                outcome.parse_error = Some((0, format!("cannot write fixed file: {e}")));
                return outcome;
            }
            source = rewritten;
        }
    }
    match lint_source(path, &source) {
        Ok(mut diags) => {
            filter_allowed(&mut diags, &opts.allow);
            escalate_denied(&mut diags, opts);
            diags.sort();
            outcome.diags = diags;
        }
        Err((line, message)) => outcome.parse_error = Some((line, message)),
    }
    outcome.source = Some(source);
    outcome
}

/// Executes `semsim lint` over every file and prints the report.
fn lint_files(opts: &LintOpts) -> ExitCode {
    let outcomes: Vec<FileOutcome> = opts.files.iter().map(|p| lint_one(p, opts)).collect();
    match opts.format {
        LintFormat::Text => {
            for o in &outcomes {
                match &o.parse_error {
                    Some((line, message)) if *line > 0 => {
                        eprintln!("{}:{line}: parse error: {message}", o.path);
                    }
                    Some((_, message)) => eprintln!("error: `{}`: {message}", o.path),
                    None if o.diags.is_empty() => println!("{}: clean", o.path),
                    None => print!("{}", o.diags.render(&o.path, o.source.as_deref())),
                }
            }
        }
        LintFormat::Json => {
            let reports: Vec<JsonFileReport<'_>> = outcomes
                .iter()
                .map(|o| JsonFileReport {
                    path: &o.path,
                    diags: &o.diags,
                    parse_error: o.parse_error.clone(),
                })
                .collect();
            print!("{}", report_to_json(&reports));
        }
    }
    let failed = outcomes
        .iter()
        .any(|o| o.parse_error.is_some() || o.diags.has_errors());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Executes `semsim json-verify`: validates a validation report or a
/// lint report read from the given file (or stdin).
fn json_verify(args: &[String]) -> ExitCode {
    if args.len() > 1 || args.iter().any(|a| a.starts_with("--")) {
        eprintln!("error: `semsim json-verify` takes at most one file argument\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let text = match args.first() {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("error: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        }
    };
    // Dispatch on the top-level `schema` marker: the validation report
    // carries one; lint reports (schema version 1) do not. A marker of
    // any other value (a retired schema, or not even a string) is named
    // in the error rather than misreported as a broken lint report.
    let schema = semsim::check::parse_json(&text).ok().and_then(|doc| {
        doc.get("schema")
            .map(|s| s.as_str().map_or_else(|| format!("{s:?}"), String::from))
    });
    let (kind, result) = match schema.as_deref() {
        Some("semsim-validate") => (
            "semsim-validate report",
            semsim::validate::check_report(&text),
        ),
        Some(other) => {
            eprintln!(
                "error: unknown schema `{other}` (known: `semsim-validate`; \
                 a lint report has no `schema` key)"
            );
            return ExitCode::FAILURE;
        }
        None => ("semsim lint report (schema version 1)", {
            validate_report(&text)
        }),
    };
    match result {
        Ok(()) => {
            println!("ok: valid {kind}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: invalid {kind}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `semsim run` / `semsim sweep` options.
struct RunOpts {
    netlist: String,
    events: Option<u64>,
    /// Worker threads; 0 = available parallelism.
    threads: usize,
    checkpoint_every: Option<u64>,
    checkpoint: Option<String>,
    resume: Option<String>,
    /// Journal file for batch execution (`--journal`).
    journal: Option<String>,
    /// Retry budget per point (`--max-retries`).
    max_retries: Option<u32>,
    /// Bare `--resume` flag: restore finished points from the journal.
    resume_journal: bool,
    /// Wall-clock budget in seconds (`--timeout`), mapped onto the run
    /// supervisor.
    timeout: Option<f64>,
    /// Memory budget in bytes (`--max-memory`); the circuit is refused
    /// before compilation when its estimated footprint exceeds this.
    max_memory: Option<u64>,
}

fn parse_run_opts(cmd: &str, args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        netlist: String::new(),
        events: None,
        threads: 0,
        checkpoint_every: None,
        checkpoint: None,
        resume: None,
        journal: None,
        max_retries: None,
        resume_journal: false,
        timeout: None,
        max_memory: None,
    };
    // `sweep` takes the parallel flags only; the checkpoint family is
    // run-trajectory specific.
    let checkpointable = cmd == "run";
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match arg.as_str() {
            "--events" => {
                opts.events = Some(
                    value("--events")?
                        .parse()
                        .map_err(|_| "invalid `--events` count".to_string())?,
                );
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid `--threads` count".to_string())?;
                if n == 0 {
                    return Err("`--threads` must be at least 1".into());
                }
                opts.threads = n;
            }
            "--checkpoint-every" if checkpointable => {
                let n: u64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "invalid `--checkpoint-every` count".to_string())?;
                if n == 0 {
                    return Err("`--checkpoint-every` must be at least 1".into());
                }
                opts.checkpoint_every = Some(n);
            }
            "--checkpoint" if checkpointable => opts.checkpoint = Some(value("--checkpoint")?),
            "--resume" => {
                // `run` historically takes `--resume FILE` (checkpoint
                // restore); the journal form is the bare flag. A next
                // argument that is not a flag selects the file form.
                let file_form =
                    checkpointable && it.peek().map(|v| !v.starts_with("--")).unwrap_or(false);
                if file_form {
                    opts.resume = it.next().cloned();
                } else {
                    opts.resume_journal = true;
                }
            }
            "--journal" => opts.journal = Some(value("--journal")?),
            "--max-retries" => {
                opts.max_retries = Some(
                    value("--max-retries")?
                        .parse()
                        .map_err(|_| "invalid `--max-retries` count".to_string())?,
                );
            }
            "--timeout" => {
                let secs: f64 = value("--timeout")?
                    .parse()
                    .map_err(|_| "invalid `--timeout` seconds".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("`--timeout` must be a positive number of seconds".into());
                }
                opts.timeout = Some(secs);
            }
            "--max-memory" => {
                let budget = semsim::core::resource::parse_bytes(&value("--max-memory")?)
                    .map_err(|e| format!("`--max-memory`: {e}"))?;
                if budget == 0 {
                    return Err("`--max-memory` must be positive".into());
                }
                opts.max_memory = Some(budget);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `semsim {cmd}`"));
            }
            path if opts.netlist.is_empty() => opts.netlist = path.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if opts.netlist.is_empty() {
        return Err(format!("`semsim {cmd}` needs a netlist file"));
    }
    Ok(opts)
}

/// Assembles the resilient-batch options implied by the CLI flags.
/// [`BatchOpts::journal`] stays `None` when `--journal` was not given,
/// so the netlist's own `journal` directive can supply the default.
fn batch_opts(opts: &RunOpts, threads: usize) -> BatchOpts {
    let mut retry = RetryPolicy::default();
    if let Some(n) = opts.max_retries {
        retry.max_retries = n;
    }
    BatchOpts {
        par: ParOpts::with_threads(threads),
        retry,
        journal: opts.journal.as_ref().map(std::path::PathBuf::from),
        resume: opts.resume_journal,
        supervisor: opts.timeout.map(|secs| Supervisor {
            wall_clock_budget: Some(secs),
            ..Supervisor::default()
        }),
        ..BatchOpts::default()
    }
}

/// Enforces `--max-memory` before the circuit is compiled: the
/// estimate is a pure function of the declaration counts, so an
/// oversized netlist is refused before its `C⁻¹` store is ever
/// materialised (see [`semsim::core::resource`]).
fn check_memory_budget(
    file: &CircuitFile,
    netlist: &str,
    limit: Option<u64>,
) -> Result<(), String> {
    match limit {
        Some(l) => file
            .resource_estimate()
            .check_budget(l)
            .map_err(|e| format!("{netlist}: {e}")),
        None => Ok(()),
    }
}

/// Prints the batch recovery summary (stderr) when anything other than
/// a clean first-attempt-only run happened.
fn report_batch_recovery(
    counts: &BatchCounts,
    retries: u64,
    discarded_tail_bytes: usize,
    discarded_tail_reason: Option<&str>,
    journal_write_failures: usize,
    first_journal_write_error: Option<&str>,
) {
    if counts.recovered + counts.faulted + counts.skipped + counts.cancelled == 0
        && discarded_tail_bytes == 0
        && journal_write_failures == 0
    {
        return;
    }
    eprintln!(
        "batch: {} ok, {} recovered, {} faulted, {} restored from journal, \
         {} cancelled ({} retry attempt(s))",
        counts.ok, counts.recovered, counts.faulted, counts.skipped, counts.cancelled, retries
    );
    if discarded_tail_bytes > 0 {
        let reason = discarded_tail_reason.unwrap_or("unknown");
        eprintln!("journal: discarded {discarded_tail_bytes} corrupt tail byte(s) ({reason})");
    }
    if journal_write_failures > 0 {
        let detail = first_journal_write_error.unwrap_or("unknown");
        eprintln!(
            "journal: {journal_write_failures} point(s) computed but not journaled \
             ({detail}); results above are complete, but `--resume` will \
             recompute those points"
        );
    }
}

/// Human rendering of a run outcome. A wall-clock timeout must read
/// differently from Coulomb blockade: one says "the budget ran out",
/// the other says "the physics froze".
fn render_outcome(outcome: RunOutcome) -> String {
    match outcome {
        RunOutcome::Completed => "completed".to_string(),
        RunOutcome::Blockaded { time } => {
            format!("Coulomb blockade at t = {time:.3e} s (every tunnel rate is zero)")
        }
        RunOutcome::WallClockExceeded { budget } => {
            format!("timed out (wall-clock budget of {budget} s exhausted before the event target)")
        }
        RunOutcome::EventCapReached { cap } => format!("event cap of {cap} reached"),
    }
}

/// Executes `semsim run`; returns `true` on success.
fn run_file(opts: &RunOpts) -> bool {
    match try_run(opts) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

fn try_run(opts: &RunOpts) -> Result<(), String> {
    let source = std::fs::read_to_string(&opts.netlist)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.netlist))?;
    let file =
        CircuitFile::parse(&source).map_err(|e| format!("{}:{}: {e}", opts.netlist, e.line()))?;
    check_memory_budget(&file, &opts.netlist, opts.max_memory)?;
    let runs = file.jumps.map(|(_, r)| r).unwrap_or(1);
    if runs > 1 && file.sweep.is_none() {
        if opts.checkpoint_every.is_some() || opts.checkpoint.is_some() || opts.resume.is_some() {
            return Err(format!(
                "checkpointing is incompatible with an ensemble run \
                 (`jumps` declares {runs} runs; each replica is its own short trajectory)"
            ));
        }
        return run_ensemble(opts, &file);
    }
    if opts.journal.is_some() || opts.resume_journal || opts.max_retries.is_some() {
        return Err(
            "`--journal`/`--resume` (flag form)/`--max-retries` apply to sweeps and \
             ensembles (`jumps` runs > 1), not to a single trajectory"
                .to_string(),
        );
    }
    let compiled = file
        .compile()
        .map_err(|e| format!("{}: {e}", opts.netlist))?;
    for w in compiled.warnings.iter() {
        eprintln!("warning[{}]: {}", w.code.code(), w.message);
    }
    let cfg = file
        .sim_config()
        .map_err(|e| format!("{}: {e}", opts.netlist))?
        .with_supervisor(Supervisor {
            blockade_is_outcome: true,
            wall_clock_budget: opts.timeout,
            ..Supervisor::default()
        });
    let mut sim = Simulation::new(&compiled.circuit, cfg).map_err(|e| e.to_string())?;

    if let Some(path) = &opts.resume {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        sim.resume(&bytes).map_err(|e| e.to_string())?;
        println!(
            "resumed from {path}: event {} at t = {:.6e} s",
            sim.events(),
            sim.time()
        );
    }

    let target = opts
        .events
        .or(file.jumps.map(|(e, _)| e))
        .unwrap_or(100_000);
    let chunk = opts.checkpoint_every.unwrap_or(target.max(1));
    let checkpoint_path = opts.checkpoint.clone().or_else(|| {
        opts.checkpoint_every
            .map(|_| format!("{}.ckpt", opts.netlist))
    });

    let junction = match &file.record {
        Some(r) => compiled.junction(r.from).map_err(|e| e.to_string())?,
        None => compiled
            .circuit
            .junction_ids()
            .next()
            .ok_or_else(|| "netlist has no junctions".to_string())?,
    };
    let mut duration = 0.0;
    let mut electrons = 0.0;
    let mut outcome = RunOutcome::Completed;
    while sim.events() < target {
        let n = chunk.min(target - sim.events());
        let rec = sim.run(RunLength::Events(n)).map_err(|e| e.to_string())?;
        duration += rec.duration;
        electrons += rec.electron_counts[junction.index()];
        outcome = rec.outcome;
        for d in &rec.degradations {
            eprintln!(
                "degraded: drift {:.3} at event {} (threshold now {:?})",
                d.drift, d.event, d.threshold_after
            );
        }
        if let Some(path) = &checkpoint_path {
            let bytes = sim.checkpoint().map_err(|e| e.to_string())?;
            std::fs::write(path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!(
                "checkpoint: {path} ({} bytes) at event {}",
                bytes.len(),
                sim.events()
            );
        }
        if outcome != RunOutcome::Completed {
            break;
        }
    }

    let current = if duration > 0.0 {
        -E_CHARGE * electrons / duration
    } else {
        0.0
    };
    let health = sim.health_report();
    println!(
        "done: {} events, t = {:.6e} s, outcome: {}",
        sim.events(),
        sim.time(),
        render_outcome(outcome)
    );
    println!("current through recorded junction: {current:.6e} A");
    if health.audits > 0 {
        println!(
            "health: {} audits, worst drift {:.3e}, {} degradation(s)",
            health.audits,
            health.worst_drift,
            health.degradations.len()
        );
    }
    Ok(())
}

/// Runs the file's `jumps` declaration as an independent-replica
/// ensemble over the parallel drivers and prints the merged report.
fn run_ensemble(opts: &RunOpts, file: &CircuitFile) -> Result<(), String> {
    print_lint_warnings(file);
    let mut file = file.clone();
    if let Some(e) = opts.events {
        let runs = file.jumps.map(|(_, r)| r).unwrap_or(1);
        file.jumps = Some((e, runs));
    }
    let threads = if opts.threads == 0 {
        available_threads()
    } else {
        opts.threads
    };
    let report = file
        .execute_ensemble_batch(&batch_opts(opts, threads))
        .map_err(|e| format!("{}: {e}", opts.netlist))?;
    let stats = report.ensemble_stats();
    println!(
        "ensemble: {} replicas on {} thread(s), {} events total",
        report.counts.total(),
        threads,
        stats.total_events
    );
    println!(
        "outcomes: {} completed, {} blockaded, {} wall-clock, {} event-cap",
        report.outcomes.completed,
        report.outcomes.blockaded,
        report.outcomes.wall_clock_exceeded,
        report.outcomes.event_cap_reached
    );
    println!(
        "current through recorded junction: {:.6e} A +/- {:.6e} A",
        stats.mean_current, stats.std_current
    );
    report_batch_recovery(
        &report.counts,
        report.retries,
        report.discarded_tail_bytes,
        report.discarded_tail_reason.as_deref(),
        report.journal_write_failures(),
        report.first_journal_write_error(),
    );
    for p in &report.points {
        if let Some(fault) = &p.fault {
            eprintln!(
                "replica {} faulted after {} attempt(s): {fault}",
                p.task,
                p.attempts.len()
            );
        }
    }
    if report.health.audits > 0 {
        println!(
            "health: {} audits, worst drift {:.3e}, {} degradation(s)",
            report.health.audits,
            report.health.worst_drift,
            report.health.degradations.len()
        );
    }
    Ok(())
}

/// Prints the static-check warnings the batch entry points attach when
/// they compile `file`, without building the circuit here: the execute
/// call does the one build. A file with lint errors prints nothing; its
/// error comes from that build.
fn print_lint_warnings(file: &CircuitFile) {
    let diags = lint_circuit(file);
    if !diags.has_errors() {
        for w in diags.iter() {
            eprintln!("warning[{}]: {}", w.code.code(), w.message);
        }
    }
}

/// Executes `semsim sweep`; returns `true` on success.
fn sweep_file(opts: &RunOpts) -> bool {
    match try_sweep(opts) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

fn try_sweep(opts: &RunOpts) -> Result<(), String> {
    let source = std::fs::read_to_string(&opts.netlist)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.netlist))?;
    let mut file =
        CircuitFile::parse(&source).map_err(|e| format!("{}:{}: {e}", opts.netlist, e.line()))?;
    if file.sweep.is_none() {
        return Err(format!(
            "{}: `semsim sweep` needs a `sweep` declaration in the netlist",
            opts.netlist
        ));
    }
    check_memory_budget(&file, &opts.netlist, opts.max_memory)?;
    print_lint_warnings(&file);
    if let Some(e) = opts.events {
        let runs = file.jumps.map(|(_, r)| r).unwrap_or(1);
        file.jumps = Some((e, runs));
    }
    let threads = if opts.threads == 0 {
        available_threads()
    } else {
        opts.threads
    };
    let report = file
        .execute_batch(&batch_opts(opts, threads))
        .map_err(|e| format!("{}: {e}", opts.netlist))?;
    println!(
        "# {} points on {} thread(s)",
        report.counts.total(),
        threads
    );
    println!("# control_V current_A outcome");
    for p in &report.points {
        println!("{}", point_line(p));
    }
    report_batch_recovery(
        &report.counts,
        report.retries,
        report.discarded_tail_bytes,
        report.discarded_tail_reason.as_deref(),
        report.journal_write_failures(),
        report.first_journal_write_error(),
    );
    Ok(())
}

fn parse_serve_opts(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--port" => {
                let port: u16 = value("--port")?
                    .parse()
                    .map_err(|_| "--port must be 0-65535".to_string())?;
                config.addr = format!("127.0.0.1:{port}");
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?;
                if config.workers == 0 {
                    return Err("--workers must be positive".to_string());
                }
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth must be a positive integer".to_string())?;
                if config.queue_depth == 0 {
                    return Err("--queue-depth must be positive".to_string());
                }
            }
            "--data-dir" => config.data_dir = value("--data-dir")?.into(),
            "--max-job-seconds" => {
                config.max_job_seconds = value("--max-job-seconds")?
                    .parse()
                    .map_err(|_| "--max-job-seconds must be a number".to_string())?;
                if config.max_job_seconds.is_nan()
                    || config.max_job_seconds < 0.0
                    || !config.max_job_seconds.is_finite()
                {
                    return Err("--max-job-seconds must be non-negative and finite".to_string());
                }
            }
            "--max-memory" => {
                config.max_memory = semsim::core::resource::parse_bytes(&value("--max-memory")?)
                    .map_err(|e| format!("`--max-memory`: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(config)
}

struct ChaosCliOpts {
    run: semsim::chaos::ChaosOpts,
    replay: Option<PathBuf>,
}

fn parse_chaos_opts(args: &[String]) -> Result<ChaosCliOpts, String> {
    let mut opts = ChaosCliOpts {
        run: semsim::chaos::ChaosOpts::default(),
        replay: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--campaigns" => {
                opts.run.campaigns = value("--campaigns")?
                    .parse()
                    .map_err(|_| "--campaigns must be a positive integer".to_string())?;
                if opts.run.campaigns == 0 {
                    return Err("--campaigns must be positive".to_string());
                }
            }
            "--seed" => {
                opts.run.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer".to_string())?;
            }
            "--out" => opts.run.out_dir = value("--out")?.into(),
            "--replay" => opts.replay = Some(value("--replay")?.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn chaos_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_chaos_opts(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match &opts.replay {
        Some(path) => semsim::chaos::replay(path),
        None => semsim::chaos::run_campaigns(&opts.run),
    };
    match report {
        Ok(report) => {
            print!("{}", report.log);
            if report.violations == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} chaos campaign(s) violated a recovery invariant{}",
                    report.violations,
                    report.campaigns,
                    if report.repro_files.is_empty() {
                        String::new()
                    } else {
                        format!(" (minimized repros: {})", report.repro_files.join(", "))
                    }
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn serve_cmd(args: &[String]) -> ExitCode {
    let config = match parse_serve_opts(args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match semsim::serve::run(&config) {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn call_cmd(args: &[String]) -> ExitCode {
    let (addr, method, path) = match (args.first(), args.get(1), args.get(2)) {
        (Some(addr), Some(method), Some(path)) => (addr, method, path),
        _ => {
            eprintln!("error: `semsim call` needs <addr> <METHOD> <PATH>\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let body = match args.get(3) {
        None => None,
        Some(file) if file == "-" => {
            let mut text = String::new();
            use std::io::Read as _;
            if let Err(e) = std::io::stdin().read_to_string(&mut text) {
                eprintln!("error: reading stdin: {e}");
                return ExitCode::FAILURE;
            }
            Some(text)
        }
        Some(file) => match std::fs::read_to_string(file) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("error: `{file}`: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut print_chunk = |chunk: &[u8]| {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = out.write_all(chunk);
        let _ = out.flush();
    };
    match semsim::serve::http::fetch(addr, method, path, body.as_deref(), &mut print_chunk) {
        Ok(status) => {
            eprintln!("HTTP {status}");
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `semsim validate` options.
struct ValidateOpts {
    profile: semsim::validate::Profile,
    seed: u64,
    threads: usize,
    json: Option<String>,
    commit: String,
    journal: Option<String>,
    resume: bool,
}

fn parse_validate_opts(args: &[String]) -> Result<ValidateOpts, String> {
    let mut opts = ValidateOpts {
        profile: semsim::validate::Profile::Full,
        seed: 42,
        threads: 0,
        json: None,
        commit: "unknown".to_string(),
        journal: None,
        resume: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match arg.as_str() {
            "--quick" => opts.profile = semsim::validate::Profile::Quick,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid `--seed` value".to_string())?;
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid `--threads` count".to_string())?;
                if n == 0 {
                    return Err("`--threads` must be at least 1".into());
                }
                opts.threads = n;
            }
            "--json" => opts.json = Some(value("--json")?),
            "--commit" => opts.commit = value("--commit")?,
            "--journal" => opts.journal = Some(value("--journal")?),
            "--resume" => opts.resume = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `semsim validate`"));
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if opts.resume && opts.journal.is_none() {
        return Err("`--resume` needs `--journal BASE`".into());
    }
    Ok(opts)
}

/// Executes `semsim validate`.
fn validate_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_validate_opts(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_opts = semsim::validate::RunOptions {
        threads: opts.threads,
        journal: opts.journal.as_ref().map(std::path::PathBuf::from),
        resume: opts.resume,
    };
    let run = match semsim::validate::run_grid(opts.profile, opts.seed, &run_opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The table (stdout) is byte-stable; everything run-specific —
    // restoration counts, file notices — goes to stderr so a resumed
    // run diffs clean against the uninterrupted one.
    print!("{}", semsim::validate::render_table(&run));
    if run.restored() > 0 {
        eprintln!(
            "validate: {} replica(s) restored from journal",
            run.restored()
        );
    }
    if let Some(path) = &opts.json {
        let json = semsim::validate::report_json(&run, &opts.commit);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("validate: wrote {path}");
    }
    if run.all_pass() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} validation point(s) out of tolerance",
            run.failed(),
            run.points.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "lint" => match parse_lint_opts(rest) {
            Ok(opts) => lint_files(&opts),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "json-verify" => json_verify(rest),
        Some((cmd, rest)) if cmd == "run" => match parse_run_opts("run", rest) {
            Ok(opts) => {
                if run_file(&opts) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "sweep" => match parse_run_opts("sweep", rest) {
            Ok(opts) => {
                if sweep_file(&opts) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "serve" => serve_cmd(rest),
        Some((cmd, rest)) if cmd == "chaos" => chaos_cmd(rest),
        Some((cmd, rest)) if cmd == "call" => call_cmd(rest),
        Some((cmd, rest)) if cmd == "validate" => validate_cmd(rest),
        Some((cmd, _)) => {
            eprintln!("error: unknown subcommand `{cmd}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
