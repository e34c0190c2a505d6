//! The campaign driver: generate → run → (on violation) minimize →
//! write a replayable repro. The log it builds contains no paths,
//! timings, or machine facts, so two runs with the same seed produce
//! byte-identical logs — that identity is itself asserted in CI.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use semsim_check::{parse_json, Json};

use crate::scenario::{Campaign, Fault, Scenario};
use crate::{campaign, serve_chaos, ChaosOpts, ChaosReport};

/// Runs one campaign; `Err` is the violation reason.
fn run_campaign(c: &Campaign, scratch: &Path) -> Result<(), String> {
    match &c.scenario {
        Scenario::Batch { faults } => campaign::run_batch_campaign(c, faults, scratch),
        Scenario::ServeRestart { cut_points } => {
            serve_chaos::run_restart(c.sim_seed, *cut_points, c.index)
        }
        Scenario::ServeSaturate => serve_chaos::run_saturate(c.sim_seed, c.index),
    }
}

/// Greedy one-fault-removal minimization: repeatedly drop any single
/// fault whose removal keeps the campaign failing, until no single
/// removal does. Only batch campaigns have anything to remove.
fn minimize(c: &Campaign, scratch: &Path) -> (Campaign, String) {
    let Scenario::Batch { faults } = &c.scenario else {
        let reason = run_campaign(c, scratch)
            .err()
            .unwrap_or_else(|| "violation did not reproduce".to_string());
        return (c.clone(), reason);
    };
    let mut kept = faults.clone();
    let mut reason = String::new();
    loop {
        let mut removed = false;
        for i in 0..kept.len() {
            if kept.len() == 1 {
                break;
            }
            let mut candidate = kept.clone();
            candidate.remove(i);
            let cc = Campaign {
                scenario: Scenario::Batch {
                    faults: candidate.clone(),
                },
                ..c.clone()
            };
            if let Err(r) = run_campaign(&cc, scratch) {
                kept = candidate;
                reason = r;
                removed = true;
                break;
            }
        }
        if !removed {
            break;
        }
    }
    if reason.is_empty() {
        let cc = Campaign {
            scenario: Scenario::Batch {
                faults: kept.clone(),
            },
            ..c.clone()
        };
        reason = run_campaign(&cc, scratch)
            .err()
            .unwrap_or_else(|| "violation did not reproduce".to_string());
    }
    (
        Campaign {
            scenario: Scenario::Batch { faults: kept },
            ..c.clone()
        },
        reason,
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a (minimized) violating campaign as a replayable repro.
fn repro_json(c: &Campaign, master_seed: u64, reason: &str) -> String {
    let mut out = String::from("{\n  \"schema\": \"semsim-chaos-repro\",\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"campaign\": {},", c.index);
    let _ = writeln!(out, "  \"master_seed\": {master_seed},");
    // Hex string, not a JSON number: 64-bit seeds are not exactly
    // representable as f64 and must round-trip bit-for-bit.
    let _ = writeln!(out, "  \"sim_seed\": \"{:016x}\",", c.sim_seed);
    let _ = writeln!(out, "  \"reason\": \"{}\",", json_escape(reason));
    match &c.scenario {
        Scenario::Batch { faults } => {
            out.push_str("  \"scenario\": \"batch\",\n  \"faults\": [\n");
            for (i, f) in faults.iter().enumerate() {
                let sep = if i + 1 == faults.len() { "" } else { "," };
                let _ = writeln!(out, "    {}{sep}", f.to_json());
            }
            out.push_str("  ]\n");
        }
        Scenario::ServeRestart { cut_points } => {
            let _ = write!(
                out,
                "  \"scenario\": \"serve_restart\",\n  \"cut_points\": {cut_points}\n"
            );
        }
        Scenario::ServeSaturate => out.push_str("  \"scenario\": \"serve_saturate\"\n"),
    }
    out.push_str("}\n");
    out
}

fn num_field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_number)
        .map(|n| n as u64)
        .ok_or_else(|| format!("repro file is missing numeric field `{key}`"))
}

fn fault_from_json(j: &Json) -> Result<Fault, String> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "fault without a `kind`".to_string())?;
    let num = |key: &str| num_field(j, key);
    Ok(match kind {
        "panic_at" => Fault::PanicAt {
            task: num("task")? as usize,
            event: num("event")?,
        },
        "poison_rate" => Fault::PoisonRate {
            task: num("task")? as usize,
            event: num("event")?,
            junction: num("junction")? as usize,
        },
        "persistent_poison" => Fault::PersistentPoison {
            task: num("task")? as usize,
            event: num("event")?,
            junction: num("junction")? as usize,
        },
        "journal_full_after" => Fault::JournalFullAfter {
            appends: num("appends")?,
            torn_bytes: num("torn_bytes")? as usize,
        },
        "torn_tail" => Fault::TornTail {
            drop_bytes: num("drop_bytes")? as usize,
        },
        "bit_rot" => Fault::BitRot {
            offset_back: num("offset_back")? as usize,
        },
        "kill_after" => Fault::KillAfter {
            keep_records: num("keep_records")? as usize,
            torn_bytes: num("torn_bytes")? as usize,
        },
        "cancel_at" => Fault::CancelAt {
            task: num("task")? as usize,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    })
}

/// Parses a `chaos_repro_*.json` file back into a campaign.
fn parse_repro(text: &str) -> Result<Campaign, String> {
    let json = parse_json(text).map_err(|e| format!("repro file is not JSON: {e}"))?;
    match json.get("schema").and_then(Json::as_str) {
        Some("semsim-chaos-repro") => {}
        other => return Err(format!("not a chaos repro (schema {other:?})")),
    }
    if num_field(&json, "version")? != 1 {
        return Err("unsupported repro version".to_string());
    }
    let scenario = match json.get("scenario").and_then(Json::as_str) {
        Some("batch") => {
            let faults = match json.get("faults") {
                Some(Json::Array(items)) => items
                    .iter()
                    .map(fault_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("batch repro without a `faults` array".to_string()),
            };
            if faults.is_empty() {
                return Err("batch repro with an empty fault list".to_string());
            }
            Scenario::Batch { faults }
        }
        Some("serve_restart") => Scenario::ServeRestart {
            cut_points: num_field(&json, "cut_points")?,
        },
        Some("serve_saturate") => Scenario::ServeSaturate,
        other => return Err(format!("unknown scenario {other:?}")),
    };
    let sim_seed = json
        .get("sim_seed")
        .and_then(Json::as_str)
        .ok_or_else(|| "repro file is missing the `sim_seed` hex string".to_string())
        .and_then(|s| {
            u64::from_str_radix(s, 16).map_err(|_| format!("`sim_seed` is not a hex u64: `{s}`"))
        })?;
    Ok(Campaign {
        index: num_field(&json, "campaign")?,
        sim_seed,
        scenario,
    })
}

/// A scratch directory private to one `run_campaigns`/`replay` call —
/// process id plus a per-process counter — so concurrent runs in one
/// process (the crate's tests) never share or delete each other's
/// journals.
fn scratch_root() -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("semsim_chaos_{}_{call}", std::process::id()))
}

/// Flattens a violation reason to one log line (logs are diffed
/// byte-for-byte in CI, so they must stay line-structured).
fn one_line(reason: &str) -> String {
    reason.replace('\n', " | ")
}

/// Silences the default panic hook for the duration of a run: scripted
/// `panic_at` faults are *supposed* to panic, and their hook output
/// would spray misleading backtraces over stderr. Escaped panics are
/// still detected — the campaign runner converts them to violations.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn install() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Runs `opts.campaigns` campaigns; see the crate docs for the
/// invariants. Violations are minimized and written to
/// `opts.out_dir/chaos_repro_c<index>.json`.
///
/// # Errors
///
/// Only infrastructure failures (unwritable output directory) error;
/// invariant violations are reported in the [`ChaosReport`].
pub fn run_campaigns(opts: &ChaosOpts) -> Result<ChaosReport, String> {
    let mut log = format!(
        "chaos: master seed {}, {} campaign(s)\n",
        opts.seed, opts.campaigns
    );
    let mut violations = 0;
    let mut repro_files = Vec::new();
    let root = scratch_root();
    let _quiet = QuietPanics::install();
    for index in 0..opts.campaigns {
        let c = Campaign::generate(opts.seed, index);
        let scratch = root.join(format!("c{index}"));
        let verdict = run_campaign(&c, &scratch);
        match verdict {
            Ok(()) => {
                let _ = writeln!(
                    log,
                    "campaign {index:04} seed={:016x} {} verdict=ok",
                    c.sim_seed, c.scenario
                );
            }
            Err(first_reason) => {
                violations += 1;
                let (minimized, reason) = minimize(&c, &scratch);
                let file = format!("chaos_repro_c{index:04}.json");
                std::fs::create_dir_all(&opts.out_dir)
                    .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
                std::fs::write(
                    opts.out_dir.join(&file),
                    repro_json(&minimized, opts.seed, &reason),
                )
                .map_err(|e| format!("cannot write repro {file}: {e}"))?;
                let _ = writeln!(
                    log,
                    "campaign {index:04} seed={:016x} {} verdict=VIOLATION reason={} \
                     minimized=[{}] repro={file}",
                    c.sim_seed,
                    c.scenario,
                    one_line(&first_reason),
                    match &minimized.scenario {
                        Scenario::Batch { faults } => faults
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", "),
                        other => other.to_string(),
                    },
                );
                repro_files.push(file);
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = writeln!(
        log,
        "chaos: {} campaign(s), {violations} violation(s)",
        opts.campaigns
    );
    Ok(ChaosReport {
        log,
        campaigns: opts.campaigns,
        violations,
        repro_files,
    })
}

/// Replays one repro file: re-runs exactly the recorded campaign and
/// reports whether the violation still reproduces.
///
/// # Errors
///
/// Unreadable or malformed repro files.
pub fn replay(path: &Path) -> Result<ChaosReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let c = parse_repro(&text)?;
    let scratch = scratch_root().join(format!("replay_c{}", c.index));
    let _quiet = QuietPanics::install();
    let verdict = run_campaign(&c, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut log = format!(
        "chaos replay: campaign {:04} seed={:016x} {}\n",
        c.index, c.sim_seed, c.scenario
    );
    let violations = match verdict {
        Ok(()) => {
            log.push_str("verdict=ok (the recorded violation no longer reproduces)\n");
            0
        }
        Err(reason) => {
            let _ = writeln!(log, "verdict=VIOLATION reason={}", one_line(&reason));
            1
        }
    };
    Ok(ChaosReport {
        log,
        campaigns: 1,
        violations,
        repro_files: Vec::new(),
    })
}
