//! # semsim-chaos — deterministic cross-layer fault campaigns
//!
//! The robustness contracts of PRs 4–8 (retry ladders, journal
//! salvage, serve restart, admission control) are each tested where
//! they live; this crate tests their *composition*. A **campaign**
//! seeds a small canonical sweep, injects one to three faults across
//! layers — engine rate poisons, batch worker panics, journal
//! disk-full tears, on-disk truncation and bit rot, kill-and-resume
//! cuts, cooperative cancels, daemon crash-restarts, queue saturation
//! — heals, and checks three invariants:
//!
//! * **(a)** recovery never changes the answer: byte identity with the
//!   clean run wherever the contracts promise it, run-to-run
//!   determinism everywhere (reseeding recoveries included);
//! * **(b)** every run terminates in a documented state — no escaped
//!   panic, every point in a documented [`PointStatus`] with the
//!   fields that status promises, every serve job in a documented
//!   phase;
//! * **(c)** a journal on disk always either scans (possibly with a
//!   diagnosed discarded tail) or is rejected with a structured
//!   reason — never a crash, never silent acceptance of garbage.
//!
//! Campaigns are a pure function of `(master seed, index)` through
//! [`semsim_core::rng::split_seed`], so the campaign log is
//! byte-identical across machines — CI runs the suite twice and diffs.
//! A failing campaign is greedily minimized (any single fault whose
//! removal keeps the failure is dropped) and written to
//! `results/chaos_repro_*.json`; `semsim chaos --replay FILE` re-runs
//! exactly that campaign.
//!
//! The runner needs the `fault-inject` feature (it scripts faults
//! through `semsim_core::batch::BatchFaultPlan`); without it the
//! entry points return an error explaining how to get a chaos-capable
//! build. The `known-bug` feature plants one deliberate recovery bug
//! so CI can prove the harness catches and minimizes real defects.
//!
//! [`PointStatus`]: semsim_core::batch::PointStatus

#![forbid(unsafe_code)]

use std::path::PathBuf;

pub mod scenario;

#[cfg(feature = "fault-inject")]
mod campaign;
#[cfg(feature = "fault-inject")]
mod driver;
#[cfg(feature = "fault-inject")]
mod serve_chaos;

pub use scenario::{Campaign, Fault, Scenario};

/// Options of a campaign run.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// How many campaigns to generate and run.
    pub campaigns: u64,
    /// Master seed; campaigns are a pure function of it.
    pub seed: u64,
    /// Where minimized repro files are written (created on demand).
    pub out_dir: PathBuf,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            campaigns: 200,
            seed: 1,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Outcome of a campaign run (or a single replay).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The deterministic campaign log (one line per campaign plus a
    /// header and summary; no paths, no timings).
    pub log: String,
    /// Campaigns executed.
    pub campaigns: u64,
    /// Campaigns that violated an invariant.
    pub violations: u64,
    /// Repro file names written into the output directory.
    pub repro_files: Vec<String>,
}

#[cfg(feature = "fault-inject")]
pub use driver::{replay, run_campaigns};

/// Stub: chaos campaigns script faults through the fault-inject hooks.
///
/// # Errors
///
/// Always — rebuild with `--features fault-inject`.
#[cfg(not(feature = "fault-inject"))]
pub fn run_campaigns(_opts: &ChaosOpts) -> Result<ChaosReport, String> {
    Err(FEATURE_HINT.to_string())
}

/// Stub: chaos replay needs the fault-inject hooks.
///
/// # Errors
///
/// Always — rebuild with `--features fault-inject`.
#[cfg(not(feature = "fault-inject"))]
pub fn replay(_path: &std::path::Path) -> Result<ChaosReport, String> {
    Err(FEATURE_HINT.to_string())
}

#[cfg(not(feature = "fault-inject"))]
const FEATURE_HINT: &str = "chaos campaigns need a fault-inject build: \
    rerun with `cargo run --features fault-inject -- chaos ...`";
