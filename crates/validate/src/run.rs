//! Executes the validation grid.
//!
//! SET points run as independent-replica ensembles through the
//! resilient batch layer ([`semsim_core::batch::batch_ensemble`]), so
//! `--journal`/`--resume` crash-safety comes from the same SEMSIMJL
//! machinery as `semsim sweep` — a resumed validation run restores
//! finished replicas instead of recomputing them and renders a
//! byte-identical table. Logic points are plain deterministic reruns
//! (their per-seed delays are cheap relative to the ensembles and need
//! no journal to reproduce bit-for-bit).
//!
//! Everything runs on the deterministic parallel drivers: the table is
//! bit-identical for every `--threads` value.

use std::path::{Path, PathBuf};

use semsim_core::batch::{batch_ensemble, BatchOpts};
use semsim_core::constants::{thermal_energy, E_CHARGE};
use semsim_core::engine::{RunLength, SimConfig, SolverSpec};
use semsim_core::par::{available_threads, par_indexed, ParOpts};
use semsim_core::superconduct::gap_at;
use semsim_logic::{elaborate, measure_delay_avg, SetLogicParams};
use semsim_spice::SetModel;

use semsim_bench::devices::symmetric_set;

use crate::grid::{GridPoint, LogicPoint, Profile, Reference, SetPoint};
use crate::tolerance;

/// Adaptive-solver threshold θ used across the grid (the paper's
/// operating point, matching the hotpath and Fig. 6/7 harnesses).
pub const THETA: f64 = 0.05;

/// Full-refresh interval for the two-junction SET points.
const SET_REFRESH: u64 = 500;

/// Seed decorrelation offset between the adaptive ensemble and its
/// non-adaptive reference ensemble (an arbitrary odd 64-bit constant;
/// the two ensembles must not share replica seeds).
const REFERENCE_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Execution options for [`run_grid`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads; 0 = available parallelism. Cannot change
    /// results.
    pub threads: usize,
    /// Base path for the crash-safe journals. Point `i` journals its
    /// adaptive ensemble to `<base>.p<i>` and (for an exact-MC
    /// reference) the reference ensemble to `<base>.p<i>r`.
    pub journal: Option<PathBuf>,
    /// Restore journaled replicas instead of recomputing them.
    pub resume: bool,
}

/// One validated grid point, with everything needed to restate its
/// tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Point name (unique within the grid).
    pub name: String,
    /// Reference kind tag (`analytic` / `nonadaptive-mc`).
    pub kind: &'static str,
    /// Observable tag (`current_A` / `delay_s`).
    pub observable: &'static str,
    /// Adaptive-engine estimate.
    pub measured: f64,
    /// Standard error of the adaptive estimate (`σ/√n`).
    pub sem_measured: f64,
    /// Reference value.
    pub reference: f64,
    /// Standard error of the reference (0 for the analytic model).
    pub sem_reference: f64,
    /// Stated tolerance multiplier.
    pub z: f64,
    /// Stated absolute tolerance floor.
    pub floor: f64,
    /// Replicas restored from a journal instead of recomputed.
    pub restored: usize,
}

impl PointResult {
    /// The stated tolerance: `z·√(sem_m² + sem_r²) + floor`.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        tolerance::tolerance(self.z, self.sem_measured, self.sem_reference, self.floor)
    }

    /// Absolute measured-vs-reference discrepancy.
    #[must_use]
    pub fn abs_diff(&self) -> f64 {
        (self.measured - self.reference).abs()
    }

    /// Whether the point is within tolerance.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.abs_diff() <= self.tolerance()
    }
}

/// A finished validation run.
#[derive(Debug, Clone)]
pub struct ValidationRun {
    /// Which grid profile ran.
    pub profile: Profile,
    /// The base seed the per-point seeds were derived from.
    pub base_seed: u64,
    /// Per-point results, in grid order.
    pub points: Vec<PointResult>,
}

impl ValidationRun {
    /// Points within tolerance.
    #[must_use]
    pub fn passed(&self) -> usize {
        self.points.iter().filter(|p| p.pass()).count()
    }

    /// Points out of tolerance.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.points.len() - self.passed()
    }

    /// Whether every point passed.
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.failed() == 0
    }

    /// Total replicas restored from journals across all points.
    #[must_use]
    pub fn restored(&self) -> usize {
        self.points.iter().map(|p| p.restored).sum()
    }
}

/// Runs the declared grid for `profile` (seeds derived from
/// `base_seed`).
///
/// # Errors
///
/// Returns a message naming the failing point when a simulation cannot
/// be built or no replica of a point produced a measurement.
pub fn run_grid(
    profile: Profile,
    base_seed: u64,
    opts: &RunOptions,
) -> Result<ValidationRun, String> {
    let points = run_points(&crate::grid::grid(profile, base_seed), opts)?;
    Ok(ValidationRun {
        profile,
        base_seed,
        points,
    })
}

/// Runs an explicit list of grid points (the harness's own tests use
/// this to validate deliberately perturbed devices).
///
/// # Errors
///
/// As [`run_grid`].
pub fn run_points(points: &[GridPoint], opts: &RunOptions) -> Result<Vec<PointResult>, String> {
    let threads = if opts.threads == 0 {
        available_threads()
    } else {
        opts.threads
    };
    points
        .iter()
        .enumerate()
        .map(|(idx, p)| match p {
            GridPoint::Set(s) => run_set_point(idx, s, threads, opts),
            GridPoint::Logic(l) => run_logic_point(l, threads),
        })
        .collect()
}

/// Journal path of point `idx`: `<base>.p<idx><suffix>`.
fn journal_path(base: &Path, idx: usize, suffix: &str) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".p{idx:02}{suffix}"));
    PathBuf::from(name)
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn run_set_point(
    idx: usize,
    p: &SetPoint,
    threads: usize,
    opts: &RunOptions,
) -> Result<PointResult, String> {
    let dev = symmetric_set(p.device.r, p.device.c, p.device.cg, p.device.qb)
        .map_err(|e| format!("{}: cannot build device: {e}", p.name))?;

    let mk_cfg = |solver: SolverSpec, seed: u64| {
        let mut cfg = SimConfig::new(p.temperature)
            .with_seed(seed)
            .with_solver(solver);
        if let Some(sc) = p.superconducting {
            // The engine sizes its quasi-particle rate table from the
            // lead voltages at construction time, but the batch layer
            // applies the bias in the per-replica setup closure — so
            // state the energy range explicitly (the engine's own
            // formula, with the *applied* voltage scale).
            let gap = gap_at(&sc, p.temperature);
            let kt = thermal_energy(p.temperature);
            let csig = 2.0 * p.device.c + p.device.cg;
            let ec = E_CHARGE * E_CHARGE / (2.0 * csig);
            let v_scale = (p.vds / 2.0).abs().max(p.vg.abs()).max(10e-3);
            let w_max = 4.0 * gap + 40.0 * kt + 8.0 * ec + 4.0 * E_CHARGE * v_scale;
            cfg = cfg.with_superconducting(sc).with_qp_table_range(w_max);
        }
        cfg
    };

    let run_side = |cfg: &SimConfig, suffix: &str| {
        let bopts = BatchOpts {
            par: ParOpts::with_threads(threads),
            journal: opts.journal.as_ref().map(|b| journal_path(b, idx, suffix)),
            resume: opts.resume,
            ..BatchOpts::default()
        };
        let report = batch_ensemble(
            &dev.circuit,
            cfg,
            dev.j1,
            p.replicas,
            p.warmup,
            RunLength::Events(p.events),
            &bopts,
            |sim, _replica, _attempt| {
                sim.set_lead_voltage(dev.source_lead, p.vds / 2.0)?;
                sim.set_lead_voltage(dev.drain_lead, -p.vds / 2.0)?;
                sim.set_lead_voltage(dev.gate_lead, p.vg)
            },
        )
        .map_err(|e| format!("{}: {e}", p.name))?;
        let stats = report.ensemble_stats();
        if stats.measured == 0 {
            return Err(format!("{}: no replica produced a measurement", p.name));
        }
        Ok((stats, report.counts.skipped))
    };

    let adaptive = mk_cfg(
        SolverSpec::Adaptive {
            threshold: THETA,
            refresh_interval: SET_REFRESH,
        },
        p.seed,
    );
    let (stats, restored) = run_side(&adaptive, "")?;

    let (reference, sem_reference, ref_restored) = match p.reference {
        Reference::Analytic => {
            let model = SetModel::symmetric(p.model.r, p.model.c, p.model.cg, p.temperature)
                .with_background_charge(p.model.qb);
            (model.drain_current(p.vds / 2.0, -p.vds / 2.0, p.vg), 0.0, 0)
        }
        Reference::NonAdaptiveMc => {
            let exact = mk_cfg(
                SolverSpec::NonAdaptive,
                p.seed.wrapping_add(REFERENCE_SEED_OFFSET),
            );
            let (ref_stats, ref_restored) = run_side(&exact, "r")?;
            (
                ref_stats.mean_current,
                ref_stats.sem_current(),
                ref_restored,
            )
        }
    };

    Ok(PointResult {
        name: p.name.clone(),
        kind: p.reference.tag(),
        observable: "current_A",
        measured: stats.mean_current,
        sem_measured: stats.sem_current(),
        reference,
        sem_reference,
        z: p.z,
        floor: p.floor,
        restored: restored + ref_restored,
    })
}

fn run_logic_point(p: &LogicPoint, threads: usize) -> Result<PointResult, String> {
    let logic = p.benchmark.logic();
    let params = SetLogicParams::default();
    let elab = elaborate(&logic, &params)
        .map_err(|e| format!("{}: cannot elaborate benchmark: {e}", p.name))?;
    let output = p.benchmark.delay_output();
    // Full-refresh interval scales with circuit size, the Fig. 6/7
    // policy.
    let refresh_interval = 1_000u64.max(4 * elab.circuit.num_islands() as u64);

    let run = |solver: SolverSpec, seed: u64| -> Option<f64> {
        let cfg = SimConfig::new(params.temperature)
            .with_seed(seed)
            .with_solver(solver);
        measure_delay_avg(
            &elab,
            &logic,
            &cfg,
            output,
            p.settle_factor,
            p.window_factor,
            p.transitions,
        )
        .ok()
        .map(|m| m.delay)
    };

    let popts = ParOpts::with_threads(threads);
    let adaptive: Vec<f64> = par_indexed(p.seeds, popts, |s| {
        run(
            SolverSpec::Adaptive {
                threshold: THETA,
                refresh_interval,
            },
            p.seed + s as u64,
        )
    })
    .into_iter()
    .flatten()
    .collect();
    // The Fig. 7 seed convention: the reference uses seed + 100 + i.
    let reference: Vec<f64> = par_indexed(p.seeds, popts, |s| {
        run(SolverSpec::NonAdaptive, p.seed + 100 + s as u64)
    })
    .into_iter()
    .flatten()
    .collect();
    if adaptive.is_empty() || reference.is_empty() {
        return Err(format!(
            "{}: no delay measured (adaptive {}/{}, reference {}/{})",
            p.name,
            adaptive.len(),
            p.seeds,
            reference.len(),
            p.seeds
        ));
    }

    let (m_mean, m_std) = mean_std(&adaptive);
    let (r_mean, r_std) = mean_std(&reference);
    Ok(PointResult {
        name: p.name.clone(),
        kind: Reference::NonAdaptiveMc.tag(),
        observable: "delay_s",
        measured: m_mean,
        sem_measured: tolerance::sem(m_std, adaptive.len()),
        reference: r_mean,
        sem_reference: tolerance::sem(r_std, reference.len()),
        z: p.z,
        floor: p.floor,
        restored: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_result_tolerance_and_pass() {
        let mut p = PointResult {
            name: "x".into(),
            kind: "analytic",
            observable: "current_A",
            measured: 1.0e-9,
            sem_measured: 1.0e-11,
            reference: 1.02e-9,
            sem_reference: 0.0,
            z: 4.0,
            floor: 2e-12,
            restored: 0,
        };
        // tol = 4·1e-11 + 2e-12 = 4.2e-11 ≥ |diff| = 2e-11.
        assert!(p.pass());
        p.reference = 1.2e-9;
        assert!(!p.pass());
    }

    #[test]
    fn journal_paths_are_distinct_per_point_and_side() {
        let base = Path::new("/tmp/v.jl");
        let a = journal_path(base, 0, "");
        let r = journal_path(base, 0, "r");
        let b = journal_path(base, 1, "");
        assert_ne!(a, r);
        assert_ne!(a, b);
        assert!(a.to_string_lossy().ends_with("v.jl.p00"));
        assert!(r.to_string_lossy().ends_with("v.jl.p00r"));
    }
}
