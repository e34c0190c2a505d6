//! Fault-injection tests (only built with `--features fault-inject`):
//! each scripted fault class must be caught by the specific recovery
//! path the runtime promises for it — NaN poison by the point-of-
//! production health guard, stale adaptive caches by the drift audit's
//! flush-and-tighten degradation, and a failed refresh by the guard
//! inside the resync itself.

#![cfg(feature = "fault-inject")]

use semsim::core::batch::{
    batch_sweep, BatchFaultPlan, BatchOpts, BatchReport, PointStatus, RecoveryAction, RetryPolicy,
};
use semsim::core::circuit::{Circuit, CircuitBuilder};
use semsim::core::engine::{RunLength, SimConfig, Simulation, SolverSpec, SweepPoint};
use semsim::core::health::{FaultPlan, FaultStage, RunOutcome};
use semsim::core::journal::corrupt_journal_tail;
use semsim::core::par::ParOpts;
use semsim::core::CoreError;

/// A conducting SET biased at the charge degeneracy point: both
/// junctions tunnel at a healthy rate, so every fault site is hot.
fn conducting_set() -> Circuit {
    let mut b = CircuitBuilder::new();
    let src = b.add_lead(20e-3);
    let drn = b.add_lead(-20e-3);
    let island = b.add_island_with_charge(0.5);
    b.add_junction(src, island, 1e6, 1e-18).unwrap();
    b.add_junction(island, drn, 1e6, 1e-18).unwrap();
    b.build().unwrap()
}

/// Runs a 6-point I–V batch over the conducting SET with the scripted
/// fault plan armed in every attempt's setup.
fn batch_iv(cfg: &SimConfig, opts: &BatchOpts, plan: &BatchFaultPlan) -> BatchReport<SweepPoint> {
    let circuit = conducting_set();
    let junction = circuit.junction_ids().next().unwrap();
    let controls: Vec<f64> = (0..6).map(|i| 5e-3 * (i as f64 + 1.0)).collect();
    batch_sweep(
        &circuit,
        cfg,
        junction,
        &controls,
        200,
        1500,
        opts,
        |sim, v, spec| {
            plan.arm(sim, spec);
            sim.set_lead_voltage(1, v)?;
            sim.set_lead_voltage(2, -v)
        },
    )
    .unwrap()
}

#[test]
fn injected_panic_recovers_bit_identically_to_the_clean_run() {
    // A panic on the initial attempt reruns with the identical seed
    // (RerunSame — the transient-crash assumption), so the recovered
    // batch equals the fault-free one bit for bit, at any thread count.
    let cfg = SimConfig::new(5.0).with_seed(42);
    let clean = batch_iv(&cfg, &BatchOpts::default(), &BatchFaultPlan::new());
    assert!(clean.is_complete());
    assert_eq!(clean.retries, 0);
    for threads in [1, 2, 4] {
        let opts = BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        };
        let plan = BatchFaultPlan::new().panic_at(2, 300);
        let report = batch_iv(&cfg, &opts, &plan);
        assert_eq!(report.counts.recovered, 1, "threads = {threads}");
        let p = &report.points[2];
        assert_eq!(p.status, PointStatus::Recovered { attempts: 2 });
        assert_eq!(p.attempts[1].action, RecoveryAction::RerunSame);
        assert_eq!(p.attempts[0].seed, p.attempts[1].seed);
        let fault = p.attempts[0].fault.as_deref().unwrap();
        assert!(fault.contains("injected fault: panic"), "{fault}");
        assert_eq!(
            report.values().unwrap(),
            clean.values().unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn transient_poison_recovery_reseeds_and_spares_siblings() {
    let cfg = SimConfig::new(5.0).with_seed(42);
    let clean = batch_iv(&cfg, &BatchOpts::default(), &BatchFaultPlan::new());
    let plan = BatchFaultPlan::new().poison_rate(1, 100, 0);
    let first = batch_iv(&cfg, &BatchOpts::default(), &plan);
    let p = &first.points[1];
    assert_eq!(p.status, PointStatus::Recovered { attempts: 2 });
    assert_eq!(p.attempts[1].action, RecoveryAction::ReseedTightened);
    assert_ne!(
        p.attempts[0].seed, p.attempts[1].seed,
        "a numerical fault must not rerun the same trajectory"
    );
    // Siblings are untouched by the neighbour's recovery.
    for (i, (got, want)) in first.points.iter().zip(&clean.points).enumerate() {
        if i != 1 {
            assert_eq!(got.item, want.item, "sibling {i} drifted");
        }
    }
    // The recovery itself is deterministic: any thread count reproduces
    // the single-threaded recovered batch bit for bit.
    for threads in [2, 4] {
        let opts = BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        };
        let report = batch_iv(&cfg, &opts, &plan);
        assert_eq!(
            report.values().unwrap(),
            first.values().unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn persistent_poison_is_rescued_by_the_solver_fallback() {
    // The poison fires in every adaptive attempt; only the final
    // non-adaptive fallback attempt escapes it.
    let cfg = SimConfig::new(5.0)
        .with_seed(42)
        .with_solver(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 2_000,
        });
    let plan = BatchFaultPlan::new().persistent_poison(3, 100, 0);
    let report = batch_iv(&cfg, &BatchOpts::default(), &plan);
    let p = &report.points[3];
    assert_eq!(p.status, PointStatus::Recovered { attempts: 3 });
    assert_eq!(p.attempts[2].action, RecoveryAction::SolverFallback);
    assert!(p.item.is_some());
    assert!(report.is_complete());
    assert_eq!(report.counts.recovered, 1);
}

#[test]
fn exhausted_ladder_faults_the_point_and_salvages_the_rest() {
    let cfg = SimConfig::new(5.0).with_seed(42);
    let clean = batch_iv(&cfg, &BatchOpts::default(), &BatchFaultPlan::new());
    let opts = BatchOpts {
        retry: RetryPolicy {
            max_retries: 2,
            solver_fallback: false,
        },
        ..BatchOpts::default()
    };
    let plan = BatchFaultPlan::new().persistent_poison(4, 100, 0);
    let report = batch_iv(&cfg, &opts, &plan);
    let p = &report.points[4];
    assert_eq!(p.status, PointStatus::Faulted);
    assert_eq!(p.attempts.len(), 3, "initial + 2 retries");
    assert!(p.item.is_none());
    assert!(p.fault.is_some());
    assert!(!report.is_complete());
    assert!(report.values().is_none());
    assert_eq!(report.counts.faulted, 1);
    assert_eq!(report.counts.ok, 5);
    // Every sibling still carries the clean value — partial salvage.
    for (i, (got, want)) in report.points.iter().zip(&clean.points).enumerate() {
        if i != 4 {
            assert_eq!(got.item, want.item, "sibling {i} drifted");
        }
    }
}

#[test]
fn corrupted_journal_tail_is_discarded_and_resume_stays_exact() {
    let path = std::env::temp_dir().join(format!("semsim_fault_journal_{}.jl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = SimConfig::new(5.0).with_seed(42);
    let opts = BatchOpts {
        par: ParOpts::with_threads(1),
        journal: Some(path.clone()),
        ..BatchOpts::default()
    };
    let reference = batch_iv(&cfg, &opts, &BatchFaultPlan::new());
    assert!(reference.is_complete());

    corrupt_journal_tail(&path).unwrap();
    let opts = BatchOpts {
        par: ParOpts::with_threads(1),
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    };
    let resumed = batch_iv(&cfg, &opts, &BatchFaultPlan::new());
    assert!(resumed.discarded_tail_bytes > 0, "tail rot went unnoticed");
    assert_eq!(resumed.counts.skipped, 5, "only the rotted record re-runs");
    assert_eq!(resumed.values().unwrap(), reference.values().unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn poisoned_rate_is_caught_by_production_guard() {
    let circuit = conducting_set();
    let mut sim = Simulation::new(&circuit, SimConfig::new(5.0).with_seed(7)).unwrap();
    sim.inject_faults(FaultPlan::new().poison_rate(50, 0));
    let err = sim.run(RunLength::Events(5_000)).unwrap_err();
    match err {
        CoreError::NumericalFault {
            stage,
            junction,
            value,
        } => {
            assert_eq!(stage, FaultStage::TunnelRate);
            assert_eq!(junction, Some(0));
            assert!(value.is_nan(), "guard saw {value}, expected NaN");
        }
        other => panic!("expected NumericalFault, got {other:?}"),
    }
    // The fault surfaced promptly: the non-adaptive solver rewrites
    // every rate each event, so the poison cannot hide past the event
    // after it was armed.
    assert!(sim.events() >= 50 && sim.events() <= 52, "{}", sim.events());
}

#[test]
fn poisoned_rate_is_caught_under_adaptive_solver_too() {
    let cfg = SimConfig::new(5.0)
        .with_seed(7)
        .with_solver(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 2_000,
        });
    let circuit = conducting_set();
    let mut sim = Simulation::new(&circuit, cfg).unwrap();
    sim.inject_faults(FaultPlan::new().poison_rate(50, 1));
    let err = sim.run(RunLength::Events(5_000)).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::NumericalFault {
                stage: FaultStage::TunnelRate,
                junction: Some(1),
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
}

#[test]
fn corrupted_cache_is_caught_by_drift_audit() {
    // Silence junction 0's testing gate (cached |ΔW'| scaled by 1e6) so
    // its rates go stale while the island charge keeps toggling. The
    // periodic drift audit must notice, flush the caches, tighten θ,
    // and let the run complete cleanly.
    let theta = 0.05;
    let cfg = SimConfig::new(5.0)
        .with_seed(11)
        .with_solver(SolverSpec::Adaptive {
            threshold: theta,
            refresh_interval: u64::MAX, // no periodic refresh to mask the fault
        })
        .with_audit_interval(100)
        .with_drift_tolerance(0.05);
    let circuit = conducting_set();
    let mut sim = Simulation::new(&circuit, cfg).unwrap();
    sim.inject_faults(FaultPlan::new().corrupt_cache(100, 0, 1e6));
    let record = sim.run(RunLength::Events(4_000)).unwrap();

    assert_eq!(record.outcome, RunOutcome::Completed);
    let report = sim.health_report();
    assert!(report.audits > 0, "no audits ran");
    assert!(
        !report.degradations.is_empty(),
        "drift audit never fired a degradation (worst drift {:.3e})",
        report.worst_drift
    );
    let d = &report.degradations[0];
    assert!(d.event >= 100, "degradation before the fault: {d:?}");
    assert!(
        d.drift > 0.05,
        "recorded drift {:.3e} below tolerance",
        d.drift
    );
    // Graceful degradation tightened the threshold below the configured
    // value (θ halves on every failed audit).
    let after = d.threshold_after.expect("adaptive run records θ");
    assert!(after < theta, "θ not tightened: {after}");
    // The degradations also ride along on the run's record.
    assert_eq!(record.degradations.len(), report.degradations.len());
    // After the flush the caches are sound again: a fresh audit-heavy
    // stretch runs clean.
    let before = sim.health_report().degradations.len();
    sim.run(RunLength::Events(1_000)).unwrap();
    assert_eq!(
        sim.health_report().degradations.len(),
        before,
        "degradations kept firing after the recovery flush"
    );
}

#[test]
fn corrupted_cache_is_a_noop_for_nonadaptive_solver() {
    // The non-adaptive solver holds no long-lived cache; the corruption
    // hook must not disturb it.
    let cfg = SimConfig::new(5.0).with_seed(3).with_audit_interval(200);
    let circuit = conducting_set();
    let mut sim = Simulation::new(&circuit, cfg).unwrap();
    sim.inject_faults(FaultPlan::new().corrupt_cache(100, 0, 1e6));
    let record = sim.run(RunLength::Events(2_000)).unwrap();
    assert_eq!(record.outcome, RunOutcome::Completed);
    let report = sim.health_report();
    assert!(report.audits > 0);
    assert!(report.degradations.is_empty(), "{report:?}");
    assert!(report.worst_drift < 1e-9, "{:.3e}", report.worst_drift);
}

#[test]
fn failed_refresh_surfaces_numerical_fault() {
    // FailRefresh forces an immediate full resync with a poisoned rate:
    // the guard inside the refresh path itself must reject it rather
    // than let a NaN enter the rate table.
    let cfg = SimConfig::new(5.0)
        .with_seed(5)
        .with_solver(SolverSpec::Adaptive {
            threshold: 0.05,
            refresh_interval: 2_000,
        });
    let circuit = conducting_set();
    let mut sim = Simulation::new(&circuit, cfg).unwrap();
    sim.inject_faults(FaultPlan::new().fail_refresh(75, 0));
    let err = sim.run(RunLength::Events(5_000)).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::NumericalFault {
                stage: FaultStage::TunnelRate,
                junction: Some(0),
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
    // The failure is reported at the refresh, not deferred: the rate
    // table was never contaminated with the poisoned value.
    assert!(sim.events() >= 75 && sim.events() <= 77, "{}", sim.events());
}
