//! Reproducibility harness for the deterministic parallel execution
//! layer ([`semsim::core::par`]) under the sweep and ensemble drivers
//! ([`semsim::core::batch`]). Pins the central contract: **results are
//! bit-identical regardless of thread count**, chunk size, or task
//! hand-out order — `threads = 1`, every task run in index order on
//! the calling thread, is the reference — and the per-task PRNG
//! streams derived by counter-based seed splitting do not collide.
//!
//! The thread counts under test come from the `SEMSIM_TEST_THREADS`
//! environment variable (comma-separated, default `1,2,4,8`) so
//! `scripts/ci.sh` can re-run the suite pinned to specific counts.

use std::collections::HashSet;

use semsim::core::batch::{batch_ensemble, batch_sweep, BatchOpts, BatchReport, ReplicaSummary};
use semsim::core::circuit::{Circuit, CircuitBuilder, JunctionId};
use semsim::core::engine::{linspace, RunLength, SimConfig, Simulation, SweepPoint};
use semsim::core::par::{split_seed, ParOpts};
use semsim::core::rng::Rng;

/// Thread counts to exercise: `SEMSIM_TEST_THREADS` or `1,2,4,8`.
fn thread_counts() -> Vec<usize> {
    std::env::var("SEMSIM_TEST_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// The paper's symmetric SET (leads: 1 = source, 2 = drain, 3 = gate),
/// biased at the charge degeneracy so every sweep point conducts and
/// accumulates real stochastic history.
fn set_device() -> (Circuit, JunctionId) {
    let mut b = CircuitBuilder::new();
    let src = b.add_lead(0.0);
    let drn = b.add_lead(0.0);
    let gate = b.add_lead(0.0);
    let island = b.add_island_with_charge(0.5);
    let j1 = b.add_junction(src, island, 1e6, 1e-18).expect("junction");
    b.add_junction(island, drn, 1e6, 1e-18).expect("junction");
    b.add_capacitor(gate, island, 3e-18).expect("capacitor");
    (b.build().expect("circuit"), j1)
}

fn symmetric_bias(sim: &mut Simulation<'_>, v: f64) -> Result<(), semsim::core::CoreError> {
    sim.set_lead_voltage(1, v / 2.0)?;
    sim.set_lead_voltage(2, -v / 2.0)
}

/// A batch sweep of the SET under symmetric bias, on the work queue in
/// `par`.
fn swept(
    config: &SimConfig,
    controls: &[f64],
    warmup: u64,
    events: u64,
    par: ParOpts,
) -> Vec<SweepPoint> {
    let (circuit, j1) = set_device();
    let opts = BatchOpts {
        par,
        ..BatchOpts::default()
    };
    batch_sweep(
        &circuit,
        config,
        j1,
        controls,
        warmup,
        events,
        &opts,
        |sim, v, _spec| symmetric_bias(sim, v),
    )
    .expect("batch sweep")
    .values()
    .expect("every point measured")
}

/// Every bit that could differ between runs, extracted per point.
fn sweep_bits(points: &[SweepPoint]) -> Vec<(u64, u64, u64)> {
    points
        .iter()
        .map(|p| (p.control.to_bits(), p.current.to_bits(), p.events))
        .collect()
}

fn ensemble_bits(report: &BatchReport<ReplicaSummary>) -> (u64, u64, u64, String) {
    let stats = report.ensemble_stats();
    (
        stats.mean_current.to_bits(),
        stats.std_current.to_bits(),
        stats.total_events,
        format!("{:?}", report.outcomes),
    )
}

#[test]
fn par_sweep_is_byte_identical_across_thread_counts() {
    let config = SimConfig::new(5.0).with_seed(99);
    let controls = linspace(-0.04, 0.04, 11);

    let serial = swept(&config, &controls, 100, 800, ParOpts::serial());
    let reference = sweep_bits(&serial);
    // The workload must actually exercise the stochastic engine.
    assert!(serial.iter().any(|p| p.current != 0.0));

    for threads in thread_counts() {
        let par = swept(&config, &controls, 100, 800, ParOpts::with_threads(threads));
        assert_eq!(
            sweep_bits(&par),
            reference,
            "batch_sweep({threads} threads) diverged from threads = 1"
        );
    }
}

#[test]
fn par_sweep_is_invariant_under_chunking_and_handout_order() {
    let config = SimConfig::new(5.0).with_seed(5);
    let controls = linspace(-0.03, 0.03, 9);

    let reference = sweep_bits(&swept(&config, &controls, 50, 500, ParOpts::serial()));
    for threads in thread_counts() {
        for chunk in [1, 3] {
            for reverse in [false, true] {
                let opts = ParOpts {
                    threads,
                    chunk,
                    reverse,
                };
                let par = swept(&config, &controls, 50, 500, opts);
                assert_eq!(
                    sweep_bits(&par),
                    reference,
                    "chunk={chunk} reverse={reverse} threads={threads} moved results"
                );
            }
        }
    }
}

#[test]
fn ensemble_statistics_are_invariant_under_thread_count_and_permutation() {
    let (circuit, j1) = set_device();
    let config = SimConfig::new(5.0).with_seed(123);
    let run = |par: ParOpts| {
        let opts = BatchOpts {
            par,
            ..BatchOpts::default()
        };
        batch_ensemble(
            &circuit,
            &config,
            j1,
            12,
            0,
            RunLength::Events(400),
            &opts,
            |sim, _replica, _spec| symmetric_bias(sim, 30e-3),
        )
        .expect("ensemble")
    };
    let reference = {
        let report = run(ParOpts::serial());
        assert_eq!(report.counts.ok, 12);
        assert!(report.ensemble_stats().std_current.is_finite());
        ensemble_bits(&report)
    };

    for threads in thread_counts() {
        for reverse in [false, true] {
            let opts = ParOpts {
                threads,
                chunk: 2,
                reverse,
            };
            let report = run(opts);
            assert_eq!(
                ensemble_bits(&report),
                reference,
                "ensemble(threads={threads}, reverse={reverse}) moved statistics"
            );
        }
    }
}

#[test]
fn split_seed_streams_do_not_collide_in_first_draws() {
    // 16 tasks under 2 master seeds, 10_000 draws each: every u64 in
    // every stream must be distinct from every other. A collision at
    // this scale would mean the split function is folding streams onto
    // each other, silently correlating "independent" replicas.
    let mut seen = HashSet::new();
    for master in [0u64, 42] {
        for task in 0..16u64 {
            let mut rng = Rng::seed_from_u64(split_seed(master, task));
            for draw in 0..10_000u32 {
                assert!(
                    seen.insert(rng.next_u64()),
                    "stream collision at master={master} task={task} draw={draw}"
                );
            }
        }
    }
}

#[test]
fn split_seed_differs_from_naive_offset_seeding() {
    // The old scheme seeded point `i` with `seed + i`, which makes
    // task streams of adjacent master seeds literally identical
    // (master 7 task 1 == master 8 task 0). The split function must
    // not have that property.
    assert_ne!(split_seed(7, 1), split_seed(8, 0));
    assert_ne!(split_seed(0, 0), 0);
}
