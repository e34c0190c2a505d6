//! Integration tests of the resilient batch layer: fault-free batches
//! must be bit-identical to a hand-written per-point loop, and the
//! `SEMSIMJL` journal must survive truncation at every byte boundary,
//! single-bit rot, and version skew — a resumed batch reproduces the
//! uninterrupted one bit-for-bit or refuses loudly, never silently
//! drifts.

use std::path::PathBuf;

use semsim::core::batch::{batch_sweep, BatchOpts, BatchReport, RetryPolicy};
use semsim::core::checkpoint::fnv1a64;
use semsim::core::circuit::{Circuit, CircuitBuilder, JunctionId};
use semsim::core::engine::{RunLength, SimConfig, Simulation, SweepPoint};
use semsim::core::journal::{scan, HEADER_LEN};
use semsim::core::par::{split_seed, ParOpts};
use semsim::core::CoreError;

/// A conducting SET (source—island—drain plus gate): every sweep point
/// tunnels at a healthy rate.
fn set_circuit() -> (Circuit, JunctionId) {
    let mut b = CircuitBuilder::new();
    let src = b.add_lead(10e-3);
    let drn = b.add_lead(-10e-3);
    let gate = b.add_lead(0.0);
    let island = b.add_island();
    let j = b.add_junction(src, island, 1e6, 1e-18).unwrap();
    b.add_junction(island, drn, 1e6, 1e-18).unwrap();
    b.add_capacitor(gate, island, 3e-18).unwrap();
    (b.build().unwrap(), j)
}

fn controls() -> Vec<f64> {
    (0..8).map(|i| 2e-3 * (i as f64 + 1.0)).collect()
}

fn apply_bias(sim: &mut Simulation<'_>, v: f64) -> Result<(), CoreError> {
    sim.set_lead_voltage(1, v / 2.0)?;
    sim.set_lead_voltage(2, -v / 2.0)
}

/// Runs the reference batch with the given options.
fn run_batch(opts: &BatchOpts) -> BatchReport<SweepPoint> {
    let (circuit, j) = set_circuit();
    let cfg = SimConfig::new(5.0).with_seed(33);
    batch_sweep(
        &circuit,
        &cfg,
        j,
        &controls(),
        150,
        1200,
        opts,
        |sim, v, _spec| apply_bias(sim, v),
    )
    .unwrap()
}

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("semsim_batch_{name}_{}.jl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn batch_sweep_is_bit_identical_to_par_sweep() {
    // The reference is the sweep written out by hand: point `i` is a
    // fresh simulation seeded `split_seed(33, i)`, biased, warmed up for
    // 150 events and measured over 1200.
    let (circuit, j) = set_circuit();
    let reference: Vec<SweepPoint> = controls()
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let cfg = SimConfig::new(5.0).with_seed(split_seed(33, i as u64));
            let mut sim = Simulation::new(&circuit, cfg).unwrap();
            apply_bias(&mut sim, v).unwrap();
            sim.run(RunLength::Events(150)).unwrap();
            let record = sim.run(RunLength::Events(1200)).unwrap();
            SweepPoint {
                control: v,
                current: record.current(j),
                outcome: record.outcome,
                events: record.events,
            }
        })
        .collect();
    for threads in [1, 2, 4] {
        let opts = BatchOpts {
            par: ParOpts::with_threads(threads),
            ..BatchOpts::default()
        };
        let report = run_batch(&opts);
        assert!(report.is_complete());
        assert_eq!(report.retries, 0);
        assert_eq!(report.values().unwrap(), reference, "threads = {threads}");
    }
}

#[test]
fn killed_and_resumed_journal_reproduces_the_uninterrupted_run() {
    let path = temp_journal("kill_resume");
    let opts = BatchOpts {
        par: ParOpts::with_threads(1),
        journal: Some(path.clone()),
        ..BatchOpts::default()
    };
    let reference = run_batch(&opts);
    assert!(reference.is_complete());
    let full = std::fs::read(&path).unwrap();

    // Kill the writer at two different points mid-record (a torn
    // append), then resume at different thread counts: the journal
    // restores the finished prefix and the recomputed remainder is
    // bit-identical to the uninterrupted run.
    for (threads, frac) in [(1usize, 0.6), (4, 0.85)] {
        let cut = (full.len() as f64 * frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let opts = BatchOpts {
            par: ParOpts::with_threads(threads),
            journal: Some(path.clone()),
            resume: true,
            ..BatchOpts::default()
        };
        let resumed = run_batch(&opts);
        assert!(
            resumed.counts.skipped > 0 && resumed.counts.skipped < controls().len(),
            "cut at {frac} restored {} points",
            resumed.counts.skipped
        );
        assert!(resumed.discarded_tail_bytes > 0, "no torn record at {frac}");
        assert_eq!(
            resumed.values().unwrap(),
            reference.values().unwrap(),
            "threads = {threads}, cut = {frac}"
        );
    }

    // A resume against the completed journal recomputes nothing.
    std::fs::write(&path, &full).unwrap();
    let opts = BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    };
    let restored = run_batch(&opts);
    assert_eq!(restored.counts.skipped, controls().len());
    assert_eq!(restored.retries, 0);
    assert_eq!(restored.values().unwrap(), reference.values().unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn scan_survives_truncation_at_every_byte_boundary() {
    let path = temp_journal("truncate");
    let opts = BatchOpts {
        journal: Some(path.clone()),
        ..BatchOpts::default()
    };
    run_batch(&opts);
    let full = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let complete = scan::<SweepPoint>(&full).unwrap();
    assert_eq!(complete.entries.len(), controls().len());
    assert_eq!(complete.discarded_tail_bytes, 0);

    for len in 0..=full.len() {
        match scan::<SweepPoint>(&full[..len]) {
            Ok(s) => {
                assert!(len >= HEADER_LEN, "short header scanned at {len}");
                // The valid prefix is always an exact prefix of the
                // complete journal's entries.
                assert!(s.entries.len() <= complete.entries.len());
                for (got, want) in s.entries.iter().zip(&complete.entries) {
                    assert_eq!(got.task, want.task, "len = {len}");
                    assert_eq!(got.item, want.item, "len = {len}");
                }
                assert_eq!(s.valid_len + s.discarded_tail_bytes, len);
            }
            Err(CoreError::JournalCorrupt { .. }) => {
                assert!(len < HEADER_LEN, "valid header rejected at {len}");
            }
            Err(other) => panic!("unexpected error at {len}: {other:?}"),
        }
    }
}

#[test]
fn single_bit_flips_discard_the_tail_never_panic() {
    let path = temp_journal("bitflip");
    let opts = BatchOpts {
        journal: Some(path.clone()),
        ..BatchOpts::default()
    };
    run_batch(&opts);
    let full = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let complete = scan::<SweepPoint>(&full).unwrap();

    for byte in 0..full.len() {
        for bit in 0..8 {
            let mut rotted = full.clone();
            rotted[byte] ^= 1 << bit;
            match scan::<SweepPoint>(&rotted) {
                Ok(s) => {
                    // A flip inside the record region invalidates that
                    // record's checksum or framing: the tail is
                    // discarded, the prefix survives untouched.
                    assert!(byte >= HEADER_LEN, "header flip at {byte}:{bit} scanned");
                    assert!(
                        s.entries.len() < complete.entries.len(),
                        "flip at {byte}:{bit} went unnoticed"
                    );
                    for (got, want) in s.entries.iter().zip(&complete.entries) {
                        assert_eq!(got.item, want.item, "prefix drift at {byte}:{bit}");
                    }
                }
                Err(CoreError::JournalCorrupt { .. }) => {
                    assert!(byte < HEADER_LEN, "record flip at {byte}:{bit} errored");
                }
                Err(other) => panic!("unexpected error at {byte}:{bit}: {other:?}"),
            }
        }
    }
}

#[test]
fn future_format_version_is_rejected() {
    let path = temp_journal("version");
    let opts = BatchOpts {
        journal: Some(path.clone()),
        ..BatchOpts::default()
    };
    run_batch(&opts);
    let mut bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    // Bump the version field (bytes 8..12, LE) and reseal the header
    // checksum so only the version is wrong.
    bytes[8] += 1;
    let sum = fnv1a64(&bytes[..HEADER_LEN - 8]).to_le_bytes();
    bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum);
    match scan::<SweepPoint>(&bytes) {
        Err(CoreError::JournalVersionSkew { found, supported }) => {
            assert_eq!(found, 2);
            assert_eq!(supported, 1);
        }
        other => panic!("version 2 accepted: {other:?}"),
    }
}

#[test]
fn journal_from_a_different_batch_is_refused() {
    let path = temp_journal("mismatch");
    let opts = BatchOpts {
        journal: Some(path.clone()),
        ..BatchOpts::default()
    };
    run_batch(&opts);

    let (circuit, j) = set_circuit();
    let resume = BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    };
    // Different master seed.
    let err = batch_sweep(
        &circuit,
        &SimConfig::new(5.0).with_seed(34),
        j,
        &controls(),
        150,
        1200,
        &resume,
        |sim, v, _spec| apply_bias(sim, v),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::JournalMismatch { .. }), "{err:?}");
    // Different voltage grid (fingerprint).
    let err = batch_sweep(
        &circuit,
        &SimConfig::new(5.0).with_seed(33),
        j,
        &controls()[..6],
        150,
        1200,
        &resume,
        |sim, v, _spec| apply_bias(sim, v),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::JournalMismatch { .. }), "{err:?}");
    // Different retry policy (also part of the fingerprint).
    let err = batch_sweep(
        &circuit,
        &SimConfig::new(5.0).with_seed(33),
        j,
        &controls(),
        150,
        1200,
        &BatchOpts {
            retry: RetryPolicy {
                max_retries: 7,
                ..RetryPolicy::default()
            },
            ..resume.clone()
        },
        |sim, v, _spec| apply_bias(sim, v),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::JournalMismatch { .. }), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

/// Every point faults (the setup touches a lead that does not exist):
/// the report is a complete structured account — all points `Faulted`
/// with their terminal fault recorded — and nothing panics or aborts.
#[test]
fn all_points_faulted_is_a_structured_report() {
    let (circuit, j) = set_circuit();
    let cfg = SimConfig::new(5.0).with_seed(33);
    let report = batch_sweep(
        &circuit,
        &cfg,
        j,
        &controls(),
        150,
        1200,
        &BatchOpts::default(),
        |sim, _v, _spec| sim.set_lead_voltage(99, 0.0),
    )
    .unwrap();
    assert_eq!(report.counts.faulted, controls().len());
    assert_eq!(report.counts.ok + report.counts.recovered, 0);
    assert!(!report.is_complete());
    assert!(report.values().is_none(), "no values to assemble");
    for p in &report.points {
        assert!(p.item.is_none());
        assert!(p.fault.is_some(), "point {} lost its fault", p.task);
        assert!(!p.attempts.is_empty());
    }
}

/// A token cancelled before the batch starts: every point reports
/// `Cancelled`, no point computes, and the journal (if any) holds only
/// its header — a later resume recomputes everything bit-identically.
#[test]
fn cancel_before_first_point_salvages_nothing_but_stays_structured() {
    use semsim::core::batch::{CancelToken, PointStatus};
    let path = temp_journal("cancel_first");
    let cancel = CancelToken::new();
    cancel.cancel();
    let report = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        cancel: Some(cancel),
        ..BatchOpts::default()
    });
    assert_eq!(report.counts.cancelled, controls().len());
    assert!(report
        .points
        .iter()
        .all(|p| p.status == PointStatus::Cancelled && p.item.is_none()));
    // The journal was created (header) but holds no entries; resuming
    // from it reproduces the uninterrupted run bit-for-bit.
    let scanned = scan::<SweepPoint>(&std::fs::read(&path).unwrap()).unwrap();
    assert!(scanned.entries.is_empty());
    assert_eq!(scanned.discarded_tail_bytes, 0);
    let resumed = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    });
    assert_eq!(resumed.counts.skipped, 0, "nothing to restore");
    assert!(resumed.is_complete());
    let reference = run_batch(&BatchOpts::default());
    assert_eq!(resumed.values().unwrap(), reference.values().unwrap());
    let _ = std::fs::remove_file(&path);
}

/// A journal truncated to exactly its header (the crash happened after
/// the header fsync but before any record): resume accepts it, restores
/// zero points, and recomputes the full batch bit-identically.
#[test]
fn header_only_journal_resumes_to_the_full_run() {
    let path = temp_journal("header_only");
    let reference = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        ..BatchOpts::default()
    });
    assert!(reference.is_complete());
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > HEADER_LEN);
    std::fs::write(&path, &full[..HEADER_LEN]).unwrap();
    let resumed = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    });
    assert_eq!(resumed.counts.skipped, 0);
    assert_eq!(
        resumed.discarded_tail_bytes, 0,
        "a clean boundary, not a torn tail"
    );
    assert!(resumed.is_complete());
    assert_eq!(resumed.values().unwrap(), reference.values().unwrap());
    let _ = std::fs::remove_file(&path);
}

/// Chaos-found edge: the crash happens *immediately* after the header,
/// mid-way through the very first record — the file is a valid header
/// plus garbage. Resume must diagnose the torn tail (with a reason),
/// restore nothing, and recompute the full batch bit-identically.
#[test]
fn header_plus_torn_first_record_resumes_to_the_full_run() {
    let path = temp_journal("header_torn");
    let reference = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        ..BatchOpts::default()
    });
    assert!(reference.is_complete());
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > HEADER_LEN + 8);
    // Header, then the first 5 bytes of the first record.
    std::fs::write(&path, &full[..HEADER_LEN + 5]).unwrap();
    let scanned = scan::<SweepPoint>(&std::fs::read(&path).unwrap()).unwrap();
    assert!(scanned.entries.is_empty());
    assert_eq!(scanned.discarded_tail_bytes, 5);
    assert!(
        scanned.tail_reason.is_some(),
        "torn tail must carry a reason"
    );
    let resumed = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    });
    assert_eq!(resumed.counts.skipped, 0);
    assert_eq!(resumed.discarded_tail_bytes, 5);
    assert!(resumed.is_complete());
    assert_eq!(resumed.values().unwrap(), reference.values().unwrap());
    let _ = std::fs::remove_file(&path);
}

/// Chaos-found edge: the cancel token fires while the *final* point is
/// being set up — racing the last record's flush. Whatever subset got
/// journaled, a resume restores it and recomputes the rest, and the
/// final values are bit-identical to the uninterrupted run.
#[test]
fn cancel_racing_the_final_record_flush_resumes_exactly() {
    use semsim::core::batch::{batch_sweep, CancelToken};
    let path = temp_journal("cancel_last");
    let reference = run_batch(&BatchOpts::default());
    let (circuit, j) = set_circuit();
    let cfg = SimConfig::new(5.0).with_seed(33);
    let last = controls().len() - 1;
    let cancel = CancelToken::new();
    let opts = BatchOpts {
        par: ParOpts::with_threads(2),
        journal: Some(path.clone()),
        cancel: Some(cancel.clone()),
        ..BatchOpts::default()
    };
    let interrupted = batch_sweep(
        &circuit,
        &cfg,
        j,
        &controls(),
        150,
        1200,
        &opts,
        |sim, v, spec| {
            if spec.task == last {
                cancel.cancel();
            }
            apply_bias(sim, v)
        },
    )
    .unwrap();
    // The journal holds exactly the points that finished — scan agrees
    // with the report, and every journaled value matches the clean run.
    let scanned = scan::<SweepPoint>(&std::fs::read(&path).unwrap()).unwrap();
    let finished = interrupted.counts.ok + interrupted.counts.recovered;
    assert_eq!(scanned.entries.len(), finished);
    let reference_values = reference.values().unwrap();
    for e in &scanned.entries {
        assert_eq!(
            e.item, reference_values[e.task],
            "journaled task {}",
            e.task
        );
    }
    let resumed = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    });
    assert_eq!(resumed.counts.skipped, finished);
    assert!(resumed.is_complete());
    assert_eq!(resumed.values().unwrap(), reference_values);
    let _ = std::fs::remove_file(&path);
}

/// Chaos-found edge: the disk fills after `k` appends. The batch still
/// completes with every value salvaged in memory; the on-disk journal
/// holds a byte-identical prefix of the clean run; and a resume
/// restores that prefix and recomputes the non-durable points exactly.
#[cfg(feature = "fault-inject")]
#[test]
fn disk_full_salvages_a_byte_identical_prefix() {
    use semsim::core::batch::BatchFaultPlan;
    let path = temp_journal("disk_full");
    let reference = run_batch(&BatchOpts::default());
    let reference_values = reference.values().unwrap();
    let kept = 3u64;
    let report = run_batch(&BatchOpts {
        par: ParOpts::with_threads(1),
        journal: Some(path.clone()),
        fault_plan: Some(BatchFaultPlan::new().journal_full_after(kept, 7)),
        ..BatchOpts::default()
    });
    // Every point computed; the ones past the "full disk" are flagged
    // as non-durable, and the first failure names the cause.
    assert!(report.is_complete());
    assert_eq!(report.values().unwrap(), reference_values);
    assert_eq!(
        report.journal_write_failures(),
        controls().len() - kept as usize
    );
    let first = report.first_journal_write_error().unwrap();
    assert!(first.contains("journal"), "unhelpful error: {first}");
    // On disk: a valid prefix of exactly `kept` records, each
    // byte-identical to the clean run, then the torn partial record.
    let scanned = scan::<SweepPoint>(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(scanned.entries.len(), kept as usize);
    assert_eq!(scanned.discarded_tail_bytes, 7);
    for e in &scanned.entries {
        assert_eq!(
            e.item, reference_values[e.task],
            "journaled task {}",
            e.task
        );
    }
    // After the operator frees space: resume restores the durable
    // prefix and recomputes the rest bit-identically.
    let resumed = run_batch(&BatchOpts {
        journal: Some(path.clone()),
        resume: true,
        ..BatchOpts::default()
    });
    assert_eq!(resumed.counts.skipped, kept as usize);
    assert!(resumed.is_complete());
    assert_eq!(resumed.values().unwrap(), reference_values);
    let _ = std::fs::remove_file(&path);
}
