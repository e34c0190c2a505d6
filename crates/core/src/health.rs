//! Numerical health guards, drift audits, and the run supervisor.
//!
//! The adaptive solver's whole value proposition is *skipping* work, so
//! a long Monte Carlo run has two failure modes that conventional
//! solvers do not: silently accumulated cache drift, and a single
//! NaN/Inf escaping a rate evaluation and poisoning the sampled event
//! stream. This module makes both failure modes loud:
//!
//! * **Health guards** — every produced tunnel rate, ΔW, and island
//!   potential is screened at the point of production
//!   (`screen_rate`/`screen_finite`); poison surfaces as a
//!   structured [`CoreError::NumericalFault`](crate::CoreError) instead
//!   of propagating.
//! * **Drift audit** — every `N` events (see
//!   [`SimConfig::with_audit_interval`](crate::engine::SimConfig)) the
//!   cached first-order rates are compared against a ground-truth
//!   recompute; excessive drift triggers a full cache flush, adaptive
//!   threshold tightening, and a logged [`DegradationEvent`].
//! * **Run supervisor** — wall-clock budget, lifetime event cap, and
//!   Coulomb-blockade stall detection, reported through the
//!   [`RunOutcome`] taxonomy in [`Record`](crate::engine::Record).
//!
//! The `fault-inject` cargo feature additionally compiles in a
//! `FaultPlan` hook used by the test suite to prove each recovery
//! path fires.

use std::fmt;

use crate::energy::CircuitState;
use crate::fenwick::FenwickTree;
use crate::solver::SolverContext;
use crate::CoreError;

/// Pipeline stage at which a numerical fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// A first-order tunnel (or quasi-particle) rate evaluation.
    TunnelRate,
    /// A free-energy change ΔW (paper Eq. 2).
    FreeEnergy,
    /// A second-order cotunneling path rate.
    CotunnelRate,
    /// A Cooper-pair tunneling rate.
    CooperPairRate,
    /// An island potential: recomputed by a full refresh or drift
    /// audit, or read through `Simulation::node_potential`.
    IslandPotential,
    /// The summed total rate of the event table.
    RateTotal,
    /// Drawing an event slot from the rate table.
    EventSampling,
}

impl fmt::Display for FaultStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultStage::TunnelRate => "tunnel rate evaluation",
            FaultStage::FreeEnergy => "free-energy change",
            FaultStage::CotunnelRate => "cotunneling rate evaluation",
            FaultStage::CooperPairRate => "Cooper-pair rate evaluation",
            FaultStage::IslandPotential => "island potential refresh",
            FaultStage::RateTotal => "rate table total",
            FaultStage::EventSampling => "event sampling",
        };
        f.write_str(s)
    }
}

/// Screens a produced rate: must be finite and non-negative.
#[inline]
pub(crate) fn screen_rate(
    stage: FaultStage,
    junction: Option<usize>,
    rate: f64,
) -> Result<f64, CoreError> {
    if rate.is_finite() && rate >= 0.0 {
        Ok(rate)
    } else {
        Err(CoreError::NumericalFault {
            stage,
            junction,
            value: rate,
        })
    }
}

/// Screens a produced energy/potential: must be finite.
#[inline]
pub(crate) fn screen_finite(
    stage: FaultStage,
    junction: Option<usize>,
    value: f64,
) -> Result<f64, CoreError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(CoreError::NumericalFault {
            stage,
            junction,
            value,
        })
    }
}

/// Why a [`run`](crate::engine::Simulation::run) stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunOutcome {
    /// The requested run length completed normally.
    Completed,
    /// Total rate ≈ 0 with no pending stimulus: the device is frozen in
    /// Coulomb blockade. Reported only when
    /// [`Supervisor::blockade_is_outcome`] is set; otherwise a stall is
    /// the [`CoreError::BlockadeStall`](crate::CoreError) error.
    Blockaded {
        /// Simulated time of the stall (s).
        time: f64,
    },
    /// The supervisor's wall-clock budget for one run expired.
    WallClockExceeded {
        /// The budget that expired (s of real time).
        budget: f64,
    },
    /// The supervisor's lifetime event cap was reached.
    EventCapReached {
        /// The cap (total events since construction).
        cap: u64,
    },
}

/// Run supervisor limits (all disabled by default).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Supervisor {
    /// Real-time budget per [`run`](crate::engine::Simulation::run)
    /// call (seconds); exceeding it ends the run with
    /// [`RunOutcome::WallClockExceeded`].
    pub wall_clock_budget: Option<f64>,
    /// Cap on total events since construction; reaching it ends the run
    /// with [`RunOutcome::EventCapReached`].
    pub max_events: Option<u64>,
    /// Report a Coulomb-blockade stall as [`RunOutcome::Blockaded`]
    /// instead of the `BlockadeStall` error.
    pub blockade_is_outcome: bool,
}

/// One graceful-degradation incident: a drift audit found the cached
/// rates too far from ground truth, flushed every cache, and (for the
/// adaptive solver) tightened the testing threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationEvent {
    /// Total events executed when the audit fired.
    pub event: u64,
    /// Simulated time of the audit (s).
    pub time: f64,
    /// Maximum relative rate drift measured (relative to the largest
    /// exact first-order rate).
    pub drift: f64,
    /// Rate-table slot with the worst drift.
    pub slot: usize,
    /// The tightened adaptive threshold θ, if the adaptive solver ran.
    pub threshold_after: Option<f64>,
}

/// Cumulative health summary of a simulation (see
/// [`Simulation::health_report`](crate::engine::Simulation)).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Drift audits performed.
    pub audits: u64,
    /// Worst relative drift ever measured by an audit.
    pub worst_drift: f64,
    /// Every degradation incident, oldest first.
    pub degradations: Vec<DegradationEvent>,
    /// Duplicate `(time, lead)` stimuli dropped at schedule time.
    pub duplicate_stimuli_dropped: u64,
}

impl HealthReport {
    /// An empty report (no audits, no incidents) — the identity of
    /// [`HealthReport::absorb`].
    pub fn empty() -> Self {
        HealthReport {
            audits: 0,
            worst_drift: 0.0,
            degradations: Vec::new(),
            duplicate_stimuli_dropped: 0,
        }
    }

    /// Folds another simulation's report into this one: audit and
    /// dropped-stimulus counts add, the worst drift is the maximum, and
    /// degradation incidents concatenate in absorption order. The
    /// parallel ensemble driver absorbs replica reports in replica-index
    /// order, so the merged report is independent of thread scheduling.
    pub fn absorb(&mut self, other: &HealthReport) {
        self.audits += other.audits;
        self.worst_drift = self.worst_drift.max(other.worst_drift);
        self.degradations.extend_from_slice(&other.degradations);
        self.duplicate_stimuli_dropped += other.duplicate_stimuli_dropped;
    }
}

/// Internal bookkeeping behind the drift audit and health report.
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    audit_interval: Option<u64>,
    drift_tolerance: f64,
    events_since_audit: u64,
    audits: u64,
    worst_drift: f64,
    degradations: Vec<DegradationEvent>,
    duplicate_stimuli_dropped: u64,
}

impl HealthMonitor {
    pub(crate) fn new(audit_interval: Option<u64>, drift_tolerance: f64) -> Self {
        HealthMonitor {
            audit_interval,
            drift_tolerance,
            events_since_audit: 0,
            audits: 0,
            worst_drift: 0.0,
            degradations: Vec::new(),
            duplicate_stimuli_dropped: 0,
        }
    }

    /// `true` when periodic drift auditing is configured at all.
    pub(crate) fn audit_enabled(&self) -> bool {
        self.audit_interval.is_some()
    }

    /// Counts one executed event; `true` when an audit is due.
    pub(crate) fn audit_due(&mut self) -> bool {
        let Some(n) = self.audit_interval else {
            return false;
        };
        self.events_since_audit += 1;
        if self.events_since_audit >= n {
            self.events_since_audit = 0;
            true
        } else {
            false
        }
    }

    pub(crate) fn drift_tolerance(&self) -> f64 {
        self.drift_tolerance
    }

    pub(crate) fn note_audit(&mut self, drift: f64) {
        self.audits += 1;
        self.worst_drift = self.worst_drift.max(drift);
    }

    pub(crate) fn note_degradation(&mut self, event: DegradationEvent) {
        self.degradations.push(event);
    }

    pub(crate) fn note_duplicate_stimuli(&mut self, dropped: u64) {
        self.duplicate_stimuli_dropped += dropped;
    }

    pub(crate) fn degradations(&self) -> &[DegradationEvent] {
        &self.degradations
    }

    /// Restarts the audit period (after a checkpoint synchronization,
    /// when the caches are known-exact).
    pub(crate) fn reset_audit_clock(&mut self) {
        self.events_since_audit = 0;
    }

    pub(crate) fn report(&self) -> HealthReport {
        HealthReport {
            audits: self.audits,
            worst_drift: self.worst_drift,
            degradations: self.degradations.clone(),
            duplicate_stimuli_dropped: self.duplicate_stimuli_dropped,
        }
    }
}

/// Compares the cached first-order rates against a ground-truth
/// recompute from scratch, returning the worst relative drift and the
/// slot it occurred at. Drift is measured relative to the largest exact
/// rate, i.e. as the error a stale slot contributes to the sampling
/// distribution.
pub(crate) fn measure_rate_drift(
    ctx: &SolverContext<'_>,
    state: &CircuitState,
    rates: &FenwickTree,
) -> Result<(f64, usize), CoreError> {
    let mut exact_state = state.clone();
    exact_state.recompute_potentials(ctx.circuit);
    for (k, &phi) in exact_state.island_potentials().iter().enumerate() {
        screen_finite(FaultStage::IslandPotential, Some(k), phi)?;
    }
    let mut exact = Vec::with_capacity(2 * ctx.circuit.num_junctions());
    for j in ctx.circuit.junction_ids() {
        let (dw_fw, g_fw, dw_bw, g_bw) = ctx.junction_rates(&exact_state, j);
        let jx = j.index();
        screen_finite(FaultStage::FreeEnergy, Some(jx), dw_fw)?;
        screen_finite(FaultStage::FreeEnergy, Some(jx), dw_bw)?;
        exact.push((
            ctx.layout.tunnel_slot(j, true),
            screen_rate(FaultStage::TunnelRate, Some(jx), g_fw)?,
        ));
        exact.push((
            ctx.layout.tunnel_slot(j, false),
            screen_rate(FaultStage::TunnelRate, Some(jx), g_bw)?,
        ));
    }
    let scale = exact
        .iter()
        .fold(0.0_f64, |m, &(_, g)| m.max(g))
        .max(f64::MIN_POSITIVE);
    let mut worst = 0.0;
    let mut worst_slot = 0;
    for &(slot, g) in &exact {
        let rel = (rates.get(slot) - g).abs() / scale;
        if rel > worst {
            worst = rel;
            worst_slot = slot;
        }
    }
    Ok((worst, worst_slot))
}

/// A scripted fault to inject at a chosen event index (testing only;
/// requires the `fault-inject` cargo feature).
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultKind {
    /// Replace the next computed forward rate of `junction` with NaN,
    /// exercising the production-side health guard.
    PoisonRate {
        /// Target junction.
        junction: usize,
    },
    /// Scale the adaptive solver's cached `ΔW'` entries of `junction`
    /// by `factor`, silencing its testing gate so its rates go stale —
    /// the drift audit must catch the resulting divergence.
    CorruptCache {
        /// Target junction.
        junction: usize,
        /// Multiplicative corruption of the cached `ΔW'` magnitudes.
        factor: f64,
    },
    /// Force an immediate full cache resync with a poisoned rate for
    /// `junction`, exercising the refresh-failure path.
    FailRefresh {
        /// Target junction.
        junction: usize,
    },
    /// Panic inside the event loop, exercising the batch layer's panic
    /// isolation and rerun-on-panic recovery paths.
    PanicAt,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultAction {
    pub(crate) at_event: u64,
    pub(crate) kind: FaultKind,
    pub(crate) fired: bool,
}

/// A scripted sequence of fault injections, armed on a simulation with
/// [`Simulation::inject_faults`](crate::engine::Simulation). Only
/// compiled under the `fault-inject` cargo feature; exists to let tests
/// prove that every recovery path of the runtime actually fires.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(crate) actions: Vec<FaultAction>,
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Poisons the next computed forward rate of `junction` with NaN
    /// once `at_event` events have executed.
    pub fn poison_rate(mut self, at_event: u64, junction: usize) -> Self {
        self.actions.push(FaultAction {
            at_event,
            kind: FaultKind::PoisonRate { junction },
            fired: false,
        });
        self
    }

    /// Corrupts the adaptive solver's cached `ΔW'` entries of
    /// `junction` by `factor` once `at_event` events have executed
    /// (no-op under the non-adaptive solver, whose caches live one
    /// event at most).
    pub fn corrupt_cache(mut self, at_event: u64, junction: usize, factor: f64) -> Self {
        self.actions.push(FaultAction {
            at_event,
            kind: FaultKind::CorruptCache { junction, factor },
            fired: false,
        });
        self
    }

    /// Forces a full cache resync that fails (poisoned rate for
    /// `junction`) once `at_event` events have executed.
    pub fn fail_refresh(mut self, at_event: u64, junction: usize) -> Self {
        self.actions.push(FaultAction {
            at_event,
            kind: FaultKind::FailRefresh { junction },
            fired: false,
        });
        self
    }

    /// Panics (with a deterministic message naming `at_event`) once
    /// `at_event` events have executed — a stand-in for transient
    /// crashes, caught by the panic isolation in [`crate::par`].
    pub fn panic_at(mut self, at_event: u64) -> Self {
        self.actions.push(FaultAction {
            at_event,
            kind: FaultKind::PanicAt,
            fired: false,
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screens_reject_poison() {
        assert!(screen_rate(FaultStage::TunnelRate, Some(0), 1.0e9).is_ok());
        assert!(screen_rate(FaultStage::TunnelRate, Some(0), 0.0).is_ok());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let e = screen_rate(FaultStage::TunnelRate, Some(2), bad);
            assert!(
                matches!(
                    e,
                    Err(CoreError::NumericalFault {
                        stage: FaultStage::TunnelRate,
                        junction: Some(2),
                        ..
                    })
                ),
                "{bad} not rejected: {e:?}"
            );
        }
        assert!(screen_finite(FaultStage::FreeEnergy, None, -5.0).is_ok());
        assert!(screen_finite(FaultStage::FreeEnergy, None, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn monitor_audit_cadence() {
        let mut m = HealthMonitor::new(Some(3), 0.25);
        assert!(!m.audit_due());
        assert!(!m.audit_due());
        assert!(m.audit_due());
        assert!(!m.audit_due());
        m.reset_audit_clock();
        assert!(!m.audit_due());
        assert!(!m.audit_due());
        assert!(m.audit_due());
        // Disabled monitor never fires.
        let mut off = HealthMonitor::new(None, 0.25);
        for _ in 0..100 {
            assert!(!off.audit_due());
        }
    }

    #[test]
    fn monitor_report_accumulates() {
        let mut m = HealthMonitor::new(Some(10), 0.1);
        m.note_audit(0.02);
        m.note_audit(0.4);
        m.note_degradation(DegradationEvent {
            event: 10,
            time: 1e-9,
            drift: 0.4,
            slot: 3,
            threshold_after: Some(0.025),
        });
        m.note_duplicate_stimuli(2);
        let r = m.report();
        assert_eq!(r.audits, 2);
        assert_eq!(r.worst_drift, 0.4);
        assert_eq!(r.degradations.len(), 1);
        assert_eq!(r.duplicate_stimuli_dropped, 2);
    }
}
