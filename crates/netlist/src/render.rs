//! The result lines of a batch run, as `semsim sweep` prints them and
//! `semsim serve` streams them: one `control current outcome` line per
//! sweep point, one `replica task current events outcome` line per
//! ensemble replica, and a `#` comment for a point that was cancelled
//! before it ran or faulted. Both front ends render through
//! [`point_line`], and the daemon renders journaled items through
//! [`ResultLine::result_line`], so a streamed job diffs cleanly against
//! a local run of the same netlist.

use semsim_core::batch::{PointReport, PointStatus, ReplicaSummary};
use semsim_core::engine::SweepPoint;
use semsim_core::health::RunOutcome;

/// One-word outcome tag.
fn outcome_tag(outcome: RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Completed => "completed",
        RunOutcome::Blockaded { .. } => "blockaded",
        RunOutcome::WallClockExceeded { .. } => "wall-clock",
        RunOutcome::EventCapReached { .. } => "event-cap",
    }
}

/// A batch item that renders as one result line.
pub trait ResultLine {
    /// The line for this item, computed as batch point `task`.
    fn result_line(&self, task: usize) -> String;
}

impl ResultLine for SweepPoint {
    fn result_line(&self, _task: usize) -> String {
        format!(
            "{:.6e} {:.6e} {}",
            self.control,
            self.current,
            outcome_tag(self.outcome)
        )
    }
}

impl ResultLine for ReplicaSummary {
    fn result_line(&self, task: usize) -> String {
        format!(
            "replica {task} {:.6e} {} {}",
            self.current,
            self.events,
            outcome_tag(self.outcome)
        )
    }
}

/// The line for one batch point: its item's result line, or a comment
/// saying it was cancelled before it ran or faulted.
pub fn point_line<T: ResultLine>(point: &PointReport<T>) -> String {
    match (&point.item, point.status) {
        (Some(item), _) => item.result_line(point.task),
        (None, PointStatus::Cancelled) => {
            format!("# point {} cancelled before it ran", point.task)
        }
        (None, _) => {
            let fault = point
                .fault
                .as_ref()
                .map_or_else(|| "unknown fault".to_string(), ToString::to_string);
            format!(
                "# point {} faulted after {} attempt(s): {fault}",
                point.task,
                point.attempts.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report<T>(task: usize, status: PointStatus, item: Option<T>) -> PointReport<T> {
        PointReport {
            task,
            status,
            attempts: Vec::new(),
            item,
            fault: None,
            journal_error: None,
        }
    }

    #[test]
    fn every_point_kind_renders_one_line() {
        let point = SweepPoint {
            control: -0.02,
            current: 1.5e-9,
            outcome: RunOutcome::Blockaded { time: 1e-9 },
            events: 7,
        };
        assert_eq!(
            point_line(&report(3, PointStatus::Ok, Some(point))),
            "-2.000000e-2 1.500000e-9 blockaded"
        );
        let replica = ReplicaSummary {
            current: 2e-10,
            duration: 1e-6,
            events: 2000,
            outcome: RunOutcome::Completed,
        };
        assert_eq!(
            point_line(&report(4, PointStatus::Skipped, Some(replica))),
            "replica 4 2.000000e-10 2000 completed"
        );
        let none = report::<SweepPoint>(5, PointStatus::Cancelled, None);
        assert_eq!(point_line(&none), "# point 5 cancelled before it ran");
        let faulted = report::<SweepPoint>(6, PointStatus::Faulted, None);
        assert_eq!(
            point_line(&faulted),
            "# point 6 faulted after 0 attempt(s): unknown fault"
        );
    }
}
