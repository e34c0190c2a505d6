use std::error::Error;
use std::fmt;

use semsim_linalg::LinalgError;

use crate::health::FaultStage;

/// Errors produced by the SEMSIM core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A node id referenced a node that does not exist.
    UnknownNode {
        /// The offending node index.
        node: usize,
    },
    /// A junction id referenced a junction that does not exist.
    UnknownJunction {
        /// The offending junction index.
        junction: usize,
    },
    /// A lead id referenced a lead that does not exist.
    UnknownLead {
        /// The offending lead index.
        lead: usize,
    },
    /// A component value was non-positive or non-finite.
    InvalidComponent {
        /// Description of the offending component parameter.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Both endpoints of a two-terminal element were the same node.
    SelfLoop {
        /// The node connected to itself.
        node: usize,
    },
    /// The circuit has no tunnel junctions, so no dynamics exist.
    NoJunctions,
    /// The island capacitance matrix was singular — an island is not
    /// capacitively tied (even indirectly) to any lead or other island.
    FloatingIsland(LinalgError),
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Description of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Every tunnel rate is zero and no stimulus is pending: the circuit
    /// is frozen in Coulomb blockade and simulated time cannot advance.
    BlockadeStall {
        /// Simulated time at which the stall occurred (s).
        time: f64,
    },
    /// A health guard caught a NaN/Inf/negative value at the point of
    /// production, before it could poison the rate table or a `Record`.
    NumericalFault {
        /// Pipeline stage that produced the value.
        stage: FaultStage,
        /// Index of the faulting junction (or island / cotunnel path,
        /// depending on `stage`), when one is identifiable.
        junction: Option<usize>,
        /// The rejected value.
        value: f64,
    },
    /// A checkpoint byte stream failed structural validation (bad magic,
    /// unsupported version, truncation, or checksum mismatch).
    CheckpointCorrupt {
        /// What failed to validate.
        what: &'static str,
    },
    /// A structurally valid checkpoint does not describe this
    /// simulation (different circuit shape or solver configuration).
    CheckpointMismatch {
        /// The mismatching quantity.
        what: &'static str,
        /// Value required by the running simulation.
        expected: u64,
        /// Value recorded in the checkpoint.
        found: u64,
    },
    /// A parallel task panicked. The panic was caught at the task
    /// boundary ([`crate::par`]), converted into this error, and the
    /// sibling tasks ran to completion — a panic never tears down the
    /// batch.
    TaskPanicked {
        /// Index of the panicking task.
        task: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A journal header failed structural validation (bad magic,
    /// unsupported version, truncation, or checksum mismatch). Corrupt
    /// *records* are not errors — the valid prefix is kept and the tail
    /// discarded (see [`crate::journal`]).
    JournalCorrupt {
        /// What failed to validate.
        what: &'static str,
    },
    /// A journal was written by a newer (or otherwise unknown) format
    /// revision. Distinct from [`CoreError::JournalCorrupt`] so callers
    /// can tell version skew ("upgrade the reader") from rot ("the file
    /// is damaged").
    JournalVersionSkew {
        /// Version recorded in the journal header.
        found: u32,
        /// Highest version this build can read.
        supported: u32,
    },
    /// A structurally valid journal describes a different batch (other
    /// seed, grid, run parameters, or payload kind) and cannot be
    /// resumed against this one.
    JournalMismatch {
        /// The mismatching quantity.
        what: &'static str,
        /// Value required by the running batch.
        expected: u64,
        /// Value recorded in the journal.
        found: u64,
    },
    /// An I/O failure while reading or writing a journal file.
    JournalIo {
        /// The formatted OS error, with the path.
        message: String,
    },
    /// An append to a journal failed mid-batch (disk full, short
    /// write, revoked handle). Distinct from [`CoreError::JournalIo`]
    /// — which covers open/read failures that abort before any work —
    /// because an append failure strikes *after* the point computed:
    /// the batch layer records it on the point and salvages the value
    /// in memory instead of aborting the sweep.
    JournalWriteFailed {
        /// The formatted OS error, with the path.
        message: String,
    },
    /// A circuit was refused before it ran because its estimated
    /// resource footprint exceeds the configured budget (CLI
    /// `--max-memory`, serve admission). Carries the estimator's
    /// breakdown so the caller can size the circuit.
    ResourceBudget {
        /// Estimated bytes the circuit needs (see
        /// [`crate::resource::ResourceEstimate`]).
        required: u64,
        /// The configured budget, bytes.
        limit: u64,
        /// Human-readable component breakdown (C⁻¹, neighborhood
        /// tables, journal buffer, …).
        breakdown: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownNode { node } => write!(f, "unknown node {node}"),
            CoreError::UnknownJunction { junction } => {
                write!(f, "unknown junction {junction}")
            }
            CoreError::UnknownLead { lead } => write!(f, "unknown lead {lead}"),
            CoreError::InvalidComponent { what, value } => {
                write!(f, "invalid component value: {what} = {value}")
            }
            CoreError::SelfLoop { node } => {
                write!(f, "element connects node {node} to itself")
            }
            CoreError::NoJunctions => write!(f, "circuit has no tunnel junctions"),
            CoreError::FloatingIsland(e) => {
                write!(f, "capacitance matrix is singular (floating island): {e}")
            }
            CoreError::InvalidConfig { what, value } => {
                write!(f, "invalid configuration: {what} = {value}")
            }
            CoreError::BlockadeStall { time } => {
                write!(
                    f,
                    "all tunnel rates are zero at t = {time:.3e} s (Coulomb blockade stall)"
                )
            }
            CoreError::NumericalFault {
                stage,
                junction,
                value,
            } => match junction {
                Some(j) => write!(f, "numerical fault in {stage} (index {j}): value {value}"),
                None => write!(f, "numerical fault in {stage}: value {value}"),
            },
            CoreError::CheckpointCorrupt { what } => {
                write!(f, "corrupt checkpoint: {what}")
            }
            CoreError::CheckpointMismatch {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "checkpoint does not match this simulation: {what} \
                     (simulation has {expected}, checkpoint has {found})"
                )
            }
            CoreError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            CoreError::JournalCorrupt { what } => {
                write!(f, "corrupt journal: {what}")
            }
            CoreError::JournalVersionSkew { found, supported } => {
                write!(
                    f,
                    "journal version skew: file is version {found}, \
                     this build reads up to version {supported}"
                )
            }
            CoreError::JournalMismatch {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "journal does not match this batch: {what} \
                     (batch has {expected}, journal has {found})"
                )
            }
            CoreError::JournalIo { message } => {
                write!(f, "journal I/O error: {message}")
            }
            CoreError::JournalWriteFailed { message } => {
                write!(f, "journal write failed: {message}")
            }
            CoreError::ResourceBudget {
                required,
                limit,
                breakdown,
            } => {
                write!(
                    f,
                    "resource budget exceeded: circuit needs an estimated \
                     {required} bytes but the limit is {limit} bytes ({breakdown})"
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::FloatingIsland(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::FloatingIsland(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CoreError::UnknownNode { node: 3 }.to_string(),
            "unknown node 3"
        );
        assert_eq!(
            CoreError::NoJunctions.to_string(),
            "circuit has no tunnel junctions"
        );
        let e = CoreError::InvalidComponent {
            what: "junction resistance",
            value: -1.0,
        };
        assert_eq!(
            e.to_string(),
            "invalid component value: junction resistance = -1"
        );
    }

    #[test]
    fn robustness_display_messages() {
        let e = CoreError::NumericalFault {
            stage: FaultStage::TunnelRate,
            junction: Some(3),
            value: f64::NAN,
        };
        assert_eq!(
            e.to_string(),
            "numerical fault in tunnel rate evaluation (index 3): value NaN"
        );
        assert_eq!(
            CoreError::CheckpointCorrupt { what: "checksum" }.to_string(),
            "corrupt checkpoint: checksum"
        );
        let m = CoreError::CheckpointMismatch {
            what: "islands",
            expected: 2,
            found: 5,
        };
        assert_eq!(
            m.to_string(),
            "checkpoint does not match this simulation: islands \
             (simulation has 2, checkpoint has 5)"
        );
    }

    #[test]
    fn resource_display_messages() {
        let e = CoreError::ResourceBudget {
            required: 2048,
            limit: 1024,
            breakdown: "C⁻¹ 1.0 KiB".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "resource budget exceeded: circuit needs an estimated \
             2048 bytes but the limit is 1024 bytes (C⁻¹ 1.0 KiB)"
        );
        let w = CoreError::JournalWriteFailed {
            message: "sweep.jl: No space left on device (os error 28)".to_string(),
        };
        assert_eq!(
            w.to_string(),
            "journal write failed: sweep.jl: No space left on device (os error 28)"
        );
    }

    #[test]
    fn source_chains_linalg_error() {
        let e = CoreError::FloatingIsland(LinalgError::Singular { pivot: 0 });
        assert!(e.source().is_some());
        assert!(CoreError::NoJunctions.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
