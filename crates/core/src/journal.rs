//! Crash-safe batch journal: the append-only `SEMSIMJL` format.
//!
//! A [`Journal`] records every *successful* point of a batch (sweep or
//! ensemble) as it completes, so a killed run can be resumed with
//! `--resume` and skip straight past the finished work. The format
//! reuses the checkpoint codec ([`Writer`]/[`Reader`], little-endian,
//! FNV-1a checksums — see [`crate::checkpoint`]):
//!
//! ```text
//! header  :=  b"SEMSIMJL"  version:u32  master_seed:u64  tasks:u64
//!             fingerprint:u64  kind:u32  fnv1a64(preceding 40 bytes):u64
//! record  :=  body_len:u32  body  fnv1a64(body):u64
//! body    :=  task:u64  status:u32  recovered_attempts:u32
//!             n_attempts:u32  attempt*  payload(T)
//! attempt :=  attempt:u32  seed:u64  action:u32  has_fault:u32
//!             [fault_len:u32  fault_utf8]
//! ```
//!
//! Design rules, all in service of the batch determinism contract:
//!
//! - **Append-only.** A crash can only ever produce a *truncated or
//!   torn final record*. [`scan`] validates records front to back and
//!   stops at the first invalid one; everything before it is trusted
//!   (each record carries its own checksum), everything from it on is
//!   the *discarded tail*. Resuming truncates the file back to the
//!   valid prefix — corrupt tails are dropped, never repaired.
//! - **Header identity.** The header pins the master seed, task count,
//!   payload kind, and a configuration fingerprint; [`Journal::resume`]
//!   refuses (with [`CoreError::JournalMismatch`]) to resume a journal
//!   written by a different batch, because replaying foreign points
//!   would silently violate bit-identical resume.
//! - **Only `Ok`/`Recovered` points are journaled.** A `Faulted` point
//!   holds no value worth replaying — on resume it is simply run again
//!   (deterministically). `Skipped` points came *from* the journal and
//!   are never written back.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::batch::{AttemptRecord, PointStatus, RecoveryAction};
use crate::checkpoint::{fnv1a64, Reader, Writer};
use crate::engine::SweepPoint;
use crate::health::RunOutcome;
use crate::CoreError;

/// Magic prefix of a journal file.
pub const MAGIC: &[u8; 8] = b"SEMSIMJL";
/// Current journal format version.
pub const FORMAT_VERSION: u32 = 1;
/// Header size on disk: magic + version + seed + tasks + fingerprint +
/// kind + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 4 + 8;

/// A value that can ride in a journal record. Implemented by
/// [`SweepPoint`] (sweeps and maps) and
/// [`ReplicaSummary`](crate::batch::ReplicaSummary) (ensembles).
pub trait JournalItem: Sized {
    /// Payload discriminator stored in the header so a sweep journal
    /// cannot be resumed against an ensemble (or vice versa).
    const KIND: u32;
    /// Serializes the payload.
    fn encode(&self, w: &mut Writer);
    /// Deserializes the payload (bounds- and tag-checked).
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] marks the record — and therefore the rest of
    /// the file — as a corrupt tail.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CoreError>;
}

/// Identity of the batch a journal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Master RNG seed of the batch.
    pub master_seed: u64,
    /// Total task count of the batch.
    pub tasks: u64,
    /// FNV-1a fingerprint of everything else that determines point
    /// values (controls, run lengths, solver/physics configuration,
    /// retry policy — see [`crate::batch`]).
    pub fingerprint: u64,
    /// Payload discriminator ([`JournalItem::KIND`]).
    pub kind: u32,
}

impl JournalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(self.master_seed);
        w.u64(self.tasks);
        w.u64(self.fingerprint);
        w.u32(self.kind);
        let sum = fnv1a64(&w.buf);
        w.u64(sum);
        w.buf
    }

    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(CoreError::JournalCorrupt {
                what: "truncated header",
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(CoreError::JournalCorrupt { what: "magic" });
        }
        let body = &bytes[..HEADER_LEN - 8];
        let mut r = Reader::new(&bytes[8..HEADER_LEN]);
        let version = r.u32("journal version")?;
        let header = JournalHeader {
            master_seed: r.u64("journal master seed")?,
            tasks: r.u64("journal task count")?,
            fingerprint: r.u64("journal fingerprint")?,
            kind: r.u32("journal payload kind")?,
        };
        let stored = r.u64("journal header checksum")?;
        // Checksum before version: a rotted version *field* is
        // corruption; only a resealed header from a genuinely newer
        // writer reports as skew.
        if stored != fnv1a64(body) {
            return Err(CoreError::JournalCorrupt {
                what: "header checksum",
            });
        }
        if version != FORMAT_VERSION {
            return Err(CoreError::JournalVersionSkew {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(header)
    }

    /// Rejects a journal written by a different batch.
    fn check(&self, found: &JournalHeader) -> Result<(), CoreError> {
        let mismatch = |what, expected, found| CoreError::JournalMismatch {
            what,
            expected,
            found,
        };
        if found.kind != self.kind {
            return Err(mismatch(
                "payload kind",
                u64::from(self.kind),
                u64::from(found.kind),
            ));
        }
        if found.master_seed != self.master_seed {
            return Err(mismatch("master seed", self.master_seed, found.master_seed));
        }
        if found.tasks != self.tasks {
            return Err(mismatch("task count", self.tasks, found.tasks));
        }
        if found.fingerprint != self.fingerprint {
            return Err(mismatch(
                "configuration fingerprint",
                self.fingerprint,
                found.fingerprint,
            ));
        }
        Ok(())
    }
}

/// One journaled point: the task it belongs to, how it finished
/// ([`PointStatus::Ok`] or [`PointStatus::Recovered`]), the attempt
/// log that got it there, and the value itself.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry<T> {
    /// Task index within the batch.
    pub task: usize,
    /// How the point finished (only `Ok`/`Recovered` are journalable).
    pub status: PointStatus,
    /// Per-attempt log (seed, recovery action, fault that ended it).
    pub attempts: Vec<AttemptRecord>,
    /// The point value.
    pub item: T,
}

/// Result of [`scan`]: the header, every valid entry in file order,
/// and how much trailing garbage (if any) follows the valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan<T> {
    /// Validated file header.
    pub header: JournalHeader,
    /// Valid entries, in the order they were appended.
    pub entries: Vec<JournalEntry<T>>,
    /// Byte length of the valid prefix (header + valid records).
    pub valid_len: usize,
    /// Bytes after the valid prefix (a torn record, a truncated write,
    /// or bit rot) — safe to discard.
    pub discarded_tail_bytes: usize,
    /// Which check the first invalid record failed (`None` when the
    /// file ends cleanly on a record boundary). Surfaced through
    /// `--resume` and serve-restart logs so operators can tell a torn
    /// crash write from on-disk rot.
    pub tail_reason: Option<String>,
}

pub(crate) fn encode_outcome(w: &mut Writer, outcome: &RunOutcome) {
    match outcome {
        RunOutcome::Completed => {
            w.u32(0);
            w.u64(0);
        }
        RunOutcome::Blockaded { time } => {
            w.u32(1);
            w.f64(*time);
        }
        RunOutcome::WallClockExceeded { budget } => {
            w.u32(2);
            w.f64(*budget);
        }
        RunOutcome::EventCapReached { cap } => {
            w.u32(3);
            w.u64(*cap);
        }
    }
}

pub(crate) fn decode_outcome(r: &mut Reader<'_>) -> Result<RunOutcome, CoreError> {
    let tag = r.u32("outcome tag")?;
    Ok(match tag {
        0 => {
            r.u64("outcome payload")?;
            RunOutcome::Completed
        }
        1 => RunOutcome::Blockaded {
            time: r.f64("outcome payload")?,
        },
        2 => RunOutcome::WallClockExceeded {
            budget: r.f64("outcome payload")?,
        },
        3 => RunOutcome::EventCapReached {
            cap: r.u64("outcome payload")?,
        },
        _ => {
            return Err(CoreError::JournalCorrupt {
                what: "outcome tag",
            })
        }
    })
}

impl JournalItem for SweepPoint {
    const KIND: u32 = 1;

    fn encode(&self, w: &mut Writer) {
        w.f64(self.control);
        w.f64(self.current);
        encode_outcome(w, &self.outcome);
        w.u64(self.events);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CoreError> {
        Ok(SweepPoint {
            control: r.f64("sweep point control")?,
            current: r.f64("sweep point current")?,
            outcome: decode_outcome(r)?,
            events: r.u64("sweep point events")?,
        })
    }
}

fn encode_action(action: RecoveryAction) -> u32 {
    match action {
        RecoveryAction::Initial => 0,
        RecoveryAction::RerunSame => 1,
        RecoveryAction::ReseedTightened => 2,
        RecoveryAction::SolverFallback => 3,
    }
}

fn decode_action(tag: u32) -> Result<RecoveryAction, CoreError> {
    Ok(match tag {
        0 => RecoveryAction::Initial,
        1 => RecoveryAction::RerunSame,
        2 => RecoveryAction::ReseedTightened,
        3 => RecoveryAction::SolverFallback,
        _ => {
            return Err(CoreError::JournalCorrupt {
                what: "recovery action tag",
            })
        }
    })
}

fn encode_entry<T: JournalItem>(entry: &JournalEntry<T>) -> Result<Vec<u8>, CoreError> {
    let (status_tag, recovered_attempts) = match entry.status {
        PointStatus::Ok => (0u32, 0u32),
        PointStatus::Recovered { attempts } => (1, attempts),
        PointStatus::Faulted | PointStatus::Skipped | PointStatus::Cancelled => {
            return Err(CoreError::JournalCorrupt {
                what: "only Ok/Recovered points are journalable",
            })
        }
    };
    let mut w = Writer::new();
    w.u64(entry.task as u64);
    w.u32(status_tag);
    w.u32(recovered_attempts);
    w.u32(entry.attempts.len() as u32);
    for a in &entry.attempts {
        w.u32(a.attempt);
        w.u64(a.seed);
        w.u32(encode_action(a.action));
        match &a.fault {
            None => w.u32(0),
            Some(msg) => {
                w.u32(1);
                w.u32(msg.len() as u32);
                w.bytes(msg.as_bytes());
            }
        }
    }
    entry.item.encode(&mut w);
    let body = w.buf;
    let mut framed = Writer::new();
    framed.u32(body.len() as u32);
    framed.bytes(&body);
    framed.u64(fnv1a64(&body));
    Ok(framed.buf)
}

fn decode_entry<T: JournalItem>(body: &[u8], tasks: u64) -> Result<JournalEntry<T>, CoreError> {
    let corrupt = |what| CoreError::JournalCorrupt { what };
    let mut r = Reader::new(body);
    let task = r.u64("record task")?;
    if task >= tasks {
        return Err(corrupt("record task out of range"));
    }
    let status_tag = r.u32("record status")?;
    let recovered_attempts = r.u32("record recovered attempts")?;
    let status = match status_tag {
        0 => PointStatus::Ok,
        1 => PointStatus::Recovered {
            attempts: recovered_attempts,
        },
        _ => return Err(corrupt("record status tag")),
    };
    let n = r.u32("attempt count")? as usize;
    if n > body.len() {
        return Err(corrupt("attempt count out of range"));
    }
    let mut attempts = Vec::with_capacity(n);
    for _ in 0..n {
        let attempt = r.u32("attempt index")?;
        let seed = r.u64("attempt seed")?;
        let action = decode_action(r.u32("attempt action")?)?;
        let fault = match r.u32("attempt fault flag")? {
            0 => None,
            1 => {
                let len = r.u32("attempt fault length")? as usize;
                let bytes = r.bytes(len, "attempt fault text")?;
                Some(String::from_utf8_lossy(bytes).into_owned())
            }
            _ => return Err(corrupt("attempt fault flag")),
        };
        attempts.push(AttemptRecord {
            attempt,
            seed,
            action,
            fault,
        });
    }
    let item = T::decode(&mut r)?;
    if r.pos != body.len() {
        return Err(corrupt("trailing bytes in record"));
    }
    Ok(JournalEntry {
        task: task as usize,
        status,
        attempts,
        item,
    })
}

/// Validates `bytes` as a journal and returns every intact entry plus
/// the size of the valid prefix. Pure (no I/O), so tests can exercise
/// truncation at every byte boundary and arbitrary bit flips directly.
///
/// # Errors
///
/// [`CoreError::JournalCorrupt`] only for an invalid *header* (magic,
/// version, truncation, checksum). Invalid *records* are not errors:
/// the scan stops there and reports the rest of the file as
/// `discarded_tail_bytes`.
pub fn scan<T: JournalItem>(bytes: &[u8]) -> Result<Scan<T>, CoreError> {
    let header = JournalHeader::decode(bytes)?;
    let mut entries: Vec<JournalEntry<T>> = Vec::new();
    let mut pos = HEADER_LEN;
    let mut tail_reason: Option<String> = None;
    loop {
        let remaining = &bytes[pos..];
        if remaining.is_empty() {
            break;
        }
        // A record needs its u32 length frame, body, and u64 checksum
        // all present and consistent; anything else is the torn tail.
        // The first failed check names the tail so resume logs can say
        // *why* bytes were discarded, not just how many.
        let Some(len_bytes) = remaining.get(..4) else {
            tail_reason = Some("torn record: truncated length frame".into());
            break;
        };
        let mut b = [0u8; 4];
        b.copy_from_slice(len_bytes);
        let body_len = u32::from_le_bytes(b) as usize;
        let Some(body) = remaining.get(4..4 + body_len) else {
            tail_reason = Some("torn record: truncated body".into());
            break;
        };
        let Some(sum_bytes) = remaining.get(4 + body_len..4 + body_len + 8) else {
            tail_reason = Some("torn record: truncated checksum".into());
            break;
        };
        let mut s = [0u8; 8];
        s.copy_from_slice(sum_bytes);
        if u64::from_le_bytes(s) != fnv1a64(body) {
            tail_reason = Some("record checksum mismatch".into());
            break;
        }
        match decode_entry::<T>(body, header.tasks) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                tail_reason = Some(e.to_string());
                break;
            }
        }
        pos += 4 + body_len + 8;
    }
    Ok(Scan {
        header,
        entries,
        valid_len: pos,
        discarded_tail_bytes: bytes.len() - pos,
        tail_reason,
    })
}

fn io_err(path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::JournalIo {
        message: format!("{}: {e}", path.display()),
    }
}

/// An open journal: restored entries from a resume (if any) plus an
/// append handle the batch drivers write completed points through.
/// Appends are whole-record `write_all` calls behind a mutex, so
/// concurrent workers interleave at record granularity only — a crash
/// tears at most the final record, which the next resume discards.
#[derive(Debug)]
pub struct Journal<T> {
    file: Mutex<File>,
    path: PathBuf,
    restored: Vec<JournalEntry<T>>,
    discarded_tail_bytes: usize,
    discarded_tail_reason: Option<String>,
    /// Set after the first failed append. A failed append may tear a
    /// record at the end of the file; any record written after a torn
    /// one would sit beyond the next resume's scan horizon and be
    /// silently unreachable, so the journal refuses all further
    /// appends once one fails.
    failed: Mutex<Option<String>>,
    /// Scripted write failure (testing only): `(appends remaining
    /// before the fault fires, bytes of the faulting record actually
    /// written — a torn short write, like real ENOSPC)`.
    #[cfg(feature = "fault-inject")]
    write_fault: Mutex<Option<(u64, usize)>>,
}

/// Formats a failed append as the [`CoreError::JournalWriteFailed`]
/// the batch layer salvages around, naming ENOSPC explicitly — the
/// one write failure users can act on without a debugger.
fn write_err(path: &Path, e: &std::io::Error) -> CoreError {
    let hint = if e.raw_os_error() == Some(28) {
        " [disk full]"
    } else {
        ""
    };
    CoreError::JournalWriteFailed {
        message: format!("{}: {e}{hint}", path.display()),
    }
}

impl<T: JournalItem> Journal<T> {
    /// Creates (or truncates) a journal for a fresh batch and writes
    /// its header.
    ///
    /// # Errors
    ///
    /// [`CoreError::JournalIo`] on any filesystem failure.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, CoreError> {
        let mut file = File::create(path).map_err(|e| io_err(path, &e))?;
        file.write_all(&header.encode())
            .map_err(|e| io_err(path, &e))?;
        Ok(Journal {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            restored: Vec::new(),
            discarded_tail_bytes: 0,
            discarded_tail_reason: None,
            failed: Mutex::new(None),
            #[cfg(feature = "fault-inject")]
            write_fault: Mutex::new(None),
        })
    }

    /// Opens an existing journal for resume: validates the header
    /// against `header`, restores every intact entry, truncates any
    /// corrupt tail off the file, and positions the handle for
    /// appending. A missing file degrades to [`Journal::create`] —
    /// `--resume` on a first run is not an error.
    ///
    /// # Errors
    ///
    /// [`CoreError::JournalCorrupt`] for an unreadable header,
    /// [`CoreError::JournalMismatch`] when the journal belongs to a
    /// different batch, [`CoreError::JournalIo`] on filesystem
    /// failures.
    pub fn resume(path: &Path, header: &JournalHeader) -> Result<Self, CoreError> {
        if !path.exists() {
            return Self::create(path, header);
        }
        let bytes = std::fs::read(path).map_err(|e| io_err(path, &e))?;
        let scan = scan::<T>(&bytes)?;
        header.check(&scan.header)?;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        if scan.discarded_tail_bytes > 0 {
            file.set_len(scan.valid_len as u64)
                .map_err(|e| io_err(path, &e))?;
        }
        let mut file = file;
        use std::io::{Seek, SeekFrom};
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, &e))?;
        Ok(Journal {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            restored: scan.entries,
            discarded_tail_bytes: scan.discarded_tail_bytes,
            discarded_tail_reason: scan.tail_reason,
            failed: Mutex::new(None),
            #[cfg(feature = "fault-inject")]
            write_fault: Mutex::new(None),
        })
    }

    /// Appends one completed point. Safe to call from parallel workers.
    ///
    /// A failed append (ENOSPC, short write, revoked handle) may leave
    /// a torn record at the end of the file. That tail is exactly what
    /// [`scan`] discards on the next resume, so the journal stays
    /// loadable — but the caller must stop appending: a later record
    /// written after a torn one would sit beyond the scan horizon and
    /// be silently unreachable. The batch layer enforces this (it
    /// disables journaling for the rest of the batch and salvages
    /// points in memory).
    ///
    /// # Errors
    ///
    /// [`CoreError::JournalWriteFailed`] on write failure (the message
    /// names ENOSPC when the OS reports it);
    /// [`CoreError::JournalCorrupt`] when `entry.status` is not
    /// journalable (`Faulted`/`Skipped` — a caller bug).
    pub fn append(&self, entry: &JournalEntry<T>) -> Result<(), CoreError> {
        let record = encode_entry(entry)?;
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut failed = self
            .failed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(message) = failed.as_ref() {
            return Err(CoreError::JournalWriteFailed {
                message: format!(
                    "{}: append disabled after earlier write failure ({message})",
                    self.path.display()
                ),
            });
        }
        #[cfg(feature = "fault-inject")]
        {
            let mut fault = self
                .write_fault
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some((remaining, torn_bytes)) = fault.as_mut() {
                if *remaining == 0 {
                    // A real ENOSPC writes what fits, then fails: tear
                    // the record mid-write so resume sees the same
                    // torn tail a genuine disk-full leaves behind.
                    let torn = (*torn_bytes).min(record.len());
                    let _ = file.write_all(&record[..torn]);
                    let e = std::io::Error::from_raw_os_error(28);
                    *failed = Some(e.to_string());
                    return Err(write_err(&self.path, &e));
                }
                *remaining -= 1;
            }
        }
        file.write_all(&record).map_err(|e| {
            *failed = Some(e.to_string());
            write_err(&self.path, &e)
        })
    }

    /// Arms a scripted append failure (testing only): the next
    /// `after_appends` appends succeed, then every later append writes
    /// only `torn_bytes` bytes of its record and fails like ENOSPC.
    #[cfg(feature = "fault-inject")]
    pub fn arm_write_failure(&self, after_appends: u64, torn_bytes: usize) {
        *self
            .write_fault
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some((after_appends, torn_bytes));
    }

    /// Takes the entries restored by [`Journal::resume`] (empty for a
    /// fresh journal).
    pub fn take_restored(&mut self) -> Vec<JournalEntry<T>> {
        std::mem::take(&mut self.restored)
    }

    /// Bytes of corrupt tail discarded when the journal was opened.
    #[must_use]
    pub fn discarded_tail_bytes(&self) -> usize {
        self.discarded_tail_bytes
    }

    /// Which check the discarded tail failed (`None` when the journal
    /// was clean).
    #[must_use]
    pub fn discarded_tail_reason(&self) -> Option<&str> {
        self.discarded_tail_reason.as_deref()
    }
}

/// Reads and validates only the header of a journal file, without
/// decoding records. Used by the serve layer's restart recovery to log
/// what each surviving journal claims to be — including *why* a
/// damaged one is refused (version skew, bad magic, checksum).
///
/// # Errors
///
/// [`CoreError::JournalIo`] when the file cannot be read;
/// [`CoreError::JournalCorrupt`] / [`CoreError::JournalVersionSkew`]
/// when the header fails validation.
pub fn read_header(path: &Path) -> Result<JournalHeader, CoreError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, &e))?;
    JournalHeader::decode(&bytes)
}

/// Corrupts the final byte of a journal file in place (testing only;
/// requires the `fault-inject` cargo feature). The next
/// [`Journal::resume`] must detect the damaged record checksum and
/// discard the tail.
///
/// # Errors
///
/// [`CoreError::JournalIo`] on filesystem failures;
/// [`CoreError::JournalCorrupt`] when the file has no record bytes to
/// corrupt.
#[cfg(feature = "fault-inject")]
pub fn corrupt_journal_tail(path: &Path) -> Result<(), CoreError> {
    let mut bytes = std::fs::read(path).map_err(|e| io_err(path, &e))?;
    if bytes.len() <= HEADER_LEN {
        return Err(CoreError::JournalCorrupt {
            what: "no records to corrupt",
        });
    }
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    std::fs::write(path, &bytes).map_err(|e| io_err(path, &e))
}
