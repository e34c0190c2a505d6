//! Versioned, self-describing binary checkpoints of a running
//! simulation (hand-rolled codec — the workspace has no serialization
//! dependency).
//!
//! ## Format (version 2)
//!
//! All integers and floats are little-endian; `f64` values are stored
//! as their IEEE-754 bit patterns, so a round trip is bit-exact.
//!
//! ```text
//! magic    8 bytes  b"SEMSIMCP"
//! version  u32
//! payload  …        (see [`Checkpoint`]; vectors are u64-length-prefixed)
//! checksum u64      FNV-1a over everything before it
//! ```
//!
//! A checkpoint captures the *dynamic* state only — electron numbers,
//! lead voltages, RNG stream, clocks, stimuli queue, probe traces, and
//! solver counters. The circuit and configuration are not serialized;
//! [`Simulation::resume`](crate::engine::Simulation::resume) must be
//! called on a simulation built from the same circuit and an equivalent
//! [`SimConfig`](crate::engine::SimConfig), and validates the shape
//! (island/lead/junction counts, solver kind) against the snapshot.
//! Decoding rejects truncated or bit-flipped streams with
//! [`CoreError::CheckpointCorrupt`](crate::CoreError).
//!
//! Version 3 appends the adaptive solver's potential-update counter to
//! version 2's layout. Versions 1 and 2 come from builds whose `C⁻¹`
//! (version 2: a dense inverse of an LU factor) or island reads
//! (version 1) differ, and resuming one would continue a trajectory
//! neither solver produces, so they are refused.

use crate::engine::Stimulus;
use crate::solver::AdaptiveStats;
use crate::CoreError;

/// Magic prefix of every checkpoint stream.
const MAGIC: &[u8; 8] = b"SEMSIMCP";

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 3;

/// A decoded probe snapshot: node index, sampling period, samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSnapshot {
    /// Probed node index.
    pub node: u64,
    /// Sampling period (events).
    pub every: u64,
    /// Collected `(time, volts)` samples.
    pub samples: Vec<(f64, f64)>,
}

/// Solver-specific counters captured alongside the circuit state, so a
/// resumed run reports the same cumulative statistics as the
/// uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverSnapshot {
    /// Non-adaptive solver counters.
    NonAdaptive {
        /// Cumulative junction rate recalculations.
        rate_recalcs: u64,
    },
    /// Adaptive solver counters and current (possibly tightened)
    /// threshold.
    Adaptive {
        /// Testing threshold θ at checkpoint time.
        threshold: f64,
        /// Configured full-refresh period.
        refresh_interval: u64,
        /// Cumulative work counters.
        stats: AdaptiveStats,
    },
}

/// A decoded checkpoint: the complete dynamic state of a
/// [`Simulation`](crate::engine::Simulation) at a synchronization
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulated time (s).
    pub time: f64,
    /// Total events executed since construction.
    pub events: u64,
    /// xoshiro256++ generator state.
    pub rng_state: [u64; 4],
    /// Number of islands (shape validation).
    pub islands: u64,
    /// Number of leads (shape validation).
    pub leads: u64,
    /// Number of junctions (shape validation).
    pub junctions: u64,
    /// Excess electrons per island.
    pub electrons: Vec<i64>,
    /// Instantaneous lead voltages (V).
    pub lead_voltages: Vec<f64>,
    /// Cumulative signed electron counts per junction.
    pub electron_counts: Vec<f64>,
    /// Scheduled stimuli (sorted).
    pub stimuli: Vec<Stimulus>,
    /// Index of the next pending stimulus.
    pub next_stimulus: u64,
    /// Attached probes with their accumulated traces.
    pub probes: Vec<ProbeSnapshot>,
    /// Solver counters.
    pub solver: SolverSnapshot,
}

impl Checkpoint {
    /// Serializes to the versioned, checksummed byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(FORMAT_VERSION);
        w.f64(self.time);
        w.u64(self.events);
        for s in self.rng_state {
            w.u64(s);
        }
        w.u64(self.islands);
        w.u64(self.leads);
        w.u64(self.junctions);
        w.u64(self.electrons.len() as u64);
        for &e in &self.electrons {
            w.i64(e);
        }
        w.u64(self.lead_voltages.len() as u64);
        for &v in &self.lead_voltages {
            w.f64(v);
        }
        w.u64(self.electron_counts.len() as u64);
        for &c in &self.electron_counts {
            w.f64(c);
        }
        w.u64(self.stimuli.len() as u64);
        for s in &self.stimuli {
            w.f64(s.time);
            w.u64(s.lead as u64);
            w.f64(s.voltage);
        }
        w.u64(self.next_stimulus);
        w.u64(self.probes.len() as u64);
        for p in &self.probes {
            w.u64(p.node);
            w.u64(p.every);
            w.u64(p.samples.len() as u64);
            for &(t, v) in &p.samples {
                w.f64(t);
                w.f64(v);
            }
        }
        match &self.solver {
            SolverSnapshot::NonAdaptive { rate_recalcs } => {
                w.u32(0);
                w.u64(*rate_recalcs);
            }
            SolverSnapshot::Adaptive {
                threshold,
                refresh_interval,
                stats,
            } => {
                w.u32(1);
                w.f64(*threshold);
                w.u64(*refresh_interval);
                w.u64(stats.events);
                w.u64(stats.junctions_tested);
                w.u64(stats.rate_recalcs);
                w.u64(stats.full_refreshes);
                w.u64(stats.potential_updates);
            }
        }
        let checksum = fnv1a64(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Decodes and structurally validates a checkpoint stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointCorrupt`] on bad magic, unsupported
    /// version, truncation, implausible lengths, or checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(CoreError::CheckpointCorrupt { what: "truncated" });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(tail);
        if fnv1a64(body) != u64::from_le_bytes(sum) {
            return Err(CoreError::CheckpointCorrupt { what: "checksum" });
        }
        let mut r = Reader { buf: body, pos: 0 };
        if r.bytes(MAGIC.len(), "magic")? != MAGIC {
            return Err(CoreError::CheckpointCorrupt { what: "magic" });
        }
        let version = r.u32("version")?;
        if version != FORMAT_VERSION {
            return Err(CoreError::CheckpointCorrupt {
                what: "unsupported version",
            });
        }
        let time = r.f64("time")?;
        let events = r.u64("events")?;
        let rng_state = [
            r.u64("rng state")?,
            r.u64("rng state")?,
            r.u64("rng state")?,
            r.u64("rng state")?,
        ];
        let islands = r.u64("island count")?;
        let leads = r.u64("lead count")?;
        let junctions = r.u64("junction count")?;
        let n = r.len("electrons", 8)?;
        let mut electrons = Vec::with_capacity(n);
        for _ in 0..n {
            electrons.push(r.i64("electrons")?);
        }
        let n = r.len("lead voltages", 8)?;
        let mut lead_voltages = Vec::with_capacity(n);
        for _ in 0..n {
            lead_voltages.push(r.f64("lead voltages")?);
        }
        let n = r.len("electron counts", 8)?;
        let mut electron_counts = Vec::with_capacity(n);
        for _ in 0..n {
            electron_counts.push(r.f64("electron counts")?);
        }
        let n = r.len("stimuli", 24)?;
        let mut stimuli = Vec::with_capacity(n);
        for _ in 0..n {
            stimuli.push(Stimulus {
                time: r.f64("stimulus time")?,
                lead: r.u64("stimulus lead")? as usize,
                voltage: r.f64("stimulus voltage")?,
            });
        }
        let next_stimulus = r.u64("next stimulus")?;
        let n = r.len("probes", 24)?;
        let mut probes = Vec::with_capacity(n);
        for _ in 0..n {
            let node = r.u64("probe node")?;
            let every = r.u64("probe period")?;
            let ns = r.len("probe samples", 16)?;
            let mut samples = Vec::with_capacity(ns);
            for _ in 0..ns {
                samples.push((r.f64("probe sample")?, r.f64("probe sample")?));
            }
            probes.push(ProbeSnapshot {
                node,
                every,
                samples,
            });
        }
        let solver = match r.u32("solver kind")? {
            0 => SolverSnapshot::NonAdaptive {
                rate_recalcs: r.u64("rate recalcs")?,
            },
            1 => SolverSnapshot::Adaptive {
                threshold: r.f64("threshold")?,
                refresh_interval: r.u64("refresh interval")?,
                stats: AdaptiveStats {
                    events: r.u64("adaptive events")?,
                    junctions_tested: r.u64("junctions tested")?,
                    rate_recalcs: r.u64("rate recalcs")?,
                    full_refreshes: r.u64("full refreshes")?,
                    potential_updates: r.u64("potential updates")?,
                },
            },
            _ => {
                return Err(CoreError::CheckpointCorrupt {
                    what: "unknown solver kind",
                })
            }
        };
        if r.pos != body.len() {
            return Err(CoreError::CheckpointCorrupt {
                what: "trailing bytes",
            });
        }
        Ok(Checkpoint {
            time,
            events,
            rng_state,
            islands,
            leads,
            junctions,
            electrons,
            lead_voltages,
            electron_counts,
            stimuli,
            next_stimulus,
            probes,
            solver,
        })
    }
}

/// FNV-1a 64-bit hash — an error-detection checksum (not cryptographic).
/// Shared by the checkpoint (`SEMSIMCP`) and journal (`SEMSIMJL`)
/// formats.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian byte writer of the SEMSIM binary formats. Shared by
/// the checkpoint codec and the append-only journal in
/// [`crate::journal`] so every on-disk artifact uses one encoding.
#[derive(Default)]
pub struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    /// The encoded bytes so far (for hashing an encoding in memory).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice; the `what`
/// labels flow into [`CoreError::CheckpointCorrupt`] so a truncated
/// stream names the field it died in. Counterpart of [`Writer`].
pub struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CoreError::CheckpointCorrupt { what })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CoreError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.bytes(4, what)?);
        Ok(u32::from_le_bytes(b))
    }
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CoreError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.bytes(8, what)?);
        Ok(u64::from_le_bytes(b))
    }
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CoreError> {
        Ok(self.u64(what)? as i64)
    }
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    /// A u64 length prefix, sanity-checked against the bytes actually
    /// remaining (each element needs ≥ `elem_size` bytes) so a corrupt
    /// length cannot trigger an absurd allocation.
    pub fn len(&mut self, what: &'static str, elem_size: usize) -> Result<usize, CoreError> {
        let n = self.u64(what)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_size as u64)
            .is_none_or(|b| b > remaining)
        {
            return Err(CoreError::CheckpointCorrupt { what });
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            time: 1.25e-7,
            events: 10_000,
            rng_state: [1, u64::MAX, 3, 0xdead_beef],
            islands: 2,
            leads: 3,
            junctions: 4,
            electrons: vec![-1, 7],
            lead_voltages: vec![0.0, 25e-3, -25e-3],
            electron_counts: vec![10.0, -3.0, 0.5, 0.0],
            stimuli: vec![Stimulus {
                time: 2e-7,
                lead: 1,
                voltage: 30e-3,
            }],
            next_stimulus: 0,
            probes: vec![ProbeSnapshot {
                node: 3,
                every: 2,
                samples: vec![(1e-9, 0.001), (2e-9, -0.002)],
            }],
            solver: SolverSnapshot::Adaptive {
                threshold: 0.05,
                refresh_interval: 500,
                stats: AdaptiveStats {
                    events: 10_000,
                    junctions_tested: 40_000,
                    rate_recalcs: 9_000,
                    full_refreshes: 20,
                    potential_updates: 1_500_000,
                },
            },
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let cp = sample();
        let bytes = cp.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(cp, back);

        let nonadaptive = Checkpoint {
            solver: SolverSnapshot::NonAdaptive { rate_recalcs: 77 },
            ..sample()
        };
        let back = Checkpoint::decode(&nonadaptive.encode()).unwrap();
        assert_eq!(nonadaptive, back);
    }

    #[test]
    fn negative_zero_and_subnormals_survive() {
        let mut cp = sample();
        cp.lead_voltages = vec![-0.0, f64::MIN_POSITIVE, 5e-324];
        cp.leads = 3;
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        for (a, b) in cp.lead_voltages.iter().zip(&back.lead_voltages) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode();
        // Truncation.
        assert!(matches!(
            Checkpoint::decode(&bytes[..bytes.len() - 1]),
            Err(CoreError::CheckpointCorrupt { .. })
        ));
        assert!(matches!(
            Checkpoint::decode(&[]),
            Err(CoreError::CheckpointCorrupt { what: "truncated" })
        ));
        // A flipped bit anywhere must fail the checksum.
        for i in [0, 8, 20, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    Checkpoint::decode(&bad),
                    Err(CoreError::CheckpointCorrupt { .. })
                ),
                "flip at {i} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        // Re-seal the checksum so only the magic is wrong.
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CoreError::CheckpointCorrupt { what: "magic" })
        ));

        let mut bytes = sample().encode();
        bytes[8] = 99; // version LSB
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CoreError::CheckpointCorrupt {
                what: "unsupported version"
            })
        ));
    }

    #[test]
    fn versions_one_and_two_are_refused() {
        for old in [1u32, 2] {
            let mut bytes = sample().encode();
            assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let body_len = bytes.len() - 8;
            let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
            bytes[body_len..].copy_from_slice(&sum);
            assert!(matches!(
                Checkpoint::decode(&bytes),
                Err(CoreError::CheckpointCorrupt {
                    what: "unsupported version"
                })
            ));
        }
    }

    #[test]
    fn implausible_length_rejected() {
        // Corrupt the electrons length field to a huge value and
        // re-seal the checksum: the length sanity check must refuse.
        let cp = sample();
        let bytes = cp.encode();
        // Offset of the electrons length: magic(8)+version(4)+time(8)
        // +events(8)+rng(32)+islands(8)+leads(8)+junctions(8) = 84.
        let off = 84;
        let mut bad = bytes.clone();
        bad[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = bad.len() - 8;
        let sum = fnv1a64(&bad[..body_len]).to_le_bytes();
        bad[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(CoreError::CheckpointCorrupt { what: "electrons" })
        ));
    }
}
