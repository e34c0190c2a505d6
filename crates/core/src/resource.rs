//! Pre-admission resource cost model.
//!
//! The dense solver's memory footprint grows quadratically with the
//! island count (`C` and `C⁻¹` are `islands × islands` matrices of
//! `f64`), so a large circuit can OOM-kill a process long after
//! admission checks passed. This module predicts that footprint *from
//! counts alone* — before `CircuitBuilder::build` materialises
//! anything — so `semsim run --max-memory` and serve's `POST /jobs`
//! admission can refuse an oversized circuit with a structured
//! [`CoreError::ResourceBudget`] carrying the component breakdown,
//! instead of dying mid-job.
//!
//! Two estimators share one accounting scheme:
//!
//! - [`ResourceEstimate::predict`] is the admission-time model: a pure
//!   function of `(islands, leads, junctions)`. Its dense matrix terms
//!   are exact; the sparse/neighbourhood terms use a degree-based
//!   locality model capped at the dense assumption, so small
//!   strongly-coupled circuits are exact and large sparse ones (logic
//!   arrays) are not wildly over-priced.
//! - [`ResourceEstimate::measured`] walks a built [`Circuit`] and sums
//!   the *actual* allocation sizes of the same structures. The unit
//!   tests hold `predict` to within ±20 % of `measured` on the example
//!   netlists — allocation bytes are the deterministic proxy for RSS
//!   (the process-level number is page-granular and allocator-noisy at
//!   these sizes, while every byte here is resident by construction).
//!
//! The event-loop *time* cost is estimated alongside
//! ([`ResourceEstimate::event_cost`]): rate evaluations per event scale
//! with the dense neighbourhood size, plus a `log₂` Fenwick update.

use crate::circuit::Circuit;
use crate::error::CoreError;

/// Bytes of one `f64`.
const F64: u64 = 8;
/// Bytes of one `Vec<T>` header (ptr + len + cap on 64-bit targets).
const VEC_HEADER: u64 = 24;
/// Bytes of one sparsified-matrix entry (column index + value).
const SPARSE_ENTRY: u64 = 16;
/// Flat allowance for the journal's per-append encode buffer plus the
/// 48-byte header: one record is length frame + body (task index,
/// status, attempts, item payload) + checksum, re-encoded per append
/// into a transient buffer that the allocator keeps warm.
const JOURNAL_BUFFER: u64 = 4096;

/// A component-level estimate of a circuit's resident memory and
/// per-event compute cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Island count the estimate was made for.
    pub islands: u64,
    /// Lead count (including ground).
    pub leads: u64,
    /// Junction count.
    pub junctions: u64,
    /// `C` + `C⁻¹`: two dense `islands²` matrices of `f64`.
    pub dense_matrix_bytes: u64,
    /// `C_ext` + lead-response: two dense `islands × leads` matrices.
    pub coupling_bytes: u64,
    /// Row-sparsified `C⁻¹` view (entries + per-row headers).
    pub sparse_bytes: u64,
    /// The three precomputed incidence/dependency tables.
    pub neighborhood_bytes: u64,
    /// Hot-loop kernel buffers: the transposed `C⁻¹` and lead-response
    /// matrices (contiguous per-event gather columns for the testing
    /// kernel) plus the per-junction structure-of-arrays (four `u32`
    /// index lanes, three `f64` lanes).
    pub kernel_bytes: u64,
    /// Journal append buffer allowance (constant).
    pub journal_buffer_bytes: u64,
}

impl ResourceEstimate {
    /// Predicts the footprint from counts alone. The dense matrix
    /// blocks are exact (they depend only on the counts). The sparse
    /// and neighborhood structures use a degree-based locality model —
    /// the same locality the paper's adaptive solver exploits: a
    /// junction's coupling neighbourhood scales with the average node
    /// degree `2·junctions/(islands+leads)`, not with the circuit
    /// size, once load capacitances isolate stages. Every locality
    /// term is capped at the dense assumption, so small
    /// strongly-coupled circuits (where every junction sees every
    /// other) stay exact. Safe on absurd inputs: arithmetic saturates
    /// instead of overflowing, so a pathological request cannot wrap
    /// into a small "estimate".
    #[must_use]
    pub fn predict(islands: usize, leads: usize, junctions: usize) -> Self {
        let (i, l, j) = (islands as u64, leads as u64, junctions as u64);
        let sq = |x: u64| x.saturating_mul(x);
        let dense_matrix_bytes = 2u64.saturating_mul(sq(i)).saturating_mul(F64);
        let coupling_bytes = 2u64.saturating_mul(i).saturating_mul(l).saturating_mul(F64);
        // Effective coupling-neighbourhood size per junction:
        // ceil(3 × average node degree) = ceil(6j / (i+l)), capped at
        // the dense case (every junction).
        let denom = i.saturating_add(l).max(1);
        let degree3 = 6u64.saturating_mul(j).saturating_add(denom - 1) / denom;
        let n_eff = j.min(degree3.max(1));
        // Sparsified C⁻¹ rows keep entries above the coupling
        // threshold: about 3·n_eff per island row, capped at dense.
        let nnz = i.saturating_mul(i.min(3u64.saturating_mul(n_eff)));
        let sparse_bytes = nnz
            .saturating_mul(SPARSE_ENTRY)
            .saturating_add(i.saturating_mul(VEC_HEADER));
        // Per table (locality model, dense-capped):
        //   node_junctions    (islands+leads rows, 2·junctions total
        //                      — each junction sits at two nodes)
        //   island_dependents (islands rows, n_eff²/2 each)
        //   lead_dependents   (leads rows, junctions each — every
        //                      junction's ΔW sees every lead voltage)
        let rows = i.saturating_add(l).saturating_add(i).saturating_add(l);
        let entries = 2u64
            .saturating_mul(j)
            .saturating_add(i.saturating_mul(j.min((sq(n_eff) / 2).max(n_eff))))
            .saturating_add(l.saturating_mul(j));
        let neighborhood_bytes = entries
            .saturating_mul(F64)
            .saturating_add(rows.saturating_mul(VEC_HEADER));
        ResourceEstimate {
            islands: i,
            leads: l,
            junctions: j,
            dense_matrix_bytes,
            coupling_bytes,
            sparse_bytes,
            neighborhood_bytes,
            kernel_bytes: kernel_soa_bytes(i, l, j),
            journal_buffer_bytes: JOURNAL_BUFFER,
        }
    }

    /// Sums the actual allocation sizes of the same structures on a
    /// built circuit — what [`ResourceEstimate::predict`] approximates.
    #[must_use]
    pub fn measured(circuit: &Circuit) -> Self {
        let islands = circuit.num_islands() as u64;
        let leads = circuit.num_leads() as u64;
        let junctions = circuit.num_junctions() as u64;
        let mat = |m: &semsim_linalg::Matrix| (m.rows() as u64) * (m.cols() as u64) * F64;
        let dense_matrix_bytes =
            mat(circuit.capacitance_matrix()) + mat(circuit.inverse_capacitance());
        let coupling_bytes = mat(circuit.lead_coupling()) + mat(circuit.lead_response());
        let sparse = circuit.sparse_inverse_capacitance();
        let sparse_bytes =
            (sparse.nnz() as u64) * SPARSE_ENTRY + (sparse.rows() as u64) * VEC_HEADER;
        let mut rows = 0u64;
        let mut entries = 0u64;
        let mut table = |len: usize| {
            rows += 1;
            entries += len as u64;
        };
        for node in 0..circuit.num_nodes() {
            table(circuit.junctions_at(crate::circuit::NodeId(node)).len());
        }
        for lead in 0..circuit.num_leads() {
            table(circuit.lead_dependents(lead).len());
        }
        for island in 0..circuit.num_islands() {
            table(circuit.island_dependents(island).len());
        }
        let neighborhood_bytes = entries * F64 + rows * VEC_HEADER;
        let soa = circuit.junction_soa();
        let kernel_bytes = mat(circuit.transposed_inverse_capacitance())
            + mat(circuit.transposed_lead_response())
            + 4 * (soa.a_island.len() as u64)
            + 4 * (soa.b_island.len() as u64)
            + 4 * (soa.a_lead.len() as u64)
            + 4 * (soa.b_lead.len() as u64)
            + F64 * (soa.charging_fw.len() as u64)
            + F64 * (soa.charging_bw.len() as u64)
            + F64 * (soa.resistance.len() as u64)
            + 7 * VEC_HEADER;
        ResourceEstimate {
            islands,
            leads,
            junctions,
            dense_matrix_bytes,
            coupling_bytes,
            sparse_bytes,
            neighborhood_bytes,
            kernel_bytes,
            journal_buffer_bytes: JOURNAL_BUFFER,
        }
    }

    /// Total estimated resident bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.dense_matrix_bytes
            .saturating_add(self.coupling_bytes)
            .saturating_add(self.sparse_bytes)
            .saturating_add(self.neighborhood_bytes)
            .saturating_add(self.kernel_bytes)
            .saturating_add(self.journal_buffer_bytes)
    }

    /// Relative per-event compute cost, in rate-evaluation units: a
    /// dense-coupling event touches every junction's rate and pays a
    /// `log₂(junctions)` Fenwick update. Dimensionless — useful for
    /// comparing circuits, not for predicting seconds.
    #[must_use]
    pub fn event_cost(&self) -> u64 {
        let fenwick = 64 - self.junctions.max(1).leading_zeros() as u64;
        self.junctions.saturating_add(fenwick)
    }

    /// The component breakdown as one human-readable line, in the
    /// order users can act on (shrink the island count first).
    #[must_use]
    pub fn breakdown(&self) -> String {
        format!(
            "C and C⁻¹ {}, lead coupling {}, sparse C⁻¹ {}, \
             neighborhood tables {}, kernel SoA {}, journal buffer {}",
            fmt_bytes(self.dense_matrix_bytes),
            fmt_bytes(self.coupling_bytes),
            fmt_bytes(self.sparse_bytes),
            fmt_bytes(self.neighborhood_bytes),
            fmt_bytes(self.kernel_bytes),
            fmt_bytes(self.journal_buffer_bytes),
        )
    }

    /// Enforces a byte budget (`0` disables the check).
    ///
    /// # Errors
    ///
    /// [`CoreError::ResourceBudget`] with the estimate's breakdown when
    /// `total_bytes()` exceeds a nonzero `limit`.
    pub fn check_budget(&self, limit: u64) -> Result<(), CoreError> {
        let required = self.total_bytes();
        if limit > 0 && required > limit {
            return Err(CoreError::ResourceBudget {
                required,
                limit,
                breakdown: self.breakdown(),
            });
        }
        Ok(())
    }
}

/// Bytes of the hot-loop kernel buffers, exact from counts
/// alone: the transposed `C⁻¹` (`islands²` of `f64`), the transposed
/// lead-response matrix (`leads × islands` of `f64`), and the
/// per-junction SoA (four `u32` lanes + three `f64` lanes, each
/// `junctions` long, in seven `Vec`s).
fn kernel_soa_bytes(islands: u64, leads: u64, junctions: u64) -> u64 {
    let cinv_t = islands.saturating_mul(islands).saturating_mul(F64);
    let lead_response_t = leads.saturating_mul(islands).saturating_mul(F64);
    let soa_lanes = junctions.saturating_mul(4 * 4 + 3 * F64);
    cinv_t
        .saturating_add(lead_response_t)
        .saturating_add(soa_lanes)
        .saturating_add(7 * VEC_HEADER)
}

/// Renders a byte count with a binary-unit suffix (exact below 1 KiB,
/// one decimal above).
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["KiB", "MiB", "GiB", "TiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64 / 1024.0;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

/// Parses a human byte budget: a plain byte count or a number with a
/// `k`/`m`/`g` (case-insensitive, optional `b`/`ib`) suffix, binary
/// units.
///
/// # Errors
///
/// A message naming the malformed input.
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(rest) = strip_unit(&t, 'g') {
        (rest, 1u64 << 30)
    } else if let Some(rest) = strip_unit(&t, 'm') {
        (rest, 1u64 << 20)
    } else if let Some(rest) = strip_unit(&t, 'k') {
        (rest, 1u64 << 10)
    } else {
        (t.trim_end_matches('b').to_string(), 1)
    };
    let digits = digits.trim();
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("invalid byte size `{s}` (use e.g. 500000, 64k, 16m, 2g)"))?;
    value
        .checked_mul(mult)
        .ok_or_else(|| format!("byte size `{s}` overflows"))
}

fn strip_unit(t: &str, unit: char) -> Option<String> {
    for suffix in [format!("{unit}ib"), format!("{unit}b"), format!("{unit}")] {
        if let Some(rest) = t.strip_suffix(&suffix) {
            return Some(rest.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    /// A conducting SET: 1 island, 3 leads (plus ground), 2 junctions.
    fn small_set() -> Circuit {
        let mut b = CircuitBuilder::new();
        let src = b.add_lead(10e-3);
        let drn = b.add_lead(-10e-3);
        let gate = b.add_lead(0.0);
        let island = b.add_island();
        b.add_junction(src, island, 1e6, 1e-18).unwrap();
        b.add_junction(island, drn, 1e6, 1e-18).unwrap();
        b.add_capacitor(gate, island, 3e-18).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn predict_matches_measured_on_small_set() {
        let c = small_set();
        let predicted =
            ResourceEstimate::predict(c.num_islands(), c.num_leads(), c.num_junctions());
        let measured = ResourceEstimate::measured(&c);
        // Dense blocks are exact by construction.
        assert_eq!(predicted.dense_matrix_bytes, measured.dense_matrix_bytes);
        assert_eq!(predicted.coupling_bytes, measured.coupling_bytes);
        // Kernel SoA sizes depend only on counts: exact too.
        assert_eq!(predicted.kernel_bytes, measured.kernel_bytes);
        assert!(predicted.kernel_bytes > 0);
        // The whole estimate stays within ±20 % (the tentpole's
        // contract; dense-coupling is exact here, headers dominate).
        let (p, m) = (
            predicted.total_bytes() as f64,
            measured.total_bytes() as f64,
        );
        assert!(
            (p - m).abs() <= 0.2 * m,
            "predicted {p} vs measured {m} drifts more than 20%"
        );
    }

    #[test]
    fn quadratic_growth_and_budget_enforcement() {
        let small = ResourceEstimate::predict(10, 4, 20);
        let big = ResourceEstimate::predict(1000, 4, 2000);
        assert!(big.dense_matrix_bytes >= 100 * small.dense_matrix_bytes * 90 / 100);
        assert_eq!(big.dense_matrix_bytes, 2 * 1000 * 1000 * 8);
        assert!(small.check_budget(0).is_ok(), "0 disables the budget");
        assert!(small.check_budget(u64::MAX).is_ok());
        let err = big.check_budget(1024).unwrap_err();
        match err {
            CoreError::ResourceBudget {
                required,
                limit,
                breakdown,
            } => {
                assert_eq!(required, big.total_bytes());
                assert_eq!(limit, 1024);
                assert!(breakdown.contains("C and C⁻¹"));
                assert!(breakdown.contains("neighborhood tables"));
                assert!(breakdown.contains("kernel SoA"));
                assert!(breakdown.contains("journal buffer"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn predict_saturates_on_absurd_counts() {
        let e = ResourceEstimate::predict(usize::MAX, usize::MAX, usize::MAX);
        assert_eq!(e.total_bytes(), u64::MAX);
        assert!(e.check_budget(u64::MAX - 1).is_err());
    }

    #[test]
    fn event_cost_scales_with_junctions() {
        let small = ResourceEstimate::predict(1, 4, 2);
        let big = ResourceEstimate::predict(100, 4, 200);
        assert!(big.event_cost() > small.event_cost());
        assert_eq!(small.event_cost(), 2 + 2);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn byte_parsing() {
        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert_eq!(parse_bytes("64k").unwrap(), 64 * 1024);
        assert_eq!(parse_bytes("64KiB").unwrap(), 64 * 1024);
        assert_eq!(parse_bytes("16M").unwrap(), 16 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("-3").is_err());
        assert!(parse_bytes("99999999999g").is_err());
    }
}
