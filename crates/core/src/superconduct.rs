//! Superconducting tunneling: BCS quasi-particle rates (paper Eq. 3–4)
//! and resonance-broadened Cooper-pair tunneling (high-resistance
//! regime), enabling JQP/DJQP peaks and singularity-matching features.
//!
//! The quasi-particle rate is the golden-rule convolution of two BCS
//! reduced densities of states with Fermi occupation factors:
//!
//! ```text
//! Γ_qp(ΔW) = 1/(e²R_N) ∫ dE n₁(E) · n₂(E − ΔW) · f(E) · [1 − f(E − ΔW)]
//! ```
//!
//! which reduces to the orthodox rate for `Δ = 0` (the identity
//! `∫ f(E)[1−f(E−ΔW)] dE = (−ΔW)/(1−e^{ΔW/kT})` recovers Eq. 1) and is
//! exactly the paper's Eq. 3 combined with Eq. 1. The integrand has
//! inverse-square-root singularities at the four gap edges, so the
//! integral is split at the singular points and each panel evaluated
//! with tanh–sinh quadrature. Because one evaluation costs microseconds
//! and the Monte Carlo loop needs millions, the engine tabulates
//! `Q(ΔW) = e²R·Γ_qp(ΔW)` once per (gap, temperature) and interpolates.
//!
//! Cooper-pair tunneling (2e, no quasi-particles created) uses the
//! standard resonance form for the high-resistance regime
//! (`R_N ≫ R_Q`, `E_J ≪ E_c`):
//!
//! ```text
//! Γ_2e(ΔW) = (E_J²/4) γ / (ΔW² + (ħγ/2)²)
//! ```
//!
//! with `E_J` from Ambegaokar–Baratoff and lifetime broadening `γ` set
//! by the quasi-particle escape scale `Δ/(e²R_N)` (overridable). The
//! JQP and DJQP cycles of the paper's Fig. 2 then *emerge* from the
//! interleaving of `Γ_2e` and `Γ_qp` events in the Monte Carlo dynamics.

use semsim_quad::{bcs_dos, bcs_gap, fermi, tanh_sinh, LookupTable};

use crate::circuit::Circuit;
use crate::constants::{thermal_energy, E_CHARGE, HBAR, R_Q};
use crate::engine::SimConfig;
use crate::CoreError;

/// Material/junction parameters of a superconducting circuit.
///
/// The paper's circuits are homogeneous (all leads and islands in the
/// same superconducting state), so one parameter set applies to the
/// whole circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperconductingParams {
    /// Zero-temperature gap Δ(0) (J).
    pub gap0: f64,
    /// Critical temperature (K).
    pub tc: f64,
    /// Optional override of the Cooper-pair lifetime broadening γ (1/s).
    /// `None` uses the quasi-particle scale `Δ(T)/(e²R)` per junction.
    pub broadening: Option<f64>,
}

impl SuperconductingParams {
    /// Parameters with the default broadening.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for non-positive or
    /// non-finite `gap0`/`tc`.
    pub fn new(gap0: f64, tc: f64) -> Result<Self, CoreError> {
        if !(gap0 > 0.0) || !gap0.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "superconducting gap",
                value: gap0,
            });
        }
        if !(tc > 0.0) || !tc.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "critical temperature",
                value: tc,
            });
        }
        Ok(SuperconductingParams {
            gap0,
            tc,
            broadening: None,
        })
    }

    /// Overrides the Cooper-pair broadening rate (1/s).
    pub fn with_broadening(mut self, gamma: f64) -> Self {
        self.broadening = Some(gamma);
        self
    }
}

/// Dimensionless quasi-particle integral
/// `Q(ΔW) = ∫ n₁ n₂ f (1−f) dE` such that `Γ_qp = Q(ΔW)/(e²R)`.
///
/// Exposed for tests and table construction; the Monte Carlo loop uses
/// the tabulated version in [`QpRateTable`].
pub fn qp_integral(dw: f64, gap1: f64, gap2: f64, kt: f64) -> f64 {
    // Integrand support: |E| > gap1 and |E − dw| > gap2.
    // Singular points: ±gap1, dw ± gap2.
    let mut breaks = vec![-gap1, gap1, dw - gap2, dw + gap2];
    breaks.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    // Thermal cutoff: beyond ~40 kT past the outermost breakpoint the
    // Fermi factors kill the integrand. At kT = 0 the support is sharp.
    let margin = 40.0 * kt + 4.0 * (gap1 + gap2) + dw.abs();
    let lo = breaks[0] - margin;
    let hi = breaks[3] + margin;
    let integrand = |e: f64| {
        let occ = fermi(e, kt) * (1.0 - fermi(e - dw, kt));
        if occ == 0.0 {
            return 0.0;
        }
        bcs_dos(e, gap1) * bcs_dos(e - dw, gap2) * occ
    };
    let mut pts = Vec::with_capacity(6);
    pts.push(lo);
    for &b in &breaks {
        if b > lo && b < hi {
            pts.push(b);
        }
    }
    pts.push(hi);
    let mut total = 0.0;
    for w in pts.windows(2) {
        if w[1] > w[0] {
            total += tanh_sinh(integrand, w[0], w[1], 1e-9);
        }
    }
    total
}

/// Ambegaokar–Baratoff Josephson coupling energy (J) of a junction of
/// normal-state resistance `r` at gap `gap` and thermal energy `kt`:
/// `E_J = (R_Q / 2R_N) · Δ(T) · tanh(Δ(T)/2kT)`.
///
/// # Example
///
/// ```
/// use semsim_core::superconduct::josephson_energy;
/// use semsim_core::constants::{ev_to_joule, R_Q};
///
/// let gap = ev_to_joule(0.2e-3);
/// let ej = josephson_energy(210e3, gap, 0.0);
/// assert!((ej - R_Q / (2.0 * 210e3) * gap).abs() < 1e-30);
/// ```
pub fn josephson_energy(r: f64, gap: f64, kt: f64) -> f64 {
    let thermal = if kt <= 0.0 {
        1.0
    } else {
        (gap / (2.0 * kt)).tanh()
    };
    R_Q / (2.0 * r) * gap * thermal
}

/// Resonance-broadened Cooper-pair tunneling rate (1/s).
///
/// `dw` is the 2e free-energy change, `ej` the Josephson energy and
/// `gamma` the lifetime broadening (1/s).
///
/// # Example
///
/// ```
/// use semsim_core::superconduct::cooper_pair_rate;
/// // On resonance the rate is maximal...
/// let on = cooper_pair_rate(0.0, 1e-23, 1e9);
/// // ...and falls off Lorentzian off resonance.
/// let off = cooper_pair_rate(1e-22, 1e-23, 1e9);
/// assert!(on > off);
/// ```
#[inline]
pub fn cooper_pair_rate(dw: f64, ej: f64, gamma: f64) -> f64 {
    let half_width = 0.5 * HBAR * gamma;
    0.25 * ej * ej * gamma / (dw * dw + half_width * half_width)
}

/// Tabulated quasi-particle rate for one (gap, temperature) pair.
///
/// The grid is dense near the gap edges `|ΔW| ≈ 2Δ` where the
/// singularity-matching structure lives, and coarse elsewhere. Rates
/// for a concrete junction divide by that junction's `e²R`.
#[derive(Debug, Clone, PartialEq)]
pub struct QpRateTable {
    table: LookupTable,
    gap: f64,
    kt: f64,
}

impl QpRateTable {
    /// Builds the table covering `|ΔW| ≤ w_max` (J).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `w_max` is not positive.
    pub fn build(gap: f64, kt: f64, w_max: f64) -> Result<Self, CoreError> {
        if !(w_max > 0.0) || !w_max.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "qp table range",
                value: w_max,
            });
        }
        let edge = 2.0 * gap;
        let fine_halfwidth = (0.5 * gap + 6.0 * kt).max(0.05 * gap.max(1e-30));
        let mut xs: Vec<f64> = Vec::new();
        // Coarse background grid.
        let coarse_n = 400;
        for i in 0..=coarse_n {
            xs.push(-w_max + 2.0 * w_max * i as f64 / coarse_n as f64);
        }
        // Fine grids around ±2Δ (onset of pair-breaking transport) and 0.
        let fine_n = 300;
        for &center in &[-edge, 0.0, edge] {
            let lo = (center - fine_halfwidth).max(-w_max);
            let hi = (center + fine_halfwidth).min(w_max);
            for i in 0..=fine_n {
                xs.push(lo + (hi - lo) * i as f64 / fine_n as f64);
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite grid"));
        xs.dedup_by(|a, b| (*a - *b).abs() < w_max * 1e-12);
        let ys: Vec<f64> = xs.iter().map(|&x| qp_integral(x, gap, gap, kt)).collect();
        let table = LookupTable::new(xs, ys).map_err(|_| CoreError::InvalidConfig {
            what: "qp table grid",
            value: w_max,
        })?;
        Ok(QpRateTable { table, gap, kt })
    }

    /// The gap the table was built for (J).
    pub fn gap(&self) -> f64 {
        self.gap
    }

    /// The thermal energy the table was built for (J).
    pub fn thermal_energy(&self) -> f64 {
        self.kt
    }

    /// Interpolated quasi-particle rate (1/s) through a junction of
    /// resistance `r`. Beyond the tabulated range the rate is linearly
    /// extrapolated — exact in the far-downhill limit, where the
    /// quasi-particle I–V is ohmic.
    #[inline]
    pub fn rate(&self, dw: f64, r: f64) -> f64 {
        (self.table.eval_linear(dw) / (E_CHARGE * E_CHARGE * r)).max(0.0)
    }

    /// The table [`Simulation::new`](crate::engine::Simulation::new)
    /// builds for `circuit` under `config` when `config.qp_table` is
    /// `None`. It covers `|ΔW| ≤ config.qp_table_range`, by default
    /// `4Δ + 40·k_BT + 8·max_i(e²·C⁻¹_ii/2) + 4e·V`, with `V` the largest
    /// initial lead bias (at least 10 mV). Build it once and pass it with
    /// [`SimConfig::with_qp_table`] to every simulation of the same
    /// circuit and configuration — a sweep's points — which then skip
    /// the quadrature and use the same bits.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `config` has no superconducting
    /// parameters, and as [`QpRateTable::build`].
    pub fn for_circuit(circuit: &Circuit, config: &SimConfig) -> Result<Self, CoreError> {
        let Some(params) = &config.superconducting else {
            return Err(CoreError::InvalidConfig {
                what: "qp table without superconducting parameters",
                value: config.temperature,
            });
        };
        let kt = thermal_energy(config.temperature);
        let gap = gap_at(params, config.temperature);
        let w_max = config.qp_table_range.unwrap_or_else(|| {
            let v_scale = circuit
                .initial_lead_voltages()
                .iter()
                .fold(10e-3_f64, |m, v| m.max(v.abs()));
            let ec_max = (0..circuit.num_islands())
                .map(|i| 0.5 * E_CHARGE * E_CHARGE * circuit.cinv(i, i))
                .fold(0.0_f64, f64::max);
            4.0 * gap + 40.0 * kt + 8.0 * ec_max + 4.0 * E_CHARGE * v_scale
        });
        Self::build(gap, kt, w_max)
    }
}

/// Gap at temperature `t` for the given parameters — re-exported
/// convenience over [`semsim_quad::bcs_gap`].
pub fn gap_at(params: &SuperconductingParams, t: f64) -> f64 {
    bcs_gap(params.gap0, params.tc, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{ev_to_joule, K_B};

    #[test]
    fn qp_integral_reduces_to_normal_metal() {
        // Δ = 0 → Q(ΔW) = (−ΔW)/(1 − e^{ΔW/kT}).
        let kt = K_B * 1.0;
        for &dw in &[-5.0 * kt, -kt, 0.5 * kt, 3.0 * kt] {
            let q = qp_integral(dw, 0.0, 0.0, kt);
            let expected = kt * semsim_quad::occupancy_factor(dw / kt);
            assert!(
                (q - expected).abs() < 1e-3 * expected.abs().max(kt),
                "dw={dw}: {q} vs {expected}"
            );
        }
    }

    #[test]
    fn qp_rate_gapped_below_threshold_at_t0() {
        let gap = ev_to_joule(0.2e-3);
        // At T=0 transport needs |ΔW| > 2Δ downhill.
        let below = qp_integral(-1.5 * gap, gap, gap, 0.0);
        let above = qp_integral(-3.0 * gap, gap, gap, 0.0);
        assert!(below.abs() < 1e-30, "{below}");
        assert!(above > 0.0);
    }

    #[test]
    fn qp_rate_detailed_balance() {
        let gap = ev_to_joule(0.2e-3);
        let kt = K_B * 0.52;
        let dw = 1.0 * gap;
        let fw = qp_integral(dw, gap, gap, kt);
        let bw = qp_integral(-dw, gap, gap, kt);
        let ratio = fw / bw;
        let expected = (-dw / kt).exp();
        assert!(
            (ratio - expected).abs() / expected < 1e-2,
            "{ratio} vs {expected}"
        );
    }

    #[test]
    fn qp_rate_has_gap_edge_onset() {
        // The rate must jump sharply when −ΔW crosses 2Δ at low T.
        let gap = ev_to_joule(0.2e-3);
        let just_below = qp_integral(-1.98 * gap, gap, gap, K_B * 0.01);
        let just_above = qp_integral(-2.05 * gap, gap, gap, K_B * 0.01);
        assert!(
            just_above > 100.0 * just_below.max(1e-40),
            "{just_below} {just_above}"
        );
    }

    #[test]
    fn thermally_excited_subgap_transport_exists() {
        // Singularity matching needs finite sub-gap rates at 0 < T < Tc.
        let gap = ev_to_joule(0.21e-3);
        let cold = qp_integral(-gap, gap, gap, K_B * 0.05);
        let warm = qp_integral(-gap, gap, gap, K_B * 0.52);
        assert!(warm > 10.0 * cold.max(1e-40));
    }

    #[test]
    fn table_matches_direct_evaluation() {
        let gap = ev_to_joule(0.2e-3);
        let kt = K_B * 0.3;
        let t = QpRateTable::build(gap, kt, 10.0 * gap).unwrap();
        for &dw in &[-6.0 * gap, -2.5 * gap, -0.7 * gap, 0.3 * gap, 4.0 * gap] {
            let direct = qp_integral(dw, gap, gap, kt) / (E_CHARGE * E_CHARGE * 210e3);
            let tab = t.rate(dw, 210e3);
            let tol = 0.05 * direct.abs().max(1e-6);
            assert!(
                (tab - direct).abs() < tol,
                "dw/gap={}: {tab} vs {direct}",
                dw / gap
            );
        }
        assert_eq!(t.gap(), gap);
        assert_eq!(t.thermal_energy(), kt);
    }

    #[test]
    fn cooper_rate_is_lorentzian() {
        let ej = 1e-24;
        let gamma = 1e9;
        let g0 = cooper_pair_rate(0.0, ej, gamma);
        let hw = 0.5 * HBAR * gamma;
        let g_half = cooper_pair_rate(hw, ej, gamma);
        assert!((g_half / g0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn josephson_energy_regimes() {
        let gap = ev_to_joule(0.2e-3);
        let cold = josephson_energy(210e3, gap, 0.0);
        let warm = josephson_energy(210e3, gap, 10.0 * gap);
        assert!(cold > warm);
        // High-resistance regime sanity: E_J ≪ E_C for the Fig. 5 device
        // (C_Σ = 234 aF → E_C ≈ 5.5e-23 J).
        let ec = E_CHARGE * E_CHARGE / (2.0 * 234e-18);
        assert!(cold < ec);
    }

    #[test]
    fn params_validation() {
        assert!(SuperconductingParams::new(-1.0, 1.0).is_err());
        assert!(SuperconductingParams::new(1e-23, 0.0).is_err());
        let p = SuperconductingParams::new(1e-23, 1.2)
            .unwrap()
            .with_broadening(5e8);
        assert_eq!(p.broadening, Some(5e8));
        assert!(gap_at(&p, 2.0) == 0.0 && gap_at(&p, 0.0) == 1e-23);
    }
}
