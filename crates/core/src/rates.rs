//! The orthodox single-electron tunneling rate (paper Eq. 1).

use semsim_quad::occupancy_factor;

use crate::constants::E_CHARGE;

/// Orthodox tunneling rate through a normal junction (paper Eq. 1).
///
/// `dw` is the free-energy change of the event (J; negative = downhill),
/// `kt` the thermal energy `k_B·T` (J) and `resistance` the junction's
/// tunnel resistance (Ω). Evaluated in the numerically stable form
/// `Γ = kT/(e²R) · x/(eˣ−1)` with `x = ΔW/kT`, which:
///
/// * never overflows, however deep the blockade;
/// * is smooth through `ΔW = 0` (value `kT/(e²R)`);
/// * reduces to `Γ = −ΔW/(e²R)` for strongly favourable events;
/// * at `kT = 0` becomes the exact zero-temperature orthodox rate
///   `Γ = max(0, −ΔW)/(e²R)`.
///
/// # Example
///
/// ```
/// use semsim_core::rates::orthodox_rate;
/// use semsim_core::constants::{E_CHARGE, K_B};
///
/// let kt = K_B * 5.0; // 5 kelvin
/// let dw = -5e-3 * E_CHARGE; // 5 meV downhill (≫ kT ≈ 0.43 meV)
/// let g = orthodox_rate(dw, kt, 1e6);
/// // Deep downhill limit: Γ ≈ −ΔW/(e²R).
/// let expected = -dw / (E_CHARGE * E_CHARGE * 1e6);
/// assert!((g - expected).abs() / expected < 0.01);
/// ```
#[inline]
pub fn orthodox_rate(dw: f64, kt: f64, resistance: f64) -> f64 {
    debug_assert!(resistance > 0.0);
    let e2r = E_CHARGE * E_CHARGE * resistance;
    if kt <= 0.0 {
        return (-dw).max(0.0) / e2r;
    }
    kt * occupancy_factor(dw / kt) / e2r
}

/// Batched orthodox rates: appends `orthodox_rate(dw[i], kt,
/// resistance[i])` to `out` for every lane. This is the contiguous-
/// slice entry point the adaptive solver's rate kernel feeds from its
/// SoA ΔW buffers; each lane is the scalar [`orthodox_rate`], so the
/// batch is bit-identical to a scalar loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn orthodox_rates(dw: &[f64], resistance: &[f64], kt: f64, out: &mut Vec<f64>) {
    assert_eq!(dw.len(), resistance.len(), "rate batch length mismatch");
    out.reserve(dw.len());
    out.extend(
        dw.iter()
            .zip(resistance)
            .map(|(&w, &r)| orthodox_rate(w, kt, r)),
    );
}

/// Detailed-balance ratio `Γ(ΔW)/Γ(−ΔW) = exp(−ΔW/kT)` — exposed for
/// tests and diagnostics.
///
/// # Example
///
/// ```
/// use semsim_core::rates::detailed_balance_ratio;
/// assert!((detailed_balance_ratio(0.0, 1.0) - 1.0).abs() < 1e-15);
/// ```
#[inline]
pub fn detailed_balance_ratio(dw: f64, kt: f64) -> f64 {
    if kt <= 0.0 {
        if dw > 0.0 {
            0.0
        } else if dw < 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    } else {
        (-dw / kt).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::K_B;

    const R: f64 = 1e6;

    #[test]
    fn rate_is_nonnegative_everywhere() {
        for i in -100..100 {
            let dw = i as f64 * 1e-22;
            assert!(orthodox_rate(dw, K_B, R) >= 0.0);
            assert!(orthodox_rate(dw, 0.0, R) >= 0.0);
        }
    }

    #[test]
    fn zero_temperature_threshold() {
        assert_eq!(orthodox_rate(1e-22, 0.0, R), 0.0);
        assert_eq!(orthodox_rate(0.0, 0.0, R), 0.0);
        let g = orthodox_rate(-1e-22, 0.0, R);
        assert!((g - 1e-22 / (E_CHARGE * E_CHARGE * R)).abs() < 1e-3 * g);
    }

    #[test]
    fn detailed_balance_holds() {
        let kt = K_B * 4.2;
        for &dw in &[1e-23, 5e-23, 2e-22] {
            let fw = orthodox_rate(dw, kt, R);
            let bw = orthodox_rate(-dw, kt, R);
            let ratio = fw / bw;
            let expected = detailed_balance_ratio(dw, kt);
            assert!(
                (ratio - expected).abs() / expected < 1e-9,
                "dw={dw}: {ratio} vs {expected}"
            );
        }
    }

    #[test]
    fn rate_at_zero_dw_is_thermal() {
        let kt = K_B * 1.0;
        let g = orthodox_rate(0.0, kt, R);
        assert!((g - kt / (E_CHARGE * E_CHARGE * R)).abs() < 1e-6 * g);
    }

    #[test]
    fn rate_monotone_decreasing_in_dw() {
        let kt = K_B * 2.0;
        let mut prev = f64::INFINITY;
        for i in -50..50 {
            let g = orthodox_rate(i as f64 * 1e-23, kt, R);
            assert!(g <= prev * (1.0 + 1e-12));
            prev = g;
        }
    }

    #[test]
    fn rate_scales_inverse_with_resistance() {
        let g1 = orthodox_rate(-1e-22, K_B, 1e6);
        let g2 = orthodox_rate(-1e-22, K_B, 2e6);
        assert!((g1 / g2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deep_blockade_does_not_overflow() {
        // ΔW/kT ≈ 7e4 — would overflow a naive exp().
        let g = orthodox_rate(1e-18, K_B * 1.0, R);
        assert_eq!(g, 0.0);
        let g = orthodox_rate(-1e-18, K_B * 1.0, R);
        assert!(g.is_finite() && g > 0.0);
    }

    #[test]
    fn detailed_balance_ratio_zero_temperature() {
        assert_eq!(detailed_balance_ratio(1.0, 0.0), 0.0);
        assert_eq!(detailed_balance_ratio(-1.0, 0.0), f64::INFINITY);
        assert_eq!(detailed_balance_ratio(0.0, 0.0), 1.0);
    }
}
