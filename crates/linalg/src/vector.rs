//! Free functions on `&[f64]` slices.
//!
//! These are deliberately plain functions rather than a vector newtype:
//! the simulator's hot loops operate on borrowed slices of larger
//! state arrays and a wrapper would only add friction.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// assert_eq!(semsim_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Maximum absolute entry (infinity norm). Returns 0 for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(semsim_linalg::norm_inf(&[1.0, -3.0, 2.0]), 3.0);
/// ```
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(norm_inf(&[-7.0]), 7.0);
    }
}
