//! Order statistics for in-run samples.

/// Median of `samples` (mean of the middle pair for an even count);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest of the conventional percentiles that still has at least
/// ten samples above it (nearest-rank definition), as
/// `(percentile, value)`. `None` with fewer than eleven samples.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    [99u32, 95, 90, 80, 75, 50].into_iter().find_map(|p| {
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50, 10.0)));
        assert_eq!(tail(&v[..10]), None);
    }
}
