use std::error::Error;
use std::fmt;

/// Errors from [`LookupTable`] construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Fewer than two sample points were supplied.
    TooFewPoints {
        /// Number of points supplied.
        found: usize,
    },
    /// The abscissa grid was not strictly increasing.
    NotMonotone {
        /// Index at which monotonicity failed.
        index: usize,
    },
    /// A sample value was NaN or infinite.
    NonFinite {
        /// Index of the offending sample.
        index: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::TooFewPoints { found } => {
                write!(f, "lookup table needs at least 2 points, got {found}")
            }
            TableError::NotMonotone { index } => {
                write!(
                    f,
                    "lookup table abscissae not strictly increasing at index {index}"
                )
            }
            TableError::NonFinite { index } => {
                write!(f, "lookup table sample at index {index} is not finite")
            }
        }
    }
}

impl Error for TableError {}

/// A piecewise-linear interpolation table over a strictly increasing grid.
///
/// Superconducting quasi-particle rates require an expensive singular
/// integral per evaluation; the simulator tabulates `Γ_qp(ΔW)` once per
/// junction configuration and interpolates inside the Monte Carlo loop.
/// Queries outside the grid clamp to the boundary values (rates saturate
/// smoothly at the tabulated extremes and the grids are built wide enough
/// that clamping is negligible).
///
/// # Example
///
/// ```
/// use semsim_quad::LookupTable;
///
/// # fn main() -> Result<(), semsim_quad::TableError> {
/// let t = LookupTable::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 40.0])?;
/// assert_eq!(t.eval(0.5), 5.0);
/// assert_eq!(t.eval(-3.0), 0.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LookupTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Uniform-grid segment index: `bucket_start[k]` is the first
    /// interior index `i` (`1 ≤ i ≤ n−1`) whose abscissa is at or past
    /// the left edge of bucket `k`. Turns the per-query binary search
    /// into an O(1) bucket lookup plus a short local scan — the Monte
    /// Carlo loop evaluates the quasi-particle table per candidate
    /// event, so the lookup is on the simulator's hot path.
    bucket_start: Vec<u32>,
    /// Buckets per unit of `x` (`nb / (xs[n−1] − xs[0])`).
    inv_bucket: f64,
}

impl LookupTable {
    /// Builds a table from matching abscissa/ordinate vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::TooFewPoints`] for fewer than two samples,
    /// [`TableError::NotMonotone`] if `xs` is not strictly increasing
    /// (also reported when the vectors differ in length), and
    /// [`TableError::NonFinite`] for NaN/infinite samples.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, TableError> {
        if xs.len() < 2 || xs.len() != ys.len() {
            return Err(TableError::TooFewPoints {
                found: xs.len().min(ys.len()),
            });
        }
        for (i, w) in xs.windows(2).enumerate() {
            if !(w[1] > w[0]) {
                return Err(TableError::NotMonotone { index: i + 1 });
            }
        }
        for (i, v) in xs.iter().chain(ys.iter()).enumerate() {
            if !v.is_finite() {
                return Err(TableError::NonFinite {
                    index: i % xs.len(),
                });
            }
        }
        let n = xs.len();
        let nb = (2 * n).min(1 << 20);
        let span = xs[n - 1] - xs[0];
        let inv_bucket = nb as f64 / span;
        let bucket_start = (0..nb)
            .map(|k| {
                let edge = xs[0] + k as f64 * span / nb as f64;
                xs.partition_point(|&v| v < edge).clamp(1, n - 1) as u32
            })
            .collect();
        Ok(LookupTable {
            xs,
            ys,
            bucket_start,
            inv_bucket,
        })
    }

    /// Builds a table by sampling `f` at `n` evenly spaced points on
    /// `[a, b]`.
    ///
    /// # Errors
    ///
    /// Same as [`LookupTable::new`]; additionally requires `n ≥ 2` and
    /// `a < b`.
    pub fn from_fn<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> Result<Self, TableError> {
        if n < 2 {
            return Err(TableError::TooFewPoints { found: n });
        }
        if !(b > a) {
            return Err(TableError::NotMonotone { index: 1 });
        }
        let step = (b - a) / (n - 1) as f64;
        let xs: Vec<f64> = (0..n).map(|i| a + step * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        LookupTable::new(xs, ys)
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always `false`: a constructed table has at least two points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Domain `[min, max]` of the grid.
    pub fn domain(&self) -> (f64, f64) {
        (
            self.xs[0],
            *self.xs.last().expect("nonempty by construction"),
        )
    }

    /// Piecewise-linear evaluation at `x`, extrapolating beyond the
    /// grid with the slope of the boundary segment. Used where the
    /// tabulated function has a known asymptotically linear tail (the
    /// quasi-particle rate is ohmic far above the gap).
    #[inline]
    pub fn eval_linear(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x < self.xs[0] {
            let slope = (self.ys[1] - self.ys[0]) / (self.xs[1] - self.xs[0]);
            return self.ys[0] + slope * (x - self.xs[0]);
        }
        if x > self.xs[n - 1] {
            let slope = (self.ys[n - 1] - self.ys[n - 2]) / (self.xs[n - 1] - self.xs[n - 2]);
            return self.ys[n - 1] + slope * (x - self.xs[n - 1]);
        }
        self.eval(x)
    }

    /// Piecewise-linear evaluation at `x`, clamped to the grid domain.
    ///
    /// The bracketing segment is found through the precomputed uniform
    /// bucket index — a bucket lookup plus a bounded local scan instead
    /// of a binary search. The scan lands on exactly the segment the
    /// binary search selected, so evaluations are bit-identical to the
    /// pre-index implementation.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // xs[0] < x < xs[n−1] from here on, so the first interior index
        // with xs[idx] ≥ x exists in [1, n−1]. The bucket start may be
        // off by a point or two from floating rounding of the bucket
        // arithmetic; the two scans correct in either direction.
        let k = (((x - self.xs[0]) * self.inv_bucket) as usize).min(self.bucket_start.len() - 1);
        let mut idx = self.bucket_start[k] as usize;
        while self.xs[idx] < x {
            idx += 1;
        }
        while idx > 1 && self.xs[idx - 1] >= x {
            idx -= 1;
        }
        if self.xs[idx] == x {
            return self.ys[idx];
        }
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_nodes() {
        let t = LookupTable::new(vec![0.0, 1.0, 3.0], vec![1.0, 2.0, 8.0]).unwrap();
        assert_eq!(t.eval(0.0), 1.0);
        assert_eq!(t.eval(1.0), 2.0);
        assert_eq!(t.eval(3.0), 8.0);
    }

    #[test]
    fn linear_between_nodes() {
        let t = LookupTable::new(vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert_eq!(t.eval(0.5), 1.0);
        assert_eq!(t.eval(1.5), 3.0);
    }

    #[test]
    fn clamps_out_of_domain() {
        let t = LookupTable::new(vec![-1.0, 1.0], vec![5.0, 7.0]).unwrap();
        assert_eq!(t.eval(-10.0), 5.0);
        assert_eq!(t.eval(10.0), 7.0);
        assert_eq!(t.domain(), (-1.0, 1.0));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(LookupTable::new(vec![0.0], vec![1.0]).is_err());
        assert!(LookupTable::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LookupTable::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LookupTable::new(vec![0.0, 1.0], vec![1.0, f64::NAN]).is_err());
        assert!(LookupTable::new(vec![0.0, 1.0, 2.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn from_fn_reproduces_linear_function_exactly() {
        let t = LookupTable::from_fn(|x| 3.0 * x - 1.0, 0.0, 10.0, 11).unwrap();
        for i in 0..=20 {
            let x = i as f64 * 0.5;
            assert!((t.eval(x) - (3.0 * x - 1.0)).abs() < 1e-12);
        }
        assert_eq!(t.len(), 11);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_fn_validates_args() {
        assert!(LookupTable::from_fn(|x| x, 0.0, 1.0, 1).is_err());
        assert!(LookupTable::from_fn(|x| x, 1.0, 1.0, 5).is_err());
    }

    /// Reference implementation: the pre-index binary search. The
    /// bucket-indexed `eval` must agree bit-for-bit with it — the
    /// quasi-particle rates feed the Fenwick rate table, where any
    /// ULP-level difference changes sampled trajectories.
    fn eval_binary_search(t: &LookupTable, x: f64) -> f64 {
        let n = t.xs.len();
        if x <= t.xs[0] {
            return t.ys[0];
        }
        if x >= t.xs[n - 1] {
            return t.ys[n - 1];
        }
        let idx = match t
            .xs
            .binary_search_by(|v| v.partial_cmp(&x).expect("finite by construction"))
        {
            Ok(i) => return t.ys[i],
            Err(i) => i,
        };
        let (x0, x1) = (t.xs[idx - 1], t.xs[idx]);
        let (y0, y1) = (t.ys[idx - 1], t.ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    #[test]
    fn bucket_index_matches_binary_search_bitwise() {
        // Strongly non-uniform grid: clustered points near 1.0 inside a
        // wide span, so several grid points share a bucket and many
        // buckets are empty — both scan directions get exercised.
        let xs: Vec<f64> = vec![
            -50.0, -10.0, 0.5, 0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1, 2.0, 30.0, 75.0,
        ];
        let ys: Vec<f64> = xs.iter().map(|&x| (0.3 * x).sin() + 0.01 * x * x).collect();
        let t = LookupTable::new(xs.clone(), ys).unwrap();
        // Exact node hits (binary search Ok arm) …
        for &x in &xs {
            assert_eq!(t.eval(x).to_bits(), eval_binary_search(&t, x).to_bits());
        }
        // … interior points, bucket edges, and out-of-domain clamps.
        for i in 0..4000 {
            let x = -60.0 + i as f64 * (150.0 / 4000.0);
            assert_eq!(
                t.eval(x).to_bits(),
                eval_binary_search(&t, x).to_bits(),
                "mismatch at x={x}"
            );
        }
        // Points an ULP either side of each node.
        for &x in &xs {
            for probe in [
                f64::from_bits(x.to_bits().wrapping_sub(1)),
                f64::from_bits(x.to_bits() + 1),
            ] {
                assert_eq!(
                    t.eval(probe).to_bits(),
                    eval_binary_search(&t, probe).to_bits(),
                    "mismatch at probe {probe} near node {x}"
                );
            }
        }
    }

    /// One representable step toward +∞ / −∞ — sign-correct ULP
    /// neighbours, unlike raw bit arithmetic on negative values.
    fn ulp_up(x: f64) -> f64 {
        if x >= 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    fn ulp_down(x: f64) -> f64 {
        if x > 0.0 {
            f64::from_bits(x.to_bits() - 1)
        } else if x == 0.0 {
            -f64::MIN_POSITIVE * f64::EPSILON
        } else {
            f64::from_bits(x.to_bits() + 1)
        }
    }

    #[test]
    fn eval_endpoint_probes_match_binary_search_bitwise() {
        // The exact endpoint knots and one ULP outside the grid on both
        // sides: the clamp branches must fire before any bucket
        // arithmetic, and one ULP *inside* must interpolate against the
        // boundary segment the binary search selects.
        for (xs, ys) in [
            (
                vec![-50.0, -10.0, 0.5, 1.0, 2.0, 75.0],
                vec![2.0, -1.0, 0.25, 4.0, -3.0, 9.0],
            ),
            (vec![1e-9, 2e-9, 5e-9], vec![-0.5, 0.5, 1.5]),
            (vec![-3.0, -1.0], vec![7.0, 5.0]),
        ] {
            let t = LookupTable::new(xs.clone(), ys).unwrap();
            let (lo, hi) = t.domain();
            for x in [lo, hi, ulp_down(lo), ulp_up(lo), ulp_down(hi), ulp_up(hi)] {
                assert_eq!(
                    t.eval(x).to_bits(),
                    eval_binary_search(&t, x).to_bits(),
                    "eval endpoint probe x={x:e} on grid [{lo}, {hi}]"
                );
            }
            assert_eq!(t.eval(ulp_down(lo)), t.eval(lo), "below-grid clamp");
            assert_eq!(t.eval(ulp_up(hi)), t.eval(hi), "above-grid clamp");
        }
    }

    #[test]
    fn eval_linear_endpoint_probes_are_continuous() {
        let xs: Vec<f64> = vec![-50.0, -10.0, 0.5, 1.0, 2.0, 75.0];
        let ys: Vec<f64> = xs.iter().map(|&x| (0.3 * x).sin() + 0.01 * x * x).collect();
        let t = LookupTable::new(xs, ys).unwrap();
        let (lo, hi) = t.domain();
        // Exactly at a boundary knot the clamped path answers, and the
        // extrapolation formula agrees there (zero offset).
        assert_eq!(t.eval_linear(lo).to_bits(), t.eval(lo).to_bits());
        assert_eq!(t.eval_linear(hi).to_bits(), t.eval(hi).to_bits());
        // One ULP outside: the extrapolated value moves by at most one
        // slope-scaled ULP from the knot value — no index error can
        // produce a jump.
        for (edge, inside) in [(ulp_down(lo), lo), (ulp_up(hi), hi)] {
            let step = (edge - inside).abs();
            let slope_bound = 10.0; // |dy/dx| on this grid is < 10
            let diff = (t.eval_linear(edge) - t.eval_linear(inside)).abs();
            assert!(
                diff <= slope_bound * step + f64::EPSILON,
                "eval_linear discontinuity at {edge:e}: diff {diff:e}"
            );
        }
        // One ULP inside: still the interpolating path, bit-identical
        // to the binary-search reference.
        for x in [ulp_up(lo), ulp_down(hi)] {
            assert_eq!(
                t.eval_linear(x).to_bits(),
                eval_binary_search(&t, x).to_bits()
            );
        }
    }

    #[test]
    fn interpolation_error_bounded_for_smooth_fn() {
        let t = LookupTable::from_fn(f64::sin, 0.0, 3.0, 1000).unwrap();
        for i in 0..100 {
            let x = i as f64 * 0.029;
            assert!((t.eval(x) - x.sin()).abs() < 1e-5);
        }
    }
}
