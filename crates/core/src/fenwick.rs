//! Fenwick (binary-indexed) tree over non-negative `f64` weights with
//! O(log n) update, prefix sum, and weighted sampling.
//!
//! The event solver must pick one tunnel event per iteration with
//! probability proportional to its rate (paper §III-B). A linear scan
//! would cost O(J) per event — acceptable for the non-adaptive solver,
//! which pays O(J) anyway to recompute every rate, but it would clamp
//! the adaptive solver's speedup. The Fenwick tree keeps both selection
//! and the adaptive solver's sparse rate updates logarithmic.

/// A Fenwick tree of non-negative weights supporting weighted sampling.
///
/// # Example
///
/// ```
/// use semsim_core::fenwick::FenwickTree;
///
/// let mut t = FenwickTree::new(4);
/// t.set(0, 1.0);
/// t.set(3, 3.0);
/// assert_eq!(t.total(), 4.0);
/// // u ∈ [0,1) picks index 0 for u < 0.25, index 3 otherwise.
/// assert_eq!(t.sample(0.1), Some(0));
/// assert_eq!(t.sample(0.9), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct FenwickTree {
    /// 1-based partial sums.
    tree: Vec<f64>,
    /// Current individual weights (for exact reads and totals).
    weights: Vec<f64>,
    /// Largest power of two ≤ len, used by the prefix descent.
    top_bit: usize,
    /// Largest weight ever stored — the natural scale for the drift
    /// tolerance in [`FenwickTree::is_consistent`].
    peak: f64,
}

impl FenwickTree {
    /// Creates a tree of `n` zero weights.
    pub fn new(n: usize) -> Self {
        // An empty tree has no descent steps at all: `1 << 0 = 1` here
        // would make `sample`'s prefix descent probe `tree[1]`, one past
        // the end of the single-entry tree array.
        let top_bit = match n {
            0 => 0,
            _ => 1usize << (usize::BITS as usize - 1 - n.leading_zeros() as usize),
        };
        FenwickTree {
            tree: vec![0.0; n + 1],
            weights: vec![0.0; n],
            top_bit,
            peak: 0.0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Sets slot `i` to weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `w` is negative or NaN.
    pub fn set(&mut self, i: usize, w: f64) {
        assert!(w >= 0.0, "fenwick weight must be non-negative, got {w}");
        if w > self.peak {
            self.peak = w;
        }
        let delta = w - self.weights[i];
        if delta == 0.0 {
            return;
        }
        self.weights[i] = w;
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Sum of weights `0..=i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn prefix_sum(&self, i: usize) -> f64 {
        assert!(i < self.weights.len(), "fenwick index out of bounds");
        let mut idx = i + 1;
        let mut s = 0.0;
        while idx > 0 {
            s += self.tree[idx];
            idx -= idx & idx.wrapping_neg();
        }
        s
    }

    /// Total weight. Recomputed from the individual weights on demand in
    /// debug builds; uses the tree in release.
    pub fn total(&self) -> f64 {
        if self.weights.is_empty() {
            return 0.0;
        }
        self.prefix_sum(self.weights.len() - 1)
    }

    /// Picks the slot containing cumulative weight `u·total()` for
    /// `u ∈ [0, 1)`. Returns `None` when the total is zero or not finite.
    ///
    /// Slots of zero weight are never selected (up to floating-point
    /// boundary rounding, which is then skipped over explicitly).
    pub fn sample(&self, u: f64) -> Option<usize> {
        let total = self.total();
        if !(total > 0.0) || !total.is_finite() {
            return None;
        }
        let mut target = u.clamp(0.0, 1.0 - f64::EPSILON) * total;
        let mut pos = 0usize;
        let mut step = self.top_bit;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // `pos` is the count of slots whose cumulative sum is ≤ target;
        // the selected slot is `pos` (0-based).
        let mut idx = pos.min(self.weights.len() - 1);
        // Guard against landing on a zero-weight slot due to rounding.
        while idx < self.weights.len() && self.weights[idx] == 0.0 {
            idx += 1;
        }
        if idx >= self.weights.len() {
            // Fall back to the last positive slot.
            idx = self.weights.iter().rposition(|&w| w > 0.0)?;
        }
        Some(idx)
    }

    /// `true` if every weight is finite and non-negative and the tree's
    /// cumulative total agrees with the sum of the individual weights.
    ///
    /// Intended for `debug_assert!` invariant checks in the event loop:
    /// the adaptive solver updates slots sparsely, so a drifted tree
    /// would silently bias event selection. The incremental updates
    /// accumulate rounding error proportional to the *largest* weights
    /// the tree has held — not the current total, which cancellation can
    /// make arbitrarily small — so the tolerance scales with the peak.
    pub fn is_consistent(&self) -> bool {
        let mut sum = 0.0;
        for &w in &self.weights {
            if !w.is_finite() || w < 0.0 {
                return false;
            }
            sum += w;
        }
        let total = self.total();
        let scale = (self.peak * self.weights.len() as f64).max(1.0);
        (total - sum).abs() <= 1e-6 * scale
    }

    /// Resets every weight to zero.
    pub fn clear(&mut self) {
        self.tree.iter_mut().for_each(|v| *v = 0.0);
        self.weights.iter_mut().for_each(|v| *v = 0.0);
        self.peak = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_match_naive() {
        let ws = [0.5, 0.0, 2.0, 1.5, 0.25, 3.0, 0.0, 1.0];
        let mut t = FenwickTree::new(ws.len());
        for (i, &w) in ws.iter().enumerate() {
            t.set(i, w);
        }
        let mut acc = 0.0;
        for (i, &w) in ws.iter().enumerate() {
            acc += w;
            assert!((t.prefix_sum(i) - acc).abs() < 1e-12);
        }
        assert!((t.total() - 8.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_boundaries() {
        let mut t = FenwickTree::new(3);
        t.set(0, 1.0);
        t.set(1, 1.0);
        t.set(2, 2.0);
        assert_eq!(t.sample(0.0), Some(0));
        assert_eq!(t.sample(0.24), Some(0));
        assert_eq!(t.sample(0.26), Some(1));
        assert_eq!(t.sample(0.49), Some(1));
        assert_eq!(t.sample(0.51), Some(2));
        assert_eq!(t.sample(0.999), Some(2));
    }

    #[test]
    fn sampling_skips_zero_weights() {
        let mut t = FenwickTree::new(5);
        t.set(1, 1.0);
        t.set(3, 1.0);
        for i in 0..100 {
            let u = i as f64 / 100.0;
            let s = t.sample(u).unwrap();
            assert!(s == 1 || s == 3, "picked zero-weight slot {s}");
        }
    }

    #[test]
    fn empty_or_zero_total_returns_none() {
        let t = FenwickTree::new(0);
        assert!(t.is_empty());
        assert_eq!(t.sample(0.5), None);
        let t2 = FenwickTree::new(4);
        assert_eq!(t2.sample(0.5), None);
        assert_eq!(t2.total(), 0.0);
    }

    #[test]
    fn updates_overwrite() {
        let mut t = FenwickTree::new(2);
        t.set(0, 5.0);
        t.set(0, 1.0);
        t.set(1, 1.0);
        assert!((t.total() - 2.0).abs() < 1e-12);
        assert_eq!(t.get(0), 1.0);
    }

    #[test]
    fn clear_resets() {
        let mut t = FenwickTree::new(3);
        t.set(2, 4.0);
        t.clear();
        assert_eq!(t.total(), 0.0);
        assert_eq!(t.sample(0.3), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        FenwickTree::new(1).set(0, -1.0);
    }

    #[test]
    fn empty_tree_has_no_descent_steps() {
        // `new(0)` used to compute `top_bit = 1 << 0 = 1`, giving the
        // prefix descent a step into `tree[1]` of a single-entry tree
        // array. The empty tree must have a zero descent.
        let t = FenwickTree::new(0);
        assert_eq!(t.top_bit, 0);
        assert_eq!(t.sample(0.0), None);
        assert_eq!(t.sample(1.0), None);
        for n in [1usize, 2, 4, 8, 64] {
            let t = FenwickTree::new(n);
            assert_eq!(t.top_bit, n.next_power_of_two().min(n), "n={n}");
        }
    }

    #[test]
    fn single_slot_boundaries() {
        let mut t = FenwickTree::new(1);
        t.set(0, 0.75);
        for u in [0.0, 0.5, 1.0 - f64::EPSILON, 1.0, 2.0] {
            assert_eq!(t.sample(u), Some(0), "u={u}");
        }
    }

    #[test]
    fn sample_near_one_never_returns_zero_weight_slot() {
        // As u → 1.0 the descent lands at (or past) the last slot; with
        // trailing zero weights the forward skip walks off the end and
        // the fallback must return the last *positive* slot.
        for n in [2usize, 3, 4, 8, 9, 64, 65] {
            let mut t = FenwickTree::new(n);
            t.set(0, 1.0);
            if n > 2 {
                t.set(n / 2, 2.0);
            }
            let last_positive = if n > 2 { n / 2 } else { 0 };
            for u in [0.999_999, 1.0 - f64::EPSILON, 1.0, 1.5] {
                let s = t.sample(u).unwrap();
                assert!(t.get(s) > 0.0, "n={n} u={u} picked zero-weight slot {s}");
                assert_eq!(s, last_positive, "n={n} u={u}");
            }
        }
    }

    #[test]
    fn power_of_two_sizes_descend_to_every_slot() {
        // Exact powers of two are where the first descent step reaches
        // the root: the probability midpoint of every slot must map
        // back to that slot, and u → 1 to the last.
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let mut t = FenwickTree::new(n);
            for i in 0..n {
                t.set(i, 1.0);
            }
            for i in 0..n {
                let u = (i as f64 + 0.5) / n as f64;
                assert_eq!(t.sample(u), Some(i), "n={n} i={i}");
            }
            assert_eq!(t.sample(1.0), Some(n - 1), "n={n}");
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 2, 3, 5, 7, 9, 100, 1000] {
            let mut t = FenwickTree::new(n);
            for i in 0..n {
                t.set(i, (i + 1) as f64);
            }
            let total: f64 = (1..=n).map(|i| i as f64).sum();
            assert!((t.total() - total).abs() < 1e-9, "n={n}");
            // Sampling the midpoint of each slot's probability mass must
            // return that slot.
            let mut acc = 0.0;
            for i in 0..n {
                let w = (i + 1) as f64;
                let u = (acc + 0.5 * w) / total;
                assert_eq!(t.sample(u), Some(i), "n={n} i={i}");
                acc += w;
            }
        }
    }
}
