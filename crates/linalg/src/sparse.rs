//! Sparse symmetric matrices, their LDLᵀ factor, and a truncated
//! inverse formed from it.
//!
//! A capacitance matrix couples each island to a few neighbours. It is
//! assembled sparse ([`SymmetricMatrix`]), ordered by greedy minimum
//! degree, and factored as `P·A·Pᵀ = L·D·Lᵀ` ([`LdlFactor`]) with a unit
//! lower-triangular `L` that keeps a few entries per row. The inverse
//! is then solved column by column into one dense scratch vector and
//! kept only where it is not negligible
//! ([`LdlFactor::truncated_inverse`]), so the whole build costs
//! `O(n·(n + nnz(L)))` time and never holds an `n × n` block.

use std::collections::BTreeSet;

use crate::{LinalgError, Matrix, PIVOT_EPS};

/// A sparse matrix stored by column: column `c`'s nonzeros have the
/// ascending rows `rows[start[c]..start[c + 1]]` and the matching
/// `values`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseColumns {
    start: Vec<usize>,
    rows: Vec<u32>,
    values: Vec<f64>,
}

/// One column of a [`SparseColumns`]: its stored rows, ascending, and
/// their values.
#[derive(Debug, Clone, Copy)]
pub struct SparseColumn<'a> {
    /// Row index of each stored entry, ascending.
    pub rows: &'a [u32],
    /// Value of each stored entry.
    pub values: &'a [f64],
}

impl<'a> SparseColumn<'a> {
    /// The stored `(row, value)` pairs in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.rows
            .iter()
            .zip(self.values)
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Entry `row`, or `0.0` when it is not stored.
    #[inline]
    pub fn get(&self, row: usize) -> f64 {
        let Ok(row) = u32::try_from(row) else {
            return 0.0;
        };
        self.rows
            .binary_search(&row)
            .map_or(0.0, |p| self.values[p])
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Does the column store no entry?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl SparseColumns {
    /// A matrix with no columns yet; [`SparseColumns::push`] entries and
    /// close each column with [`SparseColumns::end_column`].
    fn new() -> Self {
        SparseColumns {
            start: vec![0],
            rows: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends an entry to the open column; rows must ascend.
    fn push(&mut self, row: usize, value: f64) {
        debug_assert!(self.rows[*self.start.last().unwrap_or(&0)..]
            .last()
            .is_none_or(|&r| (r as usize) < row));
        self.rows
            .push(u32::try_from(row).expect("row index fits in u32"));
        self.values.push(value);
    }

    /// Closes the open column.
    fn end_column(&mut self) {
        self.start.push(self.rows.len());
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ cols()`.
    #[inline]
    pub fn column(&self, c: usize) -> SparseColumn<'_> {
        let range = self.start[c]..self.start[c + 1];
        SparseColumn {
            rows: &self.rows[range.clone()],
            values: &self.values[range],
        }
    }

    /// Entry `(r, c)`: entry `r` of column `c`, `0.0` when not stored.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ cols()`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.column(c).get(r)
    }

    /// Bytes of the three arrays: a `usize` per column start, and a
    /// `u32` row and an `f64` value per entry.
    pub fn bytes(&self) -> usize {
        self.start.len() * std::mem::size_of::<usize>()
            + self.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
    }
}

/// A symmetric matrix: its diagonal, and each column's off-diagonal
/// nonzeros from both triangles.
///
/// # Example
///
/// ```
/// use semsim_linalg::SymmetricMatrix;
///
/// # fn main() -> Result<(), semsim_linalg::LinalgError> {
/// // [[3, -1], [-1, 2]]
/// let a = SymmetricMatrix::from_entries(vec![3.0, 2.0], &[(0, 1, -1.0)]);
/// let x = a.ldl()?.solve(&[1.0, 3.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricMatrix {
    diagonal: Vec<f64>,
    off_diagonal: SparseColumns,
}

impl SymmetricMatrix {
    /// The matrix with `diagonal` and the off-diagonal entries
    /// `(i, j, value)`, each of which stands for both `(i, j)` and
    /// `(j, i)`. Entries repeated for one pair are summed from `0.0` in
    /// the order given, so `(i, j)` and `(j, i)` hold the same bits.
    ///
    /// # Panics
    ///
    /// Panics if an entry lies on the diagonal or outside the matrix.
    pub fn from_entries(diagonal: Vec<f64>, entries: &[(usize, usize, f64)]) -> Self {
        let n = diagonal.len();
        let mut both: Vec<(usize, usize, f64)> = Vec::with_capacity(2 * entries.len());
        for &(i, j, v) in entries {
            assert!(
                i != j && i < n && j < n,
                "off-diagonal entry ({i}, {j}) of {n}×{n}"
            );
            both.push((j, i, v));
            both.push((i, j, v));
        }
        // Stable: repeats of one pair keep their given order.
        both.sort_by_key(|&(col, row, _)| (col, row));
        let mut off_diagonal = SparseColumns::new();
        let mut entries = both.into_iter().peekable();
        for col in 0..n {
            while let Some((_, row, v)) = entries.next_if(|&(c, _, _)| c == col) {
                let mut sum = 0.0 + v;
                while let Some((_, _, v)) = entries.next_if(|&(c, r, _)| c == col && r == row) {
                    sum += v;
                }
                off_diagonal.push(row, sum);
            }
            off_diagonal.end_column();
        }
        SymmetricMatrix {
            diagonal,
            off_diagonal,
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.diagonal.len()
    }

    /// The diagonal.
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// The off-diagonal nonzeros of column `c`, from both triangles.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ dim()`.
    pub fn off_diagonal(&self, c: usize) -> SparseColumn<'_> {
        self.off_diagonal.column(c)
    }

    /// A dense copy.
    pub fn to_dense(&self) -> Matrix {
        let n = self.dim();
        let mut m = Matrix::zeros(n, n);
        for (c, &d) in self.diagonal.iter().enumerate() {
            m.set(c, c, d);
            for (r, v) in self.off_diagonal(c).iter() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Factors the matrix as `P·A·Pᵀ = L·D·Lᵀ`.
    ///
    /// # Errors
    ///
    /// As [`LdlFactor::new`].
    pub fn ldl(&self) -> Result<LdlFactor, LinalgError> {
        LdlFactor::new(self)
    }

    /// Estimates the 1-norm condition number `κ₁(A) = ‖A‖₁·‖A⁻¹‖₁`
    /// with Hager's algorithm: the factor of [`SymmetricMatrix::ldl`]
    /// plus a handful of solves, a gradient ascent on `‖A⁻¹x‖₁` over the
    /// 1-norm unit ball. `A` is symmetric, so the transposed solve the
    /// ascent needs is the same solve. The result is a lower bound on
    /// the true `κ₁` (clamped below at 1), typically within a small
    /// factor of it; the static checker uses it to flag near-singular
    /// capacitance matrices (diagnostic SC003).
    ///
    /// # Errors
    ///
    /// As [`LdlFactor::new`]: [`LinalgError::Singular`] for a matrix the
    /// factor refuses, which the caller reports as SC002 rather than
    /// SC003.
    pub fn condition_estimate(&self) -> Result<f64, LinalgError> {
        let factor = self.ldl()?;
        let n = self.dim();
        let mut x = vec![1.0 / n as f64; n];
        let mut inverse_norm = 0.0f64;
        // Hager converges in 2–3 steps in practice; 5 bounds the cost.
        for _ in 0..5 {
            let y = factor.solve(&x)?;
            inverse_norm = inverse_norm.max(y.iter().map(|v| v.abs()).sum());
            let signs: Vec<f64> = y
                .iter()
                .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                .collect();
            let z = factor.solve(&signs)?;
            let (mut j_best, mut z_best) = (0, 0.0f64);
            for (j, &zj) in z.iter().enumerate() {
                if zj.abs() > z_best {
                    (j_best, z_best) = (j, zj.abs());
                }
            }
            let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
            if z_best <= zx {
                break;
            }
            x = vec![0.0; n];
            x[j_best] = 1.0;
        }
        let norm = (0..n)
            .map(|c| {
                let column = self.off_diagonal(c).values.iter();
                self.diagonal[c].abs() + column.map(|v| v.abs()).sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        Ok((norm * inverse_norm).max(1.0))
    }
}

/// `P·A·Pᵀ = L·D·Lᵀ` of a symmetric matrix `A`, with `P` the greedy
/// minimum-degree order, `L` unit lower triangular and stored sparse by
/// column, and `D` diagonal. No square roots are taken, so on a 1×1
/// system a solve returns `b / a` through the pivot exactly as a dense
/// LU's does.
#[derive(Debug, Clone)]
pub struct LdlFactor {
    /// `order[k]` is the index of `A` eliminated `k`-th.
    order: Vec<u32>,
    /// `position[i]` is the step at which index `i` is eliminated.
    position: Vec<u32>,
    /// The pivots, in elimination order.
    d: Vec<f64>,
    /// The strict lower part of `L`, by column in elimination order, with
    /// rows as elimination steps.
    l: SparseColumns,
}

impl LdlFactor {
    /// Orders and factors `a`. The order is greedy minimum degree on the
    /// elimination graph, lowest index first among equal degrees, so
    /// every host computes the same factor. Its structure is the
    /// neighbourhood of each vertex when it is eliminated; the values
    /// come from a left-looking elimination, one column at a time.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`], naming the index of `a` being
    /// eliminated, when a pivot is not above `1e-300`: the matrix is
    /// singular or not positive definite.
    pub fn new(a: &SymmetricMatrix) -> Result<Self, LinalgError> {
        let n = a.dim();
        let (order, structure) = minimum_degree(a);
        let mut position = vec![0u32; n];
        for (k, &v) in order.iter().enumerate() {
            position[v as usize] = k as u32;
        }
        let mut l = SparseColumns::new();
        let mut column = Vec::new();
        for neighbours in structure {
            column.clear();
            column.extend(neighbours.iter().map(|&u| position[u as usize]));
            column.sort_unstable();
            for &r in &column {
                l.push(r as usize, 0.0);
            }
            l.end_column();
        }

        // Columns `j` whose structure holds row `k`, ascending: the
        // columns the left-looking step `k` subtracts.
        let mut row_start = vec![0usize; n + 1];
        for &r in &l.rows {
            row_start[r as usize + 1] += 1;
        }
        for k in 0..n {
            row_start[k + 1] += row_start[k];
        }
        let mut row_columns = vec![0u32; l.nnz()];
        let mut fill = row_start.clone();
        for j in 0..n {
            for &r in l.column(j).rows {
                row_columns[fill[r as usize]] = j as u32;
                fill[r as usize] += 1;
            }
        }
        drop(fill);

        // `next[j]` is the position in column `j` of the first row not
        // yet reached: row `k` while step `k` reads column `j`.
        let mut next = l.start[..n].to_vec();
        let mut d = vec![0.0; n];
        let mut w = vec![0.0; n];
        for k in 0..n {
            let v = order[k] as usize;
            w[k] = a.diagonal[v];
            for (u, x) in a.off_diagonal(v).iter() {
                let i = position[u] as usize;
                if i > k {
                    w[i] = x;
                }
            }
            for &j in &row_columns[row_start[k]..row_start[k + 1]] {
                let j = j as usize;
                let p = next[j];
                let f = l.values[p] * d[j];
                for q in p..l.start[j + 1] {
                    w[l.rows[q] as usize] -= l.values[q] * f;
                }
                next[j] = p + 1;
            }
            let pivot = w[k];
            if !(pivot > PIVOT_EPS) {
                return Err(LinalgError::Singular { pivot: v });
            }
            for q in l.start[k]..l.start[k + 1] {
                let i = l.rows[q] as usize;
                l.values[q] = w[i] / pivot;
                w[i] = 0.0;
            }
            w[k] = 0.0;
            d[k] = pivot;
        }
        Ok(LdlFactor {
            order,
            position,
            d,
            l,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Number of stored entries of `L` below its unit diagonal.
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut w: Vec<f64> = self.order.iter().map(|&i| b[i as usize]).collect();
        self.substitute(&mut w, 0);
        let mut x = vec![0.0; n];
        for (&i, &wk) in self.order.iter().zip(&w) {
            x[i as usize] = wk;
        }
        Ok(x)
    }

    /// Solves `L·D·Lᵀ·y = w` in place, for a `w` in elimination order
    /// that is zero before step `first`.
    fn substitute(&self, w: &mut [f64], first: usize) {
        let n = self.dim();
        for j in first..n {
            let wj = w[j];
            if wj != 0.0 {
                for (i, l) in self.l.column(j).iter() {
                    w[i] -= l * wj;
                }
            }
        }
        for (wj, d) in w[first..].iter_mut().zip(&self.d[first..]) {
            *wj /= d;
        }
        for j in (0..n).rev() {
            let mut sum = 0.0;
            for (i, l) in self.l.column(j).iter() {
                sum += l * w[i];
            }
            w[j] -= sum;
        }
    }

    /// The diagonal of `A⁻¹`. Entry `i` is `Σ_k y_k²/d_k` for
    /// `y = L⁻¹·P·e_i`, a sum of positive terms. `y` is nonzero only on
    /// the elimination-tree path from `i`'s step to its root (each
    /// column's first row is its parent), and only that path is walked.
    pub fn inverse_diagonal(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.dim()];
        self.position
            .iter()
            .map(|&p| {
                let mut j = p as usize;
                w[j] = 1.0;
                let mut sum = 0.0;
                loop {
                    let y = std::mem::replace(&mut w[j], 0.0);
                    sum += y * y / self.d[j];
                    let column = self.l.column(j);
                    for (i, l) in column.iter() {
                        w[i] -= l * y;
                    }
                    match column.rows.first() {
                        Some(&parent) => j = parent as usize,
                        None => break sum,
                    }
                }
            })
            .collect()
    }

    /// `A⁻¹`, truncated: each column is solved into one reused dense
    /// vector, and entry `(i, k)` is kept when it is nonzero and
    /// `|x| ≥ eps·min(|d_i|, |d_k|)`, with `d` the
    /// [`LdlFactor::inverse_diagonal`]. The rule is symmetric in `i`
    /// and `k`; a kept entry's value is its own column's solve, except
    /// on the diagonal, which holds `d` (always kept for finite
    /// positive `d`). A dropped entry is below `eps` of its row's
    /// diagonal, so any test of the form `|x_ik| ≥ eps·|d_i|` accepts
    /// exactly the kept entries it would accept in the full inverse.
    pub fn truncated_inverse(&self, eps: f64) -> SparseColumns {
        let n = self.dim();
        let d = self.inverse_diagonal();
        let mut inverse = SparseColumns::new();
        let mut w = vec![0.0; n];
        for (c, &dc) in d.iter().enumerate() {
            let first = self.position[c] as usize;
            w.fill(0.0);
            w[first] = 1.0;
            self.substitute(&mut w, first);
            for (i, (&di, &p)) in d.iter().zip(&self.position).enumerate() {
                let x = if i == c { dc } else { w[p as usize] };
                if x != 0.0 && x.abs() >= eps * di.abs().min(dc.abs()) {
                    inverse.push(i, x);
                }
            }
            inverse.end_column();
        }
        inverse.rows.shrink_to_fit();
        inverse.values.shrink_to_fit();
        inverse
    }
}

/// Greedy minimum-degree elimination of `a`'s graph: repeatedly
/// eliminates the vertex of least degree, lowest index first among
/// equal degrees, and joins its remaining neighbours pairwise. Returns
/// the order and, per eliminated vertex, its neighbours at elimination:
/// the structure of its column of `L`.
fn minimum_degree(a: &SymmetricMatrix) -> (Vec<u32>, Vec<Vec<u32>>) {
    let n = a.dim();
    let mut adjacency: Vec<Vec<u32>> = (0..n).map(|c| a.off_diagonal(c).rows.to_vec()).collect();
    let mut queue: BTreeSet<(usize, u32)> = adjacency
        .iter()
        .enumerate()
        .map(|(v, nb)| (nb.len(), v as u32))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut structure = Vec::with_capacity(n);
    while let Some((_, v)) = queue.pop_first() {
        let neighbours = std::mem::take(&mut adjacency[v as usize]);
        for &u in &neighbours {
            let list = &mut adjacency[u as usize];
            queue.remove(&(list.len(), u));
            list.extend_from_slice(&neighbours);
            list.sort_unstable();
            list.dedup();
            list.retain(|&x| x != u && x != v);
            queue.insert((list.len(), u));
        }
        order.push(v);
        structure.push(neighbours);
    }
    (order, structure)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path of `n` islands, each also coupled to ground.
    fn chain(n: usize) -> SymmetricMatrix {
        let entries: Vec<_> = (1..n).map(|i| (i - 1, i, -1.0)).collect();
        SymmetricMatrix::from_entries(vec![3.0; n], &entries)
    }

    #[test]
    fn repeated_entries_sum_in_order_and_mirror() {
        let a = SymmetricMatrix::from_entries(vec![4.0, 5.0, 6.0], &[(0, 2, -1.0), (2, 0, -0.5)]);
        assert_eq!(a.off_diagonal(0).rows, &[2]);
        assert_eq!(a.off_diagonal(0).values, &[-1.5]);
        assert_eq!(a.off_diagonal(2).values, &[-1.5]);
        assert!(a.off_diagonal(1).is_empty());
        assert_eq!(a.to_dense().get(2, 0), -1.5);
    }

    #[test]
    fn one_by_one_inverse_is_the_reciprocal() {
        let a = SymmetricMatrix::from_entries(vec![5e-18], &[]);
        let f = a.ldl().unwrap();
        assert_eq!(
            f.solve(&[1.0]).unwrap()[0].to_bits(),
            (1.0 / 5e-18f64).to_bits()
        );
        assert_eq!(
            f.inverse_diagonal()[0].to_bits(),
            (1.0 / 5e-18f64).to_bits()
        );
        let inv = f.truncated_inverse(1e-8);
        assert_eq!(inv.get(0, 0).to_bits(), (1.0 / 5e-18f64).to_bits());
    }

    #[test]
    fn minimum_degree_breaks_ties_by_lowest_index() {
        // A star: the leaves (degree 1) go first, lowest first, until the
        // centre's degree falls to 1 and its lower index beats leaf 4.
        let a = SymmetricMatrix::from_entries(
            vec![9.0; 5],
            &[(2, 0, -1.0), (2, 1, -1.0), (2, 3, -1.0), (2, 4, -1.0)],
        );
        let (order, structure) = minimum_degree(&a);
        assert_eq!(order, [0, 1, 3, 2, 4]);
        assert_eq!(structure, [vec![2], vec![2], vec![2], vec![4], vec![]]);
        // A star factors with no fill.
        assert_eq!(a.ldl().unwrap().nnz(), 4);
    }

    #[test]
    fn chain_factors_without_fill_and_solves() {
        let a = chain(50);
        let f = a.ldl().unwrap();
        assert_eq!(f.nnz(), 49);
        let dense = a.to_dense();
        let b: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b).unwrap();
        let ax = dense.mul_vec(&x).unwrap();
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn truncated_inverse_keeps_the_symmetric_rule() {
        let a = chain(40);
        let f = a.ldl().unwrap();
        let d = f.inverse_diagonal();
        let eps = 1e-6;
        let inv = f.truncated_inverse(eps);
        let lu = a.to_dense().lu().unwrap();
        let mut e = vec![0.0; 40];
        for c in 0..40 {
            e[c] = 1.0;
            let exact = lu.solve(&e).unwrap();
            e[c] = 0.0;
            assert!((d[c] - exact[c]).abs() <= 1e-14 * exact[c]);
            for (i, &x) in exact.iter().enumerate() {
                let cut = eps * d[i].min(d[c]);
                let kept = inv.get(i, c);
                if x.abs() >= cut * (1.0 + 1e-12) {
                    assert!((kept - x).abs() <= 1e-14 * d[i].max(d[c]), "({i},{c})");
                } else if x.abs() < cut * (1.0 - 1e-12) {
                    assert_eq!(kept, 0.0, "({i},{c})");
                }
            }
        }
        // The chain's coupling decays geometrically, so the far corners
        // drop out.
        assert!(inv.nnz() < 40 * 40 && inv.get(39, 0) == 0.0);
        assert_eq!(inv.cols(), 40);
    }

    #[test]
    fn singular_and_indefinite_pivots_are_refused() {
        // Two islands joined only to each other: singular.
        let a = SymmetricMatrix::from_entries(vec![1.0, 1.0], &[(0, 1, -1.0)]);
        assert!(matches!(a.ldl(), Err(LinalgError::Singular { .. })));
        // An island with no capacitance at all, named by its index.
        let a = SymmetricMatrix::from_entries(vec![1.0, 0.0], &[]);
        assert_eq!(a.ldl().unwrap_err(), LinalgError::Singular { pivot: 1 });
        let a = SymmetricMatrix::from_entries(vec![1.0, 1.0], &[(0, 1, -2.0)]);
        assert!(matches!(a.ldl(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let est = SymmetricMatrix::from_entries(vec![1.0; 4], &[])
            .condition_estimate()
            .unwrap();
        assert!((est - 1.0).abs() <= 1e-12, "{est}");
    }

    #[test]
    fn condition_estimate_grows_with_ill_conditioning() {
        // diag(1, 1e-8): κ₁ = 1e8 exactly.
        let est = SymmetricMatrix::from_entries(vec![1.0, 1e-8], &[])
            .condition_estimate()
            .unwrap();
        assert!((est - 1e8).abs() <= 1.0, "{est}");
    }

    #[test]
    fn solve_rejects_bad_rhs_length() {
        let f = chain(3).ldl().unwrap();
        assert!(f.solve(&[1.0, 2.0]).is_err());
    }
}
