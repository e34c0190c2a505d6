use crate::{LinalgError, Matrix, PIVOT_EPS};

/// LU decomposition with partial pivoting (`P·A = L·U`).
///
/// The decomposition is computed once and can then solve any number of
/// right-hand sides. The static checker's condition estimate and the
/// SPICE baseline's nodal solve use it; the circuit build factors its
/// capacitance matrix sparse ([`crate::LdlFactor`]).
///
/// # Example
///
/// ```
/// use semsim_linalg::Matrix;
///
/// # fn main() -> Result<(), semsim_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&[5.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation applied to the input.
    perm: Vec<usize>,
    /// Sign of the permutation, used by [`LuDecomposition::determinant`].
    perm_sign: f64,
}

impl LuDecomposition {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when no usable pivot remains.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find the largest pivot in column k at or below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let inv_pivot = 1.0 / lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) * inv_pivot;
                lu.set(r, k, factor);
                if factor == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    lu.add_to(r, c, -factor * lu.get(k, c));
                }
            }
        }
        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution with the permuted RHS (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let dot: f64 = x[..i]
                .iter()
                .enumerate()
                .map(|(k, &xk)| self.lu.get(i, k) * xk)
                .sum();
            x[i] -= dot;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let dot: f64 = x[i + 1..]
                .iter()
                .enumerate()
                .map(|(k, &xk)| self.lu.get(i, i + 1 + k) * xk)
                .sum();
            x[i] = (x[i] - dot) / self.lu.get(i, i);
        }
        Ok(x)
    }

    /// Solves `Aᵀ·x = b` using the stored factors.
    ///
    /// With `P·A = L·U` we have `Aᵀ = Uᵀ·Lᵀ·P`, so the transposed system
    /// is a forward substitution with `Uᵀ`, a backward substitution with
    /// `Lᵀ` (unit diagonal), and an inverse permutation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution with Uᵀ (lower triangular, general diagonal).
        let mut w = b.to_vec();
        for i in 0..n {
            let dot: f64 = w[..i]
                .iter()
                .enumerate()
                .map(|(k, &wk)| self.lu.get(k, i) * wk)
                .sum();
            w[i] = (w[i] - dot) / self.lu.get(i, i);
        }
        // Backward substitution with Lᵀ (upper triangular, unit diagonal).
        for i in (0..n).rev() {
            let dot: f64 = w[i + 1..]
                .iter()
                .enumerate()
                .map(|(k, &wk)| self.lu.get(i + 1 + k, i) * wk)
                .sum();
            w[i] -= dot;
        }
        // Undo the row permutation: x = Pᵀ·w.
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = w[i];
        }
        Ok(x)
    }

    /// Hager's estimate of `‖A⁻¹‖₁` from the stored factors: a gradient
    /// ascent on `‖A⁻¹x‖₁` over the 1-norm unit ball, needing only a few
    /// solves instead of the full inverse. The result is a lower bound on
    /// the true norm and is usually within a small factor of it.
    ///
    /// # Errors
    ///
    /// Propagates errors from the triangular solves; cannot fail for a
    /// successfully constructed decomposition.
    pub fn inverse_norm_one_estimate(&self) -> Result<f64, LinalgError> {
        let n = self.dim();
        if n == 0 {
            return Ok(0.0);
        }
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0f64;
        // Hager converges in 2–3 steps in practice; 5 bounds the cost.
        for _ in 0..5 {
            let y = self.solve(&x)?;
            let ynorm: f64 = y.iter().map(|v| v.abs()).sum();
            est = est.max(ynorm);
            let xi: Vec<f64> = y
                .iter()
                .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                .collect();
            let z = self.solve_transpose(&xi)?;
            let (mut j_best, mut z_best) = (0, 0.0f64);
            for (j, &zj) in z.iter().enumerate() {
                if zj.abs() > z_best {
                    z_best = zj.abs();
                    j_best = j;
                }
            }
            let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
            if z_best <= zx {
                break;
            }
            x = vec![0.0; n];
            x[j_best] = 1.0;
        }
        Ok(est)
    }

    /// Determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu.get(i, i);
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    /// `a⁻¹`, one solve per column.
    fn inverse(a: &Matrix) -> Matrix {
        let lu = a.lu().unwrap();
        let n = a.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            for (r, x) in lu.solve(&e).unwrap().into_iter().enumerate() {
                inv.set(r, c, x);
            }
            e[c] = 0.0;
        }
        inv
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_close(x[0], 0.8, 1e-12);
        assert_close(x[1], 1.4, 1e-12);
    }

    #[test]
    fn inverse_roundtrip_4x4() {
        // A strictly diagonally dominant symmetric matrix, like a
        // capacitance matrix.
        let a = Matrix::from_rows(&[
            &[5.0, -1.0, 0.0, -0.5],
            &[-1.0, 4.0, -1.0, 0.0],
            &[0.0, -1.0, 6.0, -2.0],
            &[-0.5, 0.0, -2.0, 7.0],
        ])
        .unwrap();
        let inv = inverse(&a);
        let id = a.mul(&inv).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_close(id.get(r, c), if r == c { 1.0 } else { 0.0 }, 1e-12);
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn not_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant_with_permutation() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        assert_close(a.lu().unwrap().determinant(), -6.0, 1e-12);
    }

    #[test]
    fn determinant_identity() {
        assert_close(Matrix::identity(5).lu().unwrap().determinant(), 1.0, 1e-12);
    }

    #[test]
    fn solve_rejects_bad_rhs_length() {
        let lu = Matrix::identity(3).lu().unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_transpose_matches_explicit_transpose() {
        let a =
            Matrix::from_rows(&[&[0.0, 2.0, -1.0], &[3.0, 0.5, 0.0], &[-1.0, 1.0, 4.0]]).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x1 = a.lu().unwrap().solve_transpose(&b).unwrap();
        let x2 = a.transposed().solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert_close(*u, *v, 1e-12);
        }
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let est = Matrix::identity(4).condition_estimate().unwrap();
        assert_close(est, 1.0, 1e-12);
    }

    #[test]
    fn condition_estimate_grows_with_ill_conditioning() {
        // diag(1, 1e-8): κ₁ = 1e8 exactly.
        let mut m = Matrix::identity(2);
        m.set(1, 1, 1e-8);
        let est = m.condition_estimate().unwrap();
        assert_close(est, 1e8, 1.0);
    }

    #[test]
    fn inverse_of_symmetric_is_symmetric() {
        let a = Matrix::from_rows(&[&[4.0, -1.0, -0.3], &[-1.0, 5.0, -0.7], &[-0.3, -0.7, 6.0]])
            .unwrap();
        assert!(inverse(&a).is_symmetric(1e-12));
    }
}
