use crate::{LinalgError, Matrix, PIVOT_EPS};

/// LU decomposition with partial pivoting (`P·A = L·U`).
///
/// The decomposition is computed once and can then solve any number of
/// right-hand sides. It serves the nonsymmetric dense systems: the
/// SPICE baseline's nodal Jacobian and the master equation. The
/// capacitance matrix is symmetric and factored sparse
/// ([`crate::LdlFactor`]).
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
        Ok(LuDecomposition { lu, perm })
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
    fn solve_rejects_bad_rhs_length() {
        let lu = Matrix::identity(3).lu().unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn inverse_of_symmetric_is_symmetric() {
        let a = Matrix::from_rows(&[&[4.0, -1.0, -0.3], &[-1.0, 5.0, -0.7], &[-0.3, -0.7, 6.0]])
            .unwrap();
        assert!(inverse(&a).is_symmetric(1e-12));
    }
}
