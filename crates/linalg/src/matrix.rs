use crate::{LinalgError, LuDecomposition};

/// A dense, row-major matrix of `f64`.
///
/// It holds the island–lead coupling block and the lead responses, and
/// backs the nonsymmetric dense solves: the SPICE baseline's nodal
/// Jacobian and the master equation. It intentionally supports only the
/// operations the simulator needs; it is not a general-purpose BLAS.
///
/// # Example
///
/// ```
/// use semsim_linalg::Matrix;
///
/// # fn main() -> Result<(), semsim_linalg::LinalgError> {
/// let mut m = Matrix::zeros(2, 2);
/// m.set(0, 0, 2.0);
/// m.set(1, 1, 4.0);
/// let v = m.mul_vec(&[1.0, 1.0])?;
/// assert_eq!(v, vec![2.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// use semsim_linalg::Matrix;
    /// let id = Matrix::identity(3);
    /// assert_eq!(id.get(1, 1), 1.0);
    /// assert_eq!(id.get(0, 2), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows differ in length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinalgError::RaggedRows {
                    expected: ncols,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] += v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `self · x`. An `n × 0` matrix yields `n`
    /// zeros (every row sum is empty).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        if self.cols == 0 {
            return Ok(vec![0.0; self.rows]);
        }
        Ok(self
            .data
            .chunks_exact(self.cols)
            .map(|row| crate::dot(row, x))
            .collect())
    }

    /// Matrix–matrix product `self · other`. Each output entry sums
    /// `self[i][k] · other[k][j]` in ascending `k`, starting from `+0`,
    /// and skips the terms whose left entry is zero.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the inner dimensions differ.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(other.row(k)) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns `true` if the matrix equals its transpose to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// LU-decomposes the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] if a pivot vanishes.
    pub fn lu(&self) -> Result<LuDecomposition, LinalgError> {
        LuDecomposition::new(self)
    }

    /// Solves `self · x = b`.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::lu`], plus [`LinalgError::ShapeMismatch`] for a
    /// wrong-length right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Borrows the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Matrix::identity(4);
        assert_eq!(id.mul(&id).unwrap(), id);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::RaggedRows {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn mul_vec_rejects_bad_shape() {
        let m = Matrix::identity(2);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn mul_vec_on_zero_column_matrices_returns_row_zeros() {
        for rows in [0, 2] {
            let m = Matrix::zeros(rows, 0);
            assert_eq!(m.mul_vec(&[]).unwrap(), vec![0.0; rows]);
            assert!(m.mul_vec(&[1.0]).is_err());
        }
    }

    #[test]
    fn matrix_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let ab = a.mul(&b).unwrap();
        assert_eq!(ab, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]).unwrap());
        for (rows, inner, cols) in [(0, 3, 2), (2, 0, 3), (3, 2, 0)] {
            let p = Matrix::zeros(rows, inner).mul(&Matrix::zeros(inner, cols));
            assert_eq!(p.unwrap(), Matrix::zeros(rows, cols));
        }
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 3.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn row_view() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn add_to_accumulates() {
        let mut m = Matrix::zeros(1, 1);
        m.add_to(0, 0, 2.5);
        m.add_to(0, 0, -1.0);
        assert_eq!(m.get(0, 0), 1.5);
    }
}
