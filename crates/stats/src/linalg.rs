//! Dense linear algebra: matrices and LU factorization with partial pivoting.
//!
//! Section 4.2 of the paper assembles, for every strongly connected component
//! of the CFG, "a system of linear equations … in which edge activation
//! probabilities form the coefficient matrix and instruction error
//! probabilities are the unknowns". Those systems are small and dense, so a
//! classical LU with partial pivoting (plus one step of iterative refinement)
//! is the right tool — and the offline registry carries no linear-algebra
//! crate, so we provide it here.

use crate::{Result, StatsError};

/// A dense row-major matrix of `f64`.
///
/// # Example
/// ```
/// use terse_stats::Matrix;
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let x = a.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
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
    /// Creates a zero matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(StatsError::InvalidParameter {
                name: "dims",
                value: (rows.min(cols)) as f64,
                requirement: "rows > 0 and cols > 0",
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// The identity matrix of order `n`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `n == 0`.
    pub fn identity(n: usize) -> Result<Self> {
        let mut m = Matrix::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        Ok(m)
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for no rows and
    /// [`StatsError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(StatsError::Empty { what: "rows" });
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(StatsError::Empty { what: "columns" });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(StatsError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    left: ncols,
                    right: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
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

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::mul_vec",
                left: self.cols,
                right: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut s = crate::kahan::KahanSum::new();
            for (a, &b) in row.iter().zip(x) {
                s.add(a * b);
            }
            y[i] = s.value();
        }
        Ok(y)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] for non-square matrices and
    /// [`StatsError::SingularMatrix`] if a pivot vanishes to working
    /// precision.
    pub fn lu(&self) -> Result<Lu> {
        failpoints::fail_point!("stats::lu", |_| Err(StatsError::SingularMatrix));
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::lu",
                left: self.rows,
                right: self.cols,
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sign = 1.0f64;
        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(StatsError::SingularMatrix);
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[k * n + k];
            for i in k + 1..n {
                let f = lu[i * n + k] / pivot;
                lu[i * n + k] = f;
                for j in k + 1..n {
                    lu[i * n + j] -= f * lu[k * n + j];
                }
            }
        }
        Ok(Lu {
            n,
            lu,
            piv,
            sign,
            original: self.clone(),
        })
    }

    /// Solves `A·x = b` (LU + one iterative-refinement step).
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors and dimension mismatches.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

/// An LU factorization `P·A = L·U`, reusable across right-hand sides —
/// exactly the pattern of the per-SCC systems, which are solved once per
/// data-variation sample.
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
    sign: f64,
    original: Matrix,
}

impl Lu {
    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for k in 0..self.n {
            d *= self.lu[k * self.n + k];
        }
        d
    }

    /// Solves `A·x = b` with one step of iterative refinement.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `b.len() != order`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(StatsError::DimensionMismatch {
                context: "Lu::solve",
                left: self.n,
                right: b.len(),
            });
        }
        let mut x = self.solve_raw(b);
        // One refinement step: r = b − A·x, x ← x + A⁻¹ r.
        let ax = self.original.mul_vec(&x)?;
        let r: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
        let dx = self.solve_raw(&r);
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        Ok(x)
    }

    fn solve_raw(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        // Apply permutation.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s / self.lu[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(4).unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = a.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn known_2x2_system() {
        let a = Matrix::from_rows(&[&[3.0, 2.0], &[1.0, 4.0]]).unwrap();
        // Solution of 3x+2y=7, x+4y=9 is x=1, y=2.
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-13);
        assert!((x[1] - 2.0).abs() < 1e-13);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(
            a.solve(&[1.0, 2.0]).unwrap_err(),
            StatsError::SingularMatrix
        );
    }

    #[test]
    fn determinant_values() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!((a.lu().unwrap().det() - 6.0).abs() < 1e-13);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((b.lu().unwrap().det() + 1.0).abs() < 1e-13);
    }

    #[test]
    fn residual_small_on_random_systems() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(42);
        for n in [1usize, 2, 5, 12, 30] {
            let mut a = Matrix::zeros(n, n).unwrap();
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.next_range(-1.0, 1.0);
                }
                a[(i, i)] += n as f64; // diagonally dominant → well conditioned
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_range(-10.0, 10.0)).collect();
            let x = a.solve(&b).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            for (axi, bi) in ax.iter().zip(&b) {
                assert!((axi - bi).abs() < 1e-10, "n={n} residual too large");
            }
        }
    }

    #[test]
    fn lu_reuse_across_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]).unwrap();
        let lu = a.lu().unwrap();
        let x1 = lu.solve(&[5.0, 5.0]).unwrap();
        let x2 = lu.solve(&[9.0, 13.0]).unwrap();
        assert!((x1[0] - 1.0).abs() < 1e-13 && (x1[1] - 1.0).abs() < 1e-13);
        assert!((x2[0] - 1.4).abs() < 1e-13 && (x2[1] - 3.4).abs() < 1e-13);
    }

    #[test]
    fn dimension_errors() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(a.lu().is_err()); // non-square
        let sq = Matrix::identity(2).unwrap();
        assert!(sq.solve(&[1.0]).is_err());
    }

    #[test]
    fn mul_vec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
    }
}
