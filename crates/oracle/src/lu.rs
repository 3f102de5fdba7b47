//! LU decomposition with partial pivoting.
//!
//! Solves the indefinite KKT systems of [`crate::qp`], and gives the
//! determinant `capgpu-linalg`'s eigenvalue tests compare with.

use capgpu_linalg::{LinalgError, Matrix, Result};

/// LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// `L` has an implicit unit diagonal and is stored, together with `U`, in a
/// single packed matrix.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (strictly lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of A.
    perm: Vec<usize>,
    /// Sign of the permutation, used by `det`.
    perm_sign: f64,
}

/// Relative pivot threshold below which a matrix is declared singular.
const PIVOT_TOL: f64 = 1e-13;

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: "LU requires a square matrix",
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = lu.max_abs().max(1.0);

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= PIVOT_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let m = lu[(r, k)] / pivot;
                lu[(r, k)] = m;
                if m == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    let v = lu[(k, c)];
                    lu[(r, c)] -= m * v;
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "LU solve rhs length",
            });
        }
        // Apply permutation, then forward substitution (unit lower).
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for r in 1..n {
            let mut acc = y[r];
            for c in 0..r {
                acc -= self.lu[(r, c)] * y[c];
            }
            y[r] = acc;
        }
        // Backward substitution (upper).
        for r in (0..n).rev() {
            let mut acc = y[r];
            for c in (r + 1)..n {
                acc -= self.lu[(r, c)] * y[c];
            }
            y[r] = acc / self.lu[(r, r)];
        }
        Ok(y)
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `B` has a wrong row count.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "LU solve_matrix rhs rows",
            });
        }
        let mut x = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let col = self.solve(&b.col_vec(c))?;
            for r in 0..n {
                x[(r, c)] = col[r];
            }
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    /// Propagates solve errors (cannot occur after successful factorization).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// One-shot convenience: solve `A·x = b` via LU.
///
/// # Errors
/// See [`Lu::new`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Lu::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::approx_eq;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        // 2x + y = 3, x + 3y = 5 -> x = 0.8, y = 1.4
        assert!(approx_eq(&x, &[0.8, 1.4], 1e-12));
    }

    #[test]
    fn solve_recovers_random_rhs() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = solve(&a, &b).unwrap();
        assert!(approx_eq(&x, &x_true, 1e-10));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!(approx_eq(&x, &[3.0, 2.0], 1e-12));
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(Lu::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::new(&a).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(Lu::new(&a).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn determinant_of_permuted_identity() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((Lu::new(&a).unwrap().det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 3.0]]);
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]);
        let x = Lu::new(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(x.approx_eq(&Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0]]), 1e-12));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(2);
        let lu = Lu::new(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }
}
