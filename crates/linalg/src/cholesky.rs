//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The condensed MPC Hessian `H = SᵀQS + R` (paper Eq. 9) is symmetric
//! positive definite by construction, so the QP solvers in `capgpu-optim`
//! factor it once per active set with Cholesky rather than LU.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (upper triangle is zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (the MPC Hessian is symmetric by
    /// construction).
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is not
    ///   strictly positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky requires a square matrix",
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    // Triangular index loops are the clearest idiom here; iterator forms
    // obscure the k < i / k > i structure.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky solve rhs length",
            });
        }
        // Forward: L·y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Backward: Lᵀ·x = y
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in (i + 1)..n {
                acc -= self.l[(k, i)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::approx_eq;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 1.0], &[0.5, 1.0, 2.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose());
        assert!(rec.approx_eq(&a, 1e-12));
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd3();
        let x_true = vec![1.0, -1.0, 2.0];
        let b = a.matvec(&x_true);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        assert!(approx_eq(&x, &x_true, 1e-10));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_negative_definite() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        assert_eq!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
        assert_eq!(
            Cholesky::new(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn rhs_length_checked() {
        let ch = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }
}
