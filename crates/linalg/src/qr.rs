//! Householder QR factorization and least-squares solves.
//!
//! QR is the numerically preferred route for the over-determined regression
//! problems in system identification (paper §4.2): it avoids squaring the
//! condition number the way the normal equations do.

use crate::{LinalgError, Matrix, Result};

/// Householder QR factorization `A = Q·R` of an `m × n` matrix with `m ≥ n`.
///
/// `Q` is stored implicitly as a sequence of Householder reflectors; `R` is
/// the upper-triangular `n × n` block.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed reflectors (below diagonal) and R (upper triangle).
    qr: Matrix,
    /// Scalar `beta` coefficients of the reflectors.
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// Relative threshold on diagonal entries of R for rank detection.
const RANK_TOL: f64 = 1e-12;

impl Qr {
    /// Factorizes an `m × n` matrix with `m ≥ n`.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] if `m < n`.
    /// * [`LinalgError::Empty`] for an empty matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                context: "QR requires rows >= cols",
            });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        let mut v = vec![0.0; m]; // reflector scratch buffer
        for k in 0..n {
            // Build the Householder vector for column k, rows k..m, in a
            // scratch buffer (it cannot live in the column being updated).
            let len = m - k;
            for (i, r) in (k..m).enumerate() {
                v[i] = qr[(r, k)];
            }
            let norm = v[..len].iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if v[0] >= 0.0 { -norm } else { norm };
            v[0] -= alpha; // v = x − α·e₁
            let vtv: f64 = v[..len].iter().map(|x| x * x).sum();
            if vtv == 0.0 {
                betas[k] = 0.0;
                qr[(k, k)] = alpha;
                continue;
            }
            let beta = 2.0 / vtv;
            // Apply H = I − β·v·vᵀ to columns k..n of the trailing block.
            for c in k..n {
                let mut dot = 0.0;
                for (i, r) in (k..m).enumerate() {
                    dot += v[i] * qr[(r, c)];
                }
                let s = beta * dot;
                for (i, r) in (k..m).enumerate() {
                    qr[(r, c)] -= s * v[i];
                }
            }
            // Column k is now [α, ~0, …]; enforce exactness and stash the
            // reflector normalized so its leading entry is 1 (β is rescaled
            // accordingly: v' = v/v₀ ⇒ β' = β·v₀²).
            qr[(k, k)] = alpha;
            let v0 = v[0];
            for (i, r) in (k..m).enumerate().skip(1) {
                qr[(r, k)] = v[i] / v0;
            }
            betas[k] = beta * v0 * v0;
        }
        Ok(Qr {
            qr,
            betas,
            rows: m,
            cols: n,
        })
    }

    /// Applies `Qᵀ` to a vector in place.
    #[allow(clippy::needless_range_loop)]
    fn apply_qt(&self, y: &mut [f64]) {
        let (m, n) = (self.rows, self.cols);
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            // v = [1, qr[(k+1..m, k)]]
            let mut dot = y[k];
            for r in (k + 1)..m {
                dot += self.qr[(r, k)] * y[r];
            }
            let s = beta * dot;
            y[k] -= s;
            for r in (k + 1)..m {
                y[r] -= s * self.qr[(r, k)];
            }
        }
    }

    /// Numerical rank estimated from diagonal entries of `R`.
    pub fn rank(&self) -> usize {
        let scale = (0..self.cols)
            .map(|i| self.qr[(i, i)].abs())
            .fold(0.0_f64, f64::max)
            .max(1.0);
        (0..self.cols)
            .filter(|&i| self.qr[(i, i)].abs() > RANK_TOL * scale)
            .count()
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != m`.
    /// * [`LinalgError::Singular`] if `A` is rank deficient.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "QR solve rhs length",
            });
        }
        if self.rank() < self.cols {
            return Err(LinalgError::Singular);
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on R x = y[..n].
        let n = self.cols;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            x[i] = acc / self.qr[(i, i)];
        }
        Ok(x)
    }

    /// Squared residual norm `‖A·x − b‖₂²` of the least-squares solution,
    /// computed from the projected tail of `Qᵀb` without forming `x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != m`.
    pub fn residual_sq(&self, b: &[f64]) -> Result<f64> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "QR residual rhs length",
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        Ok(y[self.cols..].iter().map(|v| v * v).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::approx_eq;

    #[test]
    fn exact_solve_square() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = vec![0.5, -1.5];
        let b = a.matvec(&x_true);
        let x = Qr::new(&a).unwrap().solve_lstsq(&b).unwrap();
        assert!(approx_eq(&x, &x_true, 1e-10));
    }

    #[test]
    fn overdetermined_regression_matches_normal_equations() {
        // y = 2x + 1 with noise-free samples: exact recovery.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let b: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let x = Qr::new(&a).unwrap().solve_lstsq(&b).unwrap();
        assert!(approx_eq(&x, &[2.0, 1.0], 1e-10));
        let res = Qr::new(&a).unwrap().residual_sq(&b).unwrap();
        assert!(res < 1e-18);
    }

    #[test]
    fn residual_of_inconsistent_system() {
        // x = 0 and x = 2 simultaneously: LS solution x = 1, residual 2.
        let a = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_lstsq(&[0.0, 2.0]).unwrap();
        assert!(approx_eq(&x, &[1.0], 1e-12));
        assert!((qr.residual_sq(&[0.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::new(&a).unwrap();
        assert_eq!(qr.rank(), 1);
        assert_eq!(
            qr.solve_lstsq(&[1.0, 2.0, 3.0]).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Qr::new(&a).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Qr::new(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let qr = Qr::new(&a).unwrap();
        assert!(qr.solve_lstsq(&[1.0]).is_err());
        assert!(qr.residual_sq(&[1.0]).is_err());
    }

    #[test]
    fn tall_random_system_residual_orthogonality() {
        // For LS solution, residual must be orthogonal to the column space.
        let a = Matrix::from_rows(&[&[1.0, 0.3], &[0.7, 2.0], &[-1.2, 0.4], &[0.1, -0.9]]);
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let x = Qr::new(&a).unwrap().solve_lstsq(&b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
        let atr = a.transpose().matvec(&r);
        assert!(atr.iter().all(|v| v.abs() < 1e-10));
    }
}
