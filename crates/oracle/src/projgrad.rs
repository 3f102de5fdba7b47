//! Projected gradient descent for box-constrained convex QPs.
//!
//! An intentionally simple solver, used only as an **independent
//! cross-check** of the active-set methods in tests: two very different
//! algorithms agreeing on the optimum is strong evidence both are right.
//! Nothing in production calls it; the MPC has no fallback solve.
//!
//! Uses a fixed step `1/L` with `L` an upper bound on the Hessian spectral
//! norm obtained by power iteration, which guarantees monotone convergence
//! for convex problems.

use capgpu_linalg::Matrix;

use crate::{vector, OracleError, Result};

/// Box bounds `lo ≤ x ≤ hi` (entries may be ±∞).
#[derive(Debug, Clone)]
pub struct Box {
    /// Lower bounds.
    pub lo: Vec<f64>,
    /// Upper bounds.
    pub hi: Vec<f64>,
}

impl Box {
    /// Creates a box; validates `lo[i] <= hi[i]`.
    ///
    /// # Errors
    /// [`OracleError::BadProblem`] when the box is empty or lengths differ.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(OracleError::BadProblem("box bound lengths differ"));
        }
        if lo.iter().zip(hi.iter()).any(|(l, h)| l > h) {
            return Err(OracleError::BadProblem("box lower bound exceeds upper"));
        }
        Ok(Box { lo, hi })
    }

    /// Projects a point onto the box.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        vector::clamp_box(x, &self.lo, &self.hi)
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }
}

/// Estimates the spectral norm of a symmetric matrix by power iteration.
///
/// Returns an upper-bound-ish estimate inflated by 5% so the step size
/// `1/L` remains safe even if the iteration has not fully converged.
pub fn spectral_norm_estimate(h: &Matrix, iterations: usize) -> f64 {
    let n = h.rows();
    if n == 0 {
        return 0.0;
    }
    // Deterministic start vector with all components nonzero.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
    let norm = vector::norm2(&v);
    v = vector::scale(&v, 1.0 / norm);
    let mut lambda = 0.0;
    for _ in 0..iterations {
        let w = h.matvec(&v);
        let wn = vector::norm2(&w);
        if wn == 0.0 {
            return h.frobenius_norm().max(1e-12) * 1.05;
        }
        lambda = wn;
        v = vector::scale(&w, 1.0 / wn);
    }
    lambda * 1.05
}

/// Solves `min ½xᵀHx + gᵀx` over a box by projected gradient descent.
///
/// # Errors
/// * [`OracleError::BadProblem`] on dimension mismatch.
/// * [`OracleError::IterationLimit`] if the tolerance is not reached.
pub fn solve_box_qp(
    h: &Matrix,
    g: &[f64],
    bounds: &Box,
    x0: &[f64],
    tol: f64,
    max_iterations: usize,
) -> Result<Vec<f64>> {
    let n = h.rows();
    if !h.is_square() || g.len() != n || bounds.dim() != n || x0.len() != n {
        return Err(OracleError::BadProblem("box QP dimension mismatch"));
    }
    let l = spectral_norm_estimate(h, 50).max(1e-12);
    let step = 1.0 / l;
    let mut x = bounds.project(x0);
    for _ in 0..max_iterations {
        let grad = vector::add(&h.matvec(&x), g);
        let x_new = bounds.project(&vector::axpy(&x, -step, &grad));
        let delta = vector::norm_inf(&vector::sub(&x_new, &x));
        x = x_new;
        if delta <= tol {
            return Ok(x);
        }
    }
    Err(OracleError::IterationLimit {
        iterations: max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_quadratic() {
        // min (x-3)² + (y+1)²
        let h = Matrix::from_diag(&[2.0, 2.0]);
        let g = vec![-6.0, 2.0];
        let bounds = Box::new(vec![-100.0, -100.0], vec![100.0, 100.0]).unwrap();
        let x = solve_box_qp(&h, &g, &bounds, &[0.0, 0.0], 1e-10, 10_000).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn clipped_at_bound() {
        let h = Matrix::from_diag(&[2.0]);
        let g = vec![-6.0]; // optimum at 3
        let bounds = Box::new(vec![0.0], vec![1.0]).unwrap();
        let x = solve_box_qp(&h, &g, &bounds, &[0.5], 1e-10, 10_000).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn coupled_hessian() {
        // H = [[2,1],[1,2]], g = [-3,-3] → unconstrained optimum (1,1).
        let h = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let g = vec![-3.0, -3.0];
        let bounds = Box::new(vec![-10.0, -10.0], vec![10.0, 10.0]).unwrap();
        let x = solve_box_qp(&h, &g, &bounds, &[0.0, 0.0], 1e-11, 50_000).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let h = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let est = spectral_norm_estimate(&h, 100);
        assert!((5.0..=5.5).contains(&est), "estimate {est}");
    }

    #[test]
    fn empty_box_rejected() {
        assert!(Box::new(vec![1.0], vec![0.0]).is_err());
        assert!(Box::new(vec![0.0, 0.0], vec![1.0]).is_err());
    }

    #[test]
    fn projection() {
        let b = Box::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(b.project(&[-1.0, 2.0]), vec![0.0, 1.0]);
        assert_eq!(b.project(&[0.5, 0.5]), vec![0.5, 0.5]);
    }

    #[test]
    fn infinite_bounds_ok() {
        let h = Matrix::from_diag(&[2.0]);
        let bounds = Box::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap();
        let x = solve_box_qp(&h, &[-4.0], &bounds, &[0.0], 1e-10, 10_000).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let h = Matrix::identity(2);
        let bounds = Box::new(vec![0.0], vec![1.0]).unwrap();
        assert!(solve_box_qp(&h, &[0.0, 0.0], &bounds, &[0.0, 0.0], 1e-8, 10).is_err());
    }
}
