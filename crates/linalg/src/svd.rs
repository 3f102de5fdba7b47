//! Singular values via one-sided Jacobi rotations.
//!
//! System identification solves a least-squares problem whose reliability
//! is governed by the *conditioning* of the excitation design matrix: a
//! sweep that barely moves one device produces a nearly rank-deficient
//! design and garbage gains. The condition number `σ_max/σ_min` is the
//! right diagnostic, and it needs singular values.
//!
//! The one-sided Jacobi method orthogonalizes the columns of `A` by plane
//! rotations; the singular values are the resulting column norms. It is
//! slower than bidiagonalization-based SVD but simple, remarkably
//! accurate for small matrices (every σ to nearly full precision), and
//! entirely adequate for CapGPU's design matrices (≤ a few dozen rows,
//! ≤ 10 columns).

use crate::{LinalgError, Matrix, Result};

/// Convergence threshold on the normalized off-diagonal inner product.
const JACOBI_TOL: f64 = 1e-14;
/// Sweep limit (each sweep rotates every column pair once).
const MAX_SWEEPS: usize = 60;

/// Computes the singular values of an `m × n` matrix with `m ≥ n`,
/// in descending order.
///
/// # Errors
/// * [`LinalgError::Empty`] for an empty matrix.
/// * [`LinalgError::DimensionMismatch`] when `m < n` (transpose first —
///   singular values are transpose-invariant).
/// * [`LinalgError::NoConvergence`] if Jacobi sweeps stall (does not occur
///   for finite inputs at these sizes).
pub fn singular_values(a: &Matrix) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    if m < n {
        return Err(LinalgError::DimensionMismatch {
            context: "singular_values requires rows >= cols (transpose first)",
        });
    }
    // Work on a column-major copy: u[j] is column j.
    let mut u: Vec<Vec<f64>> = (0..n).map(|j| a.col_vec(j)).collect();

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for (up, uq) in u[p].iter().zip(&u[q]) {
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                let denom = (alpha * beta).sqrt();
                if denom > 0.0 {
                    off = off.max(gamma.abs() / denom);
                }
                if gamma.abs() <= JACOBI_TOL * denom || denom == 0.0 {
                    continue;
                }
                // Jacobi rotation zeroing the (p, q) inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (left, right) = u.split_at_mut(q);
                for (up, uq) in left[p].iter_mut().zip(right[0].iter_mut()) {
                    let a = *up;
                    let b = *uq;
                    *up = c * a - s * b;
                    *uq = s * a + c * b;
                }
            }
        }
        if off <= JACOBI_TOL {
            let mut sigmas: Vec<f64> = u
                .iter()
                .map(|col| col.iter().map(|v| v * v).sum::<f64>().sqrt())
                .collect();
            sigmas.sort_by(|a, b| b.partial_cmp(a).expect("finite singular values"));
            return Ok(sigmas);
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_SWEEPS,
    })
}

/// 2-norm condition number `σ_max / σ_min`; `f64::INFINITY` when the
/// smallest singular value is (numerically) zero.
///
/// # Errors
/// Propagates [`singular_values`] errors.
pub fn condition_number(a: &Matrix) -> Result<f64> {
    let sigmas = singular_values(a)?;
    let s_max = sigmas[0];
    let s_min = *sigmas.last().expect("non-empty");
    if s_min <= f64::EPSILON * s_max * (a.rows().max(a.cols()) as f64) {
        Ok(f64::INFINITY)
    } else {
        Ok(s_max / s_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 3.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_matrix_has_unit_sigmas() {
        let th = 0.8_f64;
        let a = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]);
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
        assert!((condition_number(&a).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // A = [[3, 0], [4, 5]]: singular values √45 and √5.
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 5.0]]);
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 45.0_f64.sqrt()).abs() < 1e-10, "{s:?}");
        assert!((s[1] - 5.0_f64.sqrt()).abs() < 1e-10, "{s:?}");
    }

    #[test]
    fn tall_matrix_frobenius_identity() {
        // Σ σᵢ² = ‖A‖_F².
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[-1.0, 0.5]]);
        let s = singular_values(&a).unwrap();
        let sum_sq: f64 = s.iter().map(|v| v * v).sum();
        let fro = a.frobenius_norm();
        assert!((sum_sq - fro * fro).abs() < 1e-9);
        // Largest singular value bounds the matvec gain.
        let y = a.matvec(&[1.0, 0.0]);
        let gain = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(gain <= s[0] + 1e-9);
    }

    #[test]
    fn rank_deficient_matrix_is_infinitely_conditioned() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let s = singular_values(&a).unwrap();
        assert!(s[1] < 1e-12, "{s:?}");
        assert!(condition_number(&a).unwrap().is_infinite());
    }

    #[test]
    fn shape_validation() {
        assert!(singular_values(&Matrix::zeros(0, 0)).is_err());
        assert!(singular_values(&Matrix::zeros(2, 3)).is_err());
        // Wide matrices work after transposing.
        let wide = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        let s = singular_values(&wide.transpose()).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn well_conditioned_excitation_vs_stuck_actuator() {
        // The diagnostic this module exists for: a proper one-knob-at-a-
        // time excitation design is well conditioned; a design where one
        // device never moves is (numerically) singular.
        let good_rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![1000.0 + 200.0 * i as f64, 495.0, 1.0])
            .chain((0..8).map(|i| vec![1400.0, 435.0 + 130.0 * i as f64, 1.0]))
            .collect();
        let refs: Vec<&[f64]> = good_rows.iter().map(|r| r.as_slice()).collect();
        let good = Matrix::from_rows(&refs);
        let cond_good = condition_number(&good).unwrap();
        assert!(cond_good.is_finite());

        let stuck_rows: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![1000.0 + 100.0 * i as f64, 495.0, 1.0])
            .collect();
        let refs: Vec<&[f64]> = stuck_rows.iter().map(|r| r.as_slice()).collect();
        let stuck = Matrix::from_rows(&refs);
        let cond_stuck = condition_number(&stuck).unwrap();
        assert!(
            cond_stuck > 1e6 * cond_good || cond_stuck.is_infinite(),
            "stuck {cond_stuck} vs good {cond_good}"
        );
    }
}
