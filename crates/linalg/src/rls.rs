//! Recursive least squares via Givens rank-1 R-factor updating.
//!
//! System identification (paper §4.2) is a least-squares regression, and
//! §6.4's online re-identification wants it *continuously*: one new
//! `(F, p)` sample per control period, a refreshed model right after.
//! Refitting from scratch costs `O(m·n²)` per sample (QR over all `m`
//! rows); this module maintains the square-root information form instead
//! — the upper-triangular factor `R` of the (exponentially weighted)
//! normal equations together with the rotated right-hand side `d` — and
//! folds each new row in with one sweep of Givens rotations in `O(n²)`.
//!
//! The invariant after any number of updates is
//!
//! ```text
//!   RᵀR = Σₖ λ^{m-k} · xₖ xₖᵀ        Rᵀd = Σₖ λ^{m-k} · xₖ yₖ
//! ```
//!
//! so `R·β = d` (back substitution) yields exactly the solution of the
//! exponentially weighted least-squares problem. With forgetting
//! `λ = 1` the factor is, up to row signs, the same `R` a batch
//! Householder QR of the full design matrix produces, and the solution
//! matches [`crate::lstsq::solve`] to machine precision.
//!
//! The scalar rotated out of each incoming row is the a-priori residual
//! in the rotated frame; the running sum of its squares equals the
//! (weighted) residual sum of squares of the current fit — R²/RMSE come
//! for free, without a second pass over the data.

use crate::{svd, LinalgError, Matrix, Result};

/// Relative threshold on diagonal entries of `R` for rank detection,
/// matching [`crate::qr::Qr::rank`].
const RANK_TOL: f64 = 1e-12;

/// Square-root-information recursive least-squares state for `dim`
/// coefficients, with exponential forgetting.
#[derive(Debug, Clone)]
pub struct RlsFactor {
    /// Upper-triangular `dim × dim` factor of the information matrix.
    r: Matrix,
    /// Rotated right-hand side (`R·β = d` solves the problem).
    d: Vec<f64>,
    /// Forgetting factor `λ ∈ (0, 1]`.
    forgetting: f64,
    /// Number of samples folded in since construction.
    n_updates: usize,
    /// Exponentially weighted residual sum of squares.
    weighted_rss: f64,
    /// Exponentially weighted sample count `Σ λ^k`.
    weight_sum: f64,
    /// Exponentially weighted `Σ y` (for the total sum of squares).
    y_sum: f64,
    /// Exponentially weighted `Σ y²`.
    y2_sum: f64,
    /// Row scratch so updates never allocate.
    scratch: Vec<f64>,
}

impl RlsFactor {
    /// Creates an empty factor for `dim` coefficients with forgetting
    /// factor `forgetting`.
    ///
    /// # Errors
    /// * [`LinalgError::Empty`] when `dim == 0`.
    /// * [`LinalgError::DimensionMismatch`] when `forgetting` is outside
    ///   `(0, 1]` (reusing the nearest existing error kind keeps the
    ///   error enum closed).
    pub fn new(dim: usize, forgetting: f64) -> Result<Self> {
        if dim == 0 {
            return Err(LinalgError::Empty);
        }
        if !(forgetting > 0.0 && forgetting <= 1.0 && forgetting.is_finite()) {
            return Err(LinalgError::DimensionMismatch {
                context: "RLS forgetting factor must be in (0, 1]",
            });
        }
        Ok(RlsFactor {
            r: Matrix::zeros(dim, dim),
            d: vec![0.0; dim],
            forgetting,
            n_updates: 0,
            weighted_rss: 0.0,
            weight_sum: 0.0,
            y_sum: 0.0,
            y2_sum: 0.0,
            scratch: vec![0.0; dim],
        })
    }

    /// Number of coefficients.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Number of samples folded in since construction.
    pub fn len(&self) -> usize {
        self.n_updates
    }

    /// True before the first update.
    pub fn is_empty(&self) -> bool {
        self.n_updates == 0
    }

    /// Applies one step of exponential forgetting *without* folding in an
    /// observation: scales the information by `λ` exactly as
    /// [`RlsFactor::update`] would before its Givens sweep. Forgetting
    /// models plant variation over *time*, so callers that skip an
    /// observation interval (meter dropout, transient gating) should
    /// still decay — otherwise stale data keeps full weight across the
    /// gap. No-op when `λ = 1`.
    pub fn decay(&mut self) {
        if self.forgetting >= 1.0 {
            return;
        }
        let n = self.dim();
        let sqrt_lambda = self.forgetting.sqrt();
        for i in 0..n {
            for j in i..n {
                self.r[(i, j)] *= sqrt_lambda;
            }
            self.d[i] *= sqrt_lambda;
        }
        self.weighted_rss *= self.forgetting;
        self.weight_sum *= self.forgetting;
        self.y_sum *= self.forgetting;
        self.y2_sum *= self.forgetting;
    }

    /// Folds one observation `(row, y)` into the factor: scales the
    /// existing information by `λ`, then annihilates the new row with one
    /// Givens sweep. `O(dim²)`, allocation-free.
    ///
    /// # Panics
    /// Panics if `row.len() != dim` (programming error, like the other
    /// fixed-arity hot-path entry points in this workspace).
    pub fn update(&mut self, row: &[f64], y: f64) {
        let n = self.dim();
        assert_eq!(row.len(), n, "RLS update row length");
        self.decay();
        let mut x = std::mem::take(&mut self.scratch);
        x.copy_from_slice(row);
        let mut rhs = y;
        for k in 0..n {
            if x[k] == 0.0 {
                continue;
            }
            let a = self.r[(k, k)];
            let b = x[k];
            let rad = a.hypot(b);
            let c = a / rad;
            let s = b / rad;
            self.r[(k, k)] = rad;
            for (j, xj) in x.iter_mut().enumerate().skip(k + 1) {
                let rkj = self.r[(k, j)];
                let old = *xj;
                self.r[(k, j)] = c * rkj + s * old;
                *xj = c * old - s * rkj;
            }
            let dk = self.d[k];
            self.d[k] = c * dk + s * rhs;
            rhs = c * rhs - s * dk;
        }
        // The fully rotated-out scalar is the residual of this sample in
        // the orthogonal complement of the design's column space; its
        // square is the sample's exact contribution to the RSS.
        self.weighted_rss += rhs * rhs;
        self.weight_sum += 1.0;
        self.y_sum += y;
        self.y2_sum += y * y;
        self.n_updates += 1;
        self.scratch = x;
    }

    /// Numerical rank of `R`, estimated like [`crate::qr::Qr::rank`].
    pub fn rank(&self) -> usize {
        let n = self.dim();
        let scale = (0..n)
            .map(|i| self.r[(i, i)].abs())
            .fold(0.0_f64, f64::max)
            .max(1.0);
        (0..n)
            .filter(|&i| self.r[(i, i)].abs() > RANK_TOL * scale)
            .count()
    }

    /// Solves `R·β = d` by back substitution — the exponentially weighted
    /// least-squares solution over all folded-in samples. `O(dim²)`.
    ///
    /// # Errors
    /// [`LinalgError::Singular`] when `R` is numerically rank deficient.
    pub fn solve(&self) -> Result<Vec<f64>> {
        let n = self.dim();
        if self.rank() < n {
            return Err(LinalgError::Singular);
        }
        let mut beta = self.d.clone();
        for i in (0..n).rev() {
            let mut acc = beta[i];
            for (j, bj) in beta.iter().enumerate().skip(i + 1) {
                acc -= self.r[(i, j)] * bj;
            }
            beta[i] = acc / self.r[(i, i)];
        }
        Ok(beta)
    }

    /// 2-norm condition number of `R` — identical to the condition number
    /// of the (weighted) design matrix itself, at `O(dim³)` instead of the
    /// `O(m·dim²)` SVD of the full design. Infinite for a rank-deficient
    /// factor.
    pub fn condition(&self) -> f64 {
        svd::condition_number(&self.r).unwrap_or(f64::INFINITY)
    }

    /// Exponentially weighted residual sum of squares of the current
    /// solution (exact RSS when `λ = 1`).
    pub fn weighted_rss(&self) -> f64 {
        self.weighted_rss
    }

    /// Weighted coefficient of determination
    /// `R² = 1 − RSS / Σw(y − ȳ_w)²` (exact batch R² when `λ = 1`).
    pub fn r_squared(&self) -> f64 {
        if self.weight_sum == 0.0 {
            return 0.0;
        }
        let tss = self.y2_sum - self.y_sum * self.y_sum / self.weight_sum;
        if tss <= 0.0 {
            return if self.weighted_rss <= f64::EPSILON {
                1.0
            } else {
                0.0
            };
        }
        1.0 - self.weighted_rss / tss
    }

    /// Weighted root-mean-square residual (exact batch RMSE when `λ = 1`).
    pub fn rmse(&self) -> f64 {
        if self.weight_sum == 0.0 {
            return 0.0;
        }
        (self.weighted_rss / self.weight_sum).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq;
    use crate::vector::approx_eq;

    fn design(rows: &[Vec<f64>]) -> Matrix {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    /// Deterministic pseudo-random well-conditioned sample stream
    /// (simple LCG so columns are uncorrelated).
    fn stream(n: usize, m: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let coeffs: Vec<f64> = (0..n).map(|j| 0.5 + 0.3 * j as f64).collect();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::with_capacity(m);
        let mut ys = Vec::with_capacity(m);
        for _ in 0..m {
            let row: Vec<f64> = (0..n).map(|j| 6.0 * unit() - 3.0 + j as f64).collect();
            let y: f64 =
                row.iter().zip(&coeffs).map(|(x, c)| x * c).sum::<f64>() + 0.1 * (unit() - 0.5);
            rows.push(row);
            ys.push(y);
        }
        (rows, ys)
    }

    #[test]
    fn matches_batch_qr_solution() {
        for (n, m) in [(2, 6), (3, 10), (5, 40)] {
            let (rows, ys) = stream(n, m);
            let mut rls = RlsFactor::new(n, 1.0).unwrap();
            for (row, &y) in rows.iter().zip(ys.iter()) {
                rls.update(row, y);
            }
            let batch = lstsq::solve(&design(&rows), &ys).unwrap();
            let incr = rls.solve().unwrap();
            assert!(
                approx_eq(&incr, &batch.coefficients, 1e-10),
                "n={n} m={m}: {incr:?} vs {:?}",
                batch.coefficients
            );
            assert!((rls.weighted_rss() - batch.rss).abs() < 1e-9);
            assert!((rls.r_squared() - batch.r_squared).abs() < 1e-9);
            assert!((rls.rmse() - batch.rmse()).abs() < 1e-9);
        }
    }

    #[test]
    fn condition_matches_design_condition() {
        let (rows, ys) = stream(3, 12);
        let mut rls = RlsFactor::new(3, 1.0).unwrap();
        for (row, &y) in rows.iter().zip(ys.iter()) {
            rls.update(row, y);
        }
        let direct = svd::condition_number(&design(&rows)).unwrap();
        assert!(
            (rls.condition() - direct).abs() / direct < 1e-9,
            "{} vs {direct}",
            rls.condition()
        );
    }

    #[test]
    fn forgetting_tracks_coefficient_change() {
        let mut rls = RlsFactor::new(2, 0.9).unwrap();
        // First regime: y = 1·x + 0.
        for i in 0..60 {
            let x = (i as f64 * 0.7).sin() * 2.0;
            rls.update(&[x, 1.0], x);
        }
        // Second regime: y = 3·x + 1.
        for i in 0..60 {
            let x = (i as f64 * 0.7 + 0.3).sin() * 2.0;
            rls.update(&[x, 1.0], 3.0 * x + 1.0);
        }
        // Old-regime data retains total weight ≈ λ⁶⁰·Σλᵏ ≈ 0.018 of the
        // ≈ 10 units of new-regime weight, so a few-per-mille bias remains.
        let beta = rls.solve().unwrap();
        assert!((beta[0] - 3.0).abs() < 0.05, "slope {}", beta[0]);
        assert!((beta[1] - 1.0).abs() < 0.05, "intercept {}", beta[1]);
    }

    #[test]
    fn singular_factor_rejected() {
        // Only one direction excited: x[1] = 2·x[0].
        let mut rls = RlsFactor::new(2, 1.0).unwrap();
        for i in 0..8 {
            let x0 = i as f64;
            rls.update(&[x0, 2.0 * x0], 3.0 * x0);
        }
        assert_eq!(rls.solve().unwrap_err(), LinalgError::Singular);
        assert!(rls.condition() > 1e12);
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(RlsFactor::new(0, 1.0).unwrap_err(), LinalgError::Empty);
        assert!(RlsFactor::new(2, 0.0).is_err());
        assert!(RlsFactor::new(2, 1.5).is_err());
        assert!(RlsFactor::new(2, f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "RLS update row length")]
    fn update_checks_arity() {
        let mut rls = RlsFactor::new(3, 1.0).unwrap();
        rls.update(&[1.0], 1.0);
    }
}
