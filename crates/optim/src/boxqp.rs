//! Box-constrained specialization of the active-set QP solver.
//!
//! The block of the condensed CapGPU MPC problem that is applied is a
//! *pure box* QP in cumulative-move coordinates (see
//! `capgpu-control::mpc`): every constraint is a per-variable bound
//! `lo_j ≤ x_j ≤ hi_j`, separable across devices. That structure admits a much cheaper
//! active-set iteration than the generic `capgpu_oracle::qp::ActiveSetQp`
//! it is tested against:
//!
//! * the working set is just a per-variable state (free / at lower bound /
//!   at upper bound), so "constraint rows" never need to be materialized;
//! * each active-set change touches one variable, so instead of
//!   re-factorizing a dense `(n+k)×(n+k)` KKT system per iteration we
//!   maintain a Cholesky factor of the Hessian restricted to the free set
//!   (`H_FF`) and update it incrementally — an `O(f²)` forward-solve append
//!   when a variable leaves a bound, and an `O(f²)` Givens-rotation row
//!   deletion when one hits a bound;
//! * the bound handling (clamping, ratio tests, multiplier signs) runs as
//!   one vectorized pass over all devices' boxes per iteration.
//!
//! Determinism contract: the solver finishes with a *polish* step that
//! re-factorizes `H_FF` from scratch over the sorted free set and recomputes
//! the free coordinates in one solve. The returned solution is therefore a
//! pure function of `(problem, final active set)` — independent of the
//! iteration path that discovered the active set. Warm starts, cold starts,
//! and cached explicit-MPC lookups that share a final active set produce
//! bit-identical solutions.

use crate::{OptimError, Result};
use capgpu_linalg::{Cholesky, LinalgError, Matrix};

/// Bound state of one variable in the active-set iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarState {
    /// Strictly inside its box (a free optimization variable).
    Free,
    /// Pinned at its lower bound.
    AtLo,
    /// Pinned at its upper bound.
    AtHi,
}

/// A strictly convex QP with box constraints only:
/// minimize `½·xᵀHx + gᵀx` subject to `lo ≤ x ≤ hi` (element-wise).
#[derive(Debug, Clone)]
pub struct BoxQpProblem {
    /// Symmetric positive-definite Hessian `H` (n×n).
    pub hessian: Matrix,
    /// Linear term `g` (length n).
    pub gradient: Vec<f64>,
    /// Lower bounds (length n; `f64::NEG_INFINITY` allowed).
    pub lo: Vec<f64>,
    /// Upper bounds (length n; `f64::INFINITY` allowed).
    pub hi: Vec<f64>,
}

impl BoxQpProblem {
    /// Validates dimensions and bound ordering.
    ///
    /// # Errors
    /// [`OptimError::BadProblem`] on a non-square Hessian, mismatched
    /// lengths, a non-finite Hessian/gradient entry, a NaN bound, or any
    /// `lo_j > hi_j`.
    pub fn new(hessian: Matrix, gradient: Vec<f64>, lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if !hessian.is_square() {
            return Err(OptimError::BadProblem("Hessian must be square"));
        }
        let n = hessian.rows();
        if n == 0 {
            return Err(OptimError::BadProblem("empty problem"));
        }
        if gradient.len() != n || lo.len() != n || hi.len() != n {
            return Err(OptimError::BadProblem(
                "gradient/bound lengths must match Hessian dimension",
            ));
        }
        if gradient.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::BadProblem("gradient must be finite"));
        }
        for i in 0..n {
            for j in 0..n {
                if !hessian[(i, j)].is_finite() {
                    return Err(OptimError::BadProblem("Hessian must be finite"));
                }
            }
        }
        for j in 0..n {
            if lo[j].is_nan() || hi[j].is_nan() {
                return Err(OptimError::BadProblem("bounds must not be NaN"));
            }
            if lo[j] > hi[j] {
                return Err(OptimError::BadProblem("lower bound exceeds upper bound"));
            }
        }
        Ok(Self {
            hessian,
            gradient,
            lo,
            hi,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.gradient.len()
    }

    /// Objective `½·xᵀHx + gᵀx` at `x`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let hx = self.hessian.matvec(x);
        0.5 * dot(x, &hx) + dot(&self.gradient, x)
    }

    fn clamp(&self, v: f64, j: usize) -> f64 {
        v.max(self.lo[j]).min(self.hi[j])
    }
}

/// Solution of a box QP.
#[derive(Debug, Clone)]
pub struct BoxQpSolution {
    /// Optimal point (within the box by construction).
    pub x: Vec<f64>,
    /// Final bound state of each variable.
    pub states: Vec<VarState>,
    /// KKT multiplier per variable: `ν_j ≥ 0` for an active lower bound,
    /// `μ_j ≥ 0` for an active upper bound, `0` for free variables.
    pub multipliers: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Active-set iterations performed, counting the one whose optimality
    /// check ended the solve: ≥ 1 for every solution this solver returns,
    /// so a caller can reserve 0 for "no iteration ran" (an answer taken
    /// from a cached [`BoxFactor`] instead).
    pub iterations: usize,
    /// The sorted-free-set factorization the final polish solved with:
    /// exactly `BoxFactor::from_states(hessian, &states)`, handed out so a
    /// region table can cache this active set's law without factorizing
    /// `H_FF` a second time.
    pub factor: BoxFactor,
}

impl BoxQpSolution {
    /// Number of variables pinned at a bound.
    pub fn active_count(&self) -> usize {
        self.states.iter().filter(|s| **s != VarState::Free).count()
    }
}

/// Gradient tolerance for stationarity / multiplier sign checks,
/// scaled by the problem magnitude.
const OPT_TOL: f64 = 1e-10;
/// Direction components below this (scaled) are treated as zero in the
/// ratio test.
const DIR_TOL: f64 = 1e-12;

/// Incrementally maintained Cholesky factor of `H_FF`, the Hessian
/// restricted to the free variables (kept in insertion order).
///
/// Storage is a dense `n×n` scratch matrix whose top-left `f×f` block is the
/// current lower-triangular factor; appends and deletions never reallocate.
#[derive(Debug, Clone)]
struct FreeFactor {
    /// Free variables in insertion order (parallel to factor rows).
    vars: Vec<usize>,
    /// Factor storage (top-left `vars.len()` square is valid).
    l: Matrix,
}

impl FreeFactor {
    fn new(dim: usize) -> Self {
        Self {
            vars: Vec::with_capacity(dim),
            l: Matrix::zeros(dim.max(1), dim.max(1)),
        }
    }

    fn len(&self) -> usize {
        self.vars.len()
    }

    /// Rebuilds the factor from scratch over the current `vars` list.
    fn rebuild(&mut self, h: &Matrix) -> Result<()> {
        let f = self.vars.len();
        for i in 0..f {
            for j in 0..=i {
                let mut sum = h[(self.vars[i], self.vars[j])];
                for k in 0..j {
                    sum -= self.l[(i, k)] * self.l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(OptimError::Numerical(LinalgError::NotPositiveDefinite));
                    }
                    self.l[(i, i)] = sum.sqrt();
                } else {
                    self.l[(i, j)] = sum / self.l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// Resets to the free set implied by `states` and factorizes.
    fn reset(&mut self, h: &Matrix, states: &[VarState]) -> Result<()> {
        self.vars.clear();
        self.vars
            .extend((0..states.len()).filter(|&j| states[j] == VarState::Free));
        self.rebuild(h)
    }

    /// Appends variable `v` to the free set: one forward solve plus a
    /// square root (`O(f²)`), falling back to a full rebuild if rounding
    /// leaves a non-positive pivot.
    fn append(&mut self, h: &Matrix, v: usize) -> Result<()> {
        let f = self.vars.len();
        let mut norm2 = 0.0;
        for i in 0..f {
            let mut acc = h[(self.vars[i], v)];
            for k in 0..i {
                acc -= self.l[(i, k)] * self.l[(f, k)];
            }
            let w = acc / self.l[(i, i)];
            self.l[(f, i)] = w;
            norm2 += w * w;
        }
        let d2 = h[(v, v)] - norm2;
        self.vars.push(v);
        if d2 <= 1e-10 * h[(v, v)].abs().max(1.0) || !d2.is_finite() {
            return self.rebuild(h);
        }
        self.l[(f, f)] = d2.sqrt();
        Ok(())
    }

    /// Removes the free variable at position `pos`: deletes its factor row
    /// and restores triangularity with Givens rotations (`O((f−pos)²)`).
    fn remove(&mut self, h: &Matrix, pos: usize) -> Result<()> {
        let f = self.vars.len();
        self.vars.remove(pos);
        // Shift rows below the deleted one up; they keep one entry past the
        // diagonal (a lower-Hessenberg tail).
        for r in (pos + 1)..f {
            for c in 0..=r {
                self.l[(r - 1, c)] = self.l[(r, c)];
            }
        }
        let newf = f - 1;
        // Rotate columns (c, c+1) to zero each superdiagonal entry, keeping
        // the new diagonal positive. Rows above c are already triangular
        // with zeros in both columns, so only rows ≥ c are touched.
        for c in pos..newf {
            let a = self.l[(c, c)];
            let b = self.l[(c, c + 1)];
            let r = a.hypot(b);
            if r <= 0.0 || !r.is_finite() {
                return self.rebuild(h);
            }
            let (cos, sin) = (a / r, b / r);
            for i in c..newf {
                let x = self.l[(i, c)];
                let y = self.l[(i, c + 1)];
                self.l[(i, c)] = cos * x + sin * y;
                self.l[(i, c + 1)] = -sin * x + cos * y;
            }
        }
        // Clear the now-unused trailing column so later appends start clean.
        for i in 0..f {
            self.l[(i, newf)] = 0.0;
        }
        Ok(())
    }

    /// Solves `H_FF·y = b` (b indexed like `vars`) in place.
    // Triangular index loops are the clearest idiom here (as in
    // `capgpu_linalg::cholesky`).
    #[allow(clippy::needless_range_loop)]
    fn solve_in_place(&self, b: &mut [f64]) {
        let f = self.vars.len();
        for i in 0..f {
            let mut acc = b[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * b[k];
            }
            b[i] = acc / self.l[(i, i)];
        }
        for i in (0..f).rev() {
            let mut acc = b[i];
            for k in (i + 1)..f {
                acc -= self.l[(k, i)] * b[k];
            }
            b[i] = acc / self.l[(i, i)];
        }
    }
}

/// Frozen factorization of `H_FF` over a *sorted* free set — the object an
/// explicit-MPC region table caches per active set.
///
/// [`BoxFactor::polish`] reproduces, bit for bit, the final solve the
/// iterative [`BoxQp`] performs for the same active set: both sort the free
/// variables ascending, factorize `H_FF` with the same [`Cholesky`] routine,
/// and evaluate `x_F = H_FF⁻¹·(−g_F − H_FB·x_B)` with identical arithmetic.
#[derive(Debug, Clone)]
pub struct BoxFactor {
    free: Vec<usize>,
    chol: Option<Cholesky>,
}

impl BoxFactor {
    /// Factorizes the Hessian over the free set implied by `states`
    /// (ascending variable order).
    ///
    /// # Errors
    /// [`OptimError::Numerical`] if `H_FF` is not positive definite.
    pub fn from_states(h: &Matrix, states: &[VarState]) -> Result<Self> {
        let free: Vec<usize> = (0..states.len())
            .filter(|&j| states[j] == VarState::Free)
            .collect();
        let chol = if free.is_empty() {
            None
        } else {
            let f = free.len();
            let mut hff = Matrix::zeros(f, f);
            for (ri, &vi) in free.iter().enumerate() {
                for (ci, &vj) in free.iter().enumerate() {
                    hff[(ri, ci)] = h[(vi, vj)];
                }
            }
            Some(Cholesky::new(&hff)?)
        };
        Ok(Self { free, chol })
    }

    /// Evaluates the affine control law of this active set: bound variables
    /// sit exactly on their bound, free variables solve the reduced system
    /// `H_FF·x_F = −g_F − H_FB·x_B`.
    ///
    /// The caller is responsible for checking that the result is actually
    /// optimal for `(g, lo, hi)` (primal bounds on `x_F`, dual signs on the
    /// bound variables); see [`kkt_optimal`].
    pub fn polish(
        &self,
        h: &Matrix,
        g: &[f64],
        lo: &[f64],
        hi: &[f64],
        states: &[VarState],
    ) -> Vec<f64> {
        let n = states.len();
        let mut x = vec![0.0; n];
        for j in 0..n {
            x[j] = match states[j] {
                VarState::Free => 0.0,
                VarState::AtLo => lo[j],
                VarState::AtHi => hi[j],
            };
        }
        if let Some(chol) = &self.chol {
            let mut rhs = vec![0.0; self.free.len()];
            for (ri, &vi) in self.free.iter().enumerate() {
                let mut acc = -g[vi];
                for (j, xv) in x.iter().enumerate() {
                    if states[j] != VarState::Free {
                        acc -= h[(vi, j)] * xv;
                    }
                }
                rhs[ri] = acc;
            }
            // Factor dimension matches rhs by construction.
            let xf = chol.solve(&rhs).expect("BoxFactor rhs length");
            for (ri, &vi) in self.free.iter().enumerate() {
                x[vi] = xf[ri];
            }
        }
        x
    }
}

/// Checks the KKT conditions of a candidate active-set solution `x` for a
/// box QP: free variables inside `[lo, hi]` (within `tol`), bound variables
/// with correctly signed multipliers (within `tol`). Used by the explicit
/// region table to validate a cached law before trusting it.
pub fn kkt_optimal(
    h: &Matrix,
    g: &[f64],
    lo: &[f64],
    hi: &[f64],
    states: &[VarState],
    x: &[f64],
    tol: f64,
) -> bool {
    let grad = {
        let mut grad = h.matvec(x);
        for (gi, gv) in grad.iter_mut().zip(g.iter()) {
            *gi += gv;
        }
        grad
    };
    for j in 0..states.len() {
        match states[j] {
            VarState::Free => {
                if x[j] < lo[j] - tol || x[j] > hi[j] + tol || grad[j].abs() > tol {
                    return false;
                }
            }
            VarState::AtLo => {
                if grad[j] < -tol {
                    return false;
                }
            }
            VarState::AtHi => {
                if grad[j] > tol {
                    return false;
                }
            }
        }
    }
    true
}

/// Primal active-set solver for box-constrained strictly convex QPs.
///
/// Equivalent to `capgpu_oracle::qp::ActiveSetQp` restricted to bound constraints
/// (same method, Nocedal & Wright §16.5), but with the incremental free-set
/// Cholesky factor replacing the dense KKT factorization and a vectorized
/// bound pass per iteration. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoxQp;

/// Maximum active-set changes before [`BoxQp`] gives up.
const MAX_ITERATIONS: usize = 200;

impl BoxQp {
    /// Solves from the cold start `x₀ = clamp(0, lo, hi)`.
    ///
    /// # Errors
    /// See [`BoxQp::solve_from`].
    pub fn solve(&self, qp: &BoxQpProblem) -> Result<BoxQpSolution> {
        let x0 = vec![0.0; qp.dim()];
        self.solve_from(qp, &x0, None)
    }

    /// Solves starting from `x0` (clamped into the box) with an optional
    /// working-set hint, such as a previous solution's bound states:
    /// hinted variables start pinned on their bound.
    ///
    /// # Errors
    /// * [`OptimError::BadProblem`] if `x0`/`hint` lengths mismatch.
    /// * [`OptimError::Numerical`] if `H_FF` is not positive definite.
    /// * [`OptimError::IterationLimit`] if the active set fails to settle
    ///   within 200 active-set changes.
    // Index loops mirror the mathematical statement of the iteration; the
    // gradient pass indexes `grad` and the Hessian rows in lockstep.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_from(
        &self,
        qp: &BoxQpProblem,
        x0: &[f64],
        hint: Option<&[VarState]>,
    ) -> Result<BoxQpSolution> {
        let n = qp.dim();
        if x0.len() != n {
            return Err(OptimError::BadProblem("start point length mismatch"));
        }
        if let Some(h) = hint {
            if h.len() != n {
                return Err(OptimError::BadProblem("hint length mismatch"));
            }
        }

        // Start point: clamp into the box; hinted variables snap onto their
        // bound (always feasible), others bind only if the clamp hit.
        let mut x = vec![0.0; n];
        let mut states = vec![VarState::Free; n];
        for j in 0..n {
            let (xj, st) = match hint.map(|h| h[j]) {
                Some(VarState::AtLo) => (qp.lo[j], VarState::AtLo),
                Some(VarState::AtHi) => (qp.hi[j], VarState::AtHi),
                _ => {
                    let v = qp.clamp(x0[j], j);
                    if v <= qp.lo[j] {
                        (qp.lo[j], VarState::AtLo)
                    } else if v >= qp.hi[j] {
                        (qp.hi[j], VarState::AtHi)
                    } else {
                        (v, VarState::Free)
                    }
                }
            };
            x[j] = xj;
            states[j] = st;
        }

        let scale = 1.0 + qp.gradient.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let opt_tol = OPT_TOL * scale;

        let mut factor = FreeFactor::new(n);
        factor.reset(&qp.hessian, &states)?;

        let mut grad = vec![0.0; n];
        let mut step = vec![0.0; n];
        for iteration in 0..MAX_ITERATIONS {
            // grad = H·x + g (bound variables contribute exactly their bound).
            for i in 0..n {
                let mut acc = qp.gradient[i];
                for (j, xv) in x.iter().enumerate() {
                    acc += qp.hessian[(i, j)] * xv;
                }
                grad[i] = acc;
            }

            // Newton step on the free set: p_F = −H_FF⁻¹·grad_F.
            let f = factor.len();
            for (ri, &v) in factor.vars.iter().enumerate() {
                step[ri] = -grad[v];
            }
            factor.solve_in_place(&mut step[..f]);
            let p_inf = step[..f].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let x_scale = 1.0 + x.iter().fold(0.0f64, |m, v| m.max(v.abs()));

            if p_inf <= OPT_TOL * x_scale {
                // Stationary on the free set; check bound multipliers.
                // AtLo: ν = grad_j ≥ 0. AtHi: μ = −grad_j ≥ 0.
                let mut worst = -opt_tol;
                let mut worst_j = None;
                for j in 0..n {
                    let lam = match states[j] {
                        VarState::Free => continue,
                        VarState::AtLo => grad[j],
                        VarState::AtHi => -grad[j],
                    };
                    if lam < worst && qp.lo[j] < qp.hi[j] {
                        worst = lam;
                        worst_j = Some(j);
                    }
                }
                match worst_j {
                    None => return Ok(self.finish(qp, &states, iteration + 1)),
                    Some(j) => {
                        states[j] = VarState::Free;
                        factor.append(&qp.hessian, j)?;
                    }
                }
                continue;
            }

            // Ratio test over the free variables (one vectorized pass over
            // every device's box).
            let mut alpha = 1.0f64;
            let mut blocking: Option<(usize, usize, VarState)> = None;
            for (ri, &v) in factor.vars.iter().enumerate() {
                let p = step[ri];
                if p > DIR_TOL * x_scale {
                    let room = qp.hi[v] - x[v];
                    let a = room / p;
                    if a < alpha {
                        alpha = a.max(0.0);
                        blocking = Some((ri, v, VarState::AtHi));
                    }
                } else if p < -DIR_TOL * x_scale {
                    let room = qp.lo[v] - x[v];
                    let a = room / p;
                    if a < alpha {
                        alpha = a.max(0.0);
                        blocking = Some((ri, v, VarState::AtLo));
                    }
                }
            }

            for (ri, &v) in factor.vars.iter().enumerate() {
                x[v] = qp.clamp(x[v] + alpha * step[ri], v);
            }
            if let Some((ri, v, side)) = blocking {
                x[v] = match side {
                    VarState::AtHi => qp.hi[v],
                    _ => qp.lo[v],
                };
                states[v] = side;
                factor.remove(&qp.hessian, ri)?;
            }
        }
        Err(OptimError::IterationLimit {
            iterations: MAX_ITERATIONS,
        })
    }

    /// Deterministic final polish: re-solve the free coordinates from a
    /// fresh sorted-free-set factorization so the output depends only on
    /// the final active set.
    fn finish(&self, qp: &BoxQpProblem, states: &[VarState], iterations: usize) -> BoxQpSolution {
        let factor = BoxFactor::from_states(&qp.hessian, states)
            .expect("free-set Hessian stayed SPD through the iteration");
        let x = factor.polish(&qp.hessian, &qp.gradient, &qp.lo, &qp.hi, states);
        let grad = {
            let mut g = qp.hessian.matvec(&x);
            for (gi, gv) in g.iter_mut().zip(qp.gradient.iter()) {
                *gi += gv;
            }
            g
        };
        let multipliers = states
            .iter()
            .zip(grad.iter())
            .map(|(s, g)| match s {
                VarState::Free => 0.0,
                VarState::AtLo => *g,
                VarState::AtHi => -*g,
            })
            .collect();
        let objective = qp.objective(&x);
        BoxQpSolution {
            x,
            states: states.to_vec(),
            multipliers,
            objective,
            iterations,
            factor,
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 1.0], &[0.5, 1.0, 2.0]])
    }

    #[test]
    fn interior_minimum_matches_unconstrained() {
        let h = spd3();
        let g = vec![-1.0, 0.5, -0.25];
        let qp = BoxQpProblem::new(h.clone(), g.clone(), vec![-10.0; 3], vec![10.0; 3]).unwrap();
        let sol = BoxQp.solve(&qp).unwrap();
        // Unconstrained optimum: H·x = −g.
        let expect = (capgpu_linalg::Cholesky::new(&h).unwrap())
            .solve(&[1.0, -0.5, 0.25])
            .unwrap();
        for (a, b) in sol.x.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert_eq!(sol.active_count(), 0);
        assert!(sol.multipliers.iter().all(|m| *m == 0.0));
    }

    #[test]
    fn binds_at_bounds_with_positive_multipliers() {
        // Strong pull toward +∞ on x0, box caps it.
        let h = Matrix::from_diag(&[1.0, 1.0]);
        let qp = BoxQpProblem::new(h, vec![-10.0, -0.2], vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let sol = BoxQp.solve(&qp).unwrap();
        assert_eq!(sol.states[0], VarState::AtHi);
        assert!((sol.x[0] - 1.0).abs() < 1e-12);
        assert!((sol.x[1] - 0.2).abs() < 1e-12);
        assert!(sol.multipliers[0] > 0.0);
    }

    #[test]
    fn warm_start_is_bit_identical_to_cold() {
        let h = spd3();
        let g = vec![-5.0, 2.0, -1.0];
        let qp = BoxQpProblem::new(h, g, vec![-0.5, -0.5, -0.5], vec![0.5, 0.5, 0.5]).unwrap();
        let solver = BoxQp;
        let cold = solver.solve(&qp).unwrap();
        let warm = solver.solve_from(&qp, &cold.x, Some(&cold.states)).unwrap();
        assert_eq!(cold.x, warm.x, "polish must make warm == cold bitwise");
        assert_eq!(cold.states, warm.states);
        // A deliberately wrong hint must still converge to the same point.
        let bad_hint = vec![VarState::AtHi; 3];
        let warm2 = solver.solve_from(&qp, &[0.0; 3], Some(&bad_hint)).unwrap();
        assert_eq!(cold.x, warm2.x);
    }

    #[test]
    fn box_factor_reproduces_iterative_solution() {
        let h = spd3();
        let g = vec![-5.0, 2.0, -1.0];
        let lo = vec![-0.5; 3];
        let hi = vec![0.5; 3];
        let qp = BoxQpProblem::new(h.clone(), g.clone(), lo.clone(), hi.clone()).unwrap();
        let sol = BoxQp.solve(&qp).unwrap();
        let bf = BoxFactor::from_states(&h, &sol.states).unwrap();
        let x = bf.polish(&h, &g, &lo, &hi, &sol.states);
        assert_eq!(x, sol.x, "cached law must be bitwise equal to the solve");
        assert!(kkt_optimal(&h, &g, &lo, &hi, &sol.states, &x, 1e-8));
    }

    #[test]
    fn returned_factor_polishes_like_a_fresh_factorization() {
        // The factor a solution carries is the one a region table caches
        // in place of `from_states`: on a later period's gradient and
        // bounds the two must evaluate the active set's law bit for bit.
        let h = spd3();
        let lo = vec![-0.5; 3];
        let hi = vec![0.5; 3];
        let qp = BoxQpProblem::new(h.clone(), vec![-5.0, 0.5, -0.25], lo, hi).unwrap();
        let sol = BoxQp.solve(&qp).unwrap();
        assert_eq!(sol.active_count(), 1, "one bound, a 2×2 factor");
        let fresh = BoxFactor::from_states(&h, &sol.states).unwrap();
        let (g, lo, hi) = ([-4.75, 1.5, -0.8], [-0.45, -0.5, -0.6], [0.55, 0.5, 0.4]);
        assert_eq!(
            sol.factor.polish(&h, &g, &lo, &hi, &sol.states),
            fresh.polish(&h, &g, &lo, &hi, &sol.states)
        );
    }

    #[test]
    fn every_returned_solution_reports_at_least_one_iteration() {
        // 0 is reserved for "no iteration ran" (a cached-law answer): a
        // cold solve that converges at its first optimality check took
        // one iteration, and one step plus the check that accepts it two.
        let solver = BoxQp;
        let qp = BoxQpProblem::new(spd3(), vec![0.0; 3], vec![-1.0; 3], vec![1.0; 3]).unwrap();
        assert_eq!(solver.solve(&qp).unwrap().iterations, 1);
        let qp = BoxQpProblem::new(
            spd3(),
            vec![-1.0, 0.5, -0.25],
            vec![-10.0; 3],
            vec![10.0; 3],
        )
        .unwrap();
        let interior = solver.solve(&qp).unwrap();
        assert_eq!(interior.active_count(), 0);
        assert_eq!(interior.iterations, 2);
    }

    #[test]
    fn kkt_check_rejects_wrong_region() {
        let h = Matrix::from_diag(&[1.0, 1.0]);
        let g = vec![-10.0, -0.2];
        let lo = vec![0.0, 0.0];
        let hi = vec![1.0, 1.0];
        // Claim "everything free" — but the optimum has x0 at its cap.
        let states = vec![VarState::Free, VarState::Free];
        let bf = BoxFactor::from_states(&h, &states).unwrap();
        let x = bf.polish(&h, &g, &lo, &hi, &states);
        assert!(!kkt_optimal(&h, &g, &lo, &hi, &states, &x, 1e-8));
    }

    #[test]
    fn fully_clamped_box() {
        // lo == hi pins every variable; solver must cope with an empty
        // free set.
        let h = spd3();
        let qp = BoxQpProblem::new(h, vec![1.0; 3], vec![0.25; 3], vec![0.25; 3]).unwrap();
        let sol = BoxQp.solve(&qp).unwrap();
        assert_eq!(sol.x, vec![0.25; 3]);
        assert_eq!(sol.active_count(), 3);
    }

    #[test]
    fn rejects_inverted_bounds() {
        let err = BoxQpProblem::new(
            Matrix::identity(2),
            vec![0.0; 2],
            vec![1.0; 2],
            vec![0.0; 2],
        )
        .unwrap_err();
        assert!(matches!(err, OptimError::BadProblem(_)));
    }
}
