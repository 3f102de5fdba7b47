//! Primal active-set solver for strictly convex quadratic programs.
//!
//! Solves
//!
//! ```text
//!   minimize    ½·xᵀH x + gᵀx
//!   subject to  aᵢᵀx ≤ bᵢ        (i = 1..m, including box bounds)
//! ```
//!
//! with `H` symmetric positive definite. This is the exact shape of the
//! condensed CapGPU MPC problem: the Hessian `SᵀQS + R` is SPD by
//! construction (R > 0), the frequency bounds of constraint (10a) and the
//! SLO-derived frequency floors of constraints (10b)+(10c) are all linear
//! in the decision vector.
//!
//! No controller calls it. The controller solves the applied block of the
//! same problem in cumulative-move coordinates by a closed-form search for
//! its one KKT multiplier; this solver — general constraints, a dense KKT
//! factorization per iteration, no structure assumed — is the independent
//! oracle that path is tested against (`capgpu-control`'s `mpc::tests`),
//! and the box solver too (`capgpu-optim`'s proptests), the status
//! [`crate::projgrad`] also has for the box solver.
//!
//! The implementation is the textbook primal active-set method
//! (Nocedal & Wright, *Numerical Optimization*, Alg. 16.3): maintain a
//! working set of constraints treated as equalities, solve the
//! equality-constrained subproblem via its KKT system, and add/drop
//! constraints based on blocking steps and multiplier signs.

use capgpu_linalg::Matrix;

use crate::{lu::Lu, vector, OracleError, Result};

/// Tolerance for treating a step / residual as zero.
const ZERO_TOL: f64 = 1e-10;
/// Feasibility slack: constraints may be violated by at most this much.
const FEAS_TOL: f64 = 1e-8;

/// A linear inequality constraint `aᵀx ≤ b`.
#[derive(Debug, Clone)]
pub struct LinearConstraint {
    /// Constraint normal `a`.
    pub a: Vec<f64>,
    /// Right-hand side `b`.
    pub b: f64,
}

impl LinearConstraint {
    /// Creates a constraint `aᵀx ≤ b`.
    pub fn new(a: Vec<f64>, b: f64) -> Self {
        LinearConstraint { a, b }
    }

    /// Constraint value `aᵀx − b` (≤ 0 when satisfied).
    pub fn eval(&self, x: &[f64]) -> f64 {
        vector::dot(&self.a, x) - self.b
    }

    /// Upper-bound constraint `x[i] ≤ ub` in `n` dimensions.
    pub fn upper_bound(n: usize, i: usize, ub: f64) -> Self {
        let mut a = vec![0.0; n];
        a[i] = 1.0;
        LinearConstraint::new(a, ub)
    }

    /// Lower-bound constraint `x[i] ≥ lb`, encoded as `−x[i] ≤ −lb`.
    pub fn lower_bound(n: usize, i: usize, lb: f64) -> Self {
        let mut a = vec![0.0; n];
        a[i] = -1.0;
        LinearConstraint::new(a, -lb)
    }
}

/// A strictly convex QP instance.
#[derive(Debug, Clone)]
pub struct QpProblem {
    /// Symmetric positive-definite Hessian `H`.
    pub hessian: Matrix,
    /// Linear term `g`.
    pub gradient: Vec<f64>,
    /// Inequality constraints `aᵢᵀx ≤ bᵢ`.
    pub constraints: Vec<LinearConstraint>,
}

impl QpProblem {
    /// Creates a QP; validates dimensions.
    ///
    /// # Errors
    /// [`OracleError::BadProblem`] on any dimension inconsistency.
    pub fn new(
        hessian: Matrix,
        gradient: Vec<f64>,
        constraints: Vec<LinearConstraint>,
    ) -> Result<Self> {
        if !hessian.is_square() {
            return Err(OracleError::BadProblem("Hessian must be square"));
        }
        let n = hessian.rows();
        if gradient.len() != n {
            return Err(OracleError::BadProblem("gradient length != Hessian dim"));
        }
        if constraints.iter().any(|c| c.a.len() != n) {
            return Err(OracleError::BadProblem("constraint normal length != dim"));
        }
        Ok(QpProblem {
            hessian,
            gradient,
            constraints,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.hessian.rows()
    }

    /// Objective value `½xᵀHx + gᵀx`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        0.5 * vector::dot(x, &self.hessian.matvec(x)) + vector::dot(&self.gradient, x)
    }

    /// Objective gradient `Hx + g`.
    pub fn objective_gradient(&self, x: &[f64]) -> Vec<f64> {
        vector::add(&self.hessian.matvec(x), &self.gradient)
    }

    /// Maximum constraint violation at `x` (0 when feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        self.constraints
            .iter()
            .map(|c| c.eval(x).max(0.0))
            .fold(0.0_f64, f64::max)
    }
}

/// Solution of a QP.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// Optimal point.
    pub x: Vec<f64>,
    /// Lagrange multipliers, one per constraint (0 for inactive).
    pub multipliers: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Active-set iterations used.
    pub iterations: usize,
    /// Constraints in the working set at the solution (indices into the
    /// problem's constraint list).
    pub active_set: Vec<usize>,
}

/// The primal active-set QP solver.
#[derive(Debug, Clone)]
pub struct ActiveSetQp {
    /// Maximum active-set changes before giving up.
    pub max_iterations: usize,
}

impl Default for ActiveSetQp {
    fn default() -> Self {
        ActiveSetQp {
            max_iterations: 200,
        }
    }
}

impl ActiveSetQp {
    /// Solves the QP starting from a feasible point `x0`.
    ///
    /// # Errors
    /// * [`OracleError::InfeasibleStart`] if `x0` violates a constraint by
    ///   more than the feasibility tolerance.
    /// * [`OracleError::IterationLimit`] if the working set keeps changing
    ///   beyond `max_iterations` (cycling; does not occur on the
    ///   non-degenerate MPC problems CapGPU builds).
    /// * [`OracleError::Numerical`] if a KKT system is singular.
    pub fn solve(&self, qp: &QpProblem, x0: &[f64]) -> Result<QpSolution> {
        if x0.len() != qp.dim() {
            return Err(OracleError::BadProblem("x0 length != dim"));
        }
        if qp.max_violation(x0) > FEAS_TOL {
            return Err(OracleError::InfeasibleStart);
        }
        // Start with the working set = constraints active at x0.
        let n = qp.dim();
        let m = qp.constraints.len();
        let mut working: Vec<usize> = (0..m)
            .filter(|&i| qp.constraints[i].eval(x0).abs() <= FEAS_TOL)
            .collect();
        let mut x = x0.to_vec();
        let mut multipliers = vec![0.0; m];
        for iter in 0..self.max_iterations {
            // Solve the equality-constrained subproblem:
            //   min ½pᵀHp + (Hx+g)ᵀp  s.t.  aᵢᵀp = 0 for i ∈ W
            // via the KKT system [H Aᵀ; A 0]·[p; λ] = [−(Hx+g); 0].
            let grad = qp.objective_gradient(&x);
            let k = working.len();
            let dim = n + k;
            let mut kkt = Matrix::zeros(dim, dim);
            for r in 0..n {
                for c in 0..n {
                    kkt[(r, c)] = qp.hessian[(r, c)];
                }
            }
            for (j, &ci) in working.iter().enumerate() {
                for r in 0..n {
                    let a = qp.constraints[ci].a[r];
                    kkt[(r, n + j)] = a;
                    kkt[(n + j, r)] = a;
                }
            }
            let mut rhs = vec![0.0; dim];
            for r in 0..n {
                rhs[r] = -grad[r];
            }
            // A degenerate working set (linearly dependent normals) makes
            // the KKT matrix singular; drop the most recently added
            // constraint and retry on the next iteration.
            let sol = match Lu::new(&kkt).and_then(|lu| lu.solve(&rhs)) {
                Ok(s) => s,
                Err(_) if !working.is_empty() => {
                    working.pop();
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let p = &sol[..n];
            let lambda = &sol[n..];

            // Relative zero test: iterates can be O(10³) (MHz moves), so an
            // absolute 1e-10 threshold would chase numerical noise forever.
            let step_tol = ZERO_TOL * (1.0 + vector::norm_inf(&x));
            if vector::norm_inf(p) <= step_tol {
                // No step possible: check multipliers for optimality.
                multipliers.iter_mut().for_each(|l| *l = 0.0);
                for (j, &ci) in working.iter().enumerate() {
                    multipliers[ci] = lambda[j];
                }
                let (min_idx, min_lambda) = working
                    .iter()
                    .enumerate()
                    .map(|(j, _)| (j, lambda[j]))
                    .fold((usize::MAX, 0.0_f64), |(bi, bv), (j, v)| {
                        if v < bv {
                            (j, v)
                        } else {
                            (bi, bv)
                        }
                    });
                if min_idx == usize::MAX || min_lambda >= -ZERO_TOL {
                    // All multipliers non-negative: KKT point found.
                    return Ok(QpSolution {
                        objective: qp.objective(&x),
                        x,
                        multipliers,
                        iterations: iter + 1,
                        active_set: working,
                    });
                }
                // Drop the constraint with the most negative multiplier.
                working.remove(min_idx);
                continue;
            }

            // Step length: largest α ∈ (0, 1] keeping all constraints
            // outside the working set feasible.
            let mut alpha = 1.0;
            let mut blocking: Option<usize> = None;
            for i in 0..m {
                if working.contains(&i) {
                    continue;
                }
                let ap = vector::dot(&qp.constraints[i].a, p);
                if ap > ZERO_TOL {
                    let slack = qp.constraints[i].b - vector::dot(&qp.constraints[i].a, &x);
                    let a_max = (slack / ap).max(0.0);
                    if a_max < alpha {
                        alpha = a_max;
                        blocking = Some(i);
                    }
                }
            }
            x = vector::axpy(&x, alpha, p);
            if let Some(bi) = blocking {
                working.push(bi);
            }
        }
        Err(OracleError::IterationLimit {
            iterations: self.max_iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kkt;

    fn simple_qp() -> QpProblem {
        // min (x-3)² + (y-4)² = ½ xᵀ(2I)x + (-6,-8)ᵀx + const
        QpProblem::new(Matrix::from_diag(&[2.0, 2.0]), vec![-6.0, -8.0], vec![]).unwrap()
    }

    #[test]
    fn unconstrained_minimum() {
        let qp = simple_qp();
        let sol = ActiveSetQp::default().solve(&qp, &[0.0, 0.0]).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
        assert!((sol.x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn active_upper_bound() {
        // Same objective with x ≤ 1: solution (1, 4), multiplier > 0.
        let mut qp = simple_qp();
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 0, 1.0));
        let sol = ActiveSetQp::default().solve(&qp, &[0.0, 0.0]).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 4.0).abs() < 1e-9);
        assert!(sol.multipliers[0] > 0.0);
        assert!(kkt::check_qp(&qp, &sol.x, &sol.multipliers, 1e-7).is_ok());
    }

    #[test]
    fn inactive_constraint_has_zero_multiplier() {
        let mut qp = simple_qp();
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 0, 10.0));
        let sol = ActiveSetQp::default().solve(&qp, &[0.0, 0.0]).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
        assert_eq!(sol.multipliers[0], 0.0);
    }

    #[test]
    fn box_constrained_corner() {
        // Minimum pushed into the corner (1, 2).
        let mut qp = simple_qp();
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 0, 1.0));
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 1, 2.0));
        let sol = ActiveSetQp::default().solve(&qp, &[0.0, 0.0]).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
        assert!(kkt::check_qp(&qp, &sol.x, &sol.multipliers, 1e-7).is_ok());
    }

    #[test]
    fn general_halfspace_constraint() {
        // min ½‖x‖² s.t. x+y ≥ 2  → x = y = 1.
        let qp = QpProblem::new(
            Matrix::identity(2),
            vec![0.0, 0.0],
            vec![LinearConstraint::new(vec![-1.0, -1.0], -2.0)],
        )
        .unwrap();
        let sol = ActiveSetQp::default().solve(&qp, &[2.0, 2.0]).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
        assert!(kkt::check_qp(&qp, &sol.x, &sol.multipliers, 1e-7).is_ok());
    }

    #[test]
    fn lower_bound_encoding() {
        let c = LinearConstraint::lower_bound(3, 1, 5.0);
        assert!(c.eval(&[0.0, 6.0, 0.0]) < 0.0); // satisfied
        assert!(c.eval(&[0.0, 4.0, 0.0]) > 0.0); // violated
    }

    #[test]
    fn infeasible_start_rejected() {
        let mut qp = simple_qp();
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 0, 1.0));
        let err = ActiveSetQp::default().solve(&qp, &[5.0, 0.0]).unwrap_err();
        assert_eq!(err, OracleError::InfeasibleStart);
    }

    #[test]
    fn dimension_validation() {
        assert!(QpProblem::new(Matrix::zeros(2, 3), vec![0.0], vec![]).is_err());
        assert!(QpProblem::new(Matrix::identity(2), vec![0.0], vec![]).is_err());
        assert!(QpProblem::new(
            Matrix::identity(2),
            vec![0.0, 0.0],
            vec![LinearConstraint::new(vec![1.0], 0.0)]
        )
        .is_err());
    }

    #[test]
    fn active_set_reported_at_solution() {
        let mut qp = simple_qp();
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 0, 1.0));
        qp.constraints
            .push(LinearConstraint::upper_bound(2, 1, 10.0));
        let sol = ActiveSetQp::default().solve(&qp, &[0.0, 0.0]).unwrap();
        assert!(sol.active_set.contains(&0));
        assert!(!sol.active_set.contains(&1));
    }

    #[test]
    fn mpc_shaped_problem() {
        // A miniature condensed-MPC problem: 2 devices × control horizon 2,
        // tracking a power error of −50 W with gains [0.08, 0.18] W/MHz.
        let gains = [0.08, 0.18, 0.08, 0.18];
        let mut h = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                h[(i, j)] = 2.0 * gains[i] * gains[j];
            }
        }
        h.add_diagonal(0.01).unwrap(); // control penalty
        let err = -50.0; // p − P_s
        let g: Vec<f64> = gains.iter().map(|&a| 2.0 * a * err).collect();
        let mut cons = vec![];
        for i in 0..4 {
            cons.push(LinearConstraint::upper_bound(4, i, 300.0));
            cons.push(LinearConstraint::lower_bound(4, i, -300.0));
        }
        let qp = QpProblem::new(h, g, cons).unwrap();
        let sol = ActiveSetQp::default().solve(&qp, &[0.0; 4]).unwrap();
        // All moves must be positive (power deficit → raise frequencies).
        for v in &sol.x {
            assert!(*v > 0.0, "expected positive move, got {v}");
        }
        assert!(kkt::check_qp(&qp, &sol.x, &sol.multipliers, 1e-6).is_ok());
    }
}
