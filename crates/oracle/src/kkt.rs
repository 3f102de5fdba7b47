//! First-order optimality (KKT) condition checking.
//!
//! Used by the [`crate::qp`] tests and `capgpu-optim`'s proptests: a
//! solution is accepted only when stationarity, primal feasibility, dual
//! feasibility, and complementary slackness all hold within tolerance, so
//! a true optimum, not just a feasible point. (The box solver's own check
//! is `capgpu_optim::boxqp::kkt_optimal`.)

use crate::{qp::QpProblem, vector};

/// A violated KKT condition, with the worst offending magnitude.
#[derive(Debug, Clone, PartialEq)]
pub enum KktViolation {
    /// `‖H x + g + Aᵀλ‖∞` exceeds tolerance.
    Stationarity(f64),
    /// Some constraint is violated by this much.
    PrimalFeasibility(f64),
    /// Some multiplier is negative by this much.
    DualFeasibility(f64),
    /// Some `λᵢ · cᵢ(x)` product exceeds tolerance.
    ComplementarySlackness(f64),
}

impl std::fmt::Display for KktViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KktViolation::Stationarity(v) => write!(f, "stationarity violated by {v:e}"),
            KktViolation::PrimalFeasibility(v) => {
                write!(f, "primal feasibility violated by {v:e}")
            }
            KktViolation::DualFeasibility(v) => write!(f, "dual feasibility violated by {v:e}"),
            KktViolation::ComplementarySlackness(v) => {
                write!(f, "complementary slackness violated by {v:e}")
            }
        }
    }
}

/// Checks the KKT conditions of a QP solution.
///
/// # Errors
/// Returns the first violated condition with its magnitude.
pub fn check_qp(
    qp: &QpProblem,
    x: &[f64],
    multipliers: &[f64],
    tol: f64,
) -> Result<(), KktViolation> {
    assert_eq!(multipliers.len(), qp.constraints.len(), "multiplier count");

    // Stationarity: ∇f(x) + Σ λᵢ aᵢ = 0.
    let mut grad = qp.objective_gradient(x);
    for (lam, c) in multipliers.iter().zip(qp.constraints.iter()) {
        grad = vector::axpy(&grad, *lam, &c.a);
    }
    let stat = vector::norm_inf(&grad);
    if stat > tol {
        return Err(KktViolation::Stationarity(stat));
    }

    // Primal feasibility.
    let viol = qp.max_violation(x);
    if viol > tol {
        return Err(KktViolation::PrimalFeasibility(viol));
    }

    // Dual feasibility.
    let min_lambda = multipliers.iter().cloned().fold(0.0_f64, f64::min);
    if min_lambda < -tol {
        return Err(KktViolation::DualFeasibility(-min_lambda));
    }

    // Complementary slackness — scaled by the constraint magnitude so large
    // right-hand sides don't produce spurious failures.
    for (lam, c) in multipliers.iter().zip(qp.constraints.iter()) {
        let slack = c.eval(x);
        let prod = (lam * slack).abs();
        let scale = 1.0 + lam.abs().max(slack.abs());
        if prod > tol * scale {
            return Err(KktViolation::ComplementarySlackness(prod));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::LinearConstraint;
    use capgpu_linalg::Matrix;

    fn qp_with_bound() -> QpProblem {
        // min (x-3)², x ≤ 1
        QpProblem::new(
            Matrix::from_diag(&[2.0]),
            vec![-6.0],
            vec![LinearConstraint::upper_bound(1, 0, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn accepts_true_optimum() {
        // x* = 1 active, λ = −∇f = −(2·1 − 6) = 4.
        let qp = qp_with_bound();
        assert!(check_qp(&qp, &[1.0], &[4.0], 1e-9).is_ok());
    }

    #[test]
    fn rejects_wrong_multiplier() {
        let qp = qp_with_bound();
        assert!(matches!(
            check_qp(&qp, &[1.0], &[1.0], 1e-9),
            Err(KktViolation::Stationarity(_))
        ));
    }

    #[test]
    fn rejects_infeasible_point() {
        let qp = qp_with_bound();
        assert!(matches!(
            check_qp(&qp, &[2.0], &[2.0], 1e-9),
            Err(KktViolation::PrimalFeasibility(_))
        ));
    }

    #[test]
    fn rejects_negative_multiplier() {
        // Stationary pair with a negative multiplier: 2x − 6 + λ = 0 with
        // λ = −0.5 gives x = 3.25 (feasible, stationarity holds) — the dual
        // feasibility check must fire.
        let qp = QpProblem::new(
            Matrix::from_diag(&[2.0]),
            vec![-6.0],
            vec![LinearConstraint::upper_bound(1, 0, 10.0)],
        )
        .unwrap();
        assert!(matches!(
            check_qp(&qp, &[3.25], &[-0.5], 1e-9),
            Err(KktViolation::DualFeasibility(_))
        ));
    }

    #[test]
    fn rejects_slackness_violation() {
        // Interior point with positive multiplier on an inactive constraint.
        let qp = QpProblem::new(
            Matrix::from_diag(&[2.0]),
            vec![0.0],
            vec![LinearConstraint::upper_bound(1, 0, 10.0)],
        )
        .unwrap();
        // x = 0 is stationary for λ=0; try λ=0.5 with slack −10:
        // stationarity breaks first unless gradient offset matches, so build
        // a consistent-but-slack-violating pair: x = −0.5·... easier: check
        // directly that slackness test fires when stationarity passes.
        // ∇f + λ·a = 2x + λ = 0 → x = −λ/2 = −0.25, slack = −10.25.
        let res = check_qp(&qp, &[-0.25], &[0.5], 1e-6);
        assert!(matches!(res, Err(KktViolation::ComplementarySlackness(_))));
    }

    #[test]
    fn display_messages() {
        let v = KktViolation::Stationarity(1e-3);
        assert!(format!("{v}").contains("stationarity"));
    }
}
