//! Property tests: the active-set solver must agree with projected gradient
//! on random box-constrained QPs and always satisfy the KKT conditions.

use capgpu_linalg::Matrix;
use capgpu_optim::boxqp::{BoxQp, BoxQpProblem, VarState};
use capgpu_oracle::kkt;
use capgpu_oracle::projgrad::{self, Box as PgBox};
use capgpu_oracle::qp::{ActiveSetQp, LinearConstraint, QpProblem};
use proptest::prelude::*;

/// Random SPD Hessian `BᵀB + I` of size n.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data);
        let mut g = b.gram();
        g.add_diagonal(1.0).unwrap();
        g
    })
}

/// Checks the KKT conditions of a box-QP solution `x` with bound states
/// `states`: free variables inside `[lo, hi]` with zero gradient, bound
/// variables with correctly signed multipliers, all within `tol`.
fn kkt_optimal(
    h: &Matrix,
    g: &[f64],
    lo: &[f64],
    hi: &[f64],
    states: &[VarState],
    x: &[f64],
    tol: f64,
) -> bool {
    let mut grad = h.matvec(x);
    for (gi, gv) in grad.iter_mut().zip(g) {
        *gi += gv;
    }
    (0..states.len()).all(|j| match states[j] {
        VarState::Free => x[j] >= lo[j] - tol && x[j] <= hi[j] + tol && grad[j].abs() <= tol,
        VarState::AtLo => grad[j] >= -tol,
        VarState::AtHi => grad[j] <= tol,
    })
}

/// Central finite-difference gradient of `f` at `x`.
fn central_difference(x: &[f64], f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut xp = x.to_vec();
    (0..x.len())
        .map(|i| {
            let h = 1e-6 * (1.0 + x[i].abs());
            xp[i] = x[i] + h;
            let fp = f(&xp);
            xp[i] = x[i] - h;
            let fm = f(&xp);
            xp[i] = x[i];
            (fp - fm) / (2.0 * h)
        })
        .collect()
}

#[test]
fn larger_random_style_problem_agrees_with_projected_gradient() {
    // Deterministic pseudo-random SPD problem (no RNG dependency here).
    let n = 8;
    let mut b = Matrix::zeros(n, n);
    let mut s = 1234567u64;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = next();
        }
    }
    let mut h = b.transpose().matmul(&b);
    h.add_diagonal(0.5).unwrap();
    let g: Vec<f64> = (0..n).map(|_| 2.0 * next()).collect();
    let lo = vec![-0.3; 8];
    let hi = vec![0.4; 8];
    let qp = BoxQpProblem::new(h.clone(), g.clone(), lo.clone(), hi.clone()).unwrap();
    let sol = BoxQp.solve(&qp).unwrap();
    assert!(kkt_optimal(&h, &g, &lo, &hi, &sol.states, &sol.x, 1e-7));
    let bounds = PgBox::new(lo.clone(), hi.clone()).unwrap();
    let pg = projgrad::solve_box_qp(&h, &g, &bounds, &vec![0.0; n], 1e-12, 200_000).unwrap();
    for (a, b) in sol.x.iter().zip(pg.iter()) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn active_set_matches_projected_gradient(
        h in spd(3),
        g in prop::collection::vec(-5.0..5.0f64, 3),
        lo_raw in prop::collection::vec(-3.0..0.0f64, 3),
        width in prop::collection::vec(0.5..4.0f64, 3),
    ) {
        let lo = lo_raw.clone();
        let hi: Vec<f64> = lo.iter().zip(width.iter()).map(|(l, w)| l + w).collect();

        // Active-set formulation with explicit bound constraints.
        let mut cons = vec![];
        for i in 0..3 {
            cons.push(LinearConstraint::upper_bound(3, i, hi[i]));
            cons.push(LinearConstraint::lower_bound(3, i, lo[i]));
        }
        let qp = QpProblem::new(h.clone(), g.clone(), cons).unwrap();
        let x0: Vec<f64> = lo.iter().zip(hi.iter()).map(|(l, u)| 0.5 * (l + u)).collect();
        let sol = ActiveSetQp::default().solve(&qp, &x0).unwrap();

        // Projected gradient on the same box.
        let bounds = PgBox::new(lo, hi).unwrap();
        let x_pg = projgrad::solve_box_qp(&h, &g, &bounds, &x0, 1e-11, 200_000).unwrap();

        for (a, b) in sol.x.iter().zip(x_pg.iter()) {
            prop_assert!((a - b).abs() < 1e-5, "active-set {a} vs projgrad {b}");
        }
        prop_assert!(kkt::check_qp(&qp, &sol.x, &sol.multipliers, 1e-6).is_ok());
    }

    #[test]
    fn solution_never_beats_optimum(
        h in spd(2),
        g in prop::collection::vec(-3.0..3.0f64, 2),
        probe in prop::collection::vec(0.0..1.0f64, 2),
    ) {
        // Any feasible point must have objective >= the solver's optimum.
        let mut cons = vec![];
        for i in 0..2 {
            cons.push(LinearConstraint::upper_bound(2, i, 1.0));
            cons.push(LinearConstraint::lower_bound(2, i, 0.0));
        }
        let qp = QpProblem::new(h, g, cons).unwrap();
        let sol = ActiveSetQp::default().solve(&qp, &[0.5, 0.5]).unwrap();
        let f_probe = qp.objective(&probe);
        prop_assert!(sol.objective <= f_probe + 1e-8,
            "solver {} worse than probe {} at {probe:?}", sol.objective, f_probe);
    }

    #[test]
    fn box_qp_matches_generic_active_set(
        h in spd(4),
        g in prop::collection::vec(-5.0..5.0f64, 4),
        lo_raw in prop::collection::vec(-3.0..0.0f64, 4),
        width in prop::collection::vec(0.5..4.0f64, 4),
    ) {
        // The box specialization must land on the same minimizer as the
        // generic active-set solver fed the same box as explicit linear
        // constraints, and its KKT point must certify.
        let lo = lo_raw.clone();
        let hi: Vec<f64> = lo.iter().zip(width.iter()).map(|(l, w)| l + w).collect();

        let bqp = BoxQpProblem::new(h.clone(), g.clone(), lo.clone(), hi.clone()).unwrap();
        let sol = BoxQp.solve(&bqp).unwrap();

        let mut cons = vec![];
        for i in 0..4 {
            cons.push(LinearConstraint::upper_bound(4, i, hi[i]));
            cons.push(LinearConstraint::lower_bound(4, i, lo[i]));
        }
        let qp = QpProblem::new(h.clone(), g.clone(), cons).unwrap();
        let x0: Vec<f64> = lo.iter().zip(hi.iter()).map(|(l, u)| 0.5 * (l + u)).collect();
        let generic = ActiveSetQp::default().solve(&qp, &x0).unwrap();

        for (a, b) in sol.x.iter().zip(generic.x.iter()) {
            prop_assert!((a - b).abs() < 1e-6, "box {a} vs generic {b}");
        }
        prop_assert!((sol.objective - generic.objective).abs() < 1e-7);
        prop_assert!(kkt_optimal(&h, &g, &bqp.lo, &bqp.hi, &sol.states, &sol.x, 1e-7));
    }

    #[test]
    fn objective_gradient_consistency(
        h in spd(3),
        g in prop::collection::vec(-2.0..2.0f64, 3),
        x in prop::collection::vec(-2.0..2.0f64, 3),
    ) {
        // ∇f via the QP helper matches finite differences of the objective.
        let qp = QpProblem::new(h, g, vec![]).unwrap();
        let grad = qp.objective_gradient(&x);
        let fd = central_difference(&x, |p| qp.objective(p));
        for (a, b) in grad.iter().zip(fd.iter()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
