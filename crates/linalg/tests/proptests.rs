//! Property-based tests for the linear-algebra kernels.
//!
//! These exercise invariants that must hold for *any* well-conditioned
//! input, not just hand-picked examples: factorizations reconstruct,
//! solvers invert, and the oracle's eigenvalue sums match traces.

use capgpu_linalg::{lstsq, stats, Cholesky, Matrix, Qr};
use capgpu_oracle::eig;
use capgpu_oracle::lu::Lu;
use proptest::prelude::*;

/// Strategy: vector of `n` floats in a tame range.
fn vec_f64(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, n)
}

/// Strategy: a diagonally dominant n×n matrix (guaranteed non-singular and
/// well conditioned enough for tight tolerances).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data);
        for i in 0..n {
            let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0 + m[(i, i)].abs();
        }
        m
    })
}

/// Strategy: an SPD matrix built as `BᵀB + I`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data);
        let mut g = b.gram();
        g.add_diagonal(1.0).unwrap();
        g
    })
}

/// Sum of the main diagonal of a square matrix.
fn trace(a: &Matrix) -> f64 {
    (0..a.rows()).map(|i| a[(i, i)]).sum()
}

/// Product of complex numbers, `(re, im)` pairs multiplied in order.
fn product(zs: &[eig::Complex]) -> eig::Complex {
    zs.iter().fold(eig::Complex::real(1.0), |acc, z| {
        eig::Complex::new(acc.re * z.re - acc.im * z.im, acc.re * z.im + acc.im * z.re)
    })
}

proptest! {
    #[test]
    fn lu_solve_recovers_solution(a in dominant_matrix(4), x in vec_f64(4)) {
        let b = a.matvec(&x);
        let solved = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (s, t) in solved.iter().zip(x.iter()) {
            prop_assert!((s - t).abs() < 1e-7, "{s} vs {t}");
        }
    }

    #[test]
    fn lu_det_sign_consistent_with_inverse(a in dominant_matrix(3)) {
        let lu = Lu::new(&a).unwrap();
        let det = lu.det();
        prop_assert!(det.abs() > 1e-9);
        let inv = lu.inverse().unwrap();
        let prod = a.matmul(&inv);
        prop_assert!(prod.approx_eq(&Matrix::identity(3), 1e-7));
    }

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(4)) {
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose());
        prop_assert!(rec.approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_solve_matches_lu(a in spd_matrix(4), b in vec_f64(4)) {
        let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(x_lu.iter()) {
            prop_assert!((c - l).abs() < 1e-7);
        }
    }

    #[test]
    fn qr_least_squares_residual_is_orthogonal(
        data in prop::collection::vec(-5.0..5.0f64, 12),
        b in vec_f64(6),
    ) {
        // 6x2 design matrix with an intercept column to avoid rank issues.
        let mut rows = Vec::new();
        for i in 0..6 {
            rows.push(vec![data[2 * i], data[2 * i + 1] + 20.0 * (i as f64 + 1.0), 1.0]);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let qr = Qr::new(&a).unwrap();
        if qr.rank() < 3 {
            return Ok(()); // skip degenerate draws
        }
        let x = qr.solve_lstsq(&b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
        let atr = a.transpose().matvec(&r);
        for v in atr {
            prop_assert!(v.abs() < 1e-6, "residual not orthogonal: {v}");
        }
    }

    #[test]
    fn eigenvalue_sum_matches_trace(a in dominant_matrix(5)) {
        let eigs = eig::eigenvalues(&a).unwrap();
        let trace = trace(&a);
        let sum: f64 = eigs.iter().map(|e| e.re).sum();
        let imag_sum: f64 = eigs.iter().map(|e| e.im).sum();
        prop_assert!((trace - sum).abs() < 1e-6 * trace.abs().max(1.0));
        prop_assert!(imag_sum.abs() < 1e-6, "conjugate pairs must cancel");
    }

    #[test]
    fn eigenvalue_product_matches_det(a in dominant_matrix(4)) {
        let eigs = eig::eigenvalues(&a).unwrap();
        let det = Lu::new(&a).unwrap().det();
        let prod = product(&eigs);
        prop_assert!(prod.im.abs() < 1e-5 * det.abs().max(1.0));
        prop_assert!((prod.re - det).abs() < 1e-5 * det.abs().max(1.0));
    }
}

#[test]
fn trace_and_det_invariants_5x5() {
    let a = Matrix::from_rows(&[
        &[1.0, 2.0, 0.5, -1.0, 0.2],
        &[0.3, -2.0, 1.5, 0.7, -0.4],
        &[2.2, 0.1, 3.0, -0.6, 1.1],
        &[-0.9, 1.4, 0.0, 0.5, 2.3],
        &[0.6, -1.1, 0.8, 1.9, -1.5],
    ]);
    let eigs = eig::eigenvalues(&a).unwrap();
    let trace = trace(&a);
    let eig_sum: f64 = eigs.iter().map(|e| e.re).sum();
    assert!((trace - eig_sum).abs() < 1e-8, "trace {trace} vs {eig_sum}");
    let det = Lu::new(&a).unwrap().det();
    let eig_prod = product(&eigs);
    assert!(eig_prod.im.abs() < 1e-7);
    assert!((det - eig_prod.re).abs() < 1e-6 * det.abs().max(1.0));
}

proptest! {

    #[test]
    fn lstsq_r2_bounded(xs in prop::collection::vec(-5.0..5.0f64, 8), noise in prop::collection::vec(-0.5..0.5f64, 8)) {
        // Fit y = 2x + 1 + noise; R² must be ≤ 1 and predictions sane.
        prop_assume!(stats::std_dev(&xs) > 0.5);
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let y: Vec<f64> = xs.iter().zip(noise.iter()).map(|(&x, &n)| 2.0 * x + 1.0 + n).collect();
        let fit = lstsq::solve(&a, &y).unwrap();
        prop_assert!(fit.r_squared <= 1.0 + 1e-12);
        prop_assert!((fit.coefficients[0] - 2.0).abs() < 1.5);
    }

    #[test]
    fn percentile_monotone(xs in prop::collection::vec(0.0..100.0f64, 1..50), q1 in 0.0..100.0f64, q2 in 0.0..100.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(stats::percentile(&xs, lo) <= stats::percentile(&xs, hi) + 1e-12);
    }

    #[test]
    fn ewma_stays_within_observed_range(vals in prop::collection::vec(0.0..100.0f64, 1..30), alpha in 0.01..1.0f64) {
        let mut e = stats::Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &vals {
            lo = lo.min(v);
            hi = hi.max(v);
            let out = e.update(v);
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
        }
    }

    #[test]
    fn matmul_associative(a in dominant_matrix(3), b in dominant_matrix(3), c in dominant_matrix(3)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-6 * left.max_abs().max(1.0)));
    }

    #[test]
    fn transpose_of_product_reverses(a in dominant_matrix(3), b in dominant_matrix(3)) {
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-9));
    }
}
