//! Numerical-kernel benchmarks: QP solvers, eigenvalues, least squares.
//!
//! These quantify the from-scratch numerics: the active-set QP against the
//! projected-gradient cross-check, the Francis-QR eigenvalue solver used by
//! the stability analysis, and the QR least-squares behind identification.

use capgpu_linalg::{eig, lstsq, Matrix};
use capgpu_optim::projgrad::{self, Box as PgBox};
use capgpu_optim::qp::{ActiveSetQp, LinearConstraint, QpProblem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Condensed-MPC-shaped QP of dimension `m·n` with box constraints.
fn mpc_qp(n_devices: usize) -> (QpProblem, Vec<f64>) {
    let m = 2; // control horizon
    let dim = m * n_devices;
    let gains: Vec<f64> = (0..dim)
        .map(|i| 0.08 + 0.02 * (i % n_devices) as f64)
        .collect();
    let mut h = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            h[(i, j)] = 2.0 * gains[i] * gains[j];
        }
        h[(i, i)] += 4e-4;
    }
    let g: Vec<f64> = gains.iter().map(|a| 2.0 * a * (-60.0)).collect();
    let mut cons = vec![];
    for i in 0..dim {
        cons.push(LinearConstraint::upper_bound(dim, i, 400.0));
        cons.push(LinearConstraint::lower_bound(dim, i, -400.0));
    }
    (QpProblem::new(h, g, cons).unwrap(), vec![0.0; dim])
}

fn bench_qp(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp_active_set");
    for n in [2usize, 4, 8] {
        let (qp, x0) = mpc_qp(n);
        let solver = ActiveSetQp::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(solver.solve(black_box(&qp), &x0).unwrap()))
        });
    }
    group.finish();
}

fn bench_projected_gradient(c: &mut Criterion) {
    let (qp, x0) = mpc_qp(4);
    let bounds = PgBox::new(vec![-400.0; 8], vec![400.0; 8]).unwrap();
    c.bench_function("qp_projected_gradient_dim8", |b| {
        b.iter(|| {
            black_box(
                projgrad::solve_box_qp(&qp.hessian, &qp.gradient, &bounds, &x0, 1e-8, 100_000)
                    .unwrap(),
            )
        })
    });
}

fn bench_eigenvalues(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigenvalues");
    for n in [4usize, 8, 16] {
        // Closed-loop-like matrix: I − k·aᵀ − K_f.
        let mut m = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] -= 0.3 / n as f64 + if i == j { 0.2 } else { 0.01 };
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(eig::eigenvalues(black_box(&m)).unwrap()))
        });
    }
    group.finish();
}

fn bench_lstsq(c: &mut Criterion) {
    // Identification-sized regression: 32 samples × (4 gains + intercept).
    let rows: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            let t = i as f64;
            vec![
                1000.0 + 40.0 * t,
                435.0 + 28.0 * (t * 1.3 % 32.0),
                435.0 + 28.0 * (t * 2.1 % 32.0),
                435.0 + 28.0 * (t * 0.7 % 32.0),
                1.0,
            ]
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let x = Matrix::from_rows(&refs);
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 330.0 + 0.05 * r[0] + 0.15 * (r[1] + r[2] + r[3]))
        .collect();
    c.bench_function("lstsq_identification_32x5", |b| {
        b.iter(|| black_box(lstsq::solve(black_box(&x), &y).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_qp,
    bench_projected_gradient,
    bench_eigenvalues,
    bench_lstsq
);
criterion_main!(benches);
