//! Property tests for the control layer: delta-sigma averaging, system
//! identification recovery, MPC feasibility and monotonicity, stability of
//! pole-placed designs, and the closed-form §4.4 pole against the dense
//! closed loop and against the simulated one.

use capgpu_control::model::LinearPowerModel;
use capgpu_control::modulator::{uniform_levels, DeltaSigmaModulator};
use capgpu_control::mpc::{MpcConfig, MpcController};
use capgpu_control::pid::ProportionalController;
use capgpu_control::sysid::{ExcitationPlan, SystemIdentifier};
use capgpu_control::{metrics, stability};
use capgpu_linalg::{Cholesky, Matrix};
use capgpu_oracle::eig;
use proptest::prelude::*;

/// Half-width of the band around `|π| = 1` where the pole verdict is not
/// checked against the simulated loop. Near `|π| = 1` a stable loop needs
/// ≈ 18 / (1 − |π|) periods to settle to `SETTLED_MHZ` and an unstable
/// one ≈ ln(150) / (|π| − 1) to reach a bound, so within `MAX_PERIODS`
/// the outcome is undecidable there, not wrong.
const STABILITY_BAND: f64 = 0.02;
/// Closed-loop periods simulated per case.
const MAX_PERIODS: usize = 2000;
/// A loop has converged once no device moves more than this (MHz).
const SETTLED_MHZ: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_sigma_time_average_converges(
        target in 440.0..1340.0f64,
        step in prop::sample::select(vec![7.5, 15.0, 45.0, 90.0]),
    ) {
        let levels = uniform_levels(435.0, 1350.0, step).unwrap();
        let mut m = DeltaSigmaModulator::new(levels).unwrap();
        let n = 2000;
        let sum: f64 = (0..n).map(|_| m.next_level(target)).sum();
        let avg = sum / n as f64;
        prop_assert!((avg - target).abs() < step / 20.0,
            "avg {avg} target {target} step {step}");
    }

    #[test]
    fn delta_sigma_accumulator_bounded(
        targets in prop::collection::vec(435.0..1350.0f64, 1..200),
    ) {
        let levels = uniform_levels(435.0, 1350.0, 15.0).unwrap();
        let mut m = DeltaSigmaModulator::new(levels).unwrap();
        for t in targets {
            m.next_level(t);
            // The 15 MHz level spacing bounds the accumulated error.
            prop_assert!(m.accumulator().abs() <= 15.0 + 1e-9);
        }
    }

    #[test]
    fn sysid_recovers_random_gains(
        cpu_gain in 0.02..0.12f64,
        gpu_gain in 0.1..0.3f64,
        offset in 100.0..400.0f64,
    ) {
        let plan = ExcitationPlan::new(
            vec![1000.0, 435.0],
            vec![2400.0, 1350.0],
            vec![1400.0, 495.0],
            10,
        ).unwrap();
        let truth = LinearPowerModel::new(vec![cpu_gain, gpu_gain], offset).unwrap();
        let mut ident = SystemIdentifier::new(2);
        for f in plan.points() {
            ident.record(&f, truth.predict(&f));
        }
        let fit = ident.fit().unwrap();
        prop_assert!((fit.model.gains()[0] - cpu_gain).abs() < 1e-8);
        prop_assert!((fit.model.gains()[1] - gpu_gain).abs() < 1e-8);
        prop_assert!((fit.model.offset() - offset).abs() < 1e-5);
        prop_assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn mpc_step_always_within_bounds(
        f_cpu in 1000.0..2400.0f64,
        f_g1 in 435.0..1350.0f64,
        f_g2 in 435.0..1350.0f64,
        err in -300.0..300.0f64,
        w1 in 0.1..2.0f64,
        w2 in 0.1..2.0f64,
    ) {
        let model = LinearPowerModel::new(vec![0.06, 0.18, 0.18], 250.0).unwrap();
        let config = MpcConfig::paper_defaults(
            vec![1000.0, 435.0, 435.0],
            vec![2400.0, 1350.0, 1350.0],
        );
        let c = MpcController::new(config, model).unwrap();
        let f = [f_cpu, f_g1, f_g2];
        let p = c.model().predict(&f);
        let step = c.step(p, p - err, &f, &[1.0, w1, w2], &[1000.0, 435.0, 435.0]).unwrap();
        for (j, t) in step.target_freqs.iter().enumerate() {
            prop_assert!(*t >= c.config().f_min[j] - 1e-6, "device {j} below min: {t}");
            prop_assert!(*t <= c.config().f_max[j] + 1e-6, "device {j} above max: {t}");
        }
        // The first move must (essentially) reduce |predicted error| vs
        // doing nothing. A sub-watt transient in the wrong direction is
        // legitimate: when the tracking error is already ~0, the optimizer
        // trades a tiny Q-cost for a reduction of the R-penalty
        // (frequency redistribution along nearly power-neutral
        // directions), bounded by the R_BASE/Q ratio.
        // The transient's worst case scales with R_BASE · w_max · Δf_max
        // (≈ 2e-4 · 2 · 1400 ≈ 0.6 W of penalty gradient): 2 W is a safe,
        // still-meaningful envelope.
        let err_before = err.abs();
        let err_after = (step.predicted_power - (p - err)).abs();
        prop_assert!(err_after <= err_before + 2.0,
            "error grew: {err_before} -> {err_after}");
    }

    #[test]
    fn mpc_slo_floor_always_enforced(
        floor in 500.0..1350.0f64,
        f_gpu in 435.0..1350.0f64,
        err in -100.0..100.0f64,
    ) {
        let model = LinearPowerModel::new(vec![0.18], 250.0).unwrap();
        let config = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        let c = MpcController::new(config, model).unwrap();
        let f = [f_gpu];
        let p = c.model().predict(&f);
        let step = c.step(p, p - err, &f, &[1.0], &[floor]).unwrap();
        prop_assert!(step.target_freqs[0] >= floor - 1e-6,
            "target {} below floor {floor}", step.target_freqs[0]);
    }

    #[test]
    fn mpc_diagnostics_describe_the_applied_move(
        n in 1usize..10,
        gains in prop::collection::vec(0.03..0.3f64, 9),
        f_frac in prop::collection::vec(0.0..1.0f64, 9),
        // Per device: no floor, a raised floor, or one above f_max.
        floor_kind in prop::collection::vec(0usize..3, 9),
        floor_frac in prop::collection::vec(0.0..1.0f64, 9),
        weights in prop::collection::vec(0.1..3.0f64, 9),
        err in prop::sample::select(vec![-3000.0, -300.0, -30.0, 0.0, 30.0, 300.0, 3000.0]),
    ) {
        // Random 1–9 device servers, down to a fully saturated box (±3 kW
        // of error) and clamped floors: the diagnostics count only bounds
        // the applied targets sit on.
        let (f_min, f_max) = (vec![435.0; n], vec![1350.0; n]);
        let model = LinearPowerModel::new(gains[..n].to_vec(), 250.0).unwrap();
        let c = MpcController::new(MpcConfig::paper_defaults(f_min, f_max), model).unwrap();
        let f: Vec<f64> = f_frac[..n].iter().map(|x| 435.0 + x * 915.0).collect();
        let floors: Vec<f64> = (0..n)
            .map(|j| match floor_kind[j] {
                0 => 435.0,
                1 => 435.0 + floor_frac[j] * 915.0,
                _ => 1350.0 + floor_frac[j] * 500.0,
            })
            .collect();
        let p = c.model().predict(&f);
        let step = c.step(p, p - err, &f, &weights[..n], &floors).unwrap();
        let effective: Vec<f64> = floors.iter().map(|x| x.clamp(435.0, 1350.0)).collect();
        let on = |t: f64, bound: f64| (t - bound).abs() <= 1e-6;
        let t = &step.target_freqs;
        let on_a_bound = (0..n).filter(|&j| on(t[j], effective[j]) || on(t[j], 1350.0)).count();
        prop_assert!(step.active_constraints <= n,
            "{} active constraints for {n} devices", step.active_constraints);
        prop_assert!(step.active_constraints <= on_a_bound,
            "{} active constraints, {on_a_bound} targets on a bound: {t:?}",
            step.active_constraints);
        if step.slo_floor_binding {
            prop_assert!((0..n).any(|j| effective[j] > 435.0 && on(t[j], effective[j])),
                "SLO floor reported binding, none reached: {t:?} vs {effective:?}");
        }
    }

    #[test]
    fn pole_placed_controller_converges_for_any_valid_pole(
        pole in 0.0..0.95f64,
        plant_gain in 0.1..1.0f64,
    ) {
        let c = ProportionalController::pole_placed(plant_gain, pole, 0.0, 1.0e9).unwrap();
        let setpoint = 900.0;
        let mut f = 1000.0;
        let mut p = 500.0;
        let mut trace = vec![];
        for _ in 0..400 {
            let f_new = c.step(p, setpoint, f);
            p += plant_gain * (f_new - f);
            f = f_new;
            trace.push(p);
        }
        prop_assert!(metrics::settling_time(&trace, setpoint, 1.0).is_some(),
            "did not settle: final p = {p}");
    }
}

/// The MPC's tracking weight `Q` and control-penalty scale `R_BASE`, the
/// constants of `capgpu_control::mpc` the dense reference needs.
const Q_WEIGHT: f64 = 1.0;
const R_BASE: f64 = 2e-4;

/// Dense reference for the unconstrained first-move law at uniform
/// weights: builds the whole `M·N` condensed Hessian of Eq. 9 in per-move
/// coordinates and Cholesky-solves `N + 1` right-hand sides for
/// `d₀ = −K_p·e₀ − K_f·w`. Returns `(K_p, K_f)`.
fn dense_unconstrained_gains(a: &[f64], p_h: usize, m: usize) -> (Vec<f64>, Matrix) {
    let n = a.len();
    let dim = m * n;
    let mut h = Matrix::zeros(dim, dim);
    let mut g_e = vec![0.0; dim]; // gradient per unit e₀ (w = 0)
    for i in 1..=p_h {
        // Power sensitivity of prediction step i to the stacked moves.
        let mut s = vec![0.0; dim];
        for l in 0..i.min(m) {
            s[l * n..(l + 1) * n].copy_from_slice(a);
        }
        for r in 0..dim {
            g_e[r] += 2.0 * Q_WEIGHT * s[r];
            for c in 0..dim {
                h[(r, c)] += 2.0 * Q_WEIGHT * s[r] * s[c];
            }
        }
    }
    for i in 0..m {
        for r in 0..=i {
            for c in 0..=i {
                for j in 0..n {
                    h[(r * n + j, c * n + j)] += 2.0 * R_BASE;
                }
            }
        }
    }
    let chol = Cholesky::new(&h).unwrap();
    let k_p = chol.solve(&g_e).unwrap()[..n].to_vec();
    // K_f's columns: the gradient per unit w_j is 2·Σᵢ Tᵢᵀ·R·e_j.
    let mut k_f = Matrix::zeros(n, n);
    for j in 0..n {
        let mut g_w = vec![0.0; dim];
        for i in 0..m {
            for r in 0..=i {
                g_w[r * n + j] += 2.0 * R_BASE;
            }
        }
        let col = chol.solve(&g_w).unwrap();
        for r in 0..n {
            k_f[(r, j)] = col[r];
        }
    }
    (k_p, k_f)
}

/// The minimal closed-loop state matrix `I − K_p·A'ᵀ − K_f` for actual
/// plant gains `a_actual`; its spectral radius is the loop's.
fn closed_loop_matrix(a_actual: &[f64], k_p: &[f64], k_f: &Matrix) -> Matrix {
    let n = a_actual.len();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let eye = if i == j { 1.0 } else { 0.0 };
            m[(i, j)] = eye - k_p[i] * a_actual[j] - k_f[(i, j)];
        }
    }
    m
}

/// The noiseless plant's power at `f` for gains `actual`.
fn plant(actual: &[f64], f: &[f64]) -> f64 {
    250.0 + actual.iter().zip(f).map(|(a, f)| a * f).sum::<f64>()
}

/// Runs `c` against the noiseless plant with gains `actual` from `f` for
/// up to `MAX_PERIODS`. Converged: the moves die out while no device in
/// `free` reaches a bound and every other device stays at its floor. A
/// bound reached, or a pinned device let go, ends the run unconverged.
fn converges(
    c: &MpcController,
    actual: &[f64],
    setpoint: f64,
    mut f: Vec<f64>,
    floors: &[f64],
    free: &[usize],
) -> bool {
    let (f_min, f_max) = (&c.config().f_min, &c.config().f_max);
    let weights = vec![1.0; f.len()];
    for _ in 0..MAX_PERIODS {
        let step = c
            .step(plant(actual, &f), setpoint, &f, &weights, floors)
            .unwrap();
        let t = &step.target_freqs;
        let bound = free.iter().any(|&j| {
            t[j] <= f_min[j].max(floors[j]) + SETTLED_MHZ || t[j] >= f_max[j] - SETTLED_MHZ
        });
        let let_go = (0..t.len()).any(|j| !free.contains(&j) && t[j] > floors[j] + SETTLED_MHZ);
        if bound || let_go {
            return false;
        }
        let moved = step.first_move.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        f = step.target_freqs;
        if moved < SETTLED_MHZ {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn closed_form_pole_matches_the_dense_loop(
        n in 1usize..10,
        gains in prop::collection::vec(0.01..0.3f64, 9),
        g in prop::collection::vec(0.0..3.0f64, 9),
        horizons in prop::sample::select(vec![(1, 1), (2, 2), (8, 2), (16, 2), (4, 3)]),
    ) {
        // The one production law against the dense extraction at every
        // horizon whose applied block carries the weight `Q` (every M ≥ 2,
        // and P = M = 1).
        let (p_h, m) = horizons;
        let a = &gains[..n];
        let config = MpcConfig::paper_defaults(vec![435.0; n], vec![1350.0; n]);
        let c = MpcController::new(config, LinearPowerModel::new(a.to_vec(), 250.0).unwrap())
            .unwrap();
        let k_p = c.unconstrained_gains();
        let (dense_k_p, dense_k_f) = dense_unconstrained_gains(a, p_h, m);
        for (k, want) in k_p.iter().zip(&dense_k_p) {
            prop_assert!((k - want).abs() <= 1e-9 * want.abs(), "K_p {k} vs dense {want}");
        }
        for r in 0..n {
            for j in 0..n {
                let k_f = if r == j { 1.0 } else { 0.0 } - k_p[r] * a[j];
                prop_assert!((k_f - dense_k_f[(r, j)]).abs() <= 1e-9,
                    "K_f[{r},{j}] {k_f} vs dense {}", dense_k_f[(r, j)]);
            }
        }

        // Per-device error: the formula's pole against the dense loop.
        let radius = |g: &[f64]| {
            let actual: Vec<f64> = a.iter().zip(g).map(|(a, g)| a * g).collect();
            let m = closed_loop_matrix(&actual, &dense_k_p, &dense_k_f);
            eig::spectral_radius(&m).unwrap()
        };
        let pi = stability::pole(a, &g[..n], &k_p);
        let rho = radius(&g[..n]);
        prop_assert!((pi.abs() - rho).abs() <= 1e-8, "|π| = {} vs ρ = {rho}", pi.abs());

        // Uniform error: the interval holds the nominal model's whole
        // (0, 2], and just inside / outside each end the dense loop is
        // stable / unstable.
        let (lo, hi) = stability::uniform_gain_stability_interval(a, &k_p);
        prop_assert!(lo < 0.0 && hi > 2.0, "({lo}, {hi})");
        for end in [lo, hi] {
            for factor in [1.0 - 1e-6, 1.0 + 1e-6] {
                let g = end * factor;
                let inside = lo < g && g < hi;
                let rho = radius(&vec![g; n]);
                prop_assert!((rho < 1.0) == inside, "g = {g} at the end {end}: ρ = {rho}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pole_verdict_matches_the_simulated_loop(
        g in prop::collection::vec(0.25..3.5f64, 3),
    ) {
        // The paper model, mis-scaled per device: the plant's gains are
        // g∘A while the controller keeps A.
        let a = [0.06, 0.18, 0.18];
        let (f_min, f_max) = ([1000.0, 435.0, 435.0], [2400.0, 1350.0, 1350.0]);
        let model = LinearPowerModel::new(a.to_vec(), 250.0).unwrap();
        let config = MpcConfig::paper_defaults(f_min.to_vec(), f_max.to_vec());
        let c = MpcController::new(config, model).unwrap();
        let pi = stability::pole(&a, &g, &c.unconstrained_gains());
        prop_assume!((pi.abs() - 1.0).abs() >= STABILITY_BAND);

        // Operating point: the split uniform weights settle at (excess
        // frequency ∝ A_j), 150 and 450 MHz above the floors, with the
        // set point the true plant draws there. Start off it by tens of
        // MHz, well inside every bound.
        let actual: Vec<f64> = a.iter().zip(&g).map(|(a, g)| a * g).collect();
        let setpoint = plant(&actual, &[1150.0, 885.0, 885.0]);
        let start = vec![1180.0, 845.0, 910.0];
        let converged = converges(&c, &actual, setpoint, start, &f_min, &[0, 1, 2]);
        prop_assert!(converged == (pi.abs() < 1.0), "g = {g:?}, π = {pi}: converged {converged}");

        // Saturated: an SLO floor of 1000 MHz, above its 885 MHz operating
        // point, pins device 2. It starts there, and the set point is what
        // the true plant draws with it there. Only the free devices feed
        // back, so the pole is that of a controller over their gains alone.
        let free = LinearPowerModel::new(a[..2].to_vec(), 250.0).unwrap();
        let free_config = MpcConfig::paper_defaults(f_min[..2].to_vec(), f_max[..2].to_vec());
        let k_p_free = MpcController::new(free_config, free).unwrap().unconstrained_gains();
        let pi_free = stability::pole(&a[..2], &g[..2], &k_p_free);
        if (pi_free.abs() - 1.0).abs() >= STABILITY_BAND {
            let floors = [1000.0, 435.0, 1000.0];
            let setpoint = plant(&actual, &[1150.0, 885.0, 1000.0]);
            let start = vec![1180.0, 845.0, 1000.0];
            let converged = converges(&c, &actual, setpoint, start, &floors, &[0, 1]);
            prop_assert!(converged == (pi_free.abs() < 1.0),
                "pinned, g = {g:?}, π_F = {pi_free}: converged {converged}");
        }
    }
}
