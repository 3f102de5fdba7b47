//! The paper's §4.4 stability analysis, executed: take the MPC's
//! unconstrained feedback law, perturb the plant gains `A'ᵢ = g·Aᵢ`, and
//! compare the closed loop's one nonzero pole `π(g)` with the loop itself,
//! simulated against the mis-scaled plant.
//!
//! Run with: `cargo run --release --example stability_analysis`

use capgpu::prelude::*;
use capgpu_control::stability;

/// Closed-loop periods simulated per gain error.
const MAX_PERIODS: usize = 20_000;
/// A loop has converged once no device moves more than this (MHz).
const SETTLED_MHZ: f64 = 1e-6;

/// How a simulated loop ended.
enum Outcome {
    Converged(usize),
    HitBound(usize),
    Undecided,
}

fn main() {
    // Identify a model on the paper testbed and build the controller.
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(42), 900.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let mpc = controller.mpc();
    let model = mpc.model();
    let a = model.gains();
    let k_p = mpc.unconstrained_gains();

    println!("identified gains A (W/MHz): {a:?}");
    println!("MPC first-move feedback K_p (MHz/W): {k_p:?}");

    // Operating point: uniform weights settle with the excess frequency
    // f − f_min ∝ A; put the largest excess at 40 % of its device's range
    // and start the loop 20 MHz off it, alternating sign by device.
    let (f_min, f_max) = (&mpc.config().f_min, &mpc.config().f_max);
    let scale = (0..a.len())
        .map(|j| (f_max[j] - f_min[j]) / a[j])
        .fold(f64::INFINITY, f64::min);
    let f_op: Vec<f64> = (0..a.len())
        .map(|j| f_min[j] + 0.4 * scale * a[j])
        .collect();
    let start: Vec<f64> = f_op
        .iter()
        .enumerate()
        .map(|(j, f)| if j % 2 == 0 { f + 20.0 } else { f - 20.0 })
        .collect();

    // Runs the controller against the noiseless plant with gains g·A.
    let simulate = |g: f64| -> Outcome {
        let plant =
            |f: &[f64]| model.offset() + a.iter().zip(f).map(|(a, f)| g * a * f).sum::<f64>();
        let setpoint = plant(&f_op);
        let weights = vec![1.0; a.len()];
        let mut f = start.clone();
        for period in 1..=MAX_PERIODS {
            let step = mpc.step(plant(&f), setpoint, &f, &weights, f_min).unwrap();
            let t = &step.target_freqs;
            if (0..t.len())
                .any(|j| t[j] <= f_min[j] + SETTLED_MHZ || t[j] >= f_max[j] - SETTLED_MHZ)
            {
                return Outcome::HitBound(period);
            }
            let moved = step.first_move.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            f = step.target_freqs;
            if moved < SETTLED_MHZ {
                return Outcome::Converged(period);
            }
        }
        Outcome::Undecided
    };

    // Pole locus under uniform multiplicative gain error, beside the loop.
    println!("\n  g       π(g)   |π| < 1   simulated loop");
    for i in 0..=16 {
        let g = 0.25 + i as f64 * 0.25;
        let pole = stability::pole(a, &vec![g; a.len()], &k_p);
        let stable = pole.abs() < 1.0;
        let verdict = match simulate(g) {
            Outcome::Converged(n) => {
                assert!(stable, "the loop converged at g = {g} but π = {pole}");
                format!("converged in {n} periods")
            }
            Outcome::HitBound(n) => {
                assert!(!stable, "the loop hit a bound at g = {g} but π = {pole}");
                format!("unconverged: hit a bound in period {n}")
            }
            Outcome::Undecided => format!("undecided after {MAX_PERIODS} periods"),
        };
        println!(
            "{g:>5.2}   {pole:>7.4}   {:<7}   {verdict}",
            if stable { "yes" } else { "NO" }
        );
    }

    let (lo, hi) = stability::uniform_gain_stability_interval(a, &k_p);
    println!("\nexact stable uniform gain-error interval: g ∈ ({lo:.4}, {hi:.4})");
    println!(
        "→ the low end is below 0, so the loop stays stable however far the true\n  gains fall below the identified ones, and while they are less than {hi:.4}×\n  them (paper §4.4: stability holds while each Aᵢ stays within a derived\n  bound). At g = 1 the loop is deadbeat: π(1) = 0."
    );
    assert!(lo < 0.0 && hi > 2.0);
}
