//! Closed-loop stability analysis under model error (paper §4.4), in closed
//! form.
//!
//! The paper's four-step recipe:
//!
//! 1. **Nominal control inputs** — the unconstrained MPC first move is a
//!    linear feedback `d₀ = −K_p·(p − P_s) − K_f·(f − f_ref)` with
//!    `K_f = I − K_p·Aᵀ` ([`crate::mpc::MpcController::unconstrained_gains`]).
//! 2. **Actual system model** — the true gains are `A'ᵢ = gᵢ·Aᵢ` for
//!    unknown multiplicative errors `gᵢ`.
//! 3. **Closed-loop system** — substituting the nominal law into the
//!    actual plant. Because the plant's power is a static function of the
//!    frequencies (`p = A'·f + C`), the *minimal* closed-loop state is the
//!    frequency vector alone:
//!
//!    ```text
//!      f⁺ = f − K_p·(A'·f + C − P_s) − K_f·(f − f_ref)
//!         = (I − K_p·A'ᵀ − K_f)·f + const
//!         = K_p·((1 − g)∘A)ᵀ·f + const
//!    ```
//!
//!    (A naive composite `[p; f]` realization carries the structural
//!    invariant `p − A'·f = C` and with it an eigenvalue pinned at exactly
//!    1, which says nothing about convergence — the minimal realization
//!    avoids that artifact.)
//!
//! 4. **Pole analysis** — the state matrix is rank one, so `N − 1` of its
//!    poles sit at 0 and the one other is its trace,
//!
//!    ```text
//!      π(g) = Σⱼ K_pⱼ·Aⱼ·(1 − gⱼ).
//!    ```
//!
//!    The loop is stable iff `|π(g)| < 1`, and the nominal loop is
//!    deadbeat: `π(1) = 0`. Under a uniform error `g` the pole is
//!    `σ·(1 − g)` with `σ = Σⱼ K_pⱼ·Aⱼ = s/(1 + s)`, so the loop is stable
//!    exactly for `g ∈ (1 − 1/σ, 1 + 1/σ) = (−1/s, 2 + 1/s)`.
//!
//! `capgpu-control`'s proptests hold both formulas to the spectral radius
//! of the dense `N×N` matrix, computed by the dev-only `capgpu-oracle`
//! eigen solver, and the verdict to the simulated loop.

/// The one nonzero pole `π(g) = Σⱼ K_pⱼ·Aⱼ·(1 − gⱼ)` of the closed loop
/// whose plant gains are `g∘A` while the controller's law `k_p` was built
/// for `a_nominal`. The loop is stable iff `|π| < 1`.
///
/// # Panics
/// If the three slices differ in length.
pub fn pole(a_nominal: &[f64], g: &[f64], k_p: &[f64]) -> f64 {
    assert_eq!(a_nominal.len(), g.len(), "one gain error per device");
    assert_eq!(a_nominal.len(), k_p.len(), "one feedback gain per device");
    a_nominal
        .iter()
        .zip(g)
        .zip(k_p)
        .map(|((a, g), k)| k * a * (1.0 - g))
        .sum()
}

/// The exact open interval of **uniform** gain errors `g` (the same on
/// every device) for which the closed loop is stable:
/// `(1 − 1/σ, 1 + 1/σ)` with `σ = Σⱼ K_pⱼ·Aⱼ`. It always contains the
/// nominal `g = 1`, and it is unbounded, `(−∞, ∞)`, when `σ = 0`.
///
/// # Panics
/// If the two slices differ in length.
pub fn uniform_gain_stability_interval(a_nominal: &[f64], k_p: &[f64]) -> (f64, f64) {
    assert_eq!(a_nominal.len(), k_p.len(), "one feedback gain per device");
    let sigma: f64 = a_nominal.iter().zip(k_p).map(|(a, k)| a * k).sum();
    (1.0 - 1.0 / sigma, 1.0 + 1.0 / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearPowerModel;
    use crate::mpc::{MpcConfig, MpcController};

    fn paper_controller() -> MpcController {
        let model = LinearPowerModel::new(vec![0.06, 0.18, 0.18, 0.18], 250.0).unwrap();
        let config = MpcConfig::paper_defaults(
            vec![1000.0, 435.0, 435.0, 435.0],
            vec![2400.0, 1350.0, 1350.0, 1350.0],
        );
        MpcController::new(config, model).unwrap()
    }

    #[test]
    fn nominal_loop_is_deadbeat() {
        let c = paper_controller();
        let k_p = c.unconstrained_gains();
        assert_eq!(pole(c.model().gains(), &[1.0; 4], &k_p), 0.0);
    }

    #[test]
    fn pole_is_the_weighted_sum_of_gain_errors() {
        let a = [0.5, 0.25];
        let k_p = [0.4, 0.8];
        // K_p·A = (0.2, 0.2): π = 0.2·(1 − g₀) + 0.2·(1 − g₁).
        assert!((pole(&a, &[2.0, 1.0], &k_p) + 0.2).abs() < 1e-15);
        assert!((pole(&a, &[0.0, 0.5], &k_p) - 0.3).abs() < 1e-15);
        assert!((pole(&a, &[6.0, 1.0], &k_p) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn interval_ends_on_the_unit_circle() {
        // The paper model: s = Q̄₀·aᵀa / R_BASE with Q̄₀ = 1 and
        // R_BASE = 2·10⁻⁴, and the interval is (−1/s, 2 + 1/s).
        let c = paper_controller();
        let a = c.model().gains();
        let k_p = c.unconstrained_gains();
        let (lo, hi) = uniform_gain_stability_interval(a, &k_p);
        let s = a.iter().map(|a| a * a).sum::<f64>() / 2e-4;
        assert!((lo + 1.0 / s).abs() < 1e-12, "lo = {lo}, s = {s}");
        assert!((hi - 2.0 - 1.0 / s).abs() < 1e-12, "hi = {hi}, s = {s}");
        for g in [lo, hi] {
            let p = pole(a, &[g; 4], &k_p);
            assert!((p.abs() - 1.0).abs() < 1e-12, "|π({g})| = {}", p.abs());
        }
    }

    #[test]
    fn aggressive_law_narrows_the_interval() {
        // σ = K_p·A = 5: stable only for |1 − g| < 0.2.
        let (lo, hi) = uniform_gain_stability_interval(&[0.5], &[10.0]);
        assert!((lo - 0.8).abs() < 1e-15 && (hi - 1.2).abs() < 1e-15);
        assert!((pole(&[0.5], &[2.0], &[10.0]) + 5.0).abs() < 1e-15);
    }

    #[test]
    fn zero_gain_loop_is_stable_for_every_g() {
        let (lo, hi) = uniform_gain_stability_interval(&[0.0, 0.0], &[0.0, 0.0]);
        assert_eq!((lo, hi), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "one gain error per device")]
    fn pole_rejects_mismatched_lengths() {
        pole(&[0.1, 0.2], &[1.0], &[1.0, 1.0]);
    }
}
