//! Pole-placed proportional control — the GPU-Only / CPU-Only baselines.
//!
//! The paper's GPU-Only baseline "uses a proportional controller … the gain
//! for this controller is determined by pole placement and choosing the one
//! that minimizes oscillations" (§6.1, after OptimML \[4\]); CPU-Only uses
//! the same logic on the CPU DVFS knob (after IBM server-level power
//! control \[14\]).
//!
//! With the incremental plant `p(k) = p(k−1) + a·Δf(k−1)` (where `a` is the
//! summed W/MHz gain of every device the shared knob moves) and the control
//! law `Δf(k) = K·(P_s − p(k))`, the closed loop is
//!
//! ```text
//!   p(k) = (1 − a·K)·p(k−1) + a·K·P_s
//! ```
//!
//! with a single pole at `z = 1 − a·K`. Placing the pole at `π ∈ [0, 1)`
//! gives `K = (1 − π)/a`: `π = 0` is deadbeat (one-period convergence on a
//! perfect model), larger `π` trades speed for robustness to model error.

use crate::{ControlError, Result};

/// A pole-placed proportional power controller driving one shared knob.
#[derive(Debug, Clone)]
pub struct ProportionalController {
    /// Control gain `K` in MHz/W.
    gain: f64,
    /// Shared-knob minimum frequency (MHz).
    f_min: f64,
    /// Shared-knob maximum frequency (MHz).
    f_max: f64,
}

impl ProportionalController {
    /// Creates a controller with an explicit gain.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] on non-positive gain or empty range.
    pub fn new(gain: f64, f_min: f64, f_max: f64) -> Result<Self> {
        if gain <= 0.0 || !gain.is_finite() {
            return Err(ControlError::BadConfig(
                "proportional gain must be positive",
            ));
        }
        if f_min >= f_max {
            return Err(ControlError::BadConfig("need f_min < f_max"));
        }
        Ok(ProportionalController { gain, f_min, f_max })
    }

    /// Creates a controller by pole placement: `K = (1 − pole)/plant_gain`.
    ///
    /// `plant_gain` is the summed W/MHz sensitivity of all devices the knob
    /// moves; `pole ∈ [0, 1)` is the desired closed-loop pole.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] for a non-positive plant gain or a pole
    /// outside `[0, 1)`.
    pub fn pole_placed(plant_gain: f64, pole: f64, f_min: f64, f_max: f64) -> Result<Self> {
        if plant_gain <= 0.0 {
            return Err(ControlError::BadConfig("plant gain must be positive"));
        }
        if !(0.0..1.0).contains(&pole) {
            return Err(ControlError::BadConfig("pole must lie in [0, 1)"));
        }
        Self::new((1.0 - pole) / plant_gain, f_min, f_max)
    }

    /// One control period: returns the new shared frequency target given
    /// the measured power, the set point and the current frequency,
    /// saturated at the knob's range.
    pub fn step(&self, p_measured: f64, setpoint: f64, current_freq: f64) -> f64 {
        let delta = self.gain * (setpoint - p_measured);
        (current_freq + delta).clamp(self.f_min, self.f_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed-loop pole `z = 1 − a·K` that `c` realizes on a plant of
    /// actual gain `a`. Stable iff `|z| < 1`.
    fn closed_loop_pole(c: &ProportionalController, a: f64) -> f64 {
        1.0 - a * c.gain
    }

    #[test]
    fn pole_placement_math() {
        // 3 GPUs at 0.18 W/MHz share one knob: a = 0.54 W/MHz.
        let c = ProportionalController::pole_placed(0.54, 0.5, 435.0, 1350.0).unwrap();
        assert!((c.gain - (0.5 / 0.54)).abs() < 1e-12);
        assert!((closed_loop_pole(&c, 0.54) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deadbeat_converges_in_one_step_on_perfect_model() {
        let a = 0.54;
        let c = ProportionalController::pole_placed(a, 0.0, 0.0, 10_000.0).unwrap();
        let f0 = 800.0;
        let p0 = 400.0;
        let setpoint = 454.0; // 54 W above → needs +100 MHz
        let f1 = c.step(p0, setpoint, f0);
        let p1 = p0 + a * (f1 - f0);
        assert!((p1 - setpoint).abs() < 1e-9);
    }

    #[test]
    fn geometric_convergence_with_nonzero_pole() {
        let a = 0.54;
        let pole = 0.5;
        let c = ProportionalController::pole_placed(a, pole, 0.0, 10_000.0).unwrap();
        let setpoint = 900.0;
        let mut f = 500.0_f64;
        let mut p = 700.0_f64;
        let mut prev_err = (p - setpoint).abs();
        for _ in 0..10 {
            let f_new = c.step(p, setpoint, f);
            p += a * (f_new - f);
            f = f_new;
            let err = (p - setpoint).abs();
            assert!(err <= pole * prev_err + 1e-9, "err {err} prev {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 0.5);
    }

    #[test]
    fn saturates_at_range() {
        let c = ProportionalController::new(10.0, 435.0, 1350.0).unwrap();
        assert_eq!(c.step(0.0, 1_000.0, 1_000.0), 1350.0);
        assert_eq!(c.step(2_000.0, 0.0, 1_000.0), 435.0);
    }

    #[test]
    fn stability_boundary() {
        // Gain double the deadbeat value → pole at −1 (marginally unstable).
        let a = 0.5;
        let c = ProportionalController::new(2.0 / a * 2.0, 0.0, 1.0e6).unwrap();
        assert!(closed_loop_pole(&c, a) <= -1.0);
        // Pole-placed design stays stable for plant gain up to 2× nominal.
        let c = ProportionalController::pole_placed(a, 0.5, 0.0, 1.0e6).unwrap();
        assert!(closed_loop_pole(&c, a * 1.9).abs() < 1.0);
        assert!(closed_loop_pole(&c, a * 4.1).abs() > 1.0);
    }

    #[test]
    fn validation() {
        assert!(ProportionalController::new(0.0, 0.0, 1.0).is_err());
        assert!(ProportionalController::new(1.0, 1.0, 1.0).is_err());
        assert!(ProportionalController::pole_placed(0.0, 0.5, 0.0, 1.0).is_err());
        assert!(ProportionalController::pole_placed(1.0, 1.0, 0.0, 1.0).is_err());
        assert!(ProportionalController::pole_placed(1.0, -0.1, 0.0, 1.0).is_err());
    }
}
