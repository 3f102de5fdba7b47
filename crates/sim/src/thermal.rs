//! First-order thermal model with thermal throttling.
//!
//! The paper pins the fan speed (§5) to isolate workload-driven power
//! variation — which makes die temperature a pure function of dissipated
//! power with a first-order lag:
//!
//! ```text
//!   T(t+Δ) = T(t) + Δ/τ · (T_amb + R_th·P − T(t))
//! ```
//!
//! (`R_th` K/W thermal resistance at the fixed airflow, `τ` seconds of
//! thermal capacitance). When the die crosses `t_throttle`, real GPUs
//! clamp their clock to a low "thermal P-state" regardless of what the
//! operator requested — an actuation disturbance a robust power-capping
//! controller must survive. The model is optional per device and disabled
//! in the paper-reproduction scenarios (the V100s there run far below
//! their 83 °C throttle point at the evaluated caps).

use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// Thermal parameters of one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalSpec {
    /// Ambient (inlet) temperature, °C.
    pub ambient_c: f64,
    /// Thermal resistance die→air at the pinned fan speed, K/W.
    pub r_th_k_per_w: f64,
    /// Thermal time constant, seconds.
    pub tau_s: f64,
    /// Die temperature at which the device hard-throttles, °C.
    pub t_throttle_c: f64,
    /// Clock the device clamps to while throttling (MHz).
    pub throttle_clock_mhz: f64,
    /// Hysteresis: throttling releases at `t_throttle_c − hysteresis_c`.
    pub hysteresis_c: f64,
}

impl ThermalSpec {
    /// Validates the parameters.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] on non-physical values.
    pub fn validate(&self) -> Result<()> {
        if self.r_th_k_per_w <= 0.0
            || self.tau_s <= 0.0
            || self.throttle_clock_mhz <= 0.0
            || self.hysteresis_c < 0.0
            || self.t_throttle_c <= self.ambient_c
        {
            return Err(SimError::BadConfig("invalid thermal parameters"));
        }
        Ok(())
    }

    /// Steady-state die temperature at constant power `p_watts`.
    pub fn steady_temperature(&self, p_watts: f64) -> f64 {
        self.ambient_c + self.r_th_k_per_w * p_watts
    }
}

/// V100-class thermal parameters at a pinned mid-speed fan.
pub fn v100_thermal() -> ThermalSpec {
    ThermalSpec {
        ambient_c: 30.0,
        r_th_k_per_w: 0.20,
        tau_s: 45.0,
        t_throttle_c: 83.0,
        throttle_clock_mhz: 607.5,
        hysteresis_c: 5.0,
    }
}

/// Mutable thermal state of one device.
#[derive(Debug, Clone)]
pub struct ThermalState {
    /// Current die temperature, °C.
    pub temperature_c: f64,
    /// Whether the device is currently thermal-throttling.
    pub throttling: bool,
}

impl ThermalState {
    /// Starts at ambient, not throttling.
    pub fn new(spec: &ThermalSpec) -> Self {
        ThermalState {
            temperature_c: spec.ambient_c,
            throttling: false,
        }
    }

    /// Advances one second at dissipated power `p_watts`; returns whether
    /// the device is throttling afterwards (with hysteresis).
    pub fn step(&mut self, spec: &ThermalSpec, p_watts: f64) -> bool {
        let target = spec.steady_temperature(p_watts);
        self.temperature_c += (target - self.temperature_c) / spec.tau_s;
        if self.throttling {
            if self.temperature_c <= spec.t_throttle_c - spec.hysteresis_c {
                self.throttling = false;
            }
        } else if self.temperature_c >= spec.t_throttle_c {
            self.throttling = true;
        }
        self.throttling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(v100_thermal().validate().is_ok());
        let mut bad = v100_thermal();
        bad.r_th_k_per_w = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = v100_thermal();
        bad.t_throttle_c = 20.0; // below ambient
        assert!(bad.validate().is_err());
    }

    #[test]
    fn steady_state_math() {
        let spec = v100_thermal();
        assert_eq!(spec.steady_temperature(0.0), 30.0);
        assert_eq!(spec.steady_temperature(200.0), 70.0);
        // 265 W is the envelope: it settles exactly at the throttle point.
        assert!((spec.steady_temperature(265.0) - spec.t_throttle_c).abs() < 1e-9);
    }

    #[test]
    fn first_order_rise_and_convergence() {
        let spec = v100_thermal();
        let mut st = ThermalState::new(&spec);
        let mut prev = st.temperature_c;
        for _ in 0..300 {
            st.step(&spec, 200.0);
            assert!(st.temperature_c >= prev - 1e-9, "monotone rise");
            prev = st.temperature_c;
        }
        // Converged near the steady value.
        assert!(
            (st.temperature_c - 70.0).abs() < 0.5,
            "{}",
            st.temperature_c
        );
        assert!(!st.throttling, "200 W must not throttle a 265 W envelope");
    }

    #[test]
    fn time_constant_meaning() {
        // After τ seconds, ~63% of the step is covered.
        let spec = v100_thermal();
        let mut st = ThermalState::new(&spec);
        for _ in 0..(spec.tau_s as usize) {
            st.step(&spec, 200.0);
        }
        let frac = (st.temperature_c - 30.0) / 40.0;
        assert!((frac - 0.63).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    fn throttles_above_envelope_and_releases_with_hysteresis() {
        let spec = v100_thermal();
        let mut st = ThermalState::new(&spec);
        // 300 W > 265 W envelope → eventually throttles.
        let mut throttled_at = None;
        for s in 0..600 {
            if st.step(&spec, 300.0) {
                throttled_at = Some(s);
                break;
            }
        }
        let t_on = throttled_at.expect("must throttle");
        assert!(t_on > 30, "thermal lag should delay throttling: {t_on}");
        assert!(st.throttling);
        // Cooling at 100 W: must stay throttled until below 78 °C.
        let mut released_at = None;
        for s in 0..600 {
            if !st.step(&spec, 100.0) {
                released_at = Some(s);
                break;
            }
        }
        assert!(released_at.is_some(), "must release after cooling");
        assert!(
            st.temperature_c <= spec.t_throttle_c - spec.hysteresis_c + 0.5,
            "released at {} °C",
            st.temperature_c
        );
    }

    #[test]
    fn no_chatter_at_the_boundary() {
        // Power 1 W above the 265 W throttle envelope: hysteresis
        // prevents rapid on/off cycling.
        let spec = v100_thermal();
        let mut st = ThermalState::new(&spec);
        let mut transitions = 0;
        let mut prev = false;
        for _ in 0..2000 {
            let now = st.step(&spec, 266.0);
            if now != prev {
                transitions += 1;
            }
            prev = now;
        }
        assert!(transitions <= 1, "{transitions} throttle transitions");
    }
}
