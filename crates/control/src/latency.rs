//! The frequency–latency model and SLO constraint reduction (paper Eq. 8,
//! constraints 10b/10c).
//!
//! `e(f) = e_min · (f_max / f)^γ` with an empirically fitted γ (the paper
//! uses γ = 0.91, R² ≈ 0.91). The SLO constraint `e(f) ≤ SLO` inverts
//! analytically into a **frequency floor**
//!
//! ```text
//!   f ≥ f_max · (e_min / SLO)^(1/γ)
//! ```
//!
//! which is how the MPC enforces SLOs as linear constraints.

use capgpu_linalg::lstsq;

use crate::{ControlError, Result};

/// The power-law latency model of one inference task on one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Minimum latency at `f_max` (seconds per batch).
    pub e_min: f64,
    /// Empirical frequency-scaling exponent γ.
    pub gamma: f64,
    /// Maximum GPU frequency (MHz).
    pub f_max: f64,
}

impl LatencyModel {
    /// Creates a model; validates positivity.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] for non-positive parameters.
    pub fn new(e_min: f64, gamma: f64, f_max: f64) -> Result<Self> {
        if e_min <= 0.0 || gamma <= 0.0 || f_max <= 0.0 {
            return Err(ControlError::BadConfig(
                "latency model parameters must be positive",
            ));
        }
        Ok(LatencyModel {
            e_min,
            gamma,
            f_max,
        })
    }

    /// Predicted latency at frequency `f` (Eq. 8 / constraint 10b).
    ///
    /// # Panics
    /// Panics (debug) if `f <= 0`.
    pub fn latency(&self, f: f64) -> f64 {
        debug_assert!(f > 0.0, "frequency must be positive");
        self.e_min * (self.f_max / f).powf(self.gamma)
    }

    /// The frequency floor implied by an SLO (inversion of 10b into 10c):
    /// the smallest `f` with `latency(f) ≤ slo`.
    ///
    /// # Errors
    /// [`ControlError::Infeasible`] if the SLO is tighter than `e_min`
    /// (unreachable even at `f_max`).
    pub fn frequency_floor(&self, slo: f64) -> Result<f64> {
        if slo <= 0.0 {
            return Err(ControlError::BadConfig("SLO must be positive"));
        }
        if slo < self.e_min {
            return Err(ControlError::Infeasible(
                "SLO below minimum achievable latency",
            ));
        }
        Ok(self.f_max * (self.e_min / slo).powf(1.0 / self.gamma))
    }

    /// Fits a model from `(frequency, latency)` samples by log-space
    /// regression (how Fig. 2b was produced).
    ///
    /// # Errors
    /// Propagates regression failures (fewer than 2 samples, identical
    /// frequencies, …) as [`ControlError::Linalg`].
    pub fn fit(freqs: &[f64], latencies: &[f64], f_max: f64) -> Result<(Self, f64)> {
        let (e_min, gamma, r2) =
            lstsq::fit_latency_power_law(freqs, latencies, f_max).map_err(ControlError::Linalg)?;
        Ok((LatencyModel::new(e_min, gamma, f_max)?, r2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        // Paper-scale numbers: 50 ms/batch at 1350 MHz, γ = 0.91.
        LatencyModel::new(0.05, 0.91, 1350.0).unwrap()
    }

    #[test]
    fn latency_at_fmax_is_emin() {
        let m = model();
        assert!((m.latency(1350.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn latency_increases_as_frequency_drops() {
        let m = model();
        assert!(m.latency(675.0) > m.latency(1350.0));
        // Exact value: 0.05 · 2^0.91
        assert!((m.latency(675.0) - 0.05 * 2.0_f64.powf(0.91)).abs() < 1e-12);
    }

    #[test]
    fn frequency_floor_inverts_latency() {
        let m = model();
        let slo = 0.08;
        let floor = m.frequency_floor(slo).unwrap();
        // Latency at the floor equals the SLO exactly.
        assert!((m.latency(floor) - slo).abs() < 1e-9);
        // And any higher frequency is strictly better.
        assert!(m.latency(floor + 1.0) < slo);
    }

    #[test]
    fn floor_at_exact_emin_is_fmax() {
        let m = model();
        let floor = m.frequency_floor(0.05).unwrap();
        assert!((floor - 1350.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_slo_is_infeasible() {
        let m = model();
        assert!(matches!(
            m.frequency_floor(0.04).unwrap_err(),
            ControlError::Infeasible(_)
        ));
        assert!(matches!(
            m.frequency_floor(0.0).unwrap_err(),
            ControlError::BadConfig(_)
        ));
    }

    #[test]
    fn fit_recovers_model() {
        let truth = model();
        let freqs: Vec<f64> = (0..10).map(|i| 435.0 + 100.0 * i as f64).collect();
        let lats: Vec<f64> = freqs.iter().map(|&f| truth.latency(f)).collect();
        let (fitted, r2) = LatencyModel::fit(&freqs, &lats, 1350.0).unwrap();
        assert!((fitted.e_min - 0.05).abs() < 1e-6);
        assert!((fitted.gamma - 0.91).abs() < 1e-6);
        assert!(r2 > 0.99999);
    }

    #[test]
    fn fit_with_noise_keeps_reasonable_r2() {
        // The paper reports R² ≈ 0.91 for its latency fit.
        let truth = model();
        let freqs: Vec<f64> = (0..20).map(|i| 435.0 + 48.0 * i as f64).collect();
        let lats: Vec<f64> = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| truth.latency(f) * (1.0 + 0.05 * ((i as f64) * 1.7).sin()))
            .collect();
        let (fitted, r2) = LatencyModel::fit(&freqs, &lats, 1350.0).unwrap();
        assert!(r2 > 0.85, "R² = {r2}");
        assert!((fitted.gamma - 0.91).abs() < 0.15);
    }

    #[test]
    fn validation() {
        assert!(LatencyModel::new(0.0, 0.91, 1350.0).is_err());
        assert!(LatencyModel::new(0.05, -1.0, 1350.0).is_err());
        assert!(LatencyModel::new(0.05, 0.91, 0.0).is_err());
    }
}
