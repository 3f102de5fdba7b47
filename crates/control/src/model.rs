//! The linear server power model (paper Eq. 3–7).
//!
//! `p = Σⱼ Aⱼ·f_cⱼ + Σᵢ Bᵢ·f_gᵢ + C` — the paper folds CPU and GPU gains
//! into a single coefficient row `A` over the stacked frequency vector `F`,
//! and we do the same: the model does not care which entries are CPUs.
//! Frequencies are in MHz throughout, powers in watts.

use crate::{ControlError, Result};

/// A linear power model `p = A·F + C` over a stacked frequency vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearPowerModel {
    /// Per-device gains in W/MHz (CPUs first, then GPUs, by convention).
    gains: Vec<f64>,
    /// Constant offset `C` in watts (idle/platform power).
    offset: f64,
}

impl LinearPowerModel {
    /// Creates a model from gains and offset.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] if `gains` is empty or non-finite.
    pub fn new(gains: Vec<f64>, offset: f64) -> Result<Self> {
        if gains.is_empty() {
            return Err(ControlError::BadConfig("power model needs >= 1 gain"));
        }
        if gains.iter().any(|g| !g.is_finite()) || !offset.is_finite() {
            return Err(ControlError::BadConfig(
                "power model entries must be finite",
            ));
        }
        Ok(LinearPowerModel { gains, offset })
    }

    /// Number of devices (length of the frequency vector).
    pub fn num_devices(&self) -> usize {
        self.gains.len()
    }

    /// Per-device gains in W/MHz.
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }

    /// Constant offset in watts.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Absolute prediction: `p = A·F + C` (Eq. 5).
    ///
    /// # Panics
    /// Panics if `freqs.len()` differs from the device count.
    pub fn predict(&self, freqs: &[f64]) -> f64 {
        assert_eq!(freqs.len(), self.gains.len(), "frequency vector length");
        self.offset
            + self
                .gains
                .iter()
                .zip(freqs.iter())
                .map(|(a, f)| a * f)
                .sum::<f64>()
    }

    /// Incremental prediction from the difference equation (Eq. 7):
    /// `p(k) = p(k−1) + A·ΔF(k−1)`.
    ///
    /// This is what the MPC uses — it needs no knowledge of the offset `C`
    /// and therefore tolerates slow drift in platform power.
    ///
    /// # Panics
    /// Panics if `delta_freqs.len()` differs from the device count.
    pub fn predict_delta(&self, p_prev: f64, delta_freqs: &[f64]) -> f64 {
        assert_eq!(delta_freqs.len(), self.gains.len(), "delta vector length");
        p_prev
            + self
                .gains
                .iter()
                .zip(delta_freqs.iter())
                .map(|(a, d)| a * d)
                .sum::<f64>()
    }

    /// The achievable power range `[p_min, p_max]` over a frequency box,
    /// per the model. Feasibility of a set point is checked against this
    /// (paper §4.4 assumes the constrained problem is feasible).
    ///
    /// # Panics
    /// Panics if bound lengths differ from the device count.
    pub fn achievable_range(&self, f_min: &[f64], f_max: &[f64]) -> (f64, f64) {
        assert_eq!(f_min.len(), self.gains.len());
        assert_eq!(f_max.len(), self.gains.len());
        let mut lo = self.offset;
        let mut hi = self.offset;
        for ((a, &fl), &fh) in self.gains.iter().zip(f_min.iter()).zip(f_max.iter()) {
            // A negative gain would swap which end is min/max; handle both.
            let (p_lo, p_hi) = if *a >= 0.0 {
                (a * fl, a * fh)
            } else {
                (a * fh, a * fl)
            };
            lo += p_lo;
            hi += p_hi;
        }
        (lo, hi)
    }

    /// Returns a copy with each gain multiplied by `g[i]` — the perturbed
    /// "actual" model `A' = g∘A` of the stability analysis (§4.4).
    ///
    /// # Panics
    /// Panics if `g.len()` differs from the device count.
    pub fn perturbed(&self, g: &[f64]) -> LinearPowerModel {
        assert_eq!(g.len(), self.gains.len(), "perturbation vector length");
        LinearPowerModel {
            gains: self
                .gains
                .iter()
                .zip(g.iter())
                .map(|(a, gi)| a * gi)
                .collect(),
            offset: self.offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LinearPowerModel {
        // One CPU at 0.06 W/MHz, two GPUs at 0.18 W/MHz, 250 W platform.
        LinearPowerModel::new(vec![0.06, 0.18, 0.18], 250.0).unwrap()
    }

    #[test]
    fn absolute_prediction() {
        let m = model();
        let p = m.predict(&[2000.0, 900.0, 900.0]);
        assert!((p - (250.0 + 120.0 + 162.0 + 162.0)).abs() < 1e-9);
    }

    #[test]
    fn difference_equation_matches_absolute() {
        let m = model();
        let f0 = [2000.0, 900.0, 900.0];
        let f1 = [1800.0, 1000.0, 700.0];
        let p0 = m.predict(&f0);
        let delta: Vec<f64> = f1.iter().zip(f0.iter()).map(|(a, b)| a - b).collect();
        let p1_delta = m.predict_delta(p0, &delta);
        assert!((p1_delta - m.predict(&f1)).abs() < 1e-9);
    }

    #[test]
    fn achievable_range() {
        let m = model();
        let (lo, hi) = m.achievable_range(&[1000.0, 400.0, 400.0], &[2400.0, 1350.0, 1350.0]);
        assert!((lo - (250.0 + 60.0 + 72.0 + 72.0)).abs() < 1e-9);
        assert!((hi - (250.0 + 144.0 + 243.0 + 243.0)).abs() < 1e-9);
        assert!(lo < hi);
    }

    #[test]
    fn achievable_range_negative_gain() {
        let m = LinearPowerModel::new(vec![-1.0], 10.0).unwrap();
        let (lo, hi) = m.achievable_range(&[0.0], &[5.0]);
        assert_eq!((lo, hi), (5.0, 10.0));
    }

    #[test]
    fn perturbation_scales_gains() {
        let m = model().perturbed(&[2.0, 0.5, 1.0]);
        assert_eq!(m.gains(), &[0.12, 0.09, 0.18]);
        assert_eq!(m.offset(), 250.0);
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(LinearPowerModel::new(vec![], 0.0).is_err());
        assert!(LinearPowerModel::new(vec![f64::NAN], 0.0).is_err());
        assert!(LinearPowerModel::new(vec![1.0], f64::INFINITY).is_err());
    }

    #[test]
    #[should_panic(expected = "frequency vector length")]
    fn predict_length_checked() {
        let _ = model().predict(&[1.0]);
    }
}
