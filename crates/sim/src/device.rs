//! Device models: ground-truth power laws the controller never sees.
//!
//! Each device's electrical power is
//!
//! ```text
//!   P(f, u) = idle + gain·f·(α + (1−α)·u) + quad·(f − f_quad_ref)²
//! ```
//!
//! * `idle` — leakage + uncore power that does not scale with the core
//!   clock (the fan is held constant per the paper's §5 methodology and
//!   lives in the server-level platform power instead).
//! * `gain·f·(α + (1−α)·u)` — the dominant linear-in-frequency dynamic
//!   power, modulated by utilization `u ∈ [0, 1]`. `α` is the fraction of
//!   clock-proportional power burned even when idle (clock tree, memory
//!   controller). The paper's linear model (Eq. 3) is this term at steady
//!   utilization.
//! * `quad·(f − ref)²` — a small super-linear term (voltage rises with
//!   frequency at the top of the V/F curve), which is what keeps the
//!   identified linear model at R² ≈ 0.96 instead of 1.0.

use serde::{Deserialize, Serialize};

use crate::freq::FrequencyTable;
use crate::{Result, SimError};

/// CPU vs GPU — affects nothing in the power math, but controllers group
/// devices by kind (e.g. GPU-Only actuates only GPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A host CPU package (DVFS via `cpupower`-like actuation).
    Cpu,
    /// A discrete GPU (core-clock actuation via `nvidia-smi`-like API).
    Gpu,
}

/// Ground-truth power law of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerLaw {
    /// Frequency-independent floor (W).
    pub idle_watts: f64,
    /// Linear coefficient (W/MHz) at full utilization.
    pub gain_w_per_mhz: f64,
    /// Fraction of clock-proportional power present at zero utilization.
    pub util_floor: f64,
    /// Quadratic coefficient (W/MHz²), small.
    pub quad_w_per_mhz2: f64,
    /// Frequency at which the quadratic term is zero (MHz).
    pub quad_ref_mhz: f64,
}

impl PowerLaw {
    /// Power at frequency `f_mhz` and utilization `util ∈ [0, 1]`.
    pub fn power(&self, f_mhz: f64, util: f64) -> f64 {
        let u = util.clamp(0.0, 1.0);
        let dyn_scale = self.util_floor + (1.0 - self.util_floor) * u;
        let quad = {
            let d = f_mhz - self.quad_ref_mhz;
            self.quad_w_per_mhz2 * d * d
        };
        self.idle_watts + self.gain_w_per_mhz * f_mhz * dyn_scale + quad
    }

    fn validate(&self) -> Result<()> {
        if self.idle_watts < 0.0
            || self.gain_w_per_mhz <= 0.0
            || !(0.0..=1.0).contains(&self.util_floor)
            || self.quad_w_per_mhz2 < 0.0
            || self.quad_ref_mhz < 0.0
        {
            return Err(SimError::BadConfig("invalid power law parameters"));
        }
        Ok(())
    }
}

/// Full specification of one device in the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable model name (e.g. "Tesla V100-PCIE-16GB").
    pub name: String,
    /// CPU or GPU.
    pub kind: DeviceKind,
    /// Supported discrete clocks.
    pub freq_table: FrequencyTable,
    /// Ground-truth power law.
    pub power_law: PowerLaw,
    /// Optional thermal model (None = ideal cooling, never throttles).
    pub thermal: Option<crate::thermal::ThermalSpec>,
}

impl DeviceSpec {
    /// Validates the spec.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] on invalid parameters.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(SimError::BadConfig("device needs a name"));
        }
        if let Some(th) = &self.thermal {
            th.validate()?;
        }
        self.power_law.validate()
    }

    /// Peak power draw (max frequency, util 1).
    pub fn peak_watts(&self) -> f64 {
        self.power_law.power(self.freq_table.max(), 1.0)
    }

    /// Minimum busy power draw (min frequency, util 1).
    pub fn min_busy_watts(&self) -> f64 {
        self.power_law.power(self.freq_table.min(), 1.0)
    }
}

/// Mutable runtime state of a device inside the server.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// The applied (quantized) frequency in MHz.
    pub applied_mhz: f64,
    /// The last requested target in MHz (before quantization).
    pub target_mhz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_law() -> PowerLaw {
        PowerLaw {
            idle_watts: 50.0,
            gain_w_per_mhz: 0.1415,
            util_floor: 0.35,
            quad_w_per_mhz2: 5.0e-6,
            quad_ref_mhz: 800.0,
        }
    }

    #[test]
    fn power_monotone_in_frequency_and_util() {
        let law = v100_law();
        assert!(law.power(1350.0, 1.0) > law.power(435.0, 1.0));
        assert!(law.power(1000.0, 1.0) > law.power(1000.0, 0.0));
    }

    #[test]
    fn util_is_clamped() {
        let law = v100_law();
        assert_eq!(law.power(1000.0, 2.0), law.power(1000.0, 1.0));
        assert_eq!(law.power(1000.0, -1.0), law.power(1000.0, 0.0));
    }

    #[test]
    fn v100_scale_power_numbers() {
        // Peak should land in the ~250 W envelope of a V100 under load.
        let law = v100_law();
        let peak = law.power(1350.0, 1.0);
        assert!((230.0..265.0).contains(&peak), "peak {peak}");
        let idle_floor = law.power(435.0, 0.0);
        assert!((60.0..90.0).contains(&idle_floor), "idle {idle_floor}");
    }

    #[test]
    fn quad_term_bends_the_curve() {
        let law = v100_law();
        // Secant slope above the reference exceeds the one below it.
        let lo_slope = (law.power(800.0, 1.0) - law.power(600.0, 1.0)) / 200.0;
        let hi_slope = (law.power(1350.0, 1.0) - law.power(1150.0, 1.0)) / 200.0;
        assert!(hi_slope > lo_slope);
    }

    #[test]
    fn spec_validation() {
        let spec = DeviceSpec {
            name: "test".into(),
            kind: DeviceKind::Gpu,
            freq_table: FrequencyTable::uniform(435.0, 1350.0, 15.0).unwrap(),
            power_law: v100_law(),
            thermal: None,
        };
        assert!(spec.validate().is_ok());
        assert!(spec.peak_watts() > spec.min_busy_watts());

        let mut bad = spec.clone();
        bad.name.clear();
        assert!(bad.validate().is_err());

        let mut bad = spec.clone();
        bad.power_law.gain_w_per_mhz = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = spec;
        bad.power_law.util_floor = 1.5;
        assert!(bad.validate().is_err());
    }
}
