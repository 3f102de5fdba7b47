//! Discrete frequency (P-state / clock) tables.
//!
//! Real DVFS interfaces only accept discrete operating points: `cpupower`
//! exposes ACPI P-states in ~100 MHz steps, `nvidia-smi -ac` accepts only
//! clocks from the GPU's supported-clocks list (multiples of 7.5/15 MHz on
//! Volta). The paper's delta-sigma modulator exists precisely because of
//! this quantization; the simulator reproduces it faithfully.

use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// An ascending table of supported frequencies (MHz).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyTable {
    levels: Vec<f64>,
}

impl FrequencyTable {
    /// Creates a table from ascending levels.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] when empty or not strictly ascending.
    pub fn new(levels: Vec<f64>) -> Result<Self> {
        if levels.is_empty() {
            return Err(SimError::BadConfig("frequency table is empty"));
        }
        if levels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SimError::BadConfig(
                "frequency table must be strictly ascending",
            ));
        }
        if levels.iter().any(|f| *f <= 0.0 || !f.is_finite()) {
            return Err(SimError::BadConfig("frequencies must be positive finite"));
        }
        Ok(FrequencyTable { levels })
    }

    /// Uniformly spaced table `min..=max` in `step` MHz increments.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] on a non-positive step or inverted range.
    pub fn uniform(min_mhz: f64, max_mhz: f64, step_mhz: f64) -> Result<Self> {
        if step_mhz <= 0.0 || min_mhz > max_mhz || min_mhz <= 0.0 {
            return Err(SimError::BadConfig("bad uniform frequency range"));
        }
        let n = ((max_mhz - min_mhz) / step_mhz).floor() as usize;
        let levels = (0..=n).map(|i| min_mhz + i as f64 * step_mhz).collect();
        FrequencyTable::new(levels)
    }

    /// Supported levels.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Lowest supported frequency.
    pub fn min(&self) -> f64 {
        self.levels[0]
    }

    /// Highest supported frequency.
    pub fn max(&self) -> f64 {
        *self.levels.last().expect("non-empty")
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Always false (construction forbids empty tables).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Quantizes a target to the nearest supported level (ties prefer the
    /// lower level, matching how `nvidia-smi` rounds requested clocks).
    pub fn quantize(&self, target_mhz: f64) -> f64 {
        let clamped = target_mhz.clamp(self.min(), self.max());
        match self
            .levels
            .binary_search_by(|l| l.partial_cmp(&clamped).expect("no NaN"))
        {
            Ok(i) => self.levels[i],
            Err(0) => self.levels[0],
            Err(i) if i == self.levels.len() => self.max(),
            Err(i) => {
                let lo = self.levels[i - 1];
                let hi = self.levels[i];
                if clamped - lo <= hi - clamped {
                    lo
                } else {
                    hi
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_table_endpoints() {
        let t = FrequencyTable::uniform(435.0, 1350.0, 15.0).unwrap();
        assert_eq!(t.min(), 435.0);
        assert_eq!(t.max(), 1350.0);
        assert_eq!(t.len(), 62);
    }

    #[test]
    fn quantize_nearest() {
        let t = FrequencyTable::uniform(100.0, 200.0, 50.0).unwrap(); // 100,150,200
        assert_eq!(t.quantize(100.0), 100.0);
        assert_eq!(t.quantize(120.0), 100.0);
        assert_eq!(t.quantize(126.0), 150.0);
        assert_eq!(t.quantize(125.0), 100.0); // tie -> lower
        assert_eq!(t.quantize(0.0), 100.0);
        assert_eq!(t.quantize(1e9), 200.0);
    }

    #[test]
    fn validation() {
        assert!(FrequencyTable::new(vec![]).is_err());
        assert!(FrequencyTable::new(vec![2.0, 1.0]).is_err());
        assert!(FrequencyTable::new(vec![1.0, 1.0]).is_err());
        assert!(FrequencyTable::new(vec![-1.0, 1.0]).is_err());
        assert!(FrequencyTable::uniform(200.0, 100.0, 10.0).is_err());
        assert!(FrequencyTable::uniform(100.0, 200.0, 0.0).is_err());
    }

    #[test]
    fn single_level() {
        let t = FrequencyTable::new(vec![877.0]).unwrap();
        assert_eq!(t.quantize(1000.0), 877.0);
    }

    #[test]
    fn clone_and_eq() {
        let t = FrequencyTable::uniform(435.0, 1350.0, 15.0).unwrap();
        let u = t.clone();
        assert_eq!(t, u);
    }
}
