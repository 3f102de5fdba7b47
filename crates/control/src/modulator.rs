//! First-order delta-sigma frequency modulation (paper §5).
//!
//! "Since the new CPU and GPU frequency levels received from the controller
//! are floating-point (fractional) values, the modulator code locally
//! resolves them into a sequence of discrete frequency levels to
//! approximate the target value. … by toggling between the values 2, 2, 2,
//! and 3, the time-averaged frequency converges to the desired value."
//!
//! The modulator keeps a running quantization-error accumulator; each
//! period it emits the discrete level that drives the accumulated error
//! toward zero. The emitted sequence's time average converges to the
//! target, and the accumulator stays bounded by half the local level gap —
//! both properties are enforced by tests (including proptests).

use crate::{ControlError, Result};

/// A first-order delta-sigma modulator over a fixed discrete level table.
#[derive(Debug, Clone)]
pub struct DeltaSigmaModulator {
    /// Ascending discrete levels (e.g. supported clock frequencies, MHz).
    levels: Vec<f64>,
    /// Accumulated error: Σ(target − emitted).
    accumulator: f64,
}

impl DeltaSigmaModulator {
    /// Creates a modulator over an ascending, deduplicated level table.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] when fewer than one level is given or
    /// the table is not strictly ascending.
    pub fn new(levels: Vec<f64>) -> Result<Self> {
        if levels.is_empty() {
            return Err(ControlError::BadConfig("modulator needs >= 1 level"));
        }
        if levels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ControlError::BadConfig(
                "modulator levels must be strictly ascending",
            ));
        }
        Ok(DeltaSigmaModulator {
            levels,
            accumulator: 0.0,
        })
    }

    /// The level table.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Current accumulated error.
    pub fn accumulator(&self) -> f64 {
        self.accumulator
    }

    /// Resets the error accumulator (e.g. on a set-point change).
    pub fn reset(&mut self) {
        self.accumulator = 0.0;
    }

    /// Emits the next discrete level for a fractional `target`.
    ///
    /// The compensated value `target + accumulator` is quantized to the
    /// nearest level; the quantization error is carried forward so the
    /// running average of emitted levels converges to the (clamped) target.
    pub fn next_level(&mut self, target: f64) -> f64 {
        self.next_level_with_carry(target).0
    }

    /// [`next_level`](DeltaSigmaModulator::next_level), also reporting
    /// whether the carried error changed the emitted level — i.e. the
    /// accumulator "wrapped" and pushed the output off the plain nearest
    /// level of the clamped target (the paper's toggle to 3 in the
    /// 2, 2, 2, 3 sequence). Telemetry journals these wraps; the flag
    /// does not alter the emitted sequence.
    pub fn next_level_with_carry(&mut self, target: f64) -> (f64, bool) {
        let clamped = target.clamp(self.levels[0], *self.levels.last().expect("non-empty"));
        let wanted = clamped + self.accumulator;
        let emitted = self.nearest_level(wanted);
        let wrapped = emitted != self.nearest_level(clamped);
        self.accumulator += clamped - emitted;
        (emitted, wrapped)
    }

    /// Nearest level to `x` (ties resolve to the lower level).
    fn nearest_level(&self, x: f64) -> f64 {
        match self
            .levels
            .binary_search_by(|l| l.partial_cmp(&x).expect("no NaN levels"))
        {
            Ok(i) => self.levels[i],
            Err(0) => self.levels[0],
            Err(i) if i == self.levels.len() => self.levels[i - 1],
            Err(i) => {
                let lo = self.levels[i - 1];
                let hi = self.levels[i];
                if x - lo <= hi - x {
                    lo
                } else {
                    hi
                }
            }
        }
    }
}

/// Builds a uniform level table `start, start+step, …, ≤ end`.
///
/// # Errors
/// [`ControlError::BadConfig`] for non-positive step or start > end.
pub fn uniform_levels(start: f64, end: f64, step: f64) -> Result<Vec<f64>> {
    if step <= 0.0 || start > end {
        return Err(ControlError::BadConfig("bad uniform level parameters"));
    }
    let mut levels = Vec::new();
    let mut v = start;
    let n = ((end - start) / step).floor() as usize;
    for _ in 0..=n {
        levels.push(v);
        v += step;
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2ghz_toggling() {
        // The paper's example: approximate 2.25 GHz with levels {2, 3} GHz →
        // the sequence should average 2.25 by emitting 3 every 4th period.
        let mut m = DeltaSigmaModulator::new(vec![2000.0, 3000.0]).unwrap();
        let emitted: Vec<f64> = (0..8).map(|_| m.next_level(2250.0)).collect();
        let avg: f64 = emitted.iter().sum::<f64>() / emitted.len() as f64;
        assert!(
            (avg - 2250.0).abs() < 1e-9,
            "avg = {avg}, seq = {emitted:?}"
        );
        let threes = emitted.iter().filter(|&&v| v == 3000.0).count();
        assert_eq!(threes, 2, "expected 2 high emissions in 8 periods");
    }

    #[test]
    fn time_average_converges() {
        let levels = uniform_levels(435.0, 1350.0, 15.0).unwrap();
        let mut m = DeltaSigmaModulator::new(levels).unwrap();
        let target = 662.4; // not on the grid
        let n = 1000;
        let sum: f64 = (0..n).map(|_| m.next_level(target)).sum();
        let avg = sum / n as f64;
        assert!((avg - target).abs() < 0.1, "avg = {avg}");
    }

    #[test]
    fn accumulator_stays_bounded() {
        let levels = uniform_levels(0.0, 100.0, 10.0).unwrap();
        let mut m = DeltaSigmaModulator::new(levels).unwrap();
        for i in 0..500 {
            let target = 50.0 + 37.0 * ((i as f64) * 0.13).sin();
            m.next_level(target);
            // The 10-unit level spacing bounds the accumulated error.
            assert!(
                m.accumulator().abs() <= 10.0,
                "accumulator {} exceeds gap",
                m.accumulator()
            );
        }
    }

    #[test]
    fn exact_level_passes_through() {
        let mut m = DeltaSigmaModulator::new(vec![100.0, 200.0, 300.0]).unwrap();
        for _ in 0..5 {
            assert_eq!(m.next_level(200.0), 200.0);
        }
        assert_eq!(m.accumulator(), 0.0);
    }

    #[test]
    fn clamps_out_of_range_targets() {
        let mut m = DeltaSigmaModulator::new(vec![100.0, 200.0]).unwrap();
        assert_eq!(m.next_level(50.0), 100.0);
        m.reset();
        assert_eq!(m.next_level(500.0), 200.0);
        // Clamped target leaves no residual error accumulation beyond range.
        m.reset();
        for _ in 0..10 {
            m.next_level(500.0);
        }
        assert!(m.accumulator().abs() < 1e-9);
    }

    #[test]
    fn carry_wraps_flag_the_off_nearest_emissions() {
        // 2.25 GHz over {2, 3} GHz: the nearest level of the raw target
        // is always 2 GHz, so exactly the carry-driven 3 GHz emissions
        // (2 in 8 periods) report a wrap.
        let mut m = DeltaSigmaModulator::new(vec![2000.0, 3000.0]).unwrap();
        let mut plain = DeltaSigmaModulator::new(vec![2000.0, 3000.0]).unwrap();
        let mut wraps = 0;
        for _ in 0..8 {
            let (level, wrapped) = m.next_level_with_carry(2250.0);
            assert_eq!(level, plain.next_level(2250.0), "sequence unchanged");
            assert_eq!(wrapped, level == 3000.0);
            wraps += usize::from(wrapped);
        }
        assert_eq!(wraps, 2);
        // An on-grid target never wraps.
        m.reset();
        for _ in 0..5 {
            assert_eq!(m.next_level_with_carry(2000.0), (2000.0, false));
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut m = DeltaSigmaModulator::new(vec![0.0, 10.0]).unwrap();
        m.next_level(3.0);
        assert!(m.accumulator() != 0.0);
        m.reset();
        assert_eq!(m.accumulator(), 0.0);
    }

    #[test]
    fn single_level_table() {
        let mut m = DeltaSigmaModulator::new(vec![1000.0]).unwrap();
        assert_eq!(m.next_level(1234.0), 1000.0);
    }

    #[test]
    fn validation() {
        assert!(DeltaSigmaModulator::new(vec![]).is_err());
        assert!(DeltaSigmaModulator::new(vec![2.0, 1.0]).is_err());
        assert!(DeltaSigmaModulator::new(vec![1.0, 1.0]).is_err());
        assert!(uniform_levels(10.0, 0.0, 1.0).is_err());
        assert!(uniform_levels(0.0, 10.0, 0.0).is_err());
    }

    #[test]
    fn uniform_levels_includes_endpoints() {
        let l = uniform_levels(435.0, 1350.0, 15.0).unwrap();
        assert_eq!(l[0], 435.0);
        assert_eq!(*l.last().unwrap(), 1350.0);
        assert_eq!(l.len(), 62);
    }
}
