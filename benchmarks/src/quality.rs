//! Simulated control quality: how well the loop held the set-point.
//!
//! These figures are functions of the simulation alone — for a fixed
//! seed and size they repeat to the bit, which is what lets the
//! benchmark catch a "faster simulator" that changed what is simulated.
//! A run is fed one `(power, set-point)` pair per control period;
//! [`Quality::step`] marks a set-point change.

use crate::stats::median;

/// Periods after a set-point step that count as transient: cap excess
/// is accumulated only from this period on.
const TRANSIENT_PERIODS: usize = 10;
/// Settled = within this share of the set-point …
const SETTLE_BAND: f64 = 0.02;
/// … for this many consecutive periods.
const SETTLE_RUN: usize = 3;

/// Streaming accumulator over the measured periods of one run.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    periods: u64,
    abs_err_sum: f64,
    excess_w_periods: f64,
    /// Periods since the last set-point step.
    since_step: usize,
    /// Consecutive in-band periods since the last step.
    in_band_run: usize,
    /// Whether the current step has already been scored.
    settled: bool,
    /// Any step marked yet (periods before the first are not scored for
    /// settling).
    stepped: bool,
    settle_samples: Vec<f64>,
    /// Order-sensitive digest of every `(power, set-point)` bit pattern:
    /// two runs simulated the same thing iff their digests agree.
    digest: u64,
}

impl Quality {
    /// Marks a set-point step: the next observed period is period 0 of
    /// the new level. A step that never settled scores its full length.
    pub fn step(&mut self) {
        if self.stepped && !self.settled {
            self.settle_samples.push(self.since_step as f64);
        }
        self.stepped = true;
        self.settled = false;
        self.since_step = 0;
        self.in_band_run = 0;
    }

    /// Folds one control period in.
    pub fn observe(&mut self, power_w: f64, setpoint_w: f64) {
        self.periods += 1;
        let err = power_w - setpoint_w;
        self.abs_err_sum += err.abs();
        if self.since_step >= TRANSIENT_PERIODS {
            self.excess_w_periods += err.max(0.0);
        }
        if self.stepped && !self.settled {
            if err.abs() <= SETTLE_BAND * setpoint_w {
                self.in_band_run += 1;
                if self.in_band_run == SETTLE_RUN {
                    // Settling time = periods elapsed before the run of
                    // in-band periods began.
                    self.settle_samples
                        .push((self.since_step + 1 - SETTLE_RUN) as f64);
                    self.settled = true;
                }
            } else {
                self.in_band_run = 0;
            }
        }
        self.since_step += 1;
        // FNV-1a style; folding the period index in first keeps the
        // state non-zero from the first byte on.
        self.digest = (self.digest ^ self.periods).wrapping_mul(0x0100_0000_01b3);
        for bits in [power_w.to_bits(), setpoint_w.to_bits()] {
            for b in bits.to_le_bytes() {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// Mean |p̄(k) − P_s| over all observed periods (W).
    pub fn cap_err_w(&self) -> f64 {
        self.abs_err_sum / self.periods.max(1) as f64
    }

    /// Σ max(0, p̄(k) − P_s)·T over post-transient periods (W·s).
    pub fn cap_excess_ws(&self, control_period_s: f64) -> f64 {
        self.excess_w_periods * control_period_s
    }

    /// Median settling time over the set-point steps (periods); 0 when
    /// no step was marked.
    pub fn settle_periods(&self) -> f64 {
        let mut samples = self.settle_samples.clone();
        if self.stepped && !self.settled {
            samples.push(self.since_step as f64);
        }
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_excess_and_settling_follow_their_definitions() {
        let mut q = Quality::default();
        q.step();
        // 4 periods out of band (5% high), then in band for good.
        for _ in 0..4 {
            q.observe(1050.0, 1000.0);
        }
        for _ in 0..16 {
            q.observe(1010.0, 1000.0);
        }
        assert!((q.cap_err_w() - (4.0 * 50.0 + 16.0 * 10.0) / 20.0).abs() < 1e-12);
        // Excess counts periods 10..20 only: ten periods at +10 W, T = 4 s.
        assert!((q.cap_excess_ws(4.0) - 10.0 * 10.0 * 4.0).abs() < 1e-9);
        assert_eq!(q.settle_periods(), 4.0);
    }

    #[test]
    fn a_step_that_never_settles_scores_its_length() {
        let mut q = Quality::default();
        q.step();
        for _ in 0..7 {
            q.observe(1200.0, 1000.0);
        }
        q.step();
        for _ in 0..5 {
            q.observe(1000.0, 1000.0);
        }
        // First step: 7 (censored); second: 0 → median 3.5.
        assert_eq!(q.settle_periods(), 3.5);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let run = |xs: &[f64]| {
            let mut q = Quality::default();
            for x in xs {
                q.observe(*x, 900.0);
            }
            q.digest()
        };
        assert_eq!(run(&[1.0, 2.0]), run(&[1.0, 2.0]));
        assert_ne!(run(&[1.0, 2.0]), run(&[2.0, 1.0]));
        assert_ne!(run(&[1.0]), run(&[1.0 + f64::EPSILON]));
    }
}
