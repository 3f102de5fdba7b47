//! ACPI-style server power meter.
//!
//! Models the `power_meter-acpi-0` interface the paper reads through
//! lm-sensors (§5): a device that samples total server power once per
//! second and appends readings the controller averages over each control
//! period. Sensor noise is Gaussian; fault injection covers dropouts
//! (no reading) and additive bias drift (the telemetry-fault family of
//! the `capgpu-faults` subsystem).

use std::collections::VecDeque;

use crate::{Result, SimError};

/// Samples a server power meter keeps, at one a second: the simulated
/// meter's ring and the live backends' history alike. An average can
/// reach back no further, so no control period may be longer.
pub const METER_HISTORY_SAMPLES: usize = 1024;

/// Injected meter fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeterFault {
    /// Meter returns no sample.
    Dropout,
    /// Meter reads high/low by a constant offset plus a linear drift
    /// (sensor decalibration): the reported sample is
    /// `true + noise + watts + drift_w_per_s · age`, where `age` counts
    /// seconds since the fault was injected.
    Bias {
        /// Constant additive offset (W; negative reads low).
        watts: f64,
        /// Additional drift per second of fault age (W/s).
        drift_w_per_s: f64,
    },
}

/// The server-level power meter.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    /// Gaussian sensor noise standard deviation (W).
    noise_std: f64,
    /// Ring buffer of recent samples.
    samples: VecDeque<f64>,
    /// Maximum retained samples.
    capacity: usize,
    /// Active fault, if any.
    fault: Option<MeterFault>,
    /// Total samples taken (including faulted periods).
    total_samples: u64,
    /// Seconds since the active fault was injected (drives bias drift).
    fault_age_s: u64,
    /// `total_samples` at the most recent *successful* record, for
    /// sample-age queries ([`PowerMeter::seconds_since_last_sample`]).
    last_recorded_at: Option<u64>,
}

impl PowerMeter {
    /// Creates a meter with the given noise level, retaining `capacity`
    /// samples.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] on negative noise or zero capacity.
    pub fn new(noise_std: f64, capacity: usize) -> Result<Self> {
        if noise_std < 0.0 {
            return Err(SimError::BadConfig("meter noise must be non-negative"));
        }
        if capacity == 0 {
            return Err(SimError::BadConfig("meter capacity must be positive"));
        }
        Ok(PowerMeter {
            noise_std,
            samples: VecDeque::with_capacity(capacity),
            capacity,
            fault: None,
            total_samples: 0,
            fault_age_s: 0,
            last_recorded_at: None,
        })
    }

    /// Sensor noise standard deviation in watts.
    pub fn noise_std(&self) -> f64 {
        self.noise_std
    }

    /// Injects (or clears, with `None`) a fault. Resets the fault age.
    pub fn set_fault(&mut self, fault: Option<MeterFault>) {
        self.fault = fault;
        self.fault_age_s = 0;
    }

    /// Records one 1 Hz sample. `true_power` is the instantaneous server
    /// power; `noise` is a standard-normal draw scaled internally (the
    /// server supplies it from its seeded RNG so the meter itself stays
    /// deterministic and RNG-free).
    ///
    /// Returns the recorded reading, or `None` during a dropout.
    pub fn record(&mut self, true_power: f64, noise: f64) -> Option<f64> {
        self.total_samples += 1;
        let reading = match self.fault {
            Some(MeterFault::Dropout) => None,
            Some(MeterFault::Bias {
                watts,
                drift_w_per_s,
            }) => Some(
                true_power
                    + self.noise_std * noise
                    + watts
                    + drift_w_per_s * self.fault_age_s as f64,
            ),
            None => Some(true_power + self.noise_std * noise),
        };
        if self.fault.is_some() {
            self.fault_age_s += 1;
        }
        if let Some(r) = reading {
            if self.samples.len() == self.capacity {
                self.samples.pop_front();
            }
            self.samples.push_back(r);
            self.last_recorded_at = Some(self.total_samples);
        }
        reading
    }

    /// Average of the most recent `n` samples — what the controller reads
    /// at the end of each control period (the paper averages 4 × 1 Hz
    /// samples per period).
    ///
    /// # Errors
    /// [`SimError::MeterUnavailable`] when no samples are buffered.
    pub fn average_last(&self, n: usize) -> Result<f64> {
        if self.samples.is_empty() {
            return Err(SimError::MeterUnavailable);
        }
        let take = n.min(self.samples.len()).max(1);
        let sum: f64 = self.samples.iter().rev().take(take).sum();
        Ok(sum / take as f64)
    }

    /// Most recent sample.
    ///
    /// # Errors
    /// [`SimError::MeterUnavailable`] when no samples are buffered.
    pub fn latest(&self) -> Result<f64> {
        self.samples
            .back()
            .copied()
            .ok_or(SimError::MeterUnavailable)
    }

    /// Seconds elapsed since the meter last produced a sample — `Some(0)`
    /// right after a successful record, growing by one per dropped-out
    /// record, `None` if the meter has never produced a sample. This is
    /// the staleness signal supervisory watchdogs key on: a caller about
    /// to average the buffer can tell "fresh average" apart from "buffer
    /// full of pre-dropout samples".
    pub fn seconds_since_last_sample(&self) -> Option<u64> {
        self.last_recorded_at.map(|at| self.total_samples - at)
    }

    /// Number of currently buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut m = PowerMeter::new(0.0, 16).unwrap();
        for p in [100.0, 110.0, 120.0, 130.0] {
            m.record(p, 0.0);
        }
        assert_eq!(m.average_last(4).unwrap(), 115.0);
        assert_eq!(m.average_last(2).unwrap(), 125.0);
        assert_eq!(m.latest().unwrap(), 130.0);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn noise_is_applied() {
        let mut m = PowerMeter::new(5.0, 4).unwrap();
        let r = m.record(100.0, 1.0).unwrap();
        assert_eq!(r, 105.0);
    }

    #[test]
    fn ring_buffer_evicts() {
        let mut m = PowerMeter::new(0.0, 2).unwrap();
        m.record(1.0, 0.0);
        m.record(2.0, 0.0);
        m.record(3.0, 0.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.average_last(10).unwrap(), 2.5);
    }

    #[test]
    fn dropout_fault() {
        let mut m = PowerMeter::new(0.0, 4).unwrap();
        m.record(100.0, 0.0);
        m.set_fault(Some(MeterFault::Dropout));
        assert_eq!(m.record(200.0, 0.0), None);
        // Old sample still readable.
        assert_eq!(m.latest().unwrap(), 100.0);
        m.set_fault(None);
        assert_eq!(m.record(300.0, 0.0), Some(300.0));
    }

    #[test]
    fn bias_fault_drifts_with_age() {
        let mut m = PowerMeter::new(0.0, 8).unwrap();
        m.set_fault(Some(MeterFault::Bias {
            watts: 20.0,
            drift_w_per_s: 2.0,
        }));
        assert_eq!(m.record(100.0, 0.0), Some(120.0)); // age 0
        assert_eq!(m.record(100.0, 0.0), Some(122.0)); // age 1
        assert_eq!(m.record(100.0, 0.0), Some(124.0)); // age 2
        m.set_fault(None);
        assert_eq!(m.record(100.0, 0.0), Some(100.0));
        // Re-injection restarts the drift clock.
        m.set_fault(Some(MeterFault::Bias {
            watts: -10.0,
            drift_w_per_s: 1.0,
        }));
        assert_eq!(m.record(100.0, 0.0), Some(90.0));
    }

    #[test]
    fn sample_age_tracks_dropouts() {
        let mut m = PowerMeter::new(0.0, 4).unwrap();
        assert_eq!(m.seconds_since_last_sample(), None);
        m.record(100.0, 0.0);
        assert_eq!(m.seconds_since_last_sample(), Some(0));
        m.set_fault(Some(MeterFault::Dropout));
        m.record(100.0, 0.0);
        m.record(100.0, 0.0);
        assert_eq!(m.seconds_since_last_sample(), Some(2));
        m.set_fault(None);
        m.record(100.0, 0.0);
        assert_eq!(m.seconds_since_last_sample(), Some(0));
    }

    #[test]
    fn empty_meter_errors() {
        let m = PowerMeter::new(1.0, 4).unwrap();
        assert_eq!(m.average_last(4).unwrap_err(), SimError::MeterUnavailable);
        assert_eq!(m.latest().unwrap_err(), SimError::MeterUnavailable);
        assert!(m.is_empty());
    }

    #[test]
    fn validation() {
        assert!(PowerMeter::new(-1.0, 4).is_err());
        assert!(PowerMeter::new(1.0, 0).is_err());
    }

    #[test]
    fn total_samples_counts_faults() {
        let mut m = PowerMeter::new(0.0, 4).unwrap();
        m.set_fault(Some(MeterFault::Dropout));
        m.record(1.0, 0.0);
        m.record(1.0, 0.0);
        assert_eq!(m.total_samples, 2);
        assert_eq!(m.len(), 0);
    }
}
