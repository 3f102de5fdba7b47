//! Throughput monitors (§3.1, step 2 of the control loop).
//!
//! "Each GPU's throughput monitor reports its average inference
//! throughput … The CPU throughput monitor reports the number of feature
//! subsets evaluated per second. The normalized throughput of each device
//! is computed by dividing its throughput by the maximum throughput of the
//! respective device."
//!
//! The monitor keeps a sliding window of per-period readings, smooths them
//! with an EWMA, and normalizes by the largest throughput it has ever
//! observed for that device (the practical stand-in for "maximum
//! throughput of the respective device", which is not known a priori).

use capgpu_linalg::stats::Ewma;

/// A per-device throughput monitor.
#[derive(Debug, Clone)]
pub struct ThroughputMonitor {
    ewma: Ewma,
    observed_max: f64,
    periods: u64,
}

impl ThroughputMonitor {
    /// Creates a monitor with EWMA smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]` (propagated from [`Ewma`]).
    pub fn new(alpha: f64) -> Self {
        ThroughputMonitor {
            ewma: Ewma::new(alpha),
            observed_max: 0.0,
            periods: 0,
        }
    }

    /// Records the throughput measured over one control period. Negative
    /// and NaN readings clamp to 0 (`f64::max` maps NaN to the 0 arm),
    /// so degenerate meter periods cannot poison the EWMA.
    pub fn record(&mut self, throughput: f64) {
        let t = throughput.max(0.0);
        self.ewma.update(t);
        self.observed_max = self.observed_max.max(t);
        self.periods += 1;
    }

    /// Smoothed throughput (EWMA); 0 before any reading.
    pub fn smoothed(&self) -> f64 {
        self.ewma.value().unwrap_or(0.0)
    }

    /// Normalized throughput in `[0, 1]`: smoothed value divided by the
    /// observed maximum. Returns 0 before any reading.
    pub fn normalized(&self) -> f64 {
        // Warmup guard: until the first non-zero reading `observed_max`
        // is still 0 and the ratio below would be 0/0 = NaN — a device
        // that has not produced yet gets an explicit 0 weight instead.
        if self.observed_max <= 0.0 {
            return 0.0;
        }
        (self.smoothed() / self.observed_max).clamp(0.0, 1.0)
    }

    /// Number of periods recorded.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Clears all state (workload change).
    pub fn reset(&mut self) {
        self.ewma.reset();
        self.observed_max = 0.0;
        self.periods = 0;
    }
}

/// Normalizes a set of monitors into weight inputs: returns each device's
/// normalized throughput, with devices that have seen no traffic reported
/// as 0.
pub fn normalized_throughputs(monitors: &[ThroughputMonitor]) -> Vec<f64> {
    monitors.iter().map(ThroughputMonitor::normalized).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_normalizes() {
        let mut m = ThroughputMonitor::new(1.0); // no smoothing
        assert_eq!(m.normalized(), 0.0);
        m.record(50.0);
        assert_eq!(m.normalized(), 1.0); // 50/50
        m.record(100.0);
        assert_eq!(m.normalized(), 1.0); // 100/100
        m.record(25.0);
        assert_eq!(m.normalized(), 0.25); // 25/100
        assert_eq!(m.periods(), 3);
    }

    #[test]
    fn smoothing_damps_spikes() {
        let mut m = ThroughputMonitor::new(0.3);
        for _ in 0..20 {
            m.record(100.0);
        }
        m.record(0.0); // one dead period
        assert!(
            m.normalized() > 0.6,
            "one spike shouldn't crater the weight"
        );
    }

    #[test]
    fn negative_readings_clamped() {
        let mut m = ThroughputMonitor::new(1.0);
        m.record(-5.0);
        assert_eq!(m.smoothed(), 0.0);
        assert_eq!(m.normalized(), 0.0);
    }

    #[test]
    fn warmup_zero_max_yields_zero_not_nan() {
        // Regression: a device that records only zeros during warmup
        // keeps observed_max == 0; normalized() must report an explicit
        // 0 weight, never 0/0 = NaN.
        let mut m = ThroughputMonitor::new(0.5);
        assert_eq!(m.normalized(), 0.0);
        for _ in 0..5 {
            m.record(0.0);
            assert!(m.normalized().is_finite());
            assert_eq!(m.normalized(), 0.0);
        }
        // NaN readings clamp to 0 and keep the weight finite too.
        m.record(f64::NAN);
        assert_eq!(m.normalized(), 0.0);
        // First real reading ends warmup normally.
        m.record(40.0);
        assert!(m.normalized() > 0.0 && m.normalized() <= 1.0);
    }

    #[test]
    fn reset_clears() {
        let mut m = ThroughputMonitor::new(0.5);
        m.record(10.0);
        m.reset();
        assert_eq!(m.normalized(), 0.0);
        assert_eq!(m.periods(), 0);
    }

    #[test]
    fn group_normalization() {
        let mut a = ThroughputMonitor::new(1.0);
        let mut b = ThroughputMonitor::new(1.0);
        a.record(100.0);
        a.record(80.0);
        b.record(10.0);
        b.record(10.0);
        let norms = normalized_throughputs(&[a, b]);
        assert_eq!(norms, vec![0.8, 1.0]);
    }
}
