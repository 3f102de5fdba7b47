//! End-of-run summaries — the aggregates the paper's figures report.

use crate::runner::RunTrace;

/// Aggregate summary of one run (the quantities behind Figs. 6–9).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Controller name.
    pub controller: String,
    /// Final set point (W).
    pub setpoint: f64,
    /// Steady-state mean power over the trailing 80% of periods (W).
    pub power_mean: f64,
    /// Steady-state power standard deviation (W).
    pub power_std: f64,
    /// |steady-state mean − set point| (W) — the Fig. 6 accuracy metric.
    pub tracking_error: f64,
    /// Periods with power above the set point (+2 W tolerance).
    pub violations: usize,
    /// First period after which power stays within ±2% of the set point.
    pub settling_period: Option<usize>,
    /// Steady-state per-task GPU throughput (img/s).
    pub gpu_throughput: Vec<f64>,
    /// Steady-state CPU throughput (subsets/s).
    pub cpu_throughput: f64,
    /// Steady-state per-task mean batch latency (s).
    pub gpu_latency: Vec<f64>,
    /// Final per-task deadline miss rates.
    pub miss_rates: Vec<f64>,
}

impl RunSummary {
    /// Builds the summary from a trace using the paper's conventions
    /// (steady state = last 80% of periods; violation tolerance 2 W;
    /// settling band ±2% of the set point).
    pub fn from_trace(trace: &RunTrace) -> Self {
        let setpoint = trace.records.last().map(|r| r.setpoint).unwrap_or(0.0);
        let (power_mean, power_std) = trace.steady_state_power(0.8);
        let series = trace.power_series();
        RunSummary {
            controller: trace.controller.clone(),
            setpoint,
            power_mean,
            power_std,
            tracking_error: (power_mean - setpoint).abs(),
            violations: trace.violations(2.0),
            settling_period: capgpu_control::metrics::settling_time(
                &series,
                setpoint,
                0.02 * setpoint,
            ),
            gpu_throughput: trace.steady_gpu_throughput(0.8),
            cpu_throughput: trace.steady_cpu_throughput(0.8),
            gpu_latency: trace.steady_gpu_latency(0.8),
            miss_rates: trace.miss_rates.clone(),
        }
    }

    /// One-line report row: name, mean ± std, error, violations.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>8.1} ± {:>5.1} W  err {:>6.2} W  viol {:>3}  settle {}",
            self.controller,
            self.power_mean,
            self.power_std,
            self.tracking_error,
            self.violations,
            self.settling_period
                .map(|p| p.to_string())
                .unwrap_or_else(|| "never".to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PeriodRecord;

    fn record(period: usize, power: f64, setpoint: f64) -> PeriodRecord {
        PeriodRecord {
            period,
            setpoint,
            avg_power: power,
            targets: vec![],
            applied_mean: vec![],
            gpu_throughput: vec![10.0],
            cpu_throughput: 100.0,
            gpu_mean_latency: vec![0.1],
            slo: vec![None],
            slo_misses: vec![0],
            batches: vec![5],
            floors: vec![435.0],
            supervisor_tier: 0,
            meter_stale: false,
        }
    }

    fn trace(powers: &[f64], setpoint: f64) -> RunTrace {
        RunTrace {
            controller: "test".into(),
            records: powers
                .iter()
                .enumerate()
                .map(|(i, &p)| record(i, p, setpoint))
                .collect(),
            miss_rates: vec![0.0],
            p99_latency_s: vec![0.0],
            ttft_p99_s: vec![],
            itl_p99_s: vec![],
            ttft_miss_rates: vec![],
            itl_miss_rates: vec![],
        }
    }

    #[test]
    fn summary_math() {
        let mut powers = vec![700.0, 800.0];
        powers.extend(std::iter::repeat_n(900.0, 8));
        let t = trace(&powers, 900.0);
        let s = RunSummary::from_trace(&t);
        assert_eq!(s.power_mean, 900.0);
        assert_eq!(s.power_std, 0.0);
        assert_eq!(s.tracking_error, 0.0);
        assert_eq!(s.violations, 0);
        assert_eq!(s.settling_period, Some(2));
        assert!(s.row().contains("test"));
    }

    #[test]
    fn violations_counted() {
        let t = trace(&[905.0, 899.0, 910.0], 900.0);
        let s = RunSummary::from_trace(&t);
        assert_eq!(s.violations, 2);
    }

    #[test]
    fn empty_trace() {
        let t = trace(&[], 0.0);
        let s = RunSummary::from_trace(&t);
        assert_eq!(s.power_mean, 0.0);
        assert_eq!(s.settling_period, None);
    }
}
