//! Synthetic Alibaba-PAI-style workload trace.
//!
//! The paper's CPU workload runs exhaustive feature selection over the
//! Alibaba PAI dataset (a production ML-workload trace used in data-center
//! resource-management research). The real trace is not redistributable
//! here, so this module synthesizes a trace with the same *shape*: per-job
//! records of resource requests and runtime statistics whose target
//! variable (job duration) depends on a known subset of the features plus
//! noise — giving the feature-selection algorithm genuine signal to find
//! and making its CV-MSE landscape non-trivial.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feature names of the synthetic trace, in column order.
pub const FEATURE_NAMES: [&str; 6] = [
    "cpu_request",         // vCPUs requested
    "gpu_request",         // GPUs requested (0, 0.25, 0.5, 1, 2, 4, 8)
    "mem_request_gib",     // memory requested
    "plan_gpu_util",       // planned GPU utilization
    "num_instances",       // task parallelism
    "queue_len_at_submit", // cluster queue length when submitted
];

/// A synthetic PAI-like dataset: `x` is row-major `n × 6`, `y` is the job
/// duration in (log) seconds.
#[derive(Debug, Clone)]
pub struct PaiTrace {
    /// Feature matrix, row-major, `n_rows × FEATURE_NAMES.len()`.
    pub x: Vec<Vec<f64>>,
    /// Target: log job duration.
    pub y: Vec<f64>,
}

/// The ground-truth informative feature indices (duration depends on
/// cpu_request, gpu_request and num_instances; the rest are distractors).
pub const TRUE_FEATURES: [usize; 3] = [0, 1, 4];

/// Generates a deterministic synthetic trace with `n_rows` jobs.
///
/// # Panics
/// Panics if `n_rows == 0`.
pub fn generate(n_rows: usize, seed: u64) -> PaiTrace {
    assert!(n_rows > 0, "trace needs at least one row");
    let mut rng = StdRng::seed_from_u64(seed);
    let gpu_options = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let mut x = Vec::with_capacity(n_rows);
    let mut y = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let cpu: f64 = rng.gen_range(1.0..96.0);
        let gpu = gpu_options[rng.gen_range(0..gpu_options.len())];
        let mem: f64 = cpu * rng.gen_range(2.0..8.0);
        let planned_util: f64 = rng.gen_range(0.05..1.0);
        let instances: f64 = rng.gen_range(1.0..64.0_f64).floor();
        let queue_len: f64 = rng.gen_range(0.0..500.0);
        // Log-duration: depends on cpu, gpu and instances; mem/planned
        // util/queue length are distractors.
        let noise: f64 = rng.gen_range(-0.4..0.4);
        let log_dur = 3.0 + 0.015 * cpu + 0.35 * gpu + 0.02 * instances + noise;
        x.push(vec![cpu, gpu, mem, planned_util, instances, queue_len]);
        y.push(log_dur);
    }
    PaiTrace { x, y }
}

impl PaiTrace {
    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        FEATURE_NAMES.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = generate(100, 7);
        let b = generate(100, 7);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
        let c = generate(100, 8);
        assert_ne!(a.y, c.y);
    }

    #[test]
    fn shape_and_ranges() {
        let t = generate(500, 1);
        assert_eq!(t.len(), 500);
        assert_eq!(t.num_features(), 6);
        for row in &t.x {
            assert_eq!(row.len(), 6);
            assert!(row[0] >= 1.0 && row[0] <= 96.0); // cpu
            assert!([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0].contains(&row[1]));
            assert!(row[4] >= 1.0); // instances
        }
        for &y in &t.y {
            assert!(y > 2.0 && y < 10.0, "log duration {y}");
        }
    }

    #[test]
    fn true_features_carry_signal() {
        // Correlation between y and each true feature must exceed that of
        // each distractor by a clear margin.
        let t = generate(2000, 3);
        let corr = |col: usize| -> f64 {
            let xs: Vec<f64> = t.x.iter().map(|r| r[col]).collect();
            let mx = capgpu_linalg::stats::mean(&xs);
            let my = capgpu_linalg::stats::mean(&t.y);
            let mut num = 0.0;
            let mut dx = 0.0;
            let mut dy = 0.0;
            for (x, y) in xs.iter().zip(t.y.iter()) {
                num += (x - mx) * (y - my);
                dx += (x - mx) * (x - mx);
                dy += (y - my) * (y - my);
            }
            (num / (dx.sqrt() * dy.sqrt())).abs()
        };
        for &f in &TRUE_FEATURES {
            assert!(corr(f) > 0.25, "feature {f} corr {}", corr(f));
        }
        for f in [2, 3, 5] {
            // mem_request correlates with cpu_request (built that way), so
            // only the pure distractors must be near zero.
            if f == 2 {
                continue;
            }
            assert!(corr(f) < 0.1, "distractor {f} corr {}", corr(f));
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn rejects_empty() {
        let _ = generate(0, 1);
    }
}
