//! Exhaustive feature selection with cross-validated least squares.
//!
//! The paper's CPU workload (§6.1): "we implement an exhaustive feature
//! selection algorithm on the Alibaba PAI dataset … We perform feature
//! selection to fit and test a model using every possible feature subset,
//! and choose the feature subset yielding the lowest cross-validation (CV)
//! Mean Squared Error (MSE)."
//!
//! Two layers live here:
//!
//! * [`ExhaustiveFeatureSelection`] — the **real algorithm**, enumerating
//!   all `2^p − 1` subsets and scoring each with k-fold CV linear
//!   regression (via `capgpu-linalg`). This is what the examples and
//!   benches execute; its throughput is "feature subsets evaluated per
//!   second", the CPU throughput metric of §3.1.
//! * [`FeatselRateModel`] — the frequency→rate map the *simulated* control
//!   loop uses: a compute-bound job's rate scales linearly with core
//!   frequency. The model's reference rate should be calibrated from the
//!   real algorithm (see `examples/` and the calibration test below).

use capgpu_linalg::{lstsq, Matrix};

use crate::{Result, WorkloadError};

/// Result of scoring one feature subset.
#[derive(Debug, Clone)]
pub struct SubsetScore {
    /// Column indices of the subset.
    pub features: Vec<usize>,
    /// Cross-validated mean squared error.
    pub cv_mse: f64,
}

/// Result of a full exhaustive search.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The winning subset (lowest CV MSE).
    pub best: SubsetScore,
    /// Number of subsets evaluated (`2^p − 1`).
    pub subsets_evaluated: usize,
}

/// Exhaustive feature selection over a dataset.
#[derive(Debug, Clone)]
pub struct ExhaustiveFeatureSelection {
    /// Number of cross-validation folds.
    pub folds: usize,
}

impl Default for ExhaustiveFeatureSelection {
    fn default() -> Self {
        ExhaustiveFeatureSelection { folds: 5 }
    }
}

impl ExhaustiveFeatureSelection {
    /// Scores one subset by k-fold CV linear regression (with intercept).
    ///
    /// # Errors
    /// * [`WorkloadError::BadConfig`] on empty subsets/data or too few rows
    ///   per fold.
    /// * Numerical errors from degenerate folds.
    pub fn score_subset(&self, x: &[Vec<f64>], y: &[f64], features: &[usize]) -> Result<f64> {
        if features.is_empty() {
            return Err(WorkloadError::BadConfig("empty feature subset"));
        }
        if x.len() != y.len() || x.is_empty() {
            return Err(WorkloadError::BadConfig("bad dataset shape"));
        }
        let n = x.len();
        if self.folds < 2 || n < self.folds * (features.len() + 2) {
            return Err(WorkloadError::BadConfig(
                "not enough rows for the requested folds",
            ));
        }
        let mut total_se = 0.0;
        let mut total_count = 0usize;
        for fold in 0..self.folds {
            // Contiguous fold split: rows [fold*n/k, (fold+1)*n/k) test.
            let lo = fold * n / self.folds;
            let hi = (fold + 1) * n / self.folds;
            let mut train_rows = Vec::with_capacity(n - (hi - lo));
            let mut train_y = Vec::with_capacity(n - (hi - lo));
            for (i, (row, &yi)) in x.iter().zip(y.iter()).enumerate() {
                if i < lo || i >= hi {
                    let mut r: Vec<f64> = features.iter().map(|&j| row[j]).collect();
                    r.push(1.0); // intercept
                    train_rows.push(r);
                    train_y.push(yi);
                }
            }
            let refs: Vec<&[f64]> = train_rows.iter().map(|r| r.as_slice()).collect();
            let design = Matrix::from_rows(&refs);
            let fit = lstsq::solve_ridge(&design, &train_y, 1e-8)?;
            for i in lo..hi {
                let mut r: Vec<f64> = features.iter().map(|&j| x[i][j]).collect();
                r.push(1.0);
                let pred = fit.predict(&r);
                let err = y[i] - pred;
                total_se += err * err;
                total_count += 1;
            }
        }
        Ok(total_se / total_count as f64)
    }

    /// Runs the full exhaustive search over all non-empty subsets of the
    /// dataset's columns, returning the best subset. An optional callback
    /// observes every evaluation (used by throughput calibration).
    ///
    /// # Errors
    /// Propagates [`Self::score_subset`] failures.
    pub fn run(
        &self,
        x: &[Vec<f64>],
        y: &[f64],
        mut on_subset: impl FnMut(&SubsetScore),
    ) -> Result<SelectionResult> {
        if x.is_empty() {
            return Err(WorkloadError::BadConfig("empty dataset"));
        }
        let p = x[0].len();
        if p == 0 || p > 20 {
            return Err(WorkloadError::BadConfig(
                "feature count must be in 1..=20 for exhaustive search",
            ));
        }
        let mut best: Option<SubsetScore> = None;
        let mut evaluated = 0usize;
        for mask in 1u32..(1u32 << p) {
            let features: Vec<usize> = (0..p).filter(|j| mask & (1 << j) != 0).collect();
            let cv_mse = self.score_subset(x, y, &features)?;
            let score = SubsetScore { features, cv_mse };
            on_subset(&score);
            evaluated += 1;
            let better = match &best {
                None => true,
                Some(b) => cv_mse < b.cv_mse,
            };
            if better {
                best = Some(score);
            }
        }
        Ok(SelectionResult {
            best: best.expect("at least one subset"),
            subsets_evaluated: evaluated,
        })
    }
}

/// Frequency→throughput model of the feature-selection job for the
/// simulated control loop: a compute-bound workload's rate is linear in
/// core frequency (`rate = ref_rate · f / f_ref`), with small bounded
/// jitter supplied by the caller's RNG draw.
#[derive(Debug, Clone)]
pub struct FeatselRateModel {
    /// Subsets/s at the reference frequency.
    pub ref_rate: f64,
    /// Reference CPU frequency (MHz).
    pub ref_mhz: f64,
    /// Relative jitter amplitude.
    pub jitter: f64,
}

impl FeatselRateModel {
    /// Creates the model.
    ///
    /// # Errors
    /// [`WorkloadError::BadConfig`] on non-positive parameters.
    pub fn new(ref_rate: f64, ref_mhz: f64, jitter: f64) -> Result<Self> {
        if ref_rate <= 0.0 || ref_mhz <= 0.0 || !(0.0..1.0).contains(&jitter) {
            return Err(WorkloadError::BadConfig("bad rate model parameters"));
        }
        Ok(FeatselRateModel {
            ref_rate,
            ref_mhz,
            jitter,
        })
    }

    /// Subsets evaluated per second at CPU frequency `f`, with `noise` a
    /// uniform draw in `[−1, 1]`.
    pub fn rate(&self, f_cpu_mhz: f64, noise: f64) -> f64 {
        let base = self.ref_rate * f_cpu_mhz / self.ref_mhz;
        base * (1.0 + self.jitter * noise.clamp(-1.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pai;

    #[test]
    fn recovers_true_features_on_synthetic_trace() {
        let trace = pai::generate(400, 11);
        let fs = ExhaustiveFeatureSelection::default();
        let result = fs.run(&trace.x, &trace.y, |_| {}).unwrap();
        assert_eq!(result.subsets_evaluated, (1 << 6) - 1);
        // The winning subset must contain every truly informative feature.
        for &f in &pai::TRUE_FEATURES {
            assert!(
                result.best.features.contains(&f),
                "missing true feature {f} in {:?}",
                result.best.features
            );
        }
    }

    #[test]
    fn full_model_not_worse_than_single_distractor() {
        let trace = pai::generate(400, 13);
        let fs = ExhaustiveFeatureSelection::default();
        let full = fs
            .score_subset(&trace.x, &trace.y, &[0, 1, 2, 3, 4, 5])
            .unwrap();
        let distractor = fs.score_subset(&trace.x, &trace.y, &[5]).unwrap();
        assert!(full < distractor, "full {full} vs distractor {distractor}");
    }

    #[test]
    fn callback_sees_every_subset() {
        let trace = pai::generate(200, 17);
        let fs = ExhaustiveFeatureSelection { folds: 3 };
        let mut count = 0;
        fs.run(&trace.x, &trace.y, |_| count += 1).unwrap();
        assert_eq!(count, 63);
    }

    #[test]
    fn score_subset_validation() {
        let fs = ExhaustiveFeatureSelection::default();
        let trace = pai::generate(100, 1);
        assert!(fs.score_subset(&trace.x, &trace.y, &[]).is_err());
        assert!(fs.score_subset(&trace.x, &trace.y[..50], &[0]).is_err());
        let tiny = pai::generate(8, 1);
        assert!(fs.score_subset(&tiny.x, &tiny.y, &[0, 1, 2]).is_err());
    }

    #[test]
    fn rate_model_linear_in_frequency() {
        let m = FeatselRateModel::new(100.0, 2200.0, 0.0).unwrap();
        assert!((m.rate(1100.0, 0.0) - 50.0).abs() < 1e-9);
        assert!((m.rate(2200.0, 0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rate_model_jitter_bounded() {
        let m = FeatselRateModel::new(100.0, 2200.0, 0.1).unwrap();
        let hi = m.rate(2200.0, 1.0);
        let lo = m.rate(2200.0, -1.0);
        assert!((hi - 110.0).abs() < 1e-9);
        assert!((lo - 90.0).abs() < 1e-9);
        // Noise outside [−1, 1] clamps.
        assert_eq!(m.rate(2200.0, 5.0), hi);
    }

    #[test]
    fn rate_model_validation() {
        assert!(FeatselRateModel::new(0.0, 2200.0, 0.0).is_err());
        assert!(FeatselRateModel::new(1.0, 0.0, 0.0).is_err());
        assert!(FeatselRateModel::new(1.0, 1.0, 1.0).is_err());
    }
}
