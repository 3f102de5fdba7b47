//! SLO bookkeeping (§6.4).
//!
//! The tracker records per-batch inference latencies per task and
//! reports deadline misses, miss rates and latency percentiles.

use capgpu_linalg::stats;

/// Per-task SLO tracking over a run.
#[derive(Debug, Clone)]
pub struct SloTracker {
    /// Current SLO threshold (seconds) per task.
    slos: Vec<f64>,
    /// Per-task recorded latencies (whole run), in no particular order:
    /// a quantile query permutes a task's buffer.
    latencies: Vec<Vec<f64>>,
    /// Per-task miss counters.
    misses: Vec<usize>,
    /// Per-task total counters.
    totals: Vec<usize>,
}

impl SloTracker {
    /// Creates a tracker for `num_tasks` tasks with initial SLOs.
    ///
    /// # Panics
    /// Panics if `initial_slos` is empty.
    pub fn new(initial_slos: Vec<f64>) -> Self {
        assert!(!initial_slos.is_empty(), "tracker needs >= 1 task");
        let n = initial_slos.len();
        SloTracker {
            slos: initial_slos,
            latencies: vec![Vec::new(); n],
            misses: vec![0; n],
            totals: vec![0; n],
        }
    }

    /// Number of tasks tracked.
    pub fn num_tasks(&self) -> usize {
        self.slos.len()
    }

    /// The current SLO of a task (seconds).
    ///
    /// # Panics
    /// Panics on an out-of-range task index.
    pub fn slo(&self, task: usize) -> f64 {
        self.slos[task]
    }

    /// Changes a task's SLO mid-run (the §6.4 adaptability experiment).
    ///
    /// # Panics
    /// Panics on an out-of-range task index or non-positive SLO.
    pub fn set_slo(&mut self, task: usize, slo_s: f64) {
        assert!(slo_s > 0.0, "SLO must be positive");
        self.slos[task] = slo_s;
    }

    /// Records one batch latency for a task: the one-sample form of
    /// [`SloTracker::record_all`].
    ///
    /// # Panics
    /// Panics on an out-of-range task index.
    #[inline]
    pub fn record(&mut self, task: usize, latency_s: f64) {
        self.record_all(task, std::slice::from_ref(&latency_s));
    }

    /// Records a batch of latencies for a task, in order, with the buffer
    /// grown once. A non-finite latency (a degenerate measurement) counts
    /// as a deadline miss but is not stored, so it cannot poison
    /// [`SloTracker::percentile`] with NaN.
    ///
    /// # Panics
    /// Panics on an out-of-range task index.
    #[inline]
    pub fn record_all(&mut self, task: usize, latencies_s: &[f64]) {
        let slo = self.slos[task];
        let buffer = &mut self.latencies[task];
        buffer.reserve(latencies_s.len());
        let before = buffer.len();
        // Counting first makes the all-finite batch, which is every batch
        // of a healthy run, one block copy.
        let non_finite = latencies_s.iter().filter(|l| !l.is_finite()).count();
        if non_finite == 0 {
            buffer.extend_from_slice(latencies_s);
        } else {
            buffer.extend(latencies_s.iter().filter(|l| l.is_finite()));
        }
        let late = buffer[before..].iter().filter(|&&l| l > slo).count();
        self.misses[task] += late + non_finite;
        self.totals[task] += latencies_s.len();
    }

    /// Deadline misses counted for a task so far, non-finite latencies
    /// included.
    pub fn misses(&self, task: usize) -> usize {
        self.misses[task]
    }

    /// Deadline-miss rate of a task in `[0, 1]` (0 when nothing recorded).
    pub fn miss_rate(&self, task: usize) -> f64 {
        if self.totals[task] == 0 {
            0.0
        } else {
            self.misses[task] as f64 / self.totals[task] as f64
        }
    }

    /// All recorded (finite) latencies of a task. Their order is
    /// unspecified once [`SloTracker::percentile`] has been called.
    pub fn latencies(&self, task: usize) -> &[f64] {
        &self.latencies[task]
    }

    /// The `q`-th percentile (`q ∈ [0, 100]`, clamped) of a task's
    /// recorded latencies; 0.0 when none is recorded. An exact order
    /// statistic selected in the tracker's own buffer — O(samples), no
    /// copy — which is why it takes `&mut self`: the buffer is permuted,
    /// the counters behind [`SloTracker::miss_rate`] are not touched.
    ///
    /// # Panics
    /// Panics on an out-of-range task index.
    pub fn percentile(&mut self, task: usize, q: f64) -> f64 {
        stats::percentile_in_place(&mut self.latencies[task], q)
    }

    /// Clears all recorded latencies and miss counters while keeping the
    /// configured SLOs — used when a calibration phase (e.g. system
    /// identification) precedes the measured run.
    pub fn reset_stats(&mut self) {
        for l in &mut self.latencies {
            l.clear();
        }
        self.misses.iter_mut().for_each(|m| *m = 0);
        self.totals.iter_mut().for_each(|t| *t = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_accounting() {
        let mut t = SloTracker::new(vec![0.1, 0.2]);
        t.record(0, 0.05);
        t.record(0, 0.15); // miss
        t.record(1, 0.15);
        t.record(1, 0.19);
        assert_eq!(t.miss_rate(0), 0.5);
        assert_eq!(t.miss_rate(1), 0.0);
        assert_eq!(t.latencies(0).len(), 2);
    }

    #[test]
    fn slo_change_midrun() {
        let mut t = SloTracker::new(vec![0.1]);
        t.record(0, 0.15); // miss at 0.1
        t.set_slo(0, 0.2);
        t.record(0, 0.15); // hit at 0.2
        assert_eq!(t.miss_rate(0), 0.5);
        assert_eq!(t.slo(0), 0.2);
    }

    #[test]
    fn one_outlier_in_a_hundred_shows_only_at_the_top() {
        let mut t = SloTracker::new(vec![1.0]);
        for i in 0..100 {
            t.record(0, if i < 99 { 0.5 } else { 2.0 });
        }
        assert_eq!(t.percentile(0, 98.0), 0.5);
        assert_eq!(t.percentile(0, 100.0), 2.0);
    }

    #[test]
    fn empty_tracker_is_healthy() {
        let mut t = SloTracker::new(vec![0.1]);
        assert_eq!(t.miss_rate(0), 0.0);
        assert_eq!(t.misses(0), 0);
        assert_eq!(t.percentile(0, 99.0), 0.0);
    }

    #[test]
    fn non_finite_latency_counts_as_miss_without_poisoning_percentiles() {
        let mut t = SloTracker::new(vec![0.1]);
        t.record(0, 0.05);
        t.record(0, f64::NAN);
        t.record(0, f64::INFINITY);
        assert_eq!(t.latencies(0), &[0.05]);
        assert_eq!(t.miss_rate(0), 2.0 / 3.0);
        // Percentiles stay NaN-free and clamp out-of-range levels.
        for q in [99.0, 250.0, -3.0] {
            assert_eq!(t.percentile(0, q), 0.05);
        }
    }

    #[test]
    fn single_sample_tracker_percentiles() {
        let mut t = SloTracker::new(vec![0.1]);
        t.record(0, 0.08);
        assert_eq!(t.percentile(0, 99.0), 0.08);
        assert_eq!(t.miss_rate(0), 0.0);
    }

    #[test]
    fn misses_is_the_exact_count_with_non_finite_samples() {
        // Two hits, two non-finite: the tracker counted 2 misses. The
        // runner used to rebuild the count as `miss_rate × stored
        // samples`, and non-finite samples are counted but not stored,
        // so that product said 1.
        let mut t = SloTracker::new(vec![0.1]);
        for l in [0.05, 0.06, f64::NAN, f64::NAN] {
            t.record(0, l);
        }
        assert_eq!(t.misses(0), 2);
        assert_eq!(t.miss_rate(0), 0.5);
        let rebuilt = (t.miss_rate(0) * t.latencies(0).len() as f64).round() as usize;
        assert_eq!(rebuilt, 1);
    }

    #[test]
    fn record_all_equals_repeated_record() {
        let batches: [&[f64]; 4] = [
            &[0.05, 0.15, f64::NAN, 0.1],
            &[],
            &[f64::INFINITY, f64::NEG_INFINITY],
            &[0.3, 0.02, 0.100_000_1],
        ];
        let mut one_by_one = SloTracker::new(vec![0.1, 0.2]);
        let mut bulk = SloTracker::new(vec![0.1, 0.2]);
        for (k, batch) in batches.iter().enumerate() {
            let task = k % 2;
            for &l in *batch {
                one_by_one.record(task, l);
            }
            bulk.record_all(task, batch);
            for t in 0..2 {
                assert_eq!(bulk.latencies(t), one_by_one.latencies(t));
                assert_eq!(bulk.misses(t), one_by_one.misses(t));
                assert_eq!(bulk.miss_rate(t), one_by_one.miss_rate(t));
            }
        }
        assert_eq!(bulk.misses(0), 4); // 0.15, NaN, +inf, -inf
        assert_eq!(bulk.misses(1), 1); // 0.3
    }

    #[test]
    fn percentile_query_leaves_the_counters_alone() {
        let mut t = SloTracker::new(vec![0.5]);
        let samples: Vec<f64> = (0..101).map(|i| ((i * 37) % 101) as f64 / 100.0).collect();
        t.record_all(0, &samples);
        t.record(0, f64::NAN);
        let (misses, rate) = (t.misses(0), t.miss_rate(0));
        assert_eq!(misses, 51); // 0.51..=1.00 and the NaN
        assert_eq!(t.percentile(0, 99.0), 0.99);
        assert_eq!(t.percentile(0, 50.0), 0.5);
        assert_eq!(t.percentile(0, 250.0), 1.0);
        assert_eq!((t.misses(0), t.miss_rate(0)), (misses, rate));
        // The buffer may have been permuted, never resized or altered.
        let mut after = t.latencies(0).to_vec();
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut before = samples;
        before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(after, before);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_slo() {
        let mut t = SloTracker::new(vec![0.1]);
        t.set_slo(0, 0.0);
    }
}
