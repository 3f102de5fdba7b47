//! Order statistics for noisy host-time samples.
//!
//! Interference on a shared host only ever slows a run down, and on the
//! reference host it comes in phases of seconds during which everything
//! runs at about 0.6× speed. The median over a run's segments then
//! moves by 20–30 % between identical runs, the fastest tenth by a few
//! percent. So every host-time figure is computed per sample — a
//! segment's rate, the median of a segment's individually timed calls,
//! one fresh set-up — the samples of each figure are spread over the
//! whole run, and the figure reported is the *fast decile*: the value a
//! tenth of the samples are faster than. It estimates the undisturbed
//! cost, needs only a few quiet seconds per run to repeat, and (unlike
//! a best-of) is not set by a single lucky sample once there are twenty
//! samples or more. Tails are reported only as far out as the sample
//! count supports.

/// Median of `values` (mean of the two middle elements for an even
/// count). Panics on an empty slice: every caller sizes its sample
/// count up front, so an empty sample is a bug in the benchmark.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// 1-based nearest rank of the `pct`-th percentile among `count`
/// samples. The small slack keeps a product that is a whole number in
/// exact arithmetic (99.9 % of 10 000) from rounding up a rank.
fn nearest_rank(pct: f64, count: usize) -> usize {
    ((pct * count as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, count.max(1))
}

/// Nearest-rank percentile (`pct` in (0, 100]) of an ascending-sorted
/// sample.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(pct, sorted.len()) - 1]
}

/// The highest of the candidate percentiles that still has at least ten
/// samples beyond it, or `None` when even the lowest candidate does not
/// (the sample is then too small to report a tail at all).
///
/// `candidates` must be ascending, e.g. `[90.0, 99.0, 99.9]`.
pub fn highest_supported_percentile(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|pct| count.saturating_sub(nearest_rank(*pct, count)) >= 10)
}

/// The fast decile of host times (seconds, µs per call, …): the
/// sample a tenth of the samples are faster than — the 3rd fastest of
/// 24, the fastest of fewer than ten.
pub fn fast_decile(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "fast decile of an empty sample");
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 10]
}

/// Rate (`work / seconds`) at the fast decile of the segment times —
/// the estimator behind every throughput figure. `work` is the same
/// for every segment by construction (equal segments).
pub fn segment_rate(work_per_segment: f64, segment_seconds: &[f64]) -> f64 {
    work_per_segment / fast_decile(segment_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.1), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let c = [90.0, 99.0, 99.9];
        // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
        assert_eq!(highest_supported_percentile(100, &c), Some(90.0));
        // 99 samples: p90 is rank 90, 9 beyond — not enough.
        assert_eq!(highest_supported_percentile(99, &c), None);
        // 1000 samples: p99 leaves 10 beyond, p99.9 leaves 1.
        assert_eq!(highest_supported_percentile(1000, &c), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, &c), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999, &c), Some(99.0));
    }

    #[test]
    fn fast_decile_is_the_sample_a_tenth_are_faster_than() {
        let v: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&v), 3.0);
        let v: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(fast_decile(&v), 5.0);
        // Fewer than ten samples: the fastest.
        assert_eq!(fast_decile(&[9.0, 7.0, 8.0]), 7.0);
        assert_eq!(fast_decile(&[7.0]), 7.0);
    }

    #[test]
    fn segment_rate_ignores_stalled_segments() {
        // A run that was disturbed for all but a few segments still
        // reports the undisturbed rate.
        let mut seconds = vec![1.6; 20];
        seconds.extend([1.0, 1.0, 1.01, 1.02]);
        assert_eq!(segment_rate(100.0, &seconds), 100.0 / 1.01);
    }
}
