//! Descriptive statistics used by monitors and experiment summaries.
//!
//! The paper's evaluation reports steady-state means and standard deviations
//! over the last 80 of 100 control periods (Fig. 6), tail-latency
//! percentiles for SLO levels (Fig. 8/9: 30%/50%/80% tail), and R² values
//! for model fits (Fig. 2). These helpers implement exactly those
//! computations.

use std::cmp::Ordering;

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for slices with fewer than 2 entries.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation percentile, `q ∈ [0, 100]`.
///
/// Matches the common "linear" method: `p50` of `[1, 2, 3, 4]` is 2.5.
/// Returns 0.0 for an empty slice. Copies the input once; callers that
/// own their buffer use [`percentile_in_place`].
///
/// # Panics
/// Panics with "NaN in percentile input" when two or more samples are
/// given and one is NaN.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    percentile_in_place(&mut xs.to_vec(), q)
}

/// [`percentile`] on the caller's own buffer: an exact order statistic
/// by selection, O(n) comparisons and no allocation. The value is the
/// one a full sort would give; the buffer is left in an unspecified
/// order (a permutation of its input).
///
/// # Panics
/// As [`percentile`].
pub fn percentile_in_place(xs: &mut [f64], q: f64) -> f64 {
    select_percentile(xs, q, |a, b| {
        a.partial_cmp(b).expect("NaN in percentile input")
    })
}

/// Buffers shorter than this go straight to one whole-buffer select;
/// longer ones are filtered first ([`skip_below_pivot`]). At p99 the two
/// cost the same near 512 samples; at 1 024 the filter takes ≈ 0.7 of
/// the whole-buffer select's time, at 2 048 ≈ 0.55, on serving-latency,
/// uniform and ITL-shaped buffers alike (x86-64, release build).
const FILTER_GATE: usize = 1024;

/// Slots of the strided sample the filter's pivot is chosen from.
const PIVOT_SAMPLE: usize = 256;

/// The selection behind [`percentile_in_place`], generic over the
/// comparator so a test can count its calls. Only the two order
/// statistics the interpolation reads are placed: `lo` by quickselect,
/// `hi = lo + 1` as the minimum of everything the selection left to the
/// right of `lo`. On a buffer of [`FILTER_GATE`] samples or more, the
/// select runs only over the samples the filter could not rule out.
fn select_percentile(xs: &mut [f64], q: f64, mut cmp: impl FnMut(&f64, &f64) -> Ordering) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0);
    let pos = q / 100.0 * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let skip = if xs.len() >= FILTER_GATE {
        skip_below_pivot(xs, lo, &mut cmp)
    } else {
        0
    };
    let (_, &mut at_lo, above) = xs[skip..].select_nth_unstable_by(lo - skip, &mut cmp);
    if lo == hi {
        return at_lo;
    }
    let at_hi = above
        .iter()
        .copied()
        .min_by(&mut cmp)
        .expect("hi <= len - 1, so something lies above lo");
    let frac = pos - lo as f64;
    at_lo * (1.0 - frac) + at_hi * frac
}

/// The filter: moves every sample `≥ pivot` to the back of `xs` and
/// returns how many smaller ones now lead it, or 0 when that count
/// exceeds `lo` (the pivot overshot rank `lo`, so nothing is ruled
/// out). Every leading sample ranks below `lo`, so ranks `lo` and
/// `lo + 1` are found in the back part alone.
///
/// The pivot is the order statistic of a strided sample of
/// [`PIVOT_SAMPLE`] slots that sits a margin of four binomial standard
/// deviations below the wanted rank: on a sample that is representative
/// of the buffer, an overshoot is that unlikely. The pass compares with
/// `<` itself, a third faster than through `cmp`. A NaN fails that test,
/// so it lands in the back part beside the pivot's own slot, and the
/// select, which compares every sample of a part of two or more, panics
/// on it. (A pass testing `≥ pivot` would rule NaN out silently.)
fn skip_below_pivot(
    xs: &mut [f64],
    lo: usize,
    cmp: &mut impl FnMut(&f64, &f64) -> Ordering,
) -> usize {
    let n = xs.len();
    let r = lo as f64 / n as f64;
    let margin = (4.0 * (PIVOT_SAMPLE as f64 * r * (1.0 - r)).sqrt()) as usize + 1;
    let Some(rank) = (lo * PIVOT_SAMPLE / n).checked_sub(margin) else {
        return 0;
    };
    let stride = n / PIVOT_SAMPLE;
    let mut sample = [0.0; PIVOT_SAMPLE];
    for (slot, x) in sample.iter_mut().zip(xs.iter().step_by(stride)) {
        *slot = *x;
    }
    let pivot = *sample.select_nth_unstable_by(rank, &mut *cmp).1;
    let mut below = 0;
    let mut end = n;
    while below < end {
        if xs[below] < pivot {
            below += 1;
        } else {
            end -= 1;
            xs.swap(below, end);
        }
    }
    if below > lo {
        0
    } else {
        below
    }
}

/// Coefficient of determination given observed targets and a residual sum
/// of squares. Returns 1.0 when the target variance is zero and the RSS is
/// also (near) zero, 0.0 when variance is zero but RSS is not.
pub fn r_squared_from_rss(y: &[f64], rss: f64) -> f64 {
    let m = mean(y);
    let tss: f64 = y.iter().map(|v| (v - m) * (v - m)).sum();
    if tss <= f64::EPSILON * y.len() as f64 {
        return if rss <= 1e-12 { 1.0 } else { 0.0 };
    }
    1.0 - rss / tss
}

/// R² between observations and predictions.
///
/// # Panics
/// Panics if lengths differ.
pub fn r_squared(y: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(y.len(), pred.len(), "r_squared length mismatch");
    let rss: f64 = y
        .iter()
        .zip(pred.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    r_squared_from_rss(y, rss)
}

/// Exponentially weighted moving average state.
///
/// Throughput monitors smooth per-period readings with an EWMA before they
/// feed the weight-assignment algorithm, so a single noisy period does not
/// flip the weights.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feeds an observation and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    /// Current value, if any observation has been fed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Root-mean-square error between two equal-length series.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse length mismatch");
    assert!(!a.is_empty(), "rmse of empty series");
    let ss: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    (ss / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&xs, 25.0), 1.75);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 30.0), 7.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    /// The copy-and-full-sort percentile this module shipped before the
    /// selection, kept as the reference the selection is pinned to.
    fn percentile_by_sort(xs: &[f64], q: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        percentile_of_sorted(&sorted, q)
    }

    /// The interpolation half of [`percentile_by_sort`], for a caller
    /// that sorted once and asks at several `q`.
    fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
        let q = q.clamp(0.0, 100.0);
        let pos = q / 100.0 * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Equal under `==` and, when non-zero, bit for bit. A sample mixing
    /// +0.0 and −0.0 is the only input where a stable sort and a
    /// selection may legitimately disagree, and then only in the sign
    /// bit of a zero: the two compare equal, so which of them lands on
    /// rank `lo` is the algorithm's choice.
    fn assert_matches_oracle(xs: &[f64], q: f64) -> Result<(), TestCaseError> {
        let want = percentile_by_sort(xs, q);
        let got = percentile(xs, q);
        prop_assert!(got == want, "n={} q={q}: {got} vs {want}", xs.len());
        prop_assert!(
            want == 0.0 || got.to_bits() == want.to_bits(),
            "n={} q={q}: {got:e} vs {want:e} differ in bits",
            xs.len()
        );
        let mut own = xs.to_vec();
        prop_assert_eq!(percentile_in_place(&mut own, q).to_bits(), got.to_bits());
        // In place means a permutation: nothing lost, nothing invented.
        let key = |v: &f64| v.to_bits();
        let (mut a, mut b) = (xs.to_vec(), own);
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert!(a == b, "buffer is no longer a permutation of its input");
        Ok(())
    }

    proptest! {
        /// Lengths up to 2000 straddle the filter's gate.
        #[test]
        fn selection_matches_sort_oracle(
            xs in prop::collection::vec(-1.0e3..1.0e3f64, 1..2001),
            q in -10.0..110.0f64,
        ) {
            assert_matches_oracle(&xs, q)?;
        }

        /// Seven distinct values (both zeros among them) over up to 2000
        /// slots: nearly every comparison is a tie.
        #[test]
        fn selection_matches_sort_oracle_under_heavy_ties(
            picks in prop::collection::vec(0usize..7, 1..2001),
            q in -10.0..110.0f64,
        ) {
            const LEVELS: [f64; 7] = [-2.5, -1.0, -0.0, 0.0, 0.125, 1.0, 7.0];
            let xs: Vec<f64> = picks.iter().map(|&i| LEVELS[i]).collect();
            assert_matches_oracle(&xs, q)?;
        }

        #[test]
        fn selection_matches_sort_oracle_on_one_and_two_samples(
            xs in prop::collection::vec(-1.0..1.0f64, 1..3),
            q in -10.0..110.0f64,
        ) {
            assert_matches_oracle(&xs, q)?;
            for edge in [0.0, 50.0, 100.0] {
                assert_matches_oracle(&xs, edge)?;
            }
        }
    }

    /// The quantiles every large buffer is checked at: both ends, the
    /// median, the runner's p99, a tail past it, and two out of range.
    const LARGE_QS: [f64; 7] = [0.0, 50.0, 99.0, 99.9, 100.0, -3.0, 250.0];

    /// [`assert_matches_oracle`] for a buffer the filter may see, at
    /// every `q` of [`LARGE_QS`] plus `extra_q`, with the oracle sorted
    /// once. These inputs hold no zero of either sign, so the value must
    /// match bit for bit.
    fn assert_large_matches_oracle(xs: &[f64], extra_q: f64) -> Result<(), TestCaseError> {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN generated"));
        let bits = |v: &[f64]| {
            let mut b: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            b.sort_unstable();
            b
        };
        let input = bits(xs);
        for q in LARGE_QS.into_iter().chain([extra_q]) {
            let want = percentile_of_sorted(&sorted, q);
            let mut own = xs.to_vec();
            let got = percentile_in_place(&mut own, q);
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "n={} q={q}: {got:e} vs {want:e}",
                xs.len()
            );
            prop_assert!(
                bits(&own) == input,
                "n={} q={q}: not a permutation",
                xs.len()
            );
        }
        Ok(())
    }

    /// Buffer lengths from half the filter's gate to about fifty times it.
    const LARGE_N: std::ops::Range<usize> = FILTER_GATE / 2..50_001;

    /// Inter-token-latency-shaped samples: a few hundred distinct step
    /// times, each emitted in a run (every token of a batch step shares
    /// its duration), so long runs of ties sit on any pivot.
    fn itl_shaped(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<f64> = (0..300)
            .map(|_| 0.02 + 0.2 * rng.gen_range(0.0..1.0f64).powi(4))
            .collect();
        let mut xs = Vec::with_capacity(n);
        while xs.len() < n {
            let level = levels[rng.gen_range(0..levels.len())];
            let run = rng.gen_range(1..64usize).min(n - xs.len());
            xs.extend(std::iter::repeat_n(level, run));
        }
        xs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn filtered_selection_matches_sort_oracle_on_uniform_samples(
            n in LARGE_N,
            seed in 0u64..1 << 32,
            q in -10.0..110.0f64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
            assert_large_matches_oracle(&xs, q)?;
        }

        #[test]
        fn filtered_selection_matches_sort_oracle_on_itl_shaped_samples(
            n in LARGE_N,
            seed in 0u64..1 << 32,
            q in 90.0..100.0f64,
        ) {
            assert_large_matches_oracle(&itl_shaped(n, seed), q)?;
        }

        #[test]
        fn filtered_selection_matches_sort_oracle_on_sorted_input(
            n in LARGE_N,
            seed in 0u64..1 << 32,
            q in -10.0..110.0f64,
        ) {
            let mut xs = itl_shaped(n, seed);
            xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN generated"));
            assert_large_matches_oracle(&xs, q)?;
            xs.reverse();
            assert_large_matches_oracle(&xs, q)?;
        }
    }

    /// A sawtooth whose period is the pivot sample's stride puts the
    /// same phase of the tooth in every sampled slot. Rising teeth show
    /// the sample only minima: the pivot is the buffer's minimum and the
    /// filter rules nothing out. Falling teeth show it only maxima: the
    /// pivot is the maximum, and wherever more than `lo` samples lie
    /// below it, it overshot and the whole-buffer fallback must run.
    /// Either way the answer is the oracle's.
    #[test]
    fn a_sawtooth_at_the_sample_stride_still_matches_the_oracle() {
        let mut fallbacks = 0;
        for period in [4usize, 32, 128, 195] {
            let n = PIVOT_SAMPLE * period;
            assert!(n >= FILTER_GATE && n / PIVOT_SAMPLE == period);
            let rising: Vec<f64> = (0..n).map(|j| (j % period) as f64).collect();
            let falling: Vec<f64> = rising.iter().map(|v| (period - 1) as f64 - v).collect();
            for q in [50.0, 99.0] {
                let lo = (q / 100.0 * (n - 1) as f64).floor() as usize;
                let skip = |xs: &[f64]| {
                    skip_below_pivot(&mut xs.to_vec(), lo, &mut |a: &f64, b: &f64| {
                        a.partial_cmp(b).expect("no NaN generated")
                    })
                };
                assert_eq!(skip(&rising), 0, "period {period} q={q}");
                let below_max = n - n / period;
                if below_max > lo {
                    assert_eq!(skip(&falling), 0, "period {period} q={q}: no fallback");
                    fallbacks += 1;
                } else {
                    assert_eq!(skip(&falling), below_max, "period {period} q={q}");
                }
            }
            assert_large_matches_oracle(&rising, 99.5).expect("rising");
            assert_large_matches_oracle(&falling, 99.5).expect("falling");
        }
        assert!(fallbacks >= 4, "only {fallbacks} overshooting cases");
    }

    #[test]
    fn nan_input_still_panics() {
        // 1 000 and below skip the filter, 10 000 and 50 000 take it; 1
        // is never a sampled slot.
        for n in [2usize, 3, 50, 1000, 10_000, 50_000] {
            for at in [0, 1, n / 2, n - 1] {
                for q in [0.0, 50.0, 99.0, 100.0] {
                    let mut xs: Vec<f64> = (0..n).map(|i| (i * 7919 % n) as f64).collect();
                    xs[at] = f64::NAN;
                    let err = std::panic::catch_unwind(|| percentile(&xs, q))
                        .expect_err("NaN must not pass through a percentile");
                    let msg = err
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| err.downcast_ref::<&str>().copied())
                        .unwrap_or_default();
                    assert!(
                        msg.contains("NaN in percentile input"),
                        "n={n} at={at} q={q}: {msg:?}"
                    );
                }
            }
        }
    }

    /// Host-independent complexity guard: the selection may look at each
    /// sample only a bounded number of times. A full sort of 100 000
    /// samples needs about 17·n comparisons; going back to one fails
    /// here on any machine, with no clock involved. At the tail
    /// quantiles the comparator sees only the pivot sample and the
    /// filter's survivors (≈ 0.08·n at p99; the filter pass itself
    /// compares with `<`), where a whole-buffer select needs about 2·n,
    /// so a filter that stops running fails here too.
    #[test]
    fn selection_is_linear_in_comparisons() {
        let n = 100_000usize;
        let mut rng = StdRng::seed_from_u64(12);
        let sample: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        for q in [50.0, 99.0, 99.95] {
            let mut xs = sample.clone();
            let mut calls = 0usize;
            let got = select_percentile(&mut xs, q, |a, b| {
                calls += 1;
                a.partial_cmp(b).expect("no NaN generated")
            });
            assert_eq!(got.to_bits(), percentile_by_sort(&sample, q).to_bits());
            assert!(calls < 10 * n, "q={q}: {calls} comparisons for n={n}");
            if q >= 99.0 {
                assert!(calls < n / 4, "q={q}: {calls} comparisons, filter off?");
            }
        }
    }

    #[test]
    fn r_squared_perfect_and_mean_predictor() {
        let y = [1.0, 2.0, 3.0];
        assert!((r_squared(&y, &y) - 1.0).abs() < 1e-12);
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&y, &mean_pred).abs() < 1e-12);
    }

    #[test]
    fn r_squared_degenerate_targets() {
        let y = [5.0, 5.0, 5.0];
        assert_eq!(r_squared(&y, &y), 1.0);
        assert_eq!(r_squared(&y, &[5.0, 5.0, 6.0]), 0.0);
    }

    #[test]
    fn ewma_smoothing() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.update(20.0), 15.0);
        assert_eq!(e.update(20.0), 17.5);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn rmse_of_two_series() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 4.0]), 2.0_f64.sqrt());
    }
}
