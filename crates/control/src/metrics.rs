//! Trace metrics: settling time, overshoot, steady-state stats.
//!
//! These quantify the power-control traces of Figs. 3–6 and 10: how fast a
//! controller settles, whether it overshoots the cap (a power *violation*
//! risks tripping breakers — the whole point of capping), and how tightly
//! it tracks at steady state. The paper computes steady-state statistics
//! over the last 80 of 100 control periods; [`steady_state`] generalizes
//! that convention.

/// Index of the first period after which the series stays within
/// `band` (absolute watts) of the set point forever. `None` if it never
/// settles.
pub fn settling_time(series: &[f64], setpoint: f64, band: f64) -> Option<usize> {
    if series.is_empty() {
        return None;
    }
    let mut settled_from = None;
    for (i, &v) in series.iter().enumerate() {
        if (v - setpoint).abs() <= band {
            if settled_from.is_none() {
                settled_from = Some(i);
            }
        } else {
            settled_from = None;
        }
    }
    settled_from
}

/// Maximum excess of the series above the set point (watts); 0 when the
/// cap is never violated. This is the paper's power-violation criterion
/// (Safe Fixed-Step "does violate the power constraint once").
pub fn max_overshoot(series: &[f64], setpoint: f64) -> f64 {
    series.iter().map(|v| v - setpoint).fold(0.0_f64, f64::max)
}

/// Mean and population standard deviation over the trailing
/// `tail_fraction` of the series (the paper uses the last 80%,
/// `tail_fraction = 0.8`).
///
/// The fraction is clamped to `[0, 1]`: `0.0` (or any fraction that
/// rounds to zero samples) degrades to exactly the last sample, `1.0`
/// covers the whole series, and an empty series returns `(0.0, 0.0)`.
pub fn steady_state(series: &[f64], tail_fraction: f64) -> (f64, f64) {
    if series.is_empty() {
        return (0.0, 0.0);
    }
    // Keep at least one sample: a fraction that rounds to 0 must mean
    // "the last sample", not a silently widened (or empty) tail.
    let keep = (((series.len() as f64) * tail_fraction.clamp(0.0, 1.0)).round() as usize)
        .clamp(1, series.len());
    let tail = &series[series.len() - keep..];
    (
        capgpu_linalg::stats::mean(tail),
        capgpu_linalg::stats::std_dev(tail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settling_detection() {
        let series = [700.0, 850.0, 890.0, 899.0, 901.0, 900.5];
        assert_eq!(settling_time(&series, 900.0, 5.0), Some(3));
        assert_eq!(settling_time(&series, 900.0, 0.1), None);
        assert_eq!(settling_time(&[], 900.0, 5.0), None);
    }

    #[test]
    fn settling_resets_on_excursion() {
        let series = [899.0, 950.0, 899.0, 900.0];
        assert_eq!(settling_time(&series, 900.0, 5.0), Some(2));
    }

    #[test]
    fn overshoot() {
        let series = [890.0, 905.0, 910.0, 899.0];
        assert_eq!(max_overshoot(&series, 900.0), 10.0);
        assert_eq!(max_overshoot(&[880.0], 900.0), 0.0);
    }

    #[test]
    fn steady_state_last_80_percent() {
        // 10 samples; last 8 are all 900 → mean 900, std 0.
        let mut series = vec![500.0, 700.0];
        series.extend(std::iter::repeat_n(900.0, 8));
        let (mean, std) = steady_state(&series, 0.8);
        assert_eq!(mean, 900.0);
        assert_eq!(std, 0.0);
    }

    #[test]
    fn steady_state_full_series() {
        let series = [1.0, 2.0, 3.0];
        let (mean, _) = steady_state(&series, 1.0);
        assert_eq!(mean, 2.0);
    }

    #[test]
    fn steady_state_empty() {
        assert_eq!(steady_state(&[], 0.8), (0.0, 0.0));
    }

    #[test]
    fn steady_state_edge_fractions() {
        let series = [1.0, 2.0, 3.0, 4.0];
        // 0.0 degrades to the last sample alone.
        assert_eq!(steady_state(&series, 0.0), (4.0, 0.0));
        // Out-of-range fractions clamp instead of panicking/underflowing.
        assert_eq!(steady_state(&series, -0.5), (4.0, 0.0));
        assert_eq!(steady_state(&series, 1.0), steady_state(&series, 2.5));
        assert_eq!(steady_state(&[], 0.0), (0.0, 0.0));
        assert_eq!(steady_state(&[], 1.0), (0.0, 0.0));
    }

    #[test]
    fn steady_state_rounding_boundary_keeps_at_least_one_sample() {
        let series: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        // 10 × 0.04 = 0.4 rounds to 0 kept samples: must degrade to the
        // last sample exactly, not widen to a larger tail.
        assert_eq!(steady_state(&series, 0.04), (10.0, 0.0));
        // 10 × 0.05 = 0.5 rounds away from zero → exactly 1 sample.
        assert_eq!(steady_state(&series, 0.05), (10.0, 0.0));
        // 10 × 0.15 = 1.5 rounds to 2 samples → mean of [9, 10].
        assert_eq!(steady_state(&series, 0.15), (9.5, 0.5));
        // A single-sample series is its own tail at any fraction.
        assert_eq!(steady_state(&[7.0], 0.0), (7.0, 0.0));
        assert_eq!(steady_state(&[7.0], 1.0), (7.0, 0.0));
    }
}
