//! Property tests for `ScaledModelTracker`'s slope fold. Its scalar
//! square-root recursion must give the closed-form exponentially
//! weighted slope `ΣλᵏΔxΔp / ΣλᵏΔx²` over the pairs it accepted, the
//! anchor prior included, whatever mix of stale periods (which break the
//! pair chain and forget) and unfolded periods (which extend the chain
//! and forget) the stream carries. Without forgetting, its R² and RMSE
//! are those of a batch least-squares fit of the same pairs.

use capgpu_control::model::LinearPowerModel;
use capgpu_control::sysid::ScaledModelTracker;
use capgpu_linalg::{lstsq, Matrix};
use proptest::prelude::*;

/// The pair every tracker folds in at construction.
const PRIOR: (f64, f64) = (30.0, 30.0);

/// What happens in one period of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Period {
    /// Fresh, and its pair enters the slope fold.
    Fold,
    /// Fresh, but its pair stays out of the fold.
    Skip,
    /// No fresh sample.
    Stale,
}

/// Drives a one-device tracker anchored at gain 1, offset 0 (so
/// `x = f` exactly) over a clock walk of `steps` with power
/// `gain·x + 400 + noise`, and returns it with the pairs it should have
/// folded. Every step is under the influence cap and the noise far
/// inside the plausibility gate, so each folded pair is accepted as is.
fn drive(
    forgetting: f64,
    gain: f64,
    steps: &[f64],
    noise: &[f64],
    periods: &[Period],
) -> (ScaledModelTracker, Vec<(f64, f64)>, (f64, f64)) {
    let anchor = LinearPowerModel::new(vec![1.0], 0.0).unwrap();
    let mut tracker = ScaledModelTracker::new(anchor, forgetting, &[]).unwrap();
    let (mut sxy, mut sxx) = (PRIOR.0 * PRIOR.1, PRIOR.0 * PRIOR.0);
    let mut folded = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    let mut x = 1000.0;
    for ((&step, &e), &period) in steps.iter().zip(noise).zip(periods) {
        x += step;
        let p = gain * x + 400.0 + e;
        let pair = prev.map(|(xp, pp)| (x - xp, p - pp));
        match period {
            Period::Stale => {
                tracker.decay();
                prev = None;
            }
            Period::Skip => {
                tracker.record(&[x], &[false], p, false);
                prev = Some((x, p));
            }
            Period::Fold => {
                tracker.record(&[x], &[false], p, true);
                prev = Some((x, p));
                if let Some(pair) = pair {
                    sxy = forgetting * sxy + pair.0 * pair.1;
                    sxx = forgetting * sxx + pair.0 * pair.0;
                    folded.push(pair);
                    continue;
                }
            }
        }
        if !matches!(period, Period::Fold) {
            sxy *= forgetting;
            sxx *= forgetting;
        }
    }
    (tracker, folded, (sxy, sxx))
}

fn periods() -> impl Strategy<Value = Vec<Period>> {
    prop::collection::vec(
        prop::sample::select(vec![
            Period::Fold,
            Period::Fold,
            Period::Fold,
            Period::Skip,
            Period::Stale,
        ]),
        60,
    )
}

fn steps() -> impl Strategy<Value = Vec<f64>> {
    // |Δx| in [1, 9.5] W, either sign: under the 10 W influence cap.
    prop::collection::vec(1.0..9.5f64, 60).prop_map(|v| {
        v.iter()
            .enumerate()
            .map(|(i, s)| if i % 3 == 1 { -s } else { *s })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scale is the closed-form weighted slope to 1e-12 relative.
    #[test]
    fn scale_is_the_weighted_slope_of_the_accepted_pairs(
        forgetting in prop::sample::select(vec![0.9, 0.95, 0.98, 1.0]),
        gain in 0.3..3.0f64,
        steps in steps(),
        noise in prop::collection::vec(-2.0..2.0f64, 60),
        periods in periods(),
    ) {
        let (tracker, folded, (sxy, sxx)) = drive(forgetting, gain, &steps, &noise, &periods);
        let (_, accepted, rejected) = tracker.stats();
        prop_assert_eq!(rejected, 0);
        prop_assert_eq!(accepted as usize, folded.len());
        prop_assert_eq!(tracker.len(), folded.len() + 1);
        let closed = sxy / sxx;
        prop_assert!(closed > 0.0);
        prop_assert!(
            (tracker.scale() - closed).abs() <= 1e-12 * closed,
            "scale {} vs closed form {closed}",
            tracker.scale()
        );
    }

    /// At λ = 1, R² and RMSE are the batch fit's over prior + pairs.
    #[test]
    fn unforgetting_fit_quality_matches_batch_lstsq(
        gain in 0.3..3.0f64,
        steps in steps(),
        noise in prop::collection::vec(-2.0..2.0f64, 60),
        periods in periods(),
    ) {
        let (tracker, folded, _) = drive(1.0, gain, &steps, &noise, &periods);
        let mut rows = vec![PRIOR];
        rows.extend(&folded);
        let design = Matrix::from_vec(rows.len(), 1, rows.iter().map(|r| r.0).collect());
        let y: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let batch = lstsq::solve(&design, &y).unwrap();
        prop_assert!((tracker.scale() - batch.coefficients[0]).abs() < 1e-9);
        prop_assert!(
            (tracker.r_squared() - batch.r_squared).abs() < 1e-9,
            "R² {} vs {}",
            tracker.r_squared(),
            batch.r_squared
        );
        prop_assert!(
            (tracker.rmse() - batch.rmse()).abs() < 1e-9,
            "RMSE {} vs {}",
            tracker.rmse(),
            batch.rmse()
        );
    }
}
