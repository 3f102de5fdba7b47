//! Property test for the streaming RLS factor behind
//! `ScaledModelTracker`: the incremental QR factor must agree with a
//! one-shot batch least-squares solve on the same samples whenever no
//! forgetting is applied, because with `forgetting = 1.0` both minimize
//! the identical sum of squared residuals.

use capgpu_linalg::rls::RlsFactor;
use capgpu_linalg::{lstsq, Matrix};
use proptest::prelude::*;

/// Maximum device count exercised by the random streams below.
const MAX_DEVICES: usize = 5;

/// Assembles a well-conditioned random sample stream from independently
/// drawn ingredients: `m` frequency rows of width `n` cut from a flat
/// pool spanning 435–2400 MHz (so columns are excited independently),
/// and matching power readings from an affine law plus bounded noise.
fn make_stream(
    n: usize,
    m: usize,
    flat: &[f64],
    gains: &[f64],
    offset: f64,
    noise: &[f64],
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let freqs: Vec<Vec<f64>> = (0..m)
        .map(|i| flat[i * MAX_DEVICES..i * MAX_DEVICES + n].to_vec())
        .collect();
    let powers: Vec<f64> = freqs
        .iter()
        .zip(noise.iter())
        .map(|(f, e)| {
            offset
                + f.iter()
                    .zip(gains.iter())
                    .map(|(fi, g)| fi * g)
                    .sum::<f64>()
                + e
        })
        .collect();
    (freqs, powers)
}

/// Builds the `[F | 1]` design matrix the identifiers use internally.
fn design(rows: &[Vec<f64>]) -> Matrix {
    let n = rows[0].len();
    let mut data = Vec::with_capacity(rows.len() * (n + 1));
    for r in rows {
        data.extend_from_slice(r);
        data.push(1.0);
    }
    Matrix::from_vec(rows.len(), n + 1, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With `forgetting = 1.0`, the raw QR-RLS factor reproduces the
    /// batch `lstsq::solve` coefficients, RSS and R² to 1e-9.
    #[test]
    fn rls_factor_matches_batch_lstsq(
        n in 2usize..6,
        flat in prop::collection::vec(435.0..2400.0f64, 24 * MAX_DEVICES),
        gains in prop::collection::vec(0.02..0.3f64, MAX_DEVICES),
        offset in 100.0..400.0f64,
        noise in prop::collection::vec(-3.0..3.0f64, 24),
    ) {
        let (freqs, powers) = make_stream(n, 24, &flat, &gains, offset, &noise);
        let mut factor = RlsFactor::new(n + 1, 1.0).unwrap();
        let mut row = vec![0.0; n + 1];
        for (f, p) in freqs.iter().zip(powers.iter()) {
            row[..n].copy_from_slice(f);
            row[n] = 1.0;
            factor.update(&row, *p);
        }
        let batch = lstsq::solve(&design(&freqs), &powers).unwrap();
        let streamed = factor.solve().unwrap();
        for (a, b) in streamed.iter().zip(batch.coefficients.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "coeff {a} vs {b}");
        }
        prop_assert!((factor.weighted_rss() - batch.rss).abs() < 1e-9,
            "rss {} vs {}", factor.weighted_rss(), batch.rss);
        prop_assert!((factor.r_squared() - batch.r_squared).abs() < 1e-9);
    }
}
