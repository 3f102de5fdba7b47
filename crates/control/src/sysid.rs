//! Least-squares system identification (paper §4.2).
//!
//! "In system identification, we systematically vary one frequency input
//! (e.g., GPU frequency) while holding the other fixed (e.g., CPU
//! frequency) and record the resulting power consumption; then we reverse
//! the process. We collect these measurements into a set of linear
//! equations and solve for **A** via least square regression."
//!
//! [`ExcitationPlan`] generates exactly that schedule; [`SystemIdentifier`]
//! accumulates `(F, p)` samples from any source and produces a
//! [`LinearPowerModel`] with its R² (the paper reports R² = 0.96 on the
//! V100 testbed, Fig. 2a). [`identify_sweep`] drives the two over any
//! plant: the experiment runner and the daemon each supply only how to
//! dwell one control period at a point.

use capgpu_linalg::lstsq::LstsqFit;
use capgpu_linalg::{lstsq, stats, LinalgError, Matrix, Qr};

use crate::model::LinearPowerModel;
use crate::{ControlError, Result};

/// Ridge penalty used when the excitation is collinear — shared by the
/// batch and streaming paths so they agree in the fallback case too.
const RIDGE_FALLBACK_LAMBDA: f64 = 1e-6;

/// One-knob-at-a-time excitation schedule.
///
/// For each device in turn, sweeps that device's frequency from its minimum
/// to its maximum in `steps_per_device` steps while every other device is
/// held at its `hold` frequency.
#[derive(Debug, Clone)]
pub struct ExcitationPlan {
    /// Per-device minimum frequency (MHz).
    pub f_min: Vec<f64>,
    /// Per-device maximum frequency (MHz).
    pub f_max: Vec<f64>,
    /// Frequency each device is parked at while another is swept (MHz).
    pub hold: Vec<f64>,
    /// Sweep points per device.
    pub steps_per_device: usize,
}

impl ExcitationPlan {
    /// Creates a plan; validates bounds.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] on inconsistent lengths/bounds or fewer
    /// than 2 steps per device.
    pub fn new(
        f_min: Vec<f64>,
        f_max: Vec<f64>,
        hold: Vec<f64>,
        steps_per_device: usize,
    ) -> Result<Self> {
        let n = f_min.len();
        if n == 0 {
            return Err(ControlError::BadConfig("excitation plan needs >= 1 device"));
        }
        if f_max.len() != n || hold.len() != n {
            return Err(ControlError::BadConfig("excitation plan length mismatch"));
        }
        if f_min.iter().zip(f_max.iter()).any(|(lo, hi)| lo >= hi) {
            return Err(ControlError::BadConfig(
                "excitation plan needs f_min < f_max",
            ));
        }
        if steps_per_device < 2 {
            return Err(ControlError::BadConfig(
                "excitation needs >= 2 steps per device",
            ));
        }
        Ok(ExcitationPlan {
            f_min,
            f_max,
            hold,
            steps_per_device,
        })
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.f_min.len()
    }

    /// Total number of excitation points.
    pub fn len(&self) -> usize {
        self.num_devices() * self.steps_per_device
    }

    /// True when the plan is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th frequency vector of the schedule.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    pub fn point(&self, idx: usize) -> Vec<f64> {
        assert!(idx < self.len(), "excitation index out of range");
        let dev = idx / self.steps_per_device;
        let step = idx % self.steps_per_device;
        let mut f = self.hold.clone();
        let t = step as f64 / (self.steps_per_device - 1) as f64;
        f[dev] = self.f_min[dev] + t * (self.f_max[dev] - self.f_min[dev]);
        f
    }

    /// Iterates over all excitation points.
    pub fn points(&self) -> impl Iterator<Item = Vec<f64>> + '_ {
        (0..self.len()).map(|i| self.point(i))
    }
}

/// Accumulates `(F, p)` samples and fits the linear power model.
#[derive(Debug, Clone)]
pub struct SystemIdentifier {
    num_devices: usize,
    freqs: Vec<Vec<f64>>,
    powers: Vec<f64>,
}

/// A fitted model together with its goodness of fit.
#[derive(Debug, Clone)]
pub struct IdentifiedModel {
    /// The fitted linear power model.
    pub model: LinearPowerModel,
    /// Coefficient of determination of the fit (paper: 0.96).
    pub r_squared: f64,
    /// Root-mean-square prediction error in watts.
    pub rmse_watts: f64,
    /// Number of samples used.
    pub n_samples: usize,
}

impl SystemIdentifier {
    /// Creates an identifier for `num_devices` devices.
    pub fn new(num_devices: usize) -> Self {
        SystemIdentifier {
            num_devices,
            freqs: Vec::new(),
            powers: Vec::new(),
        }
    }

    /// Records one sample: the frequency vector applied during a control
    /// period and the average power measured over that period.
    ///
    /// # Panics
    /// Panics if `freqs.len()` differs from the configured device count.
    pub fn record(&mut self, freqs: &[f64], power_watts: f64) {
        assert_eq!(freqs.len(), self.num_devices, "sample frequency length");
        self.freqs.push(freqs.to_vec());
        self.powers.push(power_watts);
    }

    /// Number of samples recorded so far.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.freqs.clear();
        self.powers.clear();
    }

    /// Fits `p = A·F + C` by least squares (QR), with a tiny ridge fallback
    /// when the excitation is collinear (e.g. a stuck actuator).
    ///
    /// # Errors
    /// * [`ControlError::InsufficientData`] with fewer samples than
    ///   `num_devices + 1` (the intercept needs one more equation).
    /// * [`ControlError::Linalg`] if even the ridge fit fails.
    pub fn fit(&self) -> Result<IdentifiedModel> {
        let n = self.num_devices;
        if self.len() < n + 1 {
            return Err(ControlError::InsufficientData(
                "need at least num_devices + 1 samples",
            ));
        }
        // Design matrix [F | 1].
        let mut rows = Vec::with_capacity(self.len());
        for f in &self.freqs {
            let mut row = f.clone();
            row.push(1.0);
            rows.push(row);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&row_refs);
        let qr = Qr::new(&x).map_err(ControlError::Linalg)?;
        let fit = match qr.solve_lstsq(&self.powers) {
            Ok(coefficients) => {
                let rss = qr.residual_sq(&self.powers).map_err(ControlError::Linalg)?;
                LstsqFit {
                    r_squared: stats::r_squared_from_rss(&self.powers, rss),
                    rss,
                    n_obs: self.len(),
                    coefficients,
                }
            }
            // Collinear excitation (device never moved): ridge keeps the
            // identified gains bounded instead of failing outright.
            Err(LinalgError::Singular) => {
                lstsq::solve_ridge(&x, &self.powers, RIDGE_FALLBACK_LAMBDA)
                    .map_err(ControlError::Linalg)?
            }
            Err(e) => return Err(ControlError::Linalg(e)),
        };
        let gains = fit.coefficients[..n].to_vec();
        let offset = fit.coefficients[n];
        Ok(IdentifiedModel {
            model: LinearPowerModel::new(gains, offset)?,
            r_squared: fit.r_squared,
            rmse_watts: fit.rmse(),
            n_samples: self.len(),
        })
    }
}

/// What [`identify_sweep`] measured and fitted.
#[derive(Debug, Clone)]
pub struct SweepFit {
    /// The least-squares fit over the points that answered.
    pub fitted: IdentifiedModel,
    /// `(applied frequencies, mean power)` of every point that answered,
    /// in plan order — the samples a [`ScaledModelTracker`] starts from.
    pub rows: Vec<(Vec<f64>, f64)>,
    /// Points in the excitation plan, answered or not.
    pub points: usize,
}

/// The paper's identification procedure (§4.2) over any plant: sweep each
/// device from `f_min` to `f_max` in `steps_per_device` points with the
/// others held at `hold_fraction` of their range, `dwell` one control
/// period at each point, and fit `p = A·F + C` to what came back.
///
/// `dwell` commands the point and returns the frequencies the plant
/// actually ran at with the mean power it measured there, or `None` when
/// the meter stayed silent for the whole dwell (the point is skipped).
///
/// # Errors
/// [`ControlError::BadConfig`] for an invalid plan, whatever `dwell`
/// fails with, and [`SystemIdentifier::fit`]'s errors — notably
/// [`ControlError::InsufficientData`] when too few points answered.
pub fn identify_sweep<E: From<ControlError>>(
    f_min: &[f64],
    f_max: &[f64],
    hold_fraction: f64,
    steps_per_device: usize,
    mut dwell: impl FnMut(&[f64]) -> std::result::Result<Option<(Vec<f64>, f64)>, E>,
) -> std::result::Result<SweepFit, E> {
    let hold = f_min
        .iter()
        .zip(f_max)
        .map(|(lo, hi)| lo + hold_fraction * (hi - lo))
        .collect();
    let plan = ExcitationPlan::new(f_min.to_vec(), f_max.to_vec(), hold, steps_per_device)?;
    let mut ident = SystemIdentifier::new(plan.num_devices());
    let mut rows = Vec::with_capacity(plan.len());
    for point in plan.points() {
        if let Some((applied, p_mean)) = dwell(&point)? {
            ident.record(&applied, p_mean);
            rows.push((applied, p_mean));
        }
    }
    Ok(SweepFit {
        fitted: ident.fit()?,
        rows,
        points: plan.len(),
    })
}

/// Streaming *restricted* re-identification — one common gain scale plus
/// the power offset, anchored to a previously identified model — and the
/// loop's one record of how the plant answered its clock moves.
///
/// Closed-loop data cannot separate `n + 1` parameters (the loop moves
/// every clock together along one manifold, and utilization shifts along
/// it confound the per-device slopes; DESIGN §10), but it identifies the
/// overall loop gain and the power level crisply. So the tracker fits
/// those two and keeps the anchor's gain *ratios*.
///
/// Each fresh period gives `x = ĝ·F`, the anchor's predicted dynamic
/// power of the devices in service, and the measured `p`. Consecutive
/// fresh periods under one ejection pattern form a pair `(Δx, Δp)`, read
/// twice:
///
/// * the **scale** `s` (model `p ≈ s·x + b`) is a scalar square-root RLS
///   on the pairs the caller lets in, `Δp ≈ s·Δx`. Differencing cancels
///   the offset exactly, so an offset step (load or platform drift at
///   constant clocks) has `Δx ≈ 0` and **no leverage on the slope**,
///   where it would pivot a joint 2-parameter fit;
/// * the **authority verdict** ([`authority_lost`](Self::authority_lost))
///   folds the last [`AUTHORITY_PAIRS`] raw pairs, all of them.
///
/// The **offset** `b` is an exponentially weighted mean of the slope
/// residual `p − s·x`, which tracks level steps within a few periods.
/// `O(1)` per period.
#[derive(Debug, Clone)]
pub struct ScaledModelTracker {
    anchor: LinearPowerModel,
    /// Forgetting factor `λ ∈ (0, 1]` of the slope fold.
    forgetting: f64,
    /// The fold in square-root form, `r² = ΣλᵏΔx²` and `r·d = ΣλᵏΔxΔp`,
    /// with its weighted RSS, weight `Σλᵏ`, `ΣΔp` and `ΣΔp²` (for R² and
    /// RMSE).
    r: f64,
    d: f64,
    weighted_rss: f64,
    weight_sum: f64,
    dp_sum: f64,
    dp2_sum: f64,
    /// EWMA offset level and its smoothing weight `α = 1 − λ`.
    offset: f64,
    alpha: f64,
    /// Last fresh period's `(x, p)` and the ejection pattern it was
    /// measured under; `None` at the start of a chain.
    prev: Option<(f64, f64)>,
    ejected: Vec<bool>,
    /// The latest raw pairs, oldest first; the last `window_len` live.
    window: [(f64, f64); AUTHORITY_PAIRS],
    window_len: usize,
    /// Telemetry: see [`stats`](Self::stats).
    stats: (u64, u64, u64),
}

/// Influence cap for one difference pair (W of `Δx`). A pair's weight
/// grows with `Δx²`, so one large swing — e.g. the pair straddling a
/// plant change — could outweigh dozens of probe-sized pairs. Pairs
/// beyond the cap are rescaled onto it, slope preserved: the scalar
/// analogue of Huber influence clipping.
const DIFF_INFLUENCE_CAP: f64 = 10.0;

/// Pairs the authority verdict looks back over.
pub const AUTHORITY_PAIRS: usize = 6;
/// Summed `|Δx|` (W) the window needs before its verdict counts: a
/// converged loop barely moves its clocks, and a ratio of noise is noise.
pub const AUTHORITY_MIN_EXCITATION_W: f64 = 25.0;
/// `ΣΔxΔp / ΣΔx²` below which authority is lost (1 = the plant follows
/// the anchor, 0 = no response).
pub const AUTHORITY_MIN_RATIO: f64 = 0.3;

impl ScaledModelTracker {
    /// Creates a tracker anchored to `model` with forgetting `λ ∈ (0, 1]`.
    /// The scale starts at the anchor's own (`s = 1`) with the weight of
    /// one synthetic ~30 W difference, plus the identification sweep's
    /// `(frequencies, mean power)` `rows`, so the first closed-loop refits
    /// do not overweight a few near-steady-state samples. The authority
    /// window starts empty: it judges the running loop.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] for `λ` outside `(0, 1]`.
    pub fn new(model: LinearPowerModel, forgetting: f64, rows: &[(Vec<f64>, f64)]) -> Result<Self> {
        if !(forgetting > 0.0 && forgetting <= 1.0) {
            return Err(ControlError::BadConfig(
                "RLS forgetting factor must be in (0, 1]",
            ));
        }
        let (offset, devices) = (model.offset(), model.gains().len());
        let mut tracker = ScaledModelTracker {
            anchor: model,
            forgetting,
            r: 0.0,
            d: 0.0,
            weighted_rss: 0.0,
            weight_sum: 0.0,
            dp_sum: 0.0,
            dp2_sum: 0.0,
            offset,
            alpha: 1.0 - forgetting,
            prev: None,
            ejected: vec![false; devices],
            window: [(0.0, 0.0); AUTHORITY_PAIRS],
            window_len: 0,
            stats: (0, 0, 0),
        };
        tracker.fold(30.0, 30.0);
        let in_service = vec![false; devices];
        for (freqs, p_mean) in rows {
            tracker.record(freqs, &in_service, *p_mean, true);
        }
        tracker.clear_authority();
        Ok(tracker)
    }

    /// Folds in one fresh period: the frequencies applied, the devices
    /// ejected and the average power. Its pair with the previous fresh
    /// period (none across an ejection change: that cliff is topology)
    /// enters the authority window, and the slope fold only when `fold`,
    /// the caller's judgement that both periods were quasi-steady;
    /// otherwise the offset is left alone and one step is forgotten.
    ///
    /// # Panics
    /// Panics if `freqs.len()` or `ejected.len()` differs from the
    /// anchor's device count.
    pub fn record(&mut self, freqs: &[f64], ejected: &[bool], power_watts: f64, fold: bool) {
        assert_eq!(ejected.len(), self.ejected.len(), "ejected flag length");
        let out_of_service: f64 = (self.anchor.gains().iter().zip(freqs).zip(ejected))
            .filter(|(_, e)| **e)
            .map(|((g, f), _)| g * f)
            .sum();
        let x = self.anchor.predict(freqs) - self.anchor.offset() - out_of_service;
        if ejected != self.ejected.as_slice() {
            self.ejected.copy_from_slice(ejected);
            self.prev = None;
            self.window_len = 0;
        }
        let pair = self.prev.map(|(x0, p0)| (x - x0, power_watts - p0));
        self.prev = Some((x, power_watts));
        if let Some(raw) = pair {
            self.window.copy_within(1.., 0);
            self.window[AUTHORITY_PAIRS - 1] = raw;
            self.window_len = (self.window_len + 1).min(AUTHORITY_PAIRS);
        }
        if !fold {
            self.forget();
            return;
        }
        if let Some((mut dx, mut dp)) = pair {
            if dx.abs() > DIFF_INFLUENCE_CAP {
                let r = DIFF_INFLUENCE_CAP / dx.abs();
                dx *= r;
                dp *= r;
            }
            // Plausibility gate: a Δp no sane slope could produce from its
            // Δx is an *offset step* caught mid-pair (a probe-sized Δx with
            // a +250 W jump implies slope ≈ −25), not slope evidence: drop
            // it and let the offset EWMA absorb the level change.
            let s = self.scale();
            if (dp - s * dx).abs() <= 3.0 * dx.abs() * s.max(1.0) + 15.0 {
                self.fold(dx, dp);
                self.stats.1 += 1;
            } else {
                self.stats.2 += 1;
            }
        }
        self.offset += self.alpha * (power_watts - self.scale() * x - self.offset);
        self.stats.0 += 1;
    }

    /// A stale period (no fresh meter sample): breaks the pair chain and
    /// applies one step of forgetting, which tracks plant variation over
    /// *time*, gaps included.
    pub fn decay(&mut self) {
        self.prev = None;
        self.forget();
    }

    /// One step of exponential forgetting: the information scales by `λ`.
    fn forget(&mut self) {
        if self.forgetting < 1.0 {
            let sqrt_lambda = self.forgetting.sqrt();
            self.r *= sqrt_lambda;
            self.d *= sqrt_lambda;
            self.weighted_rss *= self.forgetting;
            self.weight_sum *= self.forgetting;
            self.dp_sum *= self.forgetting;
            self.dp2_sum *= self.forgetting;
        }
    }

    /// Forgets, then rotates `(Δx, Δp)` into `(r, d)` with one Givens
    /// rotation; the rotated-out residual is the pair's exact share of
    /// the weighted RSS.
    fn fold(&mut self, dx: f64, dp: f64) {
        self.forget();
        let mut residual = dp;
        if dx != 0.0 {
            let rad = self.r.hypot(dx);
            let (c, s, d) = (self.r / rad, dx / rad, self.d);
            self.r = rad;
            self.d = c * d + s * dp;
            residual = c * dp - s * d;
        }
        self.weighted_rss += residual * residual;
        self.weight_sum += 1.0;
        self.dp_sum += dp;
        self.dp2_sum += dp * dp;
    }

    /// Number of difference pairs folded in (including the anchor prior).
    pub fn len(&self) -> usize {
        self.stats.1 as usize + 1
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.stats.0 == 0
    }

    /// Current scale estimate: `1.0` until evidence says otherwise (a
    /// numerically zero `r` carries none).
    pub fn scale(&self) -> f64 {
        let s = self.d / self.r;
        if self.r.abs() > 1e-12 * self.r.abs().max(1.0) && s.is_finite() && s > 0.0 {
            s
        } else {
            1.0
        }
    }

    /// Current offset-level estimate (W).
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Exponentially weighted R² of the difference fit.
    pub fn r_squared(&self) -> f64 {
        if self.weight_sum == 0.0 {
            return 0.0;
        }
        let tss = self.dp2_sum - self.dp_sum * self.dp_sum / self.weight_sum;
        if tss > 0.0 {
            1.0 - self.weighted_rss / tss
        } else if self.weighted_rss <= f64::EPSILON {
            1.0
        } else {
            0.0
        }
    }

    /// Exponentially weighted RMSE (W) of the difference fit.
    pub fn rmse(&self) -> f64 {
        if self.weight_sum == 0.0 {
            return 0.0;
        }
        (self.weighted_rss / self.weight_sum).sqrt()
    }

    /// Whether the plant has stopped answering its clocks: over the last
    /// [`AUTHORITY_PAIRS`] pairs, `Σ|Δx|` reaches
    /// [`AUTHORITY_MIN_EXCITATION_W`] but `ΣΔxΔp / ΣΔx²` stays under
    /// [`AUTHORITY_MIN_RATIO`]. False until the window is full.
    pub fn authority_lost(&self) -> bool {
        let (mut excitation, mut num, mut den) = (0.0, 0.0, 0.0);
        for &(dx, dp) in &self.window {
            excitation += dx.abs();
            num += dx * dp;
            den += dx * dx;
        }
        self.window_len == AUTHORITY_PAIRS
            && excitation >= AUTHORITY_MIN_EXCITATION_W
            && num / den < AUTHORITY_MIN_RATIO
    }

    /// Empties the authority window, so the verdict is re-earned from
    /// the pairs that follow (the chain itself is kept).
    pub fn clear_authority(&mut self) {
        self.window_len = 0;
    }

    /// Telemetry counters since construction: `(samples recorded,
    /// difference pairs accepted, pairs dropped by the plausibility
    /// gate)`. Deterministic — derived purely from the sample stream.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.stats
    }

    /// The rescaled model (`scale · ĝ`, tracked offset) plus the scale.
    ///
    /// # Errors
    /// * [`ControlError::InsufficientData`] until at least 3 difference
    ///   pairs beyond the prior have been folded in.
    pub fn fit(&self) -> Result<(LinearPowerModel, f64)> {
        if self.len() < 4 {
            return Err(ControlError::InsufficientData(
                "need difference pairs beyond the anchor prior",
            ));
        }
        let scale = self.scale();
        let gains = self.anchor.gains().iter().map(|g| g * scale).collect();
        Ok((LinearPowerModel::new(gains, self.offset)?, scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan2() -> ExcitationPlan {
        // CPU 1000–2400 MHz held at 1400; GPU 435–1350 MHz held at 495 —
        // the paper's §4.2 example schedule.
        ExcitationPlan::new(
            vec![1000.0, 435.0],
            vec![2400.0, 1350.0],
            vec![1400.0, 495.0],
            8,
        )
        .unwrap()
    }

    #[test]
    fn plan_sweeps_one_device_at_a_time() {
        let plan = plan2();
        assert_eq!(plan.len(), 16);
        // First half sweeps device 0 with device 1 held.
        for i in 0..8 {
            let p = plan.point(i);
            assert_eq!(p[1], 495.0);
        }
        // Second half sweeps device 1 with device 0 held.
        for i in 8..16 {
            let p = plan.point(i);
            assert_eq!(p[0], 1400.0);
        }
        // Sweep endpoints hit the bounds exactly.
        assert_eq!(plan.point(0)[0], 1000.0);
        assert_eq!(plan.point(7)[0], 2400.0);
        assert_eq!(plan.point(8)[1], 435.0);
        assert_eq!(plan.point(15)[1], 1350.0);
    }

    #[test]
    fn plan_validation() {
        assert!(ExcitationPlan::new(vec![], vec![], vec![], 4).is_err());
        assert!(ExcitationPlan::new(vec![2.0], vec![1.0], vec![1.5], 4).is_err());
        assert!(ExcitationPlan::new(vec![1.0], vec![2.0], vec![1.5], 1).is_err());
        assert!(ExcitationPlan::new(vec![1.0], vec![2.0, 3.0], vec![1.5], 4).is_err());
    }

    #[test]
    fn identifies_exact_linear_system() {
        let plan = plan2();
        let truth = LinearPowerModel::new(vec![0.06, 0.18], 250.0).unwrap();
        let mut ident = SystemIdentifier::new(2);
        for f in plan.points() {
            ident.record(&f, truth.predict(&f));
        }
        let fitted = ident.fit().unwrap();
        assert!((fitted.model.gains()[0] - 0.06).abs() < 1e-9);
        assert!((fitted.model.gains()[1] - 0.18).abs() < 1e-9);
        assert!((fitted.model.offset() - 250.0).abs() < 1e-6);
        assert!(fitted.r_squared > 0.999999);
        assert!(fitted.rmse_watts < 1e-6);
    }

    #[test]
    fn identifies_noisy_system_with_high_r2() {
        // Deterministic pseudo-noise; the paper reports R² = 0.96.
        let plan = plan2();
        let truth = LinearPowerModel::new(vec![0.06, 0.18], 250.0).unwrap();
        let mut ident = SystemIdentifier::new(2);
        for (i, f) in plan.points().enumerate() {
            let noise = 6.0 * ((i as f64 * 2.399).sin()); // ±6 W sensor noise
            ident.record(&f, truth.predict(&f) + noise);
        }
        let fitted = ident.fit().unwrap();
        assert!(fitted.r_squared > 0.9, "R² = {}", fitted.r_squared);
        assert!((fitted.model.gains()[1] - 0.18).abs() < 0.05);
    }

    #[test]
    fn insufficient_data_rejected() {
        let mut ident = SystemIdentifier::new(3);
        ident.record(&[1.0, 2.0, 3.0], 100.0);
        ident.record(&[2.0, 2.0, 3.0], 101.0);
        assert!(matches!(
            ident.fit().unwrap_err(),
            ControlError::InsufficientData(_)
        ));
    }

    #[test]
    fn collinear_excitation_falls_back_to_ridge() {
        // Device 1 never moves → its gain is unidentifiable; ridge returns
        // a bounded estimate instead of erroring.
        let mut ident = SystemIdentifier::new(2);
        for i in 0..10 {
            let f = [1000.0 + 100.0 * i as f64, 495.0];
            ident.record(&f, 250.0 + 0.06 * f[0] + 0.18 * 495.0);
        }
        let fitted = ident.fit().unwrap();
        assert!((fitted.model.gains()[0] - 0.06).abs() < 1e-3);
        assert!(fitted.model.gains()[1].abs() < 1.0);
    }

    #[test]
    fn clear_resets() {
        let mut ident = SystemIdentifier::new(1);
        ident.record(&[1.0], 2.0);
        assert_eq!(ident.len(), 1);
        ident.clear();
        assert!(ident.is_empty());
    }

    /// A noiseless two-device plant for the sweep helper's tests.
    fn truth() -> LinearPowerModel {
        LinearPowerModel::new(vec![0.06, 0.18], 250.0).unwrap()
    }

    #[test]
    fn sweep_skips_silent_points_and_reports_the_plan_size() {
        let truth = truth();
        // The meter stays silent at these five of the sixteen points.
        let silent = [2, 5, 8, 11, 14];
        let mut asked = 0usize;
        let fit = identify_sweep(&[1000.0, 435.0], &[2400.0, 1350.0], 0.5, 8, |point| {
            let answer = (!silent.contains(&asked)).then(|| (point.to_vec(), truth.predict(point)));
            asked += 1;
            Ok::<_, ControlError>(answer)
        })
        .unwrap();
        assert_eq!(asked, 16);
        assert_eq!(fit.points, 16);
        assert_eq!(fit.rows.len(), 11);
        assert_eq!(fit.fitted.n_samples, 11);
        assert!((fit.fitted.model.gains()[1] - 0.18).abs() < 1e-9);
        // Non-swept devices are held at the requested fraction of range.
        assert_eq!(fit.rows[0].0, vec![1000.0, 892.5]);
    }

    #[test]
    fn sweep_with_no_answers_is_insufficient_data() {
        let err = identify_sweep(&[1000.0, 435.0], &[2400.0, 1350.0], 0.5, 4, |_| {
            Ok::<_, ControlError>(None)
        })
        .unwrap_err();
        assert!(matches!(err, ControlError::InsufficientData(_)));
    }

    #[test]
    fn sweep_propagates_plan_and_dwell_errors() {
        let bad_plan = identify_sweep(&[1000.0], &[2400.0], 0.5, 1, |_| {
            Ok::<_, ControlError>(None)
        });
        assert!(matches!(bad_plan.unwrap_err(), ControlError::BadConfig(_)));
        let dwell_fails = identify_sweep(&[1000.0], &[2400.0], 0.5, 4, |_| {
            Err(ControlError::BadConfig("plant gone"))
        });
        assert!(matches!(
            dwell_fails.unwrap_err(),
            ControlError::BadConfig("plant gone")
        ));
    }

    #[test]
    fn seeded_tracker_equals_new_plus_record_loop() {
        let truth = truth();
        let rows: Vec<(Vec<f64>, f64)> = plan2()
            .points()
            .enumerate()
            .map(|(i, f)| {
                let p = truth.predict(&f) + 4.0 * (i as f64 * 2.399).sin();
                (f, p)
            })
            .collect();
        let seeded = ScaledModelTracker::new(truth.clone(), 0.98, &rows).unwrap();
        let mut looped = ScaledModelTracker::new(truth, 0.98, &[]).unwrap();
        for (f, p) in &rows {
            looped.record(f, &[false; 2], *p, true);
        }
        assert_eq!(seeded.scale().to_bits(), looped.scale().to_bits());
        assert_eq!(seeded.offset().to_bits(), looped.offset().to_bits());
        assert_eq!(seeded.r_squared().to_bits(), looped.r_squared().to_bits());
        assert_eq!(seeded.stats(), looped.stats());
        let (a, sa) = seeded.fit().unwrap();
        let (b, sb) = looped.fit().unwrap();
        assert_eq!(a, b);
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert!(ScaledModelTracker::new(a, 0.0, &rows).is_err());
    }
}
