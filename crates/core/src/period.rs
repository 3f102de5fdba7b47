//! The steps of a control period that the experiment runner and the
//! daemon share: the identification dwell, the period's power reading,
//! the model tracker's record, the health-and-decide step and the refit
//! push. What the two loops still do differently (DESIGN §18) stays at
//! their call sites.

use capgpu_backend::PowerBackend;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::sysid::{identify_sweep, ScaledModelTracker, SweepFit};
use capgpu_control::ControlError;

use crate::controllers::{ControlInput, DeviceLayout, PowerController};
use crate::supervisor::{check_arity, Decision, Directive, HealthSample, Ladder, SupervisorTier};
use crate::weights::PhaseMix;
use crate::Result;

/// Where identification parks the devices it is not sweeping, as a
/// fraction of their frequency range (0 = f_min, 1 = f_max): the
/// mid-range hold of the paper's §4.2 sweep.
const SYSID_HOLD_FRACTION: f64 = 0.5;

/// The §4.2 identification sweep: each point is commanded, its effective
/// clocks are read into `applied`, and the plant dwells `period_s` calls
/// of `advance_second`, whose fresh meter samples the point averages.
pub(crate) fn identify<B: PowerBackend + ?Sized>(
    backend: &mut B,
    layout: &DeviceLayout,
    steps_per_device: usize,
    period_s: usize,
    applied: &mut Vec<f64>,
    mut advance_second: impl FnMut(&mut B, &[f64]) -> Result<Option<f64>>,
) -> Result<SweepFit> {
    let (f_min, f_max) = (&layout.f_min, &layout.f_max);
    identify_sweep(
        f_min,
        f_max,
        SYSID_HOLD_FRACTION,
        steps_per_device,
        |point| {
            backend.set_frequencies(point)?;
            backend.effective_frequencies_into(applied)?;
            let (mut power_sum, mut samples) = (0.0, 0usize);
            for _ in 0..period_s {
                if let Some(p) = advance_second(backend, applied)? {
                    power_sum += p;
                    samples += 1;
                }
            }
            Ok((samples > 0).then(|| (applied.clone(), power_sum / samples as f64)))
        },
    )
}

/// The period's power reading and whether it is stale, kept in `last`.
/// It averages only the `fresh` samples the meter produced this period:
/// the last `period_s` samples could blend pre-dropout readings into a
/// "fresh" one. A silent period holds `last`, flagged stale for the
/// supervisor's staleness watchdog.
pub(crate) fn period_power<B: PowerBackend + ?Sized>(
    backend: &B,
    period_s: usize,
    fresh: usize,
    last: &mut f64,
) -> (f64, bool) {
    if fresh == 0 {
        return (*last, true);
    }
    let avg = backend.average_power(fresh.min(period_s));
    *last = avg.unwrap_or(*last);
    (*last, false)
}

/// What a loop measured and chose itself by the time it decides; the
/// step reads the rest (ejections, meter age, PSU limit, per-device
/// power) from the backend.
pub(crate) struct PeriodInputs<'a> {
    pub fresh_samples: usize,
    pub avg_power: f64,
    /// The operator's set-point (W), before any PSU clamp.
    pub setpoint: f64,
    pub applied_mean: &'a [f64],
    pub targets: &'a [f64],
    pub normalized_throughput: &'a [f64],
    pub floors: &'a [f64],
    pub phase_mix: Option<&'a [PhaseMix]>,
}

/// The tracking and health-and-decide steps and their scratch.
pub(crate) struct Decider {
    ejected: Vec<bool>,
    /// Per-device power as of the last step (W; zeros without meters).
    device_power: Vec<f64>,
}

impl Decider {
    pub(crate) fn new(devices: usize) -> Self {
        Decider {
            ejected: vec![false; devices],
            device_power: vec![0.0; devices],
        }
    }

    /// Feeds one period to the model tracker, before the decision: a
    /// fresh one is recorded (its pair folded only when `fold`), a stale
    /// one decays.
    pub(crate) fn track<B: PowerBackend + ?Sized>(
        &mut self,
        backend: &B,
        tracker: &mut ScaledModelTracker,
        fresh_samples: usize,
        applied_mean: &[f64],
        avg_power: f64,
        fold: bool,
    ) {
        if fresh_samples == 0 {
            tracker.decay();
            return;
        }
        read_ejected(backend, &mut self.ejected);
        tracker.record(applied_mean, &self.ejected, avg_power, fold);
    }

    /// One period's decision. A `ladder` sees the period's health and
    /// its `tracker`'s authority verdict first, so a demotion acts in the
    /// period its fault is observed; without one, `controller` acts alone
    /// at the operator's set-point.
    pub(crate) fn step<B: PowerBackend + ?Sized>(
        &mut self,
        backend: &mut B,
        supervised: Option<(&mut Ladder, &mut ScaledModelTracker)>,
        controller: &mut dyn PowerController,
        period: &PeriodInputs<'_>,
    ) -> Result<Decision> {
        if backend.capabilities().per_device_power {
            backend.per_device_power_into(&mut self.device_power)?;
        } else {
            self.device_power.fill(0.0);
        }
        let input = ControlInput {
            measured_power: period.avg_power,
            setpoint: period.setpoint,
            current_targets: period.targets,
            normalized_throughput: period.normalized_throughput,
            device_power: &self.device_power,
            floors: period.floors,
            phase_mix: period.phase_mix,
        };
        let Some((ladder, tracker)) = supervised else {
            let targets = check_arity(controller.control(&input)?, self.ejected.len())?;
            let directive = Directive {
                tier: SupervisorTier::Primary,
                effective_setpoint: period.setpoint,
                authority_lost: false,
                stale_periods: 0,
            };
            return Ok(Decision { targets, directive });
        };
        read_ejected(backend, &mut self.ejected);
        let health = HealthSample {
            fresh_samples: period.fresh_samples,
            meter_age_s: backend.seconds_since_sample(),
            avg_power: period.avg_power,
            setpoint: period.setpoint,
            psu_limit: backend.psu_limit(),
            applied_mean: period.applied_mean,
            ejected: &self.ejected,
        };
        ladder.decide(controller, tracker, &health, &input)
    }
}

fn read_ejected<B: PowerBackend + ?Sized>(backend: &B, ejected: &mut [bool]) {
    for (d, flag) in ejected.iter_mut().enumerate() {
        *flag = backend.is_ejected(d);
    }
}

/// A refit moves the controller's model only when its gain scale leaves
/// this relative band around the scale last pushed: the estimate wiggles
/// a few percent under meter noise, and an MPC retuned on every wiggle
/// tracks the cap worse than a model stale by ε. Real drift (tens of
/// percent) clears the band within a few periods.
const SCALE_PUSH_DEADBAND: f64 = 0.05;

/// Pushes the tracker's refit to `primary` when it clears the deadband
/// around `pushed_scale`, returning the pushed model and scale. A
/// tracker with too few samples to fit pushes nothing.
pub(crate) fn push_refit(
    tracker: &ScaledModelTracker,
    pushed_scale: &mut f64,
    primary: &mut dyn PowerController,
) -> Result<Option<(LinearPowerModel, f64)>> {
    match tracker.fit() {
        Ok((model, scale))
            if (scale - *pushed_scale).abs() > SCALE_PUSH_DEADBAND * *pushed_scale =>
        {
            primary.set_power_model(&model)?;
            *pushed_scale = scale;
            Ok(Some((model, scale)))
        }
        Ok(_) | Err(ControlError::InsufficientData(_)) => Ok(None),
        Err(e) => Err(e.into()),
    }
}
