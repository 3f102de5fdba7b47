//! Supervisory failover layer: watchdogs, authority detection, and a
//! hysteretic controller ladder.
//!
//! The MPC stability result covers multiplicative model error; it says
//! nothing about a meter that stops reporting, a clock that stops
//! responding, or a PSU that derates the budget mid-run. The
//! [`Supervisor`] wraps *any* primary controller with the structural
//! defenses a production capping loop needs, and the [`Ladder`] is that
//! wrapping made literal — supervisor, safe fixed-step fallback and the
//! tier dispatch in one place for the experiment runner and the daemon:
//!
//! * **Staleness watchdog** — counts control periods in which the meter
//!   produced no fresh sample. Short outages demote the loop to the safe
//!   fixed-step fallback (which needs no model, only the sign of the
//!   error); long outages park every clock at its floor, the only state
//!   that is safe without *any* feedback.
//! * **Actuation-authority verdict** — from the loop's
//!   [`ScaledModelTracker`], which forms each period's residual pair
//!   once for the gain estimate and the verdict alike. When the clocks
//!   really move but power does not follow, the plant has stopped
//!   obeying and the MPC's model is actively harmful. No injected fault
//!   kind is shown to trip it.
//! * **Per-device quarantine** — a device seen ejected is pinned to its
//!   frequency floor after re-admission until it proves healthy, so a
//!   flapping GPU cannot whipsaw the budget redistribution.
//! * **PSU-derate clamp** — the effective set-point is
//!   `min(set-point, advertised PSU limit − margin)`: a derated supply
//!   shrinks the feasible budget no matter what the operator asked for.
//!
//! Escalation is immediate (one faulty period is enough to demote);
//! recovery is hysteretic and one tier at a time — the loop must string
//! together [`SupervisorConfig::recovery_periods`] consecutive healthy
//! periods before each single step back up the ladder, so an
//! intermittent fault cannot chatter the loop between controllers.

use capgpu_control::model::LinearPowerModel;
use capgpu_control::sysid::ScaledModelTracker;
use serde::{Deserialize, Serialize};

use crate::controllers::{ControlInput, DeviceLayout, PowerController, SafeFixedStepController};
use crate::{CapGpuError, Result};

/// Failover ladder position, ordered from most to least capable.
/// `Ord`: a *greater* tier is *safer* (more degraded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SupervisorTier {
    /// The wrapped primary controller (e.g. CapGPU MPC) is in charge.
    Primary = 0,
    /// Model-free safe fixed-step control: small conservative moves with
    /// a safety margin, usable with degraded telemetry.
    SafeFallback = 1,
    /// Every clock parked at its frequency floor: the only safe state
    /// when feedback is gone entirely.
    Park = 2,
}

impl SupervisorTier {
    /// Numeric encoding for traces and journals (0 = primary … 2 = park).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes the trace encoding (saturating: unknown values park).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => SupervisorTier::Primary,
            1 => SupervisorTier::SafeFallback,
            _ => SupervisorTier::Park,
        }
    }

    /// One step toward `Primary` (identity at `Primary`).
    fn step_down(self) -> Self {
        match self {
            SupervisorTier::Park => SupervisorTier::SafeFallback,
            _ => SupervisorTier::Primary,
        }
    }
}

/// Supervisor thresholds. See DESIGN.md §13 for the rationale behind
/// each default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Consecutive meter-silent periods before demoting to the safe
    /// fixed-step fallback.
    pub stale_fallback_periods: usize,
    /// Consecutive meter-silent periods before parking at the floors
    /// (must be ≥ `stale_fallback_periods`).
    pub stale_park_periods: usize,
    /// Consecutive healthy periods required per single recovery step
    /// back up the ladder (and to release a quarantined device).
    pub recovery_periods: usize,
    /// Safety margin (W) kept below an advertised PSU limit.
    pub psu_margin_watts: f64,
}

impl Default for SupervisorConfig {
    /// Defaults tuned for the paper's 4 s control period: fallback after
    /// 2 silent periods (8 s), park after 5 (20 s, ≈ the thermal time
    /// constant), 5-period recovery hysteresis, 10 W PSU margin.
    fn default() -> Self {
        SupervisorConfig {
            stale_fallback_periods: 2,
            stale_park_periods: 5,
            recovery_periods: 5,
            psu_margin_watts: 10.0,
        }
    }
}

impl SupervisorConfig {
    /// Validates thresholds.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] with a description.
    pub fn validate(&self) -> Result<()> {
        if self.stale_fallback_periods == 0 {
            return Err(CapGpuError::BadConfig(
                "supervisor.stale_fallback_periods must be >= 1".into(),
            ));
        }
        if self.stale_park_periods < self.stale_fallback_periods {
            return Err(CapGpuError::BadConfig(
                "supervisor.stale_park_periods must be >= stale_fallback_periods".into(),
            ));
        }
        if self.recovery_periods == 0 {
            return Err(CapGpuError::BadConfig(
                "supervisor.recovery_periods must be >= 1".into(),
            ));
        }
        if self.psu_margin_watts < 0.0 || !self.psu_margin_watts.is_finite() {
            return Err(CapGpuError::BadConfig(
                "supervisor.psu_margin_watts must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// One control period's health evidence, gathered by the control loop
/// after measurement and before the control decision.
#[derive(Debug, Clone, Copy)]
pub struct HealthSample<'a> {
    /// Fresh meter samples obtained this period (0 = meter silent).
    pub fresh_samples: usize,
    /// Seconds since the meter last produced any sample, if ever.
    pub meter_age_s: Option<u64>,
    /// The power measurement the controller is about to act on (W).
    pub avg_power: f64,
    /// The operator's requested set-point (W).
    pub setpoint: f64,
    /// BMC-advertised PSU limit, if a derate is active (W).
    pub psu_limit: Option<f64>,
    /// Per-device mean applied frequency over the period (MHz); unread,
    /// the loop's model tracker records the clocks.
    pub applied_mean: &'a [f64],
    /// Per-device ejected flags.
    pub ejected: &'a [bool],
}

/// The supervisor's verdict for one control period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Directive {
    /// Which rung of the failover ladder should act this period.
    pub tier: SupervisorTier,
    /// The set-point the acting controller should regulate to — the
    /// operator's request, clamped under any advertised PSU limit.
    pub effective_setpoint: f64,
    /// Whether the model tracker's authority verdict declared the plant
    /// unresponsive this period (exposed for traces and diagnostics).
    pub authority_lost: bool,
    /// Consecutive meter-silent periods at this decision (0 when the
    /// meter is fresh). Telemetry: how deep into the staleness ladder
    /// the loop is, and the `reason` behind a tier change.
    pub stale_periods: usize,
}

/// Supervisory failover state machine: turns each period's
/// [`HealthSample`] into a [`Directive`]. It only decides; [`Ladder`]
/// owns it together with the fallback controller and acts on the
/// directive.
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    tier: SupervisorTier,
    /// Consecutive meter-silent periods.
    stale_run: usize,
    /// Consecutive fully-healthy periods (drives recovery).
    healthy_run: usize,
    /// Per-device quarantine flags (set on ejection, released after
    /// `recovery_periods` healthy periods post re-admission).
    quarantined: Vec<bool>,
    /// Healthy streak per quarantined device since re-admission.
    readmit_ok: Vec<usize>,
}

impl Supervisor {
    /// Creates a supervisor for `n_devices` devices. `_gains` is unread
    /// (the authority verdict comes from [`Ladder::decide`]'s tracker).
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on invalid thresholds.
    pub fn new(cfg: SupervisorConfig, _gains: Vec<f64>, n_devices: usize) -> Result<Self> {
        cfg.validate()?;
        Ok(Supervisor {
            cfg,
            tier: SupervisorTier::Primary,
            stale_run: 0,
            healthy_run: 0,
            quarantined: vec![false; n_devices],
            readmit_ok: vec![0; n_devices],
        })
    }

    /// Current ladder tier.
    pub fn tier(&self) -> SupervisorTier {
        self.tier
    }

    /// Restores journaled state after a crash-recovery replay: the
    /// ladder tier and the quarantine set (device indices). The healthy
    /// streak resets, so a restored degraded tier still needs
    /// `recovery_periods` fresh healthy periods per step back up.
    pub fn restore(&mut self, tier: SupervisorTier, quarantined: &[usize]) {
        self.tier = tier;
        self.stale_run = 0;
        self.healthy_run = 0;
        self.quarantined.fill(false);
        self.readmit_ok.fill(0);
        for &d in quarantined {
            if let Some(q) = self.quarantined.get_mut(d) {
                *q = true;
            }
        }
    }

    /// Per-device quarantine flags.
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    /// Ingests one period's health evidence, with no authority verdict,
    /// and returns the directive for the imminent control decision.
    pub fn step(&mut self, obs: &HealthSample<'_>) -> Directive {
        self.judge(obs, false)
    }

    /// [`Supervisor::step`] with the period's authority verdict.
    fn judge(&mut self, obs: &HealthSample<'_>, authority_lost: bool) -> Directive {
        // --- staleness watchdog -------------------------------------
        let stale = obs.fresh_samples == 0;
        if stale {
            self.stale_run += 1;
        } else {
            self.stale_run = 0;
        }

        // --- per-device quarantine ----------------------------------
        for d in 0..self.quarantined.len() {
            if obs.ejected[d] {
                self.quarantined[d] = true;
                self.readmit_ok[d] = 0;
            } else if self.quarantined[d] {
                self.readmit_ok[d] += 1;
                if self.readmit_ok[d] >= self.cfg.recovery_periods {
                    self.quarantined[d] = false;
                }
            }
        }

        // --- ladder: immediate escalation, hysteretic recovery ------
        let desired = if self.stale_run >= self.cfg.stale_park_periods {
            SupervisorTier::Park
        } else if self.stale_run >= self.cfg.stale_fallback_periods || authority_lost {
            SupervisorTier::SafeFallback
        } else {
            SupervisorTier::Primary
        };
        if desired > self.tier {
            self.tier = desired;
            self.healthy_run = 0;
        } else if desired == SupervisorTier::Primary && !stale {
            // No detector active and the meter spoke: accumulate healthy
            // evidence, then step down exactly one tier per recovery
            // window. A silent period below the fallback threshold still
            // resets the streak — silence is never evidence of health.
            self.healthy_run += 1;
            if self.healthy_run >= self.cfg.recovery_periods && self.tier > SupervisorTier::Primary
            {
                self.tier = self.tier.step_down();
                self.healthy_run = 0;
            }
        } else {
            self.healthy_run = 0;
        }

        // --- PSU-derate clamp ---------------------------------------
        let effective_setpoint = match obs.psu_limit {
            Some(limit) => obs.setpoint.min(limit - self.cfg.psu_margin_watts),
            None => obs.setpoint,
        };

        Directive {
            tier: self.tier,
            effective_setpoint,
            authority_lost,
            stale_periods: self.stale_run,
        }
    }
}

/// A controller's targets, if there is one per device.
pub(crate) fn check_arity(targets: Vec<f64>, n: usize) -> Result<Vec<f64>> {
    if targets.len() != n {
        return Err(CapGpuError::BadConfig(format!(
            "controller returned {} targets for {n} devices",
            targets.len()
        )));
    }
    Ok(targets)
}

/// What [`Ladder::decide`] commands for one control period, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Per-device frequency targets (MHz), quarantine pins applied.
    pub targets: Vec<f64>,
    /// The supervisor's verdict `targets` were computed under.
    pub directive: Directive,
}

/// The failover ladder around a primary controller: the [`Supervisor`]
/// that picks the rung, the safe fixed-step controller that is the
/// middle rung, and the dispatch between them. The primary stays with
/// the caller and is lent to [`Ladder::decide`] each period.
#[derive(Debug, Clone)]
pub struct Ladder {
    supervisor: Supervisor,
    fallback: SafeFixedStepController,
    /// Hardware floors (MHz), where quarantined devices are pinned.
    f_min: Vec<f64>,
}

impl Ladder {
    /// Builds the ladder for an identified `model`: the fallback (step
    /// ×1) takes the safety margin the model's gains and the meter's
    /// noise imply.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on invalid thresholds or a model whose
    /// device count differs from the layout's.
    pub fn new(
        cfg: SupervisorConfig,
        layout: &DeviceLayout,
        model: &LinearPowerModel,
        meter_noise_std: f64,
    ) -> Result<Self> {
        Ok(Ladder {
            supervisor: Supervisor::new(cfg, Vec::new(), layout.len())?,
            fallback: SafeFixedStepController::with_model_margin(
                layout.clone(),
                model.gains(),
                1,
                meter_noise_std,
            ),
            f_min: layout.f_min.clone(),
        })
    }

    /// The supervisor's state (tier, quarantine flags).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// See [`Supervisor::restore`].
    pub fn restore(&mut self, tier: SupervisorTier, quarantined: &[usize]) {
        self.supervisor.restore(tier, quarantined);
    }

    /// One period's decision: ingest `health` and the authority verdict
    /// of `tracker` (which has recorded this period), then let the rung
    /// the supervisor chose compute the targets — `primary`, the
    /// fallback, or (parked) `input.floors`, the SLO floors where set and
    /// the hardware minima otherwise. The acting controller regulates to
    /// the directive's effective set-point, not `input.setpoint`, and
    /// quarantined devices are pinned at their hardware floor whichever
    /// rung acted. A step back up the ladder clears the tracker's
    /// authority window: the recovered tier must re-earn its evidence.
    ///
    /// # Errors
    /// The acting controller's error, or [`CapGpuError::BadConfig`] when
    /// it returns the wrong number of targets.
    pub fn decide(
        &mut self,
        primary: &mut dyn PowerController,
        tracker: &mut ScaledModelTracker,
        health: &HealthSample<'_>,
        input: &ControlInput<'_>,
    ) -> Result<Decision> {
        let before = self.supervisor.tier;
        let directive = self.supervisor.judge(health, tracker.authority_lost());
        if directive.tier < before {
            tracker.clear_authority();
        }
        let input = ControlInput {
            setpoint: directive.effective_setpoint,
            ..input.clone()
        };
        let targets = match directive.tier {
            SupervisorTier::Primary => primary.control(&input)?,
            SupervisorTier::SafeFallback => self.fallback.control(&input)?,
            SupervisorTier::Park => input.floors.to_vec(),
        };
        let mut targets = check_arity(targets, self.f_min.len())?;
        for ((t, lo), q) in targets
            .iter_mut()
            .zip(&self.f_min)
            .zip(self.supervisor.quarantined())
        {
            if *q {
                *t = *lo;
            }
        }
        Ok(Decision { targets, directive })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy<'a>(applied: &'a [f64], ejected: &'a [bool], power: f64) -> HealthSample<'a> {
        HealthSample {
            fresh_samples: 4,
            meter_age_s: Some(0),
            avg_power: power,
            setpoint: 900.0,
            psu_limit: None,
            applied_mean: applied,
            ejected,
        }
    }

    fn sup() -> Supervisor {
        Supervisor::new(SupervisorConfig::default(), vec![0.1, 0.3, 0.3, 0.3], 4).unwrap()
    }

    #[test]
    fn stays_primary_when_healthy() {
        let mut s = sup();
        let applied = [2000.0, 900.0, 900.0, 900.0];
        let ejected = [false; 4];
        for _ in 0..20 {
            let d = s.step(&healthy(&applied, &ejected, 900.0));
            assert_eq!(d.tier, SupervisorTier::Primary);
            assert_eq!(d.effective_setpoint, 900.0);
            assert!(!d.authority_lost);
        }
    }

    #[test]
    fn staleness_ladder_escalates_then_recovers_one_tier_at_a_time() {
        let mut s = sup();
        let applied = [2000.0, 900.0, 900.0, 900.0];
        let ejected = [false; 4];
        let mut stale = healthy(&applied, &ejected, 900.0);
        stale.fresh_samples = 0;
        stale.meter_age_s = Some(8);
        // 1 silent period: still primary. 2: fallback. 5: park.
        assert_eq!(s.step(&stale).tier, SupervisorTier::Primary);
        assert_eq!(s.step(&stale).tier, SupervisorTier::SafeFallback);
        assert_eq!(s.step(&stale).tier, SupervisorTier::SafeFallback);
        assert_eq!(s.step(&stale).tier, SupervisorTier::SafeFallback);
        assert_eq!(s.step(&stale).tier, SupervisorTier::Park);
        // Recovery: 5 healthy periods per tier, never skipping a rung.
        let ok = healthy(&applied, &ejected, 900.0);
        for _ in 0..4 {
            assert_eq!(s.step(&ok).tier, SupervisorTier::Park);
        }
        assert_eq!(s.step(&ok).tier, SupervisorTier::SafeFallback);
        for _ in 0..4 {
            assert_eq!(s.step(&ok).tier, SupervisorTier::SafeFallback);
        }
        assert_eq!(s.step(&ok).tier, SupervisorTier::Primary);
    }

    #[test]
    fn psu_limit_clamps_effective_setpoint() {
        let mut s = sup();
        let applied = [2000.0, 900.0, 900.0, 900.0];
        let ejected = [false; 4];
        let mut obs = healthy(&applied, &ejected, 900.0);
        obs.psu_limit = Some(860.0);
        let d = s.step(&obs);
        assert_eq!(d.effective_setpoint, 850.0); // 860 − 10 margin
        obs.psu_limit = Some(2000.0);
        let d = s.step(&obs);
        assert_eq!(d.effective_setpoint, 900.0); // limit not binding
    }

    #[test]
    fn ejection_quarantines_until_proven_healthy() {
        let mut s = sup();
        let applied = [2000.0, 900.0, 900.0, 900.0];
        let mut ejected = [false; 4];
        ejected[2] = true;
        s.step(&healthy(&applied, &ejected, 800.0));
        assert_eq!(s.quarantined(), [false, false, true, false]);
        // Re-admitted: stays quarantined for recovery_periods periods.
        ejected[2] = false;
        for _ in 0..4 {
            s.step(&healthy(&applied, &ejected, 900.0));
            assert!(s.quarantined()[2]);
        }
        s.step(&healthy(&applied, &ejected, 900.0));
        assert!(!s.quarantined()[2]);
    }

    // -- Ladder ---------------------------------------------------------

    const F_MIN: [f64; 4] = [1000.0, 435.0, 435.0, 435.0];
    /// SLO floors: above the hardware minimum on devices 2 and 3.
    const FLOORS: [f64; 4] = [1000.0, 435.0, 600.0, 700.0];
    const CURRENT: [f64; 4] = [2000.0, 900.0, 900.0, 900.0];

    /// A primary whose targets cannot be mistaken for the fallback's one
    /// step from `CURRENT` or for any floor.
    struct Stub {
        out: Vec<f64>,
        calls: usize,
        seen_setpoint: f64,
    }

    impl Stub {
        fn returning(out: &[f64]) -> Self {
            Stub {
                out: out.to_vec(),
                calls: 0,
                seen_setpoint: f64::NAN,
            }
        }
    }

    impl PowerController for Stub {
        fn name(&self) -> &str {
            "stub"
        }

        fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
            self.calls += 1;
            self.seen_setpoint = input.setpoint;
            Ok(self.out.clone())
        }
    }

    fn model() -> LinearPowerModel {
        LinearPowerModel::new(vec![0.1, 0.3, 0.3, 0.3], 300.0).unwrap()
    }

    fn ladder() -> Ladder {
        use capgpu_sim::DeviceKind::{Cpu, Gpu};
        let layout = DeviceLayout::new(
            vec![Cpu, Gpu, Gpu, Gpu],
            F_MIN.to_vec(),
            vec![2400.0, 1350.0, 1350.0, 1350.0],
        )
        .unwrap();
        Ladder::new(SupervisorConfig::default(), &layout, &model(), 2.0).unwrap()
    }

    /// A tracker anchored at the ladder's model, as the loops build it.
    fn tracker() -> ScaledModelTracker {
        ScaledModelTracker::new(model(), 0.95, &[]).unwrap()
    }

    fn input(measured_power: f64) -> ControlInput<'static> {
        ControlInput {
            measured_power,
            setpoint: 900.0,
            current_targets: &CURRENT,
            normalized_throughput: &[0.5, 0.9, 0.6, 0.3],
            device_power: &[],
            floors: &FLOORS,
            phase_mix: None,
        }
    }

    /// Devices whose target differs from `CURRENT`.
    fn moved(targets: &[f64]) -> Vec<usize> {
        (0..4).filter(|&d| targets[d] != CURRENT[d]).collect()
    }

    #[test]
    fn each_tier_takes_its_targets_from_exactly_one_source() {
        let mut l = ladder();
        let mut tr = tracker();
        let mut primary = Stub::returning(&[1111.0, 1112.0, 1113.0, 1114.0]);
        let ejected = [false; 4];
        let ok = healthy(&CURRENT, &ejected, 900.0);
        let d = l.decide(&mut primary, &mut tr, &ok, &input(900.0)).unwrap();
        assert_eq!(d.directive.tier, SupervisorTier::Primary);
        assert_eq!(d.targets, primary.out);
        assert_eq!(primary.calls, 1);

        let mut stale = ok;
        stale.fresh_samples = 0;
        l.decide(&mut primary, &mut tr, &stale, &input(900.0))
            .unwrap();
        assert_eq!(primary.calls, 2, "one silent period is still primary");
        let d = l
            .decide(&mut primary, &mut tr, &stale, &input(900.0))
            .unwrap();
        assert_eq!(d.directive.tier, SupervisorTier::SafeFallback);
        assert_eq!(d.directive.stale_periods, 2);
        assert_eq!(moved(&d.targets).len(), 1, "fixed-step moves one device");
        assert_eq!(primary.calls, 2, "the primary sat the fallback period out");

        for _ in 0..2 {
            l.decide(&mut primary, &mut tr, &stale, &input(900.0))
                .unwrap();
        }
        let d = l
            .decide(&mut primary, &mut tr, &stale, &input(900.0))
            .unwrap();
        assert_eq!(d.directive.tier, SupervisorTier::Park);
        assert_eq!(d.targets, FLOORS, "park holds the SLO floors, not f_min");
        assert_eq!(primary.calls, 2);
    }

    #[test]
    fn acting_controller_regulates_to_the_clamped_setpoint() {
        let mut l = ladder();
        let mut tr = tracker();
        let mut primary = Stub::returning(&CURRENT);
        let ejected = [false; 4];
        let mut derated = healthy(&CURRENT, &ejected, 800.0);
        derated.psu_limit = Some(700.0);
        let d = l
            .decide(&mut primary, &mut tr, &derated, &input(800.0))
            .unwrap();
        assert_eq!(d.directive.effective_setpoint, 690.0);
        assert_eq!(primary.seen_setpoint, 690.0);

        // 800 W is under the operator's 900 W but over the clamped 690 W:
        // the direction of the fallback's one step shows which it saw.
        l.restore(SupervisorTier::SafeFallback, &[]);
        let d = l
            .decide(&mut primary, &mut tr, &derated, &input(800.0))
            .unwrap();
        assert_eq!(d.directive.tier, SupervisorTier::SafeFallback);
        let dev = moved(&d.targets)[0];
        assert!(d.targets[dev] < CURRENT[dev], "fallback stepped up: {d:?}");
        derated.psu_limit = None;
        let d = l
            .decide(&mut primary, &mut tr, &derated, &input(800.0))
            .unwrap();
        let dev = moved(&d.targets)[0];
        assert!(
            d.targets[dev] > CURRENT[dev],
            "fallback stepped down: {d:?}"
        );
    }

    #[test]
    fn quarantined_device_is_pinned_at_its_hardware_floor_in_every_tier() {
        let mut primary = Stub::returning(&[1111.0, 1112.0, 1113.0, 1114.0]);
        let ejected = [false; 4];
        let ok = healthy(&CURRENT, &ejected, 900.0);
        for tier in [
            SupervisorTier::Primary,
            SupervisorTier::SafeFallback,
            SupervisorTier::Park,
        ] {
            let mut l = ladder();
            let mut tr = tracker();
            l.restore(tier, &[2]);
            let d = l.decide(&mut primary, &mut tr, &ok, &input(900.0)).unwrap();
            assert_eq!(d.directive.tier, tier);
            assert_eq!(d.targets[2], F_MIN[2], "{tier:?}: SLO floor is 600");
            assert_ne!(d.targets[3], F_MIN[3], "{tier:?}: device 3 is not pinned");
        }
        // The pin lifts with the quarantine.
        let mut l = ladder();
        let mut tr = tracker();
        l.restore(SupervisorTier::Primary, &[2]);
        for _ in 0..4 {
            let d = l.decide(&mut primary, &mut tr, &ok, &input(900.0)).unwrap();
            assert_eq!(d.targets[2], F_MIN[2]);
        }
        let d = l.decide(&mut primary, &mut tr, &ok, &input(900.0)).unwrap();
        assert_eq!(d.targets[2], 1113.0);
    }

    #[test]
    fn wrong_arity_targets_are_a_config_error() {
        let mut l = ladder();
        let mut primary = Stub::returning(&[1111.0, 1112.0, 1113.0]);
        let ejected = [false; 4];
        let err = l
            .decide(
                &mut primary,
                &mut tracker(),
                &healthy(&CURRENT, &ejected, 900.0),
                &input(900.0),
            )
            .unwrap_err();
        assert!(
            matches!(&err, CapGpuError::BadConfig(m) if m == "controller returned 3 targets for 4 devices"),
            "{err}"
        );
    }

    // -- Authority: the tracker's pairs, read through the ladder --------

    /// Commanded swings of ±100 MHz on every GPU: ±90 W predicted.
    const HI: [f64; 4] = [2000.0, 1000.0, 1000.0, 1000.0];
    const LO: [f64; 4] = [2000.0, 900.0, 900.0, 900.0];

    /// One period as the loops run it: the tracker records the fresh
    /// period, then the ladder decides on its verdict.
    fn period(
        l: &mut Ladder,
        tr: &mut ScaledModelTracker,
        applied: &[f64],
        ejected: &[bool],
        power: f64,
    ) -> Directive {
        tr.record(applied, ejected, power, true);
        let mut primary = Stub::returning(&CURRENT);
        let health = healthy(applied, ejected, power);
        l.decide(&mut primary, tr, &health, &input(power))
            .unwrap()
            .directive
    }

    #[test]
    fn authority_loss_demotes() {
        let (mut l, mut tr) = (ladder(), tracker());
        let ejected = [false; 4];
        // Zero observed response to the swings: a stuck plant.
        let mut tier = SupervisorTier::Primary;
        for i in 0..10 {
            let applied = if i % 2 == 0 { &HI } else { &LO };
            tier = period(&mut l, &mut tr, applied, &ejected, 950.0).tier;
        }
        assert_eq!(tier, SupervisorTier::SafeFallback);
        // A responsive plant keeps authority.
        let (mut l, mut tr) = (ladder(), tracker());
        for i in 0..10 {
            let applied: &[f64] = if i % 2 == 0 { &HI } else { &LO };
            let power = 950.0 + if i % 2 == 0 { 45.0 } else { -45.0 };
            assert_eq!(
                period(&mut l, &mut tr, applied, &ejected, power).tier,
                SupervisorTier::Primary
            );
        }
    }

    #[test]
    fn authority_verdict_needs_a_full_window_and_restarts_on_recovery() {
        let (mut l, mut tr) = (ladder(), tracker());
        let ejected = [false; 4];
        // The first period starts the chain; the sixth pair after it
        // fills the window and decides.
        for i in 0..7 {
            let applied = if i % 2 == 0 { &HI } else { &LO };
            let d = period(&mut l, &mut tr, applied, &ejected, 950.0);
            assert_eq!(d.authority_lost, i == 6, "period {i}");
        }
        // A responsive plant wins the window back; after the recovery
        // streak the tier steps up, and the stuck pairs it replaced are
        // gone: six fresh stuck pairs are needed to demote again.
        let mut i = 7;
        while l.supervisor().tier() != SupervisorTier::Primary {
            let applied: &[f64] = if i % 2 == 0 { &HI } else { &LO };
            let power = 950.0 + if i % 2 == 0 { 45.0 } else { -45.0 };
            period(&mut l, &mut tr, applied, &ejected, power);
            i += 1;
            assert!(i < 40, "never recovered");
        }
        for k in 0..6 {
            let applied = if (i + k) % 2 == 0 { &HI } else { &LO };
            let d = period(&mut l, &mut tr, applied, &ejected, 950.0);
            assert_eq!(d.authority_lost, k == 5, "stuck pair {}", k + 1);
        }
    }

    #[test]
    fn converged_loop_never_trips_authority() {
        // Near-zero excitation must not produce a verdict, whatever the
        // (noise-dominated) observed deltas say.
        let (mut l, mut tr) = (ladder(), tracker());
        let ejected = [false; 4];
        for i in 0..20 {
            let p = 900.0 + if i % 2 == 0 { 4.0 } else { -4.0 };
            let d = period(&mut l, &mut tr, &LO, &ejected, p);
            assert!(!d.authority_lost);
            assert_eq!(d.tier, SupervisorTier::Primary);
        }
    }

    #[test]
    fn ejection_change_resets_residual_chain() {
        // The power cliff from an ejection must not read as lost
        // authority.
        let (mut l, mut tr) = (ladder(), tracker());
        let healthy_flags = [false; 4];
        let mut power = 950.0;
        for i in 0..3 {
            let applied: &[f64] = if i % 2 == 0 { &HI } else { &LO };
            power = 950.0 + if i % 2 == 0 { 45.0 } else { -45.0 };
            period(&mut l, &mut tr, applied, &healthy_flags, power);
        }
        let mut flags = [false; 4];
        flags[1] = true;
        // 250 W cliff with an ejection: chain must reset, no demotion.
        let d = period(&mut l, &mut tr, &LO, &flags, power - 250.0);
        assert!(!d.authority_lost);
        assert_eq!(d.tier, SupervisorTier::Primary);
        // The reset chain leaves the ejected device out: its clock
        // swings predict nothing, so a stuck plant under the remaining
        // two GPUs' ±60 W swings demotes once six new pairs are in.
        for k in 0..6 {
            let applied = if k % 2 == 0 { &HI } else { &LO };
            let d = period(&mut l, &mut tr, applied, &flags, power - 250.0);
            assert_eq!(d.authority_lost, k == 5, "pair {}", k + 1);
        }
    }

    #[test]
    fn config_validation() {
        let ok = SupervisorConfig::default();
        ok.validate().unwrap();
        let bad = SupervisorConfig {
            stale_fallback_periods: 0,
            ..ok
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig {
            stale_park_periods: 1,
            ..ok
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig {
            recovery_periods: 0,
            ..ok
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig {
            psu_margin_watts: -1.0,
            ..ok
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tier_encoding_roundtrip() {
        for t in [
            SupervisorTier::Primary,
            SupervisorTier::SafeFallback,
            SupervisorTier::Park,
        ] {
            assert_eq!(SupervisorTier::from_u8(t.as_u8()), t);
        }
        assert_eq!(SupervisorTier::from_u8(9), SupervisorTier::Park);
    }
}
