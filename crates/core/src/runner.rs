//! The experiment runner: closes the control loop over the simulated
//! testbed and workloads, exactly mirroring the paper's §5 implementation.
//!
//! Timing structure (paper §6.1): the power meter samples at 1 Hz; the
//! control period is `T = 4` s, so the controller acts on the average of
//! the last 4 samples. Within each second the per-device delta-sigma
//! modulators resolve the controller's fractional frequency targets into
//! discrete supported clocks (§5 "Frequency Modulators").
//!
//! The loop only observes power and throughput and only actuates clocks,
//! so it names no workload engine: everything workload-side sits behind
//! the crate-private `plant` module.

use capgpu_backend::{PowerBackend, SimBackend};
use capgpu_control::latency::LatencyModel;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::modulator::DeltaSigmaModulator;
use capgpu_control::sysid::{IdentifiedModel, ScaledModelTracker};
use capgpu_sim::{DeviceKind, Server, ServerBuilder};
use capgpu_workload::monitor::{normalized_throughputs, ThroughputMonitor};

use crate::config::{Scenario, ScheduledChange, GAMMA_FITTED};
use crate::controllers::{
    CapGpuController, CpuGpuSplitController, CpuOnlyController, DeviceLayout, FixedStepController,
    GpuOnlyController, PowerController, SafeFixedStepController,
};
use crate::period::{self, period_power, Decider, PeriodInputs};
use crate::plant::Plant;
use crate::supervisor::{Ladder, SupervisorTier};
use crate::telemetry::{PeriodObservation, Phase, RunTelemetry, TelemetryReport};
use crate::weights::WeightAssigner;
use crate::Result;

/// One control period's worth of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// Period index (0-based).
    pub period: usize,
    /// Set point in force during the period (W).
    pub setpoint: f64,
    /// Meter average over the period (W).
    pub avg_power: f64,
    /// Fractional frequency targets commanded at the period's end (MHz).
    pub targets: Vec<f64>,
    /// Mean applied (discrete) frequency per device over the period (MHz).
    pub applied_mean: Vec<f64>,
    /// Per-GPU-task throughput over the period (images/s).
    pub gpu_throughput: Vec<f64>,
    /// CPU throughput over the period (feature subsets/s).
    pub cpu_throughput: f64,
    /// Mean batch inference latency per GPU task (s; 0 if no batch done).
    pub gpu_mean_latency: Vec<f64>,
    /// SLO in force per GPU task (None = unconstrained).
    pub slo: Vec<Option<f64>>,
    /// SLO misses recorded this period per GPU task.
    pub slo_misses: Vec<usize>,
    /// Batches completed this period per GPU task.
    pub batches: Vec<usize>,
    /// SLO-derived frequency floors passed to the controller (MHz).
    pub floors: Vec<f64>,
    /// Supervisory ladder tier in force when the period's control
    /// decision was made (0 = primary, 1 = safe fallback, 2 = park;
    /// always 0 when the scenario has no supervisor).
    pub supervisor_tier: u8,
    /// Whether the meter produced *no* fresh sample this period, so
    /// `avg_power` is the held-over previous measurement rather than a
    /// fresh average.
    pub meter_stale: bool,
}

/// A full run's trace plus end-of-run aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Name of the controller that produced the trace.
    pub controller: String,
    /// Per-period records.
    pub records: Vec<PeriodRecord>,
    /// Final per-task deadline miss rates.
    pub miss_rates: Vec<f64>,
    /// Final per-task 99th-percentile latency (s): per-request
    /// end-to-end latency when the serving layer is enabled, per-batch
    /// inference latency otherwise; 0 where nothing was recorded.
    pub p99_latency_s: Vec<f64>,
    /// Per-task p99 time-to-first-token (s). Empty unless the
    /// scenario's LLM serving layer is enabled.
    pub ttft_p99_s: Vec<f64>,
    /// Per-task p99 inter-token latency (s). Empty unless the LLM
    /// serving layer is enabled.
    pub itl_p99_s: Vec<f64>,
    /// Per-task TTFT-SLO miss rates. Empty unless the LLM serving
    /// layer is enabled.
    pub ttft_miss_rates: Vec<f64>,
    /// Per-task inter-token-SLO miss rates. Empty unless the LLM
    /// serving layer is enabled.
    pub itl_miss_rates: Vec<f64>,
}

impl RunTrace {
    /// The power series (one entry per period).
    pub fn power_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.avg_power).collect()
    }

    /// Steady-state mean/std of power over the trailing fraction
    /// (paper: last 80 of 100 periods → `tail_fraction = 0.8`).
    pub fn steady_state_power(&self, tail_fraction: f64) -> (f64, f64) {
        capgpu_control::metrics::steady_state(&self.power_series(), tail_fraction)
    }

    /// Number of periods in which power exceeded the in-force set point by
    /// more than `tol` watts.
    pub fn violations(&self, tol: f64) -> usize {
        self.records
            .iter()
            .filter(|r| r.avg_power > r.setpoint + tol)
            .count()
    }

    /// Mean GPU throughput per task over the trailing fraction.
    pub fn steady_gpu_throughput(&self, tail_fraction: f64) -> Vec<f64> {
        let n_tasks = self
            .records
            .first()
            .map(|r| r.gpu_throughput.len())
            .unwrap_or(0);
        (0..n_tasks)
            .map(|t| {
                let series: Vec<f64> = self.records.iter().map(|r| r.gpu_throughput[t]).collect();
                capgpu_control::metrics::steady_state(&series, tail_fraction).0
            })
            .collect()
    }

    /// Mean CPU throughput over the trailing fraction (subsets/s).
    pub fn steady_cpu_throughput(&self, tail_fraction: f64) -> f64 {
        let series: Vec<f64> = self.records.iter().map(|r| r.cpu_throughput).collect();
        capgpu_control::metrics::steady_state(&series, tail_fraction).0
    }

    /// Mean batch latency per task over the trailing fraction, ignoring
    /// periods with no completed batch.
    pub fn steady_gpu_latency(&self, tail_fraction: f64) -> Vec<f64> {
        let n_tasks = self
            .records
            .first()
            .map(|r| r.gpu_mean_latency.len())
            .unwrap_or(0);
        // Clamp the same way as `metrics::steady_state`: out-of-range
        // fractions degrade gracefully (<= 0 keeps exactly the last
        // record, >= 1 keeps the whole trace) and an empty trace yields
        // empty means rather than an index underflow.
        let keep = if self.records.is_empty() {
            0
        } else {
            (((self.records.len() as f64) * tail_fraction.clamp(0.0, 1.0)).round() as usize)
                .clamp(1, self.records.len())
        };
        let skip = self.records.len().saturating_sub(keep);
        (0..n_tasks)
            .map(|t| {
                let vals: Vec<f64> = self.records[skip.min(self.records.len())..]
                    .iter()
                    .filter(|r| r.batches[t] > 0)
                    .map(|r| r.gpu_mean_latency[t])
                    .collect();
                capgpu_linalg::stats::mean(&vals)
            })
            .collect()
    }
}

/// The runner.
///
/// `Clone` snapshots the complete closed-loop state — server, workload
/// plant, monitors, RNGs and the cached identified model. Because every
/// stochastic component is seeded, a clone replays the exact same
/// trajectory as its original: the sweep engine identifies once per
/// (scenario, seed) class and clones the post-identification runner for
/// each cell, which is bit-identical to each cell identifying on its own.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    scenario: Scenario,
    /// The sense/actuate seam: the control loop reads power, clocks and
    /// staleness through the [`PowerBackend`] surface of this backend
    /// and commands frequencies back through it. Sim-only plant access
    /// (fault injection, thermal state, workload coupling) goes through
    /// [`SimBackend::server`] / [`SimBackend::server_mut`].
    backend: SimBackend,
    layout: DeviceLayout,
    /// Everything workload-side: the GPU tasks' engines (whichever kind
    /// the scenario configures), their latency trackers and per-period
    /// aggregates, and the CPU-side feature-selection job.
    plant: Plant,
    gpu_device_indices: Vec<usize>,
    monitors: Vec<ThroughputMonitor>,
    latency_models: Vec<LatencyModel>,
    modulators: Vec<DeltaSigmaModulator>,
    setpoint: f64,
    slos: Vec<Option<f64>>,
    targets: Vec<f64>,
    identified: Option<IdentifiedModel>,
    /// Streaming restricted re-identifier (gain scale + offset) and the
    /// supervisor's authority evidence, anchored to the startup
    /// identification by [`ExperimentRunner::identify`]; populated when
    /// the scenario enables `rls_tracking` or a supervisor.
    tracker: Option<ScaledModelTracker>,
    /// Index of the (single) CPU package device.
    cpu_device_index: usize,
    /// Run telemetry (registry + journal + spans); `None` — recording
    /// nothing and touching nothing — unless the scenario opts in.
    telemetry: Option<RunTelemetry>,
}

impl ExperimentRunner {
    /// Builds a runner from a scenario and the initial power set point.
    ///
    /// # Errors
    /// Propagates scenario validation and component construction errors.
    pub fn new(scenario: Scenario, initial_setpoint: f64) -> Result<Self> {
        scenario.validate()?;
        let mut builder = ServerBuilder::new(scenario.seed).platform_watts(scenario.platform_watts);
        for d in &scenario.devices {
            builder = builder.add_device(d.clone());
        }
        let server = builder.build()?;
        let layout = DeviceLayout::new(
            scenario.devices.iter().map(|d| d.kind).collect(),
            server.f_min().to_vec(),
            server.f_max().to_vec(),
        )?;
        let gpu_device_indices = server.gpu_indices().to_vec();
        let cpu_device_index = server.cpu_indices()[0];
        let plant = Plant::new(&scenario, &gpu_device_indices, cpu_device_index)?;
        let monitors = (0..layout.len())
            .map(|_| ThroughputMonitor::new(0.5))
            .collect();
        let latency_models = scenario
            .gpu_models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let dev = gpu_device_indices[i];
                LatencyModel::new(
                    m.e_min_s,
                    GAMMA_FITTED,
                    scenario.devices[dev].freq_table.max(),
                )
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let modulators = scenario
            .devices
            .iter()
            .map(|d| DeltaSigmaModulator::new(d.freq_table.levels().to_vec()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let targets = server.f_min().to_vec();
        let slos = scenario.slos.clone();
        let (n_tasks, llm) = (gpu_device_indices.len(), scenario.llm.is_some());
        let telemetry =
            (scenario.telemetry).map(|cfg| RunTelemetry::new(cfg, &layout.kinds, n_tasks, llm));
        let backend = SimBackend::new(server);
        Ok(ExperimentRunner {
            telemetry,
            cpu_device_index,
            scenario,
            backend,
            layout,
            plant,
            gpu_device_indices,
            monitors,
            latency_models,
            modulators,
            setpoint: initial_setpoint,
            slos,
            targets,
            identified: None,
            tracker: None,
        })
    }

    /// The device layout.
    pub fn layout(&self) -> &DeviceLayout {
        &self.layout
    }

    /// The current power set point.
    pub fn setpoint(&self) -> f64 {
        self.setpoint
    }

    /// Changes the power set point (used by rack-level coordinators that
    /// re-divide a shared budget between servers at runtime).
    pub fn set_setpoint(&mut self, watts: f64) {
        self.setpoint = watts;
    }

    /// Direct access to the simulated server (tests, oracles).
    pub fn server(&self) -> &Server {
        self.backend.server()
    }

    /// The sense/actuate backend the control loop runs against.
    pub fn backend(&self) -> &SimBackend {
        &self.backend
    }

    /// Scales every serving task's request arrival intensity relative to
    /// its *nominal* (scenario-configured) rate — the hook fleet-level
    /// load balancers use to migrate request streams between servers at
    /// allocator-epoch boundaries: the stream's share of intensity leaves
    /// one server's engines and arrives at another's. Takes effect from
    /// the next drawn arrival; absolute, not cumulative (setting 1.0
    /// always restores the nominal rates).
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`](crate::CapGpuError::BadConfig) when the
    /// scenario has no serving layer or the scale is not positive and
    /// finite.
    pub fn set_serving_intensity_scale(&mut self, scale: f64) -> Result<()> {
        self.plant.set_intensity_scale(scale)
    }

    /// The run's telemetry instruments, when the scenario enables them.
    pub fn telemetry(&self) -> Option<&RunTelemetry> {
        self.telemetry.as_ref()
    }

    /// A frozen [`TelemetryReport`] of everything recorded so far, or
    /// `None` when the scenario has telemetry off.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        self.telemetry.as_ref().map(RunTelemetry::report)
    }

    /// Runs the paper's system-identification procedure (§4.2): sweep each
    /// device's frequency with the others held, dwell one control period
    /// per point under the live workload, fit `p = A·F + C`.
    ///
    /// The fitted model is cached and reused by the controller builders.
    ///
    /// # Errors
    /// Propagates excitation-plan and fitting errors.
    pub fn identify(&mut self) -> Result<IdentifiedModel> {
        if let Some(tm) = self.telemetry.as_mut() {
            tm.span_enter(Phase::Identify);
        }
        let fitted = self.identify_inner();
        if let Some(tm) = self.telemetry.as_mut() {
            tm.span_exit();
        }
        fitted
    }

    fn identify_inner(&mut self) -> Result<IdentifiedModel> {
        let mut applied = Vec::with_capacity(self.layout.len());
        // Workloads run at each point's clocks through the dwell.
        let sweep = period::identify(
            &mut self.backend,
            &self.layout,
            self.scenario.sysid_steps_per_device,
            self.scenario.control_period_s,
            &mut applied,
            |backend, applied| {
                self.plant
                    .advance_second(backend, applied, self.telemetry.as_mut(), None)
            },
        )?;
        if self.tracks() {
            let anchor = sweep.fitted.model.clone();
            self.tracker = Some(ScaledModelTracker::new(
                anchor,
                RLS_FORGETTING,
                &sweep.rows,
            )?);
        }
        self.identified = Some(sweep.fitted.clone());
        Ok(sweep.fitted)
    }

    /// Whether runs keep a [`ScaledModelTracker`]: for refits, or for the
    /// supervisor's authority verdict.
    fn tracks(&self) -> bool {
        self.scenario.rls_tracking || self.scenario.supervisor.is_some()
    }

    /// The cached identified model, identifying first if needed.
    ///
    /// # Errors
    /// Propagates identification errors.
    pub fn identified_model(&mut self) -> Result<LinearPowerModel> {
        if self.identified.is_none() {
            self.identify()?;
        }
        Ok(self
            .identified
            .as_ref()
            .expect("just identified")
            .model
            .clone())
    }

    /// Builds the CapGPU controller from the identified model.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_capgpu_controller(&mut self) -> Result<CapGpuController> {
        let model = self.identified_model()?;
        CapGpuController::new(&self.layout, model, WeightAssigner::default())
    }

    /// Builds the CapGPU controller with the phase-mix signal ignored —
    /// throughput-inversion weights only. The ablation arm that shows
    /// why phase awareness matters under LLM serving: completions-lumpy
    /// decode-bound devices read as idle and get parked at the floor,
    /// paying inter-token latency for power that memory-bound decode
    /// never returns.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_capgpu_phase_blind(&mut self) -> Result<CapGpuController> {
        let model = self.identified_model()?;
        CapGpuController::labelled(
            &self.layout,
            model,
            WeightAssigner::PhaseBlind,
            "CapGPU (phase-blind)",
        )
    }

    /// The plant gain one shared knob over every device of `kind` sees:
    /// the sum of their non-negative identified gains (W/MHz).
    fn summed_gain(&mut self, kind: DeviceKind) -> Result<f64> {
        let model = self.identified_model()?;
        let gain: f64 = (self.layout.kinds.iter().zip(model.gains()))
            .filter(|(k, _)| **k == kind)
            .map(|(_, g)| g.max(0.0))
            .sum();
        Ok(gain.max(1e-6))
    }

    /// Builds the GPU-Only baseline from identified GPU gains.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_gpu_only(&mut self) -> Result<GpuOnlyController> {
        let gain = self.summed_gain(DeviceKind::Gpu)?;
        GpuOnlyController::new(self.layout.clone(), gain)
    }

    /// Builds the CPU-Only baseline from identified CPU gains.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_cpu_only(&mut self) -> Result<CpuOnlyController> {
        let gain = self.summed_gain(DeviceKind::Cpu)?;
        CpuOnlyController::new(self.layout.clone(), gain)
    }

    /// Builds the CPU+GPU split baseline with the given GPU budget share.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_split(&mut self, gpu_share: f64) -> Result<CpuGpuSplitController> {
        let cpu_gain = self.summed_gain(DeviceKind::Cpu)?;
        let gpu_gain = self.summed_gain(DeviceKind::Gpu)?;
        CpuGpuSplitController::new(self.layout.clone(), cpu_gain, gpu_gain, gpu_share)
    }

    /// Builds the Fixed-step baseline with the given step multiplier.
    pub fn build_fixed_step(&self, step_multiplier: usize) -> FixedStepController {
        FixedStepController::new(self.layout.clone(), step_multiplier)
    }

    /// Builds the Safe Fixed-step baseline. The margin defaults to the
    /// worst-case one-step power impact implied by the identified model.
    ///
    /// # Errors
    /// Propagates identification errors.
    pub fn build_safe_fixed_step(
        &mut self,
        step_multiplier: usize,
    ) -> Result<SafeFixedStepController> {
        let model = self.identified_model()?;
        Ok(SafeFixedStepController::with_model_margin(
            self.layout.clone(),
            model.gains(),
            step_multiplier,
            self.backend.meter_noise_std(),
        ))
    }

    /// One second of plant time at the given applied frequencies: the
    /// meter sample, if the meter produced one.
    fn advance_second(
        &mut self,
        applied: &[f64],
        queue_delays: Option<&mut [Vec<f64>]>,
    ) -> Result<Option<f64>> {
        let telemetry = self.telemetry.as_mut();
        self.plant
            .advance_second(&mut self.backend, applied, telemetry, queue_delays)
    }

    /// Runs `num_periods` control periods with the given controller,
    /// returning the trace.
    ///
    /// # Errors
    /// Propagates controller and testbed errors.
    pub fn run(
        &mut self,
        mut controller: impl PowerController,
        num_periods: usize,
    ) -> Result<RunTrace> {
        let t = self.scenario.control_period_s;
        let n = self.layout.len();
        if let Some(tm) = self.telemetry.as_mut() {
            tm.begin_run(controller.name(), self.setpoint, num_periods);
        }
        let mut records = Vec::with_capacity(num_periods);
        let mut last_power = self.scenario.platform_watts;
        let changes = self.scenario.changes.clone();
        // Fault schedule (capgpu-faults): per-spec active flags drive
        // apply/clear transitions at period boundaries.
        let fault_schedule = self.scenario.faults.clone();
        let mut fault_active: Vec<bool> = fault_schedule
            .as_ref()
            .map(|s| vec![false; s.specs.len()])
            .unwrap_or_default();
        // Supervisory failover layer: wraps the controller with the
        // staleness watchdog, authority detector, quarantine, and the
        // CapGPU → safe fixed-step → park ladder, all sized from the
        // identified model.
        let mut ladder = match self.scenario.supervisor {
            Some(cfg) => {
                let model = self.identified_model()?;
                let noise = self.backend.meter_noise_std();
                Some(Ladder::new(cfg, &self.layout, &model, noise)?)
            }
            None => None,
        };
        let mut decider = Decider::new(n);
        // Tracking needs an anchor model; identify if the caller has not
        // already done so.
        if self.tracks() && self.tracker.is_none() {
            self.identify()?;
        }
        // Latencies recorded during calibration (identification) must not
        // count against the measured run's SLO statistics.
        self.plant.reset_stats();
        // Per-second scratch, recycled across all periods of the run.
        let mut levels = vec![0.0; n];
        let mut applied = Vec::with_capacity(n);
        let mut applied_sum = vec![0.0; n];
        let mut probed = vec![0.0; n];
        let mut prev_applied_mean: Option<Vec<f64>> = None;
        let mut pushed_scale = 1.0_f64;
        for period in 0..num_periods {
            let t_start_s = (period * t) as f64;
            let t_end_s = ((period + 1) * t) as f64;
            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_enter(Phase::Period);
            }
            // Fault-schedule transitions take effect at period start:
            // each spec is applied when it becomes active and cleared
            // when it stops (including intermittency flaps).
            if let Some(schedule) = &fault_schedule {
                for (i, spec) in schedule.specs.iter().enumerate() {
                    let now = spec.active_at(period);
                    if now != fault_active[i] {
                        if now {
                            spec.kind.apply(self.backend.server_mut())?;
                        } else {
                            spec.kind.clear(self.backend.server_mut())?;
                        }
                        fault_active[i] = now;
                        if let Some(tm) = self.telemetry.as_mut() {
                            tm.on_fault(
                                period,
                                t_start_s,
                                i,
                                spec.kind.label(),
                                spec.kind.device(),
                                now,
                            );
                        }
                    }
                }
            }
            // Scheduled changes take effect at the start of their period.
            for change in &changes {
                match change {
                    ScheduledChange::SetPoint { at_period, watts } if *at_period == period => {
                        let from_w = std::mem::replace(&mut self.setpoint, *watts);
                        if let Some(tm) = self.telemetry.as_mut() {
                            tm.on_setpoint_change(period, t_start_s, from_w, *watts);
                        }
                    }
                    ScheduledChange::Slo {
                        at_period,
                        task,
                        slo_s,
                    } if *at_period == period => {
                        self.slos[*task] = Some(*slo_s);
                        self.plant.set_slo(*task, *slo_s);
                    }
                    ScheduledChange::GainDrift {
                        at_period,
                        device,
                        factor,
                    } if *at_period == period => {
                        self.backend
                            .server_mut()
                            .scale_power_gain(*device, *factor)?;
                    }
                    ScheduledChange::ServingBurst {
                        at_period,
                        task,
                        factor,
                    } if *at_period == period => {
                        self.plant.set_task_intensity(*task, *factor)?;
                    }
                    _ => {}
                }
            }

            self.plant.begin_period();

            // One control period: T seconds of actuation. CapGPU resolves
            // fractional targets by delta-sigma modulation (§5); baselines
            // apply plain nearest-level rounding (§6.2 applies the
            // modulator only to CapGPU).
            let modulate = controller.uses_delta_sigma();
            applied_sum.iter_mut().for_each(|s| *s = 0.0);
            let mut fresh_meter_samples = 0usize;
            // Persistent-excitation probe (tracking only): a converged
            // loop holds frequencies still, so without a probe the
            // closed-loop stream carries no gain information — and worse,
            // the few moves it does contain are the controller's own
            // noise responses, which bias any fit. The ±RLS_PROBE_MHZ
            // offsets use a deterministic per-(period, device) sign pattern
            // so they never perturb the simulation's RNG streams.
            if self.scenario.rls_tracking {
                for (d, p) in probed.iter_mut().enumerate() {
                    let sign = probe_sign(self.scenario.seed, period, d);
                    *p = (self.targets[d] + RLS_PROBE_MHZ * sign)
                        .clamp(self.layout.f_min[d], self.layout.f_max[d]);
                }
            } else {
                probed.copy_from_slice(&self.targets);
            }
            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_enter(Phase::Actuate);
            }
            for _ in 0..t {
                if modulate {
                    // Carry wraps are reported only when telemetry is on;
                    // the emitted levels are the same either way.
                    for (d, l) in levels.iter_mut().enumerate() {
                        let (level, wrapped) = self.modulators[d].next_level_with_carry(probed[d]);
                        *l = level;
                        if wrapped {
                            if let Some(tm) = self.telemetry.as_mut() {
                                tm.on_carry_wrap(d);
                            }
                        }
                    }
                } else {
                    levels.copy_from_slice(&probed);
                }
                self.backend.set_frequencies(&levels)?;
                // Effective = applied clamped by any active thermal
                // throttle; that is what the workload actually sees.
                self.backend.effective_frequencies_into(&mut applied)?;
                for (s, a) in applied_sum.iter_mut().zip(applied.iter()) {
                    *s += a;
                }
                if self.advance_second(&applied, None)?.is_some() {
                    fresh_meter_samples += 1;
                }
            }
            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_exit();
            }
            let applied_mean: Vec<f64> = applied_sum.iter().map(|s| s / t as f64).collect();

            // Measurement: average the period's *fresh* meter samples.
            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_enter(Phase::Sense);
            }
            let avg_power = period_power(&self.backend, t, fresh_meter_samples, &mut last_power);
            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_exit();
            }

            // Model tracking (§6.4, every period): (F̄, p̄) extends the
            // tracker's pair chain, which the authority verdict reads and,
            // under `rls_tracking`, refits the scale. A pair whose clocks
            // slewed too far to be steady-state stays out of the fold.
            if self.tracker.is_some() {
                if let Some(tm) = self.telemetry.as_mut() {
                    tm.span_enter(Phase::Identify);
                }
            }
            if let Some(tracker) = self.tracker.as_mut() {
                let quasi_steady = prev_applied_mean.as_ref().is_none_or(|prev| {
                    applied_mean
                        .iter()
                        .zip(prev.iter())
                        .all(|(now, was)| (now - was).abs() <= RLS_SETTLE_GATE_MHZ)
                });
                decider.track(
                    &self.backend,
                    tracker,
                    fresh_meter_samples,
                    &applied_mean,
                    avg_power,
                    quasi_steady,
                );
                if self.scenario.rls_tracking && fresh_meter_samples > 0 && quasi_steady {
                    let pushed = period::push_refit(tracker, &mut pushed_scale, &mut controller)?;
                    if let Some((model, scale)) = pushed {
                        if let Some(tm) = self.telemetry.as_mut() {
                            tm.on_refit(period, t_end_s, scale, model.offset());
                        }
                        self.identified = Some(IdentifiedModel {
                            model,
                            r_squared: tracker.r_squared(),
                            rmse_watts: tracker.rmse(),
                            n_samples: tracker.len(),
                        });
                    }
                }
                prev_applied_mean = Some(applied_mean.clone());
            }
            if self.tracker.is_some() {
                if let Some(tm) = self.telemetry.as_mut() {
                    tm.span_exit();
                }
            }

            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_enter(Phase::Solve);
            }
            // Throughput monitors.
            let cpu_dev = self.cpu_device_index;
            let measured = self.plant.end_period(t, applied_mean[cpu_dev]);
            self.monitors[cpu_dev].record(measured.cpu_rate);
            for (&dev, &rate) in self.gpu_device_indices.iter().zip(&measured.gpu_throughput) {
                self.monitors[dev].record(rate);
            }

            // SLO frequency floors for the next period.
            let mut floors = self.layout.f_min.clone();
            for (i, slo) in self.slos.iter().enumerate() {
                if let Some(slo_s) = slo {
                    let dev = self.gpu_device_indices[i];
                    floors[dev] = match self.latency_models[i].frequency_floor(*slo_s) {
                        // Safety margin covers fitted-γ error, latency
                        // jitter and the modulator's dips below the target.
                        Ok(f) => (f * self.scenario.slo_margin)
                            .clamp(self.layout.f_min[dev], self.layout.f_max[dev]),
                        // SLO tighter than achievable: run flat out.
                        Err(_) => self.layout.f_max[dev],
                    };
                }
            }

            let normalized = normalized_throughputs(&self.monitors);
            let inputs = PeriodInputs {
                fresh_samples: fresh_meter_samples,
                avg_power,
                setpoint: self.setpoint,
                applied_mean: &applied_mean,
                targets: &self.targets,
                normalized_throughput: &normalized,
                floors: &floors,
                phase_mix: self.plant.phase_mix(),
            };
            let supervised = ladder.as_mut().zip(self.tracker.as_mut());
            let decision = decider.step(&mut self.backend, supervised, &mut controller, &inputs)?;
            let directive = decision.directive;
            let before = std::mem::replace(&mut self.targets, decision.targets);
            if let Some(tm) = self.telemetry.as_mut() {
                tm.span_exit();
            }

            records.push(PeriodRecord {
                period,
                setpoint: directive.effective_setpoint,
                avg_power,
                targets: self.targets.clone(),
                applied_mean,
                gpu_throughput: measured.gpu_throughput,
                cpu_throughput: measured.cpu_rate,
                gpu_mean_latency: measured.gpu_mean_latency,
                slo: self.slos.clone(),
                slo_misses: measured.slo_misses,
                batches: measured.batches,
                floors,
                supervisor_tier: directive.tier.as_u8(),
                meter_stale: fresh_meter_samples == 0,
            });

            // Fold the completed period into the telemetry registry and
            // journal. Diagnostics are taken only when the primary
            // controller acted — on a fallback/park period its cached
            // solve is from an earlier period.
            if self.telemetry.is_some() {
                let diag = match directive.tier {
                    SupervisorTier::Primary => controller.diagnostics(),
                    _ => None,
                };
                let quarantined = ladder.as_ref().map(|l| l.supervisor().quarantined());
                let rec = records.last().expect("just pushed");
                let obs = PeriodObservation {
                    period,
                    t_s: t_end_s,
                    seconds: t,
                    fresh_meter_samples,
                    avg_power,
                    directive,
                    quarantined,
                    targets: &rec.targets,
                    diag,
                    record: period::record(
                        &directive,
                        avg_power,
                        &before,
                        &rec.targets,
                        &self.layout,
                    ),
                };
                if let Some(tm) = self.telemetry.as_mut() {
                    tm.on_period(obs);
                    if let Some(mix) = self.plant.phase_mix() {
                        for (i, &dev) in self.gpu_device_indices.iter().enumerate() {
                            let m = &mix[dev];
                            tm.on_llm_period(period, t_end_s, i, m.prefill_share, m.kv_occupancy);
                        }
                    }
                    tm.span_exit();
                }
            }
        }
        let trace = self.plant.finish(controller.name().to_string(), records);
        let tracker_stats = (self.tracker.as_ref())
            .filter(|_| self.scenario.rls_tracking)
            .map(|tr| tr.stats());
        if let Some(tm) = self.telemetry.as_mut() {
            tm.end_run(
                num_periods,
                (num_periods * t) as f64,
                &trace.p99_latency_s,
                tracker_stats,
            );
        }
        Ok(trace)
    }

    /// Runs with fixed frequencies and no controller for `seconds`,
    /// returning `(mean power, per-task throughput img/s, per-task mean
    /// batch latency, per-task mean queue delay)`. Used by the Table 1
    /// motivation experiment.
    ///
    /// # Errors
    /// Propagates testbed errors.
    pub fn run_fixed(
        &mut self,
        freqs: &[f64],
        seconds: usize,
        warmup_seconds: usize,
    ) -> Result<FixedRunStats> {
        self.backend.set_frequencies(freqs)?;
        let mut applied = Vec::with_capacity(self.layout.len());
        self.backend.effective_frequencies_into(&mut applied)?;
        for _ in 0..warmup_seconds {
            self.advance_second(&applied, None)?;
        }
        // Measure from after the warmup.
        self.plant.begin_period();
        let mut power_sum = 0.0;
        let mut power_n = 0usize;
        let mut queue_delays: Vec<Vec<f64>> = vec![Vec::new(); self.gpu_device_indices.len()];
        for _ in 0..seconds {
            if let Some(p) = self.advance_second(&applied, Some(&mut queue_delays))? {
                power_sum += p;
                power_n += 1;
            }
        }
        let f_cpu = applied[self.cpu_device_index];
        let measured = self.plant.end_period(seconds, f_cpu);
        Ok(FixedRunStats {
            mean_power: if power_n > 0 {
                power_sum / power_n as f64
            } else {
                0.0
            },
            throughput_img_s: measured.gpu_throughput,
            mean_batch_latency_s: measured.gpu_mean_latency,
            mean_queue_delay_s: queue_delays
                .iter()
                .map(|d| capgpu_linalg::stats::mean(d))
                .collect(),
            preprocess_s_per_image: (self.scenario.gpu_models.iter())
                .map(|m| m.preprocess_time(f_cpu))
                .collect(),
        })
    }
}

/// RLS tracking's exponential forgetting factor `λ ∈ (0, 1]`: a sample's
/// weight after `k` further periods is `λᵏ` (`1.0` would never forget:
/// pure refinement, no drift tracking). 0.95 is a ≈ 20-period memory —
/// minutes at the paper's 4 s control period, fast enough to track
/// thermal-scale drift. (The daemon forgets at its own
/// `identify.rls_forgetting`, 0.98 by default.)
const RLS_FORGETTING: f64 = 0.95;

/// Persistent-excitation probe amplitude under RLS tracking (MHz). A
/// converged power loop holds frequencies still, so the closed-loop data
/// contain no information about the gains; each period the runner
/// therefore offsets every device's target by ±this with a deterministic
/// per-device sign pattern (derived from the scenario seed, not the
/// simulation RNG). Probing is the classic adaptive-control tradeoff: the
/// displacement that carries gain information is the same displacement
/// the cap loop pays as tracking error, so amplitude buys tracking
/// bandwidth at the cost of steady-state accuracy. 10 MHz, under one GPU
/// clock level and realized by the delta-sigma modulator as dithering, is
/// enough for the difference-based scale tracker while costing ≈ 1–2 W
/// of cap error.
const RLS_PROBE_MHZ: f64 = 10.0;

/// Quasi-steady recording gate of RLS tracking (MHz). The identified
/// model is a *steady-state* power map, but a period whose applied
/// frequencies slewed hundreds of MHz mixes pre- and post-move power (and
/// queue / utilization transients) in one average — fitting those rows
/// is what corrupts naive closed-loop identification. A pair of periods
/// enters the slope fold only when no device's mean applied frequency
/// moved more than this between them: probes and normal regulation
/// jitter pass, transient slews are skipped.
const RLS_SETTLE_GATE_MHZ: f64 = 120.0;

/// Deterministic ±1 persistent-excitation sign for one (period, device)
/// pair: a splitmix64-style hash of the scenario seed and the pair's
/// coordinates. Keeping this independent of the simulation RNG streams
/// means enabling RLS tracking never shifts the scenario's stochastic
/// draws, so tracked and untracked runs stay sample-for-sample
/// comparable.
fn probe_sign(seed: u64, period: usize, device: usize) -> f64 {
    let mut z = seed
        ^ (period as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (device as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Results of a fixed-frequency (controller-less) run — the Table 1 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRunStats {
    /// Mean server power (W).
    pub mean_power: f64,
    /// Per-task throughput (images/s).
    pub throughput_img_s: Vec<f64>,
    /// Per-task mean batch inference latency (s).
    pub mean_batch_latency_s: Vec<f64>,
    /// Per-task mean queue delay (s/image).
    pub mean_queue_delay_s: Vec<f64>,
    /// Per-task CPU preprocessing time (s/image) at the applied CPU clock.
    pub preprocess_s_per_image: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_workload::slo::SloTracker;

    /// Copy, full sort, linear interpolation: the percentile the runner
    /// reported before its tails became selections.
    fn percentile_by_sort(xs: &[f64], q: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("trackers store finite samples"));
        let pos = q / 100.0 * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    fn run_for(scenario: Scenario, periods: usize) -> (ExperimentRunner, RunTrace) {
        let mut runner = ExperimentRunner::new(scenario, 900.0).expect("runner");
        let controller = runner.build_capgpu_controller().expect("controller");
        let trace = runner.run(controller, periods).expect("run");
        (runner, trace)
    }

    /// Samples of each task above its SLO, counted from the multiset.
    fn above_slo(tracker: &SloTracker) -> Vec<usize> {
        (0..tracker.num_tasks())
            .map(|i| {
                let slo = tracker.slo(i);
                tracker.latencies(i).iter().filter(|l| **l > slo).count()
            })
            .collect()
    }

    fn p99_by_sort(tracker: &SloTracker) -> Vec<f64> {
        (0..tracker.num_tasks())
            .map(|i| percentile_by_sort(tracker.latencies(i), 99.0))
            .collect()
    }

    fn miss_rates_by_count(tracker: &SloTracker) -> Vec<f64> {
        above_slo(tracker)
            .iter()
            .enumerate()
            .map(|(i, &m)| match tracker.latencies(i).len() {
                0 => 0.0,
                n => m as f64 / n as f64,
            })
            .collect()
    }

    /// Everything `run` reports about tails and misses, recomputed from
    /// the samples the trackers hold after it. Per-period misses come
    /// from prefix runs: the run is deterministic, so a fresh `k`-period
    /// run holds exactly the samples of the first `k` periods.
    fn assert_tails_match_sort_oracle(make: fn(u64) -> Scenario) {
        const PERIODS: usize = 40;
        let (runner, trace) = run_for(make(42), PERIODS);
        let (slo, token_trackers) = runner.plant.trackers();
        assert_eq!(trace.p99_latency_s, p99_by_sort(slo));
        assert_eq!(trace.miss_rates, miss_rates_by_count(slo));
        match token_trackers {
            None => assert!(trace.ttft_p99_s.is_empty() && trace.itl_p99_s.is_empty()),
            Some((ttft, itl)) => {
                assert_eq!(trace.ttft_p99_s, p99_by_sort(ttft));
                assert_eq!(trace.itl_p99_s, p99_by_sort(itl));
                assert_eq!(trace.ttft_miss_rates, miss_rates_by_count(ttft));
                assert_eq!(trace.itl_miss_rates, miss_rates_by_count(itl));
            }
        }
        let mut before = vec![0; slo.num_tasks()];
        for k in 1..=PERIODS {
            let (prefix_runner, prefix) = run_for(make(42), k);
            assert_eq!(prefix.records[..], trace.records[..k]);
            let after = above_slo(prefix_runner.plant.trackers().0);
            let in_period: Vec<usize> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(trace.records[k - 1].slo_misses, in_period, "period {k}");
            before = after;
        }
        assert!(
            before.iter().sum::<usize>() > 0,
            "no miss in {PERIODS} periods: the per-period check compared zeros"
        );
    }

    #[test]
    fn llm_tails_and_misses_equal_the_sort_oracle() {
        // The LLM testbed leaves the per-request SLO off; switch one on
        // so that the records' `slo_misses` are not all zero.
        assert_tails_match_sort_oracle(|seed| {
            let mut s = Scenario::llm_testbed(seed);
            s.slos = vec![Some(4.0); s.gpu_models.len()];
            s
        });
    }

    #[test]
    fn serving_tails_and_misses_equal_the_sort_oracle() {
        assert_tails_match_sort_oracle(Scenario::serving_testbed);
    }

    /// With RLS tracking on, `run` identifies first when nobody has. The
    /// sweep's dwell latencies are calibration, not the run: the trace
    /// must equal that of a runner identified before `run` was called.
    #[test]
    fn identifying_inside_run_leaves_the_run_s_tails_alone() {
        let mut scenario = Scenario::llm_testbed(42);
        scenario.slos = vec![Some(4.0); scenario.gpu_models.len()];
        scenario.rls_tracking = true;
        let run = |identify_first: bool| {
            let mut runner = ExperimentRunner::new(scenario.clone(), 900.0).expect("runner");
            if identify_first {
                runner.identify().expect("identify");
            }
            // Fixed-step needs no model, so nothing else identifies.
            let controller = runner.build_fixed_step(1);
            runner.run(controller, 8).expect("run")
        };
        let inside = run(false);
        assert!(inside.itl_p99_s.iter().all(|&p| p > 0.0));
        assert_eq!(inside, run(true));
    }
}
