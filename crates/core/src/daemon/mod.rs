//! `capgpud` — the live-serving power-capping control daemon.
//!
//! This module lifts the experiment runner's control loop out of the
//! experiment harness and onto the [`PowerBackend`] seam, so the same
//! identify → MPC → supervisor ladder that reproduces the paper's
//! figures can regulate a *live* server: the daemon senses and actuates
//! exclusively through a boxed backend, never through the simulator
//! directly. Against [`SimBackend`](capgpu_backend::SimBackend) every
//! run is byte-deterministic (the dry-run golden in
//! `results/capgpud.txt` pins this); `daemon.backend = "cpufreq"`
//! points the identical loop at the host's
//! [`CpufreqBackend`](capgpu_backend::CpufreqBackend), which the tests
//! run against a sysfs fixture tree (no real clock is touched in CI).
//!
//! Pieces, one submodule each:
//!
//! * [`Daemon`] (here) — the control loop: excitation-plan
//!   identification, per-period MPC with throughput weights, streaming
//!   RLS warm-start refits, and the failover [`Ladder`] (primary → safe
//!   fixed-step → park-at-floors). The identification dwell, the
//!   health-and-decide step and the refit push are the experiment
//!   runner's own: both loops call the crate-private `period` module.
//! * [`DaemonConfig`] (`config`) — operator-facing TOML configuration
//!   (`toml` is the dependency-free subset parser behind it),
//!   hot-reloadable set-point.
//! * [`MetricsServer`] (`http`) — a dependency-free HTTP listener
//!   exposing Prometheus text over `GET /metrics`.
//! * [`ReloadSignal`] / [`ConfigWatcher`] (`reload`) — SIGHUP and
//!   config-mtime triggers for set-point hot reload.
//!
//! Every journal event is stamped with the backend's wall clock when it
//! offers one ([`PowerBackend::wall_clock_unix_ms`]); deterministic
//! backends return `None`, which keeps sim-mode JSONL byte-identical
//! across reruns and safe to golden-check in CI.

mod config;
mod http;
mod reload;
mod toml;

pub use config::DaemonConfig;
use config::DEFAULT_RLS_FORGETTING;
pub use http::MetricsServer;
pub use reload::{ConfigWatcher, ReloadSignal};

use capgpu_backend::PowerBackend;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::sysid::ScaledModelTracker;
use capgpu_obs::analyzer::{HealthAnalyzer, PeriodSample, DETECTORS};
use capgpu_obs::replay::ReplayState;
use capgpu_obs::rotate::JournalWriter;
use capgpu_telemetry::journal::{Body, Event, Journal};
use capgpu_telemetry::registry::{CounterId, GaugeId, Registry, Snapshot};

use crate::controllers::{CapGpuController, DeviceLayout};
use crate::period::{self, period_power, Decider, PeriodInputs, Transitions};
use crate::supervisor::{Ladder, SupervisorTier};
use crate::weights::WeightAssigner;
use crate::{CapGpuError, Result};

fn bad(m: String) -> CapGpuError {
    CapGpuError::BadConfig(m)
}

/// One control period's outcome, for logs and the dry-run transcript.
#[derive(Debug, Clone)]
pub struct PeriodReport {
    /// Period index (0-based, counted from the end of identification).
    pub period: u64,
    /// Supervisor ladder tier that acted.
    pub tier: SupervisorTier,
    /// Average server power the controller acted on (W).
    pub avg_power_watts: f64,
    /// Set-point after any PSU-derate clamp (W).
    pub effective_setpoint: f64,
    /// Consecutive meter-silent periods at this decision.
    pub stale_periods: usize,
    /// Commanded per-device targets (MHz).
    pub targets_mhz: Vec<f64>,
}

/// Metric handles registered once at construction.
#[derive(Debug)]
struct Metrics {
    power: GaugeId,
    setpoint: GaugeId,
    tier: GaugeId,
    stale: GaugeId,
    periods: CounterId,
    refits: CounterId,
    tier_changes: CounterId,
    journal_errors: CounterId,
    /// Per-detector analyzer verdicts, in `DETECTORS` order.
    health: Vec<GaugeId>,
    health_overall: GaugeId,
}

/// Everything a fitted power model determines, built in one piece by
/// [`Daemon::identify`] and again by [`Daemon::recover`].
#[derive(Debug)]
struct ControlStack {
    primary: CapGpuController,
    ladder: Ladder,
    /// The model tracker: streaming refits when `identify.rls` is on,
    /// and the ladder's authority verdict always.
    tracker: ScaledModelTracker,
    /// Gain scale last pushed to the primary controller, relative to the
    /// model the stack was built from.
    pushed_scale: f64,
    /// The ladder's tier and quarantine flags as last journaled.
    transitions: Transitions,
}

impl ControlStack {
    /// MPC primary, failover ladder and the model tracker warm-started
    /// with `seed_rows`, all anchored at `model`.
    fn from_model(
        daemon: &Daemon,
        model: LinearPowerModel,
        seed_rows: &[(Vec<f64>, f64)],
    ) -> Result<Box<Self>> {
        let (layout, cfg) = (&daemon.layout, &daemon.cfg);
        let noise = daemon.backend.meter_noise_std();
        Ok(Box::new(ControlStack {
            primary: CapGpuController::new(layout, model.clone(), WeightAssigner::default())?,
            ladder: Ladder::new(cfg.supervisor, layout, &model, noise)?,
            transitions: Transitions::default(),
            tracker: ScaledModelTracker::new(
                model,
                cfg.rls_forgetting.unwrap_or(DEFAULT_RLS_FORGETTING),
                seed_rows,
            )?,
            pushed_scale: 1.0,
        }))
    }
}

/// The live-serving control daemon: the paper's control loop over a
/// boxed [`PowerBackend`].
///
/// Lifecycle: [`Daemon::new`] → [`Daemon::identify`] →
/// [`Daemon::step_period`] (or [`Daemon::run_periods`]) in a timer
/// loop, with [`Daemon::apply_reload`] on SIGHUP/config change and
/// [`Daemon::prometheus_text`] published to the metrics listener.
pub struct Daemon {
    cfg: DaemonConfig,
    backend: Box<dyn PowerBackend>,
    layout: DeviceLayout,
    /// `None` until [`Daemon::identify`] or [`Daemon::recover`]. Boxed
    /// so [`Daemon::step_period`] can lend it out by moving a pointer.
    stack: Option<Box<ControlStack>>,
    journal: Journal,
    /// Rotating durable journal (crash-recovery replay source), when
    /// `journal_dir` is configured. Each public call that records
    /// commits its records before returning.
    writer: Option<JournalWriter>,
    /// The line `record` renders each event into for `writer`.
    line_buf: String,
    /// Streaming control-loop health detectors.
    analyzer: HealthAnalyzer,
    registry: Registry,
    metrics: Metrics,
    period: u64,
    sim_time_s: f64,
    /// Targets currently in force (MHz).
    targets: Vec<f64>,
    /// Effective frequencies after the last actuation (MHz).
    applied: Vec<f64>,
    last_avg_watts: f64,
    setpoint_watts: f64,
    /// Per-device throughput weights: no backend reports throughput, so
    /// every device is equally expensive to slow down.
    neutral_throughput: Vec<f64>,
    decider: Decider,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("backend", &self.backend.name())
            .field("period", &self.period)
            .field("setpoint_watts", &self.setpoint_watts)
            .field("tier", &self.tier())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Wraps a backend with the configured control stack. The backend
    /// must be able to actuate frequencies and sense server power.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on a capability or layout mismatch.
    pub fn new(cfg: DaemonConfig, backend: Box<dyn PowerBackend>) -> Result<Self> {
        cfg.validate()?;
        let caps = backend.capabilities();
        if !caps.set_frequency || !caps.server_power {
            return Err(bad(format!(
                "backend \"{}\" cannot close the loop: needs set_frequency + server_power",
                backend.name()
            )));
        }
        let devices = backend.devices();
        if devices.is_empty() {
            return Err(bad(format!(
                "backend \"{}\" has no devices",
                backend.name()
            )));
        }
        let kinds = devices.iter().map(|d| d.kind).collect();
        let f_min = devices.iter().map(|d| d.f_min_mhz).collect();
        let f_max: Vec<f64> = devices.iter().map(|d| d.f_max_mhz).collect();
        let layout = DeviceLayout::new(kinds, f_min, f_max)?;
        let n = layout.len();
        let mut registry = Registry::new();
        let labels: &[(&str, &str)] = &[("backend", backend.name())];
        let metrics = Metrics {
            power: registry.gauge("capgpud_power_watts", labels),
            setpoint: registry.gauge("capgpud_setpoint_watts", labels),
            tier: registry.gauge("capgpud_tier", labels),
            stale: registry.gauge("capgpud_stale_periods", labels),
            periods: registry.counter("capgpud_periods_total", labels),
            refits: registry.counter("capgpud_refits_total", labels),
            tier_changes: registry.counter("capgpud_tier_changes_total", labels),
            journal_errors: registry.counter("capgpud_journal_errors_total", labels),
            health: DETECTORS
                .iter()
                .map(|det| {
                    registry.gauge(
                        "capgpud_health",
                        &[("backend", backend.name()), ("detector", det)],
                    )
                })
                .collect(),
            health_overall: registry.gauge("capgpud_health_overall", labels),
        };
        registry.set_help(
            "capgpud_power_watts",
            "Average server power over the last control period.",
        );
        registry.set_help("capgpud_setpoint_watts", "Effective power set-point.");
        registry.set_help(
            "capgpud_tier",
            "Supervisor ladder tier (0 primary, 1 safe fallback, 2 park).",
        );
        registry.set_help(
            "capgpud_stale_periods",
            "Consecutive control periods with a silent power meter.",
        );
        registry.set_help("capgpud_periods_total", "Control periods executed.");
        registry.set_help(
            "capgpud_refits_total",
            "RLS model refits pushed to the primary controller.",
        );
        registry.set_help(
            "capgpud_tier_changes_total",
            "Supervisor failover-ladder transitions.",
        );
        registry.set_help(
            "capgpud_journal_errors_total",
            "Durable-journal append failures (journaling is non-fatal).",
        );
        registry.set_help(
            "capgpud_health",
            "Analyzer verdict per detector (0 ok, 1 warn, 2 critical).",
        );
        registry.set_help(
            "capgpud_health_overall",
            "Worst analyzer verdict across detectors (0 ok, 1 warn, 2 critical).",
        );
        let targets = layout.f_max.clone();
        let setpoint_watts = cfg.setpoint_watts;
        let writer = match &cfg.journal_dir {
            Some(dir) => Some(
                JournalWriter::create(dir.clone(), cfg.rotation_config())
                    .map_err(|e| bad(format!("journal: {e}")))?,
            ),
            None => None,
        };
        Ok(Daemon {
            cfg,
            backend,
            layout,
            stack: None,
            journal: Journal::new(),
            writer,
            line_buf: String::new(),
            analyzer: HealthAnalyzer::default(),
            registry,
            metrics,
            period: 0,
            sim_time_s: 0.0,
            targets,
            applied: Vec::with_capacity(n),
            last_avg_watts: 0.0,
            setpoint_watts,
            neutral_throughput: vec![1.0; n],
            decider: Decider::new(n),
        })
    }

    /// Journals `body` at the current period and plant time, stamped
    /// with the backend's wall clock when it has one: in memory, and
    /// staged for the durable journal, which the public call that
    /// records it commits ([`Daemon::commit_journal`]). Disk failures
    /// are counted, not fatal: a lost line must never stop actuation.
    fn record(&mut self, body: Body) {
        let event = Event {
            period: self.period,
            sim_time_s: self.sim_time_s,
            wall_unix_ms: self.backend.wall_clock_unix_ms(),
            body,
        };
        if let Some(w) = self.writer.as_mut() {
            self.line_buf.clear();
            event.write_json(&mut self.line_buf);
            if w.stage(&self.line_buf, event.sim_time_s).is_err() {
                self.registry.inc(self.metrics.journal_errors, 1);
            }
        }
        self.journal.push(event);
    }

    /// Hands the records staged since the last commit to the OS in one
    /// `write`, counting a failure like a failed record.
    fn commit_journal(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            if w.commit().is_err() {
                self.registry.inc(self.metrics.journal_errors, 1);
            }
        }
    }

    /// Runs the excitation-plan identification sweep through the
    /// backend, fits the linear power model, and builds the control
    /// stack (MPC primary, safe fixed-step fallback, supervisor, and —
    /// when configured — the streaming RLS tracker warm-started with
    /// the sweep's samples).
    ///
    /// # Errors
    /// Propagates excitation, backend, and fitting errors.
    pub fn identify(&mut self) -> Result<()> {
        let sweep = period::identify(
            self.backend.as_mut(),
            &self.layout,
            self.cfg.sysid_steps_per_device,
            self.cfg.control_period_s as usize,
            &mut self.applied,
            |backend, _| {
                self.sim_time_s += 1.0;
                Ok(backend.advance(1.0)?)
            },
        )?;
        let model = sweep.fitted.model;
        self.stack = Some(ControlStack::from_model(self, model.clone(), &sweep.rows)?);
        self.targets = self.applied.clone();
        // Per-device base gains, one record each (a record holds
        // scalars), so crash-recovery replay rebuilds the exact model.
        for d in 0..self.layout.len() {
            self.record(Body::ModelGain {
                device: d as u64,
                w_per_mhz: model.gains()[d],
            });
        }
        self.record(Body::Identified {
            points: sweep.points as u64,
            offset_w: model.offset(),
            r_squared: sweep.fitted.r_squared,
        });
        self.commit_journal();
        Ok(())
    }

    /// Executes one control period: advance the plant, sense, consult
    /// the supervisor, run the acting controller, actuate.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] before [`Daemon::identify`];
    /// backend/controller errors propagate.
    pub fn step_period(&mut self) -> Result<PeriodReport> {
        let Some(mut stack) = self.stack.take() else {
            return Err(bad("daemon: step_period before identify".into()));
        };
        let report = self.step_with(&mut stack);
        self.stack = Some(stack);
        self.commit_journal();
        report
    }

    /// [`Daemon::step_period`] with the control stack lent out of `self`,
    /// so the journal can be written while the stack is in use.
    fn step_with(&mut self, stack: &mut ControlStack) -> Result<PeriodReport> {
        // -- sense: advance one period, one second at a time ----------
        let mut fresh = 0usize;
        for _ in 0..self.cfg.control_period_s {
            self.sim_time_s += 1.0;
            if self.backend.advance(1.0)?.is_some() {
                fresh += 1;
            }
        }
        let avg = period_power(
            self.backend.as_ref(),
            self.cfg.control_period_s as usize,
            fresh,
            &mut self.last_avg_watts,
        );
        self.decider.track(
            self.backend.as_ref(),
            &mut stack.tracker,
            fresh,
            &self.applied,
            avg,
            true,
        );
        // -- supervise + control --------------------------------------
        let inputs = PeriodInputs {
            fresh_samples: fresh,
            avg_power: avg,
            setpoint: self.setpoint_watts,
            applied_mean: &self.applied,
            targets: &self.targets,
            normalized_throughput: &self.neutral_throughput,
            floors: &self.layout.f_min,
            phase_mix: None,
        };
        let decision = self.decider.step(
            self.backend.as_mut(),
            Some((&mut stack.ladder, &mut stack.tracker)),
            &mut stack.primary,
            &inputs,
        )?;
        let (targets, directive) = (decision.targets, decision.directive);
        // Tier and quarantine edges, journaled so replay can re-derive
        // the ladder's state.
        let quarantined = stack.ladder.supervisor().quarantined();
        let (tier_changed, _) = stack
            .transitions
            .observe(&directive, quarantined, |body| self.record(body));
        if tier_changed {
            self.registry.inc(self.metrics.tier_changes, 1);
        }
        // The period's record, built while the targets moved from are at hand.
        let body = period::record(&directive, avg, &self.targets, &targets, &self.layout);
        self.backend.set_frequencies(&targets)?;
        self.backend.effective_frequencies_into(&mut self.applied)?;
        self.targets = targets;
        // -- streaming refit (primary only: the fallback and park are
        //    model-free by design) ------------------------------------
        if fresh > 0
            && directive.tier == SupervisorTier::Primary
            && self.cfg.rls_forgetting.is_some()
        {
            let pushed =
                period::push_refit(&stack.tracker, &mut stack.pushed_scale, &mut stack.primary)?;
            if let Some((model, scale)) = pushed {
                self.registry.inc(self.metrics.refits, 1);
                // scale + offset pin the pushed model exactly (gains =
                // journaled base gains × scale), which is what makes
                // crash-recovery replay bit-exact.
                self.record(Body::Refit {
                    scale,
                    offset_w: model.offset(),
                });
            }
        }
        // -- journal + metrics; the online health analyzer reads the
        //    period record, as the post-mortem does -------------------
        let sample = PeriodSample::from_period(&body);
        self.record(body);
        let edges = sample
            .map(|s| self.analyzer.observe(&s))
            .unwrap_or_default();
        for e in edges.iter().flatten() {
            self.record(Body::from(e));
        }
        for (i, (_, v)) in self.analyzer.verdicts().iter().enumerate() {
            self.registry.set(self.metrics.health[i], v.gauge());
        }
        self.registry
            .set(self.metrics.health_overall, self.analyzer.overall().gauge());
        self.registry.set(self.metrics.power, avg);
        self.registry
            .set(self.metrics.setpoint, directive.effective_setpoint);
        self.registry
            .set(self.metrics.tier, f64::from(directive.tier.as_u8()));
        self.registry
            .set(self.metrics.stale, directive.stale_periods as f64);
        self.registry.inc(self.metrics.periods, 1);
        let report = PeriodReport {
            period: self.period,
            tier: directive.tier,
            avg_power_watts: avg,
            effective_setpoint: directive.effective_setpoint,
            stale_periods: directive.stale_periods,
            targets_mhz: self.targets.clone(),
        };
        self.period += 1;
        Ok(report)
    }

    /// Runs `n` control periods, collecting the reports.
    ///
    /// # Errors
    /// Propagates the first period failure.
    pub fn run_periods(&mut self, n: u64) -> Result<Vec<PeriodReport>> {
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.step_period()?);
        }
        Ok(out)
    }

    /// Applies a hot reload: only the set-point changes at runtime.
    /// Every other key keeps its running value until a restart, and
    /// `capgpud --serve` prints one line to stderr when a reloaded
    /// config differs in one.
    ///
    /// Returns `true` when the set-point changed.
    pub fn apply_reload(&mut self, new_cfg: &DaemonConfig) -> bool {
        if (new_cfg.setpoint_watts - self.setpoint_watts).abs() > f64::EPSILON {
            self.set_setpoint(new_cfg.setpoint_watts);
            return true;
        }
        false
    }

    /// Changes the operator set-point, journaling the step.
    pub fn set_setpoint(&mut self, watts: f64) {
        let old = self.setpoint_watts;
        self.setpoint_watts = watts;
        self.record(Body::SetpointChange {
            from_w: old,
            to_w: watts,
        });
        self.commit_journal();
    }

    /// Current operator set-point (W).
    pub fn setpoint_watts(&self) -> f64 {
        self.setpoint_watts
    }

    /// The configuration the daemon was built with.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// The event journal (JSONL-renderable; byte-stable against
    /// deterministic backends): every record journaled since
    /// construction, held in memory beside the durable `journal.dir`.
    ///
    /// This copy is unbounded. Each record costs about 250 B on an
    /// 8-GPU daemon (its 136 B `Event` plus a `period` record's targets
    /// text), at about 1.6 records per period. It goes away with
    /// ROADMAP 3(b), which reads the transcript back from disk.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// A snapshot of the metric registry.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Prometheus text-format exposition of the current metrics.
    pub fn prometheus_text(&self) -> String {
        self.registry.snapshot().to_prometheus_text()
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &dyn PowerBackend {
        self.backend.as_ref()
    }

    /// Mutable backend access — the concrete-type escape hatch for
    /// plant-side hooks (fault injection in tests and the `obs`
    /// scenario).
    pub fn backend_mut(&mut self) -> &mut dyn PowerBackend {
        self.backend.as_mut()
    }

    /// Current supervisor tier (primary before identification).
    pub fn tier(&self) -> SupervisorTier {
        (self.stack.as_ref()).map_or(SupervisorTier::Primary, |s| s.ladder.supervisor().tier())
    }

    /// JSON body for the `/healthz` endpoint: supervisor tier, worst
    /// analyzer verdict, periods observed, and per-detector verdicts.
    pub fn health_json(&self) -> String {
        let mut out = format!(
            "{{\"tier\":{},\"overall\":\"{}\",\"periods\":{},\"detectors\":{{",
            self.tier().as_u8(),
            self.analyzer.overall().label(),
            self.analyzer.periods()
        );
        for (i, (name, v)) in self.analyzer.verdicts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":\"{}\"", v.label()));
        }
        out.push_str("}}");
        out
    }

    /// Resumes from a crash-recovery [`ReplayState`] instead of
    /// re-running identification: rebuilds the control stack from the
    /// journaled model (base gains × last refit scale, bit-exact),
    /// restores supervisor tier and quarantine flags, re-asserts the
    /// dead daemon's last commanded targets (or, if it died before its
    /// first period, the clocks in force), and continues its
    /// period/clock sequence so the journal stays monotone.
    ///
    /// The config-file set-point stays authoritative unless the journal
    /// recorded a runtime `setpoint_change`.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] when the journal carries no
    /// identified model or its device count mismatches the backend.
    pub fn recover(&mut self, state: &ReplayState) -> Result<()> {
        let (gains, offset) = state
            .model()
            .ok_or_else(|| bad("recover: journal has no identified model".into()))?;
        if gains.len() != self.layout.len() {
            return Err(bad(format!(
                "recover: journal has {} devices, backend has {}",
                gains.len(),
                self.layout.len()
            )));
        }
        let model = LinearPowerModel::new(gains, offset)?;
        // The tracker is re-anchored at the recovered model, so its scale
        // (and the push deadband) restart from 1 with nothing to replay.
        let mut stack = ControlStack::from_model(self, model, &[])?;
        let tier = SupervisorTier::from_u8(state.tier_or_primary() as u8);
        stack.ladder.restore(tier, &state.quarantined);
        stack.transitions = Transitions::restored(tier, stack.ladder.supervisor().quarantined());
        self.stack = Some(stack);
        if let Some(cap) = state.cap_w {
            self.setpoint_watts = cap;
        }
        // A daemon that died before its first period journaled no
        // targets: resume from the clocks its sweep left in force, as
        // `identify` does.
        let mut targets = state.last_targets_mhz.clone();
        if targets.len() != self.layout.len() {
            self.backend.effective_frequencies_into(&mut targets)?;
        }
        self.backend.set_frequencies(&targets)?;
        self.backend.effective_frequencies_into(&mut self.applied)?;
        self.targets = targets;
        self.period = state.last_period.map_or(0, |p| p + 1);
        self.sim_time_s = state.last_t_s.unwrap_or(0.0);
        let replayed: u64 = state.kind_counts.iter().map(|(_, n)| n).sum();
        self.record(Body::Recovered {
            tier: u64::from(tier.as_u8()),
            records: replayed,
        });
        self.commit_journal();
        Ok(())
    }

    /// Seals the durable journal's active segment (count + CRC footer)
    /// — the graceful-shutdown path. A crash skips this, leaving the
    /// torn tail the reader tolerates.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] wrapping the journal I/O failure.
    pub fn seal_journal(&mut self) -> Result<()> {
        if let Some(w) = self.writer.as_mut() {
            w.seal().map_err(|e| bad(format!("journal: {e}")))?;
        }
        Ok(())
    }

    /// Tears down the daemon and hands back the backend — the "kill"
    /// half of a kill-and-restart scenario. The durable journal is
    /// deliberately NOT sealed: the plant survives with exactly the
    /// on-disk state a crashed daemon would leave behind.
    #[must_use]
    pub fn into_backend(self) -> Box<dyn PowerBackend> {
        self.backend
    }

    /// Rotating-journal statistics `(appended, sealed, reaped)`; zeros
    /// when no `journal_dir` is configured.
    pub fn journal_stats(&self) -> (u64, u64, u64) {
        self.writer
            .as_ref()
            .map_or((0, 0, 0), capgpu_obs::rotate::JournalWriter::stats)
    }

    /// The online control-loop health analyzer.
    pub fn analyzer(&self) -> &HealthAnalyzer {
        &self.analyzer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_backend::SimBackend;
    use capgpu_faults::FaultKind;
    use capgpu_sim::Server;

    /// The events of `journal` whose body `keep` selects.
    fn events_where(journal: &Journal, keep: impl Fn(&Body) -> bool) -> Vec<&Event> {
        journal.events().iter().filter(|e| keep(&e.body)).collect()
    }

    // -- daemon over the sim backend ----------------------------------

    fn sim_daemon(setpoint: f64) -> Daemon {
        let mut cfg = DaemonConfig::default_sim();
        cfg.setpoint_watts = setpoint;
        cfg.sysid_steps_per_device = 4;
        let backend = cfg.build_backend().unwrap();
        Daemon::new(cfg, backend).unwrap()
    }

    #[test]
    fn sim_daemon_regulates_toward_the_setpoint() {
        let mut d = sim_daemon(900.0);
        d.identify().unwrap();
        let reports = d.run_periods(20).unwrap();
        assert_eq!(reports.len(), 20);
        // Steady state: the last five periods hold near the set-point.
        let tail: Vec<f64> = reports[15..].iter().map(|r| r.avg_power_watts).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 900.0).abs() < 40.0,
            "steady-state mean {mean} too far from 900"
        );
        assert!(reports.iter().all(|r| r.tier == SupervisorTier::Primary));
        // The journal recorded identification and every period.
        assert_eq!(
            events_where(d.journal(), |b| matches!(b, Body::Identified { .. })).len(),
            1
        );
        assert_eq!(
            events_where(d.journal(), |b| matches!(b, Body::Period { .. })).len(),
            20
        );
        // Sim journals carry no wall clock.
        assert!(d
            .journal()
            .events()
            .iter()
            .all(|e| e.wall_unix_ms.is_none()));
    }

    #[test]
    fn sim_daemon_is_deterministic() {
        let run = |setpoint: f64| {
            let mut d = sim_daemon(setpoint);
            d.identify().unwrap();
            d.run_periods(12).unwrap();
            (d.journal().to_jsonl(), d.prometheus_text())
        };
        let (j1, m1) = run(900.0);
        let (j2, m2) = run(900.0);
        assert_eq!(j1, j2, "journal must be byte-identical across reruns");
        assert_eq!(m1, m2, "metrics must be byte-identical across reruns");
    }

    #[test]
    fn prometheus_text_carries_daemon_metrics_and_help() {
        let mut d = sim_daemon(900.0);
        d.identify().unwrap();
        d.run_periods(3).unwrap();
        let text = d.prometheus_text();
        assert!(text.contains("# HELP capgpud_power_watts Average server power"));
        assert!(text.contains("# TYPE capgpud_power_watts gauge"));
        assert!(text.contains("capgpud_periods_total{backend=\"sim\"} 3"));
        assert!(text.contains("capgpud_tier{backend=\"sim\"} 0"));
    }

    #[test]
    fn setpoint_hot_reload_is_journaled_and_applied() {
        let mut d = sim_daemon(900.0);
        d.identify().unwrap();
        d.run_periods(6).unwrap();
        let mut new_cfg = d.config().clone();
        new_cfg.setpoint_watts = 800.0;
        assert!(d.apply_reload(&new_cfg));
        assert!(!d.apply_reload(&new_cfg), "second reload is a no-op");
        assert_eq!(d.setpoint_watts(), 800.0);
        assert_eq!(
            events_where(d.journal(), |b| matches!(b, Body::SetpointChange { .. })).len(),
            1
        );
        let reports = d.run_periods(12).unwrap();
        let tail: Vec<f64> = reports[8..].iter().map(|r| r.avg_power_watts).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 800.0).abs() < 40.0,
            "post-reload steady state {mean} should track 800"
        );
    }

    #[test]
    fn step_before_identify_is_refused() {
        let mut d = sim_daemon(900.0);
        let err = d.step_period().unwrap_err();
        assert!(err.to_string().contains("identify"), "{err}");
    }

    // -- faults injected into the simulated plant: what the backend
    //    reports must reach the supervisor through the trait ---------

    /// A 2-GPU sim daemon on a 2 s period with a short identification.
    fn small_cfg() -> DaemonConfig {
        let mut cfg = DaemonConfig::default_sim();
        cfg.sim_gpus = 2;
        cfg.sysid_steps_per_device = 4;
        cfg.control_period_s = 2;
        cfg
    }

    /// The simulated server behind the daemon, through the plant-side
    /// escape hatch.
    fn server(d: &mut Daemon) -> &mut Server {
        d.backend_mut()
            .as_any_mut()
            .downcast_mut::<SimBackend>()
            .expect("sim backend")
            .server_mut()
    }

    #[test]
    fn meter_dropout_escalates_the_supervisor_ladder() {
        let cfg = small_cfg();
        let backend = cfg.build_backend().unwrap();
        let mut d = Daemon::new(cfg, backend).unwrap();
        d.identify().unwrap();
        let healthy = d.run_periods(3).unwrap();
        assert!(healthy.iter().all(|r| r.tier == SupervisorTier::Primary));
        FaultKind::MeterDropout.apply(server(&mut d)).unwrap();
        let stale = d.run_periods(6).unwrap();
        let tiers: Vec<SupervisorTier> = stale.iter().map(|r| r.tier).collect();
        assert!(
            tiers.contains(&SupervisorTier::SafeFallback),
            "expected fallback rung in {tiers:?}"
        );
        assert_eq!(
            *tiers.last().unwrap(),
            SupervisorTier::Park,
            "sustained dropout must park the loop"
        );
        // Park actuates the floors.
        let last = stale.last().unwrap();
        for (t, lo) in last.targets_mhz.iter().zip(d.backend().devices()) {
            assert!(
                (t - lo.f_min_mhz).abs() < 1e-9,
                "park target {t} != floor {}",
                lo.f_min_mhz
            );
        }
        // Clearing the fault lets the ladder recover to primary.
        FaultKind::MeterDropout.clear(server(&mut d)).unwrap();
        let recovered = d.run_periods(14).unwrap();
        assert_eq!(
            recovered.last().unwrap().tier,
            SupervisorTier::Primary,
            "ladder must climb back after the meter returns"
        );
        // The escalation and recovery are journaled as tier changes.
        assert!(events_where(d.journal(), |b| matches!(b, Body::TierChange { .. })).len() >= 3);
    }

    /// A PSU derate reaches the supervisor through the backend: while the
    /// supply advertises 850 W, the daemon regulates to 850 W less the
    /// default 10 W margin, and goes back to the operator's 900 W the
    /// period the derate clears.
    #[test]
    fn psu_derate_clamps_the_setpoint_until_it_clears() {
        let cfg = DaemonConfig::default_sim();
        assert_eq!(cfg.setpoint_watts, 900.0);
        let backend = cfg.build_backend().unwrap();
        let mut d = Daemon::new(cfg, backend).unwrap();
        d.identify().unwrap();
        d.run_periods(8).unwrap();
        let derate = FaultKind::PsuDerate { limit_watts: 850.0 };
        derate.apply(server(&mut d)).unwrap();
        let derated = d.run_periods(12).unwrap();
        for r in &derated {
            assert_eq!(r.effective_setpoint, 840.0, "period {}", r.period);
        }
        for r in &derated[1..] {
            assert!(
                r.avg_power_watts < 850.0,
                "period {}: {}",
                r.period,
                r.avg_power_watts
            );
        }
        derate.clear(server(&mut d)).unwrap();
        assert_eq!(d.step_period().unwrap().effective_setpoint, 900.0);
    }

    /// With streaming refits off the model tracker still runs, for the
    /// authority verdict: a plant whose GPUs stop answering their clocks
    /// demotes the loop, and no refit is journaled.
    #[test]
    fn unresponsive_plant_demotes_with_refits_off() {
        let mut cfg = small_cfg();
        cfg.rls_forgetting = None;
        cfg.setpoint_watts = 700.0;
        let backend = cfg.build_backend().unwrap();
        let mut d = Daemon::new(cfg, backend).unwrap();
        d.identify().unwrap();
        let healthy = d.run_periods(10).unwrap();
        assert!(healthy.iter().all(|r| r.tier == SupervisorTier::Primary));
        for gpu in server(&mut d).gpu_indices().to_vec() {
            server(&mut d).scale_power_gain(gpu, 0.05).unwrap();
        }
        let after = d.run_periods(10).unwrap();
        let tiers: Vec<SupervisorTier> = after.iter().map(|r| r.tier).collect();
        assert!(
            tiers.contains(&SupervisorTier::SafeFallback),
            "expected a demotion in {tiers:?}"
        );
        let reasons: Vec<String> =
            events_where(d.journal(), |b| matches!(b, Body::TierChange { .. }))
                .into_iter()
                .map(|e| e.to_json())
                .collect();
        assert!(
            reasons[0].contains("\"reason\":\"authority_lost\""),
            "{reasons:?}"
        );
        assert!(events_where(d.journal(), |b| matches!(b, Body::Refit { .. })).is_empty());
    }

    #[test]
    fn readmitted_device_is_held_at_its_floor_while_quarantined() {
        let mut cfg = small_cfg();
        // Far above what the testbed can draw: every clock wants f_max.
        cfg.setpoint_watts = 2000.0;
        let recovery = cfg.supervisor.recovery_periods;
        let backend = cfg.build_backend().unwrap();
        let mut d = Daemon::new(cfg, backend).unwrap();
        d.identify().unwrap();
        d.run_periods(3).unwrap();
        let fault = FaultKind::Ejected { device: 1 };
        fault.apply(server(&mut d)).unwrap();
        d.run_periods(2).unwrap();
        fault.clear(server(&mut d)).unwrap();
        let (f_min, f_max) = {
            let dev = &d.backend().devices()[1];
            (dev.f_min_mhz, dev.f_max_mhz)
        };
        // Re-admitted: pinned until it has been healthy for the whole
        // recovery window, then handed back to the controller.
        let after = d.run_periods(recovery as u64 + 1).unwrap();
        for r in &after[..recovery - 1] {
            assert_eq!(r.targets_mhz[1], f_min, "period {}", r.period);
            assert_eq!(r.targets_mhz[2], f_max, "the healthy GPU is not pinned");
        }
        assert_eq!(after[recovery].targets_mhz[1], f_max);
        let edges: Vec<String> =
            events_where(d.journal(), |b| matches!(b, Body::Quarantine { .. }))
                .into_iter()
                .map(|e| e.to_json())
                .collect();
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert!(edges[0].contains("\"device\":1,\"on\":true"), "{edges:?}");
        assert!(edges[1].contains("\"device\":1,\"on\":false"), "{edges:?}");
    }
}
