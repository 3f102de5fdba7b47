//! Run-level telemetry: the glue between the generic instruments in
//! `capgpu-telemetry` and the experiment runner's control loop.
//!
//! [`RunTelemetry`] owns one [`Registry`] (counters / gauges /
//! histograms, pre-registered at construction so the hot path never
//! allocates), one [`Journal`] of discrete control-plane events, and
//! one [`SpanStack`] of nested wall-clock scopes. The registry and the
//! journal are fed exclusively from the deterministic simulation clock
//! (period indices, sim seconds, watts, iteration counts), so their
//! contents are byte-identical across reruns and safe inside
//! `PartialEq`-compared artifacts. Wall-clock spans are inherently
//! non-deterministic and therefore double-gated: they record only when
//! [`TelemetryConfig::trace_spans`] is set, and reports render them in
//! a clearly separated section.

use capgpu_serve::ServeWindowStats;
use capgpu_sim::DeviceKind;
use capgpu_telemetry::journal::{Body, Event, Journal};
use capgpu_telemetry::registry::{CounterId, GaugeId, HistogramId, Registry, Snapshot};
use capgpu_telemetry::spans::{SpanId, SpanStack, SpanSummary};
use capgpu_telemetry::TelemetryConfig;

use crate::controllers::ControlDiagnostics;

/// Control-loop phases timed by the span stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One whole control period (outermost scope).
    Period,
    /// Meter averaging and staleness resolution.
    Sense,
    /// Model identification / streaming RLS refit.
    Identify,
    /// Monitor aggregation, floors, supervisor, controller solve.
    Solve,
    /// The per-second modulate → set-frequencies → advance loop.
    Actuate,
    /// The request-level serving engines' drain (inside `Actuate`).
    ServeDrain,
}

/// Histogram bucket edges for absolute power tracking error (W).
const POWER_ERROR_EDGES: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];
/// Histogram bucket edges for active-constraint counts.
const CONSTRAINT_EDGES: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Histogram bucket edges for serving queue depth (requests).
const QUEUE_EDGES: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Histogram bucket edges for served batch sizes (requests/batch).
const BATCH_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0];

/// Pre-registered metric handles (cheap `Copy` indices).
#[derive(Debug, Clone)]
struct Handles {
    periods_total: CounterId,
    seconds_total: CounterId,
    meter_samples_total: CounterId,
    meter_stale_periods_total: CounterId,
    cap_overshoot_periods_total: CounterId,
    tier_periods_total: [CounterId; 3],
    tier_changes_total: CounterId,
    quarantine_transitions_total: CounterId,
    refits_total: CounterId,
    slo_floor_binding_periods_total: CounterId,
    floor_clamped_periods_total: CounterId,
    carry_wraps_total: Vec<CounterId>,
    power_watts: GaugeId,
    setpoint_watts: GaugeId,
    model_scale: GaugeId,
    target_mhz: Vec<GaugeId>,
    power_error_watts: HistogramId,
    active_constraints: HistogramId,
    serve_admitted_total: Vec<CounterId>,
    serve_dropped_total: Vec<CounterId>,
    serve_completions_total: Vec<CounterId>,
    serve_queue_depth: Vec<HistogramId>,
    serve_batch_size: Vec<HistogramId>,
    serve_p99_latency_s: Vec<GaugeId>,
    /// LLM-layer handles; `None` unless the scenario enables the LLM
    /// serving plant, so non-LLM telemetry artifacts (including the
    /// committed goldens) carry no LLM metric rows.
    llm: Option<LlmHandles>,
}

/// Metric handles registered only when the LLM serving layer is on.
#[derive(Debug, Clone)]
struct LlmHandles {
    prefill_tokens_total: Vec<CounterId>,
    decode_tokens_total: Vec<CounterId>,
    preemptions_total: Vec<CounterId>,
    kv_used_frac: Vec<GaugeId>,
}

/// What the runner observed over one completed control period; handed
/// to [`RunTelemetry::on_period`] in one struct so the call site stays
/// readable.
#[derive(Debug)]
pub struct PeriodObservation<'a> {
    /// Period index (0-based).
    pub period: usize,
    /// Sim time at the period's end (s).
    pub t_s: f64,
    /// Seconds simulated this period.
    pub seconds: usize,
    /// Fresh meter samples the period produced.
    pub fresh_meter_samples: usize,
    /// Measured (or held-over) average power (W).
    pub avg_power: f64,
    /// Effective set point in force (W).
    pub setpoint: f64,
    /// Whether `avg_power` is a held-over stale reading.
    pub meter_stale: bool,
    /// Supervisory tier that acted (0 when unsupervised).
    pub tier: u8,
    /// Consecutive meter-silent periods at the supervisor's decision.
    pub stale_periods: usize,
    /// Per-device quarantine flags, when supervised.
    pub quarantined: Option<&'a [bool]>,
    /// Fractional frequency targets commanded at the period's end (MHz).
    pub targets: &'a [f64],
    /// Solver diagnostics, when the acting controller exposes them.
    pub diag: Option<ControlDiagnostics>,
}

/// Per-run telemetry: registry + journal + spans, wired to the runner.
///
/// `Clone` snapshots the full telemetry state alongside the runner's
/// closed-loop state, so sweep cells cloned from a shared identified
/// runner carry the identification phase's metrics deterministically.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    cfg: TelemetryConfig,
    registry: Registry,
    journal: Journal,
    spans: SpanStack,
    sp_period: SpanId,
    sp_sense: SpanId,
    sp_identify: SpanId,
    sp_solve: SpanId,
    sp_actuate: SpanId,
    sp_serve: SpanId,
    h: Handles,
    /// Delta-sigma wraps accumulated within the current period.
    carry_pending: u64,
    prev_tier: Option<u8>,
    prev_quarantine: Vec<bool>,
    prev_stale: bool,
    slo_bound_active: bool,
    /// Per-task decode-dominant flags for edge-triggered
    /// `phase_transition` journal events (hysteresis: enter below a 0.3
    /// prefill share, leave above 0.5).
    llm_decode_dominant: Vec<bool>,
    /// Per-task KV-pressure flags for edge-triggered `kv_pressure`
    /// journal events (hysteresis: enter at ≥ 0.9 occupancy, leave at
    /// ≤ 0.7).
    llm_kv_pressured: Vec<bool>,
}

impl RunTelemetry {
    /// Builds the instrument set for a testbed with the given device
    /// kinds (in device order) and number of GPU serving tasks. All
    /// metrics are registered here — the record path never allocates.
    /// `llm` registers the LLM-layer instruments (token counters,
    /// preemptions, KV occupancy) in addition to the base set; leaving
    /// it off keeps non-LLM telemetry artifacts byte-identical to
    /// before the LLM layer existed.
    pub fn new(cfg: TelemetryConfig, kinds: &[DeviceKind], n_tasks: usize, llm: bool) -> Self {
        let mut registry = Registry::new();
        let dev_labels: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| match k {
                DeviceKind::Cpu => format!("cpu{i}"),
                DeviceKind::Gpu => format!("gpu{i}"),
            })
            .collect();
        let task_labels: Vec<String> = (0..n_tasks).map(|t| t.to_string()).collect();
        let h = Handles {
            periods_total: registry.counter("capgpu_periods_total", &[]),
            seconds_total: registry.counter("capgpu_seconds_total", &[]),
            meter_samples_total: registry.counter("capgpu_meter_samples_total", &[]),
            meter_stale_periods_total: registry.counter("capgpu_meter_stale_periods_total", &[]),
            cap_overshoot_periods_total: registry
                .counter("capgpu_cap_overshoot_periods_total", &[]),
            tier_periods_total: [
                registry.counter("capgpu_tier_periods_total", &[("tier", "0")]),
                registry.counter("capgpu_tier_periods_total", &[("tier", "1")]),
                registry.counter("capgpu_tier_periods_total", &[("tier", "2")]),
            ],
            tier_changes_total: registry.counter("capgpu_tier_changes_total", &[]),
            quarantine_transitions_total: registry
                .counter("capgpu_quarantine_transitions_total", &[]),
            refits_total: registry.counter("capgpu_refits_total", &[]),
            slo_floor_binding_periods_total: registry
                .counter("capgpu_slo_floor_binding_periods_total", &[]),
            floor_clamped_periods_total: registry
                .counter("capgpu_floor_clamped_periods_total", &[]),
            carry_wraps_total: dev_labels
                .iter()
                .map(|d| registry.counter("capgpu_carry_wraps_total", &[("device", d)]))
                .collect(),
            power_watts: registry.gauge("capgpu_power_watts", &[]),
            setpoint_watts: registry.gauge("capgpu_setpoint_watts", &[]),
            model_scale: registry.gauge("capgpu_model_scale", &[]),
            target_mhz: dev_labels
                .iter()
                .map(|d| registry.gauge("capgpu_target_mhz", &[("device", d)]))
                .collect(),
            power_error_watts: registry.histogram(
                "capgpu_power_error_watts",
                &[],
                POWER_ERROR_EDGES,
            ),
            active_constraints: registry.histogram(
                "capgpu_active_constraints",
                &[],
                CONSTRAINT_EDGES,
            ),
            serve_admitted_total: task_labels
                .iter()
                .map(|t| registry.counter("capgpu_serve_admitted_total", &[("task", t)]))
                .collect(),
            serve_dropped_total: task_labels
                .iter()
                .map(|t| registry.counter("capgpu_serve_dropped_total", &[("task", t)]))
                .collect(),
            serve_completions_total: task_labels
                .iter()
                .map(|t| registry.counter("capgpu_serve_completions_total", &[("task", t)]))
                .collect(),
            serve_queue_depth: task_labels
                .iter()
                .map(|t| {
                    registry.histogram("capgpu_serve_queue_depth", &[("task", t)], QUEUE_EDGES)
                })
                .collect(),
            serve_batch_size: task_labels
                .iter()
                .map(|t| registry.histogram("capgpu_serve_batch_size", &[("task", t)], BATCH_EDGES))
                .collect(),
            serve_p99_latency_s: task_labels
                .iter()
                .map(|t| registry.gauge("capgpu_serve_p99_latency_s", &[("task", t)]))
                .collect(),
            llm: llm.then(|| LlmHandles {
                prefill_tokens_total: task_labels
                    .iter()
                    .map(|t| registry.counter("capgpu_llm_prefill_tokens_total", &[("task", t)]))
                    .collect(),
                decode_tokens_total: task_labels
                    .iter()
                    .map(|t| registry.counter("capgpu_llm_decode_tokens_total", &[("task", t)]))
                    .collect(),
                preemptions_total: task_labels
                    .iter()
                    .map(|t| registry.counter("capgpu_llm_preemptions_total", &[("task", t)]))
                    .collect(),
                kv_used_frac: task_labels
                    .iter()
                    .map(|t| registry.gauge("capgpu_llm_kv_used_frac", &[("task", t)]))
                    .collect(),
            }),
        };
        let mut spans = SpanStack::new();
        let sp_period = spans.span("period");
        let sp_sense = spans.span("sense");
        let sp_identify = spans.span("identify");
        let sp_solve = spans.span("solve");
        let sp_actuate = spans.span("actuate");
        let sp_serve = spans.span("serve-drain");
        RunTelemetry {
            cfg,
            registry,
            journal: Journal::new(),
            spans,
            sp_period,
            sp_sense,
            sp_identify,
            sp_solve,
            sp_actuate,
            sp_serve,
            h,
            carry_pending: 0,
            prev_tier: None,
            prev_quarantine: vec![false; kinds.len()],
            prev_stale: false,
            slo_bound_active: false,
            llm_decode_dominant: vec![false; n_tasks],
            llm_kv_pressured: vec![false; n_tasks],
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Open a wall-clock scope for `phase`. No-op unless
    /// [`TelemetryConfig::trace_spans`] is set — spans are the only
    /// non-deterministic instrument, and they stay off by default.
    #[inline]
    pub fn span_enter(&mut self, phase: Phase) {
        if !self.cfg.trace_spans {
            return;
        }
        let id = match phase {
            Phase::Period => self.sp_period,
            Phase::Sense => self.sp_sense,
            Phase::Identify => self.sp_identify,
            Phase::Solve => self.sp_solve,
            Phase::Actuate => self.sp_actuate,
            Phase::ServeDrain => self.sp_serve,
        };
        self.spans.enter(id);
    }

    /// Close the innermost open scope.
    #[inline]
    pub fn span_exit(&mut self) {
        if self.cfg.trace_spans {
            self.spans.exit();
        }
    }

    /// Journals `body` at `period` and sim time `t_s`.
    fn record(&mut self, period: usize, t_s: f64, body: Body) {
        self.journal.push(Event {
            period: period as u64,
            sim_time_s: t_s,
            wall_unix_ms: None,
            body,
        });
    }

    /// Journal the start of a closed-loop run.
    pub fn begin_run(&mut self, controller: &str, setpoint: f64, num_periods: usize) {
        let body = Body::RunStart {
            controller: controller.into(),
            setpoint_w: setpoint,
            periods: num_periods as u64,
        };
        self.record(0, 0.0, body);
    }

    /// Journal the end of a run and record end-of-run aggregates:
    /// per-task p99 latencies and — when RLS tracking ran — the
    /// tracker's sample/acceptance counters.
    pub fn end_run(
        &mut self,
        period: usize,
        t_s: f64,
        p99_latency_s: &[f64],
        tracker_stats: Option<(u64, u64, u64)>,
    ) {
        for (t, &p99) in p99_latency_s.iter().enumerate() {
            if let Some(id) = self.h.serve_p99_latency_s.get(t) {
                self.registry.set(*id, p99);
            }
        }
        let body = Body::RunEnd {
            rls_samples: tracker_stats.map(|s| s.0),
            rls_pairs_accepted: tracker_stats.map(|s| s.1),
            rls_pairs_rejected: tracker_stats.map(|s| s.2),
        };
        self.record(period, t_s, body);
    }

    /// Journal a fault-schedule transition (onset or clear).
    pub fn on_fault(
        &mut self,
        period: usize,
        t_s: f64,
        spec_index: usize,
        label: &str,
        device: Option<usize>,
        onset: bool,
    ) {
        let (spec, fault, device) = (spec_index as u64, label.into(), device.map(|d| d as u64));
        let body = if onset {
            Body::FaultOnset {
                spec,
                fault,
                device,
            }
        } else {
            Body::FaultClear {
                spec,
                fault,
                device,
            }
        };
        self.record(period, t_s, body);
    }

    /// Journal an operator set-point change taking effect.
    pub fn on_setpoint_change(&mut self, period: usize, t_s: f64, from_w: f64, to_w: f64) {
        self.record(period, t_s, Body::SetpointChange { from_w, to_w });
    }

    /// Record one delta-sigma carry wrap (the modulator emitted a level
    /// other than the nearest one to pay down accumulated error).
    #[inline]
    pub fn on_carry_wrap(&mut self, device: usize) {
        if let Some(id) = self.h.carry_wraps_total.get(device) {
            self.registry.inc(*id, 1);
        }
        self.carry_pending += 1;
    }

    /// Record one simulated second of one serving engine's activity.
    #[inline]
    pub fn on_serve_second(&mut self, task: usize, stats: &ServeWindowStats, queue_len: usize) {
        let admitted = stats.arrivals.saturating_sub(stats.dropped);
        self.registry
            .inc(self.h.serve_admitted_total[task], admitted as u64);
        self.registry
            .inc(self.h.serve_dropped_total[task], stats.dropped as u64);
        self.registry.inc(
            self.h.serve_completions_total[task],
            stats.completions as u64,
        );
        self.registry
            .observe(self.h.serve_queue_depth[task], queue_len as f64);
        for &b in &stats.batch_sizes {
            self.registry
                .observe(self.h.serve_batch_size[task], b as f64);
        }
    }

    /// Record one simulated second of one LLM engine's activity:
    /// per-phase token counters, preemptions, and the KV-occupancy
    /// gauge. No-op unless the LLM instruments were registered.
    #[inline]
    pub fn on_llm_second(&mut self, task: usize, stats: &ServeWindowStats) {
        let Some(llm) = &self.h.llm else {
            return;
        };
        self.registry
            .inc(llm.prefill_tokens_total[task], stats.prefill_tokens as u64);
        self.registry
            .inc(llm.decode_tokens_total[task], stats.decode_tokens as u64);
        self.registry
            .inc(llm.preemptions_total[task], stats.preemptions as u64);
        self.registry
            .set(llm.kv_used_frac[task], stats.kv_occupancy());
    }

    /// Fold one completed control period's phase mix for one LLM task
    /// into the journal: edge-triggered `phase_transition` events when
    /// a task's serving regime flips between prefill- and
    /// decode-dominant, and `kv_pressure` events when cache occupancy
    /// crosses into or out of the eviction-risk band. Both edges carry
    /// hysteresis so a task hovering at a threshold does not flood the
    /// journal.
    pub fn on_llm_period(
        &mut self,
        period: usize,
        t_s: f64,
        task: usize,
        prefill_share: f64,
        kv_occupancy: f64,
    ) {
        if self.h.llm.is_none() {
            return;
        }
        let decode_now = if self.llm_decode_dominant[task] {
            prefill_share < 0.5
        } else {
            prefill_share < 0.3
        };
        if decode_now != self.llm_decode_dominant[task] {
            let to = if decode_now { "decode" } else { "prefill" };
            let body = Body::PhaseTransition {
                task: task as u64,
                to: to.into(),
                prefill_share,
            };
            self.record(period, t_s, body);
            self.llm_decode_dominant[task] = decode_now;
        }
        let pressured_now = if self.llm_kv_pressured[task] {
            kv_occupancy > 0.7
        } else {
            kv_occupancy >= 0.9
        };
        if pressured_now != self.llm_kv_pressured[task] {
            let body = Body::KvPressure {
                task: task as u64,
                on: pressured_now,
                kv_occupancy,
            };
            self.record(period, t_s, body);
            self.llm_kv_pressured[task] = pressured_now;
        }
    }

    /// Record a streaming-RLS refit pushed to the controller.
    pub fn on_refit(&mut self, period: usize, t_s: f64, scale: f64, r_squared: f64) {
        self.registry.inc(self.h.refits_total, 1);
        self.registry.set(self.h.model_scale, scale);
        self.record(period, t_s, Body::RlsRefit { scale, r_squared });
    }

    /// Fold one completed control period into the registry and journal.
    /// Edge-triggered events (tier changes, quarantine transitions,
    /// SLO-bound activations, meter staleness, memory-escape flips,
    /// aggregated carry wraps) are derived here by diffing against the
    /// previous period's state.
    pub fn on_period(&mut self, obs: &PeriodObservation<'_>) {
        let (period, t_s) = (obs.period, obs.t_s);
        self.registry.inc(self.h.periods_total, 1);
        self.registry.inc(self.h.seconds_total, obs.seconds as u64);
        self.registry
            .inc(self.h.meter_samples_total, obs.fresh_meter_samples as u64);
        self.registry.set(self.h.power_watts, obs.avg_power);
        self.registry.set(self.h.setpoint_watts, obs.setpoint);
        self.registry.observe(
            self.h.power_error_watts,
            (obs.avg_power - obs.setpoint).abs(),
        );
        if obs.avg_power > obs.setpoint {
            self.registry.inc(self.h.cap_overshoot_periods_total, 1);
        }
        if obs.meter_stale {
            self.registry.inc(self.h.meter_stale_periods_total, 1);
        }
        if obs.meter_stale != self.prev_stale {
            let body = Body::MeterStale {
                stale: obs.meter_stale,
                stale_periods: obs.stale_periods as u64,
            };
            self.record(period, t_s, body);
            self.prev_stale = obs.meter_stale;
        }
        if let Some(id) = self.h.tier_periods_total.get(obs.tier as usize) {
            self.registry.inc(*id, 1);
        }
        if let Some(prev) = self.prev_tier {
            if prev != obs.tier {
                self.registry.inc(self.h.tier_changes_total, 1);
                let reason = if obs.tier > prev {
                    if obs.stale_periods > 0 {
                        "stale_meter"
                    } else {
                        "health"
                    }
                } else {
                    "recovered"
                };
                let body = Body::TierChange {
                    from: prev as u64,
                    to: obs.tier as u64,
                    stale_periods: Some(obs.stale_periods as u64),
                    reason: reason.into(),
                };
                self.record(period, t_s, body);
            }
        }
        self.prev_tier = Some(obs.tier);
        if let Some(quarantined) = obs.quarantined {
            for (d, &q) in quarantined.iter().enumerate() {
                if q != self.prev_quarantine[d] {
                    self.registry.inc(self.h.quarantine_transitions_total, 1);
                    let body = Body::Quarantine {
                        device: d as u64,
                        on: q,
                    };
                    self.record(period, t_s, body);
                    self.prev_quarantine[d] = q;
                }
            }
        }
        for (d, &f) in obs.targets.iter().enumerate() {
            if let Some(id) = self.h.target_mhz.get(d) {
                self.registry.set(*id, f);
            }
        }
        if let Some(diag) = obs.diag {
            self.registry
                .observe(self.h.active_constraints, diag.active_constraints as f64);
            if diag.slo_floor_binding {
                self.registry.inc(self.h.slo_floor_binding_periods_total, 1);
            }
            if diag.floor_clamped {
                self.registry.inc(self.h.floor_clamped_periods_total, 1);
            }
            if diag.slo_floor_binding != self.slo_bound_active {
                let active = diag.slo_floor_binding;
                self.record(period, t_s, Body::SloFloorBinding { active });
                self.slo_bound_active = diag.slo_floor_binding;
            }
        }
        if self.carry_pending > 0 {
            let wraps = self.carry_pending;
            self.record(period, t_s, Body::DsCarryWraps { wraps });
            self.carry_pending = 0;
        }
    }

    /// Freeze the registry into a mergeable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The structured event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Frozen wall-clock span statistics (empty unless
    /// [`TelemetryConfig::trace_spans`] was set).
    pub fn span_summary(&self) -> SpanSummary {
        self.spans.summary()
    }

    /// Bundle the current state into a [`TelemetryReport`].
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            snapshot: self.snapshot(),
            journal: self.journal.clone(),
            spans: self.span_summary(),
        }
    }
}

/// A frozen, renderable bundle of one run's telemetry.
///
/// The snapshot and journal are deterministic (sim-clock-derived) and
/// safe to commit as goldens; the span summary is wall-clock data and
/// is rendered only by [`TelemetryReport::wall_clock_text`], which
/// callers must keep out of deterministic artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Frozen metric registry.
    pub snapshot: Snapshot,
    /// Structured event journal.
    pub journal: Journal,
    /// Wall-clock span statistics (empty when span tracing was off).
    pub spans: SpanSummary,
}

impl TelemetryReport {
    /// Human-readable deterministic sections: the metric table followed
    /// by the journal as JSON Lines. Byte-identical across reruns of a
    /// seeded scenario.
    pub fn deterministic_text(&self) -> String {
        let mut out = self.snapshot.to_report();
        if !self.journal.is_empty() {
            out.push_str("journal\n");
            for line in self.journal.to_jsonl().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// The snapshot in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.snapshot.to_prometheus_text()
    }

    /// The wall-clock span table, when spans were traced. Callers must
    /// keep this out of byte-compared artifacts.
    pub fn wall_clock_text(&self) -> Option<String> {
        if self.spans.phases.is_empty() {
            None
        } else {
            Some(self.spans.to_report())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events of `journal` whose body `keep` selects.
    fn events_where(journal: &Journal, keep: impl Fn(&Body) -> bool) -> Vec<&Event> {
        journal.events().iter().filter(|e| keep(&e.body)).collect()
    }

    fn telemetry() -> RunTelemetry {
        RunTelemetry::new(
            TelemetryConfig::deterministic(),
            &[DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Gpu],
            2,
            false,
        )
    }

    fn obs<'a>(period: usize, targets: &'a [f64], tier: u8) -> PeriodObservation<'a> {
        PeriodObservation {
            period,
            t_s: 4.0 * (period + 1) as f64,
            seconds: 4,
            fresh_meter_samples: 4,
            avg_power: 905.0,
            setpoint: 900.0,
            meter_stale: false,
            tier,
            stale_periods: 0,
            quarantined: None,
            targets,
            diag: None,
        }
    }

    #[test]
    fn period_recording_accumulates() {
        let mut tm = telemetry();
        tm.begin_run("CapGPU", 900.0, 2);
        let targets = [2000.0, 1000.0, 1000.0];
        tm.on_period(&obs(0, &targets, 0));
        tm.on_period(&obs(1, &targets, 0));
        tm.end_run(2, 8.0, &[0.1, 0.2], None);
        let snap = tm.snapshot();
        assert_eq!(snap.counter_value("capgpu_periods_total", &[]), Some(2));
        assert_eq!(snap.counter_value("capgpu_seconds_total", &[]), Some(8));
        assert_eq!(
            snap.counter_value("capgpu_cap_overshoot_periods_total", &[]),
            Some(2)
        );
        assert_eq!(
            snap.gauge_value("capgpu_target_mhz", &[("device", "gpu1")]),
            Some(1000.0)
        );
        assert_eq!(
            snap.gauge_value("capgpu_serve_p99_latency_s", &[("task", "1")]),
            Some(0.2)
        );
        assert_eq!(
            events_where(tm.journal(), |b| matches!(b, Body::RunStart { .. })).len(),
            1
        );
        assert_eq!(
            events_where(tm.journal(), |b| matches!(b, Body::RunEnd { .. })).len(),
            1
        );
    }

    #[test]
    fn tier_changes_are_edge_triggered() {
        let mut tm = telemetry();
        let targets = [2000.0, 1000.0, 1000.0];
        for (p, tier) in [(0, 0u8), (1, 1), (2, 1), (3, 0)] {
            tm.on_period(&obs(p, &targets, tier));
        }
        let snap = tm.snapshot();
        assert_eq!(
            snap.counter_value("capgpu_tier_changes_total", &[]),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("capgpu_tier_periods_total", &[("tier", "1")]),
            Some(2)
        );
        let changes: Vec<String> =
            events_where(tm.journal(), |b| matches!(b, Body::TierChange { .. }))
                .into_iter()
                .map(Event::to_json)
                .collect();
        assert_eq!(changes.len(), 2);
        assert!(changes[0].contains("\"from\":0,\"to\":1"));
        assert!(changes[1].contains("\"reason\":\"recovered\""));
    }

    #[test]
    fn spans_stay_off_unless_traced() {
        let mut tm = telemetry();
        tm.span_enter(Phase::Period);
        tm.span_exit();
        assert!(tm.report().wall_clock_text().is_none());

        let mut traced = RunTelemetry::new(
            TelemetryConfig::with_spans(),
            &[DeviceKind::Cpu, DeviceKind::Gpu],
            1,
            false,
        );
        traced.span_enter(Phase::Period);
        traced.span_enter(Phase::Solve);
        traced.span_exit();
        traced.span_exit();
        let wall = traced.report().wall_clock_text().expect("span section");
        assert!(wall.contains("solve"));
    }

    #[test]
    fn carry_wraps_aggregate_per_period() {
        let mut tm = telemetry();
        tm.on_carry_wrap(1);
        tm.on_carry_wrap(1);
        tm.on_carry_wrap(2);
        let targets = [2000.0, 1000.0, 1000.0];
        tm.on_period(&obs(0, &targets, 0));
        tm.on_period(&obs(1, &targets, 0));
        let snap = tm.snapshot();
        assert_eq!(
            snap.counter_value("capgpu_carry_wraps_total", &[("device", "gpu1")]),
            Some(2)
        );
        let wraps: Vec<&Event> =
            events_where(tm.journal(), |b| matches!(b, Body::DsCarryWraps { .. }));
        assert_eq!(wraps.len(), 1, "aggregated once, only when wraps occurred");
        assert!(wraps[0].to_json().contains("\"wraps\":3"));
    }

    #[test]
    fn llm_instruments_are_gated_and_edge_triggered() {
        // Without the flag, LLM calls are no-ops and no LLM metric rows
        // exist — this is what keeps pre-LLM goldens byte-identical.
        let mut off = telemetry();
        let stats = ServeWindowStats {
            prefill_tokens: 100,
            decode_tokens: 40,
            preemptions: 1,
            kv_budget_tokens: 1000,
            kv_used_tokens_end: 950,
            ..ServeWindowStats::default()
        };
        off.on_llm_second(0, &stats);
        off.on_llm_period(0, 4.0, 0, 0.1, 0.95);
        assert!(!off
            .report()
            .deterministic_text()
            .contains("capgpu_llm_prefill_tokens_total"));
        assert!(
            events_where(off.journal(), |b| matches!(b, Body::PhaseTransition { .. })).is_empty()
        );

        let mut tm = RunTelemetry::new(
            TelemetryConfig::deterministic(),
            &[DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Gpu],
            2,
            true,
        );
        tm.on_llm_second(1, &stats);
        tm.on_llm_second(1, &stats);
        let snap = tm.snapshot();
        assert_eq!(
            snap.counter_value("capgpu_llm_prefill_tokens_total", &[("task", "1")]),
            Some(200)
        );
        assert_eq!(
            snap.gauge_value("capgpu_llm_kv_used_frac", &[("task", "1")]),
            Some(0.95)
        );
        // Phase and KV edges fire once per crossing, with hysteresis:
        // share 0.4 does not re-enter prefill, 0.6 does; occupancy 0.8
        // does not release pressure, 0.6 does.
        for (p, share, kv) in [(0, 0.9, 0.2), (1, 0.1, 0.95), (2, 0.4, 0.8), (3, 0.6, 0.6)] {
            tm.on_llm_period(p, 4.0 * (p + 1) as f64, 0, share, kv);
        }
        assert_eq!(
            events_where(tm.journal(), |b| matches!(b, Body::PhaseTransition { .. })).len(),
            2
        );
        assert_eq!(
            events_where(tm.journal(), |b| matches!(b, Body::KvPressure { .. })).len(),
            2
        );
    }

    #[test]
    fn report_texts_are_deterministic_and_separated() {
        let mut tm = telemetry();
        let targets = [2000.0, 1000.0, 1000.0];
        tm.on_period(&obs(0, &targets, 0));
        let report = tm.report();
        let text = report.deterministic_text();
        assert!(text.contains("capgpu_periods_total"));
        assert_eq!(text, tm.report().deterministic_text());
        assert!(report
            .prometheus_text()
            .contains("# TYPE capgpu_periods_total counter"));
        assert!(report.wall_clock_text().is_none());
    }
}
