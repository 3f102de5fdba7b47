//! `capgpud` — the live-serving power-capping control daemon.
//!
//! This module lifts the experiment runner's control loop out of the
//! experiment harness and onto the [`PowerBackend`] seam, so the same
//! identify → MPC → supervisor ladder that reproduces the paper's
//! figures can regulate a *live* server: the daemon senses and actuates
//! exclusively through a boxed backend, never through the simulator
//! directly. Against [`SimBackend`] every run is byte-deterministic
//! (the dry-run golden in `results/capgpud.txt` pins this); against
//! [`NvmlBackend`](capgpu_backend::NvmlBackend) /
//! [`CpufreqBackend`](capgpu_backend::CpufreqBackend) the identical
//! loop drives real clocks.
//!
//! Pieces:
//!
//! * [`DaemonConfig`] — operator-facing TOML configuration (parsed by a
//!   dependency-free subset parser), hot-reloadable set-point.
//! * [`Daemon`] — the control loop: excitation-plan identification,
//!   per-period MPC with throughput weights, streaming RLS warm-start
//!   refits, and the supervisor failover ladder
//!   (primary → safe fixed-step → park-at-floors).
//! * [`MetricsServer`] — a dependency-free HTTP listener exposing
//!   Prometheus text over `GET /metrics`.
//! * [`ReloadSignal`] / [`ConfigWatcher`] — SIGHUP and config-mtime
//!   triggers for set-point hot reload.
//!
//! Every journal event is stamped with the backend's wall clock when it
//! offers one ([`PowerBackend::wall_clock_unix_ms`]); deterministic
//! backends return `None`, which keeps sim-mode JSONL byte-identical
//! across reruns and safe to golden-check in CI.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use capgpu_backend::{MockBackend, PowerBackend, SimBackend};
use capgpu_control::model::LinearPowerModel;
use capgpu_control::sysid::{ExcitationPlan, ScaledModelTracker, SystemIdentifier};
use capgpu_obs::analyzer::{AnalyzerConfig, HealthAnalyzer, PeriodSample, DETECTORS};
use capgpu_obs::replay::{format_targets, ReplayState};
use capgpu_obs::rotate::{JournalWriter, RotationConfig};
use capgpu_sim::{presets, ServerBuilder};
use capgpu_telemetry::journal::{Event, Journal};
use capgpu_telemetry::registry::{CounterId, GaugeId, Registry, Snapshot};
use capgpu_workload::monitor::{normalized_throughputs, ThroughputMonitor};

use crate::controllers::{
    CapGpuController, ControlInput, DeviceLayout, PowerController, SafeFixedStepController,
};
use crate::runner::SCALE_PUSH_DEADBAND;
use crate::supervisor::{HealthSample, Supervisor, SupervisorConfig, SupervisorTier};
use crate::weights::WeightAssigner;
use crate::{CapGpuError, Result};

// ---------------------------------------------------------------------
// Minimal TOML subset parser
// ---------------------------------------------------------------------

/// A parsed TOML value (subset: strings, integers, floats, booleans).
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
        }
    }
}

/// A flat `section.key → value` document. Supports `[section]` headers,
/// `key = value` pairs, `#` comments, quoted strings with `\"`/`\\`/`\n`
/// escapes, integers, floats, and booleans — the subset a daemon config
/// needs, with no external dependency. Later duplicates win, so a
/// snippet appended to a config overrides it.
#[derive(Debug, Default)]
struct TomlDoc {
    entries: Vec<(String, TomlValue)>,
}

impl TomlDoc {
    fn parse(src: &str) -> std::result::Result<Self, String> {
        let mut doc = TomlDoc::default();
        let mut section = String::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let n = lineno + 1;
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {n}: unterminated section header"))?
                    .trim();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return Err(format!("line {n}: bad section name `{name}`"));
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {n}: expected `key = value`"))?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {n}: bad key `{key}`"));
            }
            let full = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            let value = parse_value(value.trim()).map_err(|e| format!("line {n}: {e}"))?;
            doc.entries.push((full, value));
        }
        Ok(doc)
    }

    /// Last-wins lookup.
    fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    fn str_opt(&self, key: &str) -> std::result::Result<Option<String>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Str(s)) => Ok(Some(s.clone())),
            Some(v) => Err(format!("{key}: expected string, got {}", v.type_name())),
        }
    }

    fn f64_opt(&self, key: &str) -> std::result::Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Float(v)) => Ok(Some(*v)),
            Some(TomlValue::Int(v)) => Ok(Some(*v as f64)),
            Some(v) => Err(format!("{key}: expected number, got {}", v.type_name())),
        }
    }

    fn u64_opt(&self, key: &str) -> std::result::Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Int(v)) if *v >= 0 => Ok(Some(*v as u64)),
            Some(TomlValue::Int(v)) => Err(format!("{key}: must be >= 0, got {v}")),
            Some(v) => Err(format!("{key}: expected integer, got {}", v.type_name())),
        }
    }

    fn bool_opt(&self, key: &str) -> std::result::Result<Option<bool>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Bool(v)) => Ok(Some(*v)),
            Some(v) => Err(format!("{key}: expected boolean, got {}", v.type_name())),
        }
    }
}

/// Strips a `#` comment, honoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> std::result::Result<TomlValue, String> {
    if v.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(rest) = v.strip_prefix('"') {
        let body = rest
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                return Err("unescaped quote inside string".to_string());
            }
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("bad string escape `\\{}`", other.unwrap_or(' '))),
            }
        }
        return Ok(TomlValue::Str(out));
    }
    match v {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let plain = v.replace('_', "");
    if !v.contains('.') && !v.contains('e') && !v.contains('E') {
        if let Ok(i) = plain.parse::<i64>() {
            return Ok(TomlValue::Int(i));
        }
    }
    if let Ok(f) = plain.parse::<f64>() {
        if f.is_finite() {
            return Ok(TomlValue::Float(f));
        }
    }
    Err(format!("unparseable value `{v}`"))
}

// ---------------------------------------------------------------------
// DaemonConfig
// ---------------------------------------------------------------------

/// Operator-facing daemon configuration.
///
/// Parsed from a TOML subset (see [`DaemonConfig::from_toml_str`]);
/// every field has a sensible default, so an empty config is valid.
/// Only `setpoint_watts` is hot-reloadable at runtime (via
/// [`Daemon::apply_reload`]) — everything else requires a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Which backend to drive: `"sim"` or `"mock"` (live backends are
    /// constructed by the operator and passed to [`Daemon::new`]).
    pub backend: String,
    /// Server power set-point (W).
    pub setpoint_watts: f64,
    /// Control period (s) — sense/actuate cadence, the paper's `T`.
    pub control_period_s: u64,
    /// TCP port for the Prometheus listener (`0` = ephemeral); `None`
    /// disables the listener.
    pub metrics_port: Option<u16>,
    /// Where to write the JSONL journal on exit; `None` = stdout only.
    pub journal_path: Option<PathBuf>,
    /// Directory for the rotating durable journal (crash-recovery
    /// replay source); `None` disables durable journaling.
    pub journal_dir: Option<PathBuf>,
    /// Rotating-journal segment size bound (KiB).
    pub journal_max_segment_kib: u64,
    /// Rotating-journal segment age bound on the record clock (s).
    pub journal_max_segment_age_s: f64,
    /// Rotating-journal retention bound (segments).
    pub journal_retain_segments: usize,
    /// Excitation steps per device during identification.
    pub sysid_steps_per_device: usize,
    /// Hold point for non-excited devices, as a fraction of each
    /// device's frequency range.
    pub sysid_hold_fraction: f64,
    /// RLS forgetting factor for streaming refits; `None` disables
    /// continuous tracking.
    pub rls_forgetting: Option<f64>,
    /// Simulated-testbed seed (sim backend only).
    pub sim_seed: u64,
    /// GPU count for the built-in sim/mock testbeds.
    pub sim_gpus: usize,
    /// Constant per-device utilization staged into the sim plant.
    pub sim_utilization: f64,
    /// Supervisor failover thresholds.
    pub supervisor: SupervisorConfig,
}

/// Every key the config parser accepts; anything else is a typo and is
/// rejected loudly rather than silently ignored.
const KNOWN_KEYS: &[&str] = &[
    "daemon.backend",
    "daemon.setpoint_watts",
    "daemon.control_period_s",
    "daemon.metrics_port",
    "daemon.journal_path",
    "journal.dir",
    "journal.max_segment_kib",
    "journal.max_segment_age_s",
    "journal.retain_segments",
    "identify.steps_per_device",
    "identify.hold_fraction",
    "identify.rls",
    "identify.rls_forgetting",
    "sim.seed",
    "sim.gpus",
    "sim.utilization",
    "supervisor.stale_fallback_periods",
    "supervisor.stale_park_periods",
    "supervisor.authority_window",
    "supervisor.authority_min_ratio",
    "supervisor.authority_min_excitation_w",
    "supervisor.recovery_periods",
    "supervisor.psu_margin_watts",
];

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig::default_sim()
    }
}

impl DaemonConfig {
    /// Defaults matching the paper's testbed: a 2-GPU sim server at a
    /// 900 W set-point with a 4 s control period and RLS tracking on.
    pub fn default_sim() -> Self {
        DaemonConfig {
            backend: "sim".to_string(),
            setpoint_watts: 900.0,
            control_period_s: 4,
            metrics_port: None,
            journal_path: None,
            journal_dir: None,
            journal_max_segment_kib: 64,
            journal_max_segment_age_s: 3600.0,
            journal_retain_segments: 8,
            sysid_steps_per_device: 6,
            sysid_hold_fraction: 0.5,
            rls_forgetting: Some(0.98),
            sim_seed: 42,
            sim_gpus: 2,
            sim_utilization: 0.85,
            supervisor: SupervisorConfig::default(),
        }
    }

    /// Parses a config from TOML text, starting from
    /// [`DaemonConfig::default_sim`] and overriding per key.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on syntax errors, unknown keys, type
    /// mismatches, or out-of-range values.
    pub fn from_toml_str(src: &str) -> Result<Self> {
        let doc = TomlDoc::parse(src).map_err(|e| bad(format!("config: {e}")))?;
        for key in doc.keys() {
            if !KNOWN_KEYS.contains(&key) {
                return Err(bad(format!("config: unknown key `{key}`")));
            }
        }
        let mut cfg = DaemonConfig::default_sim();
        let e = |m: String| bad(format!("config: {m}"));
        if let Some(v) = doc.str_opt("daemon.backend").map_err(e)? {
            cfg.backend = v;
        }
        if let Some(v) = doc.f64_opt("daemon.setpoint_watts").map_err(e)? {
            cfg.setpoint_watts = v;
        }
        if let Some(v) = doc.u64_opt("daemon.control_period_s").map_err(e)? {
            cfg.control_period_s = v;
        }
        if let Some(v) = doc.u64_opt("daemon.metrics_port").map_err(e)? {
            if v > u16::MAX as u64 {
                return Err(bad(format!("config: daemon.metrics_port {v} out of range")));
            }
            cfg.metrics_port = Some(v as u16);
        }
        if let Some(v) = doc.str_opt("daemon.journal_path").map_err(e)? {
            cfg.journal_path = Some(PathBuf::from(v));
        }
        if let Some(v) = doc.str_opt("journal.dir").map_err(e)? {
            cfg.journal_dir = Some(PathBuf::from(v));
        }
        if let Some(v) = doc.u64_opt("journal.max_segment_kib").map_err(e)? {
            cfg.journal_max_segment_kib = v;
        }
        if let Some(v) = doc.f64_opt("journal.max_segment_age_s").map_err(e)? {
            cfg.journal_max_segment_age_s = v;
        }
        if let Some(v) = doc.u64_opt("journal.retain_segments").map_err(e)? {
            cfg.journal_retain_segments = v as usize;
        }
        if let Some(v) = doc.u64_opt("identify.steps_per_device").map_err(e)? {
            cfg.sysid_steps_per_device = v as usize;
        }
        if let Some(v) = doc.f64_opt("identify.hold_fraction").map_err(e)? {
            cfg.sysid_hold_fraction = v;
        }
        if let Some(v) = doc.f64_opt("identify.rls_forgetting").map_err(e)? {
            cfg.rls_forgetting = Some(v);
        }
        if let Some(false) = doc.bool_opt("identify.rls").map_err(e)? {
            cfg.rls_forgetting = None;
        }
        if let Some(v) = doc.u64_opt("sim.seed").map_err(e)? {
            cfg.sim_seed = v;
        }
        if let Some(v) = doc.u64_opt("sim.gpus").map_err(e)? {
            cfg.sim_gpus = v as usize;
        }
        if let Some(v) = doc.f64_opt("sim.utilization").map_err(e)? {
            cfg.sim_utilization = v;
        }
        let sup = &mut cfg.supervisor;
        if let Some(v) = doc
            .u64_opt("supervisor.stale_fallback_periods")
            .map_err(e)?
        {
            sup.stale_fallback_periods = v as usize;
        }
        if let Some(v) = doc.u64_opt("supervisor.stale_park_periods").map_err(e)? {
            sup.stale_park_periods = v as usize;
        }
        if let Some(v) = doc.u64_opt("supervisor.authority_window").map_err(e)? {
            sup.authority_window = v as usize;
        }
        if let Some(v) = doc.f64_opt("supervisor.authority_min_ratio").map_err(e)? {
            sup.authority_min_ratio = v;
        }
        if let Some(v) = doc
            .f64_opt("supervisor.authority_min_excitation_w")
            .map_err(e)?
        {
            sup.authority_min_excitation_w = v;
        }
        if let Some(v) = doc.u64_opt("supervisor.recovery_periods").map_err(e)? {
            sup.recovery_periods = v as usize;
        }
        if let Some(v) = doc.f64_opt("supervisor.psu_margin_watts").map_err(e)? {
            sup.psu_margin_watts = v;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Reads and parses a config file.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on I/O or parse failure.
    pub fn load(path: &Path) -> Result<Self> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| bad(format!("config {}: {e}", path.display())))?;
        Self::from_toml_str(&src)
    }

    /// Validates field ranges.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] with a description.
    pub fn validate(&self) -> Result<()> {
        if !matches!(self.backend.as_str(), "sim" | "mock") {
            return Err(bad(format!(
                "daemon.backend must be \"sim\" or \"mock\", got \"{}\"",
                self.backend
            )));
        }
        if !(self.setpoint_watts.is_finite() && self.setpoint_watts > 0.0) {
            return Err(bad("daemon.setpoint_watts must be finite and > 0".into()));
        }
        if self.control_period_s == 0 {
            return Err(bad("daemon.control_period_s must be >= 1".into()));
        }
        if self.sysid_steps_per_device < 2 {
            return Err(bad("identify.steps_per_device must be >= 2".into()));
        }
        if !(self.sysid_hold_fraction > 0.0 && self.sysid_hold_fraction < 1.0) {
            return Err(bad("identify.hold_fraction must be in (0, 1)".into()));
        }
        if let Some(f) = self.rls_forgetting {
            if !(f > 0.0 && f <= 1.0) {
                return Err(bad("identify.rls_forgetting must be in (0, 1]".into()));
            }
        }
        if self.sim_gpus == 0 {
            return Err(bad("sim.gpus must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.sim_utilization) {
            return Err(bad("sim.utilization must be in [0, 1]".into()));
        }
        self.rotation_config()
            .validate()
            .map_err(|e| bad(format!("config: {e}")))?;
        self.supervisor.validate()
    }

    /// The rotating-journal policy these settings describe.
    pub fn rotation_config(&self) -> RotationConfig {
        RotationConfig {
            max_segment_bytes: self.journal_max_segment_kib.saturating_mul(1024),
            max_segment_age_s: self.journal_max_segment_age_s,
            retain_segments: self.journal_retain_segments,
        }
    }

    /// Builds the configured built-in backend (`"sim"` or `"mock"`).
    /// Live backends (NVML, cpufreq) are probed by the operator and
    /// passed to [`Daemon::new`] directly.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on an unknown backend name; backend
    /// construction errors otherwise.
    pub fn build_backend(&self) -> Result<Box<dyn PowerBackend>> {
        match self.backend.as_str() {
            "sim" => {
                let mut builder =
                    ServerBuilder::new(self.sim_seed).add_device(presets::xeon_gold_5215());
                for _ in 0..self.sim_gpus {
                    builder = builder.add_device(presets::tesla_v100());
                }
                let server = builder.build()?;
                let mut backend = SimBackend::new(server);
                // The simulated plant needs a load; a live plant brings
                // its own. Staged once — utilizations persist across
                // `advance` calls.
                let utils = vec![self.sim_utilization; backend.num_devices()];
                backend.stage_utilizations(&utils)?;
                Ok(Box::new(backend))
            }
            "mock" => Ok(Box::new(MockBackend::testbed(self.sim_gpus)?)),
            other => Err(bad(format!("no built-in backend named \"{other}\""))),
        }
    }
}

fn bad(m: String) -> CapGpuError {
    CapGpuError::BadConfig(m)
}

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

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
    primary: Option<CapGpuController>,
    fallback: Option<SafeFixedStepController>,
    supervisor: Option<Supervisor>,
    tracker: Option<ScaledModelTracker>,
    /// Gain scale last pushed to the primary controller.
    pushed_scale: f64,
    monitors: Vec<ThroughputMonitor>,
    journal: Journal,
    /// Rotating durable journal (crash-recovery replay source), when
    /// `journal_dir` is configured.
    writer: Option<JournalWriter>,
    /// Streaming control-loop health detectors.
    analyzer: HealthAnalyzer,
    /// Last published quarantine flags (for edge-triggered journaling).
    prev_quarantined: Vec<bool>,
    registry: Registry,
    metrics: Metrics,
    period: u64,
    sim_time_s: f64,
    /// Targets currently in force (MHz).
    targets: Vec<f64>,
    /// Effective frequencies after the last actuation (MHz).
    applied: Vec<f64>,
    last_avg_watts: f64,
    last_tier: SupervisorTier,
    setpoint_watts: f64,
    // Scratch buffers (the period loop is allocation-light).
    throughput_buf: Vec<f64>,
    device_power_buf: Vec<f64>,
    ejected_buf: Vec<bool>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("backend", &self.backend.name())
            .field("period", &self.period)
            .field("setpoint_watts", &self.setpoint_watts)
            .field("tier", &self.last_tier)
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
        let analyzer = HealthAnalyzer::new(AnalyzerConfig::default())
            .map_err(|e| bad(format!("analyzer: {e}")))?;
        Ok(Daemon {
            cfg,
            backend,
            layout,
            primary: None,
            fallback: None,
            supervisor: None,
            tracker: None,
            pushed_scale: 1.0,
            monitors: (0..n).map(|_| ThroughputMonitor::new(0.5)).collect(),
            journal: Journal::new(),
            writer,
            analyzer,
            prev_quarantined: vec![false; n],
            registry,
            metrics,
            period: 0,
            sim_time_s: 0.0,
            targets,
            applied: Vec::with_capacity(n),
            last_avg_watts: 0.0,
            last_tier: SupervisorTier::Primary,
            setpoint_watts,
            throughput_buf: Vec::with_capacity(n),
            device_power_buf: vec![0.0; n],
            ejected_buf: vec![false; n],
        })
    }

    /// Journals an event: always in memory, and appended (flushed) to
    /// the rotating durable journal when one is configured. Disk
    /// failures are counted, not fatal — losing a journal line must
    /// never stop actuation.
    fn record(&mut self, event: Event) {
        if let Some(w) = self.writer.as_mut() {
            if w.append(&event.to_json(), event.sim_time_s).is_err() {
                self.registry.inc(self.metrics.journal_errors, 1);
            }
        }
        self.journal.push(event);
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
        let frac = self.cfg.sysid_hold_fraction;
        let hold: Vec<f64> = self
            .layout
            .f_min
            .iter()
            .zip(self.layout.f_max.iter())
            .map(|(lo, hi)| lo + frac * (hi - lo))
            .collect();
        let plan = ExcitationPlan::new(
            self.layout.f_min.clone(),
            self.layout.f_max.clone(),
            hold,
            self.cfg.sysid_steps_per_device,
        )
        .map_err(CapGpuError::Control)?;
        let mut ident = SystemIdentifier::new(self.layout.len());
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for point in plan.points() {
            self.backend.set_frequencies(&point)?;
            self.backend.effective_frequencies_into(&mut self.applied)?;
            let mut power_sum = 0.0;
            let mut samples = 0u32;
            for _ in 0..self.cfg.control_period_s {
                self.sim_time_s += 1.0;
                if let Some(p) = self.backend.advance(1.0)? {
                    power_sum += p;
                    samples += 1;
                }
            }
            if samples > 0 {
                let p_mean = power_sum / f64::from(samples);
                ident.record(&self.applied, p_mean);
                rows.push((self.applied.clone(), p_mean));
            }
        }
        let fitted = ident.fit().map_err(CapGpuError::Control)?;
        let model = fitted.model;
        let gains = model.gains().to_vec();
        self.primary = Some(CapGpuController::new(
            &self.layout,
            model.clone(),
            WeightAssigner::default(),
        )?);
        self.fallback = Some(self.build_fallback(&model));
        self.supervisor = Some(Supervisor::new(
            self.cfg.supervisor,
            gains,
            self.layout.len(),
        )?);
        if let Some(forgetting) = self.cfg.rls_forgetting {
            let mut tracker =
                ScaledModelTracker::new(model.clone(), forgetting).map_err(CapGpuError::Control)?;
            for (row, p_mean) in &rows {
                tracker.record(row, *p_mean);
            }
            self.tracker = Some(tracker);
        }
        self.pushed_scale = 1.0;
        self.targets = self.applied.clone();
        // Per-device base gains, journaled individually so
        // crash-recovery replay can rebuild the exact model (field keys
        // are static; per-device data gets per-device events).
        for d in 0..self.layout.len() {
            self.record(
                Event::new(self.period, self.sim_time_s, "model_gain")
                    .wall_ms(self.backend.wall_clock_unix_ms())
                    .u64("device", d as u64)
                    .f64("w_per_mhz", model.gains()[d]),
            );
        }
        self.record(
            Event::new(self.period, self.sim_time_s, "identified")
                .wall_ms(self.backend.wall_clock_unix_ms())
                .u64("points", plan.len() as u64)
                .f64("offset_w", model.offset())
                .f64("r_squared", fitted.r_squared),
        );
        Ok(())
    }

    /// Safe fixed-step fallback (x1) with the margin `model` implies.
    fn build_fallback(&self, model: &LinearPowerModel) -> SafeFixedStepController {
        SafeFixedStepController::with_model_margin(
            self.layout.clone(),
            model.gains(),
            1,
            self.backend.meter_noise_std(),
        )
    }

    /// Executes one control period: advance the plant, sense, consult
    /// the supervisor, run the acting controller, actuate.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] before [`Daemon::identify`];
    /// backend/controller errors propagate.
    pub fn step_period(&mut self) -> Result<PeriodReport> {
        if self.supervisor.is_none() {
            return Err(bad("daemon: step_period before identify".into()));
        }
        // -- sense: advance one period, one second at a time ----------
        let mut fresh = 0usize;
        for _ in 0..self.cfg.control_period_s {
            self.sim_time_s += 1.0;
            if self.backend.advance(1.0)?.is_some() {
                fresh += 1;
            }
        }
        let avg = self
            .backend
            .average_power(self.cfg.control_period_s as usize)
            .unwrap_or(self.last_avg_watts);
        self.last_avg_watts = avg;
        if fresh > 0 {
            if let Some(tracker) = self.tracker.as_mut() {
                tracker.record(&self.applied, avg);
            }
        }
        // -- supervise ------------------------------------------------
        for (i, e) in self.ejected_buf.iter_mut().enumerate() {
            *e = self.backend.is_ejected(i);
        }
        let directive = {
            let obs = HealthSample {
                fresh_samples: fresh,
                meter_age_s: self.backend.seconds_since_sample(),
                avg_power: avg,
                setpoint: self.setpoint_watts,
                psu_limit: self.backend.psu_limit(),
                applied_mean: &self.applied,
                ejected: &self.ejected_buf,
            };
            self.supervisor.as_mut().expect("checked above").step(&obs)
        };
        if directive.tier != self.last_tier {
            let reason = if directive.stale_periods > 0 {
                "stale_meter"
            } else if directive.authority_lost {
                "authority_lost"
            } else {
                "recovered"
            };
            self.record(
                Event::new(self.period, self.sim_time_s, "tier_change")
                    .wall_ms(self.backend.wall_clock_unix_ms())
                    .u64("from", self.last_tier.as_u8() as u64)
                    .u64("to", directive.tier.as_u8() as u64)
                    .str("reason", reason),
            );
            self.registry.inc(self.metrics.tier_changes, 1);
            self.last_tier = directive.tier;
        }
        // Quarantine edges (enter/leave), journaled so replay can
        // re-derive the quarantine set. Allocation-free when nothing
        // changed (the common case).
        let mut q_edges: Vec<(usize, bool)> = Vec::new();
        {
            let q = self
                .supervisor
                .as_ref()
                .expect("checked above")
                .quarantined();
            for (d, (&now, &was)) in q.iter().zip(self.prev_quarantined.iter()).enumerate() {
                if now != was {
                    q_edges.push((d, now));
                }
            }
        }
        for (d, on) in q_edges {
            self.prev_quarantined[d] = on;
            self.record(
                Event::new(self.period, self.sim_time_s, "quarantine")
                    .wall_ms(self.backend.wall_clock_unix_ms())
                    .u64("device", d as u64)
                    .bool("on", on),
            );
        }
        // -- observe throughput and per-device power ------------------
        let caps = self.backend.capabilities();
        let normalized: Vec<f64> = if caps.throughput {
            self.backend.throughput_into(&mut self.throughput_buf)?;
            for (m, t) in self.monitors.iter_mut().zip(self.throughput_buf.iter()) {
                m.record(*t);
            }
            normalized_throughputs(&self.monitors)
        } else {
            // No throughput signal: neutral weights, every device is
            // equally expensive to slow down.
            vec![1.0; self.layout.len()]
        };
        if caps.per_device_power {
            self.backend
                .per_device_power_into(&mut self.device_power_buf)?;
        } else {
            self.device_power_buf.iter_mut().for_each(|p| *p = 0.0);
        }
        // -- control --------------------------------------------------
        let input = ControlInput {
            measured_power: avg,
            setpoint: directive.effective_setpoint,
            current_targets: &self.targets,
            normalized_throughput: &normalized,
            device_power: &self.device_power_buf,
            floors: &self.layout.f_min,
            phase_mix: None,
        };
        let targets = match directive.tier {
            SupervisorTier::Primary => self
                .primary
                .as_mut()
                .expect("identify built the primary")
                .control(&input)?,
            SupervisorTier::SafeFallback => self
                .fallback
                .as_mut()
                .expect("identify built the fallback")
                .control(&input)?,
            SupervisorTier::Park => self.layout.f_min.clone(),
        };
        // Summed commanded move and bound saturation, for the journal
        // and the oscillation/saturation detectors.
        let delta_f_mhz: f64 = targets
            .iter()
            .zip(self.targets.iter())
            .map(|(n, o)| n - o)
            .sum();
        let saturated = targets
            .iter()
            .zip(self.layout.f_min.iter().zip(self.layout.f_max.iter()))
            .any(|(t, (lo, hi))| (t - lo).abs() < 1e-9 || (t - hi).abs() < 1e-9);
        self.backend.set_frequencies(&targets)?;
        self.backend.effective_frequencies_into(&mut self.applied)?;
        self.targets = targets;
        // -- streaming refit (primary only: the fallback and park are
        //    model-free by design) ------------------------------------
        if fresh > 0 && directive.tier == SupervisorTier::Primary {
            if let Some(tracker) = self.tracker.as_ref() {
                if let Ok((model, scale)) = tracker.fit() {
                    if (scale - self.pushed_scale).abs() > SCALE_PUSH_DEADBAND * self.pushed_scale {
                        self.primary
                            .as_mut()
                            .expect("identify built the primary")
                            .set_power_model(&model)?;
                        self.pushed_scale = scale;
                        self.registry.inc(self.metrics.refits, 1);
                        // scale + offset pin the pushed model exactly
                        // (gains = journaled base gains × scale), which
                        // is what makes crash-recovery replay bit-exact.
                        let ev = Event::new(self.period, self.sim_time_s, "refit")
                            .wall_ms(self.backend.wall_clock_unix_ms())
                            .f64("scale", scale)
                            .f64("offset_w", model.offset());
                        self.record(ev);
                    }
                }
            }
        }
        // -- journal + metrics ----------------------------------------
        let targets_str = format_targets(&self.targets);
        self.record(
            Event::new(self.period, self.sim_time_s, "period")
                .wall_ms(self.backend.wall_clock_unix_ms())
                .u64("tier", directive.tier.as_u8() as u64)
                .f64("watts", avg)
                .f64("setpoint", directive.effective_setpoint)
                .u64("stale", directive.stale_periods as u64)
                .f64("delta_f_mhz", delta_f_mhz)
                .bool("saturated", saturated)
                .str("targets", &targets_str),
        );
        // -- online health analyzer -----------------------------------
        let sample = PeriodSample {
            power_w: avg,
            cap_w: directive.effective_setpoint,
            delta_f_mhz,
            meter_stale: fresh == 0,
            saturated,
            slo_miss_frac: 0.0,
        };
        let edges = self.analyzer.observe(&sample);
        for e in &edges {
            self.record(
                Event::new(self.period, self.sim_time_s, "health")
                    .wall_ms(self.backend.wall_clock_unix_ms())
                    .str("detector", e.detector)
                    .str("from", e.from.label())
                    .str("to", e.to.label()),
            );
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

    /// Applies a hot reload: only the set-point changes at runtime;
    /// every other difference is reported as requiring a restart.
    ///
    /// Returns `true` when anything was applied.
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
        self.record(
            Event::new(self.period, self.sim_time_s, "setpoint_change")
                .wall_ms(self.backend.wall_clock_unix_ms())
                .f64("from_w", old)
                .f64("to_w", watts),
        );
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
    /// deterministic backends).
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
    /// plant-side hooks (fault injection in tests and smoke runs).
    pub fn backend_mut(&mut self) -> &mut dyn PowerBackend {
        self.backend.as_mut()
    }

    /// Current supervisor tier.
    pub fn tier(&self) -> SupervisorTier {
        self.last_tier
    }

    /// JSON body for the `/healthz` endpoint: supervisor tier, worst
    /// analyzer verdict, periods observed, and per-detector verdicts.
    pub fn health_json(&self) -> String {
        let mut out = format!(
            "{{\"tier\":{},\"overall\":\"{}\",\"periods\":{},\"detectors\":{{",
            self.last_tier.as_u8(),
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
    /// dead daemon's last commanded targets, and continues its
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
        let model = LinearPowerModel::new(gains.clone(), offset).map_err(CapGpuError::Control)?;
        self.primary = Some(CapGpuController::new(
            &self.layout,
            model.clone(),
            WeightAssigner::default(),
        )?);
        self.fallback = Some(self.build_fallback(&model));
        let mut supervisor = Supervisor::new(self.cfg.supervisor, gains, self.layout.len())?;
        let tier = SupervisorTier::from_u8(state.tier_or_primary() as u8);
        supervisor.restore(tier, &state.quarantined);
        self.supervisor = Some(supervisor);
        self.last_tier = tier;
        for (d, q) in self.prev_quarantined.iter_mut().enumerate() {
            *q = state.quarantined.contains(&d);
        }
        if let Some(forgetting) = self.cfg.rls_forgetting {
            // Tracker re-anchored at the recovered model: its scale is
            // now relative to the *recovered* gains, so push deadband
            // restarts from 1.
            self.tracker =
                Some(ScaledModelTracker::new(model, forgetting).map_err(CapGpuError::Control)?);
        }
        self.pushed_scale = 1.0;
        if let Some(cap) = state.cap_w {
            self.setpoint_watts = cap;
        }
        if state.last_targets_mhz.len() == self.layout.len() {
            self.backend.set_frequencies(&state.last_targets_mhz)?;
            self.backend.effective_frequencies_into(&mut self.applied)?;
            self.targets = state.last_targets_mhz.clone();
        }
        self.period = state.last_period.map_or(0, |p| p + 1);
        self.sim_time_s = state.last_t_s.unwrap_or(0.0);
        let replayed: u64 = state.kind_counts.iter().map(|(_, n)| n).sum();
        self.record(
            Event::new(self.period, self.sim_time_s, "recovered")
                .wall_ms(self.backend.wall_clock_unix_ms())
                .u64("tier", u64::from(tier.as_u8()))
                .u64("records", replayed),
        );
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

// ---------------------------------------------------------------------
// MetricsServer
// ---------------------------------------------------------------------

/// A dependency-free Prometheus exposition endpoint: a background
/// thread serving the most recently [`published`](MetricsServer::publish)
/// text on `GET /metrics` (and `/`), plus the most recent
/// [`publish_health`](MetricsServer::publish_health) JSON on
/// `GET /healthz`. Dropping the server stops the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    body: Arc<Mutex<String>>,
    health: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] when the bind fails.
    pub fn bind(port: u16) -> Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| bad(format!("metrics listener bind: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| bad(format!("metrics listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| bad(format!("metrics listener: {e}")))?;
        let body = Arc::new(Mutex::new(String::new()));
        let health = Arc::new(Mutex::new(String::from("{}")));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let body = Arc::clone(&body);
            let health = Arc::clone(&health);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_loop(&listener, &body, &health, &stop))
        };
        Ok(MetricsServer {
            addr,
            body,
            health,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the text served on the next scrape.
    pub fn publish(&self, text: &str) {
        if let Ok(mut b) = self.body.lock() {
            b.clear();
            b.push_str(text);
        }
    }

    /// Replaces the JSON served on the next `GET /healthz` (see
    /// [`Daemon::health_json`]).
    pub fn publish_health(&self, json: &str) {
        if let Ok(mut h) = self.health.lock() {
            h.clear();
            h.push_str(json);
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_loop(
    listener: &TcpListener,
    body: &Arc<Mutex<String>>,
    health: &Arc<Mutex<String>>,
    stop: &Arc<AtomicBool>,
) {
    use std::io::{Read as _, Write as _};
    const METRICS_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
                let mut req = [0u8; 1024];
                let n = stream.read(&mut req).unwrap_or(0);
                let head = String::from_utf8_lossy(&req[..n]);
                let path = head.split_whitespace().nth(1).unwrap_or("/");
                let (status, content_type, text) = if path == "/metrics" || path == "/" {
                    let text = body.lock().map(|b| b.clone()).unwrap_or_default();
                    ("200 OK", METRICS_TYPE, text)
                } else if path == "/healthz" {
                    let text = health.lock().map(|h| h.clone()).unwrap_or_default();
                    ("200 OK", "application/json", text)
                } else {
                    ("404 Not Found", METRICS_TYPE, String::from("not found\n"))
                };
                let response = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{text}",
                    text.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
}

// ---------------------------------------------------------------------
// Reload triggers
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    extern "C" fn handler(_sig: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub const SIGHUP: i32 = 1;

    pub fn install() {
        // Only an async-signal-safe atomic store happens in the handler.
        unsafe {
            signal(SIGHUP, handler as extern "C" fn(i32) as usize);
        }
    }

    pub fn take() -> bool {
        FLAG.swap(false, Ordering::SeqCst)
    }
}

/// SIGHUP-driven reload trigger (the conventional daemon reload
/// signal). A no-op stub on non-Unix targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReloadSignal;

impl ReloadSignal {
    /// Installs the SIGHUP handler. Idempotent.
    pub fn install() -> Self {
        #[cfg(unix)]
        sighup::install();
        ReloadSignal
    }

    /// Consumes a pending reload request, if one arrived since the
    /// last call.
    pub fn take(&self) -> bool {
        #[cfg(unix)]
        {
            sighup::take()
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

/// Polls a config file's mtime + length + inode fingerprint;
/// `changed()` is true once per observed modification. The inode
/// component catches the atomic rename-over-write deployment idiom
/// (`write tmp; rename tmp config`), which can preserve both length
/// and — on filesystems with coarse timestamps — mtime. The timer
/// loop calls it each period; no inotify dependency needed at a 4 s
/// cadence.
#[derive(Debug)]
pub struct ConfigWatcher {
    path: PathBuf,
    fingerprint: Option<(std::time::SystemTime, u64, u64)>,
}

impl ConfigWatcher {
    /// Starts watching `path`, taking the current state as baseline.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let fingerprint = Self::stat(&path);
        ConfigWatcher { path, fingerprint }
    }

    /// The watched path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn stat(path: &Path) -> Option<(std::time::SystemTime, u64, u64)> {
        let meta = std::fs::metadata(path).ok()?;
        #[cfg(unix)]
        let ino = {
            use std::os::unix::fs::MetadataExt as _;
            meta.ino()
        };
        #[cfg(not(unix))]
        let ino = 0u64;
        Some((meta.modified().ok()?, meta.len(), ino))
    }

    /// True when the file changed since the last call (or appeared).
    pub fn changed(&mut self) -> bool {
        let now = Self::stat(&self.path);
        let changed = now.is_some() && now != self.fingerprint;
        self.fingerprint = now;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_faults::FaultKind;

    // -- minitoml -----------------------------------------------------

    #[test]
    fn minitoml_parses_sections_types_and_comments() {
        let doc = TomlDoc::parse(
            r##"
# top comment
top = 1
[daemon]
backend = "sim"   # trailing comment
setpoint_watts = 912.5
control_period_s = 4
[identify]
rls = false
path = "C:\\run \"x\"#y"
"##,
        )
        .unwrap();
        assert_eq!(doc.get("top"), Some(&TomlValue::Int(1)));
        assert_eq!(
            doc.get("daemon.backend"),
            Some(&TomlValue::Str("sim".into()))
        );
        assert_eq!(
            doc.get("daemon.setpoint_watts"),
            Some(&TomlValue::Float(912.5))
        );
        assert_eq!(doc.get("identify.rls"), Some(&TomlValue::Bool(false)));
        // `#` inside a quoted string is content, not a comment.
        assert_eq!(
            doc.get("identify.path"),
            Some(&TomlValue::Str("C:\\run \"x\"#y".into()))
        );
        assert!(TomlDoc::parse("no_equals_here").is_err());
        assert!(TomlDoc::parse("[unclosed").is_err());
        assert!(TomlDoc::parse("k = ").is_err());
        assert!(TomlDoc::parse("k = \"unterminated").is_err());
    }

    #[test]
    fn config_round_trips_and_rejects_unknown_keys() {
        let cfg = DaemonConfig::from_toml_str(
            r#"
[daemon]
backend = "mock"
setpoint_watts = 850
control_period_s = 2
metrics_port = 0
[identify]
steps_per_device = 4
rls = false
[sim]
gpus = 3
[supervisor]
stale_fallback_periods = 1
stale_park_periods = 3
"#,
        )
        .unwrap();
        assert_eq!(cfg.backend, "mock");
        assert_eq!(cfg.setpoint_watts, 850.0);
        assert_eq!(cfg.control_period_s, 2);
        assert_eq!(cfg.metrics_port, Some(0));
        assert_eq!(cfg.sysid_steps_per_device, 4);
        assert_eq!(cfg.rls_forgetting, None);
        assert_eq!(cfg.sim_gpus, 3);
        assert_eq!(cfg.supervisor.stale_fallback_periods, 1);
        assert_eq!(cfg.supervisor.stale_park_periods, 3);
        // Unknown keys are typos, not extensions.
        let err = DaemonConfig::from_toml_str("[daemon]\nsetpoint = 900\n").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        // Range validation bites.
        assert!(DaemonConfig::from_toml_str("[daemon]\nsetpoint_watts = -5\n").is_err());
        assert!(DaemonConfig::from_toml_str("[daemon]\nbackend = \"nvml\"\n").is_err());
        assert!(DaemonConfig::from_toml_str("[identify]\nsteps_per_device = 1\n").is_err());
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
        assert_eq!(d.journal().of_kind("identified").count(), 1);
        assert_eq!(d.journal().of_kind("period").count(), 20);
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
        assert_eq!(d.journal().of_kind("setpoint_change").count(), 1);
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

    // -- the staleness-watchdog satellite: backend meter silence must
    //    propagate through the trait into supervisor escalation -------

    #[test]
    fn mock_meter_dropout_escalates_the_supervisor_ladder() {
        let mut cfg = DaemonConfig::default_sim();
        cfg.backend = "mock".to_string();
        cfg.sim_gpus = 2;
        cfg.sysid_steps_per_device = 4;
        cfg.control_period_s = 2;
        let backend = cfg.build_backend().unwrap();
        let mut d = Daemon::new(cfg, backend).unwrap();
        d.identify().unwrap();
        let healthy = d.run_periods(3).unwrap();
        assert!(healthy.iter().all(|r| r.tier == SupervisorTier::Primary));
        // Silence the meter through the plant-side escape hatch.
        d.backend_mut()
            .as_any_mut()
            .downcast_mut::<MockBackend>()
            .expect("mock backend")
            .apply_fault(&FaultKind::MeterDropout)
            .unwrap();
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
        d.backend_mut()
            .as_any_mut()
            .downcast_mut::<MockBackend>()
            .unwrap()
            .clear_fault(&FaultKind::MeterDropout)
            .unwrap();
        let recovered = d.run_periods(14).unwrap();
        assert_eq!(
            recovered.last().unwrap().tier,
            SupervisorTier::Primary,
            "ladder must climb back after the meter returns"
        );
        // The escalation and recovery are journaled as tier changes.
        assert!(d.journal().of_kind("tier_change").count() >= 3);
    }

    #[test]
    fn mock_journal_is_wall_clock_stamped_when_enabled() {
        let mut cfg = DaemonConfig::default_sim();
        cfg.backend = "mock".to_string();
        cfg.sysid_steps_per_device = 4;
        cfg.control_period_s = 2;
        let mut backend = MockBackend::testbed(cfg.sim_gpus).unwrap();
        backend.set_wall_clock_base(1_754_000_000_000);
        let mut d = Daemon::new(cfg, Box::new(backend)).unwrap();
        d.identify().unwrap();
        d.run_periods(2).unwrap();
        let stamps: Vec<Option<u64>> = d
            .journal()
            .events()
            .iter()
            .map(|e| e.wall_unix_ms)
            .collect();
        assert!(stamps.iter().all(Option::is_some));
        // Stamps advance with the plant clock.
        let v: Vec<u64> = stamps.into_iter().flatten().collect();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert!(*v.last().unwrap() > 1_754_000_000_000);
        // ...and render into the JSONL.
        assert!(d.journal().to_jsonl().contains("\"wall_ms\":"));
    }

    // -- metrics server -----------------------------------------------

    #[test]
    fn metrics_server_serves_published_text() {
        use std::io::{Read as _, Write as _};
        let server = MetricsServer::bind(0).unwrap();
        server.publish("capgpud_power_watts{backend=\"sim\"} 899.5\n");
        let addr = server.local_addr();
        let fetch = |path: &str| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        };
        let ok = fetch("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("capgpud_power_watts{backend=\"sim\"} 899.5"));
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(server);
        // Port is released after drop (bind again succeeds).
        let again = std::net::TcpListener::bind(addr);
        assert!(again.is_ok());
    }

    // -- reload triggers ----------------------------------------------

    #[cfg(unix)]
    #[test]
    fn sighup_sets_and_clears_the_reload_flag() {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        let sig = ReloadSignal::install();
        assert!(!sig.take());
        unsafe {
            raise(sighup::SIGHUP);
        }
        assert!(sig.take(), "SIGHUP must latch the reload flag");
        assert!(!sig.take(), "take() consumes the latch");
    }

    #[test]
    fn config_watcher_detects_rewrites() {
        let path = std::env::temp_dir().join(format!(
            "capgpud-watch-{}-{:?}.toml",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 900\n").unwrap();
        let mut w = ConfigWatcher::new(&path);
        assert!(!w.changed(), "baseline is not a change");
        // A rewrite with different length trips the fingerprint even
        // when the mtime granularity is coarse.
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 812.5\n").unwrap();
        assert!(w.changed());
        assert!(!w.changed(), "change reported once");
        std::fs::remove_file(&path).unwrap();
        assert!(!w.changed(), "disappearance is not a change");
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 700\n").unwrap();
        assert!(w.changed(), "reappearance is a change");
        let _ = std::fs::remove_file(&path);
    }
}
