//! Operator-facing daemon configuration: the TOML keys, their defaults
//! and ranges, and the built-in backends they can name.

use std::path::{Path, PathBuf};

use capgpu_backend::{CpufreqBackend, PowerBackend, SimBackend};
use capgpu_obs::rotate::RotationConfig;
use capgpu_sim::{presets, ServerBuilder, METER_HISTORY_SAMPLES};

use super::bad;
use super::toml::TomlDoc;
use crate::supervisor::SupervisorConfig;
use crate::Result;

/// Operator-facing daemon configuration.
///
/// Parsed from a TOML subset (see [`DaemonConfig::from_toml_str`]);
/// every field has a sensible default, so an empty config is valid.
/// Only `setpoint_watts` is hot-reloadable at runtime (via
/// [`Daemon::apply_reload`](super::Daemon::apply_reload)) — everything else requires a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Which backend [`DaemonConfig::build_backend`] builds: `"sim"` or
    /// `"cpufreq"` (the live host's `/sys`).
    pub backend: String,
    /// Server power set-point (W).
    pub setpoint_watts: f64,
    /// Control period (s) — sense/actuate cadence, the paper's `T`.
    pub control_period_s: u64,
    /// TCP port for the Prometheus listener (`0` = ephemeral); `None`
    /// disables the listener.
    pub metrics_port: Option<u16>,
    /// Directory for the rotating durable journal (crash-recovery
    /// replay source); `None` disables durable journaling.
    pub journal_dir: Option<PathBuf>,
    /// Rotating-journal segment size bound (KiB).
    pub journal_max_segment_kib: u64,
    /// Rotating-journal segment age bound on the record clock (s).
    pub journal_max_segment_age_s: f64,
    /// Rotating-journal retention bound (segments).
    pub journal_retain_segments: usize,
    /// Excitation steps per device during identification: 2 to 256
    /// (`MAX_SYSID_STEPS` says why).
    pub sysid_steps_per_device: usize,
    /// RLS forgetting factor for streaming refits; `None` disables the
    /// refits (the model tracker still runs, at the default 0.98, for
    /// the supervisor's authority verdict).
    pub rls_forgetting: Option<f64>,
    /// Simulated-testbed seed (sim backend only).
    pub sim_seed: u64,
    /// GPU count of the simulated testbed: 1 to 16, one server's worth
    /// (`MAX_SIM_GPUS` says why).
    pub sim_gpus: usize,
    /// Constant per-device utilization staged into the sim plant.
    pub sim_utilization: f64,
    /// Supervisor failover thresholds.
    pub supervisor: SupervisorConfig,
}

/// `identify.rls_forgetting` when the config does not set it.
pub(crate) const DEFAULT_RLS_FORGETTING: f64 = 0.98;

/// The most excitation steps per device `identify.steps_per_device`
/// takes. Identification dwells one control period per step, device after
/// device, and reserves a row per step up front: 256 steps is already
/// 17 minutes per device at the paper's 4 s period (the paper sweeps 8).
const MAX_SYSID_STEPS: usize = 256;

/// The most GPUs `sim.gpus` takes. The simulated testbed is one server,
/// and a server carries one host CPU and up to eight GPUs; 16 leaves
/// headroom while every per-device structure (the plant, the
/// identification rows, the condensed MPC problem) stays small.
const MAX_SIM_GPUS: usize = 16;

type BuildBackend = fn(&DaemonConfig) -> Result<Box<dyn PowerBackend>>;

/// Every backend `daemon.backend` can name and how
/// [`DaemonConfig::build_backend`] builds it; `validate` reads the names
/// from here too.
const BACKENDS: [(&str, BuildBackend); 2] = [
    ("sim", DaemonConfig::sim_backend),
    ("cpufreq", |_| match CpufreqBackend::probe("/sys") {
        Ok(b) => Ok(Box::new(b)),
        Err(e) => Err(bad(format!("cpufreq backend: {e}"))),
    }),
];

/// Every key the config parser accepts; anything else is a typo and is
/// rejected loudly rather than silently ignored.
const KNOWN_KEYS: &[&str] = &[
    "daemon.backend",
    "daemon.setpoint_watts",
    "daemon.control_period_s",
    "daemon.metrics_port",
    "journal.dir",
    "journal.max_segment_kib",
    "journal.max_segment_age_s",
    "journal.retain_segments",
    "identify.steps_per_device",
    "identify.rls",
    "identify.rls_forgetting",
    "sim.seed",
    "sim.gpus",
    "sim.utilization",
    "supervisor.stale_fallback_periods",
    "supervisor.stale_park_periods",
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
            journal_dir: None,
            journal_max_segment_kib: 64,
            journal_max_segment_age_s: 3600.0,
            journal_retain_segments: 8,
            sysid_steps_per_device: 6,
            rls_forgetting: Some(DEFAULT_RLS_FORGETTING),
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
    /// [`crate::CapGpuError::BadConfig`] on syntax errors, unknown keys, type
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
    /// [`crate::CapGpuError::BadConfig`] on I/O or parse failure.
    pub fn load(path: &Path) -> Result<Self> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| bad(format!("config {}: {e}", path.display())))?;
        Self::from_toml_str(&src)
    }

    /// Validates field ranges.
    ///
    /// # Errors
    /// [`crate::CapGpuError::BadConfig`] with a description.
    pub fn validate(&self) -> Result<()> {
        if !BACKENDS.iter().any(|(name, _)| *name == self.backend) {
            return Err(bad(format!(
                "daemon.backend must be one of {:?}, got \"{}\"",
                BACKENDS.map(|(name, _)| name),
                self.backend
            )));
        }
        if !(self.setpoint_watts.is_finite() && self.setpoint_watts > 0.0) {
            return Err(bad("daemon.setpoint_watts must be finite and > 0".into()));
        }
        // A period averages its own samples; past the meter's history it
        // would silently average only the last METER_HISTORY_SAMPLES.
        if !(1..=METER_HISTORY_SAMPLES as u64).contains(&self.control_period_s) {
            return Err(bad(format!(
                "daemon.control_period_s must be in 1..={METER_HISTORY_SAMPLES} \
                 (the seconds of samples a power meter keeps)"
            )));
        }
        if !(2..=MAX_SYSID_STEPS).contains(&self.sysid_steps_per_device) {
            return Err(bad(format!(
                "identify.steps_per_device must be in 2..={MAX_SYSID_STEPS}"
            )));
        }
        if let Some(f) = self.rls_forgetting {
            if !(f > 0.0 && f <= 1.0) {
                return Err(bad("identify.rls_forgetting must be in (0, 1]".into()));
            }
        }
        if !(1..=MAX_SIM_GPUS).contains(&self.sim_gpus) {
            return Err(bad(format!("sim.gpus must be in 1..={MAX_SIM_GPUS}")));
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

    /// Builds the backend `daemon.backend` names: the simulated
    /// testbed or the live host's cpufreq + RAPL surface probed under
    /// `/sys`. (Tests hand a fixture-rooted
    /// [`CpufreqBackend`] to [`Daemon::new`](super::Daemon::new).)
    ///
    /// # Errors
    /// [`crate::CapGpuError::BadConfig`] on an unknown backend name or a
    /// host without cpufreq; backend construction errors otherwise.
    pub fn build_backend(&self) -> Result<Box<dyn PowerBackend>> {
        let (_, build) = BACKENDS
            .iter()
            .find(|(name, _)| *name == self.backend)
            .ok_or_else(|| bad(format!("no built-in backend named \"{}\"", self.backend)))?;
        build(self)
    }

    fn sim_backend(&self) -> Result<Box<dyn PowerBackend>> {
        let mut builder = ServerBuilder::new(self.sim_seed).add_device(presets::xeon_gold_5215());
        for _ in 0..self.sim_gpus {
            builder = builder.add_device(presets::tesla_v100());
        }
        let mut backend = SimBackend::new(builder.build()?);
        // The simulated plant needs a load; a live plant brings its own.
        // Staged once — utilizations persist across `advance` calls.
        let utils = vec![self.sim_utilization; backend.num_devices()];
        backend.stage_utilizations(&utils)?;
        Ok(Box::new(backend))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_control::sysid::ExcitationPlan;
    use proptest::prelude::*;

    const CONFIG: &str = r#"
[daemon]
backend = "cpufreq"
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
"#;

    #[test]
    fn config_round_trips_and_rejects_unknown_keys() {
        let cfg = DaemonConfig::from_toml_str(CONFIG).unwrap();
        assert_eq!(cfg.backend, "cpufreq");
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

    /// The authority verdict's window, ratio and excitation floor are
    /// constants of the model tracker, not settings: a config that still
    /// names one is refused like any typo, and the error says which key.
    #[test]
    fn removed_authority_keys_are_unknown() {
        for (key, value) in [
            ("authority_window", "6"),
            ("authority_min_ratio", "0.3"),
            ("authority_min_excitation_w", "25.0"),
        ] {
            let src = format!("[supervisor]\n{key} = {value}\n");
            let err = DaemonConfig::from_toml_str(&src).unwrap_err().to_string();
            assert!(err.contains("unknown key"), "{src:?}: {err}");
            assert!(
                err.contains(&format!("`supervisor.{key}`")),
                "{src:?}: {err}"
            );
        }
    }

    /// A sweep of 10¹² steps per device would reserve 96 TB of rows,
    /// 4·10⁹ GPUs would have the sim backend build them all, and a
    /// control period past the meter's 1024 s of history would average
    /// only its last 1024 s: all are refused when the config is read, as
    /// is one past each bound.
    #[test]
    fn sizes_past_their_bounds_are_refused() {
        for src in [
            "[identify]\nsteps_per_device = 1000000000000\n",
            "[identify]\nsteps_per_device = 257\n",
            "[sim]\ngpus = 4000000000\n",
            "[sim]\ngpus = 17\n",
            "[daemon]\ncontrol_period_s = 1025\n",
        ] {
            let err = DaemonConfig::from_toml_str(src).unwrap_err();
            assert!(err.to_string().contains("must be in"), "{src:?}: {err}");
        }
        let cfg = DaemonConfig::from_toml_str(
            "[daemon]\ncontrol_period_s = 1024\n[identify]\nsteps_per_device = 256\n[sim]\ngpus = 16\n",
        )
        .unwrap();
        assert_eq!(cfg.control_period_s, 1024);
        assert_eq!((cfg.sysid_steps_per_device, cfg.sim_gpus), (256, 16));
    }

    /// Neither the TOML subset parser nor the config layer panics, and
    /// every config it accepts validates and can run: its sim backend
    /// builds, and so does identification's excitation plan.
    fn parses_safely(src: &str) -> std::result::Result<(), TestCaseError> {
        let _ = TomlDoc::parse(src);
        if let Ok(cfg) = DaemonConfig::from_toml_str(src) {
            prop_assert!(cfg.validate().is_ok(), "{src:?}");
            let Ok(backend) = cfg.sim_backend() else {
                return Err(TestCaseError::fail(format!("no sim backend for {src:?}")));
            };
            let devices = backend.devices();
            let f_min: Vec<f64> = devices.iter().map(|d| d.f_min_mhz).collect();
            let f_max: Vec<f64> = devices.iter().map(|d| d.f_max_mhz).collect();
            let plan = ExcitationPlan::new(f_min.clone(), f_max, f_min, cfg.sysid_steps_per_device);
            prop_assert!(plan.is_ok(), "{src:?}");
        }
        Ok(())
    }

    /// TOML syntax, known and unknown keys, escapes, extreme numbers and
    /// multi-byte characters.
    const PIECES: [&str; 32] = [
        "[",
        "]",
        "=",
        " ",
        "\"",
        "\\",
        "#",
        "\n",
        "\r",
        "\t",
        ".",
        "_",
        "-",
        "e",
        "daemon",
        "backend",
        "sim",
        "cpufreq",
        "journal",
        "dir",
        "setpoint_watts",
        "supervisor",
        "stale_park_periods",
        "0",
        "7",
        "1e400",
        "-0.0",
        "18446744073709551616",
        "true",
        "é",
        "电",
        "\\u",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_text_never_panics_the_config_parser(
            pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..48),
        ) {
            parses_safely(&pieces.concat())?;
        }

        /// One byte of the round-trip config replaced, inserted or
        /// removed.
        #[test]
        fn single_byte_mutations_never_panic_the_config_parser(
            at in 0usize..CONFIG.len(),
            byte in 0u16..256,
            op in 0u8..3,
        ) {
            let mut bytes = CONFIG.as_bytes().to_vec();
            match op {
                0 => bytes[at] = byte as u8,
                1 => bytes.insert(at, byte as u8),
                _ => {
                    bytes.remove(at);
                }
            }
            parses_safely(&String::from_utf8_lossy(&bytes))?;
        }

        /// Sizes at, around and far past both bounds.
        #[test]
        fn any_size_that_validates_can_run(
            gpus_bits in 0u32..42,
            gpus_off in 0u64..3,
            steps_bits in 0u32..42,
            steps_off in 0u64..3,
        ) {
            let gpus = (1u64 << gpus_bits) + gpus_off - 1;
            let steps = (1u64 << steps_bits) + steps_off - 1;
            parses_safely(&format!("[identify]\nsteps_per_device = {steps}\n[sim]\ngpus = {gpus}\n"))?;
        }
    }
}
