//! # capgpu-backend — the sense/actuate seam of the CapGPU stack
//!
//! The paper's controller is only a *system* once the
//! identification/MPC/supervisor/telemetry stack can run against real
//! hardware. This crate defines that seam: [`PowerBackend`], the trait
//! through which the control loop senses (server power, per-device
//! power, applied clocks, throughput) and actuates (target frequencies,
//! power limits) — with the simulated testbed as the reference
//! implementation and real-hardware backends behind the same surface.
//!
//! Implementations:
//!
//! - [`SimBackend`] — wraps [`capgpu_sim::Server`]; the experiment
//!   runner's plant and the daemon's tests. Deterministic:
//!   byte-identical to driving the server directly (pinned by the
//!   conformance suite). Faults from the `capgpu-faults` taxonomy are
//!   injected into the wrapped server through
//!   [`SimBackend::server_mut`].
//! - [`CpufreqBackend`] — CPU packages through the Linux `cpufreq`
//!   sysfs interface plus RAPL energy counters, rooted at a
//!   configurable path so it is testable against a fixture tree.
//!
//! Both can be named by the daemon's `daemon.backend` key.
//!
//! The trait is deliberately *sample-oriented*: `advance(dt)` lets one
//! second of plant time pass (the simulator ticks; live backends sleep
//! and poll) and returns the meter sample it produced, if any. The
//! control loop on top is identical for both — which is exactly the
//! property the `capgpud` daemon relies on.

#![warn(missing_docs)]

pub mod cpufreq;
pub mod sim;

pub use cpufreq::CpufreqBackend;
pub use sim::SimBackend;

use capgpu_sim::DeviceKind;

/// Errors surfaced by a backend.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The simulated testbed rejected an operation.
    Sim(capgpu_sim::SimError),
    /// Wrong number of per-device values for this backend's device set.
    WrongArity {
        /// Devices the backend exposes.
        expected: usize,
        /// Values the caller supplied.
        got: usize,
    },
    /// Device index outside the enumerated set.
    NoSuchDevice(usize),
    /// The operation is not supported by this backend (see
    /// [`Capabilities`]).
    Unsupported(&'static str),
    /// The backend cannot be constructed in this environment (driver or
    /// sysfs surface missing).
    Unavailable(String),
    /// The device or driver rejected the command.
    Device(String),
    /// I/O failure talking to the sysfs / driver surface.
    Io(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Sim(e) => write!(f, "sim backend: {e}"),
            BackendError::WrongArity { expected, got } => {
                write!(f, "expected {expected} per-device values, got {got}")
            }
            BackendError::NoSuchDevice(i) => write!(f, "no such device: {i}"),
            BackendError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            BackendError::Unavailable(m) => write!(f, "backend unavailable: {m}"),
            BackendError::Device(m) => write!(f, "device error: {m}"),
            BackendError::Io(m) => write!(f, "backend io error: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<capgpu_sim::SimError> for BackendError {
    fn from(e: capgpu_sim::SimError) -> Self {
        BackendError::Sim(e)
    }
}

/// Result alias for backend operations.
pub type BackendResult<T> = std::result::Result<T, BackendError>;

/// One enumerated device behind a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendDevice {
    /// Stable index within the backend (actuation order).
    pub index: usize,
    /// CPU package or GPU board.
    pub kind: DeviceKind,
    /// Human-readable name (`"Tesla V100"`, `"cpu0"`, ...).
    pub name: String,
    /// Lowest settable frequency (MHz).
    pub f_min_mhz: f64,
    /// Highest settable frequency (MHz).
    pub f_max_mhz: f64,
    /// Supported discrete frequency levels, ascending (MHz). May be
    /// empty when the backend only knows the `[min, max]` range.
    pub levels_mhz: Vec<f64>,
    /// Settable board power-limit range `(min, max)` in watts, when the
    /// device supports power-limit actuation (no in-tree backend does:
    /// the simulated testbed and cpufreq actuate frequency only).
    pub power_limit_w: Option<(f64, f64)>,
}

/// What a backend can do. The control stack degrades gracefully: a
/// missing per-device meter falls back to the server meter. No in-tree
/// backend sets `set_power_limit` or `throughput`, and the daemon
/// weighs every device uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// Can set per-device target frequencies.
    pub set_frequency: bool,
    /// Can set per-device board power limits.
    pub set_power_limit: bool,
    /// Reports a server-level power meter.
    pub server_power: bool,
    /// Reports per-device power readings.
    pub per_device_power: bool,
    /// Reports per-device workload throughput.
    pub throughput: bool,
    /// Readings are wall-clock stamped (a live backend). Deterministic
    /// backends return `false` so their journals stay byte-identical.
    pub wall_clock: bool,
}

/// The sense/actuate surface of one server.
///
/// Contract notes, pinned by the conformance suite in
/// `tests/conformance.rs`:
///
/// - **Enumeration is stable**: [`PowerBackend::devices`] returns the
///   same set, in the same order, for the lifetime of the backend.
/// - **Actuate-then-read round-trips**: after a successful
///   [`PowerBackend::set_frequencies`], `effective_frequencies_into`
///   reflects the commanded values quantized to the device's supported
///   levels (and clamped by throttling the backend reports honestly).
/// - **Arity is checked first**: a wrong-length slice errors without
///   partially actuating.
/// - **`advance` owns time**: the simulator ticks its plant, live
///   backends sleep/poll. It returns the fresh server-level power
///   sample the elapsed second produced, or `None` (meter dropout /
///   no meter) — sense code must treat `None` as staleness, which is
///   exactly what the supervisor's watchdog keys on.
pub trait PowerBackend {
    /// Short backend name (`"sim"`, `"cpufreq"`).
    fn name(&self) -> &str;

    /// What this backend can do.
    fn capabilities(&self) -> Capabilities;

    /// The enumerated devices, in actuation order. Stable for the
    /// backend's lifetime.
    fn devices(&self) -> &[BackendDevice];

    /// Number of devices (`devices().len()`).
    fn num_devices(&self) -> usize {
        self.devices().len()
    }

    /// Commands per-device target frequencies (MHz). The backend
    /// quantizes to each device's supported levels; faults or driver
    /// rejections leave the previous clock in force without failing the
    /// whole call (mirroring `nvidia-smi -ac` semantics where the tool
    /// "succeeds" but the clock does not move).
    ///
    /// # Errors
    /// [`BackendError::WrongArity`] (checked before any actuation) or a
    /// device/driver error.
    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()>;

    /// Writes the clocks the devices are *actually* running (commanded,
    /// quantized, clamped by any throttle) into `out` (resized to the
    /// device count).
    ///
    /// # Errors
    /// Device/driver read failures.
    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()>;

    /// Sets one device's board power limit (W), the
    /// `nvmlDeviceSetPowerManagementLimit` analogue.
    ///
    /// # Errors
    /// [`BackendError::Unsupported`] when [`Capabilities::set_power_limit`]
    /// is false; otherwise device/driver errors.
    fn set_power_limit(&mut self, device: usize, watts: f64) -> BackendResult<()> {
        let _ = (device, watts);
        Err(BackendError::Unsupported("set_power_limit"))
    }

    /// Lets `dt_s` seconds of plant time pass and returns the fresh
    /// server-level power sample it produced (`None` = meter silent).
    /// The simulator advances its plant; live backends sleep and poll.
    ///
    /// # Errors
    /// Plant/driver failures.
    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>>;

    /// Average of the last `n` server-level meter samples (W), or
    /// `None` when the meter has produced none / is unsupported.
    fn average_power(&self, last_n: usize) -> Option<f64>;

    /// Seconds since the server meter last produced any sample
    /// (`None` = never). The supervisor's staleness watchdog input.
    fn seconds_since_sample(&self) -> Option<u64>;

    /// Writes per-device power readings (W) into `out` (resized to the
    /// device count) — what RAPL / `nvidia-smi` report per package or
    /// board, as of the most recent elapsed second.
    ///
    /// # Errors
    /// [`BackendError::Unsupported`] when [`Capabilities::per_device_power`]
    /// is false; otherwise device/driver errors.
    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()>;

    /// Writes per-device workload throughput (requests- or tokens-/s)
    /// into `out`.
    ///
    /// # Errors
    /// [`BackendError::Unsupported`] when [`Capabilities::throughput`]
    /// is false.
    fn throughput_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        let _ = out;
        Err(BackendError::Unsupported("throughput"))
    }

    /// Whether a device has fallen off the bus (out-of-range reads
    /// `false` — this is a hot-path probe, not a validator).
    fn is_ejected(&self, device: usize) -> bool {
        let _ = device;
        false
    }

    /// BMC-advertised PSU power limit (W), if the platform reports one.
    fn psu_limit(&self) -> Option<f64> {
        None
    }

    /// Standard deviation of server meter noise (W), if known — sizing
    /// input for safety margins and deadbands.
    fn meter_noise_std(&self) -> f64 {
        0.0
    }

    /// Wall-clock of the most recent reading (Unix milliseconds) for
    /// live backends; `None` for deterministic ones, which keeps
    /// sim-mode journals byte-identical.
    fn wall_clock_unix_ms(&self) -> Option<u64> {
        None
    }

    /// Concrete-type escape hatch: plant-side hooks that are *not* part
    /// of the sense/actuate seam (fault injection)
    /// live on the concrete backend, and callers holding a boxed
    /// `dyn PowerBackend` downcast through here to reach them.
    /// Implementations return `self`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_descriptive() {
        let e = BackendError::WrongArity {
            expected: 4,
            got: 1,
        };
        assert!(e.to_string().contains("4"));
        assert!(BackendError::Unsupported("set_power_limit")
            .to_string()
            .contains("set_power_limit"));
        let sim: BackendError = capgpu_sim::SimError::NoSuchDevice(7).into();
        assert!(sim.to_string().contains("7"));
    }
}
