//! Simulated multi-GPU server testbed for CapGPU.
//!
//! The paper's experiments run on a physical server (Intel Xeon Gold 5215 +
//! 3× NVIDIA Tesla V100, ACPI power meter, `cpupower`/`nvidia-smi`
//! actuators). This crate is the drop-in simulated equivalent: it exposes
//! **exactly the interfaces the controller consumes** — per-device
//! frequency actuation over discrete clock tables, and a server-level power
//! meter sampling at 1 Hz — backed by ground-truth device power laws the
//! controller never sees.
//!
//! Design goals:
//!
//! * **Same code path as hardware.** Controllers set target frequencies;
//!   actuators quantize to the device's supported clock table (like
//!   `nvidia-smi -ac` / `cpupower frequency-set`); the power meter returns
//!   noisy 1 Hz samples that must be averaged per control period (like the
//!   ACPI `power_meter` interface in §5 of the paper).
//! * **Realistic imperfection.** Gaussian sensor noise, slow platform-power
//!   drift, utilization-dependent device power, and a mild quadratic
//!   frequency term mean the controller's identified linear model is an
//!   approximation (R² ≈ 0.96, like Fig. 2a) rather than an oracle.
//! * **Determinism.** All randomness flows from a caller-provided seed, so
//!   every experiment trace is reproducible bit-for-bit.
//! * **Failure injection.** The meter supports dropout and bias-drift
//!   faults, devices support actuator faults (a stuck clock, ejection off
//!   the bus), and the PSU can advertise a derated power limit — the
//!   injection surface the `capgpu-faults` schedule DSL and the
//!   supervisory failover layer drive.
//!
//! ```
//! use capgpu_sim::{presets, ServerBuilder};
//!
//! let mut server = ServerBuilder::new(42)
//!     .platform_watts(300.0)
//!     .add_device(presets::xeon_gold_5215())
//!     .add_device(presets::tesla_v100())
//!     .add_device(presets::tesla_v100())
//!     .add_device(presets::tesla_v100())
//!     .build()
//!     .unwrap();
//! server.set_target_frequency(1, 900.0).unwrap();
//! let reading = server.tick_second(&[1.0, 1.0, 1.0, 1.0]).unwrap();
//! assert!(reading.expect("no fault injected") > 300.0);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod freq;
pub mod meter;
pub mod presets;
pub mod server;
pub mod thermal;

pub use device::{DeviceKind, DeviceSpec, PowerLaw};
pub use freq::FrequencyTable;
pub use meter::{MeterFault, PowerMeter, METER_HISTORY_SAMPLES};
pub use server::{ActuatorFault, Server, ServerBuilder};
pub use thermal::{ThermalSpec, ThermalState};

/// Errors from the simulated testbed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid device or server configuration.
    BadConfig(&'static str),
    /// Device index out of range.
    NoSuchDevice(usize),
    /// Input length does not match the device count.
    WrongArity {
        /// Expected number of devices.
        expected: usize,
        /// Provided number of values.
        got: usize,
    },
    /// The power meter produced no sample (fault injection).
    MeterUnavailable,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadConfig(m) => write!(f, "bad testbed config: {m}"),
            SimError::NoSuchDevice(i) => write!(f, "no device with index {i}"),
            SimError::WrongArity { expected, got } => {
                write!(f, "expected {expected} per-device values, got {got}")
            }
            SimError::MeterUnavailable => write!(f, "power meter unavailable"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for the simulated testbed.
pub type Result<T> = std::result::Result<T, SimError>;
