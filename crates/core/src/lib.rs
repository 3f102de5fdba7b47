//! # CapGPU — power capping for multi-GPU ML inference servers
//!
//! This crate is the top of the stack: the paper's contribution (the
//! CapGPU MIMO model-predictive power-capping controller with
//! throughput-driven weight assignment), every baseline it is evaluated
//! against, and the experiment runner that closes the loop over the
//! simulated testbed (`capgpu-sim`) and workloads (`capgpu-workload`).
//!
//! ## Architecture
//!
//! ```text
//!  ┌──────────────────────────── ExperimentRunner ───────────────────────────┐
//!  │  every second:   delta-sigma modulators → Server.set_all_frequencies    │
//!  │                  Plant: engine × N_gpu → per-device utilization         │
//!  │                  Server.tick_second   → 1 Hz power-meter sample         │
//!  │  every period T: period_power(fresh)   ┐                                │
//!  │                  throughput monitors   ├→ PowerController.control()     │
//!  │                  SLO frequency floors  ┘        (CapGPU or baseline)    │
//!  └──────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The runner does not know which workload it drives: the GPU tasks'
//! engines — the paper's pipeline model, the request-level serving
//! engines or the two-phase LLM engines — sit behind the crate-private
//! `plant` module, which reports the same per-second and per-period
//! quantities for every kind.
//!
//! ## Controllers
//!
//! * [`controllers::CapGpuController`] — the paper's controller: MIMO MPC
//!   (the applied block of P = 8, M = 2) + weight assignment from normalized
//!   throughputs + per-GPU SLO frequency floors.
//! * [`controllers::FixedStepController`] / `SafeFixedStepController` —
//!   heuristic ±1-step baselines (§6.1 baseline 1).
//! * [`controllers::GpuOnlyController`] — pole-placed P control of a
//!   single shared GPU clock (§6.1 baseline 2, after OptimML).
//! * [`controllers::CpuOnlyController`] — pole-placed P control of the CPU
//!   DVFS knob (§6.1 baseline 3, after IBM server-level power control).
//! * [`controllers::CpuGpuSplitController`] — two independent loops with a
//!   fixed budget split (§6.1 baseline 4, after PowerCoord).
//!
//! ## Quickstart
//!
//! ```
//! use capgpu::prelude::*;
//!
//! let scenario = Scenario::paper_testbed(42);
//! let mut runner = ExperimentRunner::new(scenario, 900.0).unwrap();
//! let controller = runner.build_capgpu_controller().unwrap();
//! let trace = runner.run(controller, 25).unwrap();
//! let (mean, _std) = trace.steady_state_power(0.8);
//! assert!((mean - 900.0).abs() < 25.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod controllers;
pub mod daemon;
pub mod ordered;
mod period;
mod plant;
pub mod runner;
pub mod summary;
pub mod supervisor;
pub mod sweep;
pub mod telemetry;
pub mod weights;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::config::{Scenario, ScheduledChange, ServingConfig, GAMMA_FITTED};
    pub use crate::controllers::{
        CapGpuController, CpuGpuSplitController, CpuOnlyController, FixedStepController,
        GpuOnlyController, PowerController, SafeFixedStepController,
    };
    pub use crate::daemon::{
        ConfigWatcher, Daemon, DaemonConfig, MetricsServer, PeriodReport, ReloadSignal,
    };
    pub use crate::runner::{ExperimentRunner, FixedRunStats, PeriodRecord, RunTrace};
    pub use crate::summary::RunSummary;
    pub use crate::supervisor::{
        Decision, Directive, HealthSample, Ladder, Supervisor, SupervisorConfig, SupervisorTier,
    };
    pub use crate::sweep::{ControllerSpec, SweepCellResult, SweepReport, SweepSpec};
    pub use crate::telemetry::{RunTelemetry, TelemetryReport};
    pub use crate::weights::{PhaseMix, WeightAssigner};
    pub use capgpu_faults::{FaultKind, FaultSchedule, FaultSpec, Intermittency};
    pub use capgpu_llm::{LlmConfig, LlmEngine, LlmServiceModel, LlmTaskSpec, TokenRange};
    pub use capgpu_telemetry::TelemetryConfig;
}

/// Errors from the CapGPU framework layer.
#[derive(Debug)]
pub enum CapGpuError {
    /// Invalid configuration.
    BadConfig(String),
    /// Control-layer failure.
    Control(capgpu_control::ControlError),
    /// Simulated-testbed failure.
    Sim(capgpu_sim::SimError),
    /// Workload-layer failure.
    Workload(capgpu_workload::WorkloadError),
    /// Serving-layer failure.
    Serve(capgpu_serve::ServeError),
    /// LLM serving-layer failure.
    Llm(capgpu_llm::LlmError),
    /// Fault-schedule failure.
    Fault(capgpu_faults::FaultError),
    /// Power-backend failure (sense/actuate seam).
    Backend(capgpu_backend::BackendError),
}

impl std::fmt::Display for CapGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapGpuError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            CapGpuError::Control(e) => write!(f, "control error: {e}"),
            CapGpuError::Sim(e) => write!(f, "testbed error: {e}"),
            CapGpuError::Workload(e) => write!(f, "workload error: {e}"),
            CapGpuError::Serve(e) => write!(f, "serving error: {e}"),
            CapGpuError::Llm(e) => write!(f, "llm serving error: {e}"),
            CapGpuError::Fault(e) => write!(f, "fault-schedule error: {e}"),
            CapGpuError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for CapGpuError {}

impl From<capgpu_control::ControlError> for CapGpuError {
    fn from(e: capgpu_control::ControlError) -> Self {
        CapGpuError::Control(e)
    }
}

impl From<capgpu_sim::SimError> for CapGpuError {
    fn from(e: capgpu_sim::SimError) -> Self {
        CapGpuError::Sim(e)
    }
}

impl From<capgpu_workload::WorkloadError> for CapGpuError {
    fn from(e: capgpu_workload::WorkloadError) -> Self {
        CapGpuError::Workload(e)
    }
}

impl From<capgpu_serve::ServeError> for CapGpuError {
    fn from(e: capgpu_serve::ServeError) -> Self {
        CapGpuError::Serve(e)
    }
}

impl From<capgpu_llm::LlmError> for CapGpuError {
    fn from(e: capgpu_llm::LlmError) -> Self {
        CapGpuError::Llm(e)
    }
}

impl From<capgpu_faults::FaultError> for CapGpuError {
    fn from(e: capgpu_faults::FaultError) -> Self {
        CapGpuError::Fault(e)
    }
}

impl From<capgpu_backend::BackendError> for CapGpuError {
    fn from(e: capgpu_backend::BackendError) -> Self {
        // A backend wrapping the simulated testbed surfaces the
        // underlying testbed error directly, so existing sim-path
        // callers keep matching on `CapGpuError::Sim`.
        match e {
            capgpu_backend::BackendError::Sim(inner) => CapGpuError::Sim(inner),
            other => CapGpuError::Backend(other),
        }
    }
}

/// Result alias for the framework layer.
pub type Result<T> = std::result::Result<T, CapGpuError>;
