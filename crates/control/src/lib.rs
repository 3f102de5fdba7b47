//! Control-theoretic building blocks for CapGPU.
//!
//! This crate implements the modeling and control machinery of the paper's
//! §4 independent of any particular server or workload:
//!
//! * [`model`] — the linear server power model `p = A·F + C` (Eq. 3/4) and
//!   its difference form `p(k) = p(k−1) + A·ΔF(k−1)` (Eq. 7).
//! * [`sysid`] — least-squares **system identification** with the paper's
//!   one-knob-at-a-time excitation schedule (§4.2, Fig. 2a).
//! * [`latency`] — the inference latency model `e = e_min·(f_max/f)^γ`
//!   (Eq. 8) and its inversion into per-GPU frequency floors for SLO
//!   constraints (10b)/(10c).
//! * [`mpc`] — the **MIMO model-predictive controller** with tracking
//!   weight `Q`, per-device control penalties `R` and hard frequency
//!   constraints (Eq. 9 + 10a–10c). The paper's condensed problem splits
//!   into one block per move, so it solves only the applied block, an
//!   `N`-variable box QP whose Hessian is diagonal plus rank one: exactly,
//!   in O(N log N), by a search for its one KKT multiplier, with no
//!   iteration and no state between periods. `mpc`'s tests hold it
//!   against the whole `P = 8`, `M = 2` QP solved by the generic
//!   active-set QP of the dev-only `capgpu-oracle`.
//! * [`pid`] — pole-placed proportional controllers (the GPU-Only and
//!   CPU-Only baselines of §6.1 follow OptimML / IBM server-level control).
//! * [`modulator`] — the first-order **delta-sigma modulator** that
//!   realizes fractional frequency commands on discrete P-state tables
//!   (§5, "Frequency Modulators").
//! * [`stability`] — closed-loop pole analysis under multiplicative model
//!   error `A'ᵢ = gᵢ·Aᵢ` (§4.4) in closed form: the loop's one nonzero pole
//!   `π(g)` and the exact stable uniform-gain interval, both O(N).
//! * [`metrics`] — settling time, overshoot and steady-state-error metrics
//!   used throughout the evaluation.

#![warn(missing_docs)]

pub mod latency;
pub mod metrics;
pub mod model;
pub mod modulator;
pub mod mpc;
pub mod pid;
pub mod stability;
pub mod sysid;

pub use latency::LatencyModel;
pub use model::LinearPowerModel;
pub use modulator::DeltaSigmaModulator;
pub use mpc::{MpcConfig, MpcController, MpcStep};
pub use pid::ProportionalController;
pub use sysid::{ExcitationPlan, SystemIdentifier};

/// Errors produced by the control layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// Configuration is inconsistent (mismatched device counts, no
    /// devices, bad bounds…).
    BadConfig(&'static str),
    /// Not enough (or degenerate) excitation data for identification.
    InsufficientData(&'static str),
    /// The underlying linear algebra failed.
    Linalg(capgpu_linalg::LinalgError),
    /// The constraints admit no solution (e.g. SLO floor above `f_max`).
    Infeasible(&'static str),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::BadConfig(m) => write!(f, "bad controller config: {m}"),
            ControlError::InsufficientData(m) => write!(f, "insufficient data: {m}"),
            ControlError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            ControlError::Infeasible(m) => write!(f, "infeasible constraints: {m}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<capgpu_linalg::LinalgError> for ControlError {
    fn from(e: capgpu_linalg::LinalgError) -> Self {
        ControlError::Linalg(e)
    }
}

/// Result alias for the control layer.
pub type Result<T> = std::result::Result<T, ControlError>;
