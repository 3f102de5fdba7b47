//! Request-level inference serving for CapGPU: queues, dynamic batching
//! and tail-latency observability under a power cap.
//!
//! The paper enforces its latency constraint (10b)/(10c) through the
//! steady-state model `e = e_min · (f_max / f)^γ` — no requests, queues
//! or batches exist in that formulation. Real inference serving (PALS,
//! deadline-aware GPU frequency scaling) shows that power capping's true
//! cost surfaces at the *tail* of a queueing system: frequency cuts
//! inflate service time, queues build, and p99 latency diverges long
//! before the mean does. This crate supplies the missing request level:
//!
//! * [`arrivals`] — Poisson request arrivals whose intensity a scheduled
//!   burst can scale.
//! * [`engine`] — a deterministic discrete-event engine per GPU: a
//!   seeded, binary-heap event queue over arrivals, batching timeouts
//!   and batch completions; a bounded FIFO request queue; and a dynamic
//!   batcher (max batch size + batching timeout) whose batch service
//!   time is the γ latency law scaled by a calibrated batch-efficiency
//!   curve at the device's *effective* (throttle-clamped) frequency.
//!
//! ## Determinism
//!
//! Every stochastic draw comes from a seeded `StdRng` owned by the
//! engine's arrival generator; event ties are broken by a monotone
//! sequence number. The same seed therefore produces bit-identical
//! event sequences, window statistics and per-request latencies across
//! repeated runs and thread counts — the property `capgpu::sweep`
//! relies on when it fans serving scenarios out across OS threads.

#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;

pub use arrivals::{ArrivalGen, ArrivalProcess};
pub use engine::{ServeEngine, ServeWindowStats, ServiceModel};

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Invalid configuration.
    BadConfig(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadConfig(m) => write!(f, "bad serving config: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;
