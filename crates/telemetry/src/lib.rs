//! Dependency-free observability primitives for the CapGPU stack.
//!
//! Three building blocks, each usable on its own:
//!
//! - [`registry`] — a metric [`Registry`](registry::Registry) of counters,
//!   gauges, and fixed-bucket histograms with `Cell`-based recording cheap
//!   enough for the runner hot path, plus an immutable
//!   [`Snapshot`](registry::Snapshot) with a deterministic,
//!   order-independent merge (so per-worker sweep registries combine to
//!   the same aggregate regardless of thread count or completion order),
//!   a Prometheus-text-format renderer, and a human report table.
//! - [`spans`] — nested wall-clock timed scopes
//!   (`period` → `sense`/`identify`/`solve`/`actuate`/`serve-drain`)
//!   with nanosecond totals and a per-run summary. Wall timings are
//!   *non-deterministic by nature* and must never feed a published
//!   number; callers keep them in a separate report section.
//! - [`journal`] — a structured event journal for discrete control-plane
//!   events (tier changes, quarantines, fault onsets, SLO-bound
//!   activations, RLS refits, delta-sigma carry wraps), keyed on the
//!   deterministic sim clock and rendered as JSONL.
//!
//! The determinism contract: everything a [`Snapshot`](registry::Snapshot)
//! or [`Journal`](journal::Journal) contains is derived from the seeded
//! simulation (sim-clock values, counts, watts), so two runs of the same
//! scenario produce byte-identical expositions. Only
//! [`SpanSummary`](spans::SpanSummary) carries wall-clock nanoseconds.
//!
//! ```
//! use capgpu_telemetry::registry::Registry;
//!
//! let mut reg = Registry::new();
//! let hits = reg.counter("cache_hits", &[("device", "gpu0")]);
//! let power = reg.gauge("power_watts", &[("device", "gpu0")]);
//! reg.inc(hits, 3);
//! reg.set(power, 212.5);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter_value("cache_hits", &[("device", "gpu0")]), Some(3));
//! ```

#![warn(missing_docs)]

pub mod journal;
pub mod registry;
pub mod spans;

/// Errors from telemetry operations (snapshot merging, rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// Two snapshots disagree on a metric's shape (kind or histogram
    /// bucket edges) under the same name+labels key.
    MergeShapeMismatch(String),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::MergeShapeMismatch(key) => {
                write!(f, "snapshot merge: incompatible metric shapes for `{key}`")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Run-level telemetry switches, embedded in a scenario as
/// `Scenario::telemetry: Option<TelemetryConfig>`.
///
/// `None` (the default everywhere) records nothing and leaves every
/// published trace byte-identical. `Some(TelemetryConfig::default())`
/// turns on the deterministic layers only — the metric registry and the
/// event journal — which are safe inside bit-identity-compared sweep
/// results. `trace_spans` additionally arms the wall-clock span stack,
/// which is non-deterministic and must stay out of published artifacts,
/// so it defaults to off even when telemetry is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Also collect wall-clock control-loop spans (non-deterministic).
    pub trace_spans: bool,
}

impl TelemetryConfig {
    /// Deterministic layers only (registry + journal); spans off.
    pub fn deterministic() -> Self {
        TelemetryConfig { trace_spans: false }
    }

    /// Everything on, including wall-clock spans.
    pub fn with_spans() -> Self {
        TelemetryConfig { trace_spans: true }
    }
}
