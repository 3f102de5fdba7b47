//! Observability consumption layer for the CapGPU stack.
//!
//! `capgpu-telemetry` (DESIGN.md §14) is the *emission* side: a metric
//! registry, control-loop spans, and a JSONL event journal. This crate
//! is the *consumption* side — the pieces that turn those journals into
//! rotation-safe durable state, post-crash recovery, and live health
//! verdicts:
//!
//! - [`rotate`] — size/age-based journal segment rollover with a
//!   monotone segment index, CRC-checked segment seals, and a bounded
//!   retention reaper. Ages are measured on the *record clock* (the sim
//!   clock in deterministic runs), so rotation points — and therefore
//!   every committed golden — are byte-identical across reruns.
//! - [`reader`] — a journal-directory reader that verifies sealed
//!   segments, tolerates a torn final record in the active (crashed)
//!   segment, and rejects unknown journal schema major versions with a
//!   clear error. A [`reader::Record`] is the writer's own typed event.
//! - [`replay`] — the crash-recovery state machine: folds
//!   `identified` / `model_gain` / `refit` / `tier_change` /
//!   `setpoint_change` / `quarantine` / `period` events back into the
//!   supervisor tier, model scale + offset, quarantine set, and
//!   in-force actuation targets a restarted `capgpud` needs to resume
//!   within one control period.
//! - [`analyzer`] — streaming health detectors over the period record
//!   stream: multi-window cap-violation burn rate (SRE-style fast/slow
//!   alerting on W·s over cap), actuation-oscillation sign-flip rate
//!   with hysteresis, and actuator-saturation dwell. Verdicts are
//!   edge-triggered so they can be journaled and exported as gauges
//!   without flooding either.
//! - [`report`] — a deterministic offline post-mortem: ingest a journal
//!   directory, replay it, re-run the detectors, and render a timeline
//!   + burn summary suitable for a committed golden.
//!
//! Everything here is dependency-free and deterministic: two reads of
//! the same journal directory produce byte-identical reports.

#![warn(missing_docs)]

pub mod analyzer;
mod crc;
pub mod reader;
pub mod replay;
pub mod report;
pub mod rotate;

pub use crc::crc32;

/// Errors from the observability consumption layer.
#[derive(Debug)]
pub enum ObsError {
    /// Filesystem failure (reading or writing journal segments).
    Io(std::io::Error),
    /// A record failed to parse somewhere other than the torn tail of
    /// the active segment.
    Corrupt {
        /// Which file (or pseudo-source) held the record.
        source: String,
        /// 1-based line number within the source.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A record carries a journal schema major version this reader does
    /// not understand.
    SchemaVersion {
        /// The version found in the record.
        found: u64,
        /// The version this reader supports.
        supported: u64,
    },
    /// A sealed segment failed its integrity check (CRC or record
    /// count mismatch against the seal footer).
    SealMismatch {
        /// Segment index.
        segment: u64,
        /// What disagreed.
        message: String,
    },
    /// Invalid configuration (rotation or analyzer thresholds).
    BadConfig(String),
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io(e) => write!(f, "journal I/O: {e}"),
            ObsError::Corrupt {
                source,
                line,
                message,
            } => write!(f, "corrupt journal record ({source}:{line}): {message}"),
            ObsError::SchemaVersion { found, supported } => write!(
                f,
                "journal schema version {found} is not supported (this reader understands \
                 version {supported}); refusing to replay a journal it could misinterpret"
            ),
            ObsError::SealMismatch { segment, message } => {
                write!(f, "sealed segment {segment} failed verification: {message}")
            }
            ObsError::BadConfig(m) => write!(f, "bad obs configuration: {m}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ObsError>;
