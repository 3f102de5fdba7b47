//! Phase-aware LLM serving for CapGPU: two-phase requests, continuous
//! batching, and KV-cache pressure under a power cap.
//!
//! The one-shot serving layer (`capgpu-serve`) models a request as a
//! single unit of GPU work, which fits CNN-style inference but not LLM
//! inference, where each request is two very different regimes:
//!
//! * **Prefill** — the prompt is processed in one compute-bound pass
//!   whose cost scales with prompt length and responds strongly to core
//!   frequency (large γ).
//! * **Decode** — tokens are generated one at a time, each step reading
//!   the whole KV cache; the work is memory-bandwidth-bound and barely
//!   responds to core frequency (small γ), so capping a decode-heavy
//!   device buys almost no power back while inflating inter-token
//!   latency ("The Illusion of Power Capping in LLM Decode", PAPERS.md).
//!
//! This crate supplies the token level:
//!
//! * [`config`] — the two-phase service model ([`LlmServiceModel`]),
//!   prompt/output length distributions ([`TokenRange`]) and per-device
//!   workload specs ([`LlmTaskSpec`], [`LlmConfig`]) with hardened
//!   validation (zero-length prompts, zero KV budgets and other
//!   degenerate inputs are named explicitly).
//! * [`engine`] — [`LlmEngine`], a deterministic continuous batcher
//!   (iteration-level scheduling, vLLM-style): decodes proceed
//!   token-by-token while new prefills join the running set, a bounded
//!   prompt chunk riding along with every decode step (chunked
//!   prefill); KV-cache occupancy is accounted
//!   exactly, admission reserves a request's full context and cache
//!   pressure preempts the youngest request for recompute.
//!
//! Window statistics reuse [`capgpu_serve::ServeWindowStats`], extended
//! with per-phase busy time, token counters, KV occupancy and TTFT /
//! inter-token latency samples — the phase-mix signal the capping loop
//! consumes.
//!
//! ## Determinism
//!
//! Arrival times and prompt/output lengths come from seeded `StdRng`
//! streams owned by the engine; simultaneous events are ordered by a monotone
//! sequence number. The same seed produces bit-identical token streams
//! across runs and thread counts, the invariant `capgpu::sweep` relies
//! on.

#![warn(missing_docs)]

pub mod config;
pub mod engine;

pub use config::{LlmConfig, LlmServiceModel, LlmTaskSpec, TokenRange};
pub use engine::LlmEngine;

/// Errors from the LLM serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// Invalid configuration.
    BadConfig(&'static str),
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmError::BadConfig(m) => write!(f, "bad llm config: {m}"),
        }
    }
}

impl std::error::Error for LlmError {}

impl From<capgpu_serve::ServeError> for LlmError {
    fn from(e: capgpu_serve::ServeError) -> Self {
        match e {
            capgpu_serve::ServeError::BadConfig(m) => LlmError::BadConfig(m),
        }
    }
}

/// Result alias for the LLM serving layer.
pub type Result<T> = std::result::Result<T, LlmError>;
