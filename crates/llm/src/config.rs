//! Configuration for the phase-aware LLM serving layer: the two-phase
//! service model, prompt/output length distributions and per-device
//! workload specs, all validated against degenerate inputs with
//! explicit, field-naming error messages.

use capgpu_serve::ArrivalProcess;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{LlmError, Result};

/// An inclusive token-count range; lengths are drawn uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenRange {
    /// Minimum length (tokens), at least 1.
    pub lo: usize,
    /// Maximum length (tokens), at least `lo`.
    pub hi: usize,
}

impl TokenRange {
    /// A fixed length (`lo == hi`).
    pub fn fixed(n: usize) -> Self {
        TokenRange { lo: n, hi: n }
    }

    /// Validates the range: zero-length prompts or outputs are rejected
    /// because a request must do at least one token of work per phase.
    ///
    /// # Errors
    /// [`LlmError::BadConfig`] naming the violated bound.
    pub fn validate(&self) -> Result<()> {
        if self.lo == 0 {
            return Err(LlmError::BadConfig(
                "token range lower bound must be >= 1 (zero-length prompts/outputs are degenerate)",
            ));
        }
        if self.lo > self.hi {
            return Err(LlmError::BadConfig(
                "token range lower bound must not exceed its upper bound",
            ));
        }
        Ok(())
    }

    /// Draws a length uniformly from `[lo, hi]`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi + 1)
        }
    }
}

/// The two-phase service-time model for one GPU.
///
/// Prefill is compute-bound: time scales linearly with prompt tokens
/// and follows the γ frequency law with a large exponent. Decode is
/// memory-bandwidth-bound: each step pays a fixed base plus a KV-read
/// term proportional to the context tokens scanned, with a *small*
/// exponent — lowering the core clock on a decode-heavy device saves
/// little time budget and therefore little power, the asymmetry the
/// phase-aware controller exploits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlmServiceModel {
    /// Maximum core frequency (MHz); the frequency laws normalize here.
    pub f_max_mhz: f64,
    /// Prefill throughput at `f_max_mhz` (prompt tokens per second).
    pub prefill_tok_s: f64,
    /// Frequency-scaling exponent of the prefill phase (compute-bound,
    /// near 1).
    pub gamma_prefill: f64,
    /// Fixed decode-step time at `f_max_mhz` (seconds): kernel launch
    /// plus weight-streaming cost, independent of context length.
    pub decode_base_s: f64,
    /// Additional decode-step time per KV token read (seconds/token):
    /// the attention pass scans every resident context token.
    pub decode_kv_coeff_s: f64,
    /// Frequency-scaling exponent of the decode phase (memory-bound,
    /// near 0).
    pub gamma_decode: f64,
    /// Fixed per-step scheduler overhead (seconds), frequency-blind.
    pub step_overhead_s: f64,
    /// Maximum requests resident in the continuous batch.
    pub max_batch: usize,
    /// KV-cache capacity in tokens.
    pub kv_budget_tokens: usize,
    /// Chunked prefill: at most this many prompt tokens ride along with
    /// each decode step, so decodes never stall behind a whole prompt.
    pub chunk_tokens: usize,
    /// GPU utilization while the device is prefill-busy (power model
    /// coupling; compute-bound prefill drives the core hard).
    pub gpu_util_prefill: f64,
    /// GPU utilization while the device is decode-busy — lower, because
    /// the core idles behind memory in the decode regime.
    pub gpu_util_decode: f64,
}

impl LlmServiceModel {
    /// Validates the model, naming the first offending field.
    ///
    /// # Errors
    /// [`LlmError::BadConfig`].
    pub fn validate(&self) -> Result<()> {
        let pos = |x: f64| x > 0.0 && x.is_finite();
        let nonneg = |x: f64| x >= 0.0 && x.is_finite();
        if !pos(self.f_max_mhz) {
            return Err(LlmError::BadConfig("f_max must be positive and finite"));
        }
        if !pos(self.prefill_tok_s) {
            return Err(LlmError::BadConfig(
                "prefill_tok_s must be positive and finite",
            ));
        }
        if !pos(self.gamma_prefill) {
            return Err(LlmError::BadConfig(
                "gamma_prefill must be positive and finite",
            ));
        }
        if !pos(self.decode_base_s) {
            return Err(LlmError::BadConfig(
                "decode_base_s must be positive and finite",
            ));
        }
        if !nonneg(self.decode_kv_coeff_s) {
            return Err(LlmError::BadConfig(
                "decode_kv_coeff_s must be >= 0 and finite",
            ));
        }
        if !nonneg(self.gamma_decode) {
            return Err(LlmError::BadConfig("gamma_decode must be >= 0 and finite"));
        }
        if !nonneg(self.step_overhead_s) {
            return Err(LlmError::BadConfig(
                "step_overhead_s must be >= 0 and finite",
            ));
        }
        if self.max_batch == 0 {
            return Err(LlmError::BadConfig("max_batch must be >= 1"));
        }
        if self.kv_budget_tokens == 0 {
            return Err(LlmError::BadConfig(
                "kv_budget_tokens must be >= 1 (a zero KV budget admits nothing)",
            ));
        }
        if self.chunk_tokens == 0 {
            return Err(LlmError::BadConfig("chunk_tokens must be >= 1"));
        }
        let util = |x: f64| x > 0.0 && x <= 1.0;
        if !util(self.gpu_util_prefill) {
            return Err(LlmError::BadConfig("gpu_util_prefill must be in (0, 1]"));
        }
        if !util(self.gpu_util_decode) {
            return Err(LlmError::BadConfig("gpu_util_decode must be in (0, 1]"));
        }
        Ok(())
    }

    /// The prefill phase's frequency-law factor `(f_max / f)^γ_prefill`
    /// at effective frequency `f_eff_mhz`. Constant while the clock is:
    /// the engine evaluates it once per window, not once per step.
    #[inline]
    pub fn prefill_freq_factor(&self, f_eff_mhz: f64) -> f64 {
        debug_assert!(f_eff_mhz > 0.0);
        (self.f_max_mhz / f_eff_mhz).powf(self.gamma_prefill)
    }

    /// The decode phase's frequency-law factor `(f_max / f)^γ_decode`;
    /// see [`LlmServiceModel::prefill_freq_factor`].
    #[inline]
    pub fn decode_freq_factor(&self, f_eff_mhz: f64) -> f64 {
        debug_assert!(f_eff_mhz > 0.0);
        (self.f_max_mhz / f_eff_mhz).powf(self.gamma_decode)
    }

    /// Prefill time for `tokens` prompt tokens given the clock's
    /// [`LlmServiceModel::prefill_freq_factor`].
    #[inline]
    pub(crate) fn prefill_s_scaled(&self, tokens: usize, freq_factor: f64) -> f64 {
        tokens as f64 / self.prefill_tok_s * freq_factor
    }

    /// One decode step emitting a token for each participant, scanning
    /// `kv_read_tokens` of resident context in total.
    pub fn decode_step_s(&self, kv_read_tokens: usize, f_eff_mhz: f64) -> f64 {
        self.decode_step_s_scaled(kv_read_tokens, self.decode_freq_factor(f_eff_mhz))
    }

    /// [`LlmServiceModel::decode_step_s`] given the clock's
    /// [`LlmServiceModel::decode_freq_factor`].
    #[inline]
    pub(crate) fn decode_step_s_scaled(&self, kv_read_tokens: usize, freq_factor: f64) -> f64 {
        (self.decode_base_s + kv_read_tokens as f64 * self.decode_kv_coeff_s) * freq_factor
    }
}

/// One device's LLM workload: the arrival process plus the prompt and
/// output length distributions and per-token SLOs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmTaskSpec {
    /// Request arrival process.
    pub arrival: ArrivalProcess,
    /// Prompt-length distribution (tokens).
    pub prompt: TokenRange,
    /// Output-length distribution (tokens).
    pub output: TokenRange,
    /// Time-to-first-token SLO (seconds).
    pub ttft_slo_s: f64,
    /// Inter-token latency SLO (seconds).
    pub itl_slo_s: f64,
}

impl LlmTaskSpec {
    /// Validates the spec against a service model's KV budget.
    ///
    /// # Errors
    /// [`LlmError::BadConfig`].
    pub fn validate(&self, model: &LlmServiceModel) -> Result<()> {
        self.arrival.validate()?;
        self.prompt.validate()?;
        self.output.validate()?;
        // Deadlock freedom: the largest possible request must fit the
        // cache alone, otherwise admission can stall forever.
        if self.prompt.hi + self.output.hi > model.kv_budget_tokens {
            return Err(LlmError::BadConfig(
                "largest prompt + output must fit the KV budget (admission would deadlock)",
            ));
        }
        let pos = |x: f64| x > 0.0 && x.is_finite();
        if !pos(self.ttft_slo_s) {
            return Err(LlmError::BadConfig(
                "ttft_slo_s must be positive and finite",
            ));
        }
        if !pos(self.itl_slo_s) {
            return Err(LlmError::BadConfig("itl_slo_s must be positive and finite"));
        }
        Ok(())
    }
}

/// Server-level LLM serving configuration: one task per GPU device,
/// sharing a service model (homogeneous devices).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmConfig {
    /// The shared two-phase service model.
    pub model: LlmServiceModel,
    /// One workload spec per GPU device, in device order.
    pub tasks: Vec<LlmTaskSpec>,
    /// Bounded request-queue capacity per device.
    pub queue_capacity: usize,
}

impl LlmConfig {
    /// Validates the model, every task and the queue bound.
    ///
    /// # Errors
    /// [`LlmError::BadConfig`].
    pub fn validate(&self) -> Result<()> {
        self.model.validate()?;
        if self.tasks.is_empty() {
            return Err(LlmError::BadConfig("llm config needs at least one task"));
        }
        for task in &self.tasks {
            task.validate(&self.model)?;
        }
        if self.queue_capacity == 0 {
            return Err(LlmError::BadConfig("queue_capacity must be >= 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model() -> LlmServiceModel {
        LlmServiceModel {
            f_max_mhz: 1380.0,
            prefill_tok_s: 8000.0,
            gamma_prefill: 0.95,
            decode_base_s: 0.02,
            decode_kv_coeff_s: 1.5e-7,
            gamma_decode: 0.2,
            step_overhead_s: 5e-4,
            max_batch: 32,
            kv_budget_tokens: 60_000,
            chunk_tokens: 512,
            gpu_util_prefill: 0.95,
            gpu_util_decode: 0.55,
        }
    }

    fn task() -> LlmTaskSpec {
        LlmTaskSpec {
            arrival: ArrivalProcess::Poisson { rate_rps: 2.0 },
            prompt: TokenRange { lo: 200, hi: 600 },
            output: TokenRange { lo: 80, hi: 200 },
            ttft_slo_s: 0.6,
            itl_slo_s: 0.08,
        }
    }

    #[test]
    fn model_validation_names_fields() {
        let msg = |m: LlmServiceModel| match m.validate() {
            Err(LlmError::BadConfig(s)) => s,
            Ok(()) => panic!("expected error"),
        };
        let mut m = model();
        m.prefill_tok_s = 0.0;
        assert!(msg(m).contains("prefill_tok_s"));
        let mut m = model();
        m.decode_base_s = -1.0;
        assert!(msg(m).contains("decode_base_s"));
        let mut m = model();
        m.gamma_decode = f64::NAN;
        assert!(msg(m).contains("gamma_decode"));
        let mut m = model();
        m.kv_budget_tokens = 0;
        assert!(msg(m).contains("kv_budget_tokens"));
        let mut m = model();
        m.chunk_tokens = 0;
        assert!(msg(m).contains("chunk_tokens"));
        let mut m = model();
        m.gpu_util_decode = 1.5;
        assert!(msg(m).contains("gpu_util_decode"));
        assert!(model().validate().is_ok());
    }

    #[test]
    fn token_range_rejects_degenerate_inputs() {
        assert!(TokenRange { lo: 0, hi: 5 }.validate().is_err());
        assert!(TokenRange { lo: 6, hi: 5 }.validate().is_err());
        assert!(TokenRange::fixed(1).validate().is_ok());
    }

    #[test]
    fn task_validation_enforces_kv_deadlock_freedom() {
        let m = model();
        let mut t = task();
        assert!(t.validate(&m).is_ok());
        t.prompt = TokenRange::fixed(59_990);
        t.output = TokenRange::fixed(11);
        match t.validate(&m) {
            Err(LlmError::BadConfig(s)) => assert!(s.contains("deadlock")),
            Ok(()) => panic!("oversized request must be rejected"),
        }
        let mut t = task();
        t.ttft_slo_s = 0.0;
        assert!(t.validate(&m).is_err());
        let mut t = task();
        t.itl_slo_s = f64::NAN;
        assert!(t.validate(&m).is_err());
    }

    #[test]
    fn config_validation() {
        let cfg = LlmConfig {
            model: model(),
            tasks: vec![task()],
            queue_capacity: 256,
        };
        assert!(cfg.validate().is_ok());
        let mut bad = cfg.clone();
        bad.tasks.clear();
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.queue_capacity = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn sampling_respects_bounds_and_frequency_laws_hold() {
        let mut rng = StdRng::seed_from_u64(9);
        let r = TokenRange { lo: 10, hi: 20 };
        for _ in 0..200 {
            let n = r.sample(&mut rng);
            assert!((10..=20).contains(&n));
        }
        let m = model();
        // Prefill halves its speed roughly with frequency (γ ≈ 1)...
        let prefill_s = |f| m.prefill_s_scaled(1000, m.prefill_freq_factor(f));
        let (fast, slow) = (prefill_s(1380.0), prefill_s(690.0));
        assert!(slow / fast > 1.8);
        // ...while decode barely notices the same cut (γ ≈ 0.2).
        let dfast = m.decode_step_s(10_000, 1380.0);
        let dslow = m.decode_step_s(10_000, 690.0);
        assert!(dslow / dfast < 1.2);
    }
}
