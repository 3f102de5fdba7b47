//! Experiment scenarios: server composition, workloads, schedules.

use capgpu_llm::{LlmConfig, LlmServiceModel, LlmTaskSpec, TokenRange};
use capgpu_serve::ArrivalProcess;
use capgpu_sim::{presets, DeviceSpec};
use capgpu_workload::models::{self, ModelProfile};
use serde::{Deserialize, Serialize};

use crate::{CapGpuError, Result};

/// A mid-run scheduled event (the §6.4 online-adaptability experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScheduledChange {
    /// Change the power set point at the given control period.
    SetPoint {
        /// Control period index at which the change takes effect.
        at_period: usize,
        /// New set point (W).
        watts: f64,
    },
    /// Change one GPU task's latency SLO at the given control period.
    Slo {
        /// Control period index at which the change takes effect.
        at_period: usize,
        /// GPU task index (0-based, in GPU order).
        task: usize,
        /// New SLO (seconds per batch).
        slo_s: f64,
    },
    /// Change one GPU task's request arrival rate (open-loop pipelines
    /// only) — the §6.4 demand surge.
    ArrivalRate {
        /// Control period index at which the change takes effect.
        at_period: usize,
        /// GPU task index (0-based, in GPU order).
        task: usize,
        /// New mean arrival rate (images/s).
        rate_img_s: f64,
    },
    /// Scale one device's true dynamic power gain (synthetic plant
    /// drift: aging, fan/VRM degradation, a driver power-management
    /// update). The controller's identified model is *not* told — this
    /// is the model-plant mismatch that the §6.4 drift ablation uses to
    /// compare one-shot identification against RLS tracking.
    GainDrift {
        /// Control period index at which the change takes effect.
        at_period: usize,
        /// Device index (0 = CPU, then GPUs in order).
        device: usize,
        /// Multiplier applied to the device's `gain_w_per_mhz`.
        factor: f64,
    },
    /// Scale one serving task's request arrival intensity (a traffic
    /// burst or ebb). Requires the scenario's serving layer to be
    /// enabled; takes effect from the next drawn arrival.
    ServingBurst {
        /// Control period index at which the change takes effect.
        at_period: usize,
        /// GPU task index (0-based, in GPU order).
        task: usize,
        /// Multiplier on the task's nominal arrival intensity.
        factor: f64,
    },
}

/// The latency-model exponent the *controller* plans with: the paper's
/// fitted γ = 0.91 (Fig. 2b). The simulated plant's ground truth differs
/// per model, so the controller always carries some model error.
pub const GAMMA_FITTED: f64 = 0.91;

/// Request-level serving configuration (the `capgpu-serve` bridge).
///
/// When enabled on a [`Scenario`], each GPU task's closed/open-loop
/// pipeline model is replaced by a deterministic discrete-event serving
/// engine: requests arrive by the task's [`ArrivalProcess`], wait in a
/// bounded FIFO queue, and are dispatched by a size-or-timeout dynamic
/// batcher whose service time follows the γ latency law at the device's
/// effective frequency. Per-request completions feed the SLO tracker
/// (constraint (10b) checked against *measured* p99 rather than the
/// steady-state model) and per-period queue drain becomes the
/// throughput signal. `None` (the default everywhere) keeps the paper's
/// period-level model and leaves every published trace byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Per-GPU-task arrival process, in GPU order.
    pub arrivals: Vec<ArrivalProcess>,
    /// Dynamic-batching timeout: a partial batch launches once its
    /// oldest request has waited this long (s).
    pub batch_timeout_s: f64,
    /// Request queue capacity per GPU (requests beyond it are shed).
    pub queue_capacity: usize,
    /// Batch-efficiency overhead in `[0, 1)`: the fraction of the
    /// full-batch service time any batch pays regardless of its size.
    pub batch_overhead: f64,
}

impl ServingConfig {
    /// Poisson arrivals at the given per-task mean rates with the
    /// defaults used by the serving evaluation: a 50 ms batching
    /// timeout, a 256-request queue, and a 0.3 batch-overhead floor.
    pub fn poisson(rates_rps: &[f64]) -> Self {
        ServingConfig {
            arrivals: rates_rps
                .iter()
                .map(|&r| ArrivalProcess::Poisson { rate_rps: r })
                .collect(),
            batch_timeout_s: 0.05,
            queue_capacity: 256,
            batch_overhead: 0.3,
        }
    }
}

/// A full experiment scenario: the server, its workloads and timing.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// RNG seed for all stochastic components.
    pub seed: u64,
    /// Device specs (CPUs first by convention; see [`Scenario::validate`]).
    pub devices: Vec<DeviceSpec>,
    /// Constant platform power (W).
    pub platform_watts: f64,
    /// One inference model per GPU, in GPU order (t₁ → GPU 0, …).
    pub gpu_models: Vec<ModelProfile>,
    /// Preprocessing workers per GPU pipeline.
    pub workers_per_pipeline: usize,
    /// Shared queue capacity per pipeline (images).
    pub queue_capacity: usize,
    /// Control period T in seconds (paper: 4).
    pub control_period_s: usize,
    /// Multiplicative safety factor on SLO frequency floors, covering the
    /// fitted-γ model error, latency jitter, and the delta-sigma
    /// modulator's dips to the level below the target.
    pub slo_margin: f64,
    /// Enable the §4.4 "multi-layer adaptation" escape hatch: when the
    /// set point is unreachable with every core clock at its floor, the
    /// runner engages the GPUs' low-memory-clock states (and releases
    /// them with hysteresis once frequency scaling regains authority).
    pub memory_escape: bool,
    /// Per-task open-loop arrival rates (images/s). `None` = closed-loop
    /// saturating streams (the paper's evaluation default).
    pub arrival_rates: Option<Vec<f64>>,
    /// Initial per-GPU-task SLOs in seconds (`None` = no SLO constraint).
    pub slos: Vec<Option<f64>>,
    /// Scheduled mid-run changes.
    pub changes: Vec<ScheduledChange>,
    /// Identification sweep points per device (paper §4.2 sweeps 8).
    pub sysid_steps_per_device: usize,
    /// Continuous (streaming) model tracking, the §6.4 online
    /// re-identification generalized to every control period: the runner
    /// feeds each period's `(applied F, p̄)` sample into the streaming
    /// gain-scale tracker seeded with the startup excitation sweep, and
    /// pushes the refreshed model into the controller at the end of the
    /// period — `O(n)` per period instead of an `O(m·n²)` batch refit. Its tuning is fixed (the `RLS_*`
    /// constants in [`crate::runner`]). `false` (the default everywhere)
    /// keeps the paper's one-shot identification and leaves every
    /// published trace byte-identical.
    pub rls_tracking: bool,
    /// Request-level serving layer; `None` (the default everywhere)
    /// keeps the period-level pipeline model and leaves every published
    /// trace byte-identical.
    pub serving: Option<ServingConfig>,
    /// Two-phase LLM serving layer (`capgpu-llm`): prefill/decode
    /// requests under continuous batching with KV-cache accounting,
    /// replacing the pipeline plant and feeding the controller a
    /// per-device phase-mix signal. Mutually exclusive with
    /// [`Scenario::serving`]; `None` (the default everywhere) leaves
    /// every published trace byte-identical.
    pub llm: Option<LlmConfig>,
    /// Fault-injection schedule (`capgpu-faults`); `None` (the default
    /// everywhere) injects nothing and leaves every published trace
    /// byte-identical.
    pub faults: Option<capgpu_faults::FaultSchedule>,
    /// Supervisory failover layer wrapping the run's controller; `None`
    /// (the default everywhere) runs the controller bare and leaves
    /// every published trace byte-identical.
    pub supervisor: Option<crate::supervisor::SupervisorConfig>,
    /// Telemetry recording (`capgpu-telemetry`): metric registry and
    /// event journal, plus wall-clock spans under
    /// [`TelemetryConfig::trace_spans`](capgpu_telemetry::TelemetryConfig).
    /// `None` (the default everywhere) records nothing and leaves every
    /// published trace byte-identical. The registry/journal layers are
    /// deterministic (sim-clock values only) and safe inside
    /// bit-identity-compared sweep results; spans are not.
    pub telemetry: Option<capgpu_telemetry::TelemetryConfig>,
}

impl Scenario {
    /// The paper's evaluation testbed (§5–6): one Xeon Gold 5215, three
    /// Tesla V100s running t₁ = ResNet50, t₂ = Swin-T, t₃ = VGG16 (one
    /// dedicated preprocessing core each), exhaustive feature selection on
    /// the remaining cores, T = 4 s, γ = 0.91, no SLOs.
    pub fn paper_testbed(seed: u64) -> Self {
        Scenario {
            seed,
            devices: vec![
                presets::xeon_gold_5215(),
                presets::tesla_v100(),
                presets::tesla_v100(),
                presets::tesla_v100(),
            ],
            // Fans (pinned per §5), RAM, NVMe, VRM losses. Sized so the
            // paper's full 900–1200 W set-point sweep is feasible at the
            // workload's realistic utilizations.
            platform_watts: 330.0,
            gpu_models: models::evaluation_models(),
            workers_per_pipeline: 2,
            queue_capacity: 64,
            control_period_s: 4,
            slo_margin: 1.06,
            memory_escape: false,
            arrival_rates: None,
            slos: vec![None, None, None],
            changes: Vec::new(),
            sysid_steps_per_device: 8,
            rls_tracking: false,
            serving: None,
            llm: None,
            faults: None,
            supervisor: None,
            telemetry: None,
        }
    }

    /// An 8-GPU scale-out testbed (the paper: "a server is usually
    /// equipped with one host CPU and up to eight GPUs"): one Xeon plus
    /// eight Tesla V100s, cycling the three evaluation models across the
    /// GPUs, with a platform floor sized for the bigger chassis.
    pub fn eight_gpu_testbed(seed: u64) -> Self {
        let mut devices = vec![presets::xeon_gold_5215()];
        let mut gpu_models = Vec::with_capacity(8);
        let eval = models::evaluation_models();
        for i in 0..8 {
            devices.push(presets::tesla_v100());
            gpu_models.push(eval[i % eval.len()].clone());
        }
        Scenario {
            seed,
            devices,
            platform_watts: 550.0,
            gpu_models,
            workers_per_pipeline: 2,
            queue_capacity: 64,
            control_period_s: 4,
            slo_margin: 1.06,
            memory_escape: false,
            arrival_rates: None,
            slos: vec![None; 8],
            changes: Vec::new(),
            sysid_steps_per_device: 8,
            rls_tracking: false,
            serving: None,
            llm: None,
            faults: None,
            supervisor: None,
            telemetry: None,
        }
    }

    /// The §3.2 motivation testbed: one Xeon + one RTX 3090 running
    /// GoogLeNet with ten parallel preprocessing workers.
    pub fn motivation_testbed(seed: u64) -> Self {
        Scenario {
            seed,
            devices: vec![presets::xeon_gold_5215(), presets::rtx_3090()],
            platform_watts: 120.0,
            gpu_models: vec![models::googlenet_wildlife()],
            workers_per_pipeline: 10,
            queue_capacity: 20,
            control_period_s: 4,
            slo_margin: 1.06,
            memory_escape: false,
            arrival_rates: None,
            slos: vec![None],
            changes: Vec::new(),
            sysid_steps_per_device: 8,
            rls_tracking: false,
            serving: None,
            llm: None,
            faults: None,
            supervisor: None,
            telemetry: None,
        }
    }

    /// The paper testbed with the request-level serving layer enabled:
    /// Poisson arrivals at ~60% of each task's full-clock capacity
    /// (ResNet50 ≈ 364 rps, Swin-T ≈ 235 rps, VGG16 ≈ 154 rps at batch
    /// 20) and per-request latency SLOs of 4× each model's full-batch
    /// time. Deep power caps push the effective frequency down, queues
    /// build, and measured p99 diverges — the regime the p99-vs-cap
    /// ablation explores.
    pub fn serving_testbed(seed: u64) -> Self {
        let mut s = Scenario::paper_testbed(seed);
        let rates: Vec<f64> = s
            .gpu_models
            .iter()
            .map(|m| 0.6 * m.batch_size as f64 / m.e_min_s)
            .collect();
        let slos: Vec<Option<f64>> = s.gpu_models.iter().map(|m| Some(4.0 * m.e_min_s)).collect();
        s.serving = Some(ServingConfig::poisson(&rates));
        s.slos = slos;
        s
    }

    /// The paper testbed with the two-phase LLM serving layer enabled:
    /// the three V100s serve three request mixes spanning the
    /// prefill/decode spectrum — t₁ *summarize* (long prompts, short
    /// answers: compute-bound prefill dominates), t₂ *chat* (balanced),
    /// t₃ *agent* (long prompts **and** long answers: memory-bound
    /// decode dominates the busy time while the large resident contexts
    /// keep the KV cache near its budget) — under continuous batching
    /// with chunked prefill and a 24k-token KV budget per GPU. The agent
    /// task is the phase signal's showcase: parking its GPU stretches
    /// decode residency, KV admission stalls, and TTFT collapses — while
    /// barely saving watts. Per-task TTFT and inter-token SLOs are
    /// tracked against measured percentiles; the per-GPU *batch* SLO
    /// floors stay off (`slos = None`) so the phase-mix signal, not a
    /// frequency floor, is what protects decode latency under a cap.
    pub fn llm_testbed(seed: u64) -> Self {
        let model = LlmServiceModel {
            f_max_mhz: 1350.0,
            prefill_tok_s: 16000.0,
            gamma_prefill: 0.95,
            decode_base_s: 0.02,
            decode_kv_coeff_s: 1.5e-7,
            gamma_decode: 0.2,
            step_overhead_s: 5e-4,
            max_batch: 32,
            kv_budget_tokens: 24_000,
            chunk_tokens: 512,
            gpu_util_prefill: 0.95,
            gpu_util_decode: 0.55,
        };
        let task = |rate_rps, p_lo, p_hi, o_lo, o_hi, ttft, itl| LlmTaskSpec {
            arrival: ArrivalProcess::Poisson { rate_rps },
            prompt: TokenRange { lo: p_lo, hi: p_hi },
            output: TokenRange { lo: o_lo, hi: o_hi },
            ttft_slo_s: ttft,
            itl_slo_s: itl,
        };
        let mut s = Scenario::paper_testbed(seed);
        s.llm = Some(LlmConfig {
            model,
            tasks: vec![
                // Summarize: prefill-heavy, elastic to the cap.
                task(1.2, 800, 1600, 30, 80, 1.0, 0.08),
                // Chat: balanced.
                task(1.5, 200, 600, 80, 200, 0.6, 0.08),
                // Agent: decode-bound and KV-hungry — long resident
                // contexts put TTFT at the mercy of cache admission.
                task(0.8, 1500, 2500, 250, 450, 6.0, 0.08),
            ],
            queue_capacity: 128,
        });
        s
    }

    /// The paper testbed under the canonical seeded fault storm
    /// (`capgpu-faults`): an intermittent meter-dropout storm, a bias
    /// drift, a stuck GPU clock, a GPU ejection/re-admission, and a PSU
    /// derate, staged across a 60-period horizon. Per-task SLOs of 4×
    /// each model's full-batch time give the storm a tail-latency cost
    /// to report. The supervisor is *not* enabled here — pair with
    /// [`Scenario::with_supervisor`] to compare supervised vs. bare.
    pub fn fault_testbed(seed: u64) -> Self {
        let mut s = Scenario::paper_testbed(seed);
        s.slos = s.gpu_models.iter().map(|m| Some(4.0 * m.e_min_s)).collect();
        s.faults =
            Some(capgpu_faults::FaultSchedule::storm(seed, 1.0).expect("intensity 1.0 is valid"));
        s
    }

    /// Adds a scheduled change, returning `self` for chaining.
    #[must_use]
    pub fn with_change(mut self, change: ScheduledChange) -> Self {
        self.changes.push(change);
        self
    }

    /// Sets the fault-injection schedule, returning `self` for chaining.
    #[must_use]
    pub fn with_faults(mut self, faults: capgpu_faults::FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables the supervisory failover layer, returning `self` for
    /// chaining.
    #[must_use]
    pub fn with_supervisor(mut self, cfg: crate::supervisor::SupervisorConfig) -> Self {
        self.supervisor = Some(cfg);
        self
    }

    /// Enables telemetry recording, returning `self` for chaining.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: capgpu_telemetry::TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets initial SLOs, returning `self` for chaining.
    #[must_use]
    pub fn with_slos(mut self, slos: Vec<Option<f64>>) -> Self {
        self.slos = slos;
        self
    }

    /// Number of GPUs in the scenario.
    pub fn num_gpus(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.kind == capgpu_sim::DeviceKind::Gpu)
            .count()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] with a description of the inconsistency.
    pub fn validate(&self) -> Result<()> {
        if self.devices.is_empty() {
            return Err(CapGpuError::BadConfig("scenario needs devices".into()));
        }
        let n_gpus = self.num_gpus();
        if n_gpus == 0 {
            return Err(CapGpuError::BadConfig("scenario needs >= 1 GPU".into()));
        }
        if n_gpus == self.devices.len() {
            return Err(CapGpuError::BadConfig(
                "scenario needs a CPU device (it hosts preprocessing and feature selection)".into(),
            ));
        }
        if self.gpu_models.len() != n_gpus {
            return Err(CapGpuError::BadConfig(format!(
                "{} GPU models for {} GPUs",
                self.gpu_models.len(),
                n_gpus
            )));
        }
        if self.slos.len() != n_gpus {
            return Err(CapGpuError::BadConfig(format!(
                "{} SLO entries for {} GPUs",
                self.slos.len(),
                n_gpus
            )));
        }
        if self.workers_per_pipeline == 0 {
            return Err(CapGpuError::BadConfig(
                "workers_per_pipeline must be >= 1".into(),
            ));
        }
        if let Some(m) = (self.gpu_models.iter())
            .find(|m| m.batch_size == 0 || self.queue_capacity < m.batch_size)
        {
            return Err(CapGpuError::BadConfig(format!(
                "queue_capacity {} cannot hold one {} batch of {} (batches must be non-empty)",
                self.queue_capacity, m.name, m.batch_size
            )));
        }
        // Every plant kind reads these profiles (the request-level ones
        // take their service times and the controller its model from them).
        for m in &self.gpu_models {
            m.validate()
                .map_err(|e| CapGpuError::BadConfig(format!("gpu model {}: {e}", m.name)))?;
        }
        if self.control_period_s == 0 {
            return Err(CapGpuError::BadConfig(
                "control period must be >= 1 s".into(),
            ));
        }
        if self.sysid_steps_per_device < 2 {
            return Err(CapGpuError::BadConfig(
                "sysid_steps_per_device must be >= 2".into(),
            ));
        }
        // Open-loop pipeline arrivals have nothing to act on once a
        // request-level plant replaces the pipeline model.
        let scheduled_rate =
            (self.changes.iter()).any(|c| matches!(c, ScheduledChange::ArrivalRate { .. }));
        let request_plant = match (&self.serving, &self.llm) {
            (Some(_), _) => Some("serving"),
            (None, Some(_)) => Some("llm"),
            (None, None) => None,
        };
        if let Some(plant) =
            request_plant.filter(|_| self.arrival_rates.is_some() || scheduled_rate)
        {
            return Err(CapGpuError::BadConfig(format!(
                "arrival_rates and arrival-rate changes drive the pipeline plant, but this \
                 scenario runs the {plant} plant (its arrival processes and serving bursts \
                 set the load)"
            )));
        }
        if let Some(rates) = &self.arrival_rates {
            if rates.len() != n_gpus {
                return Err(CapGpuError::BadConfig(format!(
                    "{} arrival rates for {n_gpus} GPUs",
                    rates.len()
                )));
            }
            if rates.iter().any(|r| *r <= 0.0) {
                return Err(CapGpuError::BadConfig(
                    "arrival rates must be positive".into(),
                ));
            }
        }
        if let Some(serving) = &self.serving {
            if serving.arrivals.len() != n_gpus {
                return Err(CapGpuError::BadConfig(format!(
                    "{} serving arrival processes for {n_gpus} GPUs",
                    serving.arrivals.len()
                )));
            }
            for p in &serving.arrivals {
                p.validate()?;
            }
            if !(serving.batch_timeout_s >= 0.0 && serving.batch_timeout_s.is_finite()) {
                return Err(CapGpuError::BadConfig(
                    "serving.batch_timeout_s must be finite and >= 0".into(),
                ));
            }
            if !(0.0..1.0).contains(&serving.batch_overhead) {
                return Err(CapGpuError::BadConfig(
                    "serving.batch_overhead must be in [0, 1)".into(),
                ));
            }
            if let Some(m) = self
                .gpu_models
                .iter()
                .find(|m| serving.queue_capacity < m.batch_size)
            {
                return Err(CapGpuError::BadConfig(format!(
                    "serving.queue_capacity {} cannot hold one {} batch of {}",
                    serving.queue_capacity, m.name, m.batch_size
                )));
            }
        }
        if let Some(llm) = &self.llm {
            if self.serving.is_some() {
                return Err(CapGpuError::BadConfig(
                    "the llm and serving layers are mutually exclusive — \
                     each replaces the GPU-side plant"
                        .into(),
                ));
            }
            if llm.tasks.len() != n_gpus {
                return Err(CapGpuError::BadConfig(format!(
                    "{} llm tasks for {n_gpus} GPUs",
                    llm.tasks.len()
                )));
            }
            llm.validate()?;
        }
        if let Some(faults) = &self.faults {
            let kinds: Vec<capgpu_sim::DeviceKind> = self.devices.iter().map(|d| d.kind).collect();
            faults.validate(&kinds)?;
        }
        if let Some(sup) = &self.supervisor {
            sup.validate()?;
        }
        for change in &self.changes {
            match change {
                ScheduledChange::Slo { task, .. } if *task >= n_gpus => {
                    return Err(CapGpuError::BadConfig(format!(
                        "SLO change targets task {task} but there are {n_gpus} GPUs"
                    )));
                }
                ScheduledChange::ArrivalRate { task, .. } if *task >= n_gpus => {
                    return Err(CapGpuError::BadConfig(format!(
                        "arrival-rate change targets task {task} but there are {n_gpus} GPUs"
                    )));
                }
                ScheduledChange::ArrivalRate { .. } if self.arrival_rates.is_none() => {
                    return Err(CapGpuError::BadConfig(
                        "arrival-rate change requires open-loop arrival_rates".into(),
                    ));
                }
                ScheduledChange::ServingBurst { task, factor, .. } => {
                    if self.serving.is_none() && self.llm.is_none() {
                        return Err(CapGpuError::BadConfig(
                            "serving burst requires the serving or llm layer to be enabled".into(),
                        ));
                    }
                    if *task >= n_gpus {
                        return Err(CapGpuError::BadConfig(format!(
                            "serving burst targets task {task} but there are {n_gpus} GPUs"
                        )));
                    }
                    if *factor <= 0.0 || !factor.is_finite() {
                        return Err(CapGpuError::BadConfig(
                            "serving burst factor must be finite and > 0".into(),
                        ));
                    }
                }
                ScheduledChange::GainDrift { device, factor, .. } => {
                    if *device >= self.devices.len() {
                        return Err(CapGpuError::BadConfig(format!(
                            "gain drift targets device {device} but there are {} devices",
                            self.devices.len()
                        )));
                    }
                    if *factor <= 0.0 || !factor.is_finite() {
                        return Err(CapGpuError::BadConfig(
                            "gain drift factor must be finite and > 0".into(),
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_valid() {
        let s = Scenario::paper_testbed(1);
        s.validate().unwrap();
        assert_eq!(s.num_gpus(), 3);
        assert_eq!(s.control_period_s, 4);
        assert_eq!(s.gpu_models[0].name, "ResNet50");
    }

    #[test]
    fn motivation_testbed_is_valid() {
        let s = Scenario::motivation_testbed(1);
        s.validate().unwrap();
        assert_eq!(s.num_gpus(), 1);
        assert_eq!(s.workers_per_pipeline, 10);
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut s = Scenario::paper_testbed(1);
        s.gpu_models.pop();
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_testbed(1);
        s.slos.pop();
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_testbed(1);
        s.control_period_s = 0;
        assert!(s.validate().is_err());

        let s = Scenario::paper_testbed(1).with_change(ScheduledChange::Slo {
            at_period: 5,
            task: 9,
            slo_s: 0.1,
        });
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_testbed(1);
        s.sysid_steps_per_device = 1;
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_testbed(1);
        s = s.with_change(ScheduledChange::GainDrift {
            at_period: 5,
            device: 9,
            factor: 1.5,
        });
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_testbed(1);
        s = s.with_change(ScheduledChange::GainDrift {
            at_period: 5,
            device: 1,
            factor: 0.0,
        });
        assert!(s.validate().is_err());

        // The device bound counts every device, not one CPU plus the GPUs.
        let mut two_cpus = Scenario::paper_testbed(1);
        two_cpus.devices.insert(1, presets::xeon_gold_5215());
        let drift = |device| {
            two_cpus.clone().with_change(ScheduledChange::GainDrift {
                at_period: 5,
                device,
                factor: 1.5,
            })
        };
        drift(4).validate().unwrap();
        let msg = format!("{}", drift(5).validate().unwrap_err());
        assert!(msg.contains("device 5 but there are 5 devices"), "{msg}");

        // No CPU device: nothing hosts preprocessing or feature selection.
        let mut s = Scenario::paper_testbed(1);
        s.devices.remove(0);
        let msg = format!("{}", s.validate().unwrap_err());
        assert!(msg.contains("CPU device"), "{msg}");

        // The pipeline's own construction checks, for every plant kind.
        for make in [
            Scenario::paper_testbed,
            Scenario::serving_testbed,
            Scenario::llm_testbed,
        ] {
            let mut s = make(1);
            s.workers_per_pipeline = 0;
            assert!(s.validate().is_err());
            let mut s = make(1);
            s.queue_capacity = 5; // < batch 20
            assert!(s.validate().is_err());
        }

        let mut s = Scenario::paper_testbed(1);
        s.rls_tracking = true;
        s.validate().unwrap();
    }

    /// A model profile a plant cannot run (here one whose pipeline clock
    /// would never advance, and one with NaN latency) is rejected before
    /// any plant is built, for every plant kind, naming the model.
    #[test]
    fn bad_model_profile_rejected_for_every_plant_kind() {
        for make in [
            Scenario::paper_testbed,
            Scenario::serving_testbed,
            Scenario::llm_testbed,
        ] {
            let mut s = make(1);
            s.gpu_models[1].e_min_s = 0.0;
            s.gpu_models[1].preprocess_s_per_image = 0.0;
            let msg = format!("{}", s.validate().unwrap_err());
            assert!(
                msg.contains("gpu model Swin-T: ") && msg.contains("e_min_s"),
                "{msg}"
            );
            let mut s = make(1);
            s.gpu_models[2].e_min_s = f64::NAN;
            assert!(s.validate().is_err());
        }
    }

    /// Open-loop pipeline arrivals on a request-level scenario: rejected
    /// with a message that names the plant actually running.
    fn assert_rejects_pipeline_arrivals(base: Scenario, plant: &str) {
        let mut s = base.clone();
        s.arrival_rates = Some(vec![50.0; s.gpu_models.len()]);
        let msg = format!("{}", s.validate().unwrap_err());
        assert!(msg.contains(&format!("the {plant} plant")), "{msg}");

        let s = base.with_change(ScheduledChange::ArrivalRate {
            at_period: 5,
            task: 0,
            rate_img_s: 80.0,
        });
        let msg = format!("{}", s.validate().unwrap_err());
        assert!(msg.contains(&format!("the {plant} plant")), "{msg}");
    }

    #[test]
    fn serving_testbed_is_valid() {
        let s = Scenario::serving_testbed(1);
        s.validate().unwrap();
        let cfg = s.serving.as_ref().expect("serving enabled");
        assert_eq!(cfg.arrivals.len(), 3);
        // ~60% of ResNet50's 20/0.055 ≈ 364 rps capacity.
        assert!((cfg.arrivals[0].mean_rate_rps() - 218.18).abs() < 0.5);
        assert!(s.slos.iter().all(Option::is_some));
    }

    #[test]
    fn serving_validation_catches_mismatches() {
        let mut s = Scenario::serving_testbed(1);
        s.serving.as_mut().unwrap().arrivals.pop();
        assert!(s.validate().is_err());

        let mut s = Scenario::serving_testbed(1);
        s.serving.as_mut().unwrap().batch_timeout_s = -0.1;
        assert!(s.validate().is_err());

        let mut s = Scenario::serving_testbed(1);
        s.serving.as_mut().unwrap().batch_overhead = 1.0;
        assert!(s.validate().is_err());

        let mut s = Scenario::serving_testbed(1);
        s.serving.as_mut().unwrap().queue_capacity = 5; // < batch 20
        assert!(s.validate().is_err());

        let mut s = Scenario::serving_testbed(1);
        s.serving.as_mut().unwrap().arrivals[0] = ArrivalProcess::Poisson { rate_rps: 0.0 };
        assert!(s.validate().is_err());

        // Bursts need the serving layer and a valid task/factor.
        let s = Scenario::paper_testbed(1).with_change(ScheduledChange::ServingBurst {
            at_period: 5,
            task: 0,
            factor: 2.0,
        });
        assert!(s.validate().is_err());
        let s = Scenario::serving_testbed(1).with_change(ScheduledChange::ServingBurst {
            at_period: 5,
            task: 9,
            factor: 2.0,
        });
        assert!(s.validate().is_err());
        let s = Scenario::serving_testbed(1).with_change(ScheduledChange::ServingBurst {
            at_period: 5,
            task: 0,
            factor: 0.0,
        });
        assert!(s.validate().is_err());
        let s = Scenario::serving_testbed(1).with_change(ScheduledChange::ServingBurst {
            at_period: 5,
            task: 0,
            factor: 2.0,
        });
        s.validate().unwrap();

        assert_rejects_pipeline_arrivals(Scenario::serving_testbed(1), "serving");
    }

    #[test]
    fn llm_testbed_is_valid() {
        let s = Scenario::llm_testbed(1);
        s.validate().unwrap();
        let cfg = s.llm.as_ref().expect("llm enabled");
        assert_eq!(cfg.tasks.len(), 3);
        // Prefill-heavy t₁; KV-hungry decode-bound t₃ whose worst-case
        // single context fills a large fraction of the cache budget.
        assert!(cfg.tasks[0].prompt.hi > 10 * cfg.tasks[0].output.hi);
        assert!(cfg.tasks[2].output.lo > 3 * cfg.tasks[0].output.hi);
        let worst_ctx = cfg.tasks[2].prompt.hi + cfg.tasks[2].output.hi;
        assert!(10 * worst_ctx > cfg.model.kv_budget_tokens);
        // Batch SLO floors stay off: the phase signal does the work.
        assert!(s.slos.iter().all(Option::is_none));
        assert!(s.serving.is_none());
    }

    #[test]
    fn llm_validation_catches_mismatches() {
        // Tasks must match GPU count.
        let mut s = Scenario::llm_testbed(1);
        s.llm.as_mut().unwrap().tasks.pop();
        assert!(s.validate().is_err());

        // Mutually exclusive with the one-shot serving layer.
        let mut s = Scenario::llm_testbed(1);
        s.serving = Some(ServingConfig::poisson(&[10.0, 10.0, 10.0]));
        assert!(s.validate().is_err());

        // Degenerate model parameters surface the offending field.
        let mut s = Scenario::llm_testbed(1);
        s.llm.as_mut().unwrap().model.prefill_tok_s = 0.0;
        let msg = format!("{}", s.validate().unwrap_err());
        assert!(msg.contains("prefill_tok_s"), "{msg}");

        // A request that could never fit the KV budget is rejected.
        let mut s = Scenario::llm_testbed(1);
        s.llm.as_mut().unwrap().tasks[0].prompt.hi = 100_000;
        assert!(s.validate().is_err());

        // Bursts work against the llm layer too.
        let s = Scenario::llm_testbed(1).with_change(ScheduledChange::ServingBurst {
            at_period: 5,
            task: 2,
            factor: 2.0,
        });
        s.validate().unwrap();

        assert_rejects_pipeline_arrivals(Scenario::llm_testbed(1), "llm");
    }

    #[test]
    fn fault_testbed_is_valid() {
        let s = Scenario::fault_testbed(42);
        s.validate().unwrap();
        let storm = s.faults.as_ref().expect("storm enabled");
        assert_eq!(storm.specs.len(), 5);
        assert!(s.slos.iter().all(Option::is_some));
        assert!(s.supervisor.is_none());
        // Deterministic per seed.
        assert_eq!(storm, Scenario::fault_testbed(42).faults.as_ref().unwrap());
        // Supervised variant validates too.
        Scenario::fault_testbed(42)
            .with_supervisor(crate::supervisor::SupervisorConfig::default())
            .validate()
            .unwrap();
    }

    #[test]
    fn fault_validation_catches_bad_schedules() {
        use capgpu_faults::{FaultKind, FaultSchedule, FaultSpec};
        // Actuator fault on the CPU: the sim only models GPU actuator
        // faults (nvidia-smi path).
        let s = Scenario::paper_testbed(1).with_faults(FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::ClockStuck { device: 0 },
                onset_period: 0,
                duration: None,
                intermittency: None,
            }],
        });
        assert!(s.validate().is_err());
        // Out-of-range device.
        let s = Scenario::paper_testbed(1).with_faults(FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::Ejected { device: 7 },
                onset_period: 0,
                duration: None,
                intermittency: None,
            }],
        });
        assert!(s.validate().is_err());
        // Bad supervisor thresholds.
        let mut s = Scenario::paper_testbed(1);
        s.supervisor = Some(crate::supervisor::SupervisorConfig {
            recovery_periods: 0,
            ..Default::default()
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn chaining_builders() {
        let s = Scenario::paper_testbed(1)
            .with_slos(vec![Some(0.1), None, Some(0.3)])
            .with_change(ScheduledChange::SetPoint {
                at_period: 40,
                watts: 900.0,
            });
        s.validate().unwrap();
        assert_eq!(s.changes.len(), 1);
        assert_eq!(s.slos[0], Some(0.1));
    }
}
