//! The workload side of the simulated closed loop, behind one seam.
//!
//! The controller "only observes total power and throughput and only
//! actuates frequency levels", so the loop in [`crate::runner`] is
//! workload-agnostic; everything that knows *which* GPU-side engine a
//! scenario runs lives here. [`Plant::new`] holds the single `match` that
//! decides the kind; from then on the runner sees, per second, one call
//! that advances every live task and ticks the backend; per period, each
//! task's work rate, mean latency, batches and SLO misses (plus the CPU
//! job's rate and, for the LLM kind, a phase mix); per run, the tails.

use capgpu_backend::{PowerBackend, SimBackend};
use capgpu_llm::{LlmEngine, LlmServiceModel};
use capgpu_serve::{ArrivalGen, ServeEngine, ServeWindowStats, ServiceModel};
use capgpu_workload::featsel::FeatselRateModel;
use capgpu_workload::models::ModelProfile;
use capgpu_workload::pipeline::{ArrivalMode, PipelineConfig, PipelineSim, WindowStats};
use capgpu_workload::slo::SloTracker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::Scenario;
use crate::runner::{PeriodRecord, RunTrace};
use crate::telemetry::{Phase, RunTelemetry};
use crate::weights::PhaseMix;
use crate::{CapGpuError, Result};

/// The feature-selection job's rate (subsets/s) at [`FEATSEL_REF_MHZ`];
/// it scales linearly with the CPU clock.
const FEATSEL_REF_RATE: f64 = 120.0;

/// The reference CPU clock of [`FEATSEL_REF_RATE`] (MHz).
const FEATSEL_REF_MHZ: f64 = 2200.0;

/// The GPU-side engines of one server, one per GPU task, with their
/// recycled per-window scratch. Exactly one kind exists per plant: a
/// request-level plant holds no pipeline, and only the LLM kind holds
/// token-latency trackers.
// One value per plant, never in a collection: the size spread between
// the variants wastes nothing worth an indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Workload {
    /// The paper's period-level pipeline model (§3.2).
    Pipeline {
        sims: Vec<PipelineSim>,
        stats: WindowStats,
    },
    /// Request-level serving: busy fraction drives utilization,
    /// per-request completions drive the SLO tracker.
    Serve {
        engines: Vec<ServeEngine>,
        stats: ServeWindowStats,
    },
    /// Two-phase LLM serving under continuous batching; additionally
    /// feeds the controller a per-device [`PhaseMix`] each period.
    Llm {
        engines: Vec<LlmEngine>,
        stats: ServeWindowStats,
        model: LlmServiceModel,
        /// Measured time-to-first-token and inter-token latencies.
        ttft: SloTracker,
        itl: SloTracker,
        /// Device-indexed mix of the last completed period. Non-GPU
        /// devices stay neutral, where the phase-aware penalty equals
        /// the phase-blind one.
        mix: Vec<PhaseMix>,
    },
}

/// What one task's engine reports for one simulated second.
struct Second<'a> {
    gpu_util: f64,
    worker_util: f64,
    /// Units of the throughput signal: images, or for the LLM kind
    /// prefill + decode tokens (decode emits tokens continuously even
    /// when whole-request completions are lumpy).
    work: usize,
    batches: usize,
    /// One sample per completion: per-batch inference latency for the
    /// pipeline, per-request end-to-end latency for the other kinds.
    latencies: &'a [f64],
}

/// Per-task aggregates accumulated within one control period.
#[derive(Debug, Clone, Default)]
struct TaskPeriodStats {
    work: usize,
    batches: usize,
    latency_sum: f64,
    latency_samples: usize,
    /// The task's SLO-miss count when the period began.
    misses_before: usize,
    /// Raw material of the [`PhaseMix`] signal (LLM kind; zero
    /// otherwise): busy time per phase, and the KV occupancy at the
    /// period's last simulated second (fraction).
    prefill_busy_s: f64,
    decode_busy_s: f64,
    kv_occupancy_end: f64,
}

/// One control period's measurements. Per task: work rate (images/s,
/// tokens/s for the LLM kind), mean of the latency samples (s; 0 if
/// none), batches completed and SLO misses. `cpu_rate` is the
/// feature-selection job's (subsets/s).
#[derive(Debug)]
pub(crate) struct PeriodSummary {
    pub gpu_throughput: Vec<f64>,
    pub gpu_mean_latency: Vec<f64>,
    pub batches: Vec<usize>,
    pub slo_misses: Vec<usize>,
    pub cpu_rate: f64,
}

/// The workload plant of one simulated server. `Clone` snapshots every
/// engine, tracker and RNG, preserving the runner's clone-replay contract.
#[derive(Debug, Clone)]
pub(crate) struct Plant {
    workload: Workload,
    /// Whether the per-second drain runs inside the `serve-drain`
    /// telemetry span (the two request-level kinds).
    request_level: bool,
    /// Per-task model profile and device index, in task order.
    models: Vec<ModelProfile>,
    gpu_devices: Vec<usize>,
    /// Index of the (single) CPU package device.
    cpu_device: usize,
    /// Preprocessing workers per task.
    workers: usize,
    /// Latency tracker behind constraint (10b) and the run's tails.
    slo: SloTracker,
    second_stats: Vec<TaskPeriodStats>,
    /// Utilizations of the most recent simulated second.
    last_utils: Vec<f64>,
    /// The feature-selection job on the remaining CPU cores, and the
    /// source of its one noise draw per period.
    featsel: FeatselRateModel,
    rng: StdRng,
}

impl Plant {
    /// Builds the plant a validated scenario asks for.
    ///
    /// # Errors
    /// Propagates engine construction errors.
    pub(crate) fn new(
        scenario: &Scenario,
        gpu_devices: &[usize],
        cpu_device: usize,
    ) -> Result<Self> {
        let n_tasks = scenario.gpu_models.len();
        let tasks = || scenario.gpu_models.iter().enumerate();
        let seed = |base: u64, task: usize| scenario.seed.wrapping_add(base + task as u64);
        let f_gpu_max = |task: usize| scenario.devices[gpu_devices[task]].freq_table.max();
        // `Scenario::validate` has rejected a scenario with both layers.
        let (workload, request_level) = match (&scenario.llm, &scenario.serving) {
            (Some(cfg), _) => {
                let engines = (cfg.tasks.iter().enumerate())
                    .map(|(i, t)| {
                        LlmEngine::new(cfg.model, t.clone(), cfg.queue_capacity, seed(3000, i))
                    })
                    .collect::<std::result::Result<_, _>>()?;
                let llm = Workload::Llm {
                    engines,
                    stats: ServeWindowStats::default(),
                    model: cfg.model,
                    ttft: SloTracker::new(cfg.tasks.iter().map(|t| t.ttft_slo_s).collect()),
                    itl: SloTracker::new(cfg.tasks.iter().map(|t| t.itl_slo_s).collect()),
                    mix: vec![PhaseMix::neutral(); scenario.devices.len()],
                };
                (llm, true)
            }
            (None, Some(cfg)) => {
                let engine = |(i, m): (usize, &ModelProfile)| {
                    let service = ServiceModel {
                        e_min_s: m.e_min_s,
                        // The plant serves at the model's *true* γ; the
                        // controller still plans with the fitted one.
                        gamma: m.gamma_true,
                        f_max_mhz: f_gpu_max(i),
                        max_batch: m.batch_size,
                        batch_overhead: cfg.batch_overhead,
                    };
                    let arrivals = ArrivalGen::new(cfg.arrivals[i].clone(), seed(2000, i))?;
                    ServeEngine::new(service, cfg.batch_timeout_s, cfg.queue_capacity, arrivals)
                };
                let engines = tasks().map(engine).collect::<std::result::Result<_, _>>()?;
                let stats = ServeWindowStats::default();
                (Workload::Serve { engines, stats }, true)
            }
            (None, None) => {
                let sim = |(i, m): (usize, &ModelProfile)| {
                    PipelineSim::new(PipelineConfig {
                        model: m.clone(),
                        num_workers: scenario.workers_per_pipeline,
                        queue_capacity: scenario.queue_capacity,
                        seed: seed(1000, i),
                        f_gpu_max_mhz: f_gpu_max(i),
                        arrivals: match &scenario.arrival_rates {
                            Some(rates) => ArrivalMode::Open {
                                rate_img_s: rates[i],
                            },
                            None => ArrivalMode::Closed,
                        },
                    })
                };
                let sims = tasks().map(sim).collect::<std::result::Result<_, _>>()?;
                let stats = WindowStats::default();
                (Workload::Pipeline { sims, stats }, false)
            }
        };
        // A placeholder huge SLO where the task has none.
        let slos = (scenario.slos.iter().map(|s| s.unwrap_or(f64::MAX / 2.0))).collect();
        Ok(Plant {
            workload,
            request_level,
            models: scenario.gpu_models.clone(),
            gpu_devices: gpu_devices.to_vec(),
            cpu_device,
            workers: scenario.workers_per_pipeline,
            slo: SloTracker::new(slos),
            second_stats: vec![TaskPeriodStats::default(); n_tasks],
            last_utils: vec![0.0; scenario.devices.len()],
            featsel: FeatselRateModel::new(FEATSEL_REF_RATE, FEATSEL_REF_MHZ, 0.05)?,
            rng: StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E37_79B9)),
        })
    }

    /// Advances one simulated second at the given applied frequencies and
    /// returns the meter sample, if the meter produced one. `queue_delays`
    /// optionally collects the pipeline's per-image queue delays per task
    /// (fixed-frequency motivation runs; the request-level kinds fold
    /// queueing into their end-to-end latencies and leave it empty).
    /// All per-second state lives in recycled buffers: no allocation.
    pub(crate) fn advance_second(
        &mut self,
        backend: &mut SimBackend,
        applied: &[f64],
        mut telemetry: Option<&mut RunTelemetry>,
        mut queue_delays: Option<&mut [Vec<f64>]>,
    ) -> Result<Option<f64>> {
        let f_cpu = applied[self.cpu_device];
        // Request-level preprocessing (resize/normalize, tokenization)
        // tracks the admitted stream: each admitted request costs one
        // worker `preprocess_time`.
        let (models, workers) = (&self.models, self.workers.max(1) as f64);
        let frontend_util = |task: usize, stats: &ServeWindowStats| {
            let admitted = (stats.arrivals - stats.dropped) as f64;
            (admitted * models[task].preprocess_time(f_cpu) / workers).clamp(0.0, 1.0)
        };
        self.last_utils.fill(0.0);
        let mut worker_util_sum = 0.0;
        if let (true, Some(tm)) = (self.request_level, telemetry.as_deref_mut()) {
            tm.span_enter(Phase::ServeDrain);
        }
        for (i, &dev) in self.gpu_devices.iter().enumerate() {
            // An ejected device does no work and draws no power; its
            // engine is frozen until re-admission.
            if backend.is_ejected(dev) {
                continue;
            }
            let f_eff = throttled_clock_mhz(backend, dev, applied[dev])?;
            let second = match &mut self.workload {
                Workload::Pipeline { sims, stats } => {
                    sims[i].advance_into(1.0, f_cpu, f_eff, stats);
                    if let Some(qd) = queue_delays.as_deref_mut() {
                        qd[i].extend_from_slice(&stats.queue_delays);
                    }
                    Second {
                        gpu_util: stats.gpu_util,
                        worker_util: stats.cpu_worker_util,
                        work: stats.images_completed,
                        batches: stats.batch_latencies.len(),
                        latencies: &stats.batch_latencies,
                    }
                }
                Workload::Serve { engines, stats } => {
                    engines[i].advance_into(1.0, f_eff, stats);
                    if let Some(tm) = telemetry.as_deref_mut() {
                        tm.on_serve_second(i, stats, engines[i].queue_len());
                    }
                    Second {
                        gpu_util: (stats.busy_fraction * models[i].gpu_util_busy).clamp(0.0, 1.0),
                        worker_util: frontend_util(i, stats),
                        work: stats.completions,
                        batches: stats.batches,
                        latencies: &stats.request_latencies,
                    }
                }
                Workload::Llm {
                    engines,
                    stats,
                    model,
                    ttft,
                    itl,
                    ..
                } => {
                    engines[i].advance_into(1.0, f_eff, stats);
                    ttft.record_all(i, &stats.ttft_s);
                    itl.record_all(i, &stats.inter_token_s);
                    let st = &mut self.second_stats[i];
                    st.prefill_busy_s += stats.prefill_busy_s;
                    st.decode_busy_s += stats.decode_busy_s;
                    st.kv_occupancy_end = stats.kv_occupancy();
                    if let Some(tm) = telemetry.as_deref_mut() {
                        tm.on_serve_second(i, stats, engines[i].queue_len());
                        tm.on_llm_second(i, stats);
                    }
                    Second {
                        // Attributed per regime — compute-bound prefill,
                        // memory-bound decode — which is exactly why
                        // capping a decode-bound device recovers so
                        // little power.
                        gpu_util: (stats.prefill_busy_s * model.gpu_util_prefill
                            + stats.decode_busy_s * model.gpu_util_decode)
                            .clamp(0.0, 1.0),
                        worker_util: frontend_util(i, stats),
                        work: stats.prefill_tokens + stats.decode_tokens,
                        batches: stats.batches,
                        latencies: &stats.request_latencies,
                    }
                }
            };
            self.last_utils[dev] = second.gpu_util;
            worker_util_sum += second.worker_util;
            self.slo.record_all(i, second.latencies);
            let st = &mut self.second_stats[i];
            st.work += second.work;
            st.batches += second.batches;
            st.latency_sum += second.latencies.iter().sum::<f64>();
            st.latency_samples += second.latencies.len();
        }
        if let (true, Some(tm)) = (self.request_level, telemetry) {
            tm.span_exit();
        }
        // CPU package utilization: the feature-selection job keeps the
        // remaining cores busy (~0.85) and preprocessing adds the rest.
        let worker_share = worker_util_sum / self.gpu_devices.len().max(1) as f64;
        self.last_utils[self.cpu_device] = (0.85 + 0.1 * worker_share).clamp(0.0, 1.0);
        // One second of plant time through the sense/actuate seam: the
        // simulator consumes the staged utilizations (real hardware
        // measures its own load) and hands back the meter sample.
        backend.stage_utilizations(&self.last_utils)?;
        Ok(backend.advance(1.0)?)
    }

    /// Opens a control period: clears the per-period aggregates and
    /// remembers each task's miss count.
    pub(crate) fn begin_period(&mut self) {
        for (i, st) in self.second_stats.iter_mut().enumerate() {
            *st = TaskPeriodStats {
                misses_before: self.slo.misses(i),
                ..TaskPeriodStats::default()
            };
        }
    }

    /// Closes a period of `seconds` simulated seconds run at a mean CPU
    /// clock of `f_cpu_mhz`: the measurements accumulated since
    /// [`Plant::begin_period`] (drawing the CPU job's one noise sample per
    /// period), and (LLM only) the refreshed [`Plant::phase_mix`].
    pub(crate) fn end_period(&mut self, seconds: usize, f_cpu_mhz: f64) -> PeriodSummary {
        let stats = &self.second_stats;
        let mean_latency = |st: &TaskPeriodStats| match st.latency_samples {
            0 => 0.0,
            n => st.latency_sum / n as f64,
        };
        let summary = PeriodSummary {
            gpu_throughput: (stats.iter().map(|st| st.work as f64 / seconds as f64)).collect(),
            gpu_mean_latency: stats.iter().map(mean_latency).collect(),
            batches: stats.iter().map(|st| st.batches).collect(),
            slo_misses: (stats.iter().enumerate())
                .map(|(i, st)| self.slo.misses(i) - st.misses_before)
                .collect(),
            cpu_rate: self.featsel.rate(f_cpu_mhz, self.rng.gen_range(-1.0..1.0)),
        };
        // Busy-time prefill share, end-of-period KV occupancy and token
        // rate, per device.
        if let Workload::Llm { mix, .. } = &mut self.workload {
            for (i, ps) in stats.iter().enumerate() {
                let busy = ps.prefill_busy_s + ps.decode_busy_s;
                mix[self.gpu_devices[i]] = PhaseMix {
                    prefill_share: if busy > 0.0 {
                        (ps.prefill_busy_s / busy).clamp(0.0, 1.0)
                    } else {
                        1.0
                    },
                    kv_occupancy: ps.kv_occupancy_end,
                    tokens_per_s: summary.gpu_throughput[i],
                };
            }
        }
        summary
    }

    /// The device-indexed phase mix of the last completed period, or
    /// `None` when the plant is not the LLM kind.
    pub(crate) fn phase_mix(&self) -> Option<&[PhaseMix]> {
        match &self.workload {
            Workload::Llm { mix, .. } => Some(mix),
            _ => None,
        }
    }

    /// Closes a run: its records plus the tail quantiles and miss rates
    /// of everything recorded since [`Plant::reset_stats`]. The quantiles
    /// are exact order statistics selected in the trackers' own buffers:
    /// linear in the samples recorded, no copy.
    pub(crate) fn finish(&mut self, controller: String, records: Vec<PeriodRecord>) -> RunTrace {
        let n_tasks = self.second_stats.len();
        let p99 = |tr: &mut SloTracker| (0..n_tasks).map(|i| tr.percentile(i, 99.0)).collect();
        let miss_rates = |tr: &SloTracker| (0..n_tasks).map(|i| tr.miss_rate(i)).collect();
        let mut trace = RunTrace {
            controller,
            records,
            miss_rates: miss_rates(&self.slo),
            p99_latency_s: p99(&mut self.slo),
            ttft_p99_s: Vec::new(),
            itl_p99_s: Vec::new(),
            ttft_miss_rates: Vec::new(),
            itl_miss_rates: Vec::new(),
        };
        if let Workload::Llm { ttft, itl, .. } = &mut self.workload {
            trace.ttft_p99_s = p99(ttft);
            trace.itl_p99_s = p99(itl);
            trace.ttft_miss_rates = miss_rates(ttft);
            trace.itl_miss_rates = miss_rates(itl);
        }
        trace
    }

    /// Forgets every recorded latency (the SLOs stay in force).
    pub(crate) fn reset_stats(&mut self) {
        self.slo.reset_stats();
        if let Workload::Llm { ttft, itl, .. } = &mut self.workload {
            ttft.reset_stats();
            itl.reset_stats();
        }
    }

    /// Changes one task's latency SLO.
    pub(crate) fn set_slo(&mut self, task: usize, slo_s: f64) {
        self.slo.set_slo(task, slo_s);
    }

    /// Changes one open-loop pipeline's arrival rate (images/s); an error
    /// on a request-level plant, a closed loop or a non-positive rate.
    pub(crate) fn set_arrival_rate(&mut self, task: usize, rate_img_s: f64) -> Result<()> {
        match &mut self.workload {
            Workload::Pipeline { sims, .. } => Ok(sims[task].set_arrival_rate(rate_img_s)?),
            _ => Err(CapGpuError::BadConfig(
                "arrival-rate change on a request-level plant".into(),
            )),
        }
    }

    /// Scales one request-level task's arrival intensity relative to its
    /// nominal rate (a scheduled serving burst); an error on a pipeline
    /// plant, an unknown task or a factor that is not positive and finite.
    pub(crate) fn set_task_intensity(&mut self, task: usize, factor: f64) -> Result<()> {
        let no_layer = || CapGpuError::BadConfig("serving burst without the serving layer".into());
        match &mut self.workload {
            Workload::Llm { engines, .. } => {
                let engine = engines.get_mut(task).ok_or_else(|| {
                    CapGpuError::BadConfig(format!("serving burst targets unknown llm task {task}"))
                })?;
                Ok(engine.set_intensity_scale(factor)?)
            }
            Workload::Serve { engines, .. } => {
                let engine = engines.get_mut(task).ok_or_else(no_layer)?;
                Ok(engine.set_intensity_scale(factor)?)
            }
            Workload::Pipeline { .. } => Err(no_layer()),
        }
    }

    /// Scales every request-level task's arrival intensity relative to
    /// its nominal rate; an error on a pipeline plant or for a scale that
    /// is not positive and finite.
    pub(crate) fn set_intensity_scale(&mut self, scale: f64) -> Result<()> {
        match &mut self.workload {
            Workload::Llm { engines, .. } => {
                (engines.iter_mut()).try_for_each(|e| Ok(e.set_intensity_scale(scale)?))
            }
            Workload::Serve { engines, .. } => {
                (engines.iter_mut()).try_for_each(|e| Ok(e.set_intensity_scale(scale)?))
            }
            Workload::Pipeline { .. } => Err(CapGpuError::BadConfig(
                "serving intensity scale without the serving layer".into(),
            )),
        }
    }
}

/// The core clock the latency law sees on device `dev`: an engaged memory
/// throttle slows inference, modelled as a derating of the applied clock.
fn throttled_clock_mhz(backend: &SimBackend, dev: usize, applied_mhz: f64) -> Result<f64> {
    let server = backend.server();
    Ok(match server.device(dev)?.mem_throttle {
        Some(mt) if server.memory_throttled(dev)? => applied_mhz / mt.latency_penalty,
        _ => applied_mhz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Plant {
        /// The request-latency tracker and, for the LLM kind, the TTFT
        /// and inter-token trackers (oracles recompute the tails from
        /// them).
        pub(crate) fn trackers(&self) -> (&SloTracker, Option<(&SloTracker, &SloTracker)>) {
            let token_trackers = match &self.workload {
                Workload::Llm { ttft, itl, .. } => Some((ttft, itl)),
                _ => None,
            };
            (&self.slo, token_trackers)
        }
    }

    /// Device 0 is the CPU and the three GPUs follow on every testbed.
    fn build(scenario: &Scenario) -> Result<Plant> {
        Plant::new(scenario, &[1, 2, 3], 0)
    }

    #[test]
    fn builder_produces_the_kind_the_scenario_asks_for() {
        let pipeline = build(&Scenario::paper_testbed(1)).unwrap();
        assert!(
            matches!(pipeline.workload, Workload::Pipeline { ref sims, .. } if sims.len() == 3)
        );
        assert!(!pipeline.request_level && pipeline.phase_mix().is_none());

        let serve = build(&Scenario::serving_testbed(1)).unwrap();
        assert!(
            matches!(serve.workload, Workload::Serve { ref engines, .. } if engines.len() == 3)
        );
        assert!(serve.request_level && serve.phase_mix().is_none());
        assert!(serve.trackers().1.is_none());

        let llm = build(&Scenario::llm_testbed(1)).unwrap();
        assert!(matches!(llm.workload, Workload::Llm { ref engines, .. } if engines.len() == 3));
        assert!(llm.request_level);
        // One mix entry per device, all neutral before the first period.
        assert_eq!(llm.phase_mix(), Some(&[PhaseMix::neutral(); 4][..]));
        assert!(llm.trackers().1.is_some());
    }

    #[test]
    fn setters_reject_the_wrong_kind() {
        let mut pipeline = build(&Scenario::paper_testbed(1)).unwrap();
        assert!(pipeline.set_intensity_scale(0.5).is_err());
        assert!(pipeline.set_task_intensity(0, 2.0).is_err());
        // Closed-loop pipelines have no arrival rate to change.
        assert!(pipeline.set_arrival_rate(0, 50.0).is_err());

        let mut serve = build(&Scenario::serving_testbed(1)).unwrap();
        assert!(serve.set_arrival_rate(0, 50.0).is_err());
        serve.set_task_intensity(0, 2.0).unwrap();
        assert!(serve.set_task_intensity(9, 2.0).is_err());
        serve.set_intensity_scale(0.5).unwrap();
    }
}
