//! Isolated per-layer timings (ledger source C): each layer's public
//! entry point called on its own, at the operating point the workload
//! ran at — device count, mean applied clocks, the scenario's own model
//! and arrival parameters. Together with the seam spans (source A) and
//! the program's span summary (source B) they say where a period's
//! time goes, without adding a single span inside the program.
//!
//! Every figure is per call, the fast decile over slices
//! ([`ns_per_call`]).

use std::hint::black_box;
use std::path::Path;

use capgpu::config::Scenario;
use capgpu::daemon::DaemonConfig;
use capgpu::supervisor::{HealthSample, Supervisor, SupervisorConfig};
use capgpu::weights::WeightAssigner;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::modulator::DeltaSigmaModulator;
use capgpu_control::mpc::{MpcConfig, MpcController};
use capgpu_control::sysid::SystemIdentifier;
use capgpu_fleet::prelude::*;
use capgpu_linalg::Matrix;
use capgpu_llm::LlmEngine;
use capgpu_obs::analyzer::{AnalyzerConfig, HealthAnalyzer, PeriodSample};
use capgpu_obs::reader::{parse_record, Record};
use capgpu_obs::replay::ReplayState;
use capgpu_obs::rotate::{JournalWriter, RotationConfig};
use capgpu_optim::boxqp::{BoxQp, BoxQpProblem};
use capgpu_serve::{ArrivalGen, ServeEngine, ServeWindowStats, ServiceModel};
use capgpu_sim::ServerBuilder;
use capgpu_telemetry::journal::Event;
use capgpu_telemetry::registry::Registry;
use capgpu_workload::monitor::ThroughputMonitor;
use capgpu_workload::pipeline::{ArrivalMode, PipelineConfig, PipelineSim, WindowStats};
use capgpu_workload::slo::SloTracker;

use crate::host::{ns_per_call, timed, Scratch};
use crate::report::{Checks, Outcome};
use crate::stats::fast_decile;
use crate::workloads::{err_text, RunResult};

const SLICES: usize = 9;

/// `sim::Server::tick_second` on the scenario's own device set.
pub fn sim_tick_ns(scenario: &Scenario, utils: &[f64]) -> RunResult<f64> {
    let mut builder = ServerBuilder::new(scenario.seed).platform_watts(scenario.platform_watts);
    for d in &scenario.devices {
        builder = builder.add_device(d.clone());
    }
    let mut server = builder.build().map_err(err_text)?;
    Ok(ns_per_call(SLICES, 20_000, || {
        black_box(server.tick_second(black_box(utils)).expect("tick"));
    }))
}

/// `PowerBackend::advance` through the boxed seam the daemon drives.
pub fn dyn_advance_ns(cfg: &DaemonConfig) -> RunResult<f64> {
    let mut backend = cfg.build_backend().map_err(err_text)?;
    Ok(ns_per_call(SLICES, 20_000, || {
        black_box(backend.advance(1.0).expect("advance"));
    }))
}

/// `PipelineSim::advance_into` for one simulated second, mean over the
/// scenario's pipelines, each at its device's mean applied clock.
pub fn pipeline_advance_ns(scenario: &Scenario, applied_mhz: &[f64]) -> RunResult<f64> {
    let gpu_devices: Vec<usize> = scenario
        .devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == capgpu_sim::DeviceKind::Gpu)
        .map(|(i, _)| i)
        .collect();
    let f_cpu = applied_mhz[0];
    let mut per_pipeline = Vec::new();
    for (i, model) in scenario.gpu_models.iter().enumerate() {
        let dev = gpu_devices[i];
        let mut pipe = PipelineSim::new(PipelineConfig {
            model: model.clone(),
            num_workers: scenario.workers_per_pipeline,
            queue_capacity: scenario.queue_capacity,
            seed: scenario.seed.wrapping_add(1000 + i as u64),
            f_gpu_max_mhz: scenario.devices[dev].freq_table.max(),
            arrivals: ArrivalMode::Closed,
        })
        .map_err(err_text)?;
        let mut stats = WindowStats::default();
        let f_gpu = applied_mhz[dev];
        per_pipeline.push(ns_per_call(SLICES, 2_000, || {
            pipe.advance_into(1.0, f_cpu, f_gpu, &mut stats);
            black_box(&stats);
        }));
    }
    Ok(per_pipeline.iter().sum::<f64>() / per_pipeline.len().max(1) as f64)
}

pub fn monitor_record_ns() -> f64 {
    let mut m = ThroughputMonitor::new(0.5);
    let mut x = 100.0;
    ns_per_call(SLICES, 100_000, || {
        x = if x > 200.0 { 100.0 } else { x + 0.5 };
        m.record(black_box(x));
    })
}

pub fn slo_record_ns() -> f64 {
    // A fresh tracker per slice would hide growth; one tracker over all
    // slices is what a long `run` does.
    let mut t = SloTracker::new(vec![0.05]);
    let mut x = 0.01;
    ns_per_call(SLICES, 100_000, || {
        x = if x > 0.09 { 0.01 } else { x + 0.001 };
        t.record(0, black_box(x));
    })
}

/// One `SloTracker::miss_rate` call with 100 000 stored latencies. The
/// runner calls it twice per task per period, so work here that grows
/// with history is paid every period of a long run.
pub fn slo_miss_rate_ns_at_100k() -> f64 {
    let mut t = SloTracker::new(vec![0.05]);
    for i in 0..100_000 {
        t.record(0, 0.01 + 0.0000008 * f64::from(i));
    }
    ns_per_call(SLICES, 2_000, || {
        black_box(t.miss_rate(black_box(0)));
    })
}

/// Where an isolated MPC solve is timed: device limits, the power
/// model, and the clocks the solve starts from.
pub struct MpcPoint {
    f_min: Vec<f64>,
    f_max: Vec<f64>,
    gains: Vec<f64>,
    offset_w: f64,
    freqs: Vec<f64>,
}

impl MpcPoint {
    /// A testbed-shaped problem with `n` devices (1 CPU + n−1 GPUs):
    /// the same point on every workload, so the `_n4`/`_n9` entries are
    /// comparable across them.
    pub fn synthetic(n: usize) -> Self {
        let per_device = |cpu: f64, gpu: f64| {
            let mut v = vec![cpu];
            v.extend(std::iter::repeat_n(gpu, n - 1));
            v
        };
        MpcPoint {
            f_min: per_device(1000.0, 435.0),
            f_max: per_device(2400.0, 1350.0),
            gains: per_device(0.05, 0.1475),
            offset_w: 330.0,
            freqs: per_device(1700.0, 900.0),
        }
    }

    /// The point a daemon run ended at, read back from its own journal
    /// events: the model it identified (with the last refit applied)
    /// and the clocks it last commanded, within its backend's limits.
    pub fn recorded(cfg: &DaemonConfig, events: &[Event]) -> RunResult<Self> {
        // Identification is journaled in the first few dozen events; the
        // last refit and the last period are near the end.
        let edge = events.len().min(512);
        let records: Vec<Record> = events[..edge]
            .iter()
            .chain(&events[events.len() - edge..])
            .map(|e| parse_record(&e.to_json(), "bench", 1))
            .collect::<Result<_, _>>()
            .map_err(err_text)?;
        let state = ReplayState::replay(&records);
        let (gains, offset_w) = state.model().ok_or("journal has no identified model")?;
        let backend = cfg.build_backend().map_err(err_text)?;
        let devices = backend.devices();
        if state.last_targets_mhz.len() != devices.len() || gains.len() != devices.len() {
            return Err("journal and backend disagree on the device count".into());
        }
        Ok(MpcPoint {
            f_min: devices.iter().map(|d| d.f_min_mhz).collect(),
            f_max: devices.iter().map(|d| d.f_max_mhz).collect(),
            gains,
            offset_w,
            freqs: state.last_targets_mhz,
        })
    }
}

/// `MpcController::step` at `point`: re-solving the same problem
/// (steady state between set-point changes), and solving right after a
/// set-point step each call. Returns `(warm_ns, after_setpoint_ns,
/// mean QP iterations of the after-set-point solves)`.
pub fn mpc_step_ns(point: &MpcPoint) -> RunResult<(f64, f64, f64)> {
    let n = point.gains.len();
    let config = MpcConfig::paper_defaults(point.f_min.clone(), point.f_max.clone());
    let model = LinearPowerModel::new(point.gains.clone(), point.offset_w).map_err(err_text)?;
    let ctrl = MpcController::new(config, model).map_err(err_text)?;
    let (freqs, floors) = (&point.freqs, &point.f_min);
    let weights = vec![1.0; n];
    let predicted = point.offset_w
        + point
            .gains
            .iter()
            .zip(freqs)
            .map(|(g, f)| g * f)
            .sum::<f64>();
    let warm = ns_per_call(SLICES, 2_000, || {
        black_box(
            ctrl.step(predicted + 5.0, predicted, freqs, &weights, floors)
                .expect("mpc step"),
        );
    });
    let (mut flip, mut iters, mut calls) = (false, 0usize, 0usize);
    let after = ns_per_call(SLICES, 2_000, || {
        flip = !flip;
        let setpoint = if flip {
            predicted - 100.0
        } else {
            predicted + 100.0
        };
        let step = ctrl
            .step(predicted, setpoint, freqs, &weights, floors)
            .expect("mpc step");
        iters += step.qp_iterations;
        calls += 1;
        black_box(step);
    });
    Ok((warm, after, iters as f64 / calls.max(1) as f64))
}

pub fn modulator_next_level_ns(scenario: &Scenario) -> RunResult<f64> {
    let gpu = scenario
        .devices
        .iter()
        .find(|d| d.kind == capgpu_sim::DeviceKind::Gpu)
        .ok_or("scenario has no GPU")?;
    let mut m = DeltaSigmaModulator::new(gpu.freq_table.levels().to_vec()).map_err(err_text)?;
    let target = 0.5 * (gpu.freq_table.min() + gpu.freq_table.max()) + 3.3;
    Ok(ns_per_call(SLICES, 100_000, || {
        black_box(m.next_level(black_box(target)));
    }))
}

/// Identification-sized sample set: `n` devices × `steps` excitation
/// points of a known linear plant, clocks drawn from a fixed LCG so the
/// design matrix is well conditioned at any `n`.
fn ident_rows(n: usize, steps: usize) -> Vec<(Vec<f64>, f64)> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n * steps)
        .map(|_| {
            let f: Vec<f64> = (0..n).map(|_| 435.0 + (2400.0 - 435.0) * unit()).collect();
            let p = 280.0
                + f.iter()
                    .enumerate()
                    .map(|(d, x)| (0.05 + 0.02 * d as f64) * x)
                    .sum::<f64>();
            (f, p)
        })
        .collect()
}

/// `SystemIdentifier::fit` on an identification-sized sample set (ms).
pub fn sysid_fit_ms(n: usize, steps: usize) -> f64 {
    let mut ident = SystemIdentifier::new(n);
    for (f, p) in ident_rows(n, steps) {
        ident.record(&f, p);
    }
    ns_per_call(SLICES, 200, || {
        black_box(ident.fit().expect("fit"));
    }) / 1e6
}

/// `linalg::lstsq::solve` on the same-sized design matrix (µs).
pub fn lstsq_fit_us(n: usize, steps: usize) -> f64 {
    let rows = ident_rows(n, steps);
    let mut data = Vec::with_capacity(rows.len() * (n + 1));
    let mut y = Vec::with_capacity(rows.len());
    for (f, p) in &rows {
        data.extend_from_slice(f);
        data.push(1.0);
        y.push(*p);
    }
    let x = Matrix::from_vec(rows.len(), n + 1, data);
    ns_per_call(SLICES, 200, || {
        black_box(capgpu_linalg::lstsq::solve(black_box(&x), &y).expect("lstsq"));
    }) / 1e3
}

/// `BoxQp::solve` on a 9-variable strictly convex box QP with a mix of
/// active and free bounds at the optimum.
pub fn boxqp_solve_ns_n9() -> RunResult<f64> {
    let n = 9;
    let mut h = Matrix::zeros(n, n);
    {
        let s = h.as_mut_slice();
        for i in 0..n {
            for j in 0..n {
                s[i * n + j] = if i == j { 4.0 + i as f64 } else { 0.5 };
            }
        }
    }
    let g: Vec<f64> = (0..n).map(|i| -30.0 + 7.0 * i as f64).collect();
    let qp = BoxQpProblem::new(h, g, vec![-2.0; n], vec![2.0; n]).map_err(err_text)?;
    let solver = BoxQp::default();
    Ok(ns_per_call(SLICES, 5_000, || {
        black_box(solver.solve(black_box(&qp)).expect("boxqp"));
    }))
}

pub fn weights_penalties_ns(n: usize) -> f64 {
    let w = WeightAssigner::default();
    let thr: Vec<f64> = (0..n).map(|i| 0.5 + 0.05 * i as f64).collect();
    ns_per_call(SLICES, 50_000, || {
        black_box(w.control_penalties(black_box(&thr)));
    })
}

pub fn supervisor_step_ns(n: usize) -> RunResult<f64> {
    let gains = vec![0.09; n];
    let mut sup = Supervisor::new(SupervisorConfig::default(), gains, n).map_err(err_text)?;
    let ejected = vec![false; n];
    let mut applied = vec![900.0; n];
    let mut k = 0u32;
    Ok(ns_per_call(SLICES, 20_000, || {
        k = (k + 1) % 3;
        applied[0] = 900.0 + f64::from(k);
        black_box(sup.step(&HealthSample {
            fresh_samples: 4,
            meter_age_s: Some(0),
            avg_power: 900.0 + f64::from(k),
            setpoint: 900.0,
            psu_limit: None,
            applied_mean: &applied,
            ejected: &ejected,
        }));
    }))
}

/// Ledger entries of a request-level engine run: µs per simulated
/// second, events (or tokens) processed, and the rate.
pub struct EngineLedger {
    pub advance_second_us: f64,
    pub work: f64,
    pub work_per_s: f64,
    pub preemptions: f64,
}

/// Simulated seconds per isolated engine run.
const ENGINE_SECONDS: usize = 3_000;

/// The scenario's first serving task on its own `ServeEngine`, at the
/// given clock. Checks request conservation.
pub fn serve_engine(
    scenario: &Scenario,
    f_mhz: f64,
    checks: &mut Checks,
) -> RunResult<EngineLedger> {
    let cfg = scenario
        .serving
        .as_ref()
        .ok_or("scenario has no serving layer")?;
    let m = &scenario.gpu_models[0];
    let gpu = scenario
        .devices
        .iter()
        .find(|d| d.kind == capgpu_sim::DeviceKind::Gpu)
        .ok_or("scenario has no GPU")?;
    let service = ServiceModel {
        e_min_s: m.e_min_s,
        gamma: m.gamma_true,
        f_max_mhz: gpu.freq_table.max(),
        max_batch: m.batch_size,
        batch_overhead: cfg.batch_overhead,
    };
    let arrivals = ArrivalGen::new(cfg.arrivals[0].clone(), scenario.seed.wrapping_add(2000))
        .map_err(err_text)?;
    let mut engine = ServeEngine::new(service, cfg.batch_timeout_s, cfg.queue_capacity, arrivals)
        .map_err(err_text)?;
    let mut stats = ServeWindowStats::default();
    engine.advance_into(1.0, f_mhz, &mut stats);
    let before = engine.events_total();
    let (secs, ()) = timed(|| {
        for _ in 0..ENGINE_SECONDS {
            engine.advance_into(1.0, f_mhz, &mut stats);
            black_box(&stats);
        }
    });
    let events = (engine.events_total() - before) as f64;
    checks.check(engine.conserved(), events as u64, || {
        "serve engine lost requests (ServeEngine::conserved)".into()
    });
    Ok(EngineLedger {
        advance_second_us: secs * 1e6 / ENGINE_SECONDS as f64,
        work: events,
        work_per_s: events / secs,
        preemptions: 0.0,
    })
}

/// Every LLM task of the scenario on its own `LlmEngine`, at its
/// device's mean applied clock; figures are summed over tasks (work)
/// and averaged (µs per engine-second). Checks request and token
/// conservation.
pub fn llm_engines(
    scenario: &Scenario,
    applied_mhz: &[f64],
    checks: &mut Checks,
) -> RunResult<EngineLedger> {
    let cfg = scenario.llm.as_ref().ok_or("scenario has no LLM layer")?;
    let (mut us, mut tokens, mut secs_total, mut preemptions) = (Vec::new(), 0.0, 0.0, 0.0);
    for (i, task) in cfg.tasks.iter().enumerate() {
        let mut engine = LlmEngine::new(
            cfg.model,
            task.clone(),
            cfg.queue_capacity,
            scenario.seed.wrapping_add(3000 + i as u64),
        )
        .map_err(err_text)?;
        // Device 0 is the CPU package; task i runs on GPU i + 1.
        let f_mhz = applied_mhz[i + 1];
        let mut stats = ServeWindowStats::default();
        engine.advance_into(1.0, f_mhz, &mut stats);
        let before = engine.prefill_tokens_total() + engine.decode_tokens_total();
        let (secs, ()) = timed(|| {
            for _ in 0..ENGINE_SECONDS {
                engine.advance_into(1.0, f_mhz, &mut stats);
                black_box(&stats);
            }
        });
        let done = (engine.prefill_tokens_total() + engine.decode_tokens_total() - before) as f64;
        checks.check(
            engine.conserved() && engine.tokens_conserved(),
            done as u64,
            || format!("llm engine {i} lost requests or tokens"),
        );
        us.push(secs * 1e6 / ENGINE_SECONDS as f64);
        tokens += done;
        secs_total += secs;
        preemptions += engine.preemptions_total() as f64;
    }
    Ok(EngineLedger {
        advance_second_us: us.iter().sum::<f64>() / us.len().max(1) as f64,
        work: tokens,
        work_per_s: tokens / secs_total,
        preemptions,
    })
}

/// Control-stack entries every loop workload shares, at `n` devices.
pub fn control_stack(out: &mut Outcome, scenario: &Scenario, n: usize) -> RunResult<()> {
    for (size, warm_name, after_name) in [
        (
            4,
            "control.mpc_step_warm_ns_n4",
            "control.mpc_step_after_setpoint_ns_n4",
        ),
        (
            9,
            "control.mpc_step_warm_ns_n9",
            "control.mpc_step_after_setpoint_ns_n9",
        ),
    ] {
        let (warm, after, _) = mpc_step_ns(&MpcPoint::synthetic(size))?;
        out.set(warm_name, warm);
        out.set(after_name, after);
    }
    out.set(
        "control.modulator_next_level_ns",
        modulator_next_level_ns(scenario)?,
    );
    out.set(
        "control.sysid_fit_ms",
        sysid_fit_ms(n, scenario.sysid_steps_per_device),
    );
    out.set(
        "linalg.lstsq_fit_us",
        lstsq_fit_us(n, scenario.sysid_steps_per_device),
    );
    out.set("optim.boxqp_solve_ns_n9", boxqp_solve_ns_n9()?);
    out.set("core.weights.penalties_ns", weights_penalties_ns(n));
    out.set("core.supervisor.step_ns", supervisor_step_ns(n)?);
    out.set("workload.monitor_record_ns", monitor_record_ns());
    Ok(())
}

// ---------------------------------------------------------------------
// Journal layers (telemetry emission, obs consumption)
// ---------------------------------------------------------------------

/// Journal-layer entries over a real event stream (`events`, as the
/// daemon recorded them): encoding, appending, sealing, checksumming,
/// parsing, replaying.
pub fn journal_stack(out: &mut Outcome, events: &[Event], scratch: &Scratch) -> RunResult<()> {
    let sample = &events[..events.len().min(20_000)];
    let mut i = 0usize;
    out.set(
        "telemetry.event_to_json_ns",
        ns_per_call(SLICES, sample.len(), || {
            black_box(sample[i % sample.len()].to_json());
            i += 1;
        }),
    );
    let lines: Vec<String> = sample.iter().map(Event::to_json).collect();
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    out.set(
        "telemetry.json_bytes_per_record",
        bytes as f64 / lines.len() as f64,
    );

    // Appends: one writer per slice so every slice writes the same
    // bytes into an empty directory.
    let cfg = RotationConfig {
        max_segment_bytes: 256 * 1024,
        max_segment_age_s: f64::MAX,
        retain_segments: usize::MAX,
    };
    let mut append_ns = Vec::new();
    let mut seal_us = Vec::new();
    for _ in 0..SLICES {
        let dir = scratch.fresh("append");
        let mut w = JournalWriter::create(&dir.0, cfg).map_err(err_text)?;
        let (secs, res) = timed(|| {
            lines
                .iter()
                .zip(sample)
                .try_for_each(|(l, e)| w.append(l, e.sim_time_s))
        });
        res.map_err(err_text)?;
        append_ns.push(secs * 1e9 / lines.len() as f64);
        // Make sure the active segment is non-empty, then time its seal.
        w.append(&lines[0], sample[0].sim_time_s)
            .map_err(err_text)?;
        let (secs, res) = timed(|| w.seal());
        res.map_err(err_text)?;
        seal_us.push(secs * 1e6);
    }
    out.set("obs.writer_append_ns", fast_decile(&append_ns));
    out.set("obs.writer_seal_us", fast_decile(&seal_us));

    let blob: Vec<u8> = lines.join("\n").into_bytes();
    let crc_ns = ns_per_call(SLICES, 20, || {
        black_box(capgpu_obs::crc32(black_box(&blob)));
    });
    out.set(
        "obs.crc32_mib_per_s",
        blob.len() as f64 / (1024.0 * 1024.0) / (crc_ns / 1e9),
    );

    let mut i = 0usize;
    out.set(
        "obs.parse_record_ns",
        ns_per_call(SLICES, lines.len(), || {
            black_box(parse_record(&lines[i % lines.len()], "bench", 1).expect("parse"));
            i += 1;
        }),
    );
    let records: Vec<Record> = lines
        .iter()
        .map(|l| parse_record(l, "bench", 1))
        .collect::<Result<_, _>>()
        .map_err(err_text)?;
    let mut state = ReplayState::default();
    let mut i = 0usize;
    out.set(
        "obs.replay_apply_ns",
        ns_per_call(SLICES, records.len(), || {
            state.apply(&records[i % records.len()]);
            i += 1;
        }),
    );
    black_box(&state);
    Ok(())
}

/// `read_dir` alone over a journal directory (records/s), 5 scans.
pub fn read_dir_records_per_s(dir: &Path) -> RunResult<f64> {
    let mut s_per_record = Vec::new();
    for _ in 0..5 {
        let (secs, scan) = timed(|| capgpu_obs::reader::read_dir(dir));
        let scan = scan.map_err(err_text)?;
        s_per_record.push(secs / scan.records.len() as f64);
    }
    Ok(1.0 / fast_decile(&s_per_record))
}

pub fn analyzer_observe_ns() -> RunResult<f64> {
    let mut a = HealthAnalyzer::new(AnalyzerConfig::default()).map_err(err_text)?;
    let mut k = 0u32;
    Ok(ns_per_call(SLICES, 20_000, || {
        k = (k + 1) % 7;
        black_box(a.observe(&PeriodSample {
            power_w: 1795.0 + f64::from(k),
            cap_w: 1800.0,
            delta_f_mhz: f64::from(k) - 3.0,
            meter_stale: false,
            saturated: false,
            slo_miss_frac: 0.0,
        }));
    }))
}

pub fn registry_set_ns() -> f64 {
    let mut reg = Registry::new();
    let g = reg.gauge("bench_power_watts", &[("backend", "sim")]);
    let mut x = 0.0;
    ns_per_call(SLICES, 200_000, || {
        x += 0.25;
        reg.set(g, black_box(x));
    })
}

// ---------------------------------------------------------------------
// Fleet layers
// ---------------------------------------------------------------------

/// `FleetTopology::divide` over the fleet's own demand vector (µs).
pub fn fleet_divide_us(topology: &FleetTopology, budget: f64, stats: &[ServerStat]) -> f64 {
    let demands: Vec<f64> = stats.iter().map(|s| s.demand).collect();
    let floors: Vec<f64> = stats.iter().map(|s| s.min_watts).collect();
    ns_per_call(SLICES, 500, || {
        black_box(topology.divide(budget, black_box(&demands), &floors));
    }) / 1e3
}

/// `balancer::plan` over the fleet's final per-server statistics (µs).
pub fn fleet_plan_us(stats: &[ServerStat]) -> f64 {
    let cfg = MigrationConfig::default();
    ns_per_call(SLICES, 500, || {
        black_box(capgpu_fleet::balancer::plan(black_box(stats), &cfg));
    }) / 1e3
}
