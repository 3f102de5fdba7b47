//! Performance snapshot: times the fixed reference sweep (the Fig. 6
//! accuracy grid, shortened) three ways — the pre-engine per-cell serial
//! pattern, the sweep engine's serial path, and the engine at 1/2/4/8
//! threads — verifies all of them produce bit-identical traces, and
//! writes the machine-readable `BENCH_sweep.json` so each PR can track
//! the repo's perf trajectory.
//!
//! Regenerate with:
//! `cargo run --release -p capgpu-bench --bin perf_snapshot`
//!
//! With `--check`, re-measures and compares against the committed
//! `BENCH_sweep.json` instead of overwriting it — the CI
//! perf-regression gate. It exits nonzero when any [`Gate`] in the table
//! at the end of `main` regresses by more than 30% (tolerance
//! overridable with `CAPGPU_PERF_TOLERANCE`) or exceeds its absolute
//! ceiling, or when one of the four structural floors listed after it
//! does not hold.

use capgpu::prelude::*;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::mpc::{MpcConfig, MpcController};
use capgpu_control::sysid::{RlsIdentifier, SystemIdentifier};
use capgpu_serve::{ArrivalGen, ArrivalProcess, ServeEngine, ServiceModel};
use std::fmt::Write as _;
use std::time::Instant;

/// Allowed slowdown factor before `--check` fails the build. Overridable
/// via [`TOLERANCE_ENV`] — see [`regression_factor`].
const REGRESSION_FACTOR: f64 = 1.30;

/// Environment variable overriding [`REGRESSION_FACTOR`], e.g.
/// `CAPGPU_PERF_TOLERANCE=1.5` on a noisy shared host. Values below 1.0
/// are ignored (a gate tighter than "no regression" is meaningless).
const TOLERANCE_ENV: &str = "CAPGPU_PERF_TOLERANCE";

/// The allowed slowdown factor for every relative `--check` gate:
/// `CAPGPU_PERF_TOLERANCE` when set to a float ≥ 1.0, else
/// [`REGRESSION_FACTOR`].
fn regression_factor() -> f64 {
    std::env::var(TOLERANCE_ENV)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&f| f.is_finite() && f >= 1.0)
        .unwrap_or(REGRESSION_FACTOR)
}

/// Absolute ceiling for one telemetry metric record (counter/gauge/
/// histogram), ns — enforced by `--check` regardless of the committed
/// snapshot.
const TELEMETRY_RECORD_BUDGET_NS: f64 = 50.0;

/// Absolute ceiling for one traced span enter/exit pair (two
/// `Instant::now()` reads plus the stack bookkeeping), ns.
const SPAN_PAIR_BUDGET_NS: f64 = 500.0;

/// Additive widening (ns) for relative gates on nanosecond-scale
/// telemetry metrics: at ~2 ns/record, 30% headroom is fractions of a
/// ns — host jitter alone would fail the build without this floor.
const NS_GATE_NOISE_FLOOR: f64 = 25.0;

/// One `--check` gate of a measured metric against the committed
/// snapshot's value for `key`.
struct Gate {
    key: &'static str,
    measured: f64,
    unit: &'static str,
    /// Wall times regress upward; throughput rates regress downward, so
    /// their gate inverts (fail below committed / factor).
    lower_is_better: bool,
    /// Additive widening of the limit, in `unit`s.
    noise_floor: f64,
    /// Absolute limit that holds whatever the snapshot says, and stands
    /// in for it when the snapshot lacks the key.
    ceiling: Option<f64>,
}

impl Gate {
    /// Prints the verdict against the committed value (`None` = the
    /// snapshot lacks the key) and returns whether the gate failed. The
    /// limit is the tighter of the relative one and the ceiling,
    /// whichever exist; with neither there is nothing to check.
    fn fails(&self, committed: Option<f64>, factor: f64) -> bool {
        let (key, measured, unit) = (self.key, self.measured, self.unit);
        let relative = committed.map(|old| match self.lower_is_better {
            true => old * factor + self.noise_floor,
            false => old / factor,
        });
        let limits = [relative, self.ceiling];
        let Some(limit) = limits.into_iter().flatten().reduce(f64::min) else {
            println!("perf check: key \"{key}\" missing from committed snapshot, skipping");
            return false;
        };
        let failed = match self.lower_is_better {
            true => measured > limit,
            false => measured < limit,
        };
        let digits = match unit {
            "ms" => 3,
            "ns" => 1,
            _ => 0,
        };
        let committed = committed.map_or("none".into(), |old| format!("{old:.digits$} {unit}"));
        println!(
            "perf check {key}: committed {committed}, measured {measured:.digits$} {unit}, limit {limit:.digits$} {unit} [{}]",
            if failed { "FAIL" } else { "ok" }
        );
        failed
    }
}

/// Pulls the number following `"key":` out of the committed snapshot.
/// The snapshot is written by this binary with one scalar per line, so
/// a syntactic scan is enough — no JSON parser in the dependency tree.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Repeated-refit comparison at the testbed's device count: every
/// control period gets one new `(F, p̄)` sample and wants a refreshed
/// model. The batch path refits the whole growing history each time
/// (O(m·n²)); the streaming path folds the sample into the QR factor
/// and back-substitutes (O(n²)). Returns (batch_ms, rls_ms).
fn repeated_refit_comparison(n: usize) -> (f64, f64) {
    const HISTORY: usize = 64;
    const REFITS: usize = 200;
    let row = |i: usize| -> Vec<f64> {
        (0..n)
            .map(|d| 435.0 + (2400.0 - 435.0) * ((i * (2 * d + 3)) % 17) as f64 / 16.0)
            .collect()
    };
    let power = |f: &[f64]| -> f64 {
        280.0
            + f.iter()
                .enumerate()
                .map(|(d, x)| (0.05 + 0.02 * d as f64) * x)
                .sum::<f64>()
    };

    let mut batch = SystemIdentifier::new(n);
    let mut rls = RlsIdentifier::with_forgetting(n, 0.995).expect("rls");
    for i in 0..HISTORY {
        let f = row(i);
        let p = power(&f);
        batch.record(&f, p);
        rls.record(&f, p);
    }

    let t0 = Instant::now();
    for i in 0..REFITS {
        let f = row(HISTORY + i);
        batch.record(&f, power(&f));
        std::hint::black_box(batch.fit().expect("batch fit"));
    }
    let batch_ms = ms(t0.elapsed());

    let t0 = Instant::now();
    for i in 0..REFITS {
        let f = row(HISTORY + i);
        rls.record(&f, power(&f));
        std::hint::black_box(rls.fit().expect("rls fit"));
    }
    let rls_ms = ms(t0.elapsed());
    (batch_ms, rls_ms)
}

/// Serving-engine hot path (enqueue → dispatch → complete) at a drained
/// high-rate operating point: a fast service model keeps the queue
/// bounded so the event mix is dominated by arrivals and batch
/// completions rather than shedding. Returns wall-clock events/second.
fn serve_events_per_sec() -> f64 {
    let model = ServiceModel {
        e_min_s: 1e-4,
        gamma: 0.9,
        f_max_mhz: 1380.0,
        max_batch: 32,
        batch_overhead: 0.3,
    };
    let arrivals =
        ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 50_000.0 }, 7).expect("arrival gen");
    let mut engine = ServeEngine::new(model, 2e-4, 4096, arrivals).expect("serve engine");
    // Warmup window: allocate buffers, fill the queue.
    engine.advance(1.0, 1200.0);
    // Best of 3 intervals — throughput on a shared host jitters
    // downward, and the `--check` gate compares like to like.
    let mut best = 0.0_f64;
    for _ in 0..3 {
        let before = engine.events_total();
        let t0 = Instant::now();
        let mut elapsed = 0.0;
        while elapsed < 0.15 {
            std::hint::black_box(engine.advance(1.0, 1200.0));
            elapsed = t0.elapsed().as_secs_f64();
        }
        best = best.max((engine.events_total() - before) as f64 / elapsed);
    }
    assert!(engine.conserved(), "serve bench lost requests");
    best
}

/// LLM continuous-batcher hot path (arrival → chunked prefill → batched
/// decode → completion, with KV accounting on every step) at a saturated
/// operating point: short prompts and outputs keep the request churn —
/// and thus the admission/completion event rate — high while decode
/// batches stay full. Returns wall-clock simulated tokens/second.
fn llm_tokens_per_sec() -> f64 {
    let model = LlmServiceModel {
        f_max_mhz: 1380.0,
        prefill_tok_s: 50_000.0,
        gamma_prefill: 0.95,
        decode_base_s: 5e-4,
        decode_kv_coeff_s: 1e-8,
        gamma_decode: 0.2,
        step_overhead_s: 5e-5,
        max_batch: 64,
        kv_budget_tokens: 120_000,
        chunk_tokens: Some(256),
        gpu_util_prefill: 0.95,
        gpu_util_decode: 0.55,
    };
    let spec = LlmTaskSpec {
        arrival: ArrivalProcess::Poisson { rate_rps: 800.0 },
        prompt: TokenRange { lo: 100, hi: 300 },
        output: TokenRange { lo: 50, hi: 150 },
        ttft_slo_s: 1.0,
        itl_slo_s: 0.1,
    };
    let mut engine = LlmEngine::new(model, spec, 4096, 7).expect("llm engine");
    // Warmup window: allocate buffers, fill the running batch.
    engine.advance(1.0, 1200.0);
    let mut best = 0.0_f64;
    for _ in 0..3 {
        let before = engine.prefill_tokens_total() + engine.decode_tokens_total();
        let t0 = Instant::now();
        let mut elapsed = 0.0;
        while elapsed < 0.15 {
            std::hint::black_box(engine.advance(1.0, 1200.0));
            elapsed = t0.elapsed().as_secs_f64();
        }
        let after = engine.prefill_tokens_total() + engine.decode_tokens_total();
        best = best.max((after - before) as f64 / elapsed);
    }
    assert!(engine.conserved(), "llm bench lost requests");
    assert!(engine.tokens_conserved(), "llm bench lost tokens");
    best
}

/// Supervisor hot path: one `step()` per control period, ingesting the
/// period's health evidence and returning the failover directive. Best
/// of 3 intervals of 10k steps, reported in ns/step — the `--check`
/// gate also bounds it at 5% of an MPC control step, since it runs in
/// series with the controller on every period.
fn supervisor_overhead_ns() -> f64 {
    const STEPS: usize = 10_000;
    let gains = vec![0.035, 0.095, 0.095, 0.095];
    let mut sup = Supervisor::new(SupervisorConfig::default(), gains, 4).expect("supervisor");
    let applied = [2000.0, 900.0, 910.0, 920.0];
    let ejected = [false; 4];
    let mut round = 0usize;
    let (best_ms, ()) = measure_gated("supervisor_step", 3, || {
        for i in 0..STEPS {
            // Alternate applied vectors so the residual window stays hot
            // (the realistic steady state) without tripping authority.
            let shift = ((round * STEPS + i) % 3) as f64;
            let obs = HealthSample {
                fresh_samples: 4,
                meter_age_s: Some(0),
                avg_power: 900.0 + shift,
                setpoint: 900.0,
                psu_limit: None,
                applied_mean: &[
                    applied[0] + shift,
                    applied[1],
                    applied[2] + shift,
                    applied[3],
                ],
                ejected: &ejected,
            };
            std::hint::black_box(sup.step(&obs));
        }
        round += 1;
    });
    best_ms * 1e6 / STEPS as f64
}

/// Per-call MPC solve times (ns) at the testbed's device count:
/// the generic dense-KKT path, the fast box-QP path solved cold (warm
/// hint and region table cleared before every call), and the fast path
/// in its steady state (explicit-region hits).
struct MpcSolveNs {
    generic: f64,
    cold: f64,
    warm: f64,
}

/// Times one control period's solve on an 8-GPU server (1 CPU + 8 GPUs,
/// the paper's "about 4 to 8 GPUs" headline size), best of 5 intervals
/// of 2000 calls. The steady-state loop re-solves the identical problem,
/// which is exactly what the controller sees between set-point changes —
/// the explicit-MPC region table turns those periods into a
/// cached-factor polish.
fn mpc_solve_ns() -> MpcSolveNs {
    const STEPS: usize = 2_000;
    const GPUS: usize = 8;
    let mut f_min = vec![1000.0];
    let mut f_max = vec![2400.0];
    let mut gains = vec![0.05];
    f_min.extend(std::iter::repeat_n(435.0, GPUS));
    f_max.extend(std::iter::repeat_n(1350.0, GPUS));
    gains.extend(std::iter::repeat_n(0.1475, GPUS));
    let make = |fast: bool| {
        let mut config = MpcConfig::paper_defaults(f_min.clone(), f_max.clone());
        config.fast_solver = fast;
        let model = LinearPowerModel::new(gains.clone(), 330.0).expect("model");
        MpcController::new(config, model).expect("controller")
    };
    let mut freqs = vec![1700.0];
    freqs.extend(std::iter::repeat_n(900.0, GPUS));
    let weights = vec![1.0; GPUS + 1];
    let floors = f_min.clone();
    let run = |name: &str, ctrl: &MpcController, reset: bool| -> f64 {
        let (best_ms, ()) = measure_gated(name, 5, || {
            for _ in 0..STEPS {
                if reset {
                    ctrl.reset_fast_path();
                }
                std::hint::black_box(
                    ctrl.step(930.0, 900.0, &freqs, &weights, &floors)
                        .expect("mpc step"),
                );
            }
        });
        best_ms * 1e6 / STEPS as f64
    };

    let generic = run("mpc_generic", &make(false), false);
    let cold = run("mpc_fast_cold", &make(true), true);
    let warm_ctrl = make(true);
    let warm = run("mpc_fast_warm", &warm_ctrl, false);
    let (hits, misses) = warm_ctrl.fast_solver_stats();
    assert!(
        hits > 10 * misses,
        "steady-state loop must be hit-dominated (hits {hits}, misses {misses})"
    );
    MpcSolveNs {
        generic,
        cold,
        warm,
    }
}

/// Streaming sweep-engine throughput: a 16 seeds × 10 set points × 2
/// controllers = 320-cell FixedStep grid through
/// [`SweepSpec::streaming`], best of 3, reported in cells/second.
/// Also cross-checks 4-thread bit-identity against the serial fold.
fn sweep_streaming_cells_per_sec() -> f64 {
    let setpoints: Vec<f64> = (0..10).map(|i| 880.0 + 15.0 * i as f64).collect();
    let mut spec = SweepSpec::new(Scenario::paper_testbed(1))
        .setpoints(&setpoints)
        .periods(1)
        .controller(ControllerSpec::FixedStep { multiplier: 1 })
        .controller(ControllerSpec::FixedStep { multiplier: 2 });
    for seed in 0..16 {
        spec = spec.seed(seed);
    }
    let cells = spec.num_cells();
    let (best_ms, streamed) = measure_gated("sweep_streaming", 3, || {
        spec.streaming_with_threads(4).expect("streaming sweep")
    });
    assert_eq!(
        streamed,
        spec.streaming_serial().expect("serial streaming"),
        "streamed summary diverged from the serial fold"
    );
    cells as f64 / (best_ms / 1e3)
}

/// Fleet-simulator throughput: a 24-server mixed-generation fleet
/// (DESIGN.md §16) run for 3 allocator epochs × 4 control periods on 2
/// worker threads, best of 3, reported in server-periods/second. One
/// iteration covers the whole fleet loop: hierarchical re-division,
/// sharded server stepping through the reorder window, per-rack folding,
/// and migration planning. Construction (per-class identification) is
/// excluded — the steady-state stepping rate is what bounds fleet-scale
/// studies.
fn fleet_server_periods_per_sec() -> f64 {
    use capgpu_fleet::prelude::*;
    let topo = || {
        FleetTopology::datacenter(4, 6, |rack, slot| ServerSpec {
            class: slot % 3,
            streams: if slot < rack % 5 { 5 } else { 4 },
        })
        .expect("fleet topology")
    };
    let cfg = || FleetConfig {
        epochs: 3,
        epoch_periods: 4,
        ..FleetConfig::new(1700.0 * 24.0)
    };
    let classes = mixed_generation_classes(41);
    let mut sims: Vec<FleetSim> = (0..3)
        .map(|_| FleetSim::new(topo(), &classes, cfg()).expect("fleet sim"))
        .collect();
    let mut server_periods = 0;
    let (best_ms, ()) = measure_gated("fleet_sim", 3, || {
        let mut sim = sims.pop().expect("pre-built sim");
        let report = sim.run(2).expect("fleet run");
        server_periods = report.server_periods;
        std::hint::black_box(report);
    });
    server_periods as f64 / (best_ms / 1e3)
}

/// Reference sweep: 5 controllers × 7 set points × 1 seed.
const SETPOINT_LO: f64 = 900.0;
const SETPOINT_STEP: f64 = 50.0;
const NUM_SETPOINTS: usize = 7;
const PERIODS: usize = 12;

fn reference_spec() -> SweepSpec {
    let setpoints: Vec<f64> = (0..NUM_SETPOINTS)
        .map(|i| SETPOINT_LO + SETPOINT_STEP * i as f64)
        .collect();
    SweepSpec::new(Scenario::paper_testbed(42))
        .setpoints(&setpoints)
        .periods(PERIODS)
        .controller(ControllerSpec::SafeFixedStep { multiplier: 1 })
        .controller(ControllerSpec::GpuOnly)
        .controller(ControllerSpec::Split { gpu_share: 0.4 })
        .controller(ControllerSpec::Split { gpu_share: 0.6 })
        .controller(ControllerSpec::CapGpu)
}

/// The pre-engine pattern every figure bin used: one fresh runner per
/// cell, identification re-run lazily inside each controller builder.
fn per_cell_serial() -> Vec<RunTrace> {
    let mut traces = Vec::new();
    for i in 0..NUM_SETPOINTS {
        let sp = SETPOINT_LO + SETPOINT_STEP * i as f64;
        for which in 0..5 {
            let mut r = ExperimentRunner::new(Scenario::paper_testbed(42), sp).expect("runner");
            let c: Box<dyn PowerController> = match which {
                0 => Box::new(r.build_safe_fixed_step(1).expect("sfs")),
                1 => Box::new(r.build_gpu_only().expect("gpu-only")),
                2 => Box::new(r.build_split(0.4).expect("split40")),
                3 => Box::new(r.build_split(0.6).expect("split60")),
                _ => Box::new(r.build_capgpu_controller().expect("capgpu")),
            };
            traces.push(r.run(c, PERIODS).expect("run"));
        }
    }
    traces
}

fn ms(t: std::time::Duration) -> f64 {
    t.as_secs_f64() * 1e3
}

/// Best-of-`n` wall time (ms) for a gated metric, plus the last result.
///
/// Every metric that feeds a `--check` gate uses this estimator:
/// single-shot timings on a busy host jitter by ±40%, enough to trip a
/// 1.3x gate on noise alone, while minima are stable — and the committed
/// and measured sides of each gate then compare like to like.
fn measure_gated<T>(name: &str, n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(n > 0, "measure_gated({name}) needs at least one repeat");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let out = f();
        best = best.min(ms(t0.elapsed()));
        last = Some(out);
    }
    (best, last.expect("ran at least once"))
}

/// Telemetry record hot path: one fully labeled metric record (counter
/// increment + gauge set + histogram observe, averaged over the three).
/// Budget: ≤ 50 ns/record, so a fully instrumented control period stays
/// invisible next to the MPC solve it observes.
fn telemetry_record_ns() -> f64 {
    use capgpu_telemetry::registry::Registry;
    const RECORDS: usize = 300_000;
    let mut reg = Registry::new();
    let c = reg.counter("bench_records_total", &[("device", "gpu0")]);
    let g = reg.gauge("bench_power_watts", &[("device", "gpu0")]);
    let h = reg.histogram(
        "bench_error_watts",
        &[("device", "gpu0")],
        &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
    );
    let (best_ms, ()) = measure_gated("telemetry_record", 3, || {
        for i in 0..RECORDS {
            let v = (i % 128) as f64;
            reg.inc(c, 1);
            reg.set(g, v);
            reg.observe(h, v);
        }
        std::hint::black_box(&reg);
    });
    // Three primitive records per loop iteration.
    best_ms * 1e6 / (3 * RECORDS) as f64
}

/// Span enter/exit pair on the trace stack (wall-clock mode, the
/// expensive path — the deterministic default compiles the pair down to
/// two no-op calls).
fn span_enter_exit_ns() -> f64 {
    use capgpu_telemetry::spans::SpanStack;
    const PAIRS: usize = 100_000;
    let mut spans = SpanStack::new();
    let id = spans.span("bench_span");
    let (best_ms, ()) = measure_gated("span_enter_exit", 3, || {
        for _ in 0..PAIRS {
            spans.enter(id);
            std::hint::black_box(spans.exit());
        }
    });
    best_ms * 1e6 / PAIRS as f64
}

/// Crash-recovery replay hot path: parse + state-fold a 100k-record
/// in-memory journal — what `capgpu-obs` and a restarting `capgpud` do
/// before the first recovered control period. Best of 3, reported as ms
/// for the whole journal. Replay time is operator-visible restart
/// downtime, so the `--check` gate treats it like the other wall-time
/// metrics: slower fails (NOT inverted, unlike the throughput rates).
fn obs_replay_ms() -> f64 {
    use capgpu_obs::reader::parse_jsonl;
    use capgpu_obs::replay::ReplayState;
    const RECORDS: usize = 100_000;
    let mut text = String::with_capacity(RECORDS * 160);
    for i in 0..RECORDS as u64 {
        let _ = writeln!(
            text,
            "{{\"v\":1,\"period\":{i},\"t_s\":{},\"kind\":\"period\",\"tier\":0,\"watts\":8{}0.25,\"setpoint\":900,\"stale\":0,\"delta_f_mhz\":-1.5,\"saturated\":false,\"targets\":\"13{}0,9{}2.5,875\"}}",
            4 * i,
            i % 10,
            i % 9,
            i % 7
        );
    }
    let (best_ms, state) = measure_gated("obs_replay", 3, || {
        let (records, torn) = parse_jsonl(&text, true).expect("parse journal");
        assert!(torn.is_none(), "synthetic journal has no torn tail");
        std::hint::black_box(ReplayState::replay(&records))
    });
    assert_eq!(state.last_period, Some(RECORDS as u64 - 1));
    best_ms
}

/// Backend-seam dispatch cost: one plant second driven through a boxed
/// `dyn PowerBackend` (`advance(1.0)` on a `SimBackend` with staged
/// utilizations) vs the identical second on the raw simulator `Server`
/// (`tick_second`). The trait is the control loop's and the daemon's
/// hot path — the gate below holds its dispatch overhead to ≤5% of the
/// direct tick. Returns `(dyn_ns, raw_ns)` per tick.
fn backend_step_ns() -> (f64, f64) {
    use capgpu_backend::{PowerBackend, SimBackend};
    use capgpu_sim::{presets, Server, ServerBuilder};
    const TICKS: usize = 100_000;
    let build = || -> Server {
        ServerBuilder::new(42)
            .add_device(presets::xeon_gold_5215())
            .add_device(presets::tesla_v100())
            .add_device(presets::tesla_v100())
            .build()
            .expect("server")
    };
    let utils = [0.85, 0.9, 0.7];
    let mut raw = build();
    let (raw_ms, ()) = measure_gated("backend_raw_tick", 3, || {
        for _ in 0..TICKS {
            std::hint::black_box(raw.tick_second(&utils).expect("tick"));
        }
    });
    let mut boxed: Box<dyn PowerBackend> = {
        let mut b = SimBackend::new(build());
        b.stage_utilizations(&utils).expect("stage");
        Box::new(b)
    };
    let (dyn_ms, ()) = measure_gated("backend_dyn_step", 3, || {
        for _ in 0..TICKS {
            std::hint::black_box(boxed.advance(1.0).expect("advance"));
        }
    });
    (dyn_ms * 1e6 / TICKS as f64, raw_ms * 1e6 / TICKS as f64)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let spec = reference_spec();
    let cells = spec.num_cells();
    println!("reference sweep: {cells} cells (5 controllers x {NUM_SETPOINTS} set points, {PERIODS} periods), available_parallelism = {cores}");

    // Baseline: the pre-engine per-cell serial pattern.
    let t0 = Instant::now();
    let baseline = per_cell_serial();
    let per_cell_ms = ms(t0.elapsed());
    println!("per-cell serial (seed path):  {per_cell_ms:9.1} ms");

    // Engine, serial reference implementation (gated → best of 3).
    let (engine_serial_ms, serial) = measure_gated("engine_serial", 3, || {
        spec.run_serial().expect("serial sweep")
    });
    println!("engine serial (shared ident): {engine_serial_ms:9.1} ms (best of 3)");

    // Engine across thread counts.
    let thread_counts = [1usize, 2, 4, 8];
    let mut parallel_ms = Vec::new();
    let mut parallel_identical = true;
    for &threads in &thread_counts {
        let t0 = Instant::now();
        let report = spec.run_with_threads(threads).expect("parallel sweep");
        let elapsed = ms(t0.elapsed());
        parallel_identical &= report == serial;
        println!("engine {threads} thread(s):           {elapsed:9.1} ms");
        parallel_ms.push(elapsed);
    }

    // Bit-exactness of the engine against the pre-engine pattern.
    let engine_matches_per_cell = serial.traces().zip(baseline.iter()).all(|(a, b)| a == b)
        && serial.traces().count() == baseline.len();

    let best_parallel_ms = parallel_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let speedup = per_cell_ms / best_parallel_ms;
    println!("speedup vs per-cell serial:   {speedup:9.2}x");
    println!("bit-identical: parallel vs serial = {parallel_identical}, engine vs per-cell = {engine_matches_per_cell}");

    // Per-phase breakdown of one reference cell, to guide optimization.
    // The identification phase is gated, so it too takes the best of N;
    // runners are pre-built so only `identify()` lands in the timed
    // region, matching the committed snapshot's methodology.
    let t0 = Instant::now();
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(42), 900.0).expect("runner");
    let new_ms = ms(t0.elapsed());
    let mut fresh: Vec<ExperimentRunner> = (0..5)
        .map(|_| ExperimentRunner::new(Scenario::paper_testbed(42), 900.0).expect("runner"))
        .collect();
    let (identify_ms, _) = measure_gated("identify", 5, || {
        let mut r = fresh.pop().expect("pre-built runner");
        r.identify().expect("identify");
    });
    runner.identify().expect("identify");
    let controller = runner.build_capgpu_controller().expect("controller");
    let t0 = Instant::now();
    runner.run(controller, 100).expect("run");
    let run100_ms = ms(t0.elapsed());

    let mut c2 = {
        let mut r = ExperimentRunner::new(Scenario::paper_testbed(42), 900.0).expect("runner");
        let c = r.build_capgpu_controller().expect("controller");
        (r, c)
    };
    use capgpu::controllers::ControlInput;
    let n = c2.0.layout().len();
    let targets = c2.0.layout().f_min.clone();
    let thr = vec![0.8; n];
    let floors = c2.0.layout().f_min.clone();
    let dev_power = vec![150.0; n];
    let input = ControlInput {
        measured_power: 950.0,
        setpoint: 900.0,
        current_targets: &targets,
        normalized_throughput: &thr,
        device_power: &dev_power,
        floors: &floors,
        phase_mix: None,
    };
    let t0 = Instant::now();
    for _ in 0..100 {
        std::hint::black_box(c2.1.control(&input).expect("control"));
    }
    let mpc100_ms = ms(t0.elapsed());
    println!(
        "cell phases: new {new_ms:.2} ms, identify {identify_ms:.2} ms, run(100) {run100_ms:.2} ms, 100 MPC calls {mpc100_ms:.2} ms"
    );

    // Streaming-refit comparison: 200 model refreshes over a growing
    // history, batch refit vs the QR-RLS path the runner uses when
    // `rls_tracking` is enabled.
    let (identify_refit_batch_ms, identify_rls_ms) =
        repeated_refit_comparison(runner.layout().len());
    let rls_speedup = identify_refit_batch_ms / identify_rls_ms;
    println!(
        "200 model refreshes: batch refit {identify_refit_batch_ms:.2} ms, streaming RLS {identify_rls_ms:.2} ms ({rls_speedup:.1}x)"
    );

    // Supervisor hot path: must stay negligible next to the MPC step it
    // wraps (budget: 5% of one control() call).
    let sup_ns = supervisor_overhead_ns();
    let mpc_step_ns = mpc100_ms * 1e6 / 100.0;
    let sup_budget_ok = sup_ns < 0.05 * mpc_step_ns;
    println!(
        "supervisor step: {sup_ns:.0} ns ({:.2}% of one MPC step) [{}]",
        100.0 * sup_ns / mpc_step_ns,
        if sup_budget_ok { "ok" } else { "OVER BUDGET" }
    );

    // Fast-MPC solver: the structure-exploiting box-QP path must beat
    // the generic dense-KKT solve 2x per control period in steady state
    // (DESIGN.md §15), and the explicit-region hit must be well below
    // the cold solve.
    let mpc = mpc_solve_ns();
    let mpc_vs_generic = mpc.generic / mpc.warm;
    let mpc_vs_cold = mpc.cold / mpc.warm;
    println!(
        "mpc solve: generic {:.0} ns, fast cold {:.0} ns, fast warm {:.0} ns ({mpc_vs_generic:.1}x vs generic, {mpc_vs_cold:.1}x vs cold)",
        mpc.generic, mpc.cold, mpc.warm
    );

    // Streaming sweep-engine throughput (larger is better — inverted
    // gate, like the serving engine's).
    let sweep_cps = sweep_streaming_cells_per_sec();
    println!("streaming sweep: {sweep_cps:.0} cells/sec (320-cell grid, 4 threads, serial-fold verified)");

    // Fleet-simulator throughput (larger is better — inverted gate).
    let fleet_sps = fleet_server_periods_per_sec();
    println!(
        "fleet simulator: {fleet_sps:.0} server-periods/sec (24-server mixed fleet, 2 threads)"
    );

    // Serving-engine event throughput (larger is better; the `--check`
    // gate below is therefore inverted for this metric).
    let serve_eps = serve_events_per_sec();
    let serve_floor_ok = serve_eps >= 1e6;
    println!(
        "serve engine hot path: {:.2}M events/sec [{}] (floor 1.00M)",
        serve_eps / 1e6,
        if serve_floor_ok { "ok" } else { "BELOW FLOOR" }
    );

    // LLM continuous-batcher throughput (larger is better — inverted
    // gate, like the serving engine's).
    let llm_tps = llm_tokens_per_sec();
    println!(
        "llm batcher hot path: {:.2}M simulated tokens/sec",
        llm_tps / 1e6
    );

    // Telemetry hot paths: one metric record and one traced span pair.
    // The record budget is absolute — 50 ns keeps a fully instrumented
    // period invisible next to the solve it observes.
    let record_ns = telemetry_record_ns();
    let record_budget_ok = record_ns <= TELEMETRY_RECORD_BUDGET_NS;
    println!(
        "telemetry record: {record_ns:.1} ns [{}] (budget {TELEMETRY_RECORD_BUDGET_NS:.0} ns)",
        if record_budget_ok {
            "ok"
        } else {
            "OVER BUDGET"
        }
    );
    let span_ns = span_enter_exit_ns();
    println!("telemetry span enter+exit: {span_ns:.1} ns (wall-clock tracing mode)");

    // Journal replay: restart downtime for a 100k-record journal.
    let replay_ms = obs_replay_ms();
    println!("obs journal replay: {replay_ms:.1} ms for 100k records (parse + state fold)");

    // PowerBackend seam: the runner and daemon sense/actuate through
    // `dyn PowerBackend`; its dispatch must stay invisible next to the
    // plant tick it wraps (budget: 5% of the direct tick).
    let (backend_dyn_ns, backend_raw_ns) = backend_step_ns();
    let backend_overhead_pct = 100.0 * (backend_dyn_ns - backend_raw_ns) / backend_raw_ns;
    let backend_ceiling_ns = backend_raw_ns * 1.05 + NS_GATE_NOISE_FLOOR;
    let backend_budget_ok = backend_dyn_ns <= backend_ceiling_ns;
    println!(
        "backend seam step: raw tick {backend_raw_ns:.0} ns, dyn-dispatch {backend_dyn_ns:.0} ns ({backend_overhead_pct:+.1}% overhead) [{}]",
        if backend_budget_ok { "ok" } else { "OVER BUDGET" }
    );

    if std::env::args().any(|a| a == "--check") {
        let committed = std::fs::read_to_string("BENCH_sweep.json")
            .expect("--check needs a committed BENCH_sweep.json");
        let factor = regression_factor();
        if (factor - REGRESSION_FACTOR).abs() > f64::EPSILON {
            println!("perf check: {TOLERANCE_ENV} overrides tolerance to {factor}x");
        }
        let gate = |key, measured, unit, lower_is_better| Gate {
            key,
            measured,
            unit,
            lower_is_better,
            noise_floor: 0.0,
            ceiling: None,
        };
        // Nanosecond-scale gates get the additive noise floor; the two
        // telemetry ones also an absolute ceiling, because
        // instrumentation that shows up in the solve's profile defeats
        // its purpose. Replay time is restart downtime, so it is a
        // wall-time gate, not an inverted throughput gate.
        let ns_gate = |key, measured, ceiling| Gate {
            noise_floor: NS_GATE_NOISE_FLOOR,
            ceiling,
            ..gate(key, measured, "ns", true)
        };
        let gates = [
            gate("engine_serial_ms", engine_serial_ms, "ms", true),
            gate("identify", identify_ms, "ms", true),
            ns_gate("mpc_solve_ns", mpc.warm, None),
            gate("sweep_cells_per_sec", sweep_cps, "/s", false),
            gate("fleet_server_periods_per_sec", fleet_sps, "/s", false),
            gate("supervisor_overhead_ns", sup_ns, "ns", true),
            gate("serve_events_per_sec", serve_eps, "/s", false),
            gate("llm_tokens_per_sec", llm_tps, "/s", false),
            ns_gate(
                "telemetry_record_ns",
                record_ns,
                Some(TELEMETRY_RECORD_BUDGET_NS),
            ),
            ns_gate("span_enter_exit_ns", span_ns, Some(SPAN_PAIR_BUDGET_NS)),
            gate("obs_replay_ms", replay_ms, "ms", true),
            ns_gate("backend_step_ns", backend_dyn_ns, None),
        ];
        let mut failed = false;
        for g in &gates {
            failed |= g.fails(extract_number(&committed, g.key), factor);
        }
        // Structural floors: ceilings that do not depend on the committed
        // snapshot, looser than the ratios it records (≥5x) so host
        // jitter cannot flake the build. The fast MPC path must halve
        // the generic solve and its explicit-region hit stay under a
        // third of the cold solve; the supervisor and the backend trait
        // hop must stay invisible next to the MPC step and the plant
        // tick they wrap.
        let floor = |key, measured, ceiling| Gate {
            ceiling: Some(ceiling),
            ..gate(key, measured, "ns", true)
        };
        let floors = [
            floor("mpc fast path vs generic / 2", mpc.warm, mpc.generic / 2.0),
            floor("mpc region hit vs cold / 3", mpc.warm, mpc.cold / 3.0),
            floor("supervisor vs 5% of MPC step", sup_ns, 0.05 * mpc_step_ns),
            floor(
                "backend dyn vs raw tick * 1.05 + 25",
                backend_dyn_ns,
                backend_ceiling_ns,
            ),
        ];
        for g in &floors {
            failed |= g.fails(None, factor);
        }
        if failed {
            println!("perf check FAILED: regression above {factor}x committed baseline");
            std::process::exit(1);
        }
        println!("perf check passed (snapshot left untouched)");
    } else {
        let json = format!(
            r#"{{
  "bench": "sweep_engine_reference",
  "regenerate": "cargo run --release -p capgpu-bench --bin perf_snapshot",
  "available_parallelism": {cores},
  "reference_sweep": {{"scenario": "paper_testbed(42)", "controllers": 5, "setpoints": {NUM_SETPOINTS}, "seeds": 1, "periods": {PERIODS}, "cells": {cells}}},
  "per_cell_serial_ms": {per_cell_ms:.3},
  "engine_serial_ms": {engine_serial_ms:.3},
  "engine_parallel_ms": {{"1": {:.3}, "2": {:.3}, "4": {:.3}, "8": {:.3}}},
  "best_parallel_ms": {best_parallel_ms:.3},
  "speedup_vs_per_cell_serial": {speedup:.3},
  "bit_identical": {{"parallel_vs_serial": {parallel_identical}, "engine_vs_per_cell": {engine_matches_per_cell}}},
  "cell_phase_ms": {{"runner_new": {new_ms:.3}, "identify": {identify_ms:.3}, "run_100_periods": {run100_ms:.3}, "mpc_100_calls": {mpc100_ms:.3}}},
  "repeated_refit_ms": {{"batch": {identify_refit_batch_ms:.3}, "identify_rls_ms": {identify_rls_ms:.3}, "rls_speedup": {rls_speedup:.3}}},
  "supervisor_overhead_ns": {sup_ns:.1},
  "mpc_solve": {{"generic_ns": {:.1}, "cold_ns": {:.1}, "warm_speedup_vs_generic": {mpc_vs_generic:.2}, "warm_speedup_vs_cold": {mpc_vs_cold:.2}}},
  "mpc_solve_ns": {:.1},
  "sweep_cells_per_sec": {sweep_cps:.0},
  "fleet_server_periods_per_sec": {fleet_sps:.0},
  "serve_events_per_sec": {serve_eps:.0},
  "llm_tokens_per_sec": {llm_tps:.0},
  "telemetry_record_ns": {record_ns:.1},
  "span_enter_exit_ns": {span_ns:.1},
  "obs_replay_ms": {replay_ms:.3},
  "backend_step": {{"raw_tick_ns": {backend_raw_ns:.1}, "dyn_step_ns": {backend_dyn_ns:.1}, "overhead_pct": {backend_overhead_pct:.2}}},
  "backend_step_ns": {backend_dyn_ns:.1},
  "note": "speedup on single-core hosts comes from sharing one identification pass per (scenario, seed) class across all cells; on multi-core hosts the cell phase additionally scales with the thread count"
}}
"#,
            parallel_ms[0],
            parallel_ms[1],
            parallel_ms[2],
            parallel_ms[3],
            mpc.generic,
            mpc.cold,
            mpc.warm
        );
        std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
        println!("wrote BENCH_sweep.json");
    }
}
