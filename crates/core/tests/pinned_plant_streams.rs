//! Pinned simulated streams of the three workload plants behind
//! `capgpu::plant` — `LlmEngine`, `ServeEngine`, `PipelineSim`.
//!
//! A change that makes a plant *faster* must not make it *different*:
//! each case below drives one engine (`closed_eval`: one per evaluation
//! model, in turn) for 600 one-second windows and folds every field of
//! every window's statistics (floats by bit pattern) plus the engine's
//! lifetime counters into one FNV-1a hash, compared against a constant
//! captured before the code it pins was changed for speed. The clock
//! changes every window in every case, so a factor hoisted out of the
//! event loop and then not refreshed per window cannot hide. A mismatch
//! means the simulated stream moved — which a speed-up never justifies;
//! re-pin only in a PR whose purpose is to move digits.

use capgpu_llm::{LlmEngine, LlmServiceModel, LlmTaskSpec, TokenRange};
use capgpu_serve::{ArrivalGen, ArrivalProcess, ServeEngine, ServeWindowStats, ServiceModel};
use capgpu_workload::models;
use capgpu_workload::pipeline::{ArrivalMode, PipelineConfig, PipelineSim, WindowStats};

const WINDOWS: usize = 600;
const SEEDS: [u64; 3] = [42, 1337, 7];

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        xs.iter().for_each(|&x| self.f64(x));
    }

    fn usizes(&mut self, xs: &[usize]) {
        self.usize(xs.len());
        xs.iter().for_each(|&x| self.usize(x));
    }
}

/// A clock (MHz) that differs in every window: a stride coprime to the
/// span walks `[lo, hi)` without settling, with a fractional part.
fn clock_mhz(k: usize, lo: f64, hi: f64) -> f64 {
    let span = (hi - lo) as usize;
    lo + ((k * 389) % span) as f64 + 0.25 * (k % 4) as f64
}

/// Every field, destructured without `..` so a field added later fails
/// to compile here instead of escaping the hash.
fn hash_serve_window(h: &mut Fnv, s: &ServeWindowStats) {
    let ServeWindowStats {
        window_s,
        arrivals,
        completions,
        batches,
        dropped,
        busy_fraction,
        request_latencies,
        queue_len_end,
        events,
        batch_sizes,
        prefill_tokens,
        decode_tokens,
        prefill_busy_s,
        decode_busy_s,
        kv_used_tokens_end,
        kv_budget_tokens,
        preemptions,
        ttft_s,
        inter_token_s,
    } = s;
    h.f64(*window_s);
    h.usize(*arrivals);
    h.usize(*completions);
    h.usize(*batches);
    h.usize(*dropped);
    h.f64(*busy_fraction);
    h.f64s(request_latencies);
    h.usize(*queue_len_end);
    h.usize(*events);
    h.usizes(batch_sizes);
    h.usize(*prefill_tokens);
    h.usize(*decode_tokens);
    h.f64(*prefill_busy_s);
    h.f64(*decode_busy_s);
    h.usize(*kv_used_tokens_end);
    h.usize(*kv_budget_tokens);
    h.usize(*preemptions);
    h.f64s(ttft_s);
    h.f64s(inter_token_s);
}

fn hash_pipeline_window(h: &mut Fnv, s: &WindowStats) {
    let WindowStats {
        images_completed,
        batches_completed,
        window_s,
        gpu_busy_fraction,
        gpu_util,
        cpu_worker_util,
        batch_latencies,
        queue_delays,
        mean_queue_len,
    } = s;
    h.usize(*images_completed);
    h.usize(*batches_completed);
    h.f64(*window_s);
    h.f64(*gpu_busy_fraction);
    h.f64(*gpu_util);
    h.f64(*cpu_worker_util);
    h.f64s(batch_latencies);
    h.f64s(queue_delays);
    h.f64(*mean_queue_len);
}

/// Compares every `(case, seed)` hash with its pin and reports all the
/// mismatches at once, in the form the table is written in.
fn check(plant: &str, got: &[(&str, [u64; 3])], want: &[(&str, [u64; 3])]) {
    let render = |rows: &[(&str, [u64; 3])]| {
        rows.iter()
            .map(|(name, h)| {
                format!(
                    "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                    h[0], h[1], h[2]
                )
            })
            .collect::<String>()
    };
    assert!(
        got == want,
        "{plant}: the simulated stream moved. Computed:\n{}",
        render(got)
    );
}

// ---------------------------------------------------------------- LLM

fn llm_model() -> LlmServiceModel {
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

fn llm_spec(rate_rps: f64, prompt: (usize, usize), output: (usize, usize)) -> LlmTaskSpec {
    LlmTaskSpec {
        arrival: ArrivalProcess::Poisson { rate_rps },
        prompt: TokenRange {
            lo: prompt.0,
            hi: prompt.1,
        },
        output: TokenRange {
            lo: output.0,
            hi: output.1,
        },
        ttft_slo_s: 0.6,
        itl_slo_s: 0.08,
    }
}

struct LlmCase {
    name: &'static str,
    model: LlmServiceModel,
    spec: LlmTaskSpec,
    queue_capacity: usize,
    /// Clock in force during window `k`.
    clock: fn(usize) -> f64,
}

fn llm_cases() -> Vec<LlmCase> {
    let two_level = |k: usize| [1380.0, 900.0][k % 2];
    let typical = || llm_spec(2.0, (200, 600), (40, 120));
    vec![
        LlmCase {
            name: "chunked",
            model: llm_model(),
            spec: typical(),
            queue_capacity: 256,
            clock: two_level,
        },
        LlmCase {
            name: "tight_kv",
            model: LlmServiceModel {
                kv_budget_tokens: 900,
                max_batch: 8,
                ..llm_model()
            },
            spec: llm_spec(4.0, (300, 400), (200, 400)),
            queue_capacity: 64,
            clock: two_level,
        },
        LlmCase {
            name: "small_queue",
            model: llm_model(),
            spec: llm_spec(30.0, (200, 600), (40, 120)),
            queue_capacity: 4,
            clock: two_level,
        },
        LlmCase {
            name: "clock_per_window",
            model: llm_model(),
            spec: typical(),
            queue_capacity: 256,
            clock: |k| clock_mhz(k, 500.0, 1380.0),
        },
    ]
}

fn llm_hash(case: &LlmCase, seed: u64) -> u64 {
    let mut engine =
        LlmEngine::new(case.model, case.spec.clone(), case.queue_capacity, seed).expect("engine");
    let mut stats = ServeWindowStats::default();
    let mut h = Fnv::new();
    for k in 0..WINDOWS {
        engine.advance_into(1.0, (case.clock)(k), &mut stats);
        hash_serve_window(&mut h, &stats);
    }
    match case.name {
        "tight_kv" => assert!(
            engine.preemptions_total() > 100,
            "{} seed {seed}: only {} preemptions",
            case.name,
            engine.preemptions_total()
        ),
        "small_queue" => assert!(engine.dropped_total() > 0, "small_queue never shed"),
        _ => {}
    }
    h.u64(engine.arrivals_total());
    h.u64(engine.completions_total());
    h.u64(engine.dropped_total());
    h.u64(engine.preemptions_total());
    h.u64(engine.steps_total());
    h.u64(engine.events_total());
    h.u64(engine.prefill_tokens_total());
    h.u64(engine.decode_tokens_total());
    h.usize(engine.queue_len());
    h.usize(engine.kv_used_tokens());
    h.f64(engine.now());
    h.u64(u64::from(engine.timestamps_monotone()));
    h.0
}

#[test]
fn llm_engine_streams_are_pinned() {
    let got: Vec<_> = llm_cases()
        .iter()
        .map(|c| (c.name, SEEDS.map(|seed| llm_hash(c, seed))))
        .collect();
    check("LlmEngine", &got, &LLM_PINS);
}

const LLM_PINS: [(&str, [u64; 3]); 4] = [
    (
        "chunked",
        [0xf3b035d11104eebc, 0x5859623fff4b5603, 0xcb5abfb153dc5cab],
    ),
    (
        "tight_kv",
        [0x0994119fa03ebbea, 0x4b7c0a7c9139c56e, 0xf353d040e63f6256],
    ),
    (
        "small_queue",
        [0xe5a870f69ece9b93, 0x3cbaa2805908b058, 0x6900ddc9fc629c54],
    ),
    (
        "clock_per_window",
        [0xe1ce41585b8b1f01, 0x2b60db89463498c9, 0x5373f65cf72aad79],
    ),
];

// -------------------------------------------------------------- serve

struct ServeCase {
    name: &'static str,
    arrival: ArrivalProcess,
    batch_timeout_s: f64,
}

fn serve_cases() -> Vec<ServeCase> {
    vec![
        ServeCase {
            name: "underload",
            arrival: ArrivalProcess::Poisson { rate_rps: 150.0 },
            batch_timeout_s: 0.05,
        },
        ServeCase {
            name: "overload_sheds",
            arrival: ArrivalProcess::Poisson { rate_rps: 800.0 },
            batch_timeout_s: 0.05,
        },
        ServeCase {
            name: "zero_timeout_trickle",
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            batch_timeout_s: 0.0,
        },
        // A timeout longer than any request's latency: every batch fills
        // before its timer fires, so each size-triggered dispatch leaves
        // the armed timer stale and several are pending at once
        // (`stale_timers_stack_in_the_fifo` in the engine's unit tests
        // reads the depth).
        ServeCase {
            name: "stacked_stale_timers",
            arrival: ArrivalProcess::Poisson { rate_rps: 100.0 },
            batch_timeout_s: 0.5,
        },
    ]
}

fn serve_hash(case: &ServeCase, seed: u64) -> u64 {
    // ResNet50-shaped: 55 ms full batch of 20 at 1380 MHz.
    let model = ServiceModel {
        e_min_s: 0.055,
        gamma: 0.91,
        f_max_mhz: 1380.0,
        max_batch: 20,
        batch_overhead: 0.3,
    };
    let max_batch = model.max_batch;
    let arrivals = ArrivalGen::new(case.arrival.clone(), seed).expect("arrivals");
    let mut engine = ServeEngine::new(model, case.batch_timeout_s, 200, arrivals).expect("engine");
    let mut stats = ServeWindowStats::default();
    let mut h = Fnv::new();
    let (mut partial, mut slowest) = (0, 0.0f64);
    for k in 0..WINDOWS {
        engine.advance_into(1.0, clock_mhz(k, 500.0, 1380.0), &mut stats);
        hash_serve_window(&mut h, &stats);
        partial += stats.batch_sizes.iter().filter(|&&b| b < max_batch).count();
        slowest = stats
            .request_latencies
            .iter()
            .fold(slowest, |a, &l| a.max(l));
    }
    if case.name == "overload_sheds" {
        assert!(engine.dropped_total() > 0, "overload never shed");
    }
    if case.name == "stacked_stale_timers" {
        // A live timer either dispatches a partial batch, or fires while a
        // batch is in flight at the deadline of the queue front left
        // behind. That front then waits longer than the timeout, which no
        // completed request did, so it is still queued or in flight at
        // the end. Timer events beyond those are stale ones.
        assert!(slowest < case.batch_timeout_s, "a request took {slowest} s");
        let done = engine.batches_total() - u64::from(engine.in_flight_len() > 0);
        let timers = engine.events_total() - engine.arrivals_total() - done;
        let live = partial + engine.queue_len() + engine.in_flight_len();
        assert!(timers > live as u64, "{timers} timer events, {live} live");
    }
    h.u64(engine.arrivals_total());
    h.u64(engine.completions_total());
    h.u64(engine.dropped_total());
    h.u64(engine.batches_total());
    h.u64(engine.events_total());
    h.usize(engine.queue_len());
    h.usize(engine.in_flight_len());
    h.f64(engine.now());
    h.u64(u64::from(engine.timestamps_monotone()));
    h.0
}

#[test]
fn serve_engine_streams_are_pinned() {
    let got: Vec<_> = serve_cases()
        .iter()
        .map(|c| (c.name, SEEDS.map(|seed| serve_hash(c, seed))))
        .collect();
    check("ServeEngine", &got, &SERVE_PINS);
}

const SERVE_PINS: [(&str, [u64; 3]); 4] = [
    (
        "underload",
        [0xdcf13af795970500, 0xd02428d084ec921f, 0x51a8a9617bdbe497],
    ),
    (
        "overload_sheds",
        [0xc26bcc470a7ee7b6, 0x147190d21d03863d, 0xd219825b77e2f070],
    ),
    (
        "zero_timeout_trickle",
        [0x8bd23fe12c408fb9, 0x552f7ec973bf8f05, 0xe6ed048f3ef9db2e],
    ),
    (
        "stacked_stale_timers",
        [0x4cfc175447c98c9e, 0xcf87b14c00a8a70c, 0xed3c6759731b15e2],
    ),
];

// ----------------------------------------------------------- pipeline

/// The pipelines a case drives.
enum PipelineShape {
    /// The §3.2 motivation pipeline, whose 20-image queue fills and
    /// blocks workers whenever the GPU clock is the low one.
    Motivation,
    /// The same models, worker count, queue capacity and clock ranges as
    /// `Scenario::paper_testbed` (the `runner_cnn` benchmark workload):
    /// each evaluation model in a closed loop with two workers and a
    /// 64-image queue, over the V100 and Xeon clock ranges.
    ClosedEval,
}

struct PipelineCase {
    name: &'static str,
    shape: PipelineShape,
    jitter: bool,
}

const PIPELINE_CASES: [PipelineCase; 4] = [
    PipelineCase {
        name: "closed_jitter",
        shape: PipelineShape::Motivation,
        jitter: true,
    },
    PipelineCase {
        name: "closed_no_jitter",
        shape: PipelineShape::Motivation,
        jitter: false,
    },
    PipelineCase {
        name: "closed_eval",
        shape: PipelineShape::ClosedEval,
        jitter: true,
    },
    // Without jitter, workers that the same batch start unblocks restart
    // at the same instant and finish in ties, which the event loop must
    // resolve in worker-index order.
    PipelineCase {
        name: "closed_eval_no_jitter",
        shape: PipelineShape::ClosedEval,
        jitter: false,
    },
];

/// Drives each of the case's pipelines in turn, the `i`-th seeded
/// `seed + i`, into one hash.
fn pipeline_hash(case: &PipelineCase, seed: u64) -> u64 {
    let (models, num_workers, queue_capacity, f_gpu_max_mhz, cpu, gpu) = match case.shape {
        PipelineShape::Motivation => {
            let (cpu, gpu) = ((1100.0, 2100.0), (495.0, 2100.0));
            let models = vec![models::googlenet_wildlife()];
            (models, 10, 20, 2100.0, cpu, gpu)
        }
        PipelineShape::ClosedEval => {
            let (cpu, gpu) = ((1000.0, 2400.0), (435.0, 1350.0));
            let models = models::evaluation_models();
            (models, 2, 64, 1350.0, cpu, gpu)
        }
    };
    let mut h = Fnv::new();
    for (i, mut model) in models.into_iter().enumerate() {
        if !case.jitter {
            model.jitter = 0.0;
        }
        let mut sim = PipelineSim::new(PipelineConfig {
            model,
            num_workers,
            queue_capacity,
            seed: seed + i as u64,
            f_gpu_max_mhz,
            arrivals: ArrivalMode::Closed,
        })
        .expect("pipeline");
        let mut stats = WindowStats::default();
        for k in 0..WINDOWS {
            // Both clocks change every window, out of step with each other.
            let f_cpu = clock_mhz(k + 3, cpu.0, cpu.1);
            let f_gpu = clock_mhz(2 * k + 1, gpu.0, gpu.1);
            sim.advance_into(1.0, f_cpu, f_gpu, &mut stats);
            hash_pipeline_window(&mut h, &stats);
        }
        h.f64(sim.now());
        h.usize(sim.queue_len());
    }
    h.0
}

#[test]
fn pipeline_sim_streams_are_pinned() {
    let got: Vec<_> = PIPELINE_CASES
        .iter()
        .map(|c| (c.name, SEEDS.map(|seed| pipeline_hash(c, seed))))
        .collect();
    check("PipelineSim", &got, &PIPELINE_PINS);
}

const PIPELINE_PINS: [(&str, [u64; 3]); 4] = [
    (
        "closed_jitter",
        [0x362f07308a817ae3, 0x9080a6ce45b5a265, 0x7b1b9e7833a5e908],
    ),
    (
        "closed_no_jitter",
        [0xbac58a19fc855b83, 0xbac58a19fc855b83, 0xbac58a19fc855b83],
    ),
    (
        "closed_eval",
        [0x1785a0cd37accc0f, 0x4b128ea61626d798, 0x7756f5e295bec531],
    ),
    (
        "closed_eval_no_jitter",
        [0x24074d94fe17abd0, 0x24074d94fe17abd0, 0x24074d94fe17abd0],
    ),
];
