//! `runner_cnn` and `runner_llm`: the experiment runner's closed loop,
//! driven the way the figure binaries drive it — build a runner,
//! identify, build the CapGPU controller, call `run` over and over with
//! a set-point change in between.
//!
//! `runner_cnn` is the paper's own path: `workload::pipeline` and
//! `sim::Server::tick_second` do nearly all the work. `runner_llm` puts
//! `llm::LlmEngine` and the TTFT/ITL trackers in the pipeline's place,
//! so a runner change that helps batches but hurts per-request
//! bookkeeping shows on one and not the other.

use std::time::Instant;

use capgpu::prelude::*;

use super::{err_text, sample_fresh, Args, RunResult};
use crate::host::{peak_rss_mib, timed};
use crate::layers;
use crate::quality::Quality;
use crate::report::Outcome;
use crate::spans::{self, TimedController};
use crate::spec::REFERENCE_SEED;
use crate::stats::{fast_decile, median, segment_rate};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cnn,
    Llm,
}

/// Set-point levels (W). One segment is one pass through the cycle, so
/// every segment does the same simulated work — the host time of a
/// period depends on the level, and segments of a single level would
/// not be comparable.
const CYCLE: [f64; 4] = [900.0, 1000.0, 1100.0, 950.0];
/// Measured segments in a ten-second run.
const SEGMENTS_PER_10S: usize = 24;

impl Kind {
    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Kind::Cnn => Scenario::paper_testbed(seed),
            Kind::Llm => Scenario::llm_testbed(seed),
        }
    }

    /// Periods per `run` call (one set-point level of one segment).
    fn run_periods(self, args: &Args) -> usize {
        args.periods(match self {
            Kind::Cnn => 1000,
            Kind::Llm => 375,
        })
    }
}

type Loop = (ExperimentRunner, CapGpuController);

/// The set-up being timed: construct, identify, build the controller.
fn fresh(scenario: &Scenario) -> RunResult<Loop> {
    let mut runner = ExperimentRunner::new(scenario.clone(), CYCLE[0]).map_err(err_text)?;
    let controller = runner.build_capgpu_controller().map_err(err_text)?;
    Ok((runner, controller))
}

/// Simulated outcome of a stretch of set-point cycles.
#[derive(Default)]
struct Simulated {
    quality: Quality,
    /// Σ over runs of the weighted TTFT miss rate, and run count.
    slo_miss_sum: f64,
    runs: u64,
}

impl Simulated {
    /// 100 × missed ÷ completed. `RunTrace` gives a TTFT miss rate per
    /// task and no completion counts; the tasks are weighted by their
    /// mean arrival rates, which is what completions are proportional
    /// to while the queues are stable.
    fn slo_miss_pct(&self) -> f64 {
        100.0 * self.slo_miss_sum / self.runs.max(1) as f64
    }
}

/// What one pass over `segments` measured segments (after one warm-up
/// segment) observed.
struct Pass {
    /// Host seconds inside `run`, per measured segment.
    segment_s: Vec<f64>,
    /// The warm-up segment: a fresh loop's first set-point cycle.
    warmup: Simulated,
    measured: Simulated,
    /// Mean applied clock per device over the measured periods (MHz):
    /// the operating point for the isolated layer timings.
    applied_mhz: Vec<f64>,
    periods: u64,
}

impl Pass {
    fn period_us(&self) -> f64 {
        let per_segment = self.periods as f64 / self.segment_s.len() as f64;
        1e6 / segment_rate(per_segment, &self.segment_s)
    }
}

/// Arrival-rate weights of the LLM tasks; empty for the CNN scenario.
fn task_weights(scenario: &Scenario) -> Vec<f64> {
    scenario.llm.as_ref().map_or_else(Vec::new, |cfg| {
        let rates: Vec<f64> = cfg
            .tasks
            .iter()
            .map(|t| t.arrival.mean_rate_rps())
            .collect();
        let total: f64 = rates.iter().sum();
        rates.iter().map(|r| r / total).collect()
    })
}

/// Drives `segments + 1` set-point cycles through `run`. `after_warmup`
/// fires once, between the warm-up segment and the first measured one;
/// `after_segment` after every measured one.
fn drive<C: PowerController>(
    runner: &mut ExperimentRunner,
    controller: &mut C,
    weights: &[f64],
    segments: usize,
    run_periods: usize,
    mut after_warmup: impl FnMut(&ExperimentRunner),
    mut after_segment: impl FnMut() -> RunResult<()>,
) -> RunResult<Pass> {
    let n = runner.layout().len();
    let mut pass = Pass {
        segment_s: Vec::with_capacity(segments),
        warmup: Simulated::default(),
        measured: Simulated::default(),
        applied_mhz: vec![0.0; n],
        periods: 0,
    };
    for segment in 0..=segments {
        let measured = segment > 0;
        let mut seconds = 0.0;
        for level in CYCLE {
            runner.set_setpoint(level);
            let t0 = Instant::now();
            let trace = runner
                .run(&mut *controller, run_periods)
                .map_err(err_text)?;
            seconds += t0.elapsed().as_secs_f64();
            let sim = if measured {
                &mut pass.measured
            } else {
                &mut pass.warmup
            };
            sim.quality.step();
            for r in &trace.records {
                sim.quality.observe(r.avg_power, r.setpoint);
            }
            sim.runs += 1;
            sim.slo_miss_sum += trace
                .ttft_miss_rates
                .iter()
                .zip(weights)
                .map(|(m, w)| m * w)
                .sum::<f64>();
            if measured {
                for r in &trace.records {
                    for (sum, f) in pass.applied_mhz.iter_mut().zip(&r.applied_mean) {
                        *sum += f;
                    }
                }
                pass.periods += trace.records.len() as u64;
            }
        }
        if measured {
            pass.segment_s.push(seconds);
            after_segment()?;
        } else {
            after_warmup(runner);
        }
    }
    for f in &mut pass.applied_mhz {
        *f /= pass.periods.max(1) as f64;
    }
    Ok(pass)
}

/// The reference pass: a fresh loop at the reference seed, one
/// set-point cycle. Run twice; both must simulate the same thing to
/// the bit.
fn reference(kind: Kind, run_periods: usize, out: &mut Outcome) -> RunResult<Simulated> {
    let scenario = kind.scenario(REFERENCE_SEED);
    let weights = task_weights(&scenario);
    let cycle = || {
        let (mut runner, mut controller) = fresh(&scenario)?;
        drive(
            &mut runner,
            &mut controller,
            &weights,
            0,
            run_periods,
            |_| {},
            || Ok(()),
        )
        .map(|pass| pass.warmup)
    };
    let first = cycle()?;
    let second = cycle()?;
    let periods = (2 * CYCLE.len() * run_periods) as u64;
    out.attempted += periods;
    out.checks.check(
        first.quality.digest() == second.quality.digest()
            && first.slo_miss_sum.to_bits() == second.slo_miss_sum.to_bits(),
        periods,
        || "same-seed rerun of the reference pass diverged".into(),
    );
    out.reference_digest = first.quality.digest();
    Ok(first)
}

pub fn run(kind: Kind, args: &Args) -> RunResult<Outcome> {
    let scenario = kind.scenario(args.seed);
    let weights = task_weights(&scenario);
    let run_periods = kind.run_periods(args);
    let mut out = Outcome::default();

    // One set-up runs the workload; an untraced run times another after
    // every segment, so that the samples are spread over the whole run.
    let mut setup_s = Vec::new();
    let (mut runner, mut controller) = sample_fresh(&mut setup_s, || fresh(&scenario))?;

    // Traced runs spend half their segments untraced (the reference the
    // traced pass is compared with) and half traced.
    let segments = if args.traced {
        args.segments(SEGMENTS_PER_10S) / 2
    } else {
        args.segments(SEGMENTS_PER_10S)
    };
    let pass = drive(
        &mut runner,
        &mut controller,
        &weights,
        segments,
        run_periods,
        |_| {},
        || {
            if !args.traced {
                sample_fresh(&mut setup_s, || fresh(&scenario))?;
            }
            Ok(())
        },
    )?;
    out.attempted = pass.periods;
    drop((runner, controller));

    let reference = reference(kind, run_periods, &mut out)?;

    if args.traced {
        ledger(kind, args, &scenario, &weights, segments, &pass, &mut out)?;
        return Ok(out);
    }

    let per_segment = (CYCLE.len() * run_periods) as f64;
    out.set_time("setup_s", &setup_s);
    out.set_rate("periods_per_s", per_segment, &pass.segment_s);
    out.set("peak_rss_mib", peak_rss_mib());
    let control_period_s = scenario.control_period_s as f64;
    out.set("cap_err_w", reference.quality.cap_err_w());
    out.set(
        "cap_excess_ws",
        reference.quality.cap_excess_ws(control_period_s),
    );
    out.set("settle_periods", reference.quality.settle_periods());
    if kind == Kind::Llm {
        out.set("slo_miss_pct", reference.slo_miss_pct());
    }
    Ok(out)
}

/// Mean ns per scope of one phase of the program's own span summary,
/// over the scopes completed since `base`.
fn span_delta_us(
    now: &capgpu_telemetry::spans::SpanSummary,
    base: &capgpu_telemetry::spans::SpanSummary,
    phase: &str,
) -> (f64, u64) {
    let find = |s: &capgpu_telemetry::spans::SpanSummary| {
        s.phases
            .iter()
            .find(|p| p.name == phase)
            .map_or((0, 0), |p| (p.total_ns, p.count))
    };
    let (t1, c1) = find(now);
    let (t0, c0) = find(base);
    let count = c1 - c0;
    ((t1 - t0) as f64 / 1e3 / count.max(1) as f64, count)
}

/// The traced pass and the per-layer ledger of a runner workload.
fn ledger(
    kind: Kind,
    args: &Args,
    scenario: &Scenario,
    weights: &[f64],
    segments: usize,
    untraced: &Pass,
    out: &mut Outcome,
) -> RunResult<()> {
    let run_periods = kind.run_periods(args);
    let traced_scenario = scenario
        .clone()
        .with_telemetry(TelemetryConfig::with_spans());
    let (mut runner, controller) = fresh(&traced_scenario)?;
    let rec = spans::shared();
    let mut controller = TimedController::new(controller, rec.clone());
    let mut base = None;
    let traced = drive(
        &mut runner,
        &mut controller,
        weights,
        segments,
        run_periods,
        |r| {
            rec.borrow_mut().clear();
            base = r.telemetry_report().map(|t| t.spans);
        },
        || Ok(()),
    )?;
    out.attempted += traced.periods;
    out.checks.check(
        traced.measured.quality.digest() == untraced.measured.quality.digest()
            && traced.warmup.quality.digest() == untraced.warmup.quality.digest(),
        traced.periods,
        || "traced run simulated something else than the untraced run".into(),
    );

    let period_us = untraced.period_us();
    let traced_period_us = traced.period_us();
    out.set(
        "trace_overhead_pct",
        100.0 * (traced_period_us - period_us) / period_us,
    );

    // B: the program's own span summary.
    let base = base.ok_or("telemetry report missing on a traced runner")?;
    let now = runner
        .telemetry_report()
        .ok_or("telemetry report missing on a traced runner")?
        .spans;
    let (span_period_us, span_periods) = span_delta_us(&now, &base, "period");
    out.set("core.runner.span_period_us", span_period_us);
    // Child phases per period (actuate/sense/solve run once per period;
    // serve-drain once per simulated second).
    let per_period = |phase: &str| {
        let (us, count) = span_delta_us(&now, &base, phase);
        us * count as f64 / span_periods.max(1) as f64
    };
    out.set("core.runner.span_sense_us", per_period("sense"));
    out.set("core.runner.span_solve_us", per_period("solve"));
    out.set("core.runner.span_actuate_us", per_period("actuate"));
    out.set("core.runner.span_serve_drain_us", per_period("serve-drain"));
    out.set(
        "core.runner.outside_span_us",
        traced_period_us - span_period_us,
    );
    out.set("core.runner.periods", traced.periods as f64);

    // A: the controller seam.
    let control = spans::totals(rec.borrow().spans(), "control");
    let control_call_us = control.total_ns as f64 / 1e3 / control.count.max(1) as f64;
    out.set("core.runner.control_call_us", control_call_us);
    out.set(
        "control.qp_iterations_mean",
        controller.qp_iterations as f64 / controller.calls.max(1) as f64,
    );

    // C: isolated calls at the untraced pass's operating point.
    let n = scenario.devices.len();
    let seconds_per_period = scenario.control_period_s as f64;
    let utils = vec![0.8; n];
    let tick_ns = layers::sim_tick_ns(scenario, &utils)?;
    let tick_share = 100.0 * seconds_per_period * tick_ns / 1e3 / period_us;
    out.set("sim.tick_second_ns", tick_ns);
    out.set("sim.ticks", untraced.periods as f64 * seconds_per_period);
    out.set("sim.tick_share_pct", tick_share);
    // Every share has the untraced period as its denominator, whether
    // the per-call time was measured in situ (A, B) or in isolation (C).
    let mpc_share = 100.0 * control_call_us / period_us;
    out.set("control.mpc_share_pct", mpc_share);
    let engines = scenario.gpu_models.len() as f64;
    let plant_share = match kind {
        Kind::Cnn => {
            let ns = layers::pipeline_advance_ns(scenario, &untraced.applied_mhz)?;
            let share = 100.0 * engines * seconds_per_period * ns / 1e3 / period_us;
            out.set("workload.pipeline_advance_ns", ns);
            out.set("workload.pipeline_share_pct", share);
            share
        }
        Kind::Llm => {
            let l = layers::llm_engines(scenario, &untraced.applied_mhz, &mut out.checks)?;
            out.set("llm.advance_second_us", l.advance_second_us);
            out.set("llm.tokens", l.work);
            out.set("llm.tokens_per_s", l.work_per_s);
            out.set("llm.preemptions", l.preemptions);
            // The program's own serve-drain span brackets the engines'
            // advance inside the runner (with the trackers' recording),
            // which is what the period actually pays.
            let share = 100.0 * per_period("serve-drain") / period_us;
            out.set("llm.share_pct", share);
            share
        }
    };
    out.set(
        "unattributed_pct",
        100.0 - tick_share - mpc_share - plant_share,
    );
    out.set("workload.slo_record_ns", layers::slo_record_ns());
    out.set(
        "workload.slo_miss_rate_ns_at_100k",
        layers::slo_miss_rate_ns_at_100k(),
    );
    layers::control_stack(out, scenario, n)?;

    // Set-up side: identification alone, on fresh runners.
    let mut identify_ms = Vec::new();
    for _ in 0..5 {
        let mut r = ExperimentRunner::new(scenario.clone(), CYCLE[0]).map_err(err_text)?;
        let (secs, res) = timed(|| r.identify());
        res.map_err(err_text)?;
        identify_ms.push(secs * 1e3);
    }
    out.set("core.runner.identify_ms", fast_decile(&identify_ms));

    // Does a period cost more in a long run than in a short one? Fresh
    // loops, one `run` each, per-period cost long ÷ short.
    let (short, long) = (args.periods(1500), args.periods(6000));
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let mut per_period = [0.0; 2];
        for (slot, periods) in [short, long].into_iter().enumerate() {
            let (mut r, mut c) = fresh(scenario)?;
            let (secs, res) = timed(|| r.run(&mut c, periods));
            res.map_err(err_text)?;
            per_period[slot] = secs / periods as f64;
        }
        ratios.push(per_period[1] / per_period[0]);
    }
    out.set("core.runner.long_run_ratio", median(&ratios));

    Ok(())
}
