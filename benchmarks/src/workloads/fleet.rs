//! `fleet_mixed`: 48 mixed-generation serving servers (8 racks × 6)
//! under one datacenter budget — `fleet::topology` water-filling, the
//! shard/reorder-window fold, `fleet::balancer`, and the runner leaf
//! over `serve::ServeEngine`. The only multi-threaded workload, and the
//! one that answers "why does a server-period cost more inside the
//! fleet than in the bare runner".
//!
//! One segment is one whole `FleetSim::run` on a sim built for it (the
//! build is a set-up sample), so every segment simulates the same six
//! epochs from the same cold start: their reports must be identical,
//! which makes every segment a same-seed rerun check.

use capgpu::prelude::*;
use capgpu_fleet::prelude::*;

use super::{err_text, sample_fresh, Args, RunResult};
use crate::host::{available_parallelism, peak_rss_mib, timed};
use crate::layers;
use crate::quality::Quality;
use crate::report::Outcome;
use crate::spec::REFERENCE_SEED;
use crate::stats::{fast_decile, segment_rate};

const RACKS: usize = 8;
const PER_RACK: usize = 6;
const EPOCHS: usize = 6;
const EPOCH_PERIODS: usize = 8;
const BUDGET_PER_SERVER_W: f64 = 1700.0;
/// Noise allowance on a rack's budget (W per server), as the fleet
/// binary's own check uses.
const RACK_TOLERANCE_W_PER_SERVER: f64 = 2.0;
/// Measured segments in a ten-second run.
const SEGMENTS_PER_10S: usize = 24;

/// The `perf_snapshot` class/stream pattern: generations cycle across
/// slots, rack `r` hosts `r % 5` hot servers.
fn topology() -> RunResult<FleetTopology> {
    FleetTopology::datacenter(RACKS, PER_RACK, |rack, slot| ServerSpec {
        class: slot % 3,
        streams: if slot < rack % 5 { 5 } else { 4 },
    })
    .map_err(err_text)
}

fn fleet_config(epochs: usize, epoch_periods: usize) -> FleetConfig {
    FleetConfig {
        epochs,
        epoch_periods,
        ..FleetConfig::new(BUDGET_PER_SERVER_W * (RACKS * PER_RACK) as f64)
    }
}

/// The set-up being timed: identify each class, clone per server.
fn fresh(classes: &[ServerClass], config: FleetConfig) -> RunResult<FleetSim> {
    FleetSim::new(topology()?, classes, config).map_err(err_text)
}

/// Worker threads: 2 where the host has them. Results are comparable
/// only between runs that used the same count.
pub fn threads() -> usize {
    available_parallelism().min(2)
}

/// Rack-level control quality of one report: every rack-epoch's
/// `(measured, assigned)` watts as one observation. The first epoch is
/// included — what racks overshoot while the allocator learns the
/// servers' floors is the allocator's own cost (after it budgets hold,
/// which `run` checks).
fn rack_quality(report: &FleetReport) -> Quality {
    let mut q = Quality::default();
    for rack in report.epochs.iter().flat_map(|e| e.racks.iter()) {
        q.observe(rack.measured, rack.assigned);
    }
    q
}

pub fn run(args: &Args) -> RunResult<Outcome> {
    let mut out = Outcome::default();
    let classes = mixed_generation_classes(args.seed);
    // `--quick` shortens the run in epochs; an epoch keeps its length,
    // which the allocator's demand estimate depends on.
    let epochs = if args.quick { 2 } else { EPOCHS };
    let config = || fleet_config(epochs, EPOCH_PERIODS);
    let threads = threads();

    // Each round: build a sim (a set-up sample) and run it (a segment).
    let segments = if args.traced {
        args.segments(SEGMENTS_PER_10S) / 2
    } else {
        args.segments(SEGMENTS_PER_10S)
    };
    let mut setup_s = Vec::with_capacity(segments + 2);
    let mut segment_s = Vec::with_capacity(segments);
    let mut reference: Option<FleetReport> = None;
    let mut peak_pending = 0usize;
    let servers = RACKS * PER_RACK;
    let per_run = (servers * epochs * EPOCH_PERIODS) as u64;
    for segment in 0..=segments {
        let mut sim = sample_fresh(&mut setup_s, || fresh(&classes, config()))?;
        let (secs, report) = timed(|| sim.run(threads));
        let report = report.map_err(err_text)?;
        drop(sim);
        out.attempted += per_run;
        peak_pending = peak_pending.max(report.peak_pending);
        if segment > 0 {
            segment_s.push(secs);
        }
        match &reference {
            None => reference = Some(report),
            Some(first) => out.checks.check(*first == report, per_run, || {
                format!("segment {segment}: same-seed fleet run produced a different report")
            }),
        }
    }
    let reference = reference.expect("at least the warm-up ran");

    // Thread-count independence: the same fleet at the other count.
    let other = if threads == 1 { 2 } else { 1 };
    let mut sim = sample_fresh(&mut setup_s, || fresh(&classes, config()))?;
    let (other_s, other_report) = timed(|| sim.run(other));
    let other_report = other_report.map_err(err_text)?;
    out.attempted += per_run;
    out.checks.check(other_report == reference, per_run, || {
        format!("fleet report differs between {threads} and {other} threads")
    });
    let final_stats = other_report.stats.clone();
    let topo = topology()?;
    drop((sim, other_report));

    let overshoot = reference
        .epochs
        .iter()
        .skip(1)
        .flat_map(|e| e.racks.iter())
        .map(|r| r.measured - r.assigned)
        .fold(f64::NEG_INFINITY, f64::max);
    out.checks.check(
        overshoot <= RACK_TOLERANCE_W_PER_SERVER * PER_RACK as f64,
        per_run,
        || format!("a rack exceeded its budget by {overshoot:.1} W after warm-up"),
    );

    // The reference pass, twice: the same fleet on the reference seed's
    // classes; the reports must be equal.
    let reference_classes = mixed_generation_classes(REFERENCE_SEED);
    let reference_run = || {
        fresh(&reference_classes, config())?
            .run(threads)
            .map_err(err_text)
    };
    let simulated = reference_run()?;
    out.attempted += 2 * per_run;
    out.checks
        .check(simulated == reference_run()?, 2 * per_run, || {
            "same-seed rerun of the reference pass produced a different report".into()
        });
    let quality = rack_quality(&simulated);
    out.reference_digest = quality.digest() ^ simulated.miss_rate().to_bits();

    let rate = segment_rate(per_run as f64, &segment_s);
    // One worker thread's host time per server-period.
    let leaf_period_us = threads as f64 * 1e6 / rate;

    if args.traced {
        out.set("fleet.leaf_period_us", leaf_period_us);
        out.set("fleet.peak_pending", peak_pending as f64);
        out.set("fleet.sim_new_ms", fast_decile(&setup_s) * 1e3);
        // Rate at 2 threads ÷ rate at 1 (a determinism check, not a
        // speed-up, on a one-core host).
        let other_rate = per_run as f64 / other_s;
        out.set(
            "fleet.thread_scaling",
            if threads == 2 {
                rate / other_rate
            } else {
                other_rate / rate
            },
        );
        let budget = BUDGET_PER_SERVER_W * servers as f64;
        out.set(
            "fleet.divide_us",
            layers::fleet_divide_us(&topo, budget, &final_stats),
        );
        out.set("fleet.plan_us", layers::fleet_plan_us(&final_stats));

        // The bare runner on the first class's scenario, in this
        // process: what a server-period costs without the fleet around
        // it.
        let scenario = classes[0].scenario.clone();
        let mut runner =
            ExperimentRunner::new(scenario.clone(), BUDGET_PER_SERVER_W).map_err(err_text)?;
        let mut controller = runner.build_capgpu_controller().map_err(err_text)?;
        let bare_periods = args.periods(2000);
        runner
            .run(&mut controller, bare_periods)
            .map_err(err_text)?;
        let mut bare_us = Vec::new();
        let mut applied = vec![0.0; scenario.devices.len()];
        for _ in 0..5 {
            let (secs, trace) = timed(|| runner.run(&mut controller, bare_periods));
            let trace = trace.map_err(err_text)?;
            bare_us.push(secs * 1e6 / bare_periods as f64);
            for r in &trace.records {
                for (sum, f) in applied.iter_mut().zip(&r.applied_mean) {
                    *sum += f / (5 * bare_periods) as f64;
                }
            }
        }
        out.set(
            "fleet.vs_runner_ratio",
            leaf_period_us / fast_decile(&bare_us),
        );

        let n = scenario.devices.len();
        let seconds_per_period = scenario.control_period_s as f64;
        let tick_ns = layers::sim_tick_ns(&scenario, &vec![0.8; n])?;
        out.set("sim.tick_second_ns", tick_ns);
        out.set("sim.ticks", per_run as f64 * seconds_per_period);
        let tick_share = 100.0 * seconds_per_period * tick_ns / 1e3 / leaf_period_us;
        out.set("sim.tick_share_pct", tick_share);
        let serve = layers::serve_engine(&scenario, applied[1], &mut out.checks)?;
        let engines = scenario.gpu_models.len() as f64;
        let serve_share =
            100.0 * engines * seconds_per_period * serve.advance_second_us / leaf_period_us;
        out.set("serve.advance_second_us", serve.advance_second_us);
        out.set("serve.events", serve.work);
        out.set("serve.events_per_s", serve.work_per_s);
        out.set("serve.share_pct", serve_share);
        // The leaves' controllers are out of reach inside the fleet: the
        // MPC solve is timed on the synthetic testbed problem of their
        // size.
        let (_, mpc_ns, iters) = layers::mpc_step_ns(&layers::MpcPoint::synthetic(n))?;
        let mpc_share = 100.0 * mpc_ns / 1e3 / leaf_period_us;
        out.set("control.mpc_share_pct", mpc_share);
        out.set("control.qp_iterations_mean", iters);
        out.set(
            "unattributed_pct",
            100.0 - tick_share - serve_share - mpc_share,
        );
        out.set("workload.slo_record_ns", layers::slo_record_ns());
        out.set(
            "workload.slo_miss_rate_ns_at_100k",
            layers::slo_miss_rate_ns_at_100k(),
        );
        layers::control_stack(&mut out, &scenario, n)?;
        // The fleet exposes no seam to wrap: its ledger is isolated
        // calls and the in-process bare runner, no traced pass.
        out.set("trace_overhead_pct", 0.0);
        return Ok(out);
    }

    out.set_time("setup_s", &setup_s);
    out.set_rate("periods_per_s", per_run as f64, &segment_s);
    out.set("peak_rss_mib", peak_rss_mib());
    // Per server, so that it compares with the single-server workloads.
    out.set("cap_err_w", quality.cap_err_w() / PER_RACK as f64);
    out.set("slo_miss_pct", 100.0 * simulated.miss_rate());
    Ok(out)
}
