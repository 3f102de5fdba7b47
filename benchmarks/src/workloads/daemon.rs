//! `daemon_steady`: the `capgpud` control loop over an 8-GPU simulated
//! server with the durable journal on — every `Daemon::step_period`
//! timed on its own, the operator set-point stepping through four
//! levels, and at the end a crash that leaves the journal unsealed.
//!
//! The plant is a constant-utilisation tick, so `control::mpc`/`optim`,
//! `core::supervisor`, `telemetry::journal` encoding, `obs::rotate`
//! writes, `obs::analyzer` and `telemetry::registry` dominate;
//! `workload`, `serve` and `llm` do nothing. This is the write side of
//! the journal; `journal_recover` is the read side.

use std::path::{Path, PathBuf};
use std::time::Instant;

use capgpu::daemon::{Daemon, DaemonConfig};
use capgpu::CapGpuError;
use capgpu_backend::PowerBackend;
use capgpu_obs::reader::read_dir;

use super::{err_text, sample_fresh, Args, RunResult};
use crate::host::{peak_rss_mib, Scratch, TempDir};
use crate::layers;
use crate::quality::Quality;
use crate::report::Outcome;
use crate::spans::{self, TimedBackend};
use crate::spec::REFERENCE_SEED;
use crate::stats::{highest_supported_percentile, median, percentile_sorted};

/// The operator moves the set-point one level every this many periods.
const LEVEL_PERIODS: u64 = 50;
const LEVELS: u64 = 4;
const LEVEL_STEP_W: f64 = 50.0;
/// Segments per pass (one more runs first as warm-up). Each holds a
/// whole number of set-point cycles, so segments are equal work.
pub const SEGMENTS: usize = 48;

/// Daemon configuration of a daemon-driven workload.
pub fn config(
    seed: u64,
    gpus: usize,
    setpoint_w: f64,
    journal_dir: Option<PathBuf>,
) -> DaemonConfig {
    let mut cfg = DaemonConfig::default_sim();
    cfg.sim_seed = seed;
    cfg.sim_gpus = gpus;
    cfg.setpoint_watts = setpoint_w;
    cfg.journal_dir = journal_dir;
    cfg
}

/// The set-up being timed: backend, daemon, identification.
pub fn fresh(cfg: &DaemonConfig) -> Result<Daemon, CapGpuError> {
    let backend = cfg.build_backend()?;
    fresh_on(cfg, backend)
}

fn fresh_on(cfg: &DaemonConfig, backend: Box<dyn PowerBackend>) -> Result<Daemon, CapGpuError> {
    let mut d = Daemon::new(cfg.clone(), backend)?;
    d.identify()?;
    Ok(d)
}

/// What a pass of individually timed periods observed.
pub struct Pass {
    /// Host ns of every measured `step_period` call.
    pub step_ns: Vec<u32>,
    pub segment_s: Vec<f64>,
    /// Median step time of each measured segment, µs.
    pub segment_p50_us: Vec<f64>,
    pub quality: Quality,
    /// The warm-up segment: a fresh daemon's first periods.
    pub warmup: Quality,
    pub periods: u64,
}

impl Pass {
    /// Median step time per segment, fast decile across segments.
    pub fn step_p50_us(&self) -> f64 {
        crate::stats::fast_decile(&self.segment_p50_us)
    }

    /// Appends the measured segments of a later stretch of the same
    /// daemon's loop. Host-time samples only: what the stretches
    /// simulated is not comparable period for period.
    pub fn absorb(&mut self, later: Pass) {
        self.step_ns.extend(later.step_ns);
        self.segment_s.extend(later.segment_s);
        self.segment_p50_us.extend(later.segment_p50_us);
        self.periods += later.periods;
    }

    /// Ascending step times, µs.
    pub fn sorted_step_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.step_ns.iter().map(|ns| f64::from(*ns) / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Periods per segment for `total` measured periods: a whole number of
/// set-point cycles.
pub fn segment_periods(total: usize) -> usize {
    let cycle = (LEVEL_PERIODS * LEVELS) as usize;
    (total / SEGMENTS / cycle).max(1) * cycle
}

/// Steps the daemon through one warm-up and `segments` measured
/// segments of `segment_periods` periods, moving the set-point as the
/// operator would. `wrap` brackets each call (the traced pass opens a
/// span there); `after_segment` runs after every measured segment.
pub fn drive(
    daemon: &mut Daemon,
    base_setpoint_w: f64,
    segments: usize,
    segment_periods: usize,
    mut wrap: impl FnMut(bool),
    mut after_segment: impl FnMut() -> RunResult<()>,
) -> RunResult<Pass> {
    let mut pass = Pass {
        step_ns: Vec::with_capacity(segments * segment_periods),
        segment_s: Vec::with_capacity(segments),
        segment_p50_us: Vec::with_capacity(segments),
        quality: Quality::default(),
        warmup: Quality::default(),
        periods: 0,
    };
    let mut k = 0u64;
    for segment in 0..=segments {
        let measured = segment > 0;
        let mut seconds = 0.0;
        for _ in 0..segment_periods {
            let q = if measured {
                &mut pass.quality
            } else {
                &mut pass.warmup
            };
            if k.is_multiple_of(LEVEL_PERIODS) {
                let level = (k / LEVEL_PERIODS) % LEVELS;
                daemon.set_setpoint(base_setpoint_w + LEVEL_STEP_W * level as f64);
                q.step();
            }
            k += 1;
            wrap(true);
            let t0 = Instant::now();
            let report = daemon.step_period();
            let dt = t0.elapsed();
            wrap(false);
            let report = report.map_err(err_text)?;
            q.observe(report.avg_power_watts, report.effective_setpoint);
            if measured {
                seconds += dt.as_secs_f64();
                pass.step_ns
                    .push(dt.as_nanos().min(u128::from(u32::MAX)) as u32);
            }
        }
        if measured {
            pass.segment_s.push(seconds);
            pass.periods += segment_periods as u64;
            let us: Vec<f64> = pass.step_ns[pass.step_ns.len() - segment_periods..]
                .iter()
                .map(|ns| f64::from(*ns) / 1e3)
                .collect();
            pass.segment_p50_us.push(median(&us));
            after_segment()?;
        }
    }
    Ok(pass)
}

/// The simulated end-to-end metrics of a daemon-driven workload, from
/// its reference pass.
pub fn set_simulated(out: &mut Outcome, reference: &Quality, control_period_s: u64) {
    out.set("cap_err_w", reference.cap_err_w());
    out.set(
        "cap_excess_ws",
        reference.cap_excess_ws(control_period_s as f64),
    );
    out.set("settle_periods", reference.settle_periods());
}

/// The host-time end-to-end metrics a timed pass of `step_period` calls
/// yields, with the step-time tail the sample supports on standard
/// error.
pub fn set_step_metrics(out: &mut Outcome, pass: &Pass) {
    let per_segment = pass.periods as f64 / pass.segment_s.len() as f64;
    out.set_rate("periods_per_s", per_segment, &pass.segment_s);
    out.set_time("step_p50_us", &pass.segment_p50_us);
    let sorted = pass.sorted_step_us();
    let tail = highest_supported_percentile(sorted.len(), &[90.0, 99.0, 99.9]).unwrap_or(50.0);
    eprintln!(
        "  step_period: p50 {:.3} us, p{tail} {:.3} us over all {} steps",
        percentile_sorted(&sorted, 50.0),
        percentile_sorted(&sorted, tail),
        sorted.len()
    );
}

const GPUS: usize = 8;
const SETPOINT_W: f64 = 1800.0;

/// Periods of a daemon workload's reference pass.
const REFERENCE_PERIODS: usize = 8_000;

/// A reference pass: a fresh daemon at the reference seed stepped
/// through `periods` periods of the operator's set-point cycle. Hands
/// back the daemon with what its periods simulated.
pub fn reference_pass(cfg: &DaemonConfig, periods: usize) -> RunResult<(Daemon, Quality)> {
    let mut daemon = fresh(cfg).map_err(err_text)?;
    let pass = drive(
        &mut daemon,
        cfg.setpoint_watts,
        0,
        periods,
        |_| {},
        || Ok(()),
    )?;
    Ok((daemon, pass.warmup))
}

pub fn run(args: &Args, scratch: &Scratch) -> RunResult<Outcome> {
    let mut out = Outcome::default();

    // One set-up runs the workload; an untraced run times another after
    // every segment. Each journals into a directory of its own.
    let fresh_journaling = |seed: u64| {
        let journal = scratch.fresh("journal");
        let cfg = config(seed, GPUS, SETPOINT_W, Some(journal.0.clone()));
        let daemon = fresh(&cfg).map_err(err_text)?;
        Ok((daemon, cfg, journal))
    };
    let mut setup_s = Vec::new();
    let (mut daemon, cfg, journal) = sample_fresh(&mut setup_s, || fresh_journaling(args.seed))?;
    let dir: &Path = &journal.0;

    let total = args.periods(40_000 * args.seconds as usize);
    let per_segment = segment_periods(if args.traced { total / 2 } else { total });
    let pass = drive(
        &mut daemon,
        SETPOINT_W,
        SEGMENTS,
        per_segment,
        |_| {},
        || {
            if !args.traced {
                sample_fresh(&mut setup_s, || fresh_journaling(args.seed))?;
            }
            Ok(())
        },
    )?;
    out.attempted = pass.periods;

    let (appended, sealed, _reaped) = daemon.journal_stats();
    let resident = daemon.journal().len();
    let snapshot = daemon.metrics_snapshot();
    let counter = |name: &str| {
        snapshot
            .counter_value(name, &[("backend", "sim")])
            .unwrap_or(0) as f64
    };
    out.checks.check(
        counter("capgpud_journal_errors_total") == 0.0,
        pass.periods,
        || "durable-journal appends failed".into(),
    );
    let events: Vec<_> = if args.traced {
        daemon.journal().events().to_vec()
    } else {
        Vec::new()
    };
    let prometheus_us = if args.traced {
        crate::host::ns_per_call(5, 200, || {
            std::hint::black_box(daemon.prometheus_text());
        }) / 1e3
    } else {
        0.0
    };
    // Crash: the backend is torn away, the journal stays unsealed.
    drop(daemon.into_backend());

    let scan = read_dir(dir).map_err(err_text)?;
    out.checks.check(
        scan.segments.iter().rev().skip(1).all(|s| s.sealed)
            && scan.records.last().map(|r| r.period) == Some(pass.periods + per_segment as u64 - 1),
        pass.periods,
        || "journal read-back: an inner segment is unsealed or the last period is missing".into(),
    );
    let records_read = scan.records.len();
    drop(scan);

    // The reference pass, twice: same seed, fresh set-up, journal on —
    // the simulation must repeat to the bit.
    let reference_periods = args.periods(REFERENCE_PERIODS);
    let reference = || {
        let journal = scratch.fresh("journal-reference");
        let cfg = config(REFERENCE_SEED, GPUS, SETPOINT_W, Some(journal.0.clone()));
        reference_pass(&cfg, reference_periods).map(|(_, quality)| quality)
    };
    let quality = reference()?;
    let again = reference()?;
    out.attempted += 2 * reference_periods as u64;
    out.checks.check(
        quality.digest() == again.digest(),
        2 * reference_periods as u64,
        || "same-seed rerun of the reference pass diverged".into(),
    );
    out.reference_digest = quality.digest();

    if args.traced {
        out.set("obs.records_written", appended as f64);
        out.set("obs.segments_sealed", sealed as f64);
        out.set("obs.records_read", records_read as f64);
        out.set(
            "obs.retained_pct",
            100.0 * records_read as f64 / appended.max(1) as f64,
        );
        out.set("core.daemon.journal_events_resident", resident as f64);
        out.set(
            "core.daemon.events_per_period",
            appended as f64 / (pass.periods + per_segment as u64) as f64,
        );
        out.set("core.daemon.refits", counter("capgpud_refits_total"));
        out.set(
            "core.daemon.tier_changes",
            counter("capgpud_tier_changes_total"),
        );
        out.set("telemetry.prometheus_text_us", prometheus_us);
        ledger(args, scratch, &cfg, per_segment, &pass, &events, &mut out)?;
        return Ok(out);
    }

    out.set_time("setup_s", &setup_s);
    set_step_metrics(&mut out, &pass);
    out.set("peak_rss_mib", peak_rss_mib());
    set_simulated(&mut out, &quality, cfg.control_period_s);
    Ok(out)
}

/// Step-time tail entries: p99 and p99.9 where the sample supports
/// them (at least ten samples beyond), else the highest percentile
/// that is supported.
pub fn tail_us(sorted_us: &[f64], pct: f64) -> f64 {
    let supported = highest_supported_percentile(sorted_us.len(), &[50.0, 90.0, 99.0, 99.9]);
    percentile_sorted(sorted_us, supported.map_or(50.0, |s| s.min(pct)))
}

/// The traced pass and the per-layer ledger of `daemon_steady`.
fn ledger(
    args: &Args,
    scratch: &Scratch,
    cfg: &DaemonConfig,
    per_segment: usize,
    untraced: &Pass,
    events: &[capgpu_telemetry::journal::Event],
    out: &mut Outcome,
) -> RunResult<()> {
    let sorted = untraced.sorted_step_us();
    // The denominator of every share: the untraced step.
    let step_us = untraced.step_p50_us();
    out.set("core.daemon.step_p99_us", tail_us(&sorted, 99.0));
    out.set("core.daemon.step_p999_us", tail_us(&sorted, 99.9));

    // A: every backend call under a `step` span. A quarter of the
    // untraced segment length keeps the span store small.
    let traced_segment = segment_periods(per_segment * SEGMENTS / 4);
    let rec = spans::shared();
    let mut traced_cfg = cfg.clone();
    let traced_journal: TempDir = scratch.fresh("journal-traced");
    traced_cfg.journal_dir = Some(traced_journal.0.clone());
    let backend = TimedBackend::new(traced_cfg.build_backend().map_err(err_text)?, rec.clone());
    let mut daemon = fresh_on(&traced_cfg, Box::new(backend)).map_err(err_text)?;
    rec.borrow_mut().clear();
    let traced = drive(
        &mut daemon,
        SETPOINT_W,
        SEGMENTS,
        traced_segment,
        |enter| {
            if enter {
                rec.borrow_mut().enter("step");
            } else {
                rec.borrow_mut().exit();
            }
        },
        || Ok(()),
    )?;
    out.attempted += traced.periods;
    drop(daemon);

    // The same shorter pass untraced: the reference the traced pass's
    // simulation and cost are compared with.
    let mut ref_cfg = cfg.clone();
    let ref_journal = scratch.fresh("journal-ref");
    ref_cfg.journal_dir = Some(ref_journal.0.clone());
    let mut daemon = fresh(&ref_cfg).map_err(err_text)?;
    let reference = drive(
        &mut daemon,
        SETPOINT_W,
        SEGMENTS,
        traced_segment,
        |_| {},
        || Ok(()),
    )?;
    drop(daemon);
    out.checks.check(
        traced.quality.digest() == reference.quality.digest()
            && traced.warmup.digest() == reference.warmup.digest(),
        traced.periods,
        || "traced run simulated something else than the untraced run".into(),
    );
    let ref_step_us = reference.step_p50_us();
    let traced_step_us = traced.step_p50_us();
    out.set(
        "trace_overhead_pct",
        100.0 * (traced_step_us - ref_step_us) / ref_step_us,
    );

    // And with the durable journal off: what journaling costs a step.
    let mut off_cfg = cfg.clone();
    off_cfg.journal_dir = None;
    let mut daemon = fresh(&off_cfg).map_err(err_text)?;
    let off = drive(
        &mut daemon,
        SETPOINT_W,
        SEGMENTS,
        traced_segment,
        |_| {},
        || Ok(()),
    )?;
    drop(daemon);
    out.checks.check(
        off.quality.digest() == reference.quality.digest(),
        off.periods,
        || "the durable journal changed what was simulated".into(),
    );
    // A difference of two passes run one after the other: the median
    // over all steps of each, and still only as good as the host was
    // even-tempered. The journal's share below does not rest on it.
    let p50_us = |pass: &Pass| percentile_sorted(&pass.sorted_step_us(), 50.0);
    out.set(
        "core.daemon.journal_on_delta_us",
        p50_us(&reference) - p50_us(&off),
    );

    let store = rec.borrow();
    let all = store.spans();
    // The warm-up segment's spans are still in the store; scale by the
    // spans' own step count.
    let step = spans::totals(all, "step");
    let steps = step.count.max(1) as f64;
    let per_step_us = |name: &str| spans::totals(all, name).total_ns as f64 / 1e3 / steps;
    let advance_us = per_step_us(spans::BACKEND_ADVANCE);
    out.set("backend.advance_us", advance_us);
    out.set("backend.actuate_us", per_step_us(spans::BACKEND_ACTUATE));
    out.set("backend.sense_us", per_step_us(spans::BACKEND_SENSE));
    out.set(
        "backend.calls_per_period",
        (all.len() as u64 - step.count) as f64 / steps,
    );
    // Median over steps, like the step time it is a part of.
    let self_us: Vec<f64> = spans::self_times(all, "step")
        .iter()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    out.set("core.daemon.self_us", median(&self_us));
    drop(store);

    // C: isolated calls at the daemon's operating point (9 devices).
    let n = GPUS + 1;
    out.set("backend.dyn_advance_ns", layers::dyn_advance_ns(cfg)?);
    let scenario = capgpu::config::Scenario::eight_gpu_testbed(args.seed);
    let tick_ns = layers::sim_tick_ns(&scenario, &vec![cfg.sim_utilization; n])?;
    out.set("sim.tick_second_ns", tick_ns);
    out.set(
        "sim.ticks",
        (untraced.periods * cfg.control_period_s) as f64,
    );
    layers::control_stack(out, &scenario, n)?;
    layers::journal_stack(out, events, scratch)?;
    // Shares of the untraced step, each calls per period × time per
    // call: the plant tick as measured in situ (A); the MPC solve
    // isolated (C) on the model this daemon identified and the clocks it
    // last commanded; journaling as records per period × (encode +
    // append), isolated (C) on this daemon's own records.
    let tick_share = 100.0 * advance_us / step_us;
    let point = layers::MpcPoint::recorded(cfg, events)?;
    let (mpc_warm_ns, mpc_after_ns, iters) = layers::mpc_step_ns(&point)?;
    // One solve per period; one period in `LEVEL_PERIODS` follows a
    // set-point step.
    let mpc_ns = (mpc_warm_ns * (LEVEL_PERIODS - 1) as f64 + mpc_after_ns) / LEVEL_PERIODS as f64;
    let mpc_share = 100.0 * mpc_ns / 1e3 / step_us;
    let record_ns = out.metrics["telemetry.event_to_json_ns"] + out.metrics["obs.writer_append_ns"];
    let journal_share =
        100.0 * out.metrics["core.daemon.events_per_period"] * record_ns / 1e3 / step_us;
    out.set("sim.tick_share_pct", tick_share);
    out.set("control.mpc_share_pct", mpc_share);
    out.set("control.qp_iterations_mean", iters);
    out.set("obs.journal_share_pct", journal_share);
    out.set(
        "unattributed_pct",
        100.0 - tick_share - mpc_share - journal_share,
    );
    out.set("obs.analyzer_observe_ns", layers::analyzer_observe_ns()?);
    out.set("telemetry.registry_set_ns", layers::registry_set_ns());
    Ok(())
}
