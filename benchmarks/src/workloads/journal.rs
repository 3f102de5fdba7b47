//! `journal_recover`: the read side of the layer `daemon_steady`
//! writes. A 2-GPU daemon runs with the durable journal off and its
//! in-memory events are kept; then, round after round, (a) every event
//! goes through `Event::to_json` + `JournalWriter::append` into a fresh
//! directory and the writer is dropped unsealed, as a crash leaves it;
//! (b) the directory is scanned and replayed; (c) a daemon is restarted
//! from it.
//!
//! A cheaper encoding that parses slower — or a leaner `Record` that
//! replays differently — shows as a gain on one of the two journal
//! workloads and a loss on the other; restart downtime is what an
//! operator sees.

use std::path::Path;
use std::time::Instant;

use capgpu::daemon::Daemon;
use capgpu_obs::reader::read_dir;
use capgpu_obs::replay::ReplayState;
use capgpu_obs::rotate::{JournalWriter, RotationConfig};
use capgpu_telemetry::journal::Event;

use super::daemon::{
    self, config, drive, fresh, reference_pass, segment_periods, set_simulated, set_step_metrics,
    SEGMENTS,
};
use super::{err_text, sample_fresh, Args, RunResult};
use crate::host::{peak_rss_mib, rss_mib, timed, Scratch};
use crate::layers;
use crate::report::Outcome;
use crate::spec::REFERENCE_SEED;

const GPUS: usize = 2;
const SETPOINT_W: f64 = 700.0;
/// Rounds of write → crash → scan + replay → restart. Rounds rather
/// than one long write phase and one long read phase, so that the
/// samples of every figure are spread over the whole run.
const ROUNDS: usize = 8;
/// Equal slices each round's write is timed in.
const WRITE_SLICES: usize = 4;
/// Segments the generating daemon runs on after every round. Its first
/// 48 segments take half a second; without these its figures would rest
/// on that half second alone.
const ROUND_SEGMENTS: usize = 6;
/// Periods of the reference pass.
const REFERENCE_PERIODS: usize = 2_400;

/// (a) Encodes and appends every event in equal timed slices — 256 KiB
/// segments, nothing reaped — and drops the writer unsealed, as a crash
/// leaves it. Returns host seconds per record of each slice, and the
/// writer's `(appended, sealed, reaped)`.
fn write_journal(dir: &Path, events: &[Event]) -> RunResult<(Vec<f64>, (u64, u64, u64))> {
    let rotation = RotationConfig {
        max_segment_bytes: 256 * 1024,
        max_segment_age_s: f64::MAX,
        retain_segments: usize::MAX,
    };
    let mut writer = JournalWriter::create(dir, rotation).map_err(err_text)?;
    let slice_len = (events.len() / WRITE_SLICES).max(1);
    let mut s_per_record = Vec::with_capacity(WRITE_SLICES);
    for (i, slice) in events.chunks(slice_len).enumerate() {
        let (secs, res) = timed(|| {
            slice
                .iter()
                .try_for_each(|e| writer.append(&e.to_json(), e.sim_time_s))
        });
        res.map_err(err_text)?;
        // The remainder chunk is written but not scored.
        if i < WRITE_SLICES {
            s_per_record.push(secs / slice.len() as f64);
        }
    }
    Ok((s_per_record, writer.stats()))
}

pub fn run(args: &Args, scratch: &Scratch) -> RunResult<Outcome> {
    let mut out = Outcome::default();
    let cfg = config(args.seed, GPUS, SETPOINT_W, None);

    // Generation: the journal's content, and the first stretch of this
    // workload's period loop. A fresh set-up is timed after every
    // segment.
    let mut setup_s = Vec::new();
    let build = || fresh(&cfg).map_err(err_text);
    let mut generator = sample_fresh(&mut setup_s, build)?;
    let total = args.periods(9_600 * args.seconds as usize);
    let per_segment = segment_periods(total);
    let mut generated = drive(
        &mut generator,
        SETPOINT_W,
        SEGMENTS,
        per_segment,
        |_| {},
        || sample_fresh(&mut setup_s, build).map(drop),
    )?;
    let periods = generated.periods + per_segment as u64;
    out.attempted = periods;
    let events: Vec<Event> = generator.journal().events().to_vec();

    // Rounds of (a) write, (b) scan + replay, and (c) restart: (b), then
    // a new backend, a new daemon, `recover`, and its first period.
    let rounds = if args.traced { ROUNDS / 2 } else { ROUNDS };
    let mut write_s_per_record = Vec::with_capacity(rounds * WRITE_SLICES);
    let mut replay_s_per_record = Vec::with_capacity(rounds);
    let mut restart_ms = Vec::with_capacity(rounds);
    let mut scan_rss_mib = 0.0;
    let mut last = None;
    for round in 0..rounds {
        drop(last.take());
        let journal = scratch.fresh("journal");
        let (slices, stats) = write_journal(&journal.0, &events)?;
        write_s_per_record.extend(slices);
        out.attempted += stats.0;

        let rss_before = rss_mib();
        let t0 = Instant::now();
        let scan = read_dir(&journal.0).map_err(err_text)?;
        let state = ReplayState::replay(&scan.records);
        let replay_s = t0.elapsed().as_secs_f64();
        let backend = cfg.build_backend().map_err(err_text)?;
        let mut restarted = Daemon::new(cfg.clone(), backend).map_err(err_text)?;
        restarted.recover(&state).map_err(err_text)?;
        restarted.step_period().map_err(err_text)?;
        restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replay_s_per_record.push(replay_s / scan.records.len() as f64);
        if round == 0 {
            // What a scan keeps resident.
            scan_rss_mib = (rss_mib() - rss_before).max(0.0);
        }
        out.attempted += scan.records.len() as u64 + 1;
        last = Some((journal, stats, scan, state));

        // The generating daemon runs on (a warm-up segment, not scored,
        // then `ROUND_SEGMENTS` timed ones); what it journals from here
        // on is not written.
        let more = drive(
            &mut generator,
            SETPOINT_W,
            ROUND_SEGMENTS,
            per_segment,
            |_| {},
            || sample_fresh(&mut setup_s, build).map(drop),
        )?;
        out.attempted += more.periods + per_segment as u64;
        generated.absorb(more);
    }
    drop(generator);
    let (journal, (appended, sealed, reaped), scan, state) = last.expect("at least one round ran");
    let dir = journal.0.as_path();

    // Read-back: exactly the records written, every inner segment's
    // seal verified (`read_dir` fails on a mismatch), the last period
    // intact, nothing torn.
    let sealed_read = scan.segments.iter().filter(|s| s.sealed).count() as u64;
    out.checks.check(
        scan.records.len() as u64 == appended
            && appended == events.len() as u64
            && reaped == 0
            && sealed_read == sealed
            && scan.torn_tail.is_none()
            && state.last_period == Some(periods - 1),
        appended,
        || {
            format!(
                "journal read-back: wrote {appended} records in {sealed} sealed segments, \
                 read {} in {sealed_read}, last period {:?} (want {})",
                scan.records.len(),
                state.last_period,
                periods - 1
            )
        },
    );
    let records_read = scan.records.len();
    drop((scan, state));

    // The reference pass, twice: same seed, fresh set-up — the
    // simulation must repeat to the bit. The second daemon then crashes:
    // its events go through a journal, and a daemon recovered from that
    // journal on the crashed one's backend must continue as the first,
    // uninterrupted one does.
    let reference_cfg = config(REFERENCE_SEED, GPUS, SETPOINT_W, None);
    let reference_periods = args.periods(REFERENCE_PERIODS);
    let (mut uninterrupted, quality) = reference_pass(&reference_cfg, reference_periods)?;
    let (crashed, again) = reference_pass(&reference_cfg, reference_periods)?;
    out.attempted += 2 * reference_periods as u64;
    out.checks.check(
        quality.digest() == again.digest(),
        2 * reference_periods as u64,
        || "same-seed rerun of the reference pass diverged".into(),
    );
    out.reference_digest = quality.digest();
    let crash_journal = scratch.fresh("journal-reference");
    write_journal(&crash_journal.0, crashed.journal().events())?;
    let crash_scan = read_dir(&crash_journal.0).map_err(err_text)?;
    let crash_state = ReplayState::replay(&crash_scan.records);
    let want = uninterrupted.step_period().map_err(err_text)?;
    let mut recovered =
        Daemon::new(reference_cfg.clone(), crashed.into_backend()).map_err(err_text)?;
    recovered.recover(&crash_state).map_err(err_text)?;
    let got = recovered.step_period().map_err(err_text)?;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6;
    out.attempted += 1;
    out.checks.check(
        got.period == want.period
            && got.tier == want.tier
            && close(got.avg_power_watts, want.avg_power_watts)
            && close(got.effective_setpoint, want.effective_setpoint)
            && got.targets_mhz.len() == want.targets_mhz.len()
            && got
                .targets_mhz
                .iter()
                .zip(&want.targets_mhz)
                .all(|(a, b)| close(*a, *b)),
        1,
        || format!("recovered daemon's next period differs: got {got:?}, want {want:?}"),
    );
    drop((uninterrupted, recovered));

    if args.traced {
        let sorted = generated.sorted_step_us();
        out.set("core.daemon.step_p99_us", daemon::tail_us(&sorted, 99.0));
        out.set("core.daemon.step_p999_us", daemon::tail_us(&sorted, 99.9));
        out.set(
            "core.daemon.events_per_period",
            events.len() as f64 / periods as f64,
        );
        out.set("core.daemon.journal_events_resident", events.len() as f64);
        out.set("obs.records_written", appended as f64);
        out.set("obs.segments_sealed", sealed as f64);
        out.set("obs.records_read", records_read as f64);
        out.set(
            "obs.retained_pct",
            100.0 * records_read as f64 / appended as f64,
        );
        out.set(
            "obs.rss_bytes_per_record",
            scan_rss_mib * 1024.0 * 1024.0 / records_read as f64,
        );
        out.set(
            "obs.read_dir_records_per_s",
            layers::read_dir_records_per_s(dir)?,
        );
        let scenario = capgpu::config::Scenario::paper_testbed(args.seed);
        layers::control_stack(&mut out, &scenario, GPUS + 1)?;
        layers::journal_stack(&mut out, &events, scratch)?;
        out.set("obs.analyzer_observe_ns", layers::analyzer_observe_ns()?);
        out.set("telemetry.registry_set_ns", layers::registry_set_ns());
        out.set("backend.dyn_advance_ns", layers::dyn_advance_ns(&cfg)?);
        // The write and replay phases are timed from outside and never
        // wrapped, so there is no traced pass to compare.
        out.set("trace_overhead_pct", 0.0);
        return Ok(out);
    }

    out.set_time("setup_s", &setup_s);
    set_step_metrics(&mut out, &generated);
    out.set_rate("journal_write_records_per_s", 1.0, &write_s_per_record);
    out.set_rate("journal_replay_records_per_s", 1.0, &replay_s_per_record);
    out.set_time("recover_ms", &restart_ms);
    out.set("peak_rss_mib", peak_rss_mib());
    set_simulated(&mut out, &quality, reference_cfg.control_period_s);
    Ok(out)
}
