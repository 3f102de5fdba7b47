//! Crash-recovery integration tests: kill a daemon mid-run (no
//! graceful seal), restart over the surviving plant, replay the
//! rotating journal, and verify the restarted loop resumes the dead
//! daemon's control state — plus the `/healthz` endpoint and the
//! rename-over-write config reload. Every daemon runs on the simulated
//! testbed `DaemonConfig::build_backend` makes; faults go into its
//! server through `SimBackend::server_mut`.

use std::path::{Path, PathBuf};

use capgpu::daemon::{ConfigWatcher, Daemon, DaemonConfig, MetricsServer, PeriodReport};
use capgpu::prelude::{FaultKind, SupervisorTier};
use capgpu_backend::SimBackend;
use capgpu_obs::reader::{parse_record, read_dir};
use capgpu_obs::replay::ReplayState;
use capgpu_obs::report::render;
use capgpu_obs::rotate::{list_segments, JournalWriter};
use capgpu_sim::Server;
use capgpu_telemetry::journal::Body;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capgpu-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 2-GPU sim testbed on a 2 s period with a short identification.
fn sim_cfg(journal_dir: Option<PathBuf>) -> DaemonConfig {
    let mut cfg = DaemonConfig::default_sim();
    cfg.sim_gpus = 2;
    cfg.sysid_steps_per_device = 4;
    cfg.control_period_s = 2;
    cfg.journal_dir = journal_dir;
    cfg
}

fn daemon(cfg: DaemonConfig) -> Daemon {
    let backend = cfg.build_backend().unwrap();
    Daemon::new(cfg, backend).unwrap()
}

/// The simulated server behind a daemon, for fault injection.
fn server(d: &mut Daemon) -> &mut Server {
    d.backend_mut()
        .as_any_mut()
        .downcast_mut::<SimBackend>()
        .expect("sim backend")
        .server_mut()
}

fn replay_journal(dir: &Path) -> ReplayState {
    let scan = read_dir(dir).unwrap();
    ReplayState::replay(&scan.records)
}

/// One kill-and-restart: daemon A runs `total` periods uninterrupted;
/// daemon B runs the same deterministic plant with a journal in `dir`,
/// dies (unsealed journal) after `kill_at` periods, and a fresh daemon
/// recovers from the journal over the surviving backend and runs the
/// rest. Returns A's reports, the state replayed from B's journal and
/// the resumed daemon's reports.
fn kill_and_restart(
    cfg: &DaemonConfig,
    dir: &Path,
    total: u64,
    kill_at: u64,
) -> (Vec<PeriodReport>, ReplayState, Vec<PeriodReport>) {
    let mut a = daemon(cfg.clone());
    a.identify().unwrap();
    let reference = a.run_periods(total).unwrap();

    let journaled = DaemonConfig {
        journal_dir: Some(dir.to_path_buf()),
        ..cfg.clone()
    };
    let mut b = daemon(journaled.clone());
    b.identify().unwrap();
    b.run_periods(kill_at).unwrap();
    let pre_kill_setpoint = b.setpoint_watts();
    // "Kill": drop the daemon without sealing; the plant survives.
    let backend = b.into_backend();

    let state = replay_journal(dir);
    assert_eq!(state.last_period, Some(kill_at - 1));
    let mut b2 = Daemon::new(journaled, backend).unwrap();
    b2.recover(&state).unwrap();
    assert_eq!(b2.tier(), SupervisorTier::Primary);
    assert_eq!(b2.setpoint_watts(), pre_kill_setpoint);
    let resumed = b2.run_periods(total - kill_at).unwrap();
    // Period numbering continues the dead daemon's sequence.
    assert_eq!(resumed[0].period, kill_at);
    (reference, state, resumed)
}

/// Every resumed period after the first `skip` has the tier, targets
/// and power of the uninterrupted run's period in the same place of
/// `reference` within 1e-6.
fn assert_resumes(reference: &[PeriodReport], resumed: &[PeriodReport], skip: usize) {
    for (r, want) in resumed.iter().zip(reference).skip(skip) {
        assert_eq!(r.tier, want.tier, "period {}", r.period);
        for (t, w) in r.targets_mhz.iter().zip(want.targets_mhz.iter()) {
            assert!(
                (t - w).abs() < 1e-6,
                "period {}: resumed target {t} vs uninterrupted {w}",
                r.period
            );
        }
        assert!(
            (r.avg_power_watts - want.avg_power_watts).abs() < 1e-6,
            "period {}: resumed power {} vs uninterrupted {}",
            r.period,
            r.avg_power_watts,
            want.avg_power_watts
        );
    }
}

/// With RLS tracking off, a daemon killed at period 7 resumes the
/// uninterrupted run from the second post-restart period (the MPC warm
/// start is allowed one period to refill).
///
/// RLS is off because recovery re-anchors the tracker at the recovered
/// model with no samples. Over the exact linear plant the daemon tests
/// used to run on, RLS never pushed a refit, so this held with RLS on.
/// Over the simulated testbed a daemon killed at period 7 with RLS on
/// refits differently at period 11 (scale 1.0693 against 1.0579), and
/// from period 12 its CPU target differs by up to 0.75 MHz within these
/// 16 periods (1.33 MHz by period 18): a checkpoint must carry the
/// tracker's state, not only the refit scale and offset.
#[test]
fn kill_and_restart_resumes_within_one_control_period() {
    let dir = temp_dir("kill-restart");
    let cfg = DaemonConfig {
        rls_forgetting: None,
        ..sim_cfg(None)
    };
    let (reference, _, resumed) = kill_and_restart(&cfg, &dir, 16, 7);
    assert_resumes(&reference[7..], &resumed, 1);

    // The restarted daemon journals into a fresh segment and its
    // "recovered" marker is on disk.
    let scan = read_dir(&dir).unwrap();
    assert!(scan.segments.len() >= 2, "restart must open a new segment");
    assert!(scan
        .records
        .iter()
        .any(|r| matches!(r.body, Body::Recovered { .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

/// With RLS on, a daemon killed after a journaled refit resumes the
/// uninterrupted run exactly from the first post-restart period: the
/// recovered model is base gains × the refit scale, bit for bit.
#[test]
fn kill_after_a_refit_resumes_from_the_first_period() {
    let dir = temp_dir("kill-after-refit");
    let cfg = sim_cfg(None);
    assert!(cfg.rls_forgetting.is_some());
    let (reference, pre_kill, resumed) = kill_and_restart(&cfg, &dir, 20, 13);
    // The journal the dead daemon left must hold a refit, or this test
    // would pass without exercising one.
    let refits = pre_kill
        .kind_counts
        .iter()
        .find(|(kind, _)| kind == "refit")
        .map_or(0, |(_, n)| *n);
    assert!(refits >= 1, "no refit journaled before the kill");
    assert_resumes(&reference[13..], &resumed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon killed between `identify`'s commit and its first period's
/// journals a model but no targets. It recovers from the clocks its
/// sweep left in force and runs `periods` periods; returns their
/// reports.
///
/// The `identified` record is stamped period 0, so replay counts
/// period 0 as done and the resumed daemon numbers its first period 1
/// where the uninterrupted run numbers it 0.
fn kill_right_after_identify(cfg: DaemonConfig, tag: &str, periods: u64) -> Vec<PeriodReport> {
    let dir = temp_dir(tag);
    let journaled = DaemonConfig {
        journal_dir: Some(dir.clone()),
        ..cfg
    };
    let mut d = daemon(journaled.clone());
    d.identify().unwrap();
    let backend = d.into_backend();
    let state = replay_journal(&dir);
    assert!(state.model().is_some() && state.last_targets_mhz.is_empty());
    let mut d2 = Daemon::new(journaled, backend).unwrap();
    d2.recover(&state).unwrap();
    let resumed = d2.run_periods(periods).unwrap();
    assert_eq!(resumed[0].period, 1);
    let _ = std::fs::remove_dir_all(&dir);
    resumed
}

#[test]
fn kill_right_after_identify_recovers_with_rls_on() {
    let cfg = sim_cfg(None);
    assert!(cfg.rls_forgetting.is_some());
    assert_eq!(kill_right_after_identify(cfg, "identify-rls", 16).len(), 16);
}

/// With RLS off, the daemon recovered right after `identify` runs the
/// uninterrupted run's periods from its first one, in order.
#[test]
fn kill_right_after_identify_resumes_from_the_first_period() {
    let cfg = DaemonConfig {
        rls_forgetting: None,
        ..sim_cfg(None)
    };
    let mut a = daemon(cfg.clone());
    a.identify().unwrap();
    let reference = a.run_periods(16).unwrap();
    let resumed = kill_right_after_identify(cfg, "identify", 16);
    assert_resumes(&reference, &resumed, 0);
}

/// Recovery replays the exact model (base gains × refit scale) and the
/// supervisor tier in force at death — here SafeFallback, forced by a
/// meter dropout that persists in the surviving plant.
#[test]
fn recovery_restores_tier_and_model_after_meter_dropout() {
    let dir = temp_dir("tier");
    let mut d = daemon(sim_cfg(Some(dir.clone())));
    d.identify().unwrap();
    d.run_periods(3).unwrap();
    FaultKind::MeterDropout.apply(server(&mut d)).unwrap();
    // Escalate off Primary, then die there.
    let mut tier = SupervisorTier::Primary;
    for _ in 0..8 {
        tier = d.step_period().unwrap().tier;
        if tier != SupervisorTier::Primary {
            break;
        }
    }
    assert_ne!(tier, SupervisorTier::Primary, "dropout must escalate");
    let died_at_tier = d.tier();
    let backend = d.into_backend();

    let state = replay_journal(&dir);
    assert_eq!(state.tier_or_primary(), u64::from(died_at_tier.as_u8()));
    let (gains, offset) = state.model().expect("model journaled");
    // 2 GPUs + 1 CPU package knob.
    assert_eq!(gains.len(), 3);
    assert!(offset > 0.0);

    let mut d2 = Daemon::new(sim_cfg(Some(dir.clone())), backend).unwrap();
    d2.recover(&state).unwrap();
    assert_eq!(d2.tier(), died_at_tier, "recovered tier must match");
    // The meter is still dark: the restarted ladder keeps degrading
    // rather than resetting to Primary.
    let r = d2.step_period().unwrap();
    assert_ne!(r.tier, SupervisorTier::Primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final record — the crash-mid-flush case — is tolerated by the
/// reader and replay sees every complete record.
/// The post-mortem re-runs the health detectors over the journal's
/// `period` records; the daemon journaled its own live firings as
/// `health` records. The two agree period by period and edge by edge,
/// which holds only while every analyzer input is in the `period`
/// record.
#[test]
fn post_mortem_detectors_agree_with_the_live_ones() {
    let dir = temp_dir("detectors");
    let mut d = daemon(sim_cfg(Some(dir.clone())));
    d.identify().unwrap();
    d.run_periods(8).unwrap();
    FaultKind::MeterDropout.apply(server(&mut d)).unwrap();
    d.run_periods(6).unwrap();
    FaultKind::MeterDropout.clear(server(&mut d)).unwrap();
    d.run_periods(20).unwrap();
    d.seal_journal().unwrap();
    let scan = read_dir(&dir).unwrap();
    let live: Vec<String> = scan
        .records
        .iter()
        .filter_map(|r| match &r.body {
            Body::Health { detector, from, to } => Some(format!(
                "  period={} t_s={} {detector} {from} -> {to}",
                r.period, r.sim_time_s
            )),
            _ => None,
        })
        .collect();
    let report = render(&scan).text;
    let replayed: Vec<&str> = report
        .lines()
        .skip_while(|l| *l != "detector firings")
        .skip(1)
        .take_while(|l| !l.starts_with("  final:"))
        .collect();
    assert!(
        live.iter().any(|l| l.contains("meter_silence")),
        "the dropout fired no meter_silence edge:\n{report}"
    );
    assert_eq!(replayed, live, "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_is_tolerated_on_recovery() {
    let dir = temp_dir("torn");
    let mut d = daemon(sim_cfg(Some(dir.clone())));
    d.identify().unwrap();
    d.run_periods(5).unwrap();
    let backend = d.into_backend();
    let before = replay_journal(&dir);

    // Tear the active segment: append half a record, no newline.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let last = segments.last().unwrap();
    let mut text = std::fs::read_to_string(last).unwrap();
    text.push_str("{\"v\":1,\"period\":99,\"t_s\":396,\"kind\":\"per");
    std::fs::write(last, text).unwrap();

    let scan = read_dir(&dir).unwrap();
    assert!(scan.torn_tail.is_some(), "tear must be reported");
    let after = ReplayState::replay(&scan.records);
    assert_eq!(after, before, "torn tail must not change replayed state");

    // And a daemon still recovers over it — and again once that daemon
    // has died in turn, when the torn segment is no longer the last one.
    let mut d2 = Daemon::new(sim_cfg(Some(dir.clone())), backend).unwrap();
    d2.recover(&after).unwrap();
    d2.run_periods(2).unwrap();
    let backend = d2.into_backend();
    let scan = read_dir(&dir).unwrap();
    let torn: Vec<bool> = scan.segments.iter().map(|s| s.torn).collect();
    assert_eq!(torn.iter().filter(|&&t| t).count(), 1, "{torn:?}");
    assert!(!torn.last().unwrap(), "{torn:?}");
    let state = ReplayState::replay(&scan.records);
    assert_eq!(state.last_period, Some(6));
    let mut d3 = Daemon::new(sim_cfg(Some(dir.clone())), backend).unwrap();
    d3.recover(&state).unwrap();
    assert_eq!(d3.step_period().unwrap().period, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment bytes of `dir`, by index.
fn segment_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    list_segments(dir)
        .unwrap()
        .into_iter()
        .map(|(index, path)| (index, std::fs::read(path).unwrap()))
        .collect()
}

/// Every public call that journals commits its records before it
/// returns: after each one the journal on disk ends with the call's
/// last record, untorn. Batching them into one write per call moves no
/// byte: with segments small enough to seal, reap and age out in the
/// middle of a call, the directory is what one `append` per record
/// writes.
#[test]
fn each_call_commits_its_records_before_returning() {
    let (dir, by_append) = (temp_dir("commit"), temp_dir("commit-append"));
    let cfg = DaemonConfig {
        journal_max_segment_kib: 1,
        journal_max_segment_age_s: 15.0,
        journal_retain_segments: 3,
        ..sim_cfg(Some(dir.clone()))
    };
    let mut d = daemon(cfg.clone());
    let on_disk = |d: &Daemon| {
        let scan = read_dir(&dir).unwrap();
        assert_eq!(scan.torn_tail, None);
        let last = d.journal().events().last().unwrap().to_json();
        assert_eq!(
            scan.records.last(),
            Some(&parse_record(&last, "<t>", 1).unwrap())
        );
    };
    d.identify().unwrap();
    on_disk(&d);
    for period in 0..30 {
        if period == 12 {
            d.set_setpoint(800.0);
            on_disk(&d);
        }
        d.step_period().unwrap();
        on_disk(&d);
    }
    let (_, sealed, reaped) = d.journal_stats();
    assert!(sealed > 3 && reaped > 0, "sealed {sealed}, reaped {reaped}");

    let mut w = JournalWriter::create(&by_append, cfg.rotation_config()).unwrap();
    for e in d.journal().events() {
        w.append(&e.to_json(), e.sim_time_s).unwrap();
    }
    assert_eq!(w.stats(), d.journal_stats());
    assert!(segment_bytes(&dir) == segment_bytes(&by_append));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&by_append);
}

/// `/healthz` serves the analyzer verdict JSON alongside `/metrics`.
#[test]
fn healthz_is_served_alongside_metrics() {
    use std::io::{Read as _, Write as _};
    let mut d = daemon(sim_cfg(None));
    d.identify().unwrap();
    d.run_periods(4).unwrap();

    let server = MetricsServer::bind(0).unwrap();
    server.publish(&d.prometheus_text());
    server.publish_health(&d.health_json());
    let addr = server.local_addr();
    let fetch = |path: &str| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };

    let health = fetch("/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("application/json"), "{health}");
    let body = health.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
    for needle in [
        "\"tier\":0",
        "\"overall\":\"ok\"",
        "\"periods\":4",
        "\"cap_violation_burn\"",
        "\"meter_silence\"",
    ] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }
    // /metrics keeps working, with the analyzer gauges exposed.
    let metrics = fetch("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"));
    assert!(metrics.contains("# HELP capgpud_power_watts"));
    assert!(metrics.contains("capgpud_periods_total{backend=\"sim\"} 4"));
    assert!(metrics.contains("capgpud_health_overall"));
    assert!(metrics.contains("detector=\"meter_silence\""));
}

/// Atomic rename-over-write deployments (write tmp, rename onto the
/// config) must trip the watcher even when content length is unchanged
/// — the inode component of the fingerprint catches it — and the
/// rewritten file reaches a running daemon the way `capgpud --serve`
/// takes it: `DaemonConfig::load`, then `apply_reload`, journaled once.
#[test]
fn config_watcher_sees_rename_over_write() {
    let dir = temp_dir("watcher");
    let path = dir.join("capgpud.toml");
    std::fs::write(&path, "[daemon]\nsetpoint_watts = 900.0\n").unwrap();
    let mut w = ConfigWatcher::new(&path);
    assert!(!w.changed(), "baseline must not report a change");
    let mut d = daemon(DaemonConfig::load(&path).unwrap());
    d.identify().unwrap();
    d.run_periods(2).unwrap();

    // Same byte length, new inode.
    let tmp = dir.join("capgpud.toml.tmp");
    std::fs::write(&tmp, "[daemon]\nsetpoint_watts = 800.0\n").unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    assert!(w.changed(), "rename-over-write must be detected");
    assert!(!w.changed(), "change reports once");

    let reloaded = DaemonConfig::load(&path).unwrap();
    assert_eq!(reloaded.setpoint_watts, 800.0);
    assert!(d.apply_reload(&reloaded));
    assert_eq!(d.setpoint_watts(), 800.0);
    let changes: Vec<String> = d
        .journal()
        .events()
        .iter()
        .filter(|e| matches!(e.body, Body::SetpointChange { .. }))
        .map(|e| e.to_json())
        .collect();
    assert_eq!(changes.len(), 1, "{changes:?}");
    assert!(
        changes[0].contains("\"from_w\":900,\"to_w\":800"),
        "{changes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
