//! Crash-recovery integration tests: kill a daemon mid-run (no
//! graceful seal), restart over the surviving plant, replay the
//! rotating journal, and verify the restarted loop resumes the dead
//! daemon's control state within one control period — plus the
//! `/healthz` endpoint and the rename-over-write ConfigWatcher
//! regression.

use std::path::{Path, PathBuf};

use capgpu::daemon::{ConfigWatcher, Daemon, DaemonConfig, MetricsServer};
use capgpu::prelude::{FaultKind, SupervisorTier};
use capgpu_backend::MockBackend;
use capgpu_obs::reader::read_dir;
use capgpu_obs::replay::ReplayState;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capgpu-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mock_cfg(journal_dir: Option<PathBuf>) -> DaemonConfig {
    let mut cfg = DaemonConfig::default_sim();
    cfg.backend = "mock".to_string();
    cfg.sim_gpus = 2;
    cfg.sysid_steps_per_device = 4;
    cfg.control_period_s = 2;
    cfg.journal_dir = journal_dir;
    cfg
}

fn replay_journal(dir: &Path) -> ReplayState {
    let scan = read_dir(dir).unwrap();
    ReplayState::replay(&scan.records)
}

/// The tentpole acceptance test: daemon A runs uninterrupted; daemon B
/// runs the same deterministic plant, dies (unsealed journal) at period
/// `k`, and a fresh daemon recovers from the journal over the surviving
/// backend. From the second post-restart period (the MPC warm-start is
/// allowed one period to refill), B's targets must match A's exactly.
#[test]
fn kill_and_restart_resumes_within_one_control_period() {
    let total = 16u64;
    let kill_at = 7u64;

    // Run A: uninterrupted reference.
    let mut a = Daemon::new(mock_cfg(None), Box::new(MockBackend::testbed(2).unwrap())).unwrap();
    a.identify().unwrap();
    let ref_reports = a.run_periods(total).unwrap();

    // Run B: identical plant, killed at `kill_at`.
    let dir = temp_dir("kill-restart");
    let mut b = Daemon::new(
        mock_cfg(Some(dir.clone())),
        Box::new(MockBackend::testbed(2).unwrap()),
    )
    .unwrap();
    b.identify().unwrap();
    b.run_periods(kill_at).unwrap();
    let pre_kill_setpoint = b.setpoint_watts();
    // "Kill": drop the daemon without sealing; the plant survives.
    let backend = b.into_backend();

    // Restart: replay the journal, recover, resume.
    let state = replay_journal(&dir);
    assert_eq!(state.last_period, Some(kill_at - 1));
    let mut b2 = Daemon::new(mock_cfg(Some(dir.clone())), backend).unwrap();
    b2.recover(&state).unwrap();
    assert_eq!(b2.tier(), SupervisorTier::Primary);
    assert_eq!(b2.setpoint_watts(), pre_kill_setpoint);
    let resumed = b2.run_periods(total - kill_at).unwrap();

    // Period numbering continues the dead daemon's sequence.
    assert_eq!(resumed[0].period, kill_at);
    // Within one control period: the first resumed period may differ
    // (fresh MPC warm start), every later one must match bit-tight.
    for (r, want) in resumed.iter().zip(&ref_reports[kill_at as usize..]).skip(1) {
        assert_eq!(r.tier, want.tier);
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

    // The restarted daemon journals into a fresh segment and its
    // "recovered" marker is on disk.
    let scan = read_dir(&dir).unwrap();
    assert!(scan.segments.len() >= 2, "restart must open a new segment");
    assert!(scan.records.iter().any(|r| r.kind() == "recovered"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery replays the exact model (base gains × refit scale) and the
/// supervisor tier in force at death — here SafeFallback, forced by a
/// meter dropout that persists in the surviving plant.
#[test]
fn recovery_restores_tier_and_model_after_meter_dropout() {
    let dir = temp_dir("tier");
    let mut d = Daemon::new(
        mock_cfg(Some(dir.clone())),
        Box::new(MockBackend::testbed(2).unwrap()),
    )
    .unwrap();
    d.identify().unwrap();
    d.run_periods(3).unwrap();
    d.backend_mut()
        .as_any_mut()
        .downcast_mut::<MockBackend>()
        .unwrap()
        .apply_fault(&FaultKind::MeterDropout)
        .unwrap();
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
    // testbed(2) = 2 GPUs + 1 CPU package knob.
    assert_eq!(gains.len(), 3);
    assert!(offset > 0.0);

    let mut d2 = Daemon::new(mock_cfg(Some(dir.clone())), backend).unwrap();
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
#[test]
fn torn_final_record_is_tolerated_on_recovery() {
    let dir = temp_dir("torn");
    let mut d = Daemon::new(
        mock_cfg(Some(dir.clone())),
        Box::new(MockBackend::testbed(2).unwrap()),
    )
    .unwrap();
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

    // And a daemon still recovers over it.
    let mut d2 = Daemon::new(mock_cfg(Some(dir.clone())), backend).unwrap();
    d2.recover(&after).unwrap();
    d2.run_periods(2).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/healthz` serves the analyzer verdict JSON alongside `/metrics`.
#[test]
fn healthz_is_served_alongside_metrics() {
    use std::io::{Read as _, Write as _};
    let mut d = Daemon::new(mock_cfg(None), Box::new(MockBackend::testbed(2).unwrap())).unwrap();
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
    assert!(metrics.contains("capgpud_health_overall"));
    assert!(metrics.contains("detector=\"meter_silence\""));
}

/// Atomic rename-over-write deployments (write tmp, rename onto the
/// config) must trip the watcher even when content length is unchanged
/// — the inode component of the fingerprint catches it.
#[test]
fn config_watcher_sees_rename_over_write() {
    let dir = temp_dir("watcher");
    let path = dir.join("capgpud.toml");
    std::fs::write(&path, "[daemon]\nsetpoint_watts = 900.0\n").unwrap();
    let mut w = ConfigWatcher::new(&path);
    assert!(!w.changed(), "baseline must not report a change");

    // Same byte length, new inode.
    let tmp = dir.join("capgpud.toml.tmp");
    std::fs::write(&tmp, "[daemon]\nsetpoint_watts = 800.0\n").unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    assert!(w.changed(), "rename-over-write must be detected");
    assert!(!w.changed(), "change reports once");
    let _ = std::fs::remove_dir_all(&dir);
}
