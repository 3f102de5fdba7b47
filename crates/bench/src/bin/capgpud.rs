//! **capgpud** — the live-serving control daemon, runnable end to end
//! without hardware (DESIGN.md §18).
//!
//! Modes:
//!
//! * default / `--dry-run`: boot the configured backend, identify,
//!   run `--periods` control periods, and print the deterministic
//!   transcript — period table, JSONL journal, Prometheus exposition.
//!   Against the sim backend the transcript is byte-identical across
//!   reruns; the committed golden is `results/capgpud.txt`.
//! * `--serve`: the real timer loop — wall-clock paced periods with
//!   SIGHUP + config-mtime set-point hot reload and a live
//!   `GET /metrics` listener. Not used in CI (non-deterministic).
//! * `--smoke`: CI gate. Checks that (1) the dry-run transcript reruns
//!   byte-identically, (2) it matches the committed golden, (3) meter
//!   dropout on a mock backend escalates the supervisor ladder through
//!   fallback to park and recovers, (4) the metrics endpoint serves the
//!   exposition over HTTP, (5) a config rewrite hot-reloads the
//!   set-point, and (6, Unix) SIGHUP latches the reload flag. Exits
//!   nonzero on any failure.
//!
//! Regenerate the golden with:
//! `cargo run --release -p capgpu-bench --bin capgpud > results/capgpud.txt`
//!
//! Usage: `capgpud [--config path.toml] [--backend sim|mock|cpufreq]
//! [--setpoint W] [--periods N] [--dry-run | --serve | --smoke]`

use std::fmt::Write as _;
use std::path::PathBuf;

use capgpu::prelude::*;
use capgpu_backend::MockBackend;
use capgpu_bench::fmt;

const DEFAULT_PERIODS: u64 = 12;
const GOLDEN_PATH: &str = "results/capgpud.txt";

fn tier_name(tier: SupervisorTier) -> &'static str {
    match tier {
        SupervisorTier::Primary => "primary",
        SupervisorTier::SafeFallback => "fallback",
        SupervisorTier::Park => "park",
    }
}

/// Builds, identifies, and runs a daemon for `periods`, rendering the
/// deterministic dry-run transcript.
fn dry_run_transcript(cfg: &DaemonConfig, periods: u64) -> Result<String, String> {
    let backend = cfg.build_backend().map_err(|e| e.to_string())?;
    let mut daemon = Daemon::new(cfg.clone(), backend).map_err(|e| e.to_string())?;
    daemon.identify().map_err(|e| e.to_string())?;
    let reports = daemon.run_periods(periods).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let title = format!(
        "capgpud dry run (backend={}, {} periods)",
        cfg.backend, periods
    );
    let rule = "=".repeat(title.len());
    let _ = writeln!(out, "\n{rule}\n{title}\n{rule}");
    let devices = daemon.backend().devices();
    let gpus = devices
        .iter()
        .filter(|d| d.kind == capgpu_sim::DeviceKind::Gpu)
        .count();
    let _ = writeln!(
        out,
        "devices: {} ({} cpu + {} gpu)  period={}s  setpoint={:.0}W",
        devices.len(),
        devices.len() - gpus,
        gpus,
        cfg.control_period_s,
        cfg.setpoint_watts
    );
    let ident = daemon
        .journal()
        .of_kind("identified")
        .next()
        .expect("identified event")
        .to_json();
    let _ = writeln!(out, "identified: {ident}");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>6}  {:>8}  {:>9}  {:>9}  {:>5}",
        "period", "tier", "watts", "setpoint", "stale"
    );
    for r in &reports {
        let _ = writeln!(
            out,
            "{:>6}  {:>8}  {:>9.2}  {:>9.2}  {:>5}",
            r.period,
            tier_name(r.tier),
            r.avg_power_watts,
            r.effective_setpoint,
            r.stale_periods
        );
    }
    let _ = writeln!(out, "\njournal (JSONL)");
    out.push_str(&daemon.journal().to_jsonl());
    let _ = writeln!(out, "\nprometheus exposition");
    out.push_str(&daemon.prometheus_text());
    Ok(out)
}

/// The live timer loop: wall-paced periods, SIGHUP/config hot reload,
/// metrics over HTTP. Bounded by `periods` when given.
fn serve(cfg: &DaemonConfig, config_path: Option<&PathBuf>, periods: Option<u64>) {
    let backend = cfg.build_backend().expect("backend");
    let mut daemon = Daemon::new(cfg.clone(), backend).expect("daemon");
    let metrics = cfg
        .metrics_port
        .map(|port| MetricsServer::bind(port).expect("metrics listener"));
    if let Some(m) = &metrics {
        eprintln!(
            "capgpud: metrics on http://{0}/metrics, health on http://{0}/healthz",
            m.local_addr()
        );
    }
    let sig = ReloadSignal::install();
    let mut watcher = config_path.map(ConfigWatcher::new);
    eprintln!("capgpud: identifying...");
    daemon.identify().expect("identification");
    eprintln!("capgpud: control loop started");
    let mut n = 0u64;
    loop {
        let t0 = std::time::Instant::now();
        let report = daemon.step_period().expect("period");
        eprintln!(
            "period {:>5}  tier={:<8}  {:>8.2} W -> {:>8.2} W",
            report.period,
            tier_name(report.tier),
            report.avg_power_watts,
            report.effective_setpoint
        );
        if let Some(m) = &metrics {
            m.publish(&daemon.prometheus_text());
            m.publish_health(&daemon.health_json());
        }
        let mtime_hit = watcher.as_mut().is_some_and(ConfigWatcher::changed);
        if sig.take() || mtime_hit {
            if let Some(path) = config_path {
                match DaemonConfig::load(path) {
                    Ok(new_cfg) => {
                        if daemon.apply_reload(&new_cfg) {
                            eprintln!(
                                "capgpud: set-point reloaded to {:.1} W",
                                daemon.setpoint_watts()
                            );
                        }
                    }
                    Err(e) => eprintln!("capgpud: reload rejected: {e}"),
                }
            }
        }
        n += 1;
        if periods.is_some_and(|p| n >= p) {
            break;
        }
        // Pace to the control period, net of the time the period took
        // (the sim advances instantly; live backends sleep inside
        // `advance` instead and fall straight through here).
        let elapsed = t0.elapsed();
        let period = std::time::Duration::from_secs(daemon.config().control_period_s);
        if let Some(left) = period.checked_sub(elapsed) {
            if daemon.backend().wall_clock_unix_ms().is_none() && cfg.backend == "sim" {
                // Deterministic plant: don't sleep, time is simulated.
            } else {
                std::thread::sleep(left);
            }
        }
    }
    // Graceful shutdown seals the rotating journal's active segment;
    // a crash would skip this and leave the torn tail the recovery
    // reader tolerates.
    if let Err(e) = daemon.seal_journal() {
        eprintln!("capgpud: journal seal failed: {e}");
    }
}

fn smoke(cfg: &DaemonConfig, periods: u64) -> bool {
    let mut all_ok = true;

    // ---- check 1: deterministic dry run -------------------------------
    let first = dry_run_transcript(cfg, periods);
    let second = dry_run_transcript(cfg, periods);
    let rerun_ok = match (&first, &second) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    fmt::check(
        "dry-run transcript reruns byte-identically",
        rerun_ok,
        &format!(
            "{} bytes (journal + prometheus included)",
            first.as_ref().map(String::len).unwrap_or(0)
        ),
    );
    all_ok &= rerun_ok;

    // ---- check 2: committed golden ------------------------------------
    match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(golden) => {
            let golden_ok = first.as_ref().is_ok_and(|t| *t == golden);
            fmt::check(
                "dry-run transcript matches the committed golden",
                golden_ok,
                GOLDEN_PATH,
            );
            all_ok &= golden_ok;
        }
        Err(_) => {
            fmt::check(
                "dry-run transcript matches the committed golden",
                true,
                "golden absent (not running from the repo root); skipped",
            );
        }
    }

    // ---- check 3: dropout escalates the ladder on a mock backend ------
    let ladder_ok = (|| -> Result<bool, String> {
        let mut mcfg = cfg.clone();
        mcfg.backend = "mock".to_string();
        mcfg.control_period_s = 2;
        let backend = mcfg.build_backend().map_err(|e| e.to_string())?;
        let mut d = Daemon::new(mcfg, backend).map_err(|e| e.to_string())?;
        d.identify().map_err(|e| e.to_string())?;
        d.run_periods(3).map_err(|e| e.to_string())?;
        if d.tier() != SupervisorTier::Primary {
            return Ok(false);
        }
        d.backend_mut()
            .as_any_mut()
            .downcast_mut::<MockBackend>()
            .ok_or("not a mock backend")?
            .apply_fault(&FaultKind::MeterDropout)
            .map_err(|e| e.to_string())?;
        let stale = d.run_periods(6).map_err(|e| e.to_string())?;
        let saw_fallback = stale.iter().any(|r| r.tier == SupervisorTier::SafeFallback);
        let parked = stale.last().is_some_and(|r| r.tier == SupervisorTier::Park);
        d.backend_mut()
            .as_any_mut()
            .downcast_mut::<MockBackend>()
            .unwrap()
            .clear_fault(&FaultKind::MeterDropout)
            .map_err(|e| e.to_string())?;
        let recovered = d.run_periods(14).map_err(|e| e.to_string())?;
        let back = recovered
            .last()
            .is_some_and(|r| r.tier == SupervisorTier::Primary);
        Ok(saw_fallback && parked && back)
    })();
    let ladder_ok = matches!(ladder_ok, Ok(true));
    fmt::check(
        "mock meter dropout walks the ladder: primary -> fallback -> park -> primary",
        ladder_ok,
        "staleness watchdog fed purely through the PowerBackend seam",
    );
    all_ok &= ladder_ok;

    // ---- check 4: metrics over HTTP -----------------------------------
    let http_ok = (|| -> Result<bool, String> {
        use std::io::{Read as _, Write as _};
        let backend = cfg.build_backend().map_err(|e| e.to_string())?;
        let mut d = Daemon::new(cfg.clone(), backend).map_err(|e| e.to_string())?;
        d.identify().map_err(|e| e.to_string())?;
        d.run_periods(2).map_err(|e| e.to_string())?;
        let server = MetricsServer::bind(0).map_err(|e| e.to_string())?;
        server.publish(&d.prometheus_text());
        let mut s = std::net::TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").map_err(|e| e.to_string())?;
        let mut body = String::new();
        let _ = s.read_to_string(&mut body);
        Ok(body.starts_with("HTTP/1.1 200 OK")
            && body.contains("# HELP capgpud_power_watts")
            && body.contains("capgpud_periods_total"))
    })();
    let http_ok = matches!(http_ok, Ok(true));
    fmt::check(
        "GET /metrics serves the Prometheus exposition",
        http_ok,
        "help + type lines and daemon counters over the in-tree listener",
    );
    all_ok &= http_ok;

    // ---- check 5: config rewrite hot-reloads the set-point ------------
    let reload_ok = (|| -> Result<bool, String> {
        let path = std::env::temp_dir().join(format!("capgpud-smoke-{}.toml", std::process::id()));
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 900\n").map_err(|e| e.to_string())?;
        let mut watcher = ConfigWatcher::new(&path);
        let backend = cfg.build_backend().map_err(|e| e.to_string())?;
        let mut d = Daemon::new(cfg.clone(), backend).map_err(|e| e.to_string())?;
        d.identify().map_err(|e| e.to_string())?;
        d.run_periods(2).map_err(|e| e.to_string())?;
        let baseline = !watcher.changed();
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 812.5\n").map_err(|e| e.to_string())?;
        let tripped = watcher.changed();
        let new_cfg = DaemonConfig::load(&path).map_err(|e| e.to_string())?;
        let applied = d.apply_reload(&new_cfg);
        let journaled = d.journal().of_kind("setpoint_change").count() == 1;
        let _ = std::fs::remove_file(&path);
        Ok(baseline && tripped && applied && d.setpoint_watts() == 812.5 && journaled)
    })();
    let reload_ok = matches!(reload_ok, Ok(true));
    fmt::check(
        "config rewrite hot-reloads the set-point",
        reload_ok,
        "mtime watcher -> DaemonConfig::load -> apply_reload, journaled",
    );
    all_ok &= reload_ok;

    // ---- check 6: SIGHUP latches the reload flag (Unix) ---------------
    #[cfg(unix)]
    {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        const SIGHUP: i32 = 1;
        let sig = ReloadSignal::install();
        let _ = sig.take();
        unsafe {
            raise(SIGHUP);
        }
        let sighup_ok = sig.take() && !sig.take();
        fmt::check(
            "SIGHUP latches the reload flag exactly once",
            sighup_ok,
            "installed handler does only an atomic store",
        );
        all_ok &= sighup_ok;
    }

    all_ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let config_path = value("--config").map(PathBuf::from);
    let mut cfg = match &config_path {
        Some(p) => DaemonConfig::load(p).unwrap_or_else(|e| {
            eprintln!("capgpud: {e}");
            std::process::exit(2);
        }),
        None => DaemonConfig::default_sim(),
    };
    if let Some(b) = value("--backend") {
        cfg.backend = b;
    }
    if let Some(s) = value("--setpoint") {
        cfg.setpoint_watts = s.parse().unwrap_or_else(|_| {
            eprintln!("capgpud: bad --setpoint `{s}`");
            std::process::exit(2);
        });
    }
    if let Err(e) = cfg.validate() {
        eprintln!("capgpud: {e}");
        std::process::exit(2);
    }
    let periods: u64 = value("--periods")
        .map(|p| {
            p.parse().unwrap_or_else(|_| {
                eprintln!("capgpud: bad --periods `{p}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(DEFAULT_PERIODS);

    if flag("--smoke") {
        if !smoke(&cfg, periods) {
            std::process::exit(1);
        }
        return;
    }
    if flag("--serve") {
        let bound = value("--periods").map(|_| periods);
        serve(&cfg, config_path.as_ref(), bound);
        return;
    }
    // Default: dry run (the golden).
    match dry_run_transcript(&cfg, periods) {
        Ok(t) => print!("{t}"),
        Err(e) => {
            eprintln!("capgpud: {e}");
            std::process::exit(1);
        }
    }
}
