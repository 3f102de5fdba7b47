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
//!
//! Regenerate the golden with:
//! `cargo run --release -p capgpu-bench --bin capgpud > results/capgpud.txt`
//!
//! Usage: `capgpud [--config path.toml] [--backend sim|cpufreq]
//! [--setpoint W] [--periods N] [--dry-run | --serve]`

use std::fmt::Write as _;
use std::path::PathBuf;

use capgpu::prelude::*;

const DEFAULT_PERIODS: u64 = 12;

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
                        let running = daemon.config();
                        let setpoint_watts = running.setpoint_watts;
                        if (DaemonConfig {
                            setpoint_watts,
                            ..new_cfg
                        }) != *running
                        {
                            eprintln!(
                                "capgpud: {}: only daemon.setpoint_watts reloads; \
                                 its other changes take effect on restart",
                                path.display()
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
