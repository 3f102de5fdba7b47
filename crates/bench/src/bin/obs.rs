//! **capgpu-obs** — offline journal post-mortem (DESIGN.md §19).
//!
//! Modes:
//!
//! * default: run the scripted observability scenario — a daemon on the
//!   simulated testbed that identifies, takes a set-point step, suffers
//!   a meter dropout, crashes mid-run (unsealed journal), is restarted
//!   via journal-replay recovery, and finally seals — then ingest the
//!   journal directory it left behind and print the deterministic
//!   post-mortem report. The committed golden is `results/obs.txt`.
//! * `--journal DIR`: ingest an arbitrary journal directory instead of
//!   the scripted scenario and print its post-mortem.
//!
//! Regenerate the golden with:
//! `cargo run --release -p capgpu-bench --bin obs > results/obs.txt`
//!
//! Usage: `obs [--journal DIR]`

use std::path::Path;

use capgpu::daemon::{Daemon, DaemonConfig};
use capgpu::prelude::FaultKind;
use capgpu_backend::SimBackend;
use capgpu_obs::reader::read_dir;
use capgpu_obs::replay::ReplayState;
use capgpu_obs::report::render;
use capgpu_sim::Server;

fn scenario_cfg(journal_dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::default_sim();
    cfg.sim_gpus = 2;
    cfg.sysid_steps_per_device = 4;
    cfg.control_period_s = 2;
    cfg.journal_dir = Some(journal_dir.to_path_buf());
    // Small segments so the scripted run exercises rotation.
    cfg.journal_max_segment_kib = 1;
    cfg.journal_retain_segments = 64;
    cfg
}

/// The simulated server behind the daemon, for fault injection.
fn server(d: &mut Daemon) -> Result<&mut Server, String> {
    let sim = d.backend_mut().as_any_mut().downcast_mut::<SimBackend>();
    Ok(sim.ok_or("not a sim backend")?.server_mut())
}

/// Runs the scripted scenario into `dir`: identify → steady periods →
/// set-point step → meter dropout and recovery → crash (unsealed) →
/// journal-replay restart → graceful seal.
fn scripted_scenario(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let cfg = scenario_cfg(dir);
    let backend = cfg.build_backend().map_err(|e| e.to_string())?;
    let mut d = Daemon::new(cfg.clone(), backend).map_err(|e| e.to_string())?;
    d.identify().map_err(|e| e.to_string())?;
    d.run_periods(6).map_err(|e| e.to_string())?;
    d.set_setpoint(850.0);
    d.run_periods(4).map_err(|e| e.to_string())?;
    FaultKind::MeterDropout
        .apply(server(&mut d)?)
        .map_err(|e| e.to_string())?;
    d.run_periods(5).map_err(|e| e.to_string())?;
    FaultKind::MeterDropout
        .clear(server(&mut d)?)
        .map_err(|e| e.to_string())?;
    d.run_periods(8).map_err(|e| e.to_string())?;
    // Crash: drop the daemon without sealing; the plant survives.
    let backend = d.into_backend();
    // Restart: replay the journal and resume.
    let scan = read_dir(dir).map_err(|e| e.to_string())?;
    let state = ReplayState::replay(&scan.records);
    let mut d2 = Daemon::new(cfg, backend).map_err(|e| e.to_string())?;
    d2.recover(&state).map_err(|e| e.to_string())?;
    d2.run_periods(4).map_err(|e| e.to_string())?;
    d2.seal_journal().map_err(|e| e.to_string())?;
    Ok(())
}

/// Renders the post-mortem for a journal directory.
fn post_mortem(dir: &Path) -> Result<String, String> {
    let scan = read_dir(dir).map_err(|e| e.to_string())?;
    Ok(render(&scan).text)
}

/// The default transcript: scripted scenario + its post-mortem.
fn scripted_transcript() -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!("capgpu-obs-scenario-{}", std::process::id()));
    scripted_scenario(&dir)?;
    let mut out = String::new();
    out.push_str("\n==============================\n");
    out.push_str("capgpu-obs offline post-mortem\n");
    out.push_str("==============================\n");
    out.push_str(
        "scenario: scripted sim-backend run — identify, set-point step,\n\
         meter dropout + ladder recovery, crash mid-run (unsealed journal),\n\
         journal-replay restart, graceful seal\n\n",
    );
    out.push_str(&post_mortem(&dir)?);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let journal = (args.iter().position(|a| a == "--journal")).and_then(|i| args.get(i + 1));
    let transcript = match journal {
        Some(dir) => post_mortem(Path::new(dir)),
        None => scripted_transcript(),
    };
    match transcript {
        Ok(t) => print!("{t}"),
        Err(e) => {
            eprintln!("obs: {e}");
            std::process::exit(1);
        }
    }
}
