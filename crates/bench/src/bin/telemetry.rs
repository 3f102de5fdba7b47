//! **Telemetry snapshot** — exercises the in-tree telemetry subsystem
//! end to end (DESIGN.md §14): a supervised fault storm produces the
//! deterministic metric/journal report, then the bin verifies the
//! observability invariants that make the subsystem safe to leave on:
//!
//! 1. the deterministic report reruns byte-identically,
//! 2. run traces are bit-identical with telemetry enabled,
//! 3. a telemetry-carrying sweep is bit-identical across thread counts
//!    (merged registry included),
//! 4. wall-clock span tracing captures every control-loop phase.
//!
//! Regenerate the committed golden with:
//! `cargo run --release -p capgpu-bench --bin telemetry > results/telemetry.txt`
//! — the wall-clock span table goes to **stderr**, keeping stdout (and
//! therefore the golden) free of non-deterministic timings. The bin
//! exits nonzero if any check fails.

use capgpu::prelude::*;
use capgpu_bench::fmt;

const SEED: u64 = 42;
/// Set point above the storm's derated PSU limit, matching the faults
/// ablation — this drives the supervisor through its full ladder and
/// fills the journal with tier changes, quarantines, and fault events.
const STORM_SETPOINT: f64 = 1000.0;

fn storm_run(periods: usize) -> (RunTrace, TelemetryReport) {
    let scenario = Scenario::fault_testbed(SEED)
        .with_supervisor(SupervisorConfig::default())
        .with_telemetry(TelemetryConfig::deterministic());
    let mut r = ExperimentRunner::new(scenario, STORM_SETPOINT).expect("runner");
    let c = r.build_capgpu_controller().expect("controller");
    let trace = r.run(c, periods).expect("run");
    let report = r.telemetry_report().expect("telemetry enabled");
    (trace, report)
}

fn grid(setpoints: &[f64], periods: usize, telemetry: bool) -> SweepSpec {
    let mut scenario = Scenario::paper_testbed(SEED);
    if telemetry {
        scenario = scenario.with_telemetry(TelemetryConfig::deterministic());
    }
    SweepSpec::new(scenario)
        .setpoints(setpoints)
        .periods(periods)
        .controller(ControllerSpec::CapGpu)
        .controller(ControllerSpec::GpuOnly)
}

fn main() {
    let storm_periods = 60;
    let grid_periods = 12;
    let setpoints = [900.0, 1000.0, 1100.0, 1200.0];
    let mut all_ok = true;

    // ---- deterministic report: supervised CapGPU under the storm ----
    fmt::header("Telemetry: supervised fault storm, CapGPU (deterministic report)");
    let (_trace, report) = storm_run(storm_periods);
    println!("{}", report.deterministic_text());

    // ---- check 1: byte-identical rerun --------------------------------
    let (_t2, rerun) = storm_run(storm_periods);
    let det_ok = report.deterministic_text() == rerun.deterministic_text()
        && report.prometheus_text() == rerun.prometheus_text();
    fmt::check(
        "deterministic: telemetry report reruns byte-identically",
        det_ok,
        &format!("{} journal events", report.journal.len()),
    );
    all_ok &= det_ok;

    // ---- check 2: telemetry never perturbs a run -----------------------
    // The Fig. 6 accuracy grid (shortened), once bare and once with
    // telemetry enabled on a threaded schedule — every per-cell trace
    // must come out bit for bit the same.
    let off = grid(&setpoints, grid_periods, false)
        .run_serial()
        .expect("bare sweep");
    let on = grid(&setpoints, grid_periods, true)
        .run_with_threads(4)
        .expect("telemetry sweep");
    let traces_ok = off.traces().eq(on.traces());
    fmt::check(
        "run traces bit-identical with telemetry enabled",
        traces_ok,
        &format!("{} cells compared", off.len()),
    );
    all_ok &= traces_ok;

    // ---- check 3: thread-schedule independence with telemetry on ------
    let serial = grid(&setpoints, grid_periods, true)
        .run_serial()
        .expect("serial sweep");
    let merged = serial
        .merged_telemetry()
        .expect("merge")
        .expect("snapshots present");
    let mut threads_ok = serial == on;
    for threads in [2, 8] {
        let parallel = grid(&setpoints, grid_periods, true)
            .run_with_threads(threads)
            .expect("parallel sweep");
        threads_ok &= parallel == serial;
        let pm = parallel
            .merged_telemetry()
            .expect("merge")
            .expect("snapshots present");
        threads_ok &= pm.to_prometheus_text() == merged.to_prometheus_text();
    }
    fmt::check(
        "telemetry sweep bit-identical across thread counts",
        threads_ok,
        &format!(
            "merged registry: {} periods over {} cells",
            merged
                .counter_value("capgpu_periods_total", &[])
                .unwrap_or(0),
            serial.len()
        ),
    );
    all_ok &= threads_ok;

    // ---- check 4: wall-clock spans (stderr only) ----------------------
    let scenario = Scenario::paper_testbed(SEED).with_telemetry(TelemetryConfig::with_spans());
    let mut r = ExperimentRunner::new(scenario, 900.0).expect("runner");
    let c = r.build_capgpu_controller().expect("controller");
    r.run(c, 20).expect("run");
    let traced = r.telemetry_report().expect("telemetry enabled");
    let spans_ok = match traced.wall_clock_text() {
        Some(text) => {
            eprintln!("wall-clock spans (non-deterministic, excluded from golden):");
            eprintln!("{text}");
            true
        }
        None => false,
    };
    fmt::check(
        "wall-clock span tracing captured control-loop phases (table on stderr)",
        spans_ok,
        &format!("{} phases timed", traced.spans.phases.len()),
    );
    all_ok &= spans_ok;

    if !all_ok {
        std::process::exit(1);
    }
}
