//! **Faults ablation** — cap-violation energy and SLO misses under
//! deterministic fault storms (DESIGN.md §13). The storm schedule drives
//! meter dropout/bias, a stuck GPU clock, a GPU ejection, and a PSU
//! derate through the simulated testbed; every §6.1 contender runs the
//! identical storm twice, once bare and once wrapped by the supervisory
//! failover ladder. The headline number is cap-violation energy (W·s)
//! against the instantaneous feasible budget `min(set-point, PSU limit)`
//! — exactly what a derated supply makes physically dangerous.
//!
//! Regenerate with: `cargo run --release -p capgpu-bench --bin faults`
//!
//! Exits nonzero if any shape check fails, so the CI golden step is a
//! real gate.

use capgpu::prelude::*;
use capgpu::sweep::{ControllerSpec, SweepSpec};
use capgpu_bench::fmt;

const SEED: u64 = 42;
/// Operator set-point above the storm's derated PSU limit (940 W), so an
/// unsupervised loop happily regulates into the infeasible region.
const SETPOINT: f64 = 1000.0;
/// Full storm horizon (periods) including the PSU-derate tail phase.
const PERIODS: usize = 60;

/// The six contenders: CapGPU plus the five baselines of §6.1.
fn contenders() -> Vec<ControllerSpec> {
    vec![
        ControllerSpec::CapGpu,
        ControllerSpec::FixedStep { multiplier: 2 },
        ControllerSpec::SafeFixedStep { multiplier: 1 },
        ControllerSpec::GpuOnly,
        ControllerSpec::CpuOnly,
        ControllerSpec::Split { gpu_share: 0.5 },
    ]
}

/// Cap-violation energy (W·s): power above the instantaneous feasible
/// budget `min(set-point, active PSU limit)`, integrated over the run.
fn violation_ws(trace: &RunTrace, schedule: &FaultSchedule, period_s: f64) -> f64 {
    trace
        .records
        .iter()
        .map(|rec| {
            let budget = schedule
                .feasible_limit(rec.period)
                .map_or(SETPOINT, |l| l.min(SETPOINT));
            (rec.avg_power - budget).max(0.0) * period_s
        })
        .sum()
}

/// Worst-task deadline-miss rate of a run.
fn worst_miss(trace: &RunTrace) -> f64 {
    trace.miss_rates.iter().cloned().fold(0.0_f64, f64::max)
}

fn main() {
    let intensities = [0.5, 1.0, 1.5];
    let period_s = Scenario::fault_testbed(SEED).control_period_s as f64;
    let n_contenders = contenders().len();

    fmt::header("Faults ablation: cap violation and SLO misses under fault storms");
    let spec = || -> SweepSpec {
        let s = SweepSpec::fault_family(SEED, &intensities)
            .expect("fault family")
            .setpoint(SETPOINT)
            .periods(PERIODS);
        contenders().into_iter().fold(s, |s, c| s.controller(c))
    };
    let report = spec().run().expect("fault sweep");
    // The rerun takes the serial path on purpose: equality then covers
    // both rerun determinism and thread-schedule independence at once.
    let rerun = spec().run_serial().expect("serial rerun");

    let mut all_ok = true;
    let mut strict_sup = (0.0, 0.0);
    for (k, &intensity) in intensities.iter().enumerate() {
        let storm = FaultSchedule::storm(SEED, intensity).expect("storm schedule");
        println!();
        println!("storm x{intensity:.2} ({PERIODS} periods, set point {SETPOINT:.0} W):");
        println!(
            "{:>20} {:>14} {:>14} {:>12} {:>12}",
            "controller", "viol (W·s)", "+sup (W·s)", "miss (%)", "+sup (%)"
        );
        for c in 0..n_contenders {
            let bare = report.trace(2 * k, 0, 0, c);
            let sup = report.trace(2 * k + 1, 0, 0, c);
            println!(
                "{:>20} {:>14.1} {:>14.1} {:>12.2} {:>12.2}",
                report.get(2 * k, 0, 0, c).cell.controller_label,
                violation_ws(bare, &storm, period_s),
                violation_ws(sup, &storm, period_s),
                100.0 * worst_miss(bare),
                100.0 * worst_miss(sup),
            );
        }
        if (intensity - 1.0).abs() < 1e-12 {
            strict_sup = (
                violation_ws(report.trace(2 * k, 0, 0, 0), &storm, period_s),
                violation_ws(report.trace(2 * k + 1, 0, 0, 0), &storm, period_s),
            );
        }
    }
    println!();

    let det_ok = report == rerun;
    fmt::check(
        "deterministic: serial rerun matches threaded sweep bit-identically",
        det_ok,
        &format!("{} cells compared", report.len()),
    );
    all_ok &= det_ok;

    // Default-intensity storm, CapGPU with vs without the supervisor:
    // the ladder must strictly cut cap-violation energy.
    let default_k = intensities
        .iter()
        .position(|&i| (i - 1.0).abs() < 1e-12)
        .expect("default intensity in grid");
    let (bare_v, sup_v) = strict_sup;
    let sup_ok = sup_v < bare_v;
    fmt::check(
        "supervisor strictly cuts CapGPU's cap-violation energy (storm x1.00)",
        sup_ok,
        &format!("{sup_v:.1} W·s supervised vs {bare_v:.1} W·s bare"),
    );
    all_ok &= sup_ok;

    // The ladder actually engaged: the supervised CapGPU trace must show
    // demoted periods and stale-flagged measurements during the storm.
    let sup_trace = report.trace(2 * default_k + 1, 0, 0, 0);
    let engaged = sup_trace.records.iter().any(|r| r.supervisor_tier > 0);
    let stale_seen = sup_trace.records.iter().any(|r| r.meter_stale);
    fmt::check(
        "failover ladder engaged during the storm",
        engaged,
        &format!(
            "{} of {} periods off Primary",
            sup_trace
                .records
                .iter()
                .filter(|r| r.supervisor_tier > 0)
                .count(),
            sup_trace.records.len()
        ),
    );
    all_ok &= engaged;
    fmt::check(
        "dropout phases are stale-flagged, never silently averaged",
        stale_seen,
        &format!(
            "{} stale periods",
            sup_trace.records.iter().filter(|r| r.meter_stale).count()
        ),
    );
    all_ok &= stale_seen;

    if !all_ok {
        std::process::exit(1);
    }
}
