//! **Figure 9** — Inference latency under CapGPU with the same §6.4 SLO
//! schedule as Fig. 8: start at 50%-tail SLOs, then at period 14 tighten
//! t₂/t₃ to the 80%-tail level and relax t₁ to the 30%-tail level, at a
//! 1000 W cap.
//!
//! Expected shape: CapGPU adjusts each GPU's frequency independently
//! through the SLO frequency-floor constraints (10b/10c) and meets every
//! SLO, including after the change.
//!
//! Regenerate with: `cargo run --release -p capgpu-bench --bin fig9`

use capgpu::config::ScheduledChange;
use capgpu::prelude::*;
use capgpu_bench::{fmt, slo_levels};

const SETPOINT: f64 = 1100.0;
const CHANGE_AT: usize = 14;
const PERIODS: usize = 60;

fn main() {
    fmt::header("Figure 9: latency vs SLOs under CapGPU");
    let levels = slo_levels::compute(&Scenario::paper_testbed(42));
    println!(
        "calibrated SLO levels (s/batch): 30% tail {:?}, 50% tail {:?}, 80% tail {:?}",
        levels.tail30, levels.tail50, levels.tail80
    );
    let scenario = Scenario::paper_testbed(42)
        .with_slos(vec![
            Some(levels.tail50[0]),
            Some(levels.tail50[1]),
            Some(levels.tail50[2]),
        ])
        .with_change(ScheduledChange::Slo {
            at_period: CHANGE_AT,
            task: 0,
            slo_s: levels.tail30[0],
        })
        .with_change(ScheduledChange::Slo {
            at_period: CHANGE_AT,
            task: 1,
            slo_s: levels.tail80[1],
        })
        .with_change(ScheduledChange::Slo {
            at_period: CHANGE_AT,
            task: 2,
            slo_s: levels.tail80[2],
        });
    let report = SweepSpec::new(scenario)
        .setpoint(SETPOINT)
        .periods(PERIODS)
        .controller(ControllerSpec::CapGpu)
        .run()
        .expect("sweep");
    let trace = &report.cells[0].trace;

    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "period", "lat t1", "slo t1", "lat t2", "slo t2", "lat t3", "slo t3", "power"
    );
    for r in trace.records.iter().step_by(2) {
        println!(
            "{:>6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.1}",
            r.period,
            r.gpu_mean_latency[0],
            r.slo[0].unwrap_or(f64::NAN),
            r.gpu_mean_latency[1],
            r.slo[1].unwrap_or(f64::NAN),
            r.gpu_mean_latency[2],
            r.slo[2].unwrap_or(f64::NAN),
            r.avg_power,
        );
    }
    println!(
        "deadline miss rates: t1 {:.2}%, t2 {:.2}%, t3 {:.2}%",
        100.0 * trace.miss_rates[0],
        100.0 * trace.miss_rates[1],
        100.0 * trace.miss_rates[2]
    );

    fmt::header("Shape checks vs paper Fig. 9");
    // Allow the one-period adaptation transient right after the change.
    let adapted: Vec<&capgpu::runner::PeriodRecord> = trace
        .records
        .iter()
        .filter(|r| r.period >= CHANGE_AT + 2)
        .collect();
    for t in 0..3 {
        let misses: usize = adapted.iter().map(|r| r.slo_misses[t]).sum();
        let batches: usize = adapted.iter().map(|r| r.batches[t]).sum();
        let rate = if batches > 0 {
            misses as f64 / batches as f64
        } else {
            0.0
        };
        fmt::check(
            &format!("t{} meets its SLO after adaptation", t + 1),
            rate < 0.02,
            &format!(
                "post-change miss rate {:.2}% ({misses}/{batches})",
                100.0 * rate
            ),
        );
    }
    let (mean, _) = trace.steady_state_power(0.5);
    fmt::check(
        "power stays capped at the set point while meeting SLOs",
        (mean - SETPOINT).abs() < 15.0,
        &format!("steady-state power {mean:.1} W"),
    );
    // Per-device differentiation (the capability GPU-Only lacks): after
    // the change the tightened tasks' frequency floors rise and the
    // relaxed task's floor falls. Device order: [CPU, GPU0, GPU1, GPU2].
    let before = &trace.records[CHANGE_AT - 1].floors;
    let after = trace.records.last().expect("records").floors.clone();
    fmt::check(
        "tightened tasks' floors rose after the change (t2, t3)",
        after[2] > before[2] && after[3] > before[3],
        &format!(
            "t2 {:.0} → {:.0} MHz, t3 {:.0} → {:.0} MHz",
            before[2], after[2], before[3], after[3]
        ),
    );
    fmt::check(
        "relaxed task's floor fell after the change (t1)",
        after[1] < before[1],
        &format!("t1 {:.0} → {:.0} MHz", before[1], after[1]),
    );
}
