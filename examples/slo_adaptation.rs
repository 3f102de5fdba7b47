//! Online SLO adaptation (paper §6.4 / Fig. 9): CapGPU tracks the power
//! cap while honoring per-GPU latency SLOs that change mid-run.
//!
//! All three inference tasks start at their median (50%-tail) SLO level.
//! At period 14 a demand surge tightens t₂/t₃ to the 80%-tail level while
//! t₁ relaxes to the 30%-tail level; CapGPU converts each SLO into a
//! per-GPU frequency floor (constraints 10b/10c) and reallocates the
//! budget.
//!
//! Run with: `cargo run --release --example slo_adaptation`

use capgpu::config::ScheduledChange;
use capgpu::prelude::*;
use capgpu_control::latency::LatencyModel;

fn main() {
    let base = Scenario::paper_testbed(42);
    // SLO levels from the latency law (Eq. 8): the "q% tail" SLO is the
    // latency at the frequency q% of the way up the GPU's range.
    let level = |task: usize, q: f64| -> f64 {
        let m = &base.gpu_models[task];
        let lat = LatencyModel::new(m.e_min_s, GAMMA_FITTED, 1350.0).unwrap();
        let f = 435.0 + (q / 100.0) * (1350.0 - 435.0);
        lat.latency(f)
    };
    let scenario = base
        .clone()
        .with_slos(vec![
            Some(level(0, 50.0)),
            Some(level(1, 50.0)),
            Some(level(2, 50.0)),
        ])
        .with_change(ScheduledChange::Slo {
            at_period: 14,
            task: 0,
            slo_s: level(0, 30.0), // relax t1
        })
        .with_change(ScheduledChange::Slo {
            at_period: 14,
            task: 1,
            slo_s: level(1, 80.0), // tighten t2
        })
        .with_change(ScheduledChange::Slo {
            at_period: 14,
            task: 2,
            slo_s: level(2, 80.0), // tighten t3
        });

    let mut runner = ExperimentRunner::new(scenario, 1100.0).expect("scenario");
    let controller = runner.build_capgpu_controller().expect("controller");
    let trace = runner.run(controller, 50).expect("run");

    println!("period  power(W)   t1 lat/slo      t2 lat/slo      t3 lat/slo");
    for r in trace.records.iter().step_by(2) {
        println!(
            "{:>6}  {:>8.1}   {:>6.3}/{:<6.3}  {:>6.3}/{:<6.3}  {:>6.3}/{:<6.3}",
            r.period,
            r.avg_power,
            r.gpu_mean_latency[0],
            r.slo[0].unwrap(),
            r.gpu_mean_latency[1],
            r.slo[1].unwrap(),
            r.gpu_mean_latency[2],
            r.slo[2].unwrap(),
        );
    }
    println!();
    println!(
        "deadline miss rates: t1 {:.2}%  t2 {:.2}%  t3 {:.2}%",
        100.0 * trace.miss_rates[0],
        100.0 * trace.miss_rates[1],
        100.0 * trace.miss_rates[2]
    );
    let (mean, std) = trace.steady_state_power(0.5);
    println!("steady-state power: {mean:.1} ± {std:.1} W at an 1100 W cap");
    assert!(trace.miss_rates.iter().all(|m| *m < 0.05));
    println!("\nAll SLOs met across the change — per-device frequency floors did the work ✓");
}
