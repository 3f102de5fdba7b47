//! **Figure 4** — Fixed-step controller traces for step sizes 1 and 5
//! (step units: 100 MHz CPU / 90 MHz GPU, §6.2) at a 900 W set point.
//!
//! Expected shapes: the small step converges slowly then oscillates; the
//! large step converges fast but oscillates with larger amplitude.
//!
//! Regenerate with: `cargo run --release -p capgpu-bench --bin fig4`

use capgpu::prelude::*;
use capgpu_bench::{fmt, PAPER_PERIODS};
use capgpu_control::metrics;

const SETPOINT: f64 = 900.0;

fn main() {
    fmt::header(&format!("Figure 4: Fixed-step traces at {SETPOINT:.0} W"));
    let report = SweepSpec::new(Scenario::paper_testbed(42))
        .setpoint(SETPOINT)
        .periods(PAPER_PERIODS)
        .controller(ControllerSpec::FixedStep { multiplier: 1 })
        .controller(ControllerSpec::FixedStep { multiplier: 5 })
        .run()
        .expect("sweep");
    let t1 = &report.cells[0].trace;
    let t5 = &report.cells[1].trace;
    fmt::series_table(
        &[t1.controller.as_str(), t5.controller.as_str()],
        &[t1.power_series(), t5.power_series()],
    );

    fmt::header("Shape checks vs paper Fig. 4");
    let s1 = metrics::settling_time(&t1.power_series(), SETPOINT, 25.0);
    let s5 = metrics::settling_time(&t5.power_series(), SETPOINT, 25.0);
    // First period within ±25 W of the cap.
    let first_near = |t: &RunTrace| {
        t.power_series()
            .iter()
            .position(|p| (p - SETPOINT).abs() < 25.0)
    };
    let (n1, n5) = (first_near(t1), first_near(t5));
    fmt::check(
        "small step takes much longer to first reach the cap",
        match (n1, n5) {
            (Some(a), Some(b)) => a > 2 * b,
            _ => false,
        },
        &format!("first-near period: step 1 → {n1:?}, step 5 → {n5:?}"),
    );
    let (_, std1) = t1.steady_state_power(0.5);
    let (_, std5) = t5.steady_state_power(0.5);
    fmt::check(
        "both oscillate at steady state (σ > CapGPU-like 5 W for large step)",
        std5 > 5.0,
        &format!("σ: step 1 → {std1:.1} W, step 5 → {std5:.1} W"),
    );
    fmt::check(
        "larger step oscillates with larger amplitude",
        std5 > std1,
        &format!("σ {std5:.1} vs {std1:.1} W"),
    );
    fmt::check(
        "both violate the cap repeatedly (motivates the Safe variant)",
        t1.violations(2.0) > 5 && t5.violations(2.0) > 5,
        &format!(
            "violations: step 1 → {}, step 5 → {}",
            t1.violations(2.0),
            t5.violations(2.0)
        ),
    );
    let _ = s1.or(s5);
}
