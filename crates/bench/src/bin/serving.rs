//! **Serving ablation** — p99-miss-rate-vs-cap curves for CapGPU and the
//! five §6.1 baselines on the request-level serving testbed (DESIGN.md
//! §12). With the discrete-event serving layer enabled, constraint (10b)
//! is checked against *measured* request tails: frequency cuts inflate
//! batch service time, queues build, and p99 latency diverges long before
//! the mean does. The curves show how much SLO headroom each controller
//! preserves as the cap deepens, plus how miss rates respond to arrival
//! load scaling and a mid-run traffic burst.
//!
//! Regenerate with: `cargo run --release -p capgpu-bench --bin serving`

use capgpu::prelude::*;
use capgpu::sweep::{ControllerSpec, SweepSpec};
use capgpu_bench::fmt;

const SEED: u64 = 42;

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

/// Worst-task deadline-miss rate of a run.
fn worst_miss(trace: &RunTrace) -> f64 {
    trace.miss_rates.iter().cloned().fold(0.0_f64, f64::max)
}

/// Worst-task measured p99 request latency (seconds).
fn worst_p99(trace: &RunTrace) -> f64 {
    trace.p99_latency_s.iter().cloned().fold(0.0_f64, f64::max)
}

fn main() {
    cap_curves(&[880.0, 950.0, 1020.0, 1090.0, 1160.0], 40);
    // The family's burst fires at period 50; the run must reach it.
    load_and_burst(&[0.6, 0.8, 1.0, 1.2], 60);
}

/// P99-miss-rate-vs-cap: one serving run per (cap, controller) cell.
fn cap_curves(caps: &[f64], periods: usize) {
    fmt::header("Serving ablation A: p99 / miss rate vs power cap");
    let spec = SweepSpec::new(Scenario::serving_testbed(SEED))
        .setpoints(caps)
        .periods(periods);
    let spec = contenders().into_iter().fold(spec, |s, c| s.controller(c));
    let report = spec.run().expect("cap sweep");
    let rerun = {
        let spec = SweepSpec::new(Scenario::serving_testbed(SEED))
            .setpoints(caps)
            .periods(periods);
        contenders()
            .into_iter()
            .fold(spec, |s, c| s.controller(c))
            .run()
            .expect("rerun")
    };

    let labels: Vec<String> = (0..6)
        .map(|c| report.get(0, 0, 0, c).cell.controller_label.clone())
        .collect();

    println!("worst-task deadline-miss rate (%):");
    print!("{:>8}", "cap (W)");
    for l in &labels {
        print!(" {l:>20}");
    }
    println!();
    for (i, cap) in caps.iter().enumerate() {
        print!("{cap:>8.0}");
        for c in 0..6 {
            print!(" {:>20.2}", 100.0 * worst_miss(report.trace(0, 0, i, c)));
        }
        println!();
    }

    println!();
    println!("worst-task measured p99 latency (ms):");
    print!("{:>8}", "cap (W)");
    for l in &labels {
        print!(" {l:>20}");
    }
    println!();
    for (i, cap) in caps.iter().enumerate() {
        print!("{cap:>8.0}");
        for c in 0..6 {
            print!(" {:>20.1}", 1e3 * worst_p99(report.trace(0, 0, i, c)));
        }
        println!();
    }

    let deepest = 0;
    let roomiest = caps.len() - 1;
    let capgpu = 0;
    fmt::check(
        "deterministic: identical sweep reruns bit-identically",
        report == rerun,
        &format!("{} cells compared", report.len()),
    );
    fmt::check(
        "deep caps inflate CapGPU's measured tail",
        worst_p99(report.trace(0, 0, deepest, capgpu))
            >= worst_p99(report.trace(0, 0, roomiest, capgpu)),
        &format!(
            "p99 {:.1} ms at {:.0} W vs {:.1} ms at {:.0} W",
            1e3 * worst_p99(report.trace(0, 0, deepest, capgpu)),
            caps[deepest],
            1e3 * worst_p99(report.trace(0, 0, roomiest, capgpu)),
            caps[roomiest]
        ),
    );
    let worst_baseline_miss = (1..6)
        .map(|c| worst_miss(report.trace(0, 0, deepest, c)))
        .fold(0.0_f64, f64::max);
    fmt::check(
        "CapGPU's deepest-cap miss rate beats the worst baseline",
        worst_miss(report.trace(0, 0, deepest, capgpu)) <= worst_baseline_miss + 1e-12,
        &format!(
            "{:.2}% vs {:.2}% at {:.0} W",
            100.0 * worst_miss(report.trace(0, 0, deepest, capgpu)),
            100.0 * worst_baseline_miss,
            caps[deepest]
        ),
    );
}

/// Arrival-load scaling and burst handling via the serving scenario
/// family, CapGPU at a mid-depth cap.
fn load_and_burst(scales: &[f64], periods: usize) {
    fmt::header("Serving ablation B: arrival-load scaling and burst");
    let report = SweepSpec::serving_family(SEED, scales, Some(2.0))
        .expect("family")
        .setpoint(1020.0)
        .periods(periods)
        .controller(ControllerSpec::CapGpu)
        .run()
        .expect("family sweep");
    println!(
        "{:>12} {:>12} {:>12} {:>14}",
        "variant", "miss (%)", "p99 (ms)", "thr (req/s)"
    );
    let mut misses = Vec::new();
    for cell in &report.cells {
        let trace = &cell.trace;
        let thr: f64 = trace.steady_gpu_throughput(0.5).iter().sum();
        println!(
            "{:>12} {:>12.2} {:>12.1} {:>14.1}",
            cell.cell.scenario_label,
            100.0 * worst_miss(trace),
            1e3 * worst_p99(trace),
            thr
        );
        misses.push(worst_miss(trace));
    }
    // The last cell is the burst variant; the scales precede it.
    let lightest = misses[0];
    let heaviest = misses[scales.len() - 1];
    fmt::check(
        "heavier offered load never lowers the worst miss rate",
        heaviest >= lightest,
        &format!(
            "{:.2}% at x{:.2} vs {:.2}% at x{:.2}",
            100.0 * heaviest,
            scales[scales.len() - 1],
            100.0 * lightest,
            scales[0]
        ),
    );
}
