//! **Table 1** — End-to-end performance under different frequency controls.
//!
//! Motivation experiment (§3.2): GoogLeNet on an RTX 3090 fed by ten CPU
//! preprocessing workers. Three frequency configurations: CPU-only
//! throttled (1.1 GHz / 810 MHz), GPU-only throttled (2.1 GHz / 495 MHz),
//! and the coordinated midpoint (1.6 GHz / 660 MHz).
//!
//! Regenerate with: `cargo run --release -p capgpu-bench --bin table1`

use capgpu::prelude::*;
use capgpu_bench::fmt;

fn main() {
    fmt::header("Table 1: end-to-end performance under different frequency controls");
    let configs: [(&str, f64, f64); 3] = [
        ("CPU-only", 1100.0, 810.0),
        ("GPU-only", 2100.0, 495.0),
        ("CapGPU", 1600.0, 660.0),
    ];
    println!(
        "{:<10} {:>9} {:>9} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "Config",
        "CPU(MHz)",
        "GPU(MHz)",
        "Prep(s/img)",
        "GPU(s/batch)",
        "Queue(s/img)",
        "Thr(img/s)",
        "Power(W)"
    );
    let mut rows = Vec::new();
    for (name, f_cpu, f_gpu) in configs {
        let mut runner =
            ExperimentRunner::new(Scenario::motivation_testbed(42), 0.0).expect("runner");
        let stats = runner
            .run_fixed(&[f_cpu, f_gpu], 240, 60)
            .expect("fixed-frequency dwell");
        println!(
            "{:<10} {:>9.0} {:>9.0} {:>12.3} {:>12.2} {:>12.2} {:>12.2} {:>10.1}",
            name,
            f_cpu,
            f_gpu,
            stats.preprocess_s_per_image[0],
            stats.mean_batch_latency_s[0],
            stats.mean_queue_delay_s[0],
            stats.throughput_img_s[0],
            stats.mean_power
        );
        rows.push((name, stats));
    }

    fmt::header("Shape checks vs paper Table 1");
    let thr = |i: usize| rows[i].1.throughput_img_s[0];
    let queue = |i: usize| rows[i].1.mean_queue_delay_s[0];
    fmt::check(
        "joint throughput beats CPU-only",
        thr(2) > thr(0),
        &format!("{:.2} vs {:.2} img/s", thr(2), thr(0)),
    );
    fmt::check(
        "joint throughput beats GPU-only",
        thr(2) > thr(1),
        &format!("{:.2} vs {:.2} img/s", thr(2), thr(1)),
    );
    fmt::check(
        "joint queue delay is the smallest",
        queue(2) < queue(0) && queue(2) < queue(1),
        &format!("{:.2} vs {:.2}/{:.2} s", queue(2), queue(0), queue(1)),
    );
    let power_spread = {
        let powers: Vec<f64> = rows.iter().map(|r| r.1.mean_power).collect();
        powers.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - powers.iter().fold(f64::INFINITY, |a, &b| a.min(b))
    };
    fmt::check(
        "all three configs draw comparable power",
        power_spread < 60.0,
        &format!("spread {power_spread:.1} W"),
    );
}
