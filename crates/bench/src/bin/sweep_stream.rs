//! **Streaming sweep snapshot** — exercises the sweep engine's
//! summary-reduction mode (DESIGN.md §15) at scale and verifies the
//! invariants that make it safe to replace full-trace collection:
//!
//! 1. the streamed summary is **bit-identical across thread counts**
//!    (1/2/4/8) and to the serial fold,
//! 2. it is **bit-identical to summarizing the full-trace report** (same
//!    fold, same order — streaming only changes what is retained),
//! 3. peak retained state stays within the bounded reorder window
//!    `2·threads + 16`, i.e. memory is `O(groups)`, not `O(cells)`.
//!
//! The full run streams a 100 seeds × 50 set points × 2 controllers =
//! **10 000-cell** grid; regenerate the committed golden with:
//! `cargo run --release -p capgpu-bench --bin sweep_stream > results/sweep_stream.txt`
//! — cell rates and peak-pending counts go to **stderr**, keeping the
//! golden deterministic. The bin exits nonzero if any check fails.

use capgpu::prelude::*;
use capgpu_bench::fmt;
use std::time::Instant;

fn grid(seeds: u64, setpoints: usize) -> SweepSpec {
    let points: Vec<f64> = (0..setpoints).map(|i| 880.0 + 4.0 * i as f64).collect();
    let mut spec = SweepSpec::new(Scenario::paper_testbed(1))
        .setpoints(&points)
        .periods(2)
        .controller(ControllerSpec::FixedStep { multiplier: 1 })
        .controller(ControllerSpec::FixedStep { multiplier: 2 });
    for seed in 0..seeds {
        spec = spec.seed(seed);
    }
    spec
}

fn main() {
    let (seeds, setpoints) = (100, 50);
    let spec = grid(seeds, setpoints);
    let cells = spec.num_cells();
    let mut all_ok = true;

    fmt::header(&format!(
        "Streaming sweep: {cells} cells ({seeds} seeds x {setpoints} set points x 2 controllers, summary reduction)"
    ));

    // ---- reference fold (serial, window-free) -------------------------
    let t0 = Instant::now();
    let serial = spec.streaming_serial().expect("serial streaming sweep");
    eprintln!(
        "serial fold: {:.0} cells/sec",
        cells as f64 / t0.elapsed().as_secs_f64()
    );
    println!("group summaries (mean over {} cells each):", cells / 2);
    println!(
        "  {:<16} {:>12} {:>14} {:>10}",
        "controller", "mean P (W)", "tracking (W)", "miss rate"
    );
    for group in &serial.groups {
        println!(
            "  {:<16} {:>12.3} {:>14.3} {:>10.4}",
            group.controller_label,
            group.mean_power(),
            group.mean_tracking_error(),
            group.mean_miss_rate()
        );
    }

    // ---- check 1: bit-identical across thread counts ------------------
    let mut threads_ok = true;
    let mut window_ok = true;
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let streamed = spec
            .streaming_with_threads(threads)
            .expect("streaming sweep");
        let dt = t0.elapsed().as_secs_f64();
        eprintln!(
            "{threads} thread(s): {:.0} cells/sec, peak pending {}",
            cells as f64 / dt,
            streamed.peak_pending
        );
        threads_ok &= streamed == serial;
        window_ok &= streamed.peak_pending <= 2 * threads + 16;
    }
    fmt::check(
        "streamed summary bit-identical across 1/2/4/8 threads",
        threads_ok,
        &format!("{cells} cells, {} groups", serial.groups.len()),
    );
    all_ok &= threads_ok;

    // ---- check 2: streaming == summarizing the full-trace report ------
    // Same fold, same order; streaming only changes what is retained.
    // A 1000-cell sub-grid keeps the full-trace report small enough to
    // hold in memory for the comparison.
    let sub = grid(25, 20);
    let full = sub
        .summarize_report(&sub.run_serial().expect("full-trace sweep"))
        .expect("summarize full report");
    let streamed_sub = sub.streaming().expect("streaming sweep");
    let full_ok = full == streamed_sub;
    fmt::check(
        "streamed summary bit-identical to full-trace summary",
        full_ok,
        &format!("{} cells cross-checked", sub.num_cells()),
    );
    all_ok &= full_ok;

    // ---- check 3: peak retained state bounded by the reorder window ---
    fmt::check(
        "peak pending summaries within reorder window (memory O(groups), not O(cells))",
        window_ok,
        "window = 2*threads + 16",
    );
    all_ok &= window_ok;

    if !all_ok {
        std::process::exit(1);
    }
}
