//! **Fleet-scale hierarchical capping** — drives `capgpu-fleet`
//! (DESIGN.md §16) at datacenter scale and verifies the claims that make
//! the fleet layer trustworthy:
//!
//! 1. hierarchical re-division + stream migration **hold every rack
//!    budget** (after the first floor-learning epoch) under an
//!    oversubscribed datacenter budget, with **fewer SLO misses than
//!    static equal-split**,
//! 2. the sharded simulation is **bit-identical across 1/2/4/8 worker
//!    threads** and across a full rebuild/rerun,
//! 3. resident state is **O(servers)**: peak in-flight traces ≤ threads
//!    and peak pending summaries ≤ the reorder window — asserted from
//!    the report's instrumentation, not claimed.
//!
//! The full run simulates a 16-rack × 64-server = **1024-server**
//! mixed-generation fleet (V100/A100/H100 classes) for 12 allocator
//! epochs × 8 control periods; regenerate the committed golden with:
//! `cargo run --release -p capgpu-bench --bin fleet > results/fleet.txt`
//! — timings (server-periods/sec) go to **stderr**, keeping the golden
//! deterministic. The bin exits nonzero if any check fails.

use capgpu_bench::fmt;
use capgpu_fleet::prelude::*;
use std::time::Instant;

struct Geometry {
    racks: usize,
    per_rack: usize,
    epochs: usize,
    epoch_periods: usize,
    budget_per_server: f64,
    thread_counts: &'static [usize],
    seed: u64,
}

const FLEET: Geometry = Geometry {
    racks: 16,
    per_rack: 64,
    epochs: 12,
    epoch_periods: 8,
    budget_per_server: 1700.0,
    thread_counts: &[1, 2, 4, 8],
    seed: 41,
};

/// Reference thread count for the golden run (results are identical for
/// every thread count — that is check 2).
const REF_THREADS: usize = 2;

fn topology(g: &Geometry) -> FleetTopology {
    // Mixed generations cycle across slots; load is deliberately uneven
    // across racks (rack r hosts `r % 5` hot servers carrying 1.25× the
    // nominal stream count) so the hierarchical allocator has real
    // inter-rack asymmetry to exploit.
    FleetTopology::datacenter(g.racks, g.per_rack, |rack, slot| ServerSpec {
        class: slot % 3,
        streams: if slot < rack % 5 { 5 } else { 4 },
    })
    .expect("fleet topology is valid")
}

fn config(g: &Geometry, allocator: AllocatorMode, migrate: bool) -> FleetConfig {
    FleetConfig {
        epochs: g.epochs,
        epoch_periods: g.epoch_periods,
        allocator,
        migration: migrate,
        ..FleetConfig::new(g.budget_per_server * (g.racks * g.per_rack) as f64)
    }
}

fn build(g: &Geometry, allocator: AllocatorMode, migrate: bool) -> FleetSim {
    FleetSim::new(
        topology(g),
        &mixed_generation_classes(g.seed),
        config(g, allocator, migrate),
    )
    .expect("fleet construction")
}

fn run(g: &Geometry, allocator: AllocatorMode, migrate: bool, threads: usize) -> FleetReport {
    let mut sim = build(g, allocator, migrate);
    let t0 = Instant::now();
    let report = sim.run(threads).expect("fleet run");
    let dt = t0.elapsed().as_secs_f64();
    eprintln!(
        "{:?} migrate={migrate} threads={threads}: {:.0} server-periods/sec",
        allocator,
        report.server_periods as f64 / dt
    );
    report
}

/// Post-warmup rack overshoot: max of measured − assigned over every
/// rack in every epoch after the first (the first epoch is where the
/// allocator learns SLO-floor-limited servers' effective minimums).
fn post_warmup_overshoot(report: &FleetReport) -> f64 {
    report
        .epochs
        .iter()
        .skip(1)
        .flat_map(|e| e.racks.iter())
        .map(|r| r.measured - r.assigned)
        .fold(f64::NEG_INFINITY, f64::max)
}

fn post_warmup_misses(report: &FleetReport) -> u64 {
    report.epochs.iter().skip(1).map(EpochReport::misses).sum()
}

fn main() {
    let g = &FLEET;
    let servers = g.racks * g.per_rack;
    let budget = g.budget_per_server * servers as f64;
    let mut all_ok = true;

    fmt::header(&format!(
        "Fleet: {} servers ({} racks x {}), {:.0} kW budget, {} epochs x {} periods, V100/A100/H100 mix",
        servers,
        g.racks,
        g.per_rack,
        budget / 1000.0,
        g.epochs,
        g.epoch_periods
    ));

    // ---- reference run: hierarchical + migration ----------------------
    let reference = run(g, AllocatorMode::Hierarchical, true, REF_THREADS);
    println!("hierarchical + migration (per epoch):");
    println!(
        "  {:>5} {:>14} {:>14} {:>9} {:>11} {:>10}",
        "epoch", "assigned (W)", "measured (W)", "misses", "completed", "migrations"
    );
    for (e, epoch) in reference.epochs.iter().enumerate() {
        println!(
            "  {:>5} {:>14.1} {:>14.1} {:>9} {:>11} {:>10}",
            e,
            epoch.assigned_watts(),
            epoch.measured_watts(),
            epoch.misses(),
            epoch.completed(),
            epoch.migrations.len()
        );
    }
    let last = reference.epochs.last().expect("epochs non-empty");
    println!("final epoch, per rack:");
    println!(
        "  {:>5} {:>13} {:>13} {:>8} {:>8} {:>12}",
        "rack", "assigned (W)", "measured (W)", "misses", "binding", "worst p99 (s)"
    );
    for (r, rack) in last.racks.iter().enumerate() {
        println!(
            "  {:>5} {:>13.1} {:>13.1} {:>8} {:>8} {:>12.4}",
            r, rack.assigned, rack.measured, rack.misses, rack.binding_servers, rack.worst_p99_s
        );
    }

    // ---- check 1: every rack budget holds ------------------------------
    let assigned_ok = reference
        .epochs
        .iter()
        .all(|e| e.assigned_watts() <= budget + 1e-6);
    fmt::check(
        "assigned set points never exceed the datacenter budget",
        assigned_ok,
        &format!("budget {budget:.0} W at every epoch"),
    );
    all_ok &= assigned_ok;

    let overshoot = post_warmup_overshoot(&reference);
    // Tolerance: per-server steady-state regulation ripple, summed over
    // a rack.
    let overshoot_tol = 2.0 * g.per_rack as f64;
    let held = overshoot <= overshoot_tol;
    fmt::check(
        "every rack budget held after the floor-learning epoch",
        held,
        &format!("worst rack overshoot {overshoot:.1} W (tolerance {overshoot_tol:.0} W)"),
    );
    all_ok &= held;

    // ---- check 2: fewer misses than static equal-split -----------------
    let equal = run(g, AllocatorMode::EqualSplit, false, REF_THREADS);
    let h_miss = post_warmup_misses(&reference);
    let e_miss = post_warmup_misses(&equal);
    let fewer = h_miss < e_miss;
    fmt::check(
        "hierarchical + migration misses fewer SLOs than static equal-split",
        fewer,
        &format!(
            "{h_miss} vs {e_miss} post-warmup misses ({:.1}% vs {:.1}% of batches)",
            100.0 * reference.miss_rate(),
            100.0 * equal.miss_rate()
        ),
    );
    all_ok &= fewer;

    // ---- check 3: deterministic rerun ----------------------------------
    let rerun = run(g, AllocatorMode::Hierarchical, true, REF_THREADS);
    let rerun_ok = rerun == reference;
    fmt::check(
        "full rebuild + rerun is bit-identical",
        rerun_ok,
        &format!("{} server-periods", reference.server_periods),
    );
    all_ok &= rerun_ok;

    // ---- check 4: bit-identical across thread counts -------------------
    let mut threads_ok = true;
    let mut memory_ok = true;
    for &threads in g.thread_counts {
        let report = run(g, AllocatorMode::Hierarchical, true, threads);
        threads_ok &= report == reference;
        // Memory bound, asserted from instrumentation: in-flight traces
        // never exceed the worker count, pending summaries never exceed
        // the reorder window, and retained state is per-server scalars
        // plus per-rack rows only.
        memory_ok &= report.peak_live_traces <= threads;
        memory_ok &= report.peak_pending <= report.reorder_window;
        memory_ok &= report.stats.len() == servers;
        memory_ok &= report.epochs.iter().all(|e| e.racks.len() == g.racks);
    }
    fmt::check(
        &format!(
            "fleet report bit-identical across {:?} threads",
            g.thread_counts
        ),
        threads_ok,
        &format!("{} servers, {} epochs", servers, g.epochs),
    );
    all_ok &= threads_ok;
    // The measured peaks are scheduling instrumentation (they vary run
    // to run with thread timing), so they go to stderr with the other
    // nondeterministic numbers; the golden records only the verdict.
    eprintln!(
        "peak pending {} (window {}), peak live traces {}",
        reference.peak_pending, reference.reorder_window, reference.peak_live_traces
    );
    fmt::check(
        "resident state O(servers): traces <= threads, pending <= reorder window",
        memory_ok,
        &format!(
            "bounds asserted at every thread count in {:?}",
            g.thread_counts
        ),
    );
    all_ok &= memory_ok;

    println!(
        "totals: {} migrations, miss rate {:.4} (equal-split {:.4})",
        reference.total_migrations(),
        reference.miss_rate(),
        equal.miss_rate()
    );

    if !all_ok {
        std::process::exit(1);
    }
}
