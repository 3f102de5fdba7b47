//! Fleet simulation throughput.
//!
//! Measures `FleetSim::run` (DESIGN.md §16) on a small mixed-generation
//! fleet: one iteration = a full multi-epoch fleet run (hierarchical
//! re-division, sharded server stepping, reorder-window folding,
//! migration planning). Server-periods/second is the fleet size × epochs
//! × periods divided by the reported time; `perf_snapshot` gates the
//! same quantity in CI.

use capgpu_fleet::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn fleet() -> FleetSim {
    let topo = FleetTopology::datacenter(4, 6, |rack, slot| ServerSpec {
        class: slot % 3,
        streams: if slot < rack % 5 { 5 } else { 4 },
    })
    .expect("topology");
    let cfg = FleetConfig {
        epochs: 4,
        epoch_periods: 6,
        ..FleetConfig::new(1700.0 * 24.0)
    };
    FleetSim::new(topo, &mixed_generation_classes(41), cfg).expect("fleet")
}

fn bench_fleet_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_sim");

    group.bench_function("serial_24_servers", |b| {
        b.iter(|| {
            let mut sim = fleet();
            black_box(sim.run(1).unwrap())
        })
    });
    group.bench_function("parallel_24_servers", |b| {
        b.iter(|| {
            let mut sim = fleet();
            black_box(sim.run(4).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_sim);
criterion_main!(benches);
