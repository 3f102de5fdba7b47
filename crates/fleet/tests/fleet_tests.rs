//! Integration tests for the fleet simulator: thread-count bit-identity,
//! budget safety, reorder-window bounds, and stream migration under an
//! oversubscribed budget.

use capgpu_fleet::prelude::*;

/// A 2-rack × 3-server mixed-generation fleet: every rack holds one
/// server of each generation, but rack 0 carries heavier offered load
/// (5 streams vs 3) so demand-driven division has real asymmetry to
/// exploit.
fn small_topology() -> FleetTopology {
    FleetTopology::datacenter(2, 3, |rack, slot| ServerSpec {
        class: slot % 3,
        streams: if rack == 0 { 5 } else { 3 },
    })
    .expect("valid topology")
}

fn small_config(budget: f64) -> FleetConfig {
    FleetConfig {
        epochs: 3,
        epoch_periods: 5,
        ..FleetConfig::new(budget)
    }
}

fn run_fleet(config: FleetConfig, seed: u64, threads: usize) -> FleetReport {
    let mut sim =
        FleetSim::new(small_topology(), &mixed_generation_classes(seed), config).expect("sim");
    sim.run(threads).expect("run")
}

#[test]
fn fleet_is_bit_identical_across_thread_counts() {
    let reference = run_fleet(small_config(7000.0), 17, 1);
    for threads in [2, 4] {
        let parallel = run_fleet(small_config(7000.0), 17, threads);
        assert_eq!(reference, parallel, "{threads} threads diverged");
        // The instrumentation (excluded from equality) stays bounded.
        assert!(parallel.peak_live_traces <= threads);
        assert!(parallel.peak_pending <= parallel.reorder_window);
    }
    // Different seeds genuinely move the result.
    let other = run_fleet(small_config(7000.0), 18, 1);
    assert_ne!(reference, other);
}

#[test]
fn assigned_budgets_respect_the_tree_everywhere() {
    let report = run_fleet(small_config(7000.0), 23, 2);
    assert_eq!(report.server_periods, 6 * 3 * 5);
    for (e, epoch) in report.epochs.iter().enumerate() {
        assert_eq!(epoch.racks.len(), 2);
        assert!(
            epoch.assigned_watts() <= 7000.0 + 1e-6,
            "epoch {e} assigned {}",
            epoch.assigned_watts()
        );
        for (r, rack) in epoch.racks.iter().enumerate() {
            assert!(rack.assigned > 0.0, "epoch {e} rack {r} unfunded");
            assert!(rack.completed > 0, "epoch {e} rack {r} served nothing");
        }
    }
    // After the first (floor-learning) epoch, every rack holds its
    // budget to within per-server regulation ripple.
    let held = report
        .epochs
        .iter()
        .skip(1)
        .flat_map(|e| e.racks.iter())
        .map(|r| r.measured - r.assigned)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(held < 3.0 * 2.0, "post-warmup rack overshoot {held} W");
}

#[test]
fn binding_budget_triggers_migration_off_the_hot_server() {
    // One overloaded server (8 streams, offered load beyond even its
    // uncapped capacity) in a rack with lightly loaded neighbors: the
    // balancer must shed streams toward the spare capacity.
    let topo = FleetTopology::datacenter(2, 3, |rack, slot| ServerSpec {
        class: 0,
        streams: if rack == 0 && slot == 0 { 8 } else { 2 },
    })
    .expect("valid topology");
    let mut sim =
        FleetSim::new(topo, &mixed_generation_classes(29), small_config(6500.0)).expect("sim");
    let report = sim.run(2).expect("run");
    assert!(
        report.total_migrations() >= 1,
        "expected migrations off the hot server"
    );
    // The hot server sheds; stream totals are conserved.
    assert!(report.stats[0].streams < 8, "hot server kept all streams");
    let final_total: u32 = report.stats.iter().map(|s| s.streams).sum();
    assert_eq!(final_total, 8 + 5 * 2, "streams must be conserved");
    // Every planned migration names a real donor/receiver pair.
    for epoch in &report.epochs {
        for m in &epoch.migrations {
            assert_ne!(m.from, m.to);
            assert!(m.from < report.stats.len() && m.to < report.stats.len());
        }
    }
}

/// The smallest tree — one rack of two servers, one heavy (3 V100 busy),
/// one light (its pipelines run a light model, so its GPUs mostly idle) —
/// under a shared budget below the sum of their maxima. The allocator
/// must (a) never assign more than the budget, (b) shift watts toward
/// the heavy server.
#[test]
fn single_rack_shifts_budget_toward_demand() {
    use capgpu::config::Scenario;

    let heavy = Scenario::paper_testbed(51);
    let mut light = Scenario::paper_testbed(52);
    // Tiny batch latency ⇒ low utilization ⇒ low power demand.
    for m in &mut light.gpu_models {
        *m = capgpu_workload::models::resnet50();
        m.e_min_s = 0.005;
    }
    let classes = [heavy, light].map(|scenario| ServerClass {
        label: "member".into(),
        scenario,
        nominal_streams: 1,
    });
    let rack = FleetTopology::new(Node::Group {
        label: "rack".into(),
        children: (0..2)
            .map(|class| Node::Server(ServerSpec { class, streams: 1 }))
            .collect(),
    })
    .expect("rack");
    let config = FleetConfig {
        epochs: 6,
        epoch_periods: 8,
        min_share_watts: 700.0,
        migration: false,
        ..FleetConfig::new(1900.0)
    };
    let report = FleetSim::new(rack, &classes, config)
        .expect("sim")
        .run(2)
        .expect("run");

    for (e, epoch) in report.epochs.iter().enumerate() {
        assert!(
            epoch.assigned_watts() <= 1900.0 + 1e-6,
            "epoch {e} over-assigned: {}",
            epoch.assigned_watts()
        );
    }
    let (heavy, light) = (&report.stats[0], &report.stats[1]);
    assert!(
        heavy.assigned > light.assigned + 50.0,
        "heavy server should hold the bigger share: {heavy:?} vs {light:?}"
    );
    assert!(
        (heavy.measured - heavy.assigned).abs() < 20.0,
        "heavy server off its cap: {heavy:?}"
    );
}

#[test]
fn equal_split_is_the_strictly_dumber_baseline() {
    // Rack 0 is heavily loaded (5 streams/server), rack 1 nearly idle
    // (1 stream/server); the budget covers the idle rack's needs with
    // room to spare. Demand-driven division should discover that and
    // shift the surplus to rack 0; equal split cannot.
    let topo = || {
        FleetTopology::datacenter(2, 3, |rack, slot| ServerSpec {
            class: slot % 3,
            streams: if rack == 0 { 5 } else { 1 },
        })
        .expect("valid topology")
    };
    let run = |cfg: FleetConfig| {
        let mut sim = FleetSim::new(topo(), &mixed_generation_classes(31), cfg).expect("sim");
        sim.run(2).expect("run")
    };
    let hier = run(small_config(8600.0));
    let mut cfg = small_config(8600.0);
    cfg.allocator = AllocatorMode::EqualSplit;
    cfg.migration = false;
    let equal = run(cfg);
    // Equal split ignores demand: identical shares per rack regardless
    // of load asymmetry.
    let e0 = &equal.epochs[0].racks;
    assert!((e0[0].assigned - e0[1].assigned).abs() < 1e-9);
    // The hierarchical allocator moves budget toward the loaded rack
    // once the idle rack's demand estimates release slack (the shares
    // can re-tighten in later epochs as probing demands re-saturate the
    // budget — asymmetry in *any* post-initial epoch is the signal).
    assert!(
        hier.epochs
            .iter()
            .skip(1)
            .any(|e| e.racks[0].assigned > e.racks[1].assigned + 1.0),
        "budget never followed load: {:?}",
        hier.epochs
            .iter()
            .map(|e| (e.racks[0].assigned, e.racks[1].assigned))
            .collect::<Vec<_>>()
    );
}

#[test]
fn construction_rejects_bad_configs() {
    let classes = mixed_generation_classes(3);
    // Budget below summed floors.
    assert!(FleetSim::new(small_topology(), &classes, small_config(500.0)).is_err());
    // Unknown class index.
    let topo = FleetTopology::datacenter(1, 2, |_, _| ServerSpec {
        class: 9,
        streams: 4,
    })
    .expect("topology");
    assert!(FleetSim::new(topo, &classes, small_config(7000.0)).is_err());
    // Migration without serving.
    let bare = vec![ServerClass {
        label: "bare".into(),
        scenario: capgpu::config::Scenario::paper_testbed(1),
        nominal_streams: 4,
    }];
    let topo = FleetTopology::datacenter(1, 2, |_, _| ServerSpec {
        class: 0,
        streams: 4,
    })
    .expect("topology");
    assert!(FleetSim::new(topo, &bare, small_config(7000.0)).is_err());
    // Zero epochs, zero periods per epoch.
    let mut cfg = small_config(7000.0);
    cfg.epochs = 0;
    assert!(FleetSim::new(small_topology(), &classes, cfg).is_err());
    let mut cfg = small_config(7000.0);
    cfg.epoch_periods = 0;
    assert!(FleetSim::new(small_topology(), &classes, cfg).is_err());
}

#[test]
fn one_period_epochs_complete() {
    // The repo benchmark's 8 × 6 mixed-generation fleet with epochs of a
    // single control period: the steady-state tail of one period is that
    // period's transient, which can overshoot a server's identified
    // maximum. The floor learned from such an overshoot used to land
    // above `max_watts` and panic the next demand clamp.
    let topology = FleetTopology::datacenter(8, 6, |rack, slot| ServerSpec {
        class: slot % 3,
        streams: if slot < rack % 5 { 5 } else { 4 },
    })
    .expect("valid topology");
    let config = FleetConfig {
        epochs: 12,
        epoch_periods: 1,
        ..FleetConfig::new(1700.0 * 48.0)
    };
    let mut sim = FleetSim::new(topology, &mixed_generation_classes(42), config).expect("sim");
    let report = sim.run(2).expect("run");
    assert_eq!(report.server_periods, 48 * 12);
    for (i, s) in report.stats.iter().enumerate() {
        assert!(
            s.min_watts <= s.demand && s.demand <= s.max_watts,
            "server {i}: demand {} outside [{}, {}]",
            s.demand,
            s.min_watts,
            s.max_watts
        );
    }
}
