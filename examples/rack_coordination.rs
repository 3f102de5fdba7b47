//! Rack-level power coordination (extension beyond the paper, after the
//! SHIP/Dynamo lineage in its related work): two CapGPU servers share one
//! rack budget; `capgpu-fleet`'s max–min water-filling allocator — here on
//! its smallest tree, one rack of two servers — re-divides the budget
//! every few control periods based on observed demand.
//!
//! Run with: `cargo run --release --example rack_coordination`

use capgpu::config::Scenario;
use capgpu_fleet::prelude::*;
use capgpu_workload::models;

fn main() {
    // Server A: heavy inference load on all three V100s.
    let heavy = Scenario::paper_testbed(51);
    // Server B: very light tasks — its GPUs are mostly idle.
    let mut light = Scenario::paper_testbed(52);
    for m in &mut light.gpu_models {
        *m = models::resnet50();
        m.e_min_s = 0.005;
    }
    let classes = [("heavy", heavy), ("light", light)].map(|(label, scenario)| ServerClass {
        label: label.into(),
        scenario,
        nominal_streams: 1,
    });
    let rack = FleetTopology::new(Node::Group {
        label: "rack".into(),
        children: (0..classes.len())
            .map(|class| Node::Server(ServerSpec { class, streams: 1 }))
            .collect(),
    })
    .expect("rack");

    let budget = 1900.0;
    let config = FleetConfig {
        epochs: 6,
        epoch_periods: 8,
        min_share_watts: 700.0,
        migration: false,
        ..FleetConfig::new(budget)
    };
    let mut sim = FleetSim::new(rack, &classes, config).expect("fleet");

    println!("rack budget: {budget:.0} W across {} servers\n", sim.len());
    let report = sim.run(1).expect("run");

    println!(
        "{:>5} {:>14} {:>14} {:>16}",
        "epoch", "rack assigned", "rack measured", "servers at cap"
    );
    for (e, epoch) in report.epochs.iter().enumerate() {
        let rack = &epoch.racks[0];
        println!(
            "{e:>5} {:>14.1} {:>14.1} {:>16}",
            rack.assigned, rack.measured, rack.binding_servers
        );
        assert!(
            epoch.assigned_watts() <= budget + 1e-6,
            "rack over-assigned"
        );
    }
    let (a, b) = (&report.stats[0], &report.stats[1]);
    println!(
        "\nfinal split: A (heavy) {:.1} W assigned / {:.1} W measured, \
         B (light) {:.1} W assigned / {:.1} W measured",
        a.assigned, a.measured, b.assigned, b.measured
    );
    assert!(a.assigned > b.assigned);
    println!(
        "\nThe coordinator moved {:.0} W from the idle server to the busy one\nwhile never assigning more than the rack budget ✓",
        a.assigned - budget / 2.0
    );
}
