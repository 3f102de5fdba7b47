//! Property tests for the hierarchical budget allocator (ISSUE
//! invariants): Σ child budgets ≤ parent budget at every tree level,
//! allocation monotone in the total budget, and a depth-1 tree dividing
//! exactly as one flat water-fill over its servers.

use capgpu_fleet::prelude::*;
use capgpu_fleet::topology::water_fill_floors;
use proptest::prelude::*;

/// Builds a depth-3 datacenter (dc → row → rack → servers) from nested
/// rack sizes.
fn tree_from(rows: &[Vec<usize>]) -> FleetTopology {
    let children = rows
        .iter()
        .enumerate()
        .map(|(ri, racks)| Node::Group {
            label: format!("row-{ri}"),
            children: racks
                .iter()
                .enumerate()
                .map(|(ki, &n)| Node::Group {
                    label: format!("row-{ri}-rack-{ki}"),
                    children: (0..n)
                        .map(|_| {
                            Node::Server(ServerSpec {
                                class: 0,
                                streams: 1,
                            })
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    FleetTopology::new(Node::Group {
        label: "dc".into(),
        children,
    })
    .expect("generated tree is valid")
}

fn shape() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(1usize..5, 1..4), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn child_budgets_never_exceed_parent_at_any_level(
        rows in shape(),
        budget in 0.0..20_000.0f64,
        seed_demands in prop::collection::vec(0.0..2_000.0f64, 64),
        seed_floors in prop::collection::vec(0.0..400.0f64, 64),
    ) {
        let t = tree_from(&rows);
        let n = t.len();
        let demands: Vec<f64> = (0..n).map(|i| seed_demands[i % 64]).collect();
        let floors: Vec<f64> = (0..n).map(|i| seed_floors[i % 64]).collect();
        let d = t.divide(budget, &demands, &floors);
        prop_assert!(
            d.max_child_sum_violation() < 1e-6,
            "violation {}",
            d.max_child_sum_violation()
        );
        // Conservation at the root: the whole budget lands on servers.
        let total: f64 = d.server_allocs.iter().sum();
        prop_assert!(
            (total - budget.max(0.0)).abs() < 1e-6 * budget.max(1.0),
            "allocated {total} of {budget}"
        );
        prop_assert!(d.server_allocs.iter().all(|a| *a >= -1e-9));
    }

    #[test]
    fn allocation_is_monotone_in_total_budget(
        rows in shape(),
        lo_budget in 100.0..10_000.0f64,
        extra in 0.0..10_000.0f64,
        seed_demands in prop::collection::vec(0.0..2_000.0f64, 64),
        seed_floors in prop::collection::vec(0.0..400.0f64, 64),
    ) {
        let t = tree_from(&rows);
        let n = t.len();
        let demands: Vec<f64> = (0..n).map(|i| seed_demands[i % 64]).collect();
        let floors: Vec<f64> = (0..n).map(|i| seed_floors[i % 64]).collect();
        let small = t.divide(lo_budget, &demands, &floors);
        let large = t.divide(lo_budget + extra, &demands, &floors);
        for (i, (a, b)) in small
            .server_allocs
            .iter()
            .zip(large.server_allocs.iter())
            .enumerate()
        {
            prop_assert!(
                *b >= *a - 1e-7,
                "server {i}: alloc fell {a} -> {b} when budget rose"
            );
        }
    }

    #[test]
    fn depth_one_tree_is_one_flat_water_fill(
        demands in prop::collection::vec(0.0..2_000.0f64, 1..12),
        budget in 0.1..20_000.0f64,
        floor in 0.0..300.0f64,
    ) {
        let t = FleetTopology::new(Node::Group {
            label: "rack".into(),
            children: demands
                .iter()
                .map(|_| Node::Server(ServerSpec { class: 0, streams: 1 }))
                .collect(),
        })
        .expect("flat tree");
        let floors = vec![floor; demands.len()];
        let tree = t.divide(budget, &demands, &floors);
        let flat = water_fill_floors(&demands, &floors, budget);
        for (i, (a, b)) in tree.server_allocs.iter().zip(flat.iter()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-6,
                "server {i}: tree {a} vs flat {b}"
            );
        }
    }

    #[test]
    fn water_fill_floors_grants_floors_and_caps_at_demand(
        demands in prop::collection::vec(0.0..1_000.0f64, 1..10),
        floors in prop::collection::vec(0.0..200.0f64, 10),
        budget in 0.0..15_000.0f64,
    ) {
        let n = demands.len();
        let floors = &floors[..n];
        let alloc = water_fill_floors(&demands, floors, budget);
        let floor_sum: f64 = floors.iter().sum();
        if budget >= floor_sum {
            // Affordable floors are always granted in full.
            for i in 0..n {
                prop_assert!(alloc[i] >= floors[i] - 1e-9);
            }
        }
        // Nobody sits above max(floor, demand) while another member's
        // demand is unmet (max–min fairness).
        let any_unmet = (0..n).any(|i| alloc[i] + 1e-6 < demands[i].max(floors[i]));
        if any_unmet {
            for i in 0..n {
                prop_assert!(
                    alloc[i] <= demands[i].max(floors[i]) + 1e-6,
                    "server {i} overfed at {} (demand {}, floor {}) while others starve",
                    alloc[i], demands[i], floors[i]
                );
            }
        }
    }
}
