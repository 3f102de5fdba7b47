//! Fleet topology: an arbitrary-depth budget tree over CapGPU servers.
//!
//! A single rack divides one budget across a flat list of servers by
//! max–min water-filling ([`water_fill_floors`]). A datacenter divides
//! hierarchically — datacenter → row → rack → server — and every interior
//! node has its own breaker/PDU rating that the sum of its children's set
//! points must respect. This module applies the water-fill to a tree: at
//! each node the parent budget is water-filled over the children's
//! aggregate demands (with per-child floors equal to the sum of their
//! subtree floors), then each child's share recurses downward.
//! Conservation at every level means Σ child shares ≤ parent share by
//! construction, so no breaker in the tree is ever oversubscribed by the
//! *set points* — the "safe capping" invariant of a flat rack, at every
//! depth.

use capgpu::{CapGpuError, Result};

/// One leaf server in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Index into the fleet's server-class table.
    pub class: usize,
    /// Initial number of request streams hosted by this server. The
    /// balancer migrates streams between servers; offered load scales as
    /// `streams / nominal_streams` of the class.
    pub streams: u32,
}

/// A node in the budget tree: either an interior budget group (datacenter,
/// row, rack, …) or a leaf server.
#[derive(Debug, Clone)]
pub enum Node {
    /// Interior node dividing its share among `children`.
    Group {
        /// Display label ("rack-3", "row-a", …).
        label: String,
        /// Child nodes, in expansion order.
        children: Vec<Node>,
    },
    /// Leaf server.
    Server(ServerSpec),
}

impl Node {
    /// Number of leaf servers under this node.
    fn leaf_count(&self) -> usize {
        match self {
            Node::Server(_) => 1,
            Node::Group { children, .. } => children.iter().map(Node::leaf_count).sum(),
        }
    }
}

/// A validated budget tree with its leaves flattened in depth-first
/// order. The leaf order is the fleet's canonical server index order:
/// allocations, statistics and shard folding all use it.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    root: Node,
    servers: Vec<ServerSpec>,
    rack_of: Vec<usize>,
    num_racks: usize,
}

/// The result of one budget division: per-server allocations plus every
/// tree node's share in depth-first preorder (for auditing the
/// Σ children ≤ parent invariant level by level).
#[derive(Debug, Clone, PartialEq)]
pub struct Division {
    /// Per-server allocation (W), in server index order.
    pub server_allocs: Vec<f64>,
    /// `(depth, share)` for every node in depth-first preorder; the root
    /// is `(0, budget)`.
    pub node_shares: Vec<(usize, f64)>,
}

/// Max–min water-filling with **per-member floors** — per member because
/// at interior tree nodes each child's floor is the sum of its subtree's
/// per-server floors (and therefore differs per child).
///
/// Floors are granted first (scaled proportionally if the budget cannot
/// cover them), the remainder iteratively satisfies the smallest unmet
/// demand, and any surplus is spread evenly. Σ alloc == budget whenever
/// `budget ≥ 0` (conservation).
pub fn water_fill_floors(demands: &[f64], floors: &[f64], budget: f64) -> Vec<f64> {
    let n = demands.len();
    assert_eq!(n, floors.len(), "demands/floors length mismatch");
    if n == 0 {
        return vec![];
    }
    if budget <= 0.0 {
        return vec![0.0; n];
    }
    let floors: Vec<f64> = floors.iter().map(|f| f.max(0.0)).collect();
    let floor_sum: f64 = floors.iter().sum();
    let mut alloc: Vec<f64> = if floor_sum > budget {
        // Budget cannot cover the floors: scale them proportionally.
        floors.iter().map(|f| budget * f / floor_sum).collect()
    } else {
        floors
    };
    let mut remaining = budget - alloc.iter().sum::<f64>();
    // Iteratively satisfy the smallest unmet demand (classic water-fill).
    let mut unmet: Vec<usize> = (0..n).filter(|&i| demands[i] > alloc[i]).collect();
    while remaining > 1e-9 && !unmet.is_empty() {
        let share = remaining / unmet.len() as f64;
        let mut consumed = 0.0;
        let mut still_unmet = Vec::with_capacity(unmet.len());
        for &i in &unmet {
            let want = demands[i] - alloc[i];
            let take = want.min(share);
            alloc[i] += take;
            consumed += take;
            if demands[i] > alloc[i] + 1e-12 {
                still_unmet.push(i);
            }
        }
        remaining -= consumed;
        if consumed <= 1e-12 {
            break;
        }
        unmet = still_unmet;
    }
    // Spread any surplus evenly.
    if remaining > 1e-9 {
        let share = remaining / n as f64;
        for a in alloc.iter_mut() {
            *a += share;
        }
    }
    alloc
}

impl FleetTopology {
    /// Validates and flattens a budget tree.
    ///
    /// A server's **rack** is its immediate parent group; racks are
    /// numbered in depth-first order of first appearance. Groups must be
    /// non-empty and labelled; the tree must contain at least one server.
    ///
    /// # Errors
    /// Rejects empty groups, empty labels, zero-server trees, and a bare
    /// server root (every server needs a parent rack).
    pub fn new(root: Node) -> Result<Self> {
        let mut topo = FleetTopology {
            root: Node::Group {
                label: String::new(),
                children: vec![],
            },
            servers: Vec::new(),
            rack_of: Vec::new(),
            num_racks: 0,
        };
        match &root {
            Node::Server(_) => {
                return Err(CapGpuError::BadConfig(
                    "fleet root must be a group, not a bare server".into(),
                ));
            }
            Node::Group { .. } => topo.flatten(&root, None)?,
        }
        if topo.servers.is_empty() {
            return Err(CapGpuError::BadConfig("fleet needs >= 1 server".into()));
        }
        topo.root = root;
        Ok(topo)
    }

    fn flatten(&mut self, node: &Node, parent_rack: Option<usize>) -> Result<()> {
        match node {
            Node::Server(spec) => {
                let rack = parent_rack
                    .ok_or_else(|| CapGpuError::BadConfig("server outside any group".into()))?;
                self.servers.push(spec.clone());
                self.rack_of.push(rack);
            }
            Node::Group { label, children } => {
                if label.is_empty() {
                    return Err(CapGpuError::BadConfig(
                        "group label must be non-empty".into(),
                    ));
                }
                if children.is_empty() {
                    return Err(CapGpuError::BadConfig(format!(
                        "group '{label}' has no children"
                    )));
                }
                // This group is a rack iff it directly parents servers.
                let mut rack_id = None;
                if children.iter().any(|c| matches!(c, Node::Server(_))) {
                    rack_id = Some(self.num_racks);
                    self.num_racks += 1;
                }
                for child in children {
                    self.flatten(child, rack_id)?;
                }
            }
        }
        Ok(())
    }

    /// Convenience builder: a two-level datacenter of `racks` racks with
    /// `per_rack` servers each, the server at `(rack, slot)` produced by
    /// `make`.
    ///
    /// # Errors
    /// Propagates [`FleetTopology::new`] validation.
    pub fn datacenter(
        racks: usize,
        per_rack: usize,
        mut make: impl FnMut(usize, usize) -> ServerSpec,
    ) -> Result<Self> {
        let children = (0..racks)
            .map(|r| Node::Group {
                label: format!("rack-{r}"),
                children: (0..per_rack).map(|s| Node::Server(make(r, s))).collect(),
            })
            .collect();
        FleetTopology::new(Node::Group {
            label: "dc".into(),
            children,
        })
    }

    /// Leaf servers in canonical (depth-first) index order.
    pub fn servers(&self) -> &[ServerSpec] {
        &self.servers
    }

    /// Number of leaf servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the tree has no servers (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Rack index of each server, in server index order.
    pub fn rack_of(&self) -> &[usize] {
        &self.rack_of
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.num_racks
    }

    /// Hierarchically water-fills `budget` down the tree against
    /// per-server `demands` and `floors` (both in server index order):
    /// at each node the children's aggregate subtree demands/floors
    /// compete for the node's share, and each child's award recurses.
    ///
    /// On a depth-1 tree (one group of servers) this reduces to the flat
    /// rack division.
    ///
    /// # Panics
    /// If `demands`/`floors` length differs from the server count.
    pub fn divide(&self, budget: f64, demands: &[f64], floors: &[f64]) -> Division {
        assert_eq!(demands.len(), self.len(), "demands length");
        assert_eq!(floors.len(), self.len(), "floors length");
        let mut division = Division {
            server_allocs: vec![0.0; self.len()],
            node_shares: Vec::new(),
        };
        Self::divide_node(&self.root, budget, demands, floors, 0, 0, &mut division);
        division
    }

    /// Divides by equal split at every level — the static baseline the
    /// fleet experiment compares against: each group splits its share
    /// evenly among children regardless of demand.
    pub fn divide_equal(&self, budget: f64) -> Division {
        let mut division = Division {
            server_allocs: vec![0.0; self.len()],
            node_shares: Vec::new(),
        };
        Self::equal_node(&self.root, budget, 0, 0, &mut division);
        division
    }

    fn equal_node(node: &Node, budget: f64, leaf_offset: usize, depth: usize, out: &mut Division) {
        out.node_shares.push((depth, budget));
        match node {
            Node::Server(_) => out.server_allocs[leaf_offset] = budget,
            Node::Group { children, .. } => {
                let share = budget / children.len() as f64;
                let mut off = leaf_offset;
                for child in children {
                    Self::equal_node(child, share, off, depth + 1, out);
                    off += child.leaf_count();
                }
            }
        }
    }

    fn divide_node(
        node: &Node,
        budget: f64,
        demands: &[f64],
        floors: &[f64],
        leaf_offset: usize,
        depth: usize,
        out: &mut Division,
    ) {
        out.node_shares.push((depth, budget));
        match node {
            Node::Server(_) => out.server_allocs[leaf_offset] = budget,
            Node::Group { children, .. } => {
                let counts: Vec<usize> = children.iter().map(Node::leaf_count).collect();
                let mut child_demand = Vec::with_capacity(children.len());
                let mut child_floor = Vec::with_capacity(children.len());
                let mut off = 0;
                for &c in &counts {
                    child_demand.push(demands[off..off + c].iter().sum::<f64>());
                    child_floor.push(floors[off..off + c].iter().sum::<f64>());
                    off += c;
                }
                let shares = water_fill_floors(&child_demand, &child_floor, budget);
                let mut off = 0;
                for (ci, child) in children.iter().enumerate() {
                    Self::divide_node(
                        child,
                        shares[ci],
                        &demands[off..off + counts[ci]],
                        &floors[off..off + counts[ci]],
                        leaf_offset + off,
                        depth + 1,
                        out,
                    );
                    off += counts[ci];
                }
            }
        }
    }
}

impl Division {
    /// Largest violation of Σ children > parent across all interior
    /// nodes (W); ≤ ~1e-9 by construction. Walks the preorder/depth
    /// encoding: a node's children are the maximal following run of
    /// nodes one level deeper.
    pub fn max_child_sum_violation(&self) -> f64 {
        let mut worst = 0.0_f64;
        for (i, &(depth, share)) in self.node_shares.iter().enumerate() {
            let mut child_sum = 0.0;
            let mut any = false;
            for &(d, s) in &self.node_shares[i + 1..] {
                if d <= depth {
                    break;
                }
                if d == depth + 1 {
                    child_sum += s;
                    any = true;
                }
            }
            if any {
                worst = worst.max(child_sum - share);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(class: usize, streams: u32) -> ServerSpec {
        ServerSpec { class, streams }
    }

    fn two_rack_tree() -> FleetTopology {
        FleetTopology::new(Node::Group {
            label: "dc".into(),
            children: vec![
                Node::Group {
                    label: "rack-a".into(),
                    children: vec![Node::Server(spec(0, 4)), Node::Server(spec(0, 4))],
                },
                Node::Group {
                    label: "rack-b".into(),
                    children: vec![Node::Server(spec(1, 4))],
                },
            ],
        })
        .expect("valid tree")
    }

    #[test]
    fn flattening_orders_servers_and_racks_depth_first() {
        let t = two_rack_tree();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rack_of(), &[0, 0, 1]);
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.servers()[2].class, 1);
    }

    #[test]
    fn validation_rejects_degenerate_trees() {
        assert!(FleetTopology::new(Node::Server(spec(0, 1))).is_err());
        assert!(FleetTopology::new(Node::Group {
            label: "dc".into(),
            children: vec![],
        })
        .is_err());
        assert!(FleetTopology::new(Node::Group {
            label: String::new(),
            children: vec![Node::Server(spec(0, 1))],
        })
        .is_err());
    }

    #[test]
    fn hierarchical_division_conserves_at_every_level() {
        let t = two_rack_tree();
        let d = t.divide(2000.0, &[900.0, 400.0, 1200.0], &[100.0, 100.0, 100.0]);
        assert!((d.server_allocs.iter().sum::<f64>() - 2000.0).abs() < 1e-9);
        assert!(d.max_child_sum_violation() < 1e-9);
        // Root share recorded first, at depth 0.
        assert_eq!(d.node_shares[0], (0, 2000.0));
    }

    #[test]
    fn hierarchy_shields_small_rack_from_large_neighbor() {
        // rack-a aggregates 1300 W of demand, rack-b 1200 W; at the top
        // level the 2000 W budget water-fills *between racks* first, so
        // rack-b's single hungry server cannot starve rack-a's pair the
        // way it could in a flat division.
        let t = two_rack_tree();
        let d = t.divide(2000.0, &[900.0, 400.0, 1200.0], &[0.0; 3]);
        let rack_a = d.server_allocs[0] + d.server_allocs[1];
        assert!((rack_a - 1000.0).abs() < 1e-6, "rack-a got {rack_a}");
        // Within rack-a the small server is fully satisfied.
        assert!((d.server_allocs[1] - 400.0).abs() < 1e-6);
    }

    #[test]
    fn equal_split_ignores_demand() {
        let t = two_rack_tree();
        let d = t.divide_equal(2000.0);
        assert_eq!(d.server_allocs, vec![500.0, 500.0, 1000.0]);
        assert!(d.max_child_sum_violation() < 1e-9);
    }

    #[test]
    fn water_fill_floors_conserves_budget() {
        let alloc = water_fill_floors(&[500.0, 800.0, 1200.0], &[100.0; 3], 2000.0);
        assert!((alloc.iter().sum::<f64>() - 2000.0).abs() < 1e-9);
        // Nobody exceeds demand while others are unmet.
        assert!(alloc[0] <= 500.0 + 1e-9 || alloc.iter().all(|&a| a >= 500.0));
    }

    #[test]
    fn water_fill_floors_satisfies_small_demands_first() {
        let alloc = water_fill_floors(&[300.0, 900.0], &[0.0; 2], 1000.0);
        assert!((alloc[0] - 300.0).abs() < 1e-9);
        assert!((alloc[1] - 700.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_floors_grants_the_floor_to_a_member_with_no_demand() {
        let alloc = water_fill_floors(&[0.0, 1000.0], &[200.0; 2], 900.0);
        assert!(alloc[0] >= 200.0 - 1e-9);
        assert!((alloc.iter().sum::<f64>() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_floors_scales_unaffordable_floors() {
        let alloc = water_fill_floors(&[0.0, 0.0], &[300.0, 100.0], 200.0);
        assert!((alloc[0] - 150.0).abs() < 1e-9);
        assert!((alloc[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_floors_edge_cases() {
        assert!(water_fill_floors(&[], &[], 100.0).is_empty());
        assert_eq!(water_fill_floors(&[500.0], &[0.0], -5.0), vec![0.0]);
        // Surplus beyond every demand is spread evenly — all of it to a
        // lone member.
        let alloc = water_fill_floors(&[100.0, 100.0], &[0.0, 0.0], 1000.0);
        assert!((alloc[0] - 500.0).abs() < 1e-9);
        assert!((alloc[1] - 500.0).abs() < 1e-9);
        let single = water_fill_floors(&[50.0], &[0.0], 100.0);
        assert!((single[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn datacenter_builder_shapes_the_grid() {
        let t = FleetTopology::datacenter(4, 8, |r, s| spec((r + s) % 3, 4)).expect("grid");
        assert_eq!(t.len(), 32);
        assert_eq!(t.num_racks(), 4);
        assert!(t.rack_of().iter().all(|&r| r < 4));
    }
}
