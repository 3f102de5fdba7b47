//! # capgpu-fleet — fleet-scale hierarchical power capping
//!
//! The paper caps one server; this crate caps a datacenter. Three pieces
//! compose the fleet layer on top of the unchanged per-server CapGPU
//! stack:
//!
//! - [`topology`]: an arbitrary-depth budget tree (datacenter → row →
//!   rack → server) with hierarchical max–min water-filling —
//!   Σ child budgets ≤ parent budget at every level, by construction. A
//!   one-rack tree is the flat rack coordinator.
//! - [`balancer`]: a power-aware request-stream migration policy — when a
//!   server's budget binds and SLOs slip, a stream moves to the server
//!   with the most spare power capacity.
//! - [`sim`]: a sharded, memory-bounded fleet simulator — servers step
//!   in parallel between allocator epochs, summaries fold in server
//!   index order (`capgpu::ordered::ordered_fold`), and reports are
//!   bit-identical across thread counts with O(servers) resident state.

pub mod balancer;
pub mod classes;
pub mod sim;
pub mod topology;

pub use capgpu::{CapGpuError, Result};

/// Common imports for fleet experiments.
pub mod prelude {
    pub use crate::balancer::{Migration, MigrationConfig};
    pub use crate::classes::mixed_generation_classes;
    pub use crate::sim::{
        AllocatorMode, EpochReport, FleetConfig, FleetReport, FleetSim, RackEpoch, ServerClass,
        ServerStat,
    };
    pub use crate::topology::{Division, FleetTopology, Node, ServerSpec};
}
