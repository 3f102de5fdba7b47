//! Sharded, memory-bounded, deterministic fleet simulation.
//!
//! Every leaf server runs the full CapGPU stack — `ExperimentRunner`,
//! identified model, MPC controller, serving layer — unchanged. The fleet
//! layer adds the epoch loop: hierarchically divide the datacenter budget
//! over observed demand ([`crate::topology`]), step every server one
//! epoch at its assigned set point, fold each finished server trace into
//! per-rack accumulators, update demand estimates, and plan request
//! migrations ([`crate::balancer`]) for the next epoch.
//!
//! # Sharding and determinism
//!
//! Within an epoch, servers are independent: each steps against its own
//! set point with no shared state, so an epoch is one
//! [`capgpu::ordered::ordered_fold`] over the server indices — the same
//! executor, with the same [`default_reorder_window`], as
//! `SweepSpec::streaming_with_threads`. Determinism across thread counts
//! follows from two facts: (1) each server's epoch is a pure function of
//! its carried state and its epoch inputs, and (2) everything
//! cross-server — rack accumulation, demand updates, allocator input,
//! migration planning — happens in server index order at the fold
//! frontier. The epoch boundary is a hard barrier: the allocator only
//! ever sees a completely folded epoch, so 1, 2, 4 and 8 worker threads
//! produce bit-identical reports.
//!
//! # Memory
//!
//! A server's `RunTrace` lives only between `run()` returning and the
//! fold consuming it: at most `threads` traces plus `reorder_window`
//! pending summaries exist at any instant, independent of fleet size or
//! horizon. Persistent state is O(servers) (`ServerStat` scalars plus
//! each server's runner) and O(racks × epochs) report rows — never
//! O(servers × periods). The report carries `peak_pending` and
//! `peak_live_traces` so callers can *assert* the bound rather than
//! trust it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use capgpu::controllers::CapGpuController;
use capgpu::ordered::{default_reorder_window, ordered_fold};
use capgpu::prelude::*;
use capgpu::{CapGpuError, Result};

use crate::balancer::{self, Migration, MigrationConfig};
use crate::topology::FleetTopology;

/// Demand-update noise band (W).
const NOISE_BAND_WATTS: f64 = 8.0;
/// Demand-update probe increment (W).
const RELEASE_MARGIN_WATTS: f64 = 15.0;
/// "Budget binds" band (W) for per-rack binding-server counts.
const BINDING_BAND_WATTS: f64 = 10.0;
/// Steady-state tail fraction for per-epoch measured power.
const STEADY_TAIL: f64 = 0.6;

/// One server class: a scenario template shared by every server of the
/// class. Identification runs once per class; each server clones the
/// identified runner and then evolves independently.
#[derive(Debug, Clone)]
pub struct ServerClass {
    /// Display label ("v100-serving", …).
    pub label: String,
    /// Scenario every server of this class runs. Must have the serving
    /// layer enabled if stream counts ever differ from
    /// `nominal_streams` (startup or migration).
    pub scenario: Scenario,
    /// Stream count at which the scenario's configured arrival rates
    /// apply unscaled (offered load scales as `streams / nominal`).
    pub nominal_streams: u32,
}

/// Which division rule the allocator applies each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorMode {
    /// Demand-driven hierarchical water-filling (the paper-extending
    /// policy under test).
    Hierarchical,
    /// Static equal split at every tree level (the baseline).
    EqualSplit,
}

/// Fleet experiment configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Datacenter (root) power budget (W).
    pub budget_watts: f64,
    /// Number of allocator epochs to run.
    pub epochs: usize,
    /// Control periods per epoch.
    pub epoch_periods: usize,
    /// Division rule.
    pub allocator: AllocatorMode,
    /// Whether the balancer plans stream migrations ([`balancer::plan`]).
    pub migration: bool,
    /// Extra per-server floor (W) on top of each server's identified
    /// feasible minimum.
    pub min_share_watts: f64,
}

impl FleetConfig {
    /// A hierarchical-allocator configuration with migration enabled and
    /// default epoch geometry.
    pub fn new(budget_watts: f64) -> Self {
        FleetConfig {
            budget_watts,
            epochs: 12,
            epoch_periods: 8,
            allocator: AllocatorMode::Hierarchical,
            migration: true,
            min_share_watts: 0.0,
        }
    }
}

/// Per-server scalar state — the only per-server data the fleet layer
/// retains (O(servers) memory).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStat {
    /// Rack index (from the topology).
    pub rack: usize,
    /// Server-class index.
    pub class: usize,
    /// Request streams currently hosted.
    pub streams: u32,
    /// Demand estimate feeding the next allocation (W).
    pub demand: f64,
    /// Identified feasible minimum power (W).
    pub min_watts: f64,
    /// Identified feasible maximum power (W).
    pub max_watts: f64,
    /// Set point assigned in the last epoch (W).
    pub assigned: f64,
    /// Steady-state measured power over the last epoch (W).
    pub measured: f64,
    /// SLO misses in the last epoch.
    pub misses: u64,
    /// Batches completed in the last epoch.
    pub completed: u64,
}

/// Per-rack accumulator for one epoch — the `GroupSummary`-style fold
/// target: O(racks), not O(servers × periods).
#[derive(Debug, Clone, PartialEq)]
pub struct RackEpoch {
    /// Σ assigned set points over the rack's servers (W) — the rack's
    /// effective budget this epoch.
    pub assigned: f64,
    /// Σ steady-state measured power (W).
    pub measured: f64,
    /// Σ SLO misses.
    pub misses: u64,
    /// Σ batches completed.
    pub completed: u64,
    /// Servers pinned at their set point (measured within the binding
    /// band of assigned).
    pub binding_servers: usize,
    /// Worst per-task p99 latency across the rack's servers (s).
    pub worst_p99_s: f64,
}

impl RackEpoch {
    fn zero() -> Self {
        RackEpoch {
            assigned: 0.0,
            measured: 0.0,
            misses: 0,
            completed: 0,
            binding_servers: 0,
            worst_p99_s: 0.0,
        }
    }
}

/// One allocator epoch in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Per-rack accumulators, in rack index order.
    pub racks: Vec<RackEpoch>,
    /// Migrations planned at the end of this epoch (applied at the start
    /// of the next).
    pub migrations: Vec<Migration>,
}

impl EpochReport {
    /// Fleet-total assigned power (W).
    pub fn assigned_watts(&self) -> f64 {
        self.racks.iter().map(|r| r.assigned).sum()
    }

    /// Fleet-total measured power (W).
    pub fn measured_watts(&self) -> f64 {
        self.racks.iter().map(|r| r.measured).sum()
    }

    /// Fleet-total SLO misses.
    pub fn misses(&self) -> u64 {
        self.racks.iter().map(|r| r.misses).sum()
    }

    /// Fleet-total batches completed.
    pub fn completed(&self) -> u64 {
        self.racks.iter().map(|r| r.completed).sum()
    }
}

/// Full fleet report. Equality deliberately ignores the memory
/// instrumentation (`peak_pending`, `peak_live_traces`) — those vary
/// with thread count; everything else is bit-identical across 1/2/4/8
/// threads.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One entry per allocator epoch.
    pub epochs: Vec<EpochReport>,
    /// Final per-server statistics, in server index order.
    pub stats: Vec<ServerStat>,
    /// Server-periods simulated (servers × epochs × epoch_periods).
    pub server_periods: usize,
    /// Reorder window used for shard folding.
    pub reorder_window: usize,
    /// Peak summaries resident in the reorder buffer (≤ window).
    pub peak_pending: usize,
    /// Peak concurrently-live server traces (≤ worker threads).
    pub peak_live_traces: usize,
}

impl PartialEq for FleetReport {
    fn eq(&self, other: &Self) -> bool {
        // `reorder_window`, `peak_pending` and `peak_live_traces` are
        // execution instrumentation — they track how the run was
        // scheduled (and scale with the thread count), not what it
        // computed — so equality covers only the simulation outcome.
        self.epochs == other.epochs
            && self.stats == other.stats
            && self.server_periods == other.server_periods
    }
}

impl FleetReport {
    /// Total SLO misses across all epochs.
    pub fn total_misses(&self) -> u64 {
        self.epochs.iter().map(EpochReport::misses).sum()
    }

    /// Total batches completed across all epochs.
    pub fn total_completed(&self) -> u64 {
        self.epochs.iter().map(EpochReport::completed).sum()
    }

    /// Fleet miss rate: misses / (misses + completed batches).
    pub fn miss_rate(&self) -> f64 {
        let m = self.total_misses() as f64;
        let c = self.total_completed() as f64;
        if m + c == 0.0 {
            0.0
        } else {
            m / (m + c)
        }
    }

    /// Total migrations planned across all epochs.
    pub fn total_migrations(&self) -> usize {
        self.epochs.iter().map(|e| e.migrations.len()).sum()
    }
}

/// Carried per-server simulation state (runner + controller), stored in
/// per-server slots and locked for the epoch by whichever worker claims
/// the server.
struct ServerState {
    runner: ExperimentRunner,
    controller: CapGpuController,
    applied_streams: u32,
}

/// Inputs a worker needs for one server-epoch, precomputed before the
/// parallel phase so workers never touch shared mutable state.
struct EpochInput {
    setpoint: f64,
    streams: u32,
    scale: f64,
}

/// Scalars distilled from one server's epoch trace — all that survives
/// the fold.
struct ServerSummary {
    measured: f64,
    misses: u64,
    completed: u64,
    worst_p99_s: f64,
}

/// The fleet simulator.
pub struct FleetSim {
    topology: FleetTopology,
    config: FleetConfig,
    states: Vec<Mutex<ServerState>>,
    stats: Vec<ServerStat>,
    /// Per-server nominal stream count (from the server's class).
    nominals: Vec<u32>,
}

impl FleetSim {
    /// Builds the fleet: identifies one runner per server class, then
    /// clones it per server (shared identification, independent
    /// evolution — the streaming sweep's scheme at fleet scale).
    ///
    /// # Errors
    /// Propagates identification/controller errors; rejects invalid
    /// class references, zero-stream or zero-nominal classes, empty
    /// geometry, a budget below the summed per-server floors, and
    /// migration without the serving layer.
    pub fn new(
        topology: FleetTopology,
        classes: &[ServerClass],
        config: FleetConfig,
    ) -> Result<Self> {
        if classes.is_empty() {
            return Err(CapGpuError::BadConfig(
                "fleet needs >= 1 server class".into(),
            ));
        }
        if config.epochs == 0 || config.epoch_periods == 0 {
            return Err(CapGpuError::BadConfig(
                "fleet epochs and epoch_periods must be >= 1".into(),
            ));
        }
        if let Some(bad) = topology.servers().iter().find(|s| s.class >= classes.len()) {
            return Err(CapGpuError::BadConfig(format!(
                "server references class {} but only {} classes exist",
                bad.class,
                classes.len()
            )));
        }
        if classes.iter().any(|c| c.nominal_streams == 0) {
            return Err(CapGpuError::BadConfig(
                "class nominal_streams must be >= 1".into(),
            ));
        }
        if config.migration {
            if let Some(c) = classes.iter().find(|c| c.scenario.serving.is_none()) {
                return Err(CapGpuError::BadConfig(format!(
                    "stream migration needs the serving layer; class '{}' has none",
                    c.label
                )));
            }
        }

        // One identification per class.
        let mut class_runners = Vec::with_capacity(classes.len());
        let mut class_range = Vec::with_capacity(classes.len());
        let equal = config.budget_watts / topology.len() as f64;
        for class in classes {
            let mut runner = ExperimentRunner::new(class.scenario.clone(), equal)?;
            let model = runner.identified_model()?;
            let (lo, hi) = model.achievable_range(&runner.layout().f_min, &runner.layout().f_max);
            class_runners.push(runner);
            class_range.push((lo, hi));
        }

        // Per-server state: cloned runner + fresh controller.
        let mut states = Vec::with_capacity(topology.len());
        let mut stats = Vec::with_capacity(topology.len());
        for (i, spec) in topology.servers().iter().enumerate() {
            let mut runner = class_runners[spec.class].clone();
            let controller = runner.build_capgpu_controller()?;
            let (lo, hi) = class_range[spec.class];
            states.push(Mutex::new(ServerState {
                runner,
                controller,
                applied_streams: classes[spec.class].nominal_streams,
            }));
            stats.push(ServerStat {
                rack: topology.rack_of()[i],
                class: spec.class,
                streams: spec.streams,
                demand: hi,
                min_watts: lo,
                max_watts: hi,
                assigned: 0.0,
                measured: 0.0,
                misses: 0,
                completed: 0,
            });
        }
        let floor_sum: f64 = stats
            .iter()
            .map(|s| s.min_watts.max(config.min_share_watts))
            .sum();
        if config.budget_watts < floor_sum {
            return Err(CapGpuError::BadConfig(format!(
                "fleet budget {:.0} W below summed server floors {floor_sum:.0} W",
                config.budget_watts
            )));
        }
        let nominals: Vec<u32> = stats
            .iter()
            .map(|s| classes[s.class].nominal_streams)
            .collect();
        Ok(FleetSim {
            topology,
            config,
            states,
            stats,
            nominals,
        })
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when the fleet has no servers (cannot happen by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// The fleet topology.
    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// Runs the configured number of epochs across `threads` worker
    /// threads. Reports are bit-identical for any thread count
    /// (see module docs); memory stays O(servers) + O(racks × epochs).
    ///
    /// # Errors
    /// Propagates the first server error; the simulator must be rebuilt
    /// after an error.
    pub fn run(&mut self, threads: usize) -> Result<FleetReport> {
        let n = self.len();
        let window = default_reorder_window(threads);
        let racks = self.topology.num_racks();
        let rack_of = self.topology.rack_of().to_vec();
        let equal_division = self.topology.divide_equal(self.config.budget_watts);

        let mut epochs = Vec::with_capacity(self.config.epochs);
        let mut peak_pending_all = 0usize;
        let mut peak_live_all = 0usize;

        for _ in 0..self.config.epochs {
            // 1. Allocate the datacenter budget over current demand.
            let allocs = match self.config.allocator {
                AllocatorMode::Hierarchical => {
                    let demands: Vec<f64> = self.stats.iter().map(|s| s.demand).collect();
                    // Floors track the *learned* per-server minimums, so
                    // they are re-read every epoch.
                    let floors: Vec<f64> = self
                        .stats
                        .iter()
                        .map(|s| s.min_watts.max(self.config.min_share_watts))
                        .collect();
                    self.topology
                        .divide(self.config.budget_watts, &demands, &floors)
                        .server_allocs
                }
                AllocatorMode::EqualSplit => equal_division.server_allocs.clone(),
            };

            // 2. Freeze this epoch's per-server inputs.
            let inputs: Vec<EpochInput> = (0..n)
                .map(|i| {
                    let s = &mut self.stats[i];
                    s.assigned = allocs[i];
                    EpochInput {
                        setpoint: allocs[i],
                        streams: s.streams,
                        scale: f64::from(s.streams) / f64::from(self.nominals[i]),
                    }
                })
                .collect();

            // 3. Parallel phase: step every server one epoch, folding
            //    summaries at the frontier in server index order.
            let live = AtomicUsize::new(0);
            let peak_live = AtomicUsize::new(0);
            let states = &self.states;
            let stats = &mut self.stats;
            let epoch_periods = self.config.epoch_periods;
            let mut rack_epochs = vec![RackEpoch::zero(); racks];
            let step_server = |i: usize| {
                let mut slot = states[i].lock().expect("a server's epoch panicked");
                let state = &mut *slot;
                let inp = &inputs[i];
                if state.applied_streams != inp.streams {
                    state.runner.set_serving_intensity_scale(inp.scale)?;
                    state.applied_streams = inp.streams;
                }
                state.runner.set_setpoint(inp.setpoint);
                // Relaxed: these two count traces for the report only.
                let now_live = live.fetch_add(1, Ordering::Relaxed) + 1;
                peak_live.fetch_max(now_live, Ordering::Relaxed);
                let result = state.runner.run(&mut state.controller, epoch_periods);
                live.fetch_sub(1, Ordering::Relaxed);
                // Only the summary leaves: the trace dies here.
                Ok(summarize(&result?))
            };
            let fold_stats = ordered_fold(n, threads, window, step_server, |j, summary| {
                fold_server(&mut stats[j], &mut rack_epochs[rack_of[j]], summary);
                Ok(())
            })?;
            peak_pending_all = peak_pending_all.max(fold_stats.peak_pending);
            peak_live_all = peak_live_all.max(peak_live.load(Ordering::Relaxed));

            // 4. Plan migrations on the folded epoch; apply for next.
            let migrations = if self.config.migration {
                balancer::plan(&self.stats, &MigrationConfig)
            } else {
                vec![]
            };
            for m in &migrations {
                self.stats[m.from].streams -= 1;
                self.stats[m.to].streams += 1;
            }
            epochs.push(EpochReport {
                racks: rack_epochs,
                migrations,
            });
        }

        Ok(FleetReport {
            epochs,
            stats: self.stats.clone(),
            server_periods: n * self.config.epochs * self.config.epoch_periods,
            reorder_window: window,
            peak_pending: peak_pending_all,
            peak_live_traces: peak_live_all,
        })
    }
}

/// Distills one server's epoch trace to fold scalars.
fn summarize(trace: &RunTrace) -> ServerSummary {
    let (measured, _) = trace.steady_state_power(STEADY_TAIL);
    let misses: u64 = trace
        .records
        .iter()
        .map(|r| r.slo_misses.iter().sum::<usize>() as u64)
        .sum();
    let completed: u64 = trace
        .records
        .iter()
        .map(|r| r.batches.iter().sum::<usize>() as u64)
        .sum();
    let worst_p99_s = trace.p99_latency_s.iter().cloned().fold(0.0_f64, f64::max);
    ServerSummary {
        measured,
        misses,
        completed,
        worst_p99_s,
    }
}

/// Folds one server's summary into its stat (measurements, learned floor,
/// next demand estimate) and its rack's accumulator. Runs in server index
/// order at the frontier, so every float accumulation is
/// order-deterministic.
fn fold_server(stat: &mut ServerStat, rack: &mut RackEpoch, s: ServerSummary) {
    stat.measured = s.measured;
    stat.misses = s.misses;
    stat.completed = s.completed;
    // A server that *overshoots* its set point could not physically get
    // there — typically SLO frequency floors holding power up (floors
    // are hard MPC bounds that override the cap). Learn the effective
    // minimum so the next division funds at least what the server will
    // draw anyway; this is what restores the safe-capping invariant at
    // rack level after the first epoch. Capped at the identified
    // maximum: the tail of a one-period epoch is that period's transient
    // and can read above it.
    if s.measured > stat.assigned + NOISE_BAND_WATTS {
        stat.min_watts = stat.min_watts.max(s.measured).min(stat.max_watts);
    }
    // Pinned at the cap → hungry, probe up; below the cap → satisfied,
    // release slack.
    stat.demand = if s.measured >= stat.assigned - NOISE_BAND_WATTS {
        (stat.assigned * 1.15).min(stat.max_watts)
    } else {
        (s.measured + RELEASE_MARGIN_WATTS).clamp(stat.min_watts, stat.max_watts)
    };
    rack.assigned += stat.assigned;
    rack.measured += s.measured;
    rack.misses += s.misses;
    rack.completed += s.completed;
    if s.measured >= stat.assigned - BINDING_BAND_WATTS {
        rack.binding_servers += 1;
    }
    rack.worst_p99_s = rack.worst_p99_s.max(s.worst_p99_s);
}
