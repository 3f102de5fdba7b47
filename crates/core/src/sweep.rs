//! Parallel experiment sweep engine.
//!
//! Every closed-loop figure in the paper's evaluation (§6) is a grid of
//! independent closed-loop experiments: controllers × set points × seeds
//! × scenario variants. This module factors that grid into an explicit
//! [`SweepSpec`], expands it into [`SweepCell`]s, and executes the cells
//! either serially or across OS threads ([`crate::ordered::ordered_fold`]).
//!
//! ## Determinism
//!
//! Each cell builds its state from nothing but `(scenario, seed,
//! set point, controller)`: its runner's RNGs are seeded from the
//! scenario, no state is shared mutably between cells, and results are
//! collected or folded in grid order. The report is therefore
//! **bit-identical** for any thread count, and identical to
//! [`SweepSpec::run_serial`].
//!
//! ## Identification sharing
//!
//! System identification (§4.2) is a pure function of `(scenario, seed)`
//! — it never reads the power set point. Cells whose controller needs the
//! identified model therefore share one identification pass per
//! `(scenario, seed)` class: the engine identifies once and clones the
//! post-identification [`ExperimentRunner`] for each cell, which replays
//! exactly the trajectory the cell would have produced by identifying on
//! its own (every stochastic component is part of the cloned state).
//! [`ControllerSpec::FixedStep`], which does not identify, gets a fresh
//! runner so its testbed has not been advanced through the excitation
//! sweep.
//!
//! ## Thread count
//!
//! [`SweepSpec::run`] uses the `CAPGPU_SWEEP_THREADS` environment
//! variable when set, otherwise [`std::thread::available_parallelism`].

use std::sync::{Arc, Mutex};

use capgpu_telemetry::registry::Snapshot;

use crate::config::Scenario;
use crate::controllers::PowerController;
use crate::ordered::{default_reorder_window, ordered_fold};
use crate::runner::{ExperimentRunner, RunTrace};
use crate::summary::RunSummary;
use crate::{CapGpuError, Result};

/// Environment variable overriding the sweep engine's thread count.
pub const THREADS_ENV: &str = "CAPGPU_SWEEP_THREADS";

/// Thread count for [`SweepSpec::run`]: `CAPGPU_SWEEP_THREADS` if set to
/// a positive integer, else the machine's available parallelism.
pub fn threads_from_env() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// A class's post-identification runner, which cells clone. The runner is
/// `Send` but not `Sync` (its telemetry registry counts in `Cell`s), so
/// workers take the clone under a lock.
type IdentifiedRunner = Mutex<ExperimentRunner>;

/// A user-supplied controller factory for [`ControllerSpec::Custom`].
pub type ControllerBuilder =
    dyn Fn(&mut ExperimentRunner) -> Result<Box<dyn PowerController>> + Send + Sync;

/// One axis value of the controller dimension: how a cell's controller
/// is built from its runner.
#[derive(Clone)]
pub enum ControllerSpec {
    /// The paper's controller (identified model, default weights).
    CapGpu,
    /// The paper's controller with a phase-blind weight assigner
    /// ([`crate::weights::WeightAssigner::PhaseBlind`]): throughput
    /// inversion only, ignoring the LLM layer's per-device phase mix.
    /// The ablation arm that shows why the phase signal matters
    /// (DESIGN.md §17); identical to [`ControllerSpec::CapGpu`] on
    /// non-LLM scenarios.
    CapGpuPhaseBlind,
    /// GPU-Only pole-placed baseline (§6.1 baseline 2).
    GpuOnly,
    /// CPU-Only pole-placed baseline (§6.1 baseline 3).
    CpuOnly,
    /// CPU+GPU split baseline with the given GPU budget share.
    Split {
        /// Fraction of the power budget assigned to the GPU loop.
        gpu_share: f64,
    },
    /// Fixed-step baseline (no identification, §6.1 baseline 1).
    FixedStep {
        /// Step-unit multiplier.
        multiplier: usize,
    },
    /// Safe Fixed-step baseline (margin from the identified model).
    SafeFixedStep {
        /// Step-unit multiplier.
        multiplier: usize,
    },
    /// An arbitrary controller built by a user closure (ablations) on
    /// the class's identified runner.
    Custom {
        /// Display label for the cell.
        label: String,
        /// The factory.
        build: Arc<ControllerBuilder>,
    },
}

impl ControllerSpec {
    /// A [`ControllerSpec::Custom`] built by `build`.
    pub fn custom<F>(label: impl Into<String>, build: F) -> Self
    where
        F: Fn(&mut ExperimentRunner) -> Result<Box<dyn PowerController>> + Send + Sync + 'static,
    {
        ControllerSpec::Custom {
            label: label.into(),
            build: Arc::new(build),
        }
    }

    /// The spec's display label (the trace additionally carries the
    /// controller's own `name()`).
    pub fn label(&self) -> String {
        match self {
            ControllerSpec::CapGpu => "CapGPU".into(),
            ControllerSpec::CapGpuPhaseBlind => "CapGPU (phase-blind)".into(),
            ControllerSpec::GpuOnly => "GPU-Only".into(),
            ControllerSpec::CpuOnly => "CPU-Only".into(),
            ControllerSpec::Split { gpu_share } => {
                format!("CPU+GPU ({:.0}% GPU)", 100.0 * gpu_share)
            }
            ControllerSpec::FixedStep { multiplier } => format!("Fixed-step x{multiplier}"),
            ControllerSpec::SafeFixedStep { multiplier } => {
                format!("Safe Fixed-step x{multiplier}")
            }
            ControllerSpec::Custom { label, .. } => label.clone(),
        }
    }

    /// Whether the cell wants the shared post-identification runner.
    fn needs_identification(&self) -> bool {
        !matches!(self, ControllerSpec::FixedStep { .. })
    }

    /// Builds the boxed controller on the cell's runner.
    fn build(&self, r: &mut ExperimentRunner) -> Result<Box<dyn PowerController>> {
        Ok(match self {
            ControllerSpec::CapGpu => Box::new(r.build_capgpu_controller()?),
            ControllerSpec::CapGpuPhaseBlind => Box::new(r.build_capgpu_phase_blind()?),
            ControllerSpec::GpuOnly => Box::new(r.build_gpu_only()?),
            ControllerSpec::CpuOnly => Box::new(r.build_cpu_only()?),
            ControllerSpec::Split { gpu_share } => Box::new(r.build_split(*gpu_share)?),
            ControllerSpec::FixedStep { multiplier } => Box::new(r.build_fixed_step(*multiplier)),
            ControllerSpec::SafeFixedStep { multiplier } => {
                Box::new(r.build_safe_fixed_step(*multiplier)?)
            }
            ControllerSpec::Custom { build, .. } => build(r)?,
        })
    }
}

impl std::fmt::Debug for ControllerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ControllerSpec({})", self.label())
    }
}

/// One point of the expanded sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Index into the spec's scenario list.
    pub scenario_index: usize,
    /// Label of the cell's scenario variant.
    pub scenario_label: String,
    /// Index into the spec's seed list (0 when the spec uses each
    /// scenario's embedded seed).
    pub seed_index: usize,
    /// The RNG seed in force for the cell.
    pub seed: u64,
    /// Index into the spec's set-point list.
    pub setpoint_index: usize,
    /// Initial power set point (W).
    pub setpoint: f64,
    /// Index into the spec's controller list.
    pub controller_index: usize,
    /// Label of the cell's controller spec.
    pub controller_label: String,
}

/// A completed cell: its grid coordinates plus its closed-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellResult {
    /// The cell's coordinates in the sweep grid.
    pub cell: SweepCell,
    /// The cell's run ([`ExperimentRunner::run`]).
    pub trace: RunTrace,
    /// Frozen telemetry registry of the cell's runner, when its
    /// scenario enables telemetry. Snapshot contents are sim-clock
    /// deterministic, so they participate in the report's bit-identity
    /// guarantee across thread counts.
    pub telemetry: Option<Snapshot>,
}

/// The collected results of a sweep, in expansion order (scenario, then
/// seed, then set point, then controller — row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell results in expansion order.
    pub cells: Vec<SweepCellResult>,
    n_seeds: usize,
    n_setpoints: usize,
    n_controllers: usize,
}

impl SweepReport {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell at the given grid coordinates.
    ///
    /// # Panics
    /// Panics if any index is out of the sweep grid's range.
    pub fn get(
        &self,
        scenario: usize,
        seed: usize,
        setpoint: usize,
        controller: usize,
    ) -> &SweepCellResult {
        assert!(
            seed < self.n_seeds && setpoint < self.n_setpoints && controller < self.n_controllers,
            "cell ({scenario}, {seed}, {setpoint}, {controller}) outside the sweep grid"
        );
        let idx = ((scenario * self.n_seeds + seed) * self.n_setpoints + setpoint)
            * self.n_controllers
            + controller;
        &self.cells[idx]
    }

    /// Shorthand for `&get(..).trace`.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates.
    pub fn trace(
        &self,
        scenario: usize,
        seed: usize,
        setpoint: usize,
        controller: usize,
    ) -> &RunTrace {
        &self.get(scenario, seed, setpoint, controller).trace
    }

    /// All traces in expansion order.
    pub fn traces(&self) -> impl Iterator<Item = &RunTrace> {
        self.cells.iter().map(|c| &c.trace)
    }

    /// Fold every cell's telemetry snapshot into one aggregate, merging
    /// strictly in grid (expansion) order. Because the fold order is a
    /// property of the spec — not of how cells were scheduled across
    /// threads — the aggregate is bit-identical for any thread count,
    /// including the float histogram sums. `None` when no cell carried
    /// telemetry.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] when two cells registered the same
    /// histogram with different bucket edges.
    pub fn merged_telemetry(&self) -> Result<Option<Snapshot>> {
        let mut acc: Option<Snapshot> = None;
        for snap in self.cells.iter().filter_map(|c| c.telemetry.as_ref()) {
            match acc.as_mut() {
                Some(a) => a
                    .merge(snap)
                    .map_err(|e| CapGpuError::BadConfig(e.to_string()))?,
                None => acc = Some(snap.clone()),
            }
        }
        Ok(acc)
    }
}

/// Scalar summary of one finished cell — everything the streaming mode
/// keeps before folding; the trace itself is dropped as soon as these are
/// extracted.
#[derive(Debug, Clone, PartialEq)]
struct CellSummary {
    /// Group index: `scenario_index · n_controllers + controller_index`.
    group: usize,
    power_mean: f64,
    tracking_error: f64,
    mean_miss_rate: f64,
}

/// Streaming accumulator for one `(scenario, controller)` group: scalar
/// sums folded strictly in grid (expansion) order, so every float total is
/// bit-identical for any thread count. Means are exposed as accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Index into the spec's scenario list.
    pub scenario_index: usize,
    /// Label of the group's scenario variant.
    pub scenario_label: String,
    /// Index into the spec's controller list.
    pub controller_index: usize,
    /// Label of the group's controller spec.
    pub controller_label: String,
    /// Cells folded into this group.
    pub cells: usize,
    /// Sum of steady-state mean powers (W).
    pub power_mean_sum: f64,
    /// Sum of per-cell |steady power − set point| tracking errors (W).
    pub tracking_error_sum: f64,
    /// Sum of per-cell mean deadline-miss rates.
    pub miss_rate_sum: f64,
}

impl GroupSummary {
    fn fold(&mut self, s: &CellSummary) {
        self.cells += 1;
        self.power_mean_sum += s.power_mean;
        self.tracking_error_sum += s.tracking_error;
        self.miss_rate_sum += s.mean_miss_rate;
    }

    /// Mean steady-state power over the group's cells (W).
    pub fn mean_power(&self) -> f64 {
        self.power_mean_sum / (self.cells.max(1) as f64)
    }

    /// Mean tracking error (W).
    pub fn mean_tracking_error(&self) -> f64 {
        self.tracking_error_sum / (self.cells.max(1) as f64)
    }

    /// Mean deadline-miss rate across the group's cells.
    pub fn mean_miss_rate(&self) -> f64 {
        self.miss_rate_sum / (self.cells.max(1) as f64)
    }
}

/// Result of a streaming sweep ([`SweepSpec::streaming`]): one
/// [`GroupSummary`] per `(scenario, controller)` pair — memory is
/// `O(groups)`, independent of the cell count.
///
/// `peak_pending` is a scheduling diagnostic (the largest number of
/// finished-but-not-yet-folded cells the bounded reorder window ever
/// held); it depends on thread scheduling and is deliberately excluded
/// from equality so reports stay comparable across thread counts.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Group accumulators, scenario-major then controller-minor.
    pub groups: Vec<GroupSummary>,
    /// Total cells folded.
    pub cells: usize,
    /// Peak size of the out-of-order pending buffer (0 for serial runs).
    /// Bounded by the reorder window
    /// ([`default_reorder_window`]`(threads)`); excluded from `PartialEq`.
    pub peak_pending: usize,
    n_controllers: usize,
}

impl PartialEq for StreamReport {
    fn eq(&self, other: &Self) -> bool {
        self.groups == other.groups
            && self.cells == other.cells
            && self.n_controllers == other.n_controllers
    }
}

impl StreamReport {
    /// The group accumulator at `(scenario, controller)`.
    ///
    /// # Panics
    /// Panics if either index is outside the sweep grid.
    pub fn get(&self, scenario: usize, controller: usize) -> &GroupSummary {
        assert!(
            controller < self.n_controllers,
            "group ({scenario}, {controller}) outside the sweep grid"
        );
        &self.groups[scenario * self.n_controllers + controller]
    }
}

/// Runs `work` for indices `0..n` and hands each value to `fold` strictly
/// in index order: a plain `for` loop when `threads` is `None` (the
/// serial references), else [`ordered_fold`] across that many threads
/// with at most `window` values parked ahead of the fold frontier.
/// Returns that peak (0 for the plain loop).
fn fold_in_order<T: Send>(
    n: usize,
    threads: Option<usize>,
    window: usize,
    work: impl Fn(usize) -> Result<T> + Sync,
    mut fold: impl FnMut(T) -> Result<()> + Send,
) -> Result<usize> {
    let Some(threads) = threads else {
        for i in 0..n {
            fold(work(i)?)?;
        }
        return Ok(0);
    };
    let stats = ordered_fold(n, threads, window, work, |_, value| fold(value))?;
    Ok(stats.peak_pending)
}

/// Declarative description of an experiment sweep.
///
/// ```
/// use capgpu::prelude::*;
/// use capgpu::sweep::{ControllerSpec, SweepSpec};
///
/// let report = SweepSpec::new(Scenario::paper_testbed(42))
///     .setpoint(900.0)
///     .periods(10)
///     .controller(ControllerSpec::CapGpu)
///     .controller(ControllerSpec::GpuOnly)
///     .run()
///     .unwrap();
/// assert_eq!(report.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    scenarios: Vec<(String, Scenario)>,
    seeds: Vec<u64>,
    setpoints: Vec<f64>,
    controllers: Vec<ControllerSpec>,
    periods: usize,
}

impl SweepSpec {
    /// A sweep over one base scenario (labelled `"base"`).
    pub fn new(base: Scenario) -> Self {
        SweepSpec::over_scenarios(vec![("base".into(), base)])
    }
    /// The serving scenario family: the serving testbed
    /// ([`Scenario::serving_testbed`]) swept over arrival-rate scales
    /// (each scale multiplies every task's nominal rate), plus — when
    /// `burst_factor` is given — a burst variant that doubles down
    /// mid-run via [`crate::config::ScheduledChange::ServingBurst`] on
    /// task 0 at period 50. Labels are `load x<scale>` and
    /// `burst x<factor>`.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on a non-positive scale or factor.
    pub fn serving_family(
        seed: u64,
        rate_scales: &[f64],
        burst_factor: Option<f64>,
    ) -> Result<Self> {
        let mut scenarios = Vec::new();
        for &scale in rate_scales {
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(CapGpuError::BadConfig(
                    "serving family rate scales must be positive".into(),
                ));
            }
            let mut scenario = Scenario::serving_testbed(seed);
            let serving = scenario.serving.as_mut().expect("serving testbed");
            for p in &mut serving.arrivals {
                *p = p.scaled(scale);
            }
            scenarios.push((format!("load x{scale:.2}"), scenario));
        }
        if let Some(factor) = burst_factor {
            let scenario = Scenario::serving_testbed(seed).with_change(
                crate::config::ScheduledChange::ServingBurst {
                    at_period: 50,
                    task: 0,
                    factor,
                },
            );
            scenario.validate()?;
            scenarios.push((format!("burst x{factor:.2}"), scenario));
        }
        Ok(SweepSpec::over_scenarios(scenarios))
    }

    /// The fault-injection scenario family: the fault testbed
    /// ([`Scenario::fault_testbed`]) swept over storm intensities. Each
    /// intensity appears twice — unsupervised (`storm x<i>`) and with
    /// the default supervisory failover layer (`storm x<i> +sup`). Both
    /// variants share byte-identical storm schedules, so any difference
    /// between the paired cells isolates the supervisor.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on a non-positive intensity.
    pub fn fault_family(seed: u64, intensities: &[f64]) -> Result<Self> {
        let mut scenarios = Vec::new();
        for &intensity in intensities {
            if !(intensity > 0.0 && intensity.is_finite()) {
                return Err(CapGpuError::BadConfig(
                    "fault family intensities must be positive".into(),
                ));
            }
            let storm = capgpu_faults::FaultSchedule::storm(seed, intensity)?;
            let base = Scenario::fault_testbed(seed).with_faults(storm);
            base.validate()?;
            scenarios.push((format!("storm x{intensity:.2}"), base.clone()));
            scenarios.push((
                format!("storm x{intensity:.2} +sup"),
                base.with_supervisor(crate::supervisor::SupervisorConfig::default()),
            ));
        }
        Ok(SweepSpec::over_scenarios(scenarios))
    }

    /// The LLM serving scenario family: the LLM testbed
    /// ([`Scenario::llm_testbed`]) swept over arrival-rate scales (each
    /// scale multiplies every task's nominal request rate), paired with
    /// the phase-aware and phase-blind CapGPU arms when run through
    /// [`ControllerSpec::CapGpu`] / [`ControllerSpec::CapGpuPhaseBlind`].
    /// Labels are `llm x<scale>`. Like every family, the expanded grid
    /// is a pure function of the spec — bit-identical across thread
    /// counts.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on a non-positive scale.
    pub fn llm_family(seed: u64, rate_scales: &[f64]) -> Result<Self> {
        let mut scenarios = Vec::new();
        for &scale in rate_scales {
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(CapGpuError::BadConfig(
                    "llm family rate scales must be positive".into(),
                ));
            }
            let mut scenario = Scenario::llm_testbed(seed);
            let llm = scenario.llm.as_mut().expect("llm testbed");
            for task in &mut llm.tasks {
                task.arrival = task.arrival.scaled(scale);
            }
            scenario.validate()?;
            scenarios.push((format!("llm x{scale:.2}"), scenario));
        }
        Ok(SweepSpec::over_scenarios(scenarios))
    }

    /// A sweep over several labelled scenario variants.
    pub fn over_scenarios(scenarios: Vec<(String, Scenario)>) -> Self {
        SweepSpec {
            scenarios,
            seeds: Vec::new(),
            setpoints: Vec::new(),
            controllers: Vec::new(),
            periods: 100,
        }
    }

    /// Adds a seed to the seed axis. When no seed is added, each scenario
    /// runs with its own embedded seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Adds a set point to the set-point axis.
    #[must_use]
    pub fn setpoint(mut self, watts: f64) -> Self {
        self.setpoints.push(watts);
        self
    }

    /// Adds several set points.
    #[must_use]
    pub fn setpoints(mut self, watts: &[f64]) -> Self {
        self.setpoints.extend_from_slice(watts);
        self
    }

    /// Adds a controller to the controller axis.
    #[must_use]
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controllers.push(spec);
        self
    }

    /// Sets the closed-loop run length in control periods (default 100,
    /// the paper's standard).
    #[must_use]
    pub fn periods(mut self, periods: usize) -> Self {
        self.periods = periods;
        self
    }

    fn n_seeds(&self) -> usize {
        self.seeds.len().max(1)
    }

    /// Number of cells the spec expands to.
    pub fn num_cells(&self) -> usize {
        self.scenarios.len() * self.n_seeds() * self.setpoints.len() * self.controllers.len()
    }

    fn validate(&self) -> Result<()> {
        if self.scenarios.is_empty() {
            return Err(CapGpuError::BadConfig("sweep needs >= 1 scenario".into()));
        }
        if self.setpoints.is_empty() {
            return Err(CapGpuError::BadConfig("sweep needs >= 1 set point".into()));
        }
        if self.controllers.is_empty() {
            return Err(CapGpuError::BadConfig("sweep needs >= 1 controller".into()));
        }
        if self.periods == 0 {
            return Err(CapGpuError::BadConfig("sweep needs >= 1 period".into()));
        }
        Ok(())
    }

    /// The expanded cell grid, in execution/report order.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.num_cells());
        for (si, (label, scenario)) in self.scenarios.iter().enumerate() {
            let seeds: Vec<u64> = if self.seeds.is_empty() {
                vec![scenario.seed]
            } else {
                self.seeds.clone()
            };
            for (di, &seed) in seeds.iter().enumerate() {
                for (pi, &setpoint) in self.setpoints.iter().enumerate() {
                    for (ci, spec) in self.controllers.iter().enumerate() {
                        cells.push(SweepCell {
                            scenario_index: si,
                            scenario_label: label.clone(),
                            seed_index: di,
                            seed,
                            setpoint_index: pi,
                            setpoint,
                            controller_index: ci,
                            controller_label: spec.label(),
                        });
                    }
                }
            }
        }
        cells
    }

    /// The scenario of one `(scenario, seed)` class, seed applied.
    fn class_scenario(&self, class_index: usize) -> Scenario {
        let n_seeds = self.n_seeds();
        let (_, base) = &self.scenarios[class_index / n_seeds];
        let mut scenario = base.clone();
        if !self.seeds.is_empty() {
            scenario.seed = self.seeds[class_index % n_seeds];
        }
        scenario
    }

    /// Identifies one class's runner (set point is per-cell, overwritten
    /// at clone time; identification never reads it).
    fn identify_class(&self, class_index: usize) -> Result<ExperimentRunner> {
        let mut runner =
            ExperimentRunner::new(self.class_scenario(class_index), self.setpoints[0])?;
        runner.identify()?;
        Ok(runner)
    }

    /// Executes one cell, cloning its class's identified runner when the
    /// controller wants it and building a fresh one otherwise.
    fn run_cell(
        &self,
        cell: &SweepCell,
        identified: &[IdentifiedRunner],
    ) -> Result<SweepCellResult> {
        let spec = &self.controllers[cell.controller_index];
        let class_index = cell.scenario_index * self.n_seeds() + cell.seed_index;
        let mut runner = if spec.needs_identification() {
            let mut r = identified[class_index]
                .lock()
                .expect("a cell panicked mid-clone")
                .clone();
            r.set_setpoint(cell.setpoint);
            r
        } else {
            ExperimentRunner::new(self.class_scenario(class_index), cell.setpoint)?
        };
        let controller = spec.build(&mut runner)?;
        let trace = runner.run(controller, self.periods)?;
        Ok(SweepCellResult {
            cell: cell.clone(),
            trace,
            telemetry: runner.telemetry().map(|tm| tm.snapshot()),
        })
    }

    /// The one executor behind both output modes. It identifies each
    /// `(scenario, seed)` class once (when any controller needs it), runs
    /// every cell, turns its result into `cell_value` on the worker that
    /// ran it, and hands the values to `fold` in grid order — by a plain
    /// loop when `threads` is `None`, else across that many threads with
    /// at most `window` values parked (see [`fold_in_order`]). Returns the
    /// cell fold's peak number parked.
    fn execute<T: Send>(
        &self,
        threads: Option<usize>,
        window: usize,
        cell_value: impl Fn(SweepCellResult) -> T + Sync,
        fold: impl FnMut(T) -> Result<()> + Send,
    ) -> Result<usize> {
        self.validate()?;
        let n_classes = self.scenarios.len() * self.n_seeds();
        let mut identified = Vec::new();
        if self
            .controllers
            .iter()
            .any(ControllerSpec::needs_identification)
        {
            identified.reserve(n_classes);
            let work = |class| self.identify_class(class);
            fold_in_order(n_classes, threads, n_classes, work, |runner| {
                identified.push(Mutex::new(runner));
                Ok(())
            })?;
        }
        let cells = self.expand();
        let work = |i: usize| self.run_cell(&cells[i], &identified).map(&cell_value);
        fold_in_order(cells.len(), threads, window, work, fold)
    }

    /// Runs every cell and keeps every result: the fold is a push in grid
    /// order with a window as wide as the grid, so admission never blocks.
    fn collect(&self, threads: Option<usize>) -> Result<SweepReport> {
        let n = self.num_cells();
        let mut cells = Vec::with_capacity(n);
        self.execute(
            threads,
            n,
            |r| r,
            |r| {
                cells.push(r);
                Ok(())
            },
        )?;
        Ok(SweepReport {
            cells,
            n_seeds: self.n_seeds(),
            n_setpoints: self.setpoints.len(),
            n_controllers: self.controllers.len(),
        })
    }

    /// Runs the sweep with the thread count from [`threads_from_env`].
    ///
    /// # Errors
    /// Propagates the first cell or identification error.
    pub fn run(&self) -> Result<SweepReport> {
        self.run_with_threads(threads_from_env())
    }

    /// Runs the sweep serially with plain loops — the reference
    /// implementation the parallel executor must match bit-for-bit.
    ///
    /// # Errors
    /// Propagates the first cell or identification error.
    pub fn run_serial(&self) -> Result<SweepReport> {
        self.collect(None)
    }

    /// Runs the sweep across `threads` OS threads; the report is
    /// bit-identical to [`SweepSpec::run_serial`] regardless of the
    /// thread count or scheduling order.
    ///
    /// # Errors
    /// Propagates the first cell or identification error (remaining work
    /// is abandoned).
    pub fn run_with_threads(&self, threads: usize) -> Result<SweepReport> {
        self.collect(Some(threads))
    }

    // ---- Streaming summary-reduction mode ------------------------------

    /// Reduces one finished cell to its scalar summary; the cell's trace
    /// is dropped immediately afterwards.
    fn summarize(&self, r: &SweepCellResult) -> CellSummary {
        let s = RunSummary::from_trace(&r.trace);
        let mean_miss_rate = if s.miss_rates.is_empty() {
            0.0
        } else {
            s.miss_rates.iter().sum::<f64>() / s.miss_rates.len() as f64
        };
        CellSummary {
            group: r.cell.scenario_index * self.controllers.len() + r.cell.controller_index,
            power_mean: s.power_mean,
            tracking_error: s.tracking_error,
            mean_miss_rate,
        }
    }

    /// One empty group accumulator per `(scenario, controller)` pair,
    /// scenario-major.
    fn make_groups(&self) -> Vec<GroupSummary> {
        let mut groups = Vec::with_capacity(self.scenarios.len() * self.controllers.len());
        for (si, (scenario_label, _)) in self.scenarios.iter().enumerate() {
            for (ci, spec) in self.controllers.iter().enumerate() {
                groups.push(GroupSummary {
                    scenario_index: si,
                    scenario_label: scenario_label.clone(),
                    controller_index: ci,
                    controller_label: spec.label(),
                    cells: 0,
                    power_mean_sum: 0.0,
                    tracking_error_sum: 0.0,
                    miss_rate_sum: 0.0,
                });
            }
        }
        groups
    }

    fn stream_report(&self, groups: Vec<GroupSummary>, peak_pending: usize) -> StreamReport {
        StreamReport {
            cells: groups.iter().map(|g| g.cells).sum(),
            groups,
            peak_pending,
            n_controllers: self.controllers.len(),
        }
    }

    /// Runs every cell and folds each summary into its group in grid
    /// order, with at most [`default_reorder_window`]`(threads)` summaries
    /// parked ahead of the fold frontier.
    fn stream(&self, threads: Option<usize>) -> Result<StreamReport> {
        let mut groups = self.make_groups();
        let window = threads.map_or(0, default_reorder_window);
        let peak_pending = self.execute(
            threads,
            window,
            |r| self.summarize(&r),
            |s| {
                groups[s.group].fold(&s);
                Ok(())
            },
        )?;
        Ok(self.stream_report(groups, peak_pending))
    }

    /// Folds an already-collected full-trace report into the group
    /// accumulators [`SweepSpec::streaming`] produces — same fold code,
    /// same order, so
    /// `spec.summarize_report(&spec.run_serial()?)? == spec.streaming_serial()?`
    /// holds exactly (used by the regression tests and `sweep_stream`).
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] when the spec fails validation.
    pub fn summarize_report(&self, report: &SweepReport) -> Result<StreamReport> {
        self.validate()?;
        let mut groups = self.make_groups();
        for r in &report.cells {
            let s = self.summarize(r);
            groups[s.group].fold(&s);
        }
        Ok(self.stream_report(groups, 0))
    }

    /// Runs the sweep in streaming summary-reduction mode with the thread
    /// count from [`threads_from_env`]: each finished cell is folded into
    /// its `(scenario, controller)` group accumulator in deterministic
    /// grid order and its trace is dropped immediately, keeping memory
    /// `O(groups + classes)` instead of `O(cells)`. The result is
    /// bit-identical for any thread count.
    ///
    /// # Errors
    /// Propagates the first cell or identification error.
    pub fn streaming(&self) -> Result<StreamReport> {
        self.streaming_with_threads(threads_from_env())
    }

    /// Serial reference implementation of [`SweepSpec::streaming`].
    ///
    /// # Errors
    /// Propagates the first cell or identification error.
    pub fn streaming_serial(&self) -> Result<StreamReport> {
        self.stream(None)
    }

    /// Runs the streaming sweep across `threads` OS threads: cell
    /// summaries are folded strictly in grid order with at most
    /// [`default_reorder_window`]`(threads)` of them parked ahead of the
    /// fold frontier, so [`StreamReport::peak_pending`] never exceeds
    /// that window however large the grid is.
    ///
    /// # Errors
    /// Propagates the first cell or identification error (remaining work
    /// is abandoned).
    pub fn streaming_with_threads(&self, threads: usize) -> Result<StreamReport> {
        self.stream(Some(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec::new(Scenario::paper_testbed(7))
            .setpoints(&[900.0, 1000.0])
            .periods(5)
            .controller(ControllerSpec::CapGpu)
            .controller(ControllerSpec::FixedStep { multiplier: 2 })
    }

    #[test]
    fn expansion_order_is_row_major() {
        let spec = small_spec();
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(spec.num_cells(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.setpoint_index, c.controller_index))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
        assert_eq!(cells[0].seed, 7);
        assert_eq!(cells[0].controller_label, "CapGPU");
    }

    #[test]
    fn validation_rejects_empty_axes() {
        let s = Scenario::paper_testbed(1);
        assert!(SweepSpec::new(s.clone()).run_serial().is_err());
        assert!(SweepSpec::new(s.clone())
            .setpoint(900.0)
            .run_serial()
            .is_err());
        assert!(SweepSpec::new(s)
            .setpoint(900.0)
            .controller(ControllerSpec::CapGpu)
            .periods(0)
            .run_serial()
            .is_err());
    }

    #[test]
    fn parallel_matches_serial_for_all_thread_counts() {
        let spec = small_spec();
        let serial = spec.run_serial().expect("serial sweep");
        assert_eq!(serial.len(), 4);
        for threads in [1, 2, 4, 8] {
            let parallel = spec.run_with_threads(threads).expect("parallel sweep");
            assert_eq!(
                serial, parallel,
                "parallel report at {threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn fault_family_bit_identical_across_thread_counts() {
        // Fault storms stress the supervisor's failover path; the sweep
        // must still be a pure function of the spec regardless of how
        // cells are scheduled across threads.
        let spec = SweepSpec::fault_family(42, &[1.0])
            .expect("fault family")
            .setpoint(1000.0)
            .periods(12)
            .controller(ControllerSpec::CapGpu);
        let serial = spec.run_serial().expect("serial sweep");
        assert_eq!(serial.len(), 2);
        for threads in [2, 4, 8] {
            let parallel = spec.run_with_threads(threads).expect("parallel sweep");
            assert_eq!(
                serial, parallel,
                "fault-family report at {threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn llm_family_bit_identical_across_thread_counts() {
        // The LLM plant (continuous batcher, KV accounting, phase-mix
        // signal) lives per-cell; the sweep must remain a pure function
        // of the spec regardless of scheduling.
        let spec = SweepSpec::llm_family(42, &[1.0])
            .expect("llm family")
            .setpoint(1000.0)
            .periods(12)
            .controller(ControllerSpec::CapGpu)
            .controller(ControllerSpec::CapGpuPhaseBlind);
        let serial = spec.run_serial().expect("serial sweep");
        assert_eq!(serial.len(), 2);
        for threads in [2, 4, 8] {
            let parallel = spec.run_with_threads(threads).expect("parallel sweep");
            assert_eq!(
                serial, parallel,
                "llm-family report at {threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn shared_identification_matches_bin_style_run() {
        // Every cell must reproduce exactly what the hand-rolled pattern
        // in the figure bins produces: fresh runner, lazy identification
        // inside the builder, then run — for each controller kind that
        // identifies, not only CapGPU. A custom cell always receives the
        // class's identified runner, even when its builder (here a
        // fixed-step controller) never reads the model.
        let report = SweepSpec::new(Scenario::paper_testbed(7))
            .setpoints(&[900.0, 950.0])
            .periods(5)
            .controller(ControllerSpec::SafeFixedStep { multiplier: 1 })
            .controller(ControllerSpec::GpuOnly)
            .controller(ControllerSpec::Split { gpu_share: 0.4 })
            .controller(ControllerSpec::Split { gpu_share: 0.6 })
            .controller(ControllerSpec::CapGpu)
            .controller(ControllerSpec::CpuOnly)
            .controller(ControllerSpec::CapGpuPhaseBlind)
            .controller(ControllerSpec::custom("identified fixed-step", |r| {
                Ok(Box::new(r.build_fixed_step(1)))
            }))
            .run_serial()
            .expect("sweep");
        assert_eq!(report.cells.len(), 16);
        for result in &report.cells {
            let cell = &result.cell;
            let mut r =
                ExperimentRunner::new(Scenario::paper_testbed(7), cell.setpoint).expect("runner");
            let c: Box<dyn PowerController> = match cell.controller_index {
                0 => Box::new(r.build_safe_fixed_step(1).expect("sfs")),
                1 => Box::new(r.build_gpu_only().expect("gpu-only")),
                2 => Box::new(r.build_split(0.4).expect("split40")),
                3 => Box::new(r.build_split(0.6).expect("split60")),
                4 => Box::new(r.build_capgpu_controller().expect("capgpu")),
                5 => Box::new(r.build_cpu_only().expect("cpu-only")),
                6 => Box::new(r.build_capgpu_phase_blind().expect("phase-blind")),
                _ => {
                    r.identify().expect("identify");
                    Box::new(r.build_fixed_step(1))
                }
            };
            let trace = r.run(c, 5).expect("run");
            assert_eq!(result.trace, trace, "{}", cell.controller_label);
        }
    }

    #[test]
    fn fixed_step_cells_skip_identification() {
        // Fixed-step never identifies in the bins; the engine must hand
        // it a testbed that has not been advanced through excitation.
        let report = SweepSpec::new(Scenario::paper_testbed(7))
            .setpoint(900.0)
            .periods(4)
            .controller(ControllerSpec::FixedStep { multiplier: 1 })
            .controller(ControllerSpec::CapGpu)
            .run_serial()
            .expect("sweep");
        let mut runner = ExperimentRunner::new(Scenario::paper_testbed(7), 900.0).expect("runner");
        let controller = runner.build_fixed_step(1);
        let trace = runner.run(controller, 4).expect("run");
        assert_eq!(report.cells[0].trace, trace);
    }

    #[test]
    fn seed_axis_overrides_scenario_seed() {
        let spec = SweepSpec::new(Scenario::paper_testbed(7))
            .seed(21)
            .seed(22)
            .setpoint(900.0)
            .periods(3)
            .controller(ControllerSpec::FixedStep { multiplier: 1 });
        let report = spec.run_serial().expect("sweep");
        assert_eq!(report.len(), 2);
        assert_eq!(report.cells[0].cell.seed, 21);
        assert_eq!(report.cells[1].cell.seed, 22);
        // Different seeds → different traces.
        assert_ne!(
            report.trace(0, 0, 0, 0).power_series(),
            report.trace(0, 1, 0, 0).power_series()
        );
    }

    #[test]
    fn telemetry_sweep_is_bit_identical_across_thread_counts() {
        use capgpu_telemetry::TelemetryConfig;

        // Deterministic telemetry participates in the report's PartialEq,
        // so bit-identity across schedules covers the snapshots too.
        let spec = SweepSpec::new(
            Scenario::paper_testbed(7).with_telemetry(TelemetryConfig::deterministic()),
        )
        .setpoints(&[900.0, 1000.0])
        .periods(5)
        .controller(ControllerSpec::CapGpu)
        .controller(ControllerSpec::FixedStep { multiplier: 2 });
        let serial = spec.run_serial().expect("serial sweep");
        assert!(serial.cells.iter().all(|c| c.telemetry.is_some()));
        let merged_serial = serial
            .merged_telemetry()
            .expect("merge")
            .expect("snapshots present");
        assert_eq!(
            merged_serial.counter_value("capgpu_periods_total", &[]),
            Some(4 * 5),
            "4 cells × 5 periods each"
        );
        for threads in [2, 4, 8] {
            let parallel = spec.run_with_threads(threads).expect("parallel sweep");
            assert_eq!(
                serial, parallel,
                "telemetry sweep at {threads} threads diverged from serial"
            );
            let merged = parallel
                .merged_telemetry()
                .expect("merge")
                .expect("snapshots present");
            assert_eq!(
                merged.to_prometheus_text(),
                merged_serial.to_prometheus_text(),
                "merged telemetry at {threads} threads diverged"
            );
        }

        // Without telemetry the cells carry no snapshots and the merge
        // folds to None.
        let off = small_spec().run_serial().expect("sweep");
        assert!(off.cells.iter().all(|c| c.telemetry.is_none()));
        assert!(off.merged_telemetry().expect("merge").is_none());
    }

    #[test]
    fn report_indexing_matches_expansion_order() {
        let spec = small_spec();
        let report = spec.run_serial().expect("sweep");
        for (i, cell) in spec.expand().iter().enumerate() {
            let got = report.get(
                cell.scenario_index,
                cell.seed_index,
                cell.setpoint_index,
                cell.controller_index,
            );
            assert_eq!(&got.cell, cell);
            assert_eq!(got, &report.cells[i]);
        }
        assert_eq!(report.traces().count(), 4);
    }

    #[test]
    fn streaming_summary_is_bit_identical_to_full_trace_summary() {
        // The streamed fold must reproduce, bit for bit, what summarizing
        // the fully-retained report produces — and be schedule-invariant.
        let spec = small_spec();
        let full = spec
            .summarize_report(&spec.run_serial().expect("full sweep"))
            .expect("summarize");
        let streamed = spec.streaming_serial().expect("streaming serial");
        assert_eq!(full, streamed);
        assert_eq!(streamed.cells, 4);
        for threads in [1, 2, 4, 8] {
            let parallel = spec
                .streaming_with_threads(threads)
                .expect("streaming parallel");
            assert_eq!(
                streamed, parallel,
                "streamed summary at {threads} threads diverged from serial"
            );
        }
        // Group accessors line up with the grid axes.
        let g = streamed.get(0, 0);
        assert_eq!(g.controller_label, "CapGPU");
        assert_eq!(g.cells, 2, "two setpoints fold into each group");
        assert!(g.mean_power() > 0.0);
    }

    #[test]
    fn streaming_memory_stays_within_reorder_window() {
        // 250 seeds × 10 setpoints × 2 controllers = 5000 cells. In
        // streaming mode the retained state is O(groups + window), not
        // O(cells): with 4 threads at most 2·4 + 16 = 24 summaries may
        // ever be parked out of order.
        let mut spec = SweepSpec::new(Scenario::paper_testbed(1))
            .setpoints(&[
                880.0, 900.0, 920.0, 940.0, 960.0, 980.0, 1000.0, 1020.0, 1040.0, 1060.0,
            ])
            .periods(1)
            .controller(ControllerSpec::FixedStep { multiplier: 1 })
            .controller(ControllerSpec::FixedStep { multiplier: 2 });
        for seed in 0..250 {
            spec = spec.seed(seed);
        }
        assert_eq!(spec.num_cells(), 5000);
        let streamed = spec.streaming_with_threads(4).expect("streaming sweep");
        assert_eq!(streamed.cells, 5000);
        assert!(
            streamed.peak_pending <= 2 * 4 + 16,
            "reorder buffer grew past the window: {}",
            streamed.peak_pending
        );
        assert_eq!(streamed.groups.len(), 2, "one accumulator per group");
        assert_eq!(streamed.get(0, 0).cells, 2500);
        // And the parked-summary shortcut changes nothing.
        assert_eq!(streamed, spec.streaming_serial().expect("serial"));
    }
}
