//! Power controllers: CapGPU and all four baselines of §6.1.
//!
//! Every controller implements [`PowerController`]: once per control
//! period it receives the measured average power, the set point, the
//! current frequency targets and the monitoring data, and returns new
//! (possibly fractional) per-device frequency targets. The experiment
//! runner realizes fractional targets with per-device delta-sigma
//! modulators.

mod capgpu_ctrl;
pub mod fixed_step;
mod proportional;

pub use capgpu_ctrl::CapGpuController;
pub use fixed_step::{FixedStepController, SafeFixedStepController};
pub use proportional::{
    CpuGpuSplitController, CpuOnlyController, GpuOnlyController, SingleKnobController,
};

use capgpu_control::model::LinearPowerModel;
use capgpu_sim::DeviceKind;

use crate::{CapGpuError, Result};

/// Static description of the actuated devices, shared by all controllers.
#[derive(Debug, Clone)]
pub struct DeviceLayout {
    /// Device kinds in index order (CPUs and GPUs).
    pub kinds: Vec<DeviceKind>,
    /// Per-device minimum frequency (MHz).
    pub f_min: Vec<f64>,
    /// Per-device maximum frequency (MHz).
    pub f_max: Vec<f64>,
}

impl DeviceLayout {
    /// Validates and returns the layout.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on inconsistent lengths or bounds.
    pub fn new(kinds: Vec<DeviceKind>, f_min: Vec<f64>, f_max: Vec<f64>) -> Result<Self> {
        let n = kinds.len();
        if n == 0 {
            return Err(CapGpuError::BadConfig("layout needs >= 1 device".into()));
        }
        if f_min.len() != n || f_max.len() != n {
            return Err(CapGpuError::BadConfig("layout length mismatch".into()));
        }
        if f_min.iter().zip(f_max.iter()).any(|(lo, hi)| lo >= hi) {
            return Err(CapGpuError::BadConfig("layout needs f_min < f_max".into()));
        }
        Ok(DeviceLayout {
            kinds,
            f_min,
            f_max,
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Indices of CPU devices.
    pub fn cpu_indices(&self) -> Vec<usize> {
        self.indices_of(DeviceKind::Cpu)
    }

    /// Indices of GPU devices.
    pub fn gpu_indices(&self) -> Vec<usize> {
        self.indices_of(DeviceKind::Gpu)
    }

    fn indices_of(&self, kind: DeviceKind) -> Vec<usize> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == kind)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Everything a controller may observe at the end of a control period.
#[derive(Debug, Clone)]
pub struct ControlInput<'a> {
    /// Average server power over the elapsed control period (W).
    pub measured_power: f64,
    /// Desired power set point `P_s` (W).
    pub setpoint: f64,
    /// The fractional frequency targets currently in force (MHz).
    pub current_targets: &'a [f64],
    /// Normalized per-device throughput from the monitors (∈ [0, 1]).
    pub normalized_throughput: &'a [f64],
    /// Per-device power readings (W) à la RAPL / `nvidia-smi` — only the
    /// split-budget baseline uses these; CapGPU needs only total power.
    pub device_power: &'a [f64],
    /// SLO-derived per-device frequency floors (MHz; equals `f_min` when
    /// no SLO applies).
    pub floors: &'a [f64],
    /// Per-device serving-phase mix from the LLM layer, device-indexed
    /// (`None` outside LLM serving — pipeline and one-shot plants). Only
    /// phase-aware CapGPU consumes it; every other controller ignores it.
    pub phase_mix: Option<&'a [crate::weights::PhaseMix]>,
}

/// Per-period solver diagnostics a controller may expose for telemetry
/// (all deterministic — derived from the solve, not wall clocks).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControlDiagnostics {
    /// Iterations the period's optimization took: always 0, since every
    /// shipped controller, the MPC included, is closed-form. Kept because
    /// the repository benchmark reads it; it goes when that benchmark
    /// stops reading it.
    pub solver_iterations: usize,
    /// Constraint rows active at the optimum.
    pub active_constraints: usize,
    /// Whether an SLO-raised frequency floor — the paper's (10b) latency
    /// bound — was binding this period.
    pub slo_floor_binding: bool,
    /// Whether an SLO floor had to be clamped to the device range
    /// (best-effort infeasibility).
    pub floor_clamped: bool,
    /// Power the model predicts after the commanded move (W).
    pub predicted_power: f64,
}

/// A power-capping controller, invoked once per control period.
pub trait PowerController {
    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Computes the next per-device fractional frequency targets.
    ///
    /// # Errors
    /// Implementation-specific; the runner aborts the run on error.
    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>>;

    /// Resets internal state (e.g. on a set-point step). Default: no-op.
    fn reset(&mut self) {}

    /// Whether the runner should realize this controller's fractional
    /// targets with delta-sigma modulation. Per the paper (§6.2) only
    /// CapGPU uses the modulator; the baselines' targets are simply
    /// rounded to the nearest supported clock.
    fn uses_delta_sigma(&self) -> bool {
        false
    }

    /// Accepts a re-identified power model (§6.4 online adaptation / the
    /// runner's continuous RLS tracking). Controllers that carry no model
    /// ignore the refresh — the default is a no-op — so the runner can
    /// push refits through `impl PowerController` generically.
    ///
    /// # Errors
    /// Implementation-specific (e.g. device-count mismatch).
    fn set_power_model(&mut self, _model: &LinearPowerModel) -> Result<()> {
        Ok(())
    }

    /// Diagnostics of the most recent [`control`](Self::control) call,
    /// for telemetry. `None` (the default) for controllers that expose
    /// none; the runner records whatever is offered.
    fn diagnostics(&self) -> Option<ControlDiagnostics> {
        None
    }
}

impl<T: PowerController + ?Sized> PowerController for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        (**self).control(input)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn uses_delta_sigma(&self) -> bool {
        (**self).uses_delta_sigma()
    }

    fn set_power_model(&mut self, model: &LinearPowerModel) -> Result<()> {
        (**self).set_power_model(model)
    }

    fn diagnostics(&self) -> Option<ControlDiagnostics> {
        (**self).diagnostics()
    }
}

impl PowerController for Box<dyn PowerController> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        self.as_mut().control(input)
    }

    fn reset(&mut self) {
        self.as_mut().reset();
    }

    fn uses_delta_sigma(&self) -> bool {
        self.as_ref().uses_delta_sigma()
    }

    fn set_power_model(&mut self, model: &LinearPowerModel) -> Result<()> {
        self.as_mut().set_power_model(model)
    }

    fn diagnostics(&self) -> Option<ControlDiagnostics> {
        self.as_ref().diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_indices() {
        let l = DeviceLayout::new(
            vec![DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Gpu],
            vec![1000.0, 435.0, 435.0],
            vec![2400.0, 1350.0, 1350.0],
        )
        .unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.cpu_indices(), vec![0]);
        assert_eq!(l.gpu_indices(), vec![1, 2]);
    }

    #[test]
    fn layout_validation() {
        assert!(DeviceLayout::new(vec![], vec![], vec![]).is_err());
        assert!(DeviceLayout::new(vec![DeviceKind::Cpu], vec![1000.0, 2.0], vec![2400.0]).is_err());
        assert!(DeviceLayout::new(vec![DeviceKind::Cpu], vec![2400.0], vec![1000.0]).is_err());
    }
}
