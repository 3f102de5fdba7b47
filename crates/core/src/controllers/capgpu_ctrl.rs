//! The CapGPU controller: MIMO MPC + throughput-driven weight assignment.

use capgpu_control::model::LinearPowerModel;
use capgpu_control::mpc::{MpcConfig, MpcController};

use crate::weights::WeightAssigner;
use crate::Result;

use super::{ControlDiagnostics, ControlInput, DeviceLayout, PowerController};

/// The paper's controller (§4): a condensed MIMO model-predictive power
/// controller over all devices, with per-device control-penalty weights
/// derived from normalized throughput and per-GPU SLO frequency floors
/// passed through as hard constraints.
#[derive(Debug)]
pub struct CapGpuController {
    mpc: MpcController,
    weights: WeightAssigner,
    name: String,
    /// Diagnostics of the most recent solve (telemetry).
    last_diag: Option<ControlDiagnostics>,
}

impl CapGpuController {
    /// Builds the controller from a device layout and an identified power
    /// model, using the paper's MPC configuration, labelled "CapGPU".
    ///
    /// # Errors
    /// Propagates MPC construction errors (device-count mismatch etc.).
    pub fn new(
        layout: &DeviceLayout,
        model: LinearPowerModel,
        weights: WeightAssigner,
    ) -> Result<Self> {
        Self::labelled(layout, model, weights, "CapGPU")
    }

    /// As [`CapGpuController::new`], under another label (ablation arms).
    ///
    /// # Errors
    /// Propagates MPC construction errors.
    pub fn labelled(
        layout: &DeviceLayout,
        model: LinearPowerModel,
        weights: WeightAssigner,
        name: impl Into<String>,
    ) -> Result<Self> {
        let config = MpcConfig::paper_defaults(layout.f_min.clone(), layout.f_max.clone());
        Ok(CapGpuController {
            mpc: MpcController::new(config, model)?,
            weights,
            name: name.into(),
            last_diag: None,
        })
    }

    /// Replaces the power model (online re-identification).
    ///
    /// # Errors
    /// Propagates device-count mismatches.
    pub fn set_model(&mut self, model: LinearPowerModel) -> Result<()> {
        self.mpc.set_model(model)?;
        Ok(())
    }

    /// Access to the inner MPC (stability analysis, ablations).
    pub fn mpc(&self) -> &MpcController {
        &self.mpc
    }
}

impl PowerController for CapGpuController {
    fn name(&self) -> &str {
        &self.name
    }

    fn uses_delta_sigma(&self) -> bool {
        true
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        let r_weights = self
            .weights
            .control_penalties_with_phase(input.normalized_throughput, input.phase_mix);
        let step = self.mpc.step(
            input.measured_power,
            input.setpoint,
            input.current_targets,
            &r_weights,
            input.floors,
        )?;
        self.last_diag = Some(ControlDiagnostics {
            solver_iterations: step.qp_iterations,
            active_constraints: step.active_constraints,
            slo_floor_binding: step.slo_floor_binding,
            floor_clamped: step.floor_clamped,
            predicted_power: step.predicted_power,
        });
        Ok(step.target_freqs)
    }

    fn set_power_model(&mut self, model: &LinearPowerModel) -> Result<()> {
        self.set_model(model.clone())
    }

    fn diagnostics(&self) -> Option<ControlDiagnostics> {
        self.last_diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_sim::DeviceKind;

    fn layout() -> DeviceLayout {
        DeviceLayout::new(
            vec![DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Gpu],
            vec![1000.0, 435.0, 435.0],
            vec![2400.0, 1350.0, 1350.0],
        )
        .unwrap()
    }

    fn model() -> LinearPowerModel {
        LinearPowerModel::new(vec![0.05, 0.15, 0.15], 300.0).unwrap()
    }

    fn input<'a>(
        p: f64,
        sp: f64,
        targets: &'a [f64],
        thr: &'a [f64],
        power: &'a [f64],
        floors: &'a [f64],
    ) -> ControlInput<'a> {
        ControlInput {
            measured_power: p,
            setpoint: sp,
            current_targets: targets,
            normalized_throughput: thr,
            device_power: power,
            floors,
            phase_mix: None,
        }
    }

    #[test]
    fn closes_the_loop_to_setpoint() {
        let mut c = CapGpuController::new(&layout(), model(), WeightAssigner::default()).unwrap();
        assert_eq!(c.name(), "CapGPU");
        let plant = model();
        let mut f = vec![1000.0, 435.0, 435.0];
        let mut p = plant.predict(&f);
        for _ in 0..30 {
            let inp = input(
                p,
                550.0,
                &f,
                &[0.8, 1.0, 0.6],
                &[0.0; 3],
                &[1000.0, 435.0, 435.0],
            );
            f = c.control(&inp).unwrap();
            p = plant.predict(&f);
        }
        assert!((p - 550.0).abs() < 5.0, "p = {p}");
    }

    #[test]
    fn busier_gpu_ends_up_faster() {
        let mut c = CapGpuController::new(&layout(), model(), WeightAssigner::default()).unwrap();
        let plant = model();
        let mut f = vec![1000.0, 800.0, 800.0];
        let mut p = plant.predict(&f);
        for _ in 0..30 {
            // GPU 1 (index 1) at full throughput, GPU 2 (index 2) at 30%.
            let inp = input(
                p,
                560.0,
                &f,
                &[0.5, 1.0, 0.3],
                &[0.0; 3],
                &[1000.0, 435.0, 435.0],
            );
            f = c.control(&inp).unwrap();
            p = plant.predict(&f);
        }
        assert!(f[1] > f[2] + 50.0, "busy GPU should run faster: {f:?}");
    }

    #[test]
    fn slo_floor_respected() {
        let mut c = CapGpuController::new(&layout(), model(), WeightAssigner::default()).unwrap();
        let f = vec![1400.0, 600.0, 600.0];
        let inp = input(
            500.0,
            500.0,
            &f,
            &[1.0, 1.0, 1.0],
            &[0.0; 3],
            &[1000.0, 1000.0, 435.0],
        );
        let out = c.control(&inp).unwrap();
        assert!(out[1] >= 1000.0 - 1e-6, "{out:?}");
    }

    #[test]
    fn phase_mix_keeps_decode_bound_gpu_faster() {
        use crate::weights::PhaseMix;
        // Same normalized throughput on both GPUs; GPU 1 is
        // prefill-heavy (cap-elastic), GPU 2 decode-bound. The
        // phase-aware controller must shed the cap on GPU 1.
        let mix = [
            PhaseMix::neutral(), // CPU
            PhaseMix {
                prefill_share: 0.9,
                kv_occupancy: 0.1,
                tokens_per_s: 5000.0,
            },
            PhaseMix {
                prefill_share: 0.1,
                kv_occupancy: 0.7,
                tokens_per_s: 1500.0,
            },
        ];
        let run = |weights: WeightAssigner| {
            let mut c = CapGpuController::new(&layout(), model(), weights).unwrap();
            let plant = model();
            let mut f = vec![1000.0, 800.0, 800.0];
            let mut p = plant.predict(&f);
            for _ in 0..30 {
                let inp = ControlInput {
                    measured_power: p,
                    setpoint: 560.0,
                    current_targets: &f,
                    normalized_throughput: &[0.5, 0.6, 0.6],
                    device_power: &[0.0; 3],
                    floors: &[1000.0, 435.0, 435.0],
                    phase_mix: Some(&mix),
                };
                f = c.control(&inp).unwrap();
                p = plant.predict(&f);
            }
            (f, p)
        };
        let (aware, p_aware) = run(WeightAssigner::PhaseAware);
        let (blind, p_blind) = run(WeightAssigner::PhaseBlind);
        // Both settle at the cap...
        assert!((p_aware - 560.0).abs() < 5.0 && (p_blind - 560.0).abs() < 5.0);
        // ...but only the phase-aware one keeps the decode GPU faster.
        assert!(
            aware[2] > aware[1] + 50.0,
            "decode GPU should run faster: {aware:?}"
        );
        assert!(
            aware[2] > blind[2] + 25.0,
            "phase-aware {aware:?} vs blind {blind:?}"
        );
    }

    #[test]
    fn model_swap() {
        let mut c = CapGpuController::new(&layout(), model(), WeightAssigner::default()).unwrap();
        let new_model = LinearPowerModel::new(vec![0.06, 0.2, 0.2], 280.0).unwrap();
        c.set_model(new_model).unwrap();
        let bad = LinearPowerModel::new(vec![0.06], 280.0).unwrap();
        assert!(c.set_model(bad).is_err());
    }
}
