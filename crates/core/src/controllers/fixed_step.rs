//! Fixed-step and Safe Fixed-step heuristic baselines (§6.1 baseline 1).
//!
//! "All CPUs and GPUs initially operate at their lowest frequency levels.
//! In each control period, if the total system power consumption is below
//! the target set point, the controller selects a CPU or GPU with the
//! highest normalized utilization and increases its frequency level by one
//! fixed step size. If the power exceeds the set point, it selects the
//! component with the lowest utilization and decreases its frequency by
//! one step size. When all components have identical utilization values,
//! the controller chooses among them in a round-robin fashion. … If either
//! the CPU or GPU frequency reaches its upper or lower bound, we alternate
//! adjustments between the two components."
//!
//! §6.2 defines the step *unit* as 100 MHz for CPUs and 90 MHz for GPUs;
//! `step_multiplier` scales both (the paper evaluates step sizes 1 and 5).
//!
//! [`SafeFixedStepController`] is the same logic driven toward
//! `setpoint − margin`, the paper's device for avoiding cap violations at
//! the cost of control accuracy (Fig. 5–6).

use capgpu_sim::DeviceKind;

use crate::Result;

use super::{ControlInput, DeviceLayout, PowerController};

/// CPU step unit in MHz (§6.2).
pub const CPU_STEP_UNIT_MHZ: f64 = 100.0;
/// GPU step unit in MHz (§6.2).
pub const GPU_STEP_UNIT_MHZ: f64 = 90.0;

fn step_unit_mhz(kind: DeviceKind) -> f64 {
    match kind {
        DeviceKind::Cpu => CPU_STEP_UNIT_MHZ,
        DeviceKind::Gpu => GPU_STEP_UNIT_MHZ,
    }
}

/// The Fixed-step heuristic controller.
#[derive(Debug, Clone)]
pub struct FixedStepController {
    layout: DeviceLayout,
    /// Multiplier on the per-kind step units (paper: 1 or 5).
    step_multiplier: usize,
    /// Round-robin cursor for utilization ties.
    rr_cursor: usize,
    name: String,
}

impl FixedStepController {
    /// Creates the controller with the given step multiplier (≥ 1).
    pub fn new(layout: DeviceLayout, step_multiplier: usize) -> Self {
        let name = format!("Fixed-step (x{step_multiplier})");
        FixedStepController {
            layout,
            step_multiplier: step_multiplier.max(1),
            rr_cursor: 0,
            name,
        }
    }

    fn step_mhz(&self, kind: DeviceKind) -> f64 {
        step_unit_mhz(kind) * self.step_multiplier as f64
    }

    /// Picks the device to adjust: extreme normalized utilization wins,
    /// ties (within 1e-9) resolved round-robin; devices pinned at the
    /// relevant bound are skipped.
    fn pick_device(&mut self, input: &ControlInput<'_>, raise: bool) -> Option<usize> {
        let n = self.layout.len();
        let eligible: Vec<usize> = (0..n)
            .filter(|&j| {
                let f = input.current_targets[j];
                if raise {
                    f < self.layout.f_max[j] - 1e-9
                } else {
                    f > input.floors[j].max(self.layout.f_min[j]) + 1e-9
                }
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let key = |j: usize| input.normalized_throughput[j];
        let best_val = eligible.iter().map(|&j| key(j)).fold(
            if raise {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            },
            |acc, v| {
                if raise {
                    acc.max(v)
                } else {
                    acc.min(v)
                }
            },
        );
        let tied: Vec<usize> = eligible
            .iter()
            .copied()
            .filter(|&j| (key(j) - best_val).abs() <= 1e-9)
            .collect();
        let pick = tied[self.rr_cursor % tied.len()];
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        Some(pick)
    }
}

impl PowerController for FixedStepController {
    fn name(&self) -> &str {
        &self.name
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        let mut targets = input.current_targets.to_vec();
        let raise = input.measured_power < input.setpoint;
        if let Some(j) = self.pick_device(input, raise) {
            let step = self.step_mhz(self.layout.kinds[j]);
            let delta = if raise { step } else { -step };
            let floor = input.floors[j].max(self.layout.f_min[j]);
            targets[j] = (targets[j] + delta).clamp(floor, self.layout.f_max[j]);
        }
        Ok(targets)
    }

    fn reset(&mut self) {
        self.rr_cursor = 0;
    }
}

/// Safe Fixed-step: identical stepping, but toward `setpoint − margin` so
/// the oscillation band sits below the cap.
#[derive(Debug, Clone)]
pub struct SafeFixedStepController {
    inner: FixedStepController,
    /// Safety margin in watts ("calculated based on steady-state errors").
    margin_watts: f64,
    name: String,
}

impl SafeFixedStepController {
    /// Creates the controller. A reasonable margin is the worst-case power
    /// impact of one step (step size × largest device gain), which is what
    /// the paper estimates from steady-state oscillation amplitude.
    pub fn new(layout: DeviceLayout, step_multiplier: usize, margin_watts: f64) -> Self {
        let name = format!("Safe Fixed-step (x{step_multiplier}, -{margin_watts:.0} W)");
        SafeFixedStepController {
            inner: FixedStepController::new(layout, step_multiplier),
            margin_watts: margin_watts.max(0.0),
            name,
        }
    }

    /// Creates the controller with the margin an identified model implies:
    /// the worst-case power impact of one step on any device (`gains` are
    /// the model's W/MHz, in device order) plus two standard deviations
    /// of meter noise as headroom.
    pub fn with_model_margin(
        layout: DeviceLayout,
        gains: &[f64],
        step_multiplier: usize,
        meter_noise_std: f64,
    ) -> Self {
        let worst = layout
            .kinds
            .iter()
            .zip(gains)
            .map(|(&kind, g)| (g * step_unit_mhz(kind) * step_multiplier as f64).abs())
            .fold(0.0_f64, f64::max);
        Self::new(layout, step_multiplier, worst + 2.0 * meter_noise_std)
    }
}

impl PowerController for SafeFixedStepController {
    fn name(&self) -> &str {
        &self.name
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        let shifted = ControlInput {
            setpoint: input.setpoint - self.margin_watts,
            ..input.clone()
        };
        self.inner.control(&shifted)
    }

    fn reset(&mut self) {
        self.inner.reset();
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

    fn input<'a>(
        p: f64,
        sp: f64,
        targets: &'a [f64],
        thr: &'a [f64],
        floors: &'a [f64],
    ) -> ControlInput<'a> {
        ControlInput {
            measured_power: p,
            setpoint: sp,
            current_targets: targets,
            normalized_throughput: thr,
            device_power: &[],
            floors,
            phase_mix: None,
        }
    }

    #[test]
    fn raises_highest_utilization_device_when_under() {
        let mut c = FixedStepController::new(layout(), 1);
        let t = vec![1000.0, 435.0, 435.0];
        let out = c
            .control(&input(
                700.0,
                900.0,
                &t,
                &[0.2, 0.9, 0.5],
                &[1000.0, 435.0, 435.0],
            ))
            .unwrap();
        // GPU 1 (highest util) climbs by one 90 MHz step; others unchanged.
        assert_eq!(out, vec![1000.0, 525.0, 435.0]);
    }

    #[test]
    fn lowers_lowest_utilization_device_when_over() {
        let mut c = FixedStepController::new(layout(), 1);
        let t = vec![2000.0, 900.0, 900.0];
        let out = c
            .control(&input(
                950.0,
                900.0,
                &t,
                &[0.2, 0.9, 0.5],
                &[1000.0, 435.0, 435.0],
            ))
            .unwrap();
        // CPU (lowest util) drops by one 100 MHz step.
        assert_eq!(out, vec![1900.0, 900.0, 900.0]);
    }

    #[test]
    fn step_multiplier_scales() {
        let mut c = FixedStepController::new(layout(), 5);
        let t = vec![1000.0, 435.0, 435.0];
        let out = c
            .control(&input(
                700.0,
                900.0,
                &t,
                &[0.2, 0.9, 0.5],
                &[1000.0, 435.0, 435.0],
            ))
            .unwrap();
        assert_eq!(out[1], 435.0 + 450.0);
    }

    #[test]
    fn round_robin_on_ties() {
        let mut c = FixedStepController::new(layout(), 1);
        let floors = [1000.0, 435.0, 435.0];
        let mut t = vec![1000.0, 435.0, 435.0];
        let mut touched = std::collections::HashSet::new();
        for _ in 0..3 {
            let out = c
                .control(&input(700.0, 900.0, &t, &[0.5, 0.5, 0.5], &floors))
                .unwrap();
            for j in 0..3 {
                if (out[j] - t[j]).abs() > 1e-9 {
                    touched.insert(j);
                }
            }
            t = out;
        }
        assert_eq!(touched.len(), 3, "round-robin should touch every device");
    }

    #[test]
    fn saturated_devices_are_skipped() {
        let mut c = FixedStepController::new(layout(), 1);
        // GPU 1 already at max; highest util but ineligible for raising.
        let t = vec![1000.0, 1350.0, 435.0];
        let out = c
            .control(&input(
                700.0,
                900.0,
                &t,
                &[0.2, 0.9, 0.5],
                &[1000.0, 435.0, 435.0],
            ))
            .unwrap();
        assert_eq!(out[1], 1350.0);
        assert_eq!(out[2], 525.0); // next-highest util climbs instead
    }

    #[test]
    fn floors_limit_downsteps() {
        let mut c = FixedStepController::new(layout(), 5);
        let t = vec![1000.0, 500.0, 900.0];
        // GPU 1 has floor 480: a 450 MHz down-step clamps to the floor…
        let out = c
            .control(&input(
                950.0,
                900.0,
                &t,
                &[0.9, 0.1, 0.5],
                &[1000.0, 480.0, 435.0],
            ))
            .unwrap();
        assert_eq!(out[1], 480.0);
    }

    #[test]
    fn all_saturated_is_a_noop() {
        let mut c = FixedStepController::new(layout(), 1);
        let t = vec![2400.0, 1350.0, 1350.0];
        let out = c
            .control(&input(
                700.0,
                900.0,
                &t,
                &[0.5, 0.5, 0.5],
                &[1000.0, 435.0, 435.0],
            ))
            .unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn safe_variant_targets_shifted_setpoint() {
        let mut plain = FixedStepController::new(layout(), 1);
        let mut safe = SafeFixedStepController::new(layout(), 1, 30.0);
        // measured 880 W: plain (target 900) raises, safe (target 870) lowers.
        let t = vec![2000.0, 900.0, 900.0];
        let thr = [0.5, 0.9, 0.2];
        let floors = [1000.0, 435.0, 435.0];
        let up = plain
            .control(&input(880.0, 900.0, &t, &thr, &floors))
            .unwrap();
        let down = safe
            .control(&input(880.0, 900.0, &t, &thr, &floors))
            .unwrap();
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        assert!(sum(&up) > sum(&t));
        assert!(sum(&down) < sum(&t));
    }
}
