//! The three proportional baselines of §6.1, over one loop.
//!
//! * **GPU-Only** (baseline 2, after OptimML): a pole-placed proportional
//!   controller drives total server power by moving a **single shared GPU
//!   clock** applied to every GPU; the CPU is pinned at its maximum
//!   frequency ("the CPU frequency must be set to the maximum level
//!   throughout the process"). Converges cleanly but cannot differentiate
//!   GPUs — the source of its SLO violations in Fig. 8.
//! * **CPU-Only** (baseline 3, after IBM server-level control): "retains
//!   the proportional control logic of GPU-Only but actuates only the CPU
//!   DVFS knobs … applies a single frequency to all the CPU cores of the
//!   server." GPUs are left at their maximum clock (the workload wants
//!   them fast; this controller simply has no GPU authority — which is
//!   exactly why it cannot cap a GPU server, Fig. 3).
//! * **CPU+GPU** (baseline 4, after PowerCoord): "two separate power
//!   control loops to independently control the CPU and GPU power by
//!   respectively adapting their frequencies … Given a total power budget
//!   for the GPU server, CPU+GPU simply divides the budget using fixed
//!   values." Each loop regulates its *subsystem* power (read RAPL-style /
//!   `nvidia-smi`-style from `device_power`), so the total server power
//!   only converges to the cap if the chosen split happens to match the
//!   workload **and** the un-budgeted platform power — the structural
//!   weakness Figs. 3 and 6 expose.

use capgpu_control::pid::ProportionalController;
use capgpu_sim::DeviceKind;

use crate::{CapGpuError, Result};

use super::{ControlInput, DeviceLayout, PowerController};

/// The closed-loop pole every baseline loop is placed at, per §6.1
/// ("chosen to minimize oscillations").
const BASELINE_POLE: f64 = 0.5;

/// One pole-placed proportional loop whose single clock is written to
/// every device of one kind.
#[derive(Debug)]
struct KindLoop {
    indices: Vec<usize>,
    pid: ProportionalController,
    /// The shared clock currently commanded (MHz).
    clock: f64,
}

impl KindLoop {
    /// `summed_gain` is the plant gain seen by the shared knob — the sum
    /// of the devices' W/MHz gains (from system identification); the
    /// pole is [`BASELINE_POLE`]. The devices share one clock, so the loop
    /// runs over the tightest range common to all of them and starts at
    /// one of its ends.
    fn new(
        layout: &DeviceLayout,
        indices: Vec<usize>,
        summed_gain: f64,
        start_at_max: bool,
    ) -> Result<Self> {
        let f_min = (indices.iter().map(|&i| layout.f_min[i])).fold(f64::NEG_INFINITY, f64::max);
        let f_max = (indices.iter().map(|&i| layout.f_max[i])).fold(f64::INFINITY, f64::min);
        let pid = ProportionalController::pole_placed(summed_gain, BASELINE_POLE, f_min, f_max)?;
        Ok(KindLoop {
            indices,
            pid,
            clock: if start_at_max { f_max } else { f_min },
        })
    }

    fn step(&mut self, measured_w: f64, budget_w: f64, targets: &mut [f64]) {
        self.clock = self.pid.step(measured_w, budget_w, self.clock);
        for &i in &self.indices {
            targets[i] = self.clock;
        }
    }
}

/// One proportional loop on total server power — over the GPUs when `GPU`,
/// the CPUs otherwise — with every other device pinned at its maximum
/// clock. GPU-Only starts its clock at the range's minimum, CPU-Only at
/// its maximum.
#[derive(Debug)]
pub struct SingleKnobController<const GPU: bool> {
    knob: KindLoop,
    /// `(index, f_max)` of every device the loop does not actuate.
    pinned: Vec<(usize, f64)>,
}

/// The GPU-Only proportional controller.
pub type GpuOnlyController = SingleKnobController<true>;

/// The CPU-Only proportional controller.
pub type CpuOnlyController = SingleKnobController<false>;

impl<const GPU: bool> SingleKnobController<GPU> {
    /// Creates the controller from the summed gain (W/MHz) of the devices
    /// it actuates.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] if the layout has no device of the
    /// actuated kind; propagates pole-placement errors.
    pub fn new(layout: DeviceLayout, summed_gain: f64) -> Result<Self> {
        let (kind, missing) = if GPU {
            (DeviceKind::Gpu, "GPU-Only needs >= 1 GPU")
        } else {
            (DeviceKind::Cpu, "CPU-Only needs >= 1 CPU")
        };
        let indices = layout.indices_of(kind);
        if indices.is_empty() {
            return Err(CapGpuError::BadConfig(missing.into()));
        }
        let pinned = (0..layout.len())
            .filter(|&i| layout.kinds[i] != kind)
            .map(|i| (i, layout.f_max[i]))
            .collect();
        let knob = KindLoop::new(&layout, indices, summed_gain, !GPU)?;
        Ok(SingleKnobController { knob, pinned })
    }
}

impl<const GPU: bool> PowerController for SingleKnobController<GPU> {
    fn name(&self) -> &str {
        if GPU {
            "GPU-Only"
        } else {
            "CPU-Only"
        }
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        let mut targets = input.current_targets.to_vec();
        self.knob
            .step(input.measured_power, input.setpoint, &mut targets);
        for &(i, f_max) in &self.pinned {
            targets[i] = f_max;
        }
        Ok(targets)
    }
}

/// The fixed-split two-loop controller.
#[derive(Debug)]
pub struct CpuGpuSplitController {
    n_devices: usize,
    cpu: KindLoop,
    gpu: KindLoop,
    /// Fraction of the total budget assigned to the GPUs.
    gpu_share: f64,
    name: String,
}

impl CpuGpuSplitController {
    /// Creates the controller with a fixed GPU budget share (e.g. 0.5 or
    /// 0.6 as evaluated in the paper); both clocks start at their minimum.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] without both CPUs and GPUs or for a share
    /// outside `(0, 1)`; pole-placement errors.
    pub fn new(
        layout: DeviceLayout,
        summed_cpu_gain: f64,
        summed_gpu_gain: f64,
        gpu_share: f64,
    ) -> Result<Self> {
        if !(0.0..1.0).contains(&gpu_share) || gpu_share == 0.0 {
            return Err(CapGpuError::BadConfig("gpu_share must be in (0,1)".into()));
        }
        let cpu_indices = layout.cpu_indices();
        let gpu_indices = layout.gpu_indices();
        if cpu_indices.is_empty() || gpu_indices.is_empty() {
            return Err(CapGpuError::BadConfig(
                "split controller needs CPUs and GPUs".into(),
            ));
        }
        Ok(CpuGpuSplitController {
            n_devices: layout.len(),
            cpu: KindLoop::new(&layout, cpu_indices, summed_cpu_gain, false)?,
            gpu: KindLoop::new(&layout, gpu_indices, summed_gpu_gain, false)?,
            gpu_share,
            name: format!("CPU+GPU ({:.0}% GPU)", gpu_share * 100.0),
        })
    }
}

impl PowerController for CpuGpuSplitController {
    fn name(&self) -> &str {
        &self.name
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        if input.device_power.len() != self.n_devices {
            return Err(CapGpuError::BadConfig(
                "split controller needs per-device power readings".into(),
            ));
        }
        let subsystem_power =
            |l: &KindLoop| -> f64 { l.indices.iter().map(|&i| input.device_power[i]).sum() };
        let cpu_power = subsystem_power(&self.cpu);
        let gpu_power = subsystem_power(&self.gpu);
        let gpu_budget = self.gpu_share * input.setpoint;
        let cpu_budget = (1.0 - self.gpu_share) * input.setpoint;
        let mut targets = input.current_targets.to_vec();
        self.cpu.step(cpu_power, cpu_budget, &mut targets);
        self.gpu.step(gpu_power, gpu_budget, &mut targets);
        Ok(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> DeviceLayout {
        DeviceLayout::new(
            vec![
                DeviceKind::Cpu,
                DeviceKind::Gpu,
                DeviceKind::Gpu,
                DeviceKind::Gpu,
            ],
            vec![1000.0, 435.0, 435.0, 435.0],
            vec![2400.0, 1350.0, 1350.0, 1350.0],
        )
        .unwrap()
    }

    fn input<'a>(p: f64, sp: f64, targets: &'a [f64]) -> ControlInput<'a> {
        ControlInput {
            measured_power: p,
            setpoint: sp,
            current_targets: targets,
            normalized_throughput: &[],
            device_power: &[],
            floors: &[],
            phase_mix: None,
        }
    }

    fn make(share: f64) -> CpuGpuSplitController {
        CpuGpuSplitController::new(layout(), 0.05, 3.0 * 0.1475, share).unwrap()
    }

    #[test]
    fn all_gpus_share_one_clock_cpu_pinned() {
        let mut c = GpuOnlyController::new(layout(), 3.0 * 0.1475).unwrap();
        let t = vec![1500.0, 700.0, 900.0, 1100.0];
        let out = c.control(&input(800.0, 900.0, &t)).unwrap();
        assert_eq!(out[0], 2400.0); // CPU pinned at max
        assert_eq!(out[1], out[2]);
        assert_eq!(out[2], out[3]);
    }

    #[test]
    fn converges_on_linear_plant() {
        let gain = 3.0 * 0.1475;
        let mut c = GpuOnlyController::new(layout(), gain).unwrap();
        // Plant: p = 300 + cpu_power(max) + gain · shared_clock.
        let cpu_w = 170.0;
        let mut t = vec![2400.0, 435.0, 435.0, 435.0];
        let mut p = 300.0 + cpu_w + gain * 435.0;
        for _ in 0..40 {
            t = c.control(&input(p, 900.0, &t)).unwrap();
            p = 300.0 + cpu_w + gain * t[1];
        }
        assert!((p - 900.0).abs() < 1.0, "p = {p}");
    }

    #[test]
    fn needs_gpus() {
        let cpu_only_layout =
            DeviceLayout::new(vec![DeviceKind::Cpu], vec![1000.0], vec![2400.0]).unwrap();
        assert!(GpuOnlyController::new(cpu_only_layout, 0.4).is_err());
    }

    #[test]
    fn actuates_cpu_pins_gpus_at_max() {
        let mut c = CpuOnlyController::new(layout(), 0.05).unwrap();
        let t = vec![1500.0, 700.0, 900.0, 1100.0];
        let out = c.control(&input(1000.0, 900.0, &t)).unwrap();
        assert_eq!(out[1], 1350.0);
        assert_eq!(out[2], 1350.0);
        assert_eq!(out[3], 1350.0);
        assert!(out[0] < 1500.0, "over budget → CPU must drop: {out:?}");
    }

    #[test]
    fn cannot_cap_below_gpu_floor() {
        // The central claim of Fig. 3: with GPUs pinned at max, the CPU's
        // range is far too small to reach a 900 W cap on a GPU server.
        let gain = 0.05;
        let mut c = CpuOnlyController::new(layout(), gain).unwrap();
        // Plant: GPUs pinned at max draw ~3×250 W, platform 300 W.
        let fixed = 300.0 + 3.0 * 250.0;
        let mut t = vec![2400.0, 1350.0, 1350.0, 1350.0];
        let mut p = fixed + gain * t[0];
        for _ in 0..60 {
            t = c.control(&input(p, 900.0, &t)).unwrap();
            p = fixed + gain * t[0];
        }
        // CPU saturates at its minimum; power floor ≈ 1100 W >> 900 W.
        assert_eq!(t[0], 1000.0);
        assert!(p > 1000.0, "CPU-Only magically capped to {p} W");
    }

    #[test]
    fn needs_cpus() {
        let gpu_layout =
            DeviceLayout::new(vec![DeviceKind::Gpu], vec![435.0], vec![1350.0]).unwrap();
        assert!(CpuOnlyController::new(gpu_layout, 0.05).is_err());
    }

    #[test]
    fn loops_track_their_own_budgets() {
        let mut c = make(0.6);
        // Simulated plant: cpu power = 50 + 0.05 f_c; each gpu 50 + 0.1475 f_g.
        let mut t = vec![1000.0, 435.0, 435.0, 435.0];
        let setpoint = 1000.0;
        let mut dev_power = vec![0.0; 4];
        for _ in 0..60 {
            dev_power[0] = 50.0 + 0.05 * t[0];
            for i in 1..4 {
                dev_power[i] = 50.0 + 0.1475 * t[i];
            }
            let input = ControlInput {
                measured_power: 300.0 + dev_power.iter().sum::<f64>(),
                setpoint,
                current_targets: &t,
                normalized_throughput: &[],
                device_power: &dev_power,
                floors: &[],
                phase_mix: None,
            };
            t = c.control(&input).unwrap();
        }
        let gpu_power: f64 = (1..4).map(|i| 50.0 + 0.1475 * t[i]).sum();
        // GPU budget = 600 W; 3 GPUs can reach it (max ~747 W).
        assert!((gpu_power - 600.0).abs() < 5.0, "gpu power {gpu_power}");
        // CPU budget = 400 W is unreachable (max ~170 W): clock pegged max.
        assert_eq!(t[0], 2400.0);
    }

    #[test]
    fn total_power_misses_cap_with_platform_power() {
        // The structural flaw: subsystem budgets ignore the 300 W platform
        // draw, so total power ≠ set point even when both loops "succeed".
        let mut c = make(0.6);
        let mut t = vec![1000.0, 435.0, 435.0, 435.0];
        let setpoint = 1000.0;
        let mut total = 0.0;
        let mut dev_power = vec![0.0; 4];
        for _ in 0..60 {
            dev_power[0] = 50.0 + 0.05 * t[0];
            for i in 1..4 {
                dev_power[i] = 50.0 + 0.1475 * t[i];
            }
            total = 300.0 + dev_power.iter().sum::<f64>();
            let input = ControlInput {
                measured_power: total,
                setpoint,
                current_targets: &t,
                normalized_throughput: &[],
                device_power: &dev_power,
                floors: &[],
                phase_mix: None,
            };
            t = c.control(&input).unwrap();
        }
        assert!(
            (total - setpoint).abs() > 30.0,
            "split control should miss the total cap, got {total}"
        );
    }

    #[test]
    fn validation() {
        assert!(CpuGpuSplitController::new(layout(), 0.05, 0.44, 0.0).is_err());
        assert!(CpuGpuSplitController::new(layout(), 0.05, 0.44, 1.0).is_err());
        let gpu_only = DeviceLayout::new(vec![DeviceKind::Gpu], vec![435.0], vec![1350.0]).unwrap();
        assert!(CpuGpuSplitController::new(gpu_only, 0.05, 0.44, 0.5).is_err());
    }

    #[test]
    fn requires_device_power() {
        let mut c = make(0.5);
        let t = vec![1000.0, 435.0, 435.0, 435.0];
        let input = ControlInput {
            measured_power: 900.0,
            setpoint: 900.0,
            current_targets: &t,
            normalized_throughput: &[],
            device_power: &[],
            floors: &[],
            phase_mix: None,
        };
        assert!(c.control(&input).is_err());
    }
}
