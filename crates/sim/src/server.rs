//! The assembled simulated server: devices + platform power + meter.
//!
//! One [`Server`] instance stands in for the paper's hardware testbed. The
//! control loop interacts with it exactly as it would with the real
//! machine:
//!
//! 1. set per-device target frequencies (quantized to the device's clock
//!    table, like `cpupower frequency-set` / `nvidia-smi -ac`),
//! 2. advance wall-clock time one second at a time, supplying each
//!    device's utilization for that second (produced by the workload
//!    simulator),
//! 3. read the power meter's per-control-period average.
//!
//! All stochastic elements (sensor noise, platform drift phase) come from
//! a single seeded RNG, so traces are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::device::{DeviceSpec, DeviceState};
use crate::meter::{MeterFault, PowerMeter, METER_HISTORY_SAMPLES};
use crate::thermal::ThermalState;
use crate::{Result, SimError};

/// Injected per-device actuator fault — failures of the *command* path
/// (`nvidia-smi -ac` / `cpupower frequency-set`), as opposed to the
/// telemetry faults in [`MeterFault`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActuatorFault {
    /// The clock is frozen at its current applied value: commands are
    /// accepted (the target is recorded) but never take effect.
    StuckClock,
    /// The device has fallen off the bus: it draws no power, performs no
    /// work, and ignores commands. Clearing the fault models
    /// re-admission — the device re-enters at its minimum clock with
    /// throttle states reset, like a fresh hot-plug.
    Ejected,
}

/// Builder for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    seed: u64,
    devices: Vec<DeviceSpec>,
    platform_watts: f64,
    platform_drift_watts: f64,
    meter_noise_std: f64,
}

impl ServerBuilder {
    /// Starts a builder with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        ServerBuilder {
            seed,
            devices: Vec::new(),
            platform_watts: 300.0,
            platform_drift_watts: 3.0,
            meter_noise_std: 4.0,
        }
    }

    /// Adds a device (order defines device indices).
    #[must_use]
    pub fn add_device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Sets the constant platform power (fans pinned, RAM, PSU losses).
    #[must_use]
    pub fn platform_watts(mut self, watts: f64) -> Self {
        self.platform_watts = watts;
        self
    }

    /// Sets the meter's Gaussian noise standard deviation (W).
    #[must_use]
    pub fn meter_noise_std(mut self, std: f64) -> Self {
        self.meter_noise_std = std;
        self
    }

    /// Builds the server, validating every device.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] if no devices were added or any spec is
    /// invalid.
    pub fn build(self) -> Result<Server> {
        if self.devices.is_empty() {
            return Err(SimError::BadConfig("server needs >= 1 device"));
        }
        if self.platform_watts < 0.0 || self.platform_drift_watts < 0.0 {
            return Err(SimError::BadConfig("platform power must be non-negative"));
        }
        for d in &self.devices {
            d.validate()?;
        }
        let states = self
            .devices
            .iter()
            .map(|d| DeviceState {
                applied_mhz: d.freq_table.min(),
                target_mhz: d.freq_table.min(),
            })
            .collect();
        let meter = PowerMeter::new(self.meter_noise_std, METER_HISTORY_SAMPLES)?;
        let thermal_states = self
            .devices
            .iter()
            .map(|d| d.thermal.as_ref().map(ThermalState::new))
            .collect();
        // Device kinds and frequency bounds are immutable after build, so
        // the index/bound lookups the control loop hits every period are
        // computed once here and served as slices.
        let classify = |kind: crate::device::DeviceKind| -> Vec<usize> {
            self.devices
                .iter()
                .enumerate()
                .filter(|(_, d)| d.kind == kind)
                .map(|(i, _)| i)
                .collect()
        };
        let gpu_idx = classify(crate::device::DeviceKind::Gpu);
        let cpu_idx = classify(crate::device::DeviceKind::Cpu);
        let f_min = self.devices.iter().map(|d| d.freq_table.min()).collect();
        let f_max = self.devices.iter().map(|d| d.freq_table.max()).collect();
        let power_scratch = vec![0.0; self.devices.len()];
        let actuator_faults = vec![None; self.devices.len()];
        Ok(Server {
            devices: self.devices,
            states,
            thermal_states,
            platform_watts: self.platform_watts,
            platform_drift_watts: self.platform_drift_watts,
            meter,
            rng: StdRng::seed_from_u64(self.seed),
            elapsed_seconds: 0u64,
            gpu_idx,
            cpu_idx,
            f_min,
            f_max,
            power_scratch,
            actuator_faults,
            psu_limit: None,
        })
    }
}

/// The simulated server.
///
/// `Clone` snapshots the full state (device states, thermal states, meter
/// history, RNG position) so a cloned server replays the exact same
/// stochastic trajectory — the sweep engine relies on this to share one
/// identified testbed across many experiment cells.
#[derive(Debug, Clone)]
pub struct Server {
    devices: Vec<DeviceSpec>,
    states: Vec<DeviceState>,
    thermal_states: Vec<Option<ThermalState>>,
    platform_watts: f64,
    platform_drift_watts: f64,
    meter: PowerMeter,
    rng: StdRng,
    elapsed_seconds: u64,
    /// Indices of GPU devices, cached at build (device set is immutable).
    gpu_idx: Vec<usize>,
    /// Indices of CPU devices, cached at build.
    cpu_idx: Vec<usize>,
    /// Per-device minimum frequencies, cached at build.
    f_min: Vec<f64>,
    /// Per-device maximum frequencies, cached at build.
    f_max: Vec<f64>,
    /// Per-device power buffer reused by [`Server::tick_second`] so the
    /// per-second loop never allocates.
    power_scratch: Vec<f64>,
    /// Per-device injected actuator faults (`None` = healthy).
    actuator_faults: Vec<Option<ActuatorFault>>,
    /// BMC-advertised PSU power limit (W), if a power-delivery fault has
    /// derated the supply. Purely a telemetry signal: ground-truth power
    /// is unchanged, but a supervisor should shrink the feasible budget
    /// to stay under it.
    psu_limit: Option<f64>,
}

/// Period of the slow platform drift (seconds) — several control periods
/// long so it reads as unmodeled low-frequency disturbance, not noise.
const DRIFT_PERIOD_S: f64 = 240.0;

/// The clock the device actually runs: the commanded (quantized) clock,
/// clamped to the thermal P-state while thermal throttling is active.
fn effective_mhz(spec: &DeviceSpec, state: &DeviceState, thermal: &Option<ThermalState>) -> f64 {
    match (spec.thermal.as_ref(), thermal) {
        (Some(th), Some(st)) if st.throttling => state.applied_mhz.min(th.throttle_clock_mhz),
        _ => state.applied_mhz,
    }
}

impl Server {
    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device specification by index.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn device(&self, idx: usize) -> Result<&DeviceSpec> {
        self.devices.get(idx).ok_or(SimError::NoSuchDevice(idx))
    }

    /// All device specs in index order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Currently applied (quantized) frequency of a device.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn applied_frequency(&self, idx: usize) -> Result<f64> {
        self.states
            .get(idx)
            .map(|s| s.applied_mhz)
            .ok_or(SimError::NoSuchDevice(idx))
    }

    /// Sets a device's target frequency; returns the applied (quantized)
    /// value. Mirrors `nvidia-smi -ac` / `cpupower frequency-set`.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn set_target_frequency(&mut self, idx: usize, target_mhz: f64) -> Result<f64> {
        let spec = self.devices.get(idx).ok_or(SimError::NoSuchDevice(idx))?;
        let applied = match self.actuator_faults[idx] {
            // Command path dead: the target is recorded (the tool "ran")
            // but the applied clock does not move.
            Some(ActuatorFault::StuckClock) | Some(ActuatorFault::Ejected) => {
                self.states[idx].applied_mhz
            }
            None => spec.freq_table.quantize(target_mhz),
        };
        let state = &mut self.states[idx];
        state.target_mhz = target_mhz;
        state.applied_mhz = applied;
        Ok(applied)
    }

    /// Sets all device targets at once; returns applied values.
    ///
    /// # Errors
    /// [`SimError::WrongArity`] if the length differs from the device count.
    pub fn set_all_frequencies(&mut self, targets_mhz: &[f64]) -> Result<Vec<f64>> {
        if targets_mhz.len() != self.devices.len() {
            return Err(SimError::WrongArity {
                expected: self.devices.len(),
                got: targets_mhz.len(),
            });
        }
        let mut applied = Vec::with_capacity(targets_mhz.len());
        for (i, &t) in targets_mhz.iter().enumerate() {
            applied.push(self.set_target_frequency(i, t)?);
        }
        Ok(applied)
    }

    /// The clock a device actually runs at this instant (commanded clock
    /// clamped by any active thermal throttle).
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn effective_frequency(&self, idx: usize) -> Result<f64> {
        let spec = self.devices.get(idx).ok_or(SimError::NoSuchDevice(idx))?;
        Ok(effective_mhz(
            spec,
            &self.states[idx],
            &self.thermal_states[idx],
        ))
    }

    /// Writes all effective frequencies, in index order, into `out`
    /// (resized to the device count); no allocation once `out` has grown,
    /// for per-second polling loops.
    pub fn effective_frequencies_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            (0..self.devices.len())
                .map(|i| effective_mhz(&self.devices[i], &self.states[i], &self.thermal_states[i])),
        );
    }

    /// Current die temperature of a device (°C), if it has a thermal model.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn temperature(&self, idx: usize) -> Result<Option<f64>> {
        if idx >= self.devices.len() {
            return Err(SimError::NoSuchDevice(idx));
        }
        Ok(self.thermal_states[idx].as_ref().map(|t| t.temperature_c))
    }

    /// Whether a device is currently thermal-throttling.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn thermal_throttling(&self, idx: usize) -> Result<bool> {
        if idx >= self.devices.len() {
            return Err(SimError::NoSuchDevice(idx));
        }
        Ok(self.thermal_states[idx]
            .as_ref()
            .map(|t| t.throttling)
            .unwrap_or(false))
    }

    /// Writes per-device power readings at the given utilizations into
    /// `out` (resized to the device count) — what RAPL / `nvidia-smi`
    /// would report per package/board. Used by the split-budget baseline
    /// (the paper reads GPU power via `nvidia-smi` for its baselines);
    /// CapGPU itself needs only the server meter. Called every simulated
    /// second by [`Server::tick_second`] and every control period by the
    /// runner, so it does not allocate.
    ///
    /// # Errors
    /// [`SimError::WrongArity`] on utilization length mismatch.
    pub fn per_device_power_into(&self, utils: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if utils.len() != self.devices.len() {
            return Err(SimError::WrongArity {
                expected: self.devices.len(),
                got: utils.len(),
            });
        }
        out.clear();
        out.extend(
            self.devices
                .iter()
                .zip(self.states.iter())
                .zip(utils.iter())
                .zip(self.thermal_states.iter())
                .zip(self.actuator_faults.iter())
                .map(|((((spec, state), &u), th), fault)| {
                    if matches!(fault, Some(ActuatorFault::Ejected)) {
                        0.0
                    } else {
                        spec.power_law.power(effective_mhz(spec, state, th), u)
                    }
                }),
        );
        Ok(())
    }

    /// Platform power at the current second: the constant floor plus the
    /// slow sinusoidal drift.
    fn platform_power(&self) -> f64 {
        self.platform_watts
            + self.platform_drift_watts
                * (2.0 * std::f64::consts::PI * self.elapsed_seconds as f64 / DRIFT_PERIOD_S).sin()
    }

    /// Advances one second of wall-clock time: computes true power at the
    /// given utilizations and records one meter sample. Returns the meter
    /// reading (`None` during a dropout fault).
    ///
    /// # Errors
    /// [`SimError::WrongArity`] on utilization length mismatch.
    pub fn tick_second(&mut self, utils: &[f64]) -> Result<Option<f64>> {
        // Per-device powers feed both the meter total and the thermal
        // step; compute them once into the reusable scratch buffer (this
        // runs every simulated second — keep it allocation-free).
        let mut per_device = std::mem::take(&mut self.power_scratch);
        if let Err(e) = self.per_device_power_into(utils, &mut per_device) {
            self.power_scratch = per_device;
            return Err(e);
        }
        let device_power: f64 = per_device.iter().sum();
        let p = self.platform_power() + device_power;
        // Advance each device's thermal state with its dissipated power;
        // throttling decisions take effect from the next second.
        for (i, th) in self.thermal_states.iter_mut().enumerate() {
            if let (Some(spec), Some(state)) = (self.devices[i].thermal.as_ref(), th.as_mut()) {
                state.step(spec, per_device[i]);
            }
        }
        self.power_scratch = per_device;
        self.elapsed_seconds += 1;
        // Standard-normal draw via Box–Muller from two uniform draws (rand
        // 0.8 has no Normal distribution without rand_distr).
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        Ok(self.meter.record(p, z))
    }

    /// The power meter.
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Injects (or clears) a meter fault.
    pub fn set_meter_fault(&mut self, fault: Option<MeterFault>) {
        self.meter.set_fault(fault);
    }

    /// Injects (or clears, with `None`) an actuator fault on a device.
    ///
    /// Clearing an [`ActuatorFault::Ejected`] fault models re-admission:
    /// the device re-enters at its minimum clock with its thermal state
    /// reset, as after a hot-plug or driver reload.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index.
    pub fn set_actuator_fault(&mut self, idx: usize, fault: Option<ActuatorFault>) -> Result<()> {
        if idx >= self.devices.len() {
            return Err(SimError::NoSuchDevice(idx));
        }
        let was_ejected = matches!(self.actuator_faults[idx], Some(ActuatorFault::Ejected));
        let now_ejected = matches!(fault, Some(ActuatorFault::Ejected));
        if was_ejected && !now_ejected {
            // Re-admission: fresh hot-plug at the floor clock.
            let state = &mut self.states[idx];
            state.applied_mhz = self.f_min[idx];
            state.target_mhz = self.f_min[idx];
            self.thermal_states[idx] = self.devices[idx].thermal.as_ref().map(ThermalState::new);
        }
        self.actuator_faults[idx] = fault;
        Ok(())
    }

    /// Whether a device is currently ejected (off the bus). Out-of-range
    /// indices read `false` — this is a hot-path probe, not a validator.
    pub fn is_ejected(&self, idx: usize) -> bool {
        matches!(
            self.actuator_faults.get(idx),
            Some(Some(ActuatorFault::Ejected))
        )
    }

    /// Sets (or clears, with `None`) the BMC-advertised PSU power limit.
    /// This is a telemetry signal only: it does not change ground-truth
    /// power, but supervisors should treat `min(set-point, limit)` as the
    /// feasible budget.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] for a non-positive or non-finite limit.
    pub fn set_psu_limit(&mut self, limit_watts: Option<f64>) -> Result<()> {
        if let Some(w) = limit_watts {
            if w <= 0.0 || !w.is_finite() {
                return Err(SimError::BadConfig("psu limit must be finite and > 0"));
            }
        }
        self.psu_limit = limit_watts;
        Ok(())
    }

    /// The BMC-advertised PSU power limit, if a derating fault is active.
    pub fn psu_limit(&self) -> Option<f64> {
        self.psu_limit
    }

    /// Scales a device's dynamic power gain in place (synthetic plant
    /// drift: aging, fan/VRM degradation, driver power-management
    /// changes). The idle floor and quadratic term are untouched so the
    /// drift is purely a slope change in the frequency-power law.
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for an out-of-range index;
    /// [`SimError::BadConfig`] for a non-positive or non-finite factor.
    pub fn scale_power_gain(&mut self, idx: usize, factor: f64) -> Result<()> {
        if factor <= 0.0 || !factor.is_finite() {
            return Err(SimError::BadConfig(
                "gain drift factor must be finite and > 0",
            ));
        }
        let spec = self
            .devices
            .get_mut(idx)
            .ok_or(SimError::NoSuchDevice(idx))?;
        spec.power_law.gain_w_per_mhz *= factor;
        Ok(())
    }

    /// Indices of all GPU devices (cached at build; the device set is
    /// immutable, so this is a plain slice read, not a scan).
    pub fn gpu_indices(&self) -> &[usize] {
        &self.gpu_idx
    }

    /// Indices of all CPU devices (cached at build).
    pub fn cpu_indices(&self) -> &[usize] {
        &self.cpu_idx
    }

    /// Per-device minimum frequencies (cached at build).
    pub fn f_min(&self) -> &[f64] {
        &self.f_min
    }

    /// Per-device maximum frequencies (cached at build).
    pub fn f_max(&self) -> &[f64] {
        &self.f_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    impl ServerBuilder {
        /// Sets the amplitude of the slow sinusoidal platform drift.
        #[must_use]
        pub(crate) fn platform_drift_watts(mut self, watts: f64) -> Self {
            self.platform_drift_watts = watts;
            self
        }
    }

    impl Server {
        /// Ground-truth instantaneous power at the given per-device
        /// utilizations: what the meter samples, before its noise.
        pub(crate) fn true_power(&self, utils: &[f64]) -> Result<f64> {
            let mut per_device = Vec::new();
            self.per_device_power_into(utils, &mut per_device)?;
            Ok(self.platform_power() + per_device.iter().sum::<f64>())
        }
    }

    fn paper_server(seed: u64) -> Server {
        ServerBuilder::new(seed)
            .add_device(presets::xeon_gold_5215())
            .add_device(presets::tesla_v100())
            .add_device(presets::tesla_v100())
            .add_device(presets::tesla_v100())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_indices() {
        let s = paper_server(1);
        assert_eq!(s.num_devices(), 4);
        assert_eq!(s.cpu_indices(), vec![0]);
        assert_eq!(s.gpu_indices(), vec![1, 2, 3]);
        assert_eq!(s.f_min(), vec![1000.0, 435.0, 435.0, 435.0]);
        assert_eq!(s.f_max(), vec![2400.0, 1350.0, 1350.0, 1350.0]);
    }

    #[test]
    fn frequency_actuation_quantizes() {
        let mut s = paper_server(1);
        // 907 MHz is not on the 15 MHz V100 grid; 900 is.
        let applied = s.set_target_frequency(1, 907.0).unwrap();
        assert_eq!(applied, 900.0);
        assert_eq!(s.applied_frequency(1).unwrap(), 900.0);
        // CPU grid is 100 MHz.
        let applied = s.set_target_frequency(0, 1849.0).unwrap();
        assert_eq!(applied, 1800.0);
    }

    #[test]
    fn set_all_frequencies_roundtrip() {
        let mut s = paper_server(1);
        let applied = s
            .set_all_frequencies(&[2000.0, 1350.0, 435.0, 900.0])
            .unwrap();
        assert_eq!(applied, vec![2000.0, 1350.0, 435.0, 900.0]);
        let now: Vec<f64> = (0..4).map(|i| s.applied_frequency(i).unwrap()).collect();
        assert_eq!(now, applied);
        assert!(matches!(
            s.set_all_frequencies(&[1.0]).unwrap_err(),
            SimError::WrongArity {
                expected: 4,
                got: 1
            }
        ));
    }

    #[test]
    fn power_rises_with_frequency_and_util() {
        let mut s = paper_server(1);
        let p_low = s.true_power(&[1.0; 4]).unwrap();
        s.set_all_frequencies(&[2400.0, 1350.0, 1350.0, 1350.0])
            .unwrap();
        let p_high = s.true_power(&[1.0; 4]).unwrap();
        assert!(p_high > p_low + 300.0, "low {p_low} high {p_high}");
        let p_idle = s.true_power(&[0.0; 4]).unwrap();
        assert!(p_idle < p_high);
    }

    #[test]
    fn paper_envelope() {
        let mut s = paper_server(1);
        s.set_all_frequencies(&[2400.0, 1350.0, 1350.0, 1350.0])
            .unwrap();
        let max = s.true_power(&[1.0; 4]).unwrap();
        assert!(max > 1200.0, "max {max}");
        s.set_all_frequencies(&[1000.0, 435.0, 435.0, 435.0])
            .unwrap();
        let min = s.true_power(&[1.0; 4]).unwrap();
        assert!(min < 800.0, "min {min}");
    }

    #[test]
    fn tick_advances_time_and_feeds_meter() {
        let mut s = paper_server(7);
        for _ in 0..4 {
            let r = s.tick_second(&[1.0; 4]).unwrap();
            assert!(r.is_some());
        }
        assert_eq!(s.elapsed_seconds, 4);
        assert_eq!(s.meter().len(), 4);
        let avg = s.meter().average_last(4).unwrap();
        let truth = s.true_power(&[1.0; 4]).unwrap();
        assert!((avg - truth).abs() < 20.0, "avg {avg} truth {truth}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut s = paper_server(seed);
            (0..50)
                .map(|_| s.tick_second(&[0.8; 4]).unwrap().unwrap())
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn meter_fault_injection() {
        let mut s = paper_server(1);
        s.tick_second(&[1.0; 4]).unwrap();
        s.set_meter_fault(Some(MeterFault::Dropout));
        assert_eq!(s.tick_second(&[1.0; 4]).unwrap(), None);
        s.set_meter_fault(None);
        assert!(s.tick_second(&[1.0; 4]).unwrap().is_some());
    }

    #[test]
    fn drift_moves_platform_power() {
        let mut s = ServerBuilder::new(1)
            .platform_drift_watts(10.0)
            .meter_noise_std(0.0)
            .add_device(presets::tesla_v100())
            .build()
            .unwrap();
        let p0 = s.true_power(&[1.0]).unwrap();
        for _ in 0..60 {
            s.tick_second(&[1.0]).unwrap();
        }
        let p60 = s.true_power(&[1.0]).unwrap();
        assert!((p0 - p60).abs() > 1.0, "drift not visible: {p0} vs {p60}");
    }

    #[test]
    fn builder_validation() {
        assert!(ServerBuilder::new(1).build().is_err());
        assert!(ServerBuilder::new(1)
            .platform_watts(-1.0)
            .add_device(presets::tesla_v100())
            .build()
            .is_err());
    }

    #[test]
    fn true_power_arity_checked() {
        let s = paper_server(1);
        assert!(matches!(
            s.true_power(&[1.0]).unwrap_err(),
            SimError::WrongArity { .. }
        ));
    }
}

#[cfg(test)]
mod actuator_fault_tests {
    use super::*;
    use crate::presets;

    fn one_gpu() -> Server {
        ServerBuilder::new(1)
            .meter_noise_std(0.0)
            .platform_drift_watts(0.0)
            .add_device(presets::tesla_v100())
            .build()
            .unwrap()
    }

    #[test]
    fn stuck_clock_freezes_applied() {
        let mut s = one_gpu();
        s.set_target_frequency(0, 900.0).unwrap();
        s.set_actuator_fault(0, Some(ActuatorFault::StuckClock))
            .unwrap();
        let applied = s.set_target_frequency(0, 1350.0).unwrap();
        assert_eq!(applied, 900.0);
        assert_eq!(s.applied_frequency(0).unwrap(), 900.0);
        // Clearing restores normal actuation.
        s.set_actuator_fault(0, None).unwrap();
        assert_eq!(s.set_target_frequency(0, 1350.0).unwrap(), 1350.0);
    }

    #[test]
    fn ejection_zeroes_power_and_readmission_resets() {
        let mut s = one_gpu();
        s.set_target_frequency(0, 1350.0).unwrap();
        let p_healthy = s.true_power(&[1.0]).unwrap();
        s.set_actuator_fault(0, Some(ActuatorFault::Ejected))
            .unwrap();
        assert!(s.is_ejected(0));
        // Only the platform floor remains.
        let p_ejected = s.true_power(&[1.0]).unwrap();
        assert!(
            p_ejected < p_healthy - 50.0,
            "ejected {p_ejected} healthy {p_healthy}"
        );
        let mut per = Vec::new();
        s.per_device_power_into(&[1.0], &mut per).unwrap();
        assert_eq!(per[0], 0.0);
        // Commands are ignored while off the bus.
        assert_eq!(s.set_target_frequency(0, 900.0).unwrap(), 1350.0);
        // Re-admission: floor clock.
        s.set_actuator_fault(0, None).unwrap();
        assert!(!s.is_ejected(0));
        assert_eq!(s.applied_frequency(0).unwrap(), 435.0);
    }

    #[test]
    fn fault_bookkeeping_and_bounds() {
        let mut s = one_gpu();
        assert_eq!(s.set_target_frequency(0, 900.0).unwrap(), 900.0);
        s.set_actuator_fault(0, Some(ActuatorFault::StuckClock))
            .unwrap();
        assert_eq!(s.set_target_frequency(0, 1350.0).unwrap(), 900.0);
        s.set_actuator_fault(0, None).unwrap();
        assert_eq!(s.set_target_frequency(0, 1350.0).unwrap(), 1350.0);
        assert!(s.set_actuator_fault(5, None).is_err());
        assert!(!s.is_ejected(5));
    }

    #[test]
    fn psu_limit_is_telemetry_only() {
        let mut s = one_gpu();
        assert_eq!(s.psu_limit(), None);
        s.set_target_frequency(0, 1350.0).unwrap();
        let p_before = s.true_power(&[1.0]).unwrap();
        s.set_psu_limit(Some(200.0)).unwrap();
        assert_eq!(s.psu_limit(), Some(200.0));
        // Ground truth unchanged: the limit is a BMC signal, not physics.
        assert_eq!(s.true_power(&[1.0]).unwrap(), p_before);
        s.set_psu_limit(None).unwrap();
        assert_eq!(s.psu_limit(), None);
        assert!(s.set_psu_limit(Some(0.0)).is_err());
        assert!(s.set_psu_limit(Some(f64::NAN)).is_err());
    }
}

#[cfg(test)]
mod thermal_integration_tests {
    use super::*;
    use crate::presets;
    use crate::thermal;

    fn hot_v100() -> crate::device::DeviceSpec {
        let mut spec = presets::tesla_v100();
        // Tight envelope: throttles at ~150 W dissipation.
        spec.thermal = Some(thermal::ThermalSpec {
            ambient_c: 30.0,
            r_th_k_per_w: 0.35,
            tau_s: 20.0,
            t_throttle_c: 83.0,
            throttle_clock_mhz: 607.5,
            hysteresis_c: 5.0,
        });
        spec
    }

    #[test]
    fn sustained_load_triggers_thermal_throttle() {
        let mut s = ServerBuilder::new(1)
            .meter_noise_std(0.0)
            .platform_drift_watts(0.0)
            .add_device(hot_v100())
            .build()
            .unwrap();
        s.set_target_frequency(0, 1350.0).unwrap();
        let p_before = s.true_power(&[1.0]).unwrap();
        assert!(!s.thermal_throttling(0).unwrap());
        // ~250 W dissipation against a ~150 W envelope: must throttle.
        for _ in 0..200 {
            s.tick_second(&[1.0]).unwrap();
        }
        assert!(s.thermal_throttling(0).unwrap());
        assert_eq!(s.effective_frequency(0).unwrap(), 607.5);
        // Commanded clock is unchanged — the clamp is the device's doing.
        assert_eq!(s.applied_frequency(0).unwrap(), 1350.0);
        let p_after = s.true_power(&[1.0]).unwrap();
        assert!(p_after < p_before - 60.0, "{p_before} -> {p_after}");
        assert!(s.temperature(0).unwrap().unwrap() > 75.0);
    }

    #[test]
    fn moderate_load_never_throttles() {
        let mut s = ServerBuilder::new(1)
            .meter_noise_std(0.0)
            .add_device(hot_v100())
            .build()
            .unwrap();
        s.set_target_frequency(0, 600.0).unwrap(); // ~115 W < envelope
        for _ in 0..400 {
            s.tick_second(&[1.0]).unwrap();
        }
        assert!(!s.thermal_throttling(0).unwrap());
        assert_eq!(s.effective_frequency(0).unwrap(), 600.0);
    }

    #[test]
    fn devices_without_thermal_model_report_none() {
        let s = ServerBuilder::new(1)
            .add_device(presets::tesla_v100())
            .build()
            .unwrap();
        assert_eq!(s.temperature(0).unwrap(), None);
        assert!(!s.thermal_throttling(0).unwrap());
        assert!(s.temperature(5).is_err());
    }
}
