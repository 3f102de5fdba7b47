//! [`MockBackend`] — a deterministic [`PowerBackend`] for tests.
//!
//! - **Readings**: power follows an exact linear law
//!   `platform + Σ (idle_i + gain_i · f_i)` — the model identification
//!   fits perfectly, which makes closed-loop daemon tests sharp.
//! - **Faults**: [`MockBackend::apply_fault`] /
//!   [`MockBackend::clear_fault`] replay the [`capgpu_faults::FaultKind`]
//!   taxonomy — meter dropout/stuck/bias/delay, stuck or rejected
//!   clocks, coarse quantization, device ejection, PSU derate — with
//!   the same observable semantics the simulated testbed gives them,
//!   but with no simulator behind it.

use std::collections::VecDeque;

use capgpu_faults::FaultKind;
use capgpu_sim::DeviceKind;

use crate::{BackendDevice, BackendError, BackendResult, Capabilities, PowerBackend};

/// One mocked device: identity, clock range, and a linear power law.
#[derive(Debug, Clone)]
pub struct MockDevice {
    /// CPU package or GPU board.
    pub kind: DeviceKind,
    /// Human-readable name.
    pub name: String,
    /// Lowest settable clock (MHz).
    pub f_min_mhz: f64,
    /// Highest settable clock (MHz).
    pub f_max_mhz: f64,
    /// Clock grid step (MHz); commands quantize to multiples.
    pub step_mhz: f64,
    /// Idle draw (W).
    pub idle_watts: f64,
    /// Linear power slope (W/MHz).
    pub gain_w_per_mhz: f64,
}

impl MockDevice {
    /// A V100-flavoured GPU: 435–1350 MHz on a 15 MHz grid.
    pub fn gpu(name: &str) -> Self {
        MockDevice {
            kind: DeviceKind::Gpu,
            name: name.to_string(),
            f_min_mhz: 435.0,
            f_max_mhz: 1350.0,
            step_mhz: 15.0,
            idle_watts: 40.0,
            gain_w_per_mhz: 0.16,
        }
    }

    /// A Xeon-flavoured CPU package: 1000–2400 MHz on a 100 MHz grid.
    pub fn cpu(name: &str) -> Self {
        MockDevice {
            kind: DeviceKind::Cpu,
            name: name.to_string(),
            f_min_mhz: 1000.0,
            f_max_mhz: 2400.0,
            step_mhz: 100.0,
            idle_watts: 35.0,
            gain_w_per_mhz: 0.05,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MeterMode {
    Healthy,
    Dropout,
    Stuck,
    Bias { watts: f64, drift_w_per_s: f64 },
}

/// The mock backend. Fully deterministic: every reading is a pure
/// function of the applied faults and the command history.
#[derive(Debug, Clone)]
pub struct MockBackend {
    devices: Vec<BackendDevice>,
    spec: Vec<MockDevice>,
    applied_mhz: Vec<f64>,
    clock_stuck: Vec<bool>,
    coarse_step: Vec<Option<f64>>,
    ejected: Vec<bool>,
    power_limits_w: Vec<Option<f64>>,
    platform_watts: f64,
    meter: MeterMode,
    meter_fault_age_s: u64,
    meter_delay: VecDeque<f64>,
    meter_delay_s: usize,
    history: VecDeque<f64>,
    last_good_sample: Option<f64>,
    elapsed_s: u64,
    last_sample_at_s: Option<u64>,
    psu_limit: Option<f64>,
    wall_base_unix_ms: Option<u64>,
}

impl MockBackend {
    /// Builds a mock backend over the given device set.
    ///
    /// # Errors
    /// [`BackendError::Unavailable`] for an empty device set or an
    /// invalid clock range.
    pub fn new(devices: Vec<MockDevice>, platform_watts: f64) -> BackendResult<Self> {
        if devices.is_empty() {
            return Err(BackendError::Unavailable(
                "mock backend needs >= 1 device".into(),
            ));
        }
        for d in &devices {
            if !(d.f_min_mhz > 0.0 && d.f_max_mhz > d.f_min_mhz && d.step_mhz > 0.0) {
                return Err(BackendError::Unavailable(format!(
                    "mock device `{}` has an invalid clock range",
                    d.name
                )));
            }
        }
        let enumerated = devices
            .iter()
            .enumerate()
            .map(|(index, d)| BackendDevice {
                index,
                kind: d.kind,
                name: d.name.clone(),
                f_min_mhz: d.f_min_mhz,
                f_max_mhz: d.f_max_mhz,
                levels_mhz: levels(d),
                power_limit_w: Some((d.idle_watts, d.idle_watts + d.gain_w_per_mhz * d.f_max_mhz)),
            })
            .collect();
        let n = devices.len();
        let applied = devices.iter().map(|d| d.f_min_mhz).collect();
        Ok(MockBackend {
            devices: enumerated,
            applied_mhz: applied,
            clock_stuck: vec![false; n],
            coarse_step: vec![None; n],
            ejected: vec![false; n],
            power_limits_w: vec![None; n],
            spec: devices,
            platform_watts,
            meter: MeterMode::Healthy,
            meter_fault_age_s: 0,
            meter_delay: VecDeque::new(),
            meter_delay_s: 0,
            history: VecDeque::new(),
            last_good_sample: None,
            elapsed_s: 0,
            last_sample_at_s: None,
            psu_limit: None,
            wall_base_unix_ms: None,
        })
    }

    /// A paper-shaped testbed: one CPU package and `gpus` GPUs.
    ///
    /// # Errors
    /// Propagates [`MockBackend::new`] validation.
    pub fn testbed(gpus: usize) -> BackendResult<Self> {
        let mut devices = vec![MockDevice::cpu("mock-xeon")];
        for i in 0..gpus {
            devices.push(MockDevice::gpu(&format!("mock-v100-{i}")));
        }
        MockBackend::new(devices, 300.0)
    }

    /// Makes the backend report wall-clock-stamped readings starting at
    /// the given Unix epoch (advanced by [`PowerBackend::advance`]).
    pub fn set_wall_clock_base(&mut self, unix_ms: u64) {
        self.wall_base_unix_ms = Some(unix_ms);
    }

    /// Applies a fault from the `capgpu-faults` taxonomy. Device-scoped
    /// kinds validate their index; meter kinds share one slot
    /// (last-applied wins), mirroring the simulator's semantics.
    ///
    /// # Errors
    /// [`BackendError::NoSuchDevice`] / [`BackendError::Device`] for
    /// invalid targets or parameters.
    pub fn apply_fault(&mut self, fault: &FaultKind) -> BackendResult<()> {
        if let Some(d) = fault.device() {
            if d >= self.spec.len() {
                return Err(BackendError::NoSuchDevice(d));
            }
        }
        match *fault {
            FaultKind::MeterDropout => self.meter = MeterMode::Dropout,
            FaultKind::MeterStuck => self.meter = MeterMode::Stuck,
            FaultKind::MeterBias {
                watts,
                drift_w_per_s,
            } => {
                self.meter = MeterMode::Bias {
                    watts,
                    drift_w_per_s,
                };
                self.meter_fault_age_s = 0;
            }
            FaultKind::MeterDelay { seconds } => {
                self.meter_delay_s = seconds;
            }
            FaultKind::ClockStuck { device } | FaultKind::CommandRejected { device } => {
                self.clock_stuck[device] = true;
            }
            FaultKind::CoarseQuantize { device, step_mhz } => {
                if step_mhz <= 0.0 || !step_mhz.is_finite() {
                    return Err(BackendError::Device(
                        "coarse-quantize step must be finite and > 0".into(),
                    ));
                }
                self.coarse_step[device] = Some(step_mhz);
            }
            FaultKind::Ejected { device } => {
                self.ejected[device] = true;
            }
            FaultKind::PsuDerate { limit_watts } => {
                if limit_watts <= 0.0 || !limit_watts.is_finite() {
                    return Err(BackendError::Device(
                        "psu limit must be finite and > 0".into(),
                    ));
                }
                self.psu_limit = Some(limit_watts);
            }
        }
        Ok(())
    }

    /// Clears a previously applied fault (the inverse of
    /// [`MockBackend::apply_fault`]). Clearing an ejection re-admits
    /// the device at its floor clock.
    ///
    /// # Errors
    /// [`BackendError::NoSuchDevice`] for invalid targets.
    pub fn clear_fault(&mut self, fault: &FaultKind) -> BackendResult<()> {
        if let Some(d) = fault.device() {
            if d >= self.spec.len() {
                return Err(BackendError::NoSuchDevice(d));
            }
        }
        match *fault {
            FaultKind::MeterDropout | FaultKind::MeterStuck | FaultKind::MeterBias { .. } => {
                self.meter = MeterMode::Healthy;
                self.meter_fault_age_s = 0;
            }
            FaultKind::MeterDelay { .. } => {
                self.meter_delay_s = 0;
            }
            FaultKind::ClockStuck { device } | FaultKind::CommandRejected { device } => {
                self.clock_stuck[device] = false;
            }
            FaultKind::CoarseQuantize { device, .. } => {
                self.coarse_step[device] = None;
            }
            FaultKind::Ejected { device } => {
                self.ejected[device] = false;
                self.applied_mhz[device] = self.spec[device].f_min_mhz;
            }
            FaultKind::PsuDerate { .. } => self.psu_limit = None,
        }
        Ok(())
    }

    /// Ground-truth power of the linear law at the current clocks.
    pub fn true_power(&self) -> f64 {
        let device_power: f64 = self
            .spec
            .iter()
            .zip(self.applied_mhz.iter())
            .zip(self.ejected.iter())
            .map(|((d, &f), &ej)| {
                if ej {
                    0.0
                } else {
                    d.idle_watts + d.gain_w_per_mhz * f
                }
            })
            .sum();
        self.platform_watts + device_power
    }
}

fn levels(d: &MockDevice) -> Vec<f64> {
    let mut out = Vec::new();
    let mut f = d.f_min_mhz;
    while f <= d.f_max_mhz + 1e-9 {
        out.push(f);
        f += d.step_mhz;
    }
    out
}

fn quantize(d: &MockDevice, step_override: Option<f64>, target: f64) -> f64 {
    let step = step_override.unwrap_or(d.step_mhz);
    let snapped = (target / step).round() * step;
    snapped.clamp(d.f_min_mhz, d.f_max_mhz)
}

impl PowerBackend for MockBackend {
    fn name(&self) -> &str {
        "mock"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            set_frequency: true,
            set_power_limit: true,
            server_power: true,
            per_device_power: true,
            throughput: true,
            wall_clock: self.wall_base_unix_ms.is_some(),
        }
    }

    fn devices(&self) -> &[BackendDevice] {
        &self.devices
    }

    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        if targets_mhz.len() != self.spec.len() {
            return Err(BackendError::WrongArity {
                expected: self.spec.len(),
                got: targets_mhz.len(),
            });
        }
        for (i, &t) in targets_mhz.iter().enumerate() {
            if self.clock_stuck[i] || self.ejected[i] {
                continue;
            }
            self.applied_mhz[i] = quantize(&self.spec[i], self.coarse_step[i], t);
        }
        Ok(())
    }

    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        out.clear();
        out.extend_from_slice(&self.applied_mhz);
        Ok(())
    }

    fn set_power_limit(&mut self, device: usize, watts: f64) -> BackendResult<()> {
        if device >= self.spec.len() {
            return Err(BackendError::NoSuchDevice(device));
        }
        let (lo, hi) = self.devices[device]
            .power_limit_w
            .expect("mock devices always advertise a limit range");
        if !(lo..=hi).contains(&watts) {
            return Err(BackendError::Device(format!(
                "power limit {watts} W outside [{lo}, {hi}]"
            )));
        }
        self.power_limits_w[device] = Some(watts);
        Ok(())
    }

    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        if dt_s != 1.0 {
            return Err(BackendError::Unsupported(
                "mock advance requires dt_s == 1.0",
            ));
        }
        self.elapsed_s += 1;
        if matches!(self.meter, MeterMode::Bias { .. }) {
            self.meter_fault_age_s += 1;
        }
        let p = self.true_power();
        let sample = match self.meter {
            MeterMode::Dropout => None,
            MeterMode::Healthy => Some(p),
            MeterMode::Stuck => self.last_good_sample,
            MeterMode::Bias {
                watts,
                drift_w_per_s,
            } => Some(p + watts + drift_w_per_s * self.meter_fault_age_s as f64),
        };
        // A reporting delay holds samples back `meter_delay_s` seconds.
        let emitted = match sample {
            Some(p) if self.meter_delay_s > 0 => {
                self.meter_delay.push_back(p);
                if self.meter_delay.len() > self.meter_delay_s {
                    self.meter_delay.pop_front()
                } else {
                    None
                }
            }
            other => other,
        };
        if let Some(p) = emitted {
            self.last_good_sample = Some(p);
            self.last_sample_at_s = Some(self.elapsed_s);
            self.history.push_back(p);
            if self.history.len() > 1024 {
                self.history.pop_front();
            }
        }
        Ok(emitted)
    }

    fn average_power(&self, last_n: usize) -> Option<f64> {
        if last_n == 0 || self.history.is_empty() {
            return None;
        }
        let n = last_n.min(self.history.len());
        let sum: f64 = self.history.iter().rev().take(n).sum();
        Some(sum / n as f64)
    }

    fn seconds_since_sample(&self) -> Option<u64> {
        self.last_sample_at_s.map(|at| self.elapsed_s - at)
    }

    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        out.clear();
        out.extend(
            self.spec
                .iter()
                .zip(self.applied_mhz.iter())
                .zip(self.ejected.iter())
                .map(|((d, &f), &ej)| {
                    if ej {
                        0.0
                    } else {
                        d.idle_watts + d.gain_w_per_mhz * f
                    }
                }),
        );
        Ok(())
    }

    fn throughput_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        out.clear();
        out.resize(self.spec.len(), 0.0);
        Ok(())
    }

    fn is_ejected(&self, device: usize) -> bool {
        self.ejected.get(device).copied().unwrap_or(false)
    }

    fn psu_limit(&self) -> Option<f64> {
        self.psu_limit
    }

    fn wall_clock_unix_ms(&self) -> Option<u64> {
        self.wall_base_unix_ms
            .map(|base| base + self.elapsed_s * 1000)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_follow_the_linear_law() {
        let mut b = MockBackend::testbed(2).unwrap();
        let p0 = b.advance(1.0).unwrap().unwrap();
        assert_eq!(p0, b.true_power());
        b.set_frequencies(&[2400.0, 1350.0, 1350.0]).unwrap();
        let p1 = b.advance(1.0).unwrap().unwrap();
        assert!(p1 > p0 + 100.0);
        assert_eq!(p1, b.true_power());
        assert_eq!(b.seconds_since_sample(), Some(0));
    }

    #[test]
    fn fault_taxonomy_replays() {
        let mut b = MockBackend::testbed(1).unwrap();
        // Stuck clock: commands accepted, applied unchanged.
        b.apply_fault(&FaultKind::ClockStuck { device: 1 }).unwrap();
        b.set_frequencies(&[2000.0, 900.0]).unwrap();
        let mut eff = Vec::new();
        b.effective_frequencies_into(&mut eff).unwrap();
        assert_eq!(eff, vec![2000.0, 435.0]);
        b.clear_fault(&FaultKind::ClockStuck { device: 1 }).unwrap();
        // Ejection: zero power, readmission at the floor.
        b.apply_fault(&FaultKind::Ejected { device: 1 }).unwrap();
        assert!(b.is_ejected(1));
        let mut per = Vec::new();
        b.per_device_power_into(&mut per).unwrap();
        assert_eq!(per[1], 0.0);
        b.clear_fault(&FaultKind::Ejected { device: 1 }).unwrap();
        assert!(!b.is_ejected(1));
        // Meter dropout then PSU derate.
        b.apply_fault(&FaultKind::MeterDropout).unwrap();
        assert_eq!(b.advance(1.0).unwrap(), None);
        b.clear_fault(&FaultKind::MeterDropout).unwrap();
        b.apply_fault(&FaultKind::PsuDerate { limit_watts: 700.0 })
            .unwrap();
        assert_eq!(b.psu_limit(), Some(700.0));
        // Bad targets are rejected.
        assert!(b.apply_fault(&FaultKind::Ejected { device: 9 }).is_err());
    }

    #[test]
    fn meter_bias_and_delay() {
        let mut b = MockBackend::testbed(1).unwrap();
        let truth = b.true_power();
        b.apply_fault(&FaultKind::MeterBias {
            watts: 50.0,
            drift_w_per_s: 1.0,
        })
        .unwrap();
        assert_eq!(b.advance(1.0).unwrap(), Some(truth + 51.0));
        assert_eq!(b.advance(1.0).unwrap(), Some(truth + 52.0));
        b.clear_fault(&FaultKind::MeterBias {
            watts: 0.0,
            drift_w_per_s: 0.0,
        })
        .unwrap();
        let mut d = MockBackend::testbed(1).unwrap();
        d.apply_fault(&FaultKind::MeterDelay { seconds: 2 })
            .unwrap();
        assert_eq!(d.advance(1.0).unwrap(), None);
        assert_eq!(d.advance(1.0).unwrap(), None);
        assert!(d.advance(1.0).unwrap().is_some());
    }

    #[test]
    fn wall_clock_is_opt_in() {
        let mut b = MockBackend::testbed(1).unwrap();
        assert_eq!(b.wall_clock_unix_ms(), None);
        b.set_wall_clock_base(1_700_000_000_000);
        b.advance(1.0).unwrap();
        assert_eq!(b.wall_clock_unix_ms(), Some(1_700_000_001_000));
        assert!(b.capabilities().wall_clock);
    }

    #[test]
    fn power_limit_range_enforced() {
        let mut b = MockBackend::testbed(1).unwrap();
        let (lo, hi) = b.devices()[1].power_limit_w.unwrap();
        b.set_power_limit(1, (lo + hi) / 2.0).unwrap();
        assert!(b.set_power_limit(1, hi + 100.0).is_err());
        assert!(matches!(
            b.set_power_limit(7, 100.0),
            Err(BackendError::NoSuchDevice(7))
        ));
    }
}
