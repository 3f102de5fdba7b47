//! [`SimBackend`] — the simulated testbed behind the [`PowerBackend`]
//! trait.
//!
//! Wraps one [`capgpu_sim::Server`] and routes the trait's sense and
//! actuate calls straight to it, with zero behavioral difference from
//! driving the server directly: the conformance suite drives a raw
//! server and a `SimBackend` built from the same seed through the same
//! command sequence and asserts bit-identical meter samples and clock
//! states. The experiment runner holds its plant through this type, so
//! every committed golden doubles as a regression pin on the trait
//! seam.
//!
//! The one sim-specific extension is [`SimBackend::stage_utilizations`]:
//! the simulator needs each device's utilization for the second about
//! to elapse (real hardware measures its own), so the plant driver
//! stages them before calling [`PowerBackend::advance`].

use capgpu_sim::Server;

use crate::{BackendDevice, BackendError, BackendResult, Capabilities, PowerBackend};

/// The simulated-testbed backend.
///
/// `Clone` snapshots the full plant state (the wrapped server plus the
/// staged utilizations), preserving the runner's clone-replay contract.
#[derive(Debug, Clone)]
pub struct SimBackend {
    server: Server,
    devices: Vec<BackendDevice>,
    /// Per-device utilizations staged for the next elapsed second; the
    /// simulator's stand-in for the load real hardware would measure.
    utils: Vec<f64>,
}

impl SimBackend {
    /// Wraps an assembled server.
    pub fn new(server: Server) -> Self {
        let devices = server
            .devices()
            .iter()
            .enumerate()
            .map(|(index, spec)| BackendDevice {
                index,
                kind: spec.kind,
                name: spec.name.clone(),
                f_min_mhz: spec.freq_table.min(),
                f_max_mhz: spec.freq_table.max(),
                levels_mhz: spec.freq_table.levels().to_vec(),
            })
            .collect();
        let utils = vec![0.0; server.num_devices()];
        SimBackend {
            server,
            devices,
            utils,
        }
    }

    /// The wrapped server — plant-side access (workload coupling, fault
    /// injection, thermal state) that is *not* part of the sense/actuate
    /// seam.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Mutable plant-side access (fault injection hooks, scheduled
    /// gain drift).
    pub fn server_mut(&mut self) -> &mut Server {
        &mut self.server
    }

    /// Stages per-device utilizations for the next elapsed second.
    ///
    /// # Errors
    /// [`BackendError::WrongArity`] on length mismatch.
    pub fn stage_utilizations(&mut self, utils: &[f64]) -> BackendResult<()> {
        if utils.len() != self.utils.len() {
            return Err(BackendError::WrongArity {
                expected: self.utils.len(),
                got: utils.len(),
            });
        }
        self.utils.copy_from_slice(utils);
        Ok(())
    }
}

impl PowerBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            set_frequency: true,
            set_power_limit: false,
            server_power: true,
            per_device_power: true,
            throughput: false,
            wall_clock: false,
        }
    }

    fn devices(&self) -> &[BackendDevice] {
        &self.devices
    }

    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        // Arity first, so a bad call never partially actuates; then
        // per-device sets, which (unlike `Server::set_all_frequencies`)
        // skip collecting the applied values — the control loop reads
        // them back through `effective_frequencies_into`, and this path
        // runs every simulated second.
        if targets_mhz.len() != self.devices.len() {
            return Err(BackendError::WrongArity {
                expected: self.devices.len(),
                got: targets_mhz.len(),
            });
        }
        for (i, &t) in targets_mhz.iter().enumerate() {
            self.server.set_target_frequency(i, t)?;
        }
        Ok(())
    }

    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        self.server.effective_frequencies_into(out);
        Ok(())
    }

    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        // The simulator's plant ticks in whole seconds; the control
        // stack only ever asks for one at a time.
        if dt_s != 1.0 {
            return Err(BackendError::Unsupported(
                "sim advance requires dt_s == 1.0",
            ));
        }
        Ok(self.server.tick_second(&self.utils)?)
    }

    fn average_power(&self, last_n: usize) -> Option<f64> {
        self.server.meter().average_last(last_n).ok()
    }

    fn seconds_since_sample(&self) -> Option<u64> {
        self.server.meter().seconds_since_last_sample()
    }

    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        // Readings reflect the most recently elapsed second: the staged
        // utilizations are exactly the load the last tick dissipated.
        Ok(self.server.per_device_power_into(&self.utils, out)?)
    }

    fn is_ejected(&self, device: usize) -> bool {
        self.server.is_ejected(device)
    }

    fn psu_limit(&self) -> Option<f64> {
        self.server.psu_limit()
    }

    fn meter_noise_std(&self) -> f64 {
        self.server.meter().noise_std()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_sim::{presets, ServerBuilder};

    fn backend(seed: u64) -> SimBackend {
        SimBackend::new(
            ServerBuilder::new(seed)
                .add_device(presets::xeon_gold_5215())
                .add_device(presets::tesla_v100())
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn enumeration_mirrors_server() {
        let b = backend(1);
        assert_eq!(b.num_devices(), 2);
        assert_eq!(b.devices()[1].f_min_mhz, 435.0);
        assert_eq!(b.devices()[1].f_max_mhz, 1350.0);
        assert!(!b.devices()[1].levels_mhz.is_empty());
        assert_eq!(b.name(), "sim");
        assert!(b.capabilities().server_power);
        assert!(!b.capabilities().wall_clock);
        assert_eq!(b.wall_clock_unix_ms(), None);
    }

    #[test]
    fn stage_then_advance_matches_direct_tick() {
        let mut b = backend(9);
        let mut direct = backend(9).server.clone();
        b.stage_utilizations(&[0.9, 0.7]).unwrap();
        for _ in 0..8 {
            let via_trait = b.advance(1.0).unwrap();
            let via_server = direct.tick_second(&[0.9, 0.7]).unwrap();
            assert_eq!(via_trait, via_server);
        }
        assert_eq!(b.average_power(4), direct.meter().average_last(4).ok());
    }

    #[test]
    fn arity_checked_before_actuation() {
        let mut b = backend(1);
        b.set_frequencies(&[2000.0, 900.0]).unwrap();
        assert!(matches!(
            b.set_frequencies(&[1.0]),
            Err(BackendError::WrongArity {
                expected: 2,
                got: 1
            })
        ));
        let mut eff = Vec::new();
        b.effective_frequencies_into(&mut eff).unwrap();
        assert_eq!(eff, vec![2000.0, 900.0]);
        assert!(b.stage_utilizations(&[1.0]).is_err());
        assert!(matches!(b.advance(0.5), Err(BackendError::Unsupported(_))));
    }
}
