//! Deterministic fault-schedule DSL and fault models for CapGPU.
//!
//! The paper's stability analysis covers multiplicative model error; a
//! production power-capping loop must also survive *structural* failures
//! — meters that drop out or drift, clocks that stick, GPUs that fall
//! off the bus, PSUs that derate the budget
//! mid-run. This crate describes those failures as data: a
//! [`FaultSchedule`] is a list of [`FaultSpec`]s (fault kind × target
//! device × onset period × duration/intermittency) that the experiment
//! runner replays against the simulated testbed through the injection
//! hooks `capgpu-sim` already exposes (`set_meter_fault`,
//! `set_actuator_fault`, `set_psu_limit`).
//!
//! Everything is deterministic. The [`FaultSchedule::storm`] generator
//! derives all of its randomness from a splitmix64-style hash of the
//! caller's seed, independent of the simulation RNG streams, so the same
//! (scenario, seed) pair always produces the same fault storm — and a
//! faults-enabled sweep stays bit-identical across thread counts.
//!
//! ```
//! use capgpu_faults::{FaultKind, FaultSchedule, FaultSpec, Intermittency};
//!
//! let schedule = FaultSchedule {
//!     specs: vec![FaultSpec {
//!         kind: FaultKind::MeterDropout,
//!         onset_period: 10,
//!         duration: Some(8),
//!         intermittency: Some(Intermittency { on_periods: 2, off_periods: 2 }),
//!     }],
//! };
//! assert!(schedule.specs[0].active_at(10));
//! assert!(!schedule.specs[0].active_at(12)); // off phase
//! assert!(!schedule.specs[0].active_at(30)); // expired
//! ```

#![warn(missing_docs)]

use capgpu_sim::{ActuatorFault, DeviceKind, MeterFault, Server};
use serde::{Deserialize, Serialize};

/// What fails. Telemetry faults hit the server-level meter, actuator
/// faults hit one device's command path, power-delivery faults hit the
/// PSU's advertised budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Meter produces no samples (telemetry).
    MeterDropout,
    /// Meter reads offset by `watts` plus `drift_w_per_s` per second of
    /// fault age (telemetry).
    MeterBias {
        /// Constant additive offset (W).
        watts: f64,
        /// Drift per second of fault age (W/s).
        drift_w_per_s: f64,
    },
    /// A GPU's clock freezes at its current value (actuator).
    ClockStuck {
        /// Target device index.
        device: usize,
    },
    /// A GPU falls off the bus; clearing models re-admission (actuator).
    Ejected {
        /// Target device index.
        device: usize,
    },
    /// The PSU derates, shrinking the feasible power budget to
    /// `limit_watts` (power delivery). A supervisor should drop the
    /// effective set-point below the limit.
    PsuDerate {
        /// Advertised PSU limit (W), must be positive.
        limit_watts: f64,
    },
}

impl FaultKind {
    /// Short machine-readable label, e.g. for telemetry journal events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::MeterDropout => "meter_dropout",
            FaultKind::MeterBias { .. } => "meter_bias",
            FaultKind::ClockStuck { .. } => "clock_stuck",
            FaultKind::Ejected { .. } => "ejected",
            FaultKind::PsuDerate { .. } => "psu_derate",
        }
    }

    /// The device this fault targets, if it is device-scoped.
    pub fn device(&self) -> Option<usize> {
        match *self {
            FaultKind::ClockStuck { device } | FaultKind::Ejected { device } => Some(device),
            _ => None,
        }
    }

    /// Injects this fault into the server.
    ///
    /// Meter faults share one slot: overlapping meter faults resolve
    /// "last applied wins", and clearing any of them clears the slot —
    /// schedules (including [`FaultSchedule::storm`]) should not overlap
    /// meter-fault phases.
    ///
    /// # Errors
    /// Propagates [`capgpu_sim::SimError`] for out-of-range devices or
    /// invalid parameters.
    pub fn apply(&self, server: &mut Server) -> capgpu_sim::Result<()> {
        match *self {
            FaultKind::MeterDropout => server.set_meter_fault(Some(MeterFault::Dropout)),
            FaultKind::MeterBias {
                watts,
                drift_w_per_s,
            } => server.set_meter_fault(Some(MeterFault::Bias {
                watts,
                drift_w_per_s,
            })),
            FaultKind::ClockStuck { device } => {
                server.set_actuator_fault(device, Some(ActuatorFault::StuckClock))?
            }
            FaultKind::Ejected { device } => {
                server.set_actuator_fault(device, Some(ActuatorFault::Ejected))?
            }
            FaultKind::PsuDerate { limit_watts } => server.set_psu_limit(Some(limit_watts))?,
        }
        Ok(())
    }

    /// Clears this fault from the server (the inverse of
    /// [`FaultKind::apply`]).
    ///
    /// # Errors
    /// Propagates [`capgpu_sim::SimError`] for out-of-range devices.
    pub fn clear(&self, server: &mut Server) -> capgpu_sim::Result<()> {
        match *self {
            FaultKind::MeterDropout | FaultKind::MeterBias { .. } => server.set_meter_fault(None),
            FaultKind::ClockStuck { device } | FaultKind::Ejected { device } => {
                server.set_actuator_fault(device, None)?
            }
            FaultKind::PsuDerate { .. } => server.set_psu_limit(None)?,
        }
        Ok(())
    }
}

/// Duty cycle for an intermittent (flapping) fault, in control periods.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Intermittency {
    /// Periods the fault is active per cycle (≥ 1).
    pub on_periods: usize,
    /// Periods the fault is cleared per cycle (≥ 1).
    pub off_periods: usize,
}

/// One scheduled fault: what, when, for how long, and whether it flaps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// What fails.
    pub kind: FaultKind,
    /// Control period at which the fault first strikes.
    pub onset_period: usize,
    /// Total lifetime in control periods from onset (`None` = permanent).
    pub duration: Option<usize>,
    /// Optional on/off duty cycle within the lifetime.
    pub intermittency: Option<Intermittency>,
}

impl FaultSpec {
    /// Whether the fault is active during the given control period.
    pub fn active_at(&self, period: usize) -> bool {
        if period < self.onset_period {
            return false;
        }
        let age = period - self.onset_period;
        if let Some(d) = self.duration {
            if age >= d {
                return false;
            }
        }
        match self.intermittency {
            Some(im) => age % (im.on_periods + im.off_periods) < im.on_periods,
            None => true,
        }
    }
}

/// Errors from schedule validation or storm generation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A fault targets a device index outside the testbed.
    DeviceOutOfRange {
        /// Offending device index.
        device: usize,
        /// Number of devices in the testbed.
        num_devices: usize,
    },
    /// A device-scoped fault targets a non-GPU device (the paper's
    /// actuator path — `nvidia-smi` — only exists for GPUs).
    NotAGpu {
        /// Offending device index.
        device: usize,
    },
    /// A numeric or structural parameter is out of range.
    BadParam(&'static str),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::DeviceOutOfRange {
                device,
                num_devices,
            } => write!(
                f,
                "fault targets device {device} but the testbed has {num_devices} devices"
            ),
            FaultError::NotAGpu { device } => {
                write!(f, "actuator fault targets non-GPU device {device}")
            }
            FaultError::BadParam(m) => write!(f, "bad fault parameter: {m}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// GPU device indices eligible as storm actuator-fault targets: the
/// paper testbed, where device 0 is the CPU and 1–3 are V100s.
const STORM_GPU_DEVICES: [usize; 3] = [1, 2, 3];
/// Storm horizon in control periods; storm phases sit at fixed fractions
/// of it.
const STORM_HORIZON_PERIODS: usize = 60;
/// PSU limit advertised during the storm's power-delivery phase (W).
const STORM_PSU_LIMIT_WATTS: f64 = 940.0;

/// splitmix64-style mixer: deterministic, independent of the simulation
/// RNG streams (same construction as the runner's probe-sign hash).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A full fault schedule: the `Scenario::faults` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Scheduled faults, replayed independently (transitions are applied
    /// in spec order each period).
    pub specs: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// The canonical seeded fault storm used by the `faults` ablation:
    /// an intermittent dropout storm, a bias drift, a stuck GPU clock, a
    /// GPU ejection/re-admission, and a PSU derate, staged at fixed
    /// fractions of a 60-period horizon with target GPUs chosen by
    /// hashing `seed`. `intensity` scales phase durations (1.0 = the
    /// default storm; 0 disables it). Deterministic: same
    /// `(seed, intensity)` ⇒ same schedule.
    ///
    /// # Errors
    /// [`FaultError::BadParam`] on a negative or non-finite intensity.
    pub fn storm(seed: u64, intensity: f64) -> Result<Self, FaultError> {
        if intensity < 0.0 || !intensity.is_finite() {
            return Err(FaultError::BadParam("storm intensity must be finite, >= 0"));
        }
        let h = STORM_HORIZON_PERIODS as f64;
        let at = |frac: f64| (h * frac).round() as usize;
        let dur = |frac: f64| {
            let d = (h * frac * intensity).round() as usize;
            if d == 0 {
                None // zero-length phases are dropped below
            } else {
                Some(d)
            }
        };
        let gpu = |salt: u64| {
            let i = (mix(seed, salt, 0x6661756c74) % STORM_GPU_DEVICES.len() as u64) as usize;
            STORM_GPU_DEVICES[i]
        };
        let mut specs = Vec::new();
        let mut push = |kind: FaultKind, onset: f64, length: f64, im: Option<Intermittency>| {
            if let Some(d) = dur(length) {
                specs.push(FaultSpec {
                    kind,
                    onset_period: at(onset),
                    duration: Some(d),
                    intermittency: im,
                });
            }
        };
        // Phase layout leaves gaps between phases so meter faults never
        // overlap (they share the meter's single fault slot).
        push(
            FaultKind::MeterDropout,
            0.16,
            0.14,
            Some(Intermittency {
                on_periods: 2,
                off_periods: 2,
            }),
        );
        push(
            FaultKind::MeterBias {
                watts: 25.0,
                drift_w_per_s: 0.5,
            },
            0.33,
            0.12,
            None,
        );
        push(FaultKind::ClockStuck { device: gpu(1) }, 0.46, 0.14, None);
        push(FaultKind::Ejected { device: gpu(2) }, 0.63, 0.10, None);
        push(
            FaultKind::PsuDerate {
                limit_watts: STORM_PSU_LIMIT_WATTS,
            },
            0.80,
            0.13,
            None,
        );
        Ok(FaultSchedule { specs })
    }

    /// Validates the schedule against a testbed's device kinds.
    ///
    /// # Errors
    /// [`FaultError`] for out-of-range or non-GPU targets and bad
    /// parameters.
    pub fn validate(&self, kinds: &[DeviceKind]) -> Result<(), FaultError> {
        for spec in &self.specs {
            if let Some(device) = spec.kind.device() {
                match kinds.get(device) {
                    None => {
                        return Err(FaultError::DeviceOutOfRange {
                            device,
                            num_devices: kinds.len(),
                        })
                    }
                    Some(DeviceKind::Gpu) => {}
                    Some(_) => return Err(FaultError::NotAGpu { device }),
                }
            }
            match spec.kind {
                FaultKind::PsuDerate { limit_watts }
                    if limit_watts <= 0.0 || !limit_watts.is_finite() =>
                {
                    return Err(FaultError::BadParam("psu limit must be finite and > 0"));
                }
                FaultKind::MeterBias {
                    watts,
                    drift_w_per_s,
                } if !watts.is_finite() || !drift_w_per_s.is_finite() => {
                    return Err(FaultError::BadParam("meter bias must be finite"));
                }
                _ => {}
            }
            if spec.duration == Some(0) {
                return Err(FaultError::BadParam("fault duration must be >= 1 period"));
            }
            if let Some(im) = spec.intermittency {
                if im.on_periods == 0 || im.off_periods == 0 {
                    return Err(FaultError::BadParam(
                        "intermittency phases must be >= 1 period",
                    ));
                }
            }
        }
        Ok(())
    }

    /// The tightest PSU limit active during `period`, if any — the
    /// feasible power budget is `min(set-point, this)`.
    pub fn feasible_limit(&self, period: usize) -> Option<f64> {
        self.specs
            .iter()
            .filter(|s| s.active_at(period))
            .filter_map(|s| match s.kind {
                FaultKind::PsuDerate { limit_watts } => Some(limit_watts),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, w| {
                Some(acc.map_or(w, |a| a.min(w)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_sim::{presets, ServerBuilder};

    fn paper_server(seed: u64) -> Server {
        ServerBuilder::new(seed)
            .add_device(presets::xeon_gold_5215())
            .add_device(presets::tesla_v100())
            .add_device(presets::tesla_v100())
            .add_device(presets::tesla_v100())
            .build()
            .unwrap()
    }

    const PAPER_KINDS: [DeviceKind; 4] = [
        DeviceKind::Cpu,
        DeviceKind::Gpu,
        DeviceKind::Gpu,
        DeviceKind::Gpu,
    ];

    #[test]
    fn activity_window_with_duration() {
        let s = FaultSpec {
            kind: FaultKind::MeterDropout,
            onset_period: 5,
            duration: Some(3),
            intermittency: None,
        };
        assert!(!s.active_at(4));
        assert!(s.active_at(5));
        assert!(s.active_at(7));
        assert!(!s.active_at(8));
    }

    #[test]
    fn permanent_fault_never_expires() {
        let s = FaultSpec {
            kind: FaultKind::MeterBias {
                watts: 10.0,
                drift_w_per_s: 0.0,
            },
            onset_period: 2,
            duration: None,
            intermittency: None,
        };
        assert!(s.active_at(2));
        assert!(s.active_at(10_000));
    }

    #[test]
    fn intermittency_duty_cycle() {
        let s = FaultSpec {
            kind: FaultKind::MeterDropout,
            onset_period: 10,
            duration: Some(8),
            intermittency: Some(Intermittency {
                on_periods: 2,
                off_periods: 2,
            }),
        };
        let active: Vec<bool> = (8..20).map(|p| s.active_at(p)).collect();
        assert_eq!(
            active,
            [
                false, false, // pre-onset
                true, true, false, false, true, true, false, false, // duty cycles
                false, false // expired
            ]
        );
    }

    #[test]
    fn apply_and_clear_roundtrip_through_server() {
        let mut server = paper_server(1);
        FaultKind::MeterDropout.apply(&mut server).unwrap();
        assert_eq!(server.tick_second(&[1.0; 4]).unwrap(), None);
        FaultKind::MeterDropout.clear(&mut server).unwrap();
        assert!(server.tick_second(&[1.0; 4]).unwrap().is_some());

        FaultKind::Ejected { device: 2 }.apply(&mut server).unwrap();
        assert!(server.is_ejected(2));
        FaultKind::Ejected { device: 2 }.clear(&mut server).unwrap();
        assert!(!server.is_ejected(2));

        FaultKind::PsuDerate { limit_watts: 900.0 }
            .apply(&mut server)
            .unwrap();
        assert_eq!(server.psu_limit(), Some(900.0));
        FaultKind::PsuDerate { limit_watts: 900.0 }
            .clear(&mut server)
            .unwrap();
        assert_eq!(server.psu_limit(), None);
    }

    #[test]
    fn validation_rejects_bad_targets_and_params() {
        let ok = FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::ClockStuck { device: 1 },
                onset_period: 0,
                duration: None,
                intermittency: None,
            }],
        };
        assert!(ok.validate(&PAPER_KINDS).is_ok());

        let cpu_target = FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::Ejected { device: 0 },
                onset_period: 0,
                duration: None,
                intermittency: None,
            }],
        };
        assert_eq!(
            cpu_target.validate(&PAPER_KINDS),
            Err(FaultError::NotAGpu { device: 0 })
        );

        let oob = FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::ClockStuck { device: 9 },
                onset_period: 0,
                duration: None,
                intermittency: None,
            }],
        };
        assert!(matches!(
            oob.validate(&PAPER_KINDS),
            Err(FaultError::DeviceOutOfRange { device: 9, .. })
        ));

        let bad_limit = FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::PsuDerate { limit_watts: -5.0 },
                onset_period: 0,
                duration: None,
                intermittency: None,
            }],
        };
        assert!(bad_limit.validate(&PAPER_KINDS).is_err());

        let zero_duration = FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::MeterDropout,
                onset_period: 0,
                duration: Some(0),
                intermittency: None,
            }],
        };
        assert!(zero_duration.validate(&PAPER_KINDS).is_err());

        let zero_duty = FaultSchedule {
            specs: vec![FaultSpec {
                kind: FaultKind::MeterDropout,
                onset_period: 0,
                duration: None,
                intermittency: Some(Intermittency {
                    on_periods: 0,
                    off_periods: 1,
                }),
            }],
        };
        assert!(zero_duty.validate(&PAPER_KINDS).is_err());
    }

    #[test]
    fn storm_is_deterministic_and_valid() {
        let a = FaultSchedule::storm(42, 1.0).unwrap();
        let b = FaultSchedule::storm(42, 1.0).unwrap();
        assert_eq!(a, b);
        a.validate(&PAPER_KINDS).unwrap();
        // All five phases present at default intensity, and every one has
        // ended by the horizon.
        assert_eq!(a.specs.len(), 5);
        for s in &a.specs {
            let end = s.onset_period + s.duration.expect("storm faults end");
            assert!(end <= STORM_HORIZON_PERIODS, "{s:?} ends at {end}");
        }
        // A different seed may retarget GPUs but keeps the same phases.
        let c = FaultSchedule::storm(7, 1.0).unwrap();
        assert_eq!(c.specs.len(), 5);
        for (x, y) in a.specs.iter().zip(c.specs.iter()) {
            assert_eq!(x.onset_period, y.onset_period);
            assert_eq!(x.duration, y.duration);
        }
    }

    #[test]
    fn storm_intensity_zero_is_empty() {
        let s = FaultSchedule::storm(1, 0.0).unwrap();
        assert!(s.specs.is_empty());
    }

    #[test]
    fn storm_phases_never_overlap_on_the_meter() {
        // Meter faults share one slot; the storm must keep them disjoint.
        for seed in 0..20u64 {
            let s = FaultSchedule::storm(seed, 1.0).unwrap();
            for p in 0..80 {
                let meter_active = s
                    .specs
                    .iter()
                    .filter(|sp| sp.kind.device().is_none())
                    .filter(|sp| !matches!(sp.kind, FaultKind::PsuDerate { .. }) && sp.active_at(p))
                    .count();
                assert!(meter_active <= 1, "seed {seed} period {p}");
            }
        }
    }

    #[test]
    fn feasible_limit_tracks_psu_phase() {
        let s = FaultSchedule::storm(42, 1.0).unwrap();
        let derate = s
            .specs
            .iter()
            .find(|sp| matches!(sp.kind, FaultKind::PsuDerate { .. }))
            .unwrap();
        assert_eq!(s.feasible_limit(derate.onset_period), Some(940.0));
        assert_eq!(s.feasible_limit(0), None);
    }

    #[test]
    fn storm_rejects_bad_intensity() {
        for intensity in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(FaultSchedule::storm(1, intensity).is_err(), "{intensity}");
        }
    }
}
