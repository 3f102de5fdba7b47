//! Arrival processes for the serving engine.
//!
//! Three request streams cover the traffic shapes power-capping serving
//! work evaluates against: memoryless Poisson (the queueing-theory
//! baseline), a 2-state Markov-modulated Poisson process whose high-rate
//! phase models bursts, and a deterministic trace-driven stream that
//! replays given inter-arrival times.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Result, ServeError};

/// Declarative description of a request arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate (requests/s).
        rate_rps: f64,
    },
    /// 2-state Markov-modulated Poisson process: a low-rate baseline
    /// phase and a high-rate burst phase with exponentially distributed
    /// dwell times. The classic bursty-traffic model.
    Mmpp {
        /// Arrival rate during the baseline phase (requests/s).
        rate_low_rps: f64,
        /// Arrival rate during the burst phase (requests/s).
        rate_high_rps: f64,
        /// Mean dwell time in the baseline phase (s).
        mean_dwell_low_s: f64,
        /// Mean dwell time in the burst phase (s).
        mean_dwell_high_s: f64,
    },
    /// Deterministic trace-driven arrivals: the given inter-arrival
    /// times are replayed cyclically.
    Trace {
        /// Inter-arrival times (s), replayed in order and wrapped.
        iats: Vec<f64>,
    },
}

impl ArrivalProcess {
    /// The process's nominal mean rate (requests/s), before any
    /// intensity scaling. MMPP reports the dwell-weighted average.
    pub fn mean_rate_rps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_rps } => *rate_rps,
            ArrivalProcess::Mmpp {
                rate_low_rps,
                rate_high_rps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => {
                (rate_low_rps * mean_dwell_low_s + rate_high_rps * mean_dwell_high_s)
                    / (mean_dwell_low_s + mean_dwell_high_s)
            }
            ArrivalProcess::Trace { iats } => {
                let total: f64 = iats.iter().sum();
                if total > 0.0 {
                    iats.len() as f64 / total
                } else {
                    0.0
                }
            }
        }
    }

    /// The same process with its mean rate multiplied by `factor`
    /// (arrival-rate sweeps scale one base scenario's traffic).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        match self {
            ArrivalProcess::Poisson { rate_rps } => ArrivalProcess::Poisson {
                rate_rps: rate_rps * factor,
            },
            ArrivalProcess::Mmpp {
                rate_low_rps,
                rate_high_rps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => ArrivalProcess::Mmpp {
                rate_low_rps: rate_low_rps * factor,
                rate_high_rps: rate_high_rps * factor,
                mean_dwell_low_s: *mean_dwell_low_s,
                mean_dwell_high_s: *mean_dwell_high_s,
            },
            ArrivalProcess::Trace { iats } => ArrivalProcess::Trace {
                iats: iats.iter().map(|g| g / factor).collect(),
            },
        }
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        let pos = |x: f64| x > 0.0 && x.is_finite();
        match self {
            ArrivalProcess::Poisson { rate_rps } => {
                if !pos(*rate_rps) {
                    return Err(ServeError::BadConfig("Poisson rate must be positive"));
                }
            }
            ArrivalProcess::Mmpp {
                rate_low_rps,
                rate_high_rps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => {
                if !(pos(*rate_low_rps)
                    && pos(*rate_high_rps)
                    && pos(*mean_dwell_low_s)
                    && pos(*mean_dwell_high_s))
                {
                    return Err(ServeError::BadConfig(
                        "MMPP rates and dwell times must be positive",
                    ));
                }
            }
            ArrivalProcess::Trace { iats } => {
                if iats.is_empty() {
                    return Err(ServeError::BadConfig("trace needs >= 1 inter-arrival time"));
                }
                if iats.iter().any(|g| !(*g > 0.0 && g.is_finite())) {
                    return Err(ServeError::BadConfig(
                        "trace inter-arrival times must be positive",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Stateful arrival generator: owns the process, its seeded RNG and an
/// intensity scale (the knob scheduled bursts turn).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: StdRng,
    /// Multiplier on the instantaneous arrival intensity.
    scale: f64,
    /// MMPP phase: `true` = burst (high-rate) phase.
    mmpp_high: bool,
    /// MMPP: absolute time of the next phase switch.
    next_switch: f64,
    /// Trace: index of the next inter-arrival gap.
    trace_idx: usize,
}

impl ArrivalGen {
    /// Creates a generator; MMPP starts in the baseline phase.
    ///
    /// # Errors
    /// Propagates [`ArrivalProcess::validate`] failures.
    pub fn new(process: ArrivalProcess, seed: u64) -> Result<Self> {
        process.validate()?;
        let mut gen = ArrivalGen {
            process,
            rng: StdRng::seed_from_u64(seed),
            scale: 1.0,
            mmpp_high: false,
            next_switch: f64::INFINITY,
            trace_idx: 0,
        };
        if let ArrivalProcess::Mmpp {
            mean_dwell_low_s, ..
        } = gen.process
        {
            gen.next_switch = gen.draw_exp(1.0 / mean_dwell_low_s);
        }
        Ok(gen)
    }

    /// Scales the instantaneous arrival intensity (a scheduled burst or
    /// ebb). Affects only draws made after the call.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] on a non-positive or non-finite scale.
    pub fn set_intensity_scale(&mut self, scale: f64) -> Result<()> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ServeError::BadConfig("intensity scale must be positive"));
        }
        self.scale = scale;
        Ok(())
    }

    /// Exponential draw with the given rate (already intensity-scaled by
    /// the caller where applicable).
    fn draw_exp(&mut self, rate: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / rate
    }

    /// Draws the next arrival time strictly after `t`.
    pub fn next_after(&mut self, t: f64) -> f64 {
        match &self.process {
            ArrivalProcess::Poisson { rate_rps } => {
                let rate = rate_rps * self.scale;
                t + self.draw_exp(rate)
            }
            ArrivalProcess::Mmpp {
                rate_low_rps,
                rate_high_rps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => {
                let (rl, rh, dl, dh) = (
                    *rate_low_rps,
                    *rate_high_rps,
                    *mean_dwell_low_s,
                    *mean_dwell_high_s,
                );
                let mut from = t;
                loop {
                    let rate = if self.mmpp_high { rh } else { rl } * self.scale;
                    let candidate = from + self.draw_exp(rate);
                    if candidate <= self.next_switch {
                        return candidate;
                    }
                    // Phase switches first; memorylessness lets us
                    // restart the draw from the switch instant at the
                    // new phase's rate.
                    from = self.next_switch;
                    self.mmpp_high = !self.mmpp_high;
                    let dwell = if self.mmpp_high { dh } else { dl };
                    self.next_switch = from + self.draw_exp(1.0 / dwell);
                }
            }
            ArrivalProcess::Trace { iats } => {
                let gap = iats[self.trace_idx % iats.len()] / self.scale;
                self.trace_idx += 1;
                t + gap
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rate(gen: &mut ArrivalGen, horizon_s: f64) -> f64 {
        let mut t = 0.0;
        let mut n = 0usize;
        loop {
            t = gen.next_after(t);
            if t > horizon_s {
                break;
            }
            n += 1;
        }
        n as f64 / horizon_s
    }

    #[test]
    fn poisson_rate_matches() {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 80.0 }, 7).unwrap();
        let r = mean_rate(&mut gen, 200.0);
        assert!((r - 80.0).abs() < 5.0, "measured rate {r}");
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let draws = |seed| {
            let mut gen =
                ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 50.0 }, seed).unwrap();
            let mut t = 0.0;
            (0..100)
                .map(|_| {
                    t = gen.next_after(t);
                    t
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
    }

    #[test]
    fn mmpp_long_run_rate_is_dwell_weighted() {
        let p = ArrivalProcess::Mmpp {
            rate_low_rps: 20.0,
            rate_high_rps: 200.0,
            mean_dwell_low_s: 8.0,
            mean_dwell_high_s: 2.0,
        };
        let expected = p.mean_rate_rps();
        assert!((expected - 56.0).abs() < 1e-9);
        let mut gen = ArrivalGen::new(p, 11).unwrap();
        let r = mean_rate(&mut gen, 2000.0);
        assert!(
            (r - expected).abs() < 0.15 * expected,
            "rate {r} vs {expected}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Per-second arrival counts: MMPP's variance/mean (index of
        // dispersion) must clearly exceed Poisson's ~1.
        let dispersion = |p: ArrivalProcess| {
            let mut gen = ArrivalGen::new(p, 13).unwrap();
            let mut counts = vec![0usize; 1000];
            let mut t = 0.0;
            loop {
                t = gen.next_after(t);
                if t >= counts.len() as f64 {
                    break;
                }
                counts[t as usize] += 1;
            }
            let xs: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            v / m
        };
        let poisson = dispersion(ArrivalProcess::Poisson { rate_rps: 56.0 });
        let mmpp = dispersion(ArrivalProcess::Mmpp {
            rate_low_rps: 20.0,
            rate_high_rps: 200.0,
            mean_dwell_low_s: 8.0,
            mean_dwell_high_s: 2.0,
        });
        assert!(poisson < 1.5, "Poisson dispersion {poisson}");
        assert!(mmpp > 3.0, "MMPP dispersion {mmpp}");
    }

    /// Uneven gaps with mean 1 s: `trace(r)` has mean rate `r`.
    fn trace(rate_rps: f64) -> ArrivalProcess {
        let gaps = [0.4, 1.7, 0.9, 0.2, 1.3, 0.5, 2.1, 0.9];
        ArrivalProcess::Trace {
            iats: gaps.iter().map(|g| g / rate_rps).collect(),
        }
    }

    #[test]
    fn trace_rate_and_determinism() {
        let p = trace(40.0);
        assert!((p.mean_rate_rps() - 40.0).abs() < 1e-9);
        // Trace arrivals ignore the RNG entirely: two generators with
        // different seeds replay the same gaps.
        let mut a = ArrivalGen::new(p.clone(), 1).unwrap();
        let mut b = ArrivalGen::new(p, 2).unwrap();
        for _ in 0..50 {
            let t = a.next_after(0.0);
            assert_eq!(t, b.next_after(0.0));
        }
    }

    #[test]
    fn intensity_scale_shifts_rate() {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 40.0 }, 17).unwrap();
        gen.set_intensity_scale(3.0).unwrap();
        let r = mean_rate(&mut gen, 200.0);
        assert!((r - 120.0).abs() < 10.0, "scaled rate {r}");
        assert!(gen.set_intensity_scale(0.0).is_err());
        assert!(gen.set_intensity_scale(f64::NAN).is_err());
    }

    #[test]
    fn scaling_multiplies_mean_rate() {
        let procs = [
            ArrivalProcess::Poisson { rate_rps: 40.0 },
            ArrivalProcess::Mmpp {
                rate_low_rps: 20.0,
                rate_high_rps: 200.0,
                mean_dwell_low_s: 8.0,
                mean_dwell_high_s: 2.0,
            },
            trace(40.0),
        ];
        for p in procs {
            let scaled = p.scaled(1.5);
            scaled.validate().unwrap();
            assert!(
                (scaled.mean_rate_rps() - 1.5 * p.mean_rate_rps()).abs() < 1e-9 * p.mean_rate_rps(),
                "{p:?}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_processes() {
        assert!(ArrivalProcess::Poisson { rate_rps: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Mmpp {
            rate_low_rps: 10.0,
            rate_high_rps: -1.0,
            mean_dwell_low_s: 5.0,
            mean_dwell_high_s: 5.0,
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Trace { iats: vec![] }.validate().is_err());
        assert!(ArrivalProcess::Trace {
            iats: vec![0.1, 0.0]
        }
        .validate()
        .is_err());
    }
}
