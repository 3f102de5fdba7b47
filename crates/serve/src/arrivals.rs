//! Arrival processes for the serving engine.
//!
//! Requests arrive as a memoryless Poisson stream (the queueing-theory
//! baseline), whose intensity a scheduled burst or ebb can scale.

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
}

impl ArrivalProcess {
    /// The process's nominal mean rate (requests/s), before any
    /// intensity scaling.
    pub fn mean_rate_rps(&self) -> f64 {
        let ArrivalProcess::Poisson { rate_rps } = self;
        *rate_rps
    }

    /// The same process with its mean rate multiplied by `factor`
    /// (arrival-rate sweeps scale one base scenario's traffic).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson {
            rate_rps: self.mean_rate_rps() * factor,
        }
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] on a rate that is not positive and finite.
    pub fn validate(&self) -> Result<()> {
        let rate = self.mean_rate_rps();
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(ServeError::BadConfig("Poisson rate must be positive"));
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
}

impl ArrivalGen {
    /// Creates a generator.
    ///
    /// # Errors
    /// Propagates [`ArrivalProcess::validate`] failures.
    pub fn new(process: ArrivalProcess, seed: u64) -> Result<Self> {
        process.validate()?;
        Ok(ArrivalGen {
            process,
            rng: StdRng::seed_from_u64(seed),
            scale: 1.0,
        })
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

    /// Draws the next arrival time strictly after `t`: an exponential
    /// gap at the scaled rate.
    #[inline]
    pub fn next_after(&mut self, t: f64) -> f64 {
        let rate = self.process.mean_rate_rps() * self.scale;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        t + -u.ln() / rate
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
        let scaled = ArrivalProcess::Poisson { rate_rps: 40.0 }.scaled(1.5);
        scaled.validate().unwrap();
        assert_eq!(scaled.mean_rate_rps(), 60.0);
    }

    #[test]
    fn validation_rejects_bad_processes() {
        for rate_rps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(ArrivalProcess::Poisson { rate_rps }.validate().is_err());
        }
    }
}
