//! The throughput-driven weight assignment algorithm (paper §1, §4.3).
//!
//! "We propose a novel weight assignment algorithm that monitors the
//! inference throughput of each GPU and the CPU in real time and gives
//! higher weights to CPU/GPU with higher throughput, so that they can run
//! at higher frequencies. … the controller can assign larger weights to
//! busier components by normalizing and inverting their throughput."
//!
//! Semantics in this implementation: a device's *importance* `w_j` is its
//! normalized throughput (∈ [0, 1]); the MPC control-penalty weight passed
//! to [`capgpu_control::mpc::MpcController::step`] is the **inverted**
//! importance `R_j ∝ ε + 1 − w_j`. Devices carrying more work are
//! penalized less for running above the reference (minimum) frequency and
//! therefore settle higher — at an interior optimum device `j`'s excess
//! frequency is proportional to `A_j / R_j` (see the MPC module docs).
//!
//! ## Phase-aware extension (LLM serving)
//!
//! Throughput alone is phase-blind: a decode-bound LLM device completes
//! requests lumpily (every resident request drains over hundreds of
//! decode steps), so its normalized completion throughput reads low and
//! the assigner parks it near the floor — yet the decode regime is
//! memory-bound, so the frequency cut recovers almost no power while
//! inflating inter-token latency and stalling co-resident prefills
//! ("The Illusion of Power Capping in LLM Decode", PAPERS.md). When the
//! serving layer reports a per-device [`PhaseMix`], the assigner scales
//! the inverted importance by a *cap-elasticity* factor
//! `e_j = (PHASE_FLOOR + (1 − PHASE_FLOOR) · prefill_share_j) · (1 − KV_GUARD · kv_j)`:
//! decode-dominated devices (low prefill share) and devices under KV-cache
//! pressure get penalties pulled toward `ε`, keeping them fast, while the
//! MPC sheds the cap's burden on prefill-elastic devices where a MHz
//! actually buys watts. A neutral mix (`prefill_share = 1`, `kv = 0`)
//! leaves `e_j = 1`, recovering the phase-blind weights exactly.

/// Per-device serving-phase mix for one control period — the signal the
/// LLM layer feeds into weight assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMix {
    /// Fraction of the device's busy time spent in compute-bound
    /// prefill (∈ [0, 1]); the rest is memory-bound decode.
    pub prefill_share: f64,
    /// KV-cache occupancy as a fraction of the budget (∈ [0, 1]).
    pub kv_occupancy: f64,
    /// Tokens processed per second (prefill + decode) — recorded for
    /// telemetry/diagnostics, not used in the penalty itself.
    pub tokens_per_s: f64,
}

impl PhaseMix {
    /// The neutral mix: fully prefill (cap-elastic), empty cache. With
    /// this value the phase-aware penalty equals the phase-blind one,
    /// so non-LLM devices (the CPU, idle GPUs) pass through unchanged.
    pub fn neutral() -> Self {
        PhaseMix {
            prefill_share: 1.0,
            kv_occupancy: 0.0,
            tokens_per_s: 0.0,
        }
    }
}

/// Floor added to the inverted weight so a fully-busy device (normalized
/// throughput = 1) still carries a positive penalty — keeps the MPC
/// Hessian strictly positive definite.
const EPSILON: f64 = 0.1;
/// Cap-elasticity floor: a pure-decode device keeps this fraction of its
/// phase-blind penalty (never fully immune to the cap).
const PHASE_FLOOR: f64 = 0.15;
/// How strongly KV-cache pressure shrinks the penalty: at full occupancy
/// the elasticity is scaled by `1 − KV_GUARD`.
const KV_GUARD: f64 = 0.5;

/// Which weight-assignment rule the controller applies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WeightAssigner {
    /// Throughput inversion scaled by each device's phase-mix
    /// cap-elasticity — the paper's rule plus the LLM extension.
    #[default]
    PhaseAware,
    /// Throughput inversion only: the ablation arm that shows why the
    /// phase signal matters.
    PhaseBlind,
    /// All devices weigh 1: the weight-assignment-off ablation arm.
    Uniform,
}

impl WeightAssigner {
    /// Maps normalized throughputs (∈ [0, 1] per device) to per-device MPC
    /// control-penalty weights `R_j = ε + 1 − w_j`.
    ///
    /// Devices that have not yet reported any throughput (0) get the
    /// maximum penalty `ε + 1` — they are parked near the reference
    /// frequency until they prove busy, which is the conservative choice
    /// under a power cap.
    pub fn control_penalties(&self, normalized_throughput: &[f64]) -> Vec<f64> {
        if *self == WeightAssigner::Uniform {
            return vec![1.0; normalized_throughput.len()];
        }
        normalized_throughput
            .iter()
            .map(|w| EPSILON + 1.0 - w.clamp(0.0, 1.0))
            .collect()
    }

    /// Cap-elasticity factor for one device's phase mix:
    /// `(PHASE_FLOOR + (1 − PHASE_FLOOR) · prefill_share) · (1 − KV_GUARD · kv)`,
    /// clamped into `(0, 1]`. The neutral mix maps to exactly 1.
    fn elasticity(mix: &PhaseMix) -> f64 {
        let share = mix.prefill_share.clamp(0.0, 1.0);
        let kv = mix.kv_occupancy.clamp(0.0, 1.0);
        let e = (PHASE_FLOOR + (1.0 - PHASE_FLOOR) * share) * (1.0 - KV_GUARD * kv);
        e.clamp(f64::EPSILON, 1.0)
    }

    /// Phase-aware penalties: the inverted importance `1 − w_j` is
    /// scaled by the device's cap-elasticity before the `ε` floor is
    /// added, `R_j = ε + (1 − w_j) · e_j`.
    ///
    /// `phase_mix` is `None` (or the rule is not
    /// [`WeightAssigner::PhaseAware`]) → falls back to
    /// [`WeightAssigner::control_penalties`] exactly, so the one-shot
    /// serving and pipeline plants are untouched. A `Some` mix must be
    /// device-indexed and the same length as the throughputs.
    pub fn control_penalties_with_phase(
        &self,
        normalized_throughput: &[f64],
        phase_mix: Option<&[PhaseMix]>,
    ) -> Vec<f64> {
        let (WeightAssigner::PhaseAware, Some(mix)) = (self, phase_mix) else {
            return self.control_penalties(normalized_throughput);
        };
        debug_assert_eq!(mix.len(), normalized_throughput.len());
        normalized_throughput
            .iter()
            .zip(mix.iter())
            .map(|(w, m)| {
                let e = Self::elasticity(m);
                let w = w.clamp(0.0, 1.0);
                if e == 1.0 {
                    // Bit-exact phase-blind recovery on the neutral mix
                    // (`ε + (1 − w) · 1` rounds differently).
                    EPSILON + 1.0 - w
                } else {
                    EPSILON + (1.0 - w) * e
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busier_devices_get_smaller_penalties() {
        let wa = WeightAssigner::default();
        let r = wa.control_penalties(&[1.0, 0.5, 0.0]);
        assert!(r[0] < r[1] && r[1] < r[2], "{r:?}");
        assert!((r[0] - 0.1).abs() < 1e-12);
        assert!((r[2] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn penalties_always_positive() {
        let wa = WeightAssigner::default();
        for w in [0.0, 0.5, 1.0, 2.0, -1.0] {
            let r = wa.control_penalties(&[w]);
            assert!(r[0] > 0.0, "weight {w} gave penalty {}", r[0]);
        }
    }

    #[test]
    fn out_of_range_throughput_clamped() {
        let wa = WeightAssigner::default();
        let r = wa.control_penalties(&[5.0, -3.0]);
        assert!((r[0] - 0.1).abs() < 1e-12);
        assert!((r[1] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn disabled_gives_uniform() {
        let wa = WeightAssigner::Uniform;
        assert_eq!(wa.control_penalties(&[0.1, 0.9, 0.5]), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_input() {
        let wa = WeightAssigner::default();
        assert!(wa.control_penalties(&[]).is_empty());
    }

    #[test]
    fn neutral_phase_mix_recovers_phase_blind_penalties() {
        let wa = WeightAssigner::default();
        let thr = [0.9, 0.4, 0.0];
        let neutral = vec![PhaseMix::neutral(); 3];
        assert_eq!(
            wa.control_penalties_with_phase(&thr, Some(&neutral)),
            wa.control_penalties(&thr)
        );
        assert_eq!(
            wa.control_penalties_with_phase(&thr, None),
            wa.control_penalties(&thr)
        );
    }

    #[test]
    fn decode_bound_devices_get_smaller_penalties_at_equal_throughput() {
        let wa = WeightAssigner::default();
        let thr = [0.5, 0.5];
        let mix = [
            PhaseMix {
                prefill_share: 0.9,
                kv_occupancy: 0.0,
                tokens_per_s: 1000.0,
            },
            PhaseMix {
                prefill_share: 0.1,
                kv_occupancy: 0.0,
                tokens_per_s: 1000.0,
            },
        ];
        let r = wa.control_penalties_with_phase(&thr, Some(&mix));
        // The decode-bound device is kept fast: smaller penalty.
        assert!(r[1] < r[0], "{r:?}");
        // But never below the epsilon floor.
        assert!(r[1] > EPSILON, "{r:?}");
    }

    #[test]
    fn kv_pressure_shrinks_the_penalty_further() {
        let wa = WeightAssigner::default();
        let thr = [0.5, 0.5];
        let mk = |kv| PhaseMix {
            prefill_share: 0.5,
            kv_occupancy: kv,
            tokens_per_s: 500.0,
        };
        let relaxed = wa.control_penalties_with_phase(&thr, Some(&[mk(0.0), mk(0.0)]));
        let pressured = wa.control_penalties_with_phase(&thr, Some(&[mk(0.0), mk(0.95)]));
        assert!(pressured[1] < relaxed[1], "{pressured:?} vs {relaxed:?}");
        assert!(pressured[1] > 0.0);
    }

    #[test]
    fn phase_blind_assigner_ignores_the_mix() {
        let wa = WeightAssigner::PhaseBlind;
        let thr = [0.5, 0.5];
        let mix = [
            PhaseMix {
                prefill_share: 1.0,
                kv_occupancy: 0.0,
                tokens_per_s: 0.0,
            },
            PhaseMix {
                prefill_share: 0.0,
                kv_occupancy: 1.0,
                tokens_per_s: 0.0,
            },
        ];
        assert_eq!(
            wa.control_penalties_with_phase(&thr, Some(&mix)),
            wa.control_penalties(&thr)
        );
    }

    #[test]
    fn phase_penalties_clamp_out_of_range_mixes() {
        let wa = WeightAssigner::default();
        let thr = [0.0];
        let wild = [PhaseMix {
            prefill_share: 7.0,
            kv_occupancy: -2.0,
            tokens_per_s: f64::NAN,
        }];
        let r = wa.control_penalties_with_phase(&thr, Some(&wild));
        // Clamps to the neutral mix: identical to phase-blind.
        assert_eq!(r, wa.control_penalties(&thr));
    }
}
