//! The CapGPU MIMO model-predictive controller (paper §4.3, Eq. 9 + 10a–c).
//!
//! # The paper's problem and the one block that is applied
//!
//! With prediction horizon `P`, control horizon `M` and `N` devices, the
//! paper's decision vector stacks the `M` frequency moves
//! `d = [d₀; …; d_{M−1}]`. From the difference model (Eq. 7) the
//! predicted power is `p(k+i|k) = p(k) + A · Σ_{l < min(i,M)} d_l`, and
//! the cost (Eq. 9) is
//!
//! ```text
//!   V = Σ_{i=1}^{P} Q(i)·‖p(k+i|k) − P_s‖² +
//!       Σ_{i=0}^{M−1} ‖d(k+i|k) + f(k+i|k) − f_ref‖²_{R(i)}
//! ```
//!
//! Constraint (10a) bounds every cumulative frequency; constraints
//! (10b)+(10c) reduce to per-GPU frequency floors (see
//! [`crate::latency`]). Only the first move `d₀` is applied (receding
//! horizon).
//!
//! In *cumulative-move* coordinates `cᵢ = Σ_{l≤i} dₗ` the predicted power
//! at step `i` is `p(k) + a·c_{min(i,M)−1}`, the control penalty is
//! `‖cᵢ + w‖²_R` with `w = f(k) − f_ref`, and every constraint is the same
//! per-variable box on each `cᵢ`. Eq. 9 penalises the frequency *level*,
//! not the move, so the problem splits into `M` independent blocks, and
//! block 0 — whose minimiser is `d₀` — carries tracking weight `Q` for
//! every `P` once `M ≥ 2` (only step `i = 1` lands in it). The paper's
//! `P = 8`, `M = 2` therefore apply exactly the minimiser of
//!
//! ```text
//!   min_c  Q·(e + aᵀc)² + Σⱼ rⱼ·(cⱼ + wⱼ)²   s.t.  lo ≤ c ≤ hi,
//!   lo = f_lo − f(k),  hi = f_max − f(k),
//! ```
//!
//! with `e = p(k) − P_s`, and that `N`-variable box problem is all
//! [`MpcController::step`] solves. The horizons survive only in this
//! module's tests, which hold `step` against the full condensed QP at
//! `P = 8`, `M = 2` (and at other horizons), built in the original `d`
//! coordinates and solved by the generic active-set solver of the
//! dev-only `capgpu-oracle` crate.
//!
//! # How it is solved: one multiplier
//!
//! The Hessian is diagonal plus rank one, so the KKT conditions solve the
//! block exactly. With the multiplier `λ = Q·(e + aᵀc)` — the weighted
//! predicted tracking error, `Q·(predicted_power − P_s)` — every device's
//! move is
//!
//! ```text
//!   cⱼ(λ) = clamp(−wⱼ − λ·aⱼ/rⱼ, loⱼ, hiⱼ),
//! ```
//!
//! and `λ` is the one root of `φ(λ) = λ − Q·(e + Σⱼ aⱼ·cⱼ(λ))`. Each term
//! `aⱼ·cⱼ(λ)` is non-increasing, so `φ` is strictly increasing (slope
//! ≥ 1) and piecewise linear, with at most `2N` breakpoints, where a
//! device reaches a bound. [`MpcController::step`] sorts them,
//! binary-searches the sign change of `φ`, and solves the bracketing
//! segment — on which the free set `F` is fixed — in closed form:
//!
//! ```text
//!   λ = Q·(e + Σ_{j∉F} aⱼ·boundⱼ − Σ_{j∈F} aⱼ·wⱼ) / (1 + Q·Σ_{j∈F} aⱼ²/rⱼ).
//! ```
//!
//! That is O(N log N) with no iteration and no state carried between
//! periods: the move is a pure function of the period's inputs and the
//! model (DESIGN.md §15).
//!
//! # Weight semantics
//!
//! `R` is per-device. The paper: "to handle varying workloads, the
//! controller can assign larger weights to busier components by normalizing
//! and inverting their throughput" — a device with a *small* `R_j` is
//! penalized less for sitting above `f_ref = f_min` and therefore settles
//! at a higher frequency. At an interior optimum the excess frequency of
//! device `j` is proportional to `A_j / R_j`, which is exactly the
//! throughput-proportional allocation the weight assigner in the `capgpu`
//! crate produces.

use crate::model::LinearPowerModel;
use crate::{ControlError, Result};

/// Tracking weight `Q(i)`, the same at every prediction step (paper
/// Eq. 9: `Q = 1`); block 0's whole tracking weight (module docs).
const Q_WEIGHT: f64 = 1.0;
/// Base control-penalty scale multiplied by the per-device weights.
const R_BASE: f64 = 2e-4;

/// Static MPC configuration: the frequency bounds of constraint (10a).
/// The control penalty's reference frequency `f_ref` is the hardware
/// minimum `f_min`, as in the paper.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Hard per-device minimum frequencies (MHz).
    pub f_min: Vec<f64>,
    /// Hard per-device maximum frequencies (MHz).
    pub f_max: Vec<f64>,
}

impl MpcConfig {
    /// The paper's configuration for the given frequency ranges. Its
    /// `P = 8`, `M = 2` need no field: they apply the same move as the one
    /// block [`MpcController::step`] solves (module docs).
    pub fn paper_defaults(f_min: Vec<f64>, f_max: Vec<f64>) -> Self {
        MpcConfig { f_min, f_max }
    }

    fn validate(&self) -> Result<usize> {
        let n = self.f_min.len();
        if n == 0 {
            return Err(ControlError::BadConfig("MPC needs >= 1 device"));
        }
        if self.f_max.len() != n {
            return Err(ControlError::BadConfig("MPC bound length mismatch"));
        }
        if self
            .f_min
            .iter()
            .zip(self.f_max.iter())
            .any(|(lo, hi)| lo >= hi)
        {
            return Err(ControlError::BadConfig("MPC needs f_min < f_max"));
        }
        Ok(n)
    }
}

/// Result of one MPC control period.
#[derive(Debug, Clone)]
pub struct MpcStep {
    /// New frequency targets (current + first move), already clamped to the
    /// effective bounds. Fractional — feed them to a delta-sigma modulator.
    pub target_freqs: Vec<f64>,
    /// The applied first move `d₀` (MHz per device), the solved block's
    /// minimiser.
    pub first_move: Vec<f64>,
    /// Power predicted by the model after the first move. The solve's
    /// multiplier is `λ = Q·(predicted_power − setpoint)` with `Q = 1`
    /// (module docs): every free device's move is `−wⱼ − λ·aⱼ/rⱼ`.
    pub predicted_power: f64,
    /// Always 0: the solve is closed-form and runs no iteration. Kept
    /// because the repository benchmark reads it; it goes when that
    /// benchmark stops reading it.
    pub qp_iterations: usize,
    /// True when an SLO floor exceeded a device's reachable range and had
    /// to be clamped (best-effort; see module docs).
    pub floor_clamped: bool,
    /// Devices whose move sits on a bound at the optimum (frequency-range
    /// bounds and SLO floors), at most `N`. Telemetry: which bound shaped
    /// the move.
    pub active_constraints: usize,
    /// True when some device's move sits on an SLO-*raised* floor (above
    /// the hardware `f_min`) — the paper's (10b) latency bound binding
    /// the move.
    pub slo_floor_binding: bool,
}

/// One device's term of the period's block (module docs): gain `a`,
/// `slope = a/r` of its unclamped move in `λ` (`r > 0` its control
/// penalty), offset `w = f(k) − f_min` and the box `lo ≤ c ≤ hi` on its
/// move.
#[derive(Debug, Clone, Copy)]
struct Term {
    a: f64,
    slope: f64,
    w: f64,
    lo: f64,
    hi: f64,
}

impl Term {
    /// The minimising move at multiplier `λ`.
    fn at(&self, lam: f64) -> f64 {
        (-self.w - lam * self.slope).clamp(self.lo, self.hi)
    }

    /// The `λ` at which the unclamped move `−w − λ·slope` reaches
    /// `bound` (`slope ≠ 0`).
    fn breakpoint(&self, bound: f64) -> f64 {
        -(bound + self.w) / self.slope
    }

    /// The bound the move sits on for every `λ` strictly inside
    /// `(left, right)`, an interval no breakpoint cuts, or `None` if the
    /// move is free there. A point box (a floor clamped to `f_max`) is
    /// always pinned, on a bound that is also its floor.
    fn pinned(&self, left: f64, right: f64) -> Option<f64> {
        if self.slope == 0.0 {
            // No breakpoint: the move is `−w` clamped, for every λ.
            let u = -self.w;
            return (u <= self.lo || u >= self.hi).then(|| u.clamp(self.lo, self.hi));
        }
        // The move falls with λ when the slope is positive, else rises.
        let (t_hi, t_lo) = (self.breakpoint(self.hi), self.breakpoint(self.lo));
        let ((t_first, first), (t_last, last)) = if self.slope > 0.0 {
            ((t_hi, self.hi), (t_lo, self.lo))
        } else {
            ((t_lo, self.lo), (t_hi, self.hi))
        };
        if right <= t_first {
            Some(first)
        } else if left >= t_last {
            Some(last)
        } else {
            None
        }
    }
}

/// The receding-horizon MPC controller. It carries no state between
/// periods: [`MpcController::step`] is a pure function of its inputs and
/// the current model.
#[derive(Debug, Clone)]
pub struct MpcController {
    config: MpcConfig,
    model: LinearPowerModel,
    num_devices: usize,
}

impl MpcController {
    /// Creates a controller for a previously identified power model.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] if the configuration is inconsistent or
    /// the model's device count disagrees with the bounds.
    pub fn new(config: MpcConfig, model: LinearPowerModel) -> Result<Self> {
        let n = config.validate()?;
        if model.num_devices() != n {
            return Err(ControlError::BadConfig(
                "model device count != config device count",
            ));
        }
        Ok(MpcController {
            config,
            model,
            num_devices: n,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// The power model currently in use.
    pub fn model(&self) -> &LinearPowerModel {
        &self.model
    }

    /// Replaces the power model (online re-identification).
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] on device-count mismatch.
    pub fn set_model(&mut self, model: LinearPowerModel) -> Result<()> {
        if model.num_devices() != self.num_devices {
            return Err(ControlError::BadConfig("model device count changed"));
        }
        self.model = model;
        Ok(())
    }

    /// Validates step inputs and computes the effective per-device floors:
    /// SLO floors can only tighten the hard minimum; a floor above `f_max`
    /// is clamped (best effort) and flagged.
    fn effective_floors(
        &self,
        p_measured: f64,
        setpoint: f64,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<(Vec<f64>, bool)> {
        let n = self.num_devices;
        if current_freqs.len() != n || r_weights.len() != n || floors.len() != n {
            return Err(ControlError::BadConfig("MPC step input length mismatch"));
        }
        if !p_measured.is_finite() || !setpoint.is_finite() {
            return Err(ControlError::BadConfig(
                "measured power and set point must be finite",
            ));
        }
        if current_freqs.iter().any(|f| !f.is_finite()) {
            return Err(ControlError::BadConfig(
                "current frequencies must be finite",
            ));
        }
        if r_weights.iter().any(|w| !(w.is_finite() && *w >= 0.0)) {
            return Err(ControlError::BadConfig(
                "r_weights must be finite and non-negative",
            ));
        }
        if floors.iter().any(|f| f.is_nan()) {
            return Err(ControlError::BadConfig("floors must not be NaN"));
        }
        let mut floor_clamped = false;
        let f_lo: Vec<f64> = (0..n)
            .map(|j| {
                let lo = floors[j].max(self.config.f_min[j]);
                if lo > self.config.f_max[j] {
                    floor_clamped = true;
                    self.config.f_max[j]
                } else {
                    lo
                }
            })
            .collect();
        Ok((f_lo, floor_clamped))
    }

    /// Computes one control period: given the measured average power, the
    /// set point, the currently applied frequencies, per-device control
    /// weights (≥ 0, scaled by `R_BASE`; pass all-1s for uniform), and
    /// per-device frequency floors (pass `f_min` when no SLO applies).
    ///
    /// Solves the applied block exactly by the multiplier search of the
    /// module docs. The `#[cfg(test)]` `step_uncached` is the generic-solver
    /// reference over the full horizons.
    ///
    /// # Errors
    /// [`ControlError::BadConfig`] on input length mismatches, a
    /// non-finite measured power, set point, current frequency or weight,
    /// a negative weight, or a NaN floor.
    pub fn step(
        &self,
        p_measured: f64,
        setpoint: f64,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<MpcStep> {
        let n = self.num_devices;
        let (f_lo, floor_clamped) =
            self.effective_floors(p_measured, setpoint, current_freqs, r_weights, floors)?;
        let f_now = current_freqs;
        let e0 = p_measured - setpoint;
        let a = self.model.gains();
        let terms: Vec<Term> = (0..n)
            .map(|j| Term {
                a: a[j],
                slope: a[j] / (R_BASE * r_weights[j].max(1e-9)),
                w: f_now[j] - self.config.f_min[j],
                lo: f_lo[j] - f_now[j],
                hi: self.config.f_max[j] - f_now[j],
            })
            .collect();

        // ---- Bracket the root of φ between two adjacent breakpoints ----
        let phi =
            |lam: f64| lam - Q_WEIGHT * (e0 + terms.iter().map(|t| t.a * t.at(lam)).sum::<f64>());
        let mut breakpoints: Vec<f64> = terms
            .iter()
            .filter(|t| t.slope != 0.0)
            .flat_map(|t| [t.breakpoint(t.lo), t.breakpoint(t.hi)])
            .collect();
        breakpoints.sort_unstable_by(f64::total_cmp);
        let first_above = breakpoints.partition_point(|&lam| phi(lam) < 0.0);
        let left = (first_above.checked_sub(1)).map_or(f64::NEG_INFINITY, |i| breakpoints[i]);
        let right = breakpoints
            .get(first_above)
            .copied()
            .unwrap_or(f64::INFINITY);

        // ---- The segment's free set fixes λ in closed form ----
        let pinned: Vec<Option<f64>> = terms.iter().map(|t| t.pinned(left, right)).collect();
        let (mut excess, mut curvature) = (e0, 0.0);
        for (t, pin) in terms.iter().zip(&pinned) {
            match pin {
                Some(bound) => excess += t.a * bound,
                None => {
                    excess -= t.a * t.w;
                    curvature += t.a * t.slope;
                }
            }
        }
        let lam = Q_WEIGHT * excess / (1.0 + Q_WEIGHT * curvature);

        let first_move: Vec<f64> = terms
            .iter()
            .zip(&pinned)
            .map(|(t, pin)| pin.unwrap_or_else(|| t.at(lam)))
            .collect();
        let active_constraints = pinned.iter().filter(|p| p.is_some()).count();
        // A device pinned at its lower bound is an SLO binding when the
        // floor is raised above hardware f_min.
        let slo_floor_binding =
            (0..n).any(|j| pinned[j] == Some(terms[j].lo) && f_lo[j] > self.config.f_min[j]);
        let target: Vec<f64> = (0..n)
            .map(|j| (f_now[j] + first_move[j]).clamp(f_lo[j], self.config.f_max[j]))
            .collect();
        let predicted = self.model.predict_delta(p_measured, &first_move);
        Ok(MpcStep {
            target_freqs: target,
            first_move,
            predicted_power: predicted,
            qp_iterations: 0,
            floor_clamped,
            active_constraints,
            slo_floor_binding,
        })
    }

    /// The *unconstrained* first-move feedback law
    /// `d₀ = −K_p·(p − P_s) − K_f·(f − f_ref)` at uniform weights
    /// (`R = R_BASE·I`), the input of the stability analysis (paper §4.4:
    /// "its control decisions become linear functions of the current power,
    /// the set point, and the previous frequency decisions").
    ///
    /// The law is the unconstrained minimiser of the solved block,
    /// `Q·(e₀ + aᵀc)² + ‖c + w‖²_R` (module docs). Sherman–Morrison on
    /// `R + Q·aaᵀ` gives
    ///
    /// ```text
    ///   K_p = Q·R⁻¹a / (1 + s),   s = Q·aᵀR⁻¹a,   K_f = I − K_p·aᵀ.
    /// ```
    ///
    /// Returns `K_p` (MHz/W per device); `K_f` follows from it and the
    /// model's gains `a`.
    pub fn unconstrained_gains(&self) -> Vec<f64> {
        let a = self.model.gains();
        let s = Q_WEIGHT * a.iter().map(|a| a * a).sum::<f64>() / R_BASE;
        a.iter()
            .map(|a| Q_WEIGHT * a / R_BASE / (1.0 + s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu_linalg::Matrix;
    use capgpu_oracle::qp::{ActiveSetQp, LinearConstraint, QpProblem};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper's prediction and control horizons `(P, M)` (§4.3).
    const PAPER: (usize, usize) = (8, 2);

    impl MpcController {
        /// Builds the selector row `s_i = A·C_i` (power sensitivity of
        /// prediction step `i ∈ 1..=P` to the `M` stacked moves).
        fn tracking_row(&self, i: usize, m: usize) -> Vec<f64> {
            let n = self.num_devices;
            let blocks = i.min(m);
            let mut row = vec![0.0; m * n];
            for l in 0..blocks {
                for j in 0..n {
                    row[l * n + j] = self.model.gains()[j];
                }
            }
            row
        }

        /// Reference implementation of [`MpcController::step`]: builds the
        /// paper's whole condensed QP at horizons `(P, M)` in the original
        /// per-move coordinates and cold-starts the generic
        /// [`ActiveSetQp`] every call. It is the ground truth the one-block
        /// multiplier search is tested against, and shares no arithmetic
        /// with it beyond the input validation. Its diagnostics
        /// describe the applied move `d₀`: the active rows of the first
        /// `N` devices' bounds, laid out as `2·j` (upper) / `2·j + 1`
        /// (lower).
        ///
        /// # Errors
        /// Same as [`MpcController::step`]; a failure of the oracle solve
        /// itself panics.
        #[allow(clippy::needless_range_loop)]
        fn step_uncached(
            &self,
            (p_h, m): (usize, usize),
            p_measured: f64,
            setpoint: f64,
            current_freqs: &[f64],
            r_weights: &[f64],
            floors: &[f64],
        ) -> Result<MpcStep> {
            assert!(1 <= m && m <= p_h, "horizons (P, M) = ({p_h}, {m})");
            let n = self.num_devices;
            let (f_lo, floor_clamped) =
                self.effective_floors(p_measured, setpoint, current_freqs, r_weights, floors)?;
            let f_now: Vec<f64> = current_freqs.to_vec();
            let dim = m * n;

            // ---- Quadratic cost --------------------------------------------
            // H = 2·(Σ Qᵢ·sᵢsᵢᵀ + Σ Tᵢᵀ R Tᵢ),
            // g = 2·(e₀·Σ Qᵢ·sᵢ + Σ Tᵢᵀ R w),  w = f(k) − f_ref.
            let e0 = p_measured - setpoint;
            let w: Vec<f64> = (0..n).map(|j| f_now[j] - self.config.f_min[j]).collect();
            let r_diag: Vec<f64> = (0..n).map(|j| R_BASE * r_weights[j].max(1e-9)).collect();

            let mut h = Matrix::zeros(dim, dim);
            let mut g = vec![0.0; dim];
            for i in 1..=p_h {
                let s = self.tracking_row(i, m);
                for a in 0..dim {
                    if s[a] == 0.0 {
                        continue;
                    }
                    g[a] += 2.0 * Q_WEIGHT * e0 * s[a];
                    for b in 0..dim {
                        h[(a, b)] += 2.0 * Q_WEIGHT * s[a] * s[b];
                    }
                }
            }
            // Control-penalty blocks: Tᵢ has identity blocks 0..=i, so
            // (TᵢᵀRTᵢ)[(a·N+j),(b·N+j)] = R_j when a ≤ i and b ≤ i.
            for i in 0..m {
                for a in 0..=i {
                    for b in 0..=i {
                        for j in 0..n {
                            h[(a * n + j, b * n + j)] += 2.0 * r_diag[j];
                        }
                    }
                    for j in 0..n {
                        g[a * n + j] += 2.0 * r_diag[j] * w[j];
                    }
                }
            }

            // ---- Constraints (10a + SLO floors) ----------------------------
            // For every cumulative position i ∈ 0..M and device j:
            //   f_lo[j] ≤ f_now[j] + (Tᵢ d)ⱼ ≤ f_max[j].
            let mut cons = Vec::with_capacity(2 * m * n + 2 * n);
            for i in 0..m {
                for j in 0..n {
                    let mut row = vec![0.0; dim];
                    for l in 0..=i {
                        row[l * n + j] = 1.0;
                    }
                    cons.push(LinearConstraint::new(
                        row.clone(),
                        self.config.f_max[j] - f_now[j],
                    ));
                    let neg: Vec<f64> = row.iter().map(|v| -v).collect();
                    cons.push(LinearConstraint::new(neg, f_now[j] - f_lo[j]));
                }
            }
            // Feasible start: the first move jumps to the nearest feasible
            // clock, the later moves hold it.
            let mut start = vec![0.0; dim];
            for j in 0..n {
                start[j] = f_now[j].clamp(f_lo[j], self.config.f_max[j]) - f_now[j];
            }
            let qp = QpProblem::new(h, g, cons).expect("the oracle QP is well-formed");
            let sol = ActiveSetQp::default()
                .solve(&qp, &start)
                .unwrap_or_else(|e| panic!("oracle QP failed: {e}"));

            let first_move = sol.x[..n].to_vec();
            let applied: Vec<usize> = sol
                .active_set
                .iter()
                .copied()
                .filter(|&r| r < 2 * n)
                .collect();
            let active_constraints = applied.len();
            let slo_floor_binding = applied
                .iter()
                .any(|&r| r % 2 == 1 && f_lo[r / 2] > self.config.f_min[r / 2]);
            let target: Vec<f64> = (0..n)
                .map(|j| (f_now[j] + first_move[j]).clamp(f_lo[j], self.config.f_max[j]))
                .collect();
            let predicted = self.model.predict_delta(p_measured, &first_move);
            Ok(MpcStep {
                target_freqs: target,
                first_move,
                predicted_power: predicted,
                qp_iterations: sol.iterations,
                floor_clamped,
                active_constraints,
                slo_floor_binding,
            })
        }
    }

    fn controller() -> MpcController {
        // 1 CPU (1000–2400 MHz) + 2 GPUs (435–1350 MHz) with V100-scale
        // gains; the default paper config.
        let model = LinearPowerModel::new(vec![0.06, 0.18, 0.18], 250.0).unwrap();
        let config =
            MpcConfig::paper_defaults(vec![1000.0, 435.0, 435.0], vec![2400.0, 1350.0, 1350.0]);
        MpcController::new(config, model).unwrap()
    }

    #[test]
    fn raises_frequencies_when_under_cap() {
        let c = controller();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f); // exactly on-model
        let step = c
            .step(p, p + 100.0, &f, &[1.0, 1.0, 1.0], &[1000.0, 435.0, 435.0])
            .unwrap();
        // The optimizer may *redistribute* (e.g. trade CPU MHz for GPU MHz
        // to minimize the control penalty) but the net effect must be a
        // power increase toward the set point.
        assert!(
            step.predicted_power > p,
            "predicted {} should exceed measured {p}",
            step.predicted_power
        );
        assert!(step.predicted_power <= p + 100.0 + 1e-6);
        assert!(!step.floor_clamped);
    }

    #[test]
    fn lowers_frequencies_when_over_cap() {
        let c = controller();
        let f = [2000.0, 1200.0, 1200.0];
        let p = c.model().predict(&f);
        let step = c
            .step(p, p - 150.0, &f, &[1.0, 1.0, 1.0], &[1000.0, 435.0, 435.0])
            .unwrap();
        assert!(
            step.first_move.iter().all(|d| *d <= 0.0),
            "{:?}",
            step.first_move
        );
        assert!(step.predicted_power < p);
    }

    #[test]
    fn respects_frequency_bounds() {
        let c = controller();
        let f = [2350.0, 1300.0, 1300.0];
        let p = c.model().predict(&f);
        // Huge deficit: moves must stop at f_max.
        let step = c
            .step(p, p + 500.0, &f, &[1.0, 1.0, 1.0], &[1000.0, 435.0, 435.0])
            .unwrap();
        for (j, t) in step.target_freqs.iter().enumerate() {
            assert!(*t <= c.config().f_max[j] + 1e-6, "device {j} exceeds max");
        }
    }

    #[test]
    fn slo_floor_forces_frequency_up() {
        let c = controller();
        let f = [1400.0, 500.0, 800.0];
        let p = c.model().predict(&f);
        // GPU 0 (device 1) gets a floor of 900 MHz.
        let step = c
            .step(p, p, &f, &[1.0, 1.0, 1.0], &[1000.0, 900.0, 435.0])
            .unwrap();
        assert!(
            step.target_freqs[1] >= 900.0 - 1e-6,
            "floor not enforced: {:?}",
            step.target_freqs
        );
        assert!(step.slo_floor_binding);
        assert!(step.active_constraints > 0);
    }

    #[test]
    fn floor_above_fmax_is_clamped_and_flagged() {
        let c = controller();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f);
        let step = c
            .step(p, p, &f, &[1.0, 1.0, 1.0], &[1000.0, 2000.0, 435.0])
            .unwrap();
        assert!(step.floor_clamped);
        assert!(step.target_freqs[1] <= 1350.0 + 1e-6);
    }

    #[test]
    fn weight_ratio_shapes_allocation() {
        // Two identical GPUs, one busy (low weight), one idle (high
        // weight): after a deficit step the busy one must climb more.
        let model = LinearPowerModel::new(vec![0.18, 0.18], 250.0).unwrap();
        let config = MpcConfig::paper_defaults(vec![435.0, 435.0], vec![1350.0, 1350.0]);
        let c = MpcController::new(config, model).unwrap();
        let f = [800.0, 800.0];
        let p = c.model().predict(&f);
        let step = c
            .step(p, p + 60.0, &f, &[0.2, 1.8], &[435.0, 435.0])
            .unwrap();
        assert!(
            step.first_move[0] > step.first_move[1],
            "busy device should climb more: {:?}",
            step.first_move
        );
    }

    #[test]
    fn converges_to_setpoint_in_closed_loop() {
        // Simulate the plant with the true model (plus nothing): power must
        // converge to the set point within a handful of periods.
        // Achievable range of this model is [438.6, 880] W; pick 800 W.
        let c = controller();
        let mut f = vec![1000.0, 435.0, 435.0];
        let mut p = c.model().predict(&f);
        let setpoint = 800.0;
        for _ in 0..30 {
            let step = c
                .step(p, setpoint, &f, &[1.0, 1.0, 1.0], &[1000.0, 435.0, 435.0])
                .unwrap();
            f = step.target_freqs.clone();
            p = c.model().predict(&f);
        }
        assert!(
            (p - setpoint).abs() < 2.0,
            "did not converge: p = {p}, setpoint = {setpoint}"
        );
    }

    #[test]
    fn converges_under_model_mismatch() {
        // Plant gains 30% higher than the model believes (g = 1.3): the
        // loop must still converge (stability analysis guarantees it).
        let c = controller();
        let plant = c.model().perturbed(&[1.3, 1.3, 1.3]);
        let mut f = vec![1000.0, 435.0, 435.0];
        let mut p = plant.predict(&f);
        let setpoint = 950.0;
        for _ in 0..60 {
            let step = c
                .step(p, setpoint, &f, &[1.0, 1.0, 1.0], &[1000.0, 435.0, 435.0])
                .unwrap();
            f = step.target_freqs.clone();
            p = plant.predict(&f);
        }
        assert!((p - setpoint).abs() < 5.0, "p = {p}");
    }

    #[test]
    fn unconstrained_gains_are_positive_on_power_error() {
        let c = controller();
        let k_p = c.unconstrained_gains();
        // Positive power error (over budget) must push frequencies down:
        // d₀ = −K_p·e means K_p > 0 for every device.
        for k in &k_p {
            assert!(*k > 0.0, "K_p = {k_p:?}");
        }
        // Feedback law reproduces an actual unconstrained step: compare
        // against step() on an interior point with a small error.
        let f = [1700.0, 900.0, 900.0];
        let p = c.model().predict(&f);
        let e0 = 10.0;
        let step = c
            .step(p + e0, p, &f, &[1.0, 1.0, 1.0], &[1000.0, 435.0, 435.0])
            .unwrap();
        let w: Vec<f64> = f
            .iter()
            .zip(c.config().f_min.iter())
            .map(|(a, b)| a - b)
            .collect();
        // With K_f = I − K_p·aᵀ the law is d₀ = −w − K_p·(e₀ − aᵀw).
        let a_w: f64 = c.model().gains().iter().zip(&w).map(|(a, w)| a * w).sum();
        for (j, (k, d)) in k_p.iter().zip(&step.first_move).enumerate() {
            let lin = -w[j] - k * (e0 - a_w);
            assert!((lin - d).abs() < 1e-6, "device {j}: linear {lin} vs qp {d}");
        }
    }

    #[test]
    fn step_matches_uncached_at_every_horizon() {
        // Eq. 9 penalises the frequency level, not the move, so the
        // paper's condensed QP splits into M independent blocks and only
        // block 0 is applied. Its tracking weight is Q for every P once
        // M ≥ 2, and P·Q = Q at P = M = 1, so the one production step
        // must apply the oracle's first move at each of these horizons,
        // through held and redrawn weights and raised floors. (P = 8,
        // M = 1 weighs block 0 by 8 and differs.)
        let horizons = [(1, 1), (2, 2), (4, 2), PAPER, (16, 2), (8, 3)];
        let f_min = vec![1000.0, 435.0, 435.0, 435.0];
        let f_max = vec![2400.0, 1350.0, 1350.0, 1350.0];
        let model = LinearPowerModel::new(vec![0.06, 0.18, 0.15, 0.21], 250.0).unwrap();
        let config = MpcConfig::paper_defaults(f_min.clone(), f_max.clone());
        let c = MpcController::new(config, model.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut f = vec![1400.0, 800.0, 800.0, 800.0];
        let (mut setpoint, mut weights, mut floors) = (0.0, vec![], vec![]);
        for k in 0..600 {
            // Set point, weights and floors hold for five periods.
            if k % 5 == 0 {
                setpoint = rng.gen_range(560.0..1110.0);
                weights = (0..4).map(|_| rng.gen_range(0.1..2.0)).collect();
                floors = (0..4)
                    .map(|j| {
                        if rng.gen::<f64>() < 0.3 {
                            rng.gen_range(f_min[j]..f_max[j])
                        } else {
                            f_min[j]
                        }
                    })
                    .collect();
            }
            let p = model.predict(&f) + rng.gen_range(-5.0..5.0);
            let step = c.step(p, setpoint, &f, &weights, &floors).unwrap();
            for h in horizons {
                let reference = c
                    .step_uncached(h, p, setpoint, &f, &weights, &floors)
                    .unwrap();
                let d = max_abs_diff(&step.target_freqs, &reference.target_freqs);
                assert!(
                    d <= CLOSED_LOOP_TOL_MHZ,
                    "period {k}, (P, M) = {h:?}: off by {d}"
                );
                let diag = |s: &MpcStep| (s.active_constraints, s.slo_floor_binding);
                assert_eq!(diag(&step), diag(&reference), "period {k}, (P, M) = {h:?}");
            }
            f = step.target_freqs;
        }
    }

    /// First-call agreement with the oracle, MHz. Both sides solve the
    /// same strictly convex QP — in different coordinates, one by the
    /// multiplier search and one by a factorized active-set method — so
    /// they differ by rounding only.
    const FIRST_CALL_TOL_MHZ: f64 = 1e-9;
    /// Closed-loop agreement with the oracle, MHz: each side feeds its own
    /// targets back, so rounding differences compound over the run, and a
    /// period whose minimizer sits on the edge of two active sets is
    /// resolved to solver tolerance rather than to rounding.
    const CLOSED_LOOP_TOL_MHZ: f64 = 1e-6;

    /// Largest per-device distance between two moves or target vectors.
    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn step_matches_uncached_on_first_call() {
        // The production path and the oracle each solve the period's QP
        // from scratch — interior, partly bound and fully saturated
        // optima.
        let f = [1400.0, 800.0, 800.0];
        let floors = [1000.0, 435.0, 435.0];
        let wgt = [0.7, 1.2, 1.1];
        let p = controller().model().predict(&f);
        for setpoint in [p - 150.0, p - 80.0, p, p + 100.0, p + 500.0] {
            let c = controller();
            let reference = c
                .step_uncached(PAPER, p, setpoint, &f, &wgt, &floors)
                .unwrap();
            let step = c.step(p, setpoint, &f, &wgt, &floors).unwrap();
            let d_move = max_abs_diff(&step.first_move, &reference.first_move);
            let d_target = max_abs_diff(&step.target_freqs, &reference.target_freqs);
            assert!(
                d_move <= FIRST_CALL_TOL_MHZ && d_target <= FIRST_CALL_TOL_MHZ,
                "setpoint {setpoint}: move off by {d_move}, target by {d_target}"
            );
            assert!((step.predicted_power - reference.predicted_power).abs() <= 1e-9);
            assert_eq!(step.floor_clamped, reference.floor_clamped);
            assert_eq!(step.active_constraints, reference.active_constraints);
        }
    }

    #[test]
    fn step_matches_uncached_in_closed_loop() {
        // The same closed loop through the production path (weights that
        // change four periods out of five) and through the oracle, with an
        // SLO floor engaging partway: unique
        // minimizers each period, so the trajectories agree to solver
        // tolerance and report the same binding floor.
        let c = controller();
        let setpoint = 780.0;
        let mut f_c = vec![1000.0, 435.0, 435.0];
        let mut f_u = f_c.clone();
        for k in 0..60 {
            let wgt = [1.0, 1.0 + 0.3 * ((k % 5) as f64), 0.8];
            let floors = if k >= 30 {
                [1000.0, 700.0, 435.0]
            } else {
                [1000.0, 435.0, 435.0]
            };
            let p_c = c.model().predict(&f_c);
            let p_u = c.model().predict(&f_u);
            let s_c = c.step(p_c, setpoint, &f_c, &wgt, &floors).unwrap();
            let s_u = c
                .step_uncached(PAPER, p_u, setpoint, &f_u, &wgt, &floors)
                .unwrap();
            let d = max_abs_diff(&s_c.target_freqs, &s_u.target_freqs);
            assert!(
                d <= CLOSED_LOOP_TOL_MHZ,
                "period {k}: {:?} vs oracle {:?}",
                s_c.target_freqs,
                s_u.target_freqs
            );
            assert_eq!(s_c.slo_floor_binding, s_u.slo_floor_binding, "period {k}");
            f_c = s_c.target_freqs;
            f_u = s_u.target_freqs;
        }
    }

    #[test]
    fn set_model_leaves_no_state_behind() {
        // A controller that ran on one model and was then handed another
        // must step exactly like a fresh controller built on the new one:
        // the solve carries nothing across periods or models.
        let mut c = controller();
        let wgt = [1.0, 1.0, 1.0];
        let floors = [1000.0, 435.0, 435.0];
        let mut f = vec![1600.0, 900.0, 900.0];
        for k in 0..4 {
            f = c
                .step(850.0 + k as f64, 900.0, &f, &wgt, &floors)
                .unwrap()
                .target_freqs;
        }
        let new_model = LinearPowerModel::new(vec![0.08, 0.22, 0.22], 310.0).unwrap();
        c.set_model(new_model.clone()).unwrap();
        let config = c.config().clone();
        let fresh = MpcController::new(config, new_model).unwrap();
        for (k, wgt) in [[1.0, 1.0, 1.0], [0.5, 1.5, 1.0]].iter().enumerate() {
            let s_c = c.step(850.0, 900.0, &f, wgt, &floors).unwrap();
            let s_f = fresh.step(850.0, 900.0, &f, wgt, &floors).unwrap();
            assert_eq!(s_c.first_move, s_f.first_move, "call {k}");
            assert_eq!(s_c.target_freqs, s_f.target_freqs, "call {k}");
            assert_eq!(s_c.predicted_power, s_f.predicted_power, "call {k}");
        }

        // Wrong device count is rejected and leaves the controller usable.
        let bad = LinearPowerModel::new(vec![0.08], 310.0).unwrap();
        assert!(c.set_model(bad).is_err());
        assert!(c.step(850.0, 900.0, &f, &wgt, &floors).is_ok());
    }

    #[test]
    fn non_finite_inputs_are_rejected() {
        // A NaN or infinite reading, set point, clock or weight, or a NaN
        // floor, must not turn into commanded clocks.
        let c = controller();
        let f = [1400.0, 800.0, 800.0];
        let wgt = [1.0, 1.0, 1.0];
        let floors = [1000.0, 435.0, 435.0];
        let nan = f64::NAN;
        // (measured power, set point, clocks, weights, floors)
        type Inputs = (f64, f64, [f64; 3], [f64; 3], [f64; 3]);
        let cases: [Inputs; 7] = [
            (nan, 900.0, f, wgt, floors),
            (f64::INFINITY, 900.0, f, wgt, floors),
            (900.0, nan, f, wgt, floors),
            (900.0, 900.0, [1400.0, nan, 800.0], wgt, floors),
            (900.0, 900.0, f, [nan, 1.0, 1.0], floors),
            (900.0, 900.0, f, [f64::INFINITY, 1.0, 1.0], floors),
            (900.0, 900.0, f, wgt, [1000.0, nan, 435.0]),
        ];
        for (i, (p, sp, f, w, lo)) in cases.iter().enumerate() {
            assert!(
                matches!(c.step(*p, *sp, f, w, lo), Err(ControlError::BadConfig(_))),
                "case {i} accepted"
            );
        }
        // An infinite floor is a floor above f_max: clamped, not rejected.
        let step = c
            .step(900.0, 900.0, &f, &wgt, &[1000.0, f64::INFINITY, 435.0])
            .unwrap();
        assert!(step.floor_clamped);
        assert_eq!(step.target_freqs[1], 1350.0);
    }

    /// Asserts that `step` agrees with the oracle at the paper's horizons
    /// on one period, diagnostics included, and returns the step.
    fn assert_matches_oracle(
        c: &MpcController,
        p: f64,
        setpoint: f64,
        f: &[f64],
        wgt: &[f64],
        floors: &[f64],
    ) -> MpcStep {
        let step = c.step(p, setpoint, f, wgt, floors).unwrap();
        let reference = c.step_uncached(PAPER, p, setpoint, f, wgt, floors).unwrap();
        let d = max_abs_diff(&step.target_freqs, &reference.target_freqs);
        assert!(d <= FIRST_CALL_TOL_MHZ, "off the oracle by {d} MHz");
        assert_eq!(step.active_constraints, reference.active_constraints);
        assert_eq!(step.slo_floor_binding, reference.slo_floor_binding);
        assert_eq!(step.floor_clamped, reference.floor_clamped);
        assert_eq!(step.qp_iterations, 0);
        step
    }

    #[test]
    fn zero_gain_device_returns_to_its_reference() {
        // A device the model says draws no power contributes no tracking
        // and no breakpoint: only its penalty acts, so it moves straight
        // to f_ref = f_min while the others track the set point.
        let model = LinearPowerModel::new(vec![0.06, 0.0, 0.18], 250.0).unwrap();
        let config =
            MpcConfig::paper_defaults(vec![1000.0, 435.0, 435.0], vec![2400.0, 1350.0, 1350.0]);
        let c = MpcController::new(config, model).unwrap();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f);
        for setpoint in [p - 80.0, p, p + 60.0] {
            let step =
                assert_matches_oracle(&c, p, setpoint, &f, &[1.0; 3], &[1000.0, 435.0, 435.0]);
            assert!((step.target_freqs[1] - 435.0).abs() <= FIRST_CALL_TOL_MHZ);
        }
    }

    #[test]
    fn saturated_boxes_pin_every_device() {
        let c = controller();
        let f = [1700.0, 900.0, 900.0];
        let p = c.model().predict(&f);
        let (wgt, floors) = ([0.7, 1.2, 1.1], [1000.0, 435.0, 435.0]);
        // Far under the cap: every device at f_max.
        let up = assert_matches_oracle(&c, p, p + 3000.0, &f, &wgt, &floors);
        assert_eq!(up.target_freqs, c.config().f_max);
        assert_eq!(up.active_constraints, 3);
        assert!(!up.slo_floor_binding);
        // Far over it: every device at its (partly raised) floor.
        let raised = [1000.0, 700.0, 435.0];
        let down = assert_matches_oracle(&c, p, p - 3000.0, &f, &wgt, &raised);
        assert_eq!(down.target_freqs, raised);
        assert_eq!(down.active_constraints, 3);
        assert!(down.slo_floor_binding);
    }

    #[test]
    fn clamped_floor_is_a_point_box() {
        // A floor above f_max leaves that device no room: it sits at f_max
        // whatever the error, and its floor binds; the rest still track.
        let c = controller();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f);
        let floors = [1000.0, 2000.0, 435.0];
        for setpoint in [p - 150.0, p, p + 100.0] {
            let step = assert_matches_oracle(&c, p, setpoint, &f, &[1.0; 3], &floors);
            assert!(step.floor_clamped);
            assert_eq!(step.target_freqs[1], 1350.0);
            assert!(step.slo_floor_binding);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn step_matches_oracle_on_random_servers(
            n in 1usize..10,
            gains in prop::collection::vec(0.03..0.3f64, 9),
            floor_frac in prop::collection::vec(-0.5..0.6f64, 9),
            weights in prop::collection::vec(0.1..3.0f64, 9 * 12),
            setpoint_frac in prop::collection::vec(0.05..0.95f64, 3),
            redraw_weights in prop::sample::select(vec![false, true]),
        ) {
            // 1–9 devices, each period on the production path and on the
            // oracle from the same inputs: set-point steps every four
            // periods, floors on roughly half the devices, weights held or
            // redrawn every period.
            let (f_min, f_max) = (vec![435.0; n], vec![1350.0; n]);
            let config = MpcConfig::paper_defaults(f_min.clone(), f_max.clone());
            let model = LinearPowerModel::new(gains[..n].to_vec(), 250.0).unwrap();
            let c = MpcController::new(config, model).unwrap();
            let floors: Vec<f64> = floor_frac[..n]
                .iter()
                .map(|x| 435.0 + x.max(0.0) * 915.0)
                .collect();
            let (p_lo, p_hi) = (c.model().predict(&f_min), c.model().predict(&f_max));
            let mut f = vec![900.0; n];
            for k in 0..12 {
                let setpoint = p_lo + setpoint_frac[k / 4] * (p_hi - p_lo);
                let row = if redraw_weights { k } else { 0 };
                let wgt = &weights[row * 9..row * 9 + n];
                let p = c.model().predict(&f);
                let step = c.step(p, setpoint, &f, wgt, &floors).unwrap();
                let reference = c.step_uncached(PAPER, p, setpoint, &f, wgt, &floors).unwrap();
                let d = max_abs_diff(&step.target_freqs, &reference.target_freqs);
                prop_assert!(d <= CLOSED_LOOP_TOL_MHZ, "period {k}: off by {d} MHz");
                prop_assert_eq!(step.floor_clamped, reference.floor_clamped);
                for (t, floor) in step.target_freqs.iter().zip(&floors) {
                    prop_assert!((*floor..=1350.0).contains(t), "{t} outside [{floor}, 1350]");
                }
                f = step.target_freqs;
            }
        }
    }

    #[test]
    fn config_validation() {
        let model = LinearPowerModel::new(vec![0.18], 0.0).unwrap();
        let bad = MpcConfig::paper_defaults(vec![], vec![]);
        assert!(MpcController::new(bad, model.clone()).is_err());

        let bad = MpcConfig::paper_defaults(vec![435.0], vec![1350.0, 1350.0]);
        assert!(MpcController::new(bad, model.clone()).is_err());

        let bad = MpcConfig::paper_defaults(vec![1350.0], vec![435.0]);
        assert!(MpcController::new(bad, model.clone()).is_err());

        // Device count mismatch between model and config.
        let cfg = MpcConfig::paper_defaults(vec![435.0, 435.0], vec![1350.0, 1350.0]);
        assert!(MpcController::new(cfg, model).is_err());
    }

    #[test]
    fn step_input_validation() {
        let c = controller();
        assert!(c
            .step(900.0, 900.0, &[1.0], &[1.0, 1.0, 1.0], &[0.0; 3])
            .is_err());
        assert!(c
            .step(
                900.0,
                900.0,
                &[1400.0, 800.0, 800.0],
                &[-1.0, 1.0, 1.0],
                &[0.0; 3]
            )
            .is_err());
    }
}
