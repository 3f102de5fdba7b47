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
//!   min_c  Q·(e + aᵀc)² + ‖c + w‖²_R   s.t.  f_lo − f(k) ≤ c ≤ f_max − f(k)
//! ```
//!
//! with `e = p(k) − P_s`, and that `N`-variable box QP is all
//! [`MpcController::step`] solves. The horizons survive only in this
//! module's tests, which hold `step` against the full condensed QP at
//! `P = 8`, `M = 2` (and at other horizons), built in the original `d`
//! coordinates and solved by the generic active-set solver of the
//! dev-only `capgpu-oracle` crate.
//!
//! # How it is solved
//!
//! The box QP goes to the box-constrained active-set solver
//! [`capgpu_optim::boxqp`] behind the explicit / multi-parametric table
//! §4.3 sketches: one cached affine law per active set, KKT-checked
//! against the period's problem, the iterative solve on a miss. Hits,
//! misses, warm and cold starts that end on the same active set return
//! bit-identical moves (DESIGN.md §15).
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

use std::cell::RefCell;

use capgpu_linalg::Matrix;
use capgpu_optim::boxqp::{self, BoxFactor, BoxQp, BoxQpProblem, VarState};
use capgpu_optim::OptimError;

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
    /// Power predicted by the model after the first move.
    pub predicted_power: f64,
    /// Active-set iterations the QP solve took; 0 ≡ no iteration ran —
    /// the period was answered by a cached region's law.
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

/// KKT tolerance (scaled by the gradient magnitude) for accepting a cached
/// explicit-MPC region without re-running the iterative solver.
const REGION_KKT_TOL: f64 = 1e-7;
/// Maximum cached explicit-MPC regions before round-robin replacement.
const MAX_REGIONS: usize = 64;

/// One explicit-MPC region: the affine control law of a fixed active set,
/// stored as the frozen free-set factorization. Evaluating it for the
/// period's `(g, lo, hi)` reproduces the iterative solver's polish step bit
/// for bit, so a KKT-validated hit equals the full solve exactly.
#[derive(Debug, Clone)]
struct Region {
    /// Active-set signature (per-variable bound state) keying this region.
    states: Vec<VarState>,
    /// Cholesky factor of `H_FF` over this region's free set — the one the
    /// solve that discovered the region polished with.
    factor: BoxFactor,
}

/// Cross-period cache of everything in the QP that does not depend on the
/// measured power: the box problem whose gradient and bounds are rewritten
/// in place each period, the previous period's active set, and the region
/// table that is valid for as long as the Hessian is.
#[derive(Debug, Clone)]
struct StepCache {
    /// `r_diag` baked into the Hessian's diagonal.
    r_diag: Vec<f64>,
    /// Tracking part of the Hessian's diagonal, `2·Q·a_j²` per device:
    /// what [`StepCache::rebake`] adds `2·R̂_j` to.
    track_diag: Vec<f64>,
    /// The period's box QP; the Hessian is static per `(model, r_diag)`,
    /// gradient and bounds are rewritten each period.
    qp: BoxQpProblem,
    /// Final bound states of the previous period (warm hint + region key).
    warm: Option<Vec<VarState>>,
    /// Explicit-MPC region table.
    regions: Vec<Region>,
    /// Round-robin replacement cursor once the table is full.
    insert_at: usize,
    /// Explicit-table hits (periods solved by a cached law alone).
    hits: u64,
    /// Explicit-table misses (periods that ran the iterative solver).
    misses: u64,
}

impl StepCache {
    /// Bakes per-device control penalties into the Hessian. Only its
    /// diagonal depends on them, so only the diagonal is rewritten — a
    /// fresh cache is built by this same call, hence a re-baked Hessian is
    /// bit-identical to a from-scratch one — and the region table, whose
    /// factors froze the old diagonal, is emptied. The warm hint stays
    /// (the optimal active set rarely moves with the weights), as do the
    /// counters.
    ///
    /// Weights that change every period (measured throughput) thus cost
    /// `N` additions and never a table they cannot use; weights that
    /// repeat keep theirs.
    fn rebake(&mut self, r_diag: Vec<f64>) -> Result<()> {
        let baked = |j: usize| self.track_diag[j] + 2.0 * r_diag[j];
        // What `BoxQpProblem::new` rejects in a Hessian, checked before
        // anything is written.
        if (0..r_diag.len()).any(|j| !baked(j).is_finite()) {
            return Err(OptimError::BadProblem("Hessian must be finite").into());
        }
        for j in 0..r_diag.len() {
            self.qp.hessian[(j, j)] = baked(j);
        }
        self.r_diag = r_diag;
        self.clear_regions();
        Ok(())
    }

    fn clear_regions(&mut self) {
        self.regions.clear();
        self.insert_at = 0;
    }
}

/// The receding-horizon MPC controller.
#[derive(Debug, Clone)]
pub struct MpcController {
    config: MpcConfig,
    model: LinearPowerModel,
    num_devices: usize,
    /// Lazily built per-period cache ([`StepCache`]); interior mutability
    /// keeps `step(&self)` — the controller is logically immutable.
    cache: RefCell<Option<StepCache>>,
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
            cache: RefCell::new(None),
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
        // The cached Hessian (and so every region's law) depends on the
        // gains.
        *self.cache.borrow_mut() = None;
        Ok(())
    }

    /// Explicit-MPC region-table statistics: `(hits, misses)` — periods
    /// solved by a cached affine law alone vs periods that ran the
    /// iterative box solver. `(0, 0)` until the first step, and again
    /// after [`MpcController::set_model`].
    pub fn region_stats(&self) -> (u64, u64) {
        self.cache
            .borrow()
            .as_ref()
            .map_or((0, 0), |c| (c.hits, c.misses))
    }

    /// Discards the solver's cross-period state (warm-start hint and
    /// region table). Diagnostics/ablation hook: forces the next solve to
    /// be fully cold. The deterministic polish makes the cold re-solve
    /// bit-identical to the warm one for the same inputs.
    pub fn reset_solver_state(&self) {
        if let Some(c) = self.cache.borrow_mut().as_mut() {
            c.warm = None;
            c.clear_regions();
        }
    }

    /// Validates step inputs and computes the effective per-device floors:
    /// SLO floors can only tighten the hard minimum; a floor above `f_max`
    /// is clamped (best effort) and flagged.
    fn effective_floors(
        &self,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<(Vec<f64>, bool)> {
        let n = self.num_devices;
        if current_freqs.len() != n || r_weights.len() != n || floors.len() != n {
            return Err(ControlError::BadConfig("MPC step input length mismatch"));
        }
        if r_weights.iter().any(|w| *w < 0.0) {
            return Err(ControlError::BadConfig("r_weights must be non-negative"));
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

    /// Builds the per-period cache: the box QP's Hessian
    /// `2·Q·aaᵀ + 2·R̂` and the skeleton whose gradient and bounds are
    /// rewritten each period. The box `f_lo − f_now ≤ c ≤ f_max − f_now`
    /// is never empty because the effective floor `f_lo` is clamped to
    /// `f_max`.
    fn build_cache(&self, r_diag: Vec<f64>) -> Result<StepCache> {
        let n = self.num_devices;
        let a = self.model.gains();
        let mut h = Matrix::zeros(n, n);
        for j in 0..n {
            for k in 0..n {
                h[(j, k)] += 2.0 * Q_WEIGHT * a[j] * a[k];
            }
        }
        // The tracking part alone so far; `rebake` adds `2·R̂`.
        let track_diag: Vec<f64> = (0..n).map(|j| h[(j, j)]).collect();
        let qp = BoxQpProblem::new(h, vec![0.0; n], vec![0.0; n], vec![0.0; n])?;
        let mut cache = StepCache {
            r_diag: Vec::new(),
            track_diag,
            qp,
            warm: None,
            regions: Vec::new(),
            insert_at: 0,
            hits: 0,
            misses: 0,
        };
        cache.rebake(r_diag)?;
        Ok(cache)
    }

    /// Computes one control period: given the measured average power, the
    /// set point, the currently applied frequencies, per-device control
    /// weights (≥ 0, scaled by `R_BASE`; pass all-1s for uniform), and
    /// per-device frequency floors (pass `f_min` when no SLO applies).
    ///
    /// The applied block's box QP (module docs) is solved behind the
    /// explicit-MPC region table: the table is consulted first, keyed by
    /// the previous period's active set, and the warm-started iterative
    /// [`BoxQp`] runs on a miss and hands the table the factor it polished
    /// with. A change of
    /// `r_weights` re-bakes the Hessian's diagonal and empties the table
    /// (`StepCache::rebake`). The `#[cfg(test)]` `step_uncached` is the
    /// cache-free, generic-solver reference over the full horizons.
    ///
    /// # Errors
    /// * [`ControlError::BadConfig`] on input length mismatches.
    /// * [`ControlError::Optim`] if the QP solver fails.
    pub fn step(
        &self,
        p_measured: f64,
        setpoint: f64,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<MpcStep> {
        let n = self.num_devices;
        let (f_lo, floor_clamped) = self.effective_floors(current_freqs, r_weights, floors)?;
        let f_now = current_freqs;
        let e0 = p_measured - setpoint;
        let r_diag: Vec<f64> = (0..n).map(|j| R_BASE * r_weights[j].max(1e-9)).collect();

        let mut slot = self.cache.borrow_mut();
        let cache = match slot.as_mut() {
            Some(cache) => {
                if cache.r_diag != r_diag {
                    cache.rebake(r_diag)?;
                }
                cache
            }
            None => slot.insert(self.build_cache(r_diag)?),
        };

        // ---- Box bounds, and the gradient: tracking + control penalty --
        let a = self.model.gains();
        for j in 0..n {
            cache.qp.lo[j] = f_lo[j] - f_now[j];
            cache.qp.hi[j] = self.config.f_max[j] - f_now[j];
            let w_j = f_now[j] - self.config.f_min[j];
            cache.qp.gradient[j] = 2.0 * Q_WEIGHT * e0 * a[j] + 2.0 * cache.r_diag[j] * w_j;
        }

        // ---- Explicit-MPC region lookup, keyed by the warm-start set ---
        let g_scale = 1.0
            + cache
                .qp
                .gradient
                .iter()
                .fold(0.0f64, |mx, v| mx.max(v.abs()));
        let tol = REGION_KKT_TOL * g_scale;
        let mut solved: Option<(Vec<f64>, Vec<VarState>, usize)> = None;
        if let Some(sig) = cache.warm.as_ref() {
            if let Some(region) = cache.regions.iter().find(|r| &r.states == sig) {
                let x = region.factor.polish(
                    &cache.qp.hessian,
                    &cache.qp.gradient,
                    &cache.qp.lo,
                    &cache.qp.hi,
                    &region.states,
                );
                if boxqp::kkt_optimal(
                    &cache.qp.hessian,
                    &cache.qp.gradient,
                    &cache.qp.lo,
                    &cache.qp.hi,
                    &region.states,
                    &x,
                    tol,
                ) {
                    cache.hits += 1;
                    solved = Some((x, region.states.clone(), 0));
                }
            }
        }
        let (x, states, iterations) = match solved {
            Some(s) => s,
            None => {
                cache.misses += 1;
                // Cold start from "hold every clock": the solver clamps it
                // into the box, i.e. jumps straight to the nearest
                // feasible clock.
                let start = vec![0.0; n];
                let sol = BoxQp.solve_from(&cache.qp, &start, cache.warm.as_deref())?;
                if !cache.regions.iter().any(|r| r.states == sol.states) {
                    let region = Region {
                        states: sol.states.clone(),
                        factor: sol.factor,
                    };
                    if cache.regions.len() < MAX_REGIONS {
                        cache.regions.push(region);
                    } else {
                        cache.regions[cache.insert_at % MAX_REGIONS] = region;
                        cache.insert_at = cache.insert_at.wrapping_add(1);
                    }
                }
                (sol.x, sol.states, sol.iterations)
            }
        };

        let first_move = x;
        let active_constraints = states.iter().filter(|s| **s != VarState::Free).count();
        // An active lower bound is an SLO binding when the floor is raised
        // above hardware f_min.
        let slo_floor_binding =
            (0..n).any(|j| states[j] == VarState::AtLo && f_lo[j] > self.config.f_min[j]);
        cache.warm = Some(states);
        let target: Vec<f64> = (0..n)
            .map(|j| (f_now[j] + first_move[j]).clamp(f_lo[j], self.config.f_max[j]))
            .collect();
        let predicted = self.model.predict_delta(p_measured, &first_move);
        Ok(MpcStep {
            target_freqs: target,
            first_move,
            predicted_power: predicted,
            qp_iterations: iterations,
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

        /// Cache-free reference implementation of [`MpcController::step`]:
        /// builds the paper's whole condensed QP at horizons `(P, M)` from
        /// scratch in the original per-move coordinates and cold-starts the
        /// generic [`ActiveSetQp`] every call. It is the ground truth the
        /// one-block production path is tested against, and shares no
        /// arithmetic with it beyond the input validation. Its diagnostics
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
            let (f_lo, floor_clamped) = self.effective_floors(current_freqs, r_weights, floors)?;
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
        // through warm starts, region hits, weight re-bakes and raised
        // floors. (P = 8, M = 1 weighs block 0 by 8 and differs.)
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
            // Set point, weights and floors hold for five periods, so the
            // region table warms up between redraws.
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
        assert!(c.region_stats().0 > 0, "no region hit");
    }

    /// First-call agreement with the oracle, MHz. Both sides cold-solve
    /// the same strictly convex QP — in different coordinates, with
    /// different factorizations — so they differ by rounding only
    /// (measured: at most 1.1·10⁻¹⁰ over the set points tested).
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
        // No warm hint, no region: the production path and the oracle
        // each cold-solve the period's QP — interior, partly bound and
        // fully saturated optima.
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
        // The same closed loop through the production path (warm starts,
        // region table, a weight re-bake four periods out of five) and
        // through the oracle, with an SLO floor engaging partway: unique
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
    fn region_hit_is_bit_identical_to_cold_resolve() {
        // One controller keeps its warm state + region table (steady state
        // = explicit hits); the other is forced fully cold before every
        // step. The deterministic polish makes both trajectories bitwise
        // equal, and the warm controller must actually hit the table.
        let warm = controller();
        let cold = controller();
        let setpoint = 800.0;
        let floors = [1000.0, 435.0, 435.0];
        let wgt = [1.0, 1.0, 1.0];
        let mut f_w = vec![1000.0, 435.0, 435.0];
        let mut f_c = f_w.clone();
        for k in 0..25 {
            cold.reset_solver_state();
            let p_w = warm.model().predict(&f_w);
            let p_c = cold.model().predict(&f_c);
            let s_w = warm.step(p_w, setpoint, &f_w, &wgt, &floors).unwrap();
            let s_c = cold.step(p_c, setpoint, &f_c, &wgt, &floors).unwrap();
            assert_eq!(s_w.target_freqs, s_c.target_freqs, "period {k}");
            assert_eq!(s_w.first_move, s_c.first_move, "period {k}");
            f_w = s_w.target_freqs;
            f_c = s_c.target_freqs;
        }
        let (hits, misses) = warm.region_stats();
        assert!(hits > 0, "steady state should hit the region table");
        assert!(misses >= 1, "first period must miss");
        let (cold_hits, _) = cold.region_stats();
        assert_eq!(cold_hits, 0, "reset before every step should never hit");
    }

    #[test]
    fn rebaked_diagonal_is_bit_identical_to_a_fresh_cache() {
        // Weights alternating A, B, A, … re-bake the Hessian's diagonal in
        // place every period. The twin's whole cache is thrown away before
        // every step, so it assembles each Hessian from scratch and solves
        // cold; output is a pure function of the problem and the final
        // active set (DESIGN.md §15), so the two must agree bit for bit.
        let (wgt_a, wgt_b) = ([1.0, 1.0, 1.0], [0.6, 1.7, 0.9]);
        let floors = [1000.0, 435.0, 435.0];
        let setpoint = 800.0;
        let rebaked = controller();
        let fresh = controller();
        let steady = controller();
        let mut f = vec![1000.0, 435.0, 435.0];
        let mut f_steady = f.clone();
        for k in 0..60 {
            let wgt = if k % 2 == 0 { &wgt_a } else { &wgt_b };
            let p = rebaked.model().predict(&f);
            *fresh.cache.borrow_mut() = None;
            let s_r = rebaked.step(p, setpoint, &f, wgt, &floors).unwrap();
            let s_f = fresh.step(p, setpoint, &f, wgt, &floors).unwrap();
            assert_eq!(s_r.first_move, s_f.first_move, "period {k}");
            assert_eq!(s_r.target_freqs, s_f.target_freqs, "period {k}");
            assert_eq!(s_r.predicted_power, s_f.predicted_power, "period {k}");
            f = s_r.target_freqs;

            let p = steady.model().predict(&f_steady);
            f_steady = steady
                .step(p, setpoint, &f_steady, &wgt_a, &floors)
                .unwrap()
                .target_freqs;
        }
        // The table pays off exactly when the weights repeat.
        assert_eq!(rebaked.region_stats(), (0, 60), "per-period weights");
        let (hits, misses) = steady.region_stats();
        assert!(hits >= 50 && hits + misses == 60, "steady weights: {hits}");
    }

    /// Steps `c` through a few settled periods so the region table holds
    /// (and has served) the steady-state active set.
    fn warm_region_table(c: &MpcController, weights: &[f64], floors: &[f64]) {
        let f = [1600.0, 900.0, 900.0];
        for k in 0..4 {
            c.step(850.0 + k as f64, 900.0, &f, weights, floors)
                .unwrap();
        }
        assert!(c.region_stats().0 >= 1, "steady state never hit");
    }

    #[test]
    fn qp_iterations_is_zero_only_when_no_iteration_ran() {
        // A cold solve of an interior problem takes one Newton step and
        // the check that accepts it; a region hit runs no iteration.
        let c = controller();
        let f = [1600.0, 900.0, 900.0];
        let wgt = [1.0, 1.0, 1.0];
        let floors = [1000.0, 435.0, 435.0];
        let cold = c.step(850.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(cold.active_constraints, 0, "meant to be interior");
        assert!(cold.qp_iterations >= 1, "a solve that ran reports >= 1");
        assert_eq!(c.region_stats(), (0, 1));
        let hit = c.step(851.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(c.region_stats(), (1, 1));
        assert_eq!(hit.qp_iterations, 0);
    }

    #[test]
    fn weight_change_clears_the_region_table() {
        // The Hessian bakes in the weights, so the cached laws are stale
        // after a weight change: that period must miss, keep the counters,
        // and still agree with the oracle.
        let c = controller();
        let floors = [1000.0, 435.0, 435.0];
        warm_region_table(&c, &[1.0, 1.0, 1.0], &floors);
        let (hits, misses) = c.region_stats();
        let f = [1600.0, 900.0, 900.0];
        let wgt = [0.5, 1.5, 1.0];
        let step = c.step(854.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(c.region_stats(), (hits, misses + 1));
        let reference = c
            .step_uncached(PAPER, 854.0, 900.0, &f, &wgt, &floors)
            .unwrap();
        assert!(max_abs_diff(&step.target_freqs, &reference.target_freqs) <= CLOSED_LOOP_TOL_MHZ);
        // Non-finite weights are rejected as they are on a fresh build,
        // and leave the controller as it was.
        let inf = [f64::INFINITY, 1.0, 1.0];
        assert!(c.step(854.0, 900.0, &f, &inf, &floors).is_err());
        assert!(controller().step(854.0, 900.0, &f, &inf, &floors).is_err());
        let again = c.step(854.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(again.target_freqs, step.target_freqs);
        assert_eq!(c.region_stats(), (hits + 1, misses + 1));
    }

    #[test]
    fn floor_change_is_not_served_from_a_stale_region() {
        // A raised floor moves the box under the cached active set; the
        // KKT check must reject the stale law rather than reuse it.
        let c = controller();
        let wgt = [1.0, 1.0, 1.0];
        warm_region_table(&c, &wgt, &[1000.0, 435.0, 435.0]);
        let f = [1600.0, 900.0, 900.0];
        let raised = [1000.0, 1100.0, 435.0];
        let step = c.step(854.0, 900.0, &f, &wgt, &raised).unwrap();
        let reference = c
            .step_uncached(PAPER, 854.0, 900.0, &f, &wgt, &raised)
            .unwrap();
        assert!(max_abs_diff(&step.target_freqs, &reference.target_freqs) <= CLOSED_LOOP_TOL_MHZ);
        assert!(step.target_freqs[1] >= 1100.0 - 1e-6);
    }

    #[test]
    fn set_model_flushes_the_region_table() {
        let mut c = controller();
        let wgt = [1.0, 1.0, 1.0];
        let floors = [1000.0, 435.0, 435.0];
        warm_region_table(&c, &wgt, &floors);

        // Re-identified model: different gains, so cached laws are stale.
        let new_model = LinearPowerModel::new(vec![0.08, 0.22, 0.22], 310.0).unwrap();
        c.set_model(new_model).unwrap();
        assert_eq!(c.region_stats(), (0, 0), "solver state survived");
        let f = [1600.0, 900.0, 900.0];
        let step = c.step(850.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(c.region_stats(), (0, 1), "first step must miss");
        let reference = c
            .step_uncached(PAPER, 850.0, 900.0, &f, &wgt, &floors)
            .unwrap();
        let d = max_abs_diff(&step.first_move, &reference.first_move);
        assert!(d <= FIRST_CALL_TOL_MHZ, "stale cache after set_model: {d}");

        // Wrong device count is rejected and leaves the controller usable.
        let bad = LinearPowerModel::new(vec![0.08], 310.0).unwrap();
        assert!(c.set_model(bad).is_err());
        assert!(c.step(850.0, 900.0, &f, &wgt, &floors).is_ok());
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
