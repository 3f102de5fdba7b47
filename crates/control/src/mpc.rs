//! The CapGPU MIMO model-predictive controller (paper §4.3, Eq. 9 + 10a–c).
//!
//! # Condensed formulation
//!
//! With prediction horizon `P`, control horizon `M` and `N` devices, the
//! decision vector stacks the `M` frequency moves: `d = [d₀; …; d_{M−1}]`,
//! `d ∈ R^{M·N}`. From the difference model (Eq. 7) the predicted power is
//!
//! ```text
//!   p(k+i|k) = p(k) + A · Σ_{l < min(i,M)} d_l
//! ```
//!
//! so the tracking error `p(k+i|k) − P_s` is affine in `d` and the paper's
//! cost (Eq. 9),
//!
//! ```text
//!   V = Σ_{i=1}^{P} Q(i)·‖p(k+i|k) − P_s‖² +
//!       Σ_{i=0}^{M−1} ‖d(k+i|k) + f(k+i|k) − f_ref‖²_{R(i)}
//! ```
//!
//! is a strictly convex quadratic. Constraint (10a) bounds every cumulative
//! frequency; constraints (10b)+(10c) reduce to per-GPU frequency floors
//! (see [`crate::latency`]). Each control period solves one small QP with
//! the active-set method and applies only the first move `d₀` (receding
//! horizon).
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

use capgpu_linalg::{vector, Matrix};
use capgpu_optim::boxqp::{self, BoxFactor, BoxQp, BoxQpProblem, VarState};
use capgpu_optim::qp::{ActiveSetQp, LinearConstraint, QpProblem};

use crate::model::LinearPowerModel;
use crate::{ControlError, Result};

/// Static MPC configuration.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Prediction horizon `P` (paper: 8).
    pub prediction_horizon: usize,
    /// Control horizon `M ≤ P` (paper: 2).
    pub control_horizon: usize,
    /// Tracking weights `Q(i)`, one per prediction step (defaults to 1.0).
    pub q_weights: Vec<f64>,
    /// Base control-penalty scale multiplied by the per-step weights.
    pub r_base: f64,
    /// Hard per-device minimum frequencies (MHz).
    pub f_min: Vec<f64>,
    /// Hard per-device maximum frequencies (MHz).
    pub f_max: Vec<f64>,
    /// Reference frequency `f_ref` in the control penalty (paper uses
    /// `f_min`; kept configurable for ablations).
    pub f_ref: Vec<f64>,
    /// Optional per-device slew limit on a single move `|d₀ⱼ|` (MHz).
    pub max_step: Option<Vec<f64>>,
    /// Opt-in structure-exploiting fast solver. When set, the condensed QP
    /// is solved in *cumulative-move* coordinates `cᵢ = Σ_{l≤i} dₗ`, where
    /// every constraint is a separable per-variable box and the Hessian is
    /// block diagonal, using [`capgpu_optim::boxqp`] plus an explicit-MPC
    /// region table (cached affine law per active set, KKT-checked per
    /// period, iterative fallback on miss). Off by default: the default
    /// path — and every published trace — uses the generic active-set
    /// solver. Both paths minimize the same strictly convex QP, so they
    /// agree to solver tolerance; within the fast path, warm/cold starts
    /// and table hits/misses are bit-identical (see DESIGN.md §15).
    pub fast_solver: bool,
}

impl MpcConfig {
    /// Paper-default configuration (`P = 8`, `M = 2`, `Q = 1`,
    /// `f_ref = f_min`) for the given frequency ranges.
    pub fn paper_defaults(f_min: Vec<f64>, f_max: Vec<f64>) -> Self {
        let f_ref = f_min.clone();
        MpcConfig {
            prediction_horizon: 8,
            control_horizon: 2,
            q_weights: vec![1.0; 8],
            r_base: 2e-4,
            f_min,
            f_max,
            f_ref,
            max_step: None,
            fast_solver: false,
        }
    }

    fn validate(&self) -> Result<usize> {
        let n = self.f_min.len();
        if n == 0 {
            return Err(ControlError::BadConfig("MPC needs >= 1 device"));
        }
        if self.f_max.len() != n || self.f_ref.len() != n {
            return Err(ControlError::BadConfig("MPC bound length mismatch"));
        }
        if let Some(ms) = &self.max_step {
            if ms.len() != n {
                return Err(ControlError::BadConfig("max_step length mismatch"));
            }
            if ms.iter().any(|s| *s <= 0.0) {
                return Err(ControlError::BadConfig("max_step must be positive"));
            }
        }
        if self.prediction_horizon == 0 {
            return Err(ControlError::BadConfig("prediction horizon must be >= 1"));
        }
        if self.control_horizon == 0 || self.control_horizon > self.prediction_horizon {
            return Err(ControlError::BadConfig(
                "control horizon must be in 1..=prediction horizon",
            ));
        }
        if self.q_weights.len() != self.prediction_horizon {
            return Err(ControlError::BadConfig("q_weights length != P"));
        }
        if self.q_weights.iter().any(|q| *q < 0.0) || self.r_base <= 0.0 {
            return Err(ControlError::BadConfig(
                "weights must be non-negative, r_base > 0",
            ));
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
    /// The applied first move `d₀` (MHz per device).
    pub first_move: Vec<f64>,
    /// Power predicted by the model after the first move.
    pub predicted_power: f64,
    /// Active-set iterations the QP solve took.
    pub qp_iterations: usize,
    /// True when an SLO floor exceeded a device's reachable range and had
    /// to be clamped (best-effort; see module docs).
    pub floor_clamped: bool,
    /// Constraint rows active at the optimum (frequency-range and slew
    /// bounds, plus SLO floors). Telemetry: which bound shaped the move.
    pub active_constraints: usize,
    /// True when an active lower bound is an SLO-*raised* floor (above
    /// the hardware `f_min`) — the paper's (10b) latency bound binding
    /// the solve — including the infeasible-start floor-jump fallback.
    pub slo_floor_binding: bool,
}

/// Cross-period cache of everything in the condensed QP that does not
/// depend on the measured power: the tracking rows, the tracking part of
/// the Hessian, the assembled problem (whose gradient and bound RHS are
/// rewritten in place each period), and the previous period's active set
/// for warm-starting the solver.
#[derive(Debug, Clone)]
struct StepCache {
    /// Tracking rows `sᵢ = A·Cᵢ` for `i ∈ 1..=P` (index `i − 1`).
    rows: Vec<Vec<f64>>,
    /// Tracking (Q) part of the Hessian: `2·Σ Qᵢ·sᵢsᵢᵀ`.
    h_q: Matrix,
    /// `r_diag` baked into `qp.hessian`; the Hessian is reassembled from
    /// `h_q` only when the per-device weights change.
    r_diag: Vec<f64>,
    /// Assembled QP. Constraint normals and the Hessian structure are
    /// static; gradient and constraint RHS are updated per period.
    qp: QpProblem,
    /// Active set of the previous period's solution (warm-start hint).
    warm_active: Option<Vec<usize>>,
}

/// KKT tolerance (scaled by the gradient magnitude) for accepting a cached
/// explicit-MPC region without re-running the iterative solver.
const FAST_KKT_TOL: f64 = 1e-7;
/// Maximum cached explicit-MPC regions before round-robin replacement.
const MAX_FAST_REGIONS: usize = 64;

/// One explicit-MPC region: the affine control law of a fixed active set,
/// stored as the frozen free-set factorization. Evaluating it for the
/// period's `(g, lo, hi)` reproduces the iterative solver's polish step bit
/// for bit, so a KKT-validated hit equals the full solve exactly.
#[derive(Debug, Clone)]
struct FastRegion {
    /// Active-set signature (per-variable bound state) keying this region.
    states: Vec<VarState>,
    /// Cached Cholesky factor of `H_FF` over this region's free set.
    factor: BoxFactor,
}

/// Cross-period cache of the fast (cumulative-coordinate) solver path.
#[derive(Debug, Clone)]
struct FastCache {
    /// `r_diag` baked into the box Hessian.
    r_diag: Vec<f64>,
    /// Aggregated tracking weights `Q̄_b = Σ_{i: min(i,M)−1 = b} Q(i)`.
    qbar: Vec<f64>,
    /// Box QP in cumulative coordinates; the Hessian is static per
    /// `(model, r_diag)`, gradient and bounds are rewritten each period.
    qp: BoxQpProblem,
    /// Final bound states of the previous period (warm hint + region key).
    warm: Option<Vec<VarState>>,
    /// Explicit-MPC region table.
    regions: Vec<FastRegion>,
    /// Round-robin replacement cursor once the table is full.
    insert_at: usize,
    /// Explicit-table hits (periods solved by a cached law alone).
    hits: u64,
    /// Explicit-table misses (periods that ran the iterative solver).
    misses: u64,
}

/// The receding-horizon MPC controller.
#[derive(Debug, Clone)]
pub struct MpcController {
    config: MpcConfig,
    model: LinearPowerModel,
    num_devices: usize,
    solver: ActiveSetQp,
    box_solver: BoxQp,
    /// Lazily built per-period cache ([`StepCache`]); interior mutability
    /// keeps `step(&self)` — the controller is logically immutable.
    cache: RefCell<Option<StepCache>>,
    /// Fast-path cache ([`FastCache`]); only populated when
    /// [`MpcConfig::fast_solver`] is set.
    fast: RefCell<Option<FastCache>>,
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
            solver: ActiveSetQp::default(),
            box_solver: BoxQp::default(),
            cache: RefCell::new(None),
            fast: RefCell::new(None),
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
        // Tracking rows (and so the cached Hessians) depend on the gains.
        *self.cache.borrow_mut() = None;
        *self.fast.borrow_mut() = None;
        Ok(())
    }

    /// Explicit-MPC region-table statistics of the fast path:
    /// `(hits, misses)` — periods solved by a cached affine law alone vs
    /// periods that ran the iterative box solver. `(0, 0)` until the fast
    /// path has stepped.
    pub fn fast_solver_stats(&self) -> (u64, u64) {
        self.fast
            .borrow()
            .as_ref()
            .map_or((0, 0), |c| (c.hits, c.misses))
    }

    /// Discards all fast-path state (warm-start hint and explicit region
    /// table). Diagnostics/ablation hook: forces the next fast solve to be
    /// fully cold. The deterministic polish makes the cold re-solve
    /// bit-identical to the warm one for the same inputs.
    pub fn reset_fast_path(&self) {
        if let Some(c) = self.fast.borrow_mut().as_mut() {
            c.warm = None;
            c.regions.clear();
            c.insert_at = 0;
        }
    }

    /// Builds the selector row `s_i = A·C_i` (power sensitivity of
    /// prediction step `i ∈ 1..=P` to the stacked decision vector).
    fn tracking_row(&self, i: usize) -> Vec<f64> {
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let blocks = i.min(m);
        let mut row = vec![0.0; m * n];
        for l in 0..blocks {
            for j in 0..n {
                row[l * n + j] = self.model.gains()[j];
            }
        }
        row
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

    /// True when any effective floor sits above the hardware minimum —
    /// i.e. an SLO raised it.
    fn floor_raised(f_lo: &[f64], f_min: &[f64]) -> bool {
        f_lo.iter().zip(f_min).any(|(lo, fm)| lo > fm)
    }

    /// True when the solution's active set pins a *lower* cumulative
    /// bound whose floor is SLO-raised (above hardware `f_min`): the
    /// (10b) latency bound is what shaped this move. Box rows are laid
    /// out as `2·(i·n + j)` (upper) / `2·(i·n + j) + 1` (lower) for
    /// `i ∈ 0..m`, `j ∈ 0..n`; slew rows (≥ `2·m·n`) never encode SLOs.
    fn active_slo_floor(active: &[usize], f_lo: &[f64], f_min: &[f64], n: usize, m: usize) -> bool {
        active
            .iter()
            .any(|&r| r < 2 * m * n && r % 2 == 1 && f_lo[(r / 2) % n] > f_min[(r / 2) % n])
    }

    /// Feasible start: d = 0 unless the floor was raised above (or f_max
    /// dropped below) the current frequency; then the first block jumps to
    /// the nearest feasible frequency (clipped by the slew limit).
    fn feasible_start(&self, f_now: &[f64], f_lo: &[f64]) -> Vec<f64> {
        let n = self.num_devices;
        let mut start = vec![0.0; self.config.control_horizon * n];
        for j in 0..n {
            let clamped = f_now[j].clamp(f_lo[j], self.config.f_max[j]);
            let mut jump = clamped - f_now[j];
            if let Some(ms) = &self.config.max_step {
                jump = jump.clamp(-ms[j], ms[j]);
            }
            start[j] = jump;
        }
        start
    }

    /// Builds the per-period cache: tracking rows, the tracking (Q) part
    /// of the Hessian, and the QP skeleton whose gradient and bound RHS
    /// are rewritten in place each period. Accumulation order matches
    /// the `#[cfg(test)]` reference `step_uncached` exactly so the cached
    /// path is arithmetically identical.
    #[allow(clippy::needless_range_loop)]
    fn build_cache(&self, r_diag: &[f64]) -> Result<StepCache> {
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let p_h = self.config.prediction_horizon;
        let dim = m * n;

        let rows: Vec<Vec<f64>> = (1..=p_h).map(|i| self.tracking_row(i)).collect();
        let mut h_q = Matrix::zeros(dim, dim);
        for i in 1..=p_h {
            let q = self.config.q_weights[i - 1];
            if q == 0.0 {
                continue;
            }
            let s = &rows[i - 1];
            for a in 0..dim {
                if s[a] == 0.0 {
                    continue;
                }
                for b in 0..dim {
                    h_q[(a, b)] += 2.0 * q * s[a] * s[b];
                }
            }
        }
        let hessian = Self::assemble_hessian(&h_q, r_diag, n, m);

        // Constraint normals (static); RHS rewritten each period.
        let mut cons = Vec::with_capacity(2 * m * n + 2 * n);
        for i in 0..m {
            for j in 0..n {
                let mut row = vec![0.0; dim];
                for l in 0..=i {
                    row[l * n + j] = 1.0;
                }
                let neg: Vec<f64> = row.iter().map(|v| -v).collect();
                cons.push(LinearConstraint::new(row, 0.0));
                cons.push(LinearConstraint::new(neg, 0.0));
            }
        }
        // Optional slew limit on the first move only (hardware ramp rate);
        // these bounds are constant and never rewritten.
        if let Some(ms) = &self.config.max_step {
            for j in 0..n {
                cons.push(LinearConstraint::upper_bound(dim, j, ms[j]));
                cons.push(LinearConstraint::lower_bound(dim, j, -ms[j]));
            }
        }

        let qp = QpProblem::new(hessian, vec![0.0; dim], cons)?;
        Ok(StepCache {
            rows,
            h_q,
            r_diag: r_diag.to_vec(),
            qp,
            warm_active: None,
        })
    }

    /// Adds the control-penalty blocks to a copy of the cached tracking
    /// Hessian: Tᵢ has identity blocks 0..=i, so
    /// (TᵢᵀRTᵢ)[(a·N+j),(b·N+j)] = R_j when a ≤ i and b ≤ i.
    fn assemble_hessian(h_q: &Matrix, r_diag: &[f64], n: usize, m: usize) -> Matrix {
        let mut h = h_q.clone();
        for i in 0..m {
            for a in 0..=i {
                for b in 0..=i {
                    for j in 0..n {
                        h[(a * n + j, b * n + j)] += 2.0 * r_diag[j];
                    }
                }
            }
        }
        h
    }

    /// Computes one control period: given the measured average power, the
    /// set point, the currently applied frequencies, per-device control
    /// weights (≥ 0, scaled by `r_base`; pass all-1s for uniform), and
    /// per-device frequency floors (pass `f_min` when no SLO applies).
    ///
    /// The hot path: the Hessian's tracking part and the constraint
    /// geometry are cached across periods (they depend only on the config
    /// and model, not on measured power), the control-penalty diagonal is
    /// re-baked only when `r_weights` change, and the QP is warm-started
    /// from the previous period's active set. The `#[cfg(test)]`
    /// `step_uncached` is the cache-free reference.
    ///
    /// # Errors
    /// * [`ControlError::BadConfig`] on input length mismatches.
    /// * [`ControlError::Optim`] if the QP solver fails.
    #[allow(clippy::needless_range_loop)]
    pub fn step(
        &self,
        p_measured: f64,
        setpoint: f64,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<MpcStep> {
        if self.config.fast_solver {
            return self.step_fast(p_measured, setpoint, current_freqs, r_weights, floors);
        }
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let p_h = self.config.prediction_horizon;
        let (f_lo, floor_clamped) = self.effective_floors(current_freqs, r_weights, floors)?;
        let f_now: Vec<f64> = current_freqs.to_vec();
        let dim = m * n;

        let e0 = p_measured - setpoint;
        let w: Vec<f64> = vector::sub(&f_now, &self.config.f_ref);
        let r_diag: Vec<f64> = (0..n)
            .map(|j| self.config.r_base * r_weights[j].max(1e-9))
            .collect();

        let mut slot = self.cache.borrow_mut();
        if slot.is_none() {
            *slot = Some(self.build_cache(&r_diag)?);
        }
        let cache = slot.as_mut().expect("cache built above");

        // Re-bake the control-penalty diagonal only on weight change.
        if cache.r_diag != r_diag {
            cache.qp.hessian = Self::assemble_hessian(&cache.h_q, &r_diag, n, m);
            cache.r_diag = r_diag;
        }

        // ---- Gradient (depends on e₀ and w; rebuilt every period) ------
        // g = 2·(e₀·Σ Qᵢ·sᵢ + Σ Tᵢᵀ R w), accumulated in the same order
        // as the uncached reference so the result is bit-identical.
        let g = &mut cache.qp.gradient;
        g.iter_mut().for_each(|v| *v = 0.0);
        for i in 1..=p_h {
            let q = self.config.q_weights[i - 1];
            if q == 0.0 {
                continue;
            }
            let s = &cache.rows[i - 1];
            for a in 0..dim {
                if s[a] == 0.0 {
                    continue;
                }
                g[a] += 2.0 * q * e0 * s[a];
            }
        }
        for i in 0..m {
            for a in 0..=i {
                for j in 0..n {
                    g[a * n + j] += 2.0 * cache.r_diag[j] * w[j];
                }
            }
        }

        // ---- Constraint RHS (10a + SLO floors) -------------------------
        // For every cumulative position i ∈ 0..M and device j:
        //   f_lo[j] ≤ f_now[j] + (Tᵢ d)ⱼ ≤ f_max[j].
        let mut k = 0;
        for _i in 0..m {
            for j in 0..n {
                cache.qp.constraints[k].b = self.config.f_max[j] - f_now[j];
                cache.qp.constraints[k + 1].b = f_now[j] - f_lo[j];
                k += 2;
            }
        }

        let start = self.feasible_start(&f_now, &f_lo);
        let sol_res = match cache.warm_active.as_deref() {
            Some(hint) => self.solver.solve_warm(&cache.qp, &start, hint),
            None => self.solver.solve(&cache.qp, &start),
        };
        let sol = match sol_res {
            Ok(s) => s,
            // A slew limit tighter than a raised floor makes the QP
            // infeasible; fall back to the best-effort jump itself.
            Err(capgpu_optim::OptimError::InfeasibleStart) => {
                cache.warm_active = None;
                let first_move = start[..n].to_vec();
                let target = vector::add(&f_now, &first_move);
                let predicted = self.model.predict_delta(p_measured, &first_move);
                return Ok(MpcStep {
                    target_freqs: target,
                    first_move,
                    predicted_power: predicted,
                    qp_iterations: 0,
                    floor_clamped: true,
                    active_constraints: 0,
                    slo_floor_binding: Self::floor_raised(&f_lo, &self.config.f_min),
                });
            }
            Err(e) => return Err(e.into()),
        };

        let first_move = sol.x[..n].to_vec();
        let active_constraints = sol.active_set.len();
        let slo_floor_binding =
            Self::active_slo_floor(&sol.active_set, &f_lo, &self.config.f_min, n, m);
        cache.warm_active = Some(sol.active_set);
        let target: Vec<f64> = (0..n)
            .map(|j| {
                (f_now[j] + first_move[j])
                    .clamp(f_lo[j].min(self.config.f_max[j]), self.config.f_max[j])
            })
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

    /// Builds the fast-path cache: the cumulative-coordinate box Hessian
    /// `H_c = blockdiag_b(2·Q̄_b·aaᵀ + 2·R̂)` and the box-QP skeleton whose
    /// gradient and bounds are rewritten each period.
    ///
    /// Derivation: with `cᵢ = Σ_{l≤i} dₗ` the predicted power at step `i`
    /// is `p(k) + a·c_{min(i,M)−1}`, so the tracking cost aggregates per
    /// cumulative block into `Q̄_b = Σ_{i: min(i,M)−1 = b} Q(i)`; the
    /// control penalty `‖dᵢ + f(k+i|k) − f_ref‖²_R = ‖cᵢ + w‖²_R` is
    /// block-diagonal outright; and constraint (10a) plus the SLO floors
    /// become the per-variable box `f_lo − f_now ≤ cᵢ ≤ f_max − f_now`
    /// (block 0 additionally intersected with the slew limit `±max_step`).
    fn build_fast_cache(&self, r_diag: &[f64]) -> Result<FastCache> {
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let dim = m * n;
        let a = self.model.gains();

        let mut qbar = vec![0.0; m];
        for i in 1..=self.config.prediction_horizon {
            qbar[i.min(m) - 1] += self.config.q_weights[i - 1];
        }

        let mut h = Matrix::zeros(dim, dim);
        for b in 0..m {
            for j in 0..n {
                for k in 0..n {
                    h[(b * n + j, b * n + k)] += 2.0 * qbar[b] * a[j] * a[k];
                }
                h[(b * n + j, b * n + j)] += 2.0 * r_diag[j];
            }
        }
        let qp = BoxQpProblem::new(h, vec![0.0; dim], vec![0.0; dim], vec![0.0; dim])?;
        Ok(FastCache {
            r_diag: r_diag.to_vec(),
            qbar,
            qp,
            warm: None,
            regions: Vec::new(),
            insert_at: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Structure-exploiting hot path of [`MpcController::step`] (enabled by
    /// [`MpcConfig::fast_solver`]): solves the condensed QP in cumulative
    /// coordinates as a pure box QP, consulting the explicit-MPC region
    /// table first and falling back to the warm-started iterative
    /// [`BoxQp`] on a miss. See [`MpcController::build_fast_cache`] for
    /// the transform.
    fn step_fast(
        &self,
        p_measured: f64,
        setpoint: f64,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<MpcStep> {
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let (f_lo, floor_clamped) = self.effective_floors(current_freqs, r_weights, floors)?;
        let f_now = current_freqs;
        let e0 = p_measured - setpoint;
        let r_diag: Vec<f64> = (0..n)
            .map(|j| self.config.r_base * r_weights[j].max(1e-9))
            .collect();

        let mut slot = self.fast.borrow_mut();
        // The Hessian bakes in r_diag: on a weight change rebuild it and
        // drop the (now invalid) region table, but keep the warm hint —
        // the optimal active set rarely moves with the weights.
        if slot.as_ref().is_none_or(|c| c.r_diag != r_diag) {
            let warm = slot.as_mut().and_then(|c| c.warm.take());
            let (hits, misses) = slot.as_ref().map_or((0, 0), |c| (c.hits, c.misses));
            let mut fresh = self.build_fast_cache(&r_diag)?;
            fresh.warm = warm;
            fresh.hits = hits;
            fresh.misses = misses;
            *slot = Some(fresh);
        }
        let cache = slot.as_mut().expect("fast cache built above");

        // ---- Box bounds in cumulative coordinates ----------------------
        let mut feasible = true;
        'bounds: for i in 0..m {
            for j in 0..n {
                let mut lo = f_lo[j] - f_now[j];
                let mut hi = self.config.f_max[j] - f_now[j];
                if i == 0 {
                    if let Some(ms) = &self.config.max_step {
                        lo = lo.max(-ms[j]);
                        hi = hi.min(ms[j]);
                    }
                }
                if lo > hi {
                    feasible = false;
                    break 'bounds;
                }
                cache.qp.lo[i * n + j] = lo;
                cache.qp.hi[i * n + j] = hi;
            }
        }
        if !feasible {
            // A slew limit tighter than a raised floor empties the box —
            // the same condition that makes the generic path's QP
            // infeasible; take the identical best-effort jump.
            cache.warm = None;
            let start = self.feasible_start(f_now, &f_lo);
            let first_move = start[..n].to_vec();
            let target = vector::add(f_now, &first_move);
            let predicted = self.model.predict_delta(p_measured, &first_move);
            return Ok(MpcStep {
                target_freqs: target,
                first_move,
                predicted_power: predicted,
                qp_iterations: 0,
                floor_clamped: true,
                active_constraints: 0,
                slo_floor_binding: Self::floor_raised(&f_lo, &self.config.f_min),
            });
        }

        // ---- Gradient: tracking per block + control penalty ------------
        let a = self.model.gains();
        for b in 0..m {
            for j in 0..n {
                let w_j = f_now[j] - self.config.f_ref[j];
                cache.qp.gradient[b * n + j] =
                    2.0 * cache.qbar[b] * e0 * a[j] + 2.0 * r_diag[j] * w_j;
            }
        }

        // ---- Explicit-MPC region lookup, keyed by the warm-start set ---
        let g_scale = 1.0
            + cache
                .qp
                .gradient
                .iter()
                .fold(0.0f64, |mx, v| mx.max(v.abs()));
        let tol = FAST_KKT_TOL * g_scale;
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
                // Cumulative image of the d-space feasible start: the first
                // block's jump held for every later block.
                let d0 = self.feasible_start(f_now, &f_lo);
                let mut start = vec![0.0; m * n];
                for i in 0..m {
                    start[i * n..(i + 1) * n].copy_from_slice(&d0[..n]);
                }
                let sol = self
                    .box_solver
                    .solve_from(&cache.qp, &start, cache.warm.as_deref())?;
                if !cache.regions.iter().any(|r| r.states == sol.states) {
                    let factor = BoxFactor::from_states(&cache.qp.hessian, &sol.states)?;
                    let region = FastRegion {
                        states: sol.states.clone(),
                        factor,
                    };
                    if cache.regions.len() < MAX_FAST_REGIONS {
                        cache.regions.push(region);
                    } else {
                        cache.regions[cache.insert_at % MAX_FAST_REGIONS] = region;
                        cache.insert_at = cache.insert_at.wrapping_add(1);
                    }
                }
                (sol.x, sol.states, sol.iterations)
            }
        };

        let first_move = x[..n].to_vec();
        let active_constraints = states.iter().filter(|s| **s != VarState::Free).count();
        // An active lower bound is an SLO binding when the floor is raised
        // above hardware f_min AND the floor (not the slew clip) is the
        // tighter side of that variable's box.
        let slo_floor_binding = (0..m).any(|i| {
            (0..n).any(|j| {
                states[i * n + j] == VarState::AtLo
                    && f_lo[j] > self.config.f_min[j]
                    && cache.qp.lo[i * n + j] == f_lo[j] - f_now[j]
            })
        });
        cache.warm = Some(states);
        let target: Vec<f64> = (0..n)
            .map(|j| {
                (f_now[j] + first_move[j])
                    .clamp(f_lo[j].min(self.config.f_max[j]), self.config.f_max[j])
            })
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

    /// Cache-free reference implementation of [`MpcController::step`]:
    /// rebuilds the full QP from scratch and cold-starts the solver every
    /// call. Kept verbatim as the ground truth the cached hot path is
    /// regression-tested against.
    ///
    /// # Errors
    /// Same as [`MpcController::step`].
    #[cfg(test)]
    #[allow(clippy::needless_range_loop)]
    fn step_uncached(
        &self,
        p_measured: f64,
        setpoint: f64,
        current_freqs: &[f64],
        r_weights: &[f64],
        floors: &[f64],
    ) -> Result<MpcStep> {
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let p_h = self.config.prediction_horizon;
        let (f_lo, floor_clamped) = self.effective_floors(current_freqs, r_weights, floors)?;
        let f_now: Vec<f64> = current_freqs.to_vec();
        let dim = m * n;

        // ---- Quadratic cost --------------------------------------------
        // H = 2·(Σ Qᵢ·sᵢsᵢᵀ + Σ Tᵢᵀ R Tᵢ),
        // g = 2·(e₀·Σ Qᵢ·sᵢ + Σ Tᵢᵀ R w),  w = f(k) − f_ref.
        let e0 = p_measured - setpoint;
        let w: Vec<f64> = vector::sub(&f_now, &self.config.f_ref);
        let r_diag: Vec<f64> = (0..n)
            .map(|j| self.config.r_base * r_weights[j].max(1e-9))
            .collect();

        let mut h = Matrix::zeros(dim, dim);
        let mut g = vec![0.0; dim];
        for i in 1..=p_h {
            let q = self.config.q_weights[i - 1];
            if q == 0.0 {
                continue;
            }
            let s = self.tracking_row(i);
            for a in 0..dim {
                if s[a] == 0.0 {
                    continue;
                }
                g[a] += 2.0 * q * e0 * s[a];
                for b in 0..dim {
                    h[(a, b)] += 2.0 * q * s[a] * s[b];
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
        // Optional slew limit on the first move only (hardware ramp rate).
        if let Some(ms) = &self.config.max_step {
            for j in 0..n {
                cons.push(LinearConstraint::upper_bound(dim, j, ms[j]));
                cons.push(LinearConstraint::lower_bound(dim, j, -ms[j]));
            }
        }

        let start = self.feasible_start(&f_now, &f_lo);
        let qp = QpProblem::new(h, g, cons)?;
        let sol = match self.solver.solve(&qp, &start) {
            Ok(s) => s,
            // A slew limit tighter than a raised floor makes the QP
            // infeasible; fall back to the best-effort jump itself.
            Err(capgpu_optim::OptimError::InfeasibleStart) => {
                let first_move = start[..n].to_vec();
                let target = vector::add(&f_now, &first_move);
                let predicted = self.model.predict_delta(p_measured, &first_move);
                return Ok(MpcStep {
                    target_freqs: target,
                    first_move,
                    predicted_power: predicted,
                    qp_iterations: 0,
                    floor_clamped: true,
                    active_constraints: 0,
                    slo_floor_binding: Self::floor_raised(&f_lo, &self.config.f_min),
                });
            }
            Err(e) => return Err(e.into()),
        };

        let first_move = sol.x[..n].to_vec();
        let active_constraints = sol.active_set.len();
        let slo_floor_binding =
            Self::active_slo_floor(&sol.active_set, &f_lo, &self.config.f_min, n, m);
        let target: Vec<f64> = (0..n)
            .map(|j| {
                (f_now[j] + first_move[j])
                    .clamp(f_lo[j].min(self.config.f_max[j]), self.config.f_max[j])
            })
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

    /// Extracts the *unconstrained* first-move feedback law
    /// `d₀ = −K_p·(p − P_s) − K_f·(f − f_ref)` by solving the QP without
    /// constraints for basis inputs. Used by the stability analysis
    /// (paper §4.4: "its control decisions become linear functions of the
    /// current power, the set point, and the previous frequency decisions").
    ///
    /// Returns `(k_p, k_f)` with `k_p ∈ R^N`, `k_f ∈ R^{N×N}`.
    ///
    /// # Errors
    /// [`ControlError::Linalg`] if the Hessian factorization fails
    /// (cannot happen for valid configs: the Hessian is SPD).
    pub fn unconstrained_gains(&self) -> Result<(Vec<f64>, Matrix)> {
        let n = self.num_devices;
        let m = self.config.control_horizon;
        let p_h = self.config.prediction_horizon;
        let dim = m * n;

        // Rebuild H (independent of e0 / w) and the two gradient factories.
        let r_diag: Vec<f64> = (0..n).map(|_| self.config.r_base).collect();
        let mut h = Matrix::zeros(dim, dim);
        let mut g_e = vec![0.0; dim]; // gradient per unit e0 (w = 0)
        for i in 1..=p_h {
            let q = self.config.q_weights[i - 1];
            let s = self.tracking_row(i);
            for a in 0..dim {
                g_e[a] += 2.0 * q * s[a];
                for b in 0..dim {
                    h[(a, b)] += 2.0 * q * s[a] * s[b];
                }
            }
        }
        for i in 0..m {
            for a in 0..=i {
                for b in 0..=i {
                    for j in 0..n {
                        h[(a * n + j, b * n + j)] += 2.0 * r_diag[j];
                    }
                }
            }
        }
        let chol = capgpu_linalg::Cholesky::new(&h)?;

        // K_p: d = −H⁻¹·g_e · e0 → first block of H⁻¹ g_e.
        let kp_full = chol.solve(&g_e)?;
        let k_p = kp_full[..n].to_vec();

        // K_f columns: gradient per unit w_j is 2·Σᵢ Tᵢᵀ R e_j.
        let mut k_f = Matrix::zeros(n, n);
        for j in 0..n {
            let mut g_w = vec![0.0; dim];
            for i in 0..m {
                for a in 0..=i {
                    g_w[a * n + j] += 2.0 * r_diag[j];
                }
            }
            let col = chol.solve(&g_w)?;
            for r in 0..n {
                k_f[(r, j)] = col[r];
            }
        }
        Ok((k_p, k_f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn slew_limit_respected() {
        let model = LinearPowerModel::new(vec![0.18], 250.0).unwrap();
        let mut config = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        config.max_step = Some(vec![90.0]);
        let c = MpcController::new(config, model).unwrap();
        let f = [435.0];
        let p = c.model().predict(&f);
        let step = c.step(p, p + 200.0, &f, &[1.0], &[435.0]).unwrap();
        assert!(step.first_move[0] <= 90.0 + 1e-9);
    }

    #[test]
    fn unconstrained_gains_are_positive_on_power_error() {
        let c = controller();
        let (k_p, k_f) = c.unconstrained_gains().unwrap();
        // Positive power error (over budget) must push frequencies down:
        // d₀ = −K_p·e means K_p > 0 for every device.
        for k in &k_p {
            assert!(*k > 0.0, "K_p = {k_p:?}");
        }
        assert_eq!(k_f.shape(), (3, 3));
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
            .zip(c.config().f_ref.iter())
            .map(|(a, b)| a - b)
            .collect();
        for j in 0..3 {
            let lin = -k_p[j] * e0 - (0..3).map(|i| k_f[(j, i)] * w[i]).sum::<f64>();
            assert!(
                (lin - step.first_move[j]).abs() < 1e-6,
                "device {j}: linear {lin} vs qp {}",
                step.first_move[j]
            );
        }
    }

    #[test]
    fn cached_step_matches_uncached_first_call() {
        // With no warm-start state, the cached path assembles the exact
        // same QP (same accumulation order) and cold-starts the solver:
        // the very first step must be bit-identical to the reference.
        let c = controller();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f);
        let reference = c
            .step_uncached(p, p - 80.0, &f, &[0.7, 1.2, 1.1], &[1000.0, 435.0, 435.0])
            .unwrap();
        let fresh = controller();
        let cached = fresh
            .step(p, p - 80.0, &f, &[0.7, 1.2, 1.1], &[1000.0, 435.0, 435.0])
            .unwrap();
        assert_eq!(cached.first_move, reference.first_move);
        assert_eq!(cached.target_freqs, reference.target_freqs);
        assert_eq!(cached.predicted_power, reference.predicted_power);
    }

    #[test]
    fn cached_step_matches_uncached_in_closed_loop() {
        // Run the same closed loop through both paths. Warm starting may
        // change the active-set path (and last-ulp rounding) but both must
        // land on the unique minimizer of each period's strictly convex
        // QP, so the trajectories agree to solver tolerance.
        let c = controller();
        let floors = [1000.0, 435.0, 435.0];
        let setpoint = 780.0;
        let mut f_c = vec![1000.0, 435.0, 435.0];
        let mut f_u = f_c.clone();
        for k in 0..40 {
            // Vary the weights to exercise the re-bake path as well.
            let wgt = [1.0, 1.0 + 0.3 * ((k % 5) as f64), 0.8];
            let p_c = c.model().predict(&f_c);
            let p_u = c.model().predict(&f_u);
            let s_c = c.step(p_c, setpoint, &f_c, &wgt, &floors).unwrap();
            let s_u = c.step_uncached(p_u, setpoint, &f_u, &wgt, &floors).unwrap();
            for j in 0..3 {
                assert!(
                    (s_c.target_freqs[j] - s_u.target_freqs[j]).abs() < 1e-6,
                    "period {k} device {j}: cached {} vs uncached {}",
                    s_c.target_freqs[j],
                    s_u.target_freqs[j]
                );
            }
            f_c = s_c.target_freqs;
            f_u = s_u.target_freqs;
        }
    }

    #[test]
    fn cache_invalidated_on_model_change() {
        let mut c = controller();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f);
        let uniform = [1.0, 1.0, 1.0];
        let floors = [1000.0, 435.0, 435.0];
        c.step(p, p - 50.0, &f, &uniform, &floors).unwrap(); // populate cache
        let new_model = LinearPowerModel::new(vec![0.09, 0.25, 0.25], 240.0).unwrap();
        c.set_model(new_model).unwrap();
        let cached = c.step(p, p - 50.0, &f, &uniform, &floors).unwrap();
        let reference = c.step_uncached(p, p - 50.0, &f, &uniform, &floors).unwrap();
        for j in 0..3 {
            assert!(
                (cached.first_move[j] - reference.first_move[j]).abs() < 1e-9,
                "stale cache after set_model: {:?} vs {:?}",
                cached.first_move,
                reference.first_move
            );
        }
    }

    #[test]
    fn slew_limit_infeasible_fallback_matches_uncached() {
        // Floor raised beyond what the slew limit allows in one move: both
        // paths must take the identical best-effort jump.
        let model = LinearPowerModel::new(vec![0.18], 250.0).unwrap();
        let mut config = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        config.max_step = Some(vec![50.0]);
        let c = MpcController::new(config, model).unwrap();
        let f = [500.0];
        let p = c.model().predict(&f);
        let cached = c.step(p, p, &f, &[1.0], &[900.0]).unwrap();
        let reference = c.step_uncached(p, p, &f, &[1.0], &[900.0]).unwrap();
        assert!(cached.floor_clamped && reference.floor_clamped);
        assert_eq!(cached.first_move, reference.first_move);
        assert_eq!(cached.target_freqs, reference.target_freqs);
    }

    fn fast_controller() -> MpcController {
        let model = LinearPowerModel::new(vec![0.06, 0.18, 0.18], 250.0).unwrap();
        let mut config =
            MpcConfig::paper_defaults(vec![1000.0, 435.0, 435.0], vec![2400.0, 1350.0, 1350.0]);
        config.fast_solver = true;
        MpcController::new(config, model).unwrap()
    }

    #[test]
    fn fast_solver_matches_generic_single_step() {
        let slow = controller();
        let fast = fast_controller();
        let f = [1400.0, 800.0, 800.0];
        let p = slow.model().predict(&f);
        let floors = [1000.0, 435.0, 435.0];
        for setpoint in [p - 150.0, p, p + 100.0, p + 500.0] {
            let s = slow
                .step(p, setpoint, &f, &[0.7, 1.2, 1.1], &floors)
                .unwrap();
            let q = fast
                .step(p, setpoint, &f, &[0.7, 1.2, 1.1], &floors)
                .unwrap();
            for j in 0..3 {
                assert!(
                    (s.target_freqs[j] - q.target_freqs[j]).abs() < 1e-6,
                    "setpoint {setpoint} device {j}: generic {} vs fast {}",
                    s.target_freqs[j],
                    q.target_freqs[j]
                );
            }
            assert_eq!(s.floor_clamped, q.floor_clamped);
        }
    }

    #[test]
    fn fast_solver_matches_generic_in_closed_loop() {
        // Same closed loop through both solvers, with varying weights and
        // an SLO floor engaging partway: unique minimizers each period, so
        // the trajectories agree to solver tolerance.
        let slow = controller();
        let fast = fast_controller();
        let setpoint = 780.0;
        let mut f_s = vec![1000.0, 435.0, 435.0];
        let mut f_q = f_s.clone();
        for k in 0..60 {
            let wgt = [1.0, 1.0 + 0.3 * ((k % 5) as f64), 0.8];
            let floors = if k >= 30 {
                [1000.0, 700.0, 435.0]
            } else {
                [1000.0, 435.0, 435.0]
            };
            let p_s = slow.model().predict(&f_s);
            let p_q = fast.model().predict(&f_q);
            let s = slow.step(p_s, setpoint, &f_s, &wgt, &floors).unwrap();
            let q = fast.step(p_q, setpoint, &f_q, &wgt, &floors).unwrap();
            for j in 0..3 {
                assert!(
                    (s.target_freqs[j] - q.target_freqs[j]).abs() < 1e-6,
                    "period {k} device {j}: generic {} vs fast {}",
                    s.target_freqs[j],
                    q.target_freqs[j]
                );
            }
            assert_eq!(s.slo_floor_binding, q.slo_floor_binding, "period {k}");
            f_s = s.target_freqs;
            f_q = q.target_freqs;
        }
    }

    #[test]
    fn fast_explicit_hit_is_bit_identical_to_cold_resolve() {
        // One controller keeps its warm state + region table (steady state
        // = explicit hits); the other is forced fully cold before every
        // step. The deterministic polish makes both trajectories bitwise
        // equal, and the warm controller must actually hit the table.
        let warm = fast_controller();
        let cold = fast_controller();
        let setpoint = 800.0;
        let floors = [1000.0, 435.0, 435.0];
        let wgt = [1.0, 1.0, 1.0];
        let mut f_w = vec![1000.0, 435.0, 435.0];
        let mut f_c = f_w.clone();
        for k in 0..25 {
            cold.reset_fast_path();
            let p_w = warm.model().predict(&f_w);
            let p_c = cold.model().predict(&f_c);
            let s_w = warm.step(p_w, setpoint, &f_w, &wgt, &floors).unwrap();
            let s_c = cold.step(p_c, setpoint, &f_c, &wgt, &floors).unwrap();
            assert_eq!(s_w.target_freqs, s_c.target_freqs, "period {k}");
            assert_eq!(s_w.first_move, s_c.first_move, "period {k}");
            f_w = s_w.target_freqs;
            f_c = s_c.target_freqs;
        }
        let (hits, misses) = warm.fast_solver_stats();
        assert!(hits > 0, "steady state should hit the region table");
        assert!(misses >= 1, "first period must miss");
        let (cold_hits, _) = cold.fast_solver_stats();
        assert_eq!(cold_hits, 0, "reset before every step should never hit");
    }

    /// Steps `c` through a few settled periods so the region table holds
    /// (and has served) the steady-state active set.
    fn warm_region_table(c: &MpcController, weights: &[f64], floors: &[f64]) {
        let f = [1600.0, 900.0, 900.0];
        for k in 0..4 {
            c.step(850.0 + k as f64, 900.0, &f, weights, floors)
                .unwrap();
        }
        assert!(c.fast_solver_stats().0 >= 1, "steady state never hit");
    }

    #[test]
    fn fast_weight_change_rebuilds_the_region_table() {
        // The Hessian bakes in the weights, so the cached laws are stale
        // after a weight change: that period must miss, and still agree
        // with the generic solver.
        let fast = fast_controller();
        let floors = [1000.0, 435.0, 435.0];
        warm_region_table(&fast, &[1.0, 1.0, 1.0], &floors);
        let (hits, misses) = fast.fast_solver_stats();
        let f = [1600.0, 900.0, 900.0];
        let wgt = [0.5, 1.5, 1.0];
        let q = fast.step(854.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(fast.fast_solver_stats(), (hits, misses + 1));
        let s = controller().step(854.0, 900.0, &f, &wgt, &floors).unwrap();
        for j in 0..3 {
            assert!((q.target_freqs[j] - s.target_freqs[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn fast_floor_change_is_not_served_from_a_stale_region() {
        // A raised floor moves the box under the cached active set; the
        // KKT check must reject the stale law rather than reuse it.
        let fast = fast_controller();
        let wgt = [1.0, 1.0, 1.0];
        warm_region_table(&fast, &wgt, &[1000.0, 435.0, 435.0]);
        let f = [1600.0, 900.0, 900.0];
        let raised = [1000.0, 1100.0, 435.0];
        let q = fast.step(854.0, 900.0, &f, &wgt, &raised).unwrap();
        let s = controller().step(854.0, 900.0, &f, &wgt, &raised).unwrap();
        for j in 0..3 {
            assert!((q.target_freqs[j] - s.target_freqs[j]).abs() < 1e-6);
        }
        assert!(q.target_freqs[1] >= 1100.0 - 1e-6);
    }

    #[test]
    fn fast_set_model_flushes_the_region_table() {
        let mut fast = fast_controller();
        let wgt = [1.0, 1.0, 1.0];
        let floors = [1000.0, 435.0, 435.0];
        warm_region_table(&fast, &wgt, &floors);

        // Re-identified model: different gains, so cached laws are stale.
        let new_model = LinearPowerModel::new(vec![0.08, 0.22, 0.22], 310.0).unwrap();
        fast.set_model(new_model.clone()).unwrap();
        assert_eq!(fast.fast_solver_stats(), (0, 0), "fast-path state survived");
        let f = [1600.0, 900.0, 900.0];
        let q = fast.step(850.0, 900.0, &f, &wgt, &floors).unwrap();
        assert_eq!(fast.fast_solver_stats(), (0, 1), "first step must miss");
        let generic = MpcController::new(controller().config().clone(), new_model).unwrap();
        let s = generic.step(850.0, 900.0, &f, &wgt, &floors).unwrap();
        for j in 0..3 {
            assert!(
                (q.first_move[j] - s.first_move[j]).abs() < 1e-5,
                "device {j}: fast {} vs generic {}",
                q.first_move[j],
                s.first_move[j]
            );
        }

        // Wrong device count is rejected and leaves the controller usable.
        let bad = LinearPowerModel::new(vec![0.08], 310.0).unwrap();
        assert!(fast.set_model(bad).is_err());
        assert!(fast.step(850.0, 900.0, &f, &wgt, &floors).is_ok());
    }

    #[test]
    fn fast_slew_infeasible_fallback_matches_generic() {
        // Floor raised beyond what the slew limit allows in one move: the
        // fast path's empty box must take the identical best-effort jump.
        let model = LinearPowerModel::new(vec![0.18], 250.0).unwrap();
        let mut config = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        config.max_step = Some(vec![50.0]);
        let mut fast_config = config.clone();
        fast_config.fast_solver = true;
        let slow = MpcController::new(config, model.clone()).unwrap();
        let fast = MpcController::new(fast_config, model).unwrap();
        let f = [500.0];
        let p = slow.model().predict(&f);
        let s = slow.step(p, p, &f, &[1.0], &[900.0]).unwrap();
        let q = fast.step(p, p, &f, &[1.0], &[900.0]).unwrap();
        assert!(s.floor_clamped && q.floor_clamped);
        assert_eq!(s.first_move, q.first_move);
        assert_eq!(s.target_freqs, q.target_freqs);
        assert!(q.slo_floor_binding);
    }

    #[test]
    fn fast_floor_above_fmax_is_clamped_and_flagged() {
        let c = fast_controller();
        let f = [1400.0, 800.0, 800.0];
        let p = c.model().predict(&f);
        let step = c
            .step(p, p, &f, &[1.0, 1.0, 1.0], &[1000.0, 2000.0, 435.0])
            .unwrap();
        assert!(step.floor_clamped);
        assert!(step.target_freqs[1] <= 1350.0 + 1e-6);
    }

    #[test]
    fn fast_slo_floor_binding_reported() {
        let c = fast_controller();
        let f = [1400.0, 500.0, 800.0];
        let p = c.model().predict(&f);
        let step = c
            .step(p, p, &f, &[1.0, 1.0, 1.0], &[1000.0, 900.0, 435.0])
            .unwrap();
        assert!(step.target_freqs[1] >= 900.0 - 1e-6);
        assert!(step.slo_floor_binding);
        assert!(step.active_constraints > 0);
    }

    #[test]
    fn config_validation() {
        let model = LinearPowerModel::new(vec![0.18], 0.0).unwrap();
        let mut bad = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        bad.control_horizon = 0;
        assert!(MpcController::new(bad, model.clone()).is_err());

        let mut bad = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        bad.control_horizon = 9;
        assert!(MpcController::new(bad, model.clone()).is_err());

        let mut bad = MpcConfig::paper_defaults(vec![435.0], vec![1350.0]);
        bad.q_weights = vec![1.0; 3];
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
