//! Constrained optimization solvers.
//!
//! The paper implements its model-predictive controller "with SLSQP in
//! Python" (§4.3). With the latency constraint reduced analytically to a
//! per-GPU frequency floor, the block the controller applies is a convex
//! QP with a diagonal-plus-rank-one Hessian and a box, which
//! `capgpu_control::mpc` solves exactly by a one-multiplier search and not
//! with this crate.
//!
//! [`boxqp`] is a primal **active-set method specialized to box
//! constraints**: the working set is a bound state per variable, and each
//! active-set change is an `O(f²)` incremental Cholesky update. No shipped
//! crate calls it; the repository benchmark still times it.
//!
//! The general solvers it is tested against (a generic active-set QP, KKT
//! checks, projected gradient) live in the dev-only `capgpu-oracle` crate.

#![warn(missing_docs)]

pub mod boxqp;

pub use boxqp::{BoxQp, BoxQpProblem, BoxQpSolution, VarState};

/// Errors produced by the optimization solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The problem definition is inconsistent (dimension mismatches,
    /// lb > ub, non-square Hessian, …). The message explains the issue.
    BadProblem(&'static str),
    /// The solver hit its iteration limit before reaching the tolerance.
    IterationLimit {
        /// Iterations performed.
        iterations: usize,
    },
    /// A linear-algebra subroutine failed (e.g. singular KKT system).
    Numerical(capgpu_linalg::LinalgError),
}

impl std::fmt::Display for OptimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimError::BadProblem(msg) => write!(f, "ill-posed problem: {msg}"),
            OptimError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            OptimError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for OptimError {}

impl From<capgpu_linalg::LinalgError> for OptimError {
    fn from(e: capgpu_linalg::LinalgError) -> Self {
        OptimError::Numerical(e)
    }
}

/// Result alias for optimization routines.
pub type Result<T> = std::result::Result<T, OptimError>;
