//! Constrained optimization solvers for the CapGPU controller.
//!
//! The paper implements its model-predictive controller "with SLSQP in
//! Python" (§4.3). With the latency constraint reduced analytically to a
//! per-GPU frequency floor the problem is a convex QP, solved natively:
//!
//! [`boxqp`] is the controller's one solver: a primal **active-set method
//! specialized to box constraints**. After the cumulative-move change of
//! variables the condensed MPC problem (paper Eq. 9 with constraints
//! 10a–10c reduced to linear form) has only per-variable bounds, so the
//! working set is a bound state per variable, each active-set change is an
//! `O(f²)` incremental Cholesky update, and the factor of the final active
//! set is what the controller's explicit-MPC region table caches.
//!
//! The general solvers it is tested against (a generic active-set QP, KKT
//! checks, projected gradient) live in the dev-only `capgpu-oracle` crate.

#![warn(missing_docs)]

pub mod boxqp;

pub use boxqp::{BoxFactor, BoxQp, BoxQpProblem, BoxQpSolution, VarState};

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
