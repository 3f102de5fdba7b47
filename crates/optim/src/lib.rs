//! Constrained optimization solvers for the CapGPU controller.
//!
//! The paper implements its model-predictive controller "with SLSQP in
//! Python" (§4.3). With the latency constraint reduced analytically to a
//! per-GPU frequency floor the problem is a convex QP, solved natively:
//!
//! * [`boxqp`] — the controller's solver: a primal **active-set method
//!   specialized to box constraints**. After the cumulative-move change of
//!   variables the condensed MPC problem (paper Eq. 9 with constraints
//!   10a–10c reduced to linear form) has only per-variable bounds, so the
//!   working set is a bound state per variable, each active-set change is
//!   an `O(f²)` incremental Cholesky update, and the factor of the final
//!   active set is what the controller's explicit-MPC region table caches.
//! * [`qp`] — the same method for strictly convex quadratic programs with
//!   **general linear inequality constraints**, one dense KKT
//!   factorization per iteration. No controller calls it — it is the
//!   independent oracle the controller's step is tested against, in the
//!   original (per-move) coordinates.
//! * [`projgrad`] — **projected gradient descent** for box-constrained QPs.
//!   Slower but simple; no controller calls it — it is the independent
//!   oracle the active-set solvers' tests and proptests compare against.
//! * [`kkt`] — first-order optimality (KKT) condition checking shared by the
//!   test suites of all solvers.

#![warn(missing_docs)]

pub mod boxqp;
pub mod kkt;
pub mod projgrad;
pub mod qp;

pub use boxqp::{BoxFactor, BoxQp, BoxQpProblem, BoxQpSolution, VarState};
pub use qp::{ActiveSetQp, QpProblem, QpSolution};

/// Errors produced by the optimization solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The problem definition is inconsistent (dimension mismatches,
    /// lb > ub, non-square Hessian, …). The message explains the issue.
    BadProblem(&'static str),
    /// The provided starting point violates the constraints.
    InfeasibleStart,
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
            OptimError::InfeasibleStart => write!(f, "starting point is infeasible"),
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
