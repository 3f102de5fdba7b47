//! Reference solvers for the CapGPU test suites.
//!
//! Nothing here runs in production. The controller solves its MPC by a
//! closed-form multiplier search; this crate holds the general machinery
//! that solve is checked against, and it is only ever a
//! `[dev-dependencies]` entry:
//!
//! * [`qp`] — a primal active-set method for strictly convex QPs with
//!   **general linear inequality constraints**, one dense KKT factorization
//!   per iteration. `capgpu-control`'s `mpc::tests` hold
//!   `MpcController::step` against it in the original (per-move)
//!   coordinates; `capgpu-optim`'s proptests hold the box solver against it.
//! * [`projgrad`] — **projected gradient descent** for box-constrained QPs:
//!   a second, very different algorithm the active-set solvers must agree
//!   with.
//! * [`kkt`] — first-order optimality (KKT) condition checking for [`qp`]
//!   solutions.
//! * [`lu`] — LU decomposition with partial pivoting: [`qp`]'s KKT solves,
//!   and the determinant the [`eig`] tests in `capgpu-linalg` compare with.
//! * [`eig`] — eigenvalues of real dense matrices (balancing, Hessenberg
//!   reduction, Francis double-shift QR). `capgpu-control`'s proptests hold
//!   the closed-form §4.4 pole of `capgpu_control::stability` to the
//!   spectral radius of the dense closed-loop matrix.

#![warn(missing_docs)]

pub mod eig;
pub mod kkt;
pub mod lu;
pub mod projgrad;
pub mod qp;
mod vector;

/// Errors produced by the reference solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
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

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::BadProblem(msg) => write!(f, "ill-posed problem: {msg}"),
            OracleError::InfeasibleStart => write!(f, "starting point is infeasible"),
            OracleError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            OracleError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<capgpu_linalg::LinalgError> for OracleError {
    fn from(e: capgpu_linalg::LinalgError) -> Self {
        OracleError::Numerical(e)
    }
}

/// Result alias for the reference solvers.
pub type Result<T> = std::result::Result<T, OracleError>;
