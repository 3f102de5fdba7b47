//! Dense linear algebra kernels for the CapGPU power-capping framework.
//!
//! The CapGPU controller stack needs a small but complete set of dense
//! numerical routines:
//!
//! * least-squares regression for power-model **system identification**
//!   (paper §4.2, Fig. 2a) and for the cross-validated linear models inside
//!   the CPU feature-selection workload,
//! * positive-definite solves for the condensed **MPC quadratic program**
//!   (paper Eq. 9),
//! * basic descriptive statistics for throughput monitors and experiment
//!   summaries.
//!
//! Everything is implemented from scratch on `f64`, favouring clarity and
//! numerical robustness over asymptotic tricks: every matrix in this system
//! is small (a server has at most a handful of CPUs and GPUs, and the MPC
//! decision vector has `M · N` entries with `M = 2`).
//!
//! # Quick example
//!
//! ```
//! use capgpu_linalg::{Matrix, lstsq};
//!
//! // Fit p = a·f_c + b·f_g + c from three observations.
//! let x = Matrix::from_rows(&[
//!     &[1.0, 0.5, 1.0],
//!     &[2.0, 0.5, 1.0],
//!     &[1.0, 1.5, 1.0],
//! ]);
//! let y = vec![10.0, 14.0, 16.0];
//! let fit = lstsq::solve(&x, &y).unwrap();
//! assert!((fit.coefficients[0] - 4.0).abs() < 1e-9);
//! assert!((fit.coefficients[1] - 6.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod cholesky;
pub mod lstsq;
pub mod matrix;
pub mod qr;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use lstsq::{solve as lstsq_solve, LstsqFit};
pub use matrix::Matrix;
pub use qr::Qr;

/// Error type shared by all factorization and solve routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
    },
    /// The matrix is singular (or numerically singular) to working precision.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// An iterative routine failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The input is empty where a non-empty input is required.
    Empty,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "iteration failed to converge after {iterations} steps")
            }
            LinalgError::Empty => write!(f, "input is empty"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias for linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
