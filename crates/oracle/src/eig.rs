//! Eigenvalues of real dense matrices.
//!
//! The reference the closed-form §4.4 pole is checked against. The
//! controller's stability analysis (`capgpu_control::stability`) needs no
//! eigen solver: its closed loop `I − K_p·A'ᵀ − K_f` is rank one, so its one
//! nonzero pole is a sum. `capgpu-control`'s proptests build that matrix
//! densely and hold the sum to the spectral radius computed here. The
//! matrix is real but generally non-symmetric, so this is the full
//! real-Schur machinery:
//!
//! 1. **balancing** (diagonal similarity scaling) to improve conditioning,
//! 2. **Hessenberg reduction** by stabilized elementary similarity
//!    transforms,
//! 3. the **Francis double-shift QR iteration** with exceptional shifts and
//!    aggressive deflation (the classic EISPACK `hqr` scheme).
//!
//! Only eigenvalues are computed; no test needs eigenvectors.

use capgpu_linalg::{LinalgError, Matrix, Result};

/// A complex number (eigenvalues of real matrices come in conjugate pairs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The complex zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real complex number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Modulus `|z|`, computed hypot-style to avoid overflow.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// `sign(|a|, b)`: magnitude of `a` with the sign of `b` (Fortran SIGN).
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Balances a matrix in place with diagonal similarity transforms so that
/// row and column norms are comparable (EISPACK `balanc`, powers of two so
/// no rounding error is introduced).
fn balance(a: &mut Matrix) {
    const RADIX: f64 = 2.0;
    let n = a.rows();
    let sqrdx = RADIX * RADIX;
    let mut done = false;
    // Bounded loop: balancing converges quickly; the bound is a safety net.
    let mut guard = 0;
    while !done && guard < 100 {
        guard += 1;
        done = true;
        for i in 0..n {
            let mut r = 0.0;
            let mut c = 0.0;
            for j in 0..n {
                if j != i {
                    c += a[(j, i)].abs();
                    r += a[(i, j)].abs();
                }
            }
            if c != 0.0 && r != 0.0 {
                let mut g = r / RADIX;
                let mut f = 1.0;
                let s = c + r;
                let mut c_scaled = c;
                while c_scaled < g {
                    f *= RADIX;
                    c_scaled *= sqrdx;
                }
                g = r * RADIX;
                while c_scaled > g {
                    f /= RADIX;
                    c_scaled /= sqrdx;
                }
                if (c_scaled + r) / f < 0.95 * s {
                    done = false;
                    let g = 1.0 / f;
                    for j in 0..n {
                        a[(i, j)] *= g;
                    }
                    for j in 0..n {
                        a[(j, i)] *= f;
                    }
                }
            }
        }
    }
}

/// Reduces a matrix to upper Hessenberg form in place by stabilized
/// elementary similarity transforms (EISPACK `elmhes`), then zeroes the
/// garbage below the first subdiagonal.
fn hessenberg(a: &mut Matrix) {
    let n = a.rows();
    if n < 3 {
        return;
    }
    for m in 1..(n - 1) {
        // Pivot: largest magnitude in column m-1 at or below row m.
        let mut x = 0.0_f64;
        let mut piv = m;
        for i in m..n {
            if a[(i, m - 1)].abs() > x.abs() {
                x = a[(i, m - 1)];
                piv = i;
            }
        }
        if piv != m {
            for j in (m - 1)..n {
                let tmp = a[(piv, j)];
                a[(piv, j)] = a[(m, j)];
                a[(m, j)] = tmp;
            }
            for j in 0..n {
                let tmp = a[(j, piv)];
                a[(j, piv)] = a[(j, m)];
                a[(j, m)] = tmp;
            }
        }
        if x != 0.0 {
            for i in (m + 1)..n {
                let mut y = a[(i, m - 1)];
                if y != 0.0 {
                    y /= x;
                    a[(i, m - 1)] = y;
                    for j in m..n {
                        let v = a[(m, j)];
                        a[(i, j)] -= y * v;
                    }
                    for j in 0..n {
                        let v = a[(j, i)];
                        a[(j, m)] += y * v;
                    }
                }
            }
        }
    }
    // Multipliers were stashed below the subdiagonal; clear them.
    for i in 2..n {
        for j in 0..(i - 1) {
            a[(i, j)] = 0.0;
        }
    }
}

/// Computes all eigenvalues of a real square matrix.
///
/// # Errors
/// * [`LinalgError::DimensionMismatch`] if the matrix is not square.
/// * [`LinalgError::Empty`] for a 0×0 matrix.
/// * [`LinalgError::NoConvergence`] if the QR iteration stalls (does not
///   happen for the well-scaled matrices CapGPU produces; the limit is
///   30 iterations per eigenvalue as in EISPACK).
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            context: "eigenvalues requires a square matrix",
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if n == 1 {
        return Ok(vec![Complex::real(a[(0, 0)])]);
    }
    let mut h = a.clone();
    balance(&mut h);
    hessenberg(&mut h);
    hqr(&mut h)
}

/// Francis double-shift QR on an upper Hessenberg matrix (EISPACK `hqr`,
/// translated to 0-based indexing). Consumes `h`, returns eigenvalues.
#[allow(clippy::many_single_char_names)]
fn hqr(h: &mut Matrix) -> Result<Vec<Complex>> {
    let n = h.rows();
    let mut eigs = vec![Complex::ZERO; n];

    // Norm of the Hessenberg part, used as the deflation scale.
    let mut anorm = 0.0;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += h[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        // Zero matrix: all eigenvalues are zero.
        return Ok(eigs);
    }

    let eps = f64::EPSILON;
    let mut nn = n as isize - 1; // index of the last row of the active block
    let mut t = 0.0; // accumulated exceptional shift
    let mut total_iters = 0usize;
    let iter_cap = 60 * n; // generous global cap

    while nn >= 0 {
        let mut its = 0;
        loop {
            // Find l: smallest index such that h[l, l-1] is negligible.
            let mut l = nn;
            while l > 0 {
                let s =
                    h[(l as usize - 1, l as usize - 1)].abs() + h[(l as usize, l as usize)].abs();
                let s = if s == 0.0 { anorm } else { s };
                if h[(l as usize, l as usize - 1)].abs() <= eps * s {
                    break;
                }
                l -= 1;
            }

            let x = h[(nn as usize, nn as usize)];
            if l == nn {
                // One real eigenvalue deflated.
                eigs[nn as usize] = Complex::real(x + t);
                nn -= 1;
                break;
            }

            let y = h[(nn as usize - 1, nn as usize - 1)];
            let w = h[(nn as usize, nn as usize - 1)] * h[(nn as usize - 1, nn as usize)];
            if l == nn - 1 {
                // A 2x2 block deflated: real pair or complex-conjugate pair.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                let x_sh = x + t;
                if q >= 0.0 {
                    let z = p + sign(z, p);
                    let lam1 = x_sh + z;
                    let lam2 = if z != 0.0 { x_sh - w / z } else { lam1 };
                    eigs[nn as usize - 1] = Complex::real(lam1);
                    eigs[nn as usize] = Complex::real(lam2);
                } else {
                    eigs[nn as usize - 1] = Complex::new(x_sh + p, z);
                    eigs[nn as usize] = Complex::new(x_sh + p, -z);
                }
                nn -= 2;
                break;
            }

            // No deflation yet: perform a Francis QR step.
            if total_iters >= iter_cap {
                return Err(LinalgError::NoConvergence {
                    iterations: total_iters,
                });
            }
            let (mut x, mut y, mut w) = (x, y, w);
            if its == 10 || its == 20 {
                // Exceptional shift to break symmetry-induced cycles.
                t += x;
                for i in 0..=(nn as usize) {
                    h[(i, i)] -= x;
                }
                let s = h[(nn as usize, nn as usize - 1)].abs()
                    + h[(nn as usize - 1, nn as usize - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            total_iters += 1;

            // Look for two consecutive small subdiagonal elements.
            let (mut p, mut q, mut r);
            let mut m = nn - 2;
            loop {
                let z = h[(m as usize, m as usize)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / h[(m as usize + 1, m as usize)]
                    + h[(m as usize, m as usize + 1)];
                q = h[(m as usize + 1, m as usize + 1)] - z - rr - ss;
                r = h[(m as usize + 2, m as usize + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = h[(m as usize, m as usize - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs()
                    * (h[(m as usize - 1, m as usize - 1)].abs()
                        + z.abs()
                        + h[(m as usize + 1, m as usize + 1)].abs());
                if u <= eps * v {
                    break;
                }
                m -= 1;
            }

            for i in (m + 2)..=nn {
                h[(i as usize, i as usize - 2)] = 0.0;
                if i != m + 2 {
                    h[(i as usize, i as usize - 3)] = 0.0;
                }
            }

            // Double QR sweep over rows l..=nn and columns l..=nn.
            for k in m..nn {
                if k != m {
                    p = h[(k as usize, k as usize - 1)];
                    q = h[(k as usize + 1, k as usize - 1)];
                    r = if k != nn - 1 {
                        h[(k as usize + 2, k as usize - 1)]
                    } else {
                        0.0
                    };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s != 0.0 {
                    if k == m {
                        if l != m {
                            h[(k as usize, k as usize - 1)] = -h[(k as usize, k as usize - 1)];
                        }
                    } else {
                        h[(k as usize, k as usize - 1)] = -s * x;
                    }
                    p += s;
                    x = p / s;
                    y = q / s;
                    let z = r / s;
                    q /= p;
                    r /= p;
                    // Row modification.
                    for j in (k as usize)..=(nn as usize) {
                        let mut pp = h[(k as usize, j)] + q * h[(k as usize + 1, j)];
                        if k != nn - 1 {
                            pp += r * h[(k as usize + 2, j)];
                            h[(k as usize + 2, j)] -= pp * z;
                        }
                        h[(k as usize + 1, j)] -= pp * y;
                        h[(k as usize, j)] -= pp * x;
                    }
                    let mmin = if nn < k + 3 { nn } else { k + 3 };
                    // Column modification.
                    for i in (l as usize)..=(mmin as usize) {
                        let mut pp = x * h[(i, k as usize)] + y * h[(i, k as usize + 1)];
                        if k != nn - 1 {
                            pp += z * h[(i, k as usize + 2)];
                            h[(i, k as usize + 2)] -= pp * r;
                        }
                        h[(i, k as usize + 1)] -= pp * q;
                        h[(i, k as usize)] -= pp;
                    }
                }
            }
        }
    }
    Ok(eigs)
}

/// Spectral radius: `max |λ_i|` over all eigenvalues.
///
/// A discrete-time linear system is asymptotically stable iff its state
/// matrix has spectral radius strictly less than 1 — the criterion used by
/// the CapGPU pole analysis.
///
/// # Errors
/// Propagates [`eigenvalues`] errors.
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    Ok(eigenvalues(a)?
        .iter()
        .map(Complex::abs)
        .fold(0.0_f64, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_real(mut eigs: Vec<Complex>) -> Vec<f64> {
        assert!(
            eigs.iter().all(|e| e.im.abs() < 1e-8),
            "expected real spectrum: {eigs:?}"
        );
        eigs.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        eigs.into_iter().map(|e| e.re).collect()
    }

    #[test]
    fn complex_arithmetic() {
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, -1.0, 0.5]);
        let eigs = sorted_real(eigenvalues(&a).unwrap());
        assert!((eigs[0] + 1.0).abs() < 1e-10);
        assert!((eigs[1] - 0.5).abs() < 1e-10);
        assert!((eigs[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn triangular_matrix() {
        let a = Matrix::from_rows(&[&[2.0, 5.0, 1.0], &[0.0, -3.0, 2.0], &[0.0, 0.0, 7.0]]);
        let eigs = sorted_real(eigenvalues(&a).unwrap());
        assert!((eigs[0] + 3.0).abs() < 1e-9);
        assert!((eigs[1] - 2.0).abs() < 1e-9);
        assert!((eigs[2] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_matrix_has_unit_complex_pair() {
        let th = 0.7_f64;
        let a = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]);
        let eigs = eigenvalues(&a).unwrap();
        for e in &eigs {
            assert!((e.abs() - 1.0).abs() < 1e-10);
        }
        // cos ± i·sin
        let mut ims: Vec<f64> = eigs.iter().map(|e| e.im).collect();
        ims.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((ims[0] + th.sin()).abs() < 1e-10);
        assert!((ims[1] - th.sin()).abs() < 1e-10);
    }

    #[test]
    fn symmetric_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eigs = sorted_real(eigenvalues(&a).unwrap());
        assert!((eigs[0] - 1.0).abs() < 1e-10);
        assert!((eigs[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn companion_matrix_of_cubic() {
        // p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
        let a = Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let eigs = sorted_real(eigenvalues(&a).unwrap());
        assert!((eigs[0] - 1.0).abs() < 1e-8);
        assert!((eigs[1] - 2.0).abs() < 1e-8);
        assert!((eigs[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn spectral_radius_of_stable_system() {
        // Closed-loop-like matrix with poles at 0.5 and 0.25.
        let a = Matrix::from_rows(&[&[0.5, 0.1], &[0.0, 0.25]]);
        let rho = spectral_radius(&a).unwrap();
        assert!((rho - 0.5).abs() < 1e-10);
        assert!(rho < 1.0);
    }

    #[test]
    fn spectral_radius_of_unstable_system() {
        let a = Matrix::from_rows(&[&[1.2, 0.0], &[0.3, 0.4]]);
        assert!(spectral_radius(&a).unwrap() > 1.0);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[42.0]]);
        let eigs = eigenvalues(&a).unwrap();
        assert_eq!(eigs.len(), 1);
        assert!((eigs[0].re - 42.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 4);
        let eigs = eigenvalues(&a).unwrap();
        assert!(eigs.iter().all(|e| e.abs() < 1e-12));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(eigenvalues(&Matrix::zeros(2, 3)).is_err());
        assert_eq!(
            eigenvalues(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn badly_scaled_matrix_benefits_from_balancing() {
        // Similar to diag(1e6, 1e-6)-conjugated 2x2 with eigenvalues 1, 2.
        let a = Matrix::from_rows(&[&[1.0, 1e6], &[0.5e-6, 2.0]]);
        let eigs = eigenvalues(&a).unwrap();
        let mut res: Vec<f64> = eigs.iter().map(|e| e.re).collect();
        res.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // char poly: λ² − 3λ + (2 − 0.5) = 0 → λ = (3 ± √(9−6))/2
        let d = (3.0_f64 * 3.0 - 4.0 * 1.5).sqrt();
        assert!((res[0] - (3.0 - d) / 2.0).abs() < 1e-6);
        assert!((res[1] - (3.0 + d) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn repeated_eigenvalues() {
        // Jordan-like block with repeated eigenvalue 2.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        let eigs = sorted_real(eigenvalues(&a).unwrap());
        assert!((eigs[0] - 2.0).abs() < 1e-7);
        assert!((eigs[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1.000000+2.000000i");
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1.000000-2.000000i");
    }
}
