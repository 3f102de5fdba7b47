//! Free functions on `&[f64]` vectors.
//!
//! CapGPU passes plain slices around (frequency vectors, power residuals),
//! so vector helpers are free functions instead of a wrapper type.

/// True when every `|a[i] - b[i]| <= tol`.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx() {
        assert!(approx_eq(&[1.0], &[1.0 + 1e-12], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1.0));
    }
}
