//! Free functions on `&[f64]` vectors.
//!
//! CapGPU passes plain slices around (frequency vectors, power residuals),
//! so vector helpers are free functions instead of a wrapper type.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Elementwise `a + b`.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Elementwise `a - b`.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Scales every entry by `s`.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// True when every `|a[i] - b[i]| <= tol`.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0], &[2.0]), vec![3.0]);
        assert_eq!(sub(&[1.0], &[2.0]), vec![-1.0]);
        assert_eq!(scale(&[2.0, -2.0], 0.5), vec![1.0, -1.0]);
    }

    #[test]
    fn approx() {
        assert!(approx_eq(&[1.0], &[1.0 + 1e-12], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1.0));
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
