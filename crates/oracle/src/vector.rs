//! The vector helpers only the reference solvers use (and, for tests,
//! `capgpu_linalg::vector::approx_eq`).

#[cfg(test)]
pub(crate) use capgpu_linalg::vector::approx_eq;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Elementwise `a + b`.
pub(crate) fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Elementwise `a - b`.
pub(crate) fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Scales every entry by `s`.
pub(crate) fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// Infinity norm (maximum absolute entry); 0 for an empty slice.
pub(crate) fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `a + s·b` (axpy).
pub(crate) fn axpy(a: &[f64], s: f64, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + s * y).collect()
}

/// Clamps each entry of `x` into `[lo[i], hi[i]]`.
///
/// # Panics
/// Panics if lengths differ.
pub(crate) fn clamp_box(x: &[f64], lo: &[f64], hi: &[f64]) -> Vec<f64> {
    assert!(
        x.len() == lo.len() && x.len() == hi.len(),
        "clamp_box length mismatch"
    );
    x.iter()
        .zip(lo.iter().zip(hi.iter()))
        .map(|(&v, (&l, &h))| v.clamp(l, h))
        .collect()
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
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_axpy_and_clamping() {
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(axpy(&[1.0, 1.0], 2.0, &[3.0, 4.0]), vec![7.0, 9.0]);
        let x = clamp_box(&[-1.0, 0.5, 9.0], &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }
}
