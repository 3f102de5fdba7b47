//! `capgpu_linalg::vector`, plus the helpers only the reference solvers use.

pub(crate) use capgpu_linalg::vector::*;

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
    fn norm_axpy_and_clamping() {
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(axpy(&[1.0, 1.0], 2.0, &[3.0, 4.0]), vec![7.0, 9.0]);
        let x = clamp_box(&[-1.0, 0.5, 9.0], &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }
}
