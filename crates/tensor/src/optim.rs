//! Gradient clipping.
//!
//! DP-SGD (Algorithm 2) clips each *per-sample* gradient to a global `l2`
//! bound `C` across all parameter matrices, sums, adds noise, then applies
//! a plain SGD step with the averaged private gradient. [`GradClip`]
//! implements the clip; the trainer applies the update itself
//! ([`Matrix::add_scaled_assign`]).

use crate::matrix::Matrix;

/// Global `l2` clipping across a parameter-shaped gradient list
/// (Algorithm 2, line 6).
pub struct GradClip;

impl GradClip {
    /// `l2` norm of the flattened gradient list. Per-matrix sums of
    /// squares come from the [`crate::simd`] 4-lane reduction (no
    /// square-then-sqrt round trip per matrix), combined in parameter
    /// order — deterministic across backends and thread counts.
    pub fn global_norm(grads: &[Matrix]) -> f64 {
        grads
            .iter()
            .map(|g| crate::simd::sumsq(g.data()))
            .sum::<f64>()
            .sqrt()
    }

    /// Scale `grads` in place by `min(1, c / ‖g‖₂)`. Returns the pre-clip
    /// norm (useful for diagnostics / adaptive clipping studies).
    pub fn clip(grads: &mut [Matrix], c: f64) -> f64 {
        assert!(c > 0.0, "clip bound must be positive");
        let norm = Self::global_norm(grads);
        if norm > c {
            let s = c / norm;
            for g in grads.iter_mut() {
                crate::simd::scale(g.data_mut(), s);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_norm_over_multiple_matrices() {
        let grads = vec![Matrix::from_rows(&[&[3.0]]), Matrix::from_rows(&[&[4.0]])];
        assert!((GradClip::global_norm(&grads) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn clip_noop_when_under_bound() {
        let mut grads = vec![Matrix::from_rows(&[&[0.3, 0.4]])];
        let pre = GradClip::clip(&mut grads, 1.0);
        assert!((pre - 0.5).abs() < 1e-12);
        assert_eq!(grads[0].data(), &[0.3, 0.4]);
    }

    #[test]
    fn clip_scales_to_exact_bound() {
        let mut grads = vec![Matrix::from_rows(&[&[3.0]]), Matrix::from_rows(&[&[4.0]])];
        GradClip::clip(&mut grads, 1.0);
        let post = GradClip::global_norm(&grads);
        assert!((post - 1.0).abs() < 1e-12, "post-clip norm {post}");
        // direction preserved
        assert!((grads[0].get(0, 0) / grads[1].get(0, 0) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clip_bound_panics() {
        let mut grads = vec![Matrix::zeros(1, 1)];
        GradClip::clip(&mut grads, 0.0);
    }
}
