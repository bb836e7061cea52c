//! Graph attention over per-node scores (GAT/GRAT, Appendix G Eqs. 33–40).
//!
//! [`attend`] is the one forward kernel behind the training tape's
//! [`crate::Tape::attend`] op and the tape-free inference of both the dense
//! and the int8 model. It reads the per-node scores `s_dst = hw·a_dst` and
//! `s_src = hw·a_src` (`n×1`) and per-arc scalars only: no `E×hidden`
//! buffer is built. [`attend_backward`] is the tape op's backward. It
//! reproduces, operation for operation, the gradients of the gather →
//! contract → leaky-ReLU → segment-softmax → scale → scatter chain the op
//! replaced (DESIGN.md §10.5).

use crate::matrix::Matrix;
use crate::simd;
use std::sync::Arc;

/// Negative slope of the leaky ReLU on the attention scores.
const SLOPE: f64 = 0.2;

/// Arc `(s, d)`'s score before the leaky ReLU.
#[inline]
fn raw_score(s_dst: &Matrix, s_src: &Matrix, s: u32, d: u32) -> f64 {
    s_dst.data()[d as usize] + s_src.data()[s as usize]
}

/// Aggregate `hw` (`n×hidden`) over the arcs `src[i] → dst[i]`: arc `i`
/// scores `e_i = leaky_relu(s_dst[dst_i] + s_src[src_i])`, its coefficient
/// `α_i` is the softmax of `e` within its segment (each target's in-arcs if
/// `by_dst`, the GAT normalisation of Eq. 35; else each source's out-arcs,
/// GRAT's Eq. 39), and `α_i · hw[src_i]` is added into row `dst_i` in arc
/// order. Returns the `n×hidden` aggregate and the `E×1` coefficients.
pub fn attend(
    hw: &Matrix,
    s_dst: &Matrix,
    s_src: &Matrix,
    src: &[u32],
    dst: &[u32],
    by_dst: bool,
) -> (Matrix, Matrix) {
    assert_eq!(src.len(), dst.len(), "arc endpoint length mismatch");
    let n = hw.rows();
    // The n×hidden output first: the matrix pool hands out the first
    // buffer big enough, so this takes the one the previous layer released
    // and α gets one its size, rather than the other way round.
    let mut agg = Matrix::zeros(n, hw.cols());
    let mut alpha = Matrix::zeros(src.len(), 1);
    for (a, (&s, &d)) in alpha.data_mut().iter_mut().zip(src.iter().zip(dst)) {
        let v = raw_score(s_dst, s_src, s, d);
        *a = if v > 0.0 { v } else { SLOPE * v };
    }
    segment_softmax(alpha.data_mut(), if by_dst { dst } else { src }, n);
    for ((&s, &d), &a) in src.iter().zip(dst).zip(alpha.data()) {
        simd::axpy(agg.row_mut(d as usize), a, hw.row(s as usize));
    }
    (agg, alpha)
}

/// Softmax of `e` within each segment `seg[i] < n`, in place, stabilised
/// by the per-segment maximum.
fn segment_softmax(e: &mut [f64], seg: &[u32], n: usize) {
    let mut max = Matrix::full(n, 1, f64::NEG_INFINITY);
    let mut sum = Matrix::zeros(n, 1);
    let (max, sum) = (max.data_mut(), sum.data_mut());
    for (&v, &g) in e.iter().zip(seg) {
        max[g as usize] = max[g as usize].max(v);
    }
    for (v, &g) in e.iter_mut().zip(seg) {
        *v = (*v - max[g as usize]).exp();
        sum[g as usize] += *v;
    }
    for (v, &g) in e.iter_mut().zip(seg) {
        *v /= sum[g as usize];
    }
}

/// What the tape op keeps for [`attend_backward`]: the arcs, the
/// normalisation, the per-node scores `hw·a_dst` and `hw·a_src` (`n×1`) and
/// the coefficients α (`E×1`), all in pooled buffers.
#[derive(Clone, Debug)]
pub(crate) struct Saved {
    pub src: Arc<Vec<u32>>,
    pub dst: Arc<Vec<u32>>,
    pub by_dst: bool,
    pub s_dst: Matrix,
    pub s_src: Matrix,
    pub alpha: Matrix,
}

/// The tape op's forward: the per-node scores, then [`attend`].
pub(crate) fn forward(
    hw: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    by_dst: bool,
) -> (Matrix, Saved) {
    let (s_dst, s_src) = (hw.matmul(a_dst), hw.matmul(a_src));
    let (agg, alpha) = attend(hw, &s_dst, &s_src, &src, &dst, by_dst);
    let saved = Saved {
        src,
        dst,
        by_dst,
        s_dst,
        s_src,
        alpha,
    };
    (agg, saved)
}

/// Backward of [`forward`] for the upstream gradient `d` (`n×hidden`).
/// Adds the `hw` gradient into `hw_grad` (which holds whatever `hw` has
/// accumulated so far, e.g. GAT's skip term) and returns the gradients of
/// `a_dst` and `a_src`. Each step repeats the old op chain's arithmetic in
/// its order, so the bits match it:
///
/// 1. `∂α_i = Σ_j (0 + d[dst_i][j]) · hw[src_i][j]`, columns ascending
///    (scatter, then column-broadcast backward).
/// 2. `∂e_i = α_i · (∂α_i − Σ_seg ∂α·α)` with the segment sums in arc
///    order, through the leaky ReLU: `g_i` (segment-softmax backward).
/// 3. `∂a_dst = Σ_i hw[dst_i] · g_i` and `∂a_src = Σ_i hw[src_i] · g_i` in
///    arc order, skipping exact-zero `hw` entries (the `Xᵀ·g` matmul).
/// 4. Target pass, then source pass, each in arc order:
///    `hw_grad[dst_i] += 0 + g_i · a_dst` and
///    `hw_grad[src_i] += (0 + d[dst_i]) · α_i + (0 + g_i · a_src)`
///    (the two gathers' backward, `dst_f` after `src_f` on the tape).
pub(crate) fn attend_backward(
    d: &Matrix,
    saved: &Saved,
    hw: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    hw_grad: &mut Matrix,
) -> (Matrix, Matrix) {
    let (src, dst) = (&saved.src[..], &saved.dst[..]);
    let mut g = Matrix::zeros(src.len(), 1);
    for (gi, (&s, &t)) in g.data_mut().iter_mut().zip(src.iter().zip(dst)) {
        let (dr, hr) = (d.row(t as usize), hw.row(s as usize));
        *gi = dr
            .iter()
            .zip(hr)
            .fold(0.0, |acc, (&dv, &h)| acc + (0.0 + dv) * h);
    }
    let seg = if saved.by_dst { dst } else { src };
    let mut dot = Matrix::zeros(hw.rows(), 1);
    let dot = dot.data_mut();
    for ((&k, &gi), &a) in seg.iter().zip(g.data()).zip(saved.alpha.data()) {
        dot[k as usize] += gi * a;
    }
    for (i, gi) in g.data_mut().iter_mut().enumerate() {
        let ds = saved.alpha.data()[i] * (*gi - dot[seg[i] as usize]);
        let raw = raw_score(&saved.s_dst, &saved.s_src, src[i], dst[i]);
        *gi = if raw > 0.0 { ds } else { SLOPE * ds };
    }
    let mut ga_dst = Matrix::zeros(hw.cols(), 1);
    let mut ga_src = Matrix::zeros(hw.cols(), 1);
    for ((&s, &t), &gi) in src.iter().zip(dst).zip(g.data()) {
        add_nonzero_products(ga_dst.data_mut(), hw.row(t as usize), gi);
        add_nonzero_products(ga_src.data_mut(), hw.row(s as usize), gi);
    }
    for (&t, &gi) in dst.iter().zip(g.data()) {
        let row = hw_grad.row_mut(t as usize);
        for (o, &a) in row.iter_mut().zip(a_dst.data()) {
            *o += 0.0 + gi * a;
        }
    }
    for (i, (&s, &t)) in src.iter().zip(dst).enumerate() {
        let (gi, alpha) = (g.data()[i], saved.alpha.data()[i]);
        let row = hw_grad.row_mut(s as usize);
        for ((o, &dv), &a) in row.iter_mut().zip(d.row(t as usize)).zip(a_src.data()) {
            *o += (0.0 + dv) * alpha + (0.0 + gi * a);
        }
    }
    (ga_dst, ga_src)
}

/// `acc[j] += x[j] · g` for every `x[j]` that is not exactly zero.
fn add_nonzero_products(acc: &mut [f64], x: &[f64], g: f64) {
    for (o, &v) in acc.iter_mut().zip(x) {
        // privim-lint: allow(float-eq, reason = "exact-zero skip the Xᵀ·g matmul this sum replaces also takes: 0.0 * g adds nothing for finite g, and skipping keeps a non-finite g out of zero hw columns exactly as before")
        if v != 0.0 {
            *o += v * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_normalise_per_target_or_per_source() {
        // zero attention vectors: α is uniform within each segment, and
        // with hw = I row `d` of the aggregate lists α of d's in-arcs
        let hw = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let zero = Matrix::zeros(3, 1);
        let (src, dst) = ([0u32, 0, 1, 2], [1u32, 2, 2, 2]);
        let (gat, alpha) = attend(&hw, &zero, &zero, &src, &dst, true);
        assert_eq!(alpha.data(), &[1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        assert_eq!(gat.row(1), &[1.0, 0.0, 0.0]);
        assert_eq!(gat.row(2), &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        let (grat, alpha) = attend(&hw, &zero, &zero, &src, &dst, false);
        assert_eq!(alpha.data(), &[0.5, 0.5, 1.0, 1.0]);
        assert_eq!(grat.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(grat.row(2), &[0.5, 1.0, 1.0]);
    }
}
