//! Graph attention over per-node scores (GAT/GRAT, Appendix G Eqs. 33–40).
//!
//! [`attend`] is the one forward kernel behind the training tape's
//! [`crate::Tape::attend`] op and the model's tape-free inference. It reads
//! the per-node scores `s_dst = hw·a_dst` and `s_src = hw·a_src` (`n×1`)
//! and per-arc scalars only: no `E×hidden` buffer is built.
//! `attend_backward` is the tape op's backward. It
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
    let finite = simd::all_finite(hw.data()) && simd::all_finite(alpha.data());
    let scatter = Scatter {
        agg: &mut agg,
        hw,
        src,
        dst,
        alpha: alpha.data(),
    };
    if finite {
        simd::dispatch(scatter)
    } else {
        simd::run_baseline(scatter)
    }
    (agg, alpha)
}

/// [`attend`]'s scatter `agg[dst_i] += α_i · hw[src_i]`, in arc order, as
/// one [`simd::Kernel`]: the rows are added at the backend's vector width
/// without a dispatch per arc. Dispatched only when `hw` and α are finite.
struct Scatter<'a> {
    agg: &'a mut Matrix,
    hw: &'a Matrix,
    src: &'a [u32],
    dst: &'a [u32],
    alpha: &'a [f64],
}

impl simd::Kernel for Scatter<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        for ((&s, &d), &a) in self.src.iter().zip(self.dst).zip(self.alpha) {
            let row = self.agg.row_mut(d as usize);
            for (o, &v) in row.iter_mut().zip(self.hw.row(s as usize)) {
                *o += a * v;
            }
        }
    }
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
    let finite = [d, hw, a_dst, a_src, &saved.alpha, &*hw_grad]
        .iter()
        .all(|m| simd::all_finite(m.data()));
    let backward = Backward {
        d,
        saved,
        hw,
        a_dst,
        a_src,
        hw_grad,
    };
    if finite {
        simd::dispatch(backward)
    } else {
        simd::run_baseline(backward)
    }
}

/// [`attend_backward`]'s operands: its loops are one [`simd::Kernel`], so
/// the row loops run at the active backend's vector width. Dispatched only
/// when every operand it adds or multiplies is finite.
struct Backward<'a> {
    d: &'a Matrix,
    saved: &'a Saved,
    hw: &'a Matrix,
    a_dst: &'a Matrix,
    a_src: &'a Matrix,
    hw_grad: &'a mut Matrix,
}

impl simd::Kernel for Backward<'_> {
    type Output = (Matrix, Matrix);

    #[inline(always)]
    fn run(self) -> (Matrix, Matrix) {
        let Backward {
            d,
            saved,
            hw,
            a_dst,
            a_src,
            hw_grad,
        } = self;
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
        let arcs = src.iter().zip(dst).zip(g.data());
        // A finite g makes the exact-zero skip a no-op (DESIGN.md §10.5).
        if simd::all_finite(g.data()) {
            for ((&s, &t), &gi) in arcs {
                for (acc, r) in [(&mut ga_dst, t), (&mut ga_src, s)] {
                    for (o, &v) in acc.data_mut().iter_mut().zip(hw.row(r as usize)) {
                        *o += v * gi;
                    }
                }
            }
        } else {
            for ((&s, &t), &gi) in arcs {
                add_nonzero_products(ga_dst.data_mut(), hw.row(t as usize), gi);
                add_nonzero_products(ga_src.data_mut(), hw.row(s as usize), gi);
            }
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
    use privim_rt::{ChaCha8Rng, Rng, SeedableRng};

    /// `attend_backward` as it was before the finite-`g` path and the
    /// per-backend compile: every loop scalar, the `∂a` sums skipping
    /// exact-zero `hw` entries.
    fn scalar_backward(
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
        let mut dot = vec![0.0; hw.rows()];
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
            for (acc, r) in [(&mut ga_dst, t), (&mut ga_src, s)] {
                for (o, &v) in acc.data_mut().iter_mut().zip(hw.row(r as usize)) {
                    if v != 0.0 {
                        *o += v * gi;
                    }
                }
            }
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

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `rows×cols` uniform in ±`scale`, a quarter of the entries exactly 0.
    fn sparse_matrix(rows: usize, cols: usize, scale: f64, rng: &mut ChaCha8Rng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    (rng.gen::<f64>() * 2.0 - 1.0) * scale
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn backward_matches_the_scalar_version_bitwise_on_every_backend() {
        use crate::simd::{set_backend, Choice};
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut fallbacks = 0;
        for case in 0..24 {
            let n = [1, 2, 7, 35, 70][case % 5];
            let hidden = [32, 3, 17][case % 3];
            // one self-loop per node plus seeded arcs (repeats allowed)
            let mut src: Vec<u32> = (0..n as u32).collect();
            let mut dst = src.clone();
            for _ in 0..rng.gen_range(0..4 * n) {
                src.push(rng.gen_range(0..n as u32));
                dst.push(rng.gen_range(0..n as u32));
            }
            let hw = sparse_matrix(n, hidden, 1.5, &mut rng);
            let a_dst = sparse_matrix(hidden, 1, 3.0, &mut rng);
            let a_src = sparse_matrix(hidden, 1, 3.0, &mut rng);
            // every third case overflows ∂α, so g is not finite and the
            // ∂a sums must keep skipping zero hw entries
            let scale = if case % 3 == 2 { 1e308 } else { 1.0 };
            let d = sparse_matrix(n, hidden, scale, &mut rng);
            let skip = sparse_matrix(n, hidden, 1.0, &mut rng);
            for by_dst in [true, false] {
                let (_, saved) = forward(
                    &hw,
                    &a_dst,
                    &a_src,
                    Arc::new(src.clone()),
                    Arc::new(dst.clone()),
                    by_dst,
                );
                let mut want_hw = skip.clone();
                let want = scalar_backward(&d, &saved, &hw, &a_dst, &a_src, &mut want_hw);
                if want_hw.has_non_finite() {
                    fallbacks += 1;
                }
                for c in [Choice::Scalar, Choice::Avx2, Choice::Auto] {
                    set_backend(Some(c));
                    let mut got_hw = skip.clone();
                    let got = attend_backward(&d, &saved, &hw, &a_dst, &a_src, &mut got_hw);
                    set_backend(None);
                    let what = format!("case {case} n={n} by_dst={by_dst} {c:?}");
                    assert_eq!(bits(&got.0), bits(&want.0), "∂a_dst {what}");
                    assert_eq!(bits(&got.1), bits(&want.1), "∂a_src {what}");
                    assert_eq!(bits(&got_hw), bits(&want_hw), "∂hw {what}");
                }
            }
        }
        assert!(fallbacks > 0, "no case took the non-finite g path");
    }

    #[test]
    fn nan_payload_inputs_give_the_same_bits_on_every_backend() {
        use crate::simd::{set_backend, Choice};
        // NaNs of both signs and several payloads (one signalling), beside
        // infinities: where two of them meet, the bits would follow the
        // operand order of each backend's build
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_dead_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let salted = |rows: usize, cols: usize, rng: &mut ChaCha8Rng| {
            let mut m = sparse_matrix(rows, cols, 1.5, rng);
            for v in m.data_mut() {
                if rng.gen_range(0..6) == 0 {
                    *v = specials[rng.gen_range(0..specials.len())];
                }
            }
            m
        };
        for case in 0..12 {
            let (n, hidden) = ([7, 35, 70][case % 3], [32, 17][case % 2]);
            let mut src: Vec<u32> = (0..n as u32).collect();
            let mut dst = src.clone();
            for _ in 0..3 * n {
                src.push(rng.gen_range(0..n as u32));
                dst.push(rng.gen_range(0..n as u32));
            }
            // NaNs in hw alone, in d alone, or in both
            let finite_hw = sparse_matrix(n, hidden, 1.5, &mut rng);
            let hw = if case % 3 == 1 {
                finite_hw
            } else {
                salted(n, hidden, &mut rng)
            };
            let d = if case % 3 == 0 {
                sparse_matrix(n, hidden, 1.0, &mut rng)
            } else {
                salted(n, hidden, &mut rng)
            };
            let skip = salted(n, hidden, &mut rng);
            let a_dst = sparse_matrix(hidden, 1, 3.0, &mut rng);
            let a_src = sparse_matrix(hidden, 1, 3.0, &mut rng);
            let by_dst = case % 2 == 0;
            let run = |c: Choice| {
                set_backend(Some(c));
                let (agg, saved) = forward(
                    &hw,
                    &a_dst,
                    &a_src,
                    Arc::new(src.clone()),
                    Arc::new(dst.clone()),
                    by_dst,
                );
                let mut hw_grad = skip.clone();
                let (ga_dst, ga_src) =
                    attend_backward(&d, &saved, &hw, &a_dst, &a_src, &mut hw_grad);
                set_backend(None);
                [agg, ga_dst, ga_src, hw_grad].map(|m| bits(&m))
            };
            let want = run(Choice::Scalar);
            for c in [Choice::Avx2, Choice::Auto] {
                let got = run(c);
                for (name, (g, w)) in ["agg", "∂a_dst", "∂a_src", "∂hw"]
                    .iter()
                    .zip(got.iter().zip(&want))
                {
                    assert_eq!(g, w, "{name} case {case} n={n} by_dst={by_dst} {c:?}");
                }
            }
        }
    }

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
