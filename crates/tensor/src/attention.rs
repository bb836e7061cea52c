//! Graph attention over per-node scores (GAT/GRAT, Appendix G Eqs. 33–40).
//!
//! [`attend`] is the one forward kernel behind the training tape's
//! [`crate::Tape::attend`] op and the model's tape-free inference. It reads
//! the per-node scores `s_dst = hw·a_dst` and `s_src = hw·a_src` (`n×1`)
//! and per-arc scalars only: no `E×hidden` buffer is built. It runs in
//! two passes over an [`Arcs`] value: a softmax pass per segment that
//! writes α in arc order, then a gather per target over its in-arcs that
//! keeps the output row in registers. `attend_backward` is the tape op's
//! backward. It reproduces, operation for operation, the gradients of the
//! gather → contract → leaky-ReLU → segment-softmax → scale → scatter
//! chain the op replaced (DESIGN.md §10.5).

use crate::matrix::Matrix;
use crate::simd;
use std::sync::Arc;

/// Negative slope of the leaky ReLU on the attention scores.
const SLOPE: f64 = 0.2;

/// Output columns the gather keeps in registers at once: 32 f64, eight
/// AVX2 registers, the paper's hidden width.
const CHUNK: usize = 32;

/// Arc `(s, d)`'s score before the leaky ReLU.
#[inline]
fn raw_score(s_dst: &Matrix, s_src: &Matrix, s: u32, d: u32) -> f64 {
    s_dst.data()[d as usize] + s_src.data()[s as usize]
}

/// The arcs `src[i] → dst[i]` of one attention layer over `n` nodes, in
/// arc order, with both of their groupings: each target's in-arcs (the
/// gather, and GAT's softmax) and each source's out-arcs (GRAT's
/// softmax). A group lists its arcs in arc order, so a pass over it adds
/// a segment's terms in the order a pass over the whole arc list did.
#[derive(Debug)]
pub struct Arcs {
    src: Vec<u32>,
    dst: Vec<u32>,
    /// Target `d`'s in-slots: `[source, arc index]` of each in-arc.
    by_target: Groups,
    /// Source `s`'s out-arcs: `[target, arc index]` of each.
    by_source: Groups,
}

/// Arcs grouped by one endpoint: node `k`'s are `slot[off[k]..off[k + 1]]`,
/// each `[other endpoint, arc index]`, so a pass over a group reads one
/// sequential stream.
#[derive(Debug)]
struct Groups {
    off: Vec<usize>,
    slot: Vec<[u32; 2]>,
}

impl Groups {
    /// The arcs `key[i] – other[i]` grouped by `key < n`, each group in
    /// ascending arc order (a stable counting sort).
    fn by(n: usize, key: &[u32], other: &[u32]) -> Groups {
        let mut off = vec![0usize; n + 1];
        for &k in key {
            off[k as usize + 1] += 1;
        }
        for k in 0..n {
            off[k + 1] += off[k];
        }
        let mut next = off[..n].to_vec();
        let mut slot = vec![[0u32; 2]; key.len()];
        for (i, (&k, &o)) in key.iter().zip(other).enumerate() {
            slot[next[k as usize]] = [o, i as u32];
            next[k as usize] += 1;
        }
        Groups { off, slot }
    }

    fn nodes(&self) -> usize {
        self.off.len() - 1
    }

    fn get(&self, k: usize) -> &[[u32; 2]] {
        &self.slot[self.off[k]..self.off[k + 1]]
    }
}

impl Arcs {
    /// Group the arcs `src[i] → dst[i]` over nodes `0..n`. Panics on an
    /// endpoint outside `0..n`.
    pub fn new(n: usize, src: Vec<u32>, dst: Vec<u32>) -> Arcs {
        assert_eq!(src.len(), dst.len(), "arc endpoint length mismatch");
        assert!(
            u32::try_from(src.len()).is_ok(),
            "more arcs than u32 indices"
        );
        Arcs {
            by_target: Groups::by(n, &dst, &src),
            by_source: Groups::by(n, &src, &dst),
            src,
            dst,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.by_target.nodes()
    }

    /// Arc count.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether there are no arcs.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Source of each arc, in arc order.
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Target of each arc, in arc order.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Target `d`'s in-slots in arc order, each `[source, arc index]`:
    /// the in-slot → arc permutation restricted to `d`.
    pub fn in_slots(&self, d: usize) -> &[[u32; 2]] {
        self.by_target.get(d)
    }
}

/// Aggregate `hw` (`n×hidden`) over `arcs`: arc `i = (s, d)` scores
/// `e_i = leaky_relu(s_dst[d] + s_src[s])`, its coefficient `α_i` is the
/// softmax of `e` within its segment (each target's in-arcs if `by_dst`,
/// the GAT normalisation of Eq. 35; else each source's out-arcs, GRAT's
/// Eq. 39), and row `d` of the aggregate is `Σ α_i · hw[s]` over `d`'s
/// in-arcs in arc order. Returns the `n×hidden` aggregate and the `E×1`
/// coefficients in arc order.
pub fn attend(
    hw: &Matrix,
    s_dst: &Matrix,
    s_src: &Matrix,
    arcs: &Arcs,
    by_dst: bool,
) -> (Matrix, Matrix) {
    let n = hw.rows();
    assert_eq!(arcs.nodes(), n, "arcs are over another node count");
    // The n×hidden output first: the matrix pool hands out the first
    // buffer big enough, so this takes the one the previous layer released
    // and α gets one its size, rather than the other way round.
    let mut agg = Matrix::zeros(n, hw.cols());
    let mut alpha = Matrix::zeros(arcs.len(), 1);
    if by_dst {
        softmax(alpha.data_mut(), &arcs.by_target, |d, s| {
            raw_score(s_dst, s_src, s, d)
        });
    } else {
        softmax(alpha.data_mut(), &arcs.by_source, |s, d| {
            raw_score(s_dst, s_src, s, d)
        });
    }
    let finite = simd::all_finite(hw.data()) && simd::all_finite(alpha.data());
    let gather = Gather {
        agg: &mut agg,
        hw,
        arcs,
        alpha: alpha.data(),
    };
    if finite {
        simd::dispatch(gather)
    } else {
        simd::run_baseline(gather)
    }
    (agg, alpha)
}

/// α in arc order, one segment at a time: the leaky-ReLU scores, their
/// maximum, `exp(e − max)` and its sum, then the quotients. Each pass
/// walks the segment's arcs in arc order, so the maximum and the sum
/// take their terms in the order of a pass over the whole arc list.
/// `score(k, other)` is the raw score of an arc of segment `k`.
fn softmax(alpha: &mut [f64], segments: &Groups, score: impl Fn(u32, u32) -> f64) {
    for k in 0..segments.nodes() {
        let slots = segments.get(k);
        let mut max = f64::NEG_INFINITY;
        for &[other, i] in slots {
            let v = score(k as u32, other);
            let e = if v > 0.0 { v } else { SLOPE * v };
            alpha[i as usize] = e;
            max = max.max(e);
        }
        let mut sum = 0.0;
        for &[_, i] in slots {
            let e = (alpha[i as usize] - max).exp();
            alpha[i as usize] = e;
            sum += e;
        }
        for &[_, i] in slots {
            alpha[i as usize] /= sum;
        }
    }
}

/// [`attend`]'s gather `agg[d] = Σ α_i · hw[s_i]` over `d`'s in-arcs in
/// arc order, as one [`simd::Kernel`]. Each row is summed [`CHUNK`]
/// columns at a time in a register accumulator that starts at `+0.0`, so
/// every element takes the adds of a scatter into a zeroed row in arc
/// order. Dispatched only when `hw` and α are finite.
struct Gather<'a> {
    agg: &'a mut Matrix,
    hw: &'a Matrix,
    arcs: &'a Arcs,
    alpha: &'a [f64],
}

impl simd::Kernel for Gather<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let cols = self.hw.cols();
        for d in 0..self.arcs.nodes() {
            let slots = self.arcs.in_slots(d);
            let terms = || {
                slots
                    .iter()
                    .map(|&[s, i]| (self.alpha[i as usize], self.hw.row(s as usize)))
            };
            let out = self.agg.row_mut(d);
            let mut c0 = 0;
            while c0 + CHUNK <= cols {
                let mut acc = [0.0; CHUNK];
                for (a, row) in terms() {
                    for (o, &v) in acc.iter_mut().zip(&row[c0..c0 + CHUNK]) {
                        *o += a * v;
                    }
                }
                out[c0..c0 + CHUNK].copy_from_slice(&acc);
                c0 += CHUNK;
            }
            // the last `cols % CHUNK` columns, summed in the zeroed row
            for (a, row) in terms() {
                for (o, &v) in out[c0..].iter_mut().zip(&row[c0..]) {
                    *o += a * v;
                }
            }
        }
    }
}

/// What the tape op keeps for [`attend_backward`]: the arcs, the
/// normalisation, the per-node scores `hw·a_dst` and `hw·a_src` (`n×1`) and
/// the coefficients α (`E×1`, arc order), all in pooled buffers.
#[derive(Clone, Debug)]
pub(crate) struct Saved {
    pub arcs: Arc<Arcs>,
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
    arcs: Arc<Arcs>,
    by_dst: bool,
) -> (Matrix, Saved) {
    let (s_dst, s_src) = (hw.matmul(a_dst), hw.matmul(a_src));
    let (agg, alpha) = attend(hw, &s_dst, &s_src, &arcs, by_dst);
    let saved = Saved {
        arcs,
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
        let (src, dst) = (saved.arcs.src(), saved.arcs.dst());
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
        let (src, dst) = (saved.arcs.src(), saved.arcs.dst());
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
                    Arc::new(Arcs::new(n, src.clone(), dst.clone())),
                    by_dst,
                );
                let mut want_hw = skip.clone();
                let want = scalar_backward(&d, &saved, &hw, &a_dst, &a_src, &mut want_hw);
                if want_hw.has_non_finite() {
                    fallbacks += 1;
                }
                for c in [Choice::Scalar, Choice::Auto] {
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
                    Arc::new(Arcs::new(n, src.clone(), dst.clone())),
                    by_dst,
                );
                let mut hw_grad = skip.clone();
                let (ga_dst, ga_src) =
                    attend_backward(&d, &saved, &hw, &a_dst, &a_src, &mut hw_grad);
                set_backend(None);
                [agg, ga_dst, ga_src, hw_grad].map(|m| bits(&m))
            };
            let want = run(Choice::Scalar);
            for c in [Choice::Auto] {
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

    /// The forward as it was before the gather: scores in arc order, the
    /// segment softmax as three passes over the whole arc list, then the
    /// scatter `agg[dst_i] += α_i · hw[src_i]` in arc order.
    fn scatter_forward(
        hw: &Matrix,
        s_dst: &Matrix,
        s_src: &Matrix,
        src: &[u32],
        dst: &[u32],
        by_dst: bool,
    ) -> [Vec<u64>; 2] {
        let n = hw.rows();
        let mut alpha: Vec<f64> = src
            .iter()
            .zip(dst)
            .map(|(&s, &d)| raw_score(s_dst, s_src, s, d))
            .collect();
        for v in alpha.iter_mut() {
            *v = if *v > 0.0 { *v } else { SLOPE * *v };
        }
        let seg = if by_dst { dst } else { src };
        let (mut max, mut sum) = (vec![f64::NEG_INFINITY; n], vec![0.0; n]);
        for (&v, &g) in alpha.iter().zip(seg) {
            max[g as usize] = max[g as usize].max(v);
        }
        for (v, &g) in alpha.iter_mut().zip(seg) {
            *v = (*v - max[g as usize]).exp();
            sum[g as usize] += *v;
        }
        for (v, &g) in alpha.iter_mut().zip(seg) {
            *v /= sum[g as usize];
        }
        let mut agg = Matrix::zeros(n, hw.cols());
        for ((&s, &d), &a) in src.iter().zip(dst).zip(&alpha) {
            for (o, &v) in agg.row_mut(d as usize).iter_mut().zip(hw.row(s as usize)) {
                *o += a * v;
            }
        }
        [bits(&agg), alpha.iter().map(|v| v.to_bits()).collect()]
    }

    #[test]
    fn forward_matches_the_arc_order_scatter() {
        use crate::simd::{set_backend, Choice};
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for case in 0..30 {
            // widths below, at and above the register chunk, with a tail
            let (n, hidden) = (
                [1, 2, 9, 35, 70][case % 5],
                [3, 32, 45, 64, 70, 8][case % 6],
            );
            // seeded arcs in no particular order, repeats and self-loops
            // included, and a node or two with no arcs at all
            let arcs = rng.gen_range(0..4 * n + 1);
            let src: Vec<u32> = (0..arcs).map(|_| rng.gen_range(0..n as u32)).collect();
            let dst: Vec<u32> = (0..arcs).map(|_| rng.gen_range(0..n as u32)).collect();
            let hw = sparse_matrix(n, hidden, 1.5, &mut rng);
            let (s_dst, s_src) = (
                sparse_matrix(n, 1, 8.0, &mut rng),
                sparse_matrix(n, 1, 8.0, &mut rng),
            );
            let grouped = Arcs::new(n, src.clone(), dst.clone());
            for by_dst in [true, false] {
                let want = scatter_forward(&hw, &s_dst, &s_src, &src, &dst, by_dst);
                for c in [Choice::Scalar, Choice::Auto] {
                    set_backend(Some(c));
                    let (agg, alpha) = attend(&hw, &s_dst, &s_src, &grouped, by_dst);
                    set_backend(None);
                    let what = format!("case {case} n={n} hidden={hidden} by_dst={by_dst} {c:?}");
                    assert_eq!(bits(&agg), want[0], "agg {what}");
                    assert_eq!(bits(&alpha), want[1], "α {what}");
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
        let arcs = Arcs::new(3, vec![0, 0, 1, 2], vec![1, 2, 2, 2]);
        let (gat, alpha) = attend(&hw, &zero, &zero, &arcs, true);
        assert_eq!(alpha.data(), &[1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        assert_eq!(gat.row(1), &[1.0, 0.0, 0.0]);
        assert_eq!(gat.row(2), &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        let (grat, alpha) = attend(&hw, &zero, &zero, &arcs, false);
        assert_eq!(alpha.data(), &[0.5, 0.5, 1.0, 1.0]);
        assert_eq!(grat.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(grat.row(2), &[0.5, 1.0, 1.0]);
    }
}
