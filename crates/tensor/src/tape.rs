//! Reverse-mode autodiff tape.
//!
//! Eager evaluation: each op computes its value immediately and records the
//! operands, so `backward` is a single reverse sweep. One tape is created
//! per forward pass (per subgraph in DP-SGD — Algorithm 2 needs *per-sample*
//! gradients anyway, so tapes are short-lived and allocation is amortised by
//! the small shapes involved).
//!
//! The op set is exactly what the five GNNs (Appendix G) and the IM loss
//! (Eq. 5) require; see each constructor's docs for the backward rule:
//!
//! - dense: [`Tape::matmul`], [`Tape::concat_cols`],
//!   [`Tape::add_row_broadcast`] (the readout bias) and
//!   [`Tape::bias_relu`] (every hidden layer's bias add and ReLU, one op);
//! - elementwise: add, sub, mul, scale, add_scalar, one_minus,
//!   leaky_relu, sigmoid, tanh, exp, clamp01;
//! - reductions: [`Tape::sum`], [`Tape::mean`];
//! - message passing: [`Tape::spmm`] (GCN, SAGE, GIN and the loss's
//!   diffusion), [`Tape::gather_rows`] and [`Tape::mul_col_broadcast`]
//!   (GIN's `(1 + ε)·h`), and [`Tape::attend`], one fused GAT/GRAT
//!   attention layer whose backward keeps the bits of the op chain it
//!   replaced (DESIGN.md §10.5).
//!
//! ## Allocation reuse
//!
//! Per-sample training builds one tape per subgraph per batch. Two layers
//! keep that from hammering the allocator: every op's value matrix draws
//! its buffer from the thread-local pool in [`crate::pool`] (and returns it
//! on drop), and [`Tape::with_scratch`] hands out a per-thread recycled
//! tape whose node storage keeps its capacity across samples. Because
//! `privim_rt::par` workers are persistent, both warm up once per thread
//! and stay warm for the whole run.

use crate::attention;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use std::cell::RefCell;
use std::sync::Arc;

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Clone, Debug)]
enum Op {
    Leaf,
    Const,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRowBroadcast(Var, Var),
    BiasRelu(Var, Var),
    Scale(Var, f64),
    AddScalar(Var),
    LeakyRelu(Var, f64),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    Clamp01(Var),
    OneMinus(Var),
    Sum(Var),
    Mean(Var),
    ConcatCols(Var, Var),
    Spmm(usize, Var),
    GatherRows(Var, Arc<Vec<u32>>),
    MulColBroadcast(Var, Var),
    Attend([Var; 3], attention::Saved),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// Gradients of one scalar output with respect to every tape node.
///
/// Gradients are materialised lazily: nodes that never receive gradient
/// mass (or whose gradient was consumed during the sweep) report zeros of
/// the right shape on demand.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
    shapes: Vec<(usize, usize)>,
}

impl Gradients {
    /// Gradient with respect to `v` (zeros if `v` did not influence the
    /// differentiated scalar). Note: gradients of *interior* nodes are
    /// consumed by the reverse sweep; only leaves retain theirs.
    pub fn wrt(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
            Some(m) => m.clone(),
            None => Matrix::zeros(self.shapes[v.0].0, self.shapes[v.0].1),
        }
    }

    /// Move the gradient out (avoids a clone when collecting param grads).
    pub fn take(&mut self, v: Var) -> Matrix {
        match self.grads[v.0].take() {
            Some(m) => m,
            None => Matrix::zeros(self.shapes[v.0].0, self.shapes[v.0].1),
        }
    }
}

/// The autodiff tape. See module docs.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    sparse: Vec<Arc<SparseMatrix>>,
}

thread_local! {
    static SCRATCH: RefCell<Tape> = RefCell::new(Tape::new());
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clear all recorded nodes and sparse constants, retaining the node
    /// vector's capacity. Dropped node values return their buffers to the
    /// thread-local matrix pool, so the next forward pass on this thread
    /// re-uses them instead of allocating.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.sparse.clear();
    }

    /// Run `f` on this thread's recycled scratch tape (reset first). The
    /// DP-SGD per-sample loop uses this so repeated forward/backward passes
    /// on a pool worker stop paying a tape allocation per sample. Re-entrant
    /// calls fall back to a fresh tape rather than aliasing the scratch.
    pub fn with_scratch<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut tape) => {
                tape.reset();
                f(&mut tape)
            }
            Err(_) => f(&mut Tape::new()),
        })
    }

    /// Number of recorded nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Register a parameter matrix. Gradients flow *to* leaves but not
    /// through them.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Register an input that receives no gradient (the node features).
    /// A product with a constant left operand skips its `dA`, and
    /// [`Gradients::wrt`] reports zeros for it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Const, value)
    }

    /// Register a sparse constant for use with [`Self::spmm`]. Takes an
    /// `Arc` so repeated forward passes over the same graph share one copy.
    pub fn sparse_const(&mut self, m: impl Into<Arc<SparseMatrix>>) -> usize {
        self.sparse.push(m.into());
        self.sparse.len() - 1
    }

    /// `a × b`. Backward: `dA += dC·Bᵀ` (skipped for a constant `a`),
    /// `dB += Aᵀ·dC` ([`Matrix::matmul_tn`], no transposed copy of `A`).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(Op::Sub(a, b), v)
    }

    /// Hadamard product (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(Op::Mul(a, b), v)
    }

    /// `(n×d) + (1×d)` row-broadcast add (bias). Backward sums `d` over rows
    /// for the bias operand.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let am = self.value(a);
        let bm = self.value(bias);
        assert_eq!(bm.rows(), 1, "bias must be a row vector");
        assert_eq!(am.cols(), bm.cols(), "bias width mismatch");
        let mut out = am.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (j, x) in row.iter_mut().enumerate() {
                *x += bm.get(0, j);
            }
        }
        self.push(Op::AddRowBroadcast(a, bias), out)
    }

    /// `c · a` for a scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).scale(c);
        self.push(Op::Scale(a, c), v)
    }

    /// `a + c` elementwise for a scalar constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddScalar(a), v)
    }

    /// Hidden-layer activation `max(a + bias, 0)`, `bias` a `1×d` row
    /// ([`Matrix::bias_relu`]): the bits of [`Self::add_row_broadcast`]
    /// followed by a ReLU, in one op. Backward: the mask comes from the
    /// stored output (`y > 0` exactly where `a + bias > 0`, NaN included),
    /// and the bias gradient sums the masked rows in row order in the same
    /// pass.
    pub fn bias_relu(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).bias_relu(self.value(bias));
        self.push(Op::BiasRelu(a, bias), v)
    }

    /// Leaky ReLU with negative slope `alpha` (GAT/GRAT attention scores).
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        let v = self.value(a).map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(Op::LeakyRelu(a, alpha), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::exp);
        self.push(Op::Exp(a), v)
    }

    /// Clamp to `[0, 1]` — the paper's probability map φ in Theorem 2.
    /// Subgradient: identity strictly inside, zero outside.
    pub fn clamp01(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.clamp(0.0, 1.0));
        self.push(Op::Clamp01(a), v)
    }

    /// `1 - a` elementwise (the "stays inactive" probabilities of Eq. 4).
    pub fn one_minus(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 - x);
        self.push(Op::OneMinus(a), v)
    }

    /// Sum of all entries → `1×1`.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(Op::Sum(a), v)
    }

    /// Mean of all entries → `1×1`.
    pub fn mean(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let n = (m.rows() * m.cols()).max(1) as f64;
        let v = Matrix::from_vec(1, 1, vec![m.sum() / n]);
        self.push(Op::Mean(a), v)
    }

    /// Horizontal concat `[a | b]` (GraphSAGE).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Sparse × dense product `S · h` where `S` is a registered sparse
    /// constant. Backward: `dH += Sᵀ · d`.
    pub fn spmm(&mut self, sparse_id: usize, h: Var) -> Var {
        let v = self.sparse[sparse_id].spmm(self.value(h));
        self.push(Op::Spmm(sparse_id, h), v)
    }

    /// Row gather: `out[i] = a[idx[i]]` (GIN lifts its `1×1` ε to one row
    /// per node). Backward scatter-adds into the source rows.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<u32>>) -> Var {
        let am = self.value(a);
        let mut out = Matrix::zeros(idx.len(), am.cols());
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(am.row(r as usize));
        }
        self.push(Op::GatherRows(a, idx), out)
    }

    /// Broadcast a column vector across columns: `out[i][j] = c[i] · a[i][j]`
    /// (GIN's `(1 + ε)·h`).
    pub fn mul_col_broadcast(&mut self, c: Var, a: Var) -> Var {
        let cm = self.value(c);
        let am = self.value(a);
        assert_eq!(cm.cols(), 1, "coefficient must be a column vector");
        assert_eq!(cm.rows(), am.rows(), "row mismatch");
        let mut out = am.clone();
        for r in 0..out.rows() {
            let cv = cm.get(r, 0);
            for x in out.row_mut(r) {
                *x *= cv;
            }
        }
        self.push(Op::MulColBroadcast(c, a), out)
    }

    /// One GAT/GRAT attention aggregation over `arcs`
    /// ([`attention::attend`]: coefficients from the per-node scores
    /// `hw·a_dst` and `hw·a_src`, normalised per target if `by_dst`, else
    /// per source). The backward repeats the arithmetic of the gather →
    /// contract → softmax → scatter chain this op replaced, so gradients
    /// keep their bits (DESIGN.md §10.5).
    pub fn attend(
        &mut self,
        hw: Var,
        a_dst: Var,
        a_src: Var,
        arcs: Arc<attention::Arcs>,
        by_dst: bool,
    ) -> Var {
        let (value, saved) = attention::forward(
            self.value(hw),
            self.value(a_dst),
            self.value(a_src),
            arcs,
            by_dst,
        );
        self.push(Op::Attend([hw, a_dst, a_src], saved), value)
    }

    /// Reverse sweep from `loss` (must be `1×1`). Returns gradients for all
    /// nodes; fetch the ones you registered as parameters.
    pub fn backward(&self, loss: Var) -> Gradients {
        let lm = self.value(loss);
        assert_eq!(lm.shape(), (1, 1), "backward needs a scalar loss");
        let shapes: Vec<(usize, usize)> = self.nodes.iter().map(|n| n.value.shape()).collect();
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        // Accumulate `delta` into `grads[target]`, reusing `delta`'s
        // allocation when the slot is empty.
        fn acc(grads: &mut [Option<Matrix>], target: usize, delta: Matrix) {
            match &mut grads[target] {
                Some(g) => g.add_assign(&delta),
                slot @ None => *slot = Some(delta),
            }
        }
        fn acc_scaled(grads: &mut [Option<Matrix>], target: usize, delta: &Matrix, c: f64) {
            match &mut grads[target] {
                Some(g) => g.add_scaled_assign(delta, c),
                slot @ None => *slot = Some(delta.scale(c)),
            }
        }

        for id in (0..=loss.0).rev() {
            // Interior gradients are consumed (moved out); leaves keep
            // theirs for the caller. A constant's is taken and dropped.
            let is_leaf = matches!(self.nodes[id].op, Op::Leaf);
            let Some(d) = (if is_leaf { None } else { grads[id].take() }) else {
                continue;
            };
            match &self.nodes[id].op {
                Op::Leaf | Op::Const => {}
                Op::MatMul(a, b) => {
                    if !matches!(self.nodes[a.0].op, Op::Const) {
                        let da = d.matmul(&self.value(*b).transpose());
                        acc(&mut grads, a.0, da);
                    }
                    let db = self.value(*a).matmul_tn(&d);
                    acc(&mut grads, b.0, db);
                }
                Op::Add(a, b) => {
                    acc_scaled(&mut grads, b.0, &d, 1.0);
                    acc(&mut grads, a.0, d);
                }
                Op::Sub(a, b) => {
                    acc_scaled(&mut grads, b.0, &d, -1.0);
                    acc(&mut grads, a.0, d);
                }
                Op::Mul(a, b) => {
                    let da = d.hadamard(self.value(*b));
                    let db = d.hadamard(self.value(*a));
                    acc(&mut grads, a.0, da);
                    acc(&mut grads, b.0, db);
                }
                Op::AddRowBroadcast(a, bias) => {
                    let mut bsum = Matrix::zeros(1, d.cols());
                    for r in 0..d.rows() {
                        for j in 0..d.cols() {
                            bsum.set(0, j, bsum.get(0, j) + d.get(r, j));
                        }
                    }
                    acc(&mut grads, bias.0, bsum);
                    acc(&mut grads, a.0, d);
                }
                Op::BiasRelu(a, bias) => {
                    let mut da = d;
                    let mut bsum = Matrix::zeros(1, da.cols());
                    let y = &self.nodes[id].value;
                    for r in 0..da.rows() {
                        let rows = da.row_mut(r).iter_mut().zip(y.row(r));
                        for ((g, &yv), b) in rows.zip(bsum.data_mut()) {
                            *g = if yv > 0.0 { *g } else { 0.0 };
                            *b += *g;
                        }
                    }
                    acc(&mut grads, bias.0, bsum);
                    acc(&mut grads, a.0, da);
                }
                Op::Scale(a, c) => acc_scaled(&mut grads, a.0, &d, *c),
                Op::AddScalar(a) => acc(&mut grads, a.0, d),
                Op::LeakyRelu(a, alpha) => {
                    let al = *alpha;
                    let da = self
                        .value(*a)
                        .zip(&d, |x, g| if x > 0.0 { g } else { al * g });
                    acc(&mut grads, a.0, da);
                }
                Op::Sigmoid(a) => {
                    let da = self.nodes[id].value.zip(&d, |y, g| g * y * (1.0 - y));
                    acc(&mut grads, a.0, da);
                }
                Op::Tanh(a) => {
                    let da = self.nodes[id].value.zip(&d, |y, g| g * (1.0 - y * y));
                    acc(&mut grads, a.0, da);
                }
                Op::Exp(a) => {
                    let da = self.nodes[id].value.hadamard(&d);
                    acc(&mut grads, a.0, da);
                }
                Op::Clamp01(a) => {
                    let da = self
                        .value(*a)
                        .zip(&d, |x, g| if x > 0.0 && x < 1.0 { g } else { 0.0 });
                    acc(&mut grads, a.0, da);
                }
                Op::OneMinus(a) => acc_scaled(&mut grads, a.0, &d, -1.0),
                Op::Sum(a) => {
                    let g = d.get(0, 0);
                    let (r, c) = self.value(*a).shape();
                    acc(&mut grads, a.0, Matrix::full(r, c, g));
                }
                Op::Mean(a) => {
                    let (r, c) = self.value(*a).shape();
                    let g = d.get(0, 0) / ((r * c).max(1) as f64);
                    acc(&mut grads, a.0, Matrix::full(r, c, g));
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.value(*a).cols();
                    let mut da = Matrix::zeros(d.rows(), ac);
                    let mut db = Matrix::zeros(d.rows(), d.cols() - ac);
                    for r in 0..d.rows() {
                        da.row_mut(r).copy_from_slice(&d.row(r)[..ac]);
                        db.row_mut(r).copy_from_slice(&d.row(r)[ac..]);
                    }
                    acc(&mut grads, a.0, da);
                    acc(&mut grads, b.0, db);
                }
                Op::Spmm(sid, h) => {
                    let dh = self.sparse[*sid].spmm_transpose(&d);
                    acc(&mut grads, h.0, dh);
                }
                Op::GatherRows(a, idx) => {
                    let (r, c) = self.value(*a).shape();
                    let mut da = match grads[a.0].take() {
                        Some(m) => m,
                        None => Matrix::zeros(r, c),
                    };
                    for (i, &row) in idx.iter().enumerate() {
                        let dst = da.row_mut(row as usize);
                        let src = d.row(i);
                        for j in 0..src.len() {
                            dst[j] += src[j];
                        }
                    }
                    grads[a.0] = Some(da);
                }
                Op::MulColBroadcast(c, a) => {
                    let cm = self.value(*c);
                    let am = self.value(*a);
                    let mut dc = Matrix::zeros(cm.rows(), 1);
                    for i in 0..am.rows() {
                        let mut s = 0.0;
                        for j in 0..am.cols() {
                            s += d.get(i, j) * am.get(i, j);
                        }
                        dc.set(i, 0, s);
                    }
                    acc(&mut grads, c.0, dc);
                    let mut da = d;
                    for i in 0..da.rows() {
                        let cv = cm.get(i, 0);
                        for x in da.row_mut(i) {
                            *x *= cv;
                        }
                    }
                    acc(&mut grads, a.0, da);
                }
                Op::Attend([hw, a_dst, a_src], saved) => {
                    let (hwm, ad, asrc) = (self.value(*hw), self.value(*a_dst), self.value(*a_src));
                    let mut dhw = grads[hw.0]
                        .take()
                        .unwrap_or_else(|| Matrix::zeros(hwm.rows(), hwm.cols()));
                    let (da_dst, da_src) =
                        attention::attend_backward(&d, saved, hwm, ad, asrc, &mut dhw);
                    grads[hw.0] = Some(dhw);
                    acc(&mut grads, a_dst.0, da_dst);
                    acc(&mut grads, a_src.0, da_src);
                }
            }
        }
        Gradients { grads, shapes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A×B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0], &[4.0]]));
        let c = t.matmul(a, b);
        let l = t.sum(c);
        let g = t.backward(l);
        assert_eq!(g.wrt(a).data(), &[3.0, 4.0]);
        assert_eq!(g.wrt(b).data(), &[1.0, 2.0]);
    }

    #[test]
    fn constant_input_keeps_parameter_gradients_and_gets_none() {
        // sum(sigmoid(relu(x·W1 + b1)·W2)) with x as a leaf, then as a constant
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[0.0, 1.5, -0.5], &[1.0, 0.0, 0.25]]);
        let w1 = Matrix::from_rows(&[
            &[0.3, -0.2, 0.1, 0.7],
            &[-0.4, 0.9, 0.0, 0.2],
            &[0.6, 0.1, -0.8, 0.5],
        ]);
        let b1 = Matrix::from_rows(&[&[0.1, -0.3, 0.0, 0.2]]);
        let w2 = Matrix::from_rows(&[&[0.5], &[-1.0], &[0.25], &[2.0]]);
        let run = |constant: bool| {
            let mut t = Tape::new();
            let xv = if constant {
                t.constant(x.clone())
            } else {
                t.leaf(x.clone())
            };
            let (p1, p2) = (t.leaf(w1.clone()), t.leaf(w2.clone()));
            let h = t.matmul(xv, p1);
            let bias = t.leaf(b1.clone());
            let h = t.bias_relu(h, bias);
            let o = t.matmul(h, p2);
            let o = t.sigmoid(o);
            let l = t.sum(o);
            let g = t.backward(l);
            (g.wrt(p1), g.wrt(p2), g.wrt(xv))
        };
        let (w1_leaf, w2_leaf, x_leaf) = run(false);
        let (w1_const, w2_const, x_const) = run(true);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w1_leaf), bits(&w1_const));
        assert_eq!(bits(&w2_leaf), bits(&w2_const));
        assert!(
            x_leaf.data().iter().any(|&v| v != 0.0),
            "a leaf input gets its gradient"
        );
        assert_eq!(x_const, Matrix::zeros(3, 3), "a constant gets none");
    }

    #[test]
    fn bias_relu_matches_the_bias_add_then_relu_chain_bitwise() {
        let sp = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.0, 5e-324];
        // every (x, b) pair of specials, so x + b covers NaN, ±0.0 and ±inf
        let (rows, cols) = (sp.len(), sp.len());
        let x = Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| sp[i / cols]).collect());
        let b = Matrix::from_vec(1, cols, sp.to_vec());
        let up: Vec<f64> = (0..rows * cols).map(|i| [0.5, -0.0, 2.0, 0.0, -1.25][i % 5]).collect();
        let up = Matrix::from_vec(rows, cols, up);
        let mut t = Tape::new();
        let (xv, bv) = (t.leaf(x.clone()), t.leaf(b.clone()));
        let y = t.bias_relu(xv, bv);
        let w = t.constant(up.clone());
        let weighted = t.mul(y, w);
        let l = t.sum(weighted);
        let g = t.backward(l);
        // the chain: add_row_broadcast's value, relu's map, relu's masked
        // backward, then the broadcast's row-ordered bias sum
        let mut pre = x.clone();
        for r in 0..rows {
            for (v, &bj) in pre.row_mut(r).iter_mut().zip(b.data()) {
                *v += bj;
            }
        }
        let want_y = pre.map(|v| v.max(0.0));
        let want_dx = pre.zip(&up, |v, gv| if v > 0.0 { gv } else { 0.0 });
        let mut want_db = Matrix::zeros(1, cols);
        for r in 0..rows {
            for j in 0..cols {
                want_db.set(0, j, want_db.get(0, j) + want_dx.get(r, j));
            }
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t.value(y)), bits(&want_y), "forward");
        assert_eq!(bits(&x.bias_relu(&b)), bits(&want_y), "Matrix::bias_relu");
        assert_eq!(bits(&g.wrt(xv)), bits(&want_dx), "input gradient");
        assert_eq!(bits(&g.wrt(bv)), bits(&want_db), "bias gradient");
    }

    #[test]
    fn sigmoid_gradient_at_zero_is_quarter() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.0]]));
        let s = t.sigmoid(x);
        let l = t.sum(s);
        let g = t.backward(l);
        assert!((g.wrt(x).get(0, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clamp01_blocks_gradient_outside() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[-0.5, 0.5, 1.5]]));
        let c = t.clamp01(x);
        let l = t.sum(c);
        let g = t.backward(l);
        assert_eq!(g.wrt(x).data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn fanout_accumulates() {
        // loss = sum(x + x) → dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let y = t.add(x, x);
        let l = t.sum(y);
        let g = t.backward(l);
        assert_eq!(g.wrt(x).get(0, 0), 2.0);
    }

    #[test]
    fn spmm_backward_is_transpose_product() {
        let mut t = Tape::new();
        let s = SparseMatrix::from_triplets(2, 3, [(0, 1, 2.0), (1, 2, 3.0)]);
        let sid = t.sparse_const(s.clone());
        let h = t.leaf(Matrix::full(3, 1, 1.0));
        let out = t.spmm(sid, h);
        let l = t.sum(out);
        let g = t.backward(l);
        let expect = s.spmm_transpose(&Matrix::full(2, 1, 1.0));
        assert_eq!(g.wrt(h), expect);
    }

    #[test]
    fn gather_rows_backward_scatter_adds() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let idx = Arc::new(vec![0u32, 0, 2]);
        let gth = t.gather_rows(x, idx.clone());
        let l = t.sum(gth);
        let g = t.backward(l);
        // row 0 gathered twice, row 1 never, row 2 once
        assert_eq!(g.wrt(x).data(), &[2.0, 0.0, 1.0]);
    }

    #[test]
    fn scalar_chain() {
        // loss = mean(2x + 3)
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 5.0]]));
        let y = t.scale(x, 2.0);
        let z = t.add_scalar(y, 3.0);
        let l = t.mean(z);
        assert_eq!(t.value(l).get(0, 0), (5.0 + 13.0) / 2.0);
        let g = t.backward(l);
        assert_eq!(g.wrt(x).data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_on_non_scalar_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        t.backward(x);
    }

    #[test]
    fn scratch_tape_is_reset_between_uses() {
        let n1 = Tape::with_scratch(|t| {
            let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
            let y = t.add_scalar(x, 1.0);
            let l = t.sum(y);
            let g = t.backward(l);
            assert_eq!(g.wrt(x).data(), &[1.0, 1.0]);
            t.len()
        });
        let n2 = Tape::with_scratch(|t| {
            assert!(t.is_empty(), "scratch must be reset");
            let x = t.leaf(Matrix::from_rows(&[&[3.0]]));
            let l = t.sum(x);
            let g = t.backward(l);
            assert_eq!(g.wrt(x).get(0, 0), 1.0);
            t.len()
        });
        assert_eq!(n1, 3);
        assert_eq!(n2, 2);
        // re-entrant use falls back to a fresh tape instead of panicking
        Tape::with_scratch(|outer| {
            let x = outer.leaf(Matrix::from_rows(&[&[1.0]]));
            Tape::with_scratch(|inner| {
                assert!(inner.is_empty());
                let y = inner.leaf(Matrix::from_rows(&[&[2.0]]));
                assert_eq!(inner.value(y).get(0, 0), 2.0);
            });
            assert_eq!(outer.value(x).get(0, 0), 1.0);
        });
    }

    #[test]
    fn one_minus_and_mul_compose() {
        // Π(1 - p) loss core: d/dp [ (1-p0)(1-p1) ]
        let mut t = Tape::new();
        let p = t.leaf(Matrix::col_vector(&[0.2, 0.4]));
        let q = t.one_minus(p);
        // product of the two entries via gather + mul
        let i0 = t.gather_rows(q, Arc::new(vec![0u32]));
        let i1 = t.gather_rows(q, Arc::new(vec![1u32]));
        let prod = t.mul(i0, i1);
        let l = t.sum(prod);
        let g = t.backward(l);
        // d/dp0 = -(1-p1) = -0.6; d/dp1 = -(1-p0) = -0.8
        assert!((g.wrt(p).get(0, 0) + 0.6).abs() < 1e-12);
        assert!((g.wrt(p).get(1, 0) + 0.8).abs() < 1e-12);
    }
}
