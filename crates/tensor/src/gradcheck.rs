//! Finite-difference gradient verification.
//!
//! Every op's backward rule is checked against central differences:
//! `∂L/∂x ≈ (L(x+h) - L(x-h)) / 2h`. This is the correctness anchor for the
//! whole training stack — if these pass, DP-SGD sees true gradients.

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Compare analytic and numeric gradients of `f` at `inputs`.
///
/// `f` receives a fresh tape plus leaf vars for each input and must return
/// the scalar loss var. Returns the maximum absolute deviation over all
/// input coordinates.
pub fn max_gradient_error(inputs: &[Matrix], h: f64, f: impl Fn(&mut Tape, &[Var]) -> Var) -> f64 {
    // Analytic gradients.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let loss = f(&mut tape, &vars);
    let grads = tape.backward(loss);

    let eval = |perturbed: &[Matrix]| -> f64 {
        let mut t = Tape::new();
        let vs: Vec<Var> = perturbed.iter().map(|m| t.leaf(m.clone())).collect();
        let l = f(&mut t, &vs);
        t.value(l).get(0, 0)
    };

    let mut worst = 0.0f64;
    for (i, input) in inputs.iter().enumerate() {
        for idx in 0..input.data().len() {
            let mut plus = inputs.to_vec();
            plus[i].data_mut()[idx] += h;
            let mut minus = inputs.to_vec();
            minus[i].data_mut()[idx] -= h;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * h);
            let analytic = grads.wrt(vars[i]).data()[idx];
            worst = worst.max((numeric - analytic).abs());
        }
    }
    worst
}

/// Assert gradients agree within `tol`.
pub fn assert_gradients_match(inputs: &[Matrix], tol: f64, f: impl Fn(&mut Tape, &[Var]) -> Var) {
    let err = max_gradient_error(inputs, 1e-5, f);
    assert!(err < tol, "gradient mismatch: max error {err} > tol {tol}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrix;
    use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
    use std::sync::Arc;

    fn small_matrix(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-2.0f64..2.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Deterministic property harness: run `f` over `n` seeded cases.
    fn for_cases(n: u64, mut f: impl FnMut(&mut ChaCha8Rng)) {
        for case in 0..n {
            let mut rng = ChaCha8Rng::seed_from_u64(0x6AD0_0000 + case);
            f(&mut rng);
        }
    }

    #[test]
    fn matmul_sigmoid_sum_gradcheck() {
        for_cases(24, |rng| {
            let a = small_matrix(3, 2, rng);
            let b = small_matrix(2, 4, rng);
            assert_gradients_match(&[a, b], 1e-6, |t, v| {
                let c = t.matmul(v[0], v[1]);
                let s = t.sigmoid(c);
                t.sum(s)
            });
        });
    }

    #[test]
    fn elementwise_chain_gradcheck() {
        for_cases(24, |rng| {
            let a = small_matrix(2, 3, rng);
            let b = small_matrix(2, 3, rng);
            assert_gradients_match(&[a, b], 1e-6, |t, v| {
                let m = t.mul(v[0], v[1]);
                let s = t.sub(m, v[1]);
                let tt = t.tanh(s);
                t.mean(tt)
            });
        });
    }

    #[test]
    fn bias_broadcast_gradcheck() {
        for_cases(24, |rng| {
            let a = small_matrix(4, 3, rng);
            let b = small_matrix(1, 3, rng);
            assert_gradients_match(&[a, b], 1e-6, |t, v| {
                let y = t.add_row_broadcast(v[0], v[1]);
                let r = t.relu(y);
                t.sum(r)
            });
        });
    }

    #[test]
    fn leaky_relu_exp_gradcheck() {
        for_cases(24, |rng| {
            let a = small_matrix(3, 3, rng);
            // avoid kink at 0 by shifting
            let shifted = a.map(|x| if x.abs() < 0.05 { x + 0.1 } else { x });
            assert_gradients_match(&[shifted], 1e-5, |t, v| {
                let l = t.leaky_relu(v[0], 0.2);
                let e = t.exp(l);
                t.mean(e)
            });
        });
    }

    #[test]
    fn concat_gradcheck() {
        for_cases(24, |rng| {
            let a = small_matrix(3, 2, rng);
            let b = small_matrix(3, 3, rng);
            assert_gradients_match(&[a, b], 1e-6, |t, v| {
                let c = t.concat_cols(v[0], v[1]);
                let s = t.sigmoid(c);
                t.sum(s)
            });
        });
    }

    /// Finite differences of `attend` (plus GAT's `hw` skip) w.r.t. `hw`,
    /// `a_dst` and `a_src` on 5 nodes: node 4 has only its self-loop, node
    /// 0 three in-arcs and node 2 three out-arcs.
    fn attend_gradcheck(by_dst: bool) {
        let src = Arc::new(vec![0u32, 1, 2, 3, 4, 2, 2, 3, 1]);
        let dst = Arc::new(vec![0u32, 1, 2, 3, 4, 0, 1, 0, 3]);
        for_cases(24, |rng| {
            let hw = small_matrix(5, 3, rng);
            let a_dst = small_matrix(3, 1, rng);
            let a_src = small_matrix(3, 1, rng);
            let (src, dst) = (src.clone(), dst.clone());
            assert_gradients_match(&[hw, a_dst, a_src], 1e-5, move |t, v| {
                let agg = t.attend(v[0], v[1], v[2], src.clone(), dst.clone(), by_dst);
                let out = if by_dst { t.add(agg, v[0]) } else { agg };
                let y = t.tanh(out);
                t.sum(y)
            });
        });
    }

    #[test]
    fn attend_gat_gradcheck() {
        attend_gradcheck(true);
    }

    #[test]
    fn attend_grat_gradcheck() {
        attend_gradcheck(false);
    }

    #[test]
    fn mul_col_broadcast_gradcheck() {
        for_cases(24, |rng| {
            let c = small_matrix(3, 1, rng);
            let a = small_matrix(3, 4, rng);
            assert_gradients_match(&[c, a], 1e-6, |t, v| {
                let y = t.mul_col_broadcast(v[0], v[1]);
                let s = t.sigmoid(y);
                t.sum(s)
            });
        });
    }

    #[test]
    fn spmm_gradcheck() {
        for_cases(24, |rng| {
            let h = small_matrix(4, 2, rng);
            let sp = SparseMatrix::from_triplets(
                3,
                4,
                [(0, 1, 0.5), (0, 3, -1.2), (1, 0, 2.0), (2, 2, 0.7)],
            );
            assert_gradients_match(&[h], 1e-6, move |t, v| {
                let sid = t.sparse_const(sp.clone());
                let y = t.spmm(sid, v[0]);
                let s = t.tanh(y);
                t.sum(s)
            });
        });
    }

    #[test]
    fn im_loss_shape_gradcheck() {
        for_cases(24, |rng| {
            let p_raw = small_matrix(5, 1, rng);
            // The actual Eq. 5 structure: p = sigmoid(x); inactive = 1 - clamp01(A·p);
            // loss = sum(inactive) + λ sum(p)
            let sp = SparseMatrix::from_triplets(
                5,
                5,
                [
                    (0, 1, 0.3),
                    (1, 2, 0.3),
                    (2, 3, 0.3),
                    (3, 4, 0.3),
                    (4, 0, 0.3),
                    (0, 2, 0.3),
                ],
            );
            assert_gradients_match(&[p_raw], 1e-5, move |t, v| {
                let p = t.sigmoid(v[0]);
                let sid = t.sparse_const(sp.clone());
                let agg = t.spmm(sid, p);
                let phat = t.clamp01(agg);
                let inactive = t.one_minus(phat);
                let a = t.sum(inactive);
                let b = t.sum(p);
                let b_scaled = t.scale(b, 0.5);
                t.add(a, b_scaled)
            });
        });
    }

    #[test]
    fn reports_error_for_wrong_gradient() {
        // Deliberately use a function whose finite difference at the relu
        // kink differs — verifies the harness can detect discrepancies.
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        let err = max_gradient_error(&[x], 1e-5, |t, v| {
            let r = t.relu(v[0]);
            t.sum(r)
        });
        assert!(err < 1e-6, "away from the kink relu must check out: {err}");
    }
}
