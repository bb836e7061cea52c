//! The probabilistic penalty IM loss of Eq. 5.
//!
//! Given the model's seed probabilities `p = σ(GNN(G)) ∈ [0,1]^n`, the
//! diffusion upper bound of Theorem 2 estimates the probability that node
//! `u` is influenced at step `i` as
//!
//! `p̂_i(u) = φ( Σ_{v ∈ N⁻(u) ∪ {u}} w_vu · H^{(i-1)}_v )`,  `H^{(0)} = p`,
//!
//! with `φ = clamp₀₁` (the self-term makes a seed count itself as
//! influenced, matching the evaluation's `|S ∪ N⁺(S)|` coverage). The loss
//! is then
//!
//! `L(G; W) = Σ_u Π_{i=1}^{j} (1 − p̂_i(u))  +  λ Σ_u p_u`,
//!
//! i.e. minimise the probability that nodes stay inactive, regularised by
//! the expected seed-set size (Erdős-goes-neural style cardinality
//! penalty).

use privim_gnn::GraphTensors;
use privim_tensor::{Tape, Var};

/// The probability map φ of Theorem 2. The theorem only requires φ to map
/// the aggregated mass into `[0, 1]`; two implementations are provided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhiKind {
    /// Hard `clamp₀₁` — the literal reading of Eq. 3. Exact at binary
    /// seed vectors but gradient-dead once the mass exceeds 1.
    Clamp,
    /// Smooth `1 − e^{−x}` — first-order identical to the exact
    /// `1 − Π(1 − w·p)` (both equal `x − O(x²)`), never saturates, so the
    /// hub-seeking gradient survives early training. Default.
    ExpSaturate,
}

/// Loss hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct LossConfig {
    /// Diffusion steps `j ≤ r` (the paper's evaluation uses `j = 1`).
    pub steps: usize,
    /// Cardinality-penalty weight `λ > 0`.
    pub lambda: f64,
    /// Probability map φ.
    pub phi: PhiKind,
}

impl LossConfig {
    /// Paper evaluation setting: one diffusion step, smooth φ. λ is chosen
    /// so the two terms have comparable magnitude at `k ≈ 50` seeds on
    /// subgraph-sized inputs.
    pub fn paper_default() -> Self {
        LossConfig {
            steps: 1,
            lambda: 0.5,
            phi: PhiKind::ExpSaturate,
        }
    }
}

/// Build the Eq. 5 loss on `tape` from the model's probability vector
/// `probs` (`n×1`, already sigmoided). Returns the scalar loss var.
pub fn im_loss(tape: &mut Tape, gt: &GraphTensors, probs: Var, cfg: &LossConfig) -> Var {
    assert!(cfg.steps >= 1, "need at least one diffusion step");
    assert!(cfg.lambda >= 0.0, "lambda must be non-negative");
    let adj = tape.sparse_const(gt.adj_loss().clone());

    // H^{(0)} = p; inactive_prod accumulates Π_i (1 - p̂_i).
    let mut h = probs;
    let mut inactive_prod: Option<Var> = None;
    for _ in 0..cfg.steps {
        let agg = tape.spmm(adj, h);
        let p_hat = match cfg.phi {
            PhiKind::Clamp => tape.clamp01(agg),
            PhiKind::ExpSaturate => {
                let neg = tape.scale(agg, -1.0);
                let e = tape.exp(neg);
                tape.one_minus(e)
            }
        };
        let inactive = tape.one_minus(p_hat);
        inactive_prod = Some(match inactive_prod {
            None => inactive,
            Some(acc) => tape.mul(acc, inactive),
        });
        h = p_hat;
    }
    // privim-lint: allow(panic, reason = "steps >= 1 asserted at fn entry, so the loop ran and inactive_prod is Some")
    let not_influenced = tape.sum(inactive_prod.expect("steps >= 1"));
    let seed_mass = tape.sum(probs);
    let penalty = tape.scale(seed_mass, cfg.lambda);
    tape.add(not_influenced, penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_gnn::GraphTensors;
    use privim_graph::GraphBuilder;
    use privim_tensor::{gradcheck, Matrix};

    /// star: 0 -> 1, 0 -> 2 (unit weights, the evaluation setting)
    fn star() -> GraphTensors {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        GraphTensors::new(&b.build())
    }

    fn loss_value(gt: &GraphTensors, p: &[f64], cfg: &LossConfig) -> f64 {
        let mut tape = Tape::new();
        let pv = tape.leaf(Matrix::col_vector(p));
        let l = im_loss(&mut tape, gt, pv, cfg);
        tape.value(l).get(0, 0)
    }

    #[test]
    fn perfect_seed_zeroes_first_term() {
        // p = e_0 covers all three nodes: Σ(1 - p̂) = 0, only λ·1 remains.
        let gt = star();
        let cfg = LossConfig {
            steps: 1,
            lambda: 0.5,
            phi: PhiKind::Clamp,
        };
        let l = loss_value(&gt, &[1.0, 0.0, 0.0], &cfg);
        assert!((l - 0.5).abs() < 1e-12, "loss {l}");
    }

    #[test]
    fn empty_seed_costs_full_inactivity() {
        let gt = star();
        let cfg = LossConfig {
            steps: 1,
            lambda: 0.5,
            phi: PhiKind::Clamp,
        };
        let l = loss_value(&gt, &[0.0, 0.0, 0.0], &cfg);
        assert!((l - 3.0).abs() < 1e-12, "loss {l}");
    }

    #[test]
    fn hub_seed_beats_leaf_seed() {
        // Seeding the hub (covers 3 nodes) must cost less than seeding a
        // leaf (covers 1) — the signal the GNN learns from.
        let gt = star();
        let cfg = LossConfig::paper_default();
        let hub = loss_value(&gt, &[0.9, 0.05, 0.05], &cfg);
        let leaf = loss_value(&gt, &[0.05, 0.9, 0.05], &cfg);
        assert!(hub < leaf, "hub {hub} vs leaf {leaf}");
    }

    #[test]
    fn lambda_trades_off_seed_mass() {
        let gt = star();
        let lo = LossConfig {
            steps: 1,
            lambda: 0.1,
            phi: PhiKind::Clamp,
        };
        let hi = LossConfig {
            steps: 1,
            lambda: 2.0,
            phi: PhiKind::Clamp,
        };
        let p = [0.8, 0.3, 0.3];
        assert!(loss_value(&gt, &p, &lo) < loss_value(&gt, &p, &hi));
    }

    #[test]
    fn multi_step_diffusion_reaches_further() {
        // chain 0 -> 1 -> 2: with one step, seeding 0 leaves node 2
        // uninfluenced; with two steps it is reached.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let gt = GraphTensors::new(&b.build());
        let one = LossConfig {
            steps: 1,
            lambda: 0.0,
            phi: PhiKind::Clamp,
        };
        let two = LossConfig {
            steps: 2,
            lambda: 0.0,
            phi: PhiKind::Clamp,
        };
        let p = [1.0, 0.0, 0.0];
        let l1 = loss_value(&gt, &p, &one);
        let l2 = loss_value(&gt, &p, &two);
        assert!((l1 - 1.0).abs() < 1e-12, "one step: node 2 inactive, {l1}");
        assert!(l2.abs() < 1e-12, "two steps reach node 2, {l2}");
    }

    #[test]
    fn loss_gradient_matches_finite_differences() {
        let gt = star();
        let cfg = LossConfig {
            steps: 2,
            lambda: 0.7,
            phi: PhiKind::Clamp,
        };
        // keep probs strictly inside (0,1) and p̂ away from the clamp kink
        let p = Matrix::col_vector(&[0.3, 0.2, 0.1]);
        gradcheck::assert_gradients_match(&[p], 1e-5, move |t, v| im_loss(t, &gt, v[0], &cfg));
    }

    #[test]
    fn loss_is_differentiable_through_sigmoid() {
        // end-to-end shape: logits -> sigmoid -> loss
        let gt = star();
        let cfg = LossConfig::paper_default();
        let logits = Matrix::col_vector(&[0.4, -0.8, 0.1]);
        gradcheck::assert_gradients_match(&[logits], 1e-5, move |t, v| {
            let p = t.sigmoid(v[0]);
            im_loss(t, &gt, p, &cfg)
        });
    }
}
