//! Maximum Cut under node-level DP — the §VI generality claim, made
//! concrete.
//!
//! The paper argues PrivIM is "a general framework" because IM is just one
//! combinatorial problem: swapping the probabilistic penalty loss swaps the
//! problem. This module does exactly that for Max-Cut (the flagship task of
//! the EGN line of work): the GNN emits a per-node probability `p_v` of
//! being on side 1, and the differentiable expected cut
//!
//! `E[cut] = Σ_{(u,v) ∈ E} ( p_u (1 − p_v) + p_v (1 − p_u) )`
//!
//! is maximised (we minimise its negation). Sampling, accounting and
//! DP-SGD are reused verbatim — only the loss changes: [`train_maxcut`]
//! hands [`maxcut_loss`] to the trainer's one DP-SGD loop
//! ([`train_dpgnn_with`]), so `cfg.loss` (the IM loss settings) is unused
//! here, and the noise kind, tail averaging, weight decay, fault plan and
//! divergence sentinel of [`DpSgdConfig`] all apply.

use crate::trainer::{train_dpgnn_with, DpSgdConfig, TrainItem};
use privim_gnn::{GnnModel, GraphTensors};
use privim_graph::Graph;
use privim_rt::PrivimResult;
use privim_tensor::{Tape, Var};

/// Differentiable negative expected cut plus a mild balance penalty
/// `λ (Σp − n/2)²/n` that discourages the trivial all-one/all-zero
/// solutions early in training.
pub fn maxcut_loss(tape: &mut Tape, gt: &GraphTensors, probs: Var, lambda: f64) -> Var {
    // E[cut] = Σ_arcs p_u + p_v − 2 p_u p_v over undirected edges; with the
    // arc-level in-adjacency (each undirected edge = 2 arcs) the sum double
    // counts, which only rescales the objective.
    // Σ_{(v,u) arcs} p_v (1 − p_u) = pᵀ A_ic (1 − p) computed via spmm.
    let adj = tape.sparse_const(gt.adj_ic().clone());
    let one_minus_p = tape.one_minus(probs);
    let agg = tape.spmm(adj, one_minus_p); // row u: Σ_in w (1 - p_v) ... per-arc
    let cut_terms = tape.mul(probs, agg);
    let cut = tape.sum(cut_terms);
    let neg_cut = tape.scale(cut, -1.0);

    // balance penalty
    let total_p = tape.sum(probs);
    let half_n = gt.n as f64 / 2.0;
    let centered = tape.add_scalar(total_p, -half_n);
    let sq = tape.mul(centered, centered);
    let penalty = tape.scale(sq, lambda / gt.n.max(1) as f64);
    tape.add(neg_cut, penalty)
}

/// Deterministic cut value of a binary assignment.
pub fn cut_value(g: &Graph, side: &[bool]) -> usize {
    assert_eq!(side.len(), g.num_nodes());
    let raw = g
        .arcs()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .count();
    if g.is_directed() {
        raw
    } else {
        raw / 2
    }
}

/// Round model probabilities to a partition (threshold 0.5).
pub fn round_partition(scores: &[f64]) -> Vec<bool> {
    scores.iter().map(|&p| p >= 0.5).collect()
}

/// Round at the score *median*, guaranteeing a balanced partition. On
/// node-symmetric instances (e.g. Erdős–Rényi graphs) a GNN with purely
/// structural features cannot break symmetry and scores collapse to a
/// constant — the known limitation EGN works around with random node
/// features; median rounding at least recovers the random-balanced-cut
/// baseline there while preserving any structure the scores do carry.
pub fn round_partition_balanced(scores: &[f64]) -> Vec<bool> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut side = vec![false; scores.len()];
    for &i in idx.iter().skip(scores.len() / 2) {
        side[i] = true;
    }
    side
}

/// Greedy local-search baseline: flip any node that improves the cut until
/// a local optimum (classic 1/2-approximation behaviour in practice).
pub fn greedy_local_cut(g: &Graph, start: &[bool]) -> Vec<bool> {
    let mut side = start.to_vec();
    let mut improved = true;
    let mut guard = 0;
    while improved && guard < 50 {
        improved = false;
        guard += 1;
        for v in g.nodes() {
            let mut same = 0i64;
            let mut diff = 0i64;
            for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if side[u as usize] == side[v as usize] {
                    same += 1;
                } else {
                    diff += 1;
                }
            }
            if same > diff {
                side[v as usize] = !side[v as usize];
                improved = true;
            }
        }
    }
    side
}

/// Train a (optionally DP) GNN for Max-Cut on a subgraph container and
/// return the rounded partition of the full graph.
///
/// Errors as [`train_dpgnn_with`]; on `Err` the privacy spend of every
/// attempted step has still been incurred.
pub fn train_maxcut(
    model: &mut GnnModel,
    items: &[TrainItem],
    g: &Graph,
    cfg: &DpSgdConfig,
    lambda: f64,
) -> PrivimResult<Vec<bool>> {
    train_dpgnn_with(model, items, cfg, |t, gt, p| maxcut_loss(t, gt, p, lambda))?;
    Ok(round_partition_balanced(&model.score_graph(g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossConfig;
    use crate::trainer::NoiseKind;
    use privim_gnn::{GnnConfig, GnnKind};
    use privim_graph::{generators, induced_subgraph, GraphBuilder};
    use privim_rt::fault::{FaultPlan, FaultPoint};
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;
    use privim_sampling::{freq_sampling, FreqConfig};
    use privim_tensor::Matrix;

    #[test]
    fn cut_value_counts_crossing_edges() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 0, 1.0);
        let g = b.build();
        // alternate sides on the 4-cycle: perfect cut of 4
        assert_eq!(cut_value(&g, &[true, false, true, false]), 4);
        assert_eq!(cut_value(&g, &[true, true, false, false]), 2);
        assert_eq!(cut_value(&g, &[true, true, true, true]), 0);
    }

    #[test]
    fn maxcut_loss_prefers_balanced_cuts() {
        // 2-node graph: p = (1, 0) has cut 1; p = (1, 1) has cut 0.
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 1, 1.0);
        let gt = privim_gnn::GraphTensors::new(&b.build());
        let eval = |p: &[f64]| {
            let mut t = Tape::new();
            let pv = t.leaf(Matrix::col_vector(p));
            let l = maxcut_loss(&mut t, &gt, pv, 0.0);
            t.value(l).get(0, 0)
        };
        assert!(eval(&[1.0, 0.0]) < eval(&[1.0, 1.0]));
        assert!(eval(&[1.0, 0.0]) < eval(&[0.0, 0.0]));
    }

    #[test]
    fn maxcut_loss_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::barabasi_albert(8, 2, &mut rng);
        let gt = privim_gnn::GraphTensors::new(&g);
        let p = Matrix::col_vector(&[0.3, 0.6, 0.2, 0.8, 0.5, 0.4, 0.7, 0.1]);
        privim_tensor::gradcheck::assert_gradients_match(&[p], 1e-5, move |t, v| {
            maxcut_loss(t, &gt, v[0], 0.5)
        });
    }

    #[test]
    fn balanced_rounding_splits_in_half() {
        let side = round_partition_balanced(&[0.9, 0.1, 0.5, 0.2, 0.8, 0.3]);
        assert_eq!(side.iter().filter(|&&x| x).count(), 3);
        assert!(side[0] && side[4]); // highest scores on side 1
        assert!(!side[1] && !side[3]);
        // constant scores still give a balanced split
        let flat = round_partition_balanced(&[0.5; 10]);
        assert_eq!(flat.iter().filter(|&&x| x).count(), 5);
    }

    #[test]
    fn greedy_local_search_improves() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::erdos_renyi(60, 200, false, &mut rng);
        let all_one = vec![true; 60];
        let improved = greedy_local_cut(&g, &all_one);
        assert!(cut_value(&g, &improved) > cut_value(&g, &all_one));
        // local optimum: at least half the edges cut (classic guarantee)
        assert!(cut_value(&g, &improved) * 2 >= g.num_edges());
    }

    #[test]
    fn dp_trained_gnn_beats_trivial_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::erdos_renyi(150, 450, false, &mut rng);
        let mut freq = vec![0u32; g.num_nodes()];
        let scfg = FreqConfig {
            subgraph_size: 12,
            return_prob: 0.3,
            decay: 1.0,
            sampling_rate: 1.0,
            walk_len: 100,
            threshold: 6,
        };
        let sets = freq_sampling(&g, &mut freq, &scfg, &mut rng).unwrap();
        let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();
        let items = TrainItem::from_container(&subs);
        let mut model = GnnModel::new(
            GnnConfig {
                kind: GnnKind::Gcn,
                layers: 2,
                hidden: 8,
                in_dim: privim_gnn::FEATURE_DIM,
            },
            &mut rng,
        );
        let cfg = DpSgdConfig {
            batch: 8,
            iters: 40,
            lr: 0.1,
            clip: 1.0,
            sigma: 0.3,
            occurrence_bound: 6,
            loss: LossConfig::paper_default(), // unused by the maxcut loop
            noise: NoiseKind::Gaussian,
            seed: 4,
            tail_average: false,
            weight_decay: 0.0,
            max_recoveries: 8,
            fault: None,
        };
        let side = train_maxcut(&mut model, &items, &g, &cfg, 0.5).unwrap();
        let trained_cut = cut_value(&g, &side);
        let trivial_cut = cut_value(&g, &vec![true; g.num_nodes()]);
        assert!(
            trained_cut > trivial_cut,
            "trained {trained_cut} vs trivial {trivial_cut}"
        );
    }

    #[test]
    fn poisoned_container_is_absorbed_by_the_sentinel() {
        // NaN features in a few items: every batch that draws one has a
        // non-finite gradient, which the trainer's sentinel must discard
        // rather than step into the parameters.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::erdos_renyi(150, 450, false, &mut rng);
        let mut freq = vec![0u32; g.num_nodes()];
        let scfg = FreqConfig {
            subgraph_size: 12,
            return_prob: 0.3,
            decay: 1.0,
            sampling_rate: 1.0,
            walk_len: 100,
            threshold: 6,
        };
        let sets = freq_sampling(&g, &mut freq, &scfg, &mut rng).unwrap();
        let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();
        let plan = FaultPlan::new(5, &[FaultPoint::PoisonedSubgraph], 0.05);
        let items = TrainItem::from_container_with_fault(&subs, Some(plan));
        assert!(items.iter().any(|i| i.x.has_non_finite()), "nothing poisoned");
        let config = GnnConfig {
            kind: GnnKind::Gcn,
            layers: 2,
            hidden: 8,
            in_dim: privim_gnn::FEATURE_DIM,
        };
        let mut model = GnnModel::new(config, &mut rng);
        let cfg = DpSgdConfig {
            batch: 8,
            iters: 40,
            lr: 0.1,
            seed: 4,
            max_recoveries: 40,
            ..DpSgdConfig::paper_default(0.3, 6)
        };
        let side = train_maxcut(&mut model, &items, &g, &cfg, 0.5).unwrap();
        assert_eq!(side.len(), g.num_nodes());
        assert!(model.params().iter().all(|p| !p.has_non_finite()));
    }
}
