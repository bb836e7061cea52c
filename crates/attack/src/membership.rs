//! Node membership-inference attack with shadow calibration.
//!
//! For each target node `v` the harness trains an IN model (on the full
//! graph) and an OUT model (on the graph with `v` removed), both through
//! the same DP-SGD path the accountant covers, and asks whether the
//! calibrated score at `v` separates the two worlds. The per-target
//! z-scores feed the ROC machinery in [`crate::bound`] to produce an
//! empirical ε lower bound next to the accountant's upper bound.

use crate::bound::{
    advantage_epsilon_lb, auc, best_threshold_advantage, empirical_epsilon_lb, BoundConfig,
};
use crate::shadow::calibrate;
use crate::{train_probe_model, AuditConfig};
use privim_gnn::GnnModel;
use privim_graph::{induced_subgraph, Graph, NodeId};
use privim_rt::{ChaCha8Rng, PrivimError, PrivimResult, Rng, SeedableRng};

/// Configuration of one calibrated membership-inference attack.
#[derive(Clone, Copy, Debug)]
pub struct MembershipAttackConfig {
    /// Training/DP settings shared by target and shadow models.
    pub train: AuditConfig,
    /// OUT-world shadow models per target (calibration references).
    pub shadows: usize,
    /// Statistical settings of the reported ε lower bound.
    pub bound: BoundConfig,
}

impl MembershipAttackConfig {
    /// Canary-scale attack: few targets, two shadows, short training.
    pub fn canary(sigma: f64, seed: u64) -> Self {
        MembershipAttackConfig {
            train: AuditConfig {
                targets: 4,
                sigma,
                threshold: 4,
                iters: 12,
                batch: 6,
                seed,
            },
            shadows: 2,
            bound: BoundConfig::at_delta(1e-5),
        }
    }
}

/// Outcome of a membership-inference attack.
#[derive(Clone, Debug)]
pub struct MembershipReport {
    /// Calibrated per-target statistics, IN world.
    pub in_stats: Vec<f64>,
    /// Calibrated per-target statistics, OUT world.
    pub out_stats: Vec<f64>,
    /// Attack AUC (0.5 = blind).
    pub auc: f64,
    /// Best-threshold advantage `max |TPR − FPR|`.
    pub advantage: f64,
    /// Confidence-adjusted empirical ε lower bound (max of the ROC
    /// inversion and the advantage inversion).
    pub epsilon_lb: f64,
    /// Smallest subgraph-container size observed across all trainings —
    /// the worst case for the accountant's subsampling ratio.
    pub min_container: usize,
    /// Total models trained (targets × (2 + shadows)).
    pub models_trained: usize,
}

/// Run the calibrated attack against graphs drawn from `g`. Fully
/// deterministic: all randomness flows from `cfg.train.seed` through
/// `privim_rt` RNGs.
// privim-lint: allow(dp-taint, reason = "the attack is the point: probes trained models' raw outputs to empirically lower-bound epsilon; the report holds aggregate rates and bounds only")
pub fn membership_attack(g: &Graph, cfg: &MembershipAttackConfig) -> PrivimResult<MembershipReport> {
    let t_cfg = &cfg.train;
    if t_cfg.targets < 2 {
        return Err(PrivimError::invalid("need at least two attack targets"));
    }
    if g.num_nodes() < 8 {
        return Err(PrivimError::empty("graph too small to attack (< 8 nodes)"));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(t_cfg.seed);
    let mut in_stats = Vec::with_capacity(t_cfg.targets);
    let mut out_stats = Vec::with_capacity(t_cfg.targets);
    let mut min_container = usize::MAX;
    let mut models_trained = 0usize;

    for t in 0..t_cfg.targets as u64 {
        let target: NodeId = rng.gen_range(0..g.num_nodes()) as NodeId;
        let probe = |model: &GnnModel| -> f64 { model.score_graph(g)[target as usize] };

        // OUT world: unbounded node DP — remove the node and its edges.
        let keep: Vec<NodeId> = g.nodes().filter(|&v| v != target).collect();
        let without = induced_subgraph(g, &keep);

        // Shadow calibration on the OUT world. Seed strides keep shadow,
        // IN-target and OUT-target model seeds disjoint.
        let shadow_base = t_cfg.seed + 10_000 + t * 100;
        let (cal, shadow_container) =
            calibrate(&without.graph, t_cfg, cfg.shadows, shadow_base, probe)?;
        min_container = min_container.min(shadow_container);
        models_trained += cal.count;

        let (in_model, c_in) =
            train_probe_model(g, t_cfg, t_cfg.seed + 1_000 + t, t_cfg.seed + t)?;
        let (out_model, c_out) = train_probe_model(
            &without.graph,
            t_cfg,
            t_cfg.seed + 5_000 + t,
            t_cfg.seed + 7_000 + t,
        )?;
        min_container = min_container.min(c_in.min(c_out));
        models_trained += 2;

        in_stats.push(cal.z_score(probe(&in_model)));
        out_stats.push(cal.z_score(probe(&out_model)));
    }

    let advantage = best_threshold_advantage(&in_stats, &out_stats);
    let slack = {
        // Same Hoeffding adjustment the ROC bound applies, on the pooled
        // sample size, before inverting the advantage cap.
        let n = in_stats.len().min(out_stats.len());
        let beta = (1.0 - cfg.bound.confidence).max(1e-12);
        ((2.0 / beta).ln() / (2.0 * n as f64)).sqrt()
    };
    let adv_lb = advantage_epsilon_lb((advantage - 2.0 * slack).max(0.0), cfg.bound.delta);
    let roc_lb = empirical_epsilon_lb(&in_stats, &out_stats, &cfg.bound)?;
    Ok(MembershipReport {
        auc: auc(&in_stats, &out_stats),
        advantage,
        epsilon_lb: roc_lb.max(adv_lb),
        min_container,
        models_trained,
        in_stats,
        out_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph(seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        privim_graph::generators::barabasi_albert(60, 3, &mut rng).with_uniform_weights(1.0)
    }

    fn tiny_cfg(seed: u64) -> MembershipAttackConfig {
        MembershipAttackConfig {
            train: AuditConfig {
                targets: 3,
                sigma: 1.5,
                threshold: 4,
                iters: 5,
                batch: 4,
                seed,
            },
            shadows: 1,
            bound: BoundConfig::at_delta(1e-5),
        }
    }

    #[test]
    fn attack_is_bit_deterministic() {
        let g = tiny_graph(41);
        let cfg = tiny_cfg(17);
        let a = membership_attack(&g, &cfg).unwrap();
        let b = membership_attack(&g, &cfg).unwrap();
        assert_eq!(a.in_stats, b.in_stats);
        assert_eq!(a.out_stats, b.out_stats);
        assert_eq!(a.epsilon_lb.to_bits(), b.epsilon_lb.to_bits());
        assert_eq!(a.auc.to_bits(), b.auc.to_bits());
        assert_eq!(a.models_trained, 3 * 3);
    }

    #[test]
    fn report_shape_and_ranges() {
        let g = tiny_graph(42);
        let r = membership_attack(&g, &tiny_cfg(23)).unwrap();
        assert_eq!(r.in_stats.len(), 3);
        assert_eq!(r.out_stats.len(), 3);
        assert!((0.0..=1.0).contains(&r.auc));
        assert!((0.0..=1.0).contains(&r.advantage));
        assert!(r.epsilon_lb >= 0.0 && r.epsilon_lb.is_finite());
        assert!(r.min_container >= 1);
    }

    #[test]
    fn private_training_shrinks_attack_advantage() {
        // Heavy noise must not leak more than non-private training. This
        // is a statistical statement; the small sample keeps it
        // directional rather than tight.
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let g =
            privim_graph::generators::barabasi_albert(120, 3, &mut rng).with_uniform_weights(1.0);
        let noisy = membership_attack(&g, &MembershipAttackConfig::canary(4.0, 5)).unwrap();
        let clean = membership_attack(&g, &MembershipAttackConfig::canary(0.0, 5)).unwrap();
        assert!(
            noisy.advantage <= clean.advantage + 0.35,
            "noisy {} vs clean {}",
            noisy.advantage,
            clean.advantage
        );
        assert_eq!(noisy.in_stats.len(), 4);
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let g = tiny_graph(43);
        let mut cfg = tiny_cfg(1);
        cfg.train.targets = 1;
        assert!(membership_attack(&g, &cfg).is_err());
        let small = privim_graph::Graph::empty(4, false);
        assert!(membership_attack(&small, &tiny_cfg(1)).is_err());
    }
}
