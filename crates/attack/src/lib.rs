#![warn(missing_docs)]
//! # privim-attack
//!
//! Empirical privacy attack harness for PrivIM: measures what an actual
//! adversary extracts from trained models and served outputs, and reports
//! an empirical ε *lower* bound next to the RDP accountant's analytical
//! *upper* bound. A sound DP implementation keeps the empirical bound
//! below the accounted one — `scripts/ci.sh`'s attack canary fails the
//! build otherwise.
//!
//! Two attacks:
//!
//! - **Membership inference** ([`membership`]): IN/OUT worlds per target
//!   node, shadow-model calibration (LiRA-style z-scores), ROC inversion
//!   of the DP constraint `TPR ≤ e^ε·FPR + δ` with Hoeffding
//!   finite-sample correction.
//! - **Topology inference** ([`topology`]): edge reconstruction from
//!   embedding cosine similarity or served score similarity — structural
//!   leakage evidence reported alongside the ε comparison.
//!
//! Everything is seeded through `privim_rt`: the same config produces
//! bit-identical reports, so the CI canary is reproducible.

pub mod bound;
pub mod membership;
pub mod probe;
pub mod shadow;
pub mod topology;

pub use bound::{
    advantage_epsilon_lb, auc, best_threshold_advantage, dp_advantage_bound,
    empirical_epsilon_lb, BoundConfig,
};
pub use membership::{membership_attack, MembershipAttackConfig, MembershipReport};
pub use probe::{dense_scores, scores_from_embed_json};
pub use shadow::{calibrate, ShadowCalibration};
pub use topology::{
    topology_attack_embeddings, topology_attack_scores, TopologyAttackConfig, TopologyReport,
};

use privim::loss::LossConfig;
use privim::trainer::{train_dpgnn, DpSgdConfig, NoiseKind, TrainItem};
use privim::PrivacyEvidence;
use privim_dp::{best_epsilon, PrivacyParams};
use privim_gnn::{GnnConfig, GnnKind, GnnModel};
use privim_graph::{Graph, NodeId};
use privim_rt::{ChaCha8Rng, PrivimResult, SeedableRng};
use privim_sampling::{dual_stage_sampling, DualStageConfig, FreqConfig, SubgraphContainer};

/// Training and DP settings of the models an attack trains.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Number of target nodes attacked (one IN/OUT model pair each).
    pub targets: usize,
    /// Noise multiplier used for the private runs (0 = non-private).
    pub sigma: f64,
    /// Occurrence threshold `M` for the sampler / sensitivity.
    pub threshold: u32,
    /// Training iterations per model.
    pub iters: usize,
    /// DP-SGD batch size.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Train one attack-scale model on `g` with the config's DP-SGD settings:
/// dual-stage sampling into a container, then `cfg.iters` noisy steps.
/// Fully seeded — identical `(model_seed, train_seed)` give bit-identical
/// models. Returns the model together with the subgraph-container size the
/// run actually trained on (the `m` the accountant's subsampling ratio
/// divides by). Target, shadow and topology models all train through
/// here, so the mechanism the attacks probe is the one the accountant's ε
/// covers. Private to the crate root so the attack modules below can call
/// it while the crate's public surface stays the attacks themselves.
fn train_probe_model(
    g: &Graph,
    cfg: &AuditConfig,
    model_seed: u64,
    train_seed: u64,
) -> PrivimResult<(GnnModel, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(train_seed);
    let scfg = DualStageConfig {
        stage1: FreqConfig {
            subgraph_size: 10,
            return_prob: 0.3,
            decay: 1.0,
            sampling_rate: 1.0,
            walk_len: 80,
            threshold: cfg.threshold,
        },
        shrink: 2,
        enable_bes: true,
    };
    let out = dual_stage_sampling(g, &scfg, &mut rng)?;
    let mut container = out.container;
    if container.is_empty() {
        let all: Vec<NodeId> = g.nodes().collect();
        container = SubgraphContainer::from_node_sets(g, &[all]);
    }
    let items = TrainItem::from_container(&container.subgraphs);
    let mut model = GnnModel::new(
        GnnConfig {
            kind: GnnKind::Grat,
            layers: 2,
            hidden: 8,
            in_dim: privim_gnn::FEATURE_DIM,
        },
        &mut ChaCha8Rng::seed_from_u64(model_seed),
    );
    let tcfg = DpSgdConfig {
        batch: cfg.batch,
        iters: cfg.iters,
        lr: 0.1,
        clip: 1.0,
        sigma: cfg.sigma,
        occurrence_bound: cfg.threshold as u64,
        loss: LossConfig::paper_default(),
        noise: NoiseKind::Gaussian,
        seed: train_seed,
        tail_average: true,
        weight_decay: 0.01,
        max_recoveries: 8,
        fault: None,
    };
    train_dpgnn(&mut model, &items, &tcfg)?;
    let container_size = container.subgraphs.len();
    Ok((model, container_size))
}

/// Run the full harness — membership attack, topology attack on a trained
/// model's embeddings, and the accountant read-out — and assemble the
/// [`PrivacyEvidence`] table the canary asserts on.
///
/// The accounted ε uses the *worst case* over everything the attack
/// actually trained: the smallest subgraph container observed (largest
/// subsampling ratio). The empirical side is the membership attack's
/// confidence-adjusted lower bound; topology AUC/advantage ride along as
/// structural-leakage evidence.
// privim-lint: allow(dp-taint, reason = "adversary-side auditor: consumes raw embeddings by design to measure leakage; returns only aggregate attack statistics (AUC, epsilon lower bound), never the embeddings")
pub fn privacy_evidence(
    g: &Graph,
    cfg: &MembershipAttackConfig,
    topo: &TopologyAttackConfig,
) -> PrivimResult<PrivacyEvidence> {
    let mem = membership_attack(g, cfg)?;

    // Topology attack against a model trained on the full graph with the
    // same DP settings (a fresh seed disjoint from the attack's strides).
    let (model, topo_container) = train_probe_model(
        g,
        &cfg.train,
        cfg.train.seed + 90_000,
        cfg.train.seed + 90_001,
    )?;
    let emb = model.embed_graph(g);
    let topo_rep = topology_attack_embeddings(g, &emb, topo)?;

    let accounted = accounted_epsilon(&cfg.train, mem.min_container.min(topo_container))?;
    Ok(PrivacyEvidence {
        accounted_epsilon: accounted,
        delta: cfg.bound.delta,
        empirical_epsilon_lb: mem.epsilon_lb,
        membership_advantage: mem.advantage,
        membership_auc: mem.auc,
        topology_auc: topo_rep.auc,
        topology_advantage: topo_rep.advantage,
        shadow_models: cfg.shadows,
        attack_targets: cfg.train.targets,
        attack_seed: cfg.train.seed,
    })
}

/// The accountant's ε upper bound for the attack's training configuration,
/// at the worst-case (smallest) container size the harness observed.
/// `σ = 0` (non-private training) maps to ε = ∞.
pub fn accounted_epsilon(train: &AuditConfig, min_container: usize) -> PrivimResult<f64> {
    if train.sigma <= 0.0 {
        return Ok(f64::INFINITY);
    }
    let params = PrivacyParams {
        n_g: train.threshold as u64,
        batch: train.batch as u64,
        container: (min_container.max(1)) as u64,
        steps: train.iters as u64,
    };
    Ok(best_epsilon(train.sigma, 1e-5, &params))
}

/// Convenience wrapper for the CI canary: build a BA graph of `nodes`,
/// run canary-scale attacks, and return the evidence.
pub fn canary_evidence(nodes: usize, sigma: f64, seed: u64) -> PrivimResult<PrivacyEvidence> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(nodes, 3, &mut rng).with_uniform_weights(1.0);
    privacy_evidence(
        &g,
        &MembershipAttackConfig::canary(sigma, seed),
        &TopologyAttackConfig::canary(seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_is_consistent_and_deterministic_on_a_trained_model() {
        // The acceptance criterion in miniature: empirical lower bound
        // must not exceed the accounted upper bound, and the whole
        // harness must be bit-reproducible.
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let g = privim_graph::generators::barabasi_albert(60, 3, &mut rng)
            .with_uniform_weights(1.0);
        let cfg = MembershipAttackConfig {
            train: AuditConfig {
                targets: 2,
                sigma: 1.5,
                threshold: 4,
                iters: 4,
                batch: 4,
                seed: 13,
            },
            shadows: 1,
            bound: BoundConfig::at_delta(1e-5),
        };
        let topo = TopologyAttackConfig { pairs: 24, seed: 13 };
        let a = privacy_evidence(&g, &cfg, &topo).unwrap();
        let b = privacy_evidence(&g, &cfg, &topo).unwrap();
        assert!(a.consistent(), "empirical {} vs accounted {}", a.empirical_epsilon_lb, a.accounted_epsilon);
        assert_eq!(a.empirical_epsilon_lb.to_bits(), b.empirical_epsilon_lb.to_bits());
        assert_eq!(a.accounted_epsilon.to_bits(), b.accounted_epsilon.to_bits());
        assert_eq!(a.topology_auc.to_bits(), b.topology_auc.to_bits());
        assert!(a.accounted_epsilon.is_finite());
    }

    #[test]
    fn non_private_training_accounts_to_infinity() {
        let cfg = AuditConfig {
            targets: 2,
            sigma: 0.0,
            threshold: 4,
            iters: 4,
            batch: 4,
            seed: 1,
        };
        assert!(accounted_epsilon(&cfg, 30).unwrap().is_infinite());
    }
}
