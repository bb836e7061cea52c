//! Shadow-model calibration (LiRA-style, single-sided).
//!
//! A raw score threshold conflates "this node is influential" with "this
//! node was trained on": hubs get high seed probabilities in *both*
//! worlds. Calibration fixes this by training `k` shadow models on the
//! OUT world (target removed) and normalising the observed score into a
//! z-score against the shadow distribution — the attack statistic becomes
//! "how surprising is this score if the node was NOT in training", which
//! is exactly the likelihood-ratio test LiRA approximates.

use crate::{train_probe_model, AuditConfig};
use privim_gnn::GnnModel;
use privim_graph::Graph;
use privim_rt::PrivimResult;

/// The OUT-world reference distribution for one target node.
#[derive(Clone, Copy, Debug)]
pub struct ShadowCalibration {
    /// Mean shadow score.
    pub mean: f64,
    /// Shadow score standard deviation (floored to stay usable when all
    /// shadows agree).
    pub std: f64,
    /// Shadow models trained.
    pub count: usize,
}

impl ShadowCalibration {
    /// Normalise an observed score against the shadow distribution.
    pub fn z_score(&self, observed: f64) -> f64 {
        (observed - self.mean) / self.std
    }
}

/// Train `shadows` OUT-world models on `g_out` (the graph with the target
/// already removed) and summarise the probe statistic's distribution.
/// Seeds are derived from `base_seed` per shadow index, disjoint from the
/// target-model seed space by construction (callers pass distinct strides).
/// Also returns the smallest subgraph-container size seen, for worst-case
/// accounting. `probe` maps a trained model to the attack statistic.
// privim-lint: allow(dp-taint, reason = "shadow-model calibration evaluates probes on raw model outputs to build the attacker's null distribution; only summary statistics leave this fn")
pub fn calibrate(
    g_out: &Graph,
    cfg: &AuditConfig,
    shadows: usize,
    base_seed: u64,
    probe: impl Fn(&GnnModel) -> f64,
) -> PrivimResult<(ShadowCalibration, usize)> {
    let mut scores = Vec::with_capacity(shadows.max(1));
    let mut min_container = usize::MAX;
    for s in 0..shadows.max(1) as u64 {
        let (model, container) =
            train_probe_model(g_out, cfg, base_seed + 2 * s, base_seed + 2 * s + 1)?;
        min_container = min_container.min(container);
        scores.push(probe(&model));
    }
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    // Floor the spread: with one shadow (or degenerate agreement) the
    // z-score degrades to a plain centred difference instead of dividing
    // by zero.
    let std = var.sqrt().max(1e-6);
    Ok((
        ShadowCalibration {
            mean,
            std,
            count: scores.len(),
        },
        min_container,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_score_centres_and_scales() {
        let cal = ShadowCalibration {
            mean: 0.4,
            std: 0.1,
            count: 4,
        };
        assert!((cal.z_score(0.6) - 2.0).abs() < 1e-12);
        assert!((cal.z_score(0.4)).abs() < 1e-12);
        assert!((cal.z_score(0.3) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_is_deterministic_and_reports_container() {
        let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(11);
        use privim_rt::SeedableRng as _;
        let g = privim_graph::generators::barabasi_albert(60, 3, &mut rng)
            .with_uniform_weights(1.0);
        let cfg = AuditConfig {
            targets: 2,
            sigma: 1.0,
            threshold: 4,
            iters: 4,
            batch: 4,
            seed: 9,
        };
        let probe = |m: &GnnModel| m.score_graph(&g)[3];
        let (a, ca) = calibrate(&g, &cfg, 2, 500, probe).unwrap();
        let (b, cb) = calibrate(&g, &cfg, 2, 500, probe).unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std.to_bits(), b.std.to_bits());
        assert_eq!(ca, cb);
        assert_eq!(a.count, 2);
        assert!(ca >= 1 && ca < usize::MAX);
    }
}
