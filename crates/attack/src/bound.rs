//! Empirical epsilon lower bounds from attack score distributions.
//!
//! An `(ε, δ)`-DP mechanism constrains every adversary's ROC curve:
//! `TPR ≤ e^ε · FPR + δ` and, symmetrically, `(1 − FPR) ≤ e^ε (1 − TPR) + δ`.
//! Inverting at an observed operating point yields a *lower bound* on the
//! true ε of the mechanism:
//!
//! `ε ≥ ln((TPR − δ) / FPR)`   and   `ε ≥ ln((1 − FPR − δ) / (1 − TPR))`.
//!
//! Empirical TPR/FPR estimates at small sample sizes overstate the bound,
//! so we first shrink the operating point with a two-sided Hoeffding
//! confidence interval (the standard practice in DP auditing): with `n`
//! samples, the true rate lies within `sqrt(ln(2/β)/(2n))` of the
//! empirical one with probability `1 − β`. The reported bound therefore
//! holds with the configured confidence, and degrades gracefully to 0 when
//! there is not enough data to certify anything.

use privim_rt::{PrivimError, PrivimResult};

/// Configuration for the empirical-epsilon estimator.
#[derive(Clone, Copy, Debug)]
pub struct BoundConfig {
    /// The `δ` the audited guarantee is stated at.
    pub delta: f64,
    /// Confidence of the reported lower bound (e.g. 0.95). The Hoeffding
    /// slack `sqrt(ln(2/β)/(2n))` with `β = 1 − confidence` is applied to
    /// both TPR (down) and FPR (up) before inverting the DP constraint.
    pub confidence: f64,
}

impl BoundConfig {
    /// 95%-confidence bound at the given δ.
    pub fn at_delta(delta: f64) -> Self {
        BoundConfig {
            delta,
            confidence: 0.95,
        }
    }
}

/// Hoeffding deviation for `n` Bernoulli samples at confidence `1 − β`.
fn hoeffding_slack(n: usize, confidence: f64) -> f64 {
    let beta = (1.0 - confidence).max(1e-12);
    ((2.0 / beta).ln() / (2.0 * n as f64)).sqrt()
}

/// Empirical ROC of a one-dimensional attack statistic: for every
/// threshold (each observed score), `(TPR, FPR)` of the rule
/// `score ≥ threshold` predicting "IN". Returned points are raw empirical
/// rates, unadjusted.
pub fn roc_points(in_scores: &[f64], out_scores: &[f64]) -> Vec<(f64, f64)> {
    let mut cuts: Vec<f64> = in_scores.iter().chain(out_scores).copied().collect();
    cuts.sort_by(|a, b| a.total_cmp(b));
    cuts.dedup();
    cuts.iter()
        .map(|&c| {
            let tpr =
                in_scores.iter().filter(|&&s| s >= c).count() as f64 / in_scores.len() as f64;
            let fpr =
                out_scores.iter().filter(|&&s| s >= c).count() as f64 / out_scores.len() as f64;
            (tpr, fpr)
        })
        .collect()
}

/// Area under the ROC curve via the rank statistic
/// `P(in > out) + ½ P(in = out)` — 0.5 means the attack is blind.
pub fn auc(in_scores: &[f64], out_scores: &[f64]) -> f64 {
    if in_scores.is_empty() || out_scores.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &a in in_scores {
        for &b in out_scores {
            if a > b {
                wins += 1.0;
            } else if a == b {
                wins += 0.5;
            }
        }
    }
    wins / (in_scores.len() as f64 * out_scores.len() as f64)
}

/// Confidence-adjusted empirical ε lower bound over all thresholds, in
/// both attack directions. Returns 0 when nothing can be certified (tiny
/// samples, blind attack). Errors on empty score sets.
pub fn empirical_epsilon_lb(
    in_scores: &[f64],
    out_scores: &[f64],
    cfg: &BoundConfig,
) -> PrivimResult<f64> {
    if in_scores.is_empty() || out_scores.is_empty() {
        return Err(PrivimError::empty("empirical_epsilon_lb needs scores"));
    }
    let slack_in = hoeffding_slack(in_scores.len(), cfg.confidence);
    let slack_out = hoeffding_slack(out_scores.len(), cfg.confidence);
    let mut best = 0.0f64;
    for (tpr, fpr) in roc_points(in_scores, out_scores) {
        // Conservative operating point: TPR shrunk, FPR grown.
        let tpr_lo = (tpr - slack_in).max(0.0);
        let fpr_hi = (fpr + slack_out).min(1.0);
        if fpr_hi > 0.0 && tpr_lo - cfg.delta > 0.0 {
            best = best.max(((tpr_lo - cfg.delta) / fpr_hi).ln());
        }
        // Mirror direction: the rule "score < threshold" predicting OUT.
        let tnr_lo = (1.0 - fpr - slack_out).max(0.0);
        let fnr_hi = (1.0 - tpr + slack_in).min(1.0);
        if fnr_hi > 0.0 && tnr_lo - cfg.delta > 0.0 {
            best = best.max(((tnr_lo - cfg.delta) / fnr_hi).ln());
        }
    }
    Ok(best)
}

/// Max over thresholds of |TPR − FPR| for a one-dimensional statistic.
pub fn best_threshold_advantage(in_scores: &[f64], out_scores: &[f64]) -> f64 {
    let mut cuts: Vec<f64> = in_scores.iter().chain(out_scores).copied().collect();
    cuts.sort_by(|a, b| a.total_cmp(b));
    let mut best = 0.0f64;
    for &c in &cuts {
        let tpr = in_scores.iter().filter(|&&s| s >= c).count() as f64 / in_scores.len() as f64;
        let fpr = out_scores.iter().filter(|&&s| s >= c).count() as f64 / out_scores.len() as f64;
        best = best.max((tpr - fpr).abs());
    }
    best
}

/// Theoretical cap on any attacker's advantage under `(ε, δ)`-DP:
/// `(e^ε − 1 + 2δ)/(e^ε + 1)`. [`advantage_epsilon_lb`] inverts it.
pub fn dp_advantage_bound(epsilon: f64, delta: f64) -> f64 {
    if epsilon.is_infinite() {
        return 1.0;
    }
    ((epsilon.exp() - 1.0 + 2.0 * delta) / (epsilon.exp() + 1.0)).clamp(0.0, 1.0)
}

/// ε lower bound implied by an attack advantage `adv = TPR − FPR` (already
/// confidence-adjusted by the caller): inverting the DP advantage cap
/// `adv ≤ (e^ε − 1 + 2δ)/(e^ε + 1)` gives
/// `ε ≥ ln((1 + adv − 2δ)/(1 − adv))`. Returns 0 for non-positive
/// advantage and ∞ as `adv → 1`.
pub fn advantage_epsilon_lb(advantage: f64, delta: f64) -> f64 {
    let adv = advantage.clamp(0.0, 1.0);
    if adv >= 1.0 {
        return f64::INFINITY;
    }
    let num = 1.0 + adv - 2.0 * delta;
    if num <= 1.0 - adv {
        return 0.0;
    }
    (num / (1.0 - adv)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BoundConfig {
        BoundConfig::at_delta(1e-5)
    }

    #[test]
    fn blind_attack_certifies_nothing() {
        let s: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let lb = empirical_epsilon_lb(&s, &s, &cfg()).unwrap();
        assert_eq!(lb, 0.0, "identical distributions must bound ε ≥ 0 only");
        assert!((auc(&s, &s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_separation_certifies_large_epsilon() {
        let inn: Vec<f64> = (0..400).map(|i| 10.0 + i as f64).collect();
        let out: Vec<f64> = (0..400).map(|i| -10.0 - i as f64).collect();
        let lb = empirical_epsilon_lb(&inn, &out, &cfg()).unwrap();
        // TPR_lo ≈ 1 − 0.068, FPR has no observed positives so the bound
        // comes from the Hoeffding-grown FPR ≈ 0.068: ln(0.93/0.068) ≈ 2.6.
        assert!(lb > 2.0, "separable at n=400 must certify ε > 2, got {lb}");
        assert!((auc(&inn, &out) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_samples_degrade_to_zero_not_overclaim() {
        // 4 + 4 perfectly separated scores: raw inversion would claim
        // ln(1/ε̂)-ish huge bounds; the confidence adjustment must refuse.
        let inn = [1.0, 1.1, 1.2, 1.3];
        let out = [0.0, 0.1, 0.2, 0.3];
        let lb = empirical_epsilon_lb(&inn, &out, &cfg()).unwrap();
        assert!(
            lb < 0.6,
            "n=4 cannot certify a large ε at 95% confidence, got {lb}"
        );
    }

    #[test]
    fn bound_grows_with_sample_size_at_fixed_separation() {
        let make = |n: usize| -> (Vec<f64>, Vec<f64>) {
            (
                (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect(),
                (0..n).map(|i| (i % 7) as f64 * 0.01).collect(),
            )
        };
        let (i1, o1) = make(20);
        let (i2, o2) = make(2000);
        let lb1 = empirical_epsilon_lb(&i1, &o1, &cfg()).unwrap();
        let lb2 = empirical_epsilon_lb(&i2, &o2, &cfg()).unwrap();
        assert!(lb2 > lb1, "more data must certify more: {lb1} vs {lb2}");
    }

    #[test]
    fn bound_formula() {
        assert!(dp_advantage_bound(0.0, 0.0).abs() < 1e-12);
        assert!((dp_advantage_bound(f64::INFINITY, 0.0) - 1.0).abs() < 1e-12);
        let b1 = dp_advantage_bound(1.0, 0.0);
        assert!((b1 - ((1f64.exp() - 1.0) / (1f64.exp() + 1.0))).abs() < 1e-12);
        assert!(dp_advantage_bound(1.0, 0.1) > b1);
    }

    #[test]
    fn threshold_advantage_separable_vs_identical() {
        let a = [1.0, 1.1, 1.2];
        let b = [0.0, 0.1, 0.2];
        assert_eq!(best_threshold_advantage(&a, &b), 1.0);
        assert_eq!(best_threshold_advantage(&a, &a), 0.0);
    }

    #[test]
    fn advantage_bound_inverts_the_advantage_cap() {
        assert_eq!(advantage_epsilon_lb(0.0, 0.0), 0.0);
        assert_eq!(advantage_epsilon_lb(-0.5, 0.0), 0.0);
        assert!(advantage_epsilon_lb(1.0, 0.0).is_infinite());
        // Round-trip through the forward cap.
        for eps in [0.25, 1.0, 3.0] {
            let adv = dp_advantage_bound(eps, 0.0);
            let back = advantage_epsilon_lb(adv, 0.0);
            assert!((back - eps).abs() < 1e-9, "ε {eps} -> adv {adv} -> {back}");
        }
    }

    #[test]
    fn empty_scores_are_a_typed_error() {
        assert!(empirical_epsilon_lb(&[], &[1.0], &cfg()).is_err());
        assert!(empirical_epsilon_lb(&[1.0], &[], &cfg()).is_err());
    }

    #[test]
    fn roc_is_monotone_and_anchored() {
        let inn = [0.9, 0.8, 0.7, 0.2];
        let out = [0.1, 0.3, 0.4, 0.6];
        let pts = roc_points(&inn, &out);
        // thresholds ascend, so both rates must be non-increasing
        for w in pts.windows(2) {
            assert!(w[1].0 <= w[0].0 + 1e-12);
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        // lowest threshold accepts everything
        assert_eq!(pts[0], (1.0, 1.0));
    }
}
