//! DP-SGD over subgraph mini-batches — Algorithm 2.
//!
//! Each subgraph is one "sample": its gradient is computed on a private
//! tape, clipped to a global `l2` bound `C`, summed across the batch,
//! perturbed with noise calibrated to the node-level sensitivity
//! `Δ_g = C·N_g` (Lemma 2), and applied as an averaged SGD step.
//!
//! ## Divergence sentinel
//!
//! Training under heavy calibrated noise (σ·C·N_g per coordinate) is
//! exactly the regime where DP-SGD can silently walk into NaN parameters.
//! [`train_dpgnn`] therefore checks loss, gradients, and parameters for
//! non-finite (or absurdly oversized) values at every step. On detection
//! it rolls the parameters back to the last healthy checkpoint, halves the
//! working learning rate, records a [`RecoveryEvent`], and moves on; after
//! [`DpSgdConfig::max_recoveries`] events it gives up with
//! [`PrivimError::Diverged`].
//!
//! **Recovery-vs-accounting invariant:** every *attempted* step is charged
//! to the privacy budget, whether or not its update was applied. A
//! recovered run therefore reports exactly the same ε spend as an
//! uninterrupted run of equal attempted-step count
//! ([`TrainReport::attempted_steps`] == `cfg.iters` whenever `Ok` is
//! returned) — recovery never under-reports privacy spend.

use crate::loss::{im_loss, LossConfig};
use privim_dp::mechanisms::{gaussian_noise_vec, sml_noise_vec};
use privim_dp::sensitivity::node_sensitivity;
use privim_gnn::{node_features, GnnModel, GraphTensors};
use privim_graph::Subgraph;
use privim_rt::fault::{self, FaultPlan, FaultPoint};
use privim_rt::ChaCha8Rng;
use privim_rt::{PrivimError, Rng, SeedableRng};
use privim_tensor::{GradClip, Matrix, Tape, Var};

/// A subgraph prepared for training: message-passing operators + features.
pub struct TrainItem {
    /// Precomputed graph operators.
    pub gt: GraphTensors,
    /// Structural node features.
    pub x: Matrix,
}

impl TrainItem {
    /// Prepare a sampled subgraph, building the loss operator (Eq. 5)
    /// here rather than on the sample's first training step.
    pub fn from_subgraph(s: &Subgraph) -> Self {
        let gt = GraphTensors::new(&s.graph);
        gt.adj_loss();
        TrainItem {
            gt,
            x: node_features(&s.graph),
        }
    }

    /// Prepare a whole container in parallel. Honors the process-wide
    /// fault plan's `poisoned_subgraph` point (see
    /// [`Self::from_container_with_fault`]).
    pub fn from_container(subs: &[Subgraph]) -> Vec<TrainItem> {
        Self::from_container_with_fault(subs, fault::env_plan())
    }

    /// Prepare a container, poisoning items the fault plan selects (keyed
    /// by item index, so injection is identical at any thread count). A
    /// poisoned item carries a NaN feature — the realistic "corrupt input
    /// slips into the container" failure the sentinel must absorb.
    pub fn from_container_with_fault(
        subs: &[Subgraph],
        plan: Option<FaultPlan>,
    ) -> Vec<TrainItem> {
        let mut items = privim_rt::par::map(subs, TrainItem::from_subgraph);
        if let Some(plan) = plan {
            for (i, item) in items.iter_mut().enumerate() {
                if plan.fires(FaultPoint::PoisonedSubgraph, i as u64) && item.x.data().len() > 0 {
                    item.x.data_mut()[0] = f64::NAN;
                }
            }
        }
        items
    }
}

/// Noise family added to the summed clipped gradients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseKind {
    /// Gaussian `N(0, σ²Δ_g²)` — Algorithm 2 (PrivIM, PrivIM*, EGN).
    Gaussian,
    /// Symmetric multivariate Laplace — the HP baseline's mechanism.
    Sml,
}

/// Algorithm 2 hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct DpSgdConfig {
    /// Batch size `B` (independent uniform draws per step, matching the
    /// Binomial subsampling model of Theorem 3).
    pub batch: usize,
    /// Iterations `T`.
    pub iters: usize,
    /// Learning rate `η` (paper: 0.005).
    pub lr: f64,
    /// Per-subgraph clip bound `C`.
    pub clip: f64,
    /// Noise multiplier `σ`; `0` disables noise *and* clipping (the
    /// Non-Private configuration).
    pub sigma: f64,
    /// Occurrence bound `N_g` (Lemma 1, or `M` for the dual-stage sampler).
    pub occurrence_bound: u64,
    /// Loss configuration (Eq. 5).
    pub loss: LossConfig,
    /// Noise family.
    pub noise: NoiseKind,
    /// RNG seed (batching + noise).
    pub seed: u64,
    /// Polyak tail averaging: return the average of the last half of the
    /// iterates instead of the final one. Pure post-processing of the
    /// privatised gradient stream (no effect on the privacy accounting),
    /// and substantially reduces the noise variance of the released model.
    pub tail_average: bool,
    /// Per-step multiplicative weight decay `W ← (1 − wd)·W` applied after
    /// the noisy update. Bounds the noise-driven random walk of the
    /// parameters (variance O(σ²/wd) instead of O(σ²T)), which is what
    /// keeps tight-budget training from diverging. Post-processing —
    /// no effect on the privacy accounting.
    pub weight_decay: f64,
    /// Divergence-recovery budget: after this many [`RecoveryEvent`]s the
    /// run aborts with [`PrivimError::Diverged`].
    pub max_recoveries: u32,
    /// Explicit fault plan for this run; `None` falls back to the
    /// process-wide [`fault::env_plan`] (and to no faults if that is
    /// unset).
    pub fault: Option<FaultPlan>,
}

impl DpSgdConfig {
    /// Paper training defaults (B=16, T=60, η=0.005, C=1) at a given noise
    /// multiplier and occurrence bound.
    pub fn paper_default(sigma: f64, occurrence_bound: u64) -> Self {
        DpSgdConfig {
            batch: 16,
            iters: 60,
            lr: 0.005,
            clip: 1.0,
            sigma,
            occurrence_bound,
            loss: LossConfig::paper_default(),
            noise: NoiseKind::Gaussian,
            seed: 0,
            tail_average: true,
            weight_decay: 0.002,
            max_recoveries: 8,
            fault: None,
        }
    }
}

/// What the divergence sentinel observed when a step went bad.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceCause {
    /// The batch loss was NaN/∞ (pre-update).
    NonFiniteLoss,
    /// The summed per-step gradient contained a NaN/∞ coordinate.
    NonFiniteGradient,
    /// The summed gradient was finite but absurdly large (beyond any value
    /// clipping could produce).
    OversizedGradient,
    /// The post-update parameters contained a NaN/∞ coordinate.
    NonFiniteParams,
    /// The batch contained no samples (injected or degenerate).
    EmptyBatch,
}

impl DivergenceCause {
    /// Canonical snake_case name (for reports and logs).
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceCause::NonFiniteLoss => "non_finite_loss",
            DivergenceCause::NonFiniteGradient => "non_finite_gradient",
            DivergenceCause::OversizedGradient => "oversized_gradient",
            DivergenceCause::NonFiniteParams => "non_finite_params",
            DivergenceCause::EmptyBatch => "empty_batch",
        }
    }
}

/// One sentinel intervention during training.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryEvent {
    /// Iteration (0-based) at which the fault was detected.
    pub step: u64,
    /// What the sentinel observed.
    pub cause: DivergenceCause,
    /// Working learning rate after the intervention.
    pub lr_after: f64,
}

/// Diagnostics from a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean per-sample loss at each iteration (pre-update; NaN for steps
    /// the sentinel discarded).
    pub loss_trace: Vec<f64>,
    /// Fraction of per-sample gradients that hit the clip bound.
    pub clipped_fraction: f64,
    /// Noise standard deviation that was injected per coordinate
    /// (`σ·C·N_g`; 0 for non-private runs).
    pub noise_std: f64,
    /// Steps attempted — **the number the privacy accountant must be
    /// charged for**. Always equals `cfg.iters` on `Ok`, recoveries or
    /// not.
    pub attempted_steps: u64,
    /// Steps whose update survived the sentinel and was applied.
    pub applied_steps: u64,
    /// Every sentinel intervention, in step order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Working learning rate at the end of the run (halved once per
    /// divergence recovery).
    pub final_lr: f64,
}

/// One subgraph's per-sample gradient, unclipped: the model's forward
/// pass, `objective` on its output probabilities, and the backward sweep,
/// on the calling thread's scratch tape. Returns the parameter gradients
/// (in [`GnnModel::params`] order) and the loss value.
pub fn sample_gradient<L>(model: &GnnModel, item: &TrainItem, objective: &L) -> (Vec<Matrix>, f64)
where
    L: Fn(&mut Tape, &GraphTensors, Var) -> Var,
{
    // Scratch tape + pooled matrix buffers: after the first sample on each
    // pool worker the whole forward/backward runs allocation-free.
    Tape::with_scratch(|tape| {
        let (probs, pvars) = model.forward(tape, &item.gt, &item.x);
        let loss = objective(tape, &item.gt, probs);
        let loss_val = tape.value(loss).get(0, 0);
        let mut grads = tape.backward(loss);
        (pvars.iter().map(|&v| grads.take(v)).collect(), loss_val)
    })
}

/// [`sample_gradient`] clipped to `cfg.clip` in private runs. Returns
/// `(grads, loss, clipped)`.
fn clipped_sample_gradient<L>(
    model: &GnnModel,
    item: &TrainItem,
    cfg: &DpSgdConfig,
    objective: &L,
) -> (Vec<Matrix>, f64, bool)
where
    L: Fn(&mut Tape, &GraphTensors, Var) -> Var,
{
    let (mut gvec, loss) = sample_gradient(model, item, objective);
    let clipped = cfg.sigma > 0.0 && GradClip::clip(&mut gvec, cfg.clip) > cfg.clip;
    (gvec, loss, clipped)
}

fn l2_norm(mats: &[Matrix]) -> f64 {
    mats.iter()
        .map(|m| privim_tensor::simd::sumsq(m.data()))
        .sum::<f64>()
        .sqrt()
}

fn validate(cfg: &DpSgdConfig, items: &[TrainItem]) -> Result<(), PrivimError> {
    if items.is_empty() {
        return Err(PrivimError::empty("empty subgraph container"));
    }
    if cfg.batch < 1 || cfg.iters < 1 {
        return Err(PrivimError::invalid("batch and iters must be >= 1"));
    }
    // `!(x > 0.0)` also rejects NaN hyperparameters.
    if !(cfg.lr > 0.0) || !(cfg.clip > 0.0) || !(cfg.sigma >= 0.0) {
        return Err(PrivimError::invalid(format!(
            "lr ({}), clip ({}) must be > 0 and sigma ({}) >= 0",
            cfg.lr, cfg.clip, cfg.sigma
        )));
    }
    Ok(())
}

/// Run Algorithm 2 with the Eq. 5 IM loss ([`im_loss`] under `cfg.loss`):
/// train `model` in place on `items`, returning diagnostics. Deterministic
/// given `cfg.seed` (and `cfg.fault`, if any).
///
/// On `Err(Diverged)` the model is left at its last healthy checkpoint; the
/// privacy spend of every step attempted up to the abort has been incurred
/// and must still be accounted by the caller.
pub fn train_dpgnn(
    model: &mut GnnModel,
    items: &[TrainItem],
    cfg: &DpSgdConfig,
) -> Result<TrainReport, PrivimError> {
    train_dpgnn_with(model, items, cfg, |t, gt, p| im_loss(t, gt, p, &cfg.loss))
}

/// Run Algorithm 2 with `objective` as the per-subgraph loss: it maps the
/// model's output probabilities on one subgraph to a scalar to minimise.
/// Sampling, clipping, noise, the sentinel and the update do not depend on
/// it, so neither does the privacy argument; `cfg.loss` is not read here.
/// Otherwise as [`train_dpgnn`].
pub fn train_dpgnn_with<L>(
    model: &mut GnnModel,
    items: &[TrainItem],
    cfg: &DpSgdConfig,
    objective: L,
) -> Result<TrainReport, PrivimError>
where
    L: Fn(&mut Tape, &GraphTensors, Var) -> Var + Sync,
{
    validate(cfg, items)?;
    let plan = cfg.fault.or_else(fault::env_plan);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sensitivity = node_sensitivity(cfg.clip, cfg.occurrence_bound.max(1));
    let noise_std = cfg.sigma * sensitivity;
    // Anything clipping could legitimately produce is ≤ B·C plus noise;
    // 1e6× that (or an absolute bound for unclipped runs) is divergence.
    let grad_limit = if cfg.sigma > 0.0 {
        1e6 * cfg.batch as f64 * cfg.clip.max(1.0)
    } else {
        1e12
    };

    let mut loss_trace = Vec::with_capacity(cfg.iters);
    let mut clipped = 0usize;
    let mut total_samples = 0usize;
    let tail_start = cfg.iters / 2;
    let mut tail_sum: Option<Vec<Matrix>> = None;
    let mut tail_count = 0usize;

    let mut lr = cfg.lr;
    let mut checkpoint: Vec<Matrix> = model.params().to_vec();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut applied = 0u64;

    let fires = |point: FaultPoint, idx: u64| plan.is_some_and(|p| p.fires(point, idx));

    // Gradient accumulator, allocated once and zero-filled per step.
    let mut summed: Vec<Matrix> = model
        .params()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();

    for iter in 0..cfg.iters {
        // A recovery intervention for step `iter`; returns Err once the
        // budget is exhausted. Closure-free so the borrow checker stays
        // happy: implemented inline at each detection site via macro.
        macro_rules! recover {
            ($cause:expr, $halve:expr) => {{
                if $halve {
                    for (p, c) in model.params_mut().iter_mut().zip(&checkpoint) {
                        *p = c.clone();
                    }
                    lr *= 0.5;
                }
                recoveries.push(RecoveryEvent {
                    step: iter as u64,
                    cause: $cause,
                    lr_after: lr,
                });
                if recoveries.len() as u32 > cfg.max_recoveries {
                    return Err(PrivimError::Diverged {
                        step: iter as u64,
                        recoveries: recoveries.len() as u32,
                        message: $cause.name().to_string(),
                    });
                }
            }};
        }

        // Injected fault: the whole batch vanishes (e.g. a sampler handed
        // back nothing). The step is still charged to the privacy budget —
        // conservative, and it keeps attempted-step accounting uniform.
        if fires(FaultPoint::EmptyBatch, iter as u64) {
            loss_trace.push(f64::NAN);
            recover!(DivergenceCause::EmptyBatch, false);
            continue;
        }

        // Line 3: B independent uniform draws from the container.
        let batch_idx: Vec<usize> = (0..cfg.batch)
            .map(|_| rng.gen_range(0..items.len()))
            .collect();

        // Lines 4–7: per-sample gradients, clipped, summed.
        let results: Vec<(Vec<Matrix>, f64, bool)> = privim_rt::par::map(&batch_idx, |&i| {
            clipped_sample_gradient(model, &items[i], cfg, &objective)
        });

        for s in summed.iter_mut() {
            s.data_mut().fill(0.0);
        }
        let mut batch_loss = 0.0;
        for (gvec, lv, was_clipped) in results {
            for (s, g) in summed.iter_mut().zip(&gvec) {
                s.add_assign(g);
            }
            batch_loss += lv;
            clipped += usize::from(was_clipped);
            total_samples += 1;
        }
        let batch_loss = batch_loss / cfg.batch as f64;
        loss_trace.push(batch_loss);

        // Injected faults on the summed gradient.
        if fires(FaultPoint::NanGradient, iter as u64) {
            if let Some(m) = summed.first_mut() {
                if !m.data().is_empty() {
                    m.data_mut()[0] = f64::NAN;
                }
            }
        }
        if fires(FaultPoint::OversizedGradient, iter as u64) {
            for m in summed.iter_mut() {
                for x in m.data_mut() {
                    *x *= 1e9;
                }
            }
        }

        // Sentinel, pre-noise: discard the step (charged, not applied) if
        // the loss or gradient already went bad.
        if !batch_loss.is_finite() {
            recover!(DivergenceCause::NonFiniteLoss, true);
            continue;
        }
        if summed.iter().any(|m| m.has_non_finite()) {
            recover!(DivergenceCause::NonFiniteGradient, true);
            continue;
        }
        if l2_norm(&summed) > grad_limit {
            recover!(DivergenceCause::OversizedGradient, true);
            continue;
        }

        // Line 8: noise on the summed gradient.
        if cfg.sigma > 0.0 {
            for s in summed.iter_mut() {
                let noise = match cfg.noise {
                    NoiseKind::Gaussian => {
                        // privim-lint: allow(unaccounted-noise, reason = "charged by the caller: the pipeline feeds TrainReport::attempted_steps to the Theorem 3 RDP accountant")
                        gaussian_noise_vec(s.data().len(), cfg.sigma, sensitivity, &mut rng)
                    }
                    // privim-lint: allow(unaccounted-noise, reason = "charged by the caller: the pipeline feeds TrainReport::attempted_steps to the Theorem 3 RDP accountant")
                    NoiseKind::Sml => sml_noise_vec(s.data().len(), noise_std, &mut rng),
                };
                privim_tensor::simd::add_assign(s.data_mut(), &noise);
            }
        }

        // Line 9: averaged update (+ optional decoupled weight decay).
        let scale = lr / cfg.batch as f64;
        let keep = 1.0 - cfg.weight_decay.clamp(0.0, 1.0);
        for (p, g) in model.params_mut().iter_mut().zip(&summed) {
            p.add_scaled_assign(g, -scale);
            if keep < 1.0 {
                privim_tensor::simd::scale(p.data_mut(), keep);
            }
        }

        // Sentinel, post-update: the applied step must leave finite
        // parameters, else roll back to the checkpoint.
        if model.params().iter().any(|p| p.has_non_finite()) {
            recover!(DivergenceCause::NonFiniteParams, true);
            continue;
        }

        // Healthy step: advance the checkpoint.
        applied += 1;
        for (c, p) in checkpoint.iter_mut().zip(model.params()) {
            *c = p.clone();
        }

        // Tail averaging accumulator (post-processing; healthy steps only).
        if cfg.tail_average && iter >= tail_start {
            match &mut tail_sum {
                None => tail_sum = Some(model.params().to_vec()),
                Some(acc) => {
                    for (a, p) in acc.iter_mut().zip(model.params()) {
                        a.add_assign(p);
                    }
                }
            }
            tail_count += 1;
        }
    }

    if let Some(acc) = tail_sum {
        if tail_count > 0 {
            let inv = 1.0 / tail_count as f64;
            for (p, a) in model.params_mut().iter_mut().zip(acc) {
                *p = a.scale(inv);
            }
        }
    }

    Ok(TrainReport {
        loss_trace,
        clipped_fraction: if total_samples == 0 {
            0.0
        } else {
            clipped as f64 / total_samples as f64
        },
        noise_std: if cfg.sigma > 0.0 { noise_std } else { 0.0 },
        attempted_steps: cfg.iters as u64,
        applied_steps: applied,
        recoveries,
        final_lr: lr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_gnn::{GnnConfig, GnnKind};
    use privim_graph::{generators, induced_subgraph};
    use privim_sampling::{freq_sampling, FreqConfig};

    fn make_items(seed: u64, count_hint: usize) -> Vec<TrainItem> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::barabasi_albert(300, 4, &mut rng).with_uniform_weights(1.0);
        let mut freq = vec![0u32; g.num_nodes()];
        let cfg = FreqConfig {
            subgraph_size: 12,
            return_prob: 0.3,
            decay: 1.0,
            sampling_rate: 1.0,
            walk_len: 150,
            threshold: 8,
        };
        let sets = freq_sampling(&g, &mut freq, &cfg, &mut rng).unwrap();
        let subs: Vec<_> = sets
            .iter()
            .take(count_hint)
            .map(|s| induced_subgraph(&g, s))
            .collect();
        TrainItem::from_container(&subs)
    }

    fn small_model(kind: GnnKind, seed: u64) -> GnnModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        GnnModel::new(
            GnnConfig {
                kind,
                layers: 2,
                hidden: 8,
                in_dim: privim_gnn::FEATURE_DIM,
            },
            &mut rng,
        )
    }

    fn base_cfg(sigma: f64, occurrence_bound: u64) -> DpSgdConfig {
        DpSgdConfig {
            tail_average: false,
            weight_decay: 0.0,
            ..DpSgdConfig::paper_default(sigma, occurrence_bound)
        }
    }

    #[test]
    fn non_private_training_reduces_loss() {
        let items = make_items(1, 40);
        let mut model = small_model(GnnKind::Grat, 2);
        let cfg = DpSgdConfig {
            batch: 8,
            iters: 40,
            lr: 0.05,
            seed: 3,
            ..base_cfg(0.0, 8)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        let first: f64 = report.loss_trace[..5].iter().sum::<f64>() / 5.0;
        let last: f64 = report.loss_trace[report.loss_trace.len() - 5..]
            .iter()
            .sum::<f64>()
            / 5.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert_eq!(report.noise_std, 0.0);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.attempted_steps, 40);
        assert_eq!(report.applied_steps, 40);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let items = make_items(4, 20);
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 5,
            lr: 0.01,
            sigma: 0.5,
            seed: 9,
            ..base_cfg(0.5, 4)
        };
        let mut m1 = small_model(GnnKind::Gcn, 5);
        let mut m2 = m1.clone();
        train_dpgnn(&mut m1, &items, &cfg).unwrap();
        train_dpgnn(&mut m2, &items, &cfg).unwrap();
        for (a, b) in m1.params().iter().zip(m2.params()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn noise_std_scales_with_occurrence_bound() {
        let items = make_items(6, 10);
        let base = DpSgdConfig {
            batch: 2,
            iters: 2,
            lr: 0.01,
            seed: 10,
            ..base_cfg(1.0, 4)
        };
        let mut m = small_model(GnnKind::Gcn, 7);
        let r_small = train_dpgnn(&mut m.clone(), &items, &base).unwrap();
        let big = DpSgdConfig {
            occurrence_bound: 1111,
            ..base
        };
        let r_big = train_dpgnn(&mut m, &items, &big).unwrap();
        assert!((r_small.noise_std - 4.0).abs() < 1e-12);
        assert!((r_big.noise_std - 1111.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_noise_degrades_seed_quality() {
        // The paper's core utility claim, in miniature: at the same noise
        // multiplier, the N_g = 1111 pipeline produces far worse seed sets
        // than the N_g = 4 pipeline, because the injected noise std is
        // σ·C·N_g. Measured by the spread of the trained model's top-10
        // seeds on the training graph, averaged over seeds.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::barabasi_albert(300, 4, &mut rng).with_uniform_weights(1.0);
        let mut freq = vec![0u32; g.num_nodes()];
        let scfg = FreqConfig {
            subgraph_size: 12,
            return_prob: 0.3,
            decay: 1.0,
            sampling_rate: 1.0,
            walk_len: 150,
            threshold: 8,
        };
        let sets = freq_sampling(&g, &mut freq, &scfg, &mut rng).unwrap();
        let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();
        let items = TrainItem::from_container(&subs);

        let spread_after = |n_g: u64, seed: u64| -> f64 {
            let mut model = small_model(GnnKind::Grat, 20 + seed);
            let cfg = DpSgdConfig {
                batch: 8,
                iters: 40,
                lr: 0.1,
                seed,
                tail_average: true,
                ..base_cfg(0.5, n_g)
            };
            train_dpgnn(&mut model, &items, &cfg).unwrap();
            let scores = model.score_graph(&g);
            let seeds = privim_im::heuristics::score_top_k(&scores, 10);
            privim_im::one_step_spread(&g, &seeds) as f64
        };
        let clean: f64 = (0..3).map(|s| spread_after(4, s)).sum::<f64>() / 3.0;
        let noisy: f64 = (0..3).map(|s| spread_after(1111, s)).sum::<f64>() / 3.0;
        assert!(
            clean > noisy,
            "low-sensitivity run should pick better seeds: {clean} vs {noisy}"
        );
    }

    #[test]
    fn clipping_reports_fraction() {
        let items = make_items(12, 10);
        let mut model = small_model(GnnKind::Gcn, 13);
        // microscopic clip bound: everything clips
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 3,
            lr: 0.01,
            clip: 1e-6,
            seed: 14,
            ..base_cfg(0.1, 2)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        assert!(report.clipped_fraction > 0.99);
    }

    #[test]
    fn empty_container_rejected() {
        let mut model = small_model(GnnKind::Gcn, 15);
        let cfg = DpSgdConfig::paper_default(1.0, 4);
        let err = train_dpgnn(&mut model, &[], &cfg).unwrap_err();
        assert!(matches!(err, PrivimError::EmptyInput(_)), "{err}");
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let items = make_items(30, 4);
        let mut model = small_model(GnnKind::Gcn, 31);
        for bad in [
            DpSgdConfig {
                lr: 0.0,
                ..base_cfg(0.5, 4)
            },
            DpSgdConfig {
                lr: f64::NAN,
                ..base_cfg(0.5, 4)
            },
            DpSgdConfig {
                clip: -1.0,
                ..base_cfg(0.5, 4)
            },
            DpSgdConfig {
                batch: 0,
                ..base_cfg(0.5, 4)
            },
            DpSgdConfig {
                sigma: -0.5,
                ..base_cfg(0.5, 4)
            },
        ] {
            let err = train_dpgnn(&mut model, &items, &bad).unwrap_err();
            assert!(matches!(err, PrivimError::InvalidInput(_)), "{err}");
        }
    }

    #[test]
    fn sml_noise_path_runs() {
        let items = make_items(16, 10);
        let mut model = small_model(GnnKind::Gcn, 17);
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 3,
            lr: 0.01,
            noise: NoiseKind::Sml,
            seed: 18,
            ..base_cfg(0.5, 2)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        assert_eq!(report.loss_trace.len(), 3);
        assert!(model.params().iter().all(|p| !p.has_non_finite()));
    }

    #[test]
    fn nan_gradient_fault_recovers_to_finite_params() {
        let items = make_items(40, 12);
        let mut model = small_model(GnnKind::Gcn, 41);
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 12,
            lr: 0.05,
            seed: 42,
            fault: Some(FaultPlan::at_step(7, FaultPoint::NanGradient, 5)),
            ..base_cfg(0.5, 4)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].step, 5);
        assert_eq!(
            report.recoveries[0].cause,
            DivergenceCause::NonFiniteGradient
        );
        assert!((report.recoveries[0].lr_after - 0.025).abs() < 1e-15);
        assert_eq!(report.attempted_steps, 12);
        assert_eq!(report.applied_steps, 11);
        assert!(model.params().iter().all(|p| !p.has_non_finite()));
    }

    #[test]
    fn oversized_gradient_fault_is_caught() {
        let items = make_items(44, 12);
        let mut model = small_model(GnnKind::Gcn, 45);
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 8,
            lr: 0.05,
            seed: 46,
            fault: Some(FaultPlan::at_step(3, FaultPoint::OversizedGradient, 2)),
            ..base_cfg(0.5, 4)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(
            report.recoveries[0].cause,
            DivergenceCause::OversizedGradient
        );
        assert!(model.params().iter().all(|p| !p.has_non_finite()));
    }

    #[test]
    fn empty_batch_fault_charges_but_skips() {
        let items = make_items(48, 12);
        let mut model = small_model(GnnKind::Gcn, 49);
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 6,
            lr: 0.05,
            seed: 50,
            fault: Some(FaultPlan::at_step(1, FaultPoint::EmptyBatch, 0)),
            ..base_cfg(0.5, 4)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        assert_eq!(report.attempted_steps, 6);
        assert_eq!(report.applied_steps, 5);
        assert_eq!(report.recoveries[0].cause, DivergenceCause::EmptyBatch);
        assert!(report.loss_trace[0].is_nan());
        // empty batch does not halve the learning rate
        assert_eq!(report.final_lr, cfg.lr);
    }

    #[test]
    fn recovery_budget_exhaustion_errors() {
        let items = make_items(52, 12);
        let mut model = small_model(GnnKind::Gcn, 53);
        let cfg = DpSgdConfig {
            batch: 4,
            iters: 10,
            lr: 0.05,
            seed: 54,
            max_recoveries: 2,
            // every step's gradient is NaN
            fault: Some(FaultPlan::new(55, &[FaultPoint::NanGradient], 1.0)),
            ..base_cfg(0.5, 4)
        };
        let err = train_dpgnn(&mut model, &items, &cfg).unwrap_err();
        assert!(matches!(err, PrivimError::Diverged { .. }), "{err}");
        // the model is left at its last healthy checkpoint
        assert!(model.params().iter().all(|p| !p.has_non_finite()));
    }

    #[test]
    fn poisoned_subgraph_is_absorbed() {
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let g = generators::barabasi_albert(200, 4, &mut rng).with_uniform_weights(1.0);
        let mut freq = vec![0u32; g.num_nodes()];
        let scfg = FreqConfig {
            subgraph_size: 10,
            return_prob: 0.3,
            decay: 1.0,
            sampling_rate: 1.0,
            walk_len: 150,
            threshold: 8,
        };
        let sets = freq_sampling(&g, &mut freq, &scfg, &mut rng).unwrap();
        let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();
        // poison every item so every batch deterministically contains one
        let plan = FaultPlan::new(61, &[FaultPoint::PoisonedSubgraph], 1.0);
        let items = TrainItem::from_container_with_fault(&subs, Some(plan));
        assert!(items[0].x.has_non_finite(), "item 0 should be poisoned");
        let mut model = small_model(GnnKind::Gcn, 62);
        let cfg = DpSgdConfig {
            batch: 6,
            iters: 10,
            lr: 0.05,
            seed: 63,
            max_recoveries: 32,
            ..base_cfg(0.5, 4)
        };
        let report = train_dpgnn(&mut model, &items, &cfg).unwrap();
        // the poisoned item was sampled at least once and absorbed
        assert!(!report.recoveries.is_empty());
        assert!(model.params().iter().all(|p| !p.has_non_finite()));
        assert_eq!(report.attempted_steps, 10);
    }
}
