//! End-to-end method pipelines — one entry point per line of Figure 5.
//!
//! Every learning method follows the three-module PrivIM workflow (Fig. 2):
//! extract subgraphs from the training half of the graph, calibrate noise
//! to the method's occurrence bound, train with DP-SGD, then score the full
//! graph and take the top-`k` nodes as seeds. Non-learning references
//! (CELF, degree, random) skip straight to seed selection.

use crate::baselines::{egn_container, hp_container};
use crate::loss::LossConfig;
use crate::results::MethodOutput;
use crate::trainer::{train_dpgnn, DpSgdConfig, NoiseKind, TrainItem};
use privim_dp::accountant::{calibrate_sigma, PrivacyParams};
use privim_dp::sensitivity::sampled_occurrence_bound;
use privim_gnn::{GnnConfig, GnnKind, GnnModel};
use privim_graph::{induced_subgraph, projection::theta_projection, Graph, NodeId, Subgraph};
use privim_im::{celf_exact, coverage_ratio, heuristics, one_step_spread};
use privim_rt::ChaCha8Rng;
use privim_rt::{PrivimResult, Rng, SeedableRng, SliceRandom};
use privim_sampling::{
    dual_stage_sampling, extract_subgraphs, DualStageConfig, FreqConfig, Indicator,
    IndicatorParams, RwrConfig, SubgraphContainer,
};
use std::time::Instant;

/// Shared pipeline hyperparameters (paper values in §V-A).
#[derive(Clone, Copy, Debug)]
pub struct PipelineParams {
    /// Max in-degree bound θ for the naive projection (10).
    pub theta: usize,
    /// GNN depth `r` = walk hop bound (3).
    pub layers: usize,
    /// Hidden width (32).
    pub hidden: usize,
    /// Subgraph size `n` (indicator-selected per dataset).
    pub subgraph_size: usize,
    /// Frequency threshold `M` (indicator-selected per dataset).
    pub threshold: u32,
    /// BES shrink factor `s` (2).
    pub shrink: usize,
    /// Frequency decay `μ` (1).
    pub decay: f64,
    /// RWR restart probability `τ` (0.3).
    pub return_prob: f64,
    /// Walk length `L` (200).
    pub walk_len: usize,
    /// Expected number of start nodes (q = starts / |V_train|; 256).
    pub expected_starts: usize,
    /// DP-SGD batch size `B` (48 — the paper does not report B; larger
    /// batches improve the per-step signal-to-noise ratio at a modest
    /// subsampling-accounting cost).
    pub batch: usize,
    /// DP-SGD iterations `T` (80).
    pub iters: usize,
    /// Learning rate η (0.005 in the paper; our CPU stack uses 0.05 to
    /// converge in the same iteration budget).
    pub lr: f64,
    /// Clip bound `C` (1).
    pub clip: f64,
    /// DP δ (`< 1/|V_train|`).
    pub delta: f64,
    /// Loss settings (Eq. 5).
    pub loss: LossConfig,
    /// Fraction of nodes used for training subgraph extraction (0.5).
    pub train_fraction: f64,
}

impl PipelineParams {
    /// Paper defaults with `n` and `M` chosen by the §IV-C indicator for a
    /// graph of `num_nodes` nodes.
    pub fn paper_defaults(num_nodes: usize) -> Self {
        let ind = Indicator::for_dataset(IndicatorParams::paper_values(), num_nodes.max(2));
        let (n, m) =
            ind.best_parameters(&[10, 20, 30, 40, 50, 60, 70, 80], &[2, 3, 4, 6, 8, 10, 12]);
        let train_nodes = (num_nodes as f64 * 0.5).max(2.0);
        PipelineParams {
            theta: 10,
            layers: 3,
            hidden: 32,
            subgraph_size: n,
            threshold: m,
            shrink: 2,
            decay: 1.0,
            return_prob: 0.3,
            walk_len: 200,
            expected_starts: 256,
            batch: 48,
            iters: 80,
            lr: 0.1,
            clip: 1.0,
            delta: (0.5 / train_nodes).min(1e-3),
            loss: LossConfig::paper_default(),
            train_fraction: 0.5,
        }
    }

    fn sampling_rate(&self, v_train: usize) -> f64 {
        (self.expected_starts as f64 / v_train.max(1) as f64).min(1.0)
    }

    fn freq_config(&self, v_train: usize) -> FreqConfig {
        FreqConfig {
            subgraph_size: self.subgraph_size,
            return_prob: self.return_prob,
            decay: self.decay,
            sampling_rate: self.sampling_rate(v_train),
            walk_len: self.walk_len,
            threshold: self.threshold,
        }
    }

    fn rwr_config(&self, v_train: usize) -> RwrConfig {
        RwrConfig {
            subgraph_size: self.subgraph_size,
            return_prob: self.return_prob,
            sampling_rate: self.sampling_rate(v_train),
            walk_len: self.walk_len,
            hops: self.layers,
        }
    }
}

/// A dataset instance prepared for evaluation: the full graph, its training
/// half, and the CELF reference spread.
pub struct EvalSetup<'a> {
    /// The full evaluation graph.
    pub graph: &'a Graph,
    /// Training half (induced subgraph on a random 50% of nodes).
    pub train_graph: Subgraph,
    /// Seed-set size `k`.
    pub k: usize,
    /// CELF's spread on the full graph (the coverage-ratio denominator).
    pub celf_spread: f64,
    /// CELF's seed set.
    pub celf_seeds: Vec<NodeId>,
    /// Pipeline hyperparameters.
    pub params: PipelineParams,
}

impl<'a> EvalSetup<'a> {
    /// Build the paper's evaluation setup: random 50/50 node split,
    /// CELF(k) reference, indicator-selected `n` and `M`.
    pub fn paper_defaults(graph: &'a Graph, k: usize, rng: &mut impl Rng) -> Self {
        let params = PipelineParams::paper_defaults(graph.num_nodes());
        Self::with_params(graph, k, params, rng)
    }

    /// Same, with explicit hyperparameters (parameter-study experiments).
    pub fn with_params(
        graph: &'a Graph,
        k: usize,
        params: PipelineParams,
        rng: &mut impl Rng,
    ) -> Self {
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        nodes.shuffle(rng);
        let n_train = ((graph.num_nodes() as f64 * params.train_fraction) as usize).max(2);
        let train_graph = induced_subgraph(graph, &nodes[..n_train.min(nodes.len())]);
        let celf = celf_exact(graph, k);
        EvalSetup {
            graph,
            train_graph,
            k,
            celf_spread: celf.spread.max(1.0),
            celf_seeds: celf.seeds,
            params,
        }
    }
}

/// The evaluated methods (Figure 5 legend plus reference heuristics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Naive PrivIM (§III): θ-projection + Algorithm 1, `N_g = Σθ^i`.
    PrivIm {
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// PrivIM + Stage-1 SCS only (Table II ablation), `N_g = M`.
    PrivImScs {
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// PrivIM* — SCS + BES (§IV), `N_g = M`.
    PrivImStar {
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// PrivIM* with a non-default GNN (Fig. 9).
    PrivImStarWith {
        /// Privacy budget ε.
        epsilon: f64,
        /// Architecture to train.
        kind: GnnKind,
    },
    /// PrivIM* with ε = ∞ (no clipping, no noise).
    NonPrivate,
    /// Erdős-goes-neural with DP-SGD and uniform random subgraphs.
    Egn {
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// HeterPoisson + SML noise, GCN backbone.
    Hp {
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// HP with the GRAT backbone.
    HpGrat {
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// CELF ground truth (non-private, non-learning).
    Celf,
    /// Degree top-k heuristic.
    Degree,
    /// Uniform random seeds.
    Random,
}

impl Method {
    /// Canonical lowercase name.
    pub fn name(&self) -> String {
        match self {
            Method::PrivIm { .. } => "privim".into(),
            Method::PrivImScs { .. } => "privim+scs".into(),
            Method::PrivImStar { .. } => "privim*".into(),
            Method::PrivImStarWith { kind, .. } => format!("privim*:{}", kind.name()),
            Method::NonPrivate => "non-private".into(),
            Method::Egn { .. } => "egn".into(),
            Method::Hp { .. } => "hp".into(),
            Method::HpGrat { .. } => "hp-grat".into(),
            Method::Celf => "celf".into(),
            Method::Degree => "degree".into(),
            Method::Random => "random".into(),
        }
    }

    /// The ε this method was configured with, if private.
    pub fn epsilon(&self) -> Option<f64> {
        match *self {
            Method::PrivIm { epsilon }
            | Method::PrivImScs { epsilon }
            | Method::PrivImStar { epsilon }
            | Method::PrivImStarWith { epsilon, .. }
            | Method::Egn { epsilon }
            | Method::Hp { epsilon }
            | Method::HpGrat { epsilon } => Some(epsilon),
            _ => None,
        }
    }
}

struct PreparedRun {
    container: SubgraphContainer,
    occurrence_bound: u64,
    gnn: GnnKind,
    noise: NoiseKind,
    /// For HP the training graph was θ-capped; scoring still uses the full
    /// graph, so only the container differs.
    preprocess_secs: f64,
}

/// Run one method once. `rep` perturbs every RNG so repeated calls give
/// independent replicates (Table II's mean ± std over 5 runs).
///
/// Failures surface as typed errors rather than panics so the experiment
/// runner can isolate and retry a single (dataset, method, ε) cell.
pub fn run_method(method: Method, setup: &EvalSetup<'_>, rep: u64) -> PrivimResult<MethodOutput> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e3779b9u64.wrapping_mul(rep + 1));
    Ok(match method {
        Method::Celf => {
            let spread = one_step_spread(setup.graph, &setup.celf_seeds) as f64;
            MethodOutput::non_learning("celf", spread, 100.0, setup.celf_seeds.clone())
        }
        Method::Degree => {
            let seeds = heuristics::degree_top_k(setup.graph, setup.k);
            let spread = one_step_spread(setup.graph, &seeds) as f64;
            let cr = coverage_ratio(spread, setup.celf_spread);
            MethodOutput::non_learning("degree", spread, cr, seeds)
        }
        Method::Random => {
            let seeds = heuristics::random_seeds(setup.graph, setup.k, &mut rng);
            let spread = one_step_spread(setup.graph, &seeds) as f64;
            let cr = coverage_ratio(spread, setup.celf_spread);
            MethodOutput::non_learning("random", spread, cr, seeds)
        }
        _ => run_learning_method(method, setup, &mut rng)?,
    })
}

fn prepare(
    method: Method,
    setup: &EvalSetup<'_>,
    rng: &mut ChaCha8Rng,
) -> PrivimResult<PreparedRun> {
    let p = &setup.params;
    let tg = &setup.train_graph.graph;
    let v_train = tg.num_nodes();
    // privim-lint: allow(wall-clock, reason = "timing-only telemetry: preprocess_secs reporting for Table III, never feeds results")
    let t0 = Instant::now();
    let (container, occurrence_bound, gnn, noise) = match method {
        Method::PrivIm { .. } => {
            let projected = theta_projection(tg, p.theta, rng);
            let container = extract_subgraphs(&projected, &p.rwr_config(v_train), rng);
            // High-probability refinement of Lemma 1 under the q-rate start
            // sampling; half of δ pays for the Chernoff failure event (the
            // accounting below calibrates to the other half).
            let q = p.sampling_rate(v_train);
            let refined =
                sampled_occurrence_bound(p.theta as u64, p.layers as u32, q, p.delta * 0.5);
            (container, refined, GnnKind::Grat, NoiseKind::Gaussian)
        }
        Method::PrivImScs { .. }
        | Method::PrivImStar { .. }
        | Method::NonPrivate
        | Method::PrivImStarWith { .. } => {
            // Dual-stage sampling; only PrivIM+SCS leaves out the BES stage.
            let cfg = DualStageConfig {
                stage1: p.freq_config(v_train),
                shrink: p.shrink,
                enable_bes: !matches!(method, Method::PrivImScs { .. }),
            };
            let out = dual_stage_sampling(tg, &cfg, rng)?;
            let gnn = match method {
                Method::PrivImStarWith { kind, .. } => kind,
                _ => GnnKind::Grat,
            };
            (out.container, p.threshold as u64, gnn, NoiseKind::Gaussian)
        }
        Method::Egn { .. } => {
            let count = (p.sampling_rate(v_train) * v_train as f64).round() as usize;
            let count = count.max(8);
            let container = egn_container(tg, count, p.subgraph_size.min(v_train / 2).max(2), rng);
            // uniform sampling gives no occurrence control: worst case a
            // node is in every subgraph.
            let m = container.len() as u64;
            (container, m.max(1), GnnKind::Gcn, NoiseKind::Gaussian)
        }
        Method::Hp { .. } | Method::HpGrat { .. } => {
            // HeterPoisson: per-node ego samples over the θ-capped graph,
            // SML noise, and B samples per step like every method.
            // Occurrence bound θ + 1 (own ego plus at most θ neighbours'
            // egos) is enforced by construction.
            let (_, container) = hp_container(tg, p.theta, rng);
            let gnn = if matches!(method, Method::HpGrat { .. }) {
                GnnKind::Grat
            } else {
                GnnKind::Gcn
            };
            (container, p.theta as u64 + 1, gnn, NoiseKind::Sml)
        }
        Method::Celf | Method::Degree | Method::Random => {
            // privim-lint: allow(panic, reason = "run_method dispatches the non-learning baselines before calling prepare; this arm is unreachable by construction")
            unreachable!("handled before prepare")
        }
    };
    Ok(PreparedRun {
        container,
        occurrence_bound,
        gnn,
        noise,
        preprocess_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Everything the training stage produces, before any seed scoring: the
/// trained model plus the accounting and telemetry that both the
/// evaluation path ([`run_method`]) and the serving export path
/// ([`export_serve_artifact`]) need.
struct TrainedStage {
    model: GnnModel,
    sigma: f64,
    epsilon: Option<f64>,
    batch: usize,
    container_size: usize,
    max_occurrence: u32,
    occurrence_bound: u64,
    preprocess_secs: f64,
    train_secs: f64,
    final_loss: f64,
}

/// A trained model packaged for serving, together with the privacy
/// statement it was trained under. This is what `privim-serve pack`
/// wraps into a checkpoint bundle: under DP, (model, ε, δ, σ, steps) is
/// exactly the releasable artifact — the bundle never includes training
/// subgraphs.
#[derive(Clone, Debug)]
pub struct ServeArtifact {
    /// The trained (privatised) model.
    pub model: GnnModel,
    /// Privacy budget ε the noise was calibrated to (`None` = non-private).
    pub epsilon: Option<f64>,
    /// The δ of the (ε, δ)-DP statement.
    pub delta: f64,
    /// Calibrated Gaussian noise multiplier σ.
    pub sigma: f64,
    /// DP-SGD steps taken (accountant state: σ and steps pin the spend).
    pub steps: usize,
}

/// Train a model with `method` and export it for serving, without running
/// the evaluation-side seed scoring. Same training path as [`run_method`]
/// (a unit test pins the equivalence), so the ε/δ/σ accounting in the
/// returned artifact is exactly what the experiments report.
pub fn export_serve_artifact(
    method: Method,
    setup: &EvalSetup<'_>,
    rep: u64,
) -> PrivimResult<ServeArtifact> {
    if method.epsilon().is_none() && !matches!(method, Method::NonPrivate) {
        return Err(privim_rt::PrivimError::invalid(format!(
            "method {} does not train a model; nothing to serve",
            method.name()
        )));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e3779b9u64.wrapping_mul(rep + 1));
    let stage = train_stage(method, setup, &mut rng)?;
    Ok(ServeArtifact {
        model: stage.model,
        epsilon: stage.epsilon,
        delta: setup.params.delta,
        sigma: stage.sigma,
        steps: setup.params.iters,
    })
}

fn train_stage(
    method: Method,
    setup: &EvalSetup<'_>,
    rng: &mut ChaCha8Rng,
) -> PrivimResult<TrainedStage> {
    let p = &setup.params;
    let mut prep = prepare(method, setup, rng)?;
    if prep.container.is_empty() {
        // Degenerate graphs (too small / too sparse for the walk length):
        // fall back to a single subgraph over the whole training graph so
        // the pipeline stays total.
        let all: Vec<NodeId> = setup.train_graph.graph.nodes().collect();
        prep.container = SubgraphContainer::from_node_sets(&setup.train_graph.graph, &[all]);
        prep.occurrence_bound = prep.occurrence_bound.max(1);
    }

    // Tensor prep is part of preprocessing (Table III).
    // privim-lint: allow(wall-clock, reason = "timing-only telemetry: preprocess_secs reporting for Table III, never feeds results")
    let t_prep = Instant::now();
    let items = TrainItem::from_container(&prep.container.subgraphs);
    let preprocess_secs = prep.preprocess_secs + t_prep.elapsed().as_secs_f64();

    // Privacy accounting: calibrate σ to the requested ε.
    let (sigma, epsilon) = match method.epsilon() {
        Some(eps) => {
            let params = PrivacyParams {
                n_g: prep.occurrence_bound.max(1),
                batch: p.batch as u64,
                container: prep.container.len().max(1) as u64,
                steps: p.iters as u64,
            };
            // the naive pipeline spends half its δ on the Lemma 1
            // refinement's failure probability
            let delta = if matches!(method, Method::PrivIm { .. }) {
                p.delta * 0.5
            } else {
                p.delta
            };
            let mut sigma = calibrate_sigma(eps, delta, &params);
            // The SML mechanism's Rényi divergence is strictly worse than a
            // Gaussian of equal scale (the Exp(1) radial mixture fattens the
            // tails); following the HP paper's own constants we charge a 2×
            // scale penalty to reach the same budget.
            if prep.noise == NoiseKind::Sml {
                sigma *= 2.0;
            }
            (sigma, Some(eps))
        }
        None => (0.0, None),
    };

    // Train.
    let mut model_rng = ChaCha8Rng::seed_from_u64(rng.gen());
    let mut model = GnnModel::new(
        GnnConfig {
            kind: prep.gnn,
            layers: p.layers,
            hidden: p.hidden,
            in_dim: privim_gnn::FEATURE_DIM,
        },
        &mut model_rng,
    );
    let train_cfg = DpSgdConfig {
        batch: p.batch,
        iters: p.iters,
        lr: p.lr,
        clip: p.clip,
        sigma,
        occurrence_bound: prep.occurrence_bound,
        loss: p.loss,
        noise: prep.noise,
        seed: rng.gen(),
        tail_average: true,
        weight_decay: 0.01,
        max_recoveries: 8,
        fault: None,
    };
    // privim-lint: allow(wall-clock, reason = "timing-only telemetry: train_secs reporting for Table III, never feeds results")
    let t_train = Instant::now();
    let report = train_dpgnn(&mut model, &items, &train_cfg)?;
    let train_secs = t_train.elapsed().as_secs_f64();

    Ok(TrainedStage {
        model,
        sigma,
        epsilon,
        batch: p.batch,
        container_size: prep.container.len(),
        max_occurrence: prep.container.max_occurrence(),
        occurrence_bound: prep.occurrence_bound,
        preprocess_secs,
        train_secs,
        final_loss: report.loss_trace.last().copied().unwrap_or(f64::NAN),
    })
}

fn run_learning_method(
    method: Method,
    setup: &EvalSetup<'_>,
    rng: &mut ChaCha8Rng,
) -> PrivimResult<MethodOutput> {
    let p = &setup.params;
    let stage = train_stage(method, setup, rng)?;

    // Seed selection on the full graph + evaluation.
    let scores = stage.model.score_graph(setup.graph);
    let seeds = heuristics::score_top_k(&scores, setup.k);
    let spread = one_step_spread(setup.graph, &seeds) as f64;
    let cr = coverage_ratio(spread, setup.celf_spread);

    let iters_per_epoch = (stage.container_size as f64 / stage.batch as f64).max(1.0);
    Ok(MethodOutput {
        method: method.name(),
        spread,
        coverage_ratio: cr,
        epsilon: stage.epsilon,
        sigma: stage.sigma,
        container_size: stage.container_size,
        max_occurrence: stage.max_occurrence,
        occurrence_bound: stage.occurrence_bound,
        preprocess_secs: stage.preprocess_secs,
        train_secs: stage.train_secs,
        per_epoch_secs: stage.train_secs / p.iters as f64 * iters_per_epoch,
        train_iters: p.iters,
        seeds,
        final_loss: stage.final_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::generators;

    fn small_setup(rng: &mut ChaCha8Rng) -> (Graph, PipelineParams) {
        let g = generators::barabasi_albert(250, 4, rng).with_uniform_weights(1.0);
        let mut p = PipelineParams::paper_defaults(g.num_nodes());
        // shrink the budget so tests stay fast
        p.iters = 10;
        p.batch = 4;
        p.hidden = 8;
        p.layers = 2;
        p.subgraph_size = 10;
        p.walk_len = 80;
        (g, p)
    }

    #[test]
    fn celf_reference_is_100_percent() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (g, p) = small_setup(&mut rng);
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        let out = run_method(Method::Celf, &setup, 1).unwrap();
        assert_eq!(out.coverage_ratio, 100.0);
        assert_eq!(out.seeds.len(), 10);
    }

    #[test]
    fn every_learning_method_runs_end_to_end() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (g, p) = small_setup(&mut rng);
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        for m in [
            Method::PrivIm { epsilon: 4.0 },
            Method::PrivImScs { epsilon: 4.0 },
            Method::PrivImStar { epsilon: 4.0 },
            Method::NonPrivate,
            Method::Egn { epsilon: 4.0 },
            Method::Hp { epsilon: 4.0 },
            Method::HpGrat { epsilon: 4.0 },
        ] {
            let out = run_method(m, &setup, 1).unwrap();
            assert_eq!(out.seeds.len(), 10, "{}", out.method);
            assert!(out.spread >= 10.0, "{}: spread {}", out.method, out.spread);
            assert!(out.coverage_ratio > 0.0);
            if m.epsilon().is_some() {
                assert!(out.sigma > 0.0, "{}: sigma not calibrated", out.method);
            } else {
                assert_eq!(out.sigma, 0.0);
            }
        }
    }

    #[test]
    fn dual_stage_bounds_occurrences_but_naive_bound_is_huge() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (g, p) = small_setup(&mut rng);
        let threshold = p.threshold;
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        let star = run_method(Method::PrivImStar { epsilon: 4.0 }, &setup, 1).unwrap();
        assert!(star.max_occurrence <= threshold);
        assert_eq!(star.occurrence_bound, threshold as u64);
        let naive = run_method(Method::PrivIm { epsilon: 4.0 }, &setup, 1).unwrap();
        // layers = 2, θ = 10 ⇒ N_g = 1 + 10 + 100 (Lemma 1)
        assert_eq!(naive.occurrence_bound, 111);
        assert!(naive.occurrence_bound >= 9 * star.occurrence_bound);
        // the effective noise std σ·C·N_g must be far larger for the naive
        // pipeline at the same ε
        let noise_naive = naive.sigma * naive.occurrence_bound as f64;
        let noise_star = star.sigma * star.occurrence_bound as f64;
        assert!(
            noise_naive > 3.0 * noise_star,
            "naive noise {noise_naive} vs star {noise_star}"
        );
    }

    #[test]
    fn non_private_beats_heavy_noise_egn() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (g, mut p) = small_setup(&mut rng);
        p.iters = 30; // enough budget for the non-private model to learn
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        let avg = |m: Method| -> f64 {
            (0..5).map(|r| run_method(m, &setup, r).unwrap().spread).sum::<f64>() / 5.0
        };
        let np = avg(Method::NonPrivate);
        let egn = avg(Method::Egn { epsilon: 1.0 });
        assert!(
            np >= 0.95 * egn,
            "non-private {np} should not trail egn {egn}"
        );
        // EGN's uncontrolled occurrences force vastly more effective noise
        // than PrivIM* at the same ε — the deterministic part of the claim.
        let star = run_method(Method::PrivImStar { epsilon: 1.0 }, &setup, 0).unwrap();
        let egn_run = run_method(Method::Egn { epsilon: 1.0 }, &setup, 0).unwrap();
        let noise_egn = egn_run.sigma * egn_run.occurrence_bound as f64;
        let noise_star = star.sigma * star.occurrence_bound as f64;
        assert!(
            noise_egn > 3.0 * noise_star,
            "egn noise {noise_egn} vs star {noise_star}"
        );
    }

    #[test]
    fn replicates_differ_private_methods() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (g, p) = small_setup(&mut rng);
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        let a = run_method(Method::PrivImStar { epsilon: 2.0 }, &setup, 1).unwrap();
        let b = run_method(Method::PrivImStar { epsilon: 2.0 }, &setup, 2).unwrap();
        // different noise draws -> (almost surely) different seed sets
        assert!(a.seeds != b.seeds || a.spread == b.spread);
    }

    #[test]
    fn serve_artifact_matches_run_method_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (g, p) = small_setup(&mut rng);
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        let m = Method::PrivImStar { epsilon: 4.0 };
        let out = run_method(m, &setup, 1).unwrap();
        let art = export_serve_artifact(m, &setup, 1).unwrap();
        // Identical rep ⇒ identical RNG stream ⇒ bit-identical model: the
        // served model must score the graph to the same seed set.
        let scores = art.model.score_graph(&g);
        let seeds = heuristics::score_top_k(&scores, setup.k);
        assert_eq!(seeds, out.seeds);
        assert_eq!(art.sigma, out.sigma);
        assert_eq!(art.epsilon, Some(4.0));
        assert_eq!(art.delta, setup.params.delta);
        assert_eq!(art.steps, setup.params.iters);
    }

    #[test]
    fn serve_artifact_rejects_non_learning_methods() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (g, p) = small_setup(&mut rng);
        let setup = EvalSetup::with_params(&g, 10, p, &mut rng);
        for m in [Method::Celf, Method::Degree, Method::Random] {
            let err = export_serve_artifact(m, &setup, 0).unwrap_err();
            assert!(
                matches!(err, privim_rt::PrivimError::InvalidInput(_)),
                "{m:?}: {err:?}"
            );
        }
    }

    #[test]
    fn method_names_and_epsilons() {
        assert_eq!(Method::PrivImStar { epsilon: 2.0 }.name(), "privim*");
        assert_eq!(
            Method::PrivImStarWith {
                epsilon: 2.0,
                kind: GnnKind::Gin
            }
            .name(),
            "privim*:gin"
        );
        assert_eq!(Method::NonPrivate.epsilon(), None);
        assert_eq!(Method::Hp { epsilon: 3.0 }.epsilon(), Some(3.0));
    }
}
