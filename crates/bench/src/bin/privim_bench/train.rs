//! The two DP-SGD workloads: `run_method` on the Facebook-calibrated graph
//! at the paper defaults, with PrivIM* (n = 70 subgraphs, Gaussian noise)
//! and with HP-GRAT (≈11k θ-capped ego subgraphs, SML noise).
//!
//! The untraced run times whole `run_method` calls. The traced run replays
//! `run_method`'s RNG plumbing through the pipeline's public calls, one
//! span per layer, and asserts it selects the same seeds; it then replays
//! the first DP-SGD steps one per-sample call at a time and asserts the
//! parameters equal `train_dpgnn`'s bit for bit.

use crate::speed;
use crate::stats::{median, tail};
use crate::trace::{self_times, Trace};
use crate::{peak_rss_mb, Opts, Outcome};
use privim::baselines::hp_container;
use privim::pipeline::{run_method, EvalSetup, Method, PipelineParams};
use privim::trainer::NoiseKind;
use privim::{im_loss, train_dpgnn, DpSgdConfig, MethodOutput, TrainItem};
use privim_dp::accountant::{calibrate_sigma, PrivacyParams};
use privim_dp::mechanisms::{gaussian_noise_vec, sml_noise_vec};
use privim_dp::sensitivity::node_sensitivity;
use privim_gnn::{GnnConfig, GnnKind, GnnModel, FEATURE_DIM};
use privim_graph::datasets::Dataset;
use privim_graph::{Graph, NodeId};
use privim_im::{coverage_ratio, heuristics::score_top_k, one_step_spread};
use privim_rt::{ChaCha8Rng, PrivimError, PrivimResult, Rng, SeedableRng};
use privim_sampling::{dual_stage_sampling, DualStageConfig, FreqConfig, SubgraphContainer};
use privim_tensor::{GradClip, Matrix, Tape};
use std::hint::black_box;
use std::time::Instant;

/// Which private method a training workload runs.
#[derive(Clone, Copy)]
pub enum Kind {
    Star,
    Hp,
}

const EPSILON: f64 = 3.0;
/// Seed-set size (the experiment binaries' default).
const K: usize = 50;
/// The Facebook-calibrated graph is a fixed dataset, generated from the
/// experiment binaries' default seed; `--seed` picks the replicates.
const DATASET_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// DP-SGD steps replayed one per-sample call at a time.
const REPLAY_STEPS: usize = 10;

impl Kind {
    fn method(self) -> Method {
        match self {
            Kind::Star => Method::PrivImStar { epsilon: EPSILON },
            Kind::Hp => Method::HpGrat { epsilon: EPSILON },
        }
    }

    /// Seconds one `run_method` call took on the seed commit (2-vCPU x86
    /// VM, one worker thread), rounded up.
    fn nominal_run_s(self) -> f64 {
        match self {
            Kind::Star => 4.0,
            Kind::Hp => 1.6,
        }
    }

    /// Measured replicates in a run of `seconds` on `lanes` cores: a fixed
    /// count, so that a faster change measures the same replicates as its
    /// parent.
    fn replicates(self, seconds: f64, lanes: u64) -> u64 {
        ((seconds / self.nominal_run_s()) as u64).max(1) * lanes
    }
}

/// One measured `run_method` call: its wall seconds and `train_secs`, and
/// the factor that scales both to the reference speed.
struct Unit {
    wall: f64,
    train: f64,
    scale: f64,
}

fn params(g: &Graph, smoke: bool) -> PipelineParams {
    let mut p = PipelineParams::paper_defaults(g.num_nodes());
    if smoke {
        p.iters = 10;
        p.batch = 8;
        p.walk_len = 50;
        p.expected_starts = 64;
    }
    p
}

/// The evaluation set-up of one seed: the graph plus what
/// `EvalSetup::with_params` derives from it (split, CELF reference).
struct Prepared {
    graph: Graph,
    train_graph: privim_graph::Subgraph,
    celf_spread: f64,
    celf_seeds: Vec<NodeId>,
    params: PipelineParams,
    k: usize,
}

impl Prepared {
    /// Generate the Facebook-calibrated graph and build its evaluation
    /// set-up — the work `setup_s` times.
    fn build(smoke: bool) -> Prepared {
        let mut rng = ChaCha8Rng::seed_from_u64(DATASET_SEED);
        let scale = if smoke { 0.02 } else { 1.0 };
        let graph = Dataset::Facebook.generate_scaled(scale, &mut rng);
        let p = params(&graph, smoke);
        let k = if smoke { 10 } else { K };
        let s = EvalSetup::with_params(&graph, k, p, &mut rng);
        let (train_graph, celf_spread, celf_seeds) = (s.train_graph, s.celf_spread, s.celf_seeds);
        Prepared {
            graph,
            train_graph,
            celf_spread,
            celf_seeds,
            params: p,
            k,
        }
    }

    fn setup(&self) -> EvalSetup<'_> {
        EvalSetup {
            graph: &self.graph,
            train_graph: self.train_graph.clone(),
            k: self.k,
            celf_spread: self.celf_spread,
            celf_seeds: self.celf_seeds.clone(),
            params: self.params,
        }
    }
}

/// Checks every `run_method` output must pass: same seeds, spread, σ and
/// loss as the first rep (training is deterministic per rep), a full seed
/// set, and a container that respects the occurrence bound it was
/// calibrated to.
fn check_output(out: &MethodOutput, first: &MethodOutput, k: usize, problems: &mut Vec<String>) {
    let same = out.seeds == first.seeds
        && out.spread.to_bits() == first.spread.to_bits()
        && out.sigma.to_bits() == first.sigma.to_bits()
        && out.final_loss.to_bits() == first.final_loss.to_bits()
        && out.coverage_ratio.to_bits() == first.coverage_ratio.to_bits();
    if !same {
        problems.push(format!(
            "{}: reps of one seed are not bit-identical",
            out.method
        ));
    }
    if out.seeds.len() != k {
        problems.push(format!(
            "{}: {} seeds, expected {k}",
            out.method,
            out.seeds.len()
        ));
    }
    if u64::from(out.max_occurrence) > out.occurrence_bound {
        problems.push(format!(
            "{}: max occurrence {} exceeds N_g = {}",
            out.method, out.max_occurrence, out.occurrence_bound
        ));
    }
}

/// One timed `run_method` call of replicate `rep`, checked against
/// `reference` (an earlier output of the same replicate) when given.
/// Returns the wall seconds and the output, or `None` if the call failed.
fn timed_run(
    method: Method,
    setup: &EvalSetup<'_>,
    rep: u64,
    reference: Option<&MethodOutput>,
    out: &mut Outcome,
) -> Option<(f64, MethodOutput)> {
    let t = Instant::now();
    let res = run_method(method, setup, rep);
    let wall = t.elapsed().as_secs_f64();
    out.attempted += 1;
    match res {
        Ok(o) => {
            check_output(&o, reference.unwrap_or(&o), setup.k, &mut out.problems);
            Some((wall, o))
        }
        Err(e) => {
            out.failed += 1;
            out.problems.push(format!("run_method failed: {e}"));
            None
        }
    }
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let method = kind.method();
    // Replicates differ in the container they sample, and so in cost: a
    // run measures several distinct ones, all picked by the seed.
    let rep = |i: u64| opts.seed.wrapping_mul(1_000).wrapping_add(i);

    // Lane l runs on the l-th allowed CPU; the set-ups and the warm-up run
    // on the first. Every time is scaled to the reference speed by probes
    // of its core taken right before and right after it (speed.rs).
    let cpus = speed::cpus();
    let lanes = cpus.len().clamp(1, 2) as u64;
    if let Some(&cpu) = cpus.first() {
        speed::pin(cpu);
    }
    let build = || {
        let before = speed::probe_ms();
        let t = Instant::now();
        let p = black_box(Prepared::build(opts.smoke));
        let secs = t.elapsed().as_secs_f64();
        ((secs, speed::factor(before, speed::probe_ms())), p)
    };
    let (first_setup, prepared) = build();
    let mut setups = vec![first_setup];
    if !opts.trace {
        setups.extend((1..SETUP_REPS).map(|_| build().0));
    }
    let setup = prepared.setup();

    // A warm-up of the first replicate, whose output its measured run
    // must equal bit for bit; then one run per replicate, lane l taking
    // replicates l, l + lanes, l + 2·lanes, ...
    let Some((_, first)) = timed_run(method, &setup, rep(0), None, &mut out) else {
        return out;
    };
    if opts.trace {
        traced(kind, &setup, rep(0), &first, opts, &mut out);
        return out;
    }
    // The peak of one call, before two run at once and their peaks may or
    // may not coincide.
    let rss = peak_rss_mb(None);
    let count = kind.replicates(opts.seconds, lanes);
    let per_lane: Vec<(Outcome, Vec<Unit>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (setup, first, cpus) = (&setup, &first, &cpus);
                s.spawn(move || {
                    if let Some(&cpu) = cpus.get(lane as usize) {
                        speed::pin(cpu);
                    }
                    let mut out = Outcome::default();
                    let mut units = Vec::new();
                    for i in (lane..count).step_by(lanes as usize) {
                        let reference = (i == 0).then_some(first);
                        let before = speed::probe_ms();
                        let Some((wall, o)) = timed_run(method, setup, rep(i), reference, &mut out)
                        else {
                            break;
                        };
                        units.push(Unit {
                            wall,
                            train: o.train_secs,
                            scale: speed::factor(before, speed::probe_ms()),
                        });
                    }
                    (out, units)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replicate lane panicked"))
            .collect()
    });
    let mut units = Vec::new();
    for (lane, lane_units) in per_lane {
        out.attempted += lane.attempted;
        out.failed += lane.failed;
        out.problems.extend(lane.problems);
        units.extend(lane_units);
    }
    eprintln!(
        "replicates, unscaled (wall_ms, train_secs, scale): {:.3?}",
        units
            .iter()
            .map(|u| (u.wall * 1e3, u.train, u.scale))
            .collect::<Vec<_>>()
    );
    let walls: Vec<f64> = units.iter().map(|u| u.wall * 1e3 * u.scale).collect();
    let trains: Vec<f64> = units.iter().map(|u| u.train * u.scale).collect();
    let setup_s: Vec<f64> = setups.iter().map(|(secs, scale)| secs * scale).collect();
    out.metric("setup_s", median(&setup_s), setup_s.len());
    out.metric("latency_ms", median(&walls), walls.len());
    out.metric(
        "throughput_per_s",
        setup.params.iters as f64 / median(&trains),
        trains.len(),
    );
    out.metric("peak_rss_mb", rss, 1);
    out
}

/// What the traced replay hands to the step replay: the exact training
/// inputs `run_method` used.
struct Plan {
    items: Vec<TrainItem>,
    init: GnnModel,
    cfg: DpSgdConfig,
    privacy: PrivacyParams,
    delta: f64,
}

struct Replay {
    seeds: Vec<NodeId>,
    spread: f64,
    container: SubgraphContainer,
    bound: u64,
    clipped_frac: f64,
    steps: u64,
    plan: Plan,
}

fn sample_container(
    kind: Kind,
    p: &PipelineParams,
    tg: &Graph,
    rng: &mut ChaCha8Rng,
) -> PrivimResult<(SubgraphContainer, u64, NoiseKind)> {
    Ok(match kind {
        Kind::Star => {
            let v_train = tg.num_nodes();
            let cfg = DualStageConfig {
                stage1: FreqConfig {
                    subgraph_size: p.subgraph_size,
                    return_prob: p.return_prob,
                    decay: p.decay,
                    sampling_rate: (p.expected_starts as f64 / v_train.max(1) as f64).min(1.0),
                    walk_len: p.walk_len,
                    threshold: p.threshold,
                },
                shrink: p.shrink,
                enable_bes: true,
            };
            let out = dual_stage_sampling(tg, &cfg, rng)?;
            (out.container, u64::from(p.threshold), NoiseKind::Gaussian)
        }
        Kind::Hp => {
            let (_, container) = hp_container(tg, p.theta, rng);
            (container, p.theta as u64 + 1, NoiseKind::Sml)
        }
    })
}

/// `run_method` rebuilt from the pipeline's public calls with the same RNG
/// plumbing, one span per layer.
fn replay_run(kind: Kind, setup: &EvalSetup<'_>, rep: u64, t: &mut Trace) -> PrivimResult<Replay> {
    let p = &setup.params;
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e3779b9u64.wrapping_mul(rep + 1));
    let tg = &setup.train_graph.graph;
    let (container, bound, noise) =
        t.time("sampling", || sample_container(kind, p, tg, &mut rng))?;
    if container.is_empty() {
        return Err(PrivimError::empty("sampler returned no subgraphs"));
    }
    let items = t.time("trainer.item_prep", || {
        TrainItem::from_container(&container.subgraphs)
    });
    let privacy = PrivacyParams {
        n_g: bound.max(1),
        batch: p.batch as u64,
        container: container.len().max(1) as u64,
        steps: p.iters as u64,
    };
    let sigma = t.time("dp.calibrate", || {
        calibrate_sigma(EPSILON, p.delta, &privacy)
    });
    let sigma = if noise == NoiseKind::Sml {
        2.0 * sigma
    } else {
        sigma
    };
    let mut model_rng = ChaCha8Rng::seed_from_u64(rng.gen());
    let config = GnnConfig {
        kind: GnnKind::Grat,
        layers: p.layers,
        hidden: p.hidden,
        in_dim: FEATURE_DIM,
    };
    let mut model = t.time("gnn.init", || GnnModel::new(config, &mut model_rng));
    let cfg = DpSgdConfig {
        batch: p.batch,
        iters: p.iters,
        lr: p.lr,
        clip: p.clip,
        sigma,
        occurrence_bound: bound,
        loss: p.loss,
        noise,
        seed: rng.gen(),
        tail_average: true,
        weight_decay: 0.01,
        max_recoveries: 8,
        fault: None,
    };
    let init = model.clone();
    let report = t.time("trainer.train", || train_dpgnn(&mut model, &items, &cfg))?;
    let scores = t.time("gnn.score_graph", || model.score_graph(setup.graph));
    let (seeds, spread) = t.time("im.select", || {
        let seeds = score_top_k(&scores, setup.k);
        let spread = one_step_spread(setup.graph, &seeds) as f64;
        (seeds, spread)
    });
    Ok(Replay {
        seeds,
        spread,
        container,
        bound,
        clipped_frac: report.clipped_fraction,
        steps: report.attempted_steps,
        plan: Plan {
            items,
            init,
            cfg,
            privacy,
            delta: p.delta,
        },
    })
}

/// One sample's forward, loss, backward and clip, each in its own span.
/// Same calls, in the same order, as the trainer's per-sample gradient.
fn sample_gradient(
    model: &GnnModel,
    item: &TrainItem,
    cfg: &DpSgdConfig,
    t: &mut Trace,
) -> (Vec<Matrix>, f64) {
    Tape::with_scratch(|tape| {
        let (probs, pvars) = t.time("forward", || model.forward(tape, &item.gt, &item.x));
        let loss = t.time("loss", || im_loss(tape, &item.gt, probs, &cfg.loss));
        let loss_val = tape.value(loss).get(0, 0);
        let mut gvec: Vec<Matrix> = t.time("backward", || {
            let mut grads = tape.backward(loss);
            pvars.iter().map(|&v| grads.take(v)).collect()
        });
        if cfg.sigma > 0.0 {
            t.time("clip", || GradClip::clip(&mut gvec, cfg.clip));
        }
        (gvec, loss_val)
    })
}

/// The first `steps` DP-SGD steps of `plan`, serially and one public call
/// per span, following `train_dpgnn`'s order of RNG draws and
/// accumulation. Returns the parameters, or `None` if σ is not the
/// accountant's or a step went non-finite (the trainer would have rolled it
/// back, which this replay does not model).
fn replay_steps(plan: &Plan, steps: usize, t: &mut Trace) -> Option<Vec<Matrix>> {
    let cfg = &plan.cfg;
    // The σ being replayed must be the accountant's calibration for this
    // container (doubled for SML, as the pipeline charges it).
    let charged = privim_dp::accountant::calibrate_sigma(EPSILON, plan.delta, &plan.privacy);
    let expected = if cfg.noise == NoiseKind::Sml {
        2.0 * charged
    } else {
        charged
    };
    if expected.to_bits() != cfg.sigma.to_bits() {
        return None;
    }
    let mut model = plan.init.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sensitivity = node_sensitivity(cfg.clip, cfg.occurrence_bound.max(1));
    let noise_std = cfg.sigma * sensitivity;
    let mut summed: Vec<Matrix> = model
        .params()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();
    for _ in 0..steps {
        let healthy = t.span("step", |t| {
            let batch_idx: Vec<usize> = (0..cfg.batch)
                .map(|_| rng.gen_range(0..plan.items.len()))
                .collect();
            let results: Vec<(Vec<Matrix>, f64)> = batch_idx
                .iter()
                .map(|&i| {
                    t.span("sample", |t| {
                        sample_gradient(&model, &plan.items[i], cfg, t)
                    })
                })
                .collect();
            let loss = t.time("sum", || {
                for s in summed.iter_mut() {
                    s.data_mut().fill(0.0);
                }
                let mut loss = 0.0;
                for (gvec, lv) in &results {
                    for (s, g) in summed.iter_mut().zip(gvec) {
                        s.add_assign(g);
                    }
                    loss += lv;
                }
                loss
            });
            if !loss.is_finite() || summed.iter().any(|m| m.has_non_finite()) {
                return false;
            }
            if cfg.sigma > 0.0 {
                t.time("noise", || {
                    for s in summed.iter_mut() {
                        let noise = match cfg.noise {
                            NoiseKind::Gaussian => {
                                gaussian_noise_vec(s.data().len(), cfg.sigma, sensitivity, &mut rng)
                            }
                            NoiseKind::Sml => sml_noise_vec(s.data().len(), noise_std, &mut rng),
                        };
                        privim_tensor::simd::add_assign(s.data_mut(), &noise);
                    }
                });
            }
            t.time("update", || {
                let scale = cfg.lr / cfg.batch as f64;
                let keep = 1.0 - cfg.weight_decay.clamp(0.0, 1.0);
                for (p, g) in model.params_mut().iter_mut().zip(&summed) {
                    p.add_scaled_assign(g, -scale);
                    if keep < 1.0 {
                        privim_tensor::simd::scale(p.data_mut(), keep);
                    }
                }
            });
            !model.params().iter().any(|p| p.has_non_finite())
        });
        if !healthy {
            return None;
        }
    }
    Some(model.params().to_vec())
}

/// The traced run: untraced `run_method` calls alternating with traced
/// replays (the last replay's spans are reported), then the per-step
/// replay.
// privim-lint: allow(dp-taint, reason = "serializes span timings of the replay; its gradients never leave replay_steps, which clips and adds the accountant's noise as train_dpgnn does")
fn traced(
    kind: Kind,
    setup: &EvalSetup<'_>,
    rep: u64,
    first: &MethodOutput,
    opts: &Opts,
    out: &mut Outcome,
) {
    let method = kind.method();
    let (mut untraced, mut walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..2 {
        let Some((wall, _)) = timed_run(method, setup, rep, Some(first), out) else {
            return;
        };
        untraced.push(wall);
        let mut t = Trace::new();
        let started = Instant::now();
        let replay = t.span("run", |t| replay_run(kind, setup, rep, t));
        walls.push(started.elapsed().as_secs_f64());
        out.attempted += 1;
        match replay {
            Ok(r) => last = Some((r, t)),
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("traced replay failed: {e}"));
                return;
            }
        }
    }
    let Some((r, t)) = last else { return };
    if r.seeds != first.seeds || r.spread.to_bits() != first.spread.to_bits() {
        out.problems
            .push("traced replay selected a different seed set than run_method".to_string());
    }

    // Spans must explain the run: what no layer span covers is the root's
    // self time, and it must stay under 5% of the run.
    let root = &t.spans()[0];
    let wall = root.end - root.start;
    let uncovered = self_times(t.spans())[0];
    if uncovered > 0.05 * wall {
        out.problems.push(format!(
            "layer spans cover only {:.1}% of the traced run",
            100.0 * (1.0 - uncovered / wall)
        ));
    }

    // Per-step replay against the trainer itself.
    let steps = if opts.smoke { 3 } else { REPLAY_STEPS };
    let cfg = DpSgdConfig {
        iters: steps,
        tail_average: false,
        ..r.plan.cfg
    };
    let mut reference = r.plan.init.clone();
    let reference_ok = train_dpgnn(&mut reference, &r.plan.items, &cfg).is_ok();
    let plan = Plan { cfg, ..r.plan };
    let mut st = Trace::new();
    let replayed = replay_steps(&plan, steps, &mut st);
    let identical = reference_ok
        && replayed.as_ref().is_some_and(|params| {
            params.len() == reference.params().len()
                && params.iter().zip(reference.params()).all(|(a, b)| {
                    a.data()
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(b.data().iter().map(|x| x.to_bits()))
                })
        });
    if !identical {
        out.problems.push(format!(
            "per-step replay of {steps} steps does not match train_dpgnn bit for bit"
        ));
    }

    let step_ms = |name: &str| {
        let per_step: Vec<f64> = st.per_group("step", name).iter().map(|s| s * 1e3).collect();
        median(&per_step)
    };
    let traced_wall = median(&walls);
    let ms: Vec<f64> = untraced.iter().map(|w| w * 1e3).collect();
    out.metric("latency.p50_ms", median(&ms), ms.len());
    out.metric("latency.tail_ms", tail(&ms).1, ms.len());
    out.metric("sampling.busy_s", t.self_total("sampling"), 1);
    out.metric("sampling.subgraphs", r.container.len() as f64, 1);
    out.metric(
        "sampling.occurrence_ratio",
        f64::from(r.container.max_occurrence()) / r.bound as f64,
        1,
    );
    out.metric("trainer.item_prep_s", t.self_total("trainer.item_prep"), 1);
    out.metric("dp.calibrate_s", t.self_total("dp.calibrate"), 1);
    out.metric("trainer.train_s", t.self_total("trainer.train"), 1);
    out.metric("trainer.steps", r.steps as f64, 1);
    for (metric, span) in [
        ("trainer.step.forward_ms", "forward"),
        ("trainer.step.loss_ms", "loss"),
        ("trainer.step.backward_ms", "backward"),
        ("trainer.step.clip_ms", "clip"),
        ("trainer.step.sum_ms", "sum"),
        ("trainer.step.noise_ms", "noise"),
        ("trainer.step.update_ms", "update"),
    ] {
        out.metric(metric, step_ms(span), steps);
    }
    out.metric("trainer.step.samples", cfg.batch as f64, 1);
    out.metric("trainer.clipped_frac", r.clipped_frac, 1);
    out.metric("gnn.score_graph_s", t.self_total("gnn.score_graph"), 1);
    out.metric("im.select_s", t.self_total("im.select"), 1);
    out.metric(
        "quality.coverage_pct",
        coverage_ratio(r.spread, setup.celf_spread),
        1,
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * crate::stats::rel_diff(traced_wall, median(&untraced)),
        walls.len(),
    );
    out.trace = Some(privim_rt::json::Value::obj(vec![
        ("run", t.to_json()),
        ("steps", st.to_json()),
    ]));
}
