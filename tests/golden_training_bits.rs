//! Golden training bits for the attention models (GAT and GRAT).
//!
//! Both train through one fused tape op, `Tape::attend` (DESIGN.md §10.5),
//! whose backward reproduces, bit for bit, the gradients of the gather →
//! contract → leaky-ReLU → segment-softmax → scale → scatter chain it
//! replaced. The CRC-32 hashes below were recorded from that chain. They
//! move if any floating-point operation in the attention forward or
//! backward changes order: the arc-order `a_dst`/`a_src` sums, the
//! exact-zero `hw` skip, or the target pass running before the source pass.

use privim::loss::{im_loss, LossConfig};
use privim::trainer::{train_dpgnn, DpSgdConfig, TrainItem};
use privim_gnn::{node_features, GnnConfig, GnnKind, GnnModel, GraphTensors};
use privim_graph::{generators, induced_subgraph, Graph, GraphBuilder, Subgraph};
use privim_rt::{ChaCha8Rng, SeedableRng};
use privim_sampling::{freq_sampling, FreqConfig};
use privim_tensor::{Matrix, Tape};

/// CRC-32 of the matrices' bits, every NaN folded to one pattern (NaN
/// payloads are not part of the determinism contract).
fn hash(mats: &[Matrix]) -> u32 {
    let mut bytes = Vec::new();
    for v in mats.iter().flat_map(|m| m.data()) {
        let v = if v.is_nan() { f64::NAN } else { *v };
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    privim_rt::crc::crc32(&bytes)
}

/// Seeded random-walk subgraphs near the train-star shape (≈35 nodes).
fn sampled() -> Vec<Subgraph> {
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let g = generators::barabasi_albert(300, 4, &mut rng).with_uniform_weights(1.0);
    let mut freq = vec![0u32; g.num_nodes()];
    let cfg = FreqConfig {
        subgraph_size: 35,
        return_prob: 0.3,
        decay: 1.0,
        sampling_rate: 1.0,
        walk_len: 200,
        threshold: 6,
    };
    let sets = freq_sampling(&g, &mut freq, &cfg, &mut rng).unwrap();
    sets.iter().map(|s| induced_subgraph(&g, s)).collect()
}

/// The per-sample cases: six sampled subgraphs, a graph whose node 5 has
/// only its self-loop, an edgeless graph and a directed preferential graph.
fn graphs() -> Vec<Graph> {
    let mut out: Vec<Graph> = sampled().into_iter().take(6).map(|s| s.graph).collect();
    let mut b = GraphBuilder::new_directed(6);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 1), (0, 3)] {
        b.add_edge_unit(u, v);
    }
    out.push(b.build());
    out.push(Graph::empty(4, true));
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    out.push(generators::directed_preferential(20, 2.0, &mut rng));
    out
}

/// A paper-default model of `kind`. `sharpened` widens the attention
/// vectors (α far from uniform) and zeroes one `W` column per layer, so
/// every layer's `hw` has a column of exact zeros.
fn model(kind: GnnKind, sharpened: bool) -> GnnModel {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let mut m = GnnModel::new(GnnConfig::paper_default_with(kind), &mut rng);
    if sharpened {
        for l in 0..m.config().layers {
            let p = m.params_mut();
            for r in 0..p[4 * l].rows() {
                p[4 * l].set(r, 3 + l, 0.0);
            }
            p[4 * l + 1] = p[4 * l + 1].scale(20.0);
            p[4 * l + 2] = p[4 * l + 2].scale(20.0);
        }
    }
    m
}

/// One sample's parameter gradients under the Eq. 5 loss times `scale`.
fn sample_gradient(model: &GnnModel, g: &Graph, scale: f64) -> Vec<Matrix> {
    let (gt, x) = (GraphTensors::new(g), node_features(g));
    let mut tape = Tape::new();
    let (probs, pvars) = model.forward(&mut tape, &gt, &x);
    let loss = im_loss(&mut tape, &gt, probs, &LossConfig::paper_default());
    let loss = tape.scale(loss, scale);
    let mut grads = tape.backward(loss);
    pvars.iter().map(|&v| grads.take(v)).collect()
}

fn sample_hash(kind: GnnKind, sharpened: bool, scale: f64) -> u32 {
    let m = model(kind, sharpened);
    let grads: Vec<Matrix> = graphs()
        .iter()
        .flat_map(|g| sample_gradient(&m, g, scale))
        .collect();
    hash(&grads)
}

/// Parameters after 10 DP-SGD steps at noise multiplier `sigma`. With
/// `sigma = 0` (the non-private baseline) no noise absorbs last-bit
/// differences in the summed gradients, so that run is the sharper probe.
fn training_hash(kind: GnnKind, sigma: f64) -> u32 {
    let items = TrainItem::from_container(&sampled());
    let mut m = model(kind, false);
    let cfg = DpSgdConfig {
        iters: 10,
        ..DpSgdConfig::paper_default(sigma, 6)
    };
    train_dpgnn(&mut m, &items, &cfg).unwrap();
    hash(m.params())
}

/// Compare every case before failing, so one run reports all hashes.
fn check(cases: &[(&str, u32, u32)]) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("{name}: want {want:#010x}, got {got:#010x}"))
        .collect();
    assert!(bad.is_empty(), "golden bits moved:\n{}", bad.join("\n"));
}

#[test]
fn per_sample_attention_gradients_match_golden_bits() {
    use GnnKind::{Gat, Grat};
    let max = f64::MAX;
    check(&[
        ("gat", 0xe52ebde1, sample_hash(Gat, false, 1.0)),
        ("grat", 0x2154e919, sample_hash(Grat, false, 1.0)),
        ("gat sharpened", 0x111e80a0, sample_hash(Gat, true, 1.0)),
        ("grat sharpened", 0x0d545a29, sample_hash(Grat, true, 1.0)),
        // A loss scaled until the backward overflows: the zeroed `hw`
        // columns keep exactly-zero attention gradients only because the
        // parameter sums skip exact-zero `hw` entries (0 · ∞ would be NaN).
        ("gat overflow", 0x4d050164, sample_hash(Gat, true, max)),
        ("grat overflow", 0xe538e241, sample_hash(Grat, true, max)),
    ]);
}

#[test]
fn ten_step_training_matches_golden_bits() {
    use GnnKind::{Gat, Grat};
    check(&[
        ("gat dp", 0x0bff44f9, training_hash(Gat, 0.8)),
        ("grat dp", 0xefc88c04, training_hash(Grat, 0.8)),
        ("gat non-private", 0xc4d68e39, training_hash(Gat, 0.0)),
        ("grat non-private", 0xa2e67cb1, training_hash(Grat, 0.0)),
    ]);
}
