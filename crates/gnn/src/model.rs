//! The five GNN architectures behind one interface.
//!
//! [`GnnModel::forward`] builds the differentiable graph on a
//! [`Tape`] (training path, per-subgraph), while [`GnnModel::infer`]
//! runs the identical computation tape-free (inference path — needed for
//! full-graph seed scoring where taping 200K-node intermediates would waste
//! memory). A unit test pins both paths to the same output.

use crate::features::FEATURE_DIM;
use crate::structures::GraphTensors;
use privim_rt::{PrivimError, PrivimResult, Rng};
use privim_tensor::{attention, init, Matrix, Tape, Var};
use std::sync::Arc;

/// Format tag written into every model checkpoint file.
pub const CHECKPOINT_FORMAT: &str = "privim-gnn-checkpoint";

/// Current checkpoint format version. Bump on incompatible layout changes;
/// [`GnnModel::load_json`] rejects any other version with a typed error.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Parse a `0x`-prefixed (or bare) hex string into a `u32`.
fn parse_hex_u32(s: &str) -> Option<u32> {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    if digits.is_empty() || digits.len() > 8 {
        return None;
    }
    u32::from_str_radix(digits, 16).ok()
}

/// Which architecture (Appendix G).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Degree-normalised convolution (Kipf & Welling).
    Gcn,
    /// Mean aggregation + concatenation (Hamilton et al.).
    GraphSage,
    /// Attention normalised per target (Veličković et al.).
    Gat,
    /// Attention normalised per source — the paper's default (Ni et al.).
    Grat,
    /// Sum aggregation through an MLP (Xu et al.).
    Gin,
}

impl GnnKind {
    /// All five evaluated kinds (Fig. 9 order).
    pub const ALL: [GnnKind; 5] = [
        GnnKind::GraphSage,
        GnnKind::Gcn,
        GnnKind::Gat,
        GnnKind::Gin,
        GnnKind::Grat,
    ];

    /// Lowercase CLI name.
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Gcn => "gcn",
            GnnKind::GraphSage => "graphsage",
            GnnKind::Gat => "gat",
            GnnKind::Grat => "grat",
            GnnKind::Gin => "gin",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<GnnKind> {
        let l = name.to_ascii_lowercase();
        Self::ALL.into_iter().find(|k| k.name() == l)
    }
}

/// Model hyperparameters. Paper defaults: 3 layers × 32 hidden units.
#[derive(Clone, Copy, Debug)]
pub struct GnnConfig {
    /// Architecture.
    pub kind: GnnKind,
    /// Number of message-passing layers `r`.
    pub layers: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Input feature dimension.
    pub in_dim: usize,
}

impl GnnConfig {
    /// JSON form `{"kind", "layers", "hidden", "in_dim"}` (the `config`
    /// section of checkpoints).
    pub fn to_json(&self) -> privim_rt::json::Value {
        use privim_rt::json::Value;
        Value::obj(vec![
            ("kind", Value::Str(self.kind.name().to_string())),
            ("layers", Value::Num(self.layers as f64)),
            ("hidden", Value::Num(self.hidden as f64)),
            ("in_dim", Value::Num(self.in_dim as f64)),
        ])
    }

    /// Parse the [`Self::to_json`] form, rejecting degenerate dimensions.
    pub fn from_json(cfg: &privim_rt::json::Value) -> PrivimResult<Self> {
        let bad = |msg: String| PrivimError::Parse(format!("gnn config: {msg}"));
        let kind = cfg
            .get("kind")
            .and_then(|v| v.as_str())
            .and_then(GnnKind::from_name)
            .ok_or_else(|| bad("bad kind".into()))?;
        let field = |name: &str| {
            cfg.get(name)
                .and_then(|v| v.as_usize())
                .ok_or_else(|| bad(format!("bad {name}")))
        };
        let config = GnnConfig {
            kind,
            layers: field("layers")?,
            hidden: field("hidden")?,
            in_dim: field("in_dim")?,
        };
        if config.layers < 1 || config.hidden < 1 || config.in_dim < 1 {
            return Err(bad("dimensions must be >= 1".into()));
        }
        Ok(config)
    }

    /// The paper's default: 3-layer GRAT, 32 hidden units, structural
    /// features.
    pub fn paper_default() -> Self {
        GnnConfig {
            kind: GnnKind::Grat,
            layers: 3,
            hidden: 32,
            in_dim: FEATURE_DIM,
        }
    }

    /// Same defaults with a different architecture (Fig. 9 sweeps).
    pub fn paper_default_with(kind: GnnKind) -> Self {
        GnnConfig {
            kind,
            ..Self::paper_default()
        }
    }
}

/// A GNN with its parameters. Parameter layout is architecture-specific;
/// use [`Self::params`]/[`Self::params_mut`] for optimisation and
/// [`Self::forward`]'s returned vars to fetch per-parameter gradients.
///
/// Serialisable: a trained (privatised) model can be persisted as JSON
/// and shipped — under DP, releasing the trained parameters is exactly the
/// threat model the training pipeline protects.
#[derive(Clone, Debug)]
pub struct GnnModel {
    config: GnnConfig,
    params: Vec<Matrix>,
}

impl GnnModel {
    /// Initialise with Xavier weights (attention vectors and biases near
    /// zero, GIN ε at zero — standard defaults).
    pub fn new(config: GnnConfig, rng: &mut impl Rng) -> Self {
        assert!(config.layers >= 1 && config.hidden >= 1 && config.in_dim >= 1);
        let mut params = Vec::new();
        let h = config.hidden;
        for l in 0..config.layers {
            let d_in = if l == 0 { config.in_dim } else { h };
            match config.kind {
                GnnKind::Gcn => {
                    params.push(init::xavier_uniform(d_in, h, rng));
                    params.push(Matrix::zeros(1, h));
                }
                GnnKind::GraphSage => {
                    params.push(init::xavier_uniform(2 * d_in, h, rng));
                    params.push(Matrix::zeros(1, h));
                }
                GnnKind::Gat | GnnKind::Grat => {
                    params.push(init::xavier_uniform(d_in, h, rng));
                    params.push(init::xavier_uniform(h, 1, rng).scale(0.1)); // a_dst
                    params.push(init::xavier_uniform(h, 1, rng).scale(0.1)); // a_src
                    params.push(Matrix::zeros(1, h));
                }
                GnnKind::Gin => {
                    // Damped first-layer init: GIN's *sum* aggregation sees
                    // pre-activations that scale with node degree, so
                    // full-gain Xavier saturates the MLP on hubs and kills
                    // the ranking signal; a 0.2 gain keeps hub activations
                    // in the trainable range (the instability Fig. 9's
                    // discussion attributes to GIN shows up here).
                    params.push(init::xavier_uniform(d_in, h, rng).scale(0.2));
                    params.push(Matrix::zeros(1, h));
                    params.push(init::xavier_uniform(h, h, rng));
                    params.push(Matrix::zeros(1, h));
                    params.push(Matrix::zeros(1, 1)); // ε
                }
            }
        }
        // readout; the bias starts negative so initial seed probabilities
        // sit near 0.1 instead of 0.5 — with unit IC weights that keeps the
        // loss' diffusion term unsaturated and the hub-seeking gradient
        // alive from step one.
        params.push(init::xavier_uniform(h, 1, rng));
        params.push(Matrix::full(1, 1, -2.0));
        GnnModel { config, params }
    }

    /// Architecture configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Immutable parameter list.
    pub fn params(&self) -> &[Matrix] {
        &self.params
    }

    /// Mutable parameter list (optimiser updates).
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.params.iter().map(|p| p.rows() * p.cols()).sum()
    }

    /// The checkpoint payload (config + parameters) as a JSON value. This
    /// is what [`CHECKPOINT_VERSION`] versions and the CRC-32 covers; the
    /// serve bundle embeds it verbatim.
    pub fn checkpoint_payload(&self) -> privim_rt::json::Value {
        use privim_rt::json::Value;
        Value::obj(vec![
            ("config", self.config.to_json()),
            (
                "params",
                Value::Arr(self.params.iter().map(Matrix::to_json).collect()),
            ),
        ])
    }

    /// Persist the model as a versioned, checksummed JSON checkpoint:
    ///
    /// ```json
    /// {"format": "privim-gnn-checkpoint", "version": 1,
    ///  "crc32": "0x…", "payload": {…}}
    /// ```
    ///
    /// The CRC-32 is computed over the compact serialisation of `payload`,
    /// so truncation or bit flips anywhere in the parameters are detected
    /// at load time instead of silently producing a wrong model.
    pub fn save_json<W: std::io::Write>(&self, mut w: W) -> PrivimResult<()> {
        use privim_rt::json::Value;
        let payload = self.checkpoint_payload();
        let payload_text = payload.to_json_string();
        let crc = privim_rt::crc::crc32(payload_text.as_bytes());
        let doc = Value::obj(vec![
            ("format", Value::Str(CHECKPOINT_FORMAT.to_string())),
            ("version", Value::Num(CHECKPOINT_VERSION as f64)),
            ("crc32", Value::Str(format!("{crc:#010x}"))),
            ("payload", payload),
        ]);
        w.write_all(doc.to_json_string().as_bytes())
            .map_err(|e| PrivimError::io("writing model checkpoint", e))
    }

    /// Load a model persisted with [`Self::save_json`]. Verifies the
    /// format name, format version, and payload CRC-32, then validates the
    /// parameter layout against the stored config. Every failure mode —
    /// truncated file, flipped bit, wrong version, wrong shape — surfaces
    /// as a typed [`PrivimError`], never a panic.
    pub fn load_json<R: std::io::Read>(mut r: R) -> PrivimResult<Self> {
        use privim_rt::json::Value;
        let mut text = String::new();
        r.read_to_string(&mut text)
            .map_err(|e| PrivimError::io("reading model checkpoint", e))?;
        let json = Value::parse(&text)
            .map_err(|e| PrivimError::Parse(format!("model checkpoint: {e}")))?;
        let format = json.get("format").and_then(|v| v.as_str()).unwrap_or("");
        if format != CHECKPOINT_FORMAT {
            return Err(PrivimError::Parse(format!(
                "not a {CHECKPOINT_FORMAT} file (format = {format:?})"
            )));
        }
        let version = json.get("version").and_then(|v| v.as_u64());
        if version != Some(CHECKPOINT_VERSION) {
            return Err(PrivimError::invalid(format!(
                "checkpoint version {version:?} not supported (expected {CHECKPOINT_VERSION})"
            )));
        }
        let payload = json
            .get("payload")
            .ok_or_else(|| PrivimError::Parse("checkpoint missing payload".into()))?;
        let stored_crc = json
            .get("crc32")
            .and_then(|v| v.as_str())
            .and_then(parse_hex_u32)
            .ok_or_else(|| PrivimError::Parse("checkpoint missing/bad crc32".into()))?;
        let actual_crc = privim_rt::crc::crc32(payload.to_json_string().as_bytes());
        if stored_crc != actual_crc {
            return Err(PrivimError::Parse(format!(
                "checkpoint checksum mismatch (stored {stored_crc:#010x}, computed \
                 {actual_crc:#010x}) — file is corrupted or truncated"
            )));
        }
        Self::from_checkpoint_payload(payload)
    }

    /// Decode the (already checksum-verified) checkpoint payload.
    pub fn from_checkpoint_payload(payload: &privim_rt::json::Value) -> PrivimResult<Self> {
        let bad = |msg: String| PrivimError::Parse(format!("model checkpoint: {msg}"));
        let cfg = payload
            .get("config")
            .ok_or_else(|| bad("missing config".into()))?;
        let config = GnnConfig::from_json(cfg)?;
        let params: Vec<Matrix> = payload
            .get("params")
            .and_then(|v| v.as_array())
            .ok_or_else(|| bad("missing params".into()))?
            .iter()
            .map(|v| Matrix::from_json(v).map_err(bad))
            .collect::<Result<_, _>>()?;
        Self::from_parts(config, params)
    }

    /// Assemble a model from a config and an explicit parameter list
    /// (decoded checkpoints). Validates the layout against a freshly
    /// initialised reference model so a shape mismatch surfaces as a typed
    /// error instead of a forward-pass panic.
    pub fn from_parts(config: GnnConfig, params: Vec<Matrix>) -> PrivimResult<Self> {
        if config.layers < 1 || config.hidden < 1 || config.in_dim < 1 {
            return Err(PrivimError::invalid("gnn config dimensions must be >= 1"));
        }
        let model = GnnModel { config, params };
        // cheap sanity: rebuild a reference model and compare shapes
        let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(0);
        use privim_rt::SeedableRng as _;
        let reference = GnnModel::new(model.config, &mut rng);
        if reference.params.len() != model.params.len()
            || reference
                .params
                .iter()
                .zip(&model.params)
                .any(|(a, b)| a.shape() != b.shape())
        {
            return Err(PrivimError::Parse(
                "model checkpoint: parameter layout does not match config".into(),
            ));
        }
        Ok(model)
    }

    /// Differentiable forward pass: registers every parameter as a tape
    /// leaf and returns `(probabilities, param_vars)` where
    /// `probabilities` is the `n×1` sigmoid seed-probability vector and
    /// `param_vars[i]` corresponds to `self.params()[i]`.
    pub fn forward(&self, tape: &mut Tape, gt: &GraphTensors, x: &Matrix) -> (Var, Vec<Var>) {
        assert_eq!(x.rows(), gt.n, "feature row count mismatch");
        assert_eq!(x.cols(), self.config.in_dim, "feature dim mismatch");
        let pvars: Vec<Var> = self.params.iter().map(|p| tape.leaf(p.clone())).collect();
        let mut h = tape.leaf(x.clone());
        let mut pi = 0usize;
        let gcn_id = tape.sparse_const(gt.adj_gcn.clone());
        let mean_id = tape.sparse_const(gt.adj_mean.clone());
        let sum_id = tape.sparse_const(gt.adj_sum.clone());

        for _ in 0..self.config.layers {
            h = match self.config.kind {
                GnnKind::Gcn => {
                    let (w, b) = (pvars[pi], pvars[pi + 1]);
                    pi += 2;
                    let agg = tape.spmm(gcn_id, h);
                    let lin = tape.matmul(agg, w);
                    let biased = tape.add_row_broadcast(lin, b);
                    tape.relu(biased)
                }
                GnnKind::GraphSage => {
                    let (w, b) = (pvars[pi], pvars[pi + 1]);
                    pi += 2;
                    let m = tape.spmm(mean_id, h);
                    let cat = tape.concat_cols(h, m);
                    let lin = tape.matmul(cat, w);
                    let biased = tape.add_row_broadcast(lin, b);
                    tape.relu(biased)
                }
                GnnKind::Gat | GnnKind::Grat => {
                    let (w, a_dst, a_src, b) =
                        (pvars[pi], pvars[pi + 1], pvars[pi + 2], pvars[pi + 3]);
                    pi += 4;
                    let hw = tape.matmul(h, w);
                    // Eq. 35 (GAT): normalise over each target's in-arcs;
                    // Eq. 39 (GRAT): over each source's out-arcs.
                    let gat = self.config.kind == GnnKind::Gat;
                    let (src, dst) = (gt.att_src.clone(), gt.att_dst.clone());
                    let agg = tape.attend(hw, a_dst, a_src, src, dst, gat);
                    // GAT-only skip connection: target-normalised attention
                    // averages away the node's own magnitude information
                    // (on attribute-poor graphs the degree signal inverts),
                    // so GAT gets the standard self-features skip; GRAT's
                    // source-normalised attention (Eq. 37-40) preserves
                    // magnitude by itself.
                    let agg_out = if gat { tape.add(agg, hw) } else { agg };
                    let biased = tape.add_row_broadcast(agg_out, b);
                    tape.relu(biased)
                }
                GnnKind::Gin => {
                    let (w1, b1, w2, b2, eps) = (
                        pvars[pi],
                        pvars[pi + 1],
                        pvars[pi + 2],
                        pvars[pi + 3],
                        pvars[pi + 4],
                    );
                    pi += 5;
                    let neigh = tape.spmm(sum_id, h);
                    let one_plus_eps = tape.add_scalar(eps, 1.0);
                    let eps_col = tape.gather_rows(one_plus_eps, Arc::new(vec![0u32; gt.n]));
                    let scaled_self = tape.mul_col_broadcast(eps_col, h);
                    let pre = tape.add(neigh, scaled_self);
                    let l1 = tape.matmul(pre, w1);
                    let l1b = tape.add_row_broadcast(l1, b1);
                    let a1 = tape.relu(l1b);
                    let l2 = tape.matmul(a1, w2);
                    let l2b = tape.add_row_broadcast(l2, b2);
                    tape.relu(l2b)
                }
            };
        }
        let (w_out, b_out) = (pvars[pi], pvars[pi + 1]);
        let logits = tape.matmul(h, w_out);
        let logits_b = tape.add_row_broadcast(logits, b_out);
        let probs = tape.sigmoid(logits_b);
        (probs, pvars)
    }

    /// Tape-free forward pass for inference on large graphs. Returns the
    /// per-node seed probabilities. Must stay numerically identical to
    /// [`Self::forward`]; `forward_and_infer_agree` pins this.
    pub fn infer(&self, gt: &GraphTensors, x: &Matrix) -> Vec<f64> {
        self.readout(&self.hidden_features(gt, x))
    }

    /// Penultimate-layer node embeddings: the `n × hidden` activation
    /// matrix after the last message-passing layer, *before* the readout.
    /// This is what the attack harness's topology-inference adversary sees
    /// (embedding-similarity edge reconstruction), and exactly the hidden
    /// state [`Self::infer`] feeds the sigmoid readout.
    pub fn embed(&self, gt: &GraphTensors, x: &Matrix) -> Matrix {
        self.hidden_features(gt, x)
    }

    /// The tape-free layer loop behind [`Self::infer`] and [`Self::embed`]:
    /// every message-passing layer, mirroring the tape ops of
    /// [`Self::forward`], returning the final hidden activations. `infer`
    /// calls it directly because the dp-taint lint treats a call to `embed`
    /// as a raw-embedding source, while `infer`'s readout is the released
    /// score.
    fn hidden_features(&self, gt: &GraphTensors, x: &Matrix) -> Matrix {
        let (config, w) = (&self.config, &self.params);
        assert_eq!(x.rows(), gt.n);
        assert_eq!(x.cols(), config.in_dim);
        let mut h = x.clone();
        let mut pi = 0usize;
        for _ in 0..config.layers {
            let p = pi;
            h = match config.kind {
                GnnKind::Gcn => {
                    pi += 2;
                    relu(&add_bias(&gt.adj_gcn.spmm(&h).matmul(&w[p]), &w[p + 1]))
                }
                GnnKind::GraphSage => {
                    pi += 2;
                    let m = gt.adj_mean.spmm(&h);
                    relu(&add_bias(&h.concat_cols(&m).matmul(&w[p]), &w[p + 1]))
                }
                GnnKind::Gat | GnnKind::Grat => {
                    pi += 4;
                    // the tape op's forward kernel, from the per-node scores
                    // hw·a_dst and hw·a_src, plus GAT's self-features skip
                    let hw = h.matmul(&w[p]);
                    let (s_dst, s_src) = (hw.matmul(&w[p + 1]), hw.matmul(&w[p + 2]));
                    let gat = config.kind == GnnKind::Gat;
                    let (src, dst) = (&gt.att_src[..], &gt.att_dst[..]);
                    let (mut agg, _) = attention::attend(&hw, &s_dst, &s_src, src, dst, gat);
                    if gat {
                        agg.add_assign(&hw);
                    }
                    relu(&add_bias(&agg, &w[p + 3]))
                }
                GnnKind::Gin => {
                    pi += 5;
                    let mut pre = gt.adj_sum.spmm(&h);
                    pre.add_scaled_assign(&h, 1.0 + w[p + 4].get(0, 0));
                    let a1 = relu(&add_bias(&pre.matmul(&w[p]), &w[p + 1]));
                    relu(&add_bias(&a1.matmul(&w[p + 2]), &w[p + 3]))
                }
            };
        }
        h
    }

    /// Linear readout (the last two parameters, `w_out` and `b_out`) and
    /// sigmoid: the per-node seed probabilities.
    fn readout(&self, h: &Matrix) -> Vec<f64> {
        let pi = self.params.len() - 2;
        let logits = add_bias(&h.matmul(&self.params[pi]), &self.params[pi + 1]);
        logits
            .data()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-v).exp()))
            .collect()
    }

    /// Convenience: embeddings for a raw graph (builds tensors + features).
    pub fn embed_graph(&self, g: &privim_graph::Graph) -> Matrix {
        let gt = GraphTensors::new(g);
        let x = crate::features::node_features(g);
        self.embed(&gt, &x)
    }

    /// Convenience: score a raw graph (builds tensors + features).
    pub fn score_graph(&self, g: &privim_graph::Graph) -> Vec<f64> {
        let gt = GraphTensors::new(g);
        let x = crate::features::node_features(g);
        self.infer(&gt, &x)
    }
}

fn relu(m: &Matrix) -> Matrix {
    m.map(|x| x.max(0.0))
}

fn add_bias(m: &Matrix, b: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        for (j, v) in out.row_mut(r).iter_mut().enumerate() {
            *v += b.get(0, j);
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::features::node_features;
    use privim_graph::generators;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    /// A seeded 2-layer, 8-unit model of `kind` on a 30-node BA graph.
    pub(crate) fn setup(kind: GnnKind, seed: u64) -> (GnnModel, GraphTensors, Matrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::barabasi_albert(30, 3, &mut rng);
        let gt = GraphTensors::new(&g);
        let x = node_features(&g);
        let cfg = GnnConfig {
            kind,
            layers: 2,
            hidden: 8,
            in_dim: FEATURE_DIM,
        };
        (GnnModel::new(cfg, &mut rng), gt, x)
    }

    #[test]
    fn outputs_are_probabilities_for_all_kinds() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 1);
            let probs = model.infer(&gt, &x);
            assert_eq!(probs.len(), 30);
            for &p in &probs {
                assert!((0.0..=1.0).contains(&p), "{kind:?}: prob {p}");
            }
        }
    }

    #[test]
    fn forward_and_infer_agree() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 2);
            let mut tape = Tape::new();
            let (pv, _) = model.forward(&mut tape, &gt, &x);
            let tape_probs = tape.value(pv).data().to_vec();
            let infer_probs = model.infer(&gt, &x);
            assert_eq!(tape_probs.len(), infer_probs.len());
            for (a, b) in tape_probs.iter().zip(&infer_probs) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}: {a} vs {b}");
            }
        }
    }

    /// The attention layers as computed before `attend`: gather `E×hidden`
    /// source and target rows, contract each with its attention vector,
    /// scale the source rows by α and scatter them into their targets.
    fn gather_scatter_infer(model: &GnnModel, gt: &GraphTensors, x: &Matrix) -> Vec<f64> {
        let mm = |m: &Matrix, p: usize| m.matmul(&model.params[p]);
        let gather = |m: &Matrix, idx: &[u32]| {
            Matrix::from_vec(
                idx.len(),
                m.cols(),
                idx.iter()
                    .flat_map(|&r| m.row(r as usize).to_vec())
                    .collect(),
            )
        };
        let gat = model.config.kind == GnnKind::Gat;
        let (src, dst) = (&gt.att_src[..], &gt.att_dst[..]);
        let mut h = x.clone();
        for pi in (0..model.config.layers).map(|l| 4 * l) {
            let hw = mm(&h, pi);
            let (src_f, dst_f) = (gather(&hw, src), gather(&hw, dst));
            let e =
                mm(&dst_f, pi + 1)
                    .add(&mm(&src_f, pi + 2))
                    .map(|v| if v > 0.0 { v } else { 0.2 * v });
            // softmax within each target's (GAT) or source's (GRAT) arcs
            let seg = if gat { dst } else { src };
            let (mut max, mut sum) = (vec![f64::NEG_INFINITY; gt.n], vec![0.0; gt.n]);
            for (&v, &g) in e.data().iter().zip(seg) {
                max[g as usize] = max[g as usize].max(v);
            }
            let ex = e.data().iter().zip(seg).map(|(&v, &g)| (v - max[g as usize]).exp());
            let ex: Vec<f64> = ex.collect();
            for (&v, &g) in ex.iter().zip(seg) {
                sum[g as usize] += v;
            }
            let alpha: Vec<f64> = ex.iter().zip(seg).map(|(v, &g)| v / sum[g as usize]).collect();
            let mut agg = Matrix::zeros(gt.n, hw.cols());
            for (i, &d) in dst.iter().enumerate() {
                for (o, v) in agg.row_mut(d as usize).iter_mut().zip(src_f.row(i)) {
                    *o += v * alpha[i];
                }
            }
            if gat {
                agg.add_assign(&hw);
            }
            h = relu(&add_bias(&agg, &model.params[pi + 3]));
        }
        model.readout(&h)
    }

    #[test]
    fn attention_infer_matches_gather_scatter_oracle() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..6u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
            let g = if seed % 2 == 0 {
                generators::barabasi_albert(40, 3, &mut rng)
            } else {
                generators::directed_preferential(45, 2.0, &mut rng)
            };
            let (gt, x) = (GraphTensors::new(&g), node_features(&g));
            for kind in [GnnKind::Gat, GnnKind::Grat] {
                let mut model = GnnModel::new(GnnConfig::paper_default_with(kind), &mut rng);
                // widen the attention vectors so α is far from uniform
                for p in (0..model.config.layers).flat_map(|l| [4 * l + 1, 4 * l + 2]) {
                    model.params[p] = model.params[p].scale(30.0);
                }
                let dense = gather_scatter_infer(&model, &gt, &x);
                assert_eq!(
                    bits(&model.infer(&gt, &x)),
                    bits(&dense),
                    "{kind:?} dense seed {seed}"
                );
            }
        }
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 3);
            let mut tape = Tape::new();
            let (pv, pvars) = model.forward(&mut tape, &gt, &x);
            // loss = sum(p^2) touches every node
            let sq = tape.mul(pv, pv);
            let loss = tape.sum(sq);
            let grads = tape.backward(loss);
            for (i, &v) in pvars.iter().enumerate() {
                let g = grads.wrt(v);
                assert!(
                    g.max_abs() > 0.0 || model.params()[i].max_abs() == 0.0,
                    "{kind:?}: param {i} got zero gradient"
                );
            }
        }
    }

    #[test]
    fn training_step_reduces_simple_loss() {
        // One SGD step on loss = sum(p) must reduce sum(p) — end-to-end
        // sanity for the whole stack.
        for kind in GnnKind::ALL {
            let (mut model, gt, x) = setup(kind, 4);
            let before: f64 = model.infer(&gt, &x).iter().sum();
            let mut tape = Tape::new();
            let (pv, pvars) = model.forward(&mut tape, &gt, &x);
            let loss = tape.sum(pv);
            let mut grads = tape.backward(loss);
            let gvec: Vec<Matrix> = pvars.iter().map(|&v| grads.take(v)).collect();
            let mut opt = privim_tensor::Sgd::new(0.05);
            use privim_tensor::Optimizer;
            opt.step(model.params_mut(), &gvec);
            let after: f64 = model.infer(&gt, &x).iter().sum();
            assert!(after < before, "{kind:?}: {after} !< {before}");
        }
    }

    #[test]
    fn param_counts_differ_by_architecture() {
        let (gcn, _, _) = setup(GnnKind::Gcn, 5);
        let (gin, _, _) = setup(GnnKind::Gin, 5);
        let (gat, _, _) = setup(GnnKind::Gat, 5);
        assert!(gin.num_parameters() > gat.num_parameters());
        assert!(gat.num_parameters() > gcn.num_parameters());
    }

    #[test]
    fn grat_and_gat_differ_in_normalisation() {
        let (_, gt, x) = setup(GnnKind::Gat, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cfg_gat = GnnConfig {
            kind: GnnKind::Gat,
            layers: 2,
            hidden: 8,
            in_dim: FEATURE_DIM,
        };
        let gat = GnnModel::new(cfg_gat, &mut rng);
        // same weights, different kind
        let mut grat = gat.clone();
        grat.config.kind = GnnKind::Grat;
        let pa = gat.infer(&gt, &x);
        let pb = grat.infer(&gt, &x);
        assert!(
            pa.iter().zip(&pb).any(|(a, b)| (a - b).abs() > 1e-9),
            "GAT and GRAT should produce different outputs"
        );
    }

    #[test]
    fn embed_is_the_penultimate_state_of_infer() {
        // embed() must return exactly the hidden state infer() feeds the
        // readout: sigmoid(embed · w_out + b_out) == infer, bit-for-bit.
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 9);
            let emb = model.embed(&gt, &x);
            assert_eq!(emb.rows(), gt.n);
            assert_eq!(emb.cols(), model.config().hidden);
            let pi = model.params().len() - 2;
            let (w_out, b_out) = (&model.params()[pi], &model.params()[pi + 1]);
            let logits = emb.matmul(w_out);
            let probs = model.infer(&gt, &x);
            for (r, &p) in probs.iter().enumerate() {
                let z = logits.get(r, 0) + b_out.get(0, 0);
                let want = 1.0 / (1.0 + (-z).exp());
                assert_eq!(p.to_bits(), want.to_bits(), "{kind:?} node {r}");
            }
        }
    }

    #[test]
    fn embed_graph_matches_embed_on_built_tensors() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::barabasi_albert(25, 3, &mut rng);
        let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
        let via_graph = model.embed_graph(&g);
        let gt = GraphTensors::new(&g);
        let x = node_features(&g);
        let direct = model.embed(&gt, &x);
        assert_eq!(via_graph.data(), direct.data());
    }

    #[test]
    fn names_roundtrip() {
        for k in GnnKind::ALL {
            assert_eq!(GnnKind::from_name(k.name()), Some(k));
        }
        assert_eq!(GnnKind::from_name("GRAT"), Some(GnnKind::Grat));
        assert_eq!(GnnKind::from_name("transformer"), None);
    }

    #[test]
    fn score_graph_handles_isolated_nodes() {
        let g = privim_graph::Graph::empty(5, true);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
        let scores = model.score_graph(&g);
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|p| p.is_finite()));
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    #[test]
    fn model_json_roundtrip_preserves_inference() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = privim_graph::generators::barabasi_albert(40, 3, &mut rng);
        let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let loaded = GnnModel::load_json(buf.as_slice()).unwrap();
        let a = model.score_graph(&g);
        let b = loaded.score_graph(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_layout_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
        model.params.pop(); // break the layout
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        assert!(GnnModel::load_json(buf.as_slice()).is_err());
    }

    #[test]
    fn garbage_json_is_rejected() {
        let err = GnnModel::load_json(&b"not json"[..]).unwrap_err();
        assert!(matches!(err, PrivimError::Parse(_)), "got {err:?}");
    }

    fn saved_checkpoint(seed: u64) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        buf
    }

    #[test]
    fn checkpoint_declares_format_and_version() {
        let buf = saved_checkpoint(23);
        let doc = privim_rt::json::Value::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(
            doc.get("format").and_then(|v| v.as_str()),
            Some(CHECKPOINT_FORMAT)
        );
        assert_eq!(
            doc.get("version").and_then(|v| v.as_u64()),
            Some(CHECKPOINT_VERSION)
        );
        assert!(doc.get("crc32").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn bit_flip_in_payload_is_detected_by_checksum() {
        let buf = saved_checkpoint(24);
        let text = String::from_utf8(buf).unwrap();
        // Flip one digit inside the parameter data (well past the header).
        let pos = text.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let mut corrupted = text.into_bytes();
        corrupted[pos] = if corrupted[pos] == b'5' { b'6' } else { b'5' };
        let err = GnnModel::load_json(corrupted.as_slice()).unwrap_err();
        match err {
            PrivimError::Parse(msg) => assert!(msg.contains("checksum"), "msg: {msg}"),
            other => panic!("expected Parse(checksum) error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_checkpoint_is_rejected_not_panicked() {
        let buf = saved_checkpoint(25);
        // Every truncation point must fail cleanly with a typed error.
        for cut in [0, 1, 10, buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            let err = GnnModel::load_json(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, PrivimError::Parse(_)),
                "cut={cut} got {err:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let buf = saved_checkpoint(26);
        let text = String::from_utf8(buf).unwrap();
        let bumped = text.replacen("\"version\":1", "\"version\":2", 1);
        assert_ne!(text, bumped, "version field not found to rewrite");
        let err = GnnModel::load_json(bumped.as_bytes()).unwrap_err();
        match err {
            PrivimError::InvalidInput(msg) => assert!(msg.contains("version"), "msg: {msg}"),
            other => panic!("expected InvalidInput(version) error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_format_tag_is_rejected() {
        let buf = saved_checkpoint(27);
        let text = String::from_utf8(buf).unwrap();
        let renamed = text.replacen(CHECKPOINT_FORMAT, "some-other-format", 1);
        let err = GnnModel::load_json(renamed.as_bytes()).unwrap_err();
        assert!(matches!(err, PrivimError::Parse(_)), "got {err:?}");
    }
}
