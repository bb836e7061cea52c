//! Quantized serving models.
//!
//! [`QuantGnnModel`] is an int8 mirror of [`GnnModel`]'s tape-free
//! inference path: every weight block is stored as per-column-scaled `i8`
//! codes ([`QuantWeights`]) and contracted by exact integer dot products
//! at serve time — no dequantized matrix is ever materialised. Biases and
//! GIN's ε (all `1×…`) stay dense `f64`; quantizing scalars saves nothing
//! and costs accuracy.
//!
//! Both models run the same crate-private layer loop
//! (`model::hidden_features` and `readout`) and differ only in the weight
//! contraction they pass it — which keeps the quantization error
//! analysable as a per-matmul perturbation.

use crate::model::{hidden_features, readout, GnnConfig, GnnKind, GnnModel};
use crate::structures::GraphTensors;
use privim_rt::json::Value;
use privim_rt::{PrivimError, PrivimResult};
use privim_tensor::{Matrix, QuantWeights};

/// One parameter in [`GnnModel::params`] order.
#[derive(Clone, Debug)]
enum QParam {
    /// A weight block (a `w…` or `a_…` key), stored as int8.
    Int8(QuantWeights),
    /// A bias or GIN's ε, carried over exactly.
    Dense(Matrix),
}

/// The bundle's JSON key for each parameter of one layer, in
/// [`GnnModel::params`] order.
fn layer_keys(kind: GnnKind) -> &'static [&'static str] {
    match kind {
        GnnKind::Gcn | GnnKind::GraphSage => &["w", "b"],
        GnnKind::Gat | GnnKind::Grat => &["w", "a_dst", "a_src", "b"],
        GnnKind::Gin => &["w1", "b1", "w2", "b2", "eps"],
    }
}

/// Every parameter's JSON key in [`GnnModel::params`] order: each layer's
/// [`layer_keys`], then the readout's `w_out`, `b_out`.
fn param_keys(config: &GnnConfig) -> impl Iterator<Item = &'static str> {
    let layer = layer_keys(config.kind);
    let layers = (0..config.layers).flat_map(move |_| layer.iter().copied());
    layers.chain(["w_out", "b_out"])
}

/// Weight blocks are the keys that start with `w` or `a`.
fn is_weight(key: &str) -> bool {
    key.starts_with('w') || key.starts_with('a')
}

/// Int8-quantized inference model for the serving path. Built from a
/// trained [`GnnModel`] at pack time; bit-identical across every
/// `PRIVIM_SIMD` backend by construction (the integer contraction is
/// exact, so summation order cannot matter).
#[derive(Clone, Debug)]
pub struct QuantGnnModel {
    config: GnnConfig,
    /// One entry per [`param_keys`] key.
    params: Vec<QParam>,
}

impl QuantGnnModel {
    /// Quantize a trained model's weights (per-output-column int8);
    /// biases and ε are carried over exactly.
    pub fn from_model(m: &GnnModel) -> QuantGnnModel {
        let config = *m.config();
        let quantize = |(k, p): (&str, &Matrix)| match is_weight(k) {
            true => QParam::Int8(QuantWeights::quantize(p)),
            false => QParam::Dense(p.clone()),
        };
        let params = param_keys(&config).zip(m.params()).map(quantize).collect();
        QuantGnnModel { config, params }
    }

    /// Architecture configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Per-node seed probabilities — the quantized counterpart of
    /// [`GnnModel::infer`]: the same layer loop, contracting with the int8
    /// weight blocks.
    pub fn infer(&self, gt: &GraphTensors, x: &Matrix) -> Vec<f64> {
        let mm = |h: &Matrix, p: usize| match &self.params[p] {
            QParam::Int8(w) => w.matmul(h),
            QParam::Dense(w) => h.matmul(w),
        };
        let dense = |p: usize| match &self.params[p] {
            QParam::Dense(b) => b,
            // privim-lint: allow(panic, reason = "the layer loop reads only b*/eps keys through `dense`, and from_model/from_json store every such key as Dense")
            QParam::Int8(_) => unreachable!("parameter {p} is a weight block"),
        };
        let h = hidden_features(&self.config, gt, x, &mm, &dense);
        readout(&h, self.params.len() - 2, &mm, &dense)
    }

    /// Reconstruct a dense [`GnnModel`] by dequantizing every weight
    /// block (biases/ε are exact). The result approximates the original
    /// trained model within the per-column quantization step; useful for
    /// consumers that need the dense parameter layout (bundle
    /// compaction, diagnostics).
    pub fn to_dense_model(&self) -> PrivimResult<GnnModel> {
        let params = self.params.iter().map(|p| match p {
            QParam::Int8(w) => w.dequantize(),
            QParam::Dense(b) => b.clone(),
        });
        GnnModel::from_parts(self.config, params.collect())
    }

    /// Convenience: score a raw graph (builds tensors + features).
    pub fn score_graph(&self, g: &privim_graph::Graph) -> Vec<f64> {
        let gt = GraphTensors::new(g);
        let x = crate::features::node_features(g);
        self.infer(&gt, &x)
    }

    /// JSON payload (`{"config", "layers", "w_out", "b_out"}`, each layer
    /// an object of its [`layer_keys`]) for the serve bundle; the bundle's
    /// CRC-32 covers it.
    pub fn to_json(&self) -> Value {
        let mut fields = param_keys(&self.config).zip(&self.params).map(|(k, p)| {
            let v = match p {
                QParam::Int8(w) => w.to_json(),
                QParam::Dense(e) if k == "eps" => Value::Num(e.get(0, 0)),
                QParam::Dense(b) => b.to_json(),
            };
            (k, v)
        });
        let width = layer_keys(self.config.kind).len();
        let layers = (0..self.config.layers)
            .map(|_| Value::obj(fields.by_ref().take(width).collect()))
            .collect();
        let mut doc = vec![
            ("config", self.config.to_json()),
            ("layers", Value::Arr(layers)),
        ];
        doc.extend(fields);
        Value::obj(doc)
    }

    /// Parse the [`Self::to_json`] form with typed errors on any layout
    /// mismatch.
    pub fn from_json(v: &Value) -> PrivimResult<QuantGnnModel> {
        let bad = |msg: String| PrivimError::Parse(format!("quant model: {msg}"));
        let config = GnnConfig::from_json(
            v.get("config")
                .ok_or_else(|| bad("missing config".into()))?,
        )?;
        let layer_vals = v
            .get("layers")
            .and_then(|x| x.as_array())
            .ok_or_else(|| bad("missing layers".into()))?;
        if layer_vals.len() != config.layers {
            return Err(bad(format!(
                "{} layers for a {}-layer config",
                layer_vals.len(),
                config.layers
            )));
        }
        let param = |obj: &Value, k: &str| -> PrivimResult<QParam> {
            let x = obj
                .get(k)
                .ok_or_else(|| bad(format!("layer missing {k}")))?;
            Ok(if is_weight(k) {
                QParam::Int8(QuantWeights::from_json(x).map_err(bad)?)
            } else if k == "eps" {
                let eps = x.as_f64().ok_or_else(|| bad("layer missing eps".into()))?;
                QParam::Dense(Matrix::full(1, 1, eps))
            } else {
                QParam::Dense(Matrix::from_json(x).map_err(bad)?)
            })
        };
        let mut params = Vec::new();
        for l in layer_vals {
            for k in layer_keys(config.kind) {
                params.push(param(l, k)?);
            }
        }
        params.push(param(v, "w_out")?);
        params.push(param(v, "b_out")?);
        Ok(QuantGnnModel { config, params })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::setup;

    #[test]
    fn quantized_inference_tracks_dense_for_every_kind() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 31);
            let dense = model.infer(&gt, &x);
            let quant = QuantGnnModel::from_model(&model).infer(&gt, &x);
            assert_eq!(dense.len(), quant.len());
            let max_err = dense
                .iter()
                .zip(&quant)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            // probabilities live in [0,1]; int8 weights keep the served
            // scores within a few percent of the dense model
            assert!(max_err < 0.05, "{kind:?}: max prob drift {max_err}");
        }
    }

    #[test]
    fn json_round_trip_preserves_quantized_inference_bitwise() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 32);
            let q = QuantGnnModel::from_model(&model);
            let rt = QuantGnnModel::from_json(&q.to_json()).unwrap();
            let a = q.infer(&gt, &x);
            let b = rt.infer(&gt, &x);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn wrong_layer_count_is_a_typed_error() {
        let (model, _, _) = setup(GnnKind::Gcn, 33);
        let q = QuantGnnModel::from_model(&model);
        let text = q.to_json().to_json_string();
        // claim 3 layers while shipping 2 — must be a typed Parse error
        let bumped = text.replacen("\"layers\":2", "\"layers\":3", 1);
        assert_ne!(text, bumped, "config layer field not found");
        let v = Value::parse(&bumped).unwrap();
        assert!(matches!(
            QuantGnnModel::from_json(&v),
            Err(PrivimError::Parse(_))
        ));
    }

    #[test]
    fn quantized_inference_is_backend_invariant() {
        use privim_tensor::simd;
        let (model, gt, x) = setup(GnnKind::Grat, 34);
        let q = QuantGnnModel::from_model(&model);
        simd::set_backend(Some(simd::Choice::Scalar));
        let scalar = q.infer(&gt, &x);
        simd::set_backend(Some(simd::Choice::Auto));
        let auto = q.infer(&gt, &x);
        simd::set_backend(None);
        for (a, b) in scalar.iter().zip(&auto) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
