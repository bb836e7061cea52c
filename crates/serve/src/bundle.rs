//! The versioned serving bundle: model + privacy statement + graph.
//!
//! `privim-serve pack` writes one JSON document that a serving process
//! can trust end-to-end:
//!
//! ```json
//! {"format": "privim-serve-bundle", "version": 3, "crc32": "0x…",
//!  "payload": {
//!     "model": { …GnnModel checkpoint payload… },
//!     "privacy": {"epsilon": 4.0, "delta": 1e-4, "sigma": 1.7, "steps": 80},
//!     "graph": {"num_nodes": n, "directed": false, "edges": [[u,v,w]…]},
//!     "graph_fingerprint": "0x…",
//!     "ledger": {"epsilon_budget": 1.0, "delta": 1e-5, "query_sigma": 4.0,
//!                "retry_after_secs": 60, "tenants": {"acme": 12}}
//!  }}
//! ```
//!
//! Version history: v1 had no `ledger` section; v2 added it as an
//! *optional* field (a metered deployment persists per-tenant budget
//! state, an unmetered one omits it). v3 added quantized model storage:
//! the `model` section may be replaced by `model_q8` (per-column int8
//! codes served through exact-integer SIMD matmuls, no dequantization at
//! serve time) or `model_f16` (storage-only binary16, decoded to the
//! dense path at load). Exactly one of the three model sections must be
//! present. v1/v2 bundles still load — absent ledger means every tenant
//! is unmetered, absent quant sections mean a dense model — so nothing
//! packed before the version bumps needs re-packing.
//!
//! Three integrity layers, each with a typed failure:
//!
//! 1. **format + version** — a bundle from a future incompatible writer
//!    is rejected up front, not half-parsed;
//! 2. **CRC-32 over the payload** — truncation/bit-rot detection (same
//!    checksum the GNN checkpoint format uses);
//! 3. **graph fingerprint** — a 64-bit FNV-1a over the canonical CSR arc
//!    list, recomputed after rebuild and compared to the stored value, so
//!    the serving graph is byte-for-byte the one the seeds/cache were
//!    computed against. Serialised as a hex *string*: JSON numbers are
//!    `f64` and would silently round 64-bit identifiers above 2^53.
//!
//! The privacy statement rides along because under DP the released
//! artifact *is* `(model, ε, δ, σ, steps)` — a server should be able to
//! state the budget of the model it is serving (`/metrics` could expose
//! it; the CLI prints it on startup).

use crate::cache::fnv1a64;
use crate::ledger::LedgerState;
use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel, QuantGnnModel};
use privim_graph::{Graph, GraphBuilder, NodeId};
use privim_rt::json::Value;
use privim_rt::{crc, PrivimError, PrivimResult};
use privim_tensor::quant::F16Matrix;
use std::sync::Arc;

/// Format tag of a serve bundle.
pub const BUNDLE_FORMAT: &str = "privim-serve-bundle";
/// Current bundle format version (v2 added the optional ledger section;
/// v3 added the `model_q8`/`model_f16` quantized model sections).
pub const BUNDLE_VERSION: u64 = 3;
/// Oldest version [`load`] still accepts (v1 = no ledger).
pub const MIN_BUNDLE_VERSION: u64 = 1;

/// How the model weights are stored in (and served from) a bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantMode {
    /// Dense `f64` checkpoint payload (the `model` section).
    None,
    /// Per-column int8 codes (`model_q8`), served via exact integer
    /// matmuls without dequantization.
    Int8,
    /// Storage-only binary16 (`model_f16`), decoded to dense at load.
    F16,
}

impl QuantMode {
    /// CLI name (`none`/`int8`/`f16`).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::None => "none",
            QuantMode::Int8 => "int8",
            QuantMode::F16 => "f16",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<QuantMode> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(QuantMode::None),
            "int8" => Some(QuantMode::Int8),
            "f16" => Some(QuantMode::F16),
            _ => None,
        }
    }
}

/// The (ε, δ)-DP statement a bundle carries alongside the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyStatement {
    /// Privacy budget ε (`None` = trained without DP).
    pub epsilon: Option<f64>,
    /// The δ of the statement.
    pub delta: f64,
    /// Calibrated noise multiplier σ.
    pub sigma: f64,
    /// DP-SGD steps taken.
    pub steps: u64,
}

/// A loaded, integrity-checked bundle, ready to serve.
#[derive(Debug)]
pub struct Bundle {
    /// The trained model in dense form. For `model_f16` bundles this is
    /// the (exactly re-encodable) decoded model; for `model_q8` bundles
    /// it is the dequantized reconstruction (serving should prefer
    /// [`Self::quant`]).
    pub model: GnnModel,
    /// The int8 serving model (`model_q8` bundles only).
    pub quant: Option<QuantGnnModel>,
    /// Which model section the bundle was stored with (compaction
    /// re-packs in the same mode).
    pub mode: QuantMode,
    /// Privacy statement the model was trained under.
    pub privacy: PrivacyStatement,
    /// The serving graph (shared: server workers and CELF state both
    /// hold clones of this `Arc`).
    pub graph: Arc<Graph>,
    /// FNV-1a fingerprint of the graph's canonical arc list.
    pub fingerprint: u64,
    /// Per-tenant serving budget ledger (`None` = unmetered deployment,
    /// including every v1 bundle).
    pub ledger: Option<LedgerState>,
}

/// 64-bit fingerprint of a graph: FNV-1a over `(n, directed, arcs)` in
/// canonical CSR order. Weights contribute their exact bit patterns.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut bytes = Vec::with_capacity(16 + g.num_arcs() * 16);
    bytes.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    bytes.push(g.is_directed() as u8);
    for (u, v, w) in g.arcs() {
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
        bytes.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn graph_to_json(g: &Graph) -> Value {
    // Undirected CSR stores each edge as two arcs; keep one per pair so
    // the builder round-trips it (it re-materialises the reverse arcs).
    let edges: Vec<Value> = g
        .arcs()
        .filter(|&(u, v, _)| g.is_directed() || u <= v)
        .map(|(u, v, w)| {
            Value::Arr(vec![
                Value::Num(u as f64),
                Value::Num(v as f64),
                Value::Num(w),
            ])
        })
        .collect();
    Value::obj(vec![
        ("num_nodes", Value::Num(g.num_nodes() as f64)),
        ("directed", Value::Bool(g.is_directed())),
        ("edges", Value::Arr(edges)),
    ])
}

fn graph_from_json(v: &Value) -> PrivimResult<Graph> {
    let bad = |msg: &str| PrivimError::Parse(format!("bundle graph: {msg}"));
    let n = v
        .get("num_nodes")
        .and_then(|x| x.as_usize())
        .ok_or_else(|| bad("missing num_nodes"))?;
    let directed = v
        .get("directed")
        .and_then(|x| x.as_bool())
        .ok_or_else(|| bad("missing directed"))?;
    let edges = v
        .get("edges")
        .and_then(|x| x.as_array())
        .ok_or_else(|| bad("missing edges"))?;
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for e in edges {
        let arr = e.as_array().ok_or_else(|| bad("edge is not an array"))?;
        let [u, v_, w] = arr else {
            return Err(bad("edge is not a [u, v, w] triple"));
        };
        let (u, v_, w) = match (u.as_usize(), v_.as_usize(), w.as_f64()) {
            (Some(u), Some(v_), Some(w)) if u < n && v_ < n && (0.0..=1.0).contains(&w) => {
                (u, v_, w)
            }
            _ => return Err(bad("edge endpoint/weight out of range")),
        };
        b.add_edge(u as NodeId, v_ as NodeId, w);
    }
    Ok(b.build())
}

/// Build the full bundle document (header + checksummed payload) for an
/// exported artifact and its serving graph. Unmetered: no ledger section.
pub fn pack(artifact: &ServeArtifact, graph: &Graph) -> Value {
    pack_with_ledger(artifact, graph, None)
}

/// [`pack`] with an optional per-tenant budget ledger (a metered
/// deployment persists its admission state in the bundle itself).
pub fn pack_with_ledger(
    artifact: &ServeArtifact,
    graph: &Graph,
    ledger: Option<&LedgerState>,
) -> Value {
    let privacy = PrivacyStatement {
        epsilon: artifact.epsilon,
        delta: artifact.delta,
        sigma: artifact.sigma,
        steps: artifact.steps as u64,
    };
    pack_parts(&artifact.model, &privacy, graph, ledger)
}

/// Build the bundle document from its parts. A running server compacts
/// its journal through this (it holds a model + privacy statement, not a
/// [`ServeArtifact`]); byte-for-byte the same output as pack-time for
/// the same parts, so a snapshot is indistinguishable from a fresh pack.
pub fn pack_parts(
    model: &GnnModel,
    privacy: &PrivacyStatement,
    graph: &Graph,
    ledger: Option<&LedgerState>,
) -> Value {
    pack_parts_section(("model", model.checkpoint_payload()), privacy, graph, ledger)
}

/// [`pack_parts`] storing the model as per-column int8 codes in a
/// `model_q8` section. The quantized model *is* the serving artifact —
/// its exact-integer matmuls make scores backend-invariant — and
/// compaction re-serialises it code-for-code, so the mode survives
/// snapshot cycles.
pub fn pack_parts_q8(
    quant: &QuantGnnModel,
    privacy: &PrivacyStatement,
    graph: &Graph,
    ledger: Option<&LedgerState>,
) -> Value {
    pack_parts_section(("model_q8", quant.to_json()), privacy, graph, ledger)
}

/// [`pack_parts`] storing the model as storage-only binary16 in a
/// `model_f16` section. Loading decodes to a dense model; because
/// `f16_encode(f16_decode(h)) == h`, re-packing that model reproduces
/// the section bit-for-bit.
pub fn pack_parts_f16(
    model: &GnnModel,
    privacy: &PrivacyStatement,
    graph: &Graph,
    ledger: Option<&LedgerState>,
) -> Value {
    pack_parts_section(("model_f16", model_to_f16_json(model)), privacy, graph, ledger)
}

/// Mode-aware pack: compaction re-packs a bundle in the mode it was
/// loaded with. An `Int8` mode without a quantized model in hand (which
/// [`load`] never produces) degrades to a dense pack rather than failing
/// a snapshot.
pub fn pack_parts_in_mode(
    model: &GnnModel,
    quant: Option<&QuantGnnModel>,
    mode: QuantMode,
    privacy: &PrivacyStatement,
    graph: &Graph,
    ledger: Option<&LedgerState>,
) -> Value {
    match (mode, quant) {
        (QuantMode::Int8, Some(q)) => pack_parts_q8(q, privacy, graph, ledger),
        (QuantMode::F16, _) => pack_parts_f16(model, privacy, graph, ledger),
        _ => pack_parts(model, privacy, graph, ledger),
    }
}

fn model_to_f16_json(model: &GnnModel) -> Value {
    let params: Vec<Value> = model
        .params()
        .iter()
        .map(|m| F16Matrix::from_matrix(m).to_json())
        .collect();
    Value::obj(vec![
        ("config", model.config().to_json()),
        ("params", Value::Arr(params)),
    ])
}

fn model_from_f16_json(v: &Value) -> PrivimResult<GnnModel> {
    let bad = |msg: &str| PrivimError::Parse(format!("bundle model_f16: {msg}"));
    let config = GnnConfig::from_json(v.get("config").ok_or_else(|| bad("missing config"))?)?;
    let params = v
        .get("params")
        .and_then(|p| p.as_array())
        .ok_or_else(|| bad("missing params"))?
        .iter()
        .map(|p| {
            F16Matrix::from_json(p)
                .map(|f| f.to_matrix())
                .map_err(|e| bad(&e))
        })
        .collect::<PrivimResult<Vec<_>>>()?;
    GnnModel::from_parts(config, params)
}

fn pack_parts_section(
    model_section: (&'static str, Value),
    privacy: &PrivacyStatement,
    graph: &Graph,
    ledger: Option<&LedgerState>,
) -> Value {
    let fingerprint = graph_fingerprint(graph);
    let mut fields = vec![
        model_section,
        (
            "privacy",
            Value::obj(vec![
                (
                    "epsilon",
                    privacy.epsilon.map(Value::Num).unwrap_or(Value::Null),
                ),
                ("delta", Value::Num(privacy.delta)),
                ("sigma", Value::Num(privacy.sigma)),
                ("steps", Value::Num(privacy.steps as f64)),
            ]),
        ),
        ("graph", graph_to_json(graph)),
        ("graph_fingerprint", Value::Str(format!("{fingerprint:#018x}"))),
    ];
    if let Some(state) = ledger {
        fields.push(("ledger", state.to_json()));
    }
    let payload = Value::obj(fields);
    let crc = crc::crc32(payload.to_json_string().as_bytes());
    Value::obj(vec![
        ("format", Value::Str(BUNDLE_FORMAT.to_string())),
        ("version", Value::Num(BUNDLE_VERSION as f64)),
        ("crc32", Value::Str(format!("{crc:#010x}"))),
        ("payload", payload),
    ])
}

/// Serialise a packed bundle to a writer. Unmetered: no ledger section.
pub fn save<W: std::io::Write>(artifact: &ServeArtifact, graph: &Graph, mut w: W) -> PrivimResult<()> {
    w.write_all(pack(artifact, graph).to_json_string().as_bytes())
        .map_err(|e| PrivimError::io("writing serve bundle", e))
}

/// [`save`] with a per-tenant budget ledger.
pub fn save_with_ledger<W: std::io::Write>(
    artifact: &ServeArtifact,
    graph: &Graph,
    ledger: &LedgerState,
    mut w: W,
) -> PrivimResult<()> {
    ledger.config.validate()?;
    w.write_all(
        pack_with_ledger(artifact, graph, Some(ledger))
            .to_json_string()
            .as_bytes(),
    )
    .map_err(|e| PrivimError::io("writing serve bundle", e))
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

fn parse_hex_u32(s: &str) -> Option<u32> {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    if digits.is_empty() || digits.len() > 8 {
        return None;
    }
    u32::from_str_radix(digits, 16).ok()
}

/// Load and fully verify a bundle: format, version, CRC-32, model layout
/// and graph fingerprint. Every failure is a typed [`PrivimError`].
pub fn load<R: std::io::Read>(mut r: R) -> PrivimResult<Bundle> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| PrivimError::io("reading serve bundle", e))?;
    let doc = Value::parse(&text).map_err(|e| PrivimError::Parse(format!("serve bundle: {e}")))?;
    let format = doc.get("format").and_then(|v| v.as_str()).unwrap_or("");
    if format != BUNDLE_FORMAT {
        return Err(PrivimError::Parse(format!(
            "not a {BUNDLE_FORMAT} file (format = {format:?})"
        )));
    }
    let version = doc
        .get("version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| PrivimError::Parse("bundle missing version".into()))?;
    if !(MIN_BUNDLE_VERSION..=BUNDLE_VERSION).contains(&version) {
        return Err(PrivimError::invalid(format!(
            "bundle version {version} not supported (accepted: {MIN_BUNDLE_VERSION}..={BUNDLE_VERSION})"
        )));
    }
    let payload = doc
        .get("payload")
        .ok_or_else(|| PrivimError::Parse("bundle missing payload".into()))?;
    let stored_crc = doc
        .get("crc32")
        .and_then(|v| v.as_str())
        .and_then(parse_hex_u32)
        .ok_or_else(|| PrivimError::Parse("bundle missing/bad crc32".into()))?;
    let actual_crc = crc::crc32(payload.to_json_string().as_bytes());
    if stored_crc != actual_crc {
        return Err(PrivimError::Parse(format!(
            "bundle checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x}) \
             — file is corrupted or truncated"
        )));
    }

    let dense = payload.get("model");
    let q8 = payload.get("model_q8");
    let f16 = payload.get("model_f16");
    let present = dense.is_some() as u8 + q8.is_some() as u8 + f16.is_some() as u8;
    if present != 1 {
        return Err(PrivimError::Parse(format!(
            "bundle must carry exactly one of model/model_q8/model_f16 ({present} present)"
        )));
    }
    if version < 3 && dense.is_none() {
        return Err(PrivimError::invalid(format!(
            "quantized model sections require bundle version >= 3 (bundle is v{version})"
        )));
    }
    let (model, quant, mode) = if let Some(mp) = dense {
        (GnnModel::from_checkpoint_payload(mp)?, None, QuantMode::None)
    } else if let Some(qp) = q8 {
        let q = QuantGnnModel::from_json(qp)?;
        // Dense reconstruction so embedding/export paths keep working;
        // serving prefers the exact quantized model.
        (q.to_dense_model()?, Some(q), QuantMode::Int8)
    } else {
        let fp = f16.ok_or_else(|| PrivimError::Parse("bundle missing model".into()))?;
        (model_from_f16_json(fp)?, None, QuantMode::F16)
    };

    let priv_v = payload
        .get("privacy")
        .ok_or_else(|| PrivimError::Parse("bundle missing privacy statement".into()))?;
    let privacy = PrivacyStatement {
        epsilon: priv_v.get("epsilon").and_then(|v| v.as_f64()),
        delta: priv_v
            .get("delta")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| PrivimError::Parse("privacy statement missing delta".into()))?,
        sigma: priv_v
            .get("sigma")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| PrivimError::Parse("privacy statement missing sigma".into()))?,
        steps: priv_v
            .get("steps")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| PrivimError::Parse("privacy statement missing steps".into()))?,
    };

    let graph = graph_from_json(
        payload
            .get("graph")
            .ok_or_else(|| PrivimError::Parse("bundle missing graph".into()))?,
    )?;
    let stored_fp = payload
        .get("graph_fingerprint")
        .and_then(|v| v.as_str())
        .and_then(parse_hex_u64)
        .ok_or_else(|| PrivimError::Parse("bundle missing/bad graph_fingerprint".into()))?;
    let actual_fp = graph_fingerprint(&graph);
    if stored_fp != actual_fp {
        return Err(PrivimError::Parse(format!(
            "graph fingerprint mismatch (stored {stored_fp:#018x}, rebuilt {actual_fp:#018x})"
        )));
    }
    // Optional in v2, structurally absent in v1: either way `None` means
    // an unmetered deployment.
    let ledger = match payload.get("ledger") {
        Some(v) => Some(LedgerState::from_json(v)?),
        None => None,
    };
    Ok(Bundle {
        model,
        quant,
        mode,
        privacy,
        graph: Arc::new(graph),
        fingerprint: actual_fp,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_gnn::GnnConfig;
    use privim_rt::{ChaCha8Rng, SeedableRng};

    fn tiny_artifact(seed: u64) -> ServeArtifact {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ServeArtifact {
            model: GnnModel::new(GnnConfig::paper_default(), &mut rng),
            epsilon: Some(4.0),
            delta: 1e-4,
            sigma: 1.25,
            steps: 80,
        }
    }

    fn tiny_graph(seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        privim_graph::generators::barabasi_albert(30, 2, &mut rng).with_uniform_weights(1.0)
    }

    #[test]
    fn bundle_round_trips_model_graph_and_privacy() {
        let art = tiny_artifact(1);
        let g = tiny_graph(2);
        let mut buf = Vec::new();
        save(&art, &g, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        assert_eq!(loaded.privacy.epsilon, Some(4.0));
        assert_eq!(loaded.privacy.steps, 80);
        assert_eq!(loaded.fingerprint, graph_fingerprint(&g));
        assert_eq!(loaded.graph.num_nodes(), g.num_nodes());
        assert_eq!(loaded.graph.num_arcs(), g.num_arcs());
        // the round-tripped model scores identically
        assert_eq!(loaded.model.score_graph(&g), art.model.score_graph(&g));
    }

    #[test]
    fn directed_graph_round_trips_every_arc() {
        let art = tiny_artifact(3);
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 0, 0.25);
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let mut buf = Vec::new();
        save(&art, &g, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        let arcs: Vec<_> = loaded.graph.arcs().collect();
        assert_eq!(arcs, g.arcs().collect::<Vec<_>>());
    }

    #[test]
    fn corrupted_bundle_is_rejected_by_checksum() {
        let art = tiny_artifact(4);
        let g = tiny_graph(5);
        let mut buf = Vec::new();
        save(&art, &g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let pos = text.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let mut corrupted = text.into_bytes();
        corrupted[pos] = if corrupted[pos] == b'5' { b'6' } else { b'5' };
        let err = load(corrupted.as_slice()).unwrap_err();
        match err {
            PrivimError::Parse(msg) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum Parse error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_garbage_bundles_are_typed_errors() {
        let art = tiny_artifact(6);
        let g = tiny_graph(7);
        let mut buf = Vec::new();
        save(&art, &g, &mut buf).unwrap();
        for cut in [0, 5, buf.len() / 2, buf.len() - 1] {
            assert!(load(&buf[..cut]).is_err(), "cut={cut}");
        }
        assert!(load(&b"not a bundle"[..]).is_err());
    }

    #[test]
    fn version_and_format_mismatches_are_rejected() {
        let art = tiny_artifact(8);
        let g = tiny_graph(9);
        let mut buf = Vec::new();
        save(&art, &g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let bumped = text.replacen("\"version\":3", "\"version\":9", 1);
        assert!(matches!(
            load(bumped.as_bytes()).unwrap_err(),
            PrivimError::InvalidInput(_)
        ));
        let ancient = text.replacen("\"version\":3", "\"version\":0", 1);
        assert!(matches!(
            load(ancient.as_bytes()).unwrap_err(),
            PrivimError::InvalidInput(_)
        ));
        let renamed = text.replacen(BUNDLE_FORMAT, "mystery-format", 1);
        assert!(matches!(
            load(renamed.as_bytes()).unwrap_err(),
            PrivimError::Parse(_)
        ));
    }

    #[test]
    fn version_1_bundles_still_load_as_unmetered() {
        // The version lives in the header, outside the CRC'd payload, so
        // rewriting it reproduces a v1 writer's output exactly: same
        // payload, no ledger section.
        let art = tiny_artifact(12);
        let g = tiny_graph(13);
        let mut buf = Vec::new();
        save(&art, &g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v1 = text.replacen("\"version\":3", "\"version\":1", 1);
        let loaded = load(v1.as_bytes()).unwrap();
        assert!(loaded.ledger.is_none(), "v1 bundles are unmetered");
        assert_eq!(loaded.mode, QuantMode::None);
        assert_eq!(loaded.fingerprint, graph_fingerprint(&g));
    }

    #[test]
    fn q8_bundle_round_trips_the_quantized_model_exactly() {
        let art = tiny_artifact(40);
        let g = tiny_graph(41);
        let q = QuantGnnModel::from_model(&art.model);
        let privacy = PrivacyStatement {
            epsilon: art.epsilon,
            delta: art.delta,
            sigma: art.sigma,
            steps: art.steps as u64,
        };
        let text = pack_parts_q8(&q, &privacy, &g, None).to_json_string();
        let loaded = load(text.as_bytes()).unwrap();
        assert_eq!(loaded.mode, QuantMode::Int8);
        let lq = loaded.quant.as_ref().expect("q8 bundle carries a quant model");
        // The serving scores survive the round trip bitwise (int8 codes
        // and f64 scales are stored exactly).
        assert_eq!(lq.score_graph(&g), q.score_graph(&g));
        // The dense reconstruction is present and usable for export paths.
        assert_eq!(
            loaded.model.config().to_json().to_json_string(),
            q.config().to_json().to_json_string()
        );
        // Compaction re-packs byte-for-byte: mode is not lossy.
        let repacked =
            pack_parts_in_mode(&loaded.model, loaded.quant.as_ref(), loaded.mode, &privacy, &g, None);
        assert_eq!(repacked.to_json_string(), text);
    }

    #[test]
    fn f16_bundle_round_trips_byte_for_byte_through_compaction() {
        let art = tiny_artifact(42);
        let g = tiny_graph(43);
        let privacy = PrivacyStatement {
            epsilon: art.epsilon,
            delta: art.delta,
            sigma: art.sigma,
            steps: art.steps as u64,
        };
        let text = pack_parts_f16(&art.model, &privacy, &g, None).to_json_string();
        let loaded = load(text.as_bytes()).unwrap();
        assert_eq!(loaded.mode, QuantMode::F16);
        assert!(loaded.quant.is_none(), "f16 decodes to the dense path");
        // The loaded model is the f16-rounded model.
        let expected = model_from_f16_json(&model_to_f16_json(&art.model)).unwrap();
        assert_eq!(loaded.model.score_graph(&g), expected.score_graph(&g));
        // f16_encode(f16_decode(h)) == h, so a compaction snapshot of the
        // decoded model reproduces the original bundle bit-for-bit.
        let repacked =
            pack_parts_in_mode(&loaded.model, None, loaded.mode, &privacy, &g, None);
        assert_eq!(repacked.to_json_string(), text);
    }

    #[test]
    fn quant_sections_are_rejected_below_v3() {
        let art = tiny_artifact(44);
        let g = tiny_graph(45);
        let q = QuantGnnModel::from_model(&art.model);
        let privacy = PrivacyStatement {
            epsilon: art.epsilon,
            delta: art.delta,
            sigma: art.sigma,
            steps: art.steps as u64,
        };
        let text = pack_parts_q8(&q, &privacy, &g, None).to_json_string();
        let downgraded = text.replacen("\"version\":3", "\"version\":2", 1);
        assert!(matches!(
            load(downgraded.as_bytes()).unwrap_err(),
            PrivimError::InvalidInput(_)
        ));
    }

    #[test]
    fn bundles_with_zero_or_two_model_sections_are_rejected() {
        let art = tiny_artifact(46);
        let g = tiny_graph(47);
        let q = QuantGnnModel::from_model(&art.model);
        let privacy = PrivacyStatement {
            epsilon: art.epsilon,
            delta: art.delta,
            sigma: art.sigma,
            steps: art.steps as u64,
        };
        // Rebuild the payload with an extra (or no) model section and the
        // CRC recomputed, so the model-section arity check itself fires.
        let rebuild = |extra: Option<(&'static str, Value)>, drop_model: bool| {
            let doc = pack_parts(&art.model, &privacy, &g, None);
            let Value::Obj(header) = doc else { panic!("doc not an object") };
            let mut payload = header
                .iter()
                .find(|(k, _)| k == "payload")
                .map(|(_, v)| v.clone())
                .unwrap();
            let Value::Obj(fields) = &mut payload else { panic!("payload not an object") };
            if drop_model {
                fields.retain(|(k, _)| k != "model");
            }
            if let Some((k, v)) = extra {
                fields.push((k.to_string(), v));
            }
            let crc = crc::crc32(payload.to_json_string().as_bytes());
            Value::obj(vec![
                ("format", Value::Str(BUNDLE_FORMAT.to_string())),
                ("version", Value::Num(BUNDLE_VERSION as f64)),
                ("crc32", Value::Str(format!("{crc:#010x}"))),
                ("payload", payload),
            ])
            .to_json_string()
        };
        let doubled = rebuild(Some(("model_q8", q.to_json())), false);
        let none = rebuild(None, true);
        for (what, text) in [("two sections", doubled), ("no section", none)] {
            match load(text.as_bytes()).unwrap_err() {
                PrivimError::Parse(msg) => {
                    assert!(msg.contains("exactly one"), "{what}: {msg}")
                }
                other => panic!("{what}: expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn ledger_state_round_trips_through_the_bundle() {
        use crate::ledger::{LedgerConfig, LedgerState};
        let art = tiny_artifact(14);
        let g = tiny_graph(15);
        let mut state = LedgerState::new(LedgerConfig {
            epsilon_budget: 2.5,
            delta: 1e-5,
            query_sigma: 3.0,
            retry_after_secs: 30,
        });
        state.tenants.insert("acme".into(), 7);
        state.tenants.insert("zephyr".into(), 1);
        let mut buf = Vec::new();
        save_with_ledger(&art, &g, &state, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        assert_eq!(loaded.ledger, Some(state));
        // An unmetered save stays ledger-free.
        let mut buf2 = Vec::new();
        save(&art, &g, &mut buf2).unwrap();
        assert!(load(buf2.as_slice()).unwrap().ledger.is_none());
        // A corrupt ledger section is a typed error, not a silent
        // unmetered fallback.
        let text = String::from_utf8(buf).unwrap();
        let broken = text.replacen("\"epsilon_budget\":", "\"epsilon_fudget\":", 1);
        // (CRC catches the edit first — which is the right failure: a
        // tampered budget must not load at all.)
        assert!(load(broken.as_bytes()).is_err());
    }

    /// Rebuild a packed metered bundle with its ledger section replaced
    /// by `ledger` and the payload CRC *recomputed*, so the checksum
    /// layer passes and the ledger parser itself must reject the section.
    fn bundle_with_raw_ledger(seed: u64, ledger: Value) -> String {
        use crate::ledger::{LedgerConfig, LedgerState};
        let art = tiny_artifact(seed);
        let g = tiny_graph(seed + 1);
        let state = LedgerState::new(LedgerConfig {
            epsilon_budget: 1.0,
            delta: 1e-5,
            query_sigma: 8.0,
            retry_after_secs: 60,
        });
        let doc = pack_with_ledger(&art, &g, Some(&state));
        let Value::Obj(header) = doc else { panic!("doc not an object") };
        let mut payload = header
            .iter()
            .find(|(k, _)| k == "payload")
            .map(|(_, v)| v.clone())
            .unwrap();
        let Value::Obj(fields) = &mut payload else { panic!("payload not an object") };
        let slot = fields.iter_mut().find(|(k, _)| k == "ledger").unwrap();
        slot.1 = ledger;
        let crc = crc::crc32(payload.to_json_string().as_bytes());
        Value::obj(vec![
            ("format", Value::Str(BUNDLE_FORMAT.to_string())),
            ("version", Value::Num(BUNDLE_VERSION as f64)),
            ("crc32", Value::Str(format!("{crc:#010x}"))),
            ("payload", payload),
        ])
        .to_json_string()
    }

    #[test]
    fn corrupt_ledger_sections_are_typed_errors_not_unmetered_fallbacks() {
        // Structurally-broken ledger sections that survive the CRC layer
        // (checksum recomputed over the corrupted payload, as bit-rot
        // before packing or a buggy writer would produce them).
        let cases: Vec<(&str, Value)> = vec![
            ("truncated section", Value::obj(vec![("epsilon_budget", Value::Num(1.0))])),
            ("wrong type", Value::Str("not an object".into())),
            (
                "negative count",
                Value::obj(vec![
                    ("epsilon_budget", Value::Num(1.0)),
                    ("delta", Value::Num(1e-5)),
                    ("query_sigma", Value::Num(8.0)),
                    ("retry_after_secs", Value::Num(60.0)),
                    ("tenants", Value::obj(vec![("acme", Value::Num(-2.0))])),
                ]),
            ),
            (
                "invalid policy",
                Value::obj(vec![
                    ("epsilon_budget", Value::Num(0.0)),
                    ("delta", Value::Num(1e-5)),
                    ("query_sigma", Value::Num(8.0)),
                    ("retry_after_secs", Value::Num(60.0)),
                    ("tenants", Value::Obj(vec![])),
                ]),
            ),
        ];
        for (what, bad) in cases {
            let text = bundle_with_raw_ledger(20, bad);
            let err = load(text.as_bytes());
            match err {
                Err(PrivimError::Parse(_)) | Err(PrivimError::InvalidInput(_)) => {}
                Ok(b) => panic!(
                    "{what}: loaded with ledger = {:?} — corrupt section silently \
                     degraded to {} behavior",
                    b.ledger,
                    if b.ledger.is_none() { "unmetered v1" } else { "metered" }
                ),
                Err(other) => panic!("{what}: expected Parse/InvalidInput, got {other:?}"),
            }
        }
        // Sanity: the helper itself produces a loadable bundle when the
        // section is valid — the failures above are the ledger's, not an
        // artifact of the rebuild.
        let good = bundle_with_raw_ledger(
            20,
            Value::obj(vec![
                ("epsilon_budget", Value::Num(1.0)),
                ("delta", Value::Num(1e-5)),
                ("query_sigma", Value::Num(8.0)),
                ("retry_after_secs", Value::Num(60.0)),
                ("tenants", Value::obj(vec![("acme", Value::Num(3.0))])),
            ]),
        );
        let loaded = load(good.as_bytes()).unwrap();
        assert_eq!(loaded.ledger.unwrap().tenants.get("acme"), Some(&3));
    }

    #[test]
    fn pack_parts_matches_pack_with_ledger_byte_for_byte() {
        use crate::ledger::{LedgerConfig, LedgerState};
        let art = tiny_artifact(30);
        let g = tiny_graph(31);
        let mut state = LedgerState::new(LedgerConfig {
            epsilon_budget: 2.0,
            delta: 1e-5,
            query_sigma: 8.0,
            retry_after_secs: 60,
        });
        state.tenants.insert("acme".into(), 4);
        let privacy = PrivacyStatement {
            epsilon: art.epsilon,
            delta: art.delta,
            sigma: art.sigma,
            steps: art.steps as u64,
        };
        let a = pack_with_ledger(&art, &g, Some(&state)).to_json_string();
        let b = pack_parts(&art.model, &privacy, &g, Some(&state)).to_json_string();
        assert_eq!(a, b, "a compaction snapshot must be indistinguishable from a fresh pack");
    }

    #[test]
    fn fingerprint_is_sensitive_to_graph_identity() {
        let g1 = tiny_graph(10);
        let g2 = tiny_graph(11);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        // weight bits matter too
        let mut b1 = GraphBuilder::new_directed(2);
        b1.add_edge(0, 1, 1.0);
        let mut b2 = GraphBuilder::new_directed(2);
        b2.add_edge(0, 1, 0.5);
        assert_ne!(graph_fingerprint(&b1.build()), graph_fingerprint(&b2.build()));
    }
}
