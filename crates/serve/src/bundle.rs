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
//! The `ledger` section is optional: a metered deployment persists
//! per-tenant budget state there, an unmetered one omits it. Only v3 is
//! accepted. Version history: v1 had no `ledger` section, v2 added it,
//! and v3 allowed a quantized (int8 or binary16) section in place of the
//! dense `model` one. Quantized storage is gone: [`load`] refuses a
//! payload that carries such a section, with or without `model`, and
//! asks for a re-pack with `privim-serve pack`.
//!
//! Three integrity layers, each with a typed failure:
//!
//! 1. **format + version** — a bundle from an older or a future writer
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
use privim_gnn::GnnModel;
use privim_graph::{Graph, GraphBuilder, NodeId};
use privim_rt::json::Value;
use privim_rt::{crc, PrivimError, PrivimResult};
use std::sync::Arc;

/// Format tag of a serve bundle.
pub const BUNDLE_FORMAT: &str = "privim-serve-bundle";
/// Bundle format version; [`load`] accepts exactly this one.
pub const BUNDLE_VERSION: u64 = 3;

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
    /// The trained model.
    pub model: GnnModel,
    /// Privacy statement the model was trained under.
    pub privacy: PrivacyStatement,
    /// The serving graph (shared: server workers and CELF state both
    /// hold clones of this `Arc`).
    pub graph: Arc<Graph>,
    /// FNV-1a fingerprint of the graph's canonical arc list.
    pub fingerprint: u64,
    /// Per-tenant serving budget ledger (`None` = unmetered deployment).
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
    let fingerprint = graph_fingerprint(graph);
    let mut fields = vec![
        ("model", model.checkpoint_payload()),
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
    if version != BUNDLE_VERSION {
        return Err(PrivimError::invalid(format!(
            "bundle version {version} not supported (accepted: {BUNDLE_VERSION}); \
             re-pack it with `privim-serve pack`"
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

    // The retired quantized model sections are checked before `model` is
    // looked up: one is never served, nor silently passed over for a dense
    // section beside it.
    if let Some(section) = ["model_q8", "model_f16"].iter().find(|k| payload.get(k).is_some()) {
        return Err(PrivimError::invalid(format!(
            "bundle carries a `{section}` section; quantized models are no longer \
             supported — re-pack the checkpoint with `privim-serve pack`"
        )));
    }
    let model = GnnModel::from_checkpoint_payload(
        payload
            .get("model")
            .ok_or_else(|| PrivimError::Parse("bundle missing model".into()))?,
    )?;

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
    // Optional: `None` means an unmetered deployment.
    let ledger = match payload.get("ledger") {
        Some(v) => Some(LedgerState::from_json(v)?),
        None => None,
    };
    Ok(Bundle {
        model,
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
    fn pre_v3_headers_are_refused_with_a_re_pack_hint() {
        // The version lives in the header, outside the CRC'd payload, so
        // rewriting it reproduces an old writer's header exactly.
        let art = tiny_artifact(12);
        let g = tiny_graph(13);
        let text = pack(&art, &g).to_json_string();
        for old in [1, 2] {
            let downgraded = text.replacen("\"version\":3", &format!("\"version\":{old}"), 1);
            match load(downgraded.as_bytes()).unwrap_err() {
                PrivimError::InvalidInput(msg) => {
                    assert!(msg.contains("privim-serve pack"), "v{old}: {msg}")
                }
                other => panic!("v{old}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    /// Re-emit a packed bundle with its payload fields edited and the CRC
    /// recomputed, so the checksum layer passes and the section checks
    /// behind it must fire.
    fn with_payload_edit(doc: Value, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let Value::Obj(header) = doc else { panic!("doc not an object") };
        let mut payload = header.into_iter().find(|(k, _)| k == "payload").unwrap().1;
        let Value::Obj(fields) = &mut payload else { panic!("payload not an object") };
        edit(fields);
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
    fn quantized_model_sections_are_refused_with_a_re_pack_hint() {
        let art = tiny_artifact(44);
        let g = tiny_graph(45);
        let section_body = art.model.checkpoint_payload();
        for (section, keep_model) in [
            ("model_q8", false),
            ("model_f16", false),
            ("model_q8", true),
            ("model_f16", true),
        ] {
            let text = with_payload_edit(pack(&art, &g), |fields| {
                if !keep_model {
                    fields.retain(|(k, _)| k != "model");
                }
                fields.push((section.to_string(), section_body.clone()));
            });
            let what = format!("{section} (model kept: {keep_model})");
            match load(text.as_bytes()).unwrap_err() {
                PrivimError::InvalidInput(msg) => assert!(
                    msg.contains(&format!("`{section}`")) && msg.contains("privim-serve pack"),
                    "{what}: {msg}"
                ),
                other => panic!("{what}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn bundle_without_a_model_section_is_rejected() {
        let art = tiny_artifact(46);
        let g = tiny_graph(47);
        let text = with_payload_edit(pack(&art, &g), |fields| fields.retain(|(k, _)| k != "model"));
        match load(text.as_bytes()).unwrap_err() {
            PrivimError::Parse(msg) => assert!(msg.contains("missing model"), "{msg}"),
            other => panic!("expected Parse error, got {other:?}"),
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

    /// A packed metered bundle with its ledger section replaced by
    /// `ledger` (CRC recomputed), so the ledger parser itself must reject
    /// the section.
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
        with_payload_edit(pack_with_ledger(&art, &g, Some(&state)), |fields| {
            fields.iter_mut().find(|(k, _)| k == "ledger").unwrap().1 = ledger;
        })
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
                    if b.ledger.is_none() { "unmetered" } else { "metered" }
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

    /// Dense bundles and compaction snapshots (`pack_parts` with and
    /// without a ledger) are pinned to the CRC-32 of their exact bytes, as
    /// written before quantized storage was removed.
    #[test]
    fn dense_bundle_bytes_match_the_pinned_crc() {
        use crate::ledger::{LedgerConfig, LedgerState};
        let art = tiny_artifact(50);
        let g = tiny_graph(51);
        let privacy = PrivacyStatement {
            epsilon: art.epsilon,
            delta: art.delta,
            sigma: art.sigma,
            steps: art.steps as u64,
        };
        let mut state = LedgerState::new(LedgerConfig {
            epsilon_budget: 2.0,
            delta: 1e-5,
            query_sigma: 8.0,
            retry_after_secs: 60,
        });
        state.tenants.insert("acme".into(), 4);
        let crc_of = |ledger| crc::crc32(pack_parts(&art.model, &privacy, &g, ledger).to_json_string().as_bytes());
        assert_eq!(crc_of(None), 0xd9fd_7228, "unmetered");
        assert_eq!(crc_of(Some(&state)), 0xf8b9_597e, "metered");
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
