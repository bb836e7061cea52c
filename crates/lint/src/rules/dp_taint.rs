//! `dp-taint`: function-level taint tracking for raw (pre-DP) gradient
//! and embedding data, over the workspace call graph.
//!
//! *Sources* are calls that resolve to `embed` / `embed_graph` /
//! `backward` / `sample_gradient` definitions inside the DP training
//! stack (tensor, gnn, dp, core). *Sanitizers* are functions that both
//! clip and draw accountant-charged noise — the only transformation the
//! paper's privacy proof admits. A function is *tainted* if it calls a
//! source or a tainted function without being a sanitizer; tainted
//! functions that are a pub API outside the stack, or that serialize /
//! write bytes, are flagged. Flagged sinks stop further propagation so
//! one leak reports once, at the boundary.

use crate::callgraph::Workspace;
use crate::engine::RawFinding;
use crate::lexer::TokKind;
use crate::rules::noise;
use std::collections::BTreeSet;

/// Raw-data producers: calling one of these (when it resolves into the
/// DP stack) makes the caller a carrier of per-example information.
const SOURCE_FNS: [&str; 4] = ["embed", "embed_graph", "backward", "sample_gradient"];

/// Crates where raw gradients/embeddings legitimately live while being
/// privatized. `pub` functions *inside* the stack are not sinks — the
/// boundary is the stack's edge.
const STACK: [&str; 4] = ["tensor", "gnn", "dp", "core"];

/// Calls that turn a value into bytes that leave the process.
const SERIALIZE_FNS: [&str; 9] = [
    "to_json",
    "to_json_string",
    "pack",
    "pack_parts",
    "write_all",
    "write_all_faulty",
    "atomic_write_durable",
    "atomic_write_durable_with_plan",
    "response_frame",
];

pub fn check(ws: &Workspace<'_>) -> Vec<(usize, RawFinding)> {
    let n = ws.fns.len();

    // A sanitizer clips, draws noise, and either references the
    // accountant or carries an audited allow(unaccounted-noise) — the
    // same standard the unaccounted-noise rule enforces, so the two
    // rules cannot disagree about what "charged" means.
    let sanitizer: Vec<bool> = (0..n).map(|i| is_sanitizer(ws, i)).collect();

    let source_call: Vec<Option<String>> = ws
        .fns
        .iter()
        .enumerate()
        .map(|(fid, f)| {
            f.calls.iter().enumerate().find_map(|(ci, c)| {
                if !SOURCE_FNS.contains(&c.name.as_str()) {
                    return None;
                }
                let hits_stack = ws.targets[fid][ci]
                    .iter()
                    .any(|&t| STACK.contains(&ws.fns[t].krate.as_str()));
                hits_stack.then(|| c.name.clone())
            })
        })
        .collect();

    let sink: Vec<Option<String>> = ws
        .fns
        .iter()
        .map(|f| {
            if f.is_pub
                && !STACK.contains(&f.krate.as_str())
                && ws.files[f.file].scope.lib_code
            {
                return Some(format!(
                    "is a pub API of crate `{}`, outside the DP training stack",
                    f.krate
                ));
            }
            f.calls
                .iter()
                .find(|c| SERIALIZE_FNS.contains(&c.name.as_str()))
                .map(|c| format!("serializes via `{}` on line {}", c.name, c.line))
        })
        .collect();

    // Taint fixpoint with one-hop provenance. Source functions are not
    // themselves flagged — taint enters at the *call*, so `embed` stays
    // clean while its un-sanitized callers carry the mark.
    let mut taint: Vec<Option<String>> = (0..n)
        .map(|i| {
            if ws.fns[i].in_test || sanitizer[i] {
                None
            } else {
                source_call[i]
                    .as_ref()
                    .map(|s| format!("calls source `{s}`"))
            }
        })
        .collect();
    loop {
        let mut changed = false;
        for fid in 0..n {
            if taint[fid].is_some() || ws.fns[fid].in_test || sanitizer[fid] {
                continue;
            }
            let hit = ws.fns[fid].calls.iter().enumerate().find_map(|(ci, c)| {
                ws.targets[fid][ci]
                    .iter()
                    .any(|&t| taint[t].is_some() && sink[t].is_none() && !ws.fns[t].in_test)
                    .then(|| c.name.clone())
            });
            if let Some(name) = hit {
                taint[fid] = Some(format!("calls tainted `{name}`"));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for fid in 0..n {
        let f = &ws.fns[fid];
        if f.in_test || !seen.insert(fid) {
            continue;
        }
        let (Some(why), Some(boundary)) = (&taint[fid], &sink[fid]) else {
            continue;
        };
        out.push((
            f.file,
            RawFinding {
                line: f.sig_line,
                message: format!(
                    "fn `{}` handles raw gradient/embedding data ({why}) and {boundary}; \
                     route it through clip + accountant-charged noise first, or annotate \
                     allow(dp-taint, reason = \"…\") if the exposure is intentional",
                    f.name
                ),
                suppress_lines: vec![f.sig_line],
                severity: None,
            },
        ));
    }
    out
}

fn is_sanitizer(ws: &Workspace<'_>, fid: usize) -> bool {
    let f = &ws.fns[fid];
    let clips = f
        .calls
        .iter()
        .any(|c| c.name == "clip" || c.name.starts_with("clip_"));
    let noisy = f.calls.iter().any(|c| noise::is_noise_fn(&c.name));
    if !clips || !noisy {
        return false;
    }
    let sf = &ws.files[f.file].sf;
    let toks = &sf.tokens;
    let accounted = toks[f.sig_start..f.body.1.min(toks.len())]
        .iter()
        .any(|t| matches!(&t.kind, TokKind::Ident(s) if noise::is_accountant_ref(s)));
    if accounted {
        return true;
    }
    // An audited allow(unaccounted-noise) inside the fn counts too: the
    // annotation names where the budget is charged instead.
    let end_line = toks
        .get(f.body.1)
        .map(|t| t.line)
        .unwrap_or(usize::MAX);
    sf.allows
        .iter()
        .any(|a| a.rule == "unaccounted-noise" && (f.sig_line..=end_line).contains(&a.covered_line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::engine::{scope_for, ParsedFile};
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<String> {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, s)| ParsedFile {
                sf: SourceFile::parse(p, s),
                scope: scope_for(p),
            })
            .collect();
        let ws = build(&parsed);
        check(&ws).into_iter().map(|(_, r)| r.message).collect()
    }

    const GNN: (&str, &str) = (
        "crates/gnn/src/model.rs",
        "impl Model { pub fn embed(&self, x: &M) -> M { x.clone() } }",
    );

    #[test]
    fn tainted_pub_api_outside_stack_is_flagged() {
        let msgs = run(&[
            GNN,
            (
                "crates/attack/src/lib.rs",
                "pub fn shadow_scores(m: &Model, x: &M) -> M { m.embed(x) }",
            ),
        ]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("shadow_scores"), "{msgs:?}");
    }

    #[test]
    fn source_itself_and_in_stack_callers_stay_clean() {
        let msgs = run(&[
            GNN,
            (
                "crates/core/src/trainer.rs",
                "fn sample_gradient(m: &Model, x: &M) -> M { m.embed(x) }",
            ),
        ]);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn sanitizer_stops_propagation() {
        let msgs = run(&[
            GNN,
            (
                "crates/core/src/trainer.rs",
                "fn step(m: &Model, x: &M, a: &mut Accountant, r: &mut R) -> Vec<f64> {\n\
                 let g = m.embed(x);\n\
                 let g = clip_l2(&g, 1.0);\n\
                 a.charge(1);\n\
                 gaussian_noise_vec(3, 1.0, 1.0, r)\n\
                 }",
            ),
            (
                "crates/serve/src/server.rs",
                "pub fn respond(m: &Model, x: &M, a: &mut Accountant, r: &mut R) -> Vec<f64> { step(m, x, a, r) }",
            ),
        ]);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn serialization_of_tainted_data_is_flagged_once_at_the_sink() {
        let msgs = run(&[
            GNN,
            (
                "crates/serve/src/dump.rs",
                "fn leak(m: &Model, x: &M, w: &mut W) { let e = m.embed(x); w.write_all(&e.bytes()); }\n\
                 fn caller(m: &Model, x: &M, w: &mut W) { leak(m, x, w); }",
            ),
        ]);
        // `leak` is the sink; `caller` does not inherit taint through a
        // flagged sink, so exactly one finding.
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("leak"), "{msgs:?}");
    }

    #[test]
    fn unresolved_method_named_embed_is_not_a_source() {
        let msgs = run(&[(
            "crates/serve/src/other.rs",
            "pub fn widget(w: &Widget) -> M { w.embed() }",
        )]);
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
