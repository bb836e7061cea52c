//! `panic-surface`: library code stays `Result`-based; every residual
//! panic-capable site carries an inline `allow(panic, ...)` audit. Also
//! hosts the advisory `panic-indexing` heuristic.
//!
//! This replaced the repo's earlier grep-based panic gate: being
//! token-aware, it does not count doc-comment examples or string
//! literals, does not confuse a method *named* `expect` with
//! `Result::expect`, and it additionally counts `unreachable!` /
//! `todo!` / `unimplemented!`, which the grep never saw.

use crate::engine::{RawFinding, Scope, Severity};
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Macro heads that abort instead of returning an error.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn check(f: &SourceFile, scope: &Scope) -> Vec<RawFinding> {
    if !scope.lib_code {
        return Vec::new();
    }
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut flag = |line: usize, what: &str| {
        out.push(RawFinding {
            line,
            message: format!(
                "panic-capable `{what}` in library code; return \
                 privim_rt::PrivimResult, or audit a provably infallible \
                 site with allow(panic, reason = \"...\")"
            ),
            suppress_lines: vec![line],
            severity: None,
        });
    };
    for i in 0..toks.len() {
        let TokKind::Ident(name) = &toks[i].kind else {
            continue;
        };
        if f.in_test_region(toks[i].line) {
            continue;
        }
        let prev_dot = i > 0 && matches!(&toks[i - 1].kind, TokKind::Punct(b'.'));
        let next = toks.get(i + 1).map(|t| &t.kind);
        match name.as_str() {
            // `.unwrap()` — exactly, so `.unwrap_or(...)` stays legal.
            "unwrap"
                if prev_dot
                    && matches!(next, Some(TokKind::Punct(b'(')))
                    && matches!(toks.get(i + 2).map(|t| &t.kind), Some(TokKind::Punct(b')'))) =>
            {
                flag(toks[i].line, ".unwrap()");
            }
            // `.expect(` as a method call — a standalone fn named expect
            // (no leading dot) is someone's parser, not Result::expect.
            "expect" if prev_dot && matches!(next, Some(TokKind::Punct(b'('))) => {
                flag(toks[i].line, ".expect(");
            }
            m if PANIC_MACROS.contains(&m)
                && matches!(next, Some(TokKind::Punct(b'!'))) =>
            {
                flag(toks[i].line, &format!("{m}!("));
            }
            _ => {}
        }
    }
    out
}

/// Rust keywords that can legitimately precede a `[` that is *not* an
/// indexing expression (array/slice types and literals, attributes).
const NON_INDEX_PRECEDERS: [&str; 16] = [
    "let", "mut", "in", "impl", "dyn", "ref", "move", "return", "break", "as", "where", "const",
    "static", "pub", "crate", "else",
];

/// Advisory `panic-indexing`: list indexing expressions in library code.
pub fn check_indexing(f: &SourceFile, scope: &Scope) -> Vec<RawFinding> {
    if !scope.lib_code {
        return Vec::new();
    }
    let toks = &f.tokens;
    let mut out = Vec::new();
    for i in 1..toks.len() {
        if !matches!(toks[i].kind, TokKind::Punct(b'[')) || f.in_test_region(toks[i].line) {
            continue;
        }
        let indexes = match &toks[i - 1].kind {
            TokKind::Ident(n) => !NON_INDEX_PRECEDERS.contains(&n.as_str()),
            TokKind::Punct(b')') | TokKind::Punct(b']') => true,
            _ => false,
        };
        if indexes {
            out.push(RawFinding {
                line: toks[i].line,
                message: "indexing expression (panics when out of bounds) — \
                          verify the index is provably in range or use `.get`"
                    .to_string(),
                suppress_lines: vec![toks[i].line],
                severity: Some(Severity::Warning),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scope_for;

    fn run(src: &str) -> Vec<RawFinding> {
        let f = SourceFile::parse("crates/rt/src/x.rs", src);
        check(&f, &scope_for("crates/rt/src/x.rs"))
    }

    #[test]
    fn panic_sites_counted_token_aware() {
        let src = r#"
fn f(v: Vec<u32>) -> u32 {
    // an .unwrap() in a comment does not count
    let s = "panic!( in a string does not count";
    let a = v.first().unwrap();
    let b = v.last().expect("nonempty");
    if v.is_empty() { unreachable!("checked") }
    *a + *b
}
"#;
        let got = run(src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].line, 5);
    }

    #[test]
    fn named_expect_method_and_unwrap_or_pass() {
        let src = "fn g(p: &mut Parser) -> R { p.check(); expect(b'[');\n\
                   let x = opt.unwrap_or(3); let y = opt.unwrap_or_default(); x + y }\n\
                   impl P { fn expect(&mut self, b: u8) -> R { self.go(b) } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_modules_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { None::<u32>.unwrap(); }\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn indexing_advisory() {
        let f = SourceFile::parse(
            "crates/rt/src/x.rs",
            "fn f(xs: &[u32], i: usize) -> u32 { let v: [u32; 2] = [0, 1]; xs[i] + v[0] }",
        );
        let got = check_indexing(&f, &scope_for("crates/rt/src/x.rs"));
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|g| g.severity == Some(Severity::Warning)));
    }
}
