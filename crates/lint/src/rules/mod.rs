//! The rule catalogue: ids, severities, allow ids, and `--explain` text.
//!
//! Every rule is a pure function from a parsed [`SourceFile`] (or a
//! `Cargo.toml`) to raw findings; the engine applies annotation
//! suppression and severity accounting on top. Adding a rule means adding
//! a module here and one [`RuleInfo`] entry to [`registry`].

pub mod deps;
pub mod determinism;
pub mod dp_taint;
pub mod float_eq;
pub mod lock_order;
pub mod noise;
pub mod panic_surface;
pub mod unsafe_audit;

use crate::callgraph::Workspace;
use crate::engine::{RawFinding, Scope, Severity};
use crate::source::SourceFile;

/// What a rule consumes.
pub enum RuleKind {
    /// Runs over parsed `.rs` files.
    Rust(fn(&SourceFile, &Scope) -> Vec<RawFinding>),
    /// Runs over `Cargo.toml` manifests: `(workspace-relative path, text)`.
    Toml(fn(&str, &str) -> Vec<RawFinding>),
    /// Runs once over the whole-workspace call graph; findings carry the
    /// index of the file they anchor to.
    Workspace(fn(&Workspace<'_>) -> Vec<(usize, RawFinding)>),
    /// Emitted by the engine itself (annotation hygiene); listed here so
    /// `--explain` covers it.
    Meta,
}

/// Static description of one rule.
pub struct RuleInfo {
    pub id: &'static str,
    /// Id accepted in `allow(...)` annotations (differs from `id` only
    /// for `panic-surface`, whose allow id is the shorter `panic`).
    pub allow_id: &'static str,
    pub severity: Severity,
    /// Advisory rules run only when explicitly selected via `--rule` and
    /// never fail the gate.
    pub advisory: bool,
    pub summary: &'static str,
    pub explain: &'static str,
    pub kind: RuleKind,
}

/// All rules, in reporting order.
pub fn registry() -> &'static [RuleInfo] {
    &[
        RuleInfo {
            id: "unaccounted-noise",
            allow_id: "unaccounted-noise",
            severity: Severity::Error,
            advisory: false,
            summary: "noise primitives must be charged to the RDP accountant",
            explain: "\
The paper's (epsilon, delta) guarantee is a statement about *accounted*
noise: Theorem 3 composes the per-step RDP cost of every Gaussian draw, so
a code path that adds noise without charging the accountant silently voids
the guarantee (the classic DP-implementation leak of Tramer et al.). Any
function whose body calls a noise primitive (gaussian_noise_vec,
laplace_noise_vec, sml_noise_vec, add_noise, noisy_*) must also reference
the accountant (an identifier containing `Accountant`, or `charge` /
`compose`), or carry an audited annotation:

    // privim-lint: allow(unaccounted-noise, reason = \"...\")

placed on the noise-call line or the function's `fn` line. The reason must
say where the budget is charged instead. This is the load-bearing rule:
every other invariant protects test fidelity, this one protects the
privacy claim itself.",
            kind: RuleKind::Rust(noise::check),
        },
        RuleInfo {
            id: "nondeterministic-collection",
            allow_id: "nondeterministic-collection",
            severity: Severity::Error,
            advisory: false,
            summary: "HashMap/HashSet are banned in result-affecting crates",
            explain: "\
std's HashMap/HashSet use SipHash with process-random keys, so iteration
order differs across runs and platforms. In result-affecting crates
(tensor, dp, gnn, sampling, im, core, graph, bench, lint) that breaks the
1-vs-N-thread bit-equality tests and makes experiment outputs
irreproducible. Use BTreeMap/BTreeSet, a sorted Vec, or the seeded
alternative. Library code only (src/bin CLIs and test modules are exempt);
suppress a genuinely order-free scratch use with
allow(nondeterministic-collection, reason = \"...\").",
            kind: RuleKind::Rust(determinism::check_collections),
        },
        RuleInfo {
            id: "wall-clock",
            allow_id: "wall-clock",
            severity: Severity::Error,
            advisory: false,
            summary: "Instant::now/SystemTime only in bench plumbing or labelled timing",
            explain: "\
Wall-clock reads are nondeterministic inputs: a result that depends on
Instant::now() cannot be bit-reproduced. Instant::now and SystemTime are
confined to crates/rt/src/bench.rs (the bench harness); every other site
must be explicitly labelled as timing-only telemetry with
allow(wall-clock, reason = \"...\") so an auditor can verify the value
never feeds a result. In crates/serve (latency instrumentation is the
point) an annotation on the enclosing fn signature covers every read in
that function.",
            kind: RuleKind::Rust(determinism::check_wall_clock),
        },
        RuleInfo {
            id: "float-eq",
            allow_id: "float-eq",
            severity: Severity::Error,
            advisory: false,
            summary: "no == / != against float literals",
            explain: "\
Exact float equality is almost always a latent bug: values that are
mathematically equal differ in the last ulp after reordered summation,
which is exactly what the deterministic-parallelism contract forbids
relying on. Comparisons `x == 1.0` / `x != 0.0` (either operand a float
literal) are denied in library code. Convert result-affecting ones to an
explicit epsilon or bit-pattern (`to_bits`) check; annotate intentional
IEEE-exact sentinels with allow(float-eq, reason = \"...\").",
            kind: RuleKind::Rust(float_eq::check),
        },
        RuleInfo {
            id: "panic-surface",
            allow_id: "panic",
            severity: Severity::Error,
            advisory: false,
            summary: "library code must stay Result-based",
            explain: "\
The fault-tolerance contract (DESIGN.md section 8) requires library code
to surface failures as PrivimError, not aborts: the crash-safe harness can
only checkpoint around errors it observes. Token-aware counting of
.unwrap() / .expect( / panic!( / unreachable!( / todo!( / unimplemented!(
in crate library code (src/bin entry points and #[cfg(test)] modules are
exempt; assert! invariant checks are allowed). Unlike the grep-based
panic gate this rule replaced, comments, doc examples, and string
literals do not count, and methods merely *named* `expect` do not trip it.
Every remaining site must be provably infallible and annotated in place:

    // privim-lint: allow(panic, reason = \"...\")

The annotation replaces the old external allowlist file, so the audit
travels with the code it audits.",
            kind: RuleKind::Rust(panic_surface::check),
        },
        RuleInfo {
            id: "panic-indexing",
            allow_id: "panic-indexing",
            severity: Severity::Warning,
            advisory: true,
            summary: "advisory: slice/array indexing in library code",
            explain: "\
Indexing (`xs[i]`) panics on out-of-bounds and is invisible to the
panic-surface rule. This advisory heuristic lists indexing expressions in
library code so a reviewer can sweep for unchecked indices. It is noisy by
design (CSR adjacency walks index heavily and provably in-bounds), so it
only runs when explicitly requested via `--rule panic-indexing` and never
fails the gate.",
            kind: RuleKind::Rust(panic_surface::check_indexing),
        },
        RuleInfo {
            id: "dependency-policy",
            allow_id: "dependency-policy",
            severity: Severity::Error,
            advisory: false,
            summary: "only path / workspace dependencies are allowed",
            explain: "\
The workspace builds with crates.io unreachable (DESIGN.md
zero-external-dependency policy): every dependency in every Cargo.toml
must be a pure path dependency or `workspace = true` inheritance. This
rule is a real section-aware manifest parser (it understands
[dependencies], [dev-dependencies], [build-dependencies],
[workspace.dependencies], target-specific tables, and
[dependencies.<name>] subtables) and replaces the line-oriented awk check
that previously lived in scripts/ci.sh. Any `version`, `git`, or
`registry` key on a dependency is a finding even when a `path` is also
present.",
            kind: RuleKind::Toml(deps::check_toml),
        },
        RuleInfo {
            id: "lock-order",
            allow_id: "lock-order",
            severity: Severity::Error,
            advisory: false,
            summary: "no lock cycles; no blocking I/O or condvar waits under a lock",
            explain: "\
Cross-file deadlock and lock-latency analysis over the workspace call
graph. Every acquisition site (.lock(), calls to the per-module `lock`
helpers, rwlock-ish .read()/.write()) opens a held range: to the end of
the enclosing block for a let-bound guard (ending early at drop(guard)),
to the end of the statement otherwise. Within a held range the rule
flags, transitively through the call graph:

  * acquiring locks in a cycle-forming order (A before B here, B before
    A anywhere else — including a re-acquisition of the same lock, which
    self-deadlocks std::sync::Mutex);
  * blocking on a Condvar or completion latch (waiting on the condvar
    that releases the held guard itself is exempt — that is what a
    condvar is for);
  * file I/O, fsync, socket writes, or sleeps (rt::fsio helpers, the
    write_all/flush/sync family) — holding a hot-path lock across a disk
    flush is how a 10ms fsync becomes a 10ms admission stall.

Lock identities are `file::name` so two modules' `queue` mutexes stay
distinct; acquisition through the per-module `fn lock` helper is
attributed to the helper's *argument* (`lock(&shared.queue)` acquires
`queue`). Deliberate exceptions (e.g. the WAL durability contract of
DESIGN.md §13 holds the journal lock across fsync by design) must be
annotated in place:

    // privim-lint: allow(lock-order, reason = \"...\")

on the acquisition line or the enclosing fn signature. The analysis is
heuristic, not sound — see DESIGN.md §9 for what the resolver can miss.",
            kind: RuleKind::Workspace(lock_order::check),
        },
        RuleInfo {
            id: "dp-taint",
            allow_id: "dp-taint",
            severity: Severity::Error,
            advisory: false,
            summary: "raw gradients/embeddings must pass clip+noise before any release path",
            explain: "\
Function-level taint tracking for the DP boundary. Sources are the raw
model internals an adversary must never see unperturbed: per-sample
gradients (Tape::backward, sample_gradient) and penultimate-layer
embeddings (embed, embed_graph) defined in the training stack (tensor /
gnn / dp / core). A function that (transitively) consumes a source is
tainted unless it is a sanitizer: a function that clips (clip / clip_*)
AND draws accountant-referenced noise — the same accountant test the
unaccounted-noise rule applies, including its audited
allow(unaccounted-noise) annotations. Tainted functions are flagged when
they reach a release path: a pub API outside the training stack (the
serve response surface included) or any serialization call
(to_json/to_json_string/pack or the file-write family). The GAP/ProGAP
line of work shows exactly this failure: one aggregation path that skips
the perturbation silently voids the epsilon guarantee. Code that is
*supposed* to see raw internals (the attack harness measuring leakage)
carries an audited annotation:

    // privim-lint: allow(dp-taint, reason = \"...\")

on the function's fn line. A flagged-and-audited function does not
re-taint its callers — the annotation marks the audited boundary.",
            kind: RuleKind::Workspace(dp_taint::check),
        },
        RuleInfo {
            id: "unsafe-audit",
            allow_id: "unsafe",
            severity: Severity::Error,
            advisory: false,
            summary: "every unsafe needs an audited reason; intrinsics need guarded scalar fallbacks",
            explain: "\
Two contracts ahead of the SIMD roadmap item. (1) Every `unsafe` block,
fn, or impl outside #[cfg(test)] must carry an audited annotation with a
real safety argument:

    // privim-lint: allow(unsafe, reason = \"why this cannot misbehave\")

on the unsafe line or the enclosing fn signature — the safety comment
becomes machine-checked instead of conventional. (2) Any core::arch
intrinsic call (_mm*/v* families or an arch-qualified path) must be
unreachable without a runtime feature check: the containing fn either
performs the is_x86_feature_detected!/is_aarch64_feature_detected!
check itself, or is #[target_feature]-gated — in which case a scalar
fallback sibling must exist (the name minus its _avx2/_sse/_neon/_simd
suffix, or name_scalar) and every call site in the graph must sit in a
function that references the detection macro. This makes 'SIMD behind a
detected fallback' an enforced invariant rather than a convention, so
the deterministic kernels stay runnable on any host.",
            kind: RuleKind::Workspace(unsafe_audit::check),
        },
        RuleInfo {
            id: "bad-annotation",
            allow_id: "bad-annotation",
            severity: Severity::Error,
            advisory: false,
            summary: "annotation hygiene: parseable, known rule, mandatory reason, no dead allows",
            explain: "\
Suppressions are part of the audited surface, so they are linted too: a
`privim-lint:` comment that does not parse as
allow(<rule>, reason = \"...\"), names an unknown rule, or omits the
reason is an error. An allow that suppresses nothing is reported as a
warning (dead allows rot into false confidence). This rule always runs,
even under `--rule <other>`.",
            kind: RuleKind::Meta,
        },
    ]
}

/// Look up a rule by id.
pub fn by_id(id: &str) -> Option<&'static RuleInfo> {
    registry().iter().find(|r| r.id == id)
}

/// True when `id` is accepted inside `allow(...)`.
pub fn is_known_allow_id(id: &str) -> bool {
    registry()
        .iter()
        .any(|r| r.allow_id == id && !matches!(r.kind, RuleKind::Meta))
}
