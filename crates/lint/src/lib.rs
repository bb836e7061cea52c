//! `privim-lint` — source-level enforcement of the invariants PrivIM's
//! correctness claims rest on but the compiler cannot check.
//!
//! Three contracts hold this codebase together:
//!
//! 1. **Privacy**: every noise-adding call must be charged to the RDP
//!    accountant, or the paper's (ε, δ) guarantee is void
//!    (`unaccounted-noise`).
//! 2. **Determinism**: every result-affecting code path must be
//!    bit-deterministic so the 1-vs-N-thread equivalence tests mean
//!    something (`nondeterministic-collection`, `wall-clock`, `float-eq`).
//! 3. **Fault tolerance**: library code stays `Result`-based so the
//!    crash-safe harness can actually observe failures (`panic-surface`).
//!
//! The analyzer is deliberately dependency-free: a hand-rolled lexer
//! ([`lexer`]) tokenizes Rust source (raw strings, nested block comments,
//! char-vs-lifetime disambiguation), so — unlike the grep-based panic
//! gate it replaced — it never confuses code with
//! comments or string literals. Rules live in [`rules`], suppression is by
//! inline audited annotation:
//!
//! ```text
//! // privim-lint: allow(<rule>, reason = "<non-empty justification>")
//! ```
//!
//! See `DESIGN.md` §9 for the rule catalogue and annotation grammar.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod source;
