#![warn(missing_docs)]
// The request path is reached only through the Linux-only front end;
// elsewhere `start` refuses to serve and that code is never called.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]
//! # privim-serve
//!
//! An online inference and seed-set query server over a trained PrivIM
//! model — the deployment half of the pipeline: once DP-SGD has produced
//! a releasable `(model, ε, δ, σ, steps)` artifact, this crate packs it
//! into a checksummed bundle together with the serving graph and answers
//! queries over plain HTTP/1.1 on `std::net` (the workspace's
//! zero-external-dependency policy extends to the server: no tokio, no
//! hyper, no serde).
//!
//! ## Endpoints
//!
//! | route | what it does |
//! |---|---|
//! | `POST /v1/influence` | spread of a seed set (Monte-Carlo IC), LRU-cached |
//! | `POST /v1/seeds` | top-`k` seeds via resumable CELF (cached pick order) |
//! | `POST /v1/embed` | GNN scores for requested nodes, from one forward pass per server |
//! | `GET /metrics` | plain-text exposition: counters, latency histograms, per-tenant budgets |
//! | `GET /healthz` | liveness |
//!
//! Query endpoints are *budget-aware* when the bundle carries a ledger
//! ([`ledger::TenantLedger`]): requests with an `X-Privim-Tenant` header
//! are charged one Gaussian release per query against that tenant's RDP
//! budget, and an exhausted tenant gets `429 Too Many Requests` with a
//! `Retry-After` header — before any inference work happens.
//!
//! ## Production behaviours
//!
//! * **Compute-once embeds** ([`server`]): `/v1/embed` scores are a pure
//!   function of the immutable `(model, graph)` pair, so the first embed
//!   runs one full-graph forward pass and every later one reads its rows
//!   from that vector. Budget admission still runs per request.
//! * **Caching** ([`cache::ShardedLru`]): spread estimates are cached in
//!   a sharded LRU keyed by the *exact* canonical request bytes (the hash
//!   only picks the shard, so a collision can never serve a wrong value),
//!   and `/v1/seeds` reuses one [`privim_im::LazyGreedy`] across requests
//!   — greedy prefix stability makes any `k ≤ computed` free.
//! * **Epoll front end** (the `conn` + Linux-only `reactor` modules): one
//!   reactor thread drives nonblocking sockets with HTTP/1.1 keep-alive
//!   and pipelining, a per-connection state machine, and a coarse timer
//!   wheel for idle/header-read timeouts (slowloris defense); a worker
//!   pool executes the requests. Serving is Linux-only: elsewhere
//!   [`server::start`] returns an `Unsupported` I/O error.
//! * **Load shedding** ([`server`]): a bounded job queue; overflow and
//!   requests whose queue wait exceeds the deadline get `503` instead of
//!   growing latency without bound.
//! * **Graceful drain**: shutdown stops accepting, then completes every
//!   in-flight and queued request before workers exit.
//! * **Versioned bundles** ([`bundle`]): format tag + version + CRC-32 +
//!   graph fingerprint, so a serving process can never silently run a
//!   truncated model or mismatched graph.
//! * **Crash durability** ([`wal`]): every granted budget charge is
//!   journaled (length-prefixed, CRC-32'd, fsync'd) *before* the client
//!   sees a 2xx; startup replays the journal over the bundle's ledger
//!   with never-undercharge semantics, and periodic compaction folds it
//!   into an atomically-replaced bundle snapshot.
//!
//! Determinism note: response payloads are bit-identical to direct
//! library calls (the e2e test pins this) — computing scores once and
//! caching change *when* work happens, never *what* is computed.

pub mod bundle;
pub mod cache;
pub(crate) mod conn;
pub mod http;
pub mod ledger;
pub mod metrics;
#[cfg(test)]
mod conformance;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;
pub mod wal;

pub use bundle::{graph_fingerprint, Bundle, PrivacyStatement, BUNDLE_FORMAT, BUNDLE_VERSION};
pub use cache::ShardedLru;
pub use ledger::{Admission, LedgerConfig, LedgerState, TenantLedger};
pub use metrics::Metrics;
pub use server::{influence_cache_key, start, DurabilityConfig, ServeConfig, ServerHandle};
pub use wal::{FsyncPolicy, RecoveryReport, WalWriter};
