#![warn(missing_docs)]
//! # privim-rt
//!
//! The self-contained runtime substrate for the PrivIM workspace. Every
//! other crate in the workspace depends only on `std` and on this crate,
//! which keeps the whole reproduction buildable and testable on a machine
//! with no network access and no crates.io registry.
//!
//! Four subsystems:
//!
//! * [`rng`] — a deterministic ChaCha random number generator (the block
//!   function is validated against the RFC 8439 test vectors), plus the
//!   small sampling API the repo actually uses: [`SeedableRng::seed_from_u64`],
//!   [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`],
//!   [`SliceRandom::shuffle`] and the [`dist`] module (Gaussian /
//!   exponential) used for DP noise.
//! * [`par`] — a scoped `std::thread` parallel map / reduce pool with a
//!   `PRIVIM_THREADS` override and a sequential fallback. Work is split
//!   into contiguous index chunks, so results are always returned in input
//!   order and every computation is bit-deterministic regardless of the
//!   thread count.
//! * [`json`] — a minimal JSON writer + parser ([`json::Value`],
//!   [`json::ToJson`]) that replaces `serde`/`serde_json` for experiment
//!   output and model persistence. `f64` values round-trip exactly.
//! * [`bench`](mod@bench) — a tiny fixed-iteration micro-benchmark harness replacing
//!   `criterion` for the `crates/bench` benches.
//!
//! Plus [`crc`] — a compile-time-tabled CRC-32 used by the serve bundle
//! and journal formats to reject truncated or corrupted files.
//!
//! Two fault-tolerance subsystems sit alongside them:
//!
//! * [`error`] — [`PrivimError`], the typed error every library-path
//!   `Result` in the workspace carries.
//! * [`fault`] — deterministic, seed-driven fault injection
//!   ([`fault::FaultPlan`]) used to test divergence-recovery and retry
//!   paths bit-reproducibly at any thread count.
//! * [`fsio`] — fsync-aware file primitives (fault-injectable writes,
//!   durable atomic replace) backing the serve-side WAL and bundle
//!   snapshots.

pub mod bench;
pub mod chacha;
pub mod crc;
pub mod error;
pub mod fault;
pub mod fsio;
pub mod json;
pub mod par;
pub mod rng;

pub use chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng};
pub use error::{PrivimError, PrivimResult};
pub use rng::{dist, Rng, RngCore, SeedableRng, SliceRandom};
