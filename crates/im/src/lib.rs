#![warn(missing_docs)]
//! # privim-im
//!
//! Influence-maximization substrate: diffusion models (Independent Cascade,
//! plus the Linear Threshold and SIS models the paper lists as future
//! work), exact and Monte-Carlo influence-spread estimation, the CELF lazy
//! greedy algorithm under exact one-step coverage (the paper's ground
//! truth), and simple heuristic baselines.
//!
//! ## Evaluation convention
//!
//! §V-A fixes `w_vu = 1` and diffusion step `j = 1`, under which the
//! influence spread of a seed set `S` is exactly `|S ∪ N⁺(S)|` — a
//! deterministic, submodular coverage function. [`spread::one_step_spread`]
//! computes it exactly and [`celf::celf_exact`] maximises it with the
//! classic `(1 − 1/e)` guarantee. General `(w, j)` spreads are estimated
//! by Monte-Carlo ([`diffusion::ic_spread_estimate`]). On 0/1 weights, at
//! any `j`, the estimate is exact and costs one cascade, whatever the
//! number of runs.

pub mod celf;
pub mod diffusion;
pub mod heuristics;
pub mod metrics;
pub mod spread;

pub use celf::{celf_exact, CelfResult, LazyGreedy};
pub use diffusion::{
    ic_simulate_once, ic_spread_estimate, lt_spread_estimate, sis_spread_estimate,
};
pub use metrics::coverage_ratio;
pub use spread::{expected_one_step_spread, one_step_spread};
