#![warn(missing_docs)]
//! # privim
//!
//! The PrivIM framework (§III–§IV): node-level differentially private GNN
//! training for influence maximization, plus every competitor in the
//! paper's evaluation (§V-A).
//!
//! The framework is three modules glued into a pipeline (Fig. 2):
//!
//! 1. **Subgraph extraction** — Algorithm 1 (naive) or the dual-stage
//!    adaptive frequency sampling of Algorithm 3 (`privim-sampling`).
//! 2. **Privacy accounting** — the occurrence bound (Lemma 1 / threshold
//!    `M`), the sensitivity `Δ_g = C·N_g` (Lemma 2) and noise calibration
//!    via Theorem 3 (`privim-dp`).
//! 3. **DPGNN training** — per-subgraph gradient clipping + Gaussian noise
//!    (Algorithm 2) against the probabilistic penalty IM loss (Eq. 5),
//!    implemented in [`trainer`] and [`loss`].
//!
//! [`pipeline`] exposes one entry point per evaluated method:
//! `PrivIM`, `PrivIM+SCS`, `PrivIM*`, `Non-Private`, `EGN`, `HP`,
//! `HP-GRAT`, plus the `CELF` ground truth from `privim-im`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use privim::pipeline::{run_method, EvalSetup, Method};
//! use privim_graph::datasets::Dataset;
//! use privim_rt::SeedableRng;
//!
//! let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(7);
//! let g = Dataset::LastFm.generate_scaled(0.1, &mut rng);
//! let setup = EvalSetup::paper_defaults(&g, 50, &mut rng);
//! let out = run_method(Method::PrivImStar { epsilon: 4.0 }, &setup, 1).unwrap();
//! println!("spread {} (coverage {:.1}%)", out.spread, out.coverage_ratio);
//! ```

pub mod baselines;
pub mod loss;
pub mod maxcut;
pub mod pipeline;
pub mod results;
pub mod trainer;

pub use loss::{im_loss, LossConfig, PhiKind};
pub use pipeline::{export_serve_artifact, run_method, EvalSetup, Method, ServeArtifact};
pub use results::{MethodOutput, PrivacyEvidence};
pub use trainer::{train_dpgnn, DpSgdConfig, TrainItem, TrainReport};
