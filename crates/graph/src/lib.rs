#![warn(missing_docs)]
//! # privim-graph
//!
//! Graph substrate for the PrivIM reproduction: a compact CSR graph type,
//! the θ-bounded in-degree projection from §III-B of the paper, induced
//! subgraph extraction, classic graph algorithms (r-hop neighbourhoods,
//! clustering coefficients, connected components, degree statistics),
//! synthetic generators (Erdős–Rényi, Barabási–Albert, Holme–Kim, directed
//! preferential attachment) and dataset builders calibrated to Table I of
//! the paper.
//!
//! All randomised routines take an explicit [`privim_rt::Rng`] so experiments are
//! reproducible from a seed.
//!
//! ## Quick example
//!
//! ```
//! use privim_graph::{datasets::Dataset, algo};
//! use privim_rt::SeedableRng;
//!
//! let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(7);
//! let g = Dataset::LastFm.generate_scaled(0.05, &mut rng);
//! assert!(g.num_nodes() > 300);
//! let stats = algo::degree_stats(&g);
//! assert!(stats.mean_total > 1.0);
//! ```

pub mod algo;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod partition;
pub mod projection;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId};
pub use subgraph::{induced_subgraph, Subgraph};
