#![warn(missing_docs)]
//! # privim-tensor
//!
//! A minimal, self-contained reverse-mode automatic-differentiation engine
//! sized for the PrivIM workload: small dense matrices (subgraphs have at
//! most ~80 nodes, hidden width 32) flowing through graph message-passing
//! operators (sparse matrix × dense matrix, row gather, fused GAT/GRAT
//! attention) plus the usual dense ops (matmul, elementwise nonlinearities,
//! reductions).
//!
//! The paper's reference implementation uses PyTorch; this crate replaces it
//! per the substitution policy in DESIGN.md. Backward passes are verified
//! against central finite differences by property tests (`gradcheck`).
//!
//! ## Example
//!
//! ```
//! use privim_tensor::{Matrix, Tape};
//!
//! let w = Matrix::from_rows(&[&[0.5, -0.2], &[0.1, 0.3]]);
//! let x = Matrix::from_rows(&[&[1.0, 2.0]]);
//! let mut tape = Tape::new();
//! let wv = tape.leaf(w);
//! let xv = tape.leaf(x);
//! let y = tape.matmul(xv, wv);
//! let s = tape.sigmoid(y);
//! let loss = tape.sum(s);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.wrt(wv).rows(), 2);
//! ```

pub mod attention;
pub mod gradcheck;
pub mod init;
pub mod matrix;
pub mod optim;
pub mod pool;
pub mod simd;
pub mod sparse;
pub mod tape;

pub use matrix::Matrix;
pub use optim::GradClip;
pub use sparse::SparseMatrix;
pub use tape::{Gradients, Tape, Var};
