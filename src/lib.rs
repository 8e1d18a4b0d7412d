//! # tridiag-gpu
//!
//! A Rust reproduction of *"Improving Tridiagonalization Performance on GPU
//! Architectures"* (PPoPP 2025): two-stage symmetric tridiagonalization
//! with **double-blocking band reduction** (DBBR) and **pipelined bulge
//! chasing**, plus full symmetric eigensolvers built on top, and a
//! calibrated GPU performance-model substrate that regenerates every table
//! and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use tridiag_gpu::prelude::*;
//!
//! // a random symmetric matrix with a known-by-construction spectrum
//! let n = 64;
//! let a = gen::random_symmetric(n, 42);
//!
//! // tridiagonalize with the paper's pipeline (DBBR + pipelined BC)
//! let mut work = a.clone();
//! let method = Method::Dbbr {
//!     cfg: DbbrConfig::new(4, 16),
//!     parallel_sweeps: 4,
//! };
//! let reduced = tridiagonalize(&mut work, &method);
//!
//! // the similarity contract: A = Q T Qᵀ
//! let q = reduced.form_q();
//! assert!(orthogonality_residual(&q) < 1e-11);
//! assert!(similarity_residual(&a, &q, &reduced.tri.to_dense()) < 1e-11);
//!
//! // full eigendecomposition
//! let evd = syevd(&mut a.clone(), &EvdMethod::proposed_default(n), true).unwrap();
//! assert!(evd.residual(&a) < 1e-11);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`tg_matrix`] | dense/band storage, generators, residuals |
//! | [`tg_blas`] | pure-Rust BLAS 1/2/3 incl. the Figure-7 `syr2k` |
//! | [`tg_householder`] | reflectors, WY/ZY, Algorithm-3 `W` merging |
//! | [`tridiag_core`] | SBR, DBBR (Algorithm 1), bulge chasing (Algorithm 2), back transformation |
//! | [`tg_eigen`] | QL iteration, divide & conquer, `syevd` drivers |
//! | [`tg_gpu_sim`] | device models, kernel cost models, pipeline + cache simulators, figure regenerators |
//! | [`tg_batch`] | batched multi-problem EVD: worker-pool scheduler |

pub use tg_batch as batch;
pub use tg_blas as blas;
pub use tg_eigen as eigen;
pub use tg_gpu_sim as gpu_sim;
pub use tg_householder as householder;
pub use tg_matrix as matrix;
pub use tridiag_core as core;

/// Everything a downstream user typically needs.
pub mod prelude {
    pub use tg_batch::BatchScheduler;
    pub use tg_eigen::{jacobi_evd, stedc, steqr, sterf, syevd, syevd_batched, Evd, EvdMethod};
    pub use tg_matrix::{
        gen, orthogonality_residual, similarity_residual, Mat, SymBand, Tridiagonal,
    };
    pub use tridiag_core::{
        band_reduce, bulge_chase_pipelined, bulge_chase_seq, dbbr, tridiagonalize, DbbrConfig,
        Method, TridiagResult,
    };
}
