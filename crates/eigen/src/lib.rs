//! # tg-eigen
//!
//! Symmetric eigensolvers built on the tridiagonalization pipelines:
//!
//! * [`mod@steqr`] — implicit QL iteration for tridiagonal matrices, with or
//!   without eigenvector accumulation (`dsteqr`/`dsterf` analogues),
//! * [`dc`] — Cuppen's divide & conquer with deflation, a safeguarded
//!   secular-equation solver ([`secular`]) and the Gu–Eisenstat eigenvector
//!   fix (`dstedc` analogue) — the iterative method the paper pairs with
//!   its tridiagonalization (§6.2),
//! * [`mod@syevd`] — full `Dsyevd`-style drivers for the three pipelines the
//!   paper compares (cuSOLVER-like direct, MAGMA-like two-stage, and the
//!   proposed DBBR + pipelined-BC two-stage),
//! * [`bisect`] — Sturm-count bisection (`dstebz` analogue): the
//!   independent eigenvalue oracle,
//! * [`jacobi`] — cyclic Jacobi on the dense matrix (§7.2's third
//!   classical method), fully independent of any reduction.

pub mod bisect;
pub mod dc;
pub mod jacobi;
pub mod secular;
pub mod steqr;
pub mod syevd;

pub use bisect::eigenvalues_by_index;
pub use dc::stedc;
pub use jacobi::jacobi_evd;
pub use steqr::{steqr, sterf};
pub use syevd::{default_backtransform_k, syevd, syevd_batched, syevd_ws, Evd, EvdMethod};

/// Errors from the iterative eigensolvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigenError {
    /// The QL/QR iteration failed to converge for some eigenvalue.
    NoConvergence { index: usize },
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenError::NoConvergence { index } => {
                write!(f, "QL iteration failed to converge at eigenvalue {index}")
            }
        }
    }
}

impl std::error::Error for EigenError {}
