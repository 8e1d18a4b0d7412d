//! # tg-blas
//!
//! Pure-Rust BLAS level 1/2/3 kernels over [`tg_matrix`] types.
//!
//! The level-3 module contains three `syr2k` implementations because the
//! paper's §5.1 contribution is precisely a re-blocked `syr2k`:
//!
//! * [`level3::syr2k_ref`] — triple-loop reference (used to validate the rest),
//! * [`syr2k::syr2k_blocked`] — conventional rectangular-strip blocking
//!   (what cuBLAS-style implementations do, per \[23\] in the paper),
//! * [`syr2k::syr2k_square`] — the paper's Figure-7 scheme: diagonal blocks
//!   first, then *paired* off-diagonal blocks merged into square GEMMs.
//!
//! All kernels operate on `f64` and follow LAPACK lower-triangle conventions
//! for symmetric updates. The packed GEMM every level-3 product funnels
//! through runs one register micro-kernel per process — AVX-512F,
//! AVX2+FMA or portable scalar — chosen in [`mod@kernel`].

pub mod batched;
pub mod kernel;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod narrow;
pub mod pack;
pub mod syr2k;
pub mod threads;

pub use kernel::{kernel, kernel_name, Kernel};
pub use level3::{gemm, gemm_into, Op};
pub use pack::{gemm_packed, gemm_packed_with_threads};
pub use syr2k::{syr2k_blocked, syr2k_square, syr2k_square_head};
pub use threads::{parse_tg_threads, try_worker_threads, worker_threads, ThreadsConfigError};

/// Floating-point operation counts for the kernels in this crate, used by
/// the benchmark harness to report TFLOP-style rates consistently with the
/// paper (which counts a fused multiply-add as 2 flops).
pub mod flops {
    /// `C ← α·op(A)op(B) + β·C` with result `m × n` and inner dimension `k`.
    pub fn gemm(m: usize, n: usize, k: usize) -> u64 {
        2 * m as u64 * n as u64 * k as u64
    }

    /// Rank-2k symmetric update of an `n × n` matrix: `C ← C − Z Yᵀ − Y Zᵀ`.
    /// Only the referenced triangle is computed.
    pub fn syr2k(n: usize, k: usize) -> u64 {
        2 * k as u64 * n as u64 * (n as u64 + 1)
    }

    /// Full dense tridiagonalization of an `n × n` symmetric matrix.
    pub fn sytrd(n: usize) -> u64 {
        4 * (n as u64).pow(3) / 3
    }
}
