//! The workspace-pool trait used by every `_ws` kernel variant, and
//! [`AllocPool`], its trivial implementation.
//!
//! It lives in this crate, the lowest one whose kernels take pooled
//! scratch: the [`crate::wblock`] merge kernel draws its `S` scratch and
//! merged `W`/`Y` storage from it. `tridiag_core` re-exports both next to
//! its recycling implementation, `CachingPool`.
//!
//! **Determinism contract:** a pool must return buffers that are
//! *bitwise-zero*, exactly like `Mat::zeros`. Under that contract the
//! workspace-taking kernels perform the identical floating-point
//! operations whichever pool is used, so their outputs are
//! bitwise-identical across pools.

use tg_matrix::Mat;
use tg_trace::Counter;

/// Supplies zeroed scratch matrices and accepts them back for reuse.
///
/// Implementations must return buffers indistinguishable from
/// `Mat::zeros(rows, cols)`; everything else (caching policy, accounting,
/// debug poisoning) is up to the pool.
pub trait WorkspacePool {
    /// Returns a zero-filled `rows × cols` matrix.
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat;

    /// Hands a no-longer-needed buffer back to the pool. The pool may
    /// recycle or drop it; the contents are dead.
    fn release(&mut self, m: Mat);
}

/// The trivial pool: every acquire is a fresh allocation, every release a
/// drop. The allocating entry points upstack (`tridiag_core::dbbr`,
/// `tridiag_core::tridiagonalize`, `tg_eigen::syevd`) are literally their
/// `_ws` variants with this pool.
#[derive(Default)]
pub struct AllocPool;

impl WorkspacePool for AllocPool {
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat {
        // Feed the live-bytes gauge so the single-problem path reports the
        // same workspace high-water mark the caching pools do.
        tg_trace::gauge_add(Counter::ArenaLiveBytes, 8 * (rows * cols) as u64);
        Mat::zeros(rows, cols)
    }

    fn release(&mut self, m: Mat) {
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, 8 * (m.nrows() * m.ncols()) as u64);
    }
}
