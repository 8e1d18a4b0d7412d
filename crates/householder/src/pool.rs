//! The workspace-pool trait used by every `_ws` kernel variant.
//!
//! It lives in this crate, the lowest one whose kernels take pooled
//! scratch: the [`crate::wblock`] merge/apply kernels draw their `S`, `W₂'`
//! and `WᵀC` intermediates from it. `tridiag_core` re-exports it next to
//! its two implementations, `AllocPool` and `CachingPool`.
//!
//! **Determinism contract:** a pool must return buffers that are
//! *bitwise-zero*, exactly like `Mat::zeros`. Under that contract the
//! workspace-taking variants perform the identical floating-point
//! operations as the allocating ones, so their outputs are
//! bitwise-identical regardless of which pool is used.

use tg_matrix::Mat;

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
