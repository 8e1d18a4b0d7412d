//! [`AllocPool`], the workspace every `_ws` kernel draws its scratch from.
//!
//! It lives in this crate, the lowest one whose kernels take workspace:
//! the [`crate::wblock`] merge kernel draws its `S` scratch and merged
//! `W`/`Y` storage from it. `tridiag_core` re-exports it.
//!
//! Every acquire is a fresh `Mat::zeros` and every release a drop, so a
//! `_ws` kernel performs exactly the floating-point operations of its
//! allocating form. A recycling pool was measured against it on the batch,
//! serve and back-transform paths and bought nothing outside run-to-run
//! noise (EXPERIMENTS.md), so there is only this one.

use tg_matrix::Mat;
use tg_trace::Counter;

/// Hands out zeroed scratch matrices and takes them back. Both ends feed
/// the [`Counter::ArenaLiveBytes`] gauge, which reports the workspace
/// high-water mark of a traced run.
#[derive(Debug, Default)]
pub struct AllocPool;

impl AllocPool {
    /// Returns a zero-filled `rows × cols` matrix.
    pub fn acquire(&mut self, rows: usize, cols: usize) -> Mat {
        tg_trace::gauge_add(Counter::ArenaLiveBytes, 8 * (rows * cols) as u64);
        Mat::zeros(rows, cols)
    }

    /// Takes back a no-longer-needed buffer (dropped; its contents are
    /// dead).
    pub fn release(&mut self, m: Mat) {
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, 8 * (m.nrows() * m.ncols()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_returns_zeros() {
        let mut pool = AllocPool;
        let m = pool.acquire(3, 5);
        assert_eq!((m.nrows(), m.ncols()), (3, 5));
        assert!(m.as_slice().iter().all(|&x| x.to_bits() == 0));
        pool.release(m);
    }
}
