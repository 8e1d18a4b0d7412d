//! Scratch-buffer injection for the reduction kernels.
//!
//! The band-reduction stages allocate sizeable intermediates — the
//! accumulated `(Z, Y)` pair grows to `n × k` per outer block, and every
//! panel needs a fresh `U`/`Z` — so a driver solving many problems in a row
//! (see `tg-batch`) pays the allocator once per buffer per problem. The
//! [`WorkspacePool`] trait (defined in [`tg_householder::pool`], the lowest
//! crate whose kernels take pooled scratch) lets a caller hand the kernels
//! recycled storage instead: `dbbr_ws` / `tridiagonalize_ws` request every
//! scratch matrix through the pool and return it when done.
//!
//! **Determinism contract:** a pool must return buffers that are
//! *bitwise-zero*, exactly like `Mat::zeros`, so the output is
//! bitwise-identical for every pool. Each kernel exists once, pool-backed:
//! the allocating entry points are literally the `_ws` variants with
//! [`AllocPool`] (from `tg_householder::pool`), which allocates and drops;
//! [`CachingPool`] recycles.

use std::collections::BTreeMap;

use tg_matrix::Mat;
use tg_trace::Counter;

pub use tg_householder::pool::{AllocPool, WorkspacePool};

/// Shape class `(n, b, k)` of one solve. Problems of equal class request
/// identical buffer-size sequences from the reduction, so a
/// [`CachingPool`] warmed by one serves the next from cache
/// (see [`crate::Method::shape_class`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Matrix dimension.
    pub n: usize,
    /// Bandwidth (panel width `nb` for the direct method).
    pub b: usize,
    /// `syr2k` accumulation width (0 for single-blocking methods).
    pub k: usize,
}

/// Hit/miss counts of one pool (or, merged, of several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the free lists.
    pub hits: u64,
    /// Acquires that had to allocate.
    pub misses: u64,
}

impl PoolStats {
    /// `hits / (hits + misses)`, or 0 before the first acquire.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another pool's counts (per-worker pools merge into one total).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// The recycling pool: released buffers park in per-length free lists and
/// are zero-scrubbed on reuse, upholding the bitwise contract while making
/// the steady state allocation-free. Batch and serve workers keep one per
/// worker across problems; the parallel back transformation keeps one per
/// panel lane, so no pool is ever shared or locked.
///
/// Every acquire records [`Counter::ArenaHit`] or [`Counter::ArenaMiss`]
/// and feeds the [`Counter::ArenaLiveBytes`] gauge; [`CachingPool::stats`]
/// returns the same counts without a trace session. In debug builds,
/// released buffers are NaN-poisoned, so a kernel that reads workspace it
/// never wrote (or a reuse that skips the scrub) surfaces as NaN instead of
/// silently stale data.
#[derive(Debug, Default)]
pub struct CachingPool {
    /// Shape class of the current problem, set by
    /// [`begin_problem`](CachingPool::begin_problem).
    class: Option<ShapeClass>,
    /// Free lists: buffer length → stack of retired buffers of that length.
    free: BTreeMap<usize, Vec<Vec<f64>>>,
    stats: PoolStats,
    /// Bytes currently checked out (acquired and not yet released).
    live_bytes: u64,
}

impl CachingPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the shape class of the next problem. A class change drops
    /// every parked buffer (their sizes no longer match the request
    /// sequence); repeating the current class keeps the cache warm.
    pub fn begin_problem(&mut self, class: ShapeClass) {
        if self.class != Some(class) {
            self.free.clear();
            self.class = Some(class);
        }
    }

    /// Hit/miss counts so far — exactly what this pool also reported to
    /// `tg-trace`.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Drops every parked buffer and declares every checked-out buffer
    /// dead. Call it between attempts, never while a buffer is still in
    /// use: a failed (or unwound) attempt may have left fault-corrupted
    /// buffers in the free lists and dropped acquired ones without
    /// releasing them, so scrubbing also returns their bytes to the live
    /// count and the [`Counter::ArenaLiveBytes`] gauge. The next problem
    /// starts from an empty, balanced pool.
    pub fn scrub(&mut self) {
        self.free.clear();
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, self.live_bytes);
        self.live_bytes = 0;
    }
}

impl WorkspacePool for CachingPool {
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat {
        let len = rows * cols;
        self.live_bytes += 8 * len as u64;
        tg_trace::gauge_add(Counter::ArenaLiveBytes, 8 * len as u64);
        if let Some(mut buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.stats.hits += 1;
            tg_trace::add(Counter::ArenaHit, 1);
            // Zeroing (not just clearing the debug poison) is what upholds
            // the bitwise contract: a recycled buffer must be
            // indistinguishable from Mat::zeros. The `arena.acquire` fault
            // site skips exactly this scrub, leaking the previous tenant's
            // data for the `workspace_zero` checker to catch. It only
            // claims buffers that hold stale bits: skipping the scrub of an
            // all-zero buffer violates nothing and would go undetected.
            let skip = tg_check::enabled()
                && buf.iter().any(|&x| x.to_bits() != 0)
                && tg_check::fault::skip_zero("arena.acquire");
            if !skip {
                buf.fill(0.0);
            }
            tg_check::workspace_clean(&buf);
            Mat::from_col_major(rows, cols, buf)
        } else {
            self.stats.misses += 1;
            tg_trace::add(Counter::ArenaMiss, 1);
            Mat::zeros(rows, cols)
        }
    }

    fn release(&mut self, m: Mat) {
        let mut buf = m.into_col_major();
        let bytes = 8 * buf.len() as u64;
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, bytes);
        if cfg!(debug_assertions) {
            buf.fill(f64::NAN);
        }
        self.free.entry(buf.len()).or_default().push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parked(pool: &CachingPool) -> usize {
        pool.free.values().map(Vec::len).sum()
    }

    #[test]
    fn alloc_pool_returns_zeros() {
        let mut pool = AllocPool;
        let m = pool.acquire(3, 5);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 5);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        pool.release(m);
    }

    #[test]
    fn caching_pool_recycles_and_zeroes() {
        let mut pool = CachingPool::new();
        let mut m = pool.acquire(4, 4);
        m.fill(7.0);
        pool.release(m);
        // Same length ⇒ hit, and the buffer must come back bitwise-zero.
        let m2 = pool.acquire(2, 8);
        assert!(m2.as_slice().iter().all(|&x| x.to_bits() == 0));
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-15);
        pool.release(m2);
        // Different length ⇒ miss.
        let m3 = pool.acquire(3, 3);
        assert_eq!(pool.stats().misses, 2);
        pool.release(m3);
        assert_eq!(parked(&pool), 2);
        assert_eq!(pool.live_bytes, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn released_buffers_are_poisoned() {
        let mut pool = CachingPool::new();
        let mut m = pool.acquire(3, 3);
        m.fill(1.5);
        pool.release(m);
        let buf = pool.free[&9].last().expect("buffer parked");
        assert!(
            buf.iter().all(|x| x.is_nan()),
            "debug release must NaN-poison: {buf:?}"
        );
    }

    #[test]
    fn class_change_drops_cache() {
        let mut pool = CachingPool::new();
        let c1 = ShapeClass { n: 16, b: 4, k: 8 };
        let c2 = ShapeClass { n: 16, b: 4, k: 16 };
        pool.begin_problem(c1);
        let m = pool.acquire(4, 4);
        pool.release(m);
        assert_eq!(parked(&pool), 1);

        pool.begin_problem(c1); // same class: cache survives
        assert_eq!(parked(&pool), 1);

        pool.begin_problem(c2); // class change: cache dropped
        assert_eq!(parked(&pool), 0);
        let _ = pool.acquire(4, 4);
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 2 });
    }

    #[test]
    fn zero_length_buffers_recycle() {
        let mut pool = CachingPool::new();
        let m = pool.acquire(5, 0);
        assert_eq!((m.nrows(), m.ncols()), (5, 0));
        pool.release(m);
        let m2 = pool.acquire(0, 3);
        assert_eq!((m2.nrows(), m2.ncols()), (0, 3));
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn scrub_repairs_live_bytes_after_an_unwound_attempt() {
        let mut pool = CachingPool::new();
        let m = pool.acquire(4, 4);
        pool.release(m);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = pool.acquire(4, 4);
            panic!("attempt died with a buffer checked out");
        }));
        assert!(result.is_err());
        assert_eq!(pool.live_bytes, 128, "the dropped buffer is still counted");
        pool.scrub();
        assert_eq!(pool.live_bytes, 0);
        assert_eq!(parked(&pool), 0);
        let m = pool.acquire(4, 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        pool.release(m);
        assert_eq!(pool.live_bytes, 0);
    }

    #[test]
    fn pool_stats_merge() {
        let mut total = PoolStats::default();
        assert_eq!(total.hit_rate(), 0.0);
        total.merge(&PoolStats { hits: 3, misses: 1 });
        total.merge(&PoolStats { hits: 1, misses: 3 });
        assert_eq!(total, PoolStats { hits: 4, misses: 4 });
        assert!((total.hit_rate() - 0.5).abs() < 1e-15);
    }
}
