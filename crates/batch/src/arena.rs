//! Per-worker workspace arena: caches reduction/backtransform scratch
//! buffers across the problems of a batch.
//!
//! The arena implements [`tridiag_core::WorkspacePool`], so it plugs
//! directly into `dbbr_ws`/`tridiagonalize_ws`/`syevd_ws`. Its contract
//! (inherited from the trait) is that [`acquire`](WorkspaceArena::acquire)
//! always returns a **bitwise-zero** buffer, exactly like `Mat::zeros` —
//! that is what makes batched results bitwise-identical to the
//! single-problem path regardless of which buffers get recycled.
//!
//! Buffers are cached per *shape class* `(n, b, k)` ([`ShapeClass`]): every
//! problem of the same class requests the same sequence of buffer sizes, so
//! after the first (all-miss) problem the free lists serve every later
//! request from cache. Switching classes drops the cache — mixed-shape
//! batches degrade to allocation, they never corrupt.
//!
//! In debug builds, released buffers are poisoned with NaN before they
//! reach the free lists. Zeroing on `acquire` overwrites the poison; any
//! future fast path that skips the zeroing (or reads a buffer after
//! releasing it) surfaces immediately as NaN in results rather than as a
//! silent stale-data reuse.

use std::collections::BTreeMap;

use tg_matrix::Mat;
use tg_trace::Counter;
use tridiag_core::{Method, WorkspacePool};

/// Cache key for arena buffers: problems with equal `ShapeClass` request
/// identical buffer-size sequences from the reduction, so their workspaces
/// are interchangeable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeClass {
    /// Matrix dimension.
    pub n: usize,
    /// Bandwidth (panel width `nb` for the direct method).
    pub b: usize,
    /// `syr2k` accumulation width (0 for single-blocking methods).
    pub k: usize,
}

impl ShapeClass {
    /// Shape class of an `n × n` problem reduced with `method`.
    pub fn for_method(n: usize, method: &Method) -> ShapeClass {
        match method {
            Method::Direct { nb } => ShapeClass { n, b: *nb, k: 0 },
            Method::Sbr { b, .. } => ShapeClass { n, b: *b, k: 0 },
            Method::Dbbr { cfg, .. } => ShapeClass {
                n,
                b: cfg.b,
                k: cfg.k,
            },
        }
    }

    /// Shape class of an `n × n` problem solved with an EVD `method`.
    pub fn for_evd(n: usize, method: &tg_eigen::EvdMethod) -> ShapeClass {
        use tg_eigen::EvdMethod;
        match method {
            EvdMethod::CusolverLike { nb } => ShapeClass { n, b: *nb, k: 0 },
            EvdMethod::MagmaLike { b } => ShapeClass { n, b: *b, k: 0 },
            EvdMethod::Proposed { b, k, .. } => ShapeClass { n, b: *b, k: *k },
        }
    }
}

/// Hit/miss accounting for one arena (or, summed, for a whole batch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `acquire` calls served from the free lists.
    pub hits: u64,
    /// `acquire` calls that had to allocate.
    pub misses: u64,
    /// High-water mark of simultaneously acquired workspace bytes. Merged
    /// stats sum the per-worker peaks — an upper bound on the batch-wide
    /// simultaneous peak (exact when workers peak together, which a
    /// uniform-shape batch does on its first problems).
    pub peak_live_bytes: u64,
}

impl ArenaStats {
    /// `hits / (hits + misses)`, or 0 if the arena was never used.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another arena's counts (used to merge per-worker stats).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.peak_live_bytes += other.peak_live_bytes;
    }
}

/// A recycling [`WorkspacePool`] keyed by buffer length, valid for one
/// [`ShapeClass`] at a time.
#[derive(Debug, Default)]
pub struct WorkspaceArena {
    class: Option<ShapeClass>,
    /// Free lists: buffer length → stack of retired buffers of that length.
    free: BTreeMap<usize, Vec<Vec<f64>>>,
    stats: ArenaStats,
    /// Bytes currently acquired (checked out and not yet released).
    live_bytes: u64,
    /// Peak `live_bytes` observed per shape class.
    class_peaks: BTreeMap<ShapeClass, u64>,
}

impl WorkspaceArena {
    /// Creates an empty arena (no class bound yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the shape class of the next problem. A class change drops
    /// every cached buffer (their sizes no longer match the request
    /// sequence); repeating the current class keeps the cache warm.
    pub fn begin_problem(&mut self, class: ShapeClass) {
        if self.class != Some(class) {
            self.free.clear();
            self.class = Some(class);
        }
    }

    /// Hit/miss counts so far. These are exactly the values the arena also
    /// reports to `tg-trace` (`Counter::ArenaHit` / `Counter::ArenaMiss`).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of buffers currently parked in the free lists.
    pub fn cached_buffers(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Bytes currently checked out (acquired and not yet released).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of simultaneously acquired bytes over the arena's
    /// lifetime (also mirrored into `Counter::ArenaLiveBytes`).
    pub fn peak_live_bytes(&self) -> u64 {
        self.stats.peak_live_bytes
    }

    /// Peak live bytes observed while each shape class was active, largest
    /// first. Acquisitions before the first `begin_problem` are counted in
    /// the overall peak only.
    pub fn class_peaks(&self) -> Vec<(ShapeClass, u64)> {
        let mut v: Vec<(ShapeClass, u64)> =
            self.class_peaks.iter().map(|(c, &p)| (*c, p)).collect();
        v.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
        v
    }

    fn track_acquire(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        if let Some(class) = self.class {
            let peak = self.class_peaks.entry(class).or_insert(0);
            *peak = (*peak).max(self.live_bytes);
        }
        tg_trace::gauge_add(Counter::ArenaLiveBytes, bytes);
    }

    fn track_release(&mut self, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, bytes);
    }

    /// Drops every cached buffer. The free lists rebuild on the next
    /// problem (all misses); nothing the previous tenant touched survives.
    /// `tg-serve` scrubs a worker's arena after any failed job attempt so
    /// a buffer corrupted by an injected fault (e.g. a skipped zero-fill)
    /// can never leak into a later job.
    pub fn scrub(&mut self) {
        self.free.clear();
    }

    /// Leases the arena to one job: declares its [`ShapeClass`] (exactly
    /// like [`begin_problem`](WorkspaceArena::begin_problem)) and returns a
    /// guard that restores the arena to a rentable state however the job
    /// ends. If the job unwinds mid-attempt, its acquired buffers are
    /// dropped by the panic instead of released back — the guard detects
    /// the unbalanced live-byte count, repairs the accounting (including
    /// the `ArenaLiveBytes` trace gauge), and scrubs the cache so the next
    /// tenant starts from a clean arena.
    pub fn lease(&mut self, class: ShapeClass) -> WorkspaceLease<'_> {
        self.begin_problem(class);
        let entry_live = self.live_bytes;
        WorkspaceLease {
            arena: self,
            entry_live,
        }
    }

    #[cfg(test)]
    fn peek_free(&self, len: usize) -> Option<&Vec<f64>> {
        self.free.get(&len).and_then(|v| v.last())
    }
}

/// Per-job arena lease from [`WorkspaceArena::lease`]. Derefs to the
/// arena, so it can be passed anywhere a [`WorkspacePool`] is expected.
#[derive(Debug)]
pub struct WorkspaceLease<'a> {
    arena: &'a mut WorkspaceArena,
    entry_live: u64,
}

impl WorkspaceLease<'_> {
    /// True while every buffer acquired under this lease has been released
    /// back (the steady state between operations, and the required state
    /// at the end of a successful job).
    pub fn balanced(&self) -> bool {
        self.arena.live_bytes == self.entry_live
    }
}

impl std::ops::Deref for WorkspaceLease<'_> {
    type Target = WorkspaceArena;
    fn deref(&self) -> &WorkspaceArena {
        self.arena
    }
}

impl std::ops::DerefMut for WorkspaceLease<'_> {
    fn deref_mut(&mut self) -> &mut WorkspaceArena {
        self.arena
    }
}

impl Drop for WorkspaceLease<'_> {
    fn drop(&mut self) {
        if self.arena.live_bytes != self.entry_live {
            // The tenant unwound with buffers checked out: those Mats were
            // dropped by the panic, not released, so the bytes can never
            // come back. Repair the book-keeping and drop the cache.
            let leaked = self.arena.live_bytes.saturating_sub(self.entry_live);
            self.arena.live_bytes = self.entry_live;
            tg_trace::gauge_sub(Counter::ArenaLiveBytes, leaked);
            self.arena.scrub();
        }
    }
}

impl WorkspacePool for WorkspaceArena {
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat {
        let len = rows * cols;
        self.track_acquire(8 * len as u64);
        if let Some(mut buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.stats.hits += 1;
            tg_trace::add(Counter::ArenaHit, 1);
            // Zeroing (not just clearing debug poison) is what upholds the
            // WorkspacePool bitwise contract: recycled buffers must be
            // indistinguishable from Mat::zeros. The `arena.acquire` fault
            // site skips exactly this scrub, leaking the previous tenant's
            // data (NaN poison in debug) for the checker to catch. The
            // fault only claims buffers that actually hold stale bits —
            // skipping the scrub of an already-zero buffer would be
            // undetectable because it violates nothing.
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
        self.track_release(8 * buf.len() as u64);
        if cfg!(debug_assertions) {
            buf.fill(f64::NAN);
        }
        self.free.entry(buf.len()).or_default().push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::DbbrConfig;

    #[test]
    fn reuse_zeroes_and_counts() {
        let _g = crate::serial();
        let mut arena = WorkspaceArena::new();
        arena.begin_problem(ShapeClass { n: 8, b: 2, k: 4 });

        let mut m = arena.acquire(4, 3);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        m.fill(7.0);
        arena.release(m);
        assert_eq!(arena.cached_buffers(), 1);

        // Same length → served from cache, and scrubbed back to zeros.
        let m2 = arena.acquire(3, 4);
        assert!(m2.as_slice().iter().all(|&x| x == 0.0), "stale data leaked");
        assert_eq!((arena.stats().hits, arena.stats().misses), (1, 1));

        // Different length → miss.
        let m3 = arena.acquire(5, 5);
        assert_eq!((arena.stats().hits, arena.stats().misses), (1, 2));
        arena.release(m2);
        arena.release(m3);
        assert_eq!(arena.cached_buffers(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn released_buffers_are_poisoned() {
        let _g = crate::serial();
        let mut arena = WorkspaceArena::new();
        let mut m = arena.acquire(3, 3);
        m.fill(1.5);
        arena.release(m);
        let parked = arena.peek_free(9).expect("buffer parked");
        assert!(
            parked.iter().all(|x| x.is_nan()),
            "debug release must NaN-poison: {parked:?}"
        );
    }

    #[test]
    fn class_change_drops_cache() {
        let _g = crate::serial();
        let mut arena = WorkspaceArena::new();
        let c1 = ShapeClass { n: 16, b: 4, k: 8 };
        let c2 = ShapeClass { n: 16, b: 4, k: 16 };
        arena.begin_problem(c1);
        let m = arena.acquire(4, 4);
        arena.release(m);
        assert_eq!(arena.cached_buffers(), 1);

        arena.begin_problem(c1); // same class: cache survives
        assert_eq!(arena.cached_buffers(), 1);

        arena.begin_problem(c2); // class change: cache dropped
        assert_eq!(arena.cached_buffers(), 0);
        let _ = arena.acquire(4, 4);
        assert_eq!((arena.stats().hits, arena.stats().misses), (0, 2));
    }

    #[test]
    fn live_bytes_track_high_water_and_class_peaks() {
        let _g = crate::serial();
        let mut arena = WorkspaceArena::new();
        let c1 = ShapeClass { n: 8, b: 2, k: 4 };
        arena.begin_problem(c1);
        let a = arena.acquire(4, 4); // 128 B live
        let b = arena.acquire(2, 4); // 192 B live — peak
        assert_eq!(arena.live_bytes(), 192);
        arena.release(a); // 64 B live
        assert_eq!(arena.live_bytes(), 64);
        let c = arena.acquire(4, 4); // 192 B again (cache hit)
        assert_eq!(arena.peak_live_bytes(), 192);
        arena.release(b);
        arena.release(c);
        assert_eq!(arena.live_bytes(), 0);

        let c2 = ShapeClass { n: 16, b: 2, k: 4 };
        arena.begin_problem(c2);
        let d = arena.acquire(16, 16); // 2048 B — new overall peak
        arena.release(d);
        assert_eq!(arena.peak_live_bytes(), 2048);
        let peaks = arena.class_peaks();
        assert_eq!(peaks[0], (c2, 2048));
        assert_eq!(peaks[1], (c1, 192));

        // merged stats sum per-worker peaks
        let mut merged = ArenaStats::default();
        merged.merge(&arena.stats());
        merged.merge(&ArenaStats {
            hits: 0,
            misses: 1,
            peak_live_bytes: 1000,
        });
        assert_eq!(merged.peak_live_bytes, 3048);
    }

    #[test]
    fn zero_length_buffers_recycle() {
        let _g = crate::serial();
        let mut arena = WorkspaceArena::new();
        let m = arena.acquire(5, 0);
        assert_eq!((m.nrows(), m.ncols()), (5, 0));
        arena.release(m);
        let m2 = arena.acquire(0, 3);
        assert_eq!((m2.nrows(), m2.ncols()), (0, 3));
        assert_eq!((arena.stats().hits, arena.stats().misses), (1, 1));
    }

    #[test]
    fn lease_tracks_balance_and_scrub_drops_cache() {
        let _g = crate::serial();
        let class = ShapeClass { n: 8, b: 2, k: 4 };
        let mut arena = WorkspaceArena::new();
        {
            let mut lease = arena.lease(class);
            assert!(lease.balanced());
            let m = lease.acquire(4, 4);
            assert!(!lease.balanced());
            lease.release(m);
            assert!(lease.balanced());
        }
        assert_eq!(arena.cached_buffers(), 1);
        arena.scrub();
        assert_eq!(arena.cached_buffers(), 0);
        assert_eq!(arena.live_bytes(), 0);
    }

    #[test]
    fn lease_repairs_arena_after_unwind() {
        let _g = crate::serial();
        let class = ShapeClass { n: 8, b: 2, k: 4 };
        let mut arena = WorkspaceArena::new();
        // park one clean buffer so there is a cache to scrub
        let m = arena.acquire(4, 4);
        arena.release(m);
        assert_eq!(arena.cached_buffers(), 1);

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = arena.lease(class);
            let _held = lease.acquire(4, 4);
            panic!("tenant died mid-attempt");
        }));
        assert!(result.is_err());
        // the lease guard ran during unwind: live bytes repaired, cache
        // scrubbed, arena immediately rentable again
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.cached_buffers(), 0);
        let m = arena.acquire(4, 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        arena.release(m);
    }

    #[test]
    fn shape_class_mapping() {
        let m = Method::Dbbr {
            cfg: DbbrConfig::new(4, 16),
            parallel_sweeps: 2,
        };
        assert_eq!(
            ShapeClass::for_method(32, &m),
            ShapeClass { n: 32, b: 4, k: 16 }
        );
        let e = tg_eigen::EvdMethod::proposed_default(256);
        let c = ShapeClass::for_evd(256, &e);
        assert_eq!(c.n, 256);
        assert!(c.b > 0 && c.k.is_multiple_of(c.b));
    }
}
