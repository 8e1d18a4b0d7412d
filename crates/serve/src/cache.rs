//! Content-addressed EVD result cache with in-flight coalescing support.
//!
//! # Why caching is *sound* here
//!
//! Real EVD traffic is repetitive: the same covariance or graph-Laplacian
//! matrices get resubmitted across jobs. Because the solver stack is
//! **bitwise-deterministic** end to end (the PR 2 workspace contract, the
//! PR 5 parallel-GEMM contract, the PR 7 serving contract), a stored
//! result *is* the result a fresh solve would produce — bit for bit. That
//! turns caching from an approximation into pure dedup: a hit returns the
//! same bytes the worker pool would have computed. `docs/CACHING.md` walks
//! through the full argument.
//!
//! # Key derivation
//!
//! [`CacheKey`] identifies a solve by **content**: a splitmix64-based
//! digest of the input matrix bytes ([`tg_matrix::digest`]) combined with
//! the solve configuration — shape class `(n, b, k)`
//! ([`EvdMethod::shape_class`]), the method variant and its bitwise-relevant
//! parameters, and `want_vectors`. `parallel_sweeps` is deliberately
//! **excluded**: `tests/bc_determinism.rs` pins results bitwise-identical
//! across sweep counts, so including it would only fragment the cache.
//! `want_vectors` is **included**: a values-only solve finishes through
//! `sterf`-style iteration while a vectors solve runs divide & conquer,
//! and their eigenvalues are not bitwise-interchangeable. So is the GEMM
//! kernel's fused/unfused tag ([`tg_blas::Kernel::fused`]): the scalar
//! kernel and the FMA kernels round differently, while the two FMA kernels
//! agree bitwise.
//!
//! # Safety rules
//!
//! Only results from a **clean attempt** are insertable: the service's
//! attempt classifier already rejects results produced while an injected
//! fault fired, results containing non-finite values, solver errors, and
//! panics — so nothing mid-retry can reach [`EvdCache::insert`].
//! Fallback-path results are cacheable because the serial reference path
//! is the same `syevd` call the worker attempts make. A debug verify
//! knob (`ServeConfig::verify_hits` / `TG_CACHE_VERIFY=1`) re-solves on
//! every hit and asserts bitwise equality.
//!
//! # Storage
//!
//! A bounded LRU keyed by [`CacheKey`]: per-entry sizes count the stored
//! `f64`s × 8, plus fixed bookkeeping, a byte budget
//! caps the total, and insertion evicts least-recently-used entries until
//! the new entry fits. An entry larger than the whole budget is never
//! stored. Lookups and insertions both refresh recency.

use std::collections::HashMap;

use tg_eigen::{Evd, EvdMethod};
use tg_matrix::{ContentHasher, Mat};
use tridiag_core::ShapeClass;

/// Content-addressed identity of one solve: input-matrix digest plus the
/// bitwise-relevant solve configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Digest of the input matrix (shape + every stored byte).
    pub digest: u64,
    /// Shape class `(n, b, k)` of the solve ([`EvdMethod::shape_class`]).
    pub class: ShapeClass,
    /// Method variant discriminant (parameters are folded into `digest`).
    pub method_tag: u8,
    /// Whether eigenvectors were requested — values-only and with-vectors
    /// solves finish through different tridiagonal eigensolvers and are
    /// not bitwise-interchangeable.
    pub want_vectors: bool,
    /// Whether the solve's GEMM kernel accumulates with fused
    /// multiply-adds ([`tg_blas::Kernel::fused`]) — fused and unfused
    /// results differ in their last bits.
    pub fused_kernel: bool,
}

impl CacheKey {
    /// Derives the key for solving `matrix` with `method`. Hashes every
    /// byte of the matrix — `O(n²)` — so callers should derive the key
    /// *outside* any service lock.
    pub fn derive(matrix: &Mat, method: &EvdMethod, want_vectors: bool) -> CacheKey {
        CacheKey::derive_for_kernel(matrix, method, want_vectors, tg_blas::kernel().fused())
    }

    /// [`CacheKey::derive`] for a solve on a fused (`true`) or unfused
    /// GEMM kernel rather than on this process's kernel.
    fn derive_for_kernel(
        matrix: &Mat,
        method: &EvdMethod,
        want_vectors: bool,
        fused_kernel: bool,
    ) -> CacheKey {
        let n = matrix.nrows();
        let mut h = ContentHasher::new();
        h.write_u64(n as u64);
        h.write_u64(matrix.ncols() as u64);
        h.write_f64_slice(matrix.as_slice());
        let method_tag = match method {
            EvdMethod::CusolverLike { nb } => {
                h.write_u64(*nb as u64);
                0u8
            }
            EvdMethod::MagmaLike { b } => {
                h.write_u64(*b as u64);
                1u8
            }
            // `parallel_sweeps` and `lookahead` intentionally not hashed:
            // bulge-chasing results are bitwise-identical across sweep
            // counts (tests/bc_determinism.rs) and stage-1 look-ahead is
            // bitwise-identical to the serial path
            // (tests/stage1_determinism.rs), so folding either in would
            // split identical results across distinct keys.
            EvdMethod::Proposed {
                b,
                k,
                parallel_sweeps: _,
                backtransform_k,
                lookahead: _,
            } => {
                h.write_u64(*b as u64);
                h.write_u64(*k as u64);
                h.write_u64(*backtransform_k as u64);
                2u8
            }
        };
        h.write_u64(method_tag as u64);
        h.write_u64(want_vectors as u64);
        h.write_u64(fused_kernel as u64);
        CacheKey {
            digest: h.finish(),
            class: method.shape_class(n),
            method_tag,
            want_vectors,
            fused_kernel,
        }
    }
}

/// Bytes a stored result occupies: the stored `f64`s × 8 plus fixed
/// per-entry bookkeeping (key, stamps, map slot).
pub fn result_bytes(evd: &Evd) -> u64 {
    let values = evd.eigenvalues.len() as u64;
    let vectors = evd
        .eigenvectors
        .as_ref()
        .map(|v| (v.nrows() * v.ncols()) as u64)
        .unwrap_or(0);
    (values + vectors) * 8 + ENTRY_OVERHEAD
}

/// Fixed accounting overhead charged per entry (key + LRU stamp + map
/// slot). Deliberately a documented constant rather than
/// `size_of::<Entry>()` so the byte budget means the same thing on every
/// host and the property tests can reason about it exactly.
pub const ENTRY_OVERHEAD: u64 = 64;

/// Monotonic counters for one cache's lifetime (all saturating reads,
/// snapshot via [`EvdCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored result.
    pub hits: u64,
    /// Lookups that found nothing (including lookups on a disabled cache).
    pub misses: u64,
    /// Results stored.
    pub insertions: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes released by those evictions.
    pub evicted_bytes: u64,
    /// Results too large for the whole budget, never stored.
    pub oversize_rejections: u64,
}

struct Entry {
    evd: Evd,
    bytes: u64,
    last_used: u64,
}

/// Bounded, byte-budgeted LRU store of completed EVD results.
///
/// Single-threaded by design (the service guards it with its state mutex,
/// mirroring [`crate::BoundedQueue`]), which keeps it directly drivable by
/// the model-based property battery in `tests/cache_properties.rs`.
pub struct EvdCache {
    budget: u64,
    map: HashMap<CacheKey, Entry>,
    live_bytes: u64,
    /// Monotonic recency clock: bumped on every lookup hit and insert.
    tick: u64,
    stats: CacheStats,
}

impl EvdCache {
    /// An empty cache with a total byte budget. `budget == 0` disables
    /// storage entirely (every lookup misses, every insert is rejected).
    pub fn new(budget: u64) -> EvdCache {
        EvdCache {
            budget,
            map: HashMap::new(),
            live_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether a non-zero byte budget was configured.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently stored (always ≤ [`budget`](Self::budget)).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Entries currently stored.
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns a clone of the stored result for `key`, refreshing its
    /// recency, or `None` (counted as a miss).
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Evd> {
        match self.map.get_mut(key) {
            Some(entry) => {
                self.tick += 1;
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.evd.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `evd` under `key`, evicting least-recently-used entries
    /// until the byte budget holds. Returns the bytes evicted to make
    /// room (0 when nothing was displaced). A result larger than the
    /// whole budget is rejected without disturbing the cache; re-inserting
    /// an existing key replaces the entry (refreshing recency).
    pub fn insert(&mut self, key: CacheKey, evd: &Evd) -> u64 {
        let bytes = result_bytes(evd);
        if bytes > self.budget {
            self.stats.oversize_rejections += 1;
            return 0;
        }
        if let Some(old) = self.map.remove(&key) {
            // Replacement (same content by construction — the key is the
            // content); release the old accounting first.
            self.live_bytes -= old.bytes;
        }
        let mut evicted = 0u64;
        while self.live_bytes + bytes > self.budget {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("live_bytes > 0 implies at least one entry");
            let dropped = self.map.remove(&lru).expect("key just observed");
            self.live_bytes -= dropped.bytes;
            evicted += dropped.bytes;
            self.stats.evictions += 1;
            self.stats.evicted_bytes += dropped.bytes;
        }
        self.tick += 1;
        self.map.insert(
            key,
            Entry {
                evd: evd.clone(),
                bytes,
                last_used: self.tick,
            },
        );
        self.live_bytes += bytes;
        self.stats.insertions += 1;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evd_of(n: usize, seed: f64) -> Evd {
        Evd {
            eigenvalues: (0..n).map(|i| seed + i as f64).collect(),
            eigenvectors: None,
        }
    }

    fn key_of(tag: u64) -> CacheKey {
        CacheKey {
            digest: tag,
            class: ShapeClass { n: 4, b: 2, k: 0 },
            method_tag: 2,
            want_vectors: false,
            fused_kernel: false,
        }
    }

    #[test]
    fn lookup_hits_after_insert_and_respects_budget() {
        // Each 4-value entry costs 4*8 + 64 = 96 bytes; budget fits two.
        let mut c = EvdCache::new(200);
        assert!(c.lookup(&key_of(1)).is_none());
        c.insert(key_of(1), &evd_of(4, 1.0));
        c.insert(key_of(2), &evd_of(4, 2.0));
        assert_eq!(c.entries(), 2);
        assert_eq!(c.live_bytes(), 192);
        assert_eq!(c.lookup(&key_of(1)).unwrap().eigenvalues[0], 1.0);
        // Key 2 is now LRU; a third insert evicts it, not key 1.
        let evicted = c.insert(key_of(3), &evd_of(4, 3.0));
        assert_eq!(evicted, 96);
        assert!(c.lookup(&key_of(2)).is_none());
        assert!(c.lookup(&key_of(1)).is_some());
        assert!(c.lookup(&key_of(3)).is_some());
        assert!(c.live_bytes() <= c.budget());
    }

    #[test]
    fn oversize_results_are_never_stored() {
        let mut c = EvdCache::new(100); // entry would be 8*8+64 = 128 > 100
        c.insert(key_of(1), &evd_of(8, 0.0));
        assert_eq!(c.entries(), 0);
        assert_eq!(c.stats().oversize_rejections, 1);
        assert_eq!(c.live_bytes(), 0);
    }

    #[test]
    fn zero_budget_disables_storage() {
        let mut c = EvdCache::new(0);
        assert!(!c.enabled());
        c.insert(key_of(1), &evd_of(1, 0.0));
        assert!(c.lookup(&key_of(1)).is_none());
        assert_eq!(c.entries(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut c = EvdCache::new(1000);
        c.insert(key_of(1), &evd_of(4, 1.0));
        let before = c.live_bytes();
        c.insert(key_of(1), &evd_of(4, 1.0));
        assert_eq!(c.live_bytes(), before);
        assert_eq!(c.entries(), 1);
    }

    #[test]
    fn key_depends_on_matrix_bytes_not_just_shape() {
        let a = tg_matrix::gen::random_symmetric(6, 1);
        let b = tg_matrix::gen::random_symmetric(6, 2);
        let ka = CacheKey::derive(&a, &EvdMethod::proposed_default(6), false);
        let kb = CacheKey::derive(&b, &EvdMethod::proposed_default(6), false);
        assert_eq!(ka.class, kb.class);
        assert_ne!(ka, kb, "equal-shape matrices must not collide");
    }

    #[test]
    fn key_separates_want_vectors_and_methods() {
        let a = tg_matrix::gen::random_symmetric(6, 3);
        let m = EvdMethod::proposed_default(6);
        assert_ne!(
            CacheKey::derive(&a, &m, false),
            CacheKey::derive(&a, &m, true)
        );
        assert_ne!(
            CacheKey::derive(&a, &m, false),
            CacheKey::derive(&a, &EvdMethod::CusolverLike { nb: 32 }, false)
        );
    }

    #[test]
    fn key_separates_fused_and_unfused_kernels() {
        let a = tg_matrix::gen::random_symmetric(6, 5);
        let m = EvdMethod::proposed_default(6);
        let fused = CacheKey::derive_for_kernel(&a, &m, true, true);
        let unfused = CacheKey::derive_for_kernel(&a, &m, true, false);
        assert_ne!(fused, unfused);
        assert_ne!(fused.digest, unfused.digest, "the tag is in the digest");
        // stable within a process, and `derive` uses this process's kernel
        assert_eq!(fused, CacheKey::derive_for_kernel(&a, &m, true, true));
        assert_eq!(
            CacheKey::derive(&a, &m, true),
            CacheKey::derive_for_kernel(&a, &m, true, tg_blas::kernel().fused())
        );
    }

    #[test]
    fn key_ignores_parallel_sweeps() {
        let a = tg_matrix::gen::random_symmetric(8, 4);
        let base = EvdMethod::Proposed {
            b: 2,
            k: 4,
            parallel_sweeps: 1,
            backtransform_k: 8,
            lookahead: true,
        };
        let more_sweeps = EvdMethod::Proposed {
            b: 2,
            k: 4,
            parallel_sweeps: 4,
            backtransform_k: 8,
            lookahead: true,
        };
        assert_eq!(
            CacheKey::derive(&a, &base, true),
            CacheKey::derive(&a, &more_sweeps, true),
            "bitwise-invariant knobs must not fragment the cache"
        );
    }
}
