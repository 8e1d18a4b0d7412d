//! # tg-batch
//!
//! Batched multi-problem EVD / tridiagonalization.
//!
//! GPU eigensolver workloads frequently solve *many* moderate-size
//! problems rather than one huge one (cuSOLVER ships `syevjBatched`; the
//! paper's single-problem pipeline is the building block). This crate adds
//! that batched layer on top of `tg-eigen`:
//!
//! * [`BatchScheduler`] — runs `syevd` / `tridiagonalize` over a slice of
//!   problems on a pool of worker threads, handing out work through an
//!   atomic index queue; each worker keeps one [`tridiag_core::CachingPool`]
//!   warm across the same-[`tridiag_core::ShapeClass`] problems it solves,
//! * [`BatchResult`] / [`BatchStats`] — per-problem outputs in input
//!   order plus scheduling and workspace-pool statistics.
//!
//! The headline contract is **per-problem determinism**: every batched
//! result is bitwise-identical to the single-problem `syevd`/
//! `tridiagonalize` output, independent of worker count and scheduling
//! order. See `docs/BATCHING.md` for how the pool's zero-fill contract
//! makes that hold.
//!
//! ```
//! use tg_batch::BatchScheduler;
//! use tg_eigen::EvdMethod;
//! use tg_matrix::gen;
//!
//! let problems: Vec<_> = (0..4).map(|s| gen::random_symmetric(16, s)).collect();
//! let method = EvdMethod::proposed_default(16);
//! let batch = BatchScheduler::new(2).syevd(&problems, &method, true).unwrap();
//! assert_eq!(batch.results.len(), 4);
//! assert!(batch.stats.arena.hit_rate() > 0.0);
//! ```

pub mod scheduler;

pub use scheduler::{BatchResult, BatchScheduler, BatchStats, CancelToken};

/// Trace sessions are process-global: a test that records arena counters
/// while another test's session is open leaks them into its totals. Every
/// test in this crate that solves holds this lock.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
