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
//!   atomic index queue; every problem runs the single-problem path, with
//!   its scratch freshly allocated and zeroed,
//! * [`BatchResult`] / [`BatchStats`] — per-problem outputs in input
//!   order plus scheduling statistics.
//!
//! The headline contract is **per-problem determinism**: every batched
//! result is bitwise-identical to the single-problem `syevd`/
//! `tridiagonalize` output, independent of worker count and scheduling
//! order. See `docs/BATCHING.md` for why that holds.
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
//! assert!(batch.stats.workers <= 2);
//! ```

pub mod scheduler;

pub use scheduler::{BatchResult, BatchScheduler, BatchStats, CancelToken};
