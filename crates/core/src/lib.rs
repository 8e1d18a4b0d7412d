//! # tridiag-core
//!
//! The paper's primary contribution: two-stage symmetric tridiagonalization.
//!
//! * [`sytrd`] — direct blocked tridiagonalization (the cuSOLVER `Dsytrd`
//!   baseline; ~50% BLAS-2 by construction, which is why it is slow on GPUs),
//! * [`sbr`] — single-blocking successive band reduction (the MAGMA
//!   `Dsy2sb` baseline, Figure 2),
//! * [`mod@dbbr`] — **double-blocking band reduction**, Algorithm 1: bandwidth
//!   `b` decoupled from the `syr2k` rank `k`,
//! * [`bc`] — bulge chasing (`Dsb2st`): sequential reference and the
//!   paper's Algorithm-2 pipelined implementation with atomic progress
//!   flags,
//! * [`backtransform`] — assembling `Q` from both stages: conventional
//!   `ormqr` order (the baseline and tolerance oracle) and the Figure-13
//!   blocked-`W` scheme, one panel-parallel implementation (see
//!   `docs/PERFORMANCE.md`),
//! * [`two_stage`] — end-to-end drivers combining the above.
//!
//! Scratch comes from [`AllocPool`]: every workspace is a fresh zeroed
//! allocation. A recycling pool measured no faster on any workload and is
//! gone (`docs/BATCHING.md`).

pub mod backtransform;
pub mod bc;
pub mod dbbr;
pub mod sbr;
pub mod sytrd;
pub mod two_stage;

pub use backtransform::{PanelPools, PANEL_COLS};
pub use bc::{bulge_chase_pipelined, bulge_chase_seq, BcResult};
pub use dbbr::{dbbr, dbbr_ws, DbbrConfig, DbbrConfigError};
pub use sbr::{band_reduce, BandReduction};
pub use sytrd::{sytrd_blocked, sytrd_unblocked, SytrdResult};
pub use tg_householder::pool::AllocPool;
pub use two_stage::{tridiagonalize, Method, ShapeClass, TridiagResult};
