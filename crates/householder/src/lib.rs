//! # tg-householder
//!
//! Householder machinery shared by every reduction algorithm in the
//! workspace:
//!
//! * [`reflector`] — elementary reflectors (`dlarfg`/`dlarf` analogues),
//! * [`wy`] — compact-WY block representation (`dlarft`/`dlarfb`),
//! * [`panel`] — unblocked and blocked panel QR (`dgeqr2`/`dgeqrf`),
//! * [`zy`] — the ZY representation used in two-sided band-reduction
//!   updates (Equation 1 of the paper),
//! * [`wblock`] — `W`-matrix accumulation: the paper's recursive
//!   Algorithm 3 and the pool-backed batched merge of Figure 13,
//! * [`pool`] — [`AllocPool`], the zeroed workspace the `_ws` kernels here
//!   and upstack draw their scratch from (re-exported by `tridiag_core`).

pub mod panel;
pub mod pool;
pub mod reflector;
pub mod wblock;
pub mod wy;
pub mod zy;

pub use panel::{panel_qr, PanelQr};
pub use pool::AllocPool;
pub use reflector::{apply_left, apply_right, apply_two_sided_lower, make_reflector, Reflector};
pub use wy::WyBlock;
