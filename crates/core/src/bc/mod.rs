//! Bulge chasing (`Dsb2st`): stage 2 of two-stage tridiagonalization.
//!
//! Reduces a symmetric band matrix (bandwidth `b`) to tridiagonal form with
//! `n − 2` *sweeps*; sweep `s` makes column `s` tridiagonal and chases the
//! resulting bulge off the bottom of the band (Figure 3).
//!
//! * [`seq`] — sequential reference implementation,
//! * [`pipeline`] — the paper's **Algorithm 2**: sweeps run concurrently,
//!   sweep `s` waiting on an atomic progress flag until sweep `s − 1` is at
//!   least `2b` rows ahead. On a GPU each sweep is a thread block; here
//!   sweeps run round-robin on at most `gemm_threads()` lanes (one at
//!   `TG_THREADS=1` or inside another fan-out), which exercises the
//!   identical synchronisation protocol,
//! * [`kernels`] — one task of a sweep: its window copied into a dense
//!   tile, the four steps (right apply, reflector, left apply, two-sided
//!   update) run as unit-stride loops over it, the tile written back once.
//!
//! Both paths produce **bitwise-identical** results: the dependency protocol
//! makes every task's inputs independent of scheduling.

pub mod backward;
pub mod kernels;
pub mod pipeline;
pub mod seq;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use pipeline::bulge_chase_pipelined;
pub use seq::bulge_chase_seq;

use tg_matrix::{Mat, Tridiagonal};

/// One Householder reflector generated during bulge chasing, acting on
/// global rows `row0 .. row0 + v.len()` (with `v[0] == 1`).
#[derive(Clone, Debug)]
pub struct BcReflector {
    /// Column whose entries the reflector annihilates.
    pub col: usize,
    /// First global row of the reflector span.
    pub row0: usize,
    /// Scaling factor.
    pub tau: f64,
    /// Reflector vector including the leading unit entry.
    pub v: Vec<f64>,
}

/// Output of bulge chasing.
pub struct BcResult {
    /// The tridiagonal matrix `T` with `B = Q₂ T Q₂ᵀ`.
    pub tri: Tridiagonal,
    /// Reflectors grouped by sweep, in within-sweep application order.
    /// `Q₂ = ∏ H` over sweeps ascending, tasks ascending.
    pub reflectors: Vec<Vec<BcReflector>>,
}

impl BcResult {
    /// Total number of reflectors (≈ `n²/b / 2`).
    pub fn reflector_count(&self) -> usize {
        self.reflectors.iter().map(|v| v.len()).sum()
    }

    /// `C ← Q₂ C` (`trans = false`) or `C ← Q₂ᵀ C` (`trans = true`).
    ///
    /// This is the BC part of the back transformation: eigenvectors of `T`
    /// become eigenvectors of the band matrix via `Q₂ · V`.
    pub fn apply_q_left(&self, c: &mut Mat, trans: bool) {
        let n = c.nrows();
        let apply = |c: &mut Mat, r: &BcReflector| {
            if r.tau == 0.0 {
                return;
            }
            let len = r.v.len();
            let mut sub = c.view_mut(r.row0, 0, len, c.ncols());
            tg_householder::apply_left(r.tau, &r.v[1..], &mut sub);
        };
        assert!(self
            .reflectors
            .iter()
            .flatten()
            .all(|r| r.row0 + r.v.len() <= n));
        if trans {
            // Qᵀ C = H_N ⋯ H₁ C: forward order
            for sweep in &self.reflectors {
                for r in sweep {
                    apply(c, r);
                }
            }
        } else {
            // Q C = H₁ ⋯ H_N C: reverse order
            for sweep in self.reflectors.iter().rev() {
                for r in sweep.iter().rev() {
                    apply(c, r);
                }
            }
        }
    }

    /// Materializes `Q₂` (test helper, `O(n³)`).
    pub fn form_q(&self, n: usize) -> Mat {
        let mut q = Mat::identity(n);
        self.apply_q_left(&mut q, false);
        q
    }
}
