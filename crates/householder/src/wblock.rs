//! `W`-matrix accumulation for the back transformation (§4.3 / §5.3).
//!
//! The SBR back transformation needs
//! `Q = Q₁ · (I − W₁Y₁ᵀ)(I − W₂Y₂ᵀ) ⋯ (I − W_pY_pᵀ)`.
//! Applying each factor separately yields GEMMs whose inner dimension is
//! only the bandwidth `b`; the paper instead merges factors:
//!
//! ```text
//! (I − W₁Y₁ᵀ)(I − W₂Y₂ᵀ) = I − [W₁ | W₂ − W₁(Y₁ᵀW₂)] [Y₁ | Y₂]ᵀ
//! ```
//!
//! * [`merge_pair`] / [`compute_w_recursive`] are the literal
//!   **Algorithm 3** (binary recursion down to pairs).
//! * [`merge_to_width_ws`] is the **Figure 13** production scheme: merge
//!   *levels* of pairs with batched GEMMs until each accumulated block
//!   reaches a target width `k`, every temporary — the `S = Y₁ᵀW₂` merge
//!   scratch, the concatenated wide `W`/`Y` storage — drawn from an
//!   [`AllocPool`]. It is the only level-by-level merge.
//!
//! [`WyPair::apply_left_in`] writes its `YᵀC` intermediate into
//! caller-owned scratch. Every merge path also tallies its arithmetic
//! (4·rows·ka·kb flops per pair: two `rows × ka × kb` GEMMs) against
//! [`tg_trace::Counter::MergeFlops`], which the gpu-sim model cross-check
//! reconciles against the Algorithm-3 cost model.

use crate::pool::AllocPool;
use tg_blas::batched::{gemm_batched, GemmJob};
use tg_blas::{gemm, gemm_into, Op};
use tg_matrix::{Mat, MatMut};

/// Tallies one pair merge (two `rows × ka × kb` GEMMs) against
/// [`tg_trace::Counter::MergeFlops`].
fn count_merge(rows: usize, ka: usize, kb: usize) {
    tg_trace::add(tg_trace::Counter::MergeFlops, 4 * (rows * ka * kb) as u64);
}

/// One `(W, Y)` factor pair representing `I − W Yᵀ`.
#[derive(Clone, Debug)]
pub struct WyPair {
    pub w: Mat,
    pub y: Mat,
}

impl WyPair {
    /// Width (number of accumulated reflectors).
    pub fn width(&self) -> usize {
        self.w.ncols()
    }

    /// Applies `I − W Yᵀ` from the **left**: `C ← C − W (Yᵀ C)`.
    pub fn apply_left(&self, c: &mut MatMut<'_>) {
        let x = gemm_into(1.0, &self.y.as_ref(), Op::Trans, &c.rb(), Op::NoTrans);
        gemm(
            -1.0,
            &self.w.as_ref(),
            Op::NoTrans,
            &x.as_ref(),
            Op::NoTrans,
            1.0,
            c,
        );
    }

    /// Like [`WyPair::apply_left`] but with the `Yᵀ C` intermediate
    /// written into `scratch` (at least `width · c.ncols()` doubles;
    /// contents ignored, since the product is stored with `β = 0`, exactly
    /// as `gemm_into` computes it). Bitwise-identical to the allocating
    /// version.
    pub fn apply_left_in(&self, c: &mut MatMut<'_>, scratch: &mut [f64]) {
        let (k, cols) = (self.width(), c.ncols());
        let mut x = MatMut::from_parts(k, cols, k.max(1), &mut scratch[..k * cols]);
        gemm(
            1.0,
            &self.y.as_ref(),
            Op::Trans,
            &c.rb(),
            Op::NoTrans,
            0.0,
            &mut x,
        );
        gemm(
            -1.0,
            &self.w.as_ref(),
            Op::NoTrans,
            &x.rb(),
            Op::NoTrans,
            1.0,
            c,
        );
    }

    /// Applies `I − W Yᵀ` from the **right**: `C ← C − (C W) Yᵀ`.
    pub fn apply_right(&self, c: &mut MatMut<'_>) {
        let x = gemm_into(1.0, &c.rb(), Op::NoTrans, &self.w.as_ref(), Op::NoTrans);
        gemm(
            -1.0,
            &x.as_ref(),
            Op::NoTrans,
            &self.y.as_ref(),
            Op::Trans,
            1.0,
            c,
        );
    }

    /// Materializes `I − W Yᵀ` (test helper).
    pub fn to_dense(&self, n: usize) -> Mat {
        assert_eq!(self.w.nrows(), n);
        let mut q = Mat::identity(n);
        gemm(
            -1.0,
            &self.w.as_ref(),
            Op::NoTrans,
            &self.y.as_ref(),
            Op::Trans,
            1.0,
            &mut q.as_mut(),
        );
        q
    }
}

/// Merges two factors into one:
/// `(I − W₁Y₁ᵀ)(I − W₂Y₂ᵀ) = I − [W₁ | W₂ − W₁(Y₁ᵀW₂)][Y₁ | Y₂]ᵀ`.
pub fn merge_pair(a: &WyPair, b: &WyPair) -> WyPair {
    let n = a.w.nrows();
    assert_eq!(b.w.nrows(), n);
    let (ka, kb) = (a.width(), b.width());
    count_merge(n, ka, kb);
    // S = Y₁ᵀ W₂  (ka × kb)
    let s = gemm_into(1.0, &a.y.as_ref(), Op::Trans, &b.w.as_ref(), Op::NoTrans);
    // W₂' = W₂ − W₁ S
    let mut w2 = b.w.clone();
    gemm(
        -1.0,
        &a.w.as_ref(),
        Op::NoTrans,
        &s.as_ref(),
        Op::NoTrans,
        1.0,
        &mut w2.as_mut(),
    );
    let mut w = Mat::zeros(n, ka + kb);
    w.view_mut(0, 0, n, ka).copy_from(&a.w.as_ref());
    w.view_mut(0, ka, n, kb).copy_from(&w2.as_ref());
    let mut y = Mat::zeros(n, ka + kb);
    y.view_mut(0, 0, n, ka).copy_from(&a.y.as_ref());
    y.view_mut(0, ka, n, kb).copy_from(&b.y.as_ref());
    WyPair { w, y }
}

/// **Algorithm 3**: recursively merges an ordered list of factors
/// (`I − W₁Y₁ᵀ` applied first) into a single `(W, Y)` pair.
pub fn compute_w_recursive(pairs: &[WyPair]) -> WyPair {
    assert!(!pairs.is_empty());
    match pairs.len() {
        1 => pairs[0].clone(),
        2 => merge_pair(&pairs[0], &pairs[1]),
        p => {
            let mid = p / 2;
            let left = compute_w_recursive(&pairs[..mid]);
            let right = compute_w_recursive(&pairs[mid..]);
            merge_pair(&left, &right)
        }
    }
}

/// **Figure 13**: merges adjacent pairs level by level — each level is one
/// batched GEMM wave — stopping once every block's width is ≥ `target_k`
/// (or only one block remains). Returns the ordered list of wide factors.
///
/// Every input pair's matrices **must** be pool-acquired: consumed pairs
/// are released as they are merged away, and the returned wide pairs are
/// pool-acquired for the caller to release.
pub fn merge_to_width_ws(
    mut pairs: Vec<WyPair>,
    target_k: usize,
    pool: &mut AllocPool,
) -> Vec<WyPair> {
    assert!(!pairs.is_empty());
    while pairs.len() > 1 && pairs[0].width() < target_k {
        let mut next = Vec::with_capacity(pairs.len().div_ceil(2));
        let mut iter = pairs.into_iter();
        let mut lefts: Vec<WyPair> = Vec::new();
        let mut rights: Vec<WyPair> = Vec::new();
        let mut odd: Option<WyPair> = None;
        loop {
            match (iter.next(), iter.next()) {
                (Some(a), Some(b)) => {
                    lefts.push(a);
                    rights.push(b);
                }
                (Some(a), None) => {
                    odd = Some(a);
                    break;
                }
                _ => break,
            }
        }
        // The per-level batched GEMM wave: S_i = Y₁ᵢᵀ W₂ᵢ for every pair at
        // once, then W₂ᵢ ← W₂ᵢ − W₁ᵢ Sᵢ for every pair at once.
        for (a, b) in lefts.iter().zip(&rights) {
            count_merge(a.w.nrows(), a.width(), b.width());
        }
        let mut s: Vec<Mat> = lefts
            .iter()
            .zip(&rights)
            .map(|(a, b)| pool.acquire(a.width(), b.width()))
            .collect();
        {
            let jobs = lefts
                .iter()
                .zip(&rights)
                .zip(s.iter_mut())
                .map(|((a, b), si)| GemmJob {
                    alpha: 1.0,
                    a: &a.y,
                    op_a: Op::Trans,
                    b: &b.w,
                    op_b: Op::NoTrans,
                    beta: 0.0,
                    c: si,
                })
                .collect();
            gemm_batched(jobs);
        }
        {
            let jobs = lefts
                .iter()
                .zip(rights.iter_mut())
                .zip(s.iter())
                .map(|((a, b), si)| GemmJob {
                    alpha: -1.0,
                    a: &a.w,
                    op_a: Op::NoTrans,
                    b: si,
                    op_b: Op::NoTrans,
                    beta: 1.0,
                    c: &mut b.w,
                })
                .collect();
            gemm_batched(jobs);
        }
        for si in s {
            pool.release(si);
        }
        for (a, b) in lefts.into_iter().zip(rights) {
            let n = a.w.nrows();
            let (ka, kb) = (a.width(), b.width());
            let mut w = pool.acquire(n, ka + kb);
            w.view_mut(0, 0, n, ka).copy_from(&a.w.as_ref());
            w.view_mut(0, ka, n, kb).copy_from(&b.w.as_ref());
            let mut y = pool.acquire(n, ka + kb);
            y.view_mut(0, 0, n, ka).copy_from(&a.y.as_ref());
            y.view_mut(0, ka, n, kb).copy_from(&b.y.as_ref());
            pool.release(a.w);
            pool.release(a.y);
            pool.release(b.w);
            pool.release(b.y);
            next.push(WyPair { w, y });
        }
        if let Some(o) = odd {
            next.push(o);
        }
        pairs = next;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::panel_qr;
    use std::sync::{Mutex, MutexGuard};
    use tg_matrix::{gen, max_abs_diff, orthogonality_residual, Mat};

    /// Serializes the tests that merge: merges tally `MergeFlops` into
    /// the process-global trace totals, which `merges_tally_merge_flops`
    /// reads under its session.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Random orthogonal factor from a panel QR (width k, order n).
    fn random_factor(n: usize, k: usize, seed: u64) -> WyPair {
        let mut panel = gen::random(n, k, seed);
        let pq = {
            let mut v = panel.as_mut();
            panel_qr(&mut v)
        };
        WyPair {
            w: pq.block.w(),
            y: pq.block.v.clone(),
        }
    }

    fn dense_product(factors: &[WyPair], n: usize) -> Mat {
        let mut q = Mat::identity(n);
        for f in factors {
            // Q ← Q (I − W Yᵀ)
            f.apply_right(&mut q.as_mut());
        }
        q
    }

    #[test]
    fn merge_pair_preserves_product() {
        let _g = serial();
        let n = 12;
        let a = random_factor(n, 3, 1);
        let b = random_factor(n, 3, 2);
        let merged = merge_pair(&a, &b);
        let expect = dense_product(&[a, b], n);
        assert!(max_abs_diff(&merged.to_dense(n), &expect) < 1e-12);
        assert!(orthogonality_residual(&merged.to_dense(n)) < 1e-12);
    }

    #[test]
    fn recursive_matches_sequential_products() {
        let _g = serial();
        let n = 16;
        for p in [1usize, 2, 3, 4, 5, 7] {
            let factors: Vec<WyPair> = (0..p).map(|i| random_factor(n, 2, 10 + i as u64)).collect();
            let merged = compute_w_recursive(&factors);
            let expect = dense_product(&factors, n);
            assert!(
                max_abs_diff(&merged.to_dense(n), &expect) < 1e-11,
                "p = {p}"
            );
            assert_eq!(merged.width(), 2 * p);
        }
    }

    #[test]
    fn merge_to_width_stops_at_target() {
        let _g = serial();
        let n = 20;
        let factors: Vec<WyPair> = (0..8).map(|i| random_factor(n, 2, 30 + i)).collect();
        let wide = merge_to_width_ws(factors.clone(), 8, &mut AllocPool);
        assert_eq!(wide.len(), 2);
        assert!(wide.iter().all(|f| f.width() == 8));
        let expect = dense_product(&factors, n);
        let got = dense_product(&wide, n);
        assert!(max_abs_diff(&got, &expect) < 1e-11);
    }

    #[test]
    fn merge_to_width_handles_odd_counts() {
        let _g = serial();
        let n = 14;
        let factors: Vec<WyPair> = (0..5).map(|i| random_factor(n, 2, 50 + i)).collect();
        let wide = merge_to_width_ws(factors.clone(), 100, &mut AllocPool);
        // widths double each level; odd trailing block carried through
        let expect = dense_product(&factors, n);
        let got = dense_product(&wide, n);
        assert!(max_abs_diff(&got, &expect) < 1e-11);
        let total: usize = wide.iter().map(|f| f.width()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn apply_left_in_is_bitwise_identical() {
        let n = 16;
        let f = random_factor(n, 4, 99);
        let c0 = gen::random(n, 6, 100);
        let mut plain = c0.clone();
        f.apply_left(&mut plain.as_mut());
        let mut scratched = c0;
        // Stale scratch contents must not leak into the result.
        let mut scratch = vec![f64::NAN; 4 * 6 + 3];
        f.apply_left_in(&mut scratched.as_mut(), &mut scratch);
        assert_eq!(plain, scratched);
    }

    #[test]
    fn merges_tally_merge_flops() {
        let _g = serial();
        let n = 12;
        let a = random_factor(n, 3, 110);
        let b = random_factor(n, 2, 111);
        let session = tg_trace::TraceSession::begin();
        let _ = merge_pair(&a, &b);
        let trace = session.finish();
        assert_eq!(
            trace.total(tg_trace::Counter::MergeFlops),
            4 * (n * 3 * 2) as u64
        );
    }

    #[test]
    fn apply_left_right_consistency() {
        let n = 10;
        let f = random_factor(n, 3, 70);
        let qd = f.to_dense(n);
        let c0 = gen::random(n, n, 71);
        let mut left = c0.clone();
        f.apply_left(&mut left.as_mut());
        let mut expect = Mat::zeros(n, n);
        tg_blas::gemm(
            1.0,
            &qd.as_ref(),
            tg_blas::Op::NoTrans,
            &c0.as_ref(),
            tg_blas::Op::NoTrans,
            0.0,
            &mut expect.as_mut(),
        );
        assert!(max_abs_diff(&left, &expect) < 1e-11);
    }
}
