//! The AVX-512F build of a chase task (see [`super::kernels`]).
//!
//! Each step computes exactly what its portable twin computes, in the
//! same order, with separate multiplies and adds (no fused multiply-add):
//! a vector holds eight *independent* accumulations, never the partial
//! sums of one. Where a sum runs down a tile column (the left apply's
//! `vᵀB`), eight columns are transposed in registers so that each lane
//! carries one column's sum, still in row order. Rows past the task's `m`
//! are zero in the tile and in `v`: their products are `±0`, and adding
//! `±0` to a sum that starts at `+0.0` never changes it (such a sum is
//! never `−0.0`), so the padding is bit-neutral.
//!
//! The steps are fused with the copies: the right apply's dot runs while
//! `B` is copied in, and the left apply's and the two-sided update's last
//! passes store straight to band storage, through masked stores that
//! write the window's rows and nothing else.
//!
//! Every function requires a tile stride `ld` of `8·NV` rows, with
//! `NV ≤ 4` (`m ≤ 32`): accumulators live in `NV` zmm registers.

use std::arch::x86_64::*;

/// Doubles per zmm register.
const LANES: usize = 8;

/// A task's window in band storage at `base` (stride `ldab`,
/// `A[r][c]` at `c·ldab + r − c`): `B` = rows `r0 .. r0 + m` of columns
/// `c0 .. c0 + k`, `D` = rows and columns `r0 .. r0 + m`.
#[derive(Clone, Copy)]
pub struct Window {
    pub base: *mut f64,
    pub ldab: usize,
    pub r0: usize,
    pub c0: usize,
    pub m: usize,
    pub k: usize,
}

impl Window {
    /// Where `A[r][c]` is stored, also for `r < c`, where it points into
    /// column `c`'s predecessor (only lanes at `r ≥ c` are then accessed).
    #[inline]
    fn at(&self, r: usize, c: usize) -> *mut f64 {
        self.base.wrapping_add(c * (self.ldab - 1) + r)
    }
}

/// Per vector `q` of a tile column (rows `8q .. 8q + 8`), the lanes that
/// hold rows `0..m`.
#[inline]
fn row_lanes<const NV: usize>(m: usize) -> [u8; NV] {
    std::array::from_fn(|q| match m.saturating_sub(LANES * q) {
        x if x >= LANES => 0xff,
        x => (1u16 << x) as u8 - 1,
    })
}

/// Per vector, the lanes of `D`'s column `j` that hold its lower
/// triangle: rows `j..m` (`rows` from [`row_lanes`]`(m)`).
#[inline]
fn lower_lanes<const NV: usize>(rows: [u8; NV], j: usize) -> [u8; NV] {
    std::array::from_fn(|q| match q.cmp(&(j / LANES)) {
        std::cmp::Ordering::Less => 0,
        std::cmp::Ordering::Equal => rows[q] & (0xffu8 << (j % LANES)),
        std::cmp::Ordering::Greater => rows[q],
    })
}

/// Transposes the 8 × 8 block whose column `q` is `r[q]`: lane `q` of
/// the returned vector `i` is lane `i` of `r[q]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose8(r: [__m512d; 8]) -> [__m512d; 8] {
    let t0 = _mm512_unpacklo_pd(r[0], r[1]);
    let t1 = _mm512_unpackhi_pd(r[0], r[1]);
    let t2 = _mm512_unpacklo_pd(r[2], r[3]);
    let t3 = _mm512_unpackhi_pd(r[2], r[3]);
    let t4 = _mm512_unpacklo_pd(r[4], r[5]);
    let t5 = _mm512_unpackhi_pd(r[4], r[5]);
    let t6 = _mm512_unpacklo_pd(r[6], r[7]);
    let t7 = _mm512_unpackhi_pd(r[6], r[7]);
    let u0 = _mm512_shuffle_f64x2::<0x88>(t0, t2);
    let u1 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
    let u2 = _mm512_shuffle_f64x2::<0xdd>(t0, t2);
    let u3 = _mm512_shuffle_f64x2::<0xdd>(t1, t3);
    let u4 = _mm512_shuffle_f64x2::<0x88>(t4, t6);
    let u5 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
    let u6 = _mm512_shuffle_f64x2::<0xdd>(t4, t6);
    let u7 = _mm512_shuffle_f64x2::<0xdd>(t5, t7);
    [
        _mm512_shuffle_f64x2::<0x88>(u0, u4),
        _mm512_shuffle_f64x2::<0x88>(u1, u5),
        _mm512_shuffle_f64x2::<0x88>(u2, u6),
        _mm512_shuffle_f64x2::<0x88>(u3, u7),
        _mm512_shuffle_f64x2::<0xdd>(u0, u4),
        _mm512_shuffle_f64x2::<0xdd>(u1, u5),
        _mm512_shuffle_f64x2::<0xdd>(u2, u6),
        _mm512_shuffle_f64x2::<0xdd>(u3, u7),
    ]
}

/// Copies the window into the tile (`B`, then `D` mirrored to a full
/// square; rows and columns past `m` zero) and applies `prev = (τ, v)`
/// from the right to `B`, its dot `w = B v` accumulated as `B` streams
/// in: `kernels::load_tile`, then `kernels::apply_right`.
///
/// # Safety
/// The CPU must support `avx512f`; the caller holds the window, which
/// lies inside the band storage, and `tile` holds `8·NV · (k + 8·NV)`
/// doubles.
#[target_feature(enable = "avx512f")]
pub unsafe fn load<const NV: usize>(win: Window, prev: Option<(f64, &[f64])>, tile: &mut [f64]) {
    let (ld, m, k) = (LANES * NV, win.m, win.k);
    assert!(tile.len() >= ld * (k + ld) && m <= ld);
    let t = tile.as_mut_ptr();
    let rows = row_lanes::<NV>(m);
    let mut w = [_mm512_setzero_pd(); NV];
    let vprev = prev.map_or(&[][..], |(_, v)| v);
    assert!(prev.is_none() || vprev.len() == k);
    for j in 0..k {
        let src = win.at(win.r0, win.c0 + j);
        for (q, (&mask, wq)) in rows.iter().zip(&mut w).enumerate() {
            let a = _mm512_maskz_loadu_pd(mask, src.add(LANES * q));
            _mm512_storeu_pd(t.add(j * ld + LANES * q), a);
            if let Some(&vj) = vprev.get(j) {
                *wq = _mm512_add_pd(*wq, _mm512_mul_pd(_mm512_set1_pd(vj), a));
            }
        }
    }
    if let Some((tau, v)) = prev {
        let tau = _mm512_set1_pd(tau);
        let mut live = [0u8; NV];
        for (wq, lq) in w.iter_mut().zip(&mut live) {
            *wq = _mm512_mul_pd(*wq, tau);
            *lq = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(*wq, _mm512_setzero_pd());
        }
        for (j, &vj) in v.iter().enumerate() {
            let s = _mm512_set1_pd(vj);
            for (q, (&wq, &lq)) in w.iter().zip(&live).enumerate() {
                let at = t.add(j * ld + LANES * q);
                let a = _mm512_loadu_pd(at);
                _mm512_storeu_pd(at, _mm512_mask_sub_pd(a, lq, a, _mm512_mul_pd(wq, s)));
            }
        }
    }

    // D's lower triangle; its upper one (left unwritten here) is
    // mirrored below.
    let d = t.add(ld * k);
    for j in 0..ld {
        let src = win.at(win.r0, win.r0 + j);
        let lower = if j < m {
            lower_lanes(rows, j)
        } else {
            rows.map(|_| 0)
        };
        for (q, &mask) in lower.iter().enumerate().skip(j / LANES) {
            let x = if mask == 0 {
                _mm512_setzero_pd()
            } else {
                _mm512_maskz_loadu_pd(mask, src.add(LANES * q))
            };
            _mm512_storeu_pd(d.add(j * ld + LANES * q), x);
        }
    }
    for bj in 0..NV {
        for bi in bj..NV {
            let block: [__m512d; 8] =
                std::array::from_fn(|c| _mm512_loadu_pd(d.add((LANES * bj + c) * ld + LANES * bi)));
            let rows = transpose8(block);
            for (r, &row) in rows.iter().enumerate() {
                if bi == bj {
                    // Column r of a diagonal block: its lanes above the
                    // diagonal from row r.
                    let upper = (1u8 << r) - 1;
                    let col = _mm512_mask_blend_pd(upper, block[r], row);
                    _mm512_storeu_pd(d.add((LANES * bj + r) * ld + LANES * bi), col);
                } else {
                    _mm512_storeu_pd(d.add((LANES * bi + r) * ld + LANES * bj), row);
                }
            }
        }
    }
}

/// `B ← (I − τ v vᵀ) B` on `B`'s columns `1..k` (`v` padded to the
/// stride), as `kernels::apply_left`, storing every column of `B` to
/// band storage; with `τ = 0` it only stores them. Columns go eight at a
/// time; a last group of fewer reads (and ignores) up to seven columns
/// past `k`, which lie in `D`.
///
/// # Safety
/// As for [`load`], which filled `tile`.
#[target_feature(enable = "avx512f")]
pub unsafe fn left_store<const NV: usize>(win: Window, tau: f64, v: &[f64], tile: &[f64]) {
    let (ld, k) = (LANES * NV, win.k);
    assert!(v.len() >= ld && tile.len() >= ld * (k + ld));
    let t = tile.as_ptr();
    let rows = row_lanes::<NV>(win.m);
    let vv: [__m512d; NV] = std::array::from_fn(|q| _mm512_loadu_pd(v.as_ptr().add(LANES * q)));
    let store = |j: usize, q: usize, x: __m512d| {
        _mm512_mask_storeu_pd(win.at(win.r0, win.c0 + j).add(LANES * q), rows[q], x);
    };
    for q in 0..NV {
        store(0, q, _mm512_loadu_pd(t.add(LANES * q)));
    }
    let tau = _mm512_set1_pd(tau);
    for g in (1..k).step_by(LANES) {
        let mut acc = _mm512_setzero_pd();
        for q in 0..NV {
            let rows = transpose8(std::array::from_fn(|c| {
                _mm512_loadu_pd(t.add((g + c) * ld + LANES * q))
            }));
            for (i, row) in rows.iter().enumerate() {
                let vi = _mm512_set1_pd(v[LANES * q + i]);
                acc = _mm512_add_pd(acc, _mm512_mul_pd(vi, *row));
            }
        }
        let mut tw = [0.0; LANES];
        _mm512_storeu_pd(tw.as_mut_ptr(), _mm512_mul_pd(tau, acc));
        for (c, &twc) in tw.iter().enumerate().take(k - g) {
            let s = _mm512_set1_pd(twc);
            for (q, &vq) in vv.iter().enumerate() {
                let a = _mm512_loadu_pd(t.add((g + c) * ld + LANES * q));
                let a = if twc != 0.0 {
                    _mm512_sub_pd(a, _mm512_mul_pd(s, vq))
                } else {
                    a
                };
                store(g + c, q, a);
            }
        }
    }
}

/// `p = D v` over the full `8·NV`-square tile `d` (`v` padded), each
/// `pₖ` summed in column order: the first step of
/// `kernels::apply_two_sided`.
///
/// # Safety
/// The CPU must support `avx512f`; `d` holds `(8·NV)²` doubles and `v`
/// and `p` at least `8·NV`.
#[target_feature(enable = "avx512f")]
pub unsafe fn symv<const NV: usize>(d: &[f64], v: &[f64], p: &mut [f64]) {
    let ld = LANES * NV;
    assert!(d.len() >= ld * ld && v.len() >= ld && p.len() >= ld);
    let mut acc = [_mm512_setzero_pd(); NV];
    for (j, &vj) in v[..ld].iter().enumerate() {
        let s = _mm512_set1_pd(vj);
        for (q, aq) in acc.iter_mut().enumerate() {
            let a = _mm512_loadu_pd(d.as_ptr().add(j * ld + LANES * q));
            *aq = _mm512_add_pd(*aq, _mm512_mul_pd(a, s));
        }
    }
    for (q, aq) in acc.iter().enumerate() {
        _mm512_storeu_pd(p.as_mut_ptr().add(LANES * q), *aq);
    }
}

/// `D ← D − v wᵀ − w vᵀ` on the lower triangle of `D` (the tile `d`,
/// `v` and `w` padded), stored straight to band storage: the last step
/// of `kernels::apply_two_sided`.
///
/// # Safety
/// As for [`load`]; `d` holds `(8·NV)²` doubles and `v` and `w` at least
/// `8·NV`.
#[target_feature(enable = "avx512f")]
pub unsafe fn rank2_store<const NV: usize>(win: Window, d: &[f64], v: &[f64], w: &[f64]) {
    let ld = LANES * NV;
    assert!(d.len() >= ld * ld && v.len() >= ld && w.len() >= ld && win.m <= ld);
    let rows = row_lanes::<NV>(win.m);
    let vv: [__m512d; NV] = std::array::from_fn(|q| _mm512_loadu_pd(v.as_ptr().add(LANES * q)));
    let ww: [__m512d; NV] = std::array::from_fn(|q| _mm512_loadu_pd(w.as_ptr().add(LANES * q)));
    for j in 0..win.m {
        let (vj, wj) = (_mm512_set1_pd(v[j]), _mm512_set1_pd(w[j]));
        let dst = win.at(win.r0, win.r0 + j);
        for (q, &mask) in lower_lanes(rows, j).iter().enumerate().skip(j / LANES) {
            let a = _mm512_loadu_pd(d.as_ptr().add(j * ld + LANES * q));
            let a = _mm512_sub_pd(a, _mm512_mul_pd(vv[q], wj));
            let a = _mm512_sub_pd(a, _mm512_mul_pd(ww[q], vj));
            _mm512_mask_storeu_pd(dst.add(LANES * q), mask, a);
        }
    }
}
