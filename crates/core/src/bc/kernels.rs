//! The bulge-chasing task kernel over shared band storage.
//!
//! One task of sweep `s` is the CPU analogue of the GPU kernel types of
//! §4.2 (Algorithm 2, lines 8–13), fused into one pass over its window:
//!
//! 1. `B ← B H_prev`: the previous task's reflector, applied from the
//!    right to the block `B` below that task's diagonal block (rows
//!    `r0..=r1`, columns `c0..=c1`), materializes the bulge;
//! 2. a reflector `H` that annihilates `B`'s first column below row `r0`;
//! 3. `B ← H B` on the rest of the bulge block;
//! 4. `D ← H D H` on the diagonal block `D` of rows/columns `r0..=r1`.
//!
//! `chase_task` copies `B` and the lower triangle of `D` (mirrored to a
//! full square) from band storage into a dense column-major tile, its
//! columns padded with zeros to a multiple of 8 rows: at most
//! `32 × 64` doubles for `b = 32`, which lives in the lane's
//! [`LaneScratch`] and stays in L1. It runs the four steps as unit-stride
//! loops over the tile and writes the tile back once. Each loop keeps the
//! summation order of the band-storage formulation — every dot product
//! accumulates its terms in index order, from `0.0`, and every update is
//! `a − x·y` — so the tile changes where the arithmetic reads its
//! operands, not its bits. Nothing is allocated per task except the
//! reflector's own `v`, which moves into the output.
//!
//! Two builds run the steps: the portable loops below, and, when
//! [`tg_blas::kernel::kernel`] picks AVX-512F and `b ≤ 32`, the `simd`
//! module's, which fuse the copies into the first and last passes. They
//! compute the same bits (`tests::tile_kernel_matches_band_storage_arithmetic_bitwise`
//! checks whichever build the process runs; `TG_KERNEL=scalar` picks the
//! portable one).
//!
//! [`SharedBand`] is a raw view of a [`SymBand`]'s storage that multiple
//! sweep tasks may access concurrently. Safety relies entirely on the
//! Algorithm-2 progress protocol: at any instant, concurrently running tasks
//! touch index windows at least `2b` apart, hence disjoint storage columns.

use super::BcReflector;
use tg_matrix::SymBand;

/// Raw shared view of band storage (`data[c * ldab + (r − c)]` = `A[r][c]`).
///
/// `Sync` is sound only under the caller-enforced disjointness protocol —
/// see module docs. All access is bounds-checked in debug builds.
#[derive(Clone, Copy)]
pub struct SharedBand {
    ptr: *mut f64,
    len: usize,
    pub n: usize,
    pub ldab: usize,
}

// SAFETY: the view is a pointer and sizes; every access through it is an
// `unsafe fn` whose caller holds the accessed window (module docs).
unsafe impl Send for SharedBand {}
// SAFETY: as for `Send`.
unsafe impl Sync for SharedBand {}

impl SharedBand {
    /// Wraps the storage of a band matrix. The caller must keep `band`
    /// alive and un-moved for the lifetime of the view.
    pub fn new(band: &mut SymBand) -> Self {
        let n = band.n();
        let ldab = band.ldab();
        let s = band.as_mut_slice();
        SharedBand {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            n,
            ldab,
        }
    }

    /// Storage index of `A[r][c]` for rows `r .. r + len` of column `c`,
    /// which are contiguous.
    #[inline]
    fn index(&self, r: usize, c: usize, len: usize) -> usize {
        debug_assert!(r >= c && r - c + len <= self.ldab && r + len <= self.n);
        let idx = c * self.ldab + (r - c);
        debug_assert!(idx + len <= self.len);
        idx
    }

    /// Copies `A[r .. r + dst.len()][c]` into `dst`.
    ///
    /// # Safety
    /// Caller must hold exclusive logical access to the index window.
    #[inline]
    pub unsafe fn read_col(&self, r: usize, c: usize, dst: &mut [f64]) {
        let idx = self.index(r, c, dst.len());
        std::ptr::copy_nonoverlapping(self.ptr.add(idx), dst.as_mut_ptr(), dst.len());
    }

    /// Writes `src` to `A[r .. r + src.len()][c]`.
    ///
    /// # Safety
    /// Caller must hold exclusive logical access to the index window.
    #[inline]
    pub unsafe fn write_col(&self, r: usize, c: usize, src: &[f64]) {
        let idx = self.index(r, c, src.len());
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(idx), src.len());
    }
}

/// Rows of a tile column are padded to a multiple of this (one zmm).
const PAD: usize = 8;

/// One lane's scratch for a sweep's tasks: the tile (`B`, then the full
/// square `D`), the reflector padded to the tile stride, and one work
/// vector, sized once for bandwidth `b` and reused by every task the lane
/// runs.
pub struct LaneScratch {
    buf: Vec<f64>,
}

impl LaneScratch {
    /// Scratch for tasks of bandwidth at most `b`: with `ld` = `b` rounded
    /// up to a multiple of 8, `ld × b` for `B`, `ld × ld` for `D` and `ld`
    /// each for the padded reflector and the work vector.
    pub fn new(b: usize) -> Self {
        let ld = b.div_ceil(PAD) * PAD;
        LaneScratch {
            buf: vec![0.0; ld * (b + ld + 2)],
        }
    }
}

/// Flops a task counts: `4mk` for a reflector applied to an `m × k` block
/// (a dot and an update per column) and `4m²` for the two-sided update of
/// an `m × m` block (`p = τAv`, then the rank-2 update). Reflector
/// generation, `O(m)`, is not counted, nor is a reflector with `τ = 0`.
fn task_flops(prev_tau: f64, tau: f64, m: usize, k: usize) -> u64 {
    let (m, k) = (m as u64, k as u64);
    let right = if prev_tau != 0.0 { 4 * m * k } else { 0 };
    let left_and_two_sided = if tau != 0.0 {
        4 * m * (k - 1) + 4 * m * m
    } else {
        0
    };
    right + left_and_two_sided
}

/// The build that runs a task's tile steps: AVX-512F when
/// [`tg_blas::kernel::kernel`] picked it and the stride fits four zmm
/// registers (`NV = ld / 8`), else the portable loops. Both compute the
/// same bits.
#[derive(Clone, Copy)]
enum Build {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512 {
        nv: usize,
    },
}

impl Build {
    fn for_stride(ld: usize) -> Build {
        #[cfg(target_arch = "x86_64")]
        if ld <= 4 * PAD && tg_blas::kernel::kernel() == tg_blas::kernel::Kernel::Avx512F {
            return Build::Avx512 { nv: ld / PAD };
        }
        let _ = ld;
        Build::Portable
    }
}

/// Calls `simd::$f::<NV>` for the runtime `nv`.
#[cfg(target_arch = "x86_64")]
macro_rules! by_nv {
    ($nv:expr, $f:ident($($arg:expr),*)) => {
        match $nv {
            1 => super::simd::$f::<1>($($arg),*),
            2 => super::simd::$f::<2>($($arg),*),
            3 => super::simd::$f::<3>($($arg),*),
            4 => super::simd::$f::<4>($($arg),*),
            nv => unreachable!("tile stride of {nv} zmm registers"),
        }
    };
}

/// Runs one task: block `B` = rows `r0..=r1` × columns `c0..=c1`, diagonal
/// block `D` = rows/columns `r0..=r1`. `prev` is the previous task's
/// reflector, acting on columns `c0..=c1` (`None` for a sweep's first
/// task, whose `B` is the single column `c0 = s`). Returns the new
/// reflector, which annihilates column `c0` below row `r0`, and the flops
/// counted (see [`task_flops`]).
///
/// # Safety
/// Exclusive logical access to `B` and the lower triangle of `D`.
unsafe fn chase_task(
    band: &SharedBand,
    scratch: &mut LaneScratch,
    prev: Option<&BcReflector>,
    (c0, c1): (usize, usize),
    (r0, r1): (usize, usize),
) -> (BcReflector, u64) {
    let (m, k) = (r1 - r0 + 1, c1 - c0 + 1);
    let ld = m.div_ceil(PAD) * PAD;
    let build = Build::for_stride(ld);
    // Tile layout: B (ld × k), D (ld × ld), the padded reflector, work.
    let (tile, rest) = scratch.buf.split_at_mut(ld * (k + ld));
    let (vp, rest) = rest.split_at_mut(ld);
    let work = &mut rest[..ld];
    let prev = prev.filter(|p| p.tau != 0.0).map(|p| (p.tau, &p.v[..]));
    debug_assert!(prev.is_none_or(|(_, v)| v.len() == k));
    #[cfg(target_arch = "x86_64")]
    let win = super::simd::Window {
        base: band.ptr,
        ldab: band.ldab,
        r0,
        c0,
        m,
        k,
    };

    // Copy the window in; 1. B ← B H_prev.
    match build {
        Build::Portable => {
            load_tile(band, (r0, c0), (m, k), ld, tile);
            if let Some((tau, v)) = prev {
                apply_right(tau, v, &mut tile[..ld * k], ld, m, work);
            }
        }
        // SAFETY: `Build::for_stride` checked the CPU and the stride; the
        // caller holds the window.
        #[cfg(target_arch = "x86_64")]
        Build::Avx512 { nv } => by_nv!(nv, load(win, prev, tile)),
    }
    // 2. The reflector annihilating B's first column below its top.
    let mut v = tile[..m].to_vec();
    let refl = tg_householder::make_reflector(&mut v);
    v[0] = 1.0;
    tile[0] = refl.beta;
    tile[1..m].fill(0.0);
    vp[..m].copy_from_slice(&v);
    vp[m..].fill(0.0);
    // 3. B ← H B on the remaining columns; 4. D ← H D H; write back.
    let (bt, d) = tile.split_at_mut(ld * k);
    match build {
        Build::Portable => {
            if refl.tau != 0.0 {
                apply_left(refl.tau, &v, &mut bt[ld..], ld);
                symv(d, vp, work, ld, m);
                two_sided_w(refl.tau, vp, work, m);
                rank2(d, vp, work, ld, m);
            }
            store_tile(band, (r0, c0), (m, k), ld, tile);
        }
        // SAFETY: as for the copy in.
        #[cfg(target_arch = "x86_64")]
        Build::Avx512 { nv } => {
            by_nv!(nv, left_store(win, refl.tau, vp, tile));
            if refl.tau != 0.0 {
                let d = &tile[ld * k..];
                by_nv!(nv, symv(d, vp, work));
                two_sided_w(refl.tau, vp, work, m);
                by_nv!(nv, rank2_store(win, d, vp, work));
            }
        }
    }
    let flops = task_flops(prev.map_or(0.0, |p| p.0), refl.tau, m, k);
    let out = BcReflector {
        col: c0,
        row0: r0,
        tau: refl.tau,
        v,
    };
    (out, flops)
}

/// Copies `B` (`m × k` at `(r0, c0)`) and `D` (`m × m` at `(r0, r0)`) into
/// the tile of stride `ld`, mirroring `D`'s lower triangle; rows and
/// columns past `m` are zero.
///
/// # Safety
/// Exclusive logical access to the window.
unsafe fn load_tile(
    band: &SharedBand,
    (r0, c0): (usize, usize),
    (m, k): (usize, usize),
    ld: usize,
    tile: &mut [f64],
) {
    let (bt, d) = tile.split_at_mut(ld * k);
    for (j, col) in bt.chunks_exact_mut(ld).enumerate() {
        band.read_col(r0, c0 + j, &mut col[..m]);
        col[m..].fill(0.0);
    }
    d.fill(0.0);
    for (j, col) in d.chunks_exact_mut(ld).enumerate().take(m) {
        band.read_col(r0 + j, r0 + j, &mut col[j..m]);
    }
    for j in 0..m {
        for i in j + 1..m {
            d[i * ld + j] = d[j * ld + i];
        }
    }
}

/// Writes `B` and `D`'s lower triangle back from the tile.
///
/// # Safety
/// Exclusive logical access to the window.
unsafe fn store_tile(
    band: &SharedBand,
    (r0, c0): (usize, usize),
    (m, k): (usize, usize),
    ld: usize,
    tile: &[f64],
) {
    let (bt, d) = tile.split_at(ld * k);
    for (j, col) in bt.chunks_exact(ld).enumerate() {
        band.write_col(r0, c0 + j, &col[..m]);
    }
    for (j, col) in d.chunks_exact(ld).enumerate().take(m) {
        band.write_col(r0 + j, r0 + j, &col[j..m]);
    }
}

/// `B ← B (I − τ v vᵀ)` on the tile `bt` (`m` rows of stride `ld`). Row
/// `i`'s `wᵢ = Σⱼ vⱼ B[i][j]` accumulates in column order, as a row-wise
/// dot would, but the loops run down columns, so each step updates all
/// `m` rows at unit stride. A row with `τwᵢ = 0` is left untouched.
fn apply_right(tau: f64, v: &[f64], bt: &mut [f64], ld: usize, m: usize, w: &mut [f64]) {
    let w = &mut w[..m];
    w.fill(0.0);
    for (col, &vj) in bt.chunks_exact(ld).zip(v) {
        for (wi, &a) in w.iter_mut().zip(col) {
            *wi += vj * a;
        }
    }
    for wi in w.iter_mut() {
        *wi *= tau;
    }
    for (col, &vj) in bt.chunks_exact_mut(ld).zip(v) {
        for (a, &tw) in col.iter_mut().zip(w.iter()) {
            if tw != 0.0 {
                *a -= tw * vj;
            }
        }
    }
}

/// `B ← (I − τ v vᵀ) B` on the tile `bt` (stride `ld`, `v.len()` rows).
/// Column `j`'s `w = Σᵢ vᵢ B[i][j]` accumulates in row order. A column
/// with `τw = 0` is left untouched.
fn apply_left(tau: f64, v: &[f64], bt: &mut [f64], ld: usize) {
    for col in bt.chunks_exact_mut(ld) {
        let mut w = 0.0;
        for (&vi, &a) in v.iter().zip(col.iter()) {
            w += vi * a;
        }
        let tw = tau * w;
        if tw != 0.0 {
            for (a, &vi) in col.iter_mut().zip(v) {
                *a -= tw * vi;
            }
        }
    }
}

/// `D ← H D H` on the tile `d` (stride `ld`; `m × m` and symmetric, both
/// triangles valid on entry, only the lower one updated) is the rank-2
/// form `p = τ D v`, `w = p − ½τ(pᵀv)v`, `D ← D − v wᵀ − w vᵀ`, in three
/// steps. This first one computes `D v` into `p`. Each `pₖ` accumulates
/// row `k` of `D` in column order, which is the order the lower-triangle
/// formulation (column `j`'s axpy into `p[j+1..]`, then its dot into
/// `p[j]`) produces.
fn symv(d: &[f64], v: &[f64], p: &mut [f64], ld: usize, m: usize) {
    p[..m].fill(0.0);
    for (col, &vj) in d.chunks_exact(ld).zip(&v[..m]) {
        for (pk, &a) in p[..m].iter_mut().zip(col) {
            *pk += a * vj;
        }
    }
}

/// The middle step of the two-sided update, shared by both builds: turns
/// `p = D v` into `w = τp − ½τ(τpᵀv)v` in place.
fn two_sided_w(tau: f64, v: &[f64], p: &mut [f64], m: usize) {
    let mut pv = 0.0;
    for (pi, &vi) in p[..m].iter_mut().zip(v) {
        *pi *= tau;
        pv += *pi * vi;
    }
    let half = 0.5 * tau * pv;
    for (pi, &vi) in p[..m].iter_mut().zip(v) {
        *pi -= half * vi;
    }
}

/// The last step: `D ← D − v wᵀ − w vᵀ` on the lower triangle.
fn rank2(d: &mut [f64], v: &[f64], w: &[f64], ld: usize, m: usize) {
    for (j, col) in d.chunks_exact_mut(ld).enumerate().take(m) {
        let (vj, wj) = (v[j], w[j]);
        for i in j..m {
            col[i] = col[i] - v[i] * wj - w[i] * vj;
        }
    }
}

/// Executes one full sweep `s` of bulge chasing (Algorithm 2 body).
///
/// `gate(col)` is invoked before each task with the task's working column —
/// the pipeline implementation blocks there until the previous sweep is
/// `2b` ahead and then publishes its own progress; the sequential version
/// passes a no-op.
///
/// Returns the reflectors generated by this sweep, in application order.
///
/// # Safety
/// Concurrent callers must uphold the Algorithm-2 spacing protocol through
/// their `gate` implementations.
pub unsafe fn run_sweep(
    band: &SharedBand,
    b: usize,
    s: usize,
    scratch: &mut LaneScratch,
    mut gate: impl FnMut(usize),
) -> Vec<BcReflector> {
    let n = band.n;
    if s + 2 >= n || b <= 1 {
        return Vec::new(); // nothing below the first subdiagonal
    }
    tg_trace::add(tg_trace::Counter::Sweeps, 1);
    let mut last = (s + b).min(n - 1);
    let mut out = Vec::with_capacity(1 + (n - 1 - last).div_ceil(b));

    // Task 0 eliminates column s: B is that column alone.
    gate(s);
    let (r, mut flops) = chase_task(band, scratch, None, (s, s), (s + 1, last));
    out.push(r);
    let mut first = s + 1;
    // Chase tasks, until the bulge leaves the band.
    while last + 1 < n {
        gate(first);
        let rows = (last + 1, (last + b).min(n - 1));
        let (r, f) = chase_task(band, scratch, out.last(), (first, last), rows);
        out.push(r);
        flops += f;
        (first, last) = rows;
    }
    tg_trace::add(tg_trace::Counter::BulgeTasks, out.len() as u64);
    tg_trace::add(tg_trace::Counter::Flops, flops);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;

    #[test]
    fn shared_band_column_round_trip() {
        let mut band = SymBand::with_storage(6, 2, 5);
        let sb = SharedBand::new(&mut band);
        let mut col = [0.0; 3];
        unsafe {
            sb.write_col(2, 1, &[7.5, 8.5, 9.5]);
            sb.read_col(2, 1, &mut col);
        }
        assert_eq!(col, [7.5, 8.5, 9.5]);
        assert_eq!((band.at(2, 1), band.at(4, 1)), (7.5, 9.5));
    }

    /// The band-storage formulation the tile kernel restates: every dot
    /// from `0.0` in index order, every update `a − x·y`.
    mod band_reference {
        use super::*;

        fn get(a: &SymBand, r: usize, c: usize) -> f64 {
            a.at(r, c)
        }

        fn reflector(a: &mut SymBand, col: usize, r0: usize, r1: usize) -> (f64, Vec<f64>) {
            let mut x: Vec<f64> = (r0..=r1).map(|r| get(a, r, col)).collect();
            let refl = tg_householder::make_reflector(&mut x);
            *a.at_mut(r0, col) = refl.beta;
            for r in r0 + 1..=r1 {
                *a.at_mut(r, col) = 0.0;
            }
            x[0] = 1.0;
            (refl.tau, x)
        }

        fn left(a: &mut SymBand, tau: f64, v: &[f64], r0: usize, c0: usize, c1: usize) {
            if tau == 0.0 || c1 < c0 {
                return;
            }
            for c in c0..=c1 {
                let mut w = 0.0;
                for (i, &vi) in v.iter().enumerate() {
                    w += vi * get(a, r0 + i, c);
                }
                let tw = tau * w;
                if tw != 0.0 {
                    for (i, &vi) in v.iter().enumerate() {
                        *a.at_mut(r0 + i, c) -= tw * vi;
                    }
                }
            }
        }

        fn right(a: &mut SymBand, tau: f64, v: &[f64], c0: usize, r0: usize, r1: usize) {
            if tau == 0.0 {
                return;
            }
            for r in r0..=r1 {
                let mut w = 0.0;
                for (j, &vj) in v.iter().enumerate() {
                    w += vj * get(a, r, c0 + j);
                }
                let tw = tau * w;
                if tw != 0.0 {
                    for (j, &vj) in v.iter().enumerate() {
                        *a.at_mut(r, c0 + j) -= tw * vj;
                    }
                }
            }
        }

        fn two_sided(a: &mut SymBand, tau: f64, v: &[f64], r0: usize) {
            if tau == 0.0 {
                return;
            }
            let len = v.len();
            let mut p = vec![0.0; len];
            for j in 0..len {
                p[j] += get(a, r0 + j, r0 + j) * v[j];
                for i in j + 1..len {
                    let x = get(a, r0 + i, r0 + j);
                    p[i] += x * v[j];
                    p[j] += x * v[i];
                }
            }
            let mut pv = 0.0;
            for i in 0..len {
                p[i] *= tau;
                pv += p[i] * v[i];
            }
            let half = 0.5 * tau * pv;
            for i in 0..len {
                p[i] -= half * v[i];
            }
            for j in 0..len {
                for i in j..len {
                    let x = get(a, r0 + i, r0 + j);
                    *a.at_mut(r0 + i, r0 + j) = x - v[i] * p[j] - p[i] * v[j];
                }
            }
        }

        /// Every sweep, in order: `(τ, v)` per task, and the band left.
        pub fn chase(a: &mut SymBand, b: usize) -> Vec<(f64, Vec<f64>)> {
            let n = a.n();
            let mut out = Vec::new();
            for s in 0..n.saturating_sub(2) {
                let (mut first, mut last) = (s + 1, (s + b).min(n - 1));
                let (mut tau, mut v) = reflector(a, s, first, last);
                two_sided(a, tau, &v, first);
                out.push((tau, v.clone()));
                while last + 1 < n {
                    let (r0, r1) = (last + 1, (last + b).min(n - 1));
                    right(a, tau, &v, first, r0, r1);
                    let (t, w) = reflector(a, first, r0, r1);
                    left(a, t, &w, r0, first + 1, last);
                    two_sided(a, t, &w, r0);
                    out.push((t, w.clone()));
                    (first, last, tau, v) = (r0, r1, t, w);
                }
            }
            out
        }
    }

    /// The tile kernel is the band-storage arithmetic, bit for bit: every
    /// reflector and every stored entry match, on a random band and on a
    /// graded one whose magnitudes expose any reordered sum.
    #[test]
    fn tile_kernel_matches_band_storage_arithmetic_bitwise() {
        for (n, b, graded) in [(37usize, 5usize, false), (48, 4, true), (20, 8, false)] {
            let mut dense = gen::random_symmetric_band(n, b, 9);
            if graded {
                for i in 0..n {
                    let g = 10f64.powf(-(9.0 * i as f64 / n as f64));
                    for j in 0..n {
                        dense[(i, j)] *= g;
                        dense[(j, i)] *= g;
                    }
                }
            }
            let band = SymBand::from_dense_lower(&dense, b);
            let mut tile = super::super::seq::widen_storage(&band, b);
            let mut reference = tile.clone();
            let expected = band_reference::chase(&mut reference, b);
            let shared = SharedBand::new(&mut tile);
            let mut scratch = LaneScratch::new(b);
            let got: Vec<BcReflector> = (0..n - 2)
                .flat_map(|s| unsafe { run_sweep(&shared, b, s, &mut scratch, |_| {}) })
                .collect();
            assert_eq!(got.len(), expected.len(), "n={n} b={b}");
            for (g, (tau, v)) in got.iter().zip(&expected) {
                assert_eq!(g.tau.to_bits(), tau.to_bits(), "n={n} b={b}");
                let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g.v), bits(v), "n={n} b={b}");
            }
            let bits = |a: &SymBand| a.as_slice().iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tile), bits(&reference), "band, n={n} b={b}");
        }
    }

    /// A sweep's first task against the dense two-sided update: column
    /// `s`'s reflector `H`, then `H A H` on the diagonal block it spans.
    #[test]
    fn first_task_matches_dense_two_sided_update() {
        let (n, b) = (9usize, 4usize);
        let a0 = gen::random_symmetric(n, 5);
        let mut band = SymBand::with_storage(n, n - 1, n);
        for j in 0..n {
            for i in j..n {
                *band.at_mut(i, j) = a0[(i, j)];
            }
        }
        let shared = SharedBand::new(&mut band);
        let mut scratch = LaneScratch::new(b);
        let (refl, _) = unsafe { chase_task(&shared, &mut scratch, None, (0, 0), (1, b)) };
        let mut dense = a0.clone();
        {
            let mut block = dense.view_mut(1, 1, b, b);
            tg_householder::apply_two_sided_lower(refl.tau, &refl.v[1..], &mut block);
        }
        for j in 1..=b {
            for i in j..=b {
                let (got, expect) = (band.at(i, j), dense[(i, j)]);
                assert!((got - expect).abs() < 1e-12, "({i},{j}): {got} vs {expect}");
            }
        }
        // Column 0 below the diagonal is now β e₁.
        assert!(band.at(2, 0) == 0.0 && band.at(b, 0) == 0.0);
        assert!(
            (band.at(1, 0).abs() - (1..=b).map(|i| a0[(i, 0)].powi(2)).sum::<f64>().sqrt()).abs()
                < 1e-12
        );
    }

    #[test]
    fn sweep_counts_its_flops_per_task() {
        let (n, b) = (23usize, 4usize);
        let band = SymBand::from_dense_lower(&gen::random_symmetric_band(n, b, 3), b);
        let mut work = super::super::seq::widen_storage(&band, b);
        let shared = SharedBand::new(&mut work);
        let mut scratch = LaneScratch::new(b);
        let session = tg_trace::TraceSession::begin();
        let swept = {
            let _one = tg_trace::span("kernels_test.sweep");
            unsafe { run_sweep(&shared, b, 0, &mut scratch, |_| {}) }
        };
        let trace = session.finish();
        let counted: u64 = trace
            .events
            .iter()
            .filter(|e| e.name == "kernels_test.sweep")
            .map(|e| e.counter(tg_trace::Counter::Flops))
            .sum();
        // Sweep 0: task 0 on rows 1..=4 (two-sided only), then full tasks
        // of 4 rows × 4 columns, and a last one of 2 rows.
        let lens: Vec<usize> = swept.iter().map(|r| r.v.len()).collect();
        assert_eq!(lens, [4, 4, 4, 4, 4, 2]);
        let mut expected = 4 * 4 * 4;
        for w in lens.windows(2) {
            let (k, m) = (w[0], w[1]);
            expected += 4 * m * k + 4 * m * (k - 1) + 4 * m * m;
        }
        assert_eq!(counted, expected as u64);
    }
}
