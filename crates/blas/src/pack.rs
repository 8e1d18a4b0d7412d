//! Packed, register-blocked GEMM — serial and multithreaded — the one
//! kernel behind every [`crate::gemm`].
//!
//! The classic three-loop blocked GEMM with operand packing (Goto-style):
//! `A` panels are packed into row-major micro-panels of height `MR`, `B`
//! panels into column-major micro-panels of width `NR`, and an `MR × NR`
//! micro-kernel accumulates into registers. Every shape runs here: an
//! output shorter than `MR` or narrower than `NR` is one zero-padded
//! micro-panel whose tile writes back only its `h × w` corner.
//!
//! Three micro-kernels share the packing and blocking (see
//! `docs/PERFORMANCE.md` for the table and measurements):
//!
//! | kernel     | `MR × NR` | inner update                           |
//! |------------|-----------|----------------------------------------|
//! | `avx512f`  | 16 × 12   | `_mm512_fmadd_pd`, 24 zmm accumulators |
//! | `avx2+fma` | 8 × 6     | `_mm256_fmadd_pd`, 12 ymm accumulators |
//! | `scalar`   | 8 × 4     | `acc += a * b`, rounded twice          |
//!
//! [`crate::kernel::kernel`] picks one per process and every call
//! dispatches on it once, before the blocking loops. Every kernel computes
//! each `C` element of a tile as one accumulator chain over `l = 0..kc`,
//! starting from zero, and adds the chain into `C` once per `KC` block.
//! Tile shape and vector width only decide *which* elements share
//! registers, never an element's order of operations, so the two SIMD
//! kernels agree bitwise; the scalar kernel differs from them only because
//! its multiply and add are rounded separately (Rust never contracts
//! `acc += a * b` into an FMA).
//!
//! Multithreading follows the BLIS decomposition (see
//! `docs/PERFORMANCE.md`): for each `(jc, pc)` macro-block the `B` panel is
//! packed **once** and shared read-only across workers; each worker packs
//! its own `A` micro-panels into a thread-local scratch buffer (reused
//! across blocks, never reallocated per block) and owns a disjoint `MC`-row
//! strip of `C` obtained with [`MatMut::split_at_row`]. Work is partitioned
//! over the `ic` loop only — never over `pc` — so every `C` element
//! accumulates its k-blocks in the same fixed order as the serial kernel
//! and the parallel result is **bitwise-identical** to the serial one.
//!
//! All four transpose combinations are supported with the same inner
//! kernel: packing transposes during the copy.

#![allow(clippy::too_many_arguments)] // kernel plumbing mirrors the BLIS decomposition

use crate::kernel::Kernel;
use crate::level3::Op;
use crate::threads::{run_tasks, Spans};
use std::cell::RefCell;
use tg_matrix::{MatMut, MatRef};

/// k-block size. **Fixed by the determinism contract**: `KC` decides how a
/// dot product over `k` splits into partial sums, so changing it changes
/// the bits of every result (and would invalidate the golden corpus).
const KC: usize = 256;
/// Row block: one parallel work unit (a multiple of every kernel's `MR`;
/// small enough that an `m = 1024` update yields 8 strips of parallel
/// slack, large enough that a strip's A-panel fills the L2).
const MC: usize = 128;
/// Column block sized for the shared packed-B panel (`NC·KC` doubles ≈ 1 MiB).
const NC: usize = 512;

const GEMM_SPANS: Spans = Spans {
    region: "parallel.gemm_packed",
    worker: "gemm.worker",
    task: "task.gemm_strip",
};

thread_local! {
    /// Per-worker scratch for packed `A` micro-panels. Lives as long as the
    /// worker thread, so repeated GEMMs (and every `(jc, pc)` block within
    /// one GEMM) reuse the same allocation.
    static APACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's packed `B` panel, shared read-only with the
    /// workers of one `(jc, pc)` block. Grows to the largest call seen.
    static BPACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `C ← α·op(A)·op(B) + β·C` with operand packing and a register-blocked
/// micro-kernel. Semantics identical to [`crate::gemm`].
///
/// Fans out to [`crate::threads::gemm_threads`] workers; inside a parallel
/// region (a `syr2k` super-block task, a batch worker) it runs serially.
/// Either way the result is bitwise-identical.
pub fn gemm_packed(
    alpha: f64,
    a: &MatRef<'_>,
    op_a: Op,
    b: &MatRef<'_>,
    op_b: Op,
    beta: f64,
    c: &mut MatMut<'_>,
) {
    gemm_packed_with_threads(
        alpha,
        a,
        op_a,
        b,
        op_b,
        beta,
        c,
        crate::threads::gemm_threads(),
    );
}

/// [`gemm_packed`] with an explicit worker-thread count (`threads <= 1`
/// runs every strip inline on the calling thread). The thread count never changes the result —
/// this entry point exists so benches and determinism tests can pin it.
pub fn gemm_packed_with_threads(
    alpha: f64,
    a: &MatRef<'_>,
    op_a: Op,
    b: &MatRef<'_>,
    op_b: Op,
    beta: f64,
    c: &mut MatMut<'_>,
    threads: usize,
) {
    gemm_packed_with_kernel(
        crate::kernel::kernel(),
        alpha,
        a,
        op_a,
        b,
        op_b,
        beta,
        c,
        threads,
    );
}

/// [`gemm_packed_with_threads`] on an explicit micro-kernel instead of the
/// process's [`crate::kernel::kernel`], so the cross-kernel tests can
/// compare kernels in one process.
///
/// # Panics
/// If this CPU cannot run `kernel` ([`Kernel::is_available`]).
pub(crate) fn gemm_packed_with_kernel(
    kernel: Kernel,
    alpha: f64,
    a: &MatRef<'_>,
    op_a: Op,
    b: &MatRef<'_>,
    op_b: Op,
    beta: f64,
    c: &mut MatMut<'_>,
    threads: usize,
) {
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    let n = op_b.cols(b);
    assert_eq!(op_b.rows(b), k, "inner dimensions disagree");
    assert_eq!(c.nrows(), m);
    assert_eq!(c.ncols(), n);

    crate::level3::scale_by_beta(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    let missing = "gemm_packed_with_kernel: kernel not supported by this CPU";
    let g = Gemm {
        alpha,
        a,
        op_a,
        b,
        op_b,
        threads,
    };
    match kernel {
        Kernel::Scalar => g.run(ScalarKernel, c),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma => g.run(Avx2Kernel::new().expect(missing), c),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512F => g.run(Avx512Kernel::new().expect(missing), c),
        #[cfg(not(target_arch = "x86_64"))]
        _ => panic!("{missing}"),
    }
}

/// One register-blocked micro-kernel: its tile shape and its tile update.
trait MicroKernel: Copy + Sync {
    /// Tile rows (a multiple of the vector width; divides `MC`).
    const MR: usize;
    /// Tile columns.
    const NR: usize;

    /// `C[ci.., cj..] += Σ_l apanel[l] ⊗ bpanel[l]` on the `h × w` corner
    /// of one `MR × NR` tile (`h ≤ MR`, `w ≤ NR`). `apanel` holds `kc`
    /// packed columns of `MR` elements, `bpanel` `kc` packed rows of `NR`.
    fn tile(
        self,
        apanel: &[f64],
        bpanel: &[f64],
        kc: usize,
        h: usize,
        w: usize,
        ci: usize,
        cj: usize,
        c: &mut MatMut<'_>,
    );
}

/// The portable reference kernel.
#[derive(Clone, Copy)]
struct ScalarKernel;

impl MicroKernel for ScalarKernel {
    const MR: usize = 8;
    const NR: usize = 4;

    /// Fully unrolled: `acc[j][i]` accumulates `C[ci+i, cj+j]` with a
    /// rounded multiply then a rounded add.
    #[inline]
    fn tile(
        self,
        apanel: &[f64],
        bpanel: &[f64],
        kc: usize,
        h: usize,
        w: usize,
        ci: usize,
        cj: usize,
        c: &mut MatMut<'_>,
    ) {
        const MR: usize = ScalarKernel::MR;
        const NR: usize = ScalarKernel::NR;
        let mut acc = [[0.0f64; MR]; NR];
        let a = &apanel[..kc * MR];
        let b = &bpanel[..kc * NR];
        for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
            for (accj, &bj) in acc.iter_mut().zip(bp) {
                for (accij, &ai) in accj.iter_mut().zip(ap) {
                    *accij += ai * bj;
                }
            }
        }
        for (jj, accj) in acc.iter().enumerate().take(w) {
            let col = &mut c.col_mut(cj + jj)[ci..ci + h];
            for (cij, &accij) in col.iter_mut().zip(accj) {
                *cij += accij;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{Avx2Kernel, Avx512Kernel};

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernels. Both come from one template, so they share
    //! the accumulation order and the ragged write-back the bit contract
    //! rests on; they differ only in vector width and tile shape.

    use super::{Kernel, MicroKernel};
    use tg_matrix::MatMut;

    /// Defines a kernel token type (a value exists only on CPUs with
    /// `$feature`), its `MicroKernel` impl and its `#[target_feature]` tile
    /// update: `$mr × $nr` doubles in vectors of `$lanes`, one `$fmadd`
    /// chain per accumulator vector.
    macro_rules! simd_kernel {
        (
            $(#[$doc:meta])*
            $name:ident = $kernel:expr, feature $feature:literal,
            tile $mr:literal x $nr:literal, lanes $lanes:literal,
            [$setzero:ident, $set1:ident, $loadu:ident, $storeu:ident, $add:ident, $fmadd:ident]
        ) => {
            $(#[$doc])*
            #[derive(Clone, Copy)]
            pub(super) struct $name {
                _detected: (),
            }

            impl $name {
                pub(super) fn new() -> Option<Self> {
                    $kernel.is_available().then_some($name { _detected: () })
                }

                /// # Safety
                #[doc = concat!("The CPU must support `", $feature, "`.")]
                #[target_feature(enable = $feature)]
                unsafe fn tile_simd(
                    apanel: &[f64],
                    bpanel: &[f64],
                    kc: usize,
                    h: usize,
                    w: usize,
                    ci: usize,
                    cj: usize,
                    c: &mut MatMut<'_>,
                ) {
                    use std::arch::x86_64::*;
                    const L: usize = $lanes;
                    const MR: usize = $mr;
                    const NR: usize = $nr;
                    const MV: usize = MR / L;
                    let a = &apanel[..kc * MR];
                    let b = &bpanel[..kc * NR];
                    let mut acc = [[$setzero(); MV]; NR];
                    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
                        let mut av = [$setzero(); MV];
                        for (v, x) in av.iter_mut().enumerate() {
                            // SAFETY: `ap` has `MR = MV·L` elements, so
                            // `v·L + L ≤ MR`.
                            *x = unsafe { $loadu(ap.as_ptr().add(v * L)) };
                        }
                        for (accj, &bj) in acc.iter_mut().zip(bp) {
                            let bv = $set1(bj);
                            for (accv, &x) in accj.iter_mut().zip(&av) {
                                *accv = $fmadd(x, bv, *accv);
                            }
                        }
                    }
                    for (jj, accj) in acc.iter().enumerate().take(w) {
                        let col = &mut c.col_mut(cj + jj)[ci..ci + h];
                        if h == MR {
                            for (v, &x) in accj.iter().enumerate() {
                                // SAFETY: `col` has `h = MR = MV·L`
                                // elements, so the `L` lanes at `v·L` are
                                // in bounds.
                                unsafe {
                                    let p = col.as_mut_ptr().add(v * L);
                                    $storeu(p, $add($loadu(p), x));
                                }
                            }
                        } else {
                            let mut lanes = [0.0f64; L];
                            for (v, &x) in accj.iter().enumerate() {
                                // SAFETY: `lanes` holds exactly `L` doubles.
                                unsafe { $storeu(lanes.as_mut_ptr(), x) };
                                for (cij, &s) in col.iter_mut().skip(v * L).zip(&lanes) {
                                    *cij += s;
                                }
                            }
                        }
                    }
                }
            }

            impl MicroKernel for $name {
                const MR: usize = $mr;
                const NR: usize = $nr;

                fn tile(
                    self,
                    apanel: &[f64],
                    bpanel: &[f64],
                    kc: usize,
                    h: usize,
                    w: usize,
                    ci: usize,
                    cj: usize,
                    c: &mut MatMut<'_>,
                ) {
                    // SAFETY: `self` exists only if `new` detected the
                    // kernel's features on this CPU.
                    unsafe { Self::tile_simd(apanel, bpanel, kc, h, w, ci, cj, c) }
                }
            }
        };
    }

    simd_kernel! {
        /// The AVX2+FMA kernel: 12 ymm accumulators.
        Avx2Kernel = Kernel::Avx2Fma, feature "avx2,fma", tile 8 x 6, lanes 4,
        [_mm256_setzero_pd, _mm256_set1_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_add_pd, _mm256_fmadd_pd]
    }

    simd_kernel! {
        /// The AVX-512F kernel: 24 zmm accumulators.
        Avx512Kernel = Kernel::Avx512F, feature "avx512f", tile 16 x 12, lanes 8,
        [_mm512_setzero_pd, _mm512_set1_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_add_pd, _mm512_fmadd_pd]
    }
}

/// The operands of one `gemm_packed` call, after `β` has been applied.
struct Gemm<'x, 'a, 'b> {
    alpha: f64,
    a: &'x MatRef<'a>,
    op_a: Op,
    b: &'x MatRef<'b>,
    op_b: Op,
    threads: usize,
}

impl Gemm<'_, '_, '_> {
    /// `C += α·op(A)·op(B)` through the blocking loops on kernel `K`.
    fn run<K: MicroKernel>(&self, ukr: K, c: &mut MatMut<'_>) {
        let (m, n) = (c.nrows(), c.ncols());
        let k = self.op_a.cols(self.a);
        let (mr, nr) = (K::MR, K::NR);
        // Pack buffers sized to this call, not to the largest block.
        let kc_max = KC.min(k);
        let a_len = MC.min(m).div_ceil(mr) * mr * kc_max;
        let b_len = NC.min(n).div_ceil(nr) * nr * kc_max;
        // The pc loop stays serial with a barrier after every k-block (the
        // fan-out joins before the next pc overwrites bpack), so
        // per-element accumulation order is exactly the serial order; one
        // worker runs the strips inline.
        BPACK.with(|bbuf| {
            let mut bbuf = bbuf.borrow_mut();
            let bpack = aligned(&mut bbuf, b_len);
            let mut lanes = vec![(); self.threads.max(1)];
            let mut jc = 0;
            while jc < n {
                let nc = NC.min(n - jc);
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    pack_b(self.b, self.op_b, pc, jc, kc, nc, nr, bpack);
                    let bshared: &[f64] = bpack;
                    // Disjoint MC-row strips of C[:, jc..jc+nc] — the ic partition.
                    let mut strips: Vec<(usize, MatMut<'_>)> = Vec::with_capacity(m.div_ceil(MC));
                    let mut rest = c.rb_mut().submatrix_mut(0, jc, m, nc);
                    let mut ic = 0;
                    while ic < m {
                        let mc = MC.min(m - ic);
                        let (head, tail) = rest.split_at_row(mc);
                        strips.push((ic, head));
                        rest = tail;
                        ic += mc;
                    }
                    run_tasks(GEMM_SPANS, strips, &mut lanes, |_, (ic, mut strip)| {
                        APACK.with(|abuf| {
                            let mut abuf = abuf.borrow_mut();
                            let apack = aligned(&mut abuf, a_len);
                            let mc = strip.nrows();
                            pack_a(self.a, self.op_a, ic, pc, mc, kc, self.alpha, mr, apack);
                            macro_kernel(ukr, apack, bshared, mc, nc, kc, &mut strip);
                        });
                    });
                    pc += kc;
                }
                jc += nc;
            }
        });
    }
}

/// Capacity every pack buffer reserves on first use: the largest packed-B
/// block of any kernel (`NC` rounded up to a multiple of `NR ≤ 16`, times
/// `KC`), which also covers the `MC·KC` packed-A block. One size for both
/// buffers keeps them out of the allocator's small-block heap: with glibc,
/// freeing a large block raises the size above which blocks are mapped
/// on their own, and a smaller packed-A reservation then landed in the
/// heap and left ~1 MB more resident (perfbench `peak_rss_mb`).
const PACK_RESERVE: usize = (NC + 16) * KC;

/// The first `len` elements of `buf` from a 64-byte boundary (one cache
/// line, one AVX-512 vector), growing `buf` if it is too short.
///
/// The first use reserves [`PACK_RESERVE`], so the buffer never moves or
/// leaves freed copies behind as it grows; only the prefix the calls so
/// far have needed is ever written, so pages past it never become
/// resident.
fn aligned(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    const LINE: usize = 64 / std::mem::size_of::<f64>();
    if buf.len() < len + LINE {
        if buf.capacity() == 0 {
            buf.reserve_exact(PACK_RESERVE.max(len) + LINE);
        }
        buf.resize(len + LINE, 0.0);
    }
    let off = buf.as_ptr().align_offset(64).min(LINE);
    &mut buf[off..off + len]
}

/// Packs `α·op(A)[ic..ic+mc, pc..pc+kc]` into micro-panels of `mr` rows:
/// panel `p` holds rows `p·mr..` in k-major order (`mr` consecutive
/// elements per k), zero-padded below the last row.
fn pack_a(
    a: &MatRef<'_>,
    op_a: Op,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    alpha: f64,
    mr: usize,
    out: &mut [f64],
) {
    let panels = mc.div_ceil(mr);
    for (p, panel) in out[..panels * mr * kc]
        .chunks_exact_mut(mr * kc)
        .enumerate()
    {
        let r0 = ic + p * mr;
        let h = mr.min(mc - p * mr);
        match op_a {
            Op::NoTrans => {
                for (l, dst) in panel.chunks_exact_mut(mr).enumerate() {
                    let src = &a.col(pc + l)[r0..r0 + h];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = alpha * s;
                    }
                    dst[h..].fill(0.0);
                }
            }
            Op::Trans => {
                for r in 0..h {
                    let src = &a.col(r0 + r)[pc..pc + kc];
                    for (dst, &s) in panel.chunks_exact_mut(mr).zip(src) {
                        dst[r] = alpha * s;
                    }
                }
                if h < mr {
                    for dst in panel.chunks_exact_mut(mr) {
                        dst[h..].fill(0.0);
                    }
                }
            }
        }
    }
    if tg_trace::enabled() {
        tg_trace::add(tg_trace::Counter::PackBytes, 8 * (panels * mr * kc) as u64);
    }
}

/// Packs `op(B)[pc..pc+kc, jc..jc+nc]` into micro-panels of `nr` columns
/// (`nr` consecutive elements per k), zero-padded right of the last column.
fn pack_b(
    b: &MatRef<'_>,
    op_b: Op,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    out: &mut [f64],
) {
    let panels = nc.div_ceil(nr);
    for (p, panel) in out[..panels * nr * kc]
        .chunks_exact_mut(nr * kc)
        .enumerate()
    {
        let c0 = jc + p * nr;
        let w = nr.min(nc - p * nr);
        match op_b {
            Op::NoTrans => {
                for cidx in 0..w {
                    let src = &b.col(c0 + cidx)[pc..pc + kc];
                    for (dst, &s) in panel.chunks_exact_mut(nr).zip(src) {
                        dst[cidx] = s;
                    }
                }
                if w < nr {
                    for dst in panel.chunks_exact_mut(nr) {
                        dst[w..].fill(0.0);
                    }
                }
            }
            Op::Trans => {
                for (l, dst) in panel.chunks_exact_mut(nr).enumerate() {
                    dst[..w].copy_from_slice(&b.col(pc + l)[c0..c0 + w]);
                    dst[w..].fill(0.0);
                }
            }
        }
    }
    if tg_trace::enabled() {
        tg_trace::add(tg_trace::Counter::PackBytes, 8 * (panels * nr * kc) as u64);
    }
}

/// Runs the micro-kernel over all `(MR, NR)` tiles of one macro block.
/// `cblk` is the `mc × nc` block of `C` the packed panels cover.
fn macro_kernel<K: MicroKernel>(
    ukr: K,
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    cblk: &mut MatMut<'_>,
) {
    let (mr, nr) = (K::MR, K::NR);
    for jr in (0..nc).step_by(nr) {
        let w = nr.min(nc - jr);
        let bpanel = &bpack[(jr / nr) * nr * kc..][..nr * kc];
        for ir in (0..mc).step_by(mr) {
            let h = mr.min(mc - ir);
            let apanel = &apack[(ir / mr) * mr * kc..][..mr * kc];
            ukr.tile(apanel, bpanel, kc, h, w, ir, jr, cblk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::{gemm, tests::naive_gemm};
    use tg_matrix::{gen, Mat};

    /// `(MR, NR)` of a kernel.
    fn tile_shape(kernel: Kernel) -> (usize, usize) {
        match kernel {
            Kernel::Scalar => (ScalarKernel::MR, ScalarKernel::NR),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Fma => (Avx2Kernel::MR, Avx2Kernel::NR),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512F => (Avx512Kernel::MR, Avx512Kernel::NR),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
    }

    /// Ragged `(m, n, k)` shapes around `kernel`'s tile: `MR ± 1`,
    /// `NR ± 1`, `KC + 7`, `MC + 5`, and each dimension at 1.
    fn ragged_shapes(kernel: Kernel) -> Vec<(usize, usize, usize)> {
        let (mr, nr) = tile_shape(kernel);
        vec![
            (mr - 1, nr + 1, KC + 7),
            (mr + 1, nr - 1, 33),
            (mr, nr, KC),
            (MC + 5, nr + 1, 9),
            (2 * mr + 3, 3 * nr - 1, 2 * KC + 7),
            (1, nr + 1, KC + 7),
            (mr + 1, 1, 17),
            (mr + 1, nr + 1, 1),
        ]
    }

    const ALL_OPS: [(Op, Op); 4] = [
        (Op::NoTrans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::NoTrans),
        (Op::Trans, Op::Trans),
    ];

    /// Operands of one test product: `op(A)` is `m × k`, `op(B)` `k × n`.
    fn operands(m: usize, n: usize, k: usize, op_a: Op, op_b: Op, seed: u64) -> [Mat; 3] {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        [
            gen::random(ar, ac, seed),
            gen::random(br, bc, seed + 1),
            gen::random(m, n, seed + 2),
        ]
    }

    /// `C0` updated by `kernel` with `α = 1.3`, `β = −0.5`.
    fn run_kernel(kernel: Kernel, [a, b, c0]: &[Mat; 3], op_a: Op, op_b: Op) -> Mat {
        let mut c = c0.clone();
        gemm_packed_with_kernel(
            kernel,
            1.3,
            &a.as_ref(),
            op_a,
            &b.as_ref(),
            op_b,
            -0.5,
            &mut c.as_mut(),
            1,
        );
        c
    }

    /// `α·op(A)·op(B) + β·C₀` by the textbook triple loop.
    fn naive(alpha: f64, [a, b, c0]: &[Mat; 3], op_a: Op, op_b: Op, beta: f64) -> Mat {
        let p = naive_gemm(a, op_a, b, op_b);
        Mat::from_fn(c0.nrows(), c0.ncols(), |i, j| {
            alpha * p[(i, j)] + beta * c0[(i, j)]
        })
    }

    fn check(m: usize, n: usize, k: usize, op_a: Op, op_b: Op, seed: u64) {
        let ops = operands(m, n, k, op_a, op_b, seed);
        let c_ref = naive(1.3, &ops, op_a, op_b, -0.5);
        let [a, b, c0] = &ops;
        let mut c_pk = c0.clone();
        gemm_packed(
            1.3,
            &a.as_ref(),
            op_a,
            &b.as_ref(),
            op_b,
            -0.5,
            &mut c_pk.as_mut(),
        );
        assert!(
            tg_matrix::max_abs_diff(&c_ref, &c_pk) < 1e-10,
            "mismatch {m}x{n}x{k} {op_a:?}{op_b:?}: {}",
            tg_matrix::max_abs_diff(&c_ref, &c_pk)
        );
    }

    #[test]
    fn matches_reference_all_ops() {
        for (op_a, op_b) in ALL_OPS {
            check(7, 9, 5, op_a, op_b, 1);
            check(16, 16, 16, op_a, op_b, 2);
        }
    }

    #[test]
    fn ragged_tile_edges() {
        // sizes chosen to exercise every partial-tile branch
        for (m, n, k) in ragged_shapes(crate::kernel::kernel()) {
            check(m, n, k, Op::NoTrans, Op::NoTrans, 12);
            check(m, n, k, Op::Trans, Op::Trans, 13);
        }
        check(5, 3, 2, Op::NoTrans, Op::NoTrans, 11);
    }

    #[test]
    fn crosses_cache_blocks() {
        check(MC + 17, NC / 4 + 9, KC + 31, Op::NoTrans, Op::Trans, 20);
        check(33, NC + 9, 40, Op::Trans, Op::NoTrans, 21);
    }

    #[test]
    fn views_with_offsets() {
        let big_a = gen::random(40, 40, 30);
        let big_b = gen::random(40, 40, 31);
        let a = big_a.view(3, 5, 20, 12);
        let b = big_b.view(1, 2, 12, 18);
        let ops = [a.to_mat(), b.to_mat(), Mat::zeros(20, 18)];
        let c1 = naive(1.0, &ops, Op::NoTrans, Op::NoTrans, 0.0);
        let mut c2 = Mat::zeros(20, 18);
        gemm_packed(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c2.as_mut());
        assert!(tg_matrix::max_abs_diff(&c1, &c2) < 1e-11);
    }

    #[test]
    fn alpha_beta_special_cases() {
        let a = gen::random(8, 8, 40);
        let b = gen::random(8, 8, 41);
        let c0 = gen::random(8, 8, 42);
        // alpha = 0 ⇒ C = beta·C
        let mut c = c0.clone();
        gemm_packed(
            0.0,
            &a.as_ref(),
            Op::NoTrans,
            &b.as_ref(),
            Op::NoTrans,
            2.0,
            &mut c.as_mut(),
        );
        for j in 0..8 {
            for i in 0..8 {
                assert!((c[(i, j)] - 2.0 * c0[(i, j)]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn every_available_kernel_matches_reference() {
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
            for (op_a, op_b) in ALL_OPS {
                let ops = operands(37, 29, KC + 3, op_a, op_b, 60);
                let [a, b, c0] = &ops;
                let mut c_ref = c0.clone();
                gemm(
                    1.3,
                    &a.as_ref(),
                    op_a,
                    &b.as_ref(),
                    op_b,
                    -0.5,
                    &mut c_ref.as_mut(),
                );
                let c = run_kernel(kernel, &ops, op_a, op_b);
                let diff = tg_matrix::max_abs_diff(&c_ref, &c);
                assert!(diff < 1e-10, "{kernel:?} {op_a:?}{op_b:?}: {diff}");
            }
        }
    }

    /// (a) Each SIMD kernel agrees with the scalar reference within
    /// `c·k·ε·(|α|‖A‖‖B‖ + |β|‖C₀‖)`, for all four op combinations on
    /// ragged shapes. Skipped for kernels this CPU cannot run.
    #[test]
    fn simd_kernels_agree_with_scalar_within_rounding() {
        for kernel in [Kernel::Avx2Fma, Kernel::Avx512F] {
            if !kernel.is_available() {
                continue;
            }
            for (m, n, k) in ragged_shapes(kernel) {
                for (op_a, op_b) in ALL_OPS {
                    let ops = operands(m, n, k, op_a, op_b, 70);
                    let [a, b, c0] = &ops;
                    let scale = 1.3 * tg_matrix::frob_norm(a) * tg_matrix::frob_norm(b)
                        + 0.5 * tg_matrix::frob_norm(c0);
                    let bound = 4.0 * (k + 1) as f64 * f64::EPSILON * scale;
                    let fast = run_kernel(kernel, &ops, op_a, op_b);
                    let reference = run_kernel(Kernel::Scalar, &ops, op_a, op_b);
                    let diff = tg_matrix::max_abs_diff(&fast, &reference);
                    assert!(
                        diff <= bound,
                        "{kernel:?} {m}x{n}x{k} {op_a:?}{op_b:?}: {diff:e} > {bound:e}"
                    );
                }
            }
        }
    }

    /// (b) The two fused kernels are bitwise equal: tile shape and vector
    /// width never change an element's FMA chain. Skipped unless this CPU
    /// runs both.
    #[test]
    fn fused_kernels_are_bitwise_equal() {
        if !(Kernel::Avx2Fma.is_available() && Kernel::Avx512F.is_available()) {
            return;
        }
        let mut shapes = ragged_shapes(Kernel::Avx2Fma);
        shapes.extend(ragged_shapes(Kernel::Avx512F));
        for (m, n, k) in shapes {
            for (op_a, op_b) in ALL_OPS {
                let ops = operands(m, n, k, op_a, op_b, 80);
                let x = run_kernel(Kernel::Avx2Fma, &ops, op_a, op_b);
                let y = run_kernel(Kernel::Avx512F, &ops, op_a, op_b);
                assert!(
                    x.as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .all(|(p, q)| p.to_bits() == q.to_bits()),
                    "avx2 vs avx512 bits differ at {m}x{n}x{k} {op_a:?}{op_b:?}"
                );
            }
        }
    }

    /// The bit contract spelled out: a fused kernel computes every element
    /// as `β·c + Σ_blocks (FMA chain over the block's l, from zero)`.
    #[test]
    fn fused_kernels_follow_the_fma_chain() {
        let (m, n, k) = (19, 11, 2 * KC + 7);
        let ops = operands(m, n, k, Op::NoTrans, Op::NoTrans, 90);
        let [a, b, c0] = &ops;
        let mut expect = c0.clone();
        for j in 0..n {
            for i in 0..m {
                let mut cij = -0.5 * c0[(i, j)];
                for block in (0..k).step_by(KC) {
                    let mut acc = 0.0f64;
                    for l in block..k.min(block + KC) {
                        acc = (1.3 * a[(i, l)]).mul_add(b[(l, j)], acc);
                    }
                    cij += acc;
                }
                expect[(i, j)] = cij;
            }
        }
        for kernel in [Kernel::Avx2Fma, Kernel::Avx512F] {
            if kernel.is_available() {
                let got = run_kernel(kernel, &ops, Op::NoTrans, Op::NoTrans);
                for (p, q) in got.as_slice().iter().zip(expect.as_slice()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "{kernel:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_bitwise_matches_serial() {
        // the core contract: thread count never changes a single bit
        for (m, n, k, seed) in [
            (MC * 3 + 17, 97, KC + 31, 500u64),
            (MC + 1, NC / 2 + 3, 64, 501),
            (257, 33, 2 * KC + 5, 502),
        ] {
            let a = gen::random(m, k, seed);
            let b = gen::random(k, n, seed + 1);
            let c0 = gen::random(m, n, seed + 2);
            let mut c_serial = c0.clone();
            gemm_packed_with_threads(
                1.1,
                &a.as_ref(),
                Op::NoTrans,
                &b.as_ref(),
                Op::NoTrans,
                0.3,
                &mut c_serial.as_mut(),
                1,
            );
            for t in [2, 4, 7] {
                let mut c_par = c0.clone();
                gemm_packed_with_threads(
                    1.1,
                    &a.as_ref(),
                    Op::NoTrans,
                    &b.as_ref(),
                    Op::NoTrans,
                    0.3,
                    &mut c_par.as_mut(),
                    t,
                );
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            c_serial[(i, j)].to_bits(),
                            c_par[(i, j)].to_bits(),
                            "bit mismatch at ({i},{j}) with {t} threads, {m}x{n}x{k}"
                        );
                    }
                }
            }
        }
    }
}
