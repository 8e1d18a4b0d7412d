//! Packed, register-blocked GEMM — serial and multithreaded.
//!
//! The column-oriented kernel in [`crate::level3`] is simple and correct
//! but leaves register reuse on the table. This module implements the
//! classic three-loop blocked GEMM with operand packing (Goto-style):
//! `A` panels are packed into row-major micro-panels of height `MR`, `B`
//! panels into column-major micro-panels of width `NR`, and a `MR × NR`
//! micro-kernel accumulates into registers. On typical x86-64 this runs
//! 2–4× faster than the naive kernel at large sizes (see
//! `benches/gemm.rs`).
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

use crate::level3::Op;
use crate::threads::{run_tasks, Spans};
use std::cell::RefCell;
use tg_matrix::{MatMut, MatRef};

/// Micro-kernel rows.
const MR: usize = 8;
/// Micro-kernel columns.
const NR: usize = 4;
/// k-block size. **Fixed by the determinism contract**: `KC` decides how a
/// dot product over `k` splits into partial sums, so changing it changes
/// the bits of every result (and would invalidate the golden corpus).
const KC: usize = 256;
/// Row block: one parallel work unit (a multiple of `MR`; small enough
/// that an `m = 1024` update yields 8 strips of parallel slack, large
/// enough that a strip's A-panel fills the L2).
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
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    let n = op_b.cols(b);
    assert_eq!(op_b.rows(b), k, "inner dimensions disagree");
    assert_eq!(c.nrows(), m);
    assert_eq!(c.ncols(), n);

    if beta != 1.0 {
        for j in 0..n {
            for x in c.col_mut(j) {
                *x *= beta;
            }
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Shared packed-B panel, reused across (jc, pc) blocks. The pc loop
    // stays serial with a barrier after every k-block (the fan-out joins
    // before the next pc overwrites bpack), so per-element accumulation
    // order is exactly the serial order; one worker runs the strips inline.
    let mut bpack = vec![0.0f64; NC.div_ceil(NR) * NR * KC];
    let mut lanes = vec![(); threads.max(1)];
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, op_b, pc, jc, kc, nc, &mut bpack);
            let bshared: &[f64] = &bpack;
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
                APACK.with(|buf| {
                    let mut apack = buf.borrow_mut();
                    ensure_len(&mut apack, MC.div_ceil(MR) * MR * KC);
                    let mc = strip.nrows();
                    pack_a(a, op_a, ic, pc, mc, kc, alpha, &mut apack);
                    macro_kernel(&apack, bshared, mc, nc, kc, &mut strip);
                });
            });
            pc += kc;
        }
        jc += nc;
    }
}

fn ensure_len(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs `α·op(A)[ic..ic+mc, pc..pc+kc]` into micro-panels of `MR` rows:
/// panel `p` holds rows `p·MR..` in k-major order (`MR` consecutive
/// elements per k).
fn pack_a(
    a: &MatRef<'_>,
    op_a: Op,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    alpha: f64,
    out: &mut [f64],
) {
    let mut idx = 0;
    let mut p = 0;
    while p < mc {
        let h = MR.min(mc - p);
        for l in 0..kc {
            for r in 0..MR {
                out[idx] = if r < h {
                    alpha
                        * match op_a {
                            Op::NoTrans => a.at(ic + p + r, pc + l),
                            Op::Trans => a.at(pc + l, ic + p + r),
                        }
                } else {
                    0.0
                };
                idx += 1;
            }
        }
        p += MR;
    }
    if tg_trace::enabled() {
        tg_trace::add(tg_trace::Counter::PackBytes, 8 * idx as u64);
    }
}

/// Packs `op(B)[pc..pc+kc, jc..jc+nc]` into micro-panels of `NR` columns.
fn pack_b(b: &MatRef<'_>, op_b: Op, pc: usize, jc: usize, kc: usize, nc: usize, out: &mut [f64]) {
    let mut idx = 0;
    let mut p = 0;
    while p < nc {
        let w = NR.min(nc - p);
        for l in 0..kc {
            for cidx in 0..NR {
                out[idx] = if cidx < w {
                    match op_b {
                        Op::NoTrans => b.at(pc + l, jc + p + cidx),
                        Op::Trans => b.at(jc + p + cidx, pc + l),
                    }
                } else {
                    0.0
                };
                idx += 1;
            }
        }
        p += NR;
    }
    if tg_trace::enabled() {
        tg_trace::add(tg_trace::Counter::PackBytes, 8 * idx as u64);
    }
}

/// Runs the micro-kernel over all `(MR, NR)` tiles of one macro block.
/// `cblk` is the `mc × nc` block of `C` the packed panels cover.
fn macro_kernel(
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    cblk: &mut MatMut<'_>,
) {
    let mut jr = 0;
    while jr < nc {
        let w = NR.min(nc - jr);
        let bpanel = &bpack[(jr / NR) * NR * kc..];
        let mut ir = 0;
        while ir < mc {
            let h = MR.min(mc - ir);
            let apanel = &apack[(ir / MR) * MR * kc..];
            micro_kernel(apanel, bpanel, kc, h, w, ir, jr, cblk);
            ir += MR;
        }
        jr += NR;
    }
}

/// `MR × NR` register-blocked inner product over `kc`, fully unrolled so
/// the 32 accumulators stay in registers and every update is an FMA
/// candidate. `acc[j][i]` accumulates `C[ci+i, cj+j]`; the per-element sum
/// order over `l` is what the determinism contract fixes (the tile shape
/// itself is bitwise-neutral — each `C` element has exactly one
/// accumulator regardless of `MR`/`NR`).
#[inline]
fn micro_kernel(
    apanel: &[f64],
    bpanel: &[f64],
    kc: usize,
    h: usize,
    w: usize,
    ci: usize,
    cj: usize,
    c: &mut MatMut<'_>,
) {
    let mut acc = [[0.0f64; MR]; NR];
    let a = &apanel[..kc * MR];
    let b = &bpanel[..kc * NR];
    for l in 0..kc {
        let ap: &[f64; MR] = a[l * MR..l * MR + MR].try_into().unwrap();
        let bp: &[f64; NR] = b[l * NR..l * NR + NR].try_into().unwrap();
        for (accj, &bj) in acc.iter_mut().zip(bp.iter()) {
            for (accij, &ai) in accj.iter_mut().zip(ap.iter()) {
                *accij += ai * bj;
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate().take(w) {
        let col = &mut c.col_mut(cj + jj)[ci..ci + h];
        for (cij, &accij) in col.iter_mut().zip(accj.iter()) {
            *cij += accij;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::gemm;
    use tg_matrix::{gen, Mat};

    fn check(m: usize, n: usize, k: usize, op_a: Op, op_b: Op, seed: u64) {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = gen::random(ar, ac, seed);
        let b = gen::random(br, bc, seed + 1);
        let c0 = gen::random(m, n, seed + 2);
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
        for (op_a, op_b) in [
            (Op::NoTrans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::NoTrans),
            (Op::Trans, Op::Trans),
        ] {
            check(7, 9, 5, op_a, op_b, 1);
            check(16, 16, 16, op_a, op_b, 2);
        }
    }

    #[test]
    fn ragged_tile_edges() {
        // sizes chosen to exercise every partial-tile branch
        check(1, 1, 1, Op::NoTrans, Op::NoTrans, 10);
        check(5, 3, 2, Op::NoTrans, Op::NoTrans, 11);
        check(MR + 1, NR + 3, KC + 7, Op::NoTrans, Op::NoTrans, 12);
        check(MC + 5, NR, 3, Op::Trans, Op::NoTrans, 13);
    }

    #[test]
    fn crosses_cache_blocks() {
        check(MC + 17, NC / 4 + 9, KC + 31, Op::NoTrans, Op::Trans, 20);
    }

    #[test]
    fn views_with_offsets() {
        let big_a = gen::random(40, 40, 30);
        let big_b = gen::random(40, 40, 31);
        let a = big_a.view(3, 5, 20, 12);
        let b = big_b.view(1, 2, 12, 18);
        let mut c1 = Mat::zeros(20, 18);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c1.as_mut());
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
