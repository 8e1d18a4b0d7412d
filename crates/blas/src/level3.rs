//! BLAS level-3: general and symmetric matrix-matrix multiply.
#![allow(clippy::needless_range_loop)] // index loops mirror the blocked-GEMM formulation
//!
//! [`gemm`] has one kernel path: every shape and op pair, down to `1 × 1`
//! outputs and rank-1 products, runs the packed register-blocked kernel in
//! [`crate::pack`], whose `MR × NR` tiles take the ragged edges and whose
//! `ic`-strip fan-out is the only one (see `docs/PERFORMANCE.md`). That
//! kernel is the process's SIMD micro-kernel ([`crate::kernel::kernel`]:
//! AVX-512F or AVX2+FMA where the CPU has them, scalar otherwise or under
//! `TG_KERNEL=scalar`). [`symm_lower`] is three packed GEMMs per block
//! column. Every entry point follows the BLAS convention for `β = 0`: `C`
//! is overwritten without being read, so a NaN or Inf already in the
//! output does not survive.

use crate::pack::gemm_packed;
use tg_matrix::{Mat, MatMut, MatRef};

/// Transpose selector for [`gemm`] operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl Op {
    /// Rows of `op(A)` given the stored shape.
    #[inline]
    pub fn rows(self, a: &MatRef<'_>) -> usize {
        match self {
            Op::NoTrans => a.nrows(),
            Op::Trans => a.ncols(),
        }
    }

    /// Columns of `op(A)` given the stored shape.
    #[inline]
    pub fn cols(self, a: &MatRef<'_>) -> usize {
        match self {
            Op::NoTrans => a.ncols(),
            Op::Trans => a.nrows(),
        }
    }
}

/// FLOP/byte accounting for one logical GEMM (`2mnk` flops; operands read
/// once, `C` read and written once). Counted at the leaf kernels only, so
/// blocked drivers that decompose into GEMM calls are not double-counted,
/// and the totals match the `gpu-sim` analytic formulas exactly.
#[inline]
pub(crate) fn count_gemm(m: usize, n: usize, k: usize) {
    if tg_trace::enabled() {
        tg_trace::add(tg_trace::Counter::Flops, 2 * (m * n * k) as u64);
        tg_trace::add(
            tg_trace::Counter::BytesRead,
            8 * (m * k + k * n + m * n) as u64,
        );
        tg_trace::add(tg_trace::Counter::BytesWritten, 8 * (m * n) as u64);
    }
}

/// `C ← β·C` with the BLAS convention that `β = 0` overwrites `C`
/// without reading it, so a NaN or Inf already in `C` does not survive.
pub(crate) fn scale_by_beta(beta: f64, c: &mut MatMut<'_>) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for j in 0..c.ncols() {
            for x in c.col_mut(j) {
                *x *= beta;
            }
        }
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Shapes: `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`. Every
/// shape and op pair runs [`crate::pack::gemm_packed`]; this entry point
/// adds only the `2mnk` flop/byte accounting.
pub fn gemm(
    alpha: f64,
    a: &MatRef<'_>,
    op_a: Op,
    b: &MatRef<'_>,
    op_b: Op,
    beta: f64,
    c: &mut MatMut<'_>,
) {
    let (m, n, k) = (op_a.rows(a), op_b.cols(b), op_a.cols(a));
    if alpha != 0.0 && m > 0 && n > 0 && k > 0 {
        count_gemm(m, n, k);
    }
    gemm_packed(alpha, a, op_a, b, op_b, beta, c);
}

/// Convenience: allocates and returns `α·op(A)·op(B)`.
pub fn gemm_into(alpha: f64, a: &MatRef<'_>, op_a: Op, b: &MatRef<'_>, op_b: Op) -> Mat {
    let m = op_a.rows(a);
    let n = op_b.cols(b);
    let mut c = Mat::zeros(m, n);
    gemm(alpha, a, op_a, b, op_b, 0.0, &mut c.as_mut());
    c
}

/// Reference triple-loop symmetric rank-2k update on the lower triangle:
/// `C ← β·C + α·(A Bᵀ + B Aᵀ)` where `A`, `B` are `n × k`.
///
/// Used to validate the blocked implementations in [`crate::syr2k`].
pub fn syr2k_ref(alpha: f64, a: &MatRef<'_>, b: &MatRef<'_>, beta: f64, c: &mut MatMut<'_>) {
    let n = c.nrows();
    let k = a.ncols();
    assert_eq!(c.ncols(), n);
    assert_eq!(a.nrows(), n);
    assert_eq!(b.nrows(), n);
    assert_eq!(b.ncols(), k);
    if tg_trace::enabled() {
        // 4 flops per (lower-tri element, rank index): 2kn(n+1) total —
        // the same convention as `gpu-sim`'s syr2k_flops.
        tg_trace::add(tg_trace::Counter::Flops, 2 * (k * n * (n + 1)) as u64);
        tg_trace::add(
            tg_trace::Counter::BytesRead,
            8 * (2 * k * n * (n + 1) + n * (n + 1) / 2) as u64,
        );
        tg_trace::add(
            tg_trace::Counter::BytesWritten,
            8 * (n * (n + 1) / 2) as u64,
        );
    }
    for j in 0..n {
        for i in j..n {
            let mut s = 0.0;
            for l in 0..k {
                s += a.at(i, l) * b.at(j, l) + b.at(i, l) * a.at(j, l);
            }
            let v = c.at(i, j);
            *c.at_mut(i, j) = beta * v + alpha * s;
        }
    }
}

/// Block-column width of [`symm_lower`]: the diagonal blocks it mirrors
/// are `SYMM_NB × SYMM_NB`, so a caller-provided scratch needs
/// `min(n, SYMM_NB)²` elements (see [`symm_lower_ws`]).
pub const SYMM_NB: usize = 128;

/// Symmetric-matrix × dense-matrix product using only the **lower** triangle
/// of `A`: `C ← α·A·B + β·C` with `A` symmetric `n × n`, `B`, `C` `n × k`.
///
/// Walks `A` in block columns of width [`SYMM_NB`]; each one is three
/// packed GEMMs (see [`symm_lower_ws`]). Allocates the
/// mirror scratch; [`symm_lower_ws`] takes it from the caller instead.
pub fn symm_lower(alpha: f64, a: &MatRef<'_>, b: &MatRef<'_>, beta: f64, c: &mut MatMut<'_>) {
    let w = SYMM_NB.min(a.nrows());
    symm_lower_ws(alpha, a, b, beta, c, &mut vec![0.0; w * w]);
}

/// [`symm_lower`] with the caller's scratch for the mirrored diagonal
/// block (at least `min(n, SYMM_NB)²` elements; its contents are dead on
/// entry and on exit).
///
/// For the block column `j0..j0+w`, with `L = A[j0+w.., j0..j0+w]` the
/// block below the diagonal:
/// * `C[j0..j0+w] += α·D·B[j0..j0+w]`, `D` the diagonal block mirrored
///   into `scratch`;
/// * `C[j0+w..] += α·L·B[j0..j0+w]` (`NoTrans`);
/// * `C[j0..j0+w] += α·Lᵀ·B[j0+w..]` (`Trans`, the mirror image of `L`).
///
/// The strict upper triangle of `A` is never read. Counted as `2n²k`
/// flops under a `blas.symm` span, the same total the three GEMMs per
/// block column perform.
pub fn symm_lower_ws(
    alpha: f64,
    a: &MatRef<'_>,
    b: &MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    scratch: &mut [f64],
) {
    let n = a.nrows();
    let _span = tg_trace::span_cat("blas.symm", "kernel", Some(("n", n as u64)));
    assert_eq!(a.ncols(), n);
    assert_eq!(b.nrows(), n);
    assert_eq!(c.nrows(), n);
    assert_eq!(b.ncols(), c.ncols());
    let k = c.ncols();
    if tg_trace::enabled() {
        tg_trace::add(tg_trace::Counter::Flops, 2 * (n * n * k) as u64);
        tg_trace::add(
            tg_trace::Counter::BytesRead,
            8 * (k * (n * n + 2 * n)) as u64,
        );
        tg_trace::add(tg_trace::Counter::BytesWritten, 8 * (k * n) as u64);
    }
    scale_by_beta(beta, c);
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let w = SYMM_NB.min(n - j0);
        let h = n - j0 - w;
        let mut d = MatMut::from_parts(w, w, w, &mut scratch[..w * w]);
        for j in 0..w {
            let src = &a.col(j0 + j)[j0 + j..j0 + w];
            d.col_mut(j)[j..].copy_from_slice(src);
            for (i, &x) in src.iter().enumerate().skip(1) {
                *d.at_mut(j, j + i) = x;
            }
        }
        let (d, bd) = (d.rb(), b.submatrix(j0, 0, w, k));
        let (mut c_top, mut c_below) = c.rb_mut().submatrix_mut(j0, 0, n - j0, k).split_at_row(w);
        gemm_packed(alpha, &d, Op::NoTrans, &bd, Op::NoTrans, 1.0, &mut c_top);
        if h > 0 {
            let l = a.submatrix(j0 + w, j0, h, w);
            let bl = b.submatrix(j0 + w, 0, h, k);
            gemm_packed(alpha, &l, Op::NoTrans, &bd, Op::NoTrans, 1.0, &mut c_below);
            gemm_packed(alpha, &l, Op::Trans, &bl, Op::NoTrans, 1.0, &mut c_top);
        }
        j0 += w;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tg_matrix::gen;

    /// `op(A)·op(B)` by the textbook triple loop.
    pub(crate) fn naive_gemm(a: &Mat, op_a: Op, b: &Mat, op_b: Op) -> Mat {
        let av = a.as_ref();
        let bv = b.as_ref();
        let m = op_a.rows(&av);
        let k = op_a.cols(&av);
        let n = op_b.cols(&bv);
        Mat::from_fn(m, n, |i, j| {
            (0..k)
                .map(|l| {
                    let x = match op_a {
                        Op::NoTrans => a[(i, l)],
                        Op::Trans => a[(l, i)],
                    };
                    let y = match op_b {
                        Op::NoTrans => b[(l, j)],
                        Op::Trans => b[(j, l)],
                    };
                    x * y
                })
                .sum()
        })
    }

    fn check_all_ops(m: usize, n: usize, k: usize, seed: u64) {
        for (op_a, sa) in [(Op::NoTrans, (m, k)), (Op::Trans, (k, m))] {
            for (op_b, sb) in [(Op::NoTrans, (k, n)), (Op::Trans, (n, k))] {
                let a = gen::random(sa.0, sa.1, seed);
                let b = gen::random(sb.0, sb.1, seed + 1);
                let c0 = gen::random(m, n, seed + 2);
                let mut c = c0.clone();
                gemm(
                    1.5,
                    &a.as_ref(),
                    op_a,
                    &b.as_ref(),
                    op_b,
                    0.5,
                    &mut c.as_mut(),
                );
                let p = naive_gemm(&a, op_a, &b, op_b);
                for j in 0..n {
                    for i in 0..m {
                        let expect = 1.5 * p[(i, j)] + 0.5 * c0[(i, j)];
                        assert!(
                            (c[(i, j)] - expect).abs() < 1e-11,
                            "op=({op_a:?},{op_b:?}) at ({i},{j}): {} vs {expect}",
                            c[(i, j)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_all_transpose_combos_small() {
        check_all_ops(5, 7, 4, 10);
        check_all_ops(1, 1, 1, 11);
        check_all_ops(8, 3, 9, 12);
        // Outputs shorter or narrower than one MR × NR tile, which write
        // back only a tile's corner, and small squares of long rank.
        for (i, (m, n, k)) in [
            (25, 1, 160),
            (1, 1, 48),
            (3, 1, 224),
            (1, 7, 33),
            (16, 16, 112),
            (12, 12, 84),
            (16, 32, 16),
        ]
        .into_iter()
        .enumerate()
        {
            check_all_ops(m, n, k, 100 + 3 * i as u64);
        }
    }

    #[test]
    fn gemm_rectangular_medium() {
        check_all_ops(33, 17, 21, 20);
        // several MC-row strips, so the ic fan-out partitions
        check_all_ops(150, 150, 40, 30);
    }

    #[test]
    fn gemm_on_views() {
        // multiply sub-blocks of larger matrices
        let big_a = gen::random(10, 10, 40);
        let big_b = gen::random(10, 10, 41);
        let a = big_a.view(2, 3, 4, 5);
        let b = big_b.view(1, 2, 5, 3);
        let c = gemm_into(1.0, &a, Op::NoTrans, &b, Op::NoTrans);
        for i in 0..4 {
            for j in 0..3 {
                let mut s = 0.0;
                for l in 0..5 {
                    s += big_a[(2 + i, 3 + l)] * big_b[(1 + l, 2 + j)];
                }
                assert!((c[(i, j)] - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // BLAS contract: beta == 0 ⇒ C is overwritten, never read, so a NaN
        // or Inf already in the output buffer must not survive. Checked on
        // both entry points, on a product inside one micro-tile and on one
        // that spans several tiles in each direction.
        type Gemm = fn(f64, &MatRef<'_>, Op, &MatRef<'_>, Op, f64, &mut MatMut<'_>);
        let entries: [(&str, Gemm); 2] =
            [("gemm", gemm), ("gemm_packed", crate::pack::gemm_packed)];
        for (m, n, k) in [(3, 3, 3), (40, 36, 33)] {
            let a = gen::random(m, k, 50);
            let b = gen::random(k, n, 51);
            let p = naive_gemm(&a, Op::NoTrans, &b, Op::NoTrans);
            for (name, f) in entries {
                let mut c = Mat::from_fn(m, n, |i, j| match (i + j) % 3 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::NEG_INFINITY,
                });
                f(
                    2.0,
                    &a.as_ref(),
                    Op::NoTrans,
                    &b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    &mut c.as_mut(),
                );
                for j in 0..n {
                    for i in 0..m {
                        assert!(
                            (c[(i, j)] - 2.0 * p[(i, j)]).abs() < 1e-12,
                            "{name} {m}x{n}x{k} at ({i},{j}): {}",
                            c[(i, j)]
                        );
                    }
                }
                // alpha = 0 too: C becomes exactly +0.0
                f(
                    0.0,
                    &a.as_ref(),
                    Op::NoTrans,
                    &b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    &mut c.as_mut(),
                );
                assert!(c.as_slice().iter().all(|x| x.to_bits() == 0), "{name}");
            }
        }
    }

    #[test]
    fn symm_lower_matches_dense() {
        let n = 8;
        let k = 3;
        let full = gen::random_symmetric(n, 70);
        let b = gen::random(n, k, 71);
        // blank upper triangle to prove it is never read
        let mut low = full.clone();
        for j in 0..n {
            for i in 0..j {
                low[(i, j)] = f64::NAN;
            }
        }
        let mut c = Mat::zeros(n, k);
        symm_lower(1.0, &low.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut());
        let expect = naive_gemm(&full, Op::NoTrans, &b, Op::NoTrans);
        for j in 0..k {
            for i in 0..n {
                assert!((c[(i, j)] - expect[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn syr2k_ref_rank2_identity() {
        // with k=1, syr2k is a rank-2 update: C = α(a bᵀ + b aᵀ)
        let n = 5;
        let a = gen::random(n, 1, 60);
        let b = gen::random(n, 1, 61);
        let mut c = Mat::zeros(n, n);
        syr2k_ref(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut());
        for j in 0..n {
            for i in j..n {
                let expect = a[(i, 0)] * b[(j, 0)] + b[(i, 0)] * a[(j, 0)];
                assert!((c[(i, j)] - expect).abs() < 1e-14);
            }
        }
    }
}
