//! Blocked symmetric rank-2k updates — the kernel the paper re-engineers.
//!
//! `syr2k` computes `C ← β·C + α·(A Bᵀ + B Aᵀ)` on the lower triangle of an
//! `n × n` matrix `C`, with `A, B ∈ ℝ^{n×k}`. In SBR/DBBR this is the
//! trailing-matrix update `A₂ ← A₂ − Z Yᵀ − Y Zᵀ` (Equation 1), and its
//! throughput decides the throughput of the whole band reduction (§3.2).
//!
//! Two blockings are provided:
//!
//! * [`syr2k_blocked`] — the conventional scheme (cf. \[23\] in the paper):
//!   walk column panels of width `nb`; each panel contributes one small
//!   triangular block plus one **tall skinny** `(n−j) × nb` GEMM. Tall
//!   skinny shapes are exactly what underutilizes wide GPUs.
//! * [`syr2k_square`] — the paper's Figure-7 scheme: partition `C` into an
//!   `sb × sb` super-block grid (`sb = g·nb`); diagonal super-blocks first,
//!   then the off-diagonal super-blocks, each of which is a **square**
//!   `sb × sb` GEMM pair. All off-diagonal blocks are independent, so they
//!   run as one task list on [`crate::threads::run_tasks`].

use crate::level3::{gemm, Op};
use crate::threads::{run_tasks, Spans};
use tg_matrix::{MatMut, MatRef};

fn check_shapes(a: &MatRef<'_>, b: &MatRef<'_>, c: &MatMut<'_>) -> (usize, usize) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "C must be square");
    assert_eq!(a.nrows(), n, "A rows");
    assert_eq!(b.nrows(), n, "B rows");
    assert_eq!(a.ncols(), b.ncols(), "A/B rank");
    (n, a.ncols())
}

/// Conventional column-panel blocking (tall-skinny strips).
///
/// Only the lower triangle of `C` is referenced and updated.
pub fn syr2k_blocked(
    alpha: f64,
    a: &MatRef<'_>,
    b: &MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    nb: usize,
) {
    let (n, _k) = check_shapes(a, b, c);
    assert!(nb > 0);
    let _span = tg_trace::span_cat("blas.syr2k_blocked", "kernel", Some(("n", n as u64)));
    let mut scratch = vec![0.0; nb.min(n).pow(2)];
    let mut j = 0;
    while j < n {
        let w = nb.min(n - j);
        // diagonal block (triangular part)
        {
            let aj = a.submatrix(j, 0, w, a.ncols());
            let bj = b.submatrix(j, 0, w, b.ncols());
            let mut cd = c.rb_mut().submatrix_mut(j, j, w, w);
            syr2k_diag(alpha, &aj, &bj, beta, &mut cd, &mut scratch);
        }
        // sub-diagonal strip: C[j+w.., j..j+w] — a tall skinny GEMM pair
        if j + w < n {
            let m = n - j - w;
            let ai = a.submatrix(j + w, 0, m, a.ncols());
            let bi = b.submatrix(j + w, 0, m, b.ncols());
            let aj = a.submatrix(j, 0, w, a.ncols());
            let bj = b.submatrix(j, 0, w, b.ncols());
            let mut cs = c.rb_mut().submatrix_mut(j + w, j, m, w);
            gemm(alpha, &ai, Op::NoTrans, &bj, Op::Trans, beta, &mut cs);
            gemm(alpha, &bi, Op::NoTrans, &aj, Op::Trans, 1.0, &mut cs);
        }
        j += w;
    }
    if n > 0 {
        inject_output_fault(c);
    }
}

/// One diagonal block at GEMM speed: `C ← β·C + α·(A Bᵀ + B Aᵀ)` on the
/// lower triangle of the `n × n` block `C`, as one GEMM `T = α·A·Bᵀ` into
/// `scratch` (at least `n²` elements, dead on entry and exit) folded as
/// `C[i, j] ← β·C[i, j] + (T[i, j] + T[j, i])` for `i ≥ j`.
///
/// The upper triangle of `C` is neither read nor written, and `β = 0`
/// overwrites without reading. Counts the useful triangle, `2kn(n+1)`
/// flops like [`crate::level3::syr2k_ref`] (the test oracle), not the
/// `2n²k` the square GEMM performs. Opens no span and has no fault hook:
/// it is a leaf of [`syr2k_blocked`] and of DBBR's just-in-time panel
/// update.
pub fn syr2k_diag(
    alpha: f64,
    a: &MatRef<'_>,
    b: &MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    scratch: &mut [f64],
) {
    let (n, k) = check_shapes(a, b, c);
    if tg_trace::enabled() {
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
    let mut t = MatMut::from_parts(n, n, n, &mut scratch[..n * n]);
    // The packed kernel itself, not `gemm`: the useful triangle is counted
    // above, so the square product must not be counted again.
    crate::pack::gemm_packed(alpha, a, Op::NoTrans, b, Op::Trans, 0.0, &mut t);
    for j in 0..n {
        let cj = &mut c.col_mut(j)[j..];
        for (di, cij) in cj.iter_mut().enumerate() {
            let i = j + di;
            let s = t.at(i, j) + t.at(j, i);
            *cij = if beta == 0.0 { s } else { beta * *cij + s };
        }
    }
}

/// tg-check fault hook (site `blas.syr2k`): corrupts one lower-triangle
/// element of the freshly computed update. The planned flat index is
/// mapped into the packed lower triangle so the corruption always lands
/// on an element the update actually owns (the upper triangle is
/// untouched by contract). Inert without a live check session.
fn inject_output_fault(c: &mut MatMut<'_>) {
    let Some((index, kind)) = tg_check::fault::claim("blas.syr2k") else {
        return;
    };
    let n = c.nrows();
    if n == 0 {
        return;
    }
    let tri = n * (n + 1) / 2;
    let mut k = index % tri;
    let mut j = 0;
    while k >= n - j {
        k -= n - j;
        j += 1;
    }
    let i = j + k;
    tg_check::fault::apply(kind, &mut c.rb_mut().col_mut(j)[i]);
    tg_check::fault::record_fired("blas.syr2k", kind, j * n + i);
}

/// Figure-7 square-block scheme.
///
/// `nb` is the base block size; `g` merges `g × g` base blocks into one
/// square super-block GEMM. `g = 1` degenerates to per-block updates;
/// the paper's figure corresponds to pairing blocks (`g = 2`).
///
/// ```
/// use tg_blas::syr2k_square;
/// use tg_matrix::{gen, Mat};
///
/// let (n, k) = (12, 4);
/// let z = gen::random(n, k, 1);
/// let y = gen::random(n, k, 2);
/// let mut c = gen::random_symmetric(n, 3);
/// // the Equation-1 trailing update: C ← C − Z Yᵀ − Y Zᵀ (lower triangle)
/// syr2k_square(-1.0, &z.as_ref(), &y.as_ref(), 1.0, &mut c.as_mut(), 4, 2);
/// ```
pub fn syr2k_square(
    alpha: f64,
    a: &MatRef<'_>,
    b: &MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    nb: usize,
    g: usize,
) {
    let n = c.nrows();
    syr2k_square_head(alpha, a, b, beta, c, nb, g, n);
}

/// Head-bounded variant of [`syr2k_square`]: processes only the column
/// super-blocks anchored at `j0 < head_cols` (with their full row extent),
/// i.e. the full-height strip `C[.., ..head_cols]` below the diagonal.
///
/// `head_cols` must equal `n` or be a multiple of the super-block size
/// `sb = nb·g`. Because the Figure-7 grid is anchored at `C`'s origin, an
/// sb-aligned head keeps every super-block boundary where the unsplit call
/// would put it, and a follow-up [`syr2k_square`] on the trailing subview
/// `C[head.., head..]` (with `A`/`B` row-offset by `head`) re-creates the
/// remaining tasks of the same grid exactly. Each element is computed by
/// the same task with the same serial inner arithmetic either way, so
/// head + tail is **bitwise-identical** to one full call — the contract
/// DBBR's stage-1 look-ahead relies on.
#[allow(clippy::too_many_arguments)] // the BLAS-style signature plus the split point
pub fn syr2k_square_head(
    alpha: f64,
    a: &MatRef<'_>,
    b: &MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    nb: usize,
    g: usize,
    head_cols: usize,
) {
    let (n, _k) = check_shapes(a, b, c);
    assert!(nb > 0 && g > 0);
    let _span = tg_trace::span_cat("blas.syr2k_square", "kernel", Some(("n", n as u64)));
    let sb = nb * g;
    assert!(
        head_cols <= n && (head_cols == n || head_cols.is_multiple_of(sb)),
        "head_cols must be n or sb-aligned for the bitwise split contract"
    );

    // Carve the lower triangle into a 2D grid of element-disjoint mutable
    // super-blocks: per column super-block, split off the (untouched) rows
    // above the diagonal, then the square diagonal block, then sb-row
    // off-diagonal blocks. Every task in the grid is independent — this is
    // the full Figure-7 task set, not just its column strips.
    let mut tasks: Vec<SuperBlock<'_>> = Vec::new();
    {
        let mut rest = c.rb_mut();
        let mut j0 = 0;
        while j0 < head_cols {
            let w = sb.min(n - j0);
            let (colblk, tail) = rest.split_at_col(w);
            rest = tail;
            let (_above_diag, lower) = colblk.split_at_row(j0);
            let (diag, mut below) = lower.split_at_row(w);
            tasks.push(SuperBlock {
                i0: j0,
                j0,
                blk: diag,
            });
            let mut i0 = j0 + w;
            while i0 < n {
                let h = sb.min(n - i0);
                let (blk, rest_rows) = below.split_at_row(h);
                below = rest_rows;
                tasks.push(SuperBlock { i0, j0, blk });
                i0 += h;
            }
            j0 += w;
        }
    }

    // Tasks write disjoint blocks and each element is computed by exactly
    // one task with serial inner arithmetic, so the execution order — and
    // therefore the thread count — never changes a bit of the result.
    let spans = Spans {
        region: "parallel.syr2k",
        worker: "syr2k.worker",
        task: "task.syr2k_block",
    };
    let mut lanes = vec![(); crate::threads::gemm_threads()];
    run_tasks(spans, tasks, &mut lanes, |_, task| {
        let SuperBlock { i0, j0, mut blk } = task;
        let k = a.ncols();
        let w = blk.ncols();
        let aj = a.submatrix(j0, 0, w, k);
        let bj = b.submatrix(j0, 0, w, k);
        if i0 == j0 {
            // Diagonal super-block (left graph of Fig. 7), computed with
            // fine blocking so only the triangle is touched.
            syr2k_blocked(alpha, &aj, &bj, beta, &mut blk, nb);
        } else {
            // Square off-diagonal super-block (middle/right graphs): a
            // pair of square GEMMs.
            let h = blk.nrows();
            let ai = a.submatrix(i0, 0, h, k);
            let bi = b.submatrix(i0, 0, h, k);
            gemm(alpha, &ai, Op::NoTrans, &bj, Op::Trans, beta, &mut blk);
            gemm(alpha, &bi, Op::NoTrans, &aj, Op::Trans, 1.0, &mut blk);
        }
    });
}

/// One element-disjoint task of the Figure-7 grid: the super-block of `C`
/// anchored at `(i0, j0)` (diagonal when `i0 == j0`).
struct SuperBlock<'a> {
    i0: usize,
    j0: usize,
    blk: MatMut<'a>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::syr2k_ref;
    use tg_matrix::{gen, Mat};

    fn check_matches_ref(n: usize, k: usize, nb: usize, g: usize, seed: u64) {
        let a = gen::random(n, k, seed);
        let b = gen::random(n, k, seed + 1);
        let c0 = gen::random_symmetric(n, seed + 2);

        let mut c_ref = c0.clone();
        syr2k_ref(-1.0, &a.as_ref(), &b.as_ref(), 0.75, &mut c_ref.as_mut());

        let mut c_blk = c0.clone();
        syr2k_blocked(
            -1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.75,
            &mut c_blk.as_mut(),
            nb,
        );

        let mut c_sq = c0.clone();
        syr2k_square(
            -1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.75,
            &mut c_sq.as_mut(),
            nb,
            g,
        );

        for j in 0..n {
            for i in j..n {
                assert!(
                    (c_blk[(i, j)] - c_ref[(i, j)]).abs() < 1e-10,
                    "blocked mismatch at ({i},{j}) n={n} k={k} nb={nb}"
                );
                assert!(
                    (c_sq[(i, j)] - c_ref[(i, j)]).abs() < 1e-10,
                    "square mismatch at ({i},{j}) n={n} k={k} nb={nb} g={g}"
                );
            }
            // upper triangle untouched by all three
            for i in 0..j {
                assert_eq!(c_blk[(i, j)], c0[(i, j)]);
                assert_eq!(c_sq[(i, j)], c0[(i, j)]);
            }
        }
    }

    #[test]
    fn matches_reference_various_shapes() {
        check_matches_ref(16, 4, 4, 2, 100);
        check_matches_ref(17, 5, 4, 2, 101); // ragged edges
        check_matches_ref(31, 8, 8, 2, 102);
        check_matches_ref(12, 3, 16, 2, 103); // nb > n
        check_matches_ref(24, 6, 4, 3, 104); // g = 3
        check_matches_ref(9, 2, 3, 1, 105); // g = 1 degenerate
        check_matches_ref(1, 1, 4, 2, 106); // trivial
    }

    /// The look-ahead contract: an aligned head call plus a plain call on
    /// the square trailing subview must be bitwise-identical to one full
    /// call, across ragged shapes.
    #[test]
    fn head_plus_tail_is_bitwise_identical_to_full() {
        for &(n, k, nb, g, head, seed) in &[
            (24usize, 4usize, 4usize, 2usize, 8usize, 400u64),
            (29, 5, 4, 2, 16, 401), // ragged bottom edge
            (17, 3, 4, 1, 4, 402),
            (33, 6, 8, 2, 16, 403),
            (16, 4, 4, 2, 0, 404),  // empty head: tail call does everything
            (16, 4, 4, 2, 16, 405), // full head: tail is empty
        ] {
            let a = gen::random(n, k, seed);
            let b = gen::random(n, k, seed + 1);
            let c0 = gen::random_symmetric(n, seed + 2);

            let mut full = c0.clone();
            let mut split = c0.clone();
            let (ar, br) = (a.as_ref(), b.as_ref());
            syr2k_square(-1.0, &ar, &br, 1.0, &mut full.as_mut(), nb, g);
            syr2k_square_head(-1.0, &ar, &br, 1.0, &mut split.as_mut(), nb, g, head);
            if head < n {
                let m = n - head;
                let at = a.view(head, 0, m, k);
                let bt = b.view(head, 0, m, k);
                let mut tail = split.view_mut(head, head, m, m);
                syr2k_square(-1.0, &at, &bt, 1.0, &mut tail, nb, g);
            }
            for j in 0..n {
                for i in j..n {
                    assert_eq!(
                        split[(i, j)].to_bits(),
                        full[(i, j)].to_bits(),
                        "split differs at ({i},{j}) n={n} head={head}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_zero_update_scales_only() {
        // k = 0: C ← βC
        let n = 6;
        let c0 = gen::random_symmetric(n, 200);
        let a = Mat::zeros(n, 0);
        let b = Mat::zeros(n, 0);
        let mut c = c0.clone();
        syr2k_blocked(2.0, &a.as_ref(), &b.as_ref(), 0.5, &mut c.as_mut(), 4);
        for j in 0..n {
            for i in j..n {
                assert!((c[(i, j)] - 0.5 * c0[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn symmetric_result_when_mirrored() {
        // applying the update to the lower triangle and mirroring equals the
        // full dense A Bᵀ + B Aᵀ
        let n = 10;
        let k = 3;
        let a = gen::random(n, k, 300);
        let b = gen::random(n, k, 301);
        let mut c = Mat::zeros(n, n);
        syr2k_square(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut(), 4, 2);
        c.mirror_lower();
        for j in 0..n {
            for i in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[(i, l)] * b[(j, l)] + b[(i, l)] * a[(j, l)];
                }
                assert!((c[(i, j)] - s).abs() < 1e-12);
            }
        }
    }
}
