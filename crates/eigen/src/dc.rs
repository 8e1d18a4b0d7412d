//! Cuppen's divide & conquer for the symmetric tridiagonal eigenproblem
//! (`dstedc` analogue) — the iterative method the paper couples with its
//! tridiagonalization for end-to-end EVD (§6.2).
//!
//! Splitting (as LAPACK's `dlaed0`): `T = diag(T₁, T₂) + |β| v vᵀ` with
//! `v = e_m + sign(β)·e_{m+1}`, where the halves get `|β|` subtracted from
//! their boundary diagonals. After the children are solved, the merge
//! (`dlaed1`–`dlaed3`) solves `D + ρ z zᵀ` with `ρ = |β|·‖z‖² ≥ 0`:
//!
//! 1. deflation — negligible `z` components pass through unchanged, and
//!    (near-)equal `d` pairs are rotated together (Givens) so one of them
//!    deflates,
//! 2. the secular equation gives the non-deflated eigenvalues
//!    ([`crate::secular`], `dlaed4`'s middle-way iteration),
//! 3. the Gu–Eisenstat `z̃` reconstruction gives numerically orthogonal
//!    eigenvectors, and two GEMMs map them back through the children's `Q`.
//!
//! **Column classes.** A column of the children's block-diagonal `Q` is
//! nonzero only in the top `m` rows (a column of `Q₁`) or only in the
//! bottom `n − m` rows (`Q₂`), unless a deflation rotation mixed a top
//! column with a bottom one: the survivor is then nonzero in both. The
//! merge tags every non-deflated column top, bottom or mixed, packs the
//! top rows of the top and mixed columns and the bottom rows of the mixed
//! and bottom columns, and runs one GEMM per half. That is
//! `2n(m² + (n−m)²)` flops when nothing deflates, half of the dense
//! `n × n × n` product.
//!
//! **Workspace.** [`stedc`] allocates the output `Q` and one scratch of
//! `n(n + 1)` values (LAPACK's `Q2`) for the whole recursion. Each child
//! solves straight into its diagonal block of the parent's `Q` (the
//! blocks off the diagonal stay zero until the parent's merge overwrites
//! them) and gets its own slice of the parent's scratch, so the two
//! halves of the top split share no memory. Deflation and the ascending
//! sort are index permutations: the merge writes every output column
//! once, at its sorted position, so each level returns its pairs sorted.
//!
//! The two children are solved as a two-task fan-out on
//! [`tg_blas::threads::run_tasks`]; workers of a multi-lane fan-out enter
//! the nested-parallelism region, so only the top split runs in parallel
//! and the recursion below it (and its merge GEMMs) stays on its lane.

use std::ops::Range;

use crate::secular;
use crate::steqr::steqr;
use crate::EigenError;
use tg_blas::threads::{gemm_threads, run_tasks, Spans};
use tg_blas::{gemm, Op};
use tg_matrix::{Mat, MatMut, MatRef, Tridiagonal};

/// Below this size the base-case QL iteration is used (LAPACK's `SMLSIZ`).
pub const SMLSIZ: usize = 24;

/// Computes all eigenvalues (ascending) and eigenvectors of a symmetric
/// tridiagonal matrix by divide & conquer.
///
/// ```
/// use tg_eigen::stedc;
/// use tg_matrix::gen;
///
/// let t = gen::laplacian_1d(40);
/// let (eigs, v) = stedc(&t).unwrap();
/// let exact = gen::laplacian_1d_eigs(40);
/// assert!(tg_matrix::norms::spectrum_error(&exact, &eigs) < 1e-12);
/// assert!(tg_matrix::orthogonality_residual(&v) < 1e-12);
/// ```
pub fn stedc(t: &Tridiagonal) -> Result<(Vec<f64>, Mat), EigenError> {
    let n = t.n();
    let mut d = t.d.clone();
    let mut q = Mat::zeros(n, n);
    if n == 0 {
        return Ok((d, q));
    }
    let mut scratch = vec![0.0; if n > SMLSIZ { n * (n + 1) } else { 0 }];
    dc_solve(&mut d, &t.e, q.as_mut(), &mut scratch)?;
    Ok((d, q))
}

/// Solves the tridiagonal `(d, e)` in place: `d` becomes the eigenvalues,
/// ascending, and `q` (zero on entry) the eigenvectors. Above [`SMLSIZ`],
/// `scratch` holds at least `n(n + 1)` values.
fn dc_solve(
    d: &mut [f64],
    e: &[f64],
    mut q: MatMut<'_>,
    scratch: &mut [f64],
) -> Result<(), EigenError> {
    let n = d.len();
    if n <= SMLSIZ {
        let (values, vectors) = steqr(&Tridiagonal::new(d.to_vec(), e.to_vec()))?;
        d.copy_from_slice(&values);
        q.copy_from(&vectors.as_ref());
        return Ok(());
    }
    let m = n / 2;
    let beta = e[m - 1];
    d[m - 1] -= beta.abs();
    d[m] -= beta.abs();

    let spans = Spans {
        region: "parallel.dc",
        worker: "dc.worker",
        task: "task.dc_half",
    };
    // m(m + 1) + (n − m)(n − m + 1) ≤ n(n + 1): the halves' scratch fits
    let (d1, d2) = d.split_at_mut(m);
    let (s1, s2) = scratch.split_at_mut(m * (m + 1));
    let (left, right) = q.rb_mut().split_at_col(m);
    let halves = vec![
        (d1, &e[..m - 1], left.submatrix_mut(0, 0, m, m), s1),
        (d2, &e[m..], right.submatrix_mut(m, 0, n - m, n - m), s2),
    ];
    let mut lanes = vec![(); gemm_threads()];
    for solved in run_tasks(spans, halves, &mut lanes, |_, (d, e, q, s)| {
        dc_solve(d, e, q, s)
    }) {
        solved?;
    }
    merge(d, m, beta, q, scratch)
}

/// The rows of the children's `Q` a column is nonzero in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rows {
    Top,
    Bottom,
    Mixed,
}

impl Rows {
    fn union(self, other: Rows) -> Rows {
        if self == other {
            self
        } else {
            Rows::Mixed
        }
    }

    fn range(self, m: usize, n: usize) -> Range<usize> {
        match self {
            Rows::Top => 0..m,
            Rows::Bottom => m..n,
            Rows::Mixed => 0..n,
        }
    }
}

/// Merges two solved halves coupled by `β`: on entry `d[..m]`/`d[m..]`
/// hold the children's ascending eigenvalues and `q`'s diagonal blocks
/// their eigenvectors (the off-diagonal blocks zero); on exit `d` and `q`
/// hold the merged pairs, ascending. `scratch` holds `n(n + 1)` values.
fn merge(
    d: &mut [f64],
    m: usize,
    beta: f64,
    mut q: MatMut<'_>,
    scratch: &mut [f64],
) -> Result<(), EigenError> {
    let n = d.len();
    check_finite(d)?;
    // z = Qᵀv = [last row of Q₁ ; sign(β)·first row of Q₂], normalized,
    // with ‖z‖² folded into ρ for scale-free tolerances
    let sign = if beta < 0.0 { -1.0 } else { 1.0 };
    let mut z: Vec<f64> = (0..n)
        .map(|j| {
            if j < m {
                q.at(m - 1, j)
            } else {
                sign * q.at(m, j)
            }
        })
        .collect();
    let mut rho = beta.abs();
    let znorm2: f64 = z.iter().map(|x| x * x).sum();
    if znorm2 > 0.0 {
        let zn = znorm2.sqrt();
        for zi in &mut z {
            *zi /= zn;
        }
        rho *= znorm2;
    }

    // positions in ascending order of d: `col[p]` is the column of q at
    // position p
    let mut col: Vec<usize> = (0..n).collect();
    col.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("checked finite"));
    let mut ds: Vec<f64> = col.iter().map(|&i| d[i]).collect();
    let mut zs: Vec<f64> = col.iter().map(|&i| z[i]).collect();
    let mut rows: Vec<Rows> = col
        .iter()
        .map(|&i| if i < m { Rows::Top } else { Rows::Bottom })
        .collect();

    // ── deflation
    let dmax = ds.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    let tol = 8.0 * f64::EPSILON * dmax.max(rho);
    let mut active: Vec<usize> = Vec::with_capacity(n);
    let mut deflated: Vec<usize> = Vec::new();
    for p in 0..n {
        if rho * zs[p].abs() <= tol {
            // negligible coupling: (d_p, q_p) is already an eigenpair
            deflated.push(p);
            continue;
        }
        if let Some(&last) = active.last() {
            if ds[p] - ds[last] <= tol {
                // near-equal eigenvalues: rotate z_p into z_last
                let r = zs[last].hypot(zs[p]);
                let c = zs[last] / r;
                let s = zs[p] / r;
                zs[last] = r;
                zs[p] = 0.0;
                // rotate the two Q columns over the rows either is
                // nonzero in
                let mixed = rows[last].union(rows[p]);
                let (jl, jp) = (col[last], col[p]);
                for i in mixed.range(m, n) {
                    let a = q.at(i, jl);
                    let b = q.at(i, jp);
                    *q.at_mut(i, jl) = c * a + s * b;
                    *q.at_mut(i, jp) = -s * a + c * b;
                }
                rows[last] = mixed;
                // rotate the 2×2 diagonal block; the off-diagonal (≤ tol)
                // is dropped
                let (dl, dp) = (ds[last], ds[p]);
                ds[last] = c * c * dl + s * s * dp;
                ds[p] = s * s * dl + c * c * dp;
                deflated.push(p);
                continue;
            }
        }
        active.push(p);
    }

    let a = active.len();
    let d_act: Vec<f64> = active.iter().map(|&p| ds[p]).collect();
    let z_act: Vec<f64> = active.iter().map(|&p| zs[p]).collect();
    let roots = if a > 0 {
        secular::solve_all(&d_act, &z_act, rho)
    } else {
        Vec::new()
    };
    // the output order: `order[pos]` is a root (index < a) or a deflated
    // pair (a + its index in `deflated`)
    let values: Vec<f64> = roots
        .iter()
        .map(|r| r.value(&d_act))
        .chain(deflated.iter().map(|&p| ds[p]))
        .collect();
    check_finite(&values)?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| values[x].partial_cmp(&values[y]).expect("checked finite"));

    // Pack the GEMM operands: the top rows of the top and mixed columns,
    // the bottom rows of the mixed and bottom columns, each as secular
    // indices in ascending order. The deflated columns follow, whole.
    let top: Vec<usize> = (0..a)
        .filter(|&s| rows[active[s]] != Rows::Bottom)
        .collect();
    let bot: Vec<usize> = (0..a).filter(|&s| rows[active[s]] != Rows::Top).collect();
    let (n12, n23) = (top.len(), bot.len());
    // m·n12 + (n − m)·n23 ≤ n·a, so the rest holds the n − a deflated
    // columns
    let (packed, rest) = scratch.split_at_mut(m * n12 + (n - m) * n23);
    let (a_top, a_bot) = packed.split_at_mut(m * n12);
    for (dst, &s) in a_top.chunks_exact_mut(m).zip(&top) {
        dst.copy_from_slice(&q.col(col[active[s]])[..m]);
    }
    for (dst, &s) in a_bot.chunks_exact_mut(n - m).zip(&bot) {
        dst.copy_from_slice(&q.col(col[active[s]])[m..]);
    }
    for (dst, &p) in rest.chunks_exact_mut(n).zip(&deflated) {
        dst.copy_from_slice(q.col(col[p]));
    }
    // q's columns are all packed: write the deflated pairs at their sorted
    // positions
    let mut pos_of = vec![0; a];
    for (pos, &src) in order.iter().enumerate() {
        if src < a {
            pos_of[src] = pos;
        } else {
            let j = src - a;
            q.col_mut(pos).copy_from_slice(&rest[j * n..(j + 1) * n]);
        }
    }

    if a > 0 {
        let zt = secular::refine_z(&d_act, rho, &roots, &z_act);
        // The secular eigenvectors' `top` rows go into q's bottom rows
        // under each root's output column (n12 ≤ m ≤ n − m): the top GEMM
        // reads them there before the bottom GEMM overwrites them. Their
        // `bot` rows go to the scratch, over the consumed deflated copies:
        // m·n12 + (n − m)·n23 + n23·a ≤ n(n + 1).
        let v_bot = &mut rest[..n23 * a];
        let mut v = vec![0.0; a];
        for (k, root) in roots.iter().enumerate() {
            secular::eigenvector(&d_act, &zt, root, &mut v);
            let out = &mut q.col_mut(pos_of[k])[m..m + n12];
            for (o, &s) in out.iter_mut().zip(&top) {
                *o = v[s];
            }
            for (o, &s) in v_bot[k * n23..(k + 1) * n23].iter_mut().zip(&bot) {
                *o = v[s];
            }
        }
        let a_top = MatRef::from_parts(m, n12, m, a_top);
        let a_bot = MatRef::from_parts(n - m, n23, n - m, a_bot);
        let v_bot = MatRef::from_parts(n23, a, n23.max(1), v_bot);
        // one GEMM pair per run of roots whose output columns are adjacent
        let mut k0 = 0;
        while k0 < a {
            let mut len = 1;
            while k0 + len < a && pos_of[k0 + len] == pos_of[k0] + len {
                len += 1;
            }
            let run = q.rb_mut().submatrix_mut(0, pos_of[k0], n, len);
            let (mut top_out, mut bot_out) = run.split_at_row(m);
            let v_top = bot_out.rb().submatrix(0, 0, n12, len);
            gemm(
                1.0,
                &a_top,
                Op::NoTrans,
                &v_top,
                Op::NoTrans,
                0.0,
                &mut top_out,
            );
            let v_run = v_bot.submatrix(0, k0, n23, len);
            gemm(
                1.0,
                &a_bot,
                Op::NoTrans,
                &v_run,
                Op::NoTrans,
                0.0,
                &mut bot_out,
            );
            k0 += len;
        }
    }
    for (dst, &src) in d.iter_mut().zip(&order) {
        *dst = values[src];
    }
    Ok(())
}

/// The sorts' precondition: a NaN or Inf (from a non-finite input or a
/// child that produced one) is reported as a failure to converge at its
/// index instead of panicking the comparison. Finite values keep
/// `partial_cmp`'s order, which, unlike `total_cmp`, leaves ±0 ties in
/// place, so finite inputs keep every bit.
fn check_finite(values: &[f64]) -> Result<(), EigenError> {
    match values.iter().position(|x| !x.is_finite()) {
        Some(index) => Err(EigenError::NoConvergence { index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, orthogonality_residual};

    fn check_tridiagonal(t: &Tridiagonal, tol: f64) {
        let n = t.n();
        let (eigs, v) = stedc(t).unwrap();
        assert!(eigs.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        assert!(
            orthogonality_residual(&v) < tol,
            "eigenvectors not orthogonal: {}",
            orthogonality_residual(&v)
        );
        // residual ‖T v_k − λ_k v_k‖∞
        let dense = t.to_dense();
        let scale = eigs.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for (k, &lam) in eigs.iter().enumerate() {
            let vk = v.col(k);
            for i in 0..n {
                let mut s = 0.0;
                for j in 0..n {
                    s += dense[(i, j)] * vk[j];
                }
                assert!(
                    (s - lam * vk[i]).abs() < tol * scale * n as f64,
                    "residual at row {i}, pair {k}"
                );
            }
        }
    }

    #[test]
    fn matches_steqr_small() {
        // below SMLSIZ: identical to the base case
        let t = gen::random_tridiagonal(10, 1);
        let (e1, _) = stedc(&t).unwrap();
        let (e2, _) = steqr(&t).unwrap();
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn laplacian_exact() {
        for n in [40usize, 65, 100] {
            let t = gen::laplacian_1d(n);
            let (eigs, _) = stedc(&t).unwrap();
            let exact = gen::laplacian_1d_eigs(n);
            assert!(
                tg_matrix::norms::spectrum_error(&exact, &eigs) < 1e-12,
                "n = {n}"
            );
        }
    }

    #[test]
    fn random_tridiagonal_contract() {
        check_tridiagonal(&gen::random_tridiagonal(60, 3), 1e-11);
        check_tridiagonal(&gen::random_tridiagonal(97, 4), 1e-11);
    }

    #[test]
    fn wilkinson_close_pairs() {
        check_tridiagonal(&gen::wilkinson(51), 1e-11);
    }

    #[test]
    fn glued_heavy_deflation() {
        // tiny couplings ⇒ massive deflation in every merge
        check_tridiagonal(&gen::glued(20, 4, 1e-12), 1e-10);
    }

    #[test]
    fn zero_couplings_block_diagonal() {
        let mut t = gen::random_tridiagonal(50, 7);
        t.e[24] = 0.0; // exact split at the D&C midpoint
        check_tridiagonal(&t, 1e-11);
    }

    #[test]
    fn negative_rho_branch() {
        // force e[m-1] < 0 at the top merge
        let mut t = gen::random_tridiagonal(40, 9);
        t.e[19] = -0.8;
        check_tridiagonal(&t, 1e-11);
    }

    #[test]
    fn identical_diagonal_full_deflation() {
        // d all equal, e small: merges deflate almost everything
        let n = 40;
        let t = Tridiagonal::new(vec![3.0; n], vec![1e-14; n - 1]);
        let (eigs, v) = stedc(&t).unwrap();
        assert!(orthogonality_residual(&v) < 1e-12);
        for &e in &eigs {
            assert!((e - 3.0).abs() < 1e-12);
        }
    }

    /// A NaN or ±Inf at a leaf diagonal or at the split off-diagonal
    /// must come back as a result, never as a panic in a sort.
    #[test]
    fn non_finite_input_returns_instead_of_panicking() {
        let n = 64;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (site, at_split) in [("leaf d[0]", false), ("split e[n/2-1]", true)] {
                let mut t = gen::random_tridiagonal(n, 13);
                if at_split {
                    t.e[n / 2 - 1] = bad;
                } else {
                    t.d[0] = bad;
                }
                let out = std::panic::catch_unwind(|| stedc(&t));
                assert!(out.is_ok(), "stedc panicked on {bad} at {site}");
            }
        }
    }

    #[test]
    fn against_sturm_counts() {
        let t = gen::random_tridiagonal(80, 11);
        let (eigs, _) = stedc(&t).unwrap();
        for (k, &lam) in eigs.iter().enumerate().step_by(7) {
            assert!(t.sturm_count(lam - 1e-7) <= k);
            assert!(t.sturm_count(lam + 1e-7) > k);
        }
    }
}
