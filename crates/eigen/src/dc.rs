//! Cuppen's divide & conquer for the symmetric tridiagonal eigenproblem
//! (`dstedc` analogue) — the iterative method the paper couples with its
//! tridiagonalization for end-to-end EVD (§6.2).
//!
//! Splitting: `T = diag(T₁, T₂) + β q qᵀ` with `q = e_m + e_{m+1}`, where
//! the halves get `β` subtracted from the boundary diagonals. After the
//! children are solved, the merge solves `D + ρ z zᵀ`:
//!
//! 1. deflation — negligible `z` components pass through unchanged, and
//!    (near-)equal `d` pairs are rotated together (Givens) so one of them
//!    deflates,
//! 2. the secular equation gives the non-deflated eigenvalues
//!    ([`crate::secular`]),
//! 3. the Gu–Eisenstat `z̃` reconstruction gives numerically orthogonal
//!    eigenvectors, and one GEMM maps them back through the children's `Q`.
//!
//! The two children are solved as a two-task fan-out on
//! [`tg_blas::threads::run_tasks`]; workers of a multi-lane fan-out enter
//! the nested-parallelism region, so only the top split runs in parallel
//! and the recursion below it (and its merge GEMMs) stays on its lane.

use crate::secular;
use crate::steqr::steqr;
use crate::EigenError;
use tg_blas::threads::{run_tasks, Spans};
use tg_blas::{gemm, Op};
use tg_matrix::{Mat, Tridiagonal};

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
    if n == 0 {
        return Ok((Vec::new(), Mat::zeros(0, 0)));
    }
    dc_solve(&t.d, &t.e)
}

fn dc_solve(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Mat), EigenError> {
    let n = d.len();
    if n <= SMLSIZ {
        return steqr(&Tridiagonal::new(d.to_vec(), e.to_vec()));
    }
    let m = n / 2;
    let beta = e[m - 1];

    // children with rank-one-corrected boundary diagonals
    let mut d1 = d[..m].to_vec();
    d1[m - 1] -= beta;
    let e1 = e[..m - 1].to_vec();
    let mut d2 = d[m..].to_vec();
    d2[0] -= beta;
    let e2 = e[m..].to_vec();

    let spans = Spans {
        region: "parallel.dc",
        worker: "dc.worker",
        task: "task.dc_half",
    };
    let halves = vec![(d1, e1), (d2, e2)];
    let mut lanes = vec![(); tg_blas::threads::gemm_threads()];
    let mut solved = run_tasks(spans, halves, &mut lanes, |_, (d, e)| dc_solve(&d, &e)).into_iter();
    let (lam1, q1) = solved.next().expect("left half")?;
    let (lam2, q2) = solved.next().expect("right half")?;

    // block-diagonal Q, concatenated spectra, and the coupling vector
    // z = Qᵀ q = [last row of Q₁ ; first row of Q₂]
    let mut q = Mat::zeros(n, n);
    q.view_mut(0, 0, m, m).copy_from(&q1.as_ref());
    q.view_mut(m, m, n - m, n - m).copy_from(&q2.as_ref());
    let mut dd = Vec::with_capacity(n);
    dd.extend_from_slice(&lam1);
    dd.extend_from_slice(&lam2);
    let mut z = Vec::with_capacity(n);
    for j in 0..m {
        z.push(q1[(m - 1, j)]);
    }
    for j in 0..(n - m) {
        z.push(q2[(0, j)]);
    }

    merge(dd, z, beta, q)
}

/// Solves `D + ρ z zᵀ` given the accumulated `Q` (eigenvectors returned are
/// `Q`-transformed). Consumes and returns sorted output.
fn merge(
    mut d: Vec<f64>,
    mut z: Vec<f64>,
    rho_in: f64,
    q: Mat,
) -> Result<(Vec<f64>, Mat), EigenError> {
    let n = d.len();
    if rho_in == 0.0 {
        return sort_pairs(d, q);
    }
    // flip the problem so ρ > 0 (eigenvectors are unchanged under negation)
    let flip = rho_in < 0.0;
    let mut rho = rho_in;
    if flip {
        for di in &mut d {
            *di = -*di;
        }
        rho = -rho;
    }
    // normalize ‖z‖ = 1 (fold the norm into ρ) for scale-free tolerances
    let znorm2: f64 = z.iter().map(|x| x * x).sum();
    if znorm2 > 0.0 {
        let zn = znorm2.sqrt();
        for zi in &mut z {
            *zi /= zn;
        }
        rho *= znorm2;
    }

    // sort d ascending; `cols[p]` maps position → column of q
    check_finite(&d)?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("checked finite"));
    let ds: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let zs: Vec<f64> = order.iter().map(|&i| z[i]).collect();
    let mut qs = Mat::zeros(n, n);
    for (p, &i) in order.iter().enumerate() {
        qs.col_mut(p).copy_from_slice(q.col(i));
    }
    let mut d = ds;
    let mut z = zs;
    let mut q = qs;

    // ── deflation
    let dmax = d.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    let tol = 8.0 * f64::EPSILON * dmax.max(rho);
    let mut active: Vec<usize> = Vec::with_capacity(n);
    let mut deflated: Vec<usize> = Vec::new();
    for i in 0..n {
        if rho * z[i].abs() <= tol {
            // negligible coupling: (d_i, q_i) is already an eigenpair
            deflated.push(i);
            continue;
        }
        if let Some(&last) = active.last() {
            if d[i] - d[last] <= tol {
                // near-equal eigenvalues: rotate z_i into z_last
                let r = z[last].hypot(z[i]);
                let c = z[last] / r;
                let s = z[i] / r;
                z[last] = r;
                z[i] = 0.0;
                // rotate the two Q columns
                for row in 0..n {
                    let a = q[(row, last)];
                    let b = q[(row, i)];
                    q[(row, last)] = c * a + s * b;
                    q[(row, i)] = -s * a + c * b;
                }
                // rotate the 2×2 diagonal block; the off-diagonal (≤ tol)
                // is dropped
                let (dl, di) = (d[last], d[i]);
                d[last] = c * c * dl + s * s * di;
                d[i] = s * s * dl + c * c * di;
                deflated.push(i);
                continue;
            }
        }
        active.push(i);
    }

    let a = active.len();
    let mut eigenvalues = vec![0.0; n];
    let mut vectors = Mat::zeros(n, n);

    if a > 0 {
        let d_act: Vec<f64> = active.iter().map(|&i| d[i]).collect();
        let z_act: Vec<f64> = active.iter().map(|&i| z[i]).collect();
        let roots = secular::solve_all(&d_act, &z_act, rho);
        let zt = secular::refine_z(&d_act, rho, &roots, &z_act);
        // secular eigenvectors, then one GEMM through the active Q columns
        let mut v = Mat::zeros(a, a);
        for (k, root) in roots.iter().enumerate() {
            let vk = secular::eigenvector(&d_act, &zt, root);
            v.col_mut(k).copy_from_slice(&vk);
        }
        let mut q_act = Mat::zeros(n, a);
        for (p, &i) in active.iter().enumerate() {
            q_act.col_mut(p).copy_from_slice(q.col(i));
        }
        let mut new_vecs = Mat::zeros(n, a);
        gemm(
            1.0,
            &q_act.as_ref(),
            Op::NoTrans,
            &v.as_ref(),
            Op::NoTrans,
            0.0,
            &mut new_vecs.as_mut(),
        );
        for k in 0..a {
            eigenvalues[k] = roots[k].value(&d_act);
            vectors.col_mut(k).copy_from_slice(new_vecs.col(k));
        }
    }
    for (p, &i) in deflated.iter().enumerate() {
        eigenvalues[a + p] = d[i];
        vectors.col_mut(a + p).copy_from_slice(q.col(i));
    }

    if flip {
        for ev in &mut eigenvalues {
            *ev = -*ev;
        }
    }
    sort_pairs(eigenvalues, vectors)
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

/// Sorts `(values, vector columns)` ascending by value.
fn sort_pairs(values: Vec<f64>, vecs: Mat) -> Result<(Vec<f64>, Mat), EigenError> {
    check_finite(&values)?;
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&x, &y| values[x].partial_cmp(&values[y]).expect("checked finite"));
    let sorted: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
    let mut out = Mat::zeros(vecs.nrows(), n);
    for (p, &i) in idx.iter().enumerate() {
        out.col_mut(p).copy_from_slice(vecs.col(i));
    }
    Ok((sorted, out))
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
