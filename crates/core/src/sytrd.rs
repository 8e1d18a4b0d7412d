//! Direct (one-stage) tridiagonalization — the cuSOLVER `Dsytrd` baseline.
//!
//! Implements the classic blocked Householder reduction of Dongarra,
//! Sorensen & Hammarling \[8\]: panels are reduced with `dlatrd`-style
//! delayed updates, the trailing matrix is updated with a rank-`2nb`
//! `syr2k`. Roughly half the flops remain in BLAS-2 `symv`s — the paper's
//! §2.2 explanation of why direct tridiagonalization underuses GPUs.
//!
//! Only the lower triangle of `A` is referenced and overwritten.

use tg_blas::level1::{axpy, dot};
use tg_blas::level2::symv_lower;
use tg_blas::syr2k_blocked;
use tg_householder::{apply_two_sided_lower, make_reflector};
use tg_matrix::{Mat, MatMut, Tridiagonal};

/// Output of the direct tridiagonalization.
pub struct SytrdResult {
    /// The tridiagonal matrix `T` with `A = Q T Qᵀ`.
    pub tri: Tridiagonal,
    /// Explicit reflector matrix: column `i` holds `v_i` (unit entry at row
    /// `i + 1`, zeros at and above row `i`).
    pub v: Mat,
    /// Reflector scalars.
    pub taus: Vec<f64>,
}

impl SytrdResult {
    /// Applies `Q = H₀ H₁ ⋯ H_{n−2}` to `C` from the left (`C ← Q C`)
    /// without materializing `Q` (`dormtr` analogue): reflectors are
    /// grouped `nb` at a time into compact-WY `I − V T Vᵀ` factors applied
    /// directly to `C`, so the cost is `O(n² · ncols)` GEMM-shaped work —
    /// the `ormqr`-style apply the back transformation needs, where
    /// form-`Q`-then-multiply would pay `O(n³)` regardless of `C`'s width.
    pub fn apply_q_left(&self, c: &mut MatMut<'_>, nb: usize) {
        let n = self.tri.n();
        assert_eq!(c.nrows(), n);
        assert!(nb >= 1);
        let total = self.taus.len();
        // Q = B₀ B₁ ⋯ B_p ⇒ apply the block factors right-to-left
        let starts: Vec<usize> = (0..total).step_by(nb).collect();
        for &j in starts.iter().rev() {
            let w = nb.min(total - j);
            let mut v = Mat::zeros(n, w);
            let mut taus = vec![0.0; w];
            for col in 0..w {
                taus[col] = self.taus[j + col];
                for r in 0..n {
                    v[(r, col)] = self.v[(r, j + col)];
                }
            }
            let blk = tg_householder::WyBlock::from_v_taus(v, &taus);
            blk.apply_left(c, false);
        }
    }

    /// Materializes `Q = H₀ H₁ ⋯ H_{n−2}` (unblocked reference).
    pub fn form_q(&self) -> Mat {
        let n = self.tri.n();
        let mut q = Mat::identity(n);
        for i in (0..self.taus.len()).rev() {
            let tau = self.taus[i];
            if tau == 0.0 {
                continue;
            }
            let v_tail: Vec<f64> = (i + 2..n).map(|r| self.v[(r, i)]).collect();
            let mut sub = q.view_mut(i + 1, 0, n - i - 1, n);
            tg_householder::apply_left(tau, &v_tail, &mut sub);
        }
        q
    }
}

/// Unblocked reduction (`dsytd2` analogue). Overwrites the lower triangle.
pub fn sytrd_unblocked(a: &mut Mat) -> SytrdResult {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let mut v = Mat::zeros(n, n.saturating_sub(1));
    let mut taus = vec![0.0; n.saturating_sub(1)];
    for i in 0..n.saturating_sub(1) {
        let (tau, beta, tail) = {
            let col = a.col_mut(i);
            let r = make_reflector(&mut col[i + 1..]);
            (r.tau, r.beta, col[i + 2..].to_vec())
        };
        taus[i] = tau;
        v[(i + 1, i)] = 1.0;
        for (off, &t) in tail.iter().enumerate() {
            v[(i + 2 + off, i)] = t;
        }
        // two-sided update of the trailing block
        if tau != 0.0 {
            let mut trail = a.view_mut(i + 1, i + 1, n - i - 1, n - i - 1);
            apply_two_sided_lower(tau, &tail, &mut trail);
        }
        // store β, zero the annihilated entries
        a[(i + 1, i)] = beta;
        for r in i + 2..n {
            a[(r, i)] = 0.0;
        }
    }
    SytrdResult {
        tri: extract_tridiagonal(a),
        v,
        taus,
    }
}

/// Blocked reduction (`dsytrd` analogue) with panel width `nb`.
pub fn sytrd_blocked(a: &mut Mat, nb: usize) -> SytrdResult {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert!(nb >= 1);
    let _span = tg_trace::span_cat("reduce.sytrd", "stage", Some(("n", n as u64)));
    let mut v = Mat::zeros(n, n.saturating_sub(1));
    let mut taus = vec![0.0; n.saturating_sub(1)];

    let mut i = 0;
    // keep a panel only while a non-trivial trailing matrix remains
    while n - i > nb + 2 && nb > 1 {
        let m = n - i;
        let (vp, wp) = latrd_lower(&mut a.view_mut(i, i, m, m), nb, &mut taus[i..i + nb]);
        // copy panel reflectors into the global V (rows i.., cols i..i+nb)
        for j in 0..nb {
            for r in j + 1..m {
                v[(i + r, i + j)] = vp[(r, j)];
            }
        }
        // trailing update: A[i+nb.., i+nb..] ← A − V₂W₂ᵀ − W₂V₂ᵀ
        let v2 = vp.view(nb, 0, m - nb, nb);
        let w2 = wp.view(nb, 0, m - nb, nb);
        let mut trail = a.view_mut(i + nb, i + nb, m - nb, m - nb);
        syr2k_blocked(-1.0, &v2, &w2, 1.0, &mut trail, 32);
        i += nb;
    }
    // unblocked cleanup
    if n - i > 1 {
        let m = n - i;
        let mut tail_mat = a.view(i, i, m, m).to_mat();
        let rest = sytrd_unblocked(&mut tail_mat);
        a.view_mut(i, i, m, m).copy_from(&tail_mat.as_ref());
        for j in 0..m.saturating_sub(1) {
            taus[i + j] = rest.taus[j];
            for r in 0..m {
                if rest.v[(r, j)] != 0.0 {
                    v[(i + r, i + j)] = rest.v[(r, j)];
                }
            }
        }
    }
    SytrdResult {
        tri: extract_tridiagonal(a),
        v,
        taus,
    }
}

/// `dlatrd` (lower) analogue: reduces the first `nb` columns of the
/// symmetric `m × m` block `a` to tridiagonal form and returns `(V, W)`
/// such that the trailing update is `A ← A − V Wᵀ − W Vᵀ`.
///
/// `V`, `W` are `m × nb`; reflector `j` lives in `V[j+1.., j]`.
fn latrd_lower(a: &mut MatMut<'_>, nb: usize, taus: &mut [f64]) -> (Mat, Mat) {
    let m = a.nrows();
    let mut v = Mat::zeros(m, nb);
    let mut w = Mat::zeros(m, nb);
    for j in 0..nb {
        // bring column j up to date with reflectors 0..j:
        // A[j.., j] ← A[j.., j] − V[j.., :j]·W[j, :j]ᵀ − W[j.., :j]·V[j, :j]ᵀ
        if j > 0 {
            for l in 0..j {
                let wjl = w[(j, l)];
                let vjl = v[(j, l)];
                let col = a.col_mut(j);
                let vl = v.col(l);
                let wl = w.col(l);
                for r in j..m {
                    col[r] -= vl[r] * wjl + wl[r] * vjl;
                }
            }
        }
        // reflector annihilating A[j+2.., j]
        let (tau, beta, tail) = {
            let col = a.col_mut(j);
            let r = make_reflector(&mut col[j + 1..]);
            (r.tau, r.beta, col[j + 2..].to_vec())
        };
        taus[j] = tau;
        v[(j + 1, j)] = 1.0;
        for (off, &t) in tail.iter().enumerate() {
            v[(j + 2 + off, j)] = t;
        }
        // record β and clear the annihilated entries in A
        *a.at_mut(j + 1, j) = beta;
        for r in j + 2..m {
            *a.at_mut(r, j) = 0.0;
        }
        // w_j = τ(A₂₂ v − V (Wᵀv) − W (Vᵀv)) − ½τ²(vᵀ·)v  (A₂₂ = stale trailing)
        if tau != 0.0 {
            let vj: Vec<f64> = (j + 1..m).map(|r| v[(r, j)]).collect();
            let mut wj = vec![0.0; m - j - 1];
            {
                let trail = a.rb().submatrix(j + 1, j + 1, m - j - 1, m - j - 1);
                symv_lower(tau, &trail, &vj, 0.0, &mut wj);
            }
            // corrections from the not-yet-applied rank-2j update
            for l in 0..j {
                let vl: Vec<f64> = (j + 1..m).map(|r| v[(r, l)]).collect();
                let wl: Vec<f64> = (j + 1..m).map(|r| w[(r, l)]).collect();
                let a1 = dot(&wl, &vj);
                axpy(-tau * a1, &vl, &mut wj);
                let a2 = dot(&vl, &vj);
                axpy(-tau * a2, &wl, &mut wj);
            }
            let c = -0.5 * tau * dot(&wj, &vj);
            axpy(c, &vj, &mut wj);
            for (off, &t) in wj.iter().enumerate() {
                w[(j + 1 + off, j)] = t;
            }
        }
    }
    (v, w)
}

fn extract_tridiagonal(a: &Mat) -> Tridiagonal {
    let n = a.nrows();
    let d = (0..n).map(|i| a[(i, i)]).collect();
    let e = (0..n.saturating_sub(1)).map(|i| a[(i + 1, i)]).collect();
    Tridiagonal::new(d, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, orthogonality_residual, similarity_residual};

    fn check(n: usize, nb: usize, seed: u64, blocked: bool) {
        let a0 = gen::random_symmetric(n, seed);
        let mut a = a0.clone();
        let res = if blocked {
            sytrd_blocked(&mut a, nb)
        } else {
            sytrd_unblocked(&mut a)
        };
        let q = res.form_q();
        assert!(
            orthogonality_residual(&q) < 1e-12,
            "Q not orthogonal (n={n}, nb={nb})"
        );
        let t = res.tri.to_dense();
        let r = similarity_residual(&a0, &q, &t);
        assert!(r < 1e-12, "A ≠ Q T Qᵀ: residual {r} (n={n}, nb={nb})");
    }

    #[test]
    fn unblocked_small() {
        check(2, 0, 1, false);
        check(3, 0, 2, false);
        check(8, 0, 3, false);
        check(17, 0, 4, false);
    }

    #[test]
    fn blocked_matches_contract() {
        check(16, 4, 10, true);
        check(25, 4, 11, true); // ragged
        check(32, 8, 12, true);
        check(10, 16, 13, true); // nb > n: pure unblocked path
        check(30, 1, 14, true); // nb = 1 degenerate
    }

    #[test]
    fn blocked_and_unblocked_same_t_up_to_signs() {
        let n = 20;
        let a0 = gen::random_symmetric(n, 20);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let r1 = sytrd_unblocked(&mut a1);
        let r2 = sytrd_blocked(&mut a2, 5);
        // T is unique up to off-diagonal signs when starting from the same
        // first column; both algorithms use the same elimination order
        let t1 = r1.tri.with_positive_offdiag();
        let t2 = r2.tri.with_positive_offdiag();
        for i in 0..n {
            assert!((t1.d[i] - t2.d[i]).abs() < 1e-10, "d[{i}]");
        }
        for i in 0..n - 1 {
            assert!((t1.e[i] - t2.e[i]).abs() < 1e-10, "e[{i}]");
        }
    }

    #[test]
    fn apply_q_left_matches_form_q_product() {
        let n = 21;
        let a0 = gen::random_symmetric(n, 61);
        let mut a = a0.clone();
        let res = sytrd_blocked(&mut a, 5);
        let q = res.form_q();
        let c0 = gen::random(n, 4, 62);
        let expect = tg_blas::gemm_into(
            1.0,
            &q.as_ref(),
            tg_blas::Op::NoTrans,
            &c0.as_ref(),
            tg_blas::Op::NoTrans,
        );
        for nb in [1usize, 4, 32] {
            let mut c = c0.clone();
            res.apply_q_left(&mut c.as_mut(), nb);
            assert!(
                tg_matrix::max_abs_diff(&expect, &c) < 1e-11,
                "nb = {nb}: {}",
                tg_matrix::max_abs_diff(&expect, &c)
            );
        }
    }

    #[test]
    fn trace_preserved() {
        let n = 24;
        let a0 = gen::random_symmetric(n, 30);
        let tr0: f64 = (0..n).map(|i| a0[(i, i)]).sum();
        let mut a = a0.clone();
        let res = sytrd_blocked(&mut a, 6);
        assert!((res.tri.trace() - tr0).abs() < 1e-10);
    }

    #[test]
    fn already_tridiagonal_is_fixed_point() {
        // a tridiagonal input: reflectors are all trivial, T = input
        let t0 = gen::random_tridiagonal(12, 40);
        let mut a = t0.to_dense();
        let res = sytrd_unblocked(&mut a);
        for i in 0..12 {
            assert!((res.tri.d[i] - t0.d[i]).abs() < 1e-14);
        }
        for i in 0..11 {
            assert!((res.tri.e[i].abs() - t0.e[i].abs()).abs() < 1e-14);
        }
    }

    #[test]
    fn tiny_matrices() {
        let mut a1 = gen::random_symmetric(1, 50);
        let r = sytrd_unblocked(&mut a1);
        assert_eq!(r.tri.n(), 1);
        check(2, 2, 51, true);
    }
}
