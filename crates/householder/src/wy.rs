#![allow(clippy::needless_range_loop)] // triangular-matrix loops are clearer with indices
//! Compact-WY representation of a product of Householder reflectors
//! (Bischof & Van Loan \[3\]; LAPACK `dlarft`/`dlarfb`).
//!
//! `H₁ H₂ ⋯ H_k = I − V T Vᵀ` where `V` is `m × k` unit-lower-trapezoidal
//! and `T` is `k × k` upper triangular. The paper's `(W, Y)` notation maps
//! onto this as `Y = V`, `W = V T`, so that `I − W Yᵀ = I − V T Vᵀ`.

use tg_blas::{gemm, gemm_into, Op};
use tg_matrix::{Mat, MatMut};

/// A block of `k` accumulated reflectors: `Q = H₁⋯H_k = I − V T Vᵀ`.
#[derive(Clone, Debug)]
pub struct WyBlock {
    /// `m × k` reflector matrix with explicit unit diagonal and zero upper
    /// triangle (stored explicitly for kernel simplicity).
    pub v: Mat,
    /// `k × k` upper-triangular factor.
    pub t: Mat,
}

impl WyBlock {
    /// Builds the `T` factor from explicit `V` and the per-reflector `τ`s
    /// (forward, column-wise `dlarft`): `G = VᵀV` is one GEMM, then
    /// `t_j = −τ_j · T(0..j,0..j) · G(0..j, j)` is an upper-triangular
    /// `trmv` in place in column `j`. A reflector with `τ = 0` (the
    /// identity) leaves its column of `T` zero above the diagonal.
    pub fn from_v_taus(v: Mat, taus: &[f64]) -> Self {
        let k = v.ncols();
        assert_eq!(taus.len(), k);
        let g = gemm_into(1.0, &v.as_ref(), Op::Trans, &v.as_ref(), Op::NoTrans);
        let mut t = Mat::zeros(k, k);
        for j in 0..k {
            let tau = taus[j];
            t[(j, j)] = tau;
            if j > 0 && tau != 0.0 {
                for i in 0..j {
                    t[(i, j)] = -tau * g[(i, j)];
                }
                // t_j ← T(0..j,0..j) · t_j, rows ascending: row i reads
                // only rows ≥ i of t_j, which are not yet overwritten.
                for i in 0..j {
                    let mut s = 0.0;
                    for l in i..j {
                        s += t[(i, l)] * t[(l, j)];
                    }
                    t[(i, j)] = s;
                }
            }
        }
        WyBlock { v, t }
    }

    /// Number of rows of `V`.
    pub fn m(&self) -> usize {
        self.v.nrows()
    }

    /// Number of reflectors.
    pub fn k(&self) -> usize {
        self.v.ncols()
    }

    /// The paper's `W = V T` (so `Q = I − W Yᵀ` with `Y = V`).
    pub fn w(&self) -> Mat {
        gemm_into(
            1.0,
            &self.v.as_ref(),
            Op::NoTrans,
            &self.t.as_ref(),
            Op::NoTrans,
        )
    }

    /// `C ← Q C` (`trans = false`) or `C ← Qᵀ C` (`trans = true`).
    pub fn apply_left(&self, c: &mut MatMut<'_>, trans: bool) {
        assert_eq!(c.nrows(), self.m());
        // X = Vᵀ C (k × n)
        let mut x = gemm_into(1.0, &self.v.as_ref(), Op::Trans, &c.rb(), Op::NoTrans);
        // X ← op(T) X
        self.trmm_left(&mut x, trans);
        // C ← C − V X
        gemm(
            -1.0,
            &self.v.as_ref(),
            Op::NoTrans,
            &x.as_ref(),
            Op::NoTrans,
            1.0,
            c,
        );
    }

    /// `C ← C Q` (`trans = false`) or `C ← C Qᵀ` (`trans = true`).
    pub fn apply_right(&self, c: &mut MatMut<'_>, trans: bool) {
        assert_eq!(c.ncols(), self.m());
        // X = C V (n × k)
        let mut x = gemm_into(1.0, &c.rb(), Op::NoTrans, &self.v.as_ref(), Op::NoTrans);
        // X ← X op(T): right-multiplication ⇒ transpose trick
        self.trmm_right(&mut x, trans);
        // C ← C − X Vᵀ
        gemm(
            -1.0,
            &x.as_ref(),
            Op::NoTrans,
            &self.v.as_ref(),
            Op::Trans,
            1.0,
            c,
        );
    }

    /// Materializes `Q = I − V T Vᵀ` (test/debug helper).
    pub fn to_q(&self) -> Mat {
        let m = self.m();
        let mut q = Mat::identity(m);
        self.apply_left(&mut q.as_mut(), false);
        q
    }

    /// `X ← op(T) X` with `T` upper triangular.
    fn trmm_left(&self, x: &mut Mat, trans: bool) {
        let k = self.k();
        let n = x.ncols();
        for j in 0..n {
            let col = x.col_mut(j);
            if !trans {
                // upper-tri times vector, forward
                for i in 0..k {
                    let mut s = 0.0;
                    for l in i..k {
                        s += self.t[(i, l)] * col[l];
                    }
                    col[i] = s;
                }
            } else {
                // Tᵀ (lower) times vector, backward
                for i in (0..k).rev() {
                    let mut s = 0.0;
                    for l in 0..=i {
                        s += self.t[(l, i)] * col[l];
                    }
                    col[i] = s;
                }
            }
        }
    }

    /// `X ← X op(T)` with `T` upper triangular.
    fn trmm_right(&self, x: &mut Mat, trans: bool) {
        let k = self.k();
        let m = x.nrows();
        if !trans {
            // X T: column j of result = Σ_{l ≤ j} X[:,l] T[l,j]; go right→left
            for j in (0..k).rev() {
                for i in 0..m {
                    let mut s = 0.0;
                    for l in 0..=j {
                        s += x[(i, l)] * self.t[(l, j)];
                    }
                    x[(i, j)] = s;
                }
            }
        } else {
            // X Tᵀ: column j = Σ_{l ≥ j} X[:,l] T[j,l]; go left→right
            for j in 0..k {
                for i in 0..m {
                    let mut s = 0.0;
                    for l in j..k {
                        s += x[(i, l)] * self.t[(j, l)];
                    }
                    x[(i, j)] = s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reflector::make_reflector;
    use tg_matrix::{gen, orthogonality_residual};

    /// Builds a WY block from random reflectors for testing.
    fn random_block(m: usize, k: usize, seed: u64) -> (WyBlock, Vec<(f64, Vec<f64>)>) {
        let base = gen::random(m, k, seed);
        let mut v = Mat::zeros(m, k);
        let mut taus = vec![0.0; k];
        let mut raw = Vec::new();
        for j in 0..k {
            let mut x: Vec<f64> = (j..m).map(|i| base[(i, j)]).collect();
            let r = make_reflector(&mut x);
            taus[j] = r.tau;
            v[(j, j)] = 1.0;
            for (off, &val) in x[1..].iter().enumerate() {
                v[(j + 1 + off, j)] = val;
            }
            raw.push((r.tau, x[1..].to_vec()));
        }
        (WyBlock::from_v_taus(v, &taus), raw)
    }

    fn explicit_product(m: usize, raw: &[(f64, Vec<f64>)]) -> Mat {
        // H₁ H₂ ⋯ H_k applied to identity, H_j acting on rows j..
        let mut q = Mat::identity(m);
        for (j, (tau, vt)) in raw.iter().enumerate().rev() {
            let mut sub = q.view_mut(j, 0, m - j, m);
            crate::reflector::apply_left(*tau, vt, &mut sub);
        }
        q
    }

    #[test]
    fn q_matches_explicit_reflector_product() {
        let (blk, raw) = random_block(8, 3, 1);
        let q = blk.to_q();
        let qe = explicit_product(8, &raw);
        assert!(tg_matrix::max_abs_diff(&q, &qe) < 1e-12);

        // A τ = 0 reflector mid-block is the identity whatever its stored
        // tail, so the T assembly skips its column.
        let (blk, mut raw) = random_block(9, 4, 8);
        raw[2].0 = 0.0;
        let taus: Vec<f64> = raw.iter().map(|r| r.0).collect();
        let blk = WyBlock::from_v_taus(blk.v, &taus);
        assert!((0..3).all(|i| blk.t[(i, 2)] == 0.0));
        let qe = explicit_product(9, &raw);
        assert!(tg_matrix::max_abs_diff(&blk.to_q(), &qe) < 1e-12);
    }

    #[test]
    fn q_is_orthogonal() {
        let (blk, _) = random_block(10, 4, 2);
        assert!(orthogonality_residual(&blk.to_q()) < 1e-13);
    }

    #[test]
    fn w_y_identity() {
        // Q = I − W Yᵀ with W = V T, Y = V
        let (blk, _) = random_block(7, 3, 3);
        let w = blk.w();
        let q = blk.to_q();
        let mut expect = Mat::identity(7);
        gemm(
            -1.0,
            &w.as_ref(),
            Op::NoTrans,
            &blk.v.as_ref(),
            Op::Trans,
            1.0,
            &mut expect.as_mut(),
        );
        assert!(tg_matrix::max_abs_diff(&q, &expect) < 1e-12);
    }

    #[test]
    fn apply_left_trans_inverts() {
        let (blk, _) = random_block(9, 4, 4);
        let c0 = gen::random(9, 5, 10);
        let mut c = c0.clone();
        blk.apply_left(&mut c.as_mut(), false);
        blk.apply_left(&mut c.as_mut(), true);
        assert!(tg_matrix::max_abs_diff(&c, &c0) < 1e-12);
    }

    #[test]
    fn apply_right_matches_left_of_transpose() {
        let (blk, _) = random_block(6, 2, 5);
        let c0 = gen::random(4, 6, 11);
        // (C Q)ᵀ = Qᵀ Cᵀ
        let mut right = c0.clone();
        blk.apply_right(&mut right.as_mut(), false);
        let mut left = c0.transpose();
        blk.apply_left(&mut left.as_mut(), true);
        assert!(tg_matrix::max_abs_diff(&right, &left.transpose()) < 1e-12);
    }

    #[test]
    fn apply_right_trans_inverts() {
        let (blk, _) = random_block(6, 3, 6);
        let c0 = gen::random(5, 6, 12);
        let mut c = c0.clone();
        blk.apply_right(&mut c.as_mut(), false);
        blk.apply_right(&mut c.as_mut(), true);
        assert!(tg_matrix::max_abs_diff(&c, &c0) < 1e-12);
    }

    #[test]
    fn single_reflector_block() {
        let (blk, raw) = random_block(5, 1, 7);
        assert_eq!(blk.t[(0, 0)], raw[0].0);
        let q = blk.to_q();
        assert!(orthogonality_residual(&q) < 1e-14);
    }
}
