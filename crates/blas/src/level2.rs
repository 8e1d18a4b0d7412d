//! BLAS level-2: matrix-vector kernels.
#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS reference formulations
//!
//! Everything is column-major; the kernels therefore iterate over columns
//! and touch contiguous slices, so they access memory with unit stride.

use crate::level1::axpy;
use tg_matrix::{MatMut, MatRef};

/// `y ← α A x + β y` (`A` not transposed, `m × n`).
pub fn gemv_n(alpha: f64, a: &MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = (a.nrows(), a.ncols());
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), m);
    if beta != 1.0 {
        for yi in y.iter_mut() {
            *yi *= beta;
        }
    }
    for j in 0..n {
        axpy(alpha * x[j], a.col(j), y);
    }
}

/// Symmetric matrix-vector product using only the **lower** triangle of `A`:
/// `y ← α A x + β y`.
pub fn symv_lower(alpha: f64, a: &MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    if beta != 1.0 {
        for yi in y.iter_mut() {
            *yi *= beta;
        }
    }
    for j in 0..n {
        let col = a.col(j);
        // diagonal
        y[j] += alpha * col[j] * x[j];
        // strictly-lower part of column j contributes to y[j+1..] (as A[i][j])
        // and to y[j] (as A[j][i] via symmetry).
        let xj = alpha * x[j];
        let mut s = 0.0;
        let (ylo, xlo) = (&mut y[j + 1..], &x[j + 1..]);
        let clo = &col[j + 1..];
        for i in 0..clo.len() {
            ylo[i] += xj * clo[i];
            s += clo[i] * xlo[i];
        }
        y[j] += alpha * s;
    }
}

/// Symmetric rank-2 update on the **lower** triangle:
/// `A ← A + α (x yᵀ + y xᵀ)` (only `i ≥ j` entries touched).
pub fn syr2_lower(alpha: f64, x: &[f64], y: &[f64], a: &mut MatMut<'_>) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    for j in 0..n {
        let (cx, cy) = (alpha * y[j], alpha * x[j]);
        let col = a.col_mut(j);
        let (xs, ys) = (&x[j..], &y[j..]);
        let cs = &mut col[j..];
        for i in 0..cs.len() {
            cs[i] += cx * xs[i] + cy * ys[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;
    use tg_matrix::Mat;

    fn dense_mv(a: &Mat, x: &[f64]) -> Vec<f64> {
        let (m, n) = (a.nrows(), a.ncols());
        (0..m)
            .map(|i| (0..n).map(|j| a[(i, j)] * x[j]).sum())
            .collect()
    }

    #[test]
    fn gemv_n_matches_dense() {
        let a = gen::random(7, 5, 1);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut y = vec![1.0; 7];
        let expect: Vec<f64> = dense_mv(&a, &x).iter().map(|v| 2.0 * v + 3.0).collect();
        gemv_n(2.0, &a.as_ref(), &x, 3.0, &mut y);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn symv_lower_matches_full() {
        let n = 9;
        let full = gen::random_symmetric(n, 3);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let expect = dense_mv(&full, &x);
        // blank the upper triangle to prove only lower is read
        let mut lower = full.clone();
        for j in 0..n {
            for i in 0..j {
                lower[(i, j)] = f64::NAN;
            }
        }
        let mut y = vec![0.0; n];
        symv_lower(1.0, &lower.as_ref(), &x, 0.0, &mut y);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn syr2_lower_matches_full_update() {
        let n = 6;
        let base = gen::random_symmetric(n, 4);
        let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut a = base.clone();
        syr2_lower(0.5, &x, &y, &mut a.as_mut());
        for j in 0..n {
            for i in j..n {
                let expect = base[(i, j)] + 0.5 * (x[i] * y[j] + y[i] * x[j]);
                assert!((a[(i, j)] - expect).abs() < 1e-13);
            }
        }
        // upper triangle untouched
        for j in 1..n {
            for i in 0..j {
                assert_eq!(a[(i, j)], base[(i, j)]);
            }
        }
    }
}
