//! Norms and the residuals used throughout the test suite to state
//! factorization contracts:
//!
//! * orthogonality: `‖QᵀQ − I‖_F / √n`
//! * similarity:    `‖A − Q B Qᵀ‖_F / ‖A‖_F`
//!
//! These follow the LAPACK testing conventions (residual scaled so that a
//! backward-stable algorithm yields `O(n · ε)`).

use crate::dense::Mat;

/// Shape mismatch reported by the fallible residual entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeError {
    /// Which argument was mis-shaped (`"a"`, `"q"`, `"b"`).
    pub arg: &'static str,
    /// The offending `(nrows, ncols)`.
    pub got: (usize, usize),
    /// The `(nrows, ncols)` that was required.
    pub expected: (usize, usize),
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "argument `{}` has shape {}x{}, expected {}x{}",
            self.arg, self.got.0, self.got.1, self.expected.0, self.expected.1
        )
    }
}

impl std::error::Error for ShapeError {}

/// Frobenius norm of a dense matrix.
pub fn frob_norm(a: &Mat) -> f64 {
    a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Largest absolute difference between two same-shaped matrices.
pub fn max_abs_diff(a: &Mat, b: &Mat) -> f64 {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
}

/// `‖QᵀQ − I‖_F / √n` for a square (or tall) `Q`.
pub fn orthogonality_residual(q: &Mat) -> f64 {
    let n = q.ncols();
    let mut s = 0.0;
    for j in 0..n {
        let cj = q.col(j);
        for i in 0..=j {
            let ci = q.col(i);
            let mut dot = 0.0;
            for (&x, &y) in ci.iter().zip(cj) {
                dot += x * y;
            }
            let target = if i == j { 1.0 } else { 0.0 };
            let d = dot - target;
            s += if i == j { d * d } else { 2.0 * d * d };
        }
    }
    (s.sqrt()) / (n as f64).sqrt()
}

/// `‖A − Q B Qᵀ‖_F / ‖A‖_F`: how well `Q B Qᵀ` reconstructs `A`.
///
/// `O(n³)` dense computation; test-scale only. Panics on mis-shaped
/// arguments; use [`try_similarity_residual`] for an error instead.
pub fn similarity_residual(a: &Mat, q: &Mat, b: &Mat) -> f64 {
    try_similarity_residual(a, q, b).unwrap_or_else(|e| panic!("similarity_residual: {e}"))
}

/// Fallible variant of [`similarity_residual`]: returns a [`ShapeError`]
/// when `a` is non-square or `q`/`b` do not match its order, instead of
/// panicking. Runtime checkers use this so a mis-wired hook reports a
/// failed check rather than aborting the pipeline.
pub fn try_similarity_residual(a: &Mat, q: &Mat, b: &Mat) -> Result<f64, ShapeError> {
    let n = a.nrows();
    for (arg, m) in [("a", a), ("q", q), ("b", b)] {
        if (m.nrows(), m.ncols()) != (n, n) {
            return Err(ShapeError {
                arg,
                got: (m.nrows(), m.ncols()),
                expected: (n, n),
            });
        }
    }
    // R = Q B
    let mut r = Mat::zeros(n, n);
    for j in 0..n {
        for k in 0..n {
            let bkj = b[(k, j)];
            if bkj != 0.0 {
                let qk = q.col(k);
                let rj = r.col_mut(j);
                for i in 0..n {
                    rj[i] += qk[i] * bkj;
                }
            }
        }
    }
    // S = R Qᵀ, accumulate ‖A − S‖²
    let mut err = 0.0;
    for j in 0..n {
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += r[(i, k)] * q[(j, k)];
            }
            let d = a[(i, j)] - s;
            err += d * d;
        }
    }
    Ok(err.sqrt() / frob_norm(a).max(f64::MIN_POSITIVE))
}

/// `‖A − Aᵀ‖_F / ‖A‖_F`: symmetry defect.
pub fn sym_residual(a: &Mat) -> f64 {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let mut s = 0.0;
    for j in 0..n {
        for i in (j + 1)..n {
            let d = a[(i, j)] - a[(j, i)];
            s += 2.0 * d * d;
        }
    }
    s.sqrt() / frob_norm(a).max(f64::MIN_POSITIVE)
}

/// Maximum relative eigenvalue error between two *sorted* spectra, scaled by
/// the spectral spread (LAPACK-style `|λ − λ̂| / (‖A‖)`).
///
/// A NaN in either spectrum makes the result NaN, so a `value <= tol`
/// check fails on it (`f64::max` would silently drop the NaN).
pub fn spectrum_error(exact: &[f64], computed: &[f64]) -> f64 {
    assert_eq!(exact.len(), computed.len());
    let scale = exact
        .iter()
        .fold(0.0f64, |m, &x| m.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    exact.iter().zip(computed).fold(0.0f64, |m, (&x, &y)| {
        let d = (x - y).abs();
        if m.is_nan() || d <= m {
            m
        } else {
            d
        }
    }) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn frob_of_identity() {
        let i = Mat::identity(9);
        assert!((frob_norm(&i) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn orthogonality_of_identity_and_rotation() {
        assert!(orthogonality_residual(&Mat::identity(5)) < 1e-16);
        let (c, s) = (0.6, 0.8);
        let g = Mat::from_rows(2, 2, &[c, -s, s, c]);
        assert!(orthogonality_residual(&g) < 1e-15);
    }

    #[test]
    fn orthogonality_detects_non_orthogonal() {
        let mut m = Mat::identity(4);
        m[(0, 1)] = 0.5;
        assert!(orthogonality_residual(&m) > 0.1);
    }

    #[test]
    fn similarity_identity_transform() {
        let a = gen::random_symmetric(12, 1);
        let q = Mat::identity(12);
        assert!(similarity_residual(&a, &q, &a) < 1e-15);
    }

    #[test]
    fn similarity_with_real_rotation() {
        // A = Q B Qᵀ with B = QᵀAQ must give ~0 residual
        let n = 10;
        let a = gen::random_symmetric(n, 2);
        let q = gen::random_orthogonal(n, 3);
        // B = Qᵀ A Q computed densely
        let mut aq = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[(i, k)] * q[(k, j)];
                }
                aq[(i, j)] = s;
            }
        }
        let mut b = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += q[(k, i)] * aq[(k, j)];
                }
                b[(i, j)] = s;
            }
        }
        assert!(similarity_residual(&a, &q, &b) < 1e-13);
    }

    #[test]
    fn sym_residual_zero_for_symmetric() {
        let a = gen::random_symmetric(8, 4);
        assert_eq!(sym_residual(&a), 0.0);
        let b = gen::random(8, 8, 5);
        assert!(sym_residual(&b) > 0.01);
    }

    #[test]
    fn spectrum_error_basics() {
        assert_eq!(spectrum_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((spectrum_error(&[1.0, 2.0], &[1.0, 2.1]) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn spectrum_error_propagates_nan() {
        let exact = [1.0, 2.0, 3.0];
        assert!(spectrum_error(&exact, &[1.0, f64::NAN, 3.0]).is_nan());
        assert!(spectrum_error(&exact, &[f64::NAN, 2.0, 3.0]).is_nan());
        assert!(spectrum_error(&exact, &[1.0, 2.0, f64::NAN]).is_nan());
        assert!(spectrum_error(&[1.0, f64::NAN, 3.0], &exact).is_nan());
    }

    #[test]
    fn max_abs_diff_views() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_rows(2, 2, &[1.0, 2.5, 3.0, 4.0]);
        assert!((max_abs_diff(&a, &b) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn residuals_on_one_by_one() {
        // n = 1: Q = [1] trivially orthogonal, A = QAQᵀ exactly.
        let a = Mat::from_rows(1, 1, &[3.5]);
        let q = Mat::identity(1);
        assert_eq!(orthogonality_residual(&q), 0.0);
        assert_eq!(similarity_residual(&a, &q, &a), 0.0);
        assert_eq!(spectrum_error(&[3.5], &[3.5]), 0.0);
    }

    #[test]
    fn residuals_on_two_by_two_rotation() {
        // n = 2 with a genuine rotation: the smallest case where the
        // off-diagonal terms of QᵀQ − I and A − QBQᵀ are exercised.
        let (c, s) = (0.6, 0.8);
        let q = Mat::from_rows(2, 2, &[c, -s, s, c]);
        assert!(orthogonality_residual(&q) < 1e-15);
        // B = Qᵀ A Q for a diagonal A; similarity must close the loop.
        let a = Mat::from_rows(2, 2, &[2.0, 0.0, 0.0, -1.0]);
        let mut b = Mat::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = 0.0;
                for p in 0..2 {
                    acc += q[(p, i)] * a[(p, p)] * q[(p, j)];
                }
                b[(i, j)] = acc;
            }
        }
        assert!(similarity_residual(&a, &q, &b) < 1e-15);
    }

    #[test]
    fn residuals_on_all_zero_matrix_are_finite() {
        // ‖A‖ = 0 must not divide by zero: the guards clamp the
        // denominator, so the residual is 0 (exact) rather than NaN.
        let z = Mat::zeros(4, 4);
        let q = Mat::identity(4);
        let r = similarity_residual(&z, &q, &z);
        assert!(r.is_finite() && r == 0.0, "{r}");
        let r = sym_residual(&z);
        assert!(r.is_finite() && r == 0.0, "{r}");
        // All-zero Q is maximally non-orthogonal but still finite.
        assert!((orthogonality_residual(&Mat::zeros(4, 4)) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn try_similarity_residual_rejects_non_square_shapes() {
        let a = Mat::zeros(4, 4);
        let q_bad = Mat::zeros(4, 3);
        let b = Mat::zeros(4, 4);
        let err = try_similarity_residual(&a, &q_bad, &b).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('q') && msg.contains("4x3"), "{msg}");

        let b_bad = Mat::zeros(3, 3);
        assert!(try_similarity_residual(&a, &Mat::identity(4), &b_bad).is_err());
        assert!(try_similarity_residual(&a, &Mat::identity(4), &b).is_ok());
    }

    #[test]
    #[should_panic(expected = "similarity_residual")]
    fn similarity_residual_panics_with_context_on_misuse() {
        let _ = similarity_residual(&Mat::zeros(3, 3), &Mat::zeros(3, 2), &Mat::zeros(3, 3));
    }
}
