//! Implicit QL iteration for symmetric tridiagonal matrices —
//! `dsteqr`/`dsterf` analogues (QR algorithm of the paper's §7.2).
//!
//! The implementation follows the classic `tql2` scheme: Wilkinson-shifted
//! implicit QL steps applied blockwise between negligible off-diagonals,
//! with plane rotations optionally accumulated into an eigenvector matrix.

use crate::EigenError;
use tg_matrix::{Mat, Tridiagonal};

const MAX_SWEEPS_PER_EIGENVALUE: usize = 50;

/// Eigenvalues (ascending) of a symmetric tridiagonal matrix, no vectors
/// (`dsterf` analogue).
pub fn sterf(t: &Tridiagonal) -> Result<Vec<f64>, EigenError> {
    let mut d = t.d.clone();
    let mut e = t.e.clone();
    ql_iterate(&mut d, &mut e, None)?;
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Ok(d)
}

/// Eigenvalues (ascending) and eigenvectors of a symmetric tridiagonal
/// matrix (`dsteqr` analogue). Column `k` of the returned matrix is the
/// eigenvector for eigenvalue `k`.
pub fn steqr(t: &Tridiagonal) -> Result<(Vec<f64>, Mat), EigenError> {
    let n = t.n();
    let mut d = t.d.clone();
    let mut e = t.e.clone();
    let mut z = Mat::identity(n);
    ql_iterate(&mut d, &mut e, Some(&mut z))?;
    // sort ascending, permuting vector columns
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap());
    let sorted: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let mut zs = Mat::zeros(n, n);
    for (kcol, &i) in idx.iter().enumerate() {
        zs.col_mut(kcol).copy_from_slice(z.col(i));
    }
    Ok((sorted, zs))
}

/// Core implicit-QL iteration. `d` (length n) and `e` (length n−1) are
/// overwritten; `e` ends up ~0. `z`, if given, accumulates rotations from
/// the right (`z.ncols() == n`).
fn ql_iterate(d: &mut [f64], e_io: &mut [f64], mut z: Option<&mut Mat>) -> Result<(), EigenError> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }
    assert_eq!(e_io.len(), n - 1);
    if let Some(z) = z.as_deref() {
        assert_eq!(z.ncols(), n);
    }
    let eps = f64::EPSILON;
    // pad e with a scratch slot (EISPACK convention): e[n-1] is written by
    // the rotation recurrence but never read as data
    let mut e = Vec::with_capacity(n);
    e.extend_from_slice(e_io);
    e.push(0.0);
    let e = &mut e[..];

    for l in 0..n {
        let mut iter = 0;
        loop {
            // find the first negligible off-diagonal at or after l
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] converged
            }
            iter += 1;
            if iter > MAX_SWEEPS_PER_EIGENVALUE {
                return Err(EigenError::NoConvergence { index: l });
            }
            // Wilkinson shift from the leading 2×2 of the block
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + copysign_nonzero(r, g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // recover: deflate by annihilating this rotation chain
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = z.as_deref_mut() {
                    // right-multiply by the rotation in plane (i, i+1)
                    let rows = z.nrows();
                    for k in 0..rows {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            // the step decoupled the block from d[m+1..]; clear the edge
            e[m] = 0.0;
        }
    }
    e_io.copy_from_slice(&e[..n - 1]);
    Ok(())
}

#[inline]
fn copysign_nonzero(mag: f64, sign: f64) -> f64 {
    if sign >= 0.0 {
        mag.abs()
    } else {
        -mag.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;

    #[test]
    fn laplacian_exact_eigenvalues() {
        for n in [2usize, 3, 8, 33, 64] {
            let t = gen::laplacian_1d(n);
            let eigs = sterf(&t).unwrap();
            let exact = gen::laplacian_1d_eigs(n);
            assert!(
                tg_matrix::norms::spectrum_error(&exact, &eigs) < 1e-13,
                "n = {n}"
            );
        }
    }

    #[test]
    fn steqr_eigenpairs_residual() {
        let n = 40;
        let t = gen::random_tridiagonal(n, 7);
        let (eigs, z) = steqr(&t).unwrap();
        assert!(tg_matrix::orthogonality_residual(&z) < 1e-13);
        // T z_k = λ_k z_k
        let dense = t.to_dense();
        for (k, &lam) in eigs.iter().enumerate() {
            let zk = z.col(k);
            for i in 0..n {
                let mut s = 0.0;
                for j in 0..n {
                    s += dense[(i, j)] * zk[j];
                }
                assert!((s - lam * zk[i]).abs() < 1e-11, "residual at ({i},{k})");
            }
        }
        // ascending order
        assert!(eigs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn diagonal_matrix_identity_vectors() {
        let t = Tridiagonal::new(vec![3.0, 1.0, 2.0], vec![0.0, 0.0]);
        let (eigs, z) = steqr(&t).unwrap();
        assert_eq!(eigs, vec![1.0, 2.0, 3.0]);
        // columns are ± unit vectors
        for k in 0..3 {
            let col = z.col(k);
            let nrm: f64 = col.iter().map(|x| x * x).sum();
            assert!((nrm - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn wilkinson_close_pairs_resolved() {
        let t = gen::wilkinson(21);
        let eigs = sterf(&t).unwrap();
        // W21+ has close (but distinct) pairs; largest ≈ 10.746
        assert!((eigs[20] - 10.746194182903393).abs() < 1e-9);
        assert!(eigs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sturm_agreement() {
        let t = gen::random_tridiagonal(30, 9);
        let eigs = sterf(&t).unwrap();
        for (k, &lam) in eigs.iter().enumerate() {
            assert!(t.sturm_count(lam - 1e-8) <= k);
            assert!(t.sturm_count(lam + 1e-8) > k);
        }
    }

    #[test]
    fn single_and_double() {
        let t1 = Tridiagonal::new(vec![5.0], vec![]);
        assert_eq!(sterf(&t1).unwrap(), vec![5.0]);
        let t2 = Tridiagonal::new(vec![0.0, 0.0], vec![1.0]);
        let e = sterf(&t2).unwrap();
        assert!((e[0] + 1.0).abs() < 1e-14 && (e[1] - 1.0).abs() < 1e-14);
    }
}
