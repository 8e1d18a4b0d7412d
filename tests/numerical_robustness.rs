//! Numerical robustness: scaling extremes, ill conditioning, degeneracy,
//! and invariance properties of the full pipeline.

use tridiag_gpu::prelude::*;

fn proposed(n: usize) -> EvdMethod {
    let b = (n / 8).clamp(2, 8);
    EvdMethod::Proposed {
        b,
        k: 2 * b,
        parallel_sweeps: 3,
        backtransform_k: 4 * b,
        lookahead: true,
    }
}

/// Hilbert-like matrix: condition number grows explosively, eigenvalues
/// span many orders of magnitude — residuals must stay backward-stable.
#[test]
fn hilbert_matrix() {
    let n = 24;
    let a = Mat::from_fn(n, n, |i, j| 1.0 / ((i + j + 1) as f64));
    let evd = syevd(&mut a.clone(), &proposed(n), true).unwrap();
    assert!(evd.residual(&a) < 1e-12);
    assert!(orthogonality_residual(evd.eigenvectors.as_ref().unwrap()) < 1e-12);
    // Hilbert is positive definite: all eigenvalues > 0 within roundoff
    assert!(evd.eigenvalues.iter().all(|&x| x > -1e-14));
    // largest eigenvalue of H_24 is ≈ 1.79 (bounded by π historically)
    assert!(evd.eigenvalues[n - 1] > 1.2 && evd.eigenvalues[n - 1] < 2.0);
}

/// Extreme uniform scaling must not change relative accuracy.
#[test]
fn scale_invariance() {
    let n = 28;
    let base = gen::random_symmetric(n, 5);
    let reference = syevd(&mut base.clone(), &proposed(n), false)
        .unwrap()
        .eigenvalues;
    for &scale in &[1e100f64, 1e-100, 1e8, 1e-8] {
        let mut scaled = base.clone();
        for v in scaled.as_mut_slice() {
            *v *= scale;
        }
        let eigs = syevd(&mut scaled.clone(), &proposed(n), false)
            .unwrap()
            .eigenvalues;
        for (e, r) in eigs.iter().zip(&reference) {
            let expect = r * scale;
            assert!(
                (e - expect).abs() <= 1e-16 * scale * n as f64 + 1e-10 * scale,
                "scale {scale:e}: {e} vs {expect}"
            );
        }
    }
}

/// Low-rank matrix: n − r eigenvalues collapse to 0, the rest are exact.
#[test]
fn low_rank_matrix() {
    let n = 30;
    let r = 3;
    let q = gen::random_orthogonal(n, 7);
    let mut a = Mat::zeros(n, n);
    for c in 0..r {
        let lam = (c + 1) as f64 * 2.0;
        let qc = q.col(c).to_vec();
        for j in 0..n {
            for i in 0..n {
                a[(i, j)] += lam * qc[i] * qc[j];
            }
        }
    }
    a.mirror_lower();
    let evd = syevd(&mut a.clone(), &proposed(n), false).unwrap();
    let zeros = evd.eigenvalues.iter().filter(|x| x.abs() < 1e-10).count();
    assert_eq!(zeros, n - r, "rank deficiency not detected");
    assert!((evd.eigenvalues[n - 1] - 6.0).abs() < 1e-10);
    assert!((evd.eigenvalues[n - 2] - 4.0).abs() < 1e-10);
    assert!((evd.eigenvalues[n - 3] - 2.0).abs() < 1e-10);
}

/// A matrix with one n-fold eigenvalue plus a rank-one bump: classic full
/// deflation stress for divide & conquer.
#[test]
fn repeated_eigenvalue_plus_rank_one() {
    let n = 36;
    let mut a = Mat::identity(n);
    let u: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).sqrt()).collect();
    let unorm: f64 = u.iter().map(|x| x * x).sum();
    for j in 0..n {
        for i in 0..n {
            a[(i, j)] += u[i] * u[j] / unorm;
        }
    }
    let evd = syevd(&mut a.clone(), &proposed(n), true).unwrap();
    // spectrum: 1 with multiplicity n−1, and 2
    for k in 0..n - 1 {
        assert!((evd.eigenvalues[k] - 1.0).abs() < 1e-10, "λ_{k}");
    }
    assert!((evd.eigenvalues[n - 1] - 2.0).abs() < 1e-10);
    assert!(orthogonality_residual(evd.eigenvectors.as_ref().unwrap()) < 1e-11);
}

/// Zero and diagonal-constant matrices.
#[test]
fn trivial_spectra() {
    let n = 20;
    let evd = syevd(&mut Mat::zeros(n, n), &proposed(n), true).unwrap();
    assert!(evd.eigenvalues.iter().all(|&x| x.abs() < 1e-14));
    let mut c = Mat::identity(n);
    for v in c.as_mut_slice() {
        *v *= -7.5;
    }
    let evd = syevd(&mut c.clone(), &proposed(n), false).unwrap();
    assert!(evd.eigenvalues.iter().all(|&x| (x + 7.5).abs() < 1e-12));
}

/// Similarity invariance: a permutation similarity must not change the
/// spectrum at all (it is exact in floating point for the Sturm counts).
#[test]
fn permutation_similarity() {
    let n = 26;
    let a = gen::random_symmetric(n, 9);
    // reverse-permutation similarity
    let p = Mat::from_fn(n, n, |i, j| if i + j == n - 1 { 1.0 } else { 0.0 });
    let pa = tridiag_gpu::blas::gemm_into(
        1.0,
        &p.as_ref(),
        tridiag_gpu::blas::Op::NoTrans,
        &a.as_ref(),
        tridiag_gpu::blas::Op::NoTrans,
    );
    let b = tridiag_gpu::blas::gemm_into(
        1.0,
        &pa.as_ref(),
        tridiag_gpu::blas::Op::NoTrans,
        &p.as_ref(),
        tridiag_gpu::blas::Op::Trans,
    );
    let e1 = syevd(&mut a.clone(), &proposed(n), false)
        .unwrap()
        .eigenvalues;
    let e2 = syevd(&mut b.clone(), &proposed(n), false)
        .unwrap()
        .eigenvalues;
    for (x, y) in e1.iter().zip(&e2) {
        assert!((x - y).abs() < 1e-10);
    }
}

/// Four independent eigensolvers agree on the same tridiagonal matrix, and
/// on dense input every `syevd` pipeline agrees with Jacobi, the one
/// oracle that skips the reduction.
#[test]
fn four_solver_cross_check() {
    use tridiag_gpu::eigen::{bisect, jacobi_evd, stedc, steqr};
    use tridiag_gpu::matrix::norms::spectrum_error;
    let t = gen::random_tridiagonal(48, 21);
    let e_ql = steqr(&t).unwrap().0;
    let e_dc = stedc(&t).unwrap().0;
    let e_bi = bisect::eigenvalues(&t);
    let e_ja = jacobi_evd(&t.to_dense()).unwrap().0;
    for i in 0..48 {
        assert!((e_ql[i] - e_dc[i]).abs() < 1e-10, "QL vs DC at {i}");
        assert!((e_ql[i] - e_bi[i]).abs() < 1e-10, "QL vs bisect at {i}");
        assert!((e_ql[i] - e_ja[i]).abs() < 1e-10, "QL vs Jacobi at {i}");
    }

    for (n, seed) in [(24usize, 31u64), (64, 32), (96, 33)] {
        let a = gen::random_symmetric(n, seed);
        let e_ja = jacobi_evd(&a).unwrap().0;
        for method in [
            EvdMethod::CusolverLike { nb: 32 },
            EvdMethod::MagmaLike { b: 8 },
            EvdMethod::proposed_default(n),
        ] {
            let e = syevd(&mut a.clone(), &method, false).unwrap().eigenvalues;
            let err = spectrum_error(&e_ja, &e);
            assert!(err < 1e-10, "n = {n}, {method:?} vs Jacobi: {err:e}");
        }
    }
}

/// Negative-definite input: spectra mirror positive-definite behaviour.
#[test]
fn negative_definite() {
    let n = 22;
    let spd = gen::random_spd(n, 13);
    let mut neg = spd.clone();
    for v in neg.as_mut_slice() {
        *v = -*v;
    }
    let ep = syevd(&mut spd.clone(), &proposed(n), false)
        .unwrap()
        .eigenvalues;
    let en = syevd(&mut neg.clone(), &proposed(n), false)
        .unwrap()
        .eigenvalues;
    for i in 0..n {
        assert!((ep[i] + en[n - 1 - i]).abs() < 1e-9, "mirror at {i}");
    }
    assert!(en.iter().all(|&x| x < 0.0));
}

/// Band matrices of every bandwidth from 1 to n−1 reduce correctly.
#[test]
fn bandwidth_sweep() {
    let n = 18;
    for b in 1..n - 1 {
        let dense = gen::random_symmetric_band(n, b, b as u64);
        let band = SymBand::from_dense_lower(&dense, b);
        let res = bulge_chase_seq(&band);
        let q = res.form_q(n);
        assert!(
            similarity_residual(&dense, &q, &res.tri.to_dense()) < 1e-12,
            "bandwidth {b}"
        );
    }
}
