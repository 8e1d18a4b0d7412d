//! The verification oracles, each checked on its own at the public API.
//!
//! `jacobi_evd` (the one solver that skips the reduction), Sturm-count
//! bisection, the QL (`sterf`/`steqr`) and divide-and-conquer (`stedc`)
//! tridiagonal solvers, and the unblocked `sytrd_unblocked` reference are
//! what every other suite measures the pipelines against. These tests pin
//! that each oracle is itself right: on closed-form spectra, through
//! backward residuals of its vectors, and against each other on matrices
//! built to be hard for one of them.

use tridiag_gpu::core::{sytrd_blocked, sytrd_unblocked};
use tridiag_gpu::eigen::{bisect, eigenvalues_by_index};
use tridiag_gpu::matrix::norms::spectrum_error;
use tridiag_gpu::prelude::*;

/// Dense `diag(λ)`.
fn diag(eigs: &[f64]) -> Mat {
    let n = eigs.len();
    Mat::from_fn(n, n, |i, j| if i == j { eigs[i] } else { 0.0 })
}

fn assert_ascending(eigs: &[f64], what: &str) {
    for (k, w) in eigs.windows(2).enumerate() {
        assert!(
            w[0] <= w[1],
            "{what}: not ascending at {k}: {} > {}",
            w[0],
            w[1]
        );
    }
}

/// Jacobi's eigenvectors are orthonormal and reconstruct the dense input.
#[test]
fn jacobi_vectors_diagonalize_dense_input() {
    for (n, seed) in [(17usize, 41u64), (40, 42)] {
        let a = gen::random_symmetric(n, seed);
        let (eigs, v) = jacobi_evd(&a).unwrap();
        assert_ascending(&eigs, "jacobi");
        assert!(
            orthogonality_residual(&v) < 1e-13,
            "n = {n}: V not orthonormal"
        );
        let res = similarity_residual(&a, &v, &diag(&eigs));
        assert!(res < 1e-13, "n = {n}: ‖A − VΛVᵀ‖/‖A‖ = {res:e}");
    }
}

/// Jacobi recovers a prescribed spectrum, repeated eigenvalues included.
#[test]
fn jacobi_recovers_prescribed_spectrum() {
    let mut eigs = vec![-3.0, -3.0, -1.0, 0.0, 0.5, 2.0, 2.0, 2.0, 7.0, 11.0];
    eigs.extend((0..14).map(|k| 0.25 * k as f64 - 1.5));
    let a = gen::with_spectrum(&eigs, 43);
    eigs.sort_by(f64::total_cmp);
    let got = jacobi_evd(&a).unwrap().0;
    let err = spectrum_error(&eigs, &got);
    assert!(err < 1e-13, "Jacobi vs prescribed spectrum: {err:e}");
}

/// Orders 0, 1 and 2 take Jacobi's early exit or a single rotation; both
/// must match the closed form.
#[test]
fn jacobi_small_orders_match_closed_form() {
    assert!(jacobi_evd(&Mat::zeros(0, 0)).unwrap().0.is_empty());

    let one = Mat::from_fn(1, 1, |_, _| -4.5);
    let (e1, v1) = jacobi_evd(&one).unwrap();
    assert_eq!(e1, vec![-4.5]);
    assert_eq!(v1[(0, 0)], 1.0);

    let (p, q, r) = (3.0, 1.5, -2.0);
    let two = Mat::from_fn(2, 2, |i, j| match (i, j) {
        (0, 0) => p,
        (1, 1) => r,
        _ => q,
    });
    let mid = 0.5 * (p + r);
    let rad = (0.25 * (p - r) * (p - r) + q * q).sqrt();
    let (e2, v2) = jacobi_evd(&two).unwrap();
    assert!((e2[0] - (mid - rad)).abs() < 1e-14, "{e2:?}");
    assert!((e2[1] - (mid + rad)).abs() < 1e-14, "{e2:?}");
    assert!(similarity_residual(&two, &v2, &diag(&e2)) < 1e-15);
}

/// Every `syevd` pipeline agrees with Jacobi on a dense input whose
/// spectrum spans twelve orders of magnitude.
#[test]
fn jacobi_agrees_with_syevd_on_graded_spectrum() {
    let n = 36;
    let eigs: Vec<f64> = (0..n)
        .map(|k| {
            let mag = 10f64.powf(-12.0 * k as f64 / (n - 1) as f64);
            if k % 2 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect();
    let a = gen::with_spectrum(&eigs, 44);
    let e_ja = jacobi_evd(&a).unwrap().0;
    for method in [
        EvdMethod::CusolverLike { nb: 8 },
        EvdMethod::MagmaLike { b: 4 },
        EvdMethod::proposed_default(n),
    ] {
        let e = syevd(&mut a.clone(), &method, false).unwrap().eigenvalues;
        let err = spectrum_error(&e_ja, &e);
        assert!(err < 1e-12, "{method:?} vs Jacobi: {err:e}");
    }
}

/// Bisection by index returns exactly the matching slice of the full
/// spectrum: each eigenvalue is bisected independently of the others.
#[test]
fn bisect_index_ranges_are_slices_of_the_full_spectrum() {
    let t = gen::random_tridiagonal(40, 45);
    let all = bisect::eigenvalues(&t);
    assert_eq!(all.len(), 40);
    assert_ascending(&all, "bisect");
    for (lo, hi) in [(0usize, 0usize), (0, 1), (7, 19), (39, 40), (0, 40)] {
        assert_eq!(
            eigenvalues_by_index(&t, lo, hi),
            all[lo..hi].to_vec(),
            "{lo}..{hi}"
        );
    }
}

/// Each bisected eigenvalue sits where the Sturm count steps past its
/// index: the bracketing guarantee that makes bisection an oracle.
#[test]
fn sturm_counts_bracket_every_bisected_eigenvalue() {
    let t = gen::tight_binding_1d(50, 1.0, 3.0, 46);
    let eigs = bisect::eigenvalues(&t);
    let (glo, ghi) = t.gershgorin();
    let delta = 1e-9 * glo.abs().max(ghi.abs());
    for (k, &lam) in eigs.iter().enumerate() {
        assert!(t.sturm_count(lam - delta) <= k, "count below λ_{k}");
        assert!(t.sturm_count(lam + delta) > k, "count above λ_{k}");
    }
    assert_eq!(t.sturm_count(glo - delta), 0);
    assert_eq!(t.sturm_count(ghi + delta), 50);
}

/// Wilkinson's W₂₁⁺ has eigenvalue pairs that agree to many digits; QL,
/// divide and conquer and bisection must still resolve the same values.
#[test]
fn tridiagonal_solvers_resolve_wilkinson_pairs() {
    let t = gen::wilkinson(21);
    let e_bi = bisect::eigenvalues(&t);
    let e_qr = sterf(&t).unwrap();
    let e_dc = stedc(&t).unwrap().0;
    assert!(spectrum_error(&e_bi, &e_qr) < 1e-14, "sterf vs bisect");
    assert!(spectrum_error(&e_bi, &e_dc) < 1e-14, "stedc vs bisect");
    // the top pair is distinct but within 1e-13 of each other
    let gap = e_bi[20] - e_bi[19];
    assert!(gap > 0.0 && gap < 1e-13, "top pair gap {gap:e}");
}

/// Blocks coupled by `1e-12` deflate almost completely in divide and
/// conquer; the three tridiagonal solvers must agree anyway.
#[test]
fn tridiagonal_solvers_agree_on_glued_blocks() {
    let t = gen::glued(9, 6, 1e-12);
    let e_bi = bisect::eigenvalues(&t);
    let e_qr = sterf(&t).unwrap();
    let (e_dc, v_dc) = stedc(&t).unwrap();
    assert!(spectrum_error(&e_bi, &e_qr) < 1e-14, "sterf vs bisect");
    assert!(spectrum_error(&e_bi, &e_dc) < 1e-14, "stedc vs bisect");
    assert!(orthogonality_residual(&v_dc) < 1e-13, "stedc vectors");
}

/// `steqr`'s eigenvectors are orthonormal and reconstruct `T`, and its
/// eigenvalues are `sterf`'s.
#[test]
fn steqr_vectors_diagonalize_tridiagonal() {
    let t = gen::random_tridiagonal(60, 47);
    let (eigs, v) = steqr(&t).unwrap();
    assert_ascending(&eigs, "steqr");
    assert!(spectrum_error(&sterf(&t).unwrap(), &eigs) < 1e-14);
    assert!(orthogonality_residual(&v) < 1e-13);
    let res = similarity_residual(&t.to_dense(), &v, &diag(&eigs));
    assert!(res < 1e-13, "‖T − VΛVᵀ‖/‖T‖ = {res:e}");
}

/// `stedc`'s eigenvectors are orthonormal and reconstruct a disordered
/// tight-binding Hamiltonian large enough to recurse.
#[test]
fn stedc_vectors_diagonalize_tight_binding() {
    let t = gen::tight_binding_1d(96, 1.0, 2.0, 48);
    let (eigs, v) = stedc(&t).unwrap();
    assert_ascending(&eigs, "stedc");
    assert!(spectrum_error(&bisect::eigenvalues(&t), &eigs) < 1e-13);
    assert!(orthogonality_residual(&v) < 1e-12);
    let res = similarity_residual(&t.to_dense(), &v, &diag(&eigs));
    assert!(res < 1e-12, "‖T − VΛVᵀ‖/‖T‖ = {res:e}");
}

/// The unblocked reduction is an orthogonal similarity: `A = Q T Qᵀ`.
#[test]
fn sytrd_unblocked_is_an_orthogonal_similarity() {
    let n = 30;
    let a = gen::random_symmetric(n, 49);
    let red = sytrd_unblocked(&mut a.clone());
    assert_eq!(red.tri.n(), n);
    let q = red.form_q();
    assert!(orthogonality_residual(&q) < 1e-14);
    let res = similarity_residual(&a, &q, &red.tri.to_dense());
    assert!(res < 1e-14, "‖A − QTQᵀ‖/‖A‖ = {res:e}");
    let e_ja = jacobi_evd(&a).unwrap().0;
    assert!(spectrum_error(&e_ja, &sterf(&red.tri).unwrap()) < 1e-13);
}

/// The blocked reduction applies the same reflectors as the unblocked
/// one, so both produce the same `T` up to rounding.
#[test]
fn sytrd_blocked_matches_unblocked_reference() {
    let n = 45;
    let a = gen::random_symmetric(n, 50);
    let reference = sytrd_unblocked(&mut a.clone());
    for nb in [1usize, 4, 16] {
        let red = sytrd_blocked(&mut a.clone(), nb);
        for i in 0..n {
            let dd = (red.tri.d[i] - reference.tri.d[i]).abs();
            assert!(dd < 1e-12, "nb = {nb}: d[{i}] differs by {dd:e}");
        }
        for i in 0..n - 1 {
            let de = (red.tri.e[i].abs() - reference.tri.e[i].abs()).abs();
            assert!(de < 1e-12, "nb = {nb}: |e[{i}]| differs by {de:e}");
        }
    }
}

/// The blocked `Q` apply (the `dormtr` analogue) matches the explicit `Q`
/// of the unblocked reference for every block width.
#[test]
fn sytrd_apply_q_left_matches_form_q() {
    let n = 26;
    let a = gen::random_symmetric(n, 51);
    let red = sytrd_unblocked(&mut a.clone());
    let q = red.form_q();
    for nb in [1usize, 3, 8, 32] {
        let mut c = Mat::identity(n);
        red.apply_q_left(&mut c.as_mut(), nb);
        let diff = tridiag_gpu::matrix::norms::max_abs_diff(&q, &c);
        assert!(diff < 1e-14, "nb = {nb}: max |Q − Q·I| = {diff:e}");
    }
}
