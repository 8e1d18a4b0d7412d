//! Differential test harness over every reduction path.
//!
//! Every tridiagonalization method — direct blocked (`sytrd`), two-stage
//! with single-blocking SBR, and double-blocking DBBR — is an orthogonal
//! similarity, so all of them must
//! produce the *same spectrum*. These properties reduce random symmetric
//! matrices through every path, solve each tridiagonal form with the QL
//! iteration (`sterf`, the eigenvalue core of `steqr`), and require the
//! spectra to agree within an `n·ε`-scaled tolerance.
//!
//! The number of cases per property honours `PROPTEST_CASES` (the nightly
//! CI job raises it to 256; the default keeps `cargo test` fast).

use proptest::prelude::*;
use tridiag_gpu::prelude::*;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// Every reduction path at a given band geometry.
fn all_methods(b: usize, k: usize, sweeps: usize) -> Vec<(&'static str, Method)> {
    vec![
        ("direct", Method::Direct { nb: b.max(2) }),
        (
            "sbr",
            Method::Sbr {
                b,
                parallel_sweeps: sweeps,
            },
        ),
        (
            "dbbr",
            Method::Dbbr {
                cfg: DbbrConfig::new(b, k),
                parallel_sweeps: sweeps,
            },
        ),
    ]
}

/// Reduce with `method`, then solve the tridiagonal form with QL.
fn spectrum_via(a: &Mat, method: &Method) -> Vec<f64> {
    let red = tridiagonalize(&mut a.clone(), method);
    sterf(&red.tri).expect("QL failed to converge")
}

/// Asserts two ascending spectra agree within `n·ε` scaled by the
/// spectral radius (LAPACK-style absolute eigenvalue error bound).
fn assert_spectra_match(n: usize, want: &[f64], got: &[f64], label: &str) {
    let scale = want.iter().chain(got).fold(1.0f64, |m, &x| m.max(x.abs()));
    // constant absorbs the accumulated reflector count of the deeper paths
    let tol = 64.0 * n as f64 * f64::EPSILON * scale;
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            (w - g).abs() <= tol,
            "{label}: eigenvalue {i}: {w} vs {g} (|Δ| = {:.3e} > tol {:.3e})",
            (w - g).abs(),
            tol
        );
    }
}

fn check_all_paths(n: usize, a: &Mat, b: usize, k: usize, sweeps: usize) {
    let methods = all_methods(b, k, sweeps);
    let reference = spectrum_via(a, &methods[0].1);
    assert!(
        reference.windows(2).all(|w| w[0] <= w[1]),
        "reference spectrum not ascending"
    );
    for (label, m) in &methods[1..] {
        let got = spectrum_via(a, m);
        assert_spectra_match(n, &reference, &got, label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Uniform random symmetric matrices, arbitrary geometry.
    #[test]
    fn all_reductions_agree_random(
        n in 6usize..48,
        b in 2usize..6,
        km in 1usize..5,
        sweeps in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let a = gen::random_symmetric(n, seed);
        check_all_paths(n, &a, b, b * km, sweeps);
    }

    /// Graded spectra (geometrically decaying eigenvalues over ~12 decades)
    /// — stresses the small-eigenvalue end of the QL iteration.
    #[test]
    fn all_reductions_agree_graded(
        n in 6usize..36,
        b in 2usize..5,
        km in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let eigs: Vec<f64> = (0..n).map(|i| 10f64.powf(-(12.0 * i as f64 / n as f64))).collect();
        let a = gen::with_spectrum(&eigs, seed);
        check_all_paths(n, &a, b, b * km, 2);
    }

    /// Clustered spectra (three tight clusters split by ~1e-9) — stresses
    /// deflation-adjacent behaviour without relying on D&C.
    #[test]
    fn all_reductions_agree_clustered(
        n in 9usize..36,
        b in 2usize..5,
        km in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let eigs: Vec<f64> = (0..n)
            .map(|i| (i % 3) as f64 + 1e-9 * (i / 3) as f64)
            .collect();
        let a = gen::with_spectrum(&eigs, seed);
        check_all_paths(n, &a, b, b * km, 3);
    }

    /// The full `syevd` drivers agree with each other too (eigenvalues
    /// through D&C rather than plain QL), so the differential property
    /// covers the complete pipelines, not just the reductions.
    #[test]
    fn evd_drivers_agree(n in 6usize..32, seed in 0u64..10_000) {
        let a = gen::random_symmetric(n, seed);
        let b = (n / 6).clamp(2, 4);
        let reference = syevd(&mut a.clone(), &EvdMethod::CusolverLike { nb: b }, true)
            .unwrap()
            .eigenvalues;
        for m in [
            EvdMethod::MagmaLike { b },
            EvdMethod::Proposed { b, k: 2 * b, parallel_sweeps: 2, backtransform_k: 4 * b, lookahead: true },
        ] {
            let got = syevd(&mut a.clone(), &m, true).unwrap().eigenvalues;
            assert_spectra_match(n, &reference, &got, &format!("{m:?}"));
        }
    }
}
