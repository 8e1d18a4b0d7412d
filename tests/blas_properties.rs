//! Property-based tests over the BLAS substrate: algebraic identities that
//! must hold for any shape and data.

use proptest::prelude::*;
use tridiag_gpu::blas::{self, gemm, gemm_into, gemm_packed, Op};
use tridiag_gpu::matrix::{gen, max_abs_diff, Mat};

fn naive_gemm(a: &Mat, op_a: Op, b: &Mat, op_b: Op) -> Mat {
    let m = if op_a == Op::NoTrans {
        a.nrows()
    } else {
        a.ncols()
    };
    let k = if op_a == Op::NoTrans {
        a.ncols()
    } else {
        a.nrows()
    };
    let n = if op_b == Op::NoTrans {
        b.ncols()
    } else {
        b.nrows()
    };
    Mat::from_fn(m, n, |i, j| {
        (0..k)
            .map(|l| {
                let x = if op_a == Op::NoTrans {
                    a[(i, l)]
                } else {
                    a[(l, i)]
                };
                let y = if op_b == Op::NoTrans {
                    b[(l, j)]
                } else {
                    b[(j, l)]
                };
                x * y
            })
            .sum()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both GEMM kernels match the naive triple loop for any shape/ops.
    #[test]
    fn gemm_kernels_match_naive(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in proptest::bool::ANY,
        tb in proptest::bool::ANY,
        seed in 0u64..500,
    ) {
        let op_a = if ta { Op::Trans } else { Op::NoTrans };
        let op_b = if tb { Op::Trans } else { Op::NoTrans };
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let a = gen::random(ar, ac, seed);
        let b = gen::random(br, bc, seed + 1);
        let expect = naive_gemm(&a, op_a, &b, op_b);
        let got = gemm_into(1.0, &a.as_ref(), op_a, &b.as_ref(), op_b);
        prop_assert!(max_abs_diff(&got, &expect) < 1e-10);
        let mut packed = Mat::zeros(m, n);
        gemm_packed(1.0, &a.as_ref(), op_a, &b.as_ref(), op_b, 0.0, &mut packed.as_mut());
        prop_assert!(max_abs_diff(&packed, &expect) < 1e-10);
    }

    /// GEMM is linear in α and distributes over matrix addition.
    #[test]
    fn gemm_linearity(m in 1usize..16, n in 1usize..16, k in 1usize..16, seed in 0u64..200) {
        let a = gen::random(m, k, seed);
        let b1 = gen::random(k, n, seed + 1);
        let b2 = gen::random(k, n, seed + 2);
        // A(B1 + B2) == AB1 + AB2
        let mut bsum = b1.clone();
        for (x, y) in bsum.as_mut_slice().iter_mut().zip(b2.as_slice()) {
            *x += y;
        }
        let lhs = gemm_into(1.0, &a.as_ref(), Op::NoTrans, &bsum.as_ref(), Op::NoTrans);
        let mut rhs = gemm_into(1.0, &a.as_ref(), Op::NoTrans, &b1.as_ref(), Op::NoTrans);
        gemm(1.0, &a.as_ref(), Op::NoTrans, &b2.as_ref(), Op::NoTrans, 1.0, &mut rhs.as_mut());
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-10);
        // (2α)AB == 2(αAB)
        let two = gemm_into(2.0, &a.as_ref(), Op::NoTrans, &b1.as_ref(), Op::NoTrans);
        let one = gemm_into(1.0, &a.as_ref(), Op::NoTrans, &b1.as_ref(), Op::NoTrans);
        for j in 0..n {
            for i in 0..m {
                prop_assert!((two[(i, j)] - 2.0 * one[(i, j)]).abs() < 1e-11);
            }
        }
    }

    /// `(AB)ᵀ == BᵀAᵀ` through the transpose-op plumbing.
    #[test]
    fn gemm_transpose_identity(m in 1usize..20, n in 1usize..20, k in 1usize..20, seed in 0u64..200) {
        let a = gen::random(m, k, seed);
        let b = gen::random(k, n, seed + 3);
        let ab = gemm_into(1.0, &a.as_ref(), Op::NoTrans, &b.as_ref(), Op::NoTrans);
        let btat = gemm_into(1.0, &b.as_ref(), Op::Trans, &a.as_ref(), Op::Trans);
        prop_assert!(max_abs_diff(&ab.transpose(), &btat) < 1e-11);
    }

    /// All three syr2k blockings agree and preserve upper-triangle bytes.
    #[test]
    fn syr2k_variants_agree(
        n in 1usize..30,
        k in 1usize..10,
        nb in 1usize..12,
        seed in 0u64..200,
    ) {
        let a = gen::random(n, k, seed);
        let b = gen::random(n, k, seed + 1);
        let c0 = gen::random_symmetric(n, seed + 2);
        let mut c_ref = c0.clone();
        blas::level3::syr2k_ref(1.0, &a.as_ref(), &b.as_ref(), 0.5, &mut c_ref.as_mut());
        let mut c_blk = c0.clone();
        blas::syr2k_blocked(1.0, &a.as_ref(), &b.as_ref(), 0.5, &mut c_blk.as_mut(), nb);
        let mut c_sq = c0.clone();
        blas::syr2k_square(1.0, &a.as_ref(), &b.as_ref(), 0.5, &mut c_sq.as_mut(), nb, 2);
        for j in 0..n {
            for i in j..n {
                prop_assert!((c_blk[(i, j)] - c_ref[(i, j)]).abs() < 1e-10);
                prop_assert!((c_sq[(i, j)] - c_ref[(i, j)]).abs() < 1e-10);
            }
            for i in 0..j {
                prop_assert_eq!(c_blk[(i, j)], c0[(i, j)]);
                prop_assert_eq!(c_sq[(i, j)], c0[(i, j)]);
            }
        }
    }

    /// `symv` against the lower triangle equals dense `gemv` on the
    /// symmetrized matrix, and `nrm2` is scale-exact.
    #[test]
    fn level12_identities(n in 1usize..32, seed in 0u64..200) {
        let a = gen::random_symmetric(n, seed);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
        let mut y1 = vec![0.0; n];
        blas::level2::symv_lower(1.0, &a.as_ref(), &x, 0.0, &mut y1);
        let mut y2 = vec![0.0; n];
        blas::level2::gemv_n(1.0, &a.as_ref(), &x, 0.0, &mut y2);
        for (p, q) in y1.iter().zip(&y2) {
            prop_assert!((p - q).abs() < 1e-11);
        }
        let nrm = blas::level1::nrm2(&x);
        let scaled: Vec<f64> = x.iter().map(|v| v * 1e150).collect();
        prop_assert!((blas::level1::nrm2(&scaled) / 1e150 - nrm).abs() < 1e-12 * (1.0 + nrm));
    }
}

/// Largest `|x − y|` over the largest `|y|` (0 when `y` is empty or zero).
fn rel_diff(x: &Mat, y: &Mat) -> f64 {
    let scale = y.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if scale == 0.0 {
        max_abs_diff(x, y)
    } else {
        max_abs_diff(x, y) / scale
    }
}

/// The lower triangle of `full` with NaN planted in the strict upper
/// triangle, which `symm_lower` must never read.
fn lower_with_nan_upper(full: &Mat) -> Mat {
    let n = full.nrows();
    Mat::from_fn(n, n, |i, j| if i < j { f64::NAN } else { full[(i, j)] })
}

/// `symm_lower` — three GEMMs per 128-wide block column — against dense
/// GEMM on the mirrored matrix and against one `symv_lower` per column, on
/// both sides of every block edge.
#[test]
fn symm_lower_matches_dense_gemm_and_symv() {
    let (alpha, beta) = (1.3, 0.6);
    for n in [0usize, 1, 7, 127, 128, 129, 300] {
        for k in [1usize, 4, 32] {
            let seed = 9000 + 10 * n as u64 + k as u64;
            let full = gen::random_symmetric(n, seed);
            let low = lower_with_nan_upper(&full);
            let b = gen::random(n, k, seed + 1);
            let c0 = gen::random(n, k, seed + 2);

            let mut c = c0.clone();
            blas::level3::symm_lower(alpha, &low.as_ref(), &b.as_ref(), beta, &mut c.as_mut());
            assert!(
                c.as_slice().iter().all(|x| x.is_finite()),
                "n={n} k={k}: the NaN upper triangle leaked into C"
            );

            let p = naive_gemm(&full, Op::NoTrans, &b, Op::NoTrans);
            let dense = Mat::from_fn(n, k, |i, j| alpha * p[(i, j)] + beta * c0[(i, j)]);
            let err = rel_diff(&c, &dense);
            assert!(err <= 1e-13, "n={n} k={k}: vs dense GEMM {err:e}");

            let mut by_symv = c0.clone();
            for j in 0..k {
                blas::level2::symv_lower(alpha, &low.as_ref(), b.col(j), beta, by_symv.col_mut(j));
            }
            let err = rel_diff(&c, &by_symv);
            assert!(err <= 1e-13, "n={n} k={k}: vs per-column symv {err:e}");
        }
    }
}

/// BLAS `β`/`α` conventions: `β = 0` overwrites a NaN already in `C`
/// without reading it, `α = 0` leaves exactly `β·C`, and the caller's
/// scratch is dead on entry (NaN-filled scratch changes no bit).
#[test]
fn symm_lower_alpha_beta_and_scratch_conventions() {
    for n in [5usize, 129, 300] {
        let k = 4;
        let full = gen::random_symmetric(n, 9500 + n as u64);
        let low = lower_with_nan_upper(&full);
        let b = gen::random(n, k, 9501);

        let mut fresh = Mat::zeros(n, k);
        blas::level3::symm_lower(2.0, &low.as_ref(), &b.as_ref(), 0.0, &mut fresh.as_mut());
        let mut c = Mat::from_fn(n, k, |_, _| f64::NAN);
        blas::level3::symm_lower(2.0, &low.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut());
        assert_eq!(c, fresh, "n={n}: beta = 0 read the NaN in C");

        let w = blas::level3::SYMM_NB.min(n);
        let mut dirty = vec![f64::NAN; w * w];
        let mut c = Mat::zeros(n, k);
        let (a, bv) = (low.as_ref(), b.as_ref());
        blas::level3::symm_lower_ws(2.0, &a, &bv, 0.0, &mut c.as_mut(), &mut dirty);
        assert_eq!(c, fresh, "n={n}: scratch contents leaked into C");

        let c0 = gen::random(n, k, 9502);
        let mut c = c0.clone();
        blas::level3::symm_lower(0.0, &low.as_ref(), &b.as_ref(), 0.5, &mut c.as_mut());
        let halved = Mat::from_fn(n, k, |i, j| 0.5 * c0[(i, j)]);
        assert_eq!(c, halved, "n={n}: alpha = 0 must leave beta·C");

        let mut c = Mat::from_fn(n, k, |_, _| f64::NAN);
        blas::level3::symm_lower(0.0, &low.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut());
        assert!(c.as_slice().iter().all(|x| x.to_bits() == 0), "n={n}");
    }
}
