//! Degenerate and boundary geometry through every public pipeline:
//! tiny matrices, extreme block parameters, and parameter/size mismatches.

use tridiag_gpu::prelude::*;

#[test]
fn tiny_matrices_all_pipelines() {
    for n in [0usize, 1, 2, 3, 4] {
        let a = gen::random_symmetric(n, n as u64);
        for m in [
            Method::Direct { nb: 2 },
            Method::Sbr {
                b: 1,
                parallel_sweeps: 2,
            },
            Method::Dbbr {
                cfg: DbbrConfig::new(1, 2),
                parallel_sweeps: 2,
            },
            Method::paper_default(n),
        ] {
            let mut w = a.clone();
            let red = tridiagonalize(&mut w, &m);
            assert_eq!(red.tri.n(), n);
            if n > 1 {
                let q = red.form_q();
                assert!(
                    similarity_residual(&a, &q, &red.tri.to_dense()) < 1e-12,
                    "n={n} {m:?}"
                );
            }
        }
    }
}

#[test]
fn block_parameters_exceeding_size() {
    let n = 10;
    let a = gen::random_symmetric(n, 77);
    // nb ≫ n for direct; b close to n for two-stage; k ≫ n for DBBR
    for m in [
        Method::Direct { nb: 64 },
        Method::Sbr {
            b: n - 1,
            parallel_sweeps: 4,
        },
        Method::Sbr {
            b: n + 5,
            parallel_sweeps: 1,
        },
        Method::Dbbr {
            cfg: DbbrConfig::new(3, 300),
            parallel_sweeps: 64,
        },
    ] {
        let mut w = a.clone();
        let red = tridiagonalize(&mut w, &m);
        let q = red.form_q();
        assert!(
            similarity_residual(&a, &q, &red.tri.to_dense()) < 1e-11,
            "{m:?}"
        );
    }
}

#[test]
fn bc_bandwidth_one_and_huge() {
    // bandwidth 1: already tridiagonal, zero work
    let t = gen::random_tridiagonal(12, 3);
    let band = SymBand::from_dense_lower(&t.to_dense(), 1);
    let r = bulge_chase_pipelined(&band, 7);
    assert_eq!(r.reflector_count(), 0);
    assert_eq!(r.tri.d, t.d);
    // bandwidth n−1: fully dense in band form
    let n = 9;
    let dense = gen::random_symmetric(n, 5);
    let band = SymBand::from_dense_lower(&dense, n - 1);
    let r = bulge_chase_seq(&band);
    let q = r.form_q(n);
    assert!(similarity_residual(&dense, &q, &r.tri.to_dense()) < 1e-12);
}

#[test]
fn evd_of_1x1_and_2x2() {
    let mut a1 = Mat::from_rows(1, 1, &[3.5]);
    let e = syevd(&mut a1, &EvdMethod::CusolverLike { nb: 1 }, true).unwrap();
    assert_eq!(e.eigenvalues, vec![3.5]);

    let a2 = Mat::from_rows(2, 2, &[2.0, 1.0, 1.0, 2.0]);
    let e = syevd(&mut a2.clone(), &EvdMethod::MagmaLike { b: 1 }, true).unwrap();
    assert!((e.eigenvalues[0] - 1.0).abs() < 1e-14);
    assert!((e.eigenvalues[1] - 3.0).abs() < 1e-14);
    assert!(e.residual(&a2) < 1e-14);
}

#[test]
#[should_panic]
fn gemm_dimension_mismatch_panics() {
    use tridiag_gpu::blas::{gemm, Op};
    let a = gen::random(3, 4, 1);
    let b = gen::random(5, 2, 2); // inner dims 4 vs 5
    let mut c = Mat::zeros(3, 2);
    gemm(
        1.0,
        &a.as_ref(),
        Op::NoTrans,
        &b.as_ref(),
        Op::NoTrans,
        0.0,
        &mut c.as_mut(),
    );
}

#[test]
#[should_panic]
fn syr2k_non_square_c_panics() {
    use tridiag_gpu::blas::syr2k_blocked;
    let a = gen::random(4, 2, 1);
    let b = gen::random(4, 2, 2);
    let mut c = Mat::zeros(4, 5);
    syr2k_blocked(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut(), 2);
}

#[test]
#[should_panic]
fn band_storage_too_small_panics() {
    let _ = SymBand::with_storage(8, 3, 3); // ldab must exceed kd
}

#[test]
fn backtransform_width_one_factors() {
    use tridiag_gpu::core::backtransform::{
        apply_blocks_panels, apply_q1, merge_q1_blocked_ws, release_blocks,
    };
    use tridiag_gpu::core::{AllocPool, PanelPools};
    // b = 1 band reduction: every WY factor has a single column
    let n = 14;
    let a = gen::random_symmetric(n, 31);
    let red = band_reduce(&mut a.clone(), 1, 8);
    assert!(red.factors.iter().all(|(_, f)| f.width() == 1));
    let c0 = gen::random(n, 3, 32);
    let mut c1 = c0.clone();
    apply_q1(&red.factors, &mut c1, false);
    let mut c2 = c0.clone();
    let merged = merge_q1_blocked_ws(&red.factors, 4, &mut AllocPool);
    apply_blocks_panels(&merged, &mut c2, 1, &mut PanelPools::new());
    release_blocks(merged, &mut AllocPool);
    assert!(tridiag_gpu::matrix::max_abs_diff(&c1, &c2) < 1e-12);
}

#[test]
fn sweeps_beyond_hardware() {
    // more parallel sweeps than sweeps exist, and exactly n−2
    let n = 16;
    let b = 2;
    let dense = gen::random_symmetric_band(n, b, 8);
    let band = SymBand::from_dense_lower(&dense, b);
    let reference = bulge_chase_seq(&band);
    for s in [n - 2, n, 1000] {
        let r = bulge_chase_pipelined(&band, s);
        assert_eq!(r.tri.d, reference.tri.d, "S={s}");
    }
}

#[test]
fn generators_accept_degenerate_sizes() {
    assert_eq!(gen::random_symmetric(0, 1).nrows(), 0);
    assert_eq!(gen::laplacian_1d(1).n(), 1);
    assert_eq!(gen::random_tridiagonal(0, 1).n(), 0);
    let t = gen::tight_binding_1d(1, 1.0, 0.5, 2);
    assert_eq!(t.e.len(), 0);
}

/// n ∈ {0, 1, 2, 3} through every EVD pipeline, values and vectors: an
/// empty matrix gives the empty result, and the tiny ones give the
/// spectrum the direct pipeline computes.
#[test]
fn empty_and_tiny_matrices_every_evd_method() {
    for n in 0..4usize {
        let a = gen::random_symmetric(n, 40 + n as u64);
        let methods = [
            EvdMethod::CusolverLike { nb: 32 },
            EvdMethod::MagmaLike { b: 2 },
            EvdMethod::proposed_default(n),
        ];
        let reference = syevd(&mut a.clone(), &methods[0], false).unwrap();
        assert_eq!(reference.eigenvalues.len(), n);
        for m in &methods {
            for want_vectors in [false, true] {
                let e = syevd(&mut a.clone(), m, want_vectors)
                    .unwrap_or_else(|err| panic!("n={n} {m:?}: {err}"));
                assert_eq!(e.eigenvalues.len(), n, "n={n} {m:?}");
                for (x, y) in e.eigenvalues.iter().zip(&reference.eigenvalues) {
                    assert!((x - y).abs() < 1e-12, "n={n} {m:?}: {x} vs {y}");
                }
                assert_eq!(e.eigenvectors.is_some(), want_vectors);
                if let Some(v) = &e.eigenvectors {
                    assert_eq!((v.nrows(), v.ncols()), (n, n), "n={n} {m:?}");
                    if n > 0 {
                        assert!(e.residual(&a) < 1e-12, "n={n} {m:?}");
                    }
                }
            }
        }
    }
}
