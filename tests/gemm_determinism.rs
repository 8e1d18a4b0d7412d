//! Thread-count determinism for the parallel packed GEMM and the syr2k
//! super-block grid.
//!
//! The parallel packed kernel partitions work over `ic`/`jc` strips only —
//! never over the `pc` (k-block) loop — so every `C` element accumulates
//! its partial sums in the same fixed order at every thread count. That is
//! a **bitwise** promise, the same one `bc_determinism.rs` makes for the
//! bulge-chasing pipeline: the thread interleaving may change, the
//! arithmetic may not. These tests hammer it with thread counts
//! `{1, 2, 4, 7}` (including a deliberately odd count that divides nothing)
//! across random shapes and transpose combinations.

use proptest::prelude::*;
use std::sync::Mutex;
use tridiag_gpu::blas::{self, gemm_packed_with_threads, syr2k_square, Op};
use tridiag_gpu::matrix::{gen, Mat};

/// Serializes the env-driven tests: `TG_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const THREAD_SWEEP: [usize; 3] = [2, 4, 7];

fn assert_bitwise_eq(a: &Mat, b: &Mat, ctx: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{ctx}: rows");
    assert_eq!(a.ncols(), b.ncols(), "{ctx}: cols");
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            assert!(
                a[(i, j)].to_bits() == b[(i, j)].to_bits(),
                "{ctx}: bit mismatch at ({i},{j}): {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

fn op_from(sel: usize) -> (Op, Op) {
    match sel % 4 {
        0 => (Op::NoTrans, Op::NoTrans),
        1 => (Op::NoTrans, Op::Trans),
        2 => (Op::Trans, Op::NoTrans),
        _ => (Op::Trans, Op::Trans),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `gemm_packed` is bitwise-identical across thread counts for random
    /// shapes and every transpose combination. `m > 128` forces several
    /// row strips, so the parallel driver genuinely partitions.
    #[test]
    fn packed_gemm_bitwise_across_thread_counts(
        m in 129usize..200,
        n in 1usize..40,
        k in 1usize..96,
        sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let (op_a, op_b) = op_from(sel);
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = gen::random(ar, ac, seed);
        let b = gen::random(br, bc, seed + 1);
        let c0 = gen::random(m, n, seed + 2);

        let mut c_serial = c0.clone();
        gemm_packed_with_threads(
            1.25, &a.as_ref(), op_a, &b.as_ref(), op_b, -0.5,
            &mut c_serial.as_mut(), 1,
        );
        for t in THREAD_SWEEP {
            let mut c_par = c0.clone();
            gemm_packed_with_threads(
                1.25, &a.as_ref(), op_a, &b.as_ref(), op_b, -0.5,
                &mut c_par.as_mut(), t,
            );
            for j in 0..n {
                for i in 0..m {
                    prop_assert!(
                        c_serial[(i, j)].to_bits() == c_par[(i, j)].to_bits(),
                        "bit mismatch at ({i},{j}) with {t} threads, \
                         {m}x{n}x{k} ({op_a:?},{op_b:?})"
                    );
                }
            }
        }
    }
}

/// The public `gemm` is bitwise-stable under `TG_THREADS`, which sets its
/// fan-out width, on a compute-bound square, a wide product of short rank
/// and a Trans×Trans product.
#[test]
fn gemm_dispatch_bitwise_across_tg_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    // (m, n, k, ops): compute-bound, rank 4, and Trans×Trans
    let shapes = [
        (160, 96, 64, Op::NoTrans, Op::NoTrans),
        (200, 200, 4, Op::NoTrans, Op::Trans), // rank 4: one short k-block
        (96, 80, 72, Op::Trans, Op::Trans),    // both operands transposed while packed
    ];
    for (m, n, k, op_a, op_b) in shapes {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = gen::random(ar, ac, 7000 + m as u64);
        let b = gen::random(br, bc, 7001 + n as u64);
        let c0 = gen::random(m, n, 7002 + k as u64);

        let mut reference: Option<Mat> = None;
        for t in [1usize, 2, 4, 7] {
            std::env::set_var("TG_THREADS", t.to_string());
            let mut c = c0.clone();
            blas::gemm(
                1.1,
                &a.as_ref(),
                op_a,
                &b.as_ref(),
                op_b,
                0.4,
                &mut c.as_mut(),
            );
            match &reference {
                None => reference = Some(c),
                Some(r) => assert_bitwise_eq(
                    r,
                    &c,
                    &format!("gemm {m}x{n}x{k} ({op_a:?},{op_b:?}) TG_THREADS={t}"),
                ),
            }
        }
    }
    std::env::remove_var("TG_THREADS");
}

/// `syr2k_square`'s 2D super-block grid: element-disjoint tasks, so thread
/// count never changes a bit; and the whole grid agrees with the
/// triple-loop reference numerically.
#[test]
fn syr2k_square_bitwise_across_tg_threads_and_matches_ref() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (n, k, nb, g) = (150, 24, 16, 2);
    let a = gen::random(n, k, 8100);
    let b = gen::random(n, k, 8101);
    let c0 = gen::random_symmetric(n, 8102);

    let mut c_ref = c0.clone();
    blas::level3::syr2k_ref(-1.0, &a.as_ref(), &b.as_ref(), 0.75, &mut c_ref.as_mut());

    let mut reference: Option<Mat> = None;
    for t in [1usize, 2, 4, 7] {
        std::env::set_var("TG_THREADS", t.to_string());
        let mut c = c0.clone();
        syr2k_square(-1.0, &a.as_ref(), &b.as_ref(), 0.75, &mut c.as_mut(), nb, g);
        // numeric agreement with the reference (lower triangle)
        for j in 0..n {
            for i in j..n {
                assert!(
                    (c[(i, j)] - c_ref[(i, j)]).abs() < 1e-10,
                    "syr2k mismatch vs ref at ({i},{j}) with TG_THREADS={t}"
                );
            }
            // upper triangle untouched
            for i in 0..j {
                assert_eq!(c[(i, j)], c0[(i, j)], "upper triangle touched at ({i},{j})");
            }
        }
        match &reference {
            None => reference = Some(c),
            Some(r) => assert_bitwise_eq(r, &c, &format!("syr2k_square TG_THREADS={t}")),
        }
    }
    std::env::remove_var("TG_THREADS");
}

/// `symm_lower` (three GEMMs per 128-wide block column) is bitwise-stable
/// between `TG_THREADS=1` and `2`: its below-diagonal GEMMs span several
/// row strips at `n = 300`, so the parallel driver genuinely partitions.
#[test]
fn symm_lower_bitwise_across_tg_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (n, k) = (300, 32);
    let a = gen::random_symmetric(n, 8200);
    let b = gen::random(n, k, 8201);
    let c0 = gen::random(n, k, 8202);
    let mut reference: Option<Mat> = None;
    for t in [1usize, 2] {
        std::env::set_var("TG_THREADS", t.to_string());
        let mut c = c0.clone();
        blas::level3::symm_lower(-0.7, &a.as_ref(), &b.as_ref(), 0.3, &mut c.as_mut());
        match &reference {
            None => reference = Some(c),
            Some(r) => assert_bitwise_eq(r, &c, &format!("symm_lower TG_THREADS={t}")),
        }
    }
    std::env::remove_var("TG_THREADS");
}
