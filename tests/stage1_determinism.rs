//! Thread-count and schedule determinism for the stage-1 look-ahead.
//!
//! The depth-1 look-ahead (PR 10) reorders *scheduling* only: the deferred
//! rank-2k trailing update is split by columns so the next panel's columns
//! finish first, and the next panel factorization runs on a dedicated
//! worker concurrently with the remainder of the update. Because the split
//! lands on a super-block boundary and every kernel keeps its serial inner
//! arithmetic, the result is a **bitwise** match for the serial path — at
//! every `TG_THREADS`, ragged or aligned panel grids. These tests are the enforcement of that contract, in the
//! same spirit as `gemm_determinism.rs` and `bc_determinism.rs`.

use proptest::prelude::*;
use std::sync::Mutex;
use tridiag_gpu::core::{dbbr, DbbrConfig};
use tridiag_gpu::prelude::*;

/// Serializes the env-driven tests: `TG_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Bitwise comparison of two band reductions: the band matrix and every
/// accumulated WY factor pair.
fn assert_reduction_bitwise_eq(
    a: &tridiag_gpu::core::BandReduction,
    b: &tridiag_gpu::core::BandReduction,
    ctx: &str,
) {
    let (xs, ys) = (a.band.as_slice(), b.band.as_slice());
    assert_eq!(xs.len(), ys.len(), "{ctx}: band storage size");
    for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{ctx}: band bit mismatch at flat index {i}: {x} vs {y}"
        );
    }
    assert_eq!(a.factors.len(), b.factors.len(), "{ctx}: factor count");
    for (p, ((o1, f1), (o2, f2))) in a.factors.iter().zip(&b.factors).enumerate() {
        assert_eq!(o1, o2, "{ctx}: factor {p} offset");
        for (m1, m2, what) in [(&f1.w, &f2.w, "W"), (&f1.y, &f2.y, "Y")] {
            assert_eq!(m1.nrows(), m2.nrows(), "{ctx}: factor {p} {what} rows");
            assert_eq!(m1.ncols(), m2.ncols(), "{ctx}: factor {p} {what} cols");
            for j in 0..m1.ncols() {
                for i in 0..m1.nrows() {
                    assert!(
                        m1[(i, j)].to_bits() == m2[(i, j)].to_bits(),
                        "{ctx}: factor {p} {what} bit mismatch at ({i},{j})"
                    );
                }
            }
        }
    }
}

fn cfg_pair(b: usize, k: usize) -> (DbbrConfig, DbbrConfig) {
    let mut serial = DbbrConfig::new(b, k);
    serial.nb_syr2k = 4; // small blocks so look-ahead engages at test sizes
    serial.lookahead = false;
    let mut la = serial.clone();
    la.lookahead = true;
    (serial, la)
}

/// Look-ahead is bitwise-identical to the serial deferred update at every
/// `TG_THREADS`, on aligned and ragged (`n % k ≠ 0`, `n % b ≠ 0`) panel
/// grids. The serial reference is computed once at one thread — so this
/// also re-asserts that the serial path itself is thread-count invariant.
#[test]
fn lookahead_bitwise_across_tg_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    for &(n, b, k, seed) in &[
        (64usize, 4usize, 8usize, 41u64),
        (57, 4, 12, 42), // ragged: 57 % 12 ≠ 0, last block short
        (50, 3, 6, 43),  // ragged: 50 % 6 ≠ 0 and 50 % 3 ≠ 0
    ] {
        let a0 = gen::random_symmetric(n, seed);
        let (serial_cfg, la_cfg) = cfg_pair(b, k);

        std::env::set_var("TG_THREADS", "1");
        let reference = dbbr(&mut a0.clone(), &serial_cfg);

        for t in [1usize, 2, 4, 7] {
            std::env::set_var("TG_THREADS", t.to_string());
            let la = dbbr(&mut a0.clone(), &la_cfg);
            assert_reduction_bitwise_eq(
                &reference,
                &la,
                &format!("lookahead n={n} b={b} k={k} TG_THREADS={t}"),
            );
            let serial = dbbr(&mut a0.clone(), &serial_cfg);
            assert_reduction_bitwise_eq(
                &reference,
                &serial,
                &format!("serial n={n} b={b} k={k} TG_THREADS={t}"),
            );
        }
    }
    std::env::remove_var("TG_THREADS");
}

/// The single-blocking SBR path has no look-ahead knob and must be left
/// untouched by the PR-10 machinery: bitwise thread-count invariance of
/// its full reduction, exactly as before.
#[test]
fn sbr_path_unaffected_across_tg_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (n, b) = (52, 4);
    let a0 = gen::random_symmetric(n, 45);
    let mut reference: Option<Vec<u64>> = None;
    for t in [1usize, 2, 4, 7] {
        std::env::set_var("TG_THREADS", t.to_string());
        let red = tridiagonalize(
            &mut a0.clone(),
            &Method::Sbr {
                b,
                parallel_sweeps: 1,
            },
        );
        let bits: Vec<u64> = red
            .tri
            .d
            .iter()
            .chain(red.tri.e.iter())
            .map(|x| x.to_bits())
            .collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "SBR tridiagonal drifted at TG_THREADS={t}"),
        }
    }
    std::env::remove_var("TG_THREADS");
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Differential property with look-ahead **on**: the full two-stage
    /// pipeline through the look-ahead DBBR yields the same spectrum (via
    /// QL on the tridiagonal form) as the direct one-stage reduction.
    #[test]
    fn lookahead_spectrum_matches_direct_via_sterf(
        n in 24usize..72,
        bk in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (b, k) = [(2usize, 4usize), (3, 6), (4, 8)][bk];
        let a = gen::random_symmetric(n, seed);

        let direct = {
            let red = tridiagonalize(&mut a.clone(), &Method::Direct { nb: 4 });
            sterf(&red.tri).expect("QL failed on direct path")
        };
        let (_, la_cfg) = cfg_pair(b, k);
        let lookahead = {
            let red = tridiagonalize(
                &mut a.clone(),
                &Method::Dbbr { cfg: la_cfg, parallel_sweeps: 2 },
            );
            sterf(&red.tri).expect("QL failed on look-ahead path")
        };

        let scale = direct.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        let tol = 64.0 * n as f64 * f64::EPSILON * scale;
        prop_assert_eq!(direct.len(), lookahead.len());
        for (i, (d, l)) in direct.iter().zip(&lookahead).enumerate() {
            prop_assert!(
                (d - l).abs() <= tol,
                "eigenvalue {} differs: {} vs {} (n={}, b={}, k={})",
                i, d, l, n, b, k
            );
        }
    }
}
