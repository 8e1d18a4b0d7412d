//! Parallel-vs-serial throughput floors for the three parallel drivers:
//! the packed GEMM, the blocked back transformation and the stage-1
//! look-ahead.
//!
//! Each floor is relative — the parallel path must keep at least 0.7× the
//! throughput of its own serial path, timed in the same process — so it
//! holds on a one-core runner too, where both sides run the same
//! arithmetic. It catches a broken driver (lock convoy, per-call respawn
//! storm, an allocating hot path), not a slow host. Every timed shape also
//! re-asserts the bitwise serial == parallel contract: a floor over a
//! wrong answer proves nothing.
//!
//! Timings need a release build and cores no other test is using:
//!
//! ```text
//! cargo test --release --test parallel_floors -- --ignored --test-threads=1
//! ```
//!
//! `TG_THREADS` sets the parallel side's worker count.

use std::time::Instant;
use tridiag_gpu::blas::{gemm_packed_with_threads, worker_threads, Op};
use tridiag_gpu::core::backtransform::{apply_blocks_panels, merge_q1_blocked_ws, release_blocks};
use tridiag_gpu::core::{AllocPool, BandReduction, PanelPools};
use tridiag_gpu::prelude::*;

/// Parallel throughput must stay at or above this share of serial.
const FLOOR: f64 = 0.7;

/// Times `serial` and `parallel` `reps` times each, interleaved and
/// alternating which side runs first, so a slow phase of a shared host
/// lands on both sides alike. Each run gets a fresh `setup()` value made
/// outside the timed window. Returns each side's median wall time and the
/// value its last run left behind.
fn timed_pair<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut serial: impl FnMut(&mut T),
    mut parallel: impl FnMut(&mut T),
) -> [(f64, T); 2] {
    let mut sides: [(Vec<f64>, Option<T>); 2] = Default::default();
    for r in 0..reps {
        for side in [r % 2, 1 - r % 2] {
            let mut x = setup();
            let t = Instant::now();
            if side == 0 {
                serial(&mut x)
            } else {
                parallel(&mut x)
            }
            sides[side].0.push(t.elapsed().as_secs_f64());
            sides[side].1 = Some(x);
        }
    }
    sides.map(|(mut ts, last)| {
        ts.sort_by(f64::total_cmp);
        (ts[ts.len() / 2], last.expect("at least one rep"))
    })
}

/// Fails unless `parallel` keeps [`FLOOR`] of `serial`'s throughput.
fn assert_floor(what: &str, serial_s: f64, parallel_s: f64) {
    let ratio = serial_s / parallel_s;
    println!("{what}: serial {serial_s:.3e} s, parallel {parallel_s:.3e} s, ratio {ratio:.2}");
    assert!(
        ratio >= FLOOR,
        "{what}: parallel throughput {ratio:.2}x serial, below the {FLOOR}x floor"
    );
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    if let Some(i) = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits()) {
        panic!("{what}: parallel diverged from serial at flat index {i}");
    }
}

/// Packed GEMM, `n × n × n`: packed-parallel ≥ 0.7× packed-serial, one
/// warm-up and one timed rep per side. The driver partitions over
/// `ic`/`jc` strips only and never splits the `pc` accumulation, so the
/// two must agree bitwise.
#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn packed_gemm_parallel_floor() {
    let threads = worker_threads();
    for n in [256, 512, 1024] {
        let a = gen::random(n, n, 21);
        let b = gen::random(n, n, 22);
        let c0 = gen::random(n, n, 23);
        let gemm = |c: &mut Mat, t: usize| {
            let (a, b) = (a.as_ref(), b.as_ref());
            gemm_packed_with_threads(
                1.0,
                &a,
                Op::NoTrans,
                &b,
                Op::NoTrans,
                0.0,
                &mut c.as_mut(),
                t,
            )
        };
        // One untimed call per side first, so neither timed side pays the
        // first-call costs (per-thread pack buffers, first page touches).
        gemm(&mut c0.clone(), 1);
        gemm(&mut c0.clone(), threads);
        let [(ts, serial), (tp, par)] =
            timed_pair(1, || c0.clone(), |c| gemm(c, 1), |c| gemm(c, threads));
        let what = format!("gemm n={n} threads={threads}");
        assert_bits_eq(serial.as_slice(), par.as_slice(), &what);
        assert_floor(&what, ts, tp);
    }
}

/// Blocked (Figure-13) back transformation at `(n, b, target_k)`:
/// blocked-parallel ≥ 0.7× blocked-serial, median of 3, bitwise equal,
/// with the panel lanes' scratch long-lived across shapes and reps.
#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn blocked_backtransform_parallel_floor() {
    let workers = worker_threads();
    let mut serial_pools = PanelPools::new();
    let mut par_pools = PanelPools::new();
    for (si, (n, b, target_k)) in [(192, 8, 64), (256, 16, 128)].into_iter().enumerate() {
        let mut a = gen::random_symmetric(n, 2900 + si as u64);
        let red = band_reduce(&mut a, b, 64);
        let c0 = gen::random(n, n, 3900 + si as u64);
        let apply = |c: &mut Mat, w: usize, pools: &mut PanelPools| {
            let merged = merge_q1_blocked_ws(&red.factors, target_k, &mut AllocPool);
            apply_blocks_panels(&merged, c, w, pools);
            release_blocks(merged, &mut AllocPool);
        };
        apply(&mut c0.clone(), 1, &mut serial_pools);
        apply(&mut c0.clone(), workers, &mut par_pools);

        let [(ts, serial), (tp, par)] = timed_pair(
            3,
            || c0.clone(),
            |c| apply(c, 1, &mut serial_pools),
            |c| apply(c, workers, &mut par_pools),
        );
        let what = format!("backtransform n={n} b={b} k={target_k} workers={workers}");
        assert_bits_eq(serial.as_slice(), par.as_slice(), &what);
        assert_floor(&what, ts, tp);
    }
}

/// Stage-1 DBBR at `(n, b, k)` with `nb_syr2k = 8` (so the look-ahead's
/// aligned split leaves work on both sides of the fence): look-ahead ≥
/// 0.7× the serial deferred update, median of 3, with the band and every
/// W/Y factor bitwise equal to an untimed serial reference.
#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn dbbr_lookahead_floor() {
    for (si, (n, b, k)) in [(192, 8, 32), (256, 8, 64)].into_iter().enumerate() {
        let a0 = gen::random_symmetric(n, 4900 + si as u64);
        let mut serial_cfg = DbbrConfig::new(b, k);
        serial_cfg.nb_syr2k = 8;
        serial_cfg.lookahead = false;
        let la_cfg = DbbrConfig {
            lookahead: true,
            ..serial_cfg.clone()
        };
        let reference = dbbr(&mut a0.clone(), &serial_cfg);
        let mut la: Option<BandReduction> = None;
        let [(ts, _), (tl, _)] = timed_pair(
            3,
            || a0.clone(),
            |a| {
                dbbr(a, &serial_cfg);
            },
            |a| la = Some(dbbr(a, &la_cfg)),
        );
        let la = la.expect("at least one rep");

        let what = format!("dbbr n={n} b={b} k={k}");
        assert_bits_eq(la.band.as_slice(), reference.band.as_slice(), &what);
        assert_eq!(la.factors.len(), reference.factors.len(), "{what}: factors");
        for ((o1, f1), (o2, f2)) in la.factors.iter().zip(&reference.factors) {
            assert_eq!(o1, o2, "{what}: factor offset");
            assert_bits_eq(f1.w.as_slice(), f2.w.as_slice(), &format!("{what} W@{o1}"));
            assert_bits_eq(f1.y.as_slice(), f2.y.as_slice(), &format!("{what} Y@{o1}"));
        }
        assert_floor(&what, ts, tl);
    }
}
