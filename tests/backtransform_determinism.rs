//! Determinism contract for the parallel blocked back transformation.
//!
//! The panel-parallel Figure-13 path promises more than "numerically
//! close": panel boundaries are fixed (`PANEL_COLS`), every panel applies
//! the same shared read-only block list in the same order, and workers
//! only *claim* panels — they never split or reorder the arithmetic
//! inside one. The result must therefore be **bitwise identical** across
//! every worker count, and whatever a panel lane's scratch held before.
//! These tests hammer
//! that promise for both two-stage pipelines (SBR and DBBR) with
//! `workers ∈ {1, 2, 4, 7}` (including a deliberately odd, non-divisor
//! count) and repeated runs, and pin the blocked path to the conventional
//! reflector-by-reflector apply within numerical tolerance.

use tridiag_gpu::core::backtransform::{
    apply_blocks_panels, apply_q1, merge_q1_blocked_ws, release_blocks,
};
use tridiag_gpu::core::{AllocPool, BcResult, PanelPools};
use tridiag_gpu::householder::wblock::WyPair;
use tridiag_gpu::prelude::*;

fn assert_mat_bitwise(a: &Mat, b: &Mat, ctx: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{ctx}: nrows");
    assert_eq!(a.ncols(), b.ncols(), "{ctx}: ncols");
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            assert!(
                a[(i, j)].to_bits() == b[(i, j)].to_bits(),
                "{ctx}: ({i},{j}) {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

fn methods() -> Vec<(&'static str, Method)> {
    vec![
        (
            "sbr",
            Method::Sbr {
                b: 4,
                parallel_sweeps: 2,
            },
        ),
        (
            "dbbr",
            Method::Dbbr {
                cfg: DbbrConfig::new(4, 16),
                parallel_sweeps: 2,
            },
        ),
    ]
}

#[test]
fn blocked_parallel_bitwise_matches_serial_across_worker_counts() {
    let n = 56; // not a multiple of PANEL_COLS: exercises the ragged panel
    for (name, method) in methods() {
        let red = tridiagonalize(&mut gen::random_symmetric(n, 11), &method);
        let c0 = gen::random(n, n, 12);

        let mut serial = c0.clone();
        red.apply_q_blocked(&mut serial, 16, 1);

        for &workers in &[2usize, 4, 7] {
            let mut par = c0.clone();
            red.apply_q_blocked(&mut par, 16, workers);
            assert_mat_bitwise(
                &serial,
                &par,
                &format!("{name} workers={workers} vs serial"),
            );
            // repeats: different thread interleavings, same bits
            for rep in 0..2 {
                let mut again = c0.clone();
                red.apply_q_blocked(&mut again, 16, workers);
                assert_mat_bitwise(
                    &serial,
                    &again,
                    &format!("{name} workers={workers} repeat {rep}"),
                );
            }
        }
    }
}

/// Stage 1 and bulge chasing of `method`, kept apart so a test can build
/// the with-vectors block list itself: Q₁'s factors and Q₂'s reflectors.
fn band_factors(a: &mut Mat, method: &Method) -> (Vec<(usize, WyPair)>, BcResult) {
    let (factors, band, sweeps) = match method {
        Method::Sbr { b, parallel_sweeps } => {
            let red = band_reduce(a, *b, 32);
            (red.factors, red.band, *parallel_sweeps)
        }
        Method::Dbbr {
            cfg,
            parallel_sweeps,
        } => {
            let red = dbbr(a, cfg);
            (red.factors, red.band, *parallel_sweeps)
        }
        Method::Direct { .. } => panic!("one-stage method has no W factors"),
    };
    (factors, bulge_chase_pipelined(&band, sweeps))
}

#[test]
fn reused_panel_pools_leak_no_bits_across_shapes() {
    // One `PanelPools` serves n = 48, then 24 (shrink), then 56 (grow past
    // the first size). Each lane's scratch is grow-only and zero-filled per
    // panel, so every result must be bitwise equal to a fresh-pools run:
    // no panel's scratch can leak bits into the next.
    for (name, method) in methods() {
        let mut pools = PanelPools::new();
        for (i, n) in [48usize, 24, 56].into_iter().enumerate() {
            let mut a = gen::random_symmetric(n, 21 + i as u64);
            let (factors, bc) = band_factors(&mut a, &method);
            let c0 = gen::random(n, n, 22 + i as u64);
            let run = |c: &mut Mat, pools: &mut PanelPools| {
                let mut blocks = merge_q1_blocked_ws(&factors, 16, &mut AllocPool);
                blocks.extend(bc.sweep_blocks_ws(&mut AllocPool));
                apply_blocks_panels(&blocks, c, 2, pools);
                release_blocks(blocks, &mut AllocPool);
            };
            let mut reference = c0.clone();
            run(&mut reference, &mut PanelPools::new());
            let mut got = c0.clone();
            run(&mut got, &mut pools);
            assert_mat_bitwise(&reference, &got, &format!("{name} n={n} reused pools"));
        }
    }
}

#[test]
fn blocked_path_matches_conventional_apply_within_tolerance() {
    // The blocked path regroups the arithmetic (merged W blocks, panel
    // GEMMs), so it is not bitwise-equal to the reflector-by-reflector
    // apply — but both compute Q·C and must agree to rounding error.
    let n = 48;
    for (name, method) in methods() {
        let red = tridiagonalize(&mut gen::random_symmetric(n, 31), &method);
        let c0 = gen::random(n, n, 32);

        let mut conventional = c0.clone();
        red.apply_q(&mut conventional);

        let mut blocked = c0.clone();
        red.apply_q_blocked(&mut blocked, 16, 4);

        let mut max_diff = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                max_diff = max_diff.max((conventional[(i, j)] - blocked[(i, j)]).abs());
            }
        }
        assert!(max_diff < 1e-11, "{name}: max |diff| = {max_diff:e}");
    }
}

#[test]
fn direct_method_falls_back_to_reflector_apply() {
    // The one-stage pipeline has no W factors to merge; the blocked entry
    // point must degrade to the ormqr-style apply, bitwise.
    let n = 40;
    let red = tridiagonalize(&mut gen::random_symmetric(n, 41), &Method::Direct { nb: 8 });
    let c0 = gen::random(n, n, 42);

    let mut conventional = c0.clone();
    red.apply_q(&mut conventional);

    let mut blocked = c0.clone();
    red.apply_q_blocked(&mut blocked, 16, 4);
    assert_mat_bitwise(&conventional, &blocked, "direct fallback");
}

#[test]
fn grouped_q2_blocks_match_reflector_apply_within_useful_flop_budget() {
    // Q₂ is applied as cross-sweep blocks: the task-t reflectors of G
    // consecutive sweeps, task index descending within a group. The
    // reordering is exact, so both directions must match the
    // reflector-by-reflector product — Q₂C through the production panel
    // apply, Q₂ᵀC through the conventional-order apply of the same blocks —
    // and the staircase blocks must keep performed flops within 2× the
    // useful ones (the per-sweep dense blocks they replace did O(n/b)× the
    // useful work).
    let mut ragged = false;
    for n in [15usize, 31, 33, 64, 65, 129, 256] {
        let EvdMethod::Proposed {
            b, parallel_sweeps, ..
        } = EvdMethod::proposed_default(n)
        else {
            panic!("proposed_default is a Proposed method");
        };
        let group = tridiag_gpu::core::bc::backward::SWEEP_GROUP.min(b);
        ragged |= (n - 2) % group != 0;
        let band = SymBand::from_dense_lower(&gen::random_symmetric_band(n, b, n as u64), b);
        let c0 = gen::random(n, 9, 51);
        for (name, bc) in [
            ("seq", bulge_chase_seq(&band)),
            ("pipelined", bulge_chase_pipelined(&band, parallel_sweeps)),
        ] {
            let blocks = bc.sweep_blocks_ws(&mut AllocPool);
            for trans in [false, true] {
                let mut reference = c0.clone();
                bc.apply_q_left(&mut reference, trans);
                let mut grouped = c0.clone();
                if trans {
                    apply_q1(&blocks, &mut grouped, true);
                } else {
                    apply_blocks_panels(&blocks, &mut grouped, 2, &mut PanelPools::new());
                }
                let mut max_diff = 0.0f64;
                for i in 0..n {
                    for j in 0..c0.ncols() {
                        max_diff = max_diff.max((reference[(i, j)] - grouped[(i, j)]).abs());
                    }
                }
                assert!(
                    max_diff < 1e-12,
                    "{name} n={n} b={b} trans={trans}: max |diff| = {max_diff:e}"
                );
            }

            // Flops per eigenvector column, counted the way the perfbench
            // traced replay counts them: 4·rows·width per block against
            // 4·len per non-identity reflector.
            let performed: f64 = blocks
                .iter()
                .map(|(_, f)| 4.0 * (f.w.nrows() * f.w.ncols()) as f64)
                .sum();
            release_blocks(blocks, &mut AllocPool);
            let useful: f64 = bc
                .reflectors
                .iter()
                .flatten()
                .filter(|r| r.tau != 0.0)
                .map(|r| 4.0 * r.v.len() as f64)
                .sum();
            assert!(
                performed <= 2.0 * useful,
                "{name} n={n} b={b}: performed {performed} > 2 × useful {useful}"
            );
        }
    }
    assert!(
        ragged,
        "some sweep count must not be a multiple of the group"
    );
}
