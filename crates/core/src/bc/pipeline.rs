//! Pipelined bulge chasing — the paper's **Algorithm 2** (§4.2, §5.2).
//!
//! Every sweep is an independent task; sweep `s` may run concurrently with
//! sweep `s − 1` as long as it stays at least `2b` rows behind. On the GPU
//! the paper launches `n − 2` thread blocks that spin on a `volatile`
//! progress array; here `S` lanes of [`tg_blas::threads::run_tasks`]
//! execute sweeps round-robin (lane task `w` runs sweeps `w, w + S, …` in
//! order), spinning on an `AtomicUsize` progress array with
//! acquire/release ordering — the same protocol, with Rust's memory model
//! supplying what CUDA `volatile` + L2 supplies on the device. There are
//! as many lane tasks as workers, so every lane task gets its own worker:
//! a lane blocked at its gate waits on a lane that is running or has yet
//! to be claimed by an idle worker, never on one queued behind it.
//!
//! The protocol makes the computation *deterministic*: any interleaving
//! permitted by the gates yields bitwise-identical results to the
//! sequential reference (tasks closer than `2b` are ordered; farther tasks
//! commute exactly because they touch disjoint storage).

use super::kernels::{run_sweep, SharedBand};
use super::seq::{band_scale, widen_storage};
use super::{BcReflector, BcResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use tg_blas::threads::{run_tasks, Spans};
use tg_matrix::SymBand;

/// Progress value published by a finished sweep.
const DONE: usize = usize::MAX / 2;

/// Reduces a symmetric band matrix to tridiagonal form using `parallel_sweeps`
/// concurrent sweeps (the paper's `S`).
///
/// `parallel_sweeps = 1` still exercises the gate protocol, inline on the
/// calling thread.
pub fn bulge_chase_pipelined(band: &SymBand, parallel_sweeps: usize) -> BcResult {
    let n = band.n();
    let b = band.kd().max(1);
    assert!(parallel_sweeps >= 1);
    let mut work = widen_storage(band, b);
    let n_sweeps = if b > 1 && n > 2 { n - 2 } else { 0 };
    let mut reflectors: Vec<Vec<BcReflector>> = (0..n_sweeps).map(|_| Vec::new()).collect();

    if n_sweeps > 0 {
        let _span = tg_trace::span_cat("bc.pipeline", "stage", Some(("n", n as u64)));
        let shared = SharedBand::new(&mut work);
        // progress[s] = first row/col index sweep s may still write;
        // initialized to the sweep's starting column.
        let progress: Vec<AtomicUsize> = (0..n_sweeps).map(AtomicUsize::new).collect();
        let spans = Spans {
            region: "parallel.bc",
            worker: "bc.worker",
            task: "bc.lane",
        };
        let lanes = parallel_sweeps.min(n_sweeps);
        let lanes_out = run_tasks(spans, (0..lanes).collect(), &mut vec![(); lanes], |_, w| {
            let mut mine = Vec::new();
            for s in (w..n_sweeps).step_by(lanes) {
                let _sweep = tg_trace::span_cat("bc.sweep", "sweep", Some(("s", s as u64)));
                let gate = |col: usize| {
                    if s > 0 {
                        // Algorithm 2 line 5: spin until the previous sweep
                        // is more than 2b rows ahead. A stall is recorded as
                        // a wait span (subtracted from busy time in
                        // utilization analysis); opening it only after the
                        // first failed poll keeps the uncontended path
                        // span-free.
                        if progress[s - 1].load(Ordering::Acquire) <= col + 2 * b {
                            let _wait = tg_trace::span_region(
                                "bc.wait",
                                "wait",
                                Some(("s", s as u64)),
                                tg_trace::current_region(),
                            );
                            while progress[s - 1].load(Ordering::Acquire) <= col + 2 * b {
                                std::hint::spin_loop();
                                std::thread::yield_now();
                            }
                        }
                    }
                    // Algorithm 2 line 14: publish the working row.
                    progress[s].store(col, Ordering::Release);
                };
                // SAFETY: the gate enforces ≥ 2b spacing between
                // concurrently-running sweeps, so all kernel writes within
                // a task touch storage no other live task can touch (tasks
                // write window [col, col + 2b − 1]).
                let swept = unsafe { run_sweep(&shared, b, s, gate) };
                progress[s].store(DONE, Ordering::Release);
                mine.push((s, swept));
            }
            mine
        });
        for (s, swept) in lanes_out.into_iter().flatten() {
            reflectors[s] = swept;
        }
    }

    BcResult {
        tri: work.to_tridiagonal(1e-10 * band_scale(band)),
        reflectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::bulge_chase_seq;
    use tg_matrix::{gen, SymBand};

    fn band_of(n: usize, b: usize, seed: u64) -> SymBand {
        SymBand::from_dense_lower(&gen::random_symmetric_band(n, b, seed), b)
    }

    #[test]
    fn pipelined_matches_sequential_bitwise() {
        for (n, b, seed) in [(20usize, 3usize, 1u64), (33, 4, 2), (16, 2, 3)] {
            let band = band_of(n, b, seed);
            let reference = bulge_chase_seq(&band);
            for workers in [1usize, 2, 3, 8] {
                let par = bulge_chase_pipelined(&band, workers);
                assert_eq!(
                    par.tri.d, reference.tri.d,
                    "d differs (n={n},b={b},S={workers})"
                );
                assert_eq!(
                    par.tri.e, reference.tri.e,
                    "e differs (n={n},b={b},S={workers})"
                );
                // reflectors identical too (same τ, same v)
                assert_eq!(par.reflectors.len(), reference.reflectors.len());
                for (rs, ps) in reference.reflectors.iter().zip(&par.reflectors) {
                    assert_eq!(rs.len(), ps.len());
                    for (r, p) in rs.iter().zip(ps) {
                        assert_eq!(r.tau, p.tau);
                        assert_eq!(r.v, p.v);
                        assert_eq!(r.col, p.col);
                        assert_eq!(r.row0, p.row0);
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_similarity_contract() {
        let n = 24;
        let b = 3;
        let dense = gen::random_symmetric_band(n, b, 10);
        let band = SymBand::from_dense_lower(&dense, b);
        let res = bulge_chase_pipelined(&band, 4);
        let q = res.form_q(n);
        assert!(tg_matrix::orthogonality_residual(&q) < 1e-12);
        let t = res.tri.to_dense();
        assert!(tg_matrix::similarity_residual(&dense, &q, &t) < 1e-12);
    }

    #[test]
    fn more_workers_than_sweeps() {
        let band = band_of(6, 2, 20);
        let res = bulge_chase_pipelined(&band, 64);
        let reference = bulge_chase_seq(&band);
        assert_eq!(res.tri.d, reference.tri.d);
        assert_eq!(res.tri.e, reference.tri.e);
    }

    #[test]
    fn tridiagonal_passthrough() {
        let t0 = gen::random_tridiagonal(8, 30);
        let band = SymBand::from_dense_lower(&t0.to_dense(), 1);
        let res = bulge_chase_pipelined(&band, 4);
        assert_eq!(res.tri.d, t0.d);
        assert_eq!(res.reflector_count(), 0);
    }
}
