//! Pipelined bulge chasing — the paper's **Algorithm 2** (§4.2, §5.2).
//!
//! Every sweep is an independent task; sweep `s` may run concurrently with
//! sweep `s − 1` as long as it stays at least `2b` rows behind. On the GPU
//! the paper launches `n − 2` thread blocks that spin on a `volatile`
//! progress array, because a GPU has idle SMs to fill. Here
//! `L = min(parallel_sweeps, n − 2, gemm_threads())` lanes of
//! [`tg_blas::threads::run_tasks`] execute sweeps round-robin (lane `w`
//! runs sweeps `w, w + L, …` in order) and gate on an `AtomicUsize`
//! progress array with acquire/release ordering — the same protocol, with
//! Rust's memory model supplying what CUDA `volatile` + L2 supplies on the
//! device. The cap fits the host: at `TG_THREADS=1`, or inside another
//! fan-out (a batch or serve worker), one lane runs every sweep in order
//! on the calling thread, spawns nothing and never waits. With `L ≥ 2`
//! lanes there are as many lane tasks as workers, so every lane task gets
//! its own worker: a lane blocked at its gate waits on a lane that is
//! running, never on one queued behind it. A blocked lane polls
//! `SPIN_POLLS` times, then parks; lane `w`'s predecessor sweeps all run
//! on lane `w − 1 (mod L)`, which unparks it whenever it publishes
//! progress.
//!
//! The protocol makes the computation *deterministic*: any interleaving
//! permitted by the gates yields bitwise-identical results to the
//! sequential reference (tasks closer than `2b` are ordered; farther tasks
//! commute exactly because they touch disjoint storage).

use super::kernels::{run_sweep, LaneScratch, SharedBand};
use super::seq::{band_scale, widen_storage};
use super::{BcReflector, BcResult};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use tg_blas::threads::{gemm_threads, run_tasks, Spans};
use tg_matrix::SymBand;

/// Progress value published by a finished sweep.
const DONE: usize = usize::MAX / 2;

/// Polls of a closed gate before its lane parks: tens of microseconds,
/// a few tasks' worth, so a predecessor that is running opens the gate
/// without a wake-up, and one that was descheduled costs no CPU. With two
/// lanes on the 2-vCPU host, 1024 polls took an n = 256 chase in 3.0 ms
/// against 4.1 ms at 128 (EXPERIMENTS.md).
const SPIN_POLLS: u32 = 1024;

/// How one lane is woken: its thread, registered before its first sweep,
/// and whether it is (about to be) parked at a gate.
#[derive(Default)]
struct Waker {
    thread: OnceLock<Thread>,
    parked: AtomicBool,
}

/// The Algorithm-2 gates of one pipelined run.
struct Gates {
    /// `progress[s]` = first row/col index sweep `s` may still write;
    /// initialized to the sweep's starting column.
    progress: Vec<AtomicUsize>,
    /// One per lane; empty with one lane, which never waits.
    wakers: Vec<Waker>,
}

impl Gates {
    /// Algorithm 2 line 14: sweep `s` publishes its working row, and wakes
    /// the lane running sweep `s + 1` if it parked.
    fn publish(&self, s: usize, col: usize) {
        self.progress[s].store(col, Ordering::Release);
        if self.wakers.is_empty() {
            return;
        }
        let next = &self.wakers[(s + 1) % self.wakers.len()];
        // Pairs with the fence in `wait`: either this load sees the flag,
        // or that lane's load of `progress[s]` sees the store above.
        fence(Ordering::SeqCst);
        if next.parked.load(Ordering::Acquire) {
            if let Some(t) = next.thread.get() {
                t.unpark();
            }
        }
    }

    /// Algorithm 2 line 5: blocks sweep `s` (on lane `w`) until sweep
    /// `s − 1` has published a row beyond `limit`. A stall is recorded as
    /// a `bc.wait` span (subtracted from busy time in utilization
    /// analysis); opening it only after the first failed poll keeps the
    /// uncontended path span-free.
    fn wait(&self, s: usize, w: usize, limit: usize) {
        let open = || self.progress[s - 1].load(Ordering::Acquire) > limit;
        if open() {
            return;
        }
        let _wait = tg_trace::span_region(
            "bc.wait",
            "wait",
            Some(("s", s as u64)),
            tg_trace::current_region(),
        );
        for _ in 0..SPIN_POLLS {
            std::hint::spin_loop();
            if open() {
                return;
            }
        }
        let me = &self.wakers[w];
        loop {
            me.parked.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            if open() {
                break;
            }
            std::thread::park();
        }
        me.parked.store(false, Ordering::Relaxed);
    }
}

/// Reduces a symmetric band matrix to tridiagonal form using up to
/// `parallel_sweeps` concurrent sweeps (the paper's `S`), capped at
/// [`gemm_threads`] lanes.
///
/// One lane still runs the gate protocol, inline on the calling thread.
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
        let lanes = parallel_sweeps.min(n_sweeps).min(gemm_threads());
        let gates = Gates {
            progress: (0..n_sweeps).map(AtomicUsize::new).collect(),
            wakers: if lanes > 1 {
                (0..lanes).map(|_| Waker::default()).collect()
            } else {
                Vec::new()
            },
        };
        let spans = Spans {
            region: "parallel.bc",
            worker: "bc.worker",
            task: "bc.lane",
        };
        let mut scratch: Vec<LaneScratch> = (0..lanes).map(|_| LaneScratch::new(b)).collect();
        let lanes_out = run_tasks(spans, (0..lanes).collect(), &mut scratch, |scratch, w| {
            if let Some(me) = gates.wakers.get(w) {
                me.thread.get_or_init(std::thread::current);
            }
            let mut mine = Vec::new();
            for s in (w..n_sweeps).step_by(lanes) {
                let _sweep = tg_trace::span_cat("bc.sweep", "sweep", Some(("s", s as u64)));
                let gate = |col: usize| {
                    if s > 0 {
                        gates.wait(s, w, col + 2 * b);
                    }
                    gates.publish(s, col);
                };
                // SAFETY: the gate enforces ≥ 2b spacing between
                // concurrently-running sweeps, so all kernel writes within
                // a task touch storage no other live task can touch (tasks
                // write window [col, col + 2b − 1]).
                let swept = unsafe { run_sweep(&shared, b, s, scratch, gate) };
                gates.publish(s, DONE);
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

    /// A gate that stays closed past its spin parks its lane, and the
    /// predecessor's next publish wakes it. The waiter's `parked` flag
    /// orders the two threads: the publish comes only after the waiter
    /// announced that it is parking.
    #[test]
    fn closed_gate_parks_until_the_predecessor_publishes() {
        let gates = Gates {
            progress: (0..2).map(AtomicUsize::new).collect(),
            wakers: (0..2).map(|_| Waker::default()).collect(),
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                gates.wakers[1].thread.get_or_init(std::thread::current);
                // Sweep 1 on lane 1 needs sweep 0 past row 5.
                gates.wait(1, 1, 5);
                gates.progress[0].load(Ordering::Acquire)
            });
            while !gates.wakers[1].parked.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            gates.publish(0, 3); // still closed: the waiter parks again
            gates.publish(0, 6);
            assert_eq!(waiter.join().unwrap(), 6);
        });
        assert!(!gates.wakers[1].parked.load(Ordering::Relaxed));
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
