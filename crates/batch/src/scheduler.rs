//! Worker-pool scheduler for batched EVD / tridiagonalization.
//!
//! The scheduler owns nothing between calls: each call hands the problem
//! indices to [`tg_blas::threads::run_tasks`] with `workers` lanes, which
//! claim them from one atomic cursor (dynamic work stealing — cheap and
//! fair for uneven problem times). Results come back in task order, so
//! output order always matches input order no matter which worker ran
//! what.
//!
//! # Determinism contract
//!
//! Every problem is computed *exactly* as the single-problem path computes
//! it: each worker calls the same [`fn@tg_eigen::syevd`] /
//! [`tridiag_core::tridiagonalize`], whose scratch is fresh zeroed
//! allocation. A problem's result therefore depends only on its own input
//! — never on which worker picked it up, how many workers there are, or
//! what ran before it. This is asserted bitwise by the tests here and in
//! `tests/batching.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tg_blas::threads::{run_tasks, Spans};
use tg_eigen::{syevd, EigenError, Evd, EvdMethod};
use tg_matrix::Mat;
use tridiag_core::{tridiagonalize, Method, TridiagResult};

/// Execution statistics for one batch call.
#[derive(Clone, Copy, Debug)]
pub struct BatchStats {
    /// Problems solved.
    pub problems: usize,
    /// Worker lanes used — the calling thread plus spawned threads (≤ the
    /// scheduler's configured count, never more than the number of
    /// problems).
    pub workers: usize,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchStats {
    /// Problems per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.problems as f64 / secs
        } else {
            0.0
        }
    }
}

/// Results of a batch call: per-problem outputs in input order, plus
/// [`BatchStats`].
#[derive(Debug)]
pub struct BatchResult<T> {
    /// `results[i]` is the output for `problems[i]`.
    pub results: Vec<T>,
    /// Scheduling statistics.
    pub stats: BatchStats,
}

/// Cooperative cancellation handle for batched work items.
///
/// Cancellation is observed at work-item granularity: a worker finishes the
/// problem it is computing, then skips every problem it claims after.
/// Clones share one flag, so the submitting side keeps a copy and hands
/// another to the scheduler (or to a `tg-serve` job, which checks it
/// between retry attempts). Once cancelled, a token stays cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, takes effect at the next check).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Runs `syevd`/`tridiagonalize` over slices of problems on a worker pool.
#[derive(Clone, Copy, Debug)]
pub struct BatchScheduler {
    workers: usize,
}

impl BatchScheduler {
    /// Scheduler with an explicit worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        BatchScheduler {
            workers: workers.max(1),
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Solves the symmetric EVD of every matrix in `problems`.
    ///
    /// Inputs are not destroyed (each worker clones its problem into the
    /// reduction, as [`tg_eigen::syevd_batched`] does). Results are
    /// bitwise-identical to calling [`fn@tg_eigen::syevd`] per problem. The
    /// first error aborts the whole batch.
    pub fn syevd(
        &self,
        problems: &[Mat],
        method: &EvdMethod,
        want_vectors: bool,
    ) -> Result<BatchResult<Evd>, EigenError> {
        let batch = self.syevd_cancellable(problems, method, want_vectors, &CancelToken::new())?;
        let results = batch
            .results
            .into_iter()
            .map(|slot| slot.expect("fresh token: every slot filled"))
            .collect();
        Ok(BatchResult {
            results,
            stats: batch.stats,
        })
    }

    /// [`syevd`](BatchScheduler::syevd) with cooperative cancellation:
    /// workers skip every problem they claim once `token` is cancelled, and
    /// unstarted slots come back as `None` (finished ones keep their
    /// bitwise-deterministic results — cancellation changes *which*
    /// problems run, never what any individual result contains). The first
    /// solver error still aborts the whole batch.
    pub fn syevd_cancellable(
        &self,
        problems: &[Mat],
        method: &EvdMethod,
        want_vectors: bool,
        token: &CancelToken,
    ) -> Result<BatchResult<Option<Evd>>, EigenError> {
        let (raw, stats) = self.run(problems.len(), token, |i| {
            syevd(&mut problems[i].clone(), method, want_vectors)
        });
        let results = raw
            .into_iter()
            .map(|slot| slot.transpose())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchResult { results, stats })
    }

    /// Tridiagonalizes every matrix in `problems` (inputs preserved).
    pub fn tridiagonalize(&self, problems: &[Mat], method: &Method) -> BatchResult<TridiagResult> {
        let (raw, stats) = self.run(problems.len(), &CancelToken::new(), |i| {
            tridiagonalize(&mut problems[i].clone(), method)
        });
        let results = raw
            .into_iter()
            .map(|slot| slot.expect("fresh token: every slot filled"))
            .collect();
        BatchResult { results, stats }
    }

    /// Generic work loop: runs `f(i)` for every index `0..count` as one
    /// [`run_tasks`] task list (`batch.problem` task spans) and returns
    /// results in index order plus stats. Problems not yet started once
    /// `token` is cancelled come back `None`.
    fn run<T, F>(&self, count: usize, token: &CancelToken, f: F) -> (Vec<Option<T>>, BatchStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let start = Instant::now();
        let workers = self.workers.min(count.max(1));
        let spans = Spans {
            region: "parallel.batch",
            worker: "batch.worker",
            task: "batch.problem",
        };
        let results = run_tasks(
            spans,
            (0..count).collect(),
            &mut vec![(); workers],
            |_, i| (!token.is_cancelled()).then(|| f(i)),
        );
        let stats = BatchStats {
            problems: count,
            workers,
            wall: start.elapsed(),
        };
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_eigen::{syevd, syevd_batched};
    use tg_matrix::gen;

    fn problems(count: usize, n: usize) -> Vec<Mat> {
        (0..count)
            .map(|s| gen::random_symmetric(n, 1000 + s as u64))
            .collect()
    }

    #[test]
    fn evd_bitwise_identical_to_single_problem_path() {
        let n = 24;
        let probs = problems(6, n);
        let method = EvdMethod::proposed_default(n);
        let batch = BatchScheduler::new(3).syevd(&probs, &method, true).unwrap();
        assert_eq!(batch.results.len(), probs.len());
        let serial = syevd_batched(&probs, &method, true).unwrap();
        for ((a, got), reference) in probs.iter().zip(&batch.results).zip(&serial) {
            let single = syevd(&mut a.clone(), &method, true).unwrap();
            assert_eq!(got.eigenvalues, single.eigenvalues, "vs single syevd");
            assert_eq!(got.eigenvectors, single.eigenvectors, "vs single syevd");
            assert_eq!(got.eigenvalues, reference.eigenvalues, "vs serial batch");
            assert_eq!(got.eigenvectors, reference.eigenvectors, "vs serial batch");
        }
    }

    #[test]
    fn evd_worker_count_does_not_change_results() {
        let n = 20;
        let probs = problems(5, n);
        let method = EvdMethod::proposed_default(n);
        let one = BatchScheduler::new(1).syevd(&probs, &method, true).unwrap();
        let four = BatchScheduler::new(4).syevd(&probs, &method, true).unwrap();
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.eigenvalues, b.eigenvalues);
            assert_eq!(a.eigenvectors, b.eigenvectors);
        }
        assert_eq!(one.stats.workers, 1);
        assert!(four.stats.workers <= 4);
    }

    #[test]
    fn tridiag_batch_matches_single() {
        let n = 28;
        let probs = problems(4, n);
        let method = Method::paper_default(n);
        let batch = BatchScheduler::new(2).tridiagonalize(&probs, &method);
        for (a, got) in probs.iter().zip(&batch.results) {
            let single = tridiag_core::tridiagonalize(&mut a.clone(), &method);
            assert_eq!(got.tri.d, single.tri.d);
            assert_eq!(got.tri.e, single.tri.e);
            // Q factors are private; compare them through their action.
            let mut c1 = Mat::identity(n);
            let mut c2 = Mat::identity(n);
            got.apply_q(&mut c1);
            single.apply_q(&mut c2);
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn cancelled_token_before_start_runs_nothing() {
        let n = 16;
        let probs = problems(4, n);
        let method = EvdMethod::proposed_default(n);
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let batch = BatchScheduler::new(2)
            .syevd_cancellable(&probs, &method, true, &token)
            .unwrap();
        assert_eq!(batch.results.len(), probs.len());
        assert!(batch.results.iter().all(Option::is_none));
    }

    #[test]
    fn cancellation_never_changes_finished_results() {
        let n = 20;
        let probs = problems(6, n);
        let method = EvdMethod::proposed_default(n);
        let reference = syevd_batched(&probs, &method, true).unwrap();
        // Cancel from another thread mid-batch: *which* problems finish is
        // timing-dependent, but every finished slot must be bitwise equal
        // to the reference.
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                token.cancel();
            })
        };
        let batch = BatchScheduler::new(2)
            .syevd_cancellable(&probs, &method, true, &token)
            .unwrap();
        canceller.join().unwrap();
        for (got, want) in batch.results.iter().zip(&reference) {
            if let Some(got) = got {
                assert_eq!(got.eigenvalues, want.eigenvalues);
                assert_eq!(got.eigenvectors, want.eigenvectors);
            }
        }
        // an un-cancelled token fills every slot
        let full = BatchScheduler::new(2)
            .syevd_cancellable(&probs, &method, true, &CancelToken::new())
            .unwrap();
        assert!(full.results.iter().all(Option::is_some));
    }

    #[test]
    fn empty_batch() {
        let method = EvdMethod::proposed_default(8);
        let batch = BatchScheduler::new(4).syevd(&[], &method, true).unwrap();
        assert!(batch.results.is_empty());
        assert_eq!(batch.stats.problems, 0);
    }
}
