//! The workspace's single source of truth for worker-thread counts, the
//! nested-parallelism guard, and [`run_tasks`] — the one fork-join engine
//! every parallel kernel in the workspace fans out through.
//!
//! Everything that sizes a worker pool or *reports* a thread count — the
//! packed-GEMM driver, the `syr2k` super-block grid, `tg_batch`'s
//! `BatchScheduler` default, `tridiag info`/`tridiag batch`, the benches —
//! goes through [`worker_threads`] instead of reading
//! `rayon::current_num_threads` (or `available_parallelism`) ad hoc, so a
//! single `TG_THREADS` override steers every component consistently.
//!
//! The region guard exists because parallel kernels compose: a batched-EVD
//! worker calls `syr2k_square`, whose super-block tasks call `gemm`. Letting
//! every layer fan out multiplies thread counts (workers × blocks × GEMM
//! strips) without adding parallelism — the machine has the same number of
//! cores. [`run_tasks`] therefore marks every worker of a multi-worker
//! fan-out with [`enter_parallel_region`]; inner kernels size themselves
//! with [`gemm_threads`], which is `1` inside a region, and run inline.
//! This is purely a scheduling decision: the serial and parallel code paths
//! of every kernel are bitwise-identical.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rejected `TG_THREADS` configuration.
///
/// The kernels themselves tolerate a garbage `TG_THREADS` (they fall back
/// to the auto thread count — see [`worker_threads`]), but a long-running
/// service must not silently run with a config the operator mistyped:
/// `tg-serve` calls [`try_worker_threads`] at startup and refuses to start
/// on `Err`, turning the typo into a clean boot-time error instead of a
/// surprise thread count mid-request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThreadsConfigError {
    /// `TG_THREADS` was set but did not parse as an unsigned integer.
    NotANumber { value: String },
    /// `TG_THREADS=0`: a worker pool needs at least one thread.
    Zero,
}

impl std::fmt::Display for ThreadsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadsConfigError::NotANumber { value } => {
                write!(f, "TG_THREADS={value:?} is not a positive integer")
            }
            ThreadsConfigError::Zero => {
                write!(
                    f,
                    "TG_THREADS=0 is invalid: a worker pool needs at least one thread"
                )
            }
        }
    }
}

impl std::error::Error for ThreadsConfigError {}

/// Parses a raw `TG_THREADS` value. `None` (unset) and empty/whitespace
/// strings mean "no override" (`Ok(None)`); anything else must be a
/// positive integer (surrounding whitespace tolerated).
pub fn parse_tg_threads(raw: Option<&str>) -> Result<Option<usize>, ThreadsConfigError> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(ThreadsConfigError::Zero),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(ThreadsConfigError::NotANumber {
            value: raw.to_string(),
        }),
    }
}

/// Worker-thread count with *strict* `TG_THREADS` handling: a set-but-
/// invalid override is a typed error rather than a silent fallback.
/// Startup-validated components (the `tg-serve` job service) use this;
/// ad-hoc kernels keep the lenient [`worker_threads`].
pub fn try_worker_threads() -> Result<usize, ThreadsConfigError> {
    let var = std::env::var("TG_THREADS").ok();
    Ok(parse_tg_threads(var.as_deref())?.unwrap_or_else(rayon::current_num_threads))
}

/// Number of worker threads to use by default.
///
/// Resolution order:
/// 1. the `TG_THREADS` environment variable, if set to a positive integer;
/// 2. the runtime's thread count (`rayon::current_num_threads`, which the
///    offline shim backs with `available_parallelism`).
///
/// Invalid overrides fall back to (2); use [`try_worker_threads`] to
/// reject them instead.
pub fn worker_threads() -> usize {
    try_worker_threads().unwrap_or_else(|_| rayon::current_num_threads())
}

/// One-line human-readable description for CLI/bench headers, e.g.
/// `"4 (TG_THREADS)"` or `"8 (auto)"`.
pub fn describe() -> String {
    let n = worker_threads();
    let var = std::env::var("TG_THREADS").ok();
    let source = match parse_tg_threads(var.as_deref()) {
        Ok(Some(_)) => "TG_THREADS",
        _ => "auto",
    };
    format!("{n} ({source})")
}

thread_local! {
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is already executing inside a parallel
/// worker closure (a `syr2k` super-block task, a batched-GEMM job, a batch
/// scheduler worker). Parallel drivers check this and run serially instead
/// of fanning out a second level of threads.
#[inline]
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(|f| f.get())
}

/// Marks the current thread as inside a parallel worker for the lifetime of
/// the returned guard. Nested guards are fine: the flag is restored to its
/// previous value on drop.
pub fn enter_parallel_region() -> RegionGuard {
    let prev = IN_PARALLEL_REGION.with(|f| f.replace(true));
    RegionGuard { prev }
}

/// RAII token from [`enter_parallel_region`].
pub struct RegionGuard {
    prev: bool,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        IN_PARALLEL_REGION.with(|f| f.set(self.prev));
    }
}

/// Thread count the GEMM/syr2k drivers should fan out to *right now*:
/// [`worker_threads`] normally, `1` when already inside a parallel region.
#[inline]
pub fn gemm_threads() -> usize {
    if in_parallel_region() {
        1
    } else {
        worker_threads()
    }
}

/// Span names for one [`run_tasks`] fan-out. The engine records them in
/// the category taxonomy `tg_trace::timeline` reads: one `"region"` span
/// (arg `tasks`), one `"worker"` span per lane (arg `w`), one `"task"` span
/// per task (arg `task`, the task index), all tagged with a fresh
/// [`tg_trace::RegionId`], plus one `"wait"` span (`join.wait`) covering
/// the caller's join when threads were spawned.
#[derive(Clone, Copy, Debug)]
pub struct Spans {
    pub region: &'static str,
    pub worker: &'static str,
    pub task: &'static str,
}

/// Runs `f(worker_state, task)` for every task and returns the results in
/// task order.
///
/// `min(workers.len(), tasks.len())` workers run; `workers[w]` is lane
/// `w`'s private state (scratch buffers — `()` when there is none).
/// The calling thread is lane 0, so with one worker the tasks run inline,
/// in order, without spawning and without entering a parallel region;
/// otherwise `workers − 1` scoped threads are spawned, every lane
/// (including the caller) enters [`enter_parallel_region`], and lanes claim
/// tasks in ascending order from one atomic cursor. Each lane runs one task
/// at a time, so a task may block on another only if that one is sure to
/// be running: a lower-numbered task (claimed earlier), or any task when
/// there are no more tasks than workers (the bulge-chasing lanes).
///
/// At the join, faults fired on spawned lanes are credited to the calling
/// thread's [`tg_check::fault::fired_on_this_thread`] count, so attribution
/// does not depend on which lane ran a task. A panicking task propagates
/// its panic to the caller.
pub fn run_tasks<T, S, R, F>(spans: Spans, tasks: Vec<T>, workers: &mut [S], f: F) -> Vec<R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    let count = tasks.len();
    if count == 0 {
        return Vec::new();
    }
    assert!(!workers.is_empty(), "run_tasks needs at least one worker");
    let lanes = workers.len().min(count);
    let region = tg_trace::RegionId::fresh();
    let _region_span = tg_trace::span_region(
        spans.region,
        "region",
        Some(("tasks", count as u64)),
        region,
    );
    let run_task = |state: &mut S, i: usize, task: T| {
        let _t = tg_trace::span_region(spans.task, "task", Some(("task", i as u64)), region);
        f(state, task)
    };

    if lanes == 1 {
        let _w = tg_trace::span_region(spans.worker, "worker", Some(("w", 0)), region);
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| run_task(&mut workers[0], i, task))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Relaxed: the cursor only hands out indices; each task itself moves
    // to its lane through the slot's mutex.
    let next = AtomicUsize::new(0);
    // One lane: claim tasks until the cursor runs off the end.
    let lane = |w: usize, state: &mut S| -> Vec<(usize, R)> {
        let _region = enter_parallel_region();
        let _w = tg_trace::span_region(spans.worker, "worker", Some(("w", w as u64)), region);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            let task = slots[i]
                .lock()
                .expect("no task runs while its slot is locked")
                .take()
                .expect("each task is claimed once");
            done.push((i, run_task(state, i, task)));
        }
    };

    let (caller, spawned) = workers[..lanes].split_first_mut().expect("lanes >= 2");
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = spawned
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                let lane = &lane;
                scope.spawn(move || {
                    let before = tg_check::fault::fired_on_this_thread();
                    let done = lane(w + 1, state);
                    (done, tg_check::fault::fired_on_this_thread() - before)
                })
            })
            .collect();
        let mut done = lane(0, caller);
        let _wait = tg_trace::span_region("join.wait", "wait", None, region);
        for h in handles {
            let (theirs, fired) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            tg_check::fault::add_fired_on_this_thread(fired);
            done.extend(theirs);
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_thread_count() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn describe_mentions_count() {
        let d = describe();
        assert!(d.contains(&worker_threads().to_string()), "{d}");
    }

    #[test]
    fn parse_edge_cases() {
        // unset / blank → no override
        assert_eq!(parse_tg_threads(None), Ok(None));
        assert_eq!(parse_tg_threads(Some("")), Ok(None));
        assert_eq!(parse_tg_threads(Some("   ")), Ok(None));
        // valid values, with surrounding whitespace tolerated
        assert_eq!(parse_tg_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_tg_threads(Some(" 8 ")), Ok(Some(8)));
        // zero is a typed error, not a silent fallback
        assert_eq!(parse_tg_threads(Some("0")), Err(ThreadsConfigError::Zero));
        assert_eq!(parse_tg_threads(Some(" 0 ")), Err(ThreadsConfigError::Zero));
        // garbage is a typed error carrying the offending value
        for bad in ["abc", "-1", "1.5", "4x", "0x10", "١٢"] {
            assert_eq!(
                parse_tg_threads(Some(bad)),
                Err(ThreadsConfigError::NotANumber {
                    value: bad.to_string()
                }),
                "input {bad:?}"
            );
        }
        // errors render something an operator can act on
        let e = parse_tg_threads(Some("abc")).unwrap_err();
        assert!(e.to_string().contains("abc"), "{e}");
        assert!(ThreadsConfigError::Zero.to_string().contains('0'));
    }

    #[test]
    fn try_worker_threads_matches_lenient_when_env_is_sane() {
        // Without mutating process env (parallel tests), only check the
        // two resolvers agree whenever the strict one succeeds.
        if let Ok(n) = try_worker_threads() {
            assert_eq!(n, worker_threads());
            assert!(n >= 1);
        }
    }

    #[test]
    fn region_guard_nests_and_restores() {
        assert!(!in_parallel_region());
        {
            let _g1 = enter_parallel_region();
            assert!(in_parallel_region());
            assert_eq!(gemm_threads(), 1);
            {
                let _g2 = enter_parallel_region();
                assert!(in_parallel_region());
            }
            assert!(in_parallel_region());
        }
        assert!(!in_parallel_region());
    }

    const TEST_SPANS: Spans = Spans {
        region: "parallel.test",
        worker: "test.worker",
        task: "task.test",
    };

    #[test]
    fn run_tasks_runs_each_task_once_in_task_order() {
        for lanes in [1usize, 2, 3, 8] {
            // Per-lane state counts the tasks each lane ran.
            let mut ran = vec![0usize; lanes];
            let out = run_tasks(TEST_SPANS, (0..50).collect(), &mut ran, |n, i: usize| {
                *n += 1;
                i * 3
            });
            assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(ran.iter().sum::<usize>(), 50, "lanes={lanes}");
        }
        let none = run_tasks(TEST_SPANS, Vec::new(), &mut [(); 4], |_, i: usize| i);
        assert!(none.is_empty());
    }

    #[test]
    fn run_tasks_with_one_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        // One lane, or one task: no spawn, no parallel region.
        for (tasks, lanes) in [(5usize, 1usize), (1, 4)] {
            let seen = run_tasks(
                TEST_SPANS,
                vec![(); tasks],
                &mut vec![(); lanes],
                |_, ()| (std::thread::current().id(), in_parallel_region()),
            );
            assert!(seen.iter().all(|&(id, nested)| id == caller && !nested));
        }
    }

    #[test]
    fn run_tasks_nested_calls_see_one_thread() {
        let inner = run_tasks(TEST_SPANS, vec![(); 2], &mut [(); 2], |_, ()| {
            let threads = gemm_threads();
            let caller = std::thread::current().id();
            let ids = run_tasks(TEST_SPANS, vec![(); 3], &mut vec![(); threads], |_, ()| {
                std::thread::current().id()
            });
            (threads, ids.iter().all(|&id| id == caller))
        });
        assert_eq!(inner, vec![(1, true), (1, true)]);
        assert!(!in_parallel_region(), "guard leaked to the caller");
    }

    #[test]
    fn run_tasks_propagates_a_task_panic() {
        for lanes in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_tasks(
                    TEST_SPANS,
                    (0..8).collect(),
                    &mut vec![(); lanes],
                    |_, i: usize| {
                        assert_ne!(i, 5, "task 5 fails");
                    },
                )
            });
            assert!(caught.is_err(), "lanes={lanes}");
        }
    }

    #[test]
    fn run_tasks_records_one_region_with_a_lane_per_worker() {
        // Own span names: sibling tests run concurrently and their spans
        // land in this process-global session too.
        let spans = Spans {
            region: "parallel.traced_test",
            ..TEST_SPANS
        };
        let session = tg_trace::TraceSession::begin();
        // The first three tasks meet at a barrier, so all three lanes run.
        let barrier = std::sync::Barrier::new(3);
        run_tasks(spans, (0..12).collect(), &mut [(); 3], |_, i: usize| {
            if i < 3 {
                barrier.wait();
            }
        });
        let trace = session.finish();
        let regions = trace.region_utilization();
        let mine: Vec<_> = regions.iter().filter(|r| r.name == spans.region).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!((mine[0].workers, mine[0].tasks), (3, 12));
        let member = |cat: &str| {
            let events = trace.events.iter();
            events
                .filter(|e| e.region == Some(mine[0].region) && e.cat == cat)
                .count()
        };
        assert_eq!(
            (member("worker"), member("task"), member("wait")),
            (3, 12, 1)
        );
    }

    #[test]
    fn run_tasks_credits_spawned_faults_to_the_caller() {
        use tg_check::fault::{fired_on_this_thread, inject, FaultKind, FaultPlan};
        let plan = FaultPlan::single("bc.tri", FaultKind::Nan, 0);
        let session =
            tg_check::CheckSession::begin(tg_check::CheckConfig::strict().with_faults(plan));
        let caller = std::thread::current().id();
        let before = fired_on_this_thread();
        // Two tasks that meet at a barrier land on two lanes; the fault
        // fires on the spawned one.
        let barrier = std::sync::Barrier::new(2);
        run_tasks(TEST_SPANS, vec![0, 1], &mut [(); 2], |_, _: usize| {
            barrier.wait();
            if std::thread::current().id() != caller {
                assert!(inject("bc.tri", &mut [1.0; 4]).is_some());
            }
        });
        let fired = fired_on_this_thread() - before;
        let report = session.finish();
        assert_eq!(report.faults_fired.len(), 1);
        assert_eq!(fired, 1);
    }

    #[test]
    fn region_flag_is_per_thread() {
        let _g = enter_parallel_region();
        std::thread::spawn(|| assert!(!in_parallel_region()))
            .join()
            .unwrap();
    }
}
