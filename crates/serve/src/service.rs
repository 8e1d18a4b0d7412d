//! The job service: worker pool, admission, deadlines, retries, fallback,
//! and load shedding around the batched-EVD machinery.
//!
//! # Execution model
//!
//! [`JobService::start`] validates its config (rejecting bad `TG_THREADS`
//! at startup with a typed error — never mid-request) and spawns a fixed
//! worker pool. [`submit`](JobService::submit) either admits a job into
//! the bounded priority queue or *sheds* it with a typed
//! [`SubmitError::Overloaded`] — admission never blocks, which is what
//! keeps an open-loop overload survivable. Workers pull jobs in priority
//! order (FIFO within a class) and run each through the same single-problem
//! [`fn@tg_eigen::syevd`] path the batch scheduler uses.
//!
//! # Failure handling
//!
//! An attempt is classified *transient* when (a) an armed `tg-check` fault
//! fired on the worker thread during the attempt (the machine-check-style
//! signal — see [`tg_check::fault::fired_on_this_thread`]), (b) the result
//! contains non-finite values, (c) the solver returned an error, or (d)
//! the attempt panicked. Transient failures are retried with deterministic
//! exponential backoff; every attempt recomputes from the pristine input
//! with freshly allocated scratch, so nothing a failed attempt touched
//! survives into the next. When the worker attempts are exhausted the job
//! gets one last fallback attempt on the serial reference path (plain
//! [`fn@tg_eigen::syevd`], traced as `serve.fallback`); only if that also
//! fails does the job end as [`FailReason::Exhausted`].
//!
//! # Determinism contract
//!
//! A completed job's result is **bitwise-identical** to calling
//! [`fn@tg_eigen::syevd`] directly on the same input: the worker attempts
//! and the fallback both *are* the direct path, and a retry recomputes from
//! the pristine input matrix. Admission order, worker count, shedding, and
//! retries decide *whether and when* a job completes — never what its
//! result contains.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tg_batch::CancelToken;
use tg_blas::threads::ThreadsConfigError;
use tg_eigen::{syevd, Evd};

use crate::cache::{CacheKey, CacheStats, EvdCache};
use crate::job::{FailReason, JobId, JobOutcome, JobSpec, JobStatus, StatusRow};
use crate::queue::{BoundedQueue, Ledger, Priority, Ticket};

/// Service configuration. `Default` gives a production-shaped setup;
/// tests tighten the knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads. `0` = resolve from `TG_THREADS`/auto via the
    /// *strict* [`tg_blas::threads::try_worker_threads`] — an invalid
    /// override fails startup instead of silently running misconfigured.
    pub workers: usize,
    /// Bound on queued (admitted, not yet running) jobs — the load-
    /// shedding threshold.
    pub queue_cap: usize,
    /// Deadline for jobs that don't carry their own.
    pub default_deadline: Duration,
    /// Transient-failure retries per job on the worker path (the
    /// job's first attempt is not a retry).
    pub max_retries: u32,
    /// Base backoff before retry `k` sleeps `base · 2^k`, clipped to the
    /// job's remaining deadline budget.
    pub retry_backoff: Duration,
    /// After exhausting retries, make one final attempt through the
    /// serial reference path (plain `syevd`, fresh allocations).
    pub serial_fallback: bool,
    /// Byte budget for the content-addressed result cache (`0` disables
    /// caching). Sound because completed results are bitwise-deterministic
    /// — see `docs/CACHING.md`.
    pub cache_bytes: u64,
    /// Enables in-flight request coalescing: a submission whose content
    /// key matches a queued or running job attaches as a follower and
    /// receives that job's result instead of entering the worker queue.
    /// Independent of `cache_bytes` (dedup needs no storage).
    pub dedup: bool,
    /// Debug knob: re-solve on every cache hit through the direct
    /// reference path and panic unless the stored result is bitwise
    /// identical. Also enabled by `TG_CACHE_VERIFY=1`. Turns O(1) hits
    /// into full solves — for tests and soak gates only.
    pub verify_hits: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_cap: 64,
            default_deadline: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            serial_fallback: true,
            cache_bytes: 0,
            dedup: false,
            verify_hits: false,
        }
    }
}

/// Startup-time configuration rejection. The service refuses to boot on
/// any of these; nothing is ever "fixed up" silently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `TG_THREADS` was set but invalid (zero / non-numeric).
    Threads(ThreadsConfigError),
    /// `queue_cap == 0` would shed every submission.
    ZeroQueueCap,
    /// A zero default deadline would expire every job at admission.
    ZeroDeadline,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Threads(e) => write!(f, "worker-thread config rejected: {e}"),
            ConfigError::ZeroQueueCap => write!(f, "queue_cap must be at least 1"),
            ConfigError::ZeroDeadline => write!(f, "default_deadline must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Typed admission rejection from [`JobService::submit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is saturated; the job was shed (it still gets an id and a
    /// `Shed` row in the status table, so nothing disappears from the
    /// accounting).
    Overloaded {
        id: JobId,
        queue_len: usize,
        queue_cap: usize,
    },
    /// The service is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                id,
                queue_len,
                queue_cap,
            } => write!(
                f,
                "overloaded: job {id} shed (queue {queue_len}/{queue_cap})"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate service statistics (monotonic; read any time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Conservation ledger snapshot.
    pub ledger: Ledger,
    /// Attempt re-executions (worker-path retries + fallback attempts).
    pub retries: u64,
    /// Jobs that ended via the serial-reference fallback.
    pub fallback_completions: u64,
    /// Result-cache lifetime counters (all zero when caching is off).
    pub cache: CacheStats,
    /// Bytes currently held by the result cache.
    pub cache_live_bytes: u64,
    /// Entries currently held by the result cache.
    pub cache_entries: u64,
}

struct JobSlot {
    spec: Option<JobSpec>,
    status: JobStatus,
    priority: Priority,
    deadline: Duration,
    ticket: Option<Ticket>,
    cancel: CancelToken,
    submitted_at: Instant,
    queue_wait: Option<Duration>,
    finished_at: Option<Instant>,
    attempts: u32,
    result: Option<Evd>,
    /// Content key, kept while the job can still interact with the cache
    /// or the in-flight index (cleared at terminal transitions).
    cache_key: Option<CacheKey>,
    /// Followers coalesced onto this job (ids into `jobs`), resolved when
    /// this job reaches a terminal state.
    followers: Vec<JobId>,
}

struct State {
    queue: BoundedQueue<JobId>,
    jobs: Vec<JobSlot>,
    ledger: Ledger,
    retries: u64,
    fallback_completions: u64,
    cache: EvdCache,
    /// Content key → id of the queued/running/coalescing leader for that
    /// key. At most one leader per key exists at any time.
    inflight: HashMap<CacheKey, JobId>,
    shutdown: bool,
}

struct Shared {
    workers: usize,
    max_retries: u32,
    retry_backoff: Duration,
    serial_fallback: bool,
    default_deadline: Duration,
    /// Cache/dedup switches, hoisted out of `State` so `submit` can skip
    /// key derivation (an `O(n²)` hash) without taking the lock.
    cache_enabled: bool,
    dedup: bool,
    verify_hits: bool,
    state: Mutex<State>,
    /// Workers park here when the queue is empty.
    work_cv: Condvar,
    /// Waiters ([`JobService::wait`] / `wait_quiescent`) park here.
    done_cv: Condvar,
}

fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Long-running EVD job service. See the module docs for the execution
/// model; construct with [`JobService::start`], stop with
/// [`JobService::shutdown`] (drains the queue) — dropping the handle also
/// shuts down cleanly.
pub struct JobService {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Validates `cfg` and spawns the worker pool. Configuration problems
    /// — including an invalid `TG_THREADS` when `workers == 0` — are
    /// rejected here with a typed [`ConfigError`].
    pub fn start(cfg: ServeConfig) -> Result<JobService, ConfigError> {
        let workers = if cfg.workers == 0 {
            tg_blas::threads::try_worker_threads().map_err(ConfigError::Threads)?
        } else {
            cfg.workers
        };
        if cfg.queue_cap == 0 {
            return Err(ConfigError::ZeroQueueCap);
        }
        if cfg.default_deadline.is_zero() {
            return Err(ConfigError::ZeroDeadline);
        }
        let verify_hits = cfg.verify_hits
            || std::env::var("TG_CACHE_VERIFY").is_ok_and(|v| v == "1" || v == "true");
        let shared = Arc::new(Shared {
            workers,
            max_retries: cfg.max_retries,
            retry_backoff: cfg.retry_backoff,
            serial_fallback: cfg.serial_fallback,
            default_deadline: cfg.default_deadline,
            cache_enabled: cfg.cache_bytes > 0,
            dedup: cfg.dedup,
            verify_hits,
            state: Mutex::new(State {
                queue: BoundedQueue::new(cfg.queue_cap),
                jobs: Vec::new(),
                ledger: Ledger::default(),
                retries: 0,
                fallback_completions: 0,
                cache: EvdCache::new(cfg.cache_bytes),
                inflight: HashMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tg-serve-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(JobService { shared, handles })
    }

    /// Worker threads actually running.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Admission: cache lookup → in-flight coalescing → enqueue (or shed
    /// with a typed rejection). Never blocks on worker progress — a cache
    /// hit costs the `O(n²)` content hash, a miss additionally a map
    /// probe. (The debug verify knob re-solves on hits; see
    /// [`ServeConfig::verify_hits`].)
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        // Derive the content key *outside* the state lock: hashing the
        // matrix bytes is O(n²) and must not serialize other submitters
        // or the workers. The span covers derivation + the in-lock probe,
        // so `--profile`/`--timeline` show the true cost of admission.
        let lookup_span = (self.shared.cache_enabled || self.shared.dedup)
            .then(|| tg_trace::span_cat("serve.cache.lookup", "stage", None));
        let key = lookup_span
            .as_ref()
            .map(|_| CacheKey::derive(&spec.matrix, &spec.method, spec.want_vectors));

        let mut st = lock_state(&self.shared);
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.jobs.len() as JobId;
        let priority = spec.priority;
        let deadline = spec.deadline.unwrap_or(self.shared.default_deadline);
        let now = Instant::now();

        // 1. Content-addressed cache hit: terminal at admission, no
        //    worker involvement. Sound because stored results come only
        //    from clean attempts and the stack is bitwise-deterministic.
        if self.shared.cache_enabled {
            if let Some(k) = key {
                if let Some(evd) = st.cache.lookup(&k) {
                    let verify = self.shared.verify_hits.then(|| evd.clone());
                    st.jobs.push(JobSlot {
                        spec: None,
                        status: JobStatus::Completed,
                        priority,
                        deadline,
                        ticket: None,
                        cancel: CancelToken::new(),
                        submitted_at: now,
                        queue_wait: None,
                        finished_at: Some(now),
                        attempts: 0,
                        result: Some(evd),
                        cache_key: None,
                        followers: Vec::new(),
                    });
                    st.ledger.on_cache_hit();
                    drop(st);
                    tg_trace::add(tg_trace::Counter::CacheHit, 1);
                    drop(lookup_span);
                    if let Some(expected) = verify {
                        verify_cached_hit(&spec, &expected);
                    }
                    self.shared.done_cv.notify_all();
                    return Ok(id);
                }
            }
        }

        // 2. In-flight coalescing: an identical queued/running job is
        //    already going to compute this exact result — attach as a
        //    follower instead of entering the worker queue. The follower
        //    keeps its own deadline and CancelToken; it is checked
        //    against both when the leader resolves it (and promoted to a
        //    run of its own if the leader fails).
        if self.shared.dedup {
            if let Some(k) = key {
                if let Some(&leader) = st.inflight.get(&k) {
                    debug_assert!(
                        !st.jobs[leader as usize].status.is_terminal(),
                        "in-flight index pointed at a terminal job"
                    );
                    st.jobs.push(JobSlot {
                        spec: Some(spec),
                        status: JobStatus::Coalesced,
                        priority,
                        deadline,
                        ticket: None,
                        cancel: CancelToken::new(),
                        submitted_at: now,
                        queue_wait: None,
                        finished_at: None,
                        attempts: 0,
                        result: None,
                        cache_key: Some(k),
                        followers: Vec::new(),
                    });
                    st.jobs[leader as usize].followers.push(id);
                    st.ledger.on_coalesce_attach();
                    drop(st);
                    tg_trace::add(tg_trace::Counter::JobsCoalesced, 1);
                    return Ok(id);
                }
            }
        }
        if self.shared.cache_enabled {
            // Neither stored nor in flight: a genuine miss (counted even
            // if the queue then sheds it — the lookup really happened).
            tg_trace::add(tg_trace::Counter::CacheMiss, 1);
        }
        drop(lookup_span);

        // 3. Regular admission or shedding.
        match st.queue.admit(priority, id) {
            Ok(ticket) => {
                st.jobs.push(JobSlot {
                    spec: Some(spec),
                    status: JobStatus::Queued,
                    priority,
                    deadline,
                    ticket: Some(ticket),
                    cancel: CancelToken::new(),
                    submitted_at: now,
                    queue_wait: None,
                    finished_at: None,
                    attempts: 0,
                    result: None,
                    cache_key: key,
                    followers: Vec::new(),
                });
                if self.shared.dedup {
                    if let Some(k) = key {
                        st.inflight.insert(k, id);
                    }
                }
                st.ledger.on_admit();
                drop(st);
                self.shared.work_cv.notify_one();
                Ok(id)
            }
            Err(full) => {
                st.jobs.push(JobSlot {
                    spec: None,
                    status: JobStatus::Shed,
                    priority,
                    deadline,
                    ticket: None,
                    cancel: CancelToken::new(),
                    submitted_at: now,
                    queue_wait: None,
                    finished_at: Some(now),
                    attempts: 0,
                    result: None,
                    cache_key: None,
                    followers: Vec::new(),
                });
                st.ledger.on_shed();
                let queue_len = st.queue.len();
                drop(st);
                tg_trace::add(tg_trace::Counter::JobsShed, 1);
                self.shared.done_cv.notify_all();
                Err(SubmitError::Overloaded {
                    id,
                    queue_len,
                    queue_cap: full.cap,
                })
            }
        }
    }

    /// Cancels a job. Queued jobs are removed immediately (terminal
    /// status `cancelled`; any coalesced followers are promoted, never
    /// poisoned); running jobs — and coalesced followers — are cancelled
    /// cooperatively at the next resolution boundary. Returns `false`
    /// when the job was already terminal (or the id unknown).
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = lock_state(&self.shared);
        let Some(slot) = st.jobs.get(id as usize) else {
            return false;
        };
        match slot.status {
            // A `Queued` slot with no ticket has been popped by a worker
            // that hasn't claimed it yet — fall through to cooperative
            // cancellation in that window.
            JobStatus::Queued if slot.ticket.is_some() => {
                let ticket = slot.ticket.expect("checked above");
                let removed = st.queue.remove(ticket);
                debug_assert_eq!(removed, Some(id));
                st.jobs[id as usize].ticket = None;
                // The queue slot just vacated guarantees room to requeue
                // a promoted follower under this same critical section.
                let promoted = fail_job(
                    &self.shared,
                    st,
                    id,
                    FailReason::Cancelled,
                    PromotionMode::Requeue,
                );
                debug_assert!(promoted.is_none(), "requeue mode never hands back a job");
                true
            }
            JobStatus::Queued | JobStatus::Running | JobStatus::Coalesced => {
                slot.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// Blocks until job `id` is terminal and returns its outcome (the
    /// result, if any, is moved out — a repeat `wait` sees `None`).
    ///
    /// # Panics
    /// Panics on an id this service never issued.
    pub fn wait(&self, id: JobId) -> JobOutcome {
        let mut st = lock_state(&self.shared);
        loop {
            let slot = st.jobs.get(id as usize).expect("unknown job id");
            if slot.status.is_terminal() {
                break;
            }
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        let slot = &mut st.jobs[id as usize];
        JobOutcome {
            id,
            status: slot.status.clone(),
            attempts: slot.attempts,
            latency: slot
                .finished_at
                .map(|t| t.duration_since(slot.submitted_at))
                .unwrap_or_default(),
            queue_wait: slot.queue_wait.unwrap_or_default(),
            result: slot.result.take(),
        }
    }

    /// Blocks until every submitted job is terminal, or `timeout` passes.
    /// Returns whether quiescence was reached — the watchdog the fault
    /// campaign uses to prove "no hangs".
    pub fn wait_quiescent(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = lock_state(&self.shared);
        while !st.ledger.quiescent() {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now) else {
                return false;
            };
            let (guard, _timeout) = self
                .shared
                .done_cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        true
    }

    /// Snapshot of the conservation ledger, retry, and cache counters.
    pub fn stats(&self) -> ServiceStats {
        let st = lock_state(&self.shared);
        ServiceStats {
            ledger: st.ledger,
            retries: st.retries,
            fallback_completions: st.fallback_completions,
            cache: st.cache.stats(),
            cache_live_bytes: st.cache.live_bytes(),
            cache_entries: st.cache.entries() as u64,
        }
    }

    /// One row per submitted job (shed included), in id order.
    pub fn status_table(&self) -> Vec<StatusRow> {
        let st = lock_state(&self.shared);
        st.jobs
            .iter()
            .enumerate()
            .map(|(id, slot)| StatusRow {
                id: id as JobId,
                priority: slot.priority,
                status_label: slot.status.label(),
            })
            .collect()
    }

    /// Stops admission, drains the queue, joins the workers, and returns
    /// the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut st = lock_state(&self.shared);
        st.shutdown = true;
        drop(st);
        self.shared.work_cv.notify_all();
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---- worker side ----

fn worker_loop(shared: Arc<Shared>, widx: usize) {
    // Mirror the batch scheduler's budget rule: with several service
    // workers the parallelism is spent across jobs, so inner kernels run
    // serial (bitwise-identical to their parallel selves by the PR 5
    // contract). A single worker keeps intra-kernel parallelism.
    let _region_guard = (shared.workers > 1).then(tg_blas::threads::enter_parallel_region);
    let _ = widx;
    loop {
        let claimed = {
            let mut st = lock_state(&shared);
            loop {
                if let Some((_, _, id)) = st.queue.pop() {
                    // The ticket leaves the queue with the pop; clearing it
                    // routes any racing cancel to the cooperative token.
                    st.jobs[id as usize].ticket = None;
                    break Some(id);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        match claimed {
            Some(id) => {
                // A failing leader promotes its first live follower, which
                // this worker then runs directly (it was never queued).
                let mut next = Some(id);
                while let Some(id) = next {
                    next = process_job(&shared, id);
                }
            }
            None => return,
        }
    }
}

/// What one attempt can report back.
enum AttemptError {
    /// An armed fault fired on this thread during the attempt.
    FaultInjected { fired: u64 },
    /// The result contained NaN/Inf.
    NonFinite,
    /// The solver returned an error.
    Eigen(tg_eigen::EigenError),
    /// The attempt panicked (caught; the worker survives).
    Panicked(String),
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::FaultInjected { fired } => {
                write!(f, "{fired} injected fault(s) fired during the attempt")
            }
            AttemptError::NonFinite => write!(f, "result contained non-finite values"),
            AttemptError::Eigen(e) => write!(f, "solver error: {e}"),
            AttemptError::Panicked(msg) => write!(f, "attempt panicked: {msg}"),
        }
    }
}

fn evd_is_finite(evd: &Evd) -> bool {
    evd.eigenvalues.iter().all(|x| x.is_finite())
        && evd
            .eigenvectors
            .as_ref()
            .is_none_or(|v| v.as_slice().iter().all(|x| x.is_finite()))
}

/// Classifies the outcome of one guarded solve: panics are caught, a
/// fired fault or non-finite output invalidates an otherwise "successful"
/// result.
fn classify<F>(solve: F) -> Result<Evd, AttemptError>
where
    F: FnOnce() -> Result<Evd, tg_eigen::EigenError>,
{
    let fired_before = tg_check::fault::fired_on_this_thread();
    let outcome = catch_unwind(AssertUnwindSafe(solve));
    let fired = tg_check::fault::fired_on_this_thread() - fired_before;
    match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(AttemptError::Panicked(msg))
        }
        Ok(Err(e)) => Err(AttemptError::Eigen(e)),
        Ok(Ok(evd)) => {
            if fired > 0 {
                Err(AttemptError::FaultInjected { fired })
            } else if !evd_is_finite(&evd) {
                Err(AttemptError::NonFinite)
            } else {
                Ok(evd)
            }
        }
    }
}

/// Runs one job to a terminal state. Returns the id of a follower
/// promoted by a failing leader, which the calling worker must run next
/// (promoted followers are never in the queue).
fn process_job(shared: &Shared, id: JobId) -> Option<JobId> {
    // Claim the slot: record queue wait, honour cancel/deadline that
    // arrived while queued, and pull what the attempts need.
    let (spec, cancel, submitted_at, deadline) = {
        let mut st = lock_state(shared);
        let now = Instant::now();
        let slot = &mut st.jobs[id as usize];
        let wait = now.duration_since(slot.submitted_at);
        slot.queue_wait = Some(wait);
        tg_trace::record_span(
            "serve.wait",
            "wait",
            Some(("job", id)),
            slot.submitted_at,
            now,
            None,
        );
        if slot.cancel.is_cancelled() {
            return fail_job(
                shared,
                st,
                id,
                FailReason::Cancelled,
                PromotionMode::RunNext,
            );
        }
        if now.duration_since(slot.submitted_at) > slot.deadline {
            return fail_job(
                shared,
                st,
                id,
                FailReason::DeadlineExceeded,
                PromotionMode::RunNext,
            );
        }
        slot.status = JobStatus::Running;
        let spec = slot.spec.clone().expect("running job keeps its spec");
        (spec, slot.cancel.clone(), slot.submitted_at, slot.deadline)
    };

    let region = tg_trace::RegionId::fresh();
    let _task = tg_trace::span_region("serve.job", "task", Some(("job", id)), region);
    let hard_deadline = submitted_at + deadline;

    let mut attempts: u32 = 0;
    let mut last_error: Option<AttemptError> = None;

    // Worker attempts: 1 + max_retries.
    while attempts < 1 + shared.max_retries {
        if cancel.is_cancelled() {
            return fail_job(
                shared,
                lock_state(shared),
                id,
                FailReason::Cancelled,
                PromotionMode::RunNext,
            );
        }
        if Instant::now() > hard_deadline {
            return fail_job(
                shared,
                lock_state(shared),
                id,
                FailReason::DeadlineExceeded,
                PromotionMode::RunNext,
            );
        }
        if attempts > 0 {
            count_retry(shared);
            if !backoff(shared, attempts - 1, hard_deadline) {
                return fail_job(
                    shared,
                    lock_state(shared),
                    id,
                    FailReason::DeadlineExceeded,
                    PromotionMode::RunNext,
                );
            }
        }
        attempts += 1;
        let outcome = {
            let _span =
                tg_trace::span_cat("serve.attempt", "stage", Some(("attempt", attempts as u64)));
            classify(|| {
                let mut a = spec.matrix.clone();
                syevd(&mut a, &spec.method, spec.want_vectors)
            })
        };
        match outcome {
            Ok(evd) => return finish_completed(shared, id, attempts, evd, false),
            // Nothing reaches the result cache from here — only
            // `finish_completed`, i.e. a clean attempt, inserts.
            Err(e) => last_error = Some(e),
        }
    }

    // Serial reference fallback: the direct path, fresh allocations.
    if shared.serial_fallback {
        if cancel.is_cancelled() {
            return fail_job(
                shared,
                lock_state(shared),
                id,
                FailReason::Cancelled,
                PromotionMode::RunNext,
            );
        }
        if Instant::now() > hard_deadline {
            return fail_job(
                shared,
                lock_state(shared),
                id,
                FailReason::DeadlineExceeded,
                PromotionMode::RunNext,
            );
        }
        count_retry(shared);
        if !backoff(shared, shared.max_retries, hard_deadline) {
            return fail_job(
                shared,
                lock_state(shared),
                id,
                FailReason::DeadlineExceeded,
                PromotionMode::RunNext,
            );
        }
        attempts += 1;
        let outcome = {
            let _span = tg_trace::span_cat("serve.fallback", "stage", Some(("job", id)));
            classify(|| {
                let mut a = spec.matrix.clone();
                syevd(&mut a, &spec.method, spec.want_vectors)
            })
        };
        match outcome {
            Ok(evd) => return finish_completed(shared, id, attempts, evd, true),
            Err(e) => last_error = Some(e),
        }
    }

    let last = last_error.map(|e| e.to_string()).unwrap_or_default();
    fail_job(
        shared,
        lock_state(shared),
        id,
        FailReason::Exhausted {
            attempts,
            last_error: last,
        },
        PromotionMode::RunNext,
    )
}

/// Debug-mode hit validation ([`ServeConfig::verify_hits`] /
/// `TG_CACHE_VERIFY=1`): re-solve the submission through the direct
/// reference path and panic unless the cached result is **bitwise**
/// identical — the exact property that makes content-addressed caching
/// sound. Runs outside the state lock (it is a full solve).
fn verify_cached_hit(spec: &JobSpec, expected: &Evd) {
    let mut a = spec.matrix.clone();
    let fresh = syevd(&mut a, &spec.method, spec.want_vectors)
        .expect("verify_hits: reference re-solve failed on a cached input");
    let values_match = fresh.eigenvalues.len() == expected.eigenvalues.len()
        && fresh
            .eigenvalues
            .iter()
            .zip(expected.eigenvalues.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let vectors_match = match (&fresh.eigenvectors, &expected.eigenvectors) {
        (None, None) => true,
        (Some(f), Some(e)) => {
            f.nrows() == e.nrows()
                && f.ncols() == e.ncols()
                && f.as_slice()
                    .iter()
                    .zip(e.as_slice().iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }
        _ => false,
    };
    assert!(
        values_match && vectors_match,
        "TG_CACHE_VERIFY: cached EVD is not bitwise-identical to a fresh \
         reference solve (n={}, values_match={values_match}, \
         vectors_match={vectors_match}) — the determinism contract the \
         cache relies on is broken",
        spec.matrix.nrows()
    );
}

fn count_retry(shared: &Shared) {
    tg_trace::add(tg_trace::Counter::JobsRetried, 1);
    let mut st = lock_state(shared);
    st.retries += 1;
}

/// Deterministic exponential backoff (`base · 2^k`), clipped to the
/// deadline budget. Returns `false` when no budget remains.
fn backoff(shared: &Shared, k: u32, hard_deadline: Instant) -> bool {
    let pause = shared
        .retry_backoff
        .checked_mul(1u32 << k.min(16))
        .unwrap_or(shared.retry_backoff);
    if pause.is_zero() {
        return true;
    }
    let Some(budget) = hard_deadline.checked_duration_since(Instant::now()) else {
        return false;
    };
    std::thread::sleep(pause.min(budget));
    true
}

/// A worker produced a clean result for job `id`: complete it, hand
/// clones to every live follower, and — this being the only path a result
/// can take into the cache — insert it. `classify` already guaranteed the
/// attempt was clean (no fired fault, finite, no error, no panic), so
/// nothing mid-retry can ever be stored; fallback results are cacheable
/// because the serial reference path is bitwise-identical by contract.
/// Returns `None` (completion never promotes anything).
fn finish_completed(
    shared: &Shared,
    id: JobId,
    attempts: u32,
    evd: Evd,
    via_fallback: bool,
) -> Option<JobId> {
    let mut st = lock_state(shared);
    let now = Instant::now();
    let (key, followers) = {
        let slot = &mut st.jobs[id as usize];
        slot.status = JobStatus::Completed;
        slot.attempts = attempts;
        slot.finished_at = Some(now);
        slot.spec = None;
        (slot.cache_key.take(), std::mem::take(&mut slot.followers))
    };
    st.ledger.on_complete();
    if via_fallback {
        st.fallback_completions += 1;
    }
    // Followers ride the same clean result — each still honours its own
    // cancellation and deadline at this resolution point.
    for f in followers {
        let fslot = &mut st.jobs[f as usize];
        debug_assert_eq!(fslot.status, JobStatus::Coalesced);
        fslot.finished_at = Some(now);
        fslot.spec = None;
        if fslot.cancel.is_cancelled() {
            fslot.status = JobStatus::Failed(FailReason::Cancelled);
            st.ledger.on_fail();
        } else if now.duration_since(fslot.submitted_at) > fslot.deadline {
            fslot.status = JobStatus::Failed(FailReason::DeadlineExceeded);
            st.ledger.on_fail();
        } else {
            fslot.status = JobStatus::Completed;
            fslot.result = Some(evd.clone());
            st.ledger.on_coalesce_complete();
        }
    }
    if let Some(k) = key {
        if st.inflight.get(&k) == Some(&id) {
            st.inflight.remove(&k);
        }
        if st.cache.enabled() {
            let evicted = st.cache.insert(k, &evd);
            if evicted > 0 {
                tg_trace::add(tg_trace::Counter::CacheEvictedBytes, evicted);
            }
        }
    }
    st.jobs[id as usize].result = Some(evd);
    drop(st);
    shared.done_cv.notify_all();
    None
}

/// How [`fail_job`] hands a promoted follower onward.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PromotionMode {
    /// Caller is a worker: return the promoted follower's id so the
    /// worker runs it directly (it was never queued).
    RunNext,
    /// Caller holds no worker thread (the queued-cancel path): re-admit
    /// the promoted follower into the queue slot the leader just vacated.
    Requeue,
}

/// Fails job `id` with `reason` and triages its followers: followers
/// whose own cancel/deadline already expired fail with *their* reason,
/// and the first live follower is promoted to take over the content key
/// (leader failure never poisons followers). Returns the promoted id in
/// [`PromotionMode::RunNext`].
fn fail_job(
    shared: &Shared,
    mut st: MutexGuard<'_, State>,
    id: JobId,
    reason: FailReason,
    mode: PromotionMode,
) -> Option<JobId> {
    let now = Instant::now();
    let (key, followers) = {
        let slot = &mut st.jobs[id as usize];
        slot.status = JobStatus::Failed(reason);
        slot.finished_at = Some(now);
        slot.spec = None;
        (slot.cache_key.take(), std::mem::take(&mut slot.followers))
    };
    st.ledger.on_fail();
    if let Some(k) = key {
        if st.inflight.get(&k) == Some(&id) {
            st.inflight.remove(&k);
        }
    }
    let mut promoted: Option<JobId> = None;
    let mut rest: Vec<JobId> = Vec::new();
    for f in followers {
        let fslot = &mut st.jobs[f as usize];
        debug_assert_eq!(fslot.status, JobStatus::Coalesced);
        if fslot.cancel.is_cancelled() {
            fslot.status = JobStatus::Failed(FailReason::Cancelled);
            fslot.finished_at = Some(now);
            fslot.spec = None;
            st.ledger.on_fail();
        } else if now.duration_since(fslot.submitted_at) > fslot.deadline {
            fslot.status = JobStatus::Failed(FailReason::DeadlineExceeded);
            fslot.finished_at = Some(now);
            fslot.spec = None;
            st.ledger.on_fail();
        } else if promoted.is_none() {
            promoted = Some(f);
        } else {
            rest.push(f);
        }
    }
    if let Some(p) = promoted {
        st.jobs[p as usize].followers = rest;
        if let Some(k) = key {
            st.inflight.insert(k, p);
        }
        match mode {
            PromotionMode::RunNext => {
                drop(st);
                shared.done_cv.notify_all();
                return Some(p);
            }
            PromotionMode::Requeue => {
                let priority = st.jobs[p as usize].priority;
                let ticket = st
                    .queue
                    .admit(priority, p)
                    .expect("the failed leader's queue slot was vacated under this lock");
                let pslot = &mut st.jobs[p as usize];
                pslot.ticket = Some(ticket);
                pslot.status = JobStatus::Queued;
                drop(st);
                shared.work_cv.notify_one();
                shared.done_cv.notify_all();
                return None;
            }
        }
    }
    drop(st);
    shared.done_cv.notify_all();
    None
}
