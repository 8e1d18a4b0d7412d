//! Lightweight instrumentation for the tridiagonalization pipelines.
//!
//! Design goals, in order:
//!
//! 1. **Near-zero cost when disabled.** Tracing is off by default; every
//!    entry point first reads one relaxed atomic and bails. No allocation,
//!    no clock read, no lock on the disabled path.
//! 2. **Safe under parallelism.** Spans nest per-thread (a thread-local
//!    frame stack); completed spans and counter totals funnel into a global
//!    collector, so the bulge-chasing workers can be instrumented without
//!    changing their threading structure.
//! 3. **Two export formats.** [`Trace::chrome_json`] emits Chrome
//!    trace-event JSON (loadable in Perfetto / `chrome://tracing`);
//!    [`Trace::profile_table`] renders a per-stage wall-time/FLOP summary.
//!
//! # Usage
//!
//! ```
//! let session = tg_trace::TraceSession::begin();
//! {
//!     let _s = tg_trace::span("demo.compute");
//!     tg_trace::add(tg_trace::Counter::Flops, 1000);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.total(tg_trace::Counter::Flops), 1000);
//! assert_eq!(trace.events.len(), 1);
//! ```
//!
//! Counters attribute to the innermost open span on the current thread
//! (inclusively: parents accumulate their children's counts when the child
//! closes), or to the session totals when no span is open. Sessions are
//! process-global and serialized: `begin` blocks while another session is
//! live, which keeps concurrently-running tests from mixing events.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

mod export;
pub mod timeline;

pub use timeline::{CriticalPath, LaneStats, RegionUtilization, TimelineReport};

/// Typed counters recorded alongside spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Floating-point operations (FMA counted as 2).
    Flops,
    /// Bytes read from matrix storage by kernels.
    BytesRead,
    /// Bytes written to matrix storage by kernels.
    BytesWritten,
    /// Bulge-chasing sweeps started.
    Sweeps,
    /// Bulge-chasing tasks executed.
    BulgeTasks,
    /// Stage-invariant checks executed (`tg-check`).
    ChecksRun,
    /// Stage-invariant checks that found a violation (`tg-check`).
    CheckFailures,
    /// Faults injected by an armed `tg-check` fault plan.
    FaultsInjected,
    /// Bytes copied into GEMM packing buffers (A/B micro-panels). Kept
    /// separate from [`Counter::BytesRead`]/[`Counter::BytesWritten`] so the
    /// analytic-model cross-check window is unaffected by packing traffic.
    PackBytes,
    /// Workspace live bytes (`AllocPool`). Unlike every other counter this is a
    /// **gauge**: producers call [`gauge_add`]/[`gauge_sub`] as buffers are
    /// acquired and released, and the session total reports the *high-water
    /// mark* (peak simultaneous live bytes), not a sum. Never use [`add`]
    /// with this counter.
    ArenaLiveBytes,
    /// Job attempts re-executed by the serving layer after a transient
    /// failure (`tg-serve` retry-with-backoff).
    JobsRetried,
    /// Jobs rejected at admission because the service queue was saturated
    /// (`tg-serve` load shedding).
    JobsShed,
    /// Submissions served straight from the content-addressed result cache
    /// (`tg-serve`; see `docs/CACHING.md`).
    CacheHit,
    /// Cache-enabled submissions that had to run (no stored result; the
    /// denominator of the hit rate together with [`Counter::CacheHit`]).
    CacheMiss,
    /// Bytes of cached results evicted to respect the cache byte budget.
    CacheEvictedBytes,
    /// Submissions that attached to an identical in-flight job instead of
    /// entering the worker queue (`tg-serve` request coalescing).
    JobsCoalesced,
    /// Flops spent merging WY factors in the blocked back transformation
    /// (Algorithm 3 / Figure 13). Kept separate from [`Counter::Flops`] so
    /// the merge *overhead* of the width-`k` scheme can be reconciled
    /// against the gpu-sim cost model independently of the apply GEMMs.
    MergeFlops,
}

/// Number of [`Counter`] kinds (length of per-span counter arrays).
pub const N_COUNTERS: usize = 17;

impl Counter {
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::Flops,
        Counter::BytesRead,
        Counter::BytesWritten,
        Counter::Sweeps,
        Counter::BulgeTasks,
        Counter::ChecksRun,
        Counter::CheckFailures,
        Counter::FaultsInjected,
        Counter::PackBytes,
        Counter::ArenaLiveBytes,
        Counter::JobsRetried,
        Counter::JobsShed,
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::CacheEvictedBytes,
        Counter::JobsCoalesced,
        Counter::MergeFlops,
    ];

    fn index(self) -> usize {
        match self {
            Counter::Flops => 0,
            Counter::BytesRead => 1,
            Counter::BytesWritten => 2,
            Counter::Sweeps => 3,
            Counter::BulgeTasks => 4,
            Counter::ChecksRun => 5,
            Counter::CheckFailures => 6,
            Counter::FaultsInjected => 7,
            Counter::PackBytes => 8,
            Counter::ArenaLiveBytes => 9,
            Counter::JobsRetried => 10,
            Counter::JobsShed => 11,
            Counter::CacheHit => 12,
            Counter::CacheMiss => 13,
            Counter::CacheEvictedBytes => 14,
            Counter::JobsCoalesced => 15,
            Counter::MergeFlops => 16,
        }
    }

    /// Key used in exported JSON / profile tables.
    pub fn key(self) -> &'static str {
        match self {
            Counter::Flops => "flops",
            Counter::BytesRead => "bytes_read",
            Counter::BytesWritten => "bytes_written",
            Counter::Sweeps => "sweeps",
            Counter::BulgeTasks => "bulge_tasks",
            Counter::ChecksRun => "checks_run",
            Counter::CheckFailures => "check_failures",
            Counter::FaultsInjected => "faults_injected",
            Counter::PackBytes => "pack_bytes",
            Counter::ArenaLiveBytes => "arena_live_bytes",
            Counter::JobsRetried => "jobs_retried",
            Counter::JobsShed => "jobs_shed",
            Counter::CacheHit => "cache_hits",
            Counter::CacheMiss => "cache_misses",
            Counter::CacheEvictedBytes => "cache_evicted_bytes",
            Counter::JobsCoalesced => "jobs_coalesced",
            Counter::MergeFlops => "merge_flops",
        }
    }
}

/// A completed span (or virtual-time event), ready for export.
#[derive(Clone, Debug)]
pub struct Event {
    pub name: &'static str,
    /// Category: coarse grouping for trace viewers ("stage", "kernel", …).
    pub cat: &'static str,
    /// Optional argument, e.g. the sweep index for `bc.sweep`.
    pub arg: Option<(&'static str, u64)>,
    /// Logical thread id (stable per OS thread within a session).
    pub tid: u64,
    /// Start, microseconds since session begin (or virtual time).
    pub ts_us: f64,
    pub dur_us: f64,
    /// Inclusive counter totals for the span, indexed by [`Counter`].
    pub counters: [u64; N_COUNTERS],
    /// True for simulator events on the virtual timeline — exported under
    /// a separate pid so real and virtual time don't interleave.
    pub virtual_time: bool,
    /// Parallel-region membership: the region span itself (cat `"region"`)
    /// and every task span spawned under it carry the same id, which lets
    /// the timeline analyses group work by fork-join region even though the
    /// member spans live on different threads. `None` for ordinary spans.
    pub region: Option<u64>,
}

impl Event {
    /// Value of counter `c` attributed to this span (nested spans on the
    /// same thread included — counters roll up to the enclosing frame).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }
}

/// Everything recorded between [`TraceSession::begin`] and
/// [`TraceSession::finish`].
#[derive(Clone, Debug)]
pub struct Trace {
    /// Completed spans, ordered by start time.
    pub events: Vec<Event>,
    /// Session-wide counter totals (including counts recorded outside any
    /// span), indexed by [`Counter`].
    pub totals: [u64; N_COUNTERS],
    /// Wall time from session begin to finish.
    pub wall: Duration,
}

impl Trace {
    pub fn total(&self, c: Counter) -> u64 {
        self.totals[c.index()]
    }
}

// ---- global state ----

static ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static TOTALS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NEXT_REGION: AtomicU64 = AtomicU64::new(1);
/// Current value of the [`Counter::ArenaLiveBytes`] gauge; the session
/// total keeps the running maximum (see [`gauge_add`]).
static GAUGE_LIVE: AtomicU64 = AtomicU64::new(0);

struct CollectorState {
    epoch: Option<Instant>,
    events: Vec<Event>,
}

fn collector() -> &'static Mutex<CollectorState> {
    static COLLECTOR: OnceLock<Mutex<CollectorState>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(CollectorState {
            epoch: None,
            events: Vec::new(),
        })
    })
}

fn session_lock() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

/// Unpoisoned lock: a panicking instrumented test must not wedge tracing
/// for the rest of the process.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Frame {
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
    start: Instant,
    counters: [u64; N_COUNTERS],
    region: Option<u64>,
}

thread_local! {
    static STACK: std::cell::RefCell<Vec<Frame>> = const { std::cell::RefCell::new(Vec::new()) };
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == u64::MAX {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Whether a trace session is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Identifier of one parallel (fork-join) region. The coordinating thread
/// allocates one with [`RegionId::fresh`], opens the region span with
/// [`span_region`], and passes the id into its worker closures so each task
/// span tags itself as a member. Ids are process-unique within a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionId(pub u64);

impl RegionId {
    /// Allocates a fresh region id, or `None` when tracing is disabled so
    /// callers can thread an `Option<RegionId>` through worker closures at
    /// zero cost on the disabled path.
    #[inline]
    pub fn fresh() -> Option<RegionId> {
        if !enabled() {
            return None;
        }
        Some(RegionId(NEXT_REGION.fetch_add(1, Ordering::Relaxed)))
    }
}

/// The region of the innermost open region-tagged span on this thread —
/// lets a task body tag its own `"wait"` spans as members of the region
/// its fork-join engine opened. `None` when tracing is disabled or no
/// region span is open.
pub fn current_region() -> Option<RegionId> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().iter().rev().find_map(|f| f.region).map(RegionId))
}

// ---- session ----

/// RAII handle for one recording session. Only one session can be live at
/// a time; `begin` blocks until the previous one finishes.
pub struct TraceSession {
    _exclusive: MutexGuard<'static, ()>,
    begun: Instant,
}

impl TraceSession {
    pub fn begin() -> TraceSession {
        let exclusive = lock_unpoisoned(session_lock());
        let now = Instant::now();
        {
            let mut st = lock_unpoisoned(collector());
            st.epoch = Some(now);
            st.events.clear();
        }
        for t in &TOTALS {
            t.store(0, Ordering::Relaxed);
        }
        GAUGE_LIVE.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession {
            _exclusive: exclusive,
            begun: now,
        }
    }

    /// Stops recording and returns everything captured.
    ///
    /// Spans still open on *other* threads when `finish` is called are
    /// dropped (their counters were not yet flushed); finish after joining
    /// worker threads.
    pub fn finish(self) -> Trace {
        let wall = self.begun.elapsed();
        ENABLED.store(false, Ordering::SeqCst);
        let mut st = lock_unpoisoned(collector());
        st.epoch = None;
        let mut events = std::mem::take(&mut st.events);
        drop(st);
        events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        let mut totals = [0u64; N_COUNTERS];
        for (i, t) in TOTALS.iter().enumerate() {
            totals[i] = t.swap(0, Ordering::Relaxed);
        }
        Trace {
            events,
            totals,
            wall,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // finish() consumed self normally; this handles early drops (e.g.
        // a panicking test) so the next session starts clean.
        ENABLED.store(false, Ordering::SeqCst);
        let mut st = lock_unpoisoned(collector());
        st.epoch = None;
        st.events.clear();
    }
}

// ---- spans and counters ----

/// Closes the span (records the event) when dropped.
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span in category `"stage"`. Returns an inert guard when
/// tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_cat(name, "stage", None)
}

/// Opens a span with an explicit category and optional argument.
#[inline]
pub fn span_cat(
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
) -> SpanGuard {
    span_region(name, cat, arg, None)
}

/// Opens a span tagged with a parallel-region id (see [`RegionId`]).
/// Conventional categories: the coordinating span uses cat `"region"`,
/// member task spans `"task"`, long-lived worker-loop spans `"worker"`,
/// and dependency-stall spans `"wait"` — the timeline analyses key off
/// these categories when computing utilization.
#[inline]
pub fn span_region(
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
    region: Option<RegionId>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name,
            cat,
            arg,
            start: Instant::now(),
            counters: [0; N_COUNTERS],
            region: region.map(|r| r.0),
        })
    });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        // Pop unconditionally (the frame was pushed when this guard was
        // created), even if the session ended while the span was open.
        let frame = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            if let Some(parent) = stack.last_mut() {
                for i in 0..N_COUNTERS {
                    parent.counters[i] += frame.counters[i];
                }
            } else {
                for (total, &v) in TOTALS.iter().zip(frame.counters.iter()) {
                    if v != 0 {
                        total.fetch_add(v, Ordering::Relaxed);
                    }
                }
            }
            frame
        });
        let mut st = lock_unpoisoned(collector());
        if let Some(epoch) = st.epoch {
            let ts_us = frame.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
            let dur_us = end.saturating_duration_since(frame.start).as_secs_f64() * 1e6;
            st.events.push(Event {
                name: frame.name,
                cat: frame.cat,
                arg: frame.arg,
                tid: thread_id(),
                ts_us,
                dur_us,
                counters: frame.counters,
                virtual_time: false,
                region: frame.region,
            });
        }
    }
}

/// Adds `n` to counter `c`, attributed to the innermost open span on this
/// thread (or the session totals when no span is open).
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    let attributed = STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.counters[c.index()] += n;
            true
        } else {
            false
        }
    });
    if !attributed {
        TOTALS[c.index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Records a completed event on the **virtual** timeline (simulator time,
/// not wall time). `track` plays the role of a tid within the virtual pid.
pub fn record_virtual(
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
    track: u64,
    ts_us: f64,
    dur_us: f64,
) {
    if !enabled() {
        return;
    }
    let mut st = lock_unpoisoned(collector());
    if st.epoch.is_some() {
        st.events.push(Event {
            name,
            cat,
            arg,
            tid: track,
            ts_us,
            dur_us,
            counters: [0; N_COUNTERS],
            virtual_time: true,
            region: None,
        });
    }
}

/// Records an already-elapsed interval as a completed span on the calling
/// thread's lane — for durations that can only be measured after the fact,
/// such as the time a job spent parked in a queue before a worker picked it
/// up (`tg-serve` emits these with cat `"wait"` so the timeline analyses
/// separate queue wait from compute). The interval is clipped to the
/// session epoch; no counters are attributed.
pub fn record_span(
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
    start: Instant,
    end: Instant,
    region: Option<RegionId>,
) {
    if !enabled() {
        return;
    }
    let tid = thread_id();
    let mut st = lock_unpoisoned(collector());
    if let Some(epoch) = st.epoch {
        let ts_us = start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let dur_us = end
            .saturating_duration_since(start.max(epoch))
            .as_secs_f64()
            * 1e6;
        st.events.push(Event {
            name,
            cat,
            arg,
            tid,
            ts_us,
            dur_us,
            counters: [0; N_COUNTERS],
            virtual_time: false,
            region: region.map(|r| r.0),
        });
    }
}

/// Raises the [`Counter::ArenaLiveBytes`] gauge by `n` bytes and folds the
/// new current value into the session high-water mark. The peak is kept in
/// the ordinary totals slot via `fetch_max`, so [`Trace::total`] reports
/// *peak simultaneous* live bytes rather than a sum.
#[inline]
pub fn gauge_add(c: Counter, n: u64) {
    debug_assert!(matches!(c, Counter::ArenaLiveBytes));
    if !enabled() || n == 0 {
        return;
    }
    let now = GAUGE_LIVE.fetch_add(n, Ordering::Relaxed) + n;
    TOTALS[c.index()].fetch_max(now, Ordering::Relaxed);
}

/// Lowers the [`Counter::ArenaLiveBytes`] gauge by `n` bytes (saturating:
/// releases recorded without a traced acquire — e.g. a session opened
/// mid-computation — clamp at zero instead of wrapping).
#[inline]
pub fn gauge_sub(c: Counter, n: u64) {
    debug_assert!(matches!(c, Counter::ArenaLiveBytes));
    if !enabled() || n == 0 {
        return;
    }
    let _ = GAUGE_LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(n))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes this module's tests: the assertions around session
    /// boundaries (e.g. "enabled() is false before begin") would race with
    /// a concurrently-running instrumented test otherwise.
    fn serial() -> MutexGuard<'static, ()> {
        static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        lock_unpoisoned(TEST_LOCK.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _serial = serial();
        assert!(!enabled());
        let g = span("not.recorded");
        add(Counter::Flops, 123);
        drop(g);
        let session = TraceSession::begin();
        let trace = session.finish();
        assert!(trace.events.is_empty());
        assert_eq!(trace.total(Counter::Flops), 0);
    }

    #[test]
    fn counters_attribute_inclusively() {
        let _serial = serial();
        let session = TraceSession::begin();
        {
            let _outer = span("outer");
            add(Counter::Flops, 10);
            {
                let _inner = span_cat("inner", "kernel", Some(("k", 7)));
                add(Counter::Flops, 32);
                add(Counter::BytesRead, 8);
            }
            add(Counter::Flops, 100);
        }
        add(Counter::Sweeps, 1); // outside any span: straight to totals
        let trace = session.finish();
        assert_eq!(trace.total(Counter::Flops), 142);
        assert_eq!(trace.total(Counter::BytesRead), 8);
        assert_eq!(trace.total(Counter::Sweeps), 1);
        let inner = trace.events.iter().find(|e| e.name == "inner").unwrap();
        let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.counters[Counter::Flops.index()], 32);
        assert_eq!(outer.counters[Counter::Flops.index()], 142);
        assert_eq!(inner.arg, Some(("k", 7)));
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1.0);
    }

    #[test]
    fn spans_and_counters_across_threads() {
        let _serial = serial();
        let session = TraceSession::begin();
        let threads: u64 = 4;
        let per_thread: u64 = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let _w = span_cat("worker", "stage", Some(("w", t)));
                    for _ in 0..per_thread {
                        let _task = span_cat("task", "kernel", None);
                        add(Counter::Flops, 2);
                    }
                });
            }
        });
        let trace = session.finish();
        assert_eq!(trace.total(Counter::Flops), threads * per_thread * 2);
        let workers: Vec<_> = trace.events.iter().filter(|e| e.name == "worker").collect();
        assert_eq!(workers.len(), threads as usize);
        // all tasks nested under some worker span on the same thread
        for task in trace.events.iter().filter(|e| e.name == "task") {
            let host = workers.iter().find(|w| w.tid == task.tid).unwrap();
            assert!(task.ts_us >= host.ts_us);
        }
        // distinct tids per worker thread
        let mut tids: Vec<u64> = workers.iter().map(|w| w.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), threads as usize);
    }

    #[test]
    fn virtual_events_recorded() {
        let _serial = serial();
        let session = TraceSession::begin();
        record_virtual("sim.sweep", "sim", Some(("s", 0)), 0, 0.0, 10.0);
        record_virtual("sim.sweep", "sim", Some(("s", 1)), 1, 5.0, 10.0);
        let trace = session.finish();
        assert_eq!(trace.events.len(), 2);
        assert!(trace.events.iter().all(|e| e.virtual_time));
    }

    #[test]
    fn gauge_reports_high_water_not_sum() {
        let _serial = serial();
        let session = TraceSession::begin();
        gauge_add(Counter::ArenaLiveBytes, 100);
        gauge_add(Counter::ArenaLiveBytes, 50); // peak: 150
        gauge_sub(Counter::ArenaLiveBytes, 120);
        gauge_add(Counter::ArenaLiveBytes, 40); // current 70, below peak
        let trace = session.finish();
        assert_eq!(trace.total(Counter::ArenaLiveBytes), 150);
        // a fresh session starts from a clean gauge
        let s2 = TraceSession::begin();
        gauge_add(Counter::ArenaLiveBytes, 10);
        let t2 = s2.finish();
        assert_eq!(t2.total(Counter::ArenaLiveBytes), 10);
    }

    #[test]
    fn region_spans_tag_members_across_threads() {
        let _serial = serial();
        let session = TraceSession::begin();
        let region = RegionId::fresh();
        assert!(region.is_some(), "enabled session must mint region ids");
        {
            let _r = span_region("parallel.demo", "region", None, region);
            std::thread::scope(|s| {
                for i in 0..2u64 {
                    s.spawn(move || {
                        let _t = span_region("task.demo", "task", Some(("i", i)), region);
                    });
                }
            });
        }
        let trace = session.finish();
        let id = region.unwrap().0;
        let tagged: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.region == Some(id))
            .collect();
        assert_eq!(tagged.len(), 3); // opener + 2 tasks
        let regs = trace.region_utilization();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].tasks, 2);
        assert_eq!(regs[0].workers, 2);
    }

    #[test]
    fn region_ids_are_none_when_disabled() {
        let _serial = serial();
        assert!(!enabled());
        assert_eq!(RegionId::fresh(), None);
        let g = span_region("not.recorded", "task", None, None);
        drop(g);
        gauge_add(Counter::ArenaLiveBytes, 999);
        let session = TraceSession::begin();
        let trace = session.finish();
        assert!(trace.events.is_empty());
        assert_eq!(trace.total(Counter::ArenaLiveBytes), 0);
    }

    #[test]
    fn record_span_backdates_within_session() {
        let _serial = serial();
        // outside a session: inert
        record_span(
            "not.recorded",
            "wait",
            None,
            Instant::now(),
            Instant::now(),
            None,
        );
        let session = TraceSession::begin();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = Instant::now();
        record_span("queue.wait", "wait", Some(("job", 3)), t0, t1, None);
        let trace = session.finish();
        let e = trace
            .events
            .iter()
            .find(|e| e.name == "queue.wait")
            .expect("recorded");
        assert_eq!(e.cat, "wait");
        assert!(e.dur_us >= 1000.0, "dur {} us", e.dur_us);
        assert_eq!(e.arg, Some(("job", 3)));
        // an interval starting before the epoch is clipped, not negative
        let session = TraceSession::begin();
        record_span("pre.epoch", "wait", None, t0, Instant::now(), None);
        let trace = session.finish();
        let e = trace.events.iter().find(|e| e.name == "pre.epoch").unwrap();
        assert!(e.ts_us >= 0.0 && e.dur_us >= 0.0);
    }

    #[test]
    fn sessions_reset_state() {
        let _serial = serial();
        let s1 = TraceSession::begin();
        add(Counter::Flops, 5);
        let t1 = s1.finish();
        assert_eq!(t1.total(Counter::Flops), 5);
        let s2 = TraceSession::begin();
        let t2 = s2.finish();
        assert_eq!(t2.total(Counter::Flops), 0);
        assert!(t2.events.is_empty());
    }
}
