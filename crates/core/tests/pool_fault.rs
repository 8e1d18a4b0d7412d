//! Fault-injection coverage of the caching pool's bitwise-zero acquire
//! contract: a `SkipZero` fault at `arena.acquire` leaks the previous
//! tenant's buffer (NaN-poisoned in debug builds) and the `workspace_zero`
//! checker must catch it on the very acquire that skipped the scrub. Plus
//! the trace-gauge half of `CachingPool::scrub`'s repair after an unwound
//! attempt.
//!
//! Check and trace sessions are process-global, so every test here holds
//! [`serial`].

use std::sync::{Mutex, MutexGuard};
use tg_check::fault::{FaultKind, FaultPlan};
use tg_check::{CheckConfig, CheckSession};
use tg_trace::{Counter, TraceSession};
use tridiag_core::{CachingPool, ShapeClass, WorkspacePool};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn skipped_scrub_of_poisoned_buffer_is_detected() {
    let _g = serial();
    let mut arena = CachingPool::new();
    arena.begin_problem(ShapeClass { n: 16, b: 4, k: 8 });

    // Park a dirty buffer in the free list. In debug builds `release`
    // NaN-poisons it; in release builds the written payload itself is the
    // stale data the skipped scrub would leak.
    let mut m = arena.acquire(6, 6);
    m.fill(3.25);
    arena.release(m);

    let session = CheckSession::begin(CheckConfig::strict().with_faults(FaultPlan::single(
        "arena.acquire",
        FaultKind::SkipZero,
        0,
    )));
    let _leaked = arena.acquire(6, 6);
    let report = session.finish();

    assert_eq!(report.faults_fired.len(), 1, "{}", report.render());
    assert_eq!(report.faults_fired[0].site, "arena.acquire");
    let ws: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.checker == "workspace_zero")
        .collect();
    assert!(!ws.is_empty(), "workspace checker never ran");
    assert!(
        ws.iter().any(|r| !r.pass),
        "leaked buffer not detected: {}",
        report.render()
    );
    #[cfg(debug_assertions)]
    assert!(
        report
            .records
            .iter()
            .any(|r| !r.pass && r.value.is_infinite()),
        "debug poison should surface as a non-finite entry: {}",
        report.render()
    );
}

#[test]
fn clean_acquires_pass_the_workspace_checker() {
    let _g = serial();
    let mut arena = CachingPool::new();
    arena.begin_problem(ShapeClass { n: 16, b: 4, k: 8 });
    let mut m = arena.acquire(5, 5);
    m.fill(7.0);
    arena.release(m);

    let session = CheckSession::begin(CheckConfig::strict());
    let _clean = arena.acquire(5, 5);
    let report = session.finish();
    assert!(report.passed(), "{}", report.render());
    assert!(report.faults_fired.is_empty());
    assert!(
        report.records.iter().any(|r| r.checker == "workspace_zero"),
        "hit-path acquire must run the workspace checker: {}",
        report.render()
    );
}

#[test]
fn scrub_repairs_the_live_bytes_gauge_after_an_unwound_attempt() {
    let _g = serial();
    let session = TraceSession::begin();
    let mut pool = CachingPool::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _held = pool.acquire(4, 4); // 128 B, dropped by the unwind
        panic!("attempt died with a buffer checked out");
    }));
    assert!(result.is_err());
    pool.scrub();
    // Without the repair the gauge would still hold the dead 128 B, and
    // this acquire would push the high-water mark to 256 B.
    let m = pool.acquire(4, 4);
    pool.release(m);
    let trace = session.finish();
    assert_eq!(trace.total(Counter::ArenaLiveBytes), 128);
}
