//! Integration tests for the `tg-trace` observability layer: span nesting
//! across the real pipelines, counter attribution, disabled-path inertness,
//! Chrome-trace export validity, and the model-vs-measured acceptance
//! criterion.
//!
//! Trace sessions are global, so every test here serializes on a local
//! mutex — counters recorded by a concurrently running test would otherwise
//! leak into an open session.

use std::sync::{Mutex, MutexGuard, OnceLock};
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::gen;
use tg_trace::{Counter, Trace, TraceSession};
use tridiag_core::{tridiagonalize, DbbrConfig, Method};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn traced_evd(n: usize) -> Trace {
    let mut a = gen::random_symmetric(n, 7);
    let session = TraceSession::begin();
    let evd = syevd(&mut a, &EvdMethod::proposed_default(n), true).unwrap();
    assert_eq!(evd.eigenvalues.len(), n);
    session.finish()
}

#[test]
fn evd_stage_spans_sum_to_root_span() {
    let _g = serial();
    let trace = traced_evd(64);
    let dur = |name: &str| -> f64 {
        trace
            .events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us)
            .sum()
    };
    let root = dur("evd");
    assert!(root > 0.0, "no evd root span");
    let stages = dur("evd.reduce") + dur("evd.solve") + dur("evd.backtransform");
    let rel = (root - stages).abs() / root;
    assert!(
        rel < 0.05,
        "stages {stages:.1}us vs root {root:.1}us ({:.1}% unaccounted)",
        rel * 100.0
    );
}

#[test]
fn evd_trace_counts_work_and_nests_spans() {
    let _g = serial();
    let trace = traced_evd(64);
    assert!(trace.total(Counter::Flops) > 0);
    assert!(trace.total(Counter::Sweeps) > 0);
    assert!(trace.total(Counter::BulgeTasks) > 0);
    // kernel spans from the reduction must appear alongside stage spans
    for name in [
        "evd",
        "evd.reduce",
        "reduce.dbbr",
        "bc.pipeline",
        "bc.sweep",
    ] {
        assert!(
            trace.events.iter().any(|e| e.name == name),
            "missing span {name}"
        );
    }
    // pipelined bulge chasing runs sweeps on several threads
    let mut tids: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.name == "bc.sweep")
        .map(|e| e.tid)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() > 1, "bc.sweep spans all on one thread");
    // every bc.sweep lies within the evd root span's window
    let root = trace.events.iter().find(|e| e.name == "evd").unwrap();
    for e in trace.events.iter().filter(|e| e.name == "bc.sweep") {
        assert!(e.ts_us + 1e-9 >= root.ts_us);
        assert!(e.ts_us + e.dur_us <= root.ts_us + root.dur_us + 1e-9);
    }
}

#[test]
fn parallel_and_sequential_pipelines_count_identically() {
    let _g = serial();
    let a0 = gen::random_symmetric(40, 11);
    let run = |parallel_sweeps: usize| -> Trace {
        let mut a = a0.clone();
        let session = TraceSession::begin();
        let _ = tridiagonalize(
            &mut a,
            &Method::Dbbr {
                cfg: DbbrConfig::new(2, 4),
                parallel_sweeps,
            },
        );
        session.finish()
    };
    let seq = run(1);
    let par = run(4);
    // counters sum deterministically no matter how many threads recorded them
    for c in Counter::ALL {
        assert_eq!(seq.total(c), par.total(c), "{} differs", c.key());
    }
    assert!(seq.total(Counter::Sweeps) > 0);
}

#[test]
fn disabled_path_records_nothing() {
    let _g = serial();
    // work performed with no session open must leave no residue behind
    let mut a = gen::random_symmetric(32, 3);
    let _ = tridiagonalize(&mut a, &Method::paper_default(32));
    let session = TraceSession::begin();
    let trace = session.finish();
    assert!(trace.events.is_empty());
    for c in Counter::ALL {
        assert_eq!(trace.total(c), 0, "leaked {}", c.key());
    }
}

#[test]
fn chrome_json_roundtrips_with_valid_events() {
    let _g = serial();
    let trace = traced_evd(48);
    let json = trace.chrome_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("chrome trace must parse");
    let obj = v.as_object().expect("top level object");
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v.as_array().expect("traceEvents array"))
        .expect("traceEvents key");
    // The export carries "M" (metadata: process/thread names) events in
    // addition to one "X" event per recorded span.
    let mut x_count = 0usize;
    for ev in events {
        let e = ev.as_object().expect("event object");
        let field = |k: &str| e.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let ph = field("ph").and_then(|v| v.as_str()).expect("ph");
        assert!(field("name").and_then(|v| v.as_str()).is_some());
        assert!(field("pid").and_then(|v| v.as_f64()).is_some());
        assert!(field("tid").and_then(|v| v.as_f64()).is_some());
        match ph {
            "M" => continue,
            "X" => x_count += 1,
            other => panic!("unexpected phase {other:?}"),
        }
        let ts = field("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = field("dur").and_then(|v| v.as_f64()).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
    }
    assert_eq!(x_count, trace.events.len());
}

#[test]
fn timeline_nesting_is_well_formed_per_thread() {
    let _g = serial();
    let trace = traced_evd(64);
    // Spans on each thread must form a proper forest: positive-or-zero
    // durations, no partially overlapping siblings.
    trace.validate_nesting().expect("well-formed timeline");
    assert!(!trace.lanes(false).is_empty());
}

#[test]
fn worker_ids_are_stable_within_a_region() {
    let _g = serial();
    // Every fan-out goes through one engine, so one span schema must hold
    // for every `parallel.*` region: a full EVD with vectors at two
    // threads (GEMM, syr2k, batched-GEMM, D&C, bulge-chasing and
    // back-transform regions) plus a two-worker batch.
    let n = 256;
    let mut a = gen::random_symmetric(n, 7);
    let problems: Vec<_> = (0..6).map(|s| gen::random_symmetric(24, 40 + s)).collect();
    std::env::set_var("TG_THREADS", "2");
    let session = TraceSession::begin();
    let evd = syevd(&mut a, &EvdMethod::proposed_default(n), true).unwrap();
    let batch = tg_batch::BatchScheduler::new(2)
        .syevd(&problems, &EvdMethod::proposed_default(24), false)
        .unwrap();
    let trace = session.finish();
    std::env::remove_var("TG_THREADS");
    assert_eq!(evd.eigenvalues.len(), n);
    assert_eq!(batch.results.len(), 6);

    let regions = trace.region_utilization();
    for r in &regions {
        assert!(r.name.starts_with("parallel."), "region opener {}", r.name);
        let members = || trace.events.iter().filter(|e| e.region == Some(r.region));
        // Worker ids never change mid-region: every task runs on the tid
        // of one of the region's worker lane markers.
        let mut lanes: Vec<u64> = members()
            .filter(|e| e.cat == "worker")
            .map(|e| e.tid)
            .collect();
        let worker_spans = lanes.len();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(
            lanes.len(),
            worker_spans,
            "{}: two lane markers on one tid",
            r.name
        );
        for e in members().filter(|e| e.cat == "task") {
            assert!(
                lanes.contains(&e.tid),
                "{}: task {} on tid {} outside worker lanes {lanes:?}",
                r.name,
                e.name,
                e.tid
            );
        }
        // ... and the utilization analysis counts exactly those lanes.
        assert_eq!(r.workers, worker_spans, "{}: lanes vs worker spans", r.name);
        assert!(r.tasks >= 1, "{}: region without tasks", r.name);
    }
    let named = |name: &'static str| regions.iter().filter(move |r| r.name == name);
    for name in [
        "parallel.bc",
        "parallel.dc",
        "parallel.backtransform",
        "parallel.batch",
    ] {
        assert!(named(name).next().is_some(), "no {name} region");
    }
    // D&C fans out once, at the top split: the recursion stays on its lane.
    assert!(named("parallel.dc").all(|r| r.workers <= 2));
    let batch_region = named("parallel.batch").next().unwrap();
    assert_eq!(batch_region.workers, 2);
    assert_eq!(batch_region.tasks, 6);
    assert!(batch_region.imbalance >= 1.0);
}

#[test]
fn disabled_tracing_records_no_timeline_and_no_gauges() {
    let _g = serial();
    // A full batch run with tracing disabled must leave nothing behind:
    // no lanes, no regions, no workspace high-water mark.
    let problems: Vec<_> = (0..3).map(|s| gen::random_symmetric(24, 50 + s)).collect();
    let method = EvdMethod::proposed_default(24);
    let _ = tg_batch::BatchScheduler::new(2)
        .syevd(&problems, &method, false)
        .unwrap();
    let session = TraceSession::begin();
    let trace = session.finish();
    assert!(trace.events.is_empty());
    assert!(trace.lanes(false).is_empty());
    assert!(trace.region_utilization().is_empty());
    assert_eq!(trace.total(Counter::ArenaLiveBytes), 0);
    assert!(trace.flamegraph().is_empty());
    assert_eq!(trace.critical_path().rows.len(), 0);
}

#[test]
fn arena_live_bytes_high_water_is_recorded() {
    let _g = serial();
    let session = TraceSession::begin();
    let mut a = gen::random_symmetric(48, 9);
    let _ = tridiagonalize(&mut a, &Method::paper_default(48));
    let trace = session.finish();
    let peak = trace.total(Counter::ArenaLiveBytes);
    assert!(peak > 0, "no workspace high-water mark recorded");
    // The reduction's scratch is a few n×k panels — sanity-bound the peak
    // to rule out leaks in the gauge accounting (gauge_sub not firing
    // would push the "peak" toward the sum of all acquisitions).
    let bound = 8 * 48 * 48 * 20;
    assert!(peak < bound as u64, "peak {peak} exceeds sanity bound");
}

#[test]
fn flamegraph_lines_are_collapsed_stacks() {
    let _g = serial();
    let trace = traced_evd(48);
    let fg = trace.flamegraph();
    assert!(!fg.is_empty());
    for line in fg.lines() {
        let (stack, us) = line.rsplit_once(' ').expect("`stack us` shape");
        assert!(stack.starts_with("worker-"), "bad stack root: {line}");
        us.parse::<u64>().expect("integer microseconds");
    }
    // Nested kernels appear below their stage on the critical stacks.
    assert!(
        fg.lines().any(|l| l.contains("evd.reduce;")),
        "no stack descends through evd.reduce:\n{fg}"
    );
}

#[test]
fn profile_table_reports_stages_and_total() {
    let _g = serial();
    let trace = traced_evd(48);
    let table = trace.profile_table();
    for needle in ["evd.reduce", "evd.solve", "evd.backtransform", "TOTAL"] {
        assert!(table.contains(needle), "profile table missing {needle}");
    }
}

/// Acceptance criterion: traced counters match the analytic formulas the
/// GPU cost models use, within 1 %, on at least two `(n, b, k)` shapes.
#[test]
fn model_vs_measured_within_one_percent() {
    let _g = serial();
    let rows = tg_gpu_sim::model_check::model_vs_measured(&[(64, 8, 16), (128, 16, 32)]);
    assert!(rows.len() >= 8);
    for r in &rows {
        assert!(
            r.within_tolerance(),
            "{} {:?} {}: measured {} vs model {} ({:.2}%)",
            r.kernel,
            r.shape,
            r.quantity,
            r.measured,
            r.modeled,
            r.rel_err() * 100.0
        );
    }
    let report = tg_gpu_sim::model_check::report(&rows);
    assert!(!report.contains("MISMATCH"));
}
