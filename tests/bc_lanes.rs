//! Bulge-chasing lanes fit the host.
//!
//! `bulge_chase_pipelined(band, S)` runs `min(S, n − 2, gemm_threads())`
//! lanes: one at `TG_THREADS=1` and one inside another fan-out (a batch
//! or serve worker), where it spawns no thread; two at `TG_THREADS=2`,
//! where lanes wait for each other at the Algorithm-2 gates (spinning,
//! then parking) and the result must still match `bulge_chase_seq` bit
//! for bit.

use std::sync::Mutex;
use tg_blas::threads::{run_tasks, Spans};
use tg_trace::{Event, TraceSession};
use tridiag_gpu::core::BcResult;
use tridiag_gpu::prelude::*;

/// Serializes the env-driven tests: `TG_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn band(n: usize, b: usize, seed: u64) -> SymBand {
    SymBand::from_dense_lower(&gen::random_symmetric_band(n, b, seed), b)
}

/// Runs `f` with `TG_THREADS=threads` under a trace session and returns
/// the events and the calling thread's trace id (read off a marker span).
fn traced_at(threads: &str, f: impl FnOnce()) -> (Vec<Event>, u64) {
    std::env::set_var("TG_THREADS", threads);
    let session = TraceSession::begin();
    {
        let _marker = tg_trace::span("bc_lanes_test.caller");
        f();
    }
    let events = session.finish().events;
    std::env::remove_var("TG_THREADS");
    let caller = events
        .iter()
        .find(|e| e.name == "bc_lanes_test.caller")
        .expect("marker span recorded")
        .tid;
    (events, caller)
}

/// The lane index `w` of every `bc.worker` span in the `parallel.bc`
/// regions opened on the threads `tids`. Sessions are process-wide, so
/// this keeps only the bulge chasing this test started.
fn bc_lanes(events: &[Event], tids: &[u64]) -> Vec<u64> {
    let regions: Vec<Option<u64>> = events
        .iter()
        .filter(|e| e.name == "parallel.bc" && tids.contains(&e.tid))
        .map(|e| e.region)
        .collect();
    events
        .iter()
        .filter(|e| e.name == "bc.worker" && regions.contains(&e.region))
        .map(|e| e.arg.map_or(0, |(_, w)| w))
        .collect()
}

fn assert_bitwise(a: &BcResult, b: &BcResult, ctx: &str) {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.tri.d), bits(&b.tri.d), "{ctx}: diagonal");
    assert_eq!(bits(&a.tri.e), bits(&b.tri.e), "{ctx}: off-diagonal");
    assert_eq!(a.reflectors.len(), b.reflectors.len(), "{ctx}: sweeps");
    for (s, (ra, rb)) in a.reflectors.iter().zip(&b.reflectors).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{ctx}: sweep {s} tasks");
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!((x.col, x.row0), (y.col, y.row0), "{ctx}: sweep {s}");
            assert_eq!(x.tau.to_bits(), y.tau.to_bits(), "{ctx}: sweep {s} tau");
            assert_eq!(bits(&x.v), bits(&y.v), "{ctx}: sweep {s} v");
        }
    }
}

#[test]
fn one_thread_runs_one_lane_on_the_caller() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let band = band(96, 8, 1);
    let (events, caller) = traced_at("1", || {
        bulge_chase_pipelined(&band, 4);
    });
    assert_eq!(bc_lanes(&events, &[caller]), [0], "one lane, lane 0");
    let sweeps: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "bc.sweep")
        .map(|e| e.tid)
        .collect();
    assert_eq!(sweeps.len(), 94);
    assert!(
        sweeps.iter().all(|&t| t == caller),
        "a sweep ran off the caller"
    );
}

#[test]
fn inside_a_two_lane_region_each_lane_runs_one_bc_lane() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let band = band(96, 8, 2);
    let outer = Spans {
        region: "parallel.bc_lanes_test",
        worker: "bc_lanes_test.worker",
        task: "bc_lanes_test.task",
    };
    // Both tasks meet at a barrier, so both outer lanes run one each.
    let barrier = std::sync::Barrier::new(2);
    let (events, _) = traced_at("2", || {
        run_tasks(outer, vec![(); 2], &mut [(); 2], |_, ()| {
            barrier.wait();
            bulge_chase_pipelined(&band, 4);
        });
    });
    let outer_id = events
        .iter()
        .find(|e| e.name == outer.region)
        .map(|e| e.region);
    let lanes: Vec<u64> = events
        .iter()
        .filter(|e| Some(e.region) == outer_id && e.cat == "worker")
        .map(|e| e.tid)
        .collect();
    assert_eq!(lanes.len(), 2);
    assert_eq!(bc_lanes(&events, &lanes), [0, 0], "a bc lane was spawned");
}

/// Two real lanes, at every `parallel_sweeps` that allows them, on bands
/// whose sweeps wait at the gates: bitwise equal to the sequential
/// reference, on both sides of the park.
#[test]
fn two_lanes_match_sequential_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (n, b, seed) in [(64usize, 4usize, 3u64), (130, 16, 4), (200, 32, 5)] {
        let band = band(n, b, seed);
        let reference = bulge_chase_seq(&band);
        for ps in [2usize, 4, 7] {
            let mut got = None;
            let (events, caller) = traced_at("2", || {
                got = Some(bulge_chase_pipelined(&band, ps));
            });
            let mut lanes = bc_lanes(&events, &[caller]);
            lanes.sort_unstable();
            assert_eq!(lanes, [0, 1], "n={n} b={b} S={ps}: two lanes");
            let got = got.expect("ran");
            assert_bitwise(&reference, &got, &format!("n={n} b={b} S={ps}"));
        }
    }
}
