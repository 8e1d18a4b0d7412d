//! Integration tests for the batched EVD subsystem: determinism across
//! the scheduler, and the batch's task spans in the trace.
//!
//! Trace sessions are global, so every test here serializes on a local
//! mutex — spans recorded by a concurrently running solve would otherwise
//! leak into an open session.

use std::sync::{Mutex, MutexGuard};
use tridiag_gpu::prelude::*;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn problems(count: usize, n: usize) -> Vec<Mat> {
    (0..count)
        .map(|i| gen::random_symmetric(n, 7_000 + i as u64))
        .collect()
}

/// The ISSUE acceptance assertion: every batched result bitwise-identical
/// to the single-problem `syevd`, for vectors and values alike, across
/// worker counts.
#[test]
fn batched_results_bitwise_identical_to_syevd() {
    let _g = serial();
    let n = 28;
    let probs = problems(8, n);
    let method = EvdMethod::proposed_default(n);
    let singles: Vec<Evd> = probs
        .iter()
        .map(|a| syevd(&mut a.clone(), &method, true).unwrap())
        .collect();
    for workers in [1usize, 2, 5] {
        let batch = BatchScheduler::new(workers)
            .syevd(&probs, &method, true)
            .unwrap();
        for (i, (got, want)) in batch.results.iter().zip(&singles).enumerate() {
            assert_eq!(
                got.eigenvalues, want.eigenvalues,
                "problem {i}, {workers} workers: eigenvalues"
            );
            assert_eq!(
                got.eigenvectors, want.eigenvectors,
                "problem {i}, {workers} workers: eigenvectors"
            );
        }
    }
}

/// The serial reference loop in tg-eigen and the scheduler agree with
/// each other too (both are held to the single-problem path).
#[test]
fn scheduler_matches_serial_reference() {
    let _g = serial();
    let n = 20;
    let probs = problems(5, n);
    let method = EvdMethod::proposed_default(n);
    let serial = syevd_batched(&probs, &method, false).unwrap();
    let batch = BatchScheduler::new(3)
        .syevd(&probs, &method, false)
        .unwrap();
    for (a, b) in serial.iter().zip(&batch.results) {
        assert_eq!(a.eigenvalues, b.eigenvalues);
    }
}

/// Every problem of a batch is one `batch.problem` task span inside the
/// batch's parallel region.
#[test]
fn every_problem_is_a_task_span_of_the_batch_region() {
    let _g = serial();
    let n = 32;
    let probs = problems(16, n);
    let method = EvdMethod::proposed_default(n);
    let session = tg_trace::TraceSession::begin();
    BatchScheduler::new(1)
        .syevd(&probs, &method, false)
        .unwrap();
    let trace = session.finish();

    // per-problem spans are "task"-category members of the batch region
    assert!(
        trace
            .events
            .iter()
            .filter(|e| e.name == "batch.problem" && e.cat == "task" && e.region.is_some())
            .count()
            == probs.len(),
        "one batch.problem task span per problem"
    );
}

/// Mixed-shape batches stay bitwise correct problem by problem.
#[test]
fn mixed_shape_batch_is_still_bitwise_correct() {
    let _g = serial();
    let method = EvdMethod::proposed_default(24);
    let probs: Vec<Mat> = [16usize, 24, 16, 24, 32]
        .iter()
        .enumerate()
        .map(|(i, &n)| gen::random_symmetric(n, 50 + i as u64))
        .collect();
    let batch = BatchScheduler::new(2).syevd(&probs, &method, true).unwrap();
    for (a, got) in probs.iter().zip(&batch.results) {
        let single = syevd(&mut a.clone(), &method, true).unwrap();
        assert_eq!(got.eigenvalues, single.eigenvalues);
        assert_eq!(got.eigenvectors, single.eigenvectors);
    }
}

/// Batched tridiagonalization (not just full EVD) is deterministic too.
#[test]
fn batched_tridiagonalize_bitwise() {
    let _g = serial();
    let n = 24;
    let probs = problems(4, n);
    let method = Method::paper_default(n);
    let batch = BatchScheduler::new(2).tridiagonalize(&probs, &method);
    for (a, got) in probs.iter().zip(&batch.results) {
        let single = tridiagonalize(&mut a.clone(), &method);
        assert_eq!(got.tri.d, single.tri.d);
        assert_eq!(got.tri.e, single.tri.e);
    }
}
