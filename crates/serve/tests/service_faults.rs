//! Fault-driven behaviour: retries are exercised by *real* injected
//! faults from tg-check's instrumented sites — never mocked. Kept in its
//! own test binary because check sessions (and their armed fault plans)
//! are process-global; mixing them with fault-free service tests in one
//! binary would let an unrelated job absorb the fault.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use tg_check::{CheckConfig, CheckSession, FaultKind, FaultPlan};
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::gen;
use tg_serve::{JobService, JobSpec, JobStatus, ServeConfig};

/// Serializes the tests: each computes its uncorrupted reference outside a
/// check session, which must not overlap a sibling's armed fault plan.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 8,
        max_retries: 2,
        retry_backoff: Duration::from_micros(100),
        ..ServeConfig::default()
    }
}

/// A NaN injected into the eigenvalue output is detected (fired-fault
/// delta + finiteness screen), retried from the pristine input, and healed —
/// the final result is bitwise-identical to an uncorrupted direct solve.
#[test]
fn injected_nan_is_retried_to_a_bitwise_clean_result() {
    let _g = serial();
    let n = 20;
    let method = EvdMethod::proposed_default(n);
    let a = gen::random_symmetric(n, 21);
    // Uncorrupted reference, computed outside any check session.
    let want = syevd(&mut a.clone(), &method, true).unwrap();

    let session = CheckSession::begin(CheckConfig::fast().with_faults(FaultPlan::single(
        "evd.values",
        FaultKind::Nan,
        3,
    )));
    let svc = JobService::start(serve_cfg()).unwrap();
    let id = svc
        .submit(JobSpec::new(a.clone(), method.clone(), true))
        .unwrap();
    let outcome = svc.wait(id);
    let stats = svc.shutdown();
    drop(session.finish());

    assert_eq!(outcome.status, JobStatus::Completed);
    // attempts ≥ 2 is the evidence the fault really fired and forced a
    // retry — a skipped fault would complete on the first attempt.
    assert!(
        outcome.attempts >= 2,
        "fault must have forced a retry (attempts = {})",
        outcome.attempts
    );
    assert!(stats.retries >= 1);
    let got = outcome.result.unwrap();
    assert_eq!(got.eigenvalues, want.eigenvalues);
    assert_eq!(got.eigenvectors, want.eigenvectors);
}

/// Silent corruption — a finite perturbation of one eigenvalue — passes
/// the NaN screen but is still caught by the fired-on-thread delta and
/// retried. This is the case that proves detection isn't just `is_finite`.
#[test]
fn silent_perturbation_is_detected_and_retried() {
    let _g = serial();
    let n = 18;
    let method = EvdMethod::proposed_default(n);
    let a = gen::random_symmetric(n, 22);
    let want = syevd(&mut a.clone(), &method, false).unwrap();

    let _session = CheckSession::begin(CheckConfig::fast().with_faults(FaultPlan::single(
        "evd.values",
        FaultKind::Perturb(1e-2),
        1,
    )));
    let svc = JobService::start(serve_cfg()).unwrap();
    let id = svc.submit(JobSpec::new(a, method, false)).unwrap();
    let outcome = svc.wait(id);
    let stats = svc.shutdown();

    assert_eq!(outcome.status, JobStatus::Completed);
    assert!(outcome.attempts >= 2, "silent corruption was served as-is");
    assert!(stats.retries >= 1);
    assert_eq!(outcome.result.unwrap().eigenvalues, want.eigenvalues);
}

/// A whole seed-derived campaign (one fault armed per site) against a
/// multi-job workload: every job must end terminal within its deadline,
/// every completed job bitwise-matches the direct path, and the ledger
/// conserves. This is the in-tree miniature of `repro fault_campaign
/// --serve`.
#[test]
fn campaign_workload_quiesces_with_clean_results() {
    let _g = serial();
    let n = 20;
    let method = EvdMethod::proposed_default(n);
    let problems: Vec<_> = (0..6).map(|s| gen::random_symmetric(n, 50 + s)).collect();
    let references: Vec<_> = problems
        .iter()
        .map(|a| syevd(&mut a.clone(), &method, true).unwrap())
        .collect();

    let _session =
        CheckSession::begin(CheckConfig::fast().with_faults(FaultPlan::campaign(0xC0FFEE)));
    let svc = JobService::start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        max_retries: 3,
        retry_backoff: Duration::from_micros(100),
        ..ServeConfig::default()
    })
    .unwrap();
    let ids: Vec<_> = problems
        .iter()
        .map(|a| {
            svc.submit(JobSpec::new(a.clone(), method.clone(), true))
                .unwrap()
        })
        .collect();
    assert!(
        svc.wait_quiescent(Duration::from_secs(120)),
        "campaign workload hung"
    );
    for (id, want) in ids.into_iter().zip(&references) {
        let outcome = svc.wait(id);
        assert_eq!(
            outcome.status,
            JobStatus::Completed,
            "job {id} did not heal: {:?}",
            outcome.status
        );
        let got = outcome.result.unwrap();
        assert_eq!(got.eigenvalues, want.eigenvalues, "job {id} eigenvalues");
        assert_eq!(got.eigenvectors, want.eigenvectors, "job {id} eigenvectors");
    }
    let stats = svc.shutdown();
    assert!(stats.ledger.balanced());
    assert_eq!(stats.ledger.completed, 6);
}
