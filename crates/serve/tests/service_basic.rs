//! Service-level behaviour without fault injection: bitwise result parity
//! with the direct path, typed shedding, deadlines, cancellation, and
//! drain-on-shutdown. (Fault-driven retry lives in `service_faults.rs`,
//! its own binary, because check sessions are process-global.)

use std::time::Duration;

use tg_eigen::{syevd, EvdMethod};
use tg_matrix::gen;
use tg_serve::{FailReason, JobService, JobSpec, JobStatus, Priority, ServeConfig, SubmitError};

fn cfg(workers: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap,
        ..ServeConfig::default()
    }
}

#[test]
fn completed_results_bitwise_match_direct_path() {
    let n = 20;
    let method = EvdMethod::proposed_default(n);
    let svc = JobService::start(cfg(2, 16)).unwrap();
    let problems: Vec<_> = (0..6).map(|s| gen::random_symmetric(n, 40 + s)).collect();
    let ids: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let p = Priority::ALL[i % 3];
            svc.submit(JobSpec::new(a.clone(), method.clone(), true).with_priority(p))
                .unwrap()
        })
        .collect();
    for (a, id) in problems.iter().zip(ids) {
        let outcome = svc.wait(id);
        assert_eq!(outcome.status, JobStatus::Completed);
        assert_eq!(outcome.attempts, 1);
        let got = outcome.result.expect("completed job carries a result");
        let want = syevd(&mut a.clone(), &method, true).unwrap();
        assert_eq!(got.eigenvalues, want.eigenvalues, "eigenvalues diverged");
        assert_eq!(got.eigenvectors, want.eigenvectors, "eigenvectors diverged");
    }
    let stats = svc.shutdown();
    assert!(stats.ledger.quiescent());
    assert_eq!(stats.ledger.completed, 6);
    assert_eq!(stats.retries, 0);
}

#[test]
fn overload_sheds_with_typed_rejection_and_conserves_jobs() {
    let n = 24;
    let method = EvdMethod::proposed_default(n);
    let svc = JobService::start(cfg(1, 1)).unwrap();
    // Pre-build the specs so submission is much faster than compute; with
    // queue_cap 1 and one worker, most of the burst must shed.
    let specs: Vec<_> = (0..24)
        .map(|s| JobSpec::new(gen::random_symmetric(n, 90 + s), method.clone(), false))
        .collect();
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for spec in specs {
        match svc.submit(spec) {
            Ok(_) => admitted += 1,
            Err(SubmitError::Overloaded { queue_cap, .. }) => {
                assert_eq!(queue_cap, 1);
                shed += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(shed > 0, "24-job burst at cap 1 never shed");
    assert!(
        svc.wait_quiescent(Duration::from_secs(120)),
        "service failed to quiesce"
    );
    let table = svc.status_table();
    assert_eq!(table.len(), 24, "every submission owns a status row");
    assert_eq!(
        table.iter().filter(|r| r.status_label == "shed").count() as u64,
        shed
    );
    let stats = svc.shutdown();
    assert_eq!(stats.ledger.submitted, 24);
    assert_eq!(stats.ledger.shed, shed);
    assert_eq!(
        stats.ledger.completed + stats.ledger.failed,
        admitted,
        "an admitted job vanished"
    );
    assert!(stats.ledger.balanced());
}

#[test]
fn expired_deadline_fails_typed_without_compute() {
    let n = 16;
    let svc = JobService::start(cfg(1, 8)).unwrap();
    let spec = JobSpec::new(
        gen::random_symmetric(n, 3),
        EvdMethod::proposed_default(n),
        true,
    )
    .with_deadline(Duration::from_nanos(1));
    let id = svc.submit(spec).unwrap();
    let outcome = svc.wait(id);
    assert_eq!(
        outcome.status,
        JobStatus::Failed(FailReason::DeadlineExceeded)
    );
    assert_eq!(outcome.attempts, 0, "expired job must not burn compute");
    assert!(outcome.result.is_none());
    let stats = svc.shutdown();
    assert_eq!(stats.ledger.failed, 1);
    assert!(stats.ledger.balanced());
}

#[test]
fn cancelling_a_queued_job_is_immediate_and_typed() {
    let n_long = 96; // keeps the single worker busy while we race it
    let svc = JobService::start(cfg(1, 8)).unwrap();
    let blocker = svc
        .submit(JobSpec::new(
            gen::random_symmetric(n_long, 5),
            EvdMethod::proposed_default(n_long),
            true,
        ))
        .unwrap();
    // Wait until the worker has actually claimed the blocker.
    while svc.status_table()[blocker as usize].status_label == "queued" {
        std::thread::yield_now();
    }
    let victim = svc
        .submit(JobSpec::new(
            gen::random_symmetric(16, 6),
            EvdMethod::proposed_default(16),
            true,
        ))
        .unwrap();
    assert!(svc.cancel(victim), "queued job must be cancellable");
    let outcome = svc.wait(victim);
    assert_eq!(outcome.status, JobStatus::Failed(FailReason::Cancelled));
    assert_eq!(outcome.attempts, 0);
    // Cancelling a terminal job is a no-op.
    assert!(!svc.cancel(victim));
    // The blocker is unaffected.
    let blocked = svc.wait(blocker);
    assert_eq!(blocked.status, JobStatus::Completed);
    let stats = svc.shutdown();
    assert!(stats.ledger.balanced());
    assert_eq!((stats.ledger.completed, stats.ledger.failed), (1, 1));
}

#[test]
fn shutdown_drains_admitted_jobs() {
    let n = 16;
    let method = EvdMethod::proposed_default(n);
    let svc = JobService::start(cfg(2, 16)).unwrap();
    for s in 0..8 {
        svc.submit(JobSpec::new(
            gen::random_symmetric(n, 70 + s),
            method.clone(),
            false,
        ))
        .unwrap();
    }
    let stats = svc.shutdown(); // immediately: queue is still full
    assert!(stats.ledger.quiescent(), "shutdown left pending jobs");
    assert_eq!(stats.ledger.completed, 8, "drain must finish admitted work");
}

#[test]
fn service_restarts_cleanly_after_shutdown() {
    let svc = JobService::start(cfg(1, 4)).unwrap();
    let stats = svc.shutdown();
    assert!(stats.ledger.quiescent());
    // A fresh service boots fine afterwards (no leaked global state), and
    // dropping a handle without an explicit shutdown also joins cleanly.
    let svc2 = JobService::start(cfg(1, 4)).unwrap();
    drop(svc2);
}

#[test]
fn config_rejections_are_typed() {
    use tg_serve::ConfigError;
    assert_eq!(
        JobService::start(ServeConfig {
            workers: 1,
            queue_cap: 0,
            ..ServeConfig::default()
        })
        .err(),
        Some(ConfigError::ZeroQueueCap)
    );
    assert_eq!(
        JobService::start(ServeConfig {
            workers: 1,
            default_deadline: Duration::ZERO,
            ..ServeConfig::default()
        })
        .err(),
        Some(ConfigError::ZeroDeadline)
    );
}

#[test]
fn priority_classes_drain_high_first_under_one_worker() {
    let n_long = 96;
    let n = 16;
    let svc = JobService::start(cfg(1, 16)).unwrap();
    let blocker = svc
        .submit(JobSpec::new(
            gen::random_symmetric(n_long, 8),
            EvdMethod::proposed_default(n_long),
            true,
        ))
        .unwrap();
    while svc.status_table()[blocker as usize].status_label == "queued" {
        std::thread::yield_now();
    }
    // Queue while the worker is pinned: low first, then high.
    let low = svc
        .submit(
            JobSpec::new(
                gen::random_symmetric(n, 9),
                EvdMethod::proposed_default(n),
                false,
            )
            .with_priority(Priority::Low),
        )
        .unwrap();
    let high = svc
        .submit(
            JobSpec::new(
                gen::random_symmetric(n, 10),
                EvdMethod::proposed_default(n),
                false,
            )
            .with_priority(Priority::High),
        )
        .unwrap();
    let high_out = svc.wait(high);
    let low_out = svc.wait(low);
    assert_eq!(high_out.status, JobStatus::Completed);
    assert_eq!(low_out.status, JobStatus::Completed);
    // The single worker served high before low despite admission order —
    // queue wait tells the story even after both complete.
    assert!(
        high_out.queue_wait <= low_out.queue_wait,
        "high-priority job waited longer than the low-priority one \
         (high {:?} vs low {:?})",
        high_out.queue_wait,
        low_out.queue_wait
    );
    svc.shutdown();
}

#[test]
fn non_finite_input_fails_after_one_attempt_without_retry() {
    let n = 64;
    let mut a = gen::random_symmetric(n, 8);
    a[(40, 17)] = f64::NAN;
    a[(17, 40)] = f64::NAN;
    let svc = JobService::start(ServeConfig::default()).unwrap();
    let id = svc
        .submit(JobSpec::new(a, EvdMethod::proposed_default(n), true))
        .unwrap();
    let outcome = svc.wait(id);
    assert_eq!(
        outcome.status,
        JobStatus::Failed(FailReason::NonFiniteInput { row: 40, col: 17 })
    );
    assert_eq!(outcome.status.label(), "non-finite-input");
    assert_eq!(outcome.attempts, 1, "the input gate ran exactly once");
    assert!(outcome.result.is_none());
    let stats = svc.shutdown();
    assert_eq!(stats.retries, 0, "a bad input is not retried");
    assert_eq!(stats.ledger.failed, 1);
    assert!(stats.ledger.balanced());
}

#[test]
fn open_loop_burst_accounts_for_every_spec() {
    let n = 32;
    let method = EvdMethod::proposed_default(n);
    let svc = JobService::start(cfg(1, 1)).unwrap();
    let specs: Vec<_> = (0..16)
        .map(|s| JobSpec::new(gen::random_symmetric(n, 120 + s), method.clone(), false))
        .collect();
    let (admitted, shed) = svc.submit_open_loop(specs, 0.0);
    assert!(
        admitted.windows(2).all(|w| w[0].0 < w[1].0),
        "admitted indices come back in submission order"
    );
    assert_eq!(admitted.len() as u64 + shed, 16);
    assert!(
        svc.wait_quiescent(Duration::from_secs(120)),
        "service failed to quiesce"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.ledger.shed, shed);
    assert_eq!(stats.ledger.submitted, 16);
}
