//! Tier-1 determinism contract for the job service (ISSUE 7 satellite):
//! the *same* job set, served under `TG_THREADS ∈ {1, 2, 4, 7}` with a
//! fixed-seed fault campaign armed, must produce
//!
//! * bitwise-identical eigenvalue (and eigenvector) outputs for every
//!   job, identical to the direct `syevd` path, and
//! * an identical final job-status table,
//!
//! across all worker counts. Everything lives in one `#[test]` because
//! the runs mutate `TG_THREADS` (process-global) and arm process-global
//! check sessions — they must be strictly sequential.

use std::time::Duration;

use tg_check::{CheckConfig, CheckSession, FaultPlan};
use tg_eigen::{syevd, Evd, EvdMethod};
use tg_matrix::{gen, Mat};
use tg_serve::{render_status_table, JobService, JobSpec, JobStatus, Priority, ServeConfig};

const FAULT_SEED: u64 = 2025;
const N: usize = 20;
const JOBS: usize = 8;

fn job_set(method: &EvdMethod) -> Vec<JobSpec> {
    (0..JOBS)
        .map(|i| {
            JobSpec::new(
                gen::random_symmetric(N, 300 + i as u64),
                method.clone(),
                i % 2 == 0, // alternate vectors / values-only
            )
            .with_priority(Priority::ALL[i % 3])
        })
        .collect()
}

struct RunOutput {
    threads: usize,
    results: Vec<(Vec<f64>, Option<Mat>)>,
    status_table: String,
    completed: u64,
    retries: u64,
}

fn run_with_threads(threads: usize, method: &EvdMethod) -> RunOutput {
    std::env::set_var("TG_THREADS", threads.to_string());
    let plan = FaultPlan::campaign(FAULT_SEED);
    let session = CheckSession::begin(CheckConfig::fast().with_faults(plan));

    let svc = JobService::start(ServeConfig {
        workers: 0, // resolve from TG_THREADS — the knob under test
        queue_cap: JOBS,
        default_deadline: Duration::from_secs(300),
        max_retries: 4,
        retry_backoff: Duration::from_micros(100),
        ..ServeConfig::default()
    })
    .expect("valid TG_THREADS must be accepted");
    assert_eq!(svc.workers(), threads, "TG_THREADS not honoured");

    let ids: Vec<_> = job_set(method)
        .into_iter()
        .map(|spec| svc.submit(spec).expect("cap == job count: no shedding"))
        .collect();
    let results = ids
        .into_iter()
        .map(|id| {
            let outcome = svc.wait(id);
            assert_eq!(
                outcome.status,
                JobStatus::Completed,
                "job {id} did not complete under TG_THREADS={threads}"
            );
            let evd: Evd = outcome.result.expect("completed job has a result");
            (evd.eigenvalues, evd.eigenvectors)
        })
        .collect();
    let status_table = render_status_table(&svc.status_table());
    let stats = svc.shutdown();
    drop(session.finish());
    std::env::remove_var("TG_THREADS");

    assert!(stats.ledger.balanced());
    RunOutput {
        threads,
        results,
        status_table,
        completed: stats.ledger.completed,
        retries: stats.retries,
    }
}

#[test]
fn identical_job_sets_are_bitwise_identical_across_worker_counts() {
    let method = EvdMethod::proposed_default(N);

    // Uncorrupted serial references, outside any session or env override.
    std::env::remove_var("TG_THREADS");
    let references: Vec<(Vec<f64>, Option<Mat>)> = job_set(&method)
        .into_iter()
        .map(|spec| {
            let evd = syevd(&mut spec.matrix.clone(), &method, spec.want_vectors).unwrap();
            (evd.eigenvalues, evd.eigenvectors)
        })
        .collect();

    let runs: Vec<RunOutput> = [1usize, 2, 4, 7]
        .into_iter()
        .map(|t| run_with_threads(t, &method))
        .collect();

    for run in &runs {
        assert_eq!(run.completed as usize, JOBS);
        for (job, (got, want)) in run.results.iter().zip(&references).enumerate() {
            assert_eq!(
                got.0, want.0,
                "eigenvalues diverged from the direct path \
                 (job {job}, TG_THREADS={})",
                run.threads
            );
            assert_eq!(
                got.1, want.1,
                "eigenvectors diverged from the direct path \
                 (job {job}, TG_THREADS={})",
                run.threads
            );
        }
    }
    // Identical final status tables across all worker counts.
    let baseline = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            run.status_table, baseline.status_table,
            "status table diverged between TG_THREADS={} and TG_THREADS={}",
            baseline.threads, run.threads
        );
    }
    // The armed campaign actually exercised the retry path in every run —
    // without this the test would silently degrade into a no-fault rerun.
    for run in &runs {
        assert!(
            run.retries >= 1,
            "fault campaign never fired under TG_THREADS={}",
            run.threads
        );
    }
}
