//! Tier-1 determinism contract for the content-addressed result cache
//! (ISSUE 8): the PR 7 job set — submitted **twice**, so the second pass
//! repeats every problem — served with the cache off and on, under
//! `TG_THREADS ∈ {1, 2, 4, 7}` with a fixed-seed fault campaign
//! armed, must produce across all **eight** configurations:
//!
//! * bitwise-identical eigenvalue (and eigenvector) outputs for every
//!   job, identical to the direct `syevd` path — a result served from the
//!   cache or by coalescing is indistinguishable from a fresh solve;
//! * an identical final job-status table;
//! * with the cache on: exactly one worker solve and one cache insertion
//!   per distinct problem, the whole second pass served by the cache or
//!   coalescing, and — because the fault campaign forces retries — proof
//!   that a faulted attempt never reaches the cache (`verify_hits`
//!   re-solves every hit and asserts bitwise equality).
//!
//! One `#[test]`: the runs mutate process-global env (`TG_THREADS`) and
//! arm process-global check sessions.

use std::time::Duration;

use tg_check::{CheckConfig, CheckSession, FaultPlan};
use tg_eigen::{syevd, Evd, EvdMethod};
use tg_matrix::{gen, Mat};
use tg_serve::{render_status_table, JobService, JobSpec, JobStatus, Priority, ServeConfig};

const FAULT_SEED: u64 = 2025;
const N: usize = 20;
const JOBS: usize = 8;

/// The PR 7 job set (`tests/serve_determinism.rs`), verbatim.
fn job_set(method: &EvdMethod) -> Vec<JobSpec> {
    (0..JOBS)
        .map(|i| {
            JobSpec::new(
                gen::random_symmetric(N, 300 + i as u64),
                method.clone(),
                i % 2 == 0,
            )
            .with_priority(Priority::ALL[i % 3])
        })
        .collect()
}

struct RunOutput {
    threads: usize,
    cached: bool,
    results: Vec<(Vec<f64>, Option<Mat>)>,
    status_table: String,
    stats: tg_serve::ServiceStats,
}

fn run_config(threads: usize, cached: bool, method: &EvdMethod) -> RunOutput {
    std::env::set_var("TG_THREADS", threads.to_string());
    let plan = FaultPlan::campaign(FAULT_SEED);
    let session = CheckSession::begin(CheckConfig::fast().with_faults(plan));

    let svc = JobService::start(ServeConfig {
        workers: 0, // resolve from TG_THREADS
        queue_cap: 2 * JOBS,
        default_deadline: Duration::from_secs(300),
        max_retries: 4,
        retry_backoff: Duration::from_micros(100),
        cache_bytes: if cached { 8 * 1024 * 1024 } else { 0 },
        dedup: cached,
        // Every hit re-solves through the reference path and panics on a
        // bitwise mismatch — if a faulted attempt ever reached the cache,
        // this run would die here rather than return corrupt bytes.
        verify_hits: cached,
    })
    .expect("valid TG_THREADS must be accepted");
    assert_eq!(svc.workers(), threads, "TG_THREADS not honoured");

    // The job set twice: pass one populates, pass two repeats every
    // problem and (cache on) must be served without a second solve.
    let ids: Vec<_> = job_set(method)
        .into_iter()
        .chain(job_set(method))
        .map(|spec| svc.submit(spec).expect("cap == submission count"))
        .collect();
    let results = ids
        .into_iter()
        .map(|id| {
            let outcome = svc.wait(id);
            assert_eq!(
                outcome.status,
                JobStatus::Completed,
                "job {id} did not complete (TG_THREADS={threads}, cached={cached})"
            );
            let evd: Evd = outcome.result.expect("completed job has a result");
            (evd.eigenvalues, evd.eigenvectors)
        })
        .collect();
    let status_table = render_status_table(&svc.status_table());
    let stats = svc.shutdown();
    drop(session.finish());
    std::env::remove_var("TG_THREADS");

    let l = stats.ledger;
    assert!(l.balanced());
    assert!(l.quiescent());
    assert_eq!(
        l.shed + l.completed + l.failed + l.cache_hits + l.coalesced,
        l.submitted,
        "extended conservation violated (TG_THREADS={threads}, cached={cached}): {l:?}"
    );
    RunOutput {
        threads,
        cached,
        results,
        status_table,
        stats,
    }
}

#[test]
fn cache_on_and_off_are_bitwise_identical_across_worker_counts() {
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

    let mut runs: Vec<RunOutput> = Vec::new();
    for threads in [1usize, 2, 4, 7] {
        for cached in [false, true] {
            runs.push(run_config(threads, cached, &method));
        }
    }

    for run in &runs {
        let tag = format!("TG_THREADS={}, cached={}", run.threads, run.cached);
        assert_eq!(run.results.len(), 2 * JOBS);
        for (slot, (got, want)) in run
            .results
            .iter()
            .zip(references.iter().chain(references.iter()))
            .enumerate()
        {
            assert_eq!(
                got.0, want.0,
                "eigenvalues diverged from the direct path (job {slot}, {tag})"
            );
            assert_eq!(
                got.1, want.1,
                "eigenvectors diverged from the direct path (job {slot}, {tag})"
            );
        }
        let l = run.stats.ledger;
        if run.cached {
            // One worker solve and one insertion per distinct problem; the
            // whole second pass rode the cache or an in-flight leader.
            assert_eq!(
                l.completed, JOBS as u64,
                "cached run re-solved a repeated problem ({tag}): {l:?}"
            );
            assert_eq!(
                l.cache_hits + l.coalesced,
                JOBS as u64,
                "a repeated submission was served by neither cache nor \
                 coalescing ({tag}): {l:?}"
            );
            assert_eq!(
                run.stats.cache.insertions, JOBS as u64,
                "insertions != distinct problems ({tag})"
            );
        } else {
            assert_eq!(l.completed, 2 * JOBS as u64);
            assert_eq!(
                l.cache_hits + l.coalesced,
                0,
                "cache used while off ({tag})"
            );
            assert_eq!(run.stats.cache.insertions, 0);
        }
        // The armed campaign exercised the retry path — so the cached
        // runs really did retry faulted attempts, and (verify_hits) every
        // hit handed out afterwards was re-proved bitwise-clean: a
        // faulted attempt's bytes never entered the cache.
        assert!(run.stats.retries >= 1, "fault campaign never fired ({tag})");
    }

    // Identical final status tables across all eight configurations.
    let baseline = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            run.status_table, baseline.status_table,
            "status table diverged between (TG_THREADS={}, cached={}) and \
             (TG_THREADS={}, cached={})",
            baseline.threads, baseline.cached, run.threads, run.cached
        );
    }
}
