//! The job service's overload, cache and fault gates, each at its nightly
//! thresholds:
//!
//! * `serve_soak` — 60 s of open-loop load at 1.5× calibrated capacity:
//!   shedding engages, no job is lost, at most 1% of admitted jobs miss
//!   their deadline;
//! * `cache_soak` — one zipf-shaped schedule replayed with the result
//!   cache off, then with cache + dedup on: hit rate ≥ 50%, every result
//!   bitwise-identical to the direct path, both ledgers conserved, and
//!   the cached run's p99 strictly better;
//! * `serve_fault_campaign` — every fault of the seed-derived campaigns
//!   (seeds 101, 202, 303, 404) driven through the service under
//!   admission pressure: each fault fires, no job is lost, and every
//!   admitted job ends bitwise-correct or with a typed error in time.
//!
//! They time real overload and arm process-global check sessions, so they
//! need a release build and must run one at a time:
//!
//! ```text
//! cargo test --release --test serve_gates -- --ignored --test-threads=1
//! ```
//!
//! `TG_THREADS` sets the worker count of the soaks.

use std::time::{Duration, Instant};

use tg_check::fault::CAMPAIGN_SEEDS;
use tg_check::{CheckConfig, CheckSession, FaultPlan};
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::{gen, Mat};
use tg_serve::{FailReason, JobService, JobSpec, JobStatus, ServeConfig};

/// Mean single-problem solve time (values only) on one thread, after a
/// warm-up: the capacity unit both soaks scale their load from.
fn calibrate(n: usize, method: &EvdMethod) -> f64 {
    let a = gen::random_symmetric(n, 7);
    syevd(&mut a.clone(), method, false).expect("warmup");
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        syevd(&mut a.clone(), method, false).expect("calibration");
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Soak deadline: time to drain a full queue ahead of a job, with a wide
/// margin for scheduler noise on a loaded host.
fn soak_deadline(queue_cap: usize, per_solve: f64) -> Duration {
    Duration::from_secs_f64(((queue_cap + 2) as f64 * per_solve * 10.0).max(2.0))
}

/// Waits for quiescence. A service that never gets there would also wedge
/// the join in its drop, so a hang is reported and the process abandoned.
fn quiesce_or_exit(svc: &JobService, timeout: Duration, label: &str) {
    if !svc.wait_quiescent(timeout) {
        eprintln!("HANG: {label}: service did not quiesce within {timeout:?}");
        std::process::exit(1);
    }
}

/// The `p` quantile of sorted latencies (zero when there are none).
fn quantile(sorted: &[Duration], p: f64) -> Duration {
    sorted
        .get(((sorted.len().max(1) - 1) as f64 * p) as usize)
        .copied()
        .unwrap_or_default()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[test]
#[ignore = "60-s release soak; run with --ignored --test-threads=1"]
fn serve_soak() {
    let (seconds, n, rate_mult) = (60.0, 64, 1.5);
    let method = EvdMethod::proposed_default(n);
    let workers = tg_blas::threads::worker_threads();
    let per_solve = calibrate(n, &method);
    let capacity_hz = workers as f64 / per_solve;
    let rate_hz = rate_mult * capacity_hz;
    let total_jobs = (rate_hz * seconds).ceil().max(8.0) as usize;
    let queue_cap = (2 * workers).max(4);
    let deadline = soak_deadline(queue_cap, per_solve);
    println!(
        "serve_soak: n={n}, {workers} worker(s), capacity {capacity_hz:.1} jobs/s, open loop at \
         {rate_hz:.1} jobs/s for {seconds}s, queue_cap {queue_cap}, deadline {:.0} ms",
        ms(deadline)
    );

    // A small pool of inputs, cycled: the soak stresses serving, not gen.
    let pool: Vec<Mat> = (0..32)
        .map(|i| gen::random_symmetric(n, 9000 + i as u64))
        .collect();
    let svc = JobService::start(ServeConfig {
        workers,
        queue_cap,
        default_deadline: deadline,
        max_retries: 3,
        retry_backoff: Duration::from_micros(200),
        ..ServeConfig::default()
    })
    .expect("serve config is valid");
    let specs =
        (0..total_jobs).map(|i| JobSpec::new(pool[i % pool.len()].clone(), method.clone(), false));
    let (admitted, shed) = svc.submit_open_loop(specs, rate_hz);
    quiesce_or_exit(&svc, deadline * 2 + Duration::from_secs(30), "serve_soak");

    let mut latencies = Vec::new();
    let (mut deadline_failures, mut other_failures) = (0u64, 0u64);
    for &(_, id) in &admitted {
        let out = svc.wait(id);
        match out.status {
            JobStatus::Completed => latencies.push(out.latency),
            JobStatus::Failed(FailReason::DeadlineExceeded) => deadline_failures += 1,
            _ => other_failures += 1,
        }
    }
    let stats = svc.shutdown();
    latencies.sort_unstable();
    let l = stats.ledger;
    println!(
        "submitted {}: completed {}, shed {} ({:.1}%), deadline-failures {deadline_failures}, \
         other failures {other_failures}, retries {}; p50 {:.1} ms, p99 {:.1} ms",
        l.submitted,
        l.completed,
        l.shed,
        100.0 * l.shed as f64 / l.submitted.max(1) as f64,
        stats.retries,
        ms(quantile(&latencies, 0.50)),
        ms(quantile(&latencies, 0.99)),
    );

    assert!(l.shed > 0, "open loop at {rate_mult}x capacity never shed");
    assert_eq!(l.shed, shed, "ledger shed vs typed Overloaded rejections");
    assert!(
        l.balanced() && l.completed + l.failed + l.shed == l.submitted,
        "jobs lost: {l:?}"
    );
    assert_eq!(l.submitted, total_jobs as u64, "submissions recorded");
    // p99 in-deadline for admitted jobs: at most 1% may miss.
    let budget = (admitted.len() as u64).div_ceil(100);
    assert!(
        deadline_failures + other_failures <= budget,
        "{} of {} admitted jobs missed their deadline (budget {budget})",
        deadline_failures + other_failures,
        admitted.len()
    );
}

#[test]
#[ignore = "2 × 40-s release soak; run with --ignored --test-threads=1"]
fn cache_soak() {
    let (seconds, n, pool_size, zipf_a) = (40.0, 64, 24, 1.2f64);
    let method = EvdMethod::proposed_default(n);
    let workers = tg_blas::threads::worker_threads();
    let per_solve = calibrate(n, &method);
    let capacity_hz = workers as f64 / per_solve;
    let rate_hz = 1.5 * capacity_hz;
    let total_jobs = (rate_hz * seconds).ceil().max(32.0) as usize;
    let queue_cap = (4 * workers).max(8);
    let deadline = soak_deadline(queue_cap, per_solve);

    // The popularity-skewed pool and the *shared* schedule both runs
    // replay: a pool index per submission from a zipf(a) CDF, drawn with
    // a fixed-seed splitmix64 stream. Identical inputs in identical order
    // is what makes the off/on p99 comparison meaningful.
    let pool: Vec<Mat> = (0..pool_size)
        .map(|i| gen::random_symmetric(n, 11_000 + i as u64))
        .collect();
    let weights: Vec<f64> = (0..pool_size)
        .map(|k| 1.0 / ((k + 1) as f64).powf(zipf_a))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut state = 0x5eed_cafe_f00d_0001u64;
    let schedule: Vec<usize> = (0..total_jobs)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
            cdf.iter().position(|&c| u < c).unwrap_or(pool_size - 1)
        })
        .collect();
    // The direct path, once per distinct input: every completed job of
    // both runs must match its reference bit for bit.
    let reference: Vec<Vec<u64>> = pool
        .iter()
        .map(|a| {
            let evd = syevd(&mut a.clone(), &method, false).unwrap();
            evd.eigenvalues.iter().map(|x| x.to_bits()).collect()
        })
        .collect();
    println!(
        "cache_soak: n={n}, pool {pool_size} (zipf {zipf_a}), {workers} worker(s), capacity \
         {capacity_hz:.1} jobs/s, open loop at {rate_hz:.1} jobs/s for {seconds}s x 2 runs, \
         queue_cap {queue_cap}, deadline {:.0} ms",
        ms(deadline)
    );

    // One replay of the schedule: (p99 of completed, stats, mismatches).
    let run = |label: &str, cache_bytes: u64, dedup: bool| {
        let svc = JobService::start(ServeConfig {
            workers,
            queue_cap,
            default_deadline: deadline,
            max_retries: 3,
            retry_backoff: Duration::from_micros(200),
            cache_bytes,
            dedup,
            ..ServeConfig::default()
        })
        .expect("serve config is valid");
        let specs = schedule
            .iter()
            .map(|&pi| JobSpec::new(pool[pi].clone(), method.clone(), false));
        let (admitted, _) = svc.submit_open_loop(specs, rate_hz);
        quiesce_or_exit(&svc, deadline * 2 + Duration::from_secs(30), label);
        let mut latencies = Vec::new();
        let mut mismatches = 0u64;
        for &(i, id) in &admitted {
            let out = svc.wait(id);
            if out.status == JobStatus::Completed {
                latencies.push(out.latency);
                let evd = out.result.expect("completed job carries its result");
                let want = reference[schedule[i]].iter().copied();
                if !evd.eigenvalues.iter().map(|x| x.to_bits()).eq(want) {
                    mismatches += 1;
                }
            }
        }
        let stats = svc.shutdown();
        latencies.sort_unstable();
        let p99 = quantile(&latencies, 0.99);
        let l = stats.ledger;
        println!(
            "{label}: completed {}, shed {}, failed {}, cache_hits {}, coalesced {}, \
             p99 {:.1} ms, {mismatches} bitwise mismatch(es)",
            l.completed,
            l.shed,
            l.failed,
            l.cache_hits,
            l.coalesced,
            ms(p99),
        );
        (p99, stats, mismatches)
    };
    let (p99_off, off, bad_off) = run("cache-off", 0, false);
    let (p99_on, on, bad_on) = run("cache-on", 64 * 1024 * 1024, true);
    let lookups = on.cache.hits + on.cache.misses;
    let hit_rate = on.cache.hits as f64 / lookups.max(1) as f64;
    println!(
        "cache-on hit rate: {}/{lookups} = {:.1}%",
        on.cache.hits,
        100.0 * hit_rate
    );

    assert!(hit_rate >= 0.5, "hit rate {:.1}% < 50%", 100.0 * hit_rate);
    assert_eq!(
        (bad_off, bad_on),
        (0, 0),
        "completed results differ bitwise from the direct path"
    );
    for (label, l) in [("cache-off", off.ledger), ("cache-on", on.ledger)] {
        assert!(
            l.balanced()
                && l.shed + l.completed + l.failed + l.cache_hits + l.coalesced == l.submitted,
            "{label} ledger lost jobs: {l:?}"
        );
        assert_eq!(
            l.submitted, total_jobs as u64,
            "{label} submissions recorded"
        );
    }
    assert_eq!(
        off.ledger.cache_hits + off.ledger.coalesced,
        0,
        "the baseline run used the cache it was configured without"
    );
    assert!(
        p99_on < p99_off,
        "cache-on p99 {:.1} ms did not beat cache-off p99 {:.1} ms",
        ms(p99_on),
        ms(p99_off)
    );
}

#[test]
#[ignore = "release fault campaign over 4 seeds; run with --ignored --test-threads=1"]
fn serve_fault_campaign() {
    let n = 48;
    let method = EvdMethod::Proposed {
        b: 8,
        k: 32,
        parallel_sweeps: 3,
        backtransform_k: 32,
        lookahead: true,
    };
    let (workers, queue_cap) = (2usize, 4usize);
    // 1.5× of what the service can hold at once (workers + queue slots).
    let jobs = (3 * (workers + queue_cap)).div_ceil(2);
    let deadline = Duration::from_secs(60);
    let problems: Vec<Mat> = (0..jobs)
        .map(|i| gen::random_symmetric(n, 1000 + i as u64))
        .collect();
    // Uncorrupted references, computed outside any check session.
    let references: Vec<_> = problems
        .iter()
        .map(|a| syevd(&mut a.clone(), &method, true).expect("reference solve"))
        .collect();

    // One burst through a fresh service. Returns the ledger snapshot, the
    // retry count and the admitted jobs that ended neither bitwise-correct
    // nor with a typed error within deadline + 5 s.
    let run = |label: &str| {
        let svc = JobService::start(ServeConfig {
            workers,
            queue_cap,
            default_deadline: deadline,
            max_retries: 4,
            retry_backoff: Duration::from_micros(200),
            ..ServeConfig::default()
        })
        .expect("serve config is valid");
        let specs = problems
            .iter()
            .map(|a| JobSpec::new(a.clone(), method.clone(), true));
        let (admitted, _) = svc.submit_open_loop(specs, 0.0);
        quiesce_or_exit(&svc, Duration::from_secs(120), label);
        let dirty: Vec<String> = admitted
            .iter()
            .filter_map(|&(i, id)| {
                let out = svc.wait(id);
                let ok = match (&out.status, &out.result) {
                    (JobStatus::Completed, Some(evd)) => {
                        evd.eigenvalues == references[i].eigenvalues
                            && evd.eigenvectors == references[i].eigenvectors
                    }
                    (JobStatus::Completed, None) => false,
                    _ => out.latency <= deadline + Duration::from_secs(5),
                };
                (!ok).then(|| format!("job {i}: {:?}", out.status))
            })
            .collect();
        let stats = svc.shutdown();
        let l = stats.ledger;
        println!(
            "{label:<28} retries={} completed={} failed={} shed={} dirty={}",
            stats.retries,
            l.completed,
            l.failed,
            l.shed,
            dirty.len()
        );
        (l, stats.retries, dirty)
    };

    let mut failures = Vec::new();
    for seed in CAMPAIGN_SEEDS {
        for fault in FaultPlan::campaign(seed).faults {
            let label = format!("seed {seed} {} {:?}", fault.site, fault.kind);
            let single = FaultPlan::single(fault.site, fault.kind, fault.index);
            let session = CheckSession::begin(CheckConfig::fast().with_faults(single));
            let (l, _, dirty) = run(&label);
            if session.finish().faults_fired.is_empty() {
                failures.push(format!("{label}: the fault never fired"));
            }
            if !l.balanced() || l.completed + l.failed + l.shed != l.submitted {
                failures.push(format!("{label}: jobs lost, ledger {l:?}"));
            }
            failures.extend(dirty.into_iter().map(|d| format!("{label}: {d}")));
        }
    }
    let (l, retries, dirty) = run("clean control");
    if retries != 0 || !dirty.is_empty() || !l.balanced() {
        failures.push(format!(
            "clean control: retries {retries}, ledger {l:?}, dirty {dirty:?}"
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
