//! `serve_zipf`: an open loop into `tg_serve::JobService`.
//!
//! One generator thread submits on a seeded schedule regardless of how the
//! service keeps up; one collector thread waits for each outcome and checks
//! it bitwise against a reference solve. Latency is measured from the
//! arrival's due time, so a stalled generator or a growing queue shows.
//!
//! The mix is chosen so the median request is a solve and the median and
//! tail each fall inside one band of solve times, not on a boundary between
//! classes (see `inputs`); the cache budget keeps the hits well under half
//! of the requests. With the earlier mix (n 64–192, vectors and values,
//! four in five requests hits) the median was a hit, a few tens of
//! microseconds of admission work, and it moved by 32 % between two sets
//! of runs.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use tg_eigen::{syevd, Evd};
use tg_matrix::Mat;
use tg_serve::{result_bytes, JobId, JobService, JobSpec, JobStatus, ServeConfig, ServiceStats};

use crate::inputs::{Op, Rng, ServeWorkload};
use crate::report::Report;
use crate::{evd, Args};

pub const WORKERS: usize = 2;
/// Offered load, jobs per second. Well under capacity: the solves use a
/// small share of the two workers, so the queue stays stationary and few
/// solves overlap; overlapping solves share the two cores, and their
/// latency then follows the host's noise more than the program's. The 150
/// requests of a 30 s run put the tail at p93.
const RATE_HZ: f64 = 5.0;
/// Zipf exponent of the popularity ranks within a class.
const ZIPF_S: f64 = 1.0;
/// Cache byte budget as a share of the pool's total result bytes. Below 1,
/// so inserts and evictions continue through the measured phase and the
/// miss share is stationary rather than a cold-start transient. At 0.15
/// about a fifth of the requests hit, so the median is a solve, and the
/// hits and misses both lie far from the tail.
const CACHE_SHARE: f64 = 0.15;
const DEADLINE: Duration = Duration::from_secs(2);

/// The service configuration. The cache budget is sized from the shapes of
/// the pool's results, so it is known before anything is solved.
fn config(w: &ServeWorkload) -> ServeConfig {
    let pool_bytes: u64 = w
        .pool
        .iter()
        .map(|op| {
            result_bytes(&Evd {
                eigenvalues: vec![0.0; op.n()],
                eigenvectors: op.vectors.then(|| Mat::zeros(op.n(), op.n())),
            })
        })
        .sum();
    ServeConfig {
        workers: WORKERS,
        cache_bytes: (pool_bytes as f64 * CACHE_SHARE) as u64,
        dedup: true,
        default_deadline: DEADLINE,
        ..ServeConfig::default()
    }
}

fn spec(op: &Op) -> JobSpec {
    JobSpec::new(op.a.clone(), op.method.clone(), op.vectors)
}

/// Starts the service and warms it up with one closed-loop pass over the
/// pool, least popular first, so the cache ends up holding the popular
/// end as it would in steady state. Returns the warm-up results in pool
/// order (`None` where a job failed) and the seconds it took.
pub fn start_warm(w: &ServeWorkload) -> (JobService, Vec<Option<Evd>>, f64) {
    let mut results: Vec<Option<Evd>> = (0..w.pool.len()).map(|_| None).collect();
    let start = Instant::now();
    let svc = JobService::start(config(w)).expect("valid serve config");
    for (r, op) in w.pool.iter().enumerate().rev() {
        results[r] = svc.submit(spec(op)).ok().and_then(|id| svc.wait(id).result);
    }
    let secs = start.elapsed().as_secs_f64();
    (svc, results, secs)
}

/// One cold set-up (see [`crate::setup`]): service start plus warm-up,
/// with every warm-up result checked against its known spectrum afterwards.
pub fn setup_probe(w: &ServeWorkload) -> Result<f64, Vec<String>> {
    let (svc, results, secs) = start_warm(w);
    svc.shutdown();
    let wrong: Vec<String> = w
        .pool
        .iter()
        .zip(&results)
        .enumerate()
        .filter_map(|(r, (op, res))| match res {
            None => Some(format!("warm-up job for pool item {r} failed")),
            Some(evd) => evd::check(op, evd).err(),
        })
        .collect();
    if wrong.is_empty() {
        Ok(secs)
    } else {
        Err(wrong)
    }
}

/// One arrival as the collector sees it.
struct Arrival {
    item: usize,
    due: f64,
    /// Seconds from the due time until `submit` returned.
    submitted: f64,
    id: Option<JobId>,
}

/// Per-job record of the measured phase.
pub struct JobRecord {
    pub due: f64,
    /// Due time to completion.
    pub latency: f64,
    /// Submission to completion, as the service measures it.
    pub service_latency: f64,
    pub queue_wait: f64,
    /// Worker attempts; 0 for cache hits and coalesced followers.
    pub attempts: u32,
    pub ok: bool,
}

pub struct Phase {
    pub jobs: Vec<JobRecord>,
    pub seconds: f64,
    pub gen_late_max: f64,
    pub wrong: Vec<String>,
    pub before: ServiceStats,
    pub after: ServiceStats,
}

/// Reference results, computed by the direct path and checked against the
/// known spectra; service outcomes must match them bitwise.
fn references(w: &ServeWorkload, report: &mut Report) -> Vec<Evd> {
    w.pool
        .iter()
        .map(|op| {
            let evd = syevd(&mut op.a.clone(), &op.method, op.vectors).expect("reference solve");
            if let Err(e) = evd::check(op, &evd) {
                report.problem(format!("reference solve is wrong: {e}"));
            }
            evd
        })
        .collect()
}

/// The seeded schedule: a Poisson process of rate [`RATE_HZ`] conditioned
/// on its count (sorted uniform arrival times), so every run offers the
/// same number of jobs. Arrivals cycle through the classes, so each class
/// gets the same number of requests; within its class an arrival picks a
/// member by a Zipf draw over popularity ranks.
fn schedule(w: &ServeWorkload, seconds: f64) -> Vec<(f64, usize)> {
    let mut rng = Rng::new(w.seed);
    let count = (RATE_HZ * seconds).round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.uniform() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let classes = w.classes;
    let ranks = w.pool.len() / classes;
    let weights: Vec<f64> = (1..=ranks).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, x| {
            *acc += x / total;
            Some(*acc)
        })
        .collect();
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let rank = cdf.partition_point(|&c| c < rng.uniform()).min(ranks - 1);
            (t, rank * classes + i % classes)
        })
        .collect()
}

/// Sleeps until shortly before `t`, then spins, so submissions start on
/// time instead of a timer slack late (the spin costs well under 1 % of a
/// core at this rate).
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    if let Some(d) = t.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(d);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Submits `plan` on schedule; returns how late the latest submission
/// started.
fn generate(
    svc: &JobService,
    w: &ServeWorkload,
    plan: &[(f64, usize)],
    tx: mpsc::Sender<Arrival>,
) -> f64 {
    let t0 = Instant::now();
    let mut gen_late_max = 0.0f64;
    for &(due, item) in plan {
        // The request is built before its due time: copying the matrix is
        // the benchmark's cost, not the service's.
        let spec = spec(&w.pool[item]);
        let due_at = t0 + Duration::from_secs_f64(due);
        wait_until(due_at);
        gen_late_max = gen_late_max.max(due_at.elapsed().as_secs_f64());
        let id = svc.submit(spec).ok();
        let arrival = Arrival {
            item,
            due,
            submitted: due_at.elapsed().as_secs_f64(),
            id,
        };
        if tx.send(arrival).is_err() {
            break; // the collector is gone; its join reports why
        }
    }
    gen_late_max
}

/// Waits for every arrival's outcome and checks it against the reference:
/// bitwise, and its eigenvalues against the known spectrum.
fn collect(
    svc: &JobService,
    refs: &[Evd],
    w: &ServeWorkload,
    rx: mpsc::Receiver<Arrival>,
) -> (Vec<JobRecord>, Vec<String>) {
    let mut jobs = Vec::new();
    let mut wrong = Vec::new();
    for a in rx {
        let Some(id) = a.id else {
            // Shed at admission.
            jobs.push(JobRecord {
                due: a.due,
                latency: a.submitted,
                service_latency: 0.0,
                queue_wait: 0.0,
                attempts: 0,
                ok: false,
            });
            continue;
        };
        let out = svc.wait(id);
        let ok = out.status == JobStatus::Completed
            && out.result.as_ref().is_some_and(|res| {
                let good = evd::bitwise_equal(res, &refs[a.item])
                    && evd::check_values(&w.pool[a.item], res).is_ok();
                if !good {
                    wrong.push(format!("job for pool item {} is wrong", a.item));
                }
                good
            });
        let service_latency = out.latency.as_secs_f64();
        jobs.push(JobRecord {
            due: a.due,
            latency: a.submitted + service_latency,
            service_latency,
            queue_wait: out.queue_wait.as_secs_f64(),
            attempts: out.attempts,
            ok,
        });
    }
    (jobs, wrong)
}

/// Starts and warms the service (untimed), then runs the measured
/// open-loop phase.
pub fn run_phase(args: &Args, w: &ServeWorkload, report: &mut Report) -> Phase {
    let refs = references(w, report);
    let (svc, warm, _) = start_warm(w);
    let mut wrong: Vec<String> = warm
        .iter()
        .zip(&refs)
        .enumerate()
        .filter(|(_, (res, r))| !res.as_ref().is_some_and(|res| evd::bitwise_equal(res, r)))
        .map(|(i, _)| format!("warm-up job for pool item {i} is wrong or missing"))
        .collect();

    let plan = schedule(w, args.seconds);
    let before = svc.stats();
    let (tx, rx) = mpsc::channel::<Arrival>();
    let ((jobs, collector_wrong), gen_late_max) = std::thread::scope(|s| {
        let collector = s.spawn(|| collect(&svc, &refs, w, rx));
        let gen_late_max = generate(&svc, w, &plan, tx);
        (collector.join().expect("collector thread"), gen_late_max)
    });
    wrong.extend(collector_wrong);
    let end = jobs.iter().map(|j| j.due + j.latency).fold(0.0, f64::max);
    let after = svc.shutdown();
    Phase {
        jobs,
        seconds: end,
        gen_late_max,
        wrong,
        before,
        after,
    }
}

pub fn run(args: &Args, w: &ServeWorkload, report: &mut Report) {
    let phase = run_phase(args, w, report);
    for e in &phase.wrong {
        report.problem(e.clone());
    }
    report.attempted = phase.jobs.len() as u64;
    report.failed = phase.jobs.iter().filter(|j| !j.ok).count() as u64;
    let latencies: Vec<f64> = phase.jobs.iter().map(|j| j.latency).collect();
    evd::report_latencies(report, &latencies);
    // In an open loop under capacity this equals the offered rate; it
    // moves only when requests fail or the service falls behind.
    let done = phase.jobs.iter().filter(|j| j.ok).count();
    report.metric("ops_per_s", done as f64 / phase.seconds, "1/s");
    report.info("gen_late_s_max", phase.gen_late_max.to_string());
    report.info("miss_share", miss_share(&phase.jobs, |_| true).to_string());
}

/// Share of jobs that needed a worker solve (not a cache hit or a
/// coalesced follower), among those selected by `pick`.
pub fn miss_share(jobs: &[JobRecord], pick: impl Fn(&JobRecord) -> bool) -> f64 {
    let sel: Vec<&JobRecord> = jobs.iter().filter(|j| pick(j)).collect();
    sel.iter().filter(|j| j.attempts > 0).count() as f64 / sel.len().max(1) as f64
}
