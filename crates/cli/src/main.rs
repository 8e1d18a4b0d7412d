//! `tridiag` — command-line symmetric eigensolver.
//!
//! ```text
//! tridiag eigvals  <in.mtx> [--method direct|magma|proposed] [--no-lookahead] [--trace out.json] [--profile] [--timeline] [--flamegraph out.txt] [--check]
//! tridiag evd      <in.mtx> <out-values.mtx> <out-vectors.mtx> [--method …] [--backtransform-k K] [--no-lookahead] [--trace …] [--profile] [--timeline] [--flamegraph …] [--check]
//! tridiag reduce   <in.mtx> <out-tridiag.mtx> [--method …] [--trace …] [--profile] [--timeline] [--flamegraph …] [--check]
//! tridiag batch    --count N --n SIZE [--threads T] [--method …] [--seed S] [--vectors] [--trace …] [--profile] [--timeline] [--flamegraph …] [--check]
//! tridiag serve    --jobs N --n SIZE [--threads T] [--deadline-ms D] [--queue-cap C] [--retries R] [--rate-hz HZ] [--cache-mb M] [--dedup] [--method …] [--seed S] [--vectors] [--trace …] [--profile] [--timeline] [--flamegraph …] [--check]
//! tridiag generate <out.mtx> --n N [--kind random|spd|band:B] [--seed S]
//! tridiag info     <in.mtx>
//! ```
//!
//! `--trace <out.json>` records a Chrome trace-event file (load it in
//! Perfetto / `chrome://tracing`); `--profile` prints a per-stage wall
//! time / GFLOP/s table to stderr; `--timeline` prints per-thread lanes,
//! critical path, and parallel-region utilization; `--flamegraph <out>`
//! writes collapsed stacks for `flamegraph.pl` / inferno. See
//! `docs/OBSERVABILITY.md`.
//!
//! `--check` runs the solve under a `tg-check` session: every stage
//! boundary is verified against its LAPACK-convention invariant (band
//! structure, tridiagonal form, orthogonality, similarity, spectrum) and
//! the per-checker report is printed to stderr; any violation exits
//! non-zero. See `docs/VERIFICATION.md`.
//!
//! Matrices are Matrix Market files (`coordinate real symmetric`,
//! `coordinate real general`, or `array real general`).

use std::process::exit;
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::io::{read_matrix_market, write_matrix_market};
use tg_matrix::{gen, Mat};
use tridiag_core::{tridiagonalize, Method};

fn usage() -> ! {
    eprintln!(
        "usage:\n  tridiag eigvals  <in.mtx> [--method direct|magma|proposed] [--no-lookahead] [--trace out.json] [--profile] [--timeline] [--flamegraph out.txt] [--check]\n  \
         tridiag evd      <in.mtx> <values.mtx> <vectors.mtx> [--method ...] [--backtransform-k K] [--no-lookahead] [--trace ...] [--profile] [--timeline] [--flamegraph ...] [--check]\n  \
         tridiag reduce   <in.mtx> <out.mtx> [--method ...] [--trace ...] [--profile] [--timeline] [--flamegraph ...] [--check]\n  \
         tridiag batch    --count N --n SIZE [--threads T] [--method ...] [--seed S] [--vectors] [--trace ...] [--profile] [--timeline] [--flamegraph ...] [--check]\n  \
         tridiag serve    --jobs N --n SIZE [--threads T] [--deadline-ms D] [--queue-cap C] [--retries R] [--rate-hz HZ] [--cache-mb M] [--dedup] [--method ...] [--seed S] [--vectors] [--trace ...] [--profile] [--timeline] [--flamegraph ...] [--check]\n  \
         tridiag generate <out.mtx> --n N [--kind random|spd|band:B] [--seed S]\n  \
         tridiag info     <in.mtx>"
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

struct Opts {
    positional: Vec<String>,
    method: String,
    n: Option<usize>,
    count: Option<usize>,
    threads: usize,
    vectors: bool,
    kind: String,
    seed: u64,
    jobs: Option<usize>,
    deadline_ms: u64,
    queue_cap: usize,
    retries: u32,
    rate_hz: f64,
    cache_mb: u64,
    dedup: bool,
    backtransform_k: Option<usize>,
    no_lookahead: bool,
    trace: Option<String>,
    profile: bool,
    timeline: bool,
    flamegraph: Option<String>,
    check: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        positional: Vec::new(),
        method: "proposed".into(),
        n: None,
        count: None,
        threads: 0,
        vectors: false,
        kind: "random".into(),
        seed: 42,
        jobs: None,
        deadline_ms: 30_000,
        queue_cap: 64,
        retries: tg_serve::ServeConfig::default().max_retries,
        rate_hz: 0.0,
        cache_mb: 0,
        dedup: false,
        backtransform_k: None,
        no_lookahead: false,
        trace: None,
        profile: false,
        timeline: false,
        flamegraph: None,
        check: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--method" => o.method = it.next().cloned().unwrap_or_else(|| usage()),
            "--trace" => o.trace = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--profile" => o.profile = true,
            "--timeline" => o.timeline = true,
            "--flamegraph" => o.flamegraph = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--check" => o.check = true,
            "--n" => {
                o.n = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--count" => {
                o.count = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--threads" => {
                o.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--vectors" => o.vectors = true,
            "--jobs" => {
                o.jobs = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                o.deadline_ms = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--queue-cap" => {
                o.queue_cap = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--retries" => {
                o.retries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--rate-hz" => {
                o.rate_hz = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cache-mb" => {
                o.cache_mb = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--dedup" => o.dedup = true,
            "--backtransform-k" => {
                o.backtransform_k = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--no-lookahead" => o.no_lookahead = true,
            "--kind" => o.kind = it.next().cloned().unwrap_or_else(|| usage()),
            "--seed" => {
                o.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ if a.starts_with("--") => usage(),
            _ => o.positional.push(a.clone()),
        }
    }
    o
}

fn load_symmetric(path: &str) -> Mat {
    let m = read_matrix_market(path).unwrap_or_else(|e| fail(e));
    if m.nrows() != m.ncols() {
        fail(format!(
            "matrix is {}x{}, need square",
            m.nrows(),
            m.ncols()
        ));
    }
    let defect = tg_matrix::sym_residual(&m);
    if defect > 1e-12 {
        fail(format!("matrix is not symmetric (defect {defect:.2e})"));
    }
    m
}

fn evd_method(o: &Opts, n: usize) -> EvdMethod {
    let b = (n / 16).clamp(2, 32);
    match o.method.as_str() {
        "direct" => EvdMethod::CusolverLike { nb: 32 },
        "magma" => EvdMethod::MagmaLike { b },
        "proposed" => {
            let mut m = EvdMethod::proposed_default(n);
            // Merge width for the blocked back transformation; the
            // default is `min(16·b, 2048, n)` — see
            // `tg_eigen::default_backtransform_k` and "Back
            // transformation" in docs/PERFORMANCE.md.
            if let (
                Some(k),
                EvdMethod::Proposed {
                    backtransform_k, ..
                },
            ) = (o.backtransform_k, &mut m)
            {
                *backtransform_k = k.clamp(1, n.max(1));
            }
            // `--no-lookahead` falls back to the serial stage-1 panel
            // order (bitwise-identical output; see docs/PERFORMANCE.md).
            if let EvdMethod::Proposed { lookahead, .. } = &mut m {
                *lookahead = !o.no_lookahead;
            }
            m
        }
        other => fail(format!("unknown method: {other}")),
    }
}

fn tridiag_method(o: &Opts, n: usize) -> Method {
    let b = (n / 16).clamp(2, 32);
    match o.method.as_str() {
        "direct" => Method::Direct { nb: 32 },
        "magma" => Method::Sbr {
            b,
            parallel_sweeps: 1,
        },
        "proposed" => {
            let mut m = Method::paper_default(n);
            if let Method::Dbbr { cfg, .. } = &mut m {
                cfg.lookahead = !o.no_lookahead;
            }
            m
        }
        other => fail(format!("unknown method: {other}")),
    }
}

/// Runs `f` under a trace session when any observability flag was given
/// (`--trace`, `--profile`, `--timeline`, `--flamegraph`), then writes the
/// Chrome trace / collapsed-stack file and prints the profile / timeline
/// reports (to stderr, so commands whose data goes to stdout stay
/// pipeable).
fn with_trace<T>(o: &Opts, f: impl FnOnce() -> T) -> T {
    if o.trace.is_none() && !o.profile && !o.timeline && o.flamegraph.is_none() {
        return f();
    }
    let session = tg_trace::TraceSession::begin();
    let out = f();
    let trace = session.finish();
    if let Some(path) = &o.trace {
        std::fs::write(path, trace.chrome_json()).unwrap_or_else(|e| fail(e));
        eprintln!(
            "wrote Chrome trace ({} events) to {path}",
            trace.events.len()
        );
    }
    if let Some(path) = &o.flamegraph {
        std::fs::write(path, trace.flamegraph()).unwrap_or_else(|e| fail(e));
        eprintln!("wrote collapsed-stack flamegraph to {path} (feed to flamegraph.pl / inferno)");
    }
    if o.profile {
        eprintln!(
            "worker threads: {}  gemm kernel: {}",
            tg_blas::threads::describe(),
            tg_blas::kernel_name()
        );
        eprint!("{}", trace.profile_table());
    }
    if o.timeline {
        eprint!("{}", trace.timeline_report());
    }
    out
}

/// Runs `f` under a strict `tg-check` session when `--check` was given:
/// every stage boundary the solve crosses is verified against its
/// LAPACK-convention invariant, the per-checker report goes to stderr, and
/// any violation turns into a non-zero exit.
fn with_check<T>(o: &Opts, f: impl FnOnce() -> T) -> T {
    if !o.check {
        return f();
    }
    let session = tg_check::CheckSession::begin(tg_check::CheckConfig::strict());
    let out = f();
    let report = session.finish();
    eprint!("{}", report.render());
    if !report.passed() {
        fail(format!(
            "{} invariant check(s) failed",
            report.failures().len()
        ));
    }
    out
}

/// Drives `tridiag serve`'s open-loop load (see
/// [`tg_serve::JobService::submit_open_loop`]), then waits for quiescence.
/// Returns (admitted, shed, completed-job latencies).
fn drive_open_loop(
    svc: &tg_serve::JobService,
    specs: Vec<tg_serve::JobSpec>,
    rate_hz: f64,
    deadline_ms: u64,
) -> (u64, u64, Vec<std::time::Duration>) {
    use std::time::Duration;
    let (admitted, shed) = svc.submit_open_loop(specs, rate_hz);
    let grace = Duration::from_millis(deadline_ms) * 2 + Duration::from_secs(60);
    if !svc.wait_quiescent(grace) {
        fail("service failed to quiesce within the grace period (hang?)");
    }
    let latencies = admitted
        .iter()
        .map(|&(_, id)| svc.wait(id))
        .filter(|out| out.status == tg_serve::JobStatus::Completed)
        .map(|out| out.latency)
        .collect();
    (admitted.len() as u64, shed, latencies)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "eigvals" => {
            let [input] = o.positional.as_slice() else {
                usage()
            };
            let a = load_symmetric(input);
            let n = a.nrows();
            let evd = with_trace(&o, || {
                with_check(&o, || syevd(&mut a.clone(), &evd_method(&o, n), false))
            })
            .unwrap_or_else(|e| fail(e));
            for v in &evd.eigenvalues {
                println!("{v:.17e}");
            }
        }
        "evd" => {
            let [input, out_vals, out_vecs] = o.positional.as_slice() else {
                usage()
            };
            let a = load_symmetric(input);
            let n = a.nrows();
            let evd = with_trace(&o, || {
                with_check(&o, || syevd(&mut a.clone(), &evd_method(&o, n), true))
            })
            .unwrap_or_else(|e| fail(e));
            let mut vals = Mat::zeros(n, 1);
            for (i, &v) in evd.eigenvalues.iter().enumerate() {
                vals[(i, 0)] = v;
            }
            write_matrix_market(out_vals, &vals, false).unwrap_or_else(|e| fail(e));
            write_matrix_market(out_vecs, evd.eigenvectors.as_ref().unwrap(), false)
                .unwrap_or_else(|e| fail(e));
            eprintln!(
                "wrote {n} eigenvalues to {out_vals}, vectors to {out_vecs} \
                 (residual {:.2e})",
                evd.residual(&a)
            );
        }
        "reduce" => {
            let [input, output] = o.positional.as_slice() else {
                usage()
            };
            let a = load_symmetric(input);
            let n = a.nrows();
            let red = with_trace(&o, || {
                with_check(&o, || {
                    tridiagonalize(&mut a.clone(), &tridiag_method(&o, n))
                })
            });
            write_matrix_market(output, &red.tri.to_dense(), true).unwrap_or_else(|e| fail(e));
            eprintln!("wrote tridiagonal form ({n}x{n}) to {output}");
        }
        "batch" => {
            if !o.positional.is_empty() {
                usage()
            }
            let count = match o.count {
                None => fail("batch requires --count"),
                Some(0) => fail("--count must be at least 1"),
                Some(c) => c,
            };
            let n = match o.n {
                None => fail("batch requires --n"),
                Some(0) => fail("--n must be at least 1"),
                Some(n) => n,
            };
            let problems: Vec<Mat> = (0..count)
                .map(|i| gen::random_symmetric(n, o.seed.wrapping_add(i as u64)))
                .collect();
            let workers = if o.threads > 0 {
                o.threads
            } else {
                tg_blas::threads::worker_threads()
            };
            let scheduler = tg_batch::BatchScheduler::new(workers);
            let method = evd_method(&o, n);
            let batch = with_trace(&o, || {
                with_check(&o, || scheduler.syevd(&problems, &method, o.vectors))
            })
            .unwrap_or_else(|e| fail(e));
            for (i, evd) in batch.results.iter().enumerate() {
                let lo = evd.eigenvalues.first().copied().unwrap_or(f64::NAN);
                let hi = evd.eigenvalues.last().copied().unwrap_or(f64::NAN);
                println!("problem {i}: eigenvalues in [{lo:.6e}, {hi:.6e}]");
            }
            let s = batch.stats;
            eprintln!(
                "solved {} problems of n={} on {} workers in {:.3}s \
                 ({:.1} problems/s)",
                s.problems,
                n,
                s.workers,
                s.wall.as_secs_f64(),
                s.throughput()
            );
        }
        "serve" => {
            if !o.positional.is_empty() {
                usage()
            }
            let jobs = match o.jobs {
                None => fail("serve requires --jobs"),
                Some(0) => fail("--jobs must be at least 1"),
                Some(j) => j,
            };
            let n = match o.n {
                None => fail("serve requires --n"),
                Some(0) => fail("--n must be at least 1"),
                Some(n) => n,
            };
            let method = evd_method(&o, n);
            // With caching or dedup on, cycle a small pool of distinct
            // matrices so repeats actually occur (otherwise every job is
            // unique and the cache can only miss).
            let distinct = if o.cache_mb > 0 || o.dedup {
                jobs.min(8)
            } else {
                jobs
            };
            let specs: Vec<_> = (0..jobs)
                .map(|i| {
                    tg_serve::JobSpec::new(
                        gen::random_symmetric(n, o.seed.wrapping_add((i % distinct) as u64)),
                        method.clone(),
                        o.vectors,
                    )
                    .with_priority(tg_serve::Priority::ALL[i % 3])
                })
                .collect();
            let cfg = tg_serve::ServeConfig {
                workers: o.threads,
                queue_cap: o.queue_cap,
                default_deadline: std::time::Duration::from_millis(o.deadline_ms),
                max_retries: o.retries,
                cache_bytes: o.cache_mb * 1024 * 1024,
                dedup: o.dedup,
                ..tg_serve::ServeConfig::default()
            };
            let report = with_trace(&o, || {
                with_check(&o, || {
                    let svc = tg_serve::JobService::start(cfg).unwrap_or_else(|e| fail(e));
                    let outcome = drive_open_loop(&svc, specs, o.rate_hz, o.deadline_ms);
                    let table = tg_serve::render_status_table(&svc.status_table());
                    let stats = svc.shutdown();
                    (outcome, table, stats)
                })
            });
            let ((admitted, shed, latencies), table, stats) = report;
            print!("{table}");
            let l = stats.ledger;
            eprintln!(
                "served {} submissions on {} worker(s): {} completed, {} failed, \
                 {} shed ({} admitted), {} retr{}",
                l.submitted,
                o.threads.max(1),
                l.completed,
                l.failed,
                l.shed,
                admitted,
                stats.retries,
                if stats.retries == 1 { "y" } else { "ies" },
            );
            debug_assert_eq!(l.shed, shed);
            if o.cache_mb > 0 || o.dedup {
                eprintln!(
                    "cache: {} hit(s), {} miss(es), {} coalesced, {} insertion(s), \
                     {} eviction(s), {} B live / {} B budget ({} distinct inputs)",
                    l.cache_hits,
                    stats.cache.misses,
                    l.coalesced,
                    stats.cache.insertions,
                    stats.cache.evictions,
                    stats.cache_live_bytes,
                    o.cache_mb * 1024 * 1024,
                    distinct,
                );
            }
            if !latencies.is_empty() {
                let mut lat = latencies;
                lat.sort_unstable();
                let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
                eprintln!(
                    "completed-job latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms \
                     (deadline {} ms)",
                    pct(0.50).as_secs_f64() * 1e3,
                    pct(0.99).as_secs_f64() * 1e3,
                    lat.last().unwrap().as_secs_f64() * 1e3,
                    o.deadline_ms
                );
            }
            if !l.balanced() {
                fail("ledger conservation violated");
            }
        }
        "generate" => {
            let [output] = o.positional.as_slice() else {
                usage()
            };
            let n = match o.n {
                None | Some(0) => fail("--n is required for generate (and must be >= 1)"),
                Some(n) => n,
            };
            let m = if o.kind == "random" {
                gen::random_symmetric(n, o.seed)
            } else if o.kind == "spd" {
                gen::random_spd(n, o.seed)
            } else if let Some(b) = o.kind.strip_prefix("band:") {
                let b: usize = b.parse().unwrap_or_else(|_| fail("bad band width"));
                gen::random_symmetric_band(n, b, o.seed)
            } else {
                fail(format!("unknown kind: {}", o.kind))
            };
            write_matrix_market(output, &m, true).unwrap_or_else(|e| fail(e));
            eprintln!("wrote {} ({}x{})", output, n, n);
        }
        "info" => {
            let [input] = o.positional.as_slice() else {
                usage()
            };
            let m = read_matrix_market(input).unwrap_or_else(|e| fail(e));
            let n = m.nrows();
            println!("shape: {}x{}", n, m.ncols());
            println!("worker threads: {}", tg_blas::threads::describe());
            println!("gemm kernel: {}", tg_blas::kernel_name());
            println!("frobenius norm: {:.6e}", tg_matrix::frob_norm(&m));
            let total = n * m.ncols();
            let mut nnz = 0usize;
            for j in 0..m.ncols() {
                for i in 0..n {
                    if m[(i, j)] != 0.0 {
                        nnz += 1;
                    }
                }
            }
            println!(
                "nnz: {nnz} / {total} (density {:.2}%)",
                100.0 * nnz as f64 / total.max(1) as f64
            );
            if m.ncols() == n {
                println!("symmetry defect: {:.2e}", tg_matrix::sym_residual(&m));
                // detect bandwidth
                let mut bw = 0usize;
                for j in 0..n {
                    for i in (j + 1)..n {
                        if m[(i, j)] != 0.0 {
                            bw = bw.max(i - j);
                        }
                    }
                }
                println!("bandwidth: {bw}");
                // slots inside the detected band: diagonal + 2·Σ_{d=1..bw}(n−d)
                let band_slots = n + 2 * (1..=bw).map(|d| n - d).sum::<usize>();
                println!(
                    "band occupancy: {:.2}% of {band_slots} in-band slots nonzero",
                    100.0 * nnz as f64 / band_slots.max(1) as f64
                );
            }
        }
        _ => usage(),
    }
}
