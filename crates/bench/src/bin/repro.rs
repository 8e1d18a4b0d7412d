//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                 # every model-composed table/figure
//! repro table1 | fig4 | fig5 | fig8 | fig9 | fig11 | fig12 | fig14 | fig15 | fig16
//! repro anchors             # paper-number vs model-number report
//! repro ablation            # optimization ladder + (b, k) sensitivity
//! repro tune                # model-based (b, k) autotuning per size/device
//! repro verify [n]          # correctness gauntlet + golden-corpus diff
//! repro golden_regen        # recompute and write tests/golden/corpus.json
//! repro fault_campaign [--serve]
//!                           # fault-injection campaign (TG_FAULT_SEED);
//!                           # --serve drives the faults through the job
//!                           # service and demands retry-to-success or a
//!                           # typed error within deadline
//! repro serve_soak [--seconds s] [--n size] [--rate-mult x] [--trace-out path]
//!                           # open-loop soak of the job service at
//!                           # rate-mult x measured capacity (default 1.5x):
//!                           # asserts shedding engages, zero jobs lost,
//!                           # p99 in-deadline for admitted jobs
//! repro cache_soak [--ci] [--seconds s] [--n size] [--pool p] [--zipf a] [--trace-out path]
//!                           # zipf-shaped overload replayed twice — cache
//!                           # off, then cache+dedup on: asserts hit rate
//!                           # >= 50%, every result bitwise-identical to
//!                           # the direct path, the extended conservation
//!                           # ledger balances, and cache-on p99 strictly
//!                           # beats cache-off
//! repro roofline            # arithmetic-intensity placement of key kernels
//! repro whatif              # hardware-scaling what-if scenarios
//! repro fig10               # L2 cache-simulation hit rates (layout study)
//! repro batch_scaling       # batched EVD: modeled GPU scaling + measured CPU-scale run
//! repro model_vs_measured   # traced-counter vs analytic-formula cross-check
//! repro json                # machine-readable dump of all model figures
//! ```

use std::env;
use tg_bench::measured;
use tg_bench::report::{fmt_time, render_table};
use tg_gpu_sim::{figures, Device};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "all" => {
            table1();
            fig4();
            fig5();
            fig8();
            fig9();
            fig11();
            fig12();
            fig14();
            fig15();
            fig16();
            fig10();
            ablation();
            anchors();
        }
        "table1" => table1(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "anchors" => anchors(),
        "ablation" => ablation(),
        "tune" => tune(),
        "roofline" => roofline(),
        "whatif" => whatif(),
        "verify" => {
            let n = args
                .get(1)
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(160);
            verify(n);
        }
        "golden_regen" => golden_regen(),
        "fault_campaign" => {
            if args[1..].iter().any(|a| a == "--serve") {
                fault_campaign_serve();
            } else {
                fault_campaign();
            }
        }
        "serve_soak" => serve_soak(&args[1..]),
        "cache_soak" => cache_soak(&args[1..]),
        "fig10" => fig10(),
        "batch_scaling" => batch_scaling(),
        "model_vs_measured" => model_vs_measured(),
        "json" => json_dump(),
        other => {
            eprintln!("unknown subcommand: {other}");
            eprintln!("usage: repro [all|table1|fig4|fig5|fig8|fig9|fig11|fig12|fig14|fig15|fig16|verify [n]|golden_regen|fault_campaign [--serve]|serve_soak [--seconds s] [--n size] [--rate-mult x] [--trace-out path]|cache_soak [--ci] [--seconds s] [--n size] [--pool p] [--zipf a] [--trace-out path]|batch_scaling|model_vs_measured|json]");
            std::process::exit(2);
        }
    }
}

fn table1() {
    let rows: Vec<Vec<String>> = figures::table1()
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                format!("{:.2}", r.h100_n8192_tflops),
                format!("{:.2}", r.h100_n32768_tflops),
                format!("{:.2}", r.rtx4090_n8192_tflops),
                format!("{:.2}", r.rtx4090_n32768_tflops),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 1 — cuBLAS DSYR2K TFLOP/s (model)",
            &[
                "k",
                "H100 n=8192",
                "H100 n=32768",
                "4090 n=8192",
                "4090 n=32768"
            ],
            &rows
        )
    );
}

fn fig4() {
    let f = figures::fig4();
    println!("── Figure 4 — EVD time breakdown, n = {} (model) ──", f.n);
    println!(
        "cuSOLVER: sytrd {} ({:.1}% of EVD, {:.2} TFLOP/s), D&C {}",
        fmt_time(f.cusolver_sytrd_s),
        100.0 * f.cusolver_tridiag_share,
        f.cusolver_tridiag_tflops,
        fmt_time(f.cusolver_dc_s),
    );
    println!(
        "MAGMA:    SBR {} + BC {} (BC = {:.0}% of tridiag, {:.2} TFLOP/s), D&C {}\n",
        fmt_time(f.magma_sbr_s),
        fmt_time(f.magma_bc_s),
        100.0 * f.magma_bc_share_of_tridiag,
        f.magma_tridiag_tflops,
        fmt_time(f.magma_dc_s),
    );
}

fn fig5() {
    let rows: Vec<Vec<String>> = figures::fig5(true)
        .iter()
        .map(|r| {
            vec![
                r.parallel_sweeps.to_string(),
                fmt_time(r.estimated_time_s),
                r.des_time_s.map(fmt_time).unwrap_or_default(),
                fmt_time(r.magma_baseline_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5 — estimated GPU BC time vs parallel sweeps (n = 65536, b = 32)",
            &["S", "closed-form", "DES", "MAGMA sb2st"],
            &rows
        )
    );
}

fn fig8() {
    let rows: Vec<Vec<String>> = figures::fig8()
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.2}", r.cublas_tflops),
                format!("{:.2}", r.ours_tflops),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 8 — SYR2K TFLOP/s, proposed vs cuBLAS (k = 1024, H100 model)",
            &["n", "cuBLAS", "proposed"],
            &rows
        )
    );
}

fn fig9() {
    let rows: Vec<Vec<String>> = figures::fig9()
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt_time(r.magma_sbr_s),
                fmt_time(r.dbbr_s),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 9 — band reduction, MAGMA SBR vs DBBR (b = 64, H100 model)",
            &["n", "MAGMA SBR", "DBBR", "speedup"],
            &rows
        )
    );
}

fn fig11() {
    let rows: Vec<Vec<String>> = figures::fig11()
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt_time(r.magma_s),
                fmt_time(r.naive_gpu_s),
                fmt_time(r.optimized_gpu_s),
                format!("{:.1}x", r.naive_speedup),
                format!("{:.1}x", r.optimized_speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 11 — bulge chasing (b = 32, H100 model)",
            &["n", "MAGMA", "naive GPU", "opt GPU", "naive x", "opt x"],
            &rows
        )
    );
}

fn fig12() {
    let rows: Vec<Vec<String>> = figures::fig12(16384)
        .iter()
        .map(|r| {
            vec![
                r.parallel_sweeps.to_string(),
                format!("{:.3}", r.throughput_tbs),
                format!("{:.1}", r.avg_parallelism),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 12 — BC memory throughput vs parallel sweeps (DES, n = 16384, b = 32)",
            &["S", "TB/s", "avg parallel"],
            &rows
        )
    );
}

fn fig14() {
    let rows: Vec<Vec<String>> = figures::fig14()
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt_time(r.magma_s),
                fmt_time(r.ours_s),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 14 — back transformation, MAGMA ormqr vs proposed (b = 64, k = 2048)",
            &["n", "MAGMA", "proposed", "speedup"],
            &rows
        )
    );
}

fn fig15() {
    for (dev, sizes) in [
        (Device::h100(), vec![4096usize, 8192, 16384, 32768, 49152]),
        (Device::rtx4090(), vec![4096, 8192, 16384, 32768]),
    ] {
        let rows: Vec<Vec<String>> = figures::fig15(&dev, &sizes)
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    fmt_time(r.cusolver_s),
                    format!("{:.2}", r.cusolver_tflops),
                    fmt_time(r.magma_sbr_s + r.magma_bc_s),
                    format!("{:.2}", r.magma_tflops),
                    fmt_time(r.ours_stage1_s + r.ours_bc_s),
                    format!("{:.2}", r.ours_tflops),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Figure 15 — tridiagonalization on {} (model)", dev.name),
                &["n", "cuSOLVER", "TF", "MAGMA", "TF", "ours", "TF"],
                &rows
            )
        );
    }
}

fn fig16() {
    let rows: Vec<Vec<String>> = figures::fig16()
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                if r.vectors { "yes" } else { "no" }.into(),
                fmt_time(r.cusolver_s),
                fmt_time(r.magma_s),
                fmt_time(r.ours_s),
                format!("{:.2}x", r.speedup_vs_cusolver),
                format!("{:.2}x", r.speedup_vs_magma),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 16 — end-to-end EVD (H100 model)",
            &[
                "n",
                "vectors",
                "cuSOLVER",
                "MAGMA",
                "ours",
                "vs cuSOLVER",
                "vs MAGMA"
            ],
            &rows
        )
    );
}

fn anchors() {
    let report = tg_gpu_sim::anchors::anchor_report();
    let rows: Vec<Vec<String>> = report
        .iter()
        .map(|a| {
            vec![
                a.source.to_string(),
                a.quantity.to_string(),
                format!("{:.4}", a.paper),
                format!("{:.4}", a.model),
                a.unit.to_string(),
                format!("{:.1}%", a.rel_err() * 100.0),
                if a.calibrated { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Paper-vs-model anchor report",
            &[
                "source",
                "quantity",
                "paper",
                "model",
                "unit",
                "err",
                "calibrated"
            ],
            &rows
        )
    );
}

fn ablation() {
    use tg_gpu_sim::ablation;
    let dev = Device::h100();
    let n = 49152;
    let rows: Vec<Vec<String>> = ablation::ladder(&dev, n)
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                fmt_time(r.stage1_s),
                fmt_time(r.bc_s),
                fmt_time(r.total_s),
                format!("{:.2}", r.tflops),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("Ablation ladder — tridiagonalization at n = {n} (H100 model)"),
            &["configuration", "stage 1", "BC", "total", "TFLOP/s"],
            &rows
        )
    );
    let rows: Vec<Vec<String>> = ablation::bk_sweep(&dev, n)
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                fmt_time(r.total_s),
                format!("{:.2}", r.tflops),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "(b, k) sensitivity of the final configuration",
            &["config", "total", "TFLOP/s"],
            &rows
        )
    );
}

fn tune() {
    use tg_gpu_sim::tune::tune_report;
    for dev in [Device::h100(), Device::rtx4090()] {
        let rows: Vec<Vec<String>> = [8192usize, 16384, 32768, 49152]
            .iter()
            .map(|&n| {
                let r = tune_report(&dev, n);
                vec![
                    n.to_string(),
                    format!("b={} k={}", r.config.b, r.config.k),
                    fmt_time(r.config.total_s()),
                    format!("{:.2}x", r.vs_cusolver),
                    format!("{:.2}x", r.vs_magma),
                    format!("{:.2}x", r.vs_paper_choice),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Model-tuned (b, k) on {}", dev.name),
                &[
                    "n",
                    "best config",
                    "total",
                    "vs cuSOLVER",
                    "vs MAGMA",
                    "vs (32,1024)"
                ],
                &rows
            )
        );
    }
}

fn roofline() {
    use tg_gpu_sim::roofline;
    for dev in [Device::h100(), Device::rtx4090()] {
        let rows: Vec<Vec<String>> = roofline::chart(&dev, 32768)
            .iter()
            .map(|p| {
                vec![
                    p.kernel.clone(),
                    format!("{:.1}", p.ai),
                    format!("{:.2}", p.bound_tflops),
                    format!("{:.2}", p.model_tflops),
                    if p.memory_bound { "memory" } else { "compute" }.into(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Roofline placement on {} (n = 32768)", dev.name),
                &[
                    "kernel",
                    "flops/byte",
                    "roofline TF",
                    "model TF",
                    "bound by"
                ],
                &rows
            )
        );
    }
}

fn whatif() {
    use tg_gpu_sim::whatif;
    let n = 49152;
    let rows: Vec<Vec<String>> = whatif::sweep(&Device::h100(), n)
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                fmt_time(r.stage1_s),
                fmt_time(r.bc_s),
                fmt_time(r.total_s),
                format!("{:.2}x", r.speedup_vs_base),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("What-if hardware scaling of the proposed pipeline (n = {n})"),
            &["scenario", "stage 1", "BC", "total", "speedup"],
            &rows
        )
    );
}

fn verify(n: usize) {
    let checks = measured::verification_suite(n);
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.2e}", c.value),
                format!("{:.0e}", c.threshold),
                if c.pass { "PASS" } else { "FAIL" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("verification gauntlet (real kernels, n = {n})"),
            &["check", "value", "threshold", "status"],
            &rows
        )
    );
    let failed = checks.iter().filter(|c| !c.pass).count();
    if failed > 0 {
        eprintln!("{failed} check(s) FAILED");
        std::process::exit(1);
    }
    println!("all {} checks passed", checks.len());
    golden_verify();
}

/// Diffs a freshly computed corpus against the committed
/// `tests/golden/corpus.json` (skipped with a notice when the file is
/// absent, e.g. in a checkout that predates the corpus).
fn golden_verify() {
    use tg_bench::golden;
    use tg_check::golden::GoldenCorpus;

    let path = golden::default_corpus_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        println!(
            "golden corpus: {} not found, skipping (run `repro golden_regen`)",
            path.display()
        );
        return;
    };
    let corpus = match GoldenCorpus::from_json(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("golden corpus: {e}");
            std::process::exit(1);
        }
    };
    let fresh: Vec<_> = corpus
        .entries
        .iter()
        .map(|e| golden::compute_entry(e.n, e.b, e.k, e.seed))
        .collect();
    let diffs = corpus.compare(&fresh);
    if diffs.is_empty() {
        println!(
            "golden corpus: {} entries match {}",
            corpus.entries.len(),
            path.display()
        );
    } else {
        for d in &diffs {
            eprintln!("golden corpus: {d}");
        }
        eprintln!(
            "golden corpus: {} mismatch(es) against {} — if the numerical \
             change is intended, regenerate with `repro golden_regen`",
            diffs.len(),
            path.display()
        );
        std::process::exit(1);
    }
}

fn golden_regen() {
    use tg_bench::golden;
    let corpus = golden::compute_corpus();
    let path = golden::default_corpus_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create tests/golden");
    }
    std::fs::write(&path, corpus.to_json()).expect("write corpus");
    println!(
        "wrote {} entries to {}",
        corpus.entries.len(),
        path.display()
    );
    for e in &corpus.entries {
        println!(
            "  n={:<4} b={:<3} k={:<4} seed={}  orth {:.2e}  sim {:.2e}  vs-sterf {:.2e}",
            e.n, e.b, e.k, e.seed, e.orth_residual, e.sim_residual, e.spectrum_vs_sterf
        );
    }
}

/// One batched-EVD solve that crosses every instrumented fault site:
/// DBBR (`stage1.band`, `blas.syr2k`), bulge chasing (`bc.tri`), the
/// tridiagonal eigensolver (`evd.values`), the blocked back transformation
/// (`backtransform.q`), and the single worker's caching pool (`arena.acquire`, which
/// needs a cache hit, i.e. at least two same-shape problems on one worker).
fn fault_workload() {
    use tg_matrix::gen;
    let n = 48;
    let problems: Vec<_> = (0..3)
        .map(|i| gen::random_symmetric(n, 1000 + i as u64))
        .collect();
    let method = tg_eigen::EvdMethod::Proposed {
        b: 8,
        k: 32,
        parallel_sweeps: 3,
        backtransform_k: 32,
        lookahead: true,
    };
    let scheduler = tg_batch::BatchScheduler::new(1);
    // Faulted runs may legitimately fail numerically (NaN/Inf propagate
    // into the tridiagonal solver); the checkers have already recorded the
    // violation by then, so the solver's error is not itself interesting.
    let _ = scheduler.syevd(&problems, &method, true);
}

/// Fault-injection campaign: arms each fault of the seed-derived plan in
/// its own strict check session and demands that (a) the fault fired and
/// (b) at least one checker caught it; then runs a clean control session
/// that must record zero failures. Exits nonzero on any undetected fault.
fn fault_campaign() {
    use tg_check::fault::FaultPlan;
    use tg_check::{CheckConfig, CheckSession};

    let seed = std::env::var("TG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(101);
    let plan = FaultPlan::campaign(seed);
    println!(
        "== fault-injection campaign (seed {seed}, {} sites) ==",
        plan.faults.len()
    );

    let mut undetected = Vec::new();
    for fault in &plan.faults {
        let single = FaultPlan::single(fault.site, fault.kind, fault.index);
        let session = CheckSession::begin(CheckConfig::strict().with_faults(single));
        let panicked = std::panic::catch_unwind(fault_workload).is_err();
        let report = session.finish();
        let fired = !report.faults_fired.is_empty();
        let caught = !report.passed();
        println!(
            "{:<18} {:?} idx {:<4} fired={} failures={}{}",
            fault.site,
            fault.kind,
            fault.index,
            fired,
            report.failures().len(),
            if panicked { " (workload panicked)" } else { "" }
        );
        for r in report.failures() {
            println!(
                "    {} = {:.3e} (> {:.0e}): {}",
                r.checker, r.value, r.threshold, r.detail
            );
        }
        if !fired || !caught {
            undetected.push(fault.site);
        }
    }

    let session = CheckSession::begin(CheckConfig::strict());
    fault_workload();
    let clean = session.finish();
    println!(
        "clean control: {} checks, {} failures, {} faults fired",
        clean.records.len(),
        clean.failures().len(),
        clean.faults_fired.len()
    );

    let mut bad = false;
    if !undetected.is_empty() {
        eprintln!("UNDETECTED fault(s) at: {}", undetected.join(", "));
        bad = true;
    }
    if !clean.passed() || !clean.faults_fired.is_empty() {
        eprintln!("clean control run was not clean");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!("every injected fault was caught; clean run spotless");
}

/// Serving-mode fault campaign: each fault of the seed-derived plan is
/// armed in its own check session and driven through a `tg-serve`
/// [`tg_serve::JobService`] under admission pressure (1.5× the queue+worker
/// capacity). For every site the service must (a) reach quiescence within
/// the watchdog — no hangs, (b) lose no job (conservation ledger), and
/// (c) return every admitted job either retried-to-success with results
/// **bitwise-identical** to the direct path, or as a clean typed error
/// within its deadline. A clean control run at the end must complete
/// everything with zero retries.
fn fault_campaign_serve() {
    use std::time::Duration;
    use tg_check::fault::FaultPlan;
    use tg_check::{CheckConfig, CheckSession};
    use tg_matrix::gen;
    use tg_serve::{JobService, JobSpec, JobStatus, ServeConfig, SubmitError};

    let seed = std::env::var("TG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(101);
    let plan = FaultPlan::campaign(seed);
    let n = 48;
    let method = tg_eigen::EvdMethod::Proposed {
        b: 8,
        k: 32,
        parallel_sweeps: 3,
        backtransform_k: 32,
        lookahead: true,
    };
    let workers: usize = 2;
    let queue_cap: usize = 4;
    // 1.5× of what the service can hold at once (workers + queue slots).
    let jobs = (3 * (workers + queue_cap)).div_ceil(2);
    let deadline = Duration::from_secs(60);
    let watchdog = Duration::from_secs(120);
    let problems: Vec<tg_matrix::Mat> = (0..jobs)
        .map(|i| gen::random_symmetric(n, 1000 + i as u64))
        .collect();
    // Uncorrupted references, computed outside any session.
    let references: Vec<_> = problems
        .iter()
        .map(|a| tg_eigen::syevd(&mut a.clone(), &method, true).expect("reference solve"))
        .collect();
    println!(
        "== serving-mode fault campaign (seed {seed}, {} sites, {jobs} jobs \
         at 1.5x capacity {workers}+{queue_cap}) ==",
        plan.faults.len()
    );

    let run_workload = |label: &str| -> (Vec<(usize, JobStatus, bool)>, tg_serve::ServiceStats) {
        let svc = JobService::start(ServeConfig {
            workers,
            queue_cap,
            default_deadline: deadline,
            max_retries: 3,
            retry_backoff: Duration::from_micros(200),
            serial_fallback: true,
            ..ServeConfig::default()
        })
        .expect("serve config is valid");
        let ids: Vec<Option<u64>> = problems
            .iter()
            .map(
                |a| match svc.submit(JobSpec::new(a.clone(), method.clone(), true)) {
                    Ok(id) => Some(id),
                    Err(SubmitError::Overloaded { .. }) => None,
                    Err(e) => panic!("unexpected rejection: {e}"),
                },
            )
            .collect();
        if !svc.wait_quiescent(watchdog) {
            // A stuck worker would also wedge shutdown's join — report the
            // hang and abandon the process rather than hanging the harness.
            eprintln!("HANG: {label}: service did not quiesce within {watchdog:?}");
            std::process::exit(1);
        }
        let outcomes = ids
            .iter()
            .enumerate()
            .filter_map(|(i, id)| id.map(|id| (i, id)))
            .map(|(i, id)| {
                let out = svc.wait(id);
                let bitwise_ok = match (&out.status, &out.result) {
                    (JobStatus::Completed, Some(evd)) => {
                        evd.eigenvalues == references[i].eigenvalues
                            && evd.eigenvectors == references[i].eigenvectors
                    }
                    (JobStatus::Completed, None) => false,
                    _ => out.latency <= deadline + Duration::from_secs(5),
                };
                (i, out.status, bitwise_ok)
            })
            .collect();
        (outcomes, svc.shutdown())
    };

    let mut bad = false;
    for fault in &plan.faults {
        let single = FaultPlan::single(fault.site, fault.kind, fault.index);
        let session = CheckSession::begin(CheckConfig::fast().with_faults(single));
        let (outcomes, stats) = run_workload(fault.site);
        let report = session.finish();
        let fired = !report.faults_fired.is_empty();
        let lost = stats.ledger.completed + stats.ledger.failed + stats.ledger.shed
            != stats.ledger.submitted;
        let dirty = outcomes.iter().filter(|(_, _, ok)| !ok).count();
        println!(
            "{:<18} {:?} idx {:<4} fired={} retries={} fallback={} \
             completed={} failed={} shed={} dirty={}",
            fault.site,
            fault.kind,
            fault.index,
            fired,
            stats.retries,
            stats.fallback_completions,
            stats.ledger.completed,
            stats.ledger.failed,
            stats.ledger.shed,
            dirty,
        );
        if !fired {
            eprintln!(
                "    fault at {} never fired under the serve workload",
                fault.site
            );
            bad = true;
        }
        if lost || !stats.ledger.balanced() {
            eprintln!("    LOST JOB(S): ledger {:?}", stats.ledger);
            bad = true;
        }
        if dirty > 0 {
            for (i, status, ok) in &outcomes {
                if !ok {
                    eprintln!("    job {i}: status {status:?} — corrupt result or late error");
                }
            }
            bad = true;
        }
    }

    let (outcomes, stats) = run_workload("clean control");
    let clean_dirty = outcomes.iter().filter(|(_, _, ok)| !ok).count();
    println!(
        "clean control: completed={} failed={} shed={} retries={} dirty={}",
        stats.ledger.completed, stats.ledger.failed, stats.ledger.shed, stats.retries, clean_dirty,
    );
    if stats.retries != 0 || clean_dirty != 0 || !stats.ledger.balanced() {
        eprintln!("clean control run was not clean");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!(
        "every fault healed through the service: zero jobs lost, no hangs, \
         admitted results bitwise-identical to the direct path"
    );
}

/// Open-loop soak of the job service (the nightly `serve_soak` CI gate).
///
/// Calibrates single-problem capacity on this machine, then submits an
/// open-loop stream at `rate-mult ×` that capacity (default 1.5× — the
/// generator never slows down for the service, so the overload is real)
/// for `--seconds`. Asserts that (a) load shedding engaged, (b) the
/// conservation ledger lost nothing, and (c) p99 of *admitted* jobs
/// finished inside their deadline. `--trace-out` additionally records the
/// run under a trace session and writes the Chrome trace plus the
/// timeline report next to it (uploaded by CI on failure).
fn serve_soak(args: &[String]) {
    use std::time::{Duration, Instant};
    use tg_matrix::gen;
    use tg_serve::{JobService, JobSpec, JobStatus, ServeConfig, SubmitError};

    let mut seconds = 60.0f64;
    let mut n = 64usize;
    let mut rate_mult = 1.5f64;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seconds" => seconds = it.next().and_then(|s| s.parse().ok()).expect("--seconds"),
            "--n" => n = it.next().and_then(|s| s.parse().ok()).expect("--n"),
            "--rate-mult" => {
                rate_mult = it.next().and_then(|s| s.parse().ok()).expect("--rate-mult")
            }
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out").clone()),
            other => {
                eprintln!("serve_soak: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let method = tg_eigen::EvdMethod::proposed_default(n);
    let workers = tg_blas::threads::worker_threads();

    // Capacity calibration: mean single-problem solve time on one thread.
    let calib = gen::random_symmetric(n, 7);
    let _ = tg_eigen::syevd(&mut calib.clone(), &method, false).expect("warmup");
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = tg_eigen::syevd(&mut calib.clone(), &method, false).expect("calibration");
    }
    let per_solve = t0.elapsed().as_secs_f64() / reps as f64;
    let capacity_hz = workers as f64 / per_solve;
    let rate_hz = rate_mult * capacity_hz;
    let total_jobs = (rate_hz * seconds).ceil().max(8.0) as usize;
    let queue_cap = (2 * workers).max(4);
    // Deadline: time to drain a full queue ahead of you, with a wide
    // margin for scheduler noise on a loaded box.
    let deadline = Duration::from_secs_f64(((queue_cap + 2) as f64 * per_solve * 10.0).max(2.0));
    println!(
        "== serve_soak: n={n}, {workers} worker(s), capacity {capacity_hz:.1} jobs/s, \
         open loop at {rate_hz:.1} jobs/s ({rate_mult}x) for {seconds:.0}s ==",
    );
    println!(
        "queue_cap {queue_cap}, deadline {:.0} ms, {total_jobs} submissions planned",
        deadline.as_secs_f64() * 1e3
    );

    // A small pool of inputs, cycled: the soak stresses serving, not gen.
    let pool: Vec<tg_matrix::Mat> = (0..32)
        .map(|i| gen::random_symmetric(n, 9000 + i as u64))
        .collect();

    let trace_session = trace_out.as_ref().map(|_| tg_trace::TraceSession::begin());
    let svc = JobService::start(ServeConfig {
        workers,
        queue_cap,
        default_deadline: deadline,
        max_retries: 2,
        retry_backoff: Duration::from_micros(200),
        serial_fallback: true,
        ..ServeConfig::default()
    })
    .expect("serve config is valid");

    let start = Instant::now();
    let mut admitted: Vec<u64> = Vec::new();
    let mut shed = 0u64;
    for i in 0..total_jobs {
        let due = start + Duration::from_secs_f64(i as f64 / rate_hz);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let spec = JobSpec::new(pool[i % pool.len()].clone(), method.clone(), false);
        match svc.submit(spec) {
            Ok(id) => admitted.push(id),
            Err(SubmitError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    let submit_wall = start.elapsed();
    if !svc.wait_quiescent(deadline * 2 + Duration::from_secs(30)) {
        eprintln!("HANG: soak did not quiesce after the load stopped");
        std::process::exit(1);
    }

    let mut completed_lat: Vec<Duration> = Vec::new();
    let mut deadline_failures = 0u64;
    let mut other_failures = 0u64;
    for &id in &admitted {
        let out = svc.wait(id);
        match out.status {
            JobStatus::Completed => completed_lat.push(out.latency),
            JobStatus::Failed(tg_serve::FailReason::DeadlineExceeded) => deadline_failures += 1,
            _ => other_failures += 1,
        }
    }
    let stats = svc.shutdown();
    if let (Some(path), Some(session)) = (&trace_out, trace_session) {
        let trace = session.finish();
        std::fs::write(path, trace.chrome_json()).expect("write trace");
        let report_path = format!("{path}.timeline.txt");
        std::fs::write(&report_path, trace.timeline_report().to_string()).expect("write timeline");
        println!("wrote {path} and {report_path}");
    }

    completed_lat.sort_unstable();
    let pct = |p: f64| -> Duration {
        if completed_lat.is_empty() {
            Duration::ZERO
        } else {
            completed_lat[((completed_lat.len() - 1) as f64 * p) as usize]
        }
    };
    let l = stats.ledger;
    println!(
        "submitted {} in {:.1}s: completed {}, shed {} ({:.1}%), \
         deadline-failures {}, other failures {}, retries {}",
        l.submitted,
        submit_wall.as_secs_f64(),
        l.completed,
        l.shed,
        100.0 * l.shed as f64 / l.submitted.max(1) as f64,
        deadline_failures,
        other_failures,
        stats.retries,
    );
    println!(
        "admitted-job latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms (deadline {:.0} ms)",
        pct(0.50).as_secs_f64() * 1e3,
        pct(0.99).as_secs_f64() * 1e3,
        completed_lat
            .last()
            .copied()
            .unwrap_or_default()
            .as_secs_f64()
            * 1e3,
        deadline.as_secs_f64() * 1e3
    );

    let mut bad = false;
    if l.shed == 0 {
        eprintln!("FAIL: open loop at {rate_mult}x capacity never shed — overload not engaged");
        bad = true;
    }
    if l.shed != shed {
        eprintln!(
            "FAIL: generator saw {shed} typed Overloaded rejections but the ledger counted {}",
            l.shed
        );
        bad = true;
    }
    if !l.balanced() || l.completed + l.failed + l.shed != l.submitted {
        eprintln!("FAIL: jobs lost — ledger {l:?}");
        bad = true;
    }
    if l.submitted != total_jobs as u64 {
        eprintln!(
            "FAIL: {} submissions recorded of {total_jobs} sent",
            l.submitted
        );
        bad = true;
    }
    // p99 in-deadline for admitted jobs: at most 1% may blow the deadline.
    let in_deadline_violations = deadline_failures + other_failures;
    let budget = (admitted.len() as u64).div_ceil(100);
    if in_deadline_violations > budget {
        eprintln!(
            "FAIL: {in_deadline_violations} of {} admitted jobs missed their deadline \
             (p99 budget {budget})",
            admitted.len()
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!("soak passed: shedding engaged, zero jobs lost, p99 in-deadline");
}

/// Nightly gate for the content-addressed result cache (`cache_soak`).
///
/// Replays the *same* deterministic zipf-shaped schedule twice through the
/// job service — first with the cache disabled, then with `cache_bytes` +
/// `dedup` on — at 1.5× measured capacity, so the baseline run is a real
/// overload and the cached run must absorb it. Gates:
///
/// 1. **hit rate ≥ 50%** on the cached run (zipf repeats must actually be
///    served from the cache);
/// 2. **bitwise identity**: every completed result in *both* runs equals
///    the direct `syevd` solve of its input bit for bit — a cache hit, a
///    coalesced follower, and a miss-path solve are indistinguishable;
/// 3. **extended conservation**: `shed + completed + failed + cache_hits +
///    coalesced == submitted` at quiescence in both runs;
/// 4. **p99 strictly improves** with the cache on.
fn cache_soak(args: &[String]) {
    use std::time::{Duration, Instant};
    use tg_matrix::gen;
    use tg_serve::{JobService, JobSpec, JobStatus, ServeConfig, SubmitError};

    let mut seconds = 20.0f64;
    let mut n = 64usize;
    let mut pool_size = 16usize;
    let mut zipf_a = 1.2f64;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // Nightly preset; explicit flags after it still override.
            "--ci" => {
                seconds = 40.0;
                pool_size = 24;
            }
            "--seconds" => seconds = it.next().and_then(|s| s.parse().ok()).expect("--seconds"),
            "--n" => n = it.next().and_then(|s| s.parse().ok()).expect("--n"),
            "--pool" => pool_size = it.next().and_then(|s| s.parse().ok()).expect("--pool"),
            "--zipf" => zipf_a = it.next().and_then(|s| s.parse().ok()).expect("--zipf"),
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out").clone()),
            other => {
                eprintln!("cache_soak: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let method = tg_eigen::EvdMethod::proposed_default(n);
    let workers = tg_blas::threads::worker_threads();

    // Capacity calibration, exactly as serve_soak does it.
    let calib = gen::random_symmetric(n, 7);
    let _ = tg_eigen::syevd(&mut calib.clone(), &method, false).expect("warmup");
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = tg_eigen::syevd(&mut calib.clone(), &method, false).expect("calibration");
    }
    let per_solve = t0.elapsed().as_secs_f64() / reps as f64;
    let capacity_hz = workers as f64 / per_solve;
    let rate_hz = 1.5 * capacity_hz;
    let total_jobs = (rate_hz * seconds).ceil().max(32.0) as usize;
    let queue_cap = (4 * workers).max(8);
    let deadline = Duration::from_secs_f64(((queue_cap + 2) as f64 * per_solve * 10.0).max(2.0));

    // The popularity-skewed request pool, and the *shared* schedule both
    // runs replay: pool index per submission, drawn from a zipf(a) CDF
    // with a fixed-seed splitmix64 stream. Identical inputs in identical
    // order is what makes the off/on p99 comparison meaningful.
    let pool: Vec<tg_matrix::Mat> = (0..pool_size)
        .map(|i| gen::random_symmetric(n, 11_000 + i as u64))
        .collect();
    let cdf: Vec<f64> = {
        let weights: Vec<f64> = (0..pool_size)
            .map(|k| 1.0 / ((k + 1) as f64).powf(zipf_a))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    };
    let mut prng_state = 0x5eed_cafe_f00d_0001u64;
    let mut splitmix = move || {
        prng_state = prng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = prng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let schedule: Vec<usize> = (0..total_jobs)
        .map(|_| {
            let u = (splitmix() >> 11) as f64 / (1u64 << 53) as f64;
            cdf.iter().position(|&c| u < c).unwrap_or(pool_size - 1)
        })
        .collect();

    // Reference results: the direct path, once per distinct input. Every
    // completed job in both runs must match its reference bit for bit.
    let reference: Vec<Vec<u64>> = pool
        .iter()
        .map(|a| {
            tg_eigen::syevd(&mut a.clone(), &method, false)
                .expect("reference solve")
                .eigenvalues
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();

    println!(
        "== cache_soak: n={n}, pool {pool_size} (zipf {zipf_a}), {workers} worker(s), \
         capacity {capacity_hz:.1} jobs/s, open loop at {rate_hz:.1} jobs/s for \
         {seconds:.0}s x 2 runs ==",
    );
    println!(
        "queue_cap {queue_cap}, deadline {:.0} ms, {total_jobs} submissions per run",
        deadline.as_secs_f64() * 1e3
    );

    // One replay of the schedule. Returns (p99 of completed, ledger,
    // cache stats, bitwise mismatches vs the reference).
    let run = |label: &str,
               cache_bytes: u64,
               dedup: bool,
               trace_out: Option<&String>|
     -> (Duration, tg_serve::Ledger, tg_serve::ServiceStats, u64) {
        let trace_session = trace_out.map(|_| tg_trace::TraceSession::begin());
        let svc = JobService::start(ServeConfig {
            workers,
            queue_cap,
            default_deadline: deadline,
            max_retries: 2,
            retry_backoff: Duration::from_micros(200),
            serial_fallback: true,
            cache_bytes,
            dedup,
            ..ServeConfig::default()
        })
        .expect("serve config is valid");
        let start = Instant::now();
        let mut admitted: Vec<(u64, usize)> = Vec::new();
        for (i, &pi) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate_hz);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            match svc.submit(JobSpec::new(pool[pi].clone(), method.clone(), false)) {
                Ok(id) => admitted.push((id, pi)),
                Err(SubmitError::Overloaded { .. }) => {}
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        if !svc.wait_quiescent(deadline * 2 + Duration::from_secs(30)) {
            eprintln!("HANG: {label} run did not quiesce after the load stopped");
            std::process::exit(1);
        }
        let mut completed_lat: Vec<Duration> = Vec::new();
        let mut mismatches = 0u64;
        for &(id, pi) in &admitted {
            let out = svc.wait(id);
            if out.status == JobStatus::Completed {
                completed_lat.push(out.latency);
                let evd = out.result.expect("completed job carries its result");
                let same = evd.eigenvalues.len() == reference[pi].len()
                    && evd
                        .eigenvalues
                        .iter()
                        .zip(reference[pi].iter())
                        .all(|(x, &bits)| x.to_bits() == bits);
                if !same {
                    mismatches += 1;
                }
            }
        }
        let stats = svc.shutdown();
        if let (Some(path), Some(session)) = (trace_out, trace_session) {
            let trace = session.finish();
            std::fs::write(path, trace.chrome_json()).expect("write trace");
            println!("wrote {path}");
        }
        completed_lat.sort_unstable();
        let p99 = completed_lat
            .get(((completed_lat.len().max(1) - 1) as f64 * 0.99) as usize)
            .copied()
            .unwrap_or_default();
        let l = stats.ledger;
        println!(
            "{label}: completed {}, shed {}, failed {}, cache_hits {}, coalesced {}, \
             p99 {:.1} ms, {} bitwise mismatch(es)",
            l.completed,
            l.shed,
            l.failed,
            l.cache_hits,
            l.coalesced,
            p99.as_secs_f64() * 1e3,
            mismatches,
        );
        (p99, l, stats, mismatches)
    };

    let (p99_off, l_off, _stats_off, bad_off) = run("cache-off", 0, false, None);
    let (p99_on, l_on, stats_on, bad_on) =
        run("cache-on ", 64 * 1024 * 1024, true, trace_out.as_ref());

    let hits = stats_on.cache.hits;
    let lookups = stats_on.cache.hits + stats_on.cache.misses;
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    println!(
        "cache-on hit rate: {hits}/{lookups} = {:.1}% ({} insertion(s), {} eviction(s), \
         {} B live)",
        100.0 * hit_rate,
        stats_on.cache.insertions,
        stats_on.cache.evictions,
        stats_on.cache_live_bytes,
    );

    let mut bad = false;
    if hit_rate < 0.5 {
        eprintln!("FAIL: hit rate {:.1}% < 50%", 100.0 * hit_rate);
        bad = true;
    }
    if bad_off + bad_on > 0 {
        eprintln!(
            "FAIL: {bad_off}+{bad_on} completed result(s) differ bitwise from the direct path \
             — the cache (or the service) returned a wrong answer"
        );
        bad = true;
    }
    for (label, l) in [("cache-off", &l_off), ("cache-on", &l_on)] {
        if !l.balanced()
            || l.shed + l.completed + l.failed + l.cache_hits + l.coalesced != l.submitted
        {
            eprintln!("FAIL: {label} ledger lost jobs — {l:?}");
            bad = true;
        }
        if l.submitted != total_jobs as u64 {
            eprintln!(
                "FAIL: {label} recorded {} submissions of {total_jobs} sent",
                l.submitted
            );
            bad = true;
        }
    }
    if l_off.cache_hits + l_off.coalesced != 0 {
        eprintln!("FAIL: baseline run used the cache — it was configured off");
        bad = true;
    }
    if p99_on >= p99_off {
        eprintln!(
            "FAIL: cache-on p99 {:.1} ms did not beat cache-off p99 {:.1} ms",
            p99_on.as_secs_f64() * 1e3,
            p99_off.as_secs_f64() * 1e3,
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!(
        "cache soak passed: {:.1}% hits, all results bitwise-identical, both ledgers \
         conserved, p99 {:.1} ms -> {:.1} ms",
        100.0 * hit_rate,
        p99_off.as_secs_f64() * 1e3,
        p99_on.as_secs_f64() * 1e3,
    );
}

fn fig10() {
    use tg_gpu_sim::cache::{bc_trace_hit_rate, CacheSim};
    use tg_matrix::BandLayout;
    println!("── Figure 10 — L2 hit rate, dense-embedded vs compact band storage ──");
    println!(
        "(cache simulation of the bulge-chasing access stream)
"
    );
    let n = 4096;
    let b = 4;
    let sweeps = 512;
    let mut rows = Vec::new();
    for cap_kb in [64usize, 128, 256, 512, 1024] {
        let mut dense = CacheSim::gpu_l2(cap_kb * 1024);
        let dr = bc_trace_hit_rate(&mut dense, BandLayout::Dense { n }, n, b, sweeps, sweeps);
        let mut compact = CacheSim::gpu_l2(cap_kb * 1024);
        let cr = bc_trace_hit_rate(
            &mut compact,
            BandLayout::Compact { ldab: 2 * b + 1 },
            n,
            b,
            sweeps,
            sweeps,
        );
        rows.push(vec![
            format!("{cap_kb} KB"),
            format!("{:.3}", dr),
            format!("{:.3}", cr),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!("hit rates (n = {n}, b = {b}, {sweeps} sweeps in flight)"),
            &["L2 size", "dense layout", "compact layout"],
            &rows
        )
    );
}

fn json_dump() {
    let out = serde_json::json!({
        "table1": figures::table1(),
        "fig4": figures::fig4(),
        "fig5": figures::fig5(false),
        "fig8": figures::fig8(),
        "fig9": figures::fig9(),
        "fig11": figures::fig11(),
        "fig12": figures::fig12(16384),
        "fig14": figures::fig14(),
        "fig15_h100": figures::fig15(&Device::h100(), &[4096, 8192, 16384, 32768, 49152]),
        "fig15_rtx4090": figures::fig15(&Device::rtx4090(), &[4096, 8192, 16384, 32768]),
        "fig16": figures::fig16(),
        "anchors": tg_gpu_sim::anchors::anchor_report(),
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
}

/// Runs the real `tg-blas` kernels under `tg-trace` and cross-checks the
/// counted FLOPs/bytes against the analytic formulas the cost models use
/// (see `tg_gpu_sim::model_check`). Exits nonzero on >1 % disagreement.
fn model_vs_measured() {
    use tg_gpu_sim::model_check;
    println!("== model vs measured (traced counters vs analytic formulas) ==");
    let shapes = [(64usize, 8usize, 16usize), (96, 12, 24), (128, 16, 32)];
    let mut rows = model_check::model_vs_measured(&shapes);
    rows.extend(model_check::check_batched_evd(48, 5));
    rows.extend(model_check::check_checker_overhead(96));
    rows.extend(model_check::check_utilization(96, 8, 4));
    rows.extend(model_check::check_backtransform(96, 8, 32));
    rows.extend(model_check::check_q2_apply(96, 8, 32));
    rows.extend(model_check::check_stage1_overlap(72, 8, 16));
    print!("{}", model_check::report(&rows));
    if rows.iter().any(|r| !r.within_tolerance()) {
        std::process::exit(1);
    }
}

fn batch_scaling() {
    use tg_gpu_sim::batch;

    // Paper-scale composition: the acceptance configuration (64 problems
    // of n = 256) across worker counts on the modeled H100.
    let dev = Device::h100();
    let (n, count) = (256usize, 64usize);
    let pts = batch::batch_scaling(&dev, n, count, &[1, 2, 4, 8, 16], false);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                fmt_time(p.serial_s),
                fmt_time(p.batched_s),
                format!("{:.2}x", p.speedup()),
                format!("{:.1}%", 100.0 * p.hit_rate),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("batch scaling — {count} EVDs of n = {n}, H100 model"),
            &["workers", "serial loop", "batched", "speedup", "arena hits"],
            &rows
        )
    );
    let at8 = pts.iter().find(|p| p.workers == 8).expect("8-worker point");
    println!(
        "modeled speedup at 8 workers: {:.2}x ({})\n",
        at8.speedup(),
        if at8.speedup() >= 2.0 {
            "meets the >=2x acceptance threshold"
        } else {
            "BELOW the >=2x acceptance threshold"
        }
    );

    // CPU-scale measured run of the real scheduler (small sizes: this
    // host is the correctness substrate, not the performance substrate).
    let workers = tg_blas::threads::worker_threads();
    let (ms, hit_rate) = measured::batch_compare(48, 12, workers);
    println!(
        "{}",
        render_table(
            &format!("measured: batched EVD, real kernels ({workers} worker threads)"),
            &["variant", "count", "time", "GFLOP/s"],
            &measured::to_rows(&ms)
        )
    );
    println!("measured arena hit rate: {:.1}%", 100.0 * hit_rate);
}
