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
        "fig10" => fig10(),
        "batch_scaling" => batch_scaling(),
        "model_vs_measured" => model_vs_measured(),
        "json" => json_dump(),
        other => {
            eprintln!("unknown subcommand: {other}");
            eprintln!("usage: repro [all|table1|fig4|fig5|fig8|fig9|fig11|fig12|fig14|fig15|fig16|verify [n]|golden_regen|batch_scaling|model_vs_measured|json]");
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
    // DBBR's `U = A·W` at each shape's (n, b), and one size past a
    // 128-wide block column, where the below and mirror GEMMs run
    for (n, b) in shapes.iter().map(|&(n, b, _)| (n, b)).chain([(300, 32)]) {
        rows.extend(model_check::check_symm(n, b));
    }
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
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("batch scaling — {count} EVDs of n = {n}, H100 model"),
            &["workers", "serial loop", "batched", "speedup"],
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
    let ms = measured::batch_compare(48, 12, workers);
    println!(
        "{}",
        render_table(
            &format!("measured: batched EVD, real kernels ({workers} worker threads)"),
            &["variant", "count", "time", "GFLOP/s"],
            &measured::to_rows(&ms)
        )
    );
}
