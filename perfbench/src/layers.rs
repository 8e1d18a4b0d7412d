//! The traced run: per-layer metrics, timed around public calls.
//!
//! [`replay`] calls each layer's public function in the order
//! `tg_eigen::syevd_ws` does for `EvdMethod::Proposed` and asserts the
//! result is bitwise-equal to `syevd`, so the layers measured are the
//! program measured. `syr2k` is timed over the calls DBBR makes, through
//! the library's trace spans; `gemm` and the panel QR are timed at shapes
//! of the workload's solves; the host roofline gives the kernels'
//! denominators. On `serve_zipf` the open loop runs again and the
//! service's queue, cache and dedup counters are reported.

use std::collections::HashMap;
use std::time::Instant;

use tg_blas::{gemm, Op as Trans};
use tg_eigen::{stedc, sterf, syevd, Evd, EvdMethod};
use tg_householder::panel::panel_qr;
use tg_matrix::{gen, Mat};
use tg_trace::Counter;
use tridiag_core::backtransform::{apply_blocks_panels, merge_q1_blocked_ws, release_blocks};
use tridiag_core::{bulge_chase_pipelined, dbbr_ws, AllocPool, DbbrConfig, PanelPools, PANEL_COLS};

use crate::inputs::{Op, Workload};
use crate::report::Report;
use crate::{evd, host, serve, stats, Args};

/// Replays of each distinct input (each paired with an untraced call).
fn reps(w: &Workload) -> usize {
    match w {
        Workload::Evd(_) => 3,
        Workload::Serve(_) => 1,
    }
}

#[derive(Default, Clone, Copy)]
struct Layers {
    dbbr: f64,
    bc: f64,
    sterf: f64,
    stedc: f64,
    merge: f64,
    sweep_blocks: f64,
    apply: f64,
    /// Counted work: DBBR flops (computed, `4n³/3`), BC reflectors, and the
    /// Q₂ apply flops performed by the dense sweep blocks vs the flops the
    /// reflectors need.
    dbbr_flops: f64,
    reflectors: f64,
    flops_performed: f64,
    flops_useful: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.dbbr + self.bc + self.sterf + self.stedc + self.backtransform()
    }

    fn backtransform(&self) -> f64 {
        self.merge + self.sweep_blocks + self.apply
    }

    fn add(&mut self, o: &Layers) {
        self.dbbr += o.dbbr;
        self.bc += o.bc;
        self.sterf += o.sterf;
        self.stedc += o.stedc;
        self.merge += o.merge;
        self.sweep_blocks += o.sweep_blocks;
        self.apply += o.apply;
        self.dbbr_flops += o.dbbr_flops;
        self.reflectors += o.reflectors;
        self.flops_performed += o.flops_performed;
        self.flops_useful += o.flops_useful;
    }
}

struct Params {
    cfg: DbbrConfig,
    parallel_sweeps: usize,
    backtransform_k: usize,
}

fn params(method: &EvdMethod) -> Params {
    let EvdMethod::Proposed {
        b,
        k,
        parallel_sweeps,
        backtransform_k,
        lookahead,
    } = *method
    else {
        unreachable!("every workload uses EvdMethod::proposed_default")
    };
    let mut cfg = DbbrConfig::new(b, k);
    cfg.lookahead = lookahead;
    Params {
        cfg,
        parallel_sweeps,
        backtransform_k,
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `syevd(a, method, vectors)` one public layer call at a time, each timed.
fn replay(op: &Op) -> Result<(Evd, Layers), String> {
    let p = params(&op.method);
    let n = op.n();
    let mut a = op.a.clone();
    let mut pool = AllocPool;
    let mut l = Layers::default();

    let t = Instant::now();
    let red = dbbr_ws(&mut a, &p.cfg, &mut pool);
    l.dbbr = secs_since(t);
    l.dbbr_flops = tg_blas::flops::sytrd(n) as f64;

    let t = Instant::now();
    let bc = bulge_chase_pipelined(&red.band, p.parallel_sweeps.max(1));
    let tri = bc.tri.clone();
    l.bc = secs_since(t);
    l.reflectors = bc.reflector_count() as f64;

    if !op.vectors {
        let t = Instant::now();
        let eigenvalues = sterf(&tri).map_err(|e| format!("sterf: {e:?}"))?;
        l.sterf = secs_since(t);
        let evd = Evd {
            eigenvalues,
            eigenvectors: None,
        };
        return Ok((evd, l));
    }

    let t = Instant::now();
    let (eigenvalues, mut v) = stedc(&tri).map_err(|e| format!("stedc: {e:?}"))?;
    l.stedc = secs_since(t);

    let t = Instant::now();
    let mut blocks = merge_q1_blocked_ws(&red.factors, p.backtransform_k, &mut pool);
    l.merge = secs_since(t);

    let t = Instant::now();
    let sweep_blocks = bc.sweep_blocks_ws(&mut pool);
    l.sweep_blocks = secs_since(t);
    let ncols = v.ncols() as f64;
    l.flops_performed = sweep_blocks
        .iter()
        .map(|(_, f)| 4.0 * (f.w.nrows() * f.w.ncols()) as f64 * ncols)
        .sum();
    l.flops_useful = bc
        .reflectors
        .iter()
        .flatten()
        .filter(|r| r.tau != 0.0)
        .map(|r| 4.0 * r.v.len() as f64 * ncols)
        .sum();

    let t = Instant::now();
    blocks.extend(sweep_blocks);
    apply_blocks_panels(
        &blocks,
        &mut v,
        tg_blas::threads::gemm_threads(),
        &mut PanelPools::new(),
    );
    release_blocks(blocks, &mut pool);
    l.apply = secs_since(t);

    let evd = Evd {
        eigenvalues,
        eigenvectors: Some(v),
    };
    Ok((evd, l))
}

pub fn run(args: &Args, w: &Workload, report: &mut Report) {
    let fma_gflops = host::measure(report);

    // Untraced and traced calls alternate on the same inputs, so host
    // drift hits both sides of the overhead ratio alike.
    let mut total = Layers::default();
    let (mut untraced, mut traced, mut count) = (0.0, 0.0, 0usize);
    // Per pass over the inputs: untraced time and the sum of layer times.
    let (mut untraced_passes, mut layer_passes) = (Vec::new(), Vec::new());
    for _ in 0..reps(w) {
        let (untraced_before, layers_before) = (untraced, total.sum());
        for op in w.ops() {
            let mut a = op.a.clone();
            let t = Instant::now();
            let direct = syevd(&mut a, &op.method, op.vectors);
            untraced += secs_since(t);

            let t = Instant::now();
            let replayed = replay(op);
            traced += secs_since(t);
            count += 1;
            report.attempted += 1;
            match (direct, replayed) {
                (Ok(direct), Ok((evd, l))) => {
                    if !evd::bitwise_equal(&direct, &evd) {
                        report.failed += 1;
                        report.problem(format!(
                            "layer replay differs from syevd bitwise (n = {})",
                            op.n()
                        ));
                    } else if let Err(e) = evd::check(op, &evd) {
                        report.failed += 1;
                        report.problem(e);
                    }
                    total.add(&l);
                }
                (d, r) => {
                    report.failed += 1;
                    report.problem(format!(
                        "solve failed: direct {:?}, replay {:?}",
                        d.err(),
                        r.err()
                    ));
                }
            }
        }
        untraced_passes.push(untraced - untraced_before);
        layer_passes.push(total.sum() - layers_before);
    }
    let per_op = |x: f64| x / count.max(1) as f64;
    let sum = total.sum();
    let share = |x: f64| if sum > 0.0 { x / sum } else { 0.0 };
    report.metric("core.dbbr.time_s", per_op(total.dbbr), "s");
    report.metric("core.dbbr.share", share(total.dbbr), "ratio");
    report.metric(
        "core.dbbr.gflops_computed",
        total.dbbr_flops / total.dbbr / 1e9,
        "GFLOP/s",
    );
    report.metric("core.bc.time_s", per_op(total.bc), "s");
    report.metric("core.bc.share", share(total.bc), "ratio");
    report.metric("core.bc.reflectors", per_op(total.reflectors), "count");
    report.metric("eigen.sterf.time_s", per_op(total.sterf), "s");
    report.metric("eigen.sterf.share", share(total.sterf), "ratio");
    report.metric("eigen.stedc.time_s", per_op(total.stedc), "s");
    report.metric("eigen.stedc.share", share(total.stedc), "ratio");
    report.metric("core.backtransform.merge.time_s", per_op(total.merge), "s");
    report.metric(
        "core.backtransform.sweep_blocks.time_s",
        per_op(total.sweep_blocks),
        "s",
    );
    report.metric("core.backtransform.apply.time_s", per_op(total.apply), "s");
    report.metric(
        "core.backtransform.share",
        share(total.backtransform()),
        "ratio",
    );
    report.metric(
        "core.backtransform.apply.flops_performed",
        per_op(total.flops_performed),
        "flop",
    );
    report.metric(
        "core.backtransform.apply.flops_useful",
        per_op(total.flops_useful),
        "flop",
    );
    let useful_ratio = if total.flops_performed > 0.0 {
        total.flops_useful / total.flops_performed
    } else {
        0.0
    };
    report.metric(
        "core.backtransform.apply.useful_ratio",
        useful_ratio,
        "ratio",
    );
    // How far the layers miss the op, either way: the median pass's layer
    // sum against the median untraced pass.
    let untraced_median = stats::median(&untraced_passes);
    report.metric(
        "bench.layer_sum_residual",
        (stats::median(&layer_passes) - untraced_median).abs() / untraced_median,
        "ratio",
    );
    report.metric("bench.trace_overhead_ratio", traced / untraced, "ratio");

    kernel_probes(w, fma_gflops, report);

    match w {
        Workload::Serve(s) => serve_layers(args, s, report),
        Workload::Evd(_) => {
            // No serve layer runs on the closed-loop workloads.
            for (name, unit) in SERVE_METRICS {
                report.metric(name, 0.0, unit);
            }
        }
    }
}

/// Metrics only `serve_zipf` produces, reported as 0 elsewhere.
const SERVE_METRICS: [(&str, &str); 11] = [
    ("serve.queue_wait_s_p50", "s"),
    ("serve.queue_wait_s_tail", "s"),
    ("serve.solve_s_p50", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions_per_s", "1/s"),
    ("serve.cache.miss_share_first_half", "ratio"),
    ("serve.cache.miss_share_second_half", "ratio"),
    ("serve.dedup.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("bench.gen_late_s_max", "s"),
];

fn serve_layers(args: &Args, w: &crate::inputs::ServeWorkload, report: &mut Report) {
    let phase = serve::run_phase(args, w, report);
    for e in &phase.wrong {
        report.problem(e.clone());
    }
    let solved: Vec<&serve::JobRecord> = phase.jobs.iter().filter(|j| j.attempts > 0).collect();
    let waits: Vec<f64> = solved.iter().map(|j| j.queue_wait).collect();
    let solves: Vec<f64> = solved
        .iter()
        .map(|j| j.service_latency - j.queue_wait)
        .collect();
    report.metric("serve.queue_wait_s_p50", stats::median(&waits), "s");
    report.metric(
        "serve.queue_wait_s_tail",
        stats::tail(&waits).map_or(f64::NAN, |t| t.0),
        "s",
    );
    report.metric("serve.solve_s_p50", stats::median(&solves), "s");
    let (b, a) = (&phase.before, &phase.after);
    let hits = a.cache.hits - b.cache.hits;
    let lookups = hits + a.cache.misses - b.cache.misses;
    report.metric(
        "serve.cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.cache.evictions_per_s",
        (a.cache.evictions - b.cache.evictions) as f64 / phase.seconds,
        "1/s",
    );
    let half = args.seconds / 2.0;
    report.metric(
        "serve.cache.miss_share_first_half",
        serve::miss_share(&phase.jobs, |j| j.due < half),
        "ratio",
    );
    report.metric(
        "serve.cache.miss_share_second_half",
        serve::miss_share(&phase.jobs, |j| j.due >= half),
        "ratio",
    );
    report.metric(
        "serve.dedup.coalesced",
        (a.ledger.coalesced - b.ledger.coalesced) as f64,
        "count",
    );
    report.metric(
        "serve.shed",
        (a.ledger.shed - b.ledger.shed) as f64,
        "count",
    );
    report.metric("serve.retries", (a.retries - b.retries) as f64, "count");
    report.metric("bench.gen_late_s_max", phase.gen_late_max, "s");
    report.attempted += phase.jobs.len() as u64;
    report.failed += phase.jobs.iter().filter(|j| !j.ok).count() as u64;
}

/// The `syr2k` calls DBBR makes on the workload's inputs: one `dbbr_ws`
/// per distinct input under a trace session. Each outermost
/// `blas.syr2k_*` span is one call — the square kernel runs the blocked
/// one on its diagonal blocks, inside its own span — with its wall time and
/// its computed flops, counted at the leaf kernels. Returns
/// `(flops, seconds, calls)`.
fn syr2k_calls(w: &Workload) -> (f64, f64, usize) {
    let session = tg_trace::TraceSession::begin();
    for op in w.ops() {
        let mut a = op.a.clone();
        std::hint::black_box(dbbr_ws(&mut a, &params(&op.method).cfg, &mut AllocPool));
    }
    let trace = session.finish();
    // Events are sorted by start, so a nested call starts before the end
    // of the last outermost call on its thread.
    let mut open_until: HashMap<u64, f64> = HashMap::new();
    let (mut flops, mut secs, mut calls) = (0.0, 0.0, 0);
    for e in trace.events.iter().filter(|e| e.name.starts_with("blas.syr2k_")) {
        let until = open_until.entry(e.tid).or_insert(f64::NEG_INFINITY);
        if e.ts_us < *until {
            continue;
        }
        *until = e.ts_us + e.dur_us;
        flops += e.counter(Counter::Flops) as f64;
        secs += e.dur_us * 1e-6;
        calls += 1;
    }
    (flops, secs, calls)
}

/// Kernel rates: `syr2k` over the calls DBBR makes, `gemm` at the shape of
/// the narrow update of the workload's largest solve; and the per-op
/// panel-QR time summed over every op's panel shapes.
fn kernel_probes(w: &Workload, fma_gflops: f64, report: &mut Report) {
    let (flops, secs, calls) = syr2k_calls(w);
    let syr2k_gflops = flops / secs / 1e9;
    report.metric("blas.syr2k.gflops", syr2k_gflops, "GFLOP/s");
    report.metric(
        "blas.syr2k.pct_fma_peak",
        100.0 * syr2k_gflops / fma_gflops,
        "%",
    );
    report.info("syr2k_calls", calls.to_string());

    let big = w.ops().iter().max_by_key(|op| op.n()).expect("inputs");
    let n = big.n();
    let cfg = params(&big.method).cfg;
    let (b, k) = (cfg.b, cfg.k);
    // The narrow update both the DBBR ZY correction and each back-transform
    // panel issue: (n − b) × k times k × PANEL_COLS.
    let (m, kk) = (n - b, k.min(n - b));
    let wmat = gen::random(m, kk, 21);
    let t = gen::random(kk, PANEL_COLS, 22);
    let mut c = gen::random(m, PANEL_COLS, 23);
    let secs = stats::time_per_call(0.2, 3, || {
        gemm(
            -1e-3,
            &wmat.as_ref(),
            Trans::NoTrans,
            &t.as_ref(),
            Trans::NoTrans,
            1.0,
            &mut c.as_mut(),
        );
    });
    let gemm_gflops = tg_blas::flops::gemm(m, PANEL_COLS, kk) as f64 / secs / 1e9;
    report.metric("blas.gemm.gflops", gemm_gflops, "GFLOP/s");
    report.metric(
        "blas.gemm.pct_fma_peak",
        100.0 * gemm_gflops / fma_gflops,
        "%",
    );
    report.info(
        "gemm_probe_shape",
        format!("{{\"n\": {n}, \"m\": {m}, \"cols\": {PANEL_COLS}, \"k\": {kk}}}"),
    );

    let panel_secs: f64 = w
        .ops()
        .iter()
        .map(|op| {
            let p = params(&op.method).cfg;
            let panels: Vec<Mat> = (0..)
                .map(|j| j * p.b)
                .take_while(|j| j + p.b + 1 < op.n())
                .map(|j| op.a.view(j + p.b, j, op.n() - j - p.b, p.b).to_mat())
                .collect();
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let mut work = panels.clone();
                    let t = Instant::now();
                    for panel in &mut work {
                        std::hint::black_box(panel_qr(&mut panel.as_mut()));
                    }
                    secs_since(t)
                })
                .collect();
            stats::median(&samples)
        })
        .sum();
    report.metric(
        "householder.panel_qr.time_s",
        panel_secs / w.ops().len() as f64,
        "s",
    );
}
