//! Measured (CPU-scale) experiments over the *real* Rust kernels.
//!
//! These complement the model-composed paper-scale figures: they exercise
//! the actual implementations and verify the paper's *algorithmic* shape
//! claims that survive the hardware substitution — e.g. wider `syr2k`
//! ranks amortize per-call overheads, DBBR does the same flops as SBR with
//! far fewer trailing updates, pipelined bulge chasing matches the
//! sequential result bitwise.

use std::time::Instant;
use tg_blas::{syr2k_blocked, syr2k_square};
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::gen;
use tridiag_core::{
    bulge_chase_pipelined, bulge_chase_seq, dbbr, tridiagonalize, DbbrConfig, Method,
};

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub label: String,
    pub param: usize,
    pub seconds: f64,
    pub gflops: f64,
}

fn time_it(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Runs `f` `reps` times and returns the **median** wall time. The median
/// is the noise-robust statistic the perf-regression gate assumes (a
/// single descheduling blip moves the mean but not the median); `reps = 1`
/// degenerates to a plain [`time_it`].
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ts: Vec<f64> = (0..reps.max(1)).map(|_| time_it(&mut f)).collect();
    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ts[ts.len() / 2]
}

/// Measured `syr2k` throughput vs rank `k` (Table 1's shape on CPU):
/// conventional blocking vs the Figure-7 square-block scheme.
pub fn syr2k_sweep(n: usize, ks: &[usize]) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &k in ks {
        let a = gen::random(n, k, 1);
        let b = gen::random(n, k, 2);
        let flops = tg_blas::flops::syr2k(n, k) as f64;
        let mut c1 = gen::random_symmetric(n, 3);
        let t1 =
            time_it(|| syr2k_blocked(-1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c1.as_mut(), 64));
        out.push(Measurement {
            label: "syr2k_blocked".into(),
            param: k,
            seconds: t1,
            gflops: flops / t1 / 1e9,
        });
        let mut c2 = gen::random_symmetric(n, 3);
        let t2 =
            time_it(|| syr2k_square(-1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c2.as_mut(), 64, 2));
        out.push(Measurement {
            label: "syr2k_square".into(),
            param: k,
            seconds: t2,
            gflops: flops / t2 / 1e9,
        });
    }
    out
}

/// Measured square `n×n×n` GEMM through the three dispatch paths: the
/// naive column-axpy kernel (what every sub-threshold shape gets), the
/// packed Goto/BLIS kernel pinned to one thread, and the packed kernel
/// under the parallel driver with `threads` workers.
///
/// Also re-asserts the determinism contract on every size: the parallel
/// result must be **bitwise** identical to the serial one, because the
/// driver partitions over `ic`/`jc` strips only and never splits the
/// `pc` (k) accumulation (see `docs/PERFORMANCE.md`).
pub fn gemm_sweep(sizes: &[usize], threads: usize) -> Vec<Measurement> {
    gemm_sweep_reps(sizes, threads, 1)
}

/// [`gemm_sweep`] with `reps` timed repetitions per kernel, reporting the
/// **median** time of each. All dispatch paths write with `beta = 0`, so
/// repeating a call is idempotent and the bitwise contract still holds.
pub fn gemm_sweep_reps(sizes: &[usize], threads: usize, reps: usize) -> Vec<Measurement> {
    use tg_blas::{gemm_axpy, gemm_packed_with_threads, Op};
    let mut out = Vec::new();
    for &n in sizes {
        let a = gen::random(n, n, 21);
        let b = gen::random(n, n, 22);
        let c0 = gen::random(n, n, 23);
        let flops = tg_blas::flops::gemm(n, n, n) as f64;

        let mut c = c0.clone();
        let t = median_time(reps, || {
            gemm_axpy(
                1.0,
                &a.as_ref(),
                Op::NoTrans,
                &b.as_ref(),
                Op::NoTrans,
                0.0,
                &mut c.as_mut(),
            )
        });
        out.push(Measurement {
            label: "naive".into(),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        let mut c_serial = c0.clone();
        let t = median_time(reps, || {
            gemm_packed_with_threads(
                1.0,
                &a.as_ref(),
                Op::NoTrans,
                &b.as_ref(),
                Op::NoTrans,
                0.0,
                &mut c_serial.as_mut(),
                1,
            )
        });
        out.push(Measurement {
            label: "packed-serial".into(),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        let mut c_par = c0.clone();
        let t = median_time(reps, || {
            gemm_packed_with_threads(
                1.0,
                &a.as_ref(),
                Op::NoTrans,
                &b.as_ref(),
                Op::NoTrans,
                0.0,
                &mut c_par.as_mut(),
                threads,
            )
        });
        out.push(Measurement {
            label: format!("packed-parallel(t={threads})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        for j in 0..n {
            for i in 0..n {
                assert!(
                    c_serial[(i, j)].to_bits() == c_par[(i, j)].to_bits(),
                    "parallel packed GEMM diverged from serial at ({i},{j}), n={n}"
                );
            }
        }
    }
    out
}

/// Measured band reduction: MAGMA-style SBR vs DBBR at equal bandwidth.
pub fn band_reduction_compare(n: usize, b: usize, k: usize) -> Vec<Measurement> {
    let a0 = gen::random_symmetric(n, 7);
    let flops = 4.0 / 3.0 * (n as f64).powi(3);
    let mut out = Vec::new();
    {
        let mut a = a0.clone();
        let t = time_it(|| {
            let _ = tridiag_core::band_reduce(&mut a, b, 64);
        });
        out.push(Measurement {
            label: format!("sbr(b={b})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });
    }
    {
        let mut a = a0.clone();
        let cfg = DbbrConfig::new(b, k);
        let t = time_it(|| {
            let _ = dbbr(&mut a, &cfg);
        });
        out.push(Measurement {
            label: format!("dbbr(b={b},k={k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });
    }
    out
}

/// Measured bulge chasing: sequential vs pipelined at several worker
/// counts. Also asserts the bitwise-determinism contract.
pub fn bulge_chasing_compare(n: usize, b: usize, sweeps: &[usize]) -> Vec<Measurement> {
    let dense = gen::random_symmetric_band(n, b, 9);
    let band = tg_matrix::SymBand::from_dense_lower(&dense, b);
    let mut out = Vec::new();
    let reference = {
        let t = Instant::now();
        let r = bulge_chase_seq(&band);
        let secs = t.elapsed().as_secs_f64();
        out.push(Measurement {
            label: "bc_seq".into(),
            param: 1,
            seconds: secs,
            gflops: 6.0 * (n * n) as f64 * b as f64 / secs / 1e9,
        });
        Some(r.tri)
    };
    for &s in sweeps {
        let t = Instant::now();
        let r = bulge_chase_pipelined(&band, s);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            r.tri.d,
            reference.as_ref().unwrap().d,
            "pipelined BC diverged from sequential at S={s}"
        );
        out.push(Measurement {
            label: format!("bc_pipelined(S={s})"),
            param: s,
            seconds: secs,
            gflops: 6.0 * (n * n) as f64 * b as f64 / secs / 1e9,
        });
    }
    out
}

/// Measured tridiagonalization: the three pipelines end to end.
pub fn tridiag_compare(n: usize) -> Vec<Measurement> {
    let a0 = gen::random_symmetric(n, 11);
    let flops = 4.0 / 3.0 * (n as f64).powi(3);
    let b = (n / 16).clamp(2, 32);
    let methods: Vec<(String, Method)> = vec![
        ("direct(sytrd)".into(), Method::Direct { nb: 32 }),
        (
            format!("two-stage sbr(b={b})"),
            Method::Sbr {
                b,
                parallel_sweeps: 1,
            },
        ),
        (
            format!("two-stage dbbr(b={b},k={})", 4 * b),
            Method::Dbbr {
                cfg: DbbrConfig::new(b, 4 * b),
                parallel_sweeps: 4,
            },
        ),
    ];
    methods
        .into_iter()
        .map(|(label, m)| {
            let mut a = a0.clone();
            let t = time_it(|| {
                let _ = tridiagonalize(&mut a, &m);
            });
            Measurement {
                label,
                param: n,
                seconds: t,
                gflops: flops / t / 1e9,
            }
        })
        .collect()
}

/// Measured end-to-end EVD, with and without eigenvectors.
pub fn evd_compare(n: usize, vectors: bool) -> Vec<Measurement> {
    let a0 = gen::random_symmetric(n, 13);
    let flops = 4.0 / 3.0 * (n as f64).powi(3);
    let b = (n / 16).clamp(2, 32);
    let methods: Vec<(String, EvdMethod)> = vec![
        ("cusolver-like".into(), EvdMethod::CusolverLike { nb: 32 }),
        ("magma-like".into(), EvdMethod::MagmaLike { b }),
        (
            "proposed".into(),
            EvdMethod::Proposed {
                b,
                k: 4 * b,
                parallel_sweeps: 4,
                backtransform_k: 8 * b,
                lookahead: true,
            },
        ),
    ];
    methods
        .into_iter()
        .map(|(label, m)| {
            let mut a = a0.clone();
            let t = time_it(|| {
                let _ = syevd(&mut a, &m, vectors).expect("EVD failed");
            });
            Measurement {
                label,
                param: n,
                seconds: t,
                gflops: flops / t / 1e9,
            }
        })
        .collect()
}

/// Measured back transformation: conventional vs Figure-13 blocked.
pub fn backtransform_compare(n: usize, b: usize) -> Vec<Measurement> {
    let mut a = gen::random_symmetric(n, 17);
    let red = tridiag_core::band_reduce(&mut a, b, 64);
    let c0 = gen::random(n, n, 18);
    let flops = 2.0 * (n as f64).powi(3);
    let mut out = Vec::new();
    {
        let mut c = c0.clone();
        let t = time_it(|| tridiag_core::backtransform::apply_q1(&red.factors, &mut c, false));
        out.push(Measurement {
            label: "ormqr-conventional".into(),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });
    }
    for target_k in [4 * b, 16 * b] {
        let mut c = c0.clone();
        let t = time_it(|| {
            tridiag_core::backtransform::apply_q1_blocked(&red.factors, &mut c, target_k)
        });
        out.push(Measurement {
            label: format!("blocked-W(k={target_k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });
    }
    out
}

/// Measured back-transformation sweep (the `BENCH_PR9.json` rows): for
/// each `(n, b, target_k)` shape, the conventional per-factor `apply_q1`,
/// the pooled Figure-13 blocked path on one worker, and the same path on
/// `workers` workers — median wall time of `reps` runs each.
///
/// Two contracts are re-asserted on every shape:
///
/// * the parallel result is **bitwise identical** to the serial one (the
///   fixed-width-panel determinism contract of `apply_blocks_panels`);
/// * the panel pools reach steady state: hit rate is measured over the
///   timed reps only (one warmup run per variant precedes them), so the
///   returned rate sits near 1.0 when the hot path stops allocating.
pub fn backtransform_sweep_reps(
    shapes: &[(usize, usize, usize)],
    workers: usize,
    reps: usize,
) -> (Vec<Measurement>, f64) {
    use tridiag_core::backtransform::{apply_q1, apply_q1_blocked_ws};
    use tridiag_core::{AllocPool, PanelPools, PoolStats};

    let mut out = Vec::new();
    // Pools persist across shapes and reps — the steady-state claim is
    // about a long-lived driver, not a fresh pool per call.
    let mut serial_pools = PanelPools::new();
    let mut par_pools = PanelPools::new();
    let mut pool = AllocPool;
    let both = |s: &PanelPools, p: &PanelPools| {
        let mut total = s.stats();
        total.merge(&p.stats());
        total
    };
    let mut steady = PoolStats::default();
    for (si, &(n, b, target_k)) in shapes.iter().enumerate() {
        let mut a = gen::random_symmetric(n, 2900 + si as u64);
        let red = tridiag_core::band_reduce(&mut a, b, 64);
        let c0 = gen::random(n, n, 3900 + si as u64);
        let flops = 2.0 * (n as f64).powi(3);

        // Median-of-reps with a fresh clone of C outside each timed
        // window (the apply is cumulative, so repeating in place would
        // measure a different product).
        let median_apply = |f: &mut dyn FnMut(&mut tg_matrix::Mat)| -> (f64, tg_matrix::Mat) {
            let mut ts = Vec::with_capacity(reps.max(1));
            let mut last = c0.clone();
            for _ in 0..reps.max(1) {
                let mut c = c0.clone();
                let t = Instant::now();
                f(&mut c);
                ts.push(t.elapsed().as_secs_f64());
                last = c;
            }
            ts.sort_by(|x, y| x.partial_cmp(y).unwrap());
            (ts[ts.len() / 2], last)
        };

        let (t, _) = median_apply(&mut |c| apply_q1(&red.factors, c, false));
        out.push(Measurement {
            label: format!("conventional(b={b},k={target_k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        // Warm both pool sets so the timed reps see steady state.
        {
            let mut c = c0.clone();
            apply_q1_blocked_ws(
                &red.factors,
                &mut c,
                target_k,
                &mut pool,
                1,
                &mut serial_pools,
            );
            let mut c = c0.clone();
            apply_q1_blocked_ws(
                &red.factors,
                &mut c,
                target_k,
                &mut pool,
                workers,
                &mut par_pools,
            );
        }
        let before = both(&serial_pools, &par_pools);

        let (t, serial_c) = median_apply(&mut |c| {
            apply_q1_blocked_ws(&red.factors, c, target_k, &mut pool, 1, &mut serial_pools)
        });
        out.push(Measurement {
            label: format!("blocked-serial(b={b},k={target_k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        let (t, par_c) = median_apply(&mut |c| {
            apply_q1_blocked_ws(
                &red.factors,
                c,
                target_k,
                &mut pool,
                workers,
                &mut par_pools,
            )
        });
        out.push(Measurement {
            label: format!("blocked-parallel(t={workers},b={b},k={target_k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        for j in 0..n {
            for i in 0..n {
                assert!(
                    serial_c[(i, j)].to_bits() == par_c[(i, j)].to_bits(),
                    "parallel back transformation diverged from serial at ({i},{j}), \
                     n={n} b={b} k={target_k} workers={workers}"
                );
            }
        }
        let after = both(&serial_pools, &par_pools);
        steady.hits += after.hits - before.hits;
        steady.misses += after.misses - before.misses;
    }
    (out, steady.hit_rate())
}

/// Measured stage-1 (DBBR band reduction) throughput, serial deferred
/// update vs depth-1 look-ahead, at each `(n, b, k)` shape.
///
/// Every timed look-ahead run is compared **bitwise** (band and WY
/// factors) against the serial reference before its time is reported —
/// a benchmark row for a wrong answer is worse than no row.
pub fn stage1_sweep_reps(shapes: &[(usize, usize, usize)], reps: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for (si, &(n, b, k)) in shapes.iter().enumerate() {
        let a0 = gen::random_symmetric(n, 4900 + si as u64);
        let mut serial_cfg = DbbrConfig::new(b, k);
        // Small syr2k blocks so the sb-aligned column split leaves work on
        // both sides of the fence at CPU-scale n.
        serial_cfg.nb_syr2k = 8;
        serial_cfg.lookahead = false;
        let mut la_cfg = serial_cfg.clone();
        la_cfg.lookahead = true;
        // 4/3 n^3: the stage-1 flop convention (half of a full one-stage
        // tridiagonalization's 8/3 n^3 lands in the band reduction).
        let flops = 4.0 / 3.0 * (n as f64).powi(3);

        let reference = dbbr(&mut a0.clone(), &serial_cfg);
        let t = median_time(reps, || {
            let _ = dbbr(&mut a0.clone(), &serial_cfg);
        });
        out.push(Measurement {
            label: format!("dbbr-serial(b={b},k={k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });

        let mut la_red = None;
        let t = median_time(reps, || {
            la_red = Some(dbbr(&mut a0.clone(), &la_cfg));
        });
        let la_red = la_red.expect("reps >= 1");
        assert_eq!(
            la_red.band, reference.band,
            "look-ahead band diverged from serial (n={n},b={b},k={k})"
        );
        assert_eq!(la_red.factors.len(), reference.factors.len());
        for ((o1, f1), (o2, f2)) in la_red.factors.iter().zip(&reference.factors) {
            assert_eq!(o1, o2);
            assert_eq!(
                (f1.w == f2.w, f1.y == f2.y),
                (true, true),
                "look-ahead WY factors diverged from serial (n={n},b={b},k={k})"
            );
        }
        out.push(Measurement {
            label: format!("dbbr-lookahead(b={b},k={k})"),
            param: n,
            seconds: t,
            gflops: flops / t / 1e9,
        });
    }
    out
}

/// One verification check outcome.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub value: f64,
    pub threshold: f64,
    pub pass: bool,
}

fn check(name: &str, value: f64, threshold: f64) -> Check {
    Check {
        name: name.to_string(),
        value,
        threshold,
        pass: value <= threshold,
    }
}

/// End-to-end correctness gauntlet on real kernels: factorization
/// contracts, solver cross-agreement, determinism. Returns every check
/// with its measured value and threshold.
pub fn verification_suite(n: usize) -> Vec<Check> {
    use tg_matrix::{orthogonality_residual, similarity_residual};
    let mut out = Vec::new();
    let a = gen::random_symmetric(n, 99);
    let b = (n / 16).clamp(2, 32);

    // 1. DBBR + pipelined BC factorization contract
    let red = tridiagonalize(
        &mut a.clone(),
        &Method::Dbbr {
            cfg: DbbrConfig::new(b, 4 * b),
            parallel_sweeps: 8,
        },
    );
    let q = red.form_q();
    out.push(check(
        "DBBR+BC: ||QtQ - I||",
        orthogonality_residual(&q),
        1e-11,
    ));
    out.push(check(
        "DBBR+BC: ||A - QTQt||/||A||",
        similarity_residual(&a, &q, &red.tri.to_dense()),
        1e-11,
    ));

    // 2. pipelined BC determinism across worker counts
    let dense = gen::random_symmetric_band(n, b, 98);
    let band = tg_matrix::SymBand::from_dense_lower(&dense, b);
    let reference = bulge_chase_seq(&band);
    let mut max_dev = 0.0f64;
    for s in [2usize, 5, 16] {
        let r = bulge_chase_pipelined(&band, s);
        for (x, y) in r.tri.d.iter().zip(&reference.tri.d) {
            max_dev = max_dev.max((x - y).abs());
        }
    }
    out.push(check("pipelined BC bitwise determinism", max_dev, 0.0));

    // 3. solver cross-agreement on the reduced T
    let e_ql = tg_eigen::sterf(&red.tri).unwrap();
    let e_pwk = tg_eigen::sterf_pwk(&red.tri).unwrap();
    let e_dc = tg_eigen::stedc(&red.tri).unwrap().0;
    let e_bi = tg_eigen::bisect::eigenvalues(&red.tri);
    let scale = e_ql.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
    let dev_of = |v: &[f64]| {
        v.iter()
            .zip(&e_ql)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
            / scale
    };
    out.push(check("QL vs PWK eigenvalues", dev_of(&e_pwk), 1e-11));
    out.push(check("QL vs D&C eigenvalues", dev_of(&e_dc), 1e-11));
    out.push(check("QL vs bisection eigenvalues", dev_of(&e_bi), 1e-11));

    // 4. full EVD residual + eigenvector orthogonality
    let evd = syevd(&mut a.clone(), &EvdMethod::proposed_default(n), true).unwrap();
    out.push(check("EVD eigenpair residual", evd.residual(&a), 1e-11));
    out.push(check(
        "EVD eigenvector orthogonality",
        orthogonality_residual(evd.eigenvectors.as_ref().unwrap()),
        1e-11,
    ));
    out
}

/// Measured batched EVD: the serial reference loop
/// ([`tg_eigen::syevd_batched`]) vs the `tg-batch` scheduler with cached
/// per-worker workspace arenas. Returns the measurements plus the arena
/// hit rate the scheduler achieved.
///
/// On a single-core host the scheduler's win is limited to allocation
/// reuse; the paper-scale overlap win is composed by
/// `tg_gpu_sim::batch` (see `repro batch_scaling`, which prints both).
pub fn batch_compare(n: usize, count: usize, workers: usize) -> (Vec<Measurement>, f64) {
    let problems: Vec<_> = (0..count)
        .map(|i| gen::random_symmetric(n, 100 + i as u64))
        .collect();
    let method = EvdMethod::proposed_default(n);
    let flops = count as f64 * 4.0 / 3.0 * (n as f64).powi(3);
    let mut out = Vec::new();

    let t_serial = time_it(|| {
        let _ = tg_eigen::syevd_batched(&problems, &method, false).expect("serial batch failed");
    });
    out.push(Measurement {
        label: "serial_loop".into(),
        param: count,
        seconds: t_serial,
        gflops: flops / t_serial / 1e9,
    });

    let batch = tg_batch::BatchScheduler::new(workers)
        .syevd(&problems, &method, false)
        .expect("batched EVD failed");
    let t_batch = batch.stats.wall.as_secs_f64();
    out.push(Measurement {
        label: format!("scheduler_w{}", batch.stats.workers),
        param: count,
        seconds: t_batch,
        gflops: flops / t_batch / 1e9,
    });
    (out, batch.stats.arena.hit_rate())
}

/// Measurement rows → printable table rows.
pub fn to_rows(ms: &[Measurement]) -> Vec<Vec<String>> {
    ms.iter()
        .map(|m| {
            vec![
                m.label.clone(),
                m.param.to_string(),
                crate::report::fmt_time(m.seconds),
                format!("{:.2}", m.gflops),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syr2k_sweep_runs() {
        let ms = syr2k_sweep(96, &[4, 16]);
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.seconds > 0.0 && m.gflops > 0.0));
    }

    #[test]
    fn gemm_sweep_runs_and_holds_bitwise_contract() {
        // The bitwise serial-vs-parallel assert lives inside gemm_sweep;
        // n = 160 spans several MC-row strips so the driver really splits.
        let ms = gemm_sweep(&[160], 4);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.seconds > 0.0 && m.gflops > 0.0));
    }

    #[test]
    fn bc_compare_runs_and_is_deterministic() {
        let ms = bulge_chasing_compare(48, 4, &[2, 4]);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn tridiag_compare_runs() {
        let ms = tridiag_compare(64);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn backtransform_sweep_is_bitwise_and_reaches_steady_state() {
        // The serial-vs-parallel bitwise assert lives inside the sweep;
        // the ≥90% steady-state hit rate is the PR's acceptance bar.
        let (ms, hit_rate) = backtransform_sweep_reps(&[(64, 4, 16)], 2, 3);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.seconds > 0.0 && m.gflops > 0.0));
        assert!(hit_rate >= 0.9, "steady-state hit rate {hit_rate}");
    }

    #[test]
    fn stage1_sweep_is_bitwise_checked() {
        // The look-ahead-vs-serial bitwise assert lives inside the sweep.
        let ms = stage1_sweep_reps(&[(64, 4, 16)], 2);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.seconds > 0.0 && m.gflops > 0.0));
    }
}
