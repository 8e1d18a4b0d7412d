//! Measured (CPU-scale) runs over the *real* Rust kernels: the
//! correctness gauntlet behind `repro verify` and the batched-EVD
//! comparison behind `repro batch_scaling`.
//!
//! Per-kernel timing lives in the criterion benches (`benches/`); end-to-end
//! and per-layer timing lives in `perfbench/`; the parallel-vs-serial
//! throughput floors live in `tests/parallel_floors.rs`.

use std::time::Instant;
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::gen;
use tg_matrix::norms::spectrum_error;
use tridiag_core::{bulge_chase_pipelined, bulge_chase_seq, tridiagonalize, DbbrConfig, Method};

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
    let bits = |t: &tg_matrix::Tridiagonal| -> Vec<u64> {
        t.d.iter().chain(&t.e).map(|x| x.to_bits()).collect()
    };
    let ref_bits = bits(&reference.tri);
    let mismatched = [2usize, 5, 16]
        .into_iter()
        .filter(|&s| bits(&bulge_chase_pipelined(&band, s).tri) != ref_bits)
        .count();
    out.push(check(
        "pipelined BC bitwise determinism (d and e)",
        mismatched as f64,
        0.0,
    ));

    // 3. solver cross-agreement on the reduced T
    let e_ql = tg_eigen::sterf(&red.tri).unwrap();
    let e_dc = tg_eigen::stedc(&red.tri).unwrap().0;
    let e_bi = tg_eigen::bisect::eigenvalues(&red.tri);
    // A length mismatch fails the check instead of panicking the gauntlet.
    let dev_of = |v: &[f64]| {
        if v.len() == e_ql.len() {
            spectrum_error(&e_ql, v)
        } else {
            f64::INFINITY
        }
    };
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
/// ([`tg_eigen::syevd_batched`]) vs the `tg-batch` scheduler.
///
/// On a single-core host the scheduler has nothing to overlap; the
/// paper-scale overlap win is composed by `tg_gpu_sim::batch` (see
/// `repro batch_scaling`, which prints both).
pub fn batch_compare(n: usize, count: usize, workers: usize) -> Vec<Measurement> {
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
    out
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
