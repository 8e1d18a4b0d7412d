//! Closed-loop EVD workloads: one caller, `syevd` on the workload's inputs
//! in rotation, each call timed from outside and checked outside the
//! timed interval.
//!
//! An operation is one pass over the workload's inputs (each called once,
//! in order), timed as the sum of its calls. Per call, the sample count of
//! the small mix put the tail at p99.8, where preemptions rather than the
//! program decide it (it moved 28 % between two sets of runs on a shared
//! 2-vCPU Xeon guest); a pass is more work per sample, and its median and
//! tail fall inside the body of the distribution.

use std::time::Instant;

use tg_eigen::{syevd, Evd};

use crate::inputs::{EvdWorkload, Op};
use crate::report::Report;
use crate::{stats, Args};

/// Largest accepted `|λ_computed − λ_exact|`; the spectra lie in [-1, 1]
/// with gaps ≥ 1.2/n, so this is far below any gap.
const EIG_TOL: f64 = 1e-10;
/// Largest accepted `‖A v − λ v‖∞` (with `‖A‖₂ ≤ 1`) and `|‖v‖₂ − 1|`.
const VEC_TOL: f64 = 1e-10;

/// Whether two results agree bit for bit.
pub fn bitwise_equal(a: &Evd, b: &Evd) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    same(&a.eigenvalues, &b.eigenvalues)
        && match (&a.eigenvectors, &b.eigenvectors) {
            (None, None) => true,
            (Some(x), Some(y)) => same(x.as_slice(), y.as_slice()),
            _ => false,
        }
}

/// `|x| ≤ tol`, false for NaN.
fn within(x: f64, tol: f64) -> bool {
    x.abs() <= tol
}

/// Checks a result against the spectrum its input was built from and,
/// with vectors, every eigenpair: unit norm and a small residual. Unit
/// eigenvectors of distinct, well-separated eigenvalues with small
/// residuals are the true eigenvectors.
pub fn check(op: &Op, evd: &Evd) -> Result<(), String> {
    let n = op.n();
    check_values(op, evd)?;
    match (&evd.eigenvectors, op.vectors) {
        (None, false) => Ok(()),
        (Some(v), true) => {
            if v.nrows() != n || v.ncols() != n {
                return Err("eigenvector matrix has the wrong shape".into());
            }
            let mut av = vec![0.0; n];
            for k in 0..n {
                let vk = v.col(k);
                let norm = vk.iter().map(|x| x * x).sum::<f64>().sqrt();
                if !within(norm - 1.0, VEC_TOL) {
                    return Err(format!("eigenvector {k} has norm {norm} (n = {n})"));
                }
                av.fill(0.0);
                for (j, &vj) in vk.iter().enumerate() {
                    for (s, &aij) in av.iter_mut().zip(op.a.col(j)) {
                        *s += aij * vj;
                    }
                }
                let lam = evd.eigenvalues[k];
                let res = av
                    .iter()
                    .zip(vk)
                    .fold(0.0f64, |m, (s, x)| m.max((s - lam * x).abs()));
                if !within(res, VEC_TOL) {
                    return Err(format!("eigenpair {k} residual {res} (n = {n})"));
                }
            }
            Ok(())
        }
        _ => Err("eigenvectors present/absent contrary to the request".into()),
    }
}

/// The `O(n)` half of [`check`]: the eigenvalues against the spectrum.
pub fn check_values(op: &Op, evd: &Evd) -> Result<(), String> {
    let n = op.n();
    if evd.eigenvalues.len() != n {
        return Err(format!("{} eigenvalues for n = {n}", evd.eigenvalues.len()));
    }
    for (i, (got, want)) in evd.eigenvalues.iter().zip(&op.eigs).enumerate() {
        if !within(got - want, EIG_TOL) {
            return Err(format!("eigenvalue {i}: got {got}, want {want} (n = {n})"));
        }
    }
    Ok(())
}

/// One pass over the inputs, timed as a whole; results are checked after
/// the clock stops.
fn timed_pass(w: &EvdWorkload) -> (f64, Vec<String>) {
    let mut inputs: Vec<_> = w.ops.iter().map(|op| op.a.clone()).collect();
    let start = Instant::now();
    let results: Vec<_> = w
        .ops
        .iter()
        .zip(&mut inputs)
        .map(|(op, a)| syevd(a, &op.method, op.vectors))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let wrong = w
        .ops
        .iter()
        .zip(results)
        .filter_map(|(op, r)| {
            r.map_err(|e| format!("typed error: {e:?}"))
                .and_then(|evd| check(op, &evd))
                .err()
        })
        .collect();
    (secs, wrong)
}

/// One cold set-up (see [`crate::setup`]): the first pass over the inputs
/// in a fresh process warms the solver up.
pub fn setup_probe(w: &EvdWorkload) -> Result<f64, Vec<String>> {
    match timed_pass(w) {
        (secs, wrong) if wrong.is_empty() => Ok(secs),
        (_, wrong) => Err(wrong),
    }
}

pub fn run(args: &Args, w: &EvdWorkload, report: &mut Report) {
    // Warm-up outside the measured phase; the cold figure is `setup_s`.
    for e in timed_pass(w).1 {
        report.problem(format!("warm-up pass: {e}"));
    }

    let mut latencies = Vec::new();
    while latencies.iter().sum::<f64>() < args.seconds {
        let mut pass = 0.0;
        let mut pass_ok = true;
        for op in &w.ops {
            let mut a = op.a.clone();
            let start = Instant::now();
            let result = syevd(&mut a, &op.method, op.vectors);
            pass += start.elapsed().as_secs_f64();
            let verdict = result
                .map_err(|e| format!("typed error: {e:?}"))
                .and_then(|evd| check(op, &evd));
            if let Err(e) = verdict {
                pass_ok = false;
                report.problem(format!("pass {}: {e}", latencies.len()));
            }
        }
        latencies.push(pass);
        report.failed += u64::from(!pass_ok);
    }
    report.attempted = latencies.len() as u64;
    report_latencies(report, &latencies);
    report.metric(
        "ops_per_s",
        latencies.len() as f64 / latencies.iter().sum::<f64>(),
        "1/s",
    );
}

/// `latency_s_p50` and `latency_s_tail`, with the tail's percentile and
/// sample count recorded in the context.
pub fn report_latencies(report: &mut Report, latencies: &[f64]) {
    report.metric("latency_s_p50", stats::median(latencies), "s");
    match stats::tail(latencies) {
        Some((v, pct)) => {
            report.metric("latency_s_tail", v, "s");
            report.info("latency_tail_percentile", format!("{pct}"));
        }
        None => report.problem(format!(
            "{} samples: too few for a tail with {} beyond it",
            latencies.len(),
            stats::TAIL_BEYOND
        )),
    }
    report.info("latency_samples", latencies.len().to_string());
    report.info("latency_tail_beyond", stats::TAIL_BEYOND.to_string());
}
