//! Fault-injection proof of the `tg-check` stage checkers: for every
//! checker there is a corruption that makes it (and only the expected
//! layer) fire, and a clean run on which it stays silent.
//!
//! Check sessions are process-global and mutually exclusive, so these
//! tests serialize on `CheckSession::begin` automatically.

use std::sync::Mutex;
use tg_check::fault::{FaultKind, FaultPlan};
use tg_check::{CheckConfig, CheckReport, CheckSession};
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::gen;
use tridiag_core::{tridiagonalize, DbbrConfig, Method};

/// Serializes the test that sets `TG_THREADS`, which is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn reduce_method() -> Method {
    Method::Dbbr {
        cfg: DbbrConfig::new(4, 8),
        parallel_sweeps: 2,
    }
}

fn evd_method() -> EvdMethod {
    EvdMethod::Proposed {
        b: 4,
        k: 8,
        parallel_sweeps: 2,
        backtransform_k: 8,
        lookahead: true,
    }
}

fn run_reduce(plan: Option<FaultPlan>) -> CheckReport {
    let mut cfg = CheckConfig::strict();
    if let Some(p) = plan {
        cfg = cfg.with_faults(p);
    }
    let session = CheckSession::begin(cfg);
    let mut a = gen::random_symmetric(32, 7);
    let _ = tridiagonalize(&mut a, &reduce_method());
    session.finish()
}

fn run_evd(plan: Option<FaultPlan>, vectors: bool) -> CheckReport {
    let mut cfg = CheckConfig::strict();
    if let Some(p) = plan {
        cfg = cfg.with_faults(p);
    }
    let session = CheckSession::begin(cfg);
    let mut a = gen::random_symmetric(32, 7);
    let _ = syevd(&mut a, &evd_method(), vectors);
    session.finish()
}

fn failed_checkers(report: &CheckReport) -> Vec<&'static str> {
    report.failures().iter().map(|r| r.checker).collect()
}

fn assert_caught(report: &CheckReport, site: &str, checker: &str) {
    assert_eq!(
        report.faults_fired.len(),
        1,
        "fault at {site} never fired:\n{}",
        report.render()
    );
    assert_eq!(report.faults_fired[0].site, site);
    assert!(
        failed_checkers(report).contains(&checker),
        "{checker} stayed silent on corrupt {site}:\n{}",
        report.render()
    );
}

#[test]
fn band_structure_checker_fires_on_nan_in_band() {
    let plan = FaultPlan::single("stage1.band", FaultKind::Nan, 0);
    let report = run_reduce(Some(plan));
    assert_caught(&report, "stage1.band", "band_structure");
}

#[test]
fn similarity_checker_fires_on_in_band_perturbation() {
    // Index 0 is the (0,0) diagonal slot: structurally in-band, so the
    // band checker passes and only the deep similarity check can see the
    // corruption.
    let plan = FaultPlan::single("stage1.band", FaultKind::Perturb(1e-2), 0);
    let report = run_reduce(Some(plan));
    assert_caught(&report, "stage1.band", "similarity");
    assert!(
        !failed_checkers(&report).contains(&"band_structure"),
        "in-band perturbation must not trip the structural check:\n{}",
        report.render()
    );
}

#[test]
fn tridiagonal_form_checker_fires_on_nan_diagonal() {
    let plan = FaultPlan::single("bc.tri", FaultKind::Nan, 3);
    let report = run_reduce(Some(plan));
    assert_caught(&report, "bc.tri", "tridiagonal_form");
}

#[test]
fn spectrum_checker_fires_on_perturbed_eigenvalue() {
    let plan = FaultPlan::single("evd.values", FaultKind::Perturb(1e-2), 0);
    let report = run_evd(Some(plan), false);
    assert_caught(&report, "evd.values", "spectrum");
}

#[test]
fn orthogonality_checker_fires_on_corrupted_vectors() {
    let plan = FaultPlan::single("backtransform.q", FaultKind::SignFlip, 100);
    let report = run_evd(Some(plan), true);
    assert_caught(&report, "backtransform.q", "orthogonality");
}

#[test]
fn faults_on_spawned_workers_are_credited_to_the_calling_thread() {
    // `tg-serve` classifies an attempt as fault-hit by the calling
    // thread's fired-fault delta, so a fault that lands on a fan-out
    // worker must show up there too, whichever lane ran the task.
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let session = CheckSession::begin(CheckConfig::strict().with_faults(FaultPlan::single(
        "blas.syr2k",
        FaultKind::Nan,
        0,
    )));
    std::env::set_var("TG_THREADS", "2");
    let (n, k) = (96, 16);
    let a = gen::random(n, k, 1);
    let b = gen::random(n, k, 2);
    let mut c = gen::random_symmetric(n, 3);
    let before = tg_check::fault::fired_on_this_thread();
    tg_blas::syr2k_square(-1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut(), 8, 2);
    let credited = tg_check::fault::fired_on_this_thread() - before;
    std::env::remove_var("TG_THREADS");
    let report = session.finish();
    assert_eq!(report.faults_fired.len(), 1, "{}", report.render());
    assert_eq!(credited, report.faults_fired.len() as u64);
}

#[test]
fn every_checker_is_silent_on_clean_runs() {
    for (report, expected) in [
        (
            run_reduce(None),
            &[
                "band_structure",
                "tridiagonal_form",
                "orthogonality",
                "similarity",
            ][..],
        ),
        (run_evd(None, false), &["spectrum"][..]),
        (run_evd(None, true), &["orthogonality"][..]),
    ] {
        assert!(report.passed(), "clean run failed:\n{}", report.render());
        assert!(report.faults_fired.is_empty());
        let ran: Vec<_> = report.records.iter().map(|r| r.checker).collect();
        for name in expected {
            assert!(
                ran.contains(name),
                "{name} never ran on the clean workload: {ran:?}"
            );
        }
    }
}
