//! # tg-check
//!
//! Runtime verification for the tridiagonalization pipelines.
//!
//! The paper's correctness story rests on structural invariants that hold
//! at every stage boundary: after band reduction the matrix is **exactly**
//! banded with bandwidth `b` (Algorithm 1), after bulge chasing it is
//! exactly tridiagonal (Algorithm 2), and the accumulated back-transform
//! `Q` stays orthogonal (Algorithm 3). This crate turns those invariants
//! into pluggable runtime checks:
//!
//! * [`StageChecker`] — one trait per invariant, with LAPACK-convention
//!   implementations in [`checkers`] (band exactness, tridiagonal form,
//!   `‖QᵀQ − I‖_F/√n`, `‖A − QTQᵀ‖_F/‖A‖_F`, eigenvalue bounds against a
//!   `sterf` oracle, workspace-zeroing contract),
//! * [`CheckSession`] / [`CheckConfig`] — process-global, zero-cost-when-
//!   disabled gating mirroring `tg-trace`: every hook entry point reads one
//!   relaxed atomic and bails when no session is live,
//! * [`fault`] — deterministic fault injection (NaN / Inf / sign flip /
//!   perturbation into named stage boundaries and workspaces) used to prove
//!   each checker actually fires,
//! * [`golden`] — the serialized regression corpus model backing
//!   `tests/golden/` and `repro verify`.
//!
//! Check executions and failures are mirrored into `tg-trace`
//! ([`tg_trace::Counter::ChecksRun`] / [`tg_trace::Counter::CheckFailures`]
//! / [`tg_trace::Counter::FaultsInjected`]), so `--profile` surfaces them
//! next to the FLOP counters.
//!
//! # Usage
//!
//! ```
//! use tg_check::{CheckConfig, CheckSession};
//! use tg_matrix::{SymBand, Tridiagonal};
//!
//! let session = CheckSession::begin(CheckConfig::strict());
//! tg_check::stage_band(&SymBand::zeros(8, 2), 2);
//! tg_check::stage_tridiag(&Tridiagonal::new(vec![1.0; 4], vec![0.5; 3]));
//! let report = session.finish();
//! assert!(report.passed());
//! assert_eq!(report.records.len(), 2);
//! ```
//!
//! Sessions are process-global and serialized, exactly like
//! `tg_trace::TraceSession`: `begin` blocks while another session is live,
//! which keeps concurrently-running instrumented tests from mixing records.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use tg_matrix::{Mat, SymBand, Tridiagonal};

pub mod checkers;
pub mod fault;
pub mod golden;

pub use checkers::{
    BandStructureChecker, OrthogonalityChecker, SimilarityChecker, SpectrumChecker, StageChecker,
    StageData, TridiagonalFormChecker, WorkspaceZeroChecker,
};
pub use fault::{Fault, FaultKind, FaultPlan, FiredFault};

/// Which checkers a session runs and with what tolerances.
///
/// Residual thresholds follow the LAPACK testing convention (`O(n·ε)`
/// scaled residuals; see `docs/VERIFICATION.md` for each checker's
/// provenance). `deep` additionally enables the `O(n³)` checks —
/// orthogonality of the materialized `Q` and the similarity residual —
/// which require the drivers to clone the input and form `Q` explicitly.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Band-structure exactness after stage 1: entries beyond the target
    /// bandwidth must satisfy `|a_ij| ≤ band_tol` (0.0 = exactly zero,
    /// which is what DBBR/SBR guarantee — they store explicit zeros).
    pub band_tol: f64,
    /// `‖QᵀQ − I‖_F / √n` threshold for accumulated orthogonal factors.
    pub orth_tol: f64,
    /// `‖A − QTQᵀ‖_F / ‖A‖_F` threshold for the end-to-end similarity.
    pub sim_tol: f64,
    /// Max scaled eigenvalue deviation against the `sterf` oracle.
    pub spectrum_tol: f64,
    /// Run the `O(n³)` checks (clone `A`, materialize `Q`). Off for
    /// production-shaped runs; on for the verification gauntlet.
    pub deep: bool,
    /// Panic at the violating call site instead of only recording. Useful
    /// in tests that want a backtrace at the first broken invariant.
    pub panic_on_violation: bool,
    /// Deterministic fault plan to arm for the session's duration.
    pub fault_plan: Option<FaultPlan>,
}

impl CheckConfig {
    /// Everything on, including the `O(n³)` deep checks.
    pub fn strict() -> CheckConfig {
        CheckConfig {
            band_tol: 0.0,
            orth_tol: 1e-11,
            sim_tol: 1e-11,
            spectrum_tol: 1e-11,
            deep: true,
            panic_on_violation: false,
            fault_plan: None,
        }
    }

    /// Structural checks only (band / tridiagonal / spectrum / workspace):
    /// everything that is at most `O(n²)` on top of the reduction itself.
    pub fn fast() -> CheckConfig {
        CheckConfig {
            deep: false,
            ..CheckConfig::strict()
        }
    }

    /// Arms `plan` for the session (builder-style).
    pub fn with_faults(mut self, plan: FaultPlan) -> CheckConfig {
        self.fault_plan = Some(plan);
        self
    }
}

/// Outcome of one checker execution.
#[derive(Clone, Debug)]
pub struct CheckRecord {
    /// Checker name (`band_structure`, `orthogonality`, …).
    pub checker: &'static str,
    /// Measured invariant value (residual, worst deviation, …).
    pub value: f64,
    /// Threshold the value was compared against.
    pub threshold: f64,
    /// Whether the invariant held.
    pub pass: bool,
    /// Human-readable context (stage, matrix order, what broke).
    pub detail: String,
}

/// Everything recorded between [`CheckSession::begin`] and
/// [`CheckSession::finish`].
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Every checker execution, in call order.
    pub records: Vec<CheckRecord>,
    /// Faults that actually fired from the armed [`FaultPlan`].
    pub faults_fired: Vec<FiredFault>,
}

impl CheckReport {
    /// True when every executed check passed.
    pub fn passed(&self) -> bool {
        self.records.iter().all(|r| r.pass)
    }

    /// The records that found a violation.
    pub fn failures(&self) -> Vec<&CheckRecord> {
        self.records.iter().filter(|r| !r.pass).collect()
    }

    /// Plain-text summary table (one row per record).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>10} {:>6}  detail",
            "checker", "value", "threshold", "status"
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{:<18} {:>12.3e} {:>10.0e} {:>6}  {}",
                r.checker,
                r.value,
                r.threshold,
                if r.pass { "PASS" } else { "FAIL" },
                r.detail
            );
        }
        if !self.faults_fired.is_empty() {
            let _ = writeln!(out, "faults fired:");
            for f in &self.faults_fired {
                let _ = writeln!(out, "  {} {:?} at index {}", f.site, f.kind, f.index);
            }
        }
        let failed = self.failures().len();
        let _ = writeln!(
            out,
            "{} checks, {} failed, {} faults fired",
            self.records.len(),
            failed,
            self.faults_fired.len()
        );
        out
    }
}

// ---- global state ----

static ENABLED: AtomicBool = AtomicBool::new(false);
static DEEP: AtomicBool = AtomicBool::new(false);

struct SessionState {
    checkers: Vec<Box<dyn StageChecker>>,
    records: Vec<CheckRecord>,
    panic_on_violation: bool,
}

fn state() -> &'static Mutex<Option<SessionState>> {
    static STATE: OnceLock<Mutex<Option<SessionState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn session_lock() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

/// Unpoisoned lock: a panicking checked test must not wedge verification
/// for the rest of the process.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serializes this crate's unit tests that open a check session or assert
/// that none is open — sessions are process-global, so a sibling test's
/// live session would otherwise show through.
#[cfg(test)]
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock_unpoisoned(&LOCK)
}

/// Whether a check session is currently live. One relaxed atomic load —
/// this is the entire cost of every hook when verification is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the live session (if any) wants the `O(n³)` deep checks.
/// Drivers consult this before cloning inputs or materializing `Q`.
#[inline]
pub fn deep_enabled() -> bool {
    enabled() && DEEP.load(Ordering::Relaxed)
}

/// RAII handle for one verification session. Only one can be live at a
/// time; `begin` blocks until the previous one finishes.
pub struct CheckSession {
    _exclusive: MutexGuard<'static, ()>,
}

impl CheckSession {
    pub fn begin(cfg: CheckConfig) -> CheckSession {
        let exclusive = lock_unpoisoned(session_lock());
        let checkers: Vec<Box<dyn StageChecker>> = vec![
            Box::new(BandStructureChecker { tol: cfg.band_tol }),
            Box::new(TridiagonalFormChecker),
            Box::new(OrthogonalityChecker { tol: cfg.orth_tol }),
            Box::new(SimilarityChecker { tol: cfg.sim_tol }),
            Box::new(SpectrumChecker {
                tol: cfg.spectrum_tol,
            }),
            Box::new(WorkspaceZeroChecker),
        ];
        *lock_unpoisoned(state()) = Some(SessionState {
            checkers,
            records: Vec::new(),
            panic_on_violation: cfg.panic_on_violation,
        });
        if let Some(plan) = cfg.fault_plan {
            fault::arm(plan);
        }
        DEEP.store(cfg.deep, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
        CheckSession {
            _exclusive: exclusive,
        }
    }

    /// Stops checking and returns everything recorded.
    pub fn finish(self) -> CheckReport {
        ENABLED.store(false, Ordering::SeqCst);
        DEEP.store(false, Ordering::SeqCst);
        let records = lock_unpoisoned(state())
            .take()
            .map(|s| s.records)
            .unwrap_or_default();
        let faults_fired = fault::disarm();
        CheckReport {
            records,
            faults_fired,
        }
    }
}

impl Drop for CheckSession {
    fn drop(&mut self) {
        // finish() consumed self normally; this handles early drops (e.g.
        // a panicking test) so the next session starts clean.
        ENABLED.store(false, Ordering::SeqCst);
        DEEP.store(false, Ordering::SeqCst);
        lock_unpoisoned(state()).take();
        let _ = fault::disarm();
    }
}

/// Runs every applicable checker of the live session over `data`.
/// No-op (one atomic load) when no session is live.
pub fn run_stage(data: &StageData<'_>) {
    if !enabled() {
        return;
    }
    let mut guard = lock_unpoisoned(state());
    let Some(session) = guard.as_mut() else {
        return;
    };
    let mut panic_msg: Option<String> = None;
    for checker in &session.checkers {
        if let Some(record) = checker.check(data) {
            tg_trace::add(tg_trace::Counter::ChecksRun, 1);
            if !record.pass {
                tg_trace::add(tg_trace::Counter::CheckFailures, 1);
                if session.panic_on_violation && panic_msg.is_none() {
                    panic_msg = Some(format!(
                        "tg-check violation: {} = {:.3e} > {:.0e} ({})",
                        record.checker, record.value, record.threshold, record.detail
                    ));
                }
            }
            session.records.push(record);
        }
    }
    drop(guard);
    if let Some(msg) = panic_msg {
        panic!("{msg}");
    }
}

// ---- stage hooks (called by the pipelines) ----

/// After stage 1 (DBBR / SBR): the reduced matrix must be exactly banded
/// with bandwidth `expected_b`, with finite entries.
#[inline]
pub fn stage_band(band: &SymBand, expected_b: usize) {
    if !enabled() {
        return;
    }
    run_stage(&StageData::Band { band, expected_b });
}

/// After stage 2 (bulge chasing) or the direct reduction: the output must
/// be structurally tridiagonal with finite entries (no bulge residue —
/// NaN/Inf here is exactly how corrupted band storage surfaces, since the
/// extraction tolerance test cannot flag non-finite values).
#[inline]
pub fn stage_tridiag(tri: &Tridiagonal) {
    if !enabled() {
        return;
    }
    run_stage(&StageData::Tridiag { tri });
}

/// Accumulated orthogonal factor (deep): `‖QᵀQ − I‖_F/√n` must be small.
#[inline]
pub fn stage_orthogonality(q: &Mat) {
    if !enabled() {
        return;
    }
    run_stage(&StageData::Orthogonality { q });
}

/// End-to-end similarity (deep): `‖A − Q B Qᵀ‖_F/‖A‖_F` must be small.
#[inline]
pub fn stage_similarity(a: &Mat, q: &Mat, b: &Mat) {
    if !enabled() {
        return;
    }
    run_stage(&StageData::Similarity { a, q, b });
}

/// Computed spectrum against the `sterf` oracle plus the Gershgorin
/// enclosure of the reduced `T`.
#[inline]
pub fn stage_spectrum(computed: &[f64], oracle: &[f64], gershgorin: (f64, f64)) {
    if !enabled() {
        return;
    }
    run_stage(&StageData::Spectrum {
        computed,
        oracle,
        gershgorin,
    });
}

/// Workspace-pool acquisition contract: the buffer handed out must be
/// bitwise zero (catches leaked debug NaN-poison and stale reuse).
#[inline]
pub fn workspace_clean(buf: &[f64]) {
    if !enabled() {
        return;
    }
    run_stage(&StageData::Workspace { buf });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = crate::serial();
        // no session: hooks must do nothing and record nothing
        assert!(!enabled());
        stage_tridiag(&Tridiagonal::new(vec![f64::NAN], vec![]));
        let session = CheckSession::begin(CheckConfig::strict());
        let report = session.finish();
        assert!(report.records.is_empty());
        assert!(report.passed());
    }

    #[test]
    fn session_records_pass_and_fail() {
        let _g = crate::serial();
        let session = CheckSession::begin(CheckConfig::strict());
        stage_tridiag(&Tridiagonal::new(vec![1.0, 2.0], vec![0.5]));
        stage_tridiag(&Tridiagonal::new(vec![1.0, f64::NAN], vec![0.5]));
        let report = session.finish();
        assert_eq!(report.records.len(), 2);
        assert!(report.records[0].pass);
        assert!(!report.records[1].pass);
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 1);
        let text = report.render();
        assert!(text.contains("tridiagonal_form"));
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn check_counters_mirror_into_trace() {
        let _g = crate::serial();
        let trace_session = tg_trace::TraceSession::begin();
        let session = CheckSession::begin(CheckConfig::strict());
        stage_tridiag(&Tridiagonal::new(vec![1.0], vec![]));
        stage_tridiag(&Tridiagonal::new(vec![f64::INFINITY], vec![]));
        let _ = session.finish();
        let trace = trace_session.finish();
        assert_eq!(trace.total(tg_trace::Counter::ChecksRun), 2);
        assert_eq!(trace.total(tg_trace::Counter::CheckFailures), 1);
    }

    #[test]
    fn panic_on_violation_panics_at_call_site() {
        let _g = crate::serial();
        let result = std::panic::catch_unwind(|| {
            let cfg = CheckConfig {
                panic_on_violation: true,
                ..CheckConfig::strict()
            };
            let session = CheckSession::begin(cfg);
            stage_tridiag(&Tridiagonal::new(vec![f64::NAN], vec![]));
            session.finish()
        });
        assert!(result.is_err());
        // a fresh session still works after the panic (drop cleaned up)
        let session = CheckSession::begin(CheckConfig::strict());
        stage_tridiag(&Tridiagonal::new(vec![1.0], vec![]));
        assert!(session.finish().passed());
    }

    #[test]
    fn deep_flag_tracks_session() {
        let _g = crate::serial();
        assert!(!deep_enabled());
        let s = CheckSession::begin(CheckConfig::fast());
        assert!(enabled());
        assert!(!deep_enabled());
        drop(s);
        let s = CheckSession::begin(CheckConfig::strict());
        assert!(deep_enabled());
        let _ = s.finish();
        assert!(!deep_enabled());
    }
}
