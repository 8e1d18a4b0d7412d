//! Deterministic fault injection.
//!
//! A [`FaultPlan`] names *where* (a fault site — a stage boundary the
//! pipelines expose) and *what* (a [`FaultKind`]) to corrupt.
//! Sites fire at most once per session, are recorded as [`FiredFault`]s in
//! the [`crate::CheckReport`], and bump
//! [`tg_trace::Counter::FaultsInjected`], so a campaign can assert both
//! that the fault landed and that a checker caught it.
//!
//! Fault sites wired into the pipelines:
//!
//! | site              | where                                                 |
//! |-------------------|-------------------------------------------------------|
//! | `stage1.band`     | band storage right after DBBR / SBR (two_stage)       |
//! | `bc.tri`          | tridiagonal `d` right after bulge chasing (two_stage) |
//! | `evd.values`      | eigenvalues after the tridiagonal solve (syevd)       |
//! | `backtransform.q` | eigenvector matrix after the back-transform (syevd)   |
//! | `blas.syr2k`      | output tile of the blocked SYR2K update (tg-blas)     |
//! | `blas.panel_qr`   | panel `W` factor after the stage-1 panel QR (dbbr)    |
//!
//! Everything is seed-deterministic: [`FaultPlan::campaign`] derives kinds
//! and indices from a splitmix64 stream, so `TG_FAULT_SEED=101` reproduces
//! the identical corruption on every run.

use std::sync::Mutex;
use std::sync::OnceLock;

use crate::lock_unpoisoned;
use tg_matrix::{Mat, SymBand};

/// What to write into the victim element(s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Overwrite with a quiet NaN.
    Nan,
    /// Overwrite with `+∞`.
    Inf,
    /// Negate the first element of significant magnitude at/after the index.
    SignFlip,
    /// Relative+absolute bump: `x += delta · (1 + |x|)`.
    Perturb(f64),
}

/// One planned corruption.
#[derive(Clone, Debug)]
pub struct Fault {
    /// Which instrumented site to corrupt (see module table).
    pub site: &'static str,
    /// What to write.
    pub kind: FaultKind,
    /// Flat element index into the site's buffer (wrapped to its length).
    pub index: usize,
}

/// A set of faults armed for one session.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

/// Every site the pipelines expose, in pipeline order.
pub const SITES: [&str; 6] = [
    "stage1.band",
    "bc.tri",
    "evd.values",
    "backtransform.q",
    "blas.syr2k",
    "blas.panel_qr",
];

impl FaultPlan {
    /// One specific fault.
    pub fn single(site: &'static str, kind: FaultKind, index: usize) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault { site, kind, index }],
        }
    }

    /// Seed-derived campaign: one fault per known site, with kind and index
    /// drawn from a splitmix64 stream. The same seed always produces the
    /// same plan (`TG_FAULT_SEED` in CI).
    pub fn campaign(seed: u64) -> FaultPlan {
        let mut s = seed;
        let faults = SITES
            .iter()
            .map(|&site| {
                let kind = match splitmix64(&mut s) % 4 {
                    0 => FaultKind::Nan,
                    1 => FaultKind::Inf,
                    2 => FaultKind::SignFlip,
                    _ => FaultKind::Perturb(1e-2),
                };
                let index = (splitmix64(&mut s) % 4096) as usize;
                Fault { site, kind, index }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Campaign seeded from `TG_FAULT_SEED`, or `None` when unset/invalid.
    pub fn from_env() -> Option<FaultPlan> {
        let seed = std::env::var("TG_FAULT_SEED").ok()?.parse::<u64>().ok()?;
        Some(FaultPlan::campaign(seed))
    }

    /// The subset of the plan targeting one site.
    pub fn for_site(&self, site: &str) -> Vec<&Fault> {
        self.faults.iter().filter(|f| f.site == site).collect()
    }
}

/// A fault that actually landed.
#[derive(Clone, Debug)]
pub struct FiredFault {
    pub site: &'static str,
    pub kind: FaultKind,
    /// Resolved element index (after wrapping / scanning).
    pub index: usize,
}

thread_local! {
    /// Faults that landed *on this thread*, monotonically increasing for
    /// the process lifetime. Snapshot before and after a unit of work to
    /// learn whether that work absorbed an injected fault — `tg-serve`
    /// uses the delta to classify an attempt as transiently corrupted and
    /// retry it, which is what makes the retry path exercised by real
    /// injected failures rather than mocks.
    static FIRED_ON_THREAD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of faults that have fired on the calling thread so far (never
/// reset; compare snapshots around a work item to attribute a fault to it).
pub fn fired_on_this_thread() -> u64 {
    FIRED_ON_THREAD.with(|c| c.get())
}

/// Credits `n` faults that fired on another thread to the calling thread —
/// a fork-join engine calls this at its join with each spawned worker's
/// delta, so the count covers all work done on this thread's behalf.
pub fn add_fired_on_this_thread(n: u64) {
    FIRED_ON_THREAD.with(|c| c.set(c.get() + n));
}

fn bump_fired_on_thread() {
    add_fired_on_this_thread(1);
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- armed-plan global state ----

struct Armed {
    pending: Vec<Fault>,
    fired: Vec<FiredFault>,
}

fn armed() -> &'static Mutex<Option<Armed>> {
    static ARMED: OnceLock<Mutex<Option<Armed>>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(None))
}

pub(crate) fn arm(plan: FaultPlan) {
    *lock_unpoisoned(armed()) = Some(Armed {
        pending: plan.faults,
        fired: Vec::new(),
    });
}

pub(crate) fn disarm() -> Vec<FiredFault> {
    lock_unpoisoned(armed())
        .take()
        .map(|a| a.fired)
        .unwrap_or_default()
}

/// Claims the pending fault for `site`, if any (fire-once: the fault is
/// removed from the plan). Low-level entry point for call sites that
/// cannot hand over a whole buffer (e.g. strided BLAS tiles): apply the
/// kind yourself via [`apply`], then confirm with [`record_fired`].
pub fn claim(site: &'static str) -> Option<(usize, FaultKind)> {
    if !crate::enabled() {
        return None;
    }
    let mut guard = lock_unpoisoned(armed());
    let armed = guard.as_mut()?;
    let pos = armed.pending.iter().position(|f| f.site == site)?;
    let fault = armed.pending.remove(pos);
    Some((fault.index, fault.kind))
}

/// Records a claimed fault as landed (bumps the trace counter).
pub fn record_fired(site: &'static str, kind: FaultKind, index: usize) {
    tg_trace::add(tg_trace::Counter::FaultsInjected, 1);
    bump_fired_on_thread();
    if let Some(armed) = lock_unpoisoned(armed()).as_mut() {
        armed.fired.push(FiredFault { site, kind, index });
    }
}

/// Applies `kind` to one element. For [`FaultKind::SignFlip`] /
/// [`FaultKind::Perturb`] on a near-zero element the result could be
/// undetectably small, so callers should prefer [`inject`], which scans
/// for a significant victim; this single-element form sets `1.0` first
/// when the victim is tiny, guaranteeing a visible corruption.
pub fn apply(kind: FaultKind, x: &mut f64) {
    match kind {
        FaultKind::Nan => *x = f64::NAN,
        FaultKind::Inf => *x = f64::INFINITY,
        FaultKind::SignFlip => {
            if x.abs() < 1e-6 {
                *x = 1.0;
            }
            *x = -*x;
        }
        FaultKind::Perturb(delta) => *x += delta * (1.0 + x.abs()),
    }
}

/// Injects the pending fault for `site` into a flat buffer, if one is
/// armed. Returns the fired fault for convenience. The planned index is
/// wrapped to the buffer length; for magnitude-dependent kinds the victim
/// is the first element of significant magnitude at/after the index (so
/// the corruption cannot hide in structural zeros).
pub fn inject(site: &'static str, buf: &mut [f64]) -> Option<FiredFault> {
    let (index, kind) = claim(site)?;
    if buf.is_empty() {
        return None;
    }
    let start = index % buf.len();
    let victim = match kind {
        FaultKind::SignFlip | FaultKind::Perturb(_) => (start..buf.len())
            .chain(0..start)
            .find(|&i| buf[i].abs() > 1e-6)
            .unwrap_or(start),
        _ => start,
    };
    apply(kind, &mut buf[victim]);
    record_fired(site, kind, victim);
    Some(FiredFault {
        site,
        kind,
        index: victim,
    })
}

/// [`inject`] for symmetric band storage: the planned index is mapped to a
/// *valid* `(i, j)` slot (tail columns of the compact layout contain
/// out-of-matrix padding that no checker ever reads).
pub fn inject_band(site: &'static str, band: &mut SymBand) -> Option<FiredFault> {
    let (index, kind) = claim(site)?;
    let n = band.n();
    if n == 0 {
        return None;
    }
    let ldab = band.ldab();
    // enumerate valid slots: column j holds rows j..min(j+ldab, n)
    let mut valid = 0usize;
    for j in 0..n {
        valid += ldab.min(n - j);
    }
    let mut k = index % valid;
    let (mut vi, mut vj) = (0, 0);
    'outer: for j in 0..n {
        let len = ldab.min(n - j);
        if k < len {
            vi = j + k;
            vj = j;
            break 'outer;
        }
        k -= len;
    }
    let flat = vj * ldab + (vi - vj);
    let slot = &mut band.as_mut_slice()[flat];
    apply(kind, slot);
    record_fired(site, kind, flat);
    Some(FiredFault {
        site,
        kind,
        index: flat,
    })
}

/// [`inject`] for a dense matrix (flat column-major index).
pub fn inject_mat(site: &'static str, m: &mut Mat) -> Option<FiredFault> {
    inject(site, m.as_mut_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckConfig, CheckSession};

    #[test]
    fn campaign_is_deterministic_and_covers_all_sites() {
        let a = FaultPlan::campaign(101);
        let b = FaultPlan::campaign(101);
        let c = FaultPlan::campaign(202);
        assert_eq!(a.faults.len(), SITES.len());
        for (x, y) in a.faults.iter().zip(&b.faults) {
            assert_eq!(x.site, y.site);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.index, y.index);
        }
        // different seed differs somewhere
        assert!(a
            .faults
            .iter()
            .zip(&c.faults)
            .any(|(x, y)| x.kind != y.kind || x.index != y.index));
    }

    #[test]
    fn inject_fires_once_and_is_reported() {
        let _g = crate::serial();
        let cfg =
            CheckConfig::strict().with_faults(FaultPlan::single("stage1.band", FaultKind::Nan, 5));
        let session = CheckSession::begin(cfg);
        let mut buf = vec![1.0; 8];
        let fired = inject("stage1.band", &mut buf);
        assert!(fired.is_some());
        assert!(buf[5].is_nan());
        // fire-once: second call is a no-op
        assert!(inject("stage1.band", &mut buf).is_none());
        let report = session.finish();
        assert_eq!(report.faults_fired.len(), 1);
        assert_eq!(report.faults_fired[0].site, "stage1.band");
    }

    #[test]
    fn inject_without_session_is_inert() {
        let mut buf = vec![1.0; 4];
        assert!(inject("stage1.band", &mut buf).is_none());
        assert_eq!(buf, vec![1.0; 4]);
    }

    #[test]
    fn sign_flip_scans_for_significant_victim() {
        let _g = crate::serial();
        let cfg =
            CheckConfig::strict().with_faults(FaultPlan::single("bc.tri", FaultKind::SignFlip, 0));
        let session = CheckSession::begin(cfg);
        let mut buf = vec![0.0, 0.0, 3.0, 0.0];
        let fired = inject("bc.tri", &mut buf).unwrap();
        assert_eq!(fired.index, 2);
        assert_eq!(buf[2], -3.0);
        let _ = session.finish();
    }

    #[test]
    fn band_injection_lands_in_valid_slot() {
        let _g = crate::serial();
        let cfg = CheckConfig::strict().with_faults(FaultPlan::single(
            "stage1.band",
            FaultKind::Inf,
            4093,
        ));
        let session = CheckSession::begin(cfg);
        // tail columns of a 6x6 kd=2 band have padding slots; index must wrap
        // into a real (i, j)
        let mut band = SymBand::zeros(6, 2);
        let fired = inject_band("stage1.band", &mut band).unwrap();
        let flat = fired.index;
        let (j, off) = (flat / band.ldab(), flat % band.ldab());
        assert!(j + off < band.n(), "landed in padding: col {j} off {off}");
        assert!(band.at(j + off, j).is_infinite());
        let _ = session.finish();
    }

    #[test]
    fn fired_count_is_per_thread_and_monotonic() {
        let _g = crate::serial();
        let cfg = CheckConfig::strict().with_faults(FaultPlan::single("bc.tri", FaultKind::Nan, 0));
        let session = CheckSession::begin(cfg);
        let before = fired_on_this_thread();
        // firing on another thread must not move this thread's count
        std::thread::spawn(|| {
            let mut buf = vec![1.0; 4];
            let _ = inject("bc.tri", &mut buf);
        })
        .join()
        .unwrap();
        assert_eq!(fired_on_this_thread(), before);
        let _ = session.finish();

        let cfg = CheckConfig::strict().with_faults(FaultPlan::single("bc.tri", FaultKind::Nan, 0));
        let session = CheckSession::begin(cfg);
        let before = fired_on_this_thread();
        let mut buf = vec![1.0; 4];
        assert!(inject("bc.tri", &mut buf).is_some());
        assert_eq!(fired_on_this_thread(), before + 1);
        let _ = session.finish();
    }

    #[test]
    fn from_env_parses_seed() {
        // avoid mutating process env in parallel tests: only sanity-check
        // the unset/garbage path plus direct campaign equivalence
        if std::env::var("TG_FAULT_SEED").is_err() {
            assert!(FaultPlan::from_env().is_none());
        }
        let plan = FaultPlan::campaign(7);
        assert_eq!(plan.faults.len(), SITES.len());
    }
}
