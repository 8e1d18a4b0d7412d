//! Full symmetric EVD drivers (`Dsyevd` analogues) — the three pipelines
//! compared in the paper's §6.2 / Figure 16.
//!
//! Every driver is tridiagonalization + divide & conquer; they differ only
//! in the reduction pipeline and back transformation:
//!
//! | variant | reduction | back transformation |
//! |---|---|---|
//! | [`EvdMethod::CusolverLike`] | direct blocked `sytrd` | reflector product |
//! | [`EvdMethod::MagmaLike`]    | SBR + sequential BC | conventional `ormqr` |
//! | [`EvdMethod::Proposed`]     | DBBR + pipelined BC | Figure-13 blocked `W` |

use crate::dc::stedc;
use crate::steqr::sterf;
use crate::EigenError;
use tg_matrix::Mat;
use tridiag_core::{tridiagonalize, DbbrConfig, Method, ShapeClass};

/// EVD pipeline selector.
#[derive(Clone, Debug)]
pub enum EvdMethod {
    /// cuSOLVER-style: direct tridiagonalization (`Dsytrd` + `Dstedc`).
    CusolverLike {
        /// Panel width for the blocked reduction.
        nb: usize,
    },
    /// MAGMA-style two-stage (`Dsy2sb` + `Dsb2st` + `Dstedc`), CPU-ordered
    /// bulge chasing (sequential).
    MagmaLike {
        /// Bandwidth.
        b: usize,
    },
    /// The paper's pipeline: DBBR + pipelined bulge chasing + blocked back
    /// transformation.
    Proposed {
        /// Bandwidth (paper: 32).
        b: usize,
        /// `syr2k` accumulation width (paper: 1024).
        k: usize,
        /// Parallel sweeps for bulge chasing.
        parallel_sweeps: usize,
        /// Back-transformation block width (paper: 2048).
        backtransform_k: usize,
        /// Stage-1 depth-1 look-ahead (panel QR overlapped with the
        /// trailing update); bitwise-identical output either way.
        lookahead: bool,
    },
}

impl EvdMethod {
    fn to_tridiag_method(&self) -> Method {
        match self {
            EvdMethod::CusolverLike { nb } => Method::Direct { nb: *nb },
            EvdMethod::MagmaLike { b } => Method::Sbr {
                b: *b,
                parallel_sweeps: 1,
            },
            EvdMethod::Proposed {
                b,
                k,
                parallel_sweeps,
                lookahead,
                ..
            } => {
                let mut cfg = DbbrConfig::new(*b, *k);
                cfg.lookahead = *lookahead;
                Method::Dbbr {
                    cfg,
                    parallel_sweeps: *parallel_sweeps,
                }
            }
        }
    }

    /// Sensible defaults scaled to `n` for the proposed pipeline: the
    /// reduction settings of [`Method::paper_default`], plus
    /// [`default_backtransform_k`].
    pub fn proposed_default(n: usize) -> EvdMethod {
        let Method::Dbbr {
            cfg,
            parallel_sweeps,
        } = Method::paper_default(n)
        else {
            unreachable!("Method::paper_default is a Dbbr method");
        };
        EvdMethod::Proposed {
            b: cfg.b,
            k: cfg.k,
            parallel_sweeps,
            backtransform_k: default_backtransform_k(cfg.b, n),
            lookahead: cfg.lookahead,
        }
    }

    /// Shape class of an `n × n` problem solved with this method: the shape
    /// part of the serve result cache's key.
    pub fn shape_class(&self, n: usize) -> ShapeClass {
        match self {
            EvdMethod::CusolverLike { nb } => ShapeClass { n, b: *nb, k: 0 },
            EvdMethod::MagmaLike { b } => ShapeClass { n, b: *b, k: 0 },
            EvdMethod::Proposed { b, k, .. } => ShapeClass { n, b: *b, k: *k },
        }
    }
}

/// The default back-transformation merge width for bandwidth `b` on an
/// `n × n` problem — the single source of truth (the paper-default
/// constructor and the test/bench grids previously disagreed: `16b` vs
/// `4b`).
///
/// Tuning rationale: each group of `k/b` width-`b` factors costs
/// `O(n·k²)` extra merge flops to buy apply GEMMs with inner dimension
/// `k` instead of `b`, so `k` should grow with `b` until the merge
/// overhead catches up with the apply savings. `16b` (4 merge levels)
/// sat at the flat top of the measured back-transformation sweep
/// (EXPERIMENTS.md) across the (n, b) grid — by `k = 16b` the apply GEMMs are already square
/// enough that doubling `k` again buys < 5 % while the merge cost keeps
/// doubling. The cap of 2048 is the paper's production width (Figure 13);
/// the clamp to `n` exists because a factor can never act on more than
/// `n` rows — wider targets only zero-pad the merge.
pub fn default_backtransform_k(b: usize, n: usize) -> usize {
    (b * 16).min(2048).min(n.max(1))
}

/// Result of [`syevd`].
#[derive(Clone, Debug)]
pub struct Evd {
    /// Eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors (column `k` pairs with `eigenvalues[k]`), if requested.
    pub eigenvectors: Option<Mat>,
}

impl Evd {
    /// `max_k ‖A v_k − λ_k v_k‖∞ / (n ‖A‖)` — the LAPACK-style eigenpair
    /// residual (test/diagnostic helper, `O(n³)`).
    pub fn residual(&self, a: &Mat) -> f64 {
        let v = self.eigenvectors.as_ref().expect("needs eigenvectors");
        let n = a.nrows();
        let scale = self
            .eigenvalues
            .iter()
            .fold(f64::MIN_POSITIVE, |m, &x| m.max(x.abs()));
        let mut worst = 0.0f64;
        for k in 0..n {
            let vk = v.col(k);
            for i in 0..n {
                let mut s = 0.0;
                for j in 0..n {
                    s += a[(i, j)] * vk[j];
                }
                worst = worst.max((s - self.eigenvalues[k] * vk[i]).abs());
            }
        }
        worst / (scale * n as f64)
    }
}

/// Computes the symmetric EVD `A = V Λ Vᵀ`.
///
/// `a` is consumed as workspace (only the lower triangle is referenced).
/// With `want_vectors = false` only eigenvalues are returned (the paper's
/// "eigenvalues only" mode, solved with QL instead of D&C just like
/// `cusolverDnDsyevd` with `CUSOLVER_EIG_MODE_NOVECTOR`).
///
/// A NaN or infinity in the lower triangle is rejected with
/// [`EigenError::NonFiniteInput`] before any reduction; the strict upper
/// triangle is never read. As in LAPACK `dsyevd`, a lower triangle whose
/// max-abs norm lies outside `[√smlnum, √bignum]` (about `1e±146`) is
/// scaled into that window by a power of two, and the eigenvalues are
/// scaled back; eigenvectors need no unscaling, and input inside the window
/// is not touched, so it keeps every bit.
///
/// ```
/// use tg_eigen::{syevd, EvdMethod};
/// use tg_matrix::gen;
///
/// let eigs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// let a = gen::with_spectrum(&eigs, 3);
/// let evd = syevd(&mut a.clone(), &EvdMethod::proposed_default(8), true).unwrap();
/// for (got, want) in evd.eigenvalues.iter().zip(&eigs) {
///     assert!((got - want).abs() < 1e-10);
/// }
/// assert!(evd.residual(&a) < 1e-11);
/// ```
pub fn syevd(a: &mut Mat, method: &EvdMethod, want_vectors: bool) -> Result<Evd, EigenError> {
    check_finite_lower(a)?;
    let e = scale_exponent(a);
    if e != 0 {
        scale_lower(a, pow2(e));
    }
    let mut evd = solve(a, method, want_vectors)?;
    if e != 0 {
        let s = pow2(-e);
        evd.eigenvalues.iter_mut().for_each(|x| *x *= s);
    }
    Ok(evd)
}

/// [`syevd`] on finite, in-window input.
fn solve(a: &mut Mat, method: &EvdMethod, want_vectors: bool) -> Result<Evd, EigenError> {
    let n = a.nrows();
    let _evd = tg_trace::span_cat("evd", "stage", Some(("n", n as u64)));
    let res = {
        let _span = tg_trace::span("evd.reduce");
        tridiagonalize(a, &method.to_tridiag_method())
    };
    if !want_vectors {
        let _span = tg_trace::span("evd.solve");
        let mut eigenvalues = sterf(&res.tri)?;
        tg_check::fault::inject("evd.values", &mut eigenvalues);
        check_spectrum(&eigenvalues, &res.tri);
        return Ok(Evd {
            eigenvalues,
            eigenvectors: None,
        });
    }
    let (mut eigenvalues, mut v) = {
        let _span = tg_trace::span("evd.solve");
        stedc(&res.tri)?
    };
    tg_check::fault::inject("evd.values", &mut eigenvalues);
    check_spectrum(&eigenvalues, &res.tri);
    // back transformation: V ← Q V
    {
        let _span = tg_trace::span("evd.backtransform");
        match method {
            // The production path: merge once, then apply panel-parallel
            // (bitwise-identical at every thread count; see
            // `tridiag_core::backtransform`). `gemm_threads` is the fan-out
            // budget right now: 1 inside a batch or serve worker.
            EvdMethod::Proposed {
                backtransform_k, ..
            } => res.apply_q_blocked(&mut v, *backtransform_k, tg_blas::threads::gemm_threads()),
            _ => res.apply_q(&mut v),
        }
    }
    tg_check::fault::inject_mat("backtransform.q", &mut v);
    if tg_check::deep_enabled() {
        tg_check::stage_orthogonality(&v);
    }
    Ok(Evd {
        eigenvalues,
        eigenvectors: Some(v),
    })
}

/// The input gate: the first NaN or infinity of the lower triangle (the
/// part every method reads), scanned column by column.
fn check_finite_lower(a: &Mat) -> Result<(), EigenError> {
    for col in 0..a.ncols().min(a.nrows()) {
        if let Some(off) = a.col(col)[col..].iter().position(|x| !x.is_finite()) {
            return Err(EigenError::NonFiniteInput {
                row: col + off,
                col,
            });
        }
    }
    Ok(())
}

/// The `e` with `2ᵉ·‖tril(A)‖_max` inside LAPACK `dsyevd`'s window
/// `[√smlnum, √bignum]`, `smlnum = safmin/ε = 2⁻⁹⁷⁰`; `0` when the norm
/// already lies in it (or is zero).
fn scale_exponent(a: &Mat) -> i32 {
    let anrm = (0..a.ncols().min(a.nrows()))
        .flat_map(|j| &a.col(j)[j..])
        .fold(0.0f64, |m, x| m.max(x.abs()));
    let rmin = pow2(-485);
    let rmax = pow2(485);
    if anrm > 0.0 && anrm < rmin {
        (rmin / anrm).log2().ceil() as i32
    } else if anrm > rmax {
        (rmax / anrm).log2().floor() as i32
    } else {
        0
    }
}

/// `2ᵉ` for a normal exponent (`|e| ≤ 1022`).
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Multiplies the lower triangle of `a` by `s`.
fn scale_lower(a: &mut Mat, s: f64) {
    for j in 0..a.ncols().min(a.nrows()) {
        a.col_mut(j)[j..].iter_mut().for_each(|x| *x *= s);
    }
}

/// Spectrum invariant hook: compares the solver's eigenvalues against an
/// independent QL/QR pass (`sterf`) over the same reduced tridiagonal —
/// the oracle the checker treats as ground truth — plus the Gershgorin
/// enclosure. The oracle solve only runs while a check session is live.
fn check_spectrum(eigenvalues: &[f64], tri: &tg_matrix::Tridiagonal) {
    if !tg_check::enabled() {
        return;
    }
    if let Ok(oracle) = sterf(tri) {
        tg_check::stage_spectrum(eigenvalues, &oracle, tri.gershgorin());
    }
}

/// Computes the symmetric EVD of every matrix in `problems` with one call
/// — the *serial reference* for batched execution.
///
/// Problems are solved in order on the calling thread, each through the
/// same single-problem [`syevd`] path (matrices are copied; the inputs are
/// not destroyed). This is the baseline that `tg-batch`'s multi-worker
/// `BatchScheduler` is required to match bitwise, and the serial loop that
/// `repro batch_scaling` compares against. The first error aborts the
/// batch.
pub fn syevd_batched(
    problems: &[Mat],
    method: &EvdMethod,
    want_vectors: bool,
) -> Result<Vec<Evd>, EigenError> {
    let _span = tg_trace::span_cat(
        "evd.batch_serial",
        "batch",
        Some(("count", problems.len() as u64)),
    );
    problems
        .iter()
        .map(|a| syevd(&mut a.clone(), method, want_vectors))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, orthogonality_residual};

    fn methods(n: usize) -> Vec<EvdMethod> {
        let b = 4.min(n / 4).max(2);
        vec![
            EvdMethod::CusolverLike { nb: 8 },
            EvdMethod::MagmaLike { b },
            EvdMethod::Proposed {
                b,
                k: b * 4,
                parallel_sweeps: 3,
                backtransform_k: default_backtransform_k(b, n),
                lookahead: true,
            },
        ]
    }

    #[test]
    fn shape_class_mapping() {
        // The default shapes are cache-key inputs: b = min(32, max(2, n/8)),
        // k = 8b.
        for (n, b) in [(15, 2), (64, 8), (256, 32), (4096, 32)] {
            let c = EvdMethod::proposed_default(n).shape_class(n);
            assert_eq!(c, ShapeClass { n, b, k: 8 * b }, "n = {n}");
        }
        assert_eq!(
            EvdMethod::MagmaLike { b: 8 }.shape_class(64),
            ShapeClass { n: 64, b: 8, k: 0 }
        );
    }

    #[test]
    fn known_spectrum_all_methods() {
        let n = 48;
        let eigs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 7.0).collect();
        let a0 = gen::with_spectrum(&eigs, 3);
        for m in methods(n) {
            let mut a = a0.clone();
            let evd = syevd(&mut a, &m, true).unwrap();
            assert!(
                tg_matrix::norms::spectrum_error(&eigs, &evd.eigenvalues) < 1e-10,
                "{m:?} spectrum"
            );
            let v = evd.eigenvectors.as_ref().unwrap();
            assert!(orthogonality_residual(v) < 1e-11, "{m:?} orthogonality");
            assert!(evd.residual(&a0) < 1e-11, "{m:?} residual");
        }
    }

    #[test]
    fn eigenvalues_only_matches_vector_path() {
        let n = 40;
        let a0 = gen::random_symmetric(n, 8);
        let m = EvdMethod::MagmaLike { b: 3 };
        let e1 = syevd(&mut a0.clone(), &m, false).unwrap().eigenvalues;
        let e2 = syevd(&mut a0.clone(), &m, true).unwrap().eigenvalues;
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn clustered_spectrum_orthogonality() {
        // three tight clusters — stresses deflation + Gu-Eisenstat path
        let n = 45;
        let eigs: Vec<f64> = (0..n)
            .map(|i| (i / 15) as f64 + 1e-10 * (i % 15) as f64)
            .collect();
        let a0 = gen::with_spectrum(&eigs, 9);
        let mut a = a0.clone();
        let evd = syevd(&mut a, &EvdMethod::proposed_default(n), true).unwrap();
        assert!(orthogonality_residual(evd.eigenvectors.as_ref().unwrap()) < 1e-10);
        assert!(evd.residual(&a0) < 1e-10);
    }

    #[test]
    fn batched_serial_matches_singles_bitwise() {
        let n = 24;
        let problems: Vec<Mat> = (0..4).map(|s| gen::random_symmetric(n, 100 + s)).collect();
        let m = EvdMethod::proposed_default(n);
        let batch = syevd_batched(&problems, &m, true).unwrap();
        assert_eq!(batch.len(), problems.len());
        for (a, got) in problems.iter().zip(&batch) {
            let single = syevd(&mut a.clone(), &m, true).unwrap();
            assert_eq!(got.eigenvalues, single.eigenvalues);
            assert_eq!(got.eigenvectors, single.eigenvectors);
        }
    }

    #[test]
    fn spd_positive_eigenvalues() {
        let n = 30;
        let a0 = gen::random_spd(n, 11);
        let mut a = a0.clone();
        let evd = syevd(&mut a, &EvdMethod::CusolverLike { nb: 4 }, false).unwrap();
        assert!(evd.eigenvalues.iter().all(|&x| x > 0.0));
    }
}
