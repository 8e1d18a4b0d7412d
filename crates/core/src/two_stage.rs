//! End-to-end tridiagonalization drivers.
//!
//! Three pipelines, mirroring the paper's comparison:
//!
//! * [`Method::Direct`] — blocked one-stage reduction (cuSOLVER `Dsytrd`),
//! * [`Method::Sbr`] — MAGMA-style two-stage: single-blocking band
//!   reduction + bulge chasing,
//! * [`Method::Dbbr`] — the paper's method: double-blocking band reduction
//!   + pipelined bulge chasing.

use crate::backtransform::{
    apply_blocks_panels, apply_q1, merge_q1_blocked_ws, release_blocks, PanelPools,
};
use crate::bc::{bulge_chase_pipelined, bulge_chase_seq, BcResult};
use crate::dbbr::{dbbr_ws, DbbrConfig};
use crate::sbr::band_reduce;
use crate::sytrd::{sytrd_blocked, SytrdResult};
use crate::AllocPool;
use tg_householder::wblock::WyPair;
use tg_matrix::{Mat, Tridiagonal};

/// Shape class `(n, b, k)` of one solve: the shape part of the serve
/// result cache's key (`tg_eigen::EvdMethod::shape_class`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Matrix dimension.
    pub n: usize,
    /// Bandwidth (panel width `nb` for the direct method).
    pub b: usize,
    /// `syr2k` accumulation width (0 for single-blocking methods).
    pub k: usize,
}

/// Tridiagonalization algorithm selector.
#[derive(Clone, Debug)]
pub enum Method {
    /// Direct blocked reduction with panel width `nb`.
    Direct { nb: usize },
    /// Two-stage with single-blocking SBR (bandwidth `b`) and bulge chasing
    /// with `parallel_sweeps` concurrent sweeps (1 = sequential).
    Sbr { b: usize, parallel_sweeps: usize },
    /// Two-stage with double-blocking band reduction and pipelined bulge
    /// chasing — the paper's proposed pipeline.
    Dbbr {
        cfg: DbbrConfig,
        parallel_sweeps: usize,
    },
}

impl Method {
    /// The paper's recommended configuration (`b = 32`, `k = 1024` scaled
    /// down proportionally for small matrices). Stage-1 look-ahead comes
    /// on by default via [`DbbrConfig::new`]; clear `cfg.lookahead` for
    /// the strictly serial schedule (bitwise-identical either way).
    pub fn paper_default(n: usize) -> Method {
        let b = 32.min((n / 8).max(2));
        let k = (b * 8).min(1024);
        Method::Dbbr {
            cfg: DbbrConfig::new(b, k),
            parallel_sweeps: 4,
        }
    }
}

/// Compact-WY group width for the `Direct` pipeline's reflector apply
/// (`dormtr` blocking). 32 matches the panel widths used elsewhere and
/// keeps every apply GEMM's inner dimension wide enough for the packed
/// kernel at production sizes.
const DIRECT_APPLY_NB: usize = 32;

/// How the orthogonal factor is represented, per pipeline.
enum QFactors {
    Direct(SytrdResult),
    TwoStage {
        factors: Vec<(usize, WyPair)>,
        bc: BcResult,
    },
}

/// Result of [`tridiagonalize`]: `A = Q T Qᵀ`.
pub struct TridiagResult {
    /// The tridiagonal matrix.
    pub tri: Tridiagonal,
    /// Matrix order.
    pub n: usize,
    q: QFactors,
}

impl TridiagResult {
    /// `C ← Q C`: maps eigenvectors of `T` to eigenvectors of `A`.
    ///
    /// For the two-stage pipelines `Q = Q₁ Q₂`, so this applies the bulge-
    /// chasing factor first and then the band-reduction factor.
    pub fn apply_q(&self, c: &mut Mat) {
        let _span = tg_trace::span_cat("backtransform", "stage", Some(("n", self.n as u64)));
        match &self.q {
            QFactors::Direct(res) => {
                // ormqr-style: apply the stored reflectors blockwise
                // (O(n²·ncols)); materializing Q first would cost O(n³)
                // no matter how narrow C is. `form_q` stays a test helper.
                res.apply_q_left(&mut c.as_mut(), DIRECT_APPLY_NB);
            }
            QFactors::TwoStage { factors, bc } => {
                bc.apply_q_left(c, false);
                apply_q1(factors, c, false);
            }
        }
    }

    /// [`Self::apply_q`] through the blocked back transformations (Figure
    /// 13 made parallel): grouped Q₂ blocks ([`crate::bc::backward`]) and
    /// merged width-`target_k` Q₁ blocks, built **once**, shared read-only
    /// across column panels drained by `workers` lanes, and released when
    /// the apply finishes. Panel boundaries are fixed
    /// ([`crate::backtransform::PANEL_COLS`]), so the result is
    /// bitwise-identical for every `workers`; see
    /// [`crate::backtransform::apply_blocks_panels`]. The one-stage
    /// pipeline has no `W` factors and takes [`Self::apply_q`].
    pub fn apply_q_blocked(&self, c: &mut Mat, target_k: usize, workers: usize) {
        match &self.q {
            QFactors::Direct(_) => self.apply_q(c),
            QFactors::TwoStage { factors, bc } => {
                let _span =
                    tg_trace::span_cat("backtransform", "stage", Some(("n", self.n as u64)));
                // Build the full ordered product Q = Q₁ Q₂ as one block
                // list (Q₁'s merged blocks first — product order), so a
                // single panel pass applies both stages.
                let mut pool = AllocPool;
                let mut blocks = merge_q1_blocked_ws(factors, target_k, &mut pool);
                blocks.extend(bc.sweep_blocks_ws(&mut pool));
                apply_blocks_panels(&blocks, c, workers, &mut PanelPools::new());
                release_blocks(blocks, &mut pool);
            }
        }
    }

    /// Materializes `Q` (test helper, `O(n³)`).
    pub fn form_q(&self) -> Mat {
        let mut q = Mat::identity(self.n);
        self.apply_q(&mut q);
        q
    }
}

/// Reduces symmetric `A` (lower triangle referenced; destroyed) to
/// tridiagonal form with the selected method.
///
/// ```
/// use tridiag_core::{tridiagonalize, DbbrConfig, Method};
/// use tg_matrix::{gen, orthogonality_residual, similarity_residual};
///
/// let a = gen::random_symmetric(32, 1);
/// let method = Method::Dbbr { cfg: DbbrConfig::new(4, 8), parallel_sweeps: 2 };
/// let red = tridiagonalize(&mut a.clone(), &method);
/// let q = red.form_q();
/// assert!(orthogonality_residual(&q) < 1e-11);
/// assert!(similarity_residual(&a, &q, &red.tri.to_dense()) < 1e-11);
/// ```
pub fn tridiagonalize(a: &mut Mat, method: &Method) -> TridiagResult {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    // The deep tg-check invariants (orthogonality, similarity) need the
    // untouched input — the reduction destroys `a` in place.
    let a0 = tg_check::deep_enabled().then(|| a.clone());
    let mut result = match method {
        Method::Direct { nb } => {
            let res = sytrd_blocked(a, *nb);
            TridiagResult {
                tri: res.tri.clone(),
                n,
                q: QFactors::Direct(res),
            }
        }
        Method::Sbr { b, parallel_sweeps } => {
            let mut red = band_reduce(a, *b, 32);
            tg_check::fault::inject_band("stage1.band", &mut red.band);
            tg_check::stage_band(&red.band, *b);
            let bc = if *parallel_sweeps <= 1 {
                bulge_chase_seq(&red.band)
            } else {
                bulge_chase_pipelined(&red.band, *parallel_sweeps)
            };
            TridiagResult {
                tri: bc.tri.clone(),
                n,
                q: QFactors::TwoStage {
                    factors: red.factors,
                    bc,
                },
            }
        }
        Method::Dbbr {
            cfg,
            parallel_sweeps,
        } => {
            let mut red = dbbr_ws(a, cfg, &mut AllocPool);
            tg_check::fault::inject_band("stage1.band", &mut red.band);
            tg_check::stage_band(&red.band, cfg.b);
            let bc = bulge_chase_pipelined(&red.band, (*parallel_sweeps).max(1));
            TridiagResult {
                tri: bc.tri.clone(),
                n,
                q: QFactors::TwoStage {
                    factors: red.factors,
                    bc,
                },
            }
        }
    };
    tg_check::fault::inject("bc.tri", &mut result.tri.d);
    tg_check::stage_tridiag(&result.tri);
    if let Some(a0) = a0 {
        let q = result.form_q();
        tg_check::stage_orthogonality(&q);
        tg_check::stage_similarity(&a0, &q, &result.tri.to_dense());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, orthogonality_residual, similarity_residual};

    fn check_method(n: usize, method: Method, seed: u64) {
        let a0 = gen::random_symmetric(n, seed);
        let mut a = a0.clone();
        let res = tridiagonalize(&mut a, &method);
        let q = res.form_q();
        assert!(
            orthogonality_residual(&q) < 1e-11,
            "{method:?}: Q not orthogonal"
        );
        let t = res.tri.to_dense();
        let r = similarity_residual(&a0, &q, &t);
        assert!(r < 1e-11, "{method:?}: A ≠ Q T Qᵀ ({r})");
    }

    #[test]
    fn direct_pipeline() {
        check_method(24, Method::Direct { nb: 6 }, 1);
    }

    #[test]
    fn sbr_pipeline_seq_and_parallel() {
        check_method(
            24,
            Method::Sbr {
                b: 3,
                parallel_sweeps: 1,
            },
            2,
        );
        check_method(
            24,
            Method::Sbr {
                b: 3,
                parallel_sweeps: 4,
            },
            3,
        );
    }

    #[test]
    fn dbbr_pipeline() {
        check_method(
            26,
            Method::Dbbr {
                cfg: DbbrConfig::new(2, 8),
                parallel_sweeps: 3,
            },
            4,
        );
    }

    #[test]
    fn all_methods_same_spectrum() {
        let n = 22;
        let a0 = gen::random_symmetric(n, 10);
        let methods = [
            Method::Direct { nb: 4 },
            Method::Sbr {
                b: 4,
                parallel_sweeps: 2,
            },
            Method::Dbbr {
                cfg: DbbrConfig::new(2, 4),
                parallel_sweeps: 2,
            },
        ];
        let tris: Vec<Tridiagonal> = methods
            .iter()
            .map(|m| {
                let mut a = a0.clone();
                tridiagonalize(&mut a, m).tri
            })
            .collect();
        // all T's are orthogonally similar ⇒ identical Sturm counts
        for &x in &[-3.0, -1.0, 0.0, 0.5, 1.5, 3.0] {
            let c0 = tris[0].sturm_count(x);
            assert_eq!(tris[1].sturm_count(x), c0, "SBR count differs at {x}");
            assert_eq!(tris[2].sturm_count(x), c0, "DBBR count differs at {x}");
        }
    }

    #[test]
    fn blocked_backtransform_agrees_and_is_worker_invariant() {
        let n = 40;
        let a0 = gen::random_symmetric(n, 22);
        let res = tridiagonalize(
            &mut a0.clone(),
            &Method::Dbbr {
                cfg: DbbrConfig::new(3, 6),
                parallel_sweeps: 2,
            },
        );
        let c0 = gen::random(n, n, 23);
        let mut reference = c0.clone();
        res.apply_q(&mut reference);

        let mut serial = c0.clone();
        res.apply_q_blocked(&mut serial, 12, 1);
        assert!(
            tg_matrix::max_abs_diff(&reference, &serial) < 1e-11,
            "{}",
            tg_matrix::max_abs_diff(&reference, &serial)
        );
        for workers in [2usize, 4, 7] {
            let mut par = c0.clone();
            res.apply_q_blocked(&mut par, 12, workers);
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    #[test]
    fn direct_apply_q_avoids_forming_q() {
        // The Direct arm now applies reflectors to C; it must still match
        // the dense product with the materialized Q.
        let n = 24;
        let a0 = gen::random_symmetric(n, 24);
        let res = tridiagonalize(&mut a0.clone(), &Method::Direct { nb: 6 });
        let q = res.form_q();
        let c0 = gen::random(n, 5, 25);
        let expect = tg_blas::gemm_into(
            1.0,
            &q.as_ref(),
            tg_blas::Op::NoTrans,
            &c0.as_ref(),
            tg_blas::Op::NoTrans,
        );
        let mut c = c0.clone();
        res.apply_q(&mut c);
        assert!(tg_matrix::max_abs_diff(&expect, &c) < 1e-11);
    }

    #[test]
    fn paper_default_runs() {
        check_method(40, Method::paper_default(40), 30);
    }
}
