//! Double-blocking band reduction — **Algorithm 1**, the paper's first
//! contribution (§4.1).
//!
//! SBR couples the `syr2k` rank `k` to the bandwidth `b`; Table 1 shows
//! `syr2k` throughput grows with `k`, while §3.2 shows bulge chasing cost
//! grows with `b`. DBBR decouples them: panels of width `b` are factorized
//! as usual, but their rank-2b updates are **deferred** — only the next
//! panel is updated just in time (`lines 7–12`) — and once `k` columns of
//! `(Z, Y)` have accumulated, the whole trailing matrix is updated with a
//! single rank-`2k` `syr2k` (`line 15`). This keeps `b` small (fast bulge
//! chasing) while making the `syr2k` wide (fast trailing update).
//!
//! Deferring updates requires the textbook look-ahead correction when
//! computing each panel's `Z` (the trailing matrix seen by Equation 1 must
//! be the *fully updated* one); Algorithm 1 elides this detail, we
//! implement it.

use crate::sbr::BandReduction;
use crate::AllocPool;
use tg_blas::level3::{symm_lower_ws, SYMM_NB};
use tg_blas::threads::{run_tasks, Spans};
use tg_blas::{gemm, syr2k_diag, syr2k_square, syr2k_square_head, Op};
use tg_householder::panel::panel_qr;
use tg_householder::wblock::WyPair;
use tg_matrix::{Mat, MatMut, SymBand};

/// Configuration for [`dbbr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbbrConfig {
    /// Target bandwidth (the paper uses `b = 32` on H100).
    pub b: usize,
    /// Accumulation width for the deferred `syr2k` (the paper uses
    /// `k = 1024`); must be a multiple of `b`.
    pub k: usize,
    /// Internal blocking of the trailing `syr2k`, which always uses the
    /// Figure-7 square-block scheme (the paper's §5.1 optimization) with
    /// `2 × 2` base blocks per super-block.
    pub nb_syr2k: usize,
    /// Depth-1 look-ahead: factorize the next outer block's first panel
    /// concurrently with the remainder of the deferred trailing update (a
    /// two-task fan-out). Bitwise-identical output either way (see
    /// `docs/PERFORMANCE.md`, "Stage-1 look-ahead").
    pub lookahead: bool,
}

/// Why a [`DbbrConfig`] was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbbrConfigError {
    /// `b = 0`: the band must be at least one diagonal wide.
    ZeroBandwidth,
    /// `k = 0`: at least one panel must accumulate per outer block.
    ZeroAccumulation,
    /// `k < b`: the accumulation window cannot hold even one panel.
    AccumulationTooNarrow { b: usize, k: usize },
    /// `k % b != 0`: panels of width `b` must tile the window exactly.
    NotAMultiple { b: usize, k: usize },
}

impl std::fmt::Display for DbbrConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbbrConfigError::ZeroBandwidth => write!(f, "bandwidth b must be at least 1"),
            DbbrConfigError::ZeroAccumulation => {
                write!(f, "accumulation width k must be at least 1")
            }
            DbbrConfigError::AccumulationTooNarrow { b, k } => write!(
                f,
                "accumulation width k={k} is narrower than the bandwidth b={b}"
            ),
            DbbrConfigError::NotAMultiple { b, k } => {
                write!(f, "k={k} must be a multiple of b={b}")
            }
        }
    }
}

impl std::error::Error for DbbrConfigError {}

impl DbbrConfig {
    /// Paper defaults scaled for the given problem size; panics on an
    /// invalid `(b, k)` pair. Use [`DbbrConfig::try_new`] to handle the
    /// error instead.
    pub fn new(b: usize, k: usize) -> Self {
        Self::try_new(b, k).unwrap_or_else(|e| panic!("invalid DbbrConfig: {e}"))
    }

    /// Validating constructor: `b ≥ 1`, `k ≥ b`, and `k` a multiple of `b`.
    pub fn try_new(b: usize, k: usize) -> Result<Self, DbbrConfigError> {
        if b == 0 {
            return Err(DbbrConfigError::ZeroBandwidth);
        }
        if k == 0 {
            return Err(DbbrConfigError::ZeroAccumulation);
        }
        if k < b {
            return Err(DbbrConfigError::AccumulationTooNarrow { b, k });
        }
        if !k.is_multiple_of(b) {
            return Err(DbbrConfigError::NotAMultiple { b, k });
        }
        Ok(DbbrConfig {
            b,
            k,
            nb_syr2k: 32,
            lookahead: true,
        })
    }
}

/// Double-blocking band reduction of symmetric `A` (lower triangle
/// referenced, overwritten) to bandwidth `cfg.b`.
pub fn dbbr(a: &mut Mat, cfg: &DbbrConfig) -> BandReduction {
    dbbr_ws(a, cfg, &mut AllocPool)
}

/// [`dbbr`] with every scratch matrix (the accumulated `(Z, Y)` pair, the
/// per-panel `S` products and the kernels' mirror scratch) drawn from
/// `pool`, which feeds the traced workspace high-water mark.
pub fn dbbr_ws(a: &mut Mat, cfg: &DbbrConfig, pool: &mut AllocPool) -> BandReduction {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let _span = tg_trace::span_cat("reduce.dbbr", "stage", Some(("n", n as u64)));
    let (b, k) = (cfg.b, cfg.k);
    assert!(b >= 1 && k >= b && k % b == 0);
    let mut factors: Vec<(usize, WyPair)> = Vec::new();

    // Depth-1 look-ahead state: the `(W, Y)` pair of the next outer
    // block's first panel, factorized concurrently with the previous
    // trailing update (see the trailing section below).
    let mut pending: Option<(Mat, Mat)> = None;

    // One scratch for four sequential uses per panel, all on this thread:
    // the just-in-time `syr2k_diag` product (b × b), `symm_lower_ws`'s
    // mirrored diagonal block (≤ SYMM_NB²) and the two `S` products
    // (≤ (k − b) × b, then b × b).
    let scratch_len = if b + 1 < n {
        let w = SYMM_NB.min(n - b).max(b);
        (w * w).max((k - b) * b)
    } else {
        0
    };
    let mut scratch = pool.acquire(scratch_len, 1);

    let mut i = 0;
    while i + b + 1 < n {
        // This outer block accumulates panels j = i, i+b, … while j < i+k
        // and j + b + 1 < n; their `(Z, Y)` columns are written in place
        // into one `sup × 2·pb` buffer `[Z | Y]`: Z in columns 0..pb, Y in
        // pb..2·pb. One buffer rather than two left the allocator less
        // fragmented: perfbench `peak_rss_mb` on `evd_vectors` fell 0.5 MB.
        let sup = n - i - b; // row support of this block's factors: rows i+b..n
        let panels = ((i + k).min(n - b - 1) - i).div_ceil(b);
        let pb = panels * b;
        let mut zy = pool.acquire(sup, 2 * pb);
        let mut kacc = 0usize;
        let mut j = i;
        while j < i + k && j + b + 1 < n {
            let m = n - j - b;
            // ── lines 5–12: obtain this panel's `(W, Y)`. Normally that is
            //    the just-in-time update followed by the panel QR, done
            //    right here; with look-ahead the first panel of this outer
            //    block was already updated and factorized by the task
            //    that overlapped the previous trailing `syr2k`.
            let (w, y) = match pending.take() {
                Some(wy) => wy,
                None => {
                    // ── lines 7–12: bring this panel up to date with the
                    //    pending factors of the current outer block
                    //    (just-in-time form). The paper's "green panel" is
                    //    A[j..n, j..j+b]: the diagonal block (final band
                    //    output!) plus the sub-panel.
                    if kacc > 0 {
                        // diagonal block [j..j+b)² — lower triangle only
                        {
                            let zd = zy.view(j - b - i, 0, b, kacc);
                            let yd = zy.view(j - b - i, pb, b, kacc);
                            let mut diag = a.view_mut(j, j, b, b);
                            let t = scratch.as_mut_slice();
                            syr2k_diag(-1.0, &zd, &yd, 1.0, &mut diag, t);
                        }
                        // rectangular sub-panel [j+b..n) × [j..j+b)
                        let zp = zy.view(j - i, 0, m, kacc); // Z rows j+b..n
                        let ytop = zy.view(j - b - i, pb, b, kacc); // Y rows j..j+b
                        let ylow = zy.view(j - i, pb, m, kacc);
                        let ztop = zy.view(j - b - i, 0, b, kacc);
                        let mut panel = a.view_mut(j + b, j, m, b);
                        gemm(-1.0, &zp, Op::NoTrans, &ytop, Op::Trans, 1.0, &mut panel);
                        gemm(-1.0, &ylow, Op::NoTrans, &ztop, Op::Trans, 1.0, &mut panel);
                    }
                    // ── line 5: QR-factorize the panel
                    let pq = {
                        let mut panel = a.view_mut(j + b, j, m, b);
                        panel_qr(&mut panel)
                    };
                    for c in 0..b {
                        for r in (c + 1)..m {
                            a[(j + b + r, j + c)] = 0.0;
                        }
                    }
                    (pq.block.w(), pq.block.v.clone()) // both m × kr
                }
            };
            // tg-check fault hook (site `blas.panel_qr`): corrupts the
            // freshly computed panel W on the orchestrating thread — the
            // same thread for the inline and look-ahead paths, so serve's
            // fired-on-thread retry classification sees both. Inert
            // without a live check session.
            let mut w = w;
            tg_check::fault::inject_mat("blas.panel_qr", &mut w);
            let kr = y.ncols();
            let (wr, yr) = (w.as_ref(), y.as_ref());
            // ── line 6: append to the accumulated (Z, Y) in place — Y
            //    here, and Z below, computed straight into its columns.
            zy.view_mut(j - i, pb + kacc, m, kr).copy_from(&yr);
            // ── corrected ZY computation against the *virtually updated*
            //    trailing matrix Â = A − Σ pending (Z Yᵀ + Y Zᵀ):
            //    U = Â W,  S = Wᵀ U,  Z = U − ½ Y S
            let (zacc, znew) = zy.as_mut().split_at_col(kacc);
            let (znew, yall) = znew.split_at_col(pb - kacc);
            let mut u = znew.submatrix_mut(j - i, 0, m, kr);
            let trail = a.view(j + b, j + b, m, m);
            symm_lower_ws(1.0, &trail, &wr, 0.0, &mut u, scratch.as_mut_slice());
            if kacc > 0 {
                let zp = zacc.rb().submatrix(j - i, 0, m, kacc);
                let yp = yall.rb().submatrix(j - i, 0, m, kacc);
                // U −= Zp (Ypᵀ W) + Yp (Zpᵀ W)
                let mut s = scratch_mat(&mut scratch, kacc, kr);
                gemm(1.0, &yp, Op::Trans, &wr, Op::NoTrans, 0.0, &mut s);
                gemm(-1.0, &zp, Op::NoTrans, &s.rb(), Op::NoTrans, 1.0, &mut u);
                gemm(1.0, &zp, Op::Trans, &wr, Op::NoTrans, 0.0, &mut s);
                gemm(-1.0, &yp, Op::NoTrans, &s.rb(), Op::NoTrans, 1.0, &mut u);
            }
            let mut s = scratch_mat(&mut scratch, kr, kr);
            gemm(1.0, &wr, Op::Trans, &u.rb(), Op::NoTrans, 0.0, &mut s);
            // Z = U − ½ Y S
            gemm(-0.5, &yr, Op::NoTrans, &s.rb(), Op::NoTrans, 1.0, &mut u);
            kacc += kr;

            factors.push((j + b, WyPair { w, y }));
            j += b;
        }
        // ── line 15: deferred trailing update with the wide syr2k.
        // Panels covered columns [i, j); everything from t0 = j on still
        // carries the accumulated rank-2·kacc update.
        //
        // With look-ahead on, the update is split at a task-aligned column
        // boundary `split ≥ b`: the head strip (which contains the next
        // outer block's first panel) is updated first, then that panel is
        // QR-factorized *concurrently* with the tail of the update, as a
        // two-task fan-out. The head/tail split and the lanes' serial
        // dispatch are both bitwise-identical to the unsplit serial path
        // (see `syr2k_square_head` and `docs/PERFORMANCE.md`).
        let t0 = j;
        if kacc > 0 && t0 < n {
            let mt = n - t0;
            let align = cfg.nb_syr2k * 2; // super-block size of the Figure-7 grid
            let split = (b.div_ceil(align) * align).min(mt);
            // Engage only when a next panel actually exists (t0 + b + 1 < n
            // exactly characterizes "the next outer iteration runs and its
            // first panel is this one") and the tail is non-empty.
            if cfg.lookahead && t0 + b + 1 < n && split < mt {
                {
                    let zt = zy.view(t0 - i - b, 0, mt, kacc);
                    let yt = zy.view(t0 - i - b, pb, mt, kacc);
                    let mut trail = a.view_mut(t0, t0, mt, mt);
                    syr2k_square_head(-1.0, &zt, &yt, 1.0, &mut trail, cfg.nb_syr2k, 2, split);
                }
                let ztail = zy.view(t0 - i - b + split, 0, mt - split, kacc);
                let ytail = zy.view(t0 - i - b + split, pb, mt - split, kacc);
                // Carve the trailing view into the (now fully updated)
                // next panel and the square tail — element-disjoint, so
                // the two tasks can mutate them concurrently.
                let trail = a.view_mut(t0, t0, mt, mt);
                let (panel_cols, rest) = trail.split_at_col(b);
                let (_band_rows, panel) = panel_cols.split_at_row(b);
                let (_head_cols, tail_cols) = rest.split_at_col(split - b);
                let (_head_rows, tail) = tail_cols.split_at_row(split);
                // Two overlapped tasks on two lanes: factorize the next
                // panel, and update the tail. Both lanes dispatch their
                // BLAS serially inside the engine's parallel region —
                // bitwise-identical to the parallel dispatch. Where no
                // fan-out is allowed (`gemm_threads()` is 1) both run
                // inline on the calling thread.
                let spans = Spans {
                    region: "parallel.stage1",
                    worker: "stage1.worker",
                    task: "task.stage1",
                };
                let tasks = vec![Stage1Task::Panel(panel), Stage1Task::Tail(tail)];
                let mut lanes = vec![(); tg_blas::threads::gemm_threads().min(2)];
                let outs = run_tasks(spans, tasks, &mut lanes, |_, task| match task {
                    Stage1Task::Panel(mut panel) => {
                        let _t = tg_trace::span_cat("task.stage1_panel", "task", None);
                        let mp = panel.nrows();
                        let pq = panel_qr(&mut panel);
                        for c in 0..b {
                            let col = panel.col_mut(c);
                            col[(c + 1)..mp].fill(0.0);
                        }
                        Some((pq.block.w(), pq.block.v.clone()))
                    }
                    Stage1Task::Tail(mut tail) => {
                        let _t = tg_trace::span_cat("task.stage1_tail", "task", None);
                        syr2k_square(-1.0, &ztail, &ytail, 1.0, &mut tail, cfg.nb_syr2k, 2);
                        None
                    }
                });
                pending = outs.into_iter().flatten().next();
            } else {
                let zt = zy.view(t0 - i - b, 0, mt, kacc);
                let yt = zy.view(t0 - i - b, pb, mt, kacc);
                let mut trail = a.view_mut(t0, t0, mt, mt);
                syr2k_square(-1.0, &zt, &yt, 1.0, &mut trail, cfg.nb_syr2k, 2);
            }
        }
        pool.release(zy);
        i += k;
    }
    pool.release(scratch);
    debug_assert!(pending.is_none(), "look-ahead panel never consumed");

    BandReduction {
        band: SymBand::from_dense_lower(a, b),
        factors,
        b,
    }
}

/// The leading `rows × cols` of the flat `scratch` as a matrix. Its
/// contents are dead: every use overwrites it (`β = 0`) before reading.
fn scratch_mat(scratch: &mut Mat, rows: usize, cols: usize) -> MatMut<'_> {
    MatMut::from_parts(rows, cols, rows, &mut scratch.as_mut_slice()[..rows * cols])
}

/// The two element-disjoint halves of a look-ahead step.
enum Stage1Task<'a> {
    /// The next outer block's first panel, to factorize.
    Panel(MatMut<'a>),
    /// The trailing square past the head strip, to update.
    Tail(MatMut<'a>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, orthogonality_residual, similarity_residual};

    fn check(n: usize, b: usize, k: usize, seed: u64) {
        let a0 = gen::random_symmetric(n, seed);
        let mut a = a0.clone();
        let mut cfg = DbbrConfig::new(b, k);
        cfg.nb_syr2k = 8;
        let red = dbbr(&mut a, &cfg);
        assert!(
            red.band.is_band_within(b, 1e-12),
            "not band-{b} (n={n},k={k})"
        );
        let q = red.form_q(n);
        assert!(
            orthogonality_residual(&q) < 1e-12,
            "Q not orthogonal (n={n},b={b},k={k})"
        );
        let bd = red.band.to_dense();
        let r = similarity_residual(&a0, &q, &bd);
        assert!(r < 1e-11, "A ≠ Q B Qᵀ: {r} (n={n},b={b},k={k})");
    }

    #[test]
    fn dbbr_various_shapes() {
        check(24, 2, 8, 1);
        check(30, 3, 6, 3);
        check(33, 4, 8, 4); // ragged tail
        check(20, 4, 4, 5); // k == b: degenerates to SBR
        check(40, 2, 16, 6); // k large relative to n
        check(16, 1, 4, 7); // b = 1: direct tridiagonalization
    }

    #[test]
    fn dbbr_equals_sbr_band_up_to_signs() {
        // DBBR and SBR eliminate the same columns with the same reflector
        // spans, so the band entries agree up to column sign flips; compare
        // via eigenvalue-invariant quantities instead: trace and ‖·‖_F.
        let n = 26;
        let b = 2;
        let a0 = gen::random_symmetric(n, 10);
        let mut a1 = a0.clone();
        let red1 = crate::sbr::band_reduce(&mut a1, b, 8);
        let mut a2 = a0.clone();
        let red2 = dbbr(&mut a2, &DbbrConfig::new(b, 8));
        let d1 = red1.band.to_dense();
        let d2 = red2.band.to_dense();
        let tr = |m: &Mat| (0..n).map(|i| m[(i, i)]).sum::<f64>();
        assert!((tr(&d1) - tr(&d2)).abs() < 1e-10);
        let f1 = tg_matrix::frob_norm(&d1);
        let f2 = tg_matrix::frob_norm(&d2);
        assert!((f1 - f2).abs() < 1e-9);
    }

    #[test]
    fn dbbr_factor_offsets_match_sbr() {
        let n = 24;
        let b = 4;
        let a0 = gen::random_symmetric(n, 20);
        let mut a = a0.clone();
        let red = dbbr(&mut a, &DbbrConfig::new(b, 8));
        let offs: Vec<usize> = red.factors.iter().map(|(o, _)| *o).collect();
        assert_eq!(offs, vec![4, 8, 12, 16, 20]);
    }

    #[test]
    #[should_panic]
    fn k_must_be_multiple_of_b() {
        let _ = DbbrConfig::new(3, 7);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            DbbrConfig::try_new(0, 8),
            Err(DbbrConfigError::ZeroBandwidth)
        );
        assert_eq!(
            DbbrConfig::try_new(4, 0),
            Err(DbbrConfigError::ZeroAccumulation)
        );
        assert_eq!(
            DbbrConfig::try_new(8, 4),
            Err(DbbrConfigError::AccumulationTooNarrow { b: 8, k: 4 })
        );
        assert_eq!(
            DbbrConfig::try_new(3, 7),
            Err(DbbrConfigError::NotAMultiple { b: 3, k: 7 })
        );
        let cfg = DbbrConfig::try_new(4, 16).expect("valid");
        assert!(cfg.lookahead, "look-ahead is the default");
        // error messages are human-readable (new() panics with them)
        assert!(DbbrConfigError::NotAMultiple { b: 3, k: 7 }
            .to_string()
            .contains("multiple"));
    }

    /// The look-ahead contract: look-ahead on vs off is bitwise-identical —
    /// band, factor offsets, and every W/Y entry — including ragged tails.
    #[test]
    fn lookahead_is_bitwise_identical_to_serial() {
        for &(n, b, k, seed) in &[
            (48usize, 4usize, 8usize, 31u64),
            (51, 4, 12, 32), // ragged last panels, n % k ≠ 0
            (40, 2, 8, 33),
        ] {
            let a0 = gen::random_symmetric(n, seed);
            let mut serial_cfg = DbbrConfig::new(b, k);
            serial_cfg.nb_syr2k = 4; // small blocks so look-ahead engages
            serial_cfg.lookahead = false;
            let mut la_cfg = serial_cfg.clone();
            la_cfg.lookahead = true;

            let reference = dbbr(&mut a0.clone(), &serial_cfg);
            let mut out = a0.clone();
            let red = dbbr(&mut out, &la_cfg);
            assert_eq!(red.band, reference.band, "band differs (n={n},b={b},k={k})");
            assert_eq!(red.factors.len(), reference.factors.len());
            for ((o1, f1), (o2, f2)) in red.factors.iter().zip(&reference.factors) {
                assert_eq!(o1, o2);
                assert_eq!(f1.w, f2.w, "W differs (n={n},b={b},k={k})");
                assert_eq!(f1.y, f2.y, "Y differs (n={n},b={b},k={k})");
            }
        }
    }

    /// The look-ahead obeys the nested-fan-out rule: run inside a lane of
    /// a multi-lane fan-out (a batch or serve worker), its two tasks run
    /// inline on that lane instead of spawning a second `stage1.worker`.
    #[test]
    fn lookahead_inside_a_parallel_region_stays_on_one_lane() {
        let a0 = gen::random_symmetric(48, 36);
        let mut cfg = DbbrConfig::new(4, 8);
        cfg.nb_syr2k = 4; // small blocks so look-ahead engages
        let outer = Spans {
            region: "parallel.lookahead_lane_test",
            worker: "lookahead_lane_test.worker",
            task: "lookahead_lane_test.task",
        };
        let session = tg_trace::TraceSession::begin();
        run_tasks(outer, vec![(); 2], &mut [(); 2], |_, ()| {
            dbbr(&mut a0.clone(), &cfg);
        });
        let events = session.finish().events;
        // Concurrent tests record into the same global session: keep the
        // stage-1 regions opened on this test's lanes.
        let outer_id = events
            .iter()
            .find(|e| e.name == outer.region)
            .map(|e| e.region);
        let lanes: Vec<u64> = events
            .iter()
            .filter(|e| Some(e.region) == outer_id && e.cat == "worker")
            .map(|e| e.tid)
            .collect();
        let stage1: Vec<Option<u64>> = events
            .iter()
            .filter(|e| e.name == "parallel.stage1" && lanes.contains(&e.tid))
            .map(|e| e.region)
            .collect();
        assert!(!stage1.is_empty(), "look-ahead never engaged");
        assert!(
            events
                .iter()
                .filter(|e| e.name == "stage1.worker" && stage1.contains(&e.region))
                .all(|e| e.arg == Some(("w", 0))),
            "look-ahead spawned a lane inside a region"
        );
    }
}
