//! Back transformation for the band-reduction stage (§4.3, §5.3).
//!
//! After SBR/DBBR, `A = Q₁ B Q₁ᵀ` with
//! `Q₁ = (I − W₁Y₁ᵀ)(I − W₂Y₂ᵀ) ⋯ (I − W_pY_pᵀ)`, each factor acting on a
//! trailing row range. Eigenvectors of `B` are mapped back with `Q₁ · X`.
//!
//! * [`apply_q1`] — conventional `ormqr` ordering: one factor at a time,
//!   every GEMM has inner dimension `b` (slow on wide GPUs — Figure 14's
//!   baseline). It applies any ordered block list, in either direction,
//!   so it is also the tolerance oracle for the blocked path.
//! * The Figure-13 scheme, the only blocked implementation: factors are
//!   merged pairwise (batched) into blocks of width `≥ target_k` **once**
//!   ([`merge_q1_blocked_ws`]), so the apply GEMMs become `n × k`-sized at
//!   the cost of extra flops for the merged `W`s. The merged read-only
//!   blocks are then applied to fixed-width *column panels* of `C` as one
//!   task list ([`apply_blocks_panels`]). Within a panel, runs of narrow
//!   blocks (width ≤ [`SWEEP_GROUP`]: the bulge-chasing Q₂ blocks) take the
//!   fused row-major kernel of [`tg_blas::narrow`]; wider blocks take two
//!   GEMMs. `TridiagResult::apply_q_blocked` runs both halves.
//!
//! # Why panels split columns, never the factor product
//!
//! The factor product `F₁F₂⋯F_p` is ordered — the factors overlap row
//! ranges and do not commute — so parallelizing across *factors* would
//! change the arithmetic. Columns of `C` are the independent axis: each
//! eigenvector is transformed by the same ordered product with no data
//! shared between columns. Partitioning `C` into **fixed-width** panels
//! (width [`PANEL_COLS`], independent of the worker count) keeps the
//! per-panel kernel shapes — and therefore the kernel dispatch and the
//! floating-point evaluation order — identical no matter how many workers
//! drain the panel queue, so the result is bitwise-identical at every
//! `TG_THREADS`. The serial path is literally the same panels applied in
//! order.

use crate::bc::backward::SWEEP_GROUP;
use crate::AllocPool;
use tg_blas::narrow;
use tg_blas::threads::{run_tasks, Spans};
use tg_blas::{gemm, gemm_into, Kernel, Op};
use tg_householder::wblock::{merge_to_width_ws, WyPair};
use tg_matrix::{Mat, MatMut};

/// Eigenvector-panel width for the parallel apply. Fixed — deliberately
/// *not* derived from the worker count or `C`'s shape — so the per-panel
/// shapes (and with them the dispatch and summation order) are invariant
/// under `TG_THREADS`; see the module docs. 32 columns is the narrow
/// kernel's register tile (a `4 × 32` `YᵀC` is 16 zmm registers) and
/// keeps a wide Q₁ block's `k × 32` update above the packed-GEMM
/// threshold, while still yielding enough panels to feed 8 workers at
/// `n = 256`.
pub const PANEL_COLS: usize = 32;

/// Applies `Q₁` (or `Q₁ᵀ`) to `C` one factor at a time (conventional order).
///
/// `factors[i] = (offset, I − WᵢYᵢᵀ)` in product order
/// (`Q₁ = F₁ F₂ ⋯ F_p`, offsets ascending).
pub fn apply_q1(factors: &[(usize, WyPair)], c: &mut Mat, trans: bool) {
    if trans {
        // Q₁ᵀ C = F_pᵀ ⋯ F₁ᵀ C : forward order, transposed factors
        for (off, f) in factors {
            let mut sub = c.view_mut(*off, 0, f.w.nrows(), c.ncols());
            apply_factor_trans(f, &mut sub);
        }
    } else {
        // Q₁ C = F₁ (F₂ (⋯ F_p C)) : reverse order
        for (off, f) in factors.iter().rev() {
            let mut sub = c.view_mut(*off, 0, f.w.nrows(), c.ncols());
            f.apply_left(&mut sub);
        }
    }
}

/// `(I − W Yᵀ)ᵀ C = C − Y (Wᵀ C)`.
fn apply_factor_trans(f: &WyPair, c: &mut MatMut<'_>) {
    let x = gemm_into(1.0, &f.w.as_ref(), Op::Trans, &c.rb(), Op::NoTrans);
    gemm(
        -1.0,
        &f.y.as_ref(),
        Op::NoTrans,
        &x.as_ref(),
        Op::NoTrans,
        1.0,
        c,
    );
}

/// Zero-pads a factor with `pad` rows on top (embedding it in a larger
/// identity) so factors with different supports can be merged. The padded
/// storage is pool-acquired (caller releases).
fn pad_top_ws(f: &WyPair, pad: usize, rows: usize, pool: &mut AllocPool) -> WyPair {
    let k = f.width();
    let m = f.w.nrows();
    assert!(pad + m <= rows);
    let mut w = pool.acquire(rows, k);
    w.view_mut(pad, 0, m, k).copy_from(&f.w.as_ref());
    let mut y = pool.acquire(rows, k);
    y.view_mut(pad, 0, m, k).copy_from(&f.y.as_ref());
    WyPair { w, y }
}

/// The merge half of the Figure-13 back transformation, run **once** so
/// the wide blocks can be shared read-only across all column panels. Consecutive
/// factors are grouped until each group holds `target_k / b` factors;
/// within a group the factors are zero-padded to the group's leading
/// offset and merged level-by-level with batched GEMMs
/// ([`merge_to_width_ws`]). Every temporary and the merged `W`/`Y`
/// storage is drawn from `pool`.
///
/// Returns the merged `(offset, factor)` list in product order; every
/// returned matrix is pool-acquired — release with [`release_blocks`].
pub fn merge_q1_blocked_ws(
    factors: &[(usize, WyPair)],
    target_k: usize,
    pool: &mut AllocPool,
) -> Vec<(usize, WyPair)> {
    let _span = tg_trace::span_cat(
        "backtransform.merge",
        "stage",
        Some(("factors", factors.len() as u64)),
    );
    if factors.is_empty() {
        return Vec::new();
    }
    let b = factors.iter().map(|(_, f)| f.width()).max().unwrap_or(1);
    let per_group = (target_k / b.max(1)).max(1);
    let mut merged: Vec<(usize, WyPair)> = Vec::new();
    for chunk in factors.chunks(per_group) {
        let off0 = chunk[0].0; // smallest offset (offsets ascend)
        let rows = chunk.iter().map(|(o, f)| f.w.nrows() + o).max().unwrap() - off0;
        let padded: Vec<WyPair> = chunk
            .iter()
            .map(|(o, f)| pad_top_ws(f, o - off0, rows, pool))
            .collect();
        let wide = merge_to_width_ws(padded, target_k, pool);
        for f in wide {
            merged.push((off0, f));
        }
    }
    merged
}

/// Releases every matrix of a pool-acquired block list (the counterpart of
/// [`merge_q1_blocked_ws`] / `BcResult::sweep_blocks_ws`).
pub fn release_blocks(blocks: Vec<(usize, WyPair)>, pool: &mut AllocPool) {
    for (_, f) in blocks {
        pool.release(f.w);
        pool.release(f.y);
    }
}

/// Per-lane scratch for the panel loop: one grow-only buffer per worker
/// lane, kept across calls. It is never re-zeroed: every kernel that takes
/// it (the narrow run's row-major load, a wide block's `β = 0` `YᵀC`)
/// writes each element before reading it, so no panel can read bits a
/// previous panel (or problem) left behind.
#[derive(Default)]
pub struct PanelPools {
    lanes: Vec<Vec<f64>>,
}

impl PanelPools {
    pub fn new() -> Self {
        Self::default()
    }

    /// At least `workers` lane buffers, growing on demand.
    fn for_workers(&mut self, workers: usize) -> &mut [Vec<f64>] {
        if self.lanes.len() < workers {
            self.lanes.resize_with(workers, Vec::new);
        }
        &mut self.lanes[..workers]
    }
}

/// Applies the ordered block-factor product `F₁F₂⋯F_p` (each entry
/// `(offset, I − WYᵀ)`) to `C` from the left, partitioned into
/// [`PANEL_COLS`]-wide column panels drained by `workers` lanes of
/// [`tg_blas::threads::run_tasks`].
///
/// The blocks are shared read-only; each panel applies the full product in
/// reverse order with one scratch from its lane's buffer in
/// `panel_pools` (the row-major copy of a run of narrow blocks, or a wide
/// block's `YᵀC`).
/// Panel boundaries are independent of `workers`, so the
/// result is bitwise-identical for every worker count (one worker applies
/// the same panels in order on the calling thread). Lanes of a multi-worker
/// fan-out enter the `tg_blas::threads` nested-fan-out guard so inner GEMMs
/// stay serial; a single worker keeps intra-kernel parallelism.
pub fn apply_blocks_panels(
    blocks: &[(usize, WyPair)],
    c: &mut Mat,
    workers: usize,
    panel_pools: &mut PanelPools,
) {
    apply_blocks_panels_with_kernel(blocks, c, workers, panel_pools, tg_blas::kernel());
}

/// [`apply_blocks_panels`] with the narrow blocks on an explicit kernel
/// build instead of the process's, so tests can compare builds in one
/// process.
pub(crate) fn apply_blocks_panels_with_kernel(
    blocks: &[(usize, WyPair)],
    c: &mut Mat,
    workers: usize,
    panel_pools: &mut PanelPools,
    kernel: Kernel,
) {
    let ncols = c.ncols();
    if blocks.is_empty() || ncols == 0 {
        return;
    }
    // Carve C into disjoint fixed-width column panels.
    let mut panels: Vec<MatMut<'_>> = Vec::with_capacity(ncols.div_ceil(PANEL_COLS));
    let mut rest = c.view_mut(0, 0, c.nrows(), ncols);
    while rest.ncols() > 0 {
        let w = rest.ncols().min(PANEL_COLS);
        let (p, r) = rest.split_at_col(w);
        panels.push(p);
        rest = r;
    }
    let workers = workers.max(1).min(panels.len());
    let spans = Spans {
        region: "parallel.backtransform",
        worker: "backtransform.worker",
        task: "backtransform.panel",
    };
    run_tasks(
        spans,
        panels,
        panel_pools.for_workers(workers),
        |buf, mut panel| apply_blocks_to_panel(blocks, &mut panel, buf, kernel),
    );
}

/// One panel's work: the full ordered product, reverse order. Maximal
/// runs of consecutive narrow blocks go through the fused row-major
/// kernel; every other block through [`WyPair::apply_left_in`], on
/// exactly the rows it acts on. One scratch in `buf`, grown but not
/// cleared, serves both: the row-major copy of a run, or a wide block's
/// `YᵀC`.
fn apply_blocks_to_panel(
    blocks: &[(usize, WyPair)],
    panel: &mut MatMut<'_>,
    buf: &mut Vec<f64>,
    kernel: Kernel,
) {
    let cols = panel.ncols();
    let widest = blocks.iter().map(|(_, f)| f.width()).max().unwrap_or(0);
    let len = (panel.nrows() * narrow::row_stride(cols)).max(widest * cols);
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let scratch = &mut buf[..len];
    let mut end = blocks.len();
    while end > 0 {
        let run_is_narrow = is_narrow(&blocks[end - 1].1);
        let start = blocks[..end]
            .iter()
            .rposition(|(_, f)| is_narrow(f) != run_is_narrow)
            .map_or(0, |i| i + 1);
        let run = &blocks[start..end];
        if run_is_narrow {
            apply_narrow_run(run, panel, scratch, kernel);
        } else {
            for (off, f) in run.iter().rev() {
                let (_, below) = panel.rb_mut().split_at_row(*off);
                let (mut sub, _) = below.split_at_row(f.w.nrows());
                f.apply_left_in(&mut sub, scratch);
            }
        }
        end = start;
    }
}

/// The dispatch-by-width rule: blocks no wider than [`SWEEP_GROUP`] — every
/// grouped Q₂ block, and a Q₁ group too small to merge past it — take the
/// fused narrow kernel.
fn is_narrow(f: &WyPair) -> bool {
    f.width() <= SWEEP_GROUP
}

// The narrow kernel must hold every narrow block and a full panel.
const _: () = assert!(SWEEP_GROUP <= narrow::MAX_WIDTH && PANEL_COLS <= narrow::MAX_COLS);

/// Applies a run of narrow blocks (product order; applied last to first)
/// to the rows of `panel` they span, through one row-major copy of those
/// rows in `scratch`.
fn apply_narrow_run(
    run: &[(usize, WyPair)],
    panel: &mut MatMut<'_>,
    scratch: &mut [f64],
    kernel: Kernel,
) {
    let _span = tg_trace::span_cat(
        "backtransform.apply_narrow",
        "kernel",
        Some(("blocks", run.len() as u64)),
    );
    let lo = run.iter().map(|(o, _)| *o).min().unwrap_or(0);
    let hi = run.iter().map(|(o, f)| o + f.w.nrows()).max().unwrap_or(lo);
    let (_, below) = panel.rb_mut().split_at_row(lo);
    let (mut rows, _) = below.split_at_row(hi - lo);
    narrow::apply_narrow_run(
        kernel,
        run.iter()
            .rev()
            .map(|(o, f)| (o - lo, f.w.as_ref(), f.y.as_ref())),
        &mut rows,
        scratch,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbr::band_reduce;
    use tg_matrix::{gen, max_abs_diff};

    fn setup(n: usize, b: usize, seed: u64) -> Vec<(usize, WyPair)> {
        let mut a = gen::random_symmetric(n, seed);
        band_reduce(&mut a, b, 8).factors
    }

    /// `Q₁ C` through the Figure-13 path: merge once, apply panel-parallel.
    fn apply_blocked(factors: &[(usize, WyPair)], c: &mut Mat, target_k: usize, workers: usize) {
        let merged = merge_q1_blocked_ws(factors, target_k, &mut AllocPool);
        apply_blocks_panels(&merged, c, workers, &mut PanelPools::new());
        release_blocks(merged, &mut AllocPool);
    }

    #[test]
    fn conventional_matches_form_q() {
        let n = 20;
        let factors = setup(n, 3, 1);
        let mut q = Mat::identity(n);
        apply_q1(&factors, &mut q, false);
        // cross-check against BandReduction::form_q by rebuilding
        let mut a = gen::random_symmetric(n, 1);
        let red = band_reduce(&mut a, 3, 8);
        let q_ref = red.form_q(n);
        assert!(max_abs_diff(&q, &q_ref) < 1e-13);
    }

    #[test]
    fn trans_is_inverse() {
        let n = 18;
        let factors = setup(n, 2, 2);
        let c0 = gen::random(n, 5, 10);
        let mut c = c0.clone();
        apply_q1(&factors, &mut c, false);
        apply_q1(&factors, &mut c, true);
        assert!(max_abs_diff(&c, &c0) < 1e-12);
    }

    #[test]
    fn blocked_matches_conventional() {
        let n = 28;
        let b = 2;
        let factors = setup(n, b, 3);
        let c0 = gen::random(n, 6, 20);
        for target_k in [2usize, 4, 8, 64] {
            let mut c1 = c0.clone();
            apply_q1(&factors, &mut c1, false);
            let mut c2 = c0.clone();
            apply_blocked(&factors, &mut c2, target_k, 1);
            assert!(
                max_abs_diff(&c1, &c2) < 1e-11,
                "target_k={target_k}: {}",
                max_abs_diff(&c1, &c2)
            );
        }
    }

    #[test]
    fn blocked_on_single_factor() {
        let n = 10;
        let factors = setup(n, 4, 4);
        let c0 = gen::random(n, 3, 30);
        let mut c1 = c0.clone();
        apply_q1(&factors, &mut c1, false);
        let mut c2 = c0.clone();
        apply_blocked(&factors, &mut c2, 1024, 1);
        assert!(max_abs_diff(&c1, &c2) < 1e-12);
    }

    #[test]
    fn empty_factors_noop() {
        let c0 = gen::random(5, 2, 40);
        let mut c = c0.clone();
        apply_q1(&[], &mut c, false);
        apply_blocked(&[], &mut c, 8, 4);
        assert_eq!(c, c0);
    }

    /// Q₁'s merged blocks (width-`target_k` groups) followed by Q₂'s grouped
    /// sweep blocks: the product order of the with-vectors back
    /// transformation. Also returns the Q₁ blocks' widths. Pool-acquired;
    /// release with [`release_blocks`].
    fn q1_q2_blocks(
        n: usize,
        b: usize,
        target_k: usize,
        seed: u64,
    ) -> (Vec<(usize, WyPair)>, Vec<usize>) {
        let mut a = gen::random_symmetric(n, seed);
        let red = band_reduce(&mut a, b, 8);
        let mut blocks = merge_q1_blocked_ws(&red.factors, target_k, &mut AllocPool);
        let q1_widths = blocks.iter().map(|(_, f)| f.width()).collect();
        blocks.extend(crate::bc::bulge_chase_seq(&red.band).sweep_blocks_ws(&mut AllocPool));
        (blocks, q1_widths)
    }

    #[test]
    fn panel_apply_matches_conventional_and_is_worker_invariant() {
        let n = 40;
        let factors = setup(n, 3, 6);
        // More columns than one panel so the partition is non-trivial, and
        // a ragged final panel (n+PANEL_COLS/2 columns) to cover the
        // short-panel dispatch path.
        let cols = PANEL_COLS + PANEL_COLS / 2 + 3;
        let c0 = gen::random(n, cols, 60);
        let mut reference = c0.clone();
        apply_q1(&factors, &mut reference, false);

        let mut serial = c0.clone();
        apply_blocked(&factors, &mut serial, 8, 1);
        assert!(
            max_abs_diff(&reference, &serial) < 1e-11,
            "{}",
            max_abs_diff(&reference, &serial)
        );

        for workers in [2usize, 3, 4, 7] {
            let mut par = c0.clone();
            apply_blocked(&factors, &mut par, 8, workers);
            assert_eq!(serial, par, "workers = {workers} must be bitwise-identical");
        }

        // A list with narrow blocks at n = 36: Q₁'s eleven width-3 factors
        // merge in pairs to width 6, the odd one is left over as a narrow
        // group, then Q₂'s blocks follow it in the same narrow run.
        let (blocks, q1_widths) = q1_q2_blocks(36, 3, 6, 9);
        assert_eq!(q1_widths, [6, 6, 6, 6, 6, 3]);
        let c0 = gen::random(36, cols, 61);
        let mut reference = c0.clone();
        apply_q1(&blocks, &mut reference, false);
        let mut serial = c0.clone();
        apply_blocks_panels(&blocks, &mut serial, 1, &mut PanelPools::new());
        let diff = max_abs_diff(&reference, &serial);
        assert!(diff < 1e-12, "{diff}");
        for workers in [2usize, 3, 7] {
            let mut par = c0.clone();
            apply_blocks_panels(&blocks, &mut par, workers, &mut PanelPools::new());
            assert_eq!(serial, par, "workers = {workers} must be bitwise-identical");
        }
        release_blocks(blocks, &mut AllocPool);
    }

    #[test]
    fn narrow_runs_match_the_gemm_path_on_every_kernel() {
        // n = 20, b = 2: every Q₁ group is narrow, so one run spans all of
        // Q₂ and Q₁. n = 36, b = 3: wide Q₁ groups and a narrow leftover.
        for (n, b, target_k, q1) in [
            (20usize, 2usize, 4usize, &[4usize, 4, 4, 4, 2][..]),
            (36, 3, 6, &[6, 6, 6, 6, 6, 3][..]),
        ] {
            let (blocks, q1_widths) = q1_q2_blocks(n, b, target_k, 9);
            assert_eq!(q1_widths, q1);
            let c0 = gen::random(n, n, 10);
            let mut reference = c0.clone();
            apply_q1(&blocks, &mut reference, false);
            for kernel in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
                let mut c = c0.clone();
                apply_blocks_panels_with_kernel(&blocks, &mut c, 2, &mut PanelPools::new(), kernel);
                let diff = max_abs_diff(&reference, &c);
                assert!(diff < 1e-12, "n = {n}, {kernel:?}: {diff}");
            }
            release_blocks(blocks, &mut AllocPool);
        }
    }
}
