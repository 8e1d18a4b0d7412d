//! Blocked bulge-chasing back transformation — the paper's stated future
//! work (§8: the BC back transformation dominates the with-vectors EVD at
//! 61 % of total time; "Future work will focus on optimizing this back
//! transformation process").
//!
//! Sweep `s`'s task-`t` reflector acts on rows `s+1+tb ..= s+(t+1)b`, so
//! within one sweep the reflectors are disjoint and commute, and across
//! sweeps `s` and `s+d` (`0 < d < b`) task `t` overlaps only tasks `t` and
//! `t+1` of sweep `s`. Blocking one *whole sweep* is therefore free to
//! build but not to apply: its `Y` is block-diagonal over all `n` rows, and
//! a dense `rows × (n/b)` GEMM does `O(n/b)` times the useful work.
//!
//! Instead, [`SWEEP_GROUP`] consecutive sweeps are grouped **by task
//! index** (the PLASMA/MAGMA two-stage back transformation, Haidar, Ltaief
//! & Dongarra, SC'11): block `(group, t)` holds the ≤ `G` task-`t`
//! reflectors of the group's sweeps, a staircase `Y` of `(b+G−1) × G`.
//! Emitting the blocks of a group in descending `t` keeps every
//! non-commuting pair in product order:
//!
//! ```text
//! ∏_s ∏_t H(s,t)  =  ∏_group ∏_{t descending} [H(s₀,t) H(s₀+1,t) ⋯ H(s₀+G−1,t)]
//! ```
//!
//! Each block costs `4(b+G−1)·G` flops per column against `4bG` useful,
//! so with `G ≤ b` the performed work stays below twice the useful work.

use super::{BcReflector, BcResult};
use crate::AllocPool;
use tg_householder::wblock::WyPair;

/// Sweeps per grouped block, before the clamp to the bandwidth `b`.
/// Picked from the `G` table in EXPERIMENTS.md ("Grouped Q₂ blocks").
pub const SWEEP_GROUP: usize = 4;

impl BcResult {
    /// The bandwidth `b` the reflectors were generated with: sweep 0's
    /// task-0 reflector spans `min(b, n − 1)` rows.
    fn bandwidth(&self) -> usize {
        self.reflectors
            .first()
            .and_then(|s| s.first())
            .map_or(1, |r| r.v.len())
    }

    /// `Q₂` as cross-sweep grouped `(offset, W, Y)` blocks in product
    /// order (groups ascending, task index descending within a group; see
    /// the module docs), with pool-acquired storage — built **once** so the
    /// panel-parallel back transformation can share the blocks read-only
    /// across column panels. Release with
    /// [`crate::backtransform::release_blocks`].
    pub fn sweep_blocks_ws(&self, pool: &mut AllocPool) -> Vec<(usize, WyPair)> {
        let _span = tg_trace::span_cat(
            "backtransform.sweep_blocks",
            "stage",
            Some(("sweeps", self.reflectors.len() as u64)),
        );
        let b = self.bandwidth();
        let group = SWEEP_GROUP.min(b);
        let mut blocks = Vec::new();
        for sweeps in self.reflectors.chunks(group) {
            let tasks = sweeps.iter().map(Vec::len).max().unwrap_or(0);
            for t in (0..tasks).rev() {
                blocks.extend(task_block(sweeps, t, b, pool));
            }
        }
        blocks
    }
}

/// The block of the task-`t` reflectors of `sweeps` (consecutive sweeps,
/// ascending): `H(s₀,t) ⋯ H(s₀+G−1,t) = I − W Yᵀ`, with `W` accumulated by
/// the Algorithm-3 recurrence `W ← [W | τ(v − W(Yᵀv))]`. `None` when every
/// reflector is the identity.
fn task_block(
    sweeps: &[Vec<BcReflector>],
    t: usize,
    b: usize,
    pool: &mut AllocPool,
) -> Option<(usize, WyPair)> {
    let base = sweeps[0][0].row0 + t * b;
    let active: Vec<&BcReflector> = sweeps
        .iter()
        .enumerate()
        .filter_map(|(d, s)| {
            let r = s.get(t)?;
            // The ordering argument's precondition: sweep s₀+d's task t
            // starts d rows below sweep s₀'s, with d < b and spans ≤ b, so
            // it overlaps only sweep s₀'s tasks t and t+1.
            debug_assert!(d < b && r.row0 == base + d && r.v.len() <= b);
            (r.tau != 0.0).then_some(r)
        })
        .collect();
    let r0 = active.first()?.row0;
    let rows = active.iter().map(|r| r.row0 + r.v.len()).max().unwrap() - r0;
    let mut y = pool.acquire(rows, active.len());
    let mut w = pool.acquire(rows, active.len());
    let mut z = vec![0.0; active.len()];
    for (j, r) in active.iter().enumerate() {
        let top = r.row0 - r0;
        y.col_mut(j)[top..top + r.v.len()].copy_from_slice(&r.v);
        // z = Yᵀv over the earlier columns, then w_j = τ(v − W z).
        for (i, zi) in z.iter_mut().enumerate().take(j) {
            *zi = y.col(i)[top..top + r.v.len()]
                .iter()
                .zip(&r.v)
                .map(|(a, b)| a * b)
                .sum();
        }
        let mut wj = y.col(j).to_vec();
        for (i, &zi) in z.iter().enumerate().take(j) {
            for (x, &wi) in wj.iter_mut().zip(w.col(i)) {
                *x -= wi * zi;
            }
        }
        for (dst, x) in w.col_mut(j).iter_mut().zip(wj) {
            *dst = r.tau * x;
        }
    }
    Some((r0, WyPair { w, y }))
}

#[cfg(test)]
mod tests {
    use crate::backtransform::{
        apply_blocks_panels, apply_blocks_panels_with_kernel, apply_q1, release_blocks, PanelPools,
    };
    use crate::bc::{bulge_chase_seq, BcResult};
    use crate::AllocPool;
    use tg_matrix::{gen, max_abs_diff, Mat, SymBand};

    fn setup(n: usize, b: usize, seed: u64) -> BcResult {
        let dense = gen::random_symmetric_band(n, b, seed);
        bulge_chase_seq(&SymBand::from_dense_lower(&dense, b))
    }

    /// `C ← Q₂ C` through the grouped blocks and the production panel
    /// apply; `C ← Q₂ᵀ C` through the conventional-order apply of the same
    /// blocks, the only transposed block apply there is.
    fn apply_grouped(res: &BcResult, c: &mut Mat, trans: bool) {
        let blocks = res.sweep_blocks_ws(&mut AllocPool);
        if trans {
            apply_q1(&blocks, c, true);
        } else {
            apply_blocks_panels(&blocks, c, 2, &mut PanelPools::new());
        }
        release_blocks(blocks, &mut AllocPool);
    }

    /// Grouped blocks vs the reflector-by-reflector apply, both directions.
    fn assert_matches_reflectors(res: &BcResult, c0: &Mat, tol: f64) {
        for trans in [false, true] {
            let mut reference = c0.clone();
            res.apply_q_left(&mut reference, trans);
            let mut blocked = c0.clone();
            apply_grouped(res, &mut blocked, trans);
            let err = max_abs_diff(&reference, &blocked);
            assert!(err < tol, "trans = {trans}: {err}");
        }
    }

    #[test]
    fn grouped_blocks_reproduce_reflector_product() {
        // b = 3 clamps the group to 3 sweeps; 18 sweeps (n = 20) and 22
        // (n = 24) are not all multiples of it.
        assert_matches_reflectors(&setup(20, 3, 1), &gen::random(20, 4, 2), 1e-12);
        assert_matches_reflectors(&setup(24, 3, 5), &gen::random(24, 6, 6), 1e-12);
        // b ≥ SWEEP_GROUP: full-width groups, ragged last group.
        assert_matches_reflectors(&setup(61, 9, 11), &gen::random(61, 5, 12), 1e-12);
    }

    #[test]
    fn blocked_trans_inverts() {
        let res = setup(18, 2, 3);
        let c0 = gen::random(18, 5, 4);
        let mut c = c0.clone();
        apply_grouped(&res, &mut c, false);
        apply_grouped(&res, &mut c, true);
        assert!(max_abs_diff(&c, &c0) < 1e-12);
    }

    #[test]
    fn grouped_blocks_are_narrow_staircases() {
        let (n, b) = (64, 6);
        let res = setup(n, b, 13);
        let g = super::SWEEP_GROUP.min(b);
        let blocks = res.sweep_blocks_ws(&mut AllocPool);
        for (off, f) in &blocks {
            assert!(f.width() <= g && f.w.nrows() < b + g);
            assert!(off + f.w.nrows() <= n);
        }
        release_blocks(blocks, &mut AllocPool);
    }

    /// The production panel apply of the grouped blocks, on every kernel
    /// build this CPU runs, against the reflector-by-reflector apply.
    #[test]
    fn narrow_panel_apply_matches_reflectors_on_every_kernel() {
        use crate::PANEL_COLS;
        use tg_blas::Kernel;
        // b = 2, 3 < SWEEP_GROUP (blocks narrower than 4); b = 9 full
        // groups. Every n leaves a ragged last panel.
        for (n, b, seed) in [(37usize, 2usize, 21u64), (45, 3, 23), (70, 9, 25)] {
            assert_ne!(n % PANEL_COLS, 0);
            let res = setup(n, b, seed);
            let blocks = res.sweep_blocks_ws(&mut AllocPool);
            assert!(
                blocks.iter().any(|(o, f)| o + f.w.nrows() == n),
                "a block ends on row n − 1"
            );
            let c0 = gen::random(n, n, seed + 1);
            let mut reference = c0.clone();
            res.apply_q_left(&mut reference, false);
            for kernel in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
                let mut c = c0.clone();
                apply_blocks_panels_with_kernel(&blocks, &mut c, 2, &mut PanelPools::new(), kernel);
                let err = max_abs_diff(&reference, &c);
                assert!(err < 1e-12, "n = {n}, b = {b}, {kernel:?}: {err}");
            }
            release_blocks(blocks, &mut AllocPool);
        }
    }

    #[test]
    fn blocked_q_is_orthogonal() {
        let res = setup(22, 4, 7);
        let mut q = Mat::identity(22);
        apply_grouped(&res, &mut q, false);
        assert!(tg_matrix::orthogonality_residual(&q) < 1e-12);
    }

    #[test]
    fn trivial_no_reflectors() {
        // tridiagonal input ⇒ no reflectors ⇒ identity application
        let t = gen::random_tridiagonal(8, 8);
        let band = SymBand::from_dense_lower(&t.to_dense(), 1);
        let res = bulge_chase_seq(&band);
        let c0 = gen::random(8, 3, 9);
        let mut c = c0.clone();
        apply_grouped(&res, &mut c, false);
        assert_eq!(c, c0);
    }
}
