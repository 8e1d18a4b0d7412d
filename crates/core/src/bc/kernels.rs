//! Bulge-chasing kernels over shared band storage.
//!
//! These are the CPU analogues of the three GPU kernel types of §4.2
//! (Algorithm 2, lines 8–13): reflector generation, left/right application
//! to off-band blocks, and the two-sided update of the diagonal block.
//!
//! [`SharedBand`] is a raw view of a [`SymBand`]'s storage that multiple
//! sweep tasks may access concurrently. Safety relies entirely on the
//! Algorithm-2 progress protocol: at any instant, concurrently running tasks
//! touch index windows at least `2b` apart, hence disjoint storage columns.

use tg_matrix::SymBand;

/// Raw shared view of band storage (`data[c * ldab + (r − c)]` = `A[r][c]`).
///
/// `Sync` is sound only under the caller-enforced disjointness protocol —
/// see module docs. All access is bounds-checked in debug builds.
#[derive(Clone, Copy)]
pub struct SharedBand {
    ptr: *mut f64,
    len: usize,
    pub n: usize,
    pub ldab: usize,
}

unsafe impl Send for SharedBand {}
unsafe impl Sync for SharedBand {}

impl SharedBand {
    /// Wraps the storage of a band matrix. The caller must keep `band`
    /// alive and un-moved for the lifetime of the view.
    pub fn new(band: &mut SymBand) -> Self {
        let n = band.n();
        let ldab = band.ldab();
        let s = band.as_mut_slice();
        SharedBand {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            n,
            ldab,
        }
    }

    /// Reads `A[r][c]` (`r ≥ c`, inside storage band).
    ///
    /// # Safety
    /// Caller must hold exclusive logical access to the index window.
    #[inline]
    pub unsafe fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r >= c && r - c < self.ldab && r < self.n);
        let idx = c * self.ldab + (r - c);
        debug_assert!(idx < self.len);
        *self.ptr.add(idx)
    }

    /// Writes `A[r][c]`.
    ///
    /// # Safety
    /// Caller must hold exclusive logical access to the index window.
    #[inline]
    pub unsafe fn set(&self, r: usize, c: usize, v: f64) {
        debug_assert!(r >= c && r - c < self.ldab && r < self.n);
        let idx = c * self.ldab + (r - c);
        debug_assert!(idx < self.len);
        *self.ptr.add(idx) = v;
    }
}

/// Builds a reflector annihilating `A[r0+1..=r1, col]` (keeping `A[r0, col]`)
/// and writes `β` / zeros back into the column. Returns `(τ, v)` with
/// `v[0] = 1`.
///
/// # Safety
/// Exclusive logical access to rows `r0..=r1` of column `col`.
pub unsafe fn reflector_from_col(
    band: &SharedBand,
    col: usize,
    r0: usize,
    r1: usize,
) -> (f64, Vec<f64>) {
    let len = r1 - r0 + 1;
    let mut x = Vec::with_capacity(len);
    for r in r0..=r1 {
        x.push(band.get(r, col));
    }
    let refl = tg_householder::make_reflector(&mut x);
    band.set(r0, col, refl.beta);
    for r in r0 + 1..=r1 {
        band.set(r, col, 0.0);
    }
    let mut v = x;
    v[0] = 1.0;
    (refl.tau, v)
}

/// Left-applies `H = I − τ v vᵀ` (rows `r0..=r1`) to columns `c0..=c1`.
///
/// # Safety
/// Exclusive logical access to the block.
pub unsafe fn left_apply(band: &SharedBand, tau: f64, v: &[f64], r0: usize, c0: usize, c1: usize) {
    if tau == 0.0 || c1 < c0 {
        return;
    }
    debug_assert!(r0 + v.len() <= band.n);
    for c in c0..=c1 {
        let mut w = 0.0;
        for (i, &vi) in v.iter().enumerate() {
            w += vi * band.get(r0 + i, c);
        }
        let tw = tau * w;
        if tw != 0.0 {
            for (i, &vi) in v.iter().enumerate() {
                let r = r0 + i;
                band.set(r, c, band.get(r, c) - tw * vi);
            }
        }
    }
}

/// Right-applies `H` (columns `c0..=c1`, `v.len() == c1−c0+1`) to rows
/// `r0..=r1` of the sub-diagonal block (`r0 > c1`).
///
/// # Safety
/// Exclusive logical access to the block.
pub unsafe fn right_apply(band: &SharedBand, tau: f64, v: &[f64], c0: usize, r0: usize, r1: usize) {
    if tau == 0.0 || r1 < r0 {
        return;
    }
    debug_assert!(r0 > c0 + v.len() - 1, "block must be below the diagonal");
    for r in r0..=r1 {
        let mut w = 0.0;
        for (j, &vj) in v.iter().enumerate() {
            w += vj * band.get(r, c0 + j);
        }
        let tw = tau * w;
        if tw != 0.0 {
            for (j, &vj) in v.iter().enumerate() {
                let c = c0 + j;
                band.set(r, c, band.get(r, c) - tw * vj);
            }
        }
    }
}

/// Two-sided update `A ← H A H` of the symmetric diagonal block spanned by
/// rows/cols `r0..=r1`, touching only the stored lower triangle.
///
/// Uses the rank-2 form: `p = τ A v`, `w = p − ½τ(pᵀv)v`,
/// `A ← A − v wᵀ − w vᵀ`.
///
/// # Safety
/// Exclusive logical access to the block.
pub unsafe fn two_sided_apply(band: &SharedBand, tau: f64, v: &[f64], r0: usize) {
    if tau == 0.0 {
        return;
    }
    let len = v.len();
    // p = τ A v using the lower triangle + symmetry
    let mut p = vec![0.0; len];
    for j in 0..len {
        let c = r0 + j;
        // diagonal
        p[j] += band.get(c, c) * v[j];
        for i in (j + 1)..len {
            let r = r0 + i;
            let a = band.get(r, c);
            p[i] += a * v[j];
            p[j] += a * v[i];
        }
    }
    let mut pv = 0.0;
    for i in 0..len {
        p[i] *= tau;
        pv += p[i] * v[i];
    }
    let half = 0.5 * tau * pv;
    let mut w = p;
    for i in 0..len {
        w[i] -= half * v[i];
    }
    // A ← A − v wᵀ − w vᵀ on the lower triangle
    for j in 0..len {
        let c = r0 + j;
        for i in j..len {
            let r = r0 + i;
            band.set(r, c, band.get(r, c) - v[i] * w[j] - w[i] * v[j]);
        }
    }
}

/// Executes one full sweep `s` of bulge chasing (Algorithm 2 body).
///
/// `gate(col)` is invoked before each task with the task's working column —
/// the pipeline implementation blocks there until the previous sweep is
/// `2b` ahead and then publishes its own progress; the sequential version
/// passes a no-op.
///
/// Returns the reflectors generated by this sweep, in application order.
///
/// # Safety
/// Concurrent callers must uphold the Algorithm-2 spacing protocol through
/// their `gate` implementations.
pub unsafe fn run_sweep(
    band: &SharedBand,
    b: usize,
    s: usize,
    mut gate: impl FnMut(usize),
) -> Vec<super::BcReflector> {
    let n = band.n;
    if s + 2 >= n || b <= 1 {
        return Vec::new(); // nothing below the first subdiagonal
    }
    tg_trace::add(tg_trace::Counter::Sweeps, 1);

    // ── task 0 (kernel type 1): eliminate column s
    gate(s);
    tg_trace::add(tg_trace::Counter::BulgeTasks, 1);
    let (mut first, mut last) = (s + 1, (s + b).min(n - 1));
    let (mut tau, mut v) = reflector_from_col(band, s, first, last);
    two_sided_apply(band, tau, &v, first);
    let mut out = vec![super::BcReflector {
        col: s,
        row0: first,
        tau,
        v: v.clone(),
    }];

    // ── chase tasks (kernel types 2 + 3), until the bulge leaves the band
    while last + 1 < n {
        gate(first);
        tg_trace::add(tg_trace::Counter::BulgeTasks, 1);
        let (r0, r1, col) = (last + 1, (last + b).min(n - 1), first);
        // type 2a: right-apply the previous reflector — materializes the
        // bulge
        right_apply(band, tau, &v, first, r0, r1);
        // type 2b: annihilate the bulge's first column
        let (next_tau, next_v) = reflector_from_col(band, col, r0, r1);
        // type 2c: left-apply to the rest of the bulge block
        left_apply(band, next_tau, &next_v, r0, col + 1, last);
        // type 3: two-sided update of the next diagonal block
        two_sided_apply(band, next_tau, &next_v, r0);
        out.push(super::BcReflector {
            col,
            row0: r0,
            tau: next_tau,
            v: next_v.clone(),
        });
        (first, last, tau, v) = (r0, r1, next_tau, next_v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;

    #[test]
    fn shared_band_get_set_round_trip() {
        let mut band = SymBand::with_storage(6, 2, 5);
        let sb = SharedBand::new(&mut band);
        unsafe {
            sb.set(3, 1, 7.5);
            assert_eq!(sb.get(3, 1), 7.5);
        }
        assert_eq!(band.at(3, 1), 7.5);
    }

    #[test]
    fn two_sided_kernel_matches_dense() {
        // compare the band-storage two-sided kernel against the dense one
        let n = 6;
        let a0 = gen::random_symmetric(n, 5);
        let mut band = SymBand::with_storage(n, n - 1, n);
        for j in 0..n {
            for i in j..n {
                *band.at_mut(i, j) = a0[(i, j)];
            }
        }
        let mut x: Vec<f64> = (0..4).map(|i| 0.5 - i as f64).collect();
        let r = tg_householder::make_reflector(&mut x);
        let mut v = x.clone();
        v[0] = 1.0;
        let sb = SharedBand::new(&mut band);
        unsafe {
            two_sided_apply(&sb, r.tau, &v, 1);
        }
        // dense reference
        let mut dense = a0.clone();
        {
            let mut block = dense.view_mut(1, 1, 4, 4);
            tg_householder::apply_two_sided_lower(r.tau, &v[1..], &mut block);
        }
        for j in 0..n {
            for i in j..n {
                let expect = if (1..5).contains(&i) && (1..5).contains(&j) {
                    dense[(i, j)]
                } else {
                    a0[(i, j)]
                };
                assert!(
                    (band.at(i, j) - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {expect}",
                    band.at(i, j)
                );
            }
        }
    }
}
