//! Bisection eigenvalues (`dstebz` analogue).
//!
//! Independent of both the QL iteration and divide & conquer, this solver
//! is the workspace's *verification oracle*: it computes eigenvalues from
//! Sturm counts alone (guaranteed bracketing, no iteration-convergence
//! questions).

use tg_matrix::Tridiagonal;

/// Computes eigenvalues `index_lo..index_hi` (0-based, half-open, ascending
/// order) by Sturm-count bisection, each to absolute accuracy
/// `~2·ε·max(|λ|, ‖T‖)`.
pub fn eigenvalues_by_index(t: &Tridiagonal, index_lo: usize, index_hi: usize) -> Vec<f64> {
    let n = t.n();
    assert!(index_lo <= index_hi && index_hi <= n);
    if index_lo == index_hi {
        return Vec::new();
    }
    let (glo, ghi) = t.gershgorin();
    let scale = glo.abs().max(ghi.abs()).max(f64::MIN_POSITIVE);
    let pad = 2.0 * f64::EPSILON * scale + f64::MIN_POSITIVE;
    (index_lo..index_hi)
        .map(|k| bisect_kth(t, k, glo - pad, ghi + pad))
        .collect()
}

/// All eigenvalues, ascending.
pub fn eigenvalues(t: &Tridiagonal) -> Vec<f64> {
    eigenvalues_by_index(t, 0, t.n())
}

/// Bisects for the `k`-th (0-based) eigenvalue in `[lo, hi]`.
fn bisect_kth(t: &Tridiagonal, k: usize, mut lo: f64, mut hi: f64) -> f64 {
    debug_assert!(t.sturm_count(lo) <= k && t.sturm_count(hi) > k);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // interval collapsed to adjacent floats
        }
        if t.sturm_count(mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 2.0 * f64::EPSILON * (lo.abs().max(hi.abs())) + f64::MIN_POSITIVE {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;

    #[test]
    fn laplacian_exact() {
        for n in [2usize, 7, 33, 64] {
            let t = gen::laplacian_1d(n);
            let eigs = eigenvalues(&t);
            let exact = gen::laplacian_1d_eigs(n);
            assert!(
                tg_matrix::norms::spectrum_error(&exact, &eigs) < 1e-12,
                "n = {n}"
            );
        }
    }

    #[test]
    fn agrees_with_sterf() {
        let t = gen::random_tridiagonal(50, 3);
        let bis = eigenvalues(&t);
        let ql = crate::sterf(&t).unwrap();
        for (a, b) in bis.iter().zip(&ql) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn index_slicing() {
        let t = gen::random_tridiagonal(40, 5);
        let all = eigenvalues(&t);
        let slice = eigenvalues_by_index(&t, 10, 20);
        assert_eq!(slice.len(), 10);
        for (i, &v) in slice.iter().enumerate() {
            assert!((v - all[10 + i]).abs() < 1e-10);
        }
    }

    #[test]
    fn single_element() {
        let t = Tridiagonal::new(vec![4.2], vec![]);
        assert!((eigenvalues(&t)[0] - 4.2).abs() < 1e-14);
    }
}
