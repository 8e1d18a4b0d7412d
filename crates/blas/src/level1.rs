//! BLAS level-1: vector-vector kernels on plain slices.

/// Dot product `xᵀy`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    // 4-way unrolled accumulation: keeps dependent-add chains short, which
    // both speeds the loop up and slightly improves rounding behaviour.
    let mut acc = [0.0f64; 4];
    let chunks = n / 4;
    for c in 0..chunks {
        let i = 4 * c;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in 4 * chunks..n {
        s += x[i] * y[i];
    }
    s
}

/// `y ← y + αx`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm, computed with scaling to avoid overflow/underflow
/// (LAPACK `dnrm2` style).
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &xi in x {
        if xi != 0.0 {
            let a = xi.abs();
            if scale < a {
                let r = scale / a;
                ssq = 1.0 + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// Index of the element with the largest absolute value (0 for empty input).
pub fn iamax(x: &[f64]) -> usize {
    let mut best = 0;
    let mut bv = 0.0f64;
    for (i, &xi) in x.iter().enumerate() {
        if xi.abs() > bv {
            bv = xi.abs();
            best = i;
        }
    }
    best
}

/// `x ↔ y`.
pub fn swap(x: &mut [f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        std::mem::swap(xi, yi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5 - 3.0).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-10 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_empty_and_short() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]), 6.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn nrm2_overflow_safe() {
        let big = 1e300;
        assert!((nrm2(&[big, big]) - big * std::f64::consts::SQRT_2).abs() < 1e287);
        let tiny = 1e-300;
        let r = nrm2(&[tiny, tiny]);
        assert!((r - tiny * std::f64::consts::SQRT_2).abs() < 1e-313);
        assert_eq!(nrm2(&[3.0, 4.0]), 5.0);
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn iamax_picks_largest_abs() {
        assert_eq!(iamax(&[1.0, -5.0, 3.0]), 1);
        assert_eq!(iamax(&[]), 0);
    }

    #[test]
    fn swap_exchanges() {
        let mut x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        swap(&mut x, &mut y);
        assert_eq!(x, [3.0, 4.0]);
        assert_eq!(y, [1.0, 2.0]);
    }
}
