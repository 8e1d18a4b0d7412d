//! Symmetric band storage.
//!
//! A symmetric matrix with bandwidth `kd` (`A[i][j] == 0` whenever
//! `|i − j| > kd`) is stored compactly: column `j` of the band holds the
//! entries `A[j..=min(j+ldab-1, n-1)][j]` contiguously. This is the LAPACK
//! lower symmetric band layout and at the same time the "consecutive memory"
//! layout of **Figure 10** in the paper: walking down a band column walks
//! consecutive addresses, whereas the same walk inside a full `n × n` matrix
//! strides by `n`.
//!
//! Bulge chasing transiently fills in up to `2·kd − 1` subdiagonals, so the
//! storage bandwidth `ldab − 1` may exceed the logical bandwidth `kd`; see
//! [`SymBand::with_storage`].

use crate::dense::Mat;

/// Storage layout descriptor used by the L2 cache simulator to translate a
/// band element coordinate into a byte address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BandLayout {
    /// Band embedded in a full column-major `n × n` dense matrix
    /// (the "nonconsecutive" layout on the left of Figure 10).
    Dense { n: usize },
    /// Compact band storage with `ldab` rows per column
    /// (the "consecutive" layout on the right of Figure 10).
    Compact { ldab: usize },
}

impl BandLayout {
    /// Byte address of symmetric band element `(i, j)` with `i ≥ j`,
    /// assuming 8-byte elements starting at address 0.
    #[inline]
    pub fn address(&self, i: usize, j: usize) -> u64 {
        debug_assert!(i >= j);
        match *self {
            BandLayout::Dense { n } => {
                debug_assert!(i < n);
                ((j * n + i) * 8) as u64
            }
            BandLayout::Compact { ldab } => {
                debug_assert!(i - j < ldab);
                ((j * ldab + (i - j)) * 8) as u64
            }
        }
    }
}

/// Symmetric band matrix, lower-triangle compact storage.
///
/// ```
/// use tg_matrix::{gen, SymBand};
///
/// let dense = gen::random_symmetric_band(10, 2, 1);
/// let band = SymBand::from_dense_lower(&dense, 2);
/// assert_eq!(band.get(5, 3), dense[(5, 3)]);
/// assert_eq!(band.get(9, 0), 0.0); // outside the band
/// assert_eq!(band.to_dense(), dense);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymBand {
    n: usize,
    /// Logical bandwidth: number of nonzero subdiagonals.
    kd: usize,
    /// Storage rows per column (`≥ kd + 1`); extra rows hold bulge fill-in.
    ldab: usize,
    /// `data[j * ldab + (i - j)]` is `A[i][j]` for `j ≤ i < j + ldab`.
    data: Vec<f64>,
}

impl SymBand {
    /// Creates a zero band matrix of order `n` and bandwidth `kd`.
    pub fn zeros(n: usize, kd: usize) -> Self {
        Self::with_storage(n, kd, kd + 1)
    }

    /// Creates a zero band matrix with `ldab ≥ kd + 1` storage rows, leaving
    /// headroom for bulge-chasing fill-in.
    pub fn with_storage(n: usize, kd: usize, ldab: usize) -> Self {
        assert!(ldab > kd, "ldab must be at least kd + 1");
        SymBand {
            n,
            kd,
            ldab,
            data: vec![0.0; ldab * n],
        }
    }

    /// Extracts the lower band of a dense symmetric matrix.
    ///
    /// Only the lower triangle of `a` is read. Entries beyond bandwidth `kd`
    /// are ignored (callers should verify bandedness separately if needed).
    pub fn from_dense_lower(a: &Mat, kd: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        let n = a.nrows();
        let mut b = SymBand::zeros(n, kd);
        for j in 0..n {
            for i in j..(j + kd + 1).min(n) {
                *b.at_mut(i, j) = a[(i, j)];
            }
        }
        b
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Logical bandwidth (number of subdiagonals).
    #[inline]
    pub fn kd(&self) -> usize {
        self.kd
    }

    /// Storage rows per column.
    #[inline]
    pub fn ldab(&self) -> usize {
        self.ldab
    }

    /// Raw storage (column-major band columns).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw storage, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element `(i, j)` with `i ≥ j`, which must be inside the storage band.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i >= j && i - j < self.ldab && i < self.n);
        self.data[j * self.ldab + (i - j)]
    }

    /// Mutable element `(i, j)` with `i ≥ j` inside the storage band.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i >= j && i - j < self.ldab && i < self.n);
        &mut self.data[j * self.ldab + (i - j)]
    }

    /// Element `(i, j)` for arbitrary `i, j` (uses symmetry; 0 outside band).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        if i - j < self.ldab && i < self.n {
            self.data[j * self.ldab + (i - j)]
        } else {
            0.0
        }
    }

    /// Stored column `j` as a slice: entries `A[j..j+len][j]` where
    /// `len = min(ldab, n - j)`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        let len = self.ldab.min(self.n - j);
        &self.data[j * self.ldab..j * self.ldab + len]
    }

    /// Stored column `j`, mutable.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let len = self.ldab.min(self.n - j);
        &mut self.data[j * self.ldab..j * self.ldab + len]
    }

    /// Expands to a dense symmetric matrix.
    pub fn to_dense(&self) -> Mat {
        let mut a = Mat::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in j..(j + self.ldab).min(self.n) {
                let v = self.at(i, j);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// Checks that every stored entry strictly below subdiagonal `kd` is
    /// (numerically) zero: `|A[i][j]| ≤ tol` for `i − j > kd`.
    pub fn is_band_within(&self, kd: usize, tol: f64) -> bool {
        for j in 0..self.n {
            for i in (j + kd + 1)..(j + self.ldab).min(self.n) {
                if self.at(i, j).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.n).map(|j| self.at(j, j)).collect()
    }

    /// Extracts subdiagonal `k` (length `n − k`, empty when `k ≥ n`).
    pub fn subdiag(&self, k: usize) -> Vec<f64> {
        assert!(k < self.ldab);
        (0..self.n.saturating_sub(k))
            .map(|j| self.at(j + k, j))
            .collect()
    }

    /// Interprets a bandwidth-1 matrix as a tridiagonal `(d, e)` pair.
    ///
    /// Panics if any entry beyond the first subdiagonal exceeds `tol`.
    pub fn to_tridiagonal(&self, tol: f64) -> crate::tridiagonal::Tridiagonal {
        assert!(
            self.is_band_within(1, tol),
            "matrix is not tridiagonal within tolerance {tol}"
        );
        crate::tridiagonal::Tridiagonal::new(self.diag(), self.subdiag(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense(n: usize, kd: usize) -> Mat {
        let mut a = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            if i - j <= kd {
                (1 + i + 2 * j) as f64
            } else {
                0.0
            }
        });
        a.mirror_lower();
        a
    }

    #[test]
    fn dense_round_trip() {
        let a = sample_dense(7, 2);
        let b = SymBand::from_dense_lower(&a, 2);
        assert_eq!(b.to_dense(), a);
    }

    #[test]
    fn element_access_symmetry() {
        let a = sample_dense(6, 2);
        let b = SymBand::from_dense_lower(&a, 2);
        assert_eq!(b.get(1, 4), a[(1, 4)]);
        assert_eq!(b.get(4, 1), a[(4, 1)]);
        assert_eq!(b.get(0, 5), 0.0);
    }

    #[test]
    fn col_lengths_shrink_at_edge() {
        let b = SymBand::zeros(5, 2);
        assert_eq!(b.col(0).len(), 3);
        assert_eq!(b.col(3).len(), 2);
        assert_eq!(b.col(4).len(), 1);
    }

    #[test]
    fn storage_headroom() {
        let mut b = SymBand::with_storage(8, 2, 6);
        // fill-in beyond logical bandwidth fits in storage
        *b.at_mut(5, 1) = 3.0; // i-j = 4 < ldab
        assert_eq!(b.at(5, 1), 3.0);
        assert!(!b.is_band_within(2, 0.0));
        assert!(b.is_band_within(4, 0.0));
    }

    #[test]
    fn diag_and_subdiag() {
        let a = sample_dense(5, 1);
        let b = SymBand::from_dense_lower(&a, 1);
        assert_eq!(b.diag().len(), 5);
        assert_eq!(b.subdiag(1).len(), 4);
        assert_eq!(b.diag()[2], a[(2, 2)]);
        assert_eq!(b.subdiag(1)[2], a[(3, 2)]);
        let empty = SymBand::zeros(0, 1);
        assert!(empty.subdiag(1).is_empty());
        assert_eq!(empty.to_tridiagonal(0.0).n(), 0);
    }

    #[test]
    fn tridiagonal_extraction() {
        let a = sample_dense(5, 1);
        let b = SymBand::from_dense_lower(&a, 1);
        let t = b.to_tridiagonal(0.0);
        assert_eq!(t.n(), 5);
        assert_eq!(t.d[0], a[(0, 0)]);
        assert_eq!(t.e[3], a[(4, 3)]);
    }

    #[test]
    fn layout_addresses() {
        let dense = BandLayout::Dense { n: 100 };
        let compact = BandLayout::Compact { ldab: 4 };
        // Walking down one band column: dense strides 8 bytes within a column
        // too (col-major); but across columns along a row it strides 800.
        assert_eq!(dense.address(11, 10), (10 * 100 + 11) as u64 * 8);
        assert_eq!(compact.address(11, 10), (10 * 4 + 1) as u64 * 8);
        // successive columns are 32 bytes apart in compact, 800 in dense
        assert_eq!(compact.address(11, 11) - compact.address(10, 10), 32);
        assert_eq!(dense.address(11, 11) - dense.address(10, 10), 808);
    }

    #[test]
    #[should_panic]
    fn tridiagonal_rejects_wide_band() {
        let a = sample_dense(5, 2);
        let b = SymBand::from_dense_lower(&a, 2);
        let _ = b.to_tridiagonal(1e-12);
    }
}
