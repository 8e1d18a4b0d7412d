//! Eigensolver for symmetric **band** matrices (`dsbevd` analogue).
//!
//! When the input is already banded, stage 1 of the two-stage reduction is
//! free: go straight to bulge chasing, then divide & conquer, then the
//! blocked bulge-chasing back transformation — the same grouped Q₂ blocks
//! and panel-parallel apply `syevd` runs. This is the natural entry point
//! for finite-difference/tight-binding operators, which are banded by
//! construction.

use crate::dc::stedc;
use crate::steqr::sterf;
use crate::{EigenError, Evd};
use tg_matrix::SymBand;
use tridiag_core::backtransform::{apply_blocks_panels, release_blocks};
use tridiag_core::{bulge_chase_pipelined, AllocPool, PanelPools};

/// Computes eigenvalues (ascending) and optionally eigenvectors of a
/// symmetric band matrix via pipelined bulge chasing + divide & conquer.
///
/// `parallel_sweeps` is the Algorithm-2 sweep concurrency (1 = sequential
/// order on one worker).
///
/// ```
/// use tg_eigen::sbevd::sbevd;
/// use tg_matrix::{gen, SymBand};
///
/// let dense = gen::random_symmetric_band(24, 3, 1);
/// let band = SymBand::from_dense_lower(&dense, 3);
/// let evd = sbevd(&band, 4, true).unwrap();
/// assert!(evd.residual(&dense) < 1e-11);
/// ```
pub fn sbevd(
    band: &SymBand,
    parallel_sweeps: usize,
    want_vectors: bool,
) -> Result<Evd, EigenError> {
    let bc = bulge_chase_pipelined(band, parallel_sweeps.max(1));
    if !want_vectors {
        return Ok(Evd {
            eigenvalues: sterf(&bc.tri)?,
            eigenvectors: None,
        });
    }
    let (eigenvalues, mut v) = stedc(&bc.tri)?;
    // back transformation: V ← Q₂ V with the grouped sweep blocks, applied
    // over eigenvector column panels exactly as `syevd` applies them
    let blocks = bc.sweep_blocks_ws(&mut AllocPool);
    apply_blocks_panels(
        &blocks,
        &mut v,
        tg_blas::threads::gemm_threads(),
        &mut PanelPools::new(),
    );
    release_blocks(blocks, &mut AllocPool);
    Ok(Evd {
        eigenvalues,
        eigenvectors: Some(v),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, orthogonality_residual};

    #[test]
    fn band_evd_contract() {
        for (n, b, seed) in [(20usize, 2usize, 1u64), (33, 4, 2), (28, 7, 3)] {
            let dense = gen::random_symmetric_band(n, b, seed);
            let band = SymBand::from_dense_lower(&dense, b);
            let evd = sbevd(&band, 4, true).unwrap();
            assert!(evd.residual(&dense) < 1e-11, "n={n} b={b}");
            assert!(
                orthogonality_residual(evd.eigenvectors.as_ref().unwrap()) < 1e-11,
                "n={n} b={b}"
            );
            assert!(evd.eigenvalues.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn matches_dense_pipeline() {
        let n = 26;
        let b = 3;
        let dense = gen::random_symmetric_band(n, b, 9);
        let band = SymBand::from_dense_lower(&dense, b);
        let banded = sbevd(&band, 2, false).unwrap();
        let full = crate::syevd(
            &mut dense.clone(),
            &crate::EvdMethod::CusolverLike { nb: 4 },
            false,
        )
        .unwrap();
        for (x, y) in banded.eigenvalues.iter().zip(&full.eigenvalues) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn tridiagonal_band_shortcut() {
        // bandwidth 1: no bulge chasing at all, straight to D&C
        let t = gen::laplacian_1d(32);
        let band = SymBand::from_dense_lower(&t.to_dense(), 1);
        let evd = sbevd(&band, 1, false).unwrap();
        let exact = gen::laplacian_1d_eigs(32);
        assert!(tg_matrix::norms::spectrum_error(&exact, &evd.eigenvalues) < 1e-12);
    }

    #[test]
    fn tight_binding_workload() {
        // 2-D-ish workload: pentadiagonal operator with disorder
        let n = 40;
        let mut dense = gen::random_symmetric_band(n, 2, 17);
        for i in 0..n {
            dense[(i, i)] += 4.0; // shift to diagonal dominance
        }
        let band = SymBand::from_dense_lower(&dense, 2);
        let evd = sbevd(&band, 8, true).unwrap();
        assert!(evd.residual(&dense) < 1e-11);
        assert!(evd.eigenvalues[0] > 0.0, "diagonally dominant ⇒ SPD-ish");
    }
}
