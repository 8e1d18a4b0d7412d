//! The stage checkers: one [`StageChecker`] per invariant the two-stage
//! pipeline promises, each following LAPACK testing conventions
//! (`docs/VERIFICATION.md` documents tolerances and provenance).

use crate::CheckRecord;
use tg_matrix::{norms, Mat, SymBand, Tridiagonal};

/// Data available at one stage boundary. A checker inspects the variant it
/// understands and ignores the rest, so adding a stage never touches
/// existing checkers.
pub enum StageData<'a> {
    /// After stage 1 (DBBR / SBR band reduction).
    Band {
        band: &'a SymBand,
        expected_b: usize,
    },
    /// After stage 2 (bulge chasing) or the direct Householder reduction.
    Tridiag { tri: &'a Tridiagonal },
    /// Accumulated orthogonal factor (deep check).
    Orthogonality { q: &'a Mat },
    /// Original `A`, accumulated `Q`, reduced `B` (deep check).
    Similarity { a: &'a Mat, q: &'a Mat, b: &'a Mat },
    /// Computed spectrum vs. the `sterf` oracle, plus the Gershgorin
    /// enclosure `(lo, hi)` of the reduced tridiagonal.
    Spectrum {
        computed: &'a [f64],
        oracle: &'a [f64],
        gershgorin: (f64, f64),
    },
}

/// One pluggable invariant check. `check` returns `None` when the stage
/// data is not the checker's concern, `Some(record)` otherwise.
pub trait StageChecker: Send {
    /// Stable identifier used in reports and golden baselines.
    fn name(&self) -> &'static str;
    /// Inspects one stage boundary.
    fn check(&self, data: &StageData<'_>) -> Option<CheckRecord>;
}

fn worst_nonfinite(xs: &[f64]) -> Option<usize> {
    xs.iter().position(|x| !x.is_finite())
}

/// Stage 1 contract: the reduced matrix is *exactly* banded with the target
/// bandwidth (DBBR stores explicit zeros outside the band — LAPACK `dsbtrd`
/// convention), and every stored entry is finite.
pub struct BandStructureChecker {
    /// Allowed magnitude outside the target band (0.0 = exact).
    pub tol: f64,
}

impl StageChecker for BandStructureChecker {
    fn name(&self) -> &'static str {
        "band_structure"
    }

    fn check(&self, data: &StageData<'_>) -> Option<CheckRecord> {
        let StageData::Band { band, expected_b } = *data else {
            return None;
        };
        if worst_nonfinite(band.as_slice()).is_some() {
            return Some(CheckRecord {
                checker: self.name(),
                value: f64::INFINITY,
                threshold: self.tol,
                pass: false,
                detail: format!("non-finite entry in band storage (n={})", band.n()),
            });
        }
        // worst out-of-band magnitude across the stored fill-in rows
        let mut worst = 0.0f64;
        for j in 0..band.n() {
            for i in (j + expected_b + 1)..(j + band.ldab()).min(band.n()) {
                worst = worst.max(band.at(i, j).abs());
            }
        }
        let pass = worst <= self.tol;
        Some(CheckRecord {
            checker: self.name(),
            value: worst,
            threshold: self.tol,
            pass,
            detail: format!("n={} b={} ldab={}", band.n(), expected_b, band.ldab()),
        })
    }
}

/// Stage 2 contract: the output is structurally tridiagonal — `d`/`e`
/// lengths consistent and every entry finite. Symmetry is inherent in the
/// `(d, e)` representation; what can go wrong is bulge residue surfacing as
/// NaN/Inf (the band-extraction tolerance test cannot flag non-finite
/// values since `NaN > tol` is false).
pub struct TridiagonalFormChecker;

impl StageChecker for TridiagonalFormChecker {
    fn name(&self) -> &'static str {
        "tridiagonal_form"
    }

    fn check(&self, data: &StageData<'_>) -> Option<CheckRecord> {
        let StageData::Tridiag { tri } = *data else {
            return None;
        };
        let structural_ok =
            tri.e.len() + 1 == tri.d.len() || (tri.d.is_empty() && tri.e.is_empty());
        let bad = worst_nonfinite(&tri.d)
            .map(|i| format!("d[{i}]"))
            .or_else(|| worst_nonfinite(&tri.e).map(|i| format!("e[{i}]")));
        let pass = structural_ok && bad.is_none();
        Some(CheckRecord {
            checker: self.name(),
            value: if pass { 0.0 } else { f64::INFINITY },
            threshold: 0.0,
            pass,
            detail: match (&bad, structural_ok) {
                (Some(loc), _) => format!("non-finite {loc} (n={})", tri.n()),
                (None, false) => format!("d/e length mismatch: {} vs {}", tri.d.len(), tri.e.len()),
                (None, true) => format!("n={}", tri.n()),
            },
        })
    }
}

/// Back-transform contract: `‖QᵀQ − I‖_F / √n ≤ tol` for the accumulated
/// orthogonal factor (LAPACK `dort01` convention).
pub struct OrthogonalityChecker {
    pub tol: f64,
}

impl StageChecker for OrthogonalityChecker {
    fn name(&self) -> &'static str {
        "orthogonality"
    }

    fn check(&self, data: &StageData<'_>) -> Option<CheckRecord> {
        let StageData::Orthogonality { q } = *data else {
            return None;
        };
        let value = norms::orthogonality_residual(q);
        let pass = value.is_finite() && value <= self.tol;
        Some(CheckRecord {
            checker: self.name(),
            value,
            threshold: self.tol,
            pass,
            detail: format!("{}x{}", q.nrows(), q.ncols()),
        })
    }
}

/// End-to-end contract: `‖A − Q B Qᵀ‖_F / ‖A‖_F ≤ tol` (LAPACK `dsyt21`
/// convention). Shape misuse is reported as a failed check, not a panic.
pub struct SimilarityChecker {
    pub tol: f64,
}

impl StageChecker for SimilarityChecker {
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn check(&self, data: &StageData<'_>) -> Option<CheckRecord> {
        let StageData::Similarity { a, q, b } = *data else {
            return None;
        };
        match norms::try_similarity_residual(a, q, b) {
            Ok(value) => {
                let pass = value.is_finite() && value <= self.tol;
                Some(CheckRecord {
                    checker: self.name(),
                    value,
                    threshold: self.tol,
                    pass,
                    detail: format!("n={}", a.nrows()),
                })
            }
            Err(e) => Some(CheckRecord {
                checker: self.name(),
                value: f64::INFINITY,
                threshold: self.tol,
                pass: false,
                detail: format!("shape error: {e}"),
            }),
        }
    }
}

/// Eigenvalue contract against the `sterf` oracle:
///
/// * computed spectrum is finite and ascending (the solvers sort),
/// * every eigenvalue lies inside the Gershgorin enclosure of `T`
///   (slightly inflated — Weyl's inequality bounds the drift by the
///   perturbation norm, which is `O(n·ε·‖T‖)` for a stable solver),
/// * `max |λ̂ − λ| / max|λ| ≤ tol` against the oracle.
pub struct SpectrumChecker {
    pub tol: f64,
}

impl StageChecker for SpectrumChecker {
    fn name(&self) -> &'static str {
        "spectrum"
    }

    fn check(&self, data: &StageData<'_>) -> Option<CheckRecord> {
        let StageData::Spectrum {
            computed,
            oracle,
            gershgorin,
        } = *data
        else {
            return None;
        };
        let n = computed.len();
        if let Some(i) = worst_nonfinite(computed) {
            return Some(CheckRecord {
                checker: self.name(),
                value: f64::INFINITY,
                threshold: self.tol,
                pass: false,
                detail: format!("non-finite eigenvalue at index {i} (n={n})"),
            });
        }
        if let Some(i) = (1..n).find(|&i| computed[i] < computed[i - 1]) {
            return Some(CheckRecord {
                checker: self.name(),
                value: computed[i - 1] - computed[i],
                threshold: 0.0,
                pass: false,
                detail: format!("spectrum not ascending at index {i}"),
            });
        }
        let (lo, hi) = gershgorin;
        let spread = (hi - lo).abs().max(hi.abs()).max(lo.abs()).max(1.0);
        let slack = 1e3 * tg_matrix::EPS * spread;
        if n > 0 && (computed[0] < lo - slack || computed[n - 1] > hi + slack) {
            let overshoot = (lo - computed[0]).max(computed[n - 1] - hi);
            return Some(CheckRecord {
                checker: self.name(),
                value: overshoot,
                threshold: slack,
                pass: false,
                detail: format!("eigenvalue outside Gershgorin [{lo:.3e}, {hi:.3e}]"),
            });
        }
        if oracle.len() != n {
            return Some(CheckRecord {
                checker: self.name(),
                value: f64::INFINITY,
                threshold: self.tol,
                pass: false,
                detail: format!("oracle length {} != {}", oracle.len(), n),
            });
        }
        let value = norms::spectrum_error(oracle, computed);
        let pass = value <= self.tol;
        Some(CheckRecord {
            checker: self.name(),
            value,
            threshold: self.tol,
            pass,
            detail: format!("n={n} vs sterf oracle"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;

    fn run(c: &dyn StageChecker, data: &StageData<'_>) -> CheckRecord {
        c.check(data).expect("checker should handle this stage")
    }

    #[test]
    fn band_checker_accepts_exact_band() {
        let dense = gen::random_symmetric_band(12, 3, 7);
        let band = SymBand::from_dense_lower(&dense, 3);
        let rec = run(
            &BandStructureChecker { tol: 0.0 },
            &StageData::Band {
                band: &band,
                expected_b: 3,
            },
        );
        assert!(rec.pass, "{}", rec.detail);
    }

    #[test]
    fn band_checker_flags_out_of_band_and_nan() {
        let mut band = SymBand::with_storage(10, 2, 6);
        *band.at_mut(7, 3) = 0.5; // i-j = 4 > expected_b = 2
        let rec = run(
            &BandStructureChecker { tol: 0.0 },
            &StageData::Band {
                band: &band,
                expected_b: 2,
            },
        );
        assert!(!rec.pass);
        assert_eq!(rec.value, 0.5);

        *band.at_mut(7, 3) = f64::NAN;
        let rec = run(
            &BandStructureChecker { tol: 0.0 },
            &StageData::Band {
                band: &band,
                expected_b: 2,
            },
        );
        assert!(!rec.pass);
        assert!(rec.value.is_infinite());
    }

    #[test]
    fn tridiag_checker_flags_nonfinite() {
        let ok = run(
            &TridiagonalFormChecker,
            &StageData::Tridiag {
                tri: &Tridiagonal::new(vec![1.0, 2.0, 3.0], vec![0.1, 0.2]),
            },
        );
        assert!(ok.pass);
        let bad = run(
            &TridiagonalFormChecker,
            &StageData::Tridiag {
                tri: &Tridiagonal::new(vec![1.0, 2.0, 3.0], vec![0.1, f64::NAN]),
            },
        );
        assert!(!bad.pass);
        assert!(bad.detail.contains("e[1]"));
    }

    #[test]
    fn orthogonality_checker_thresholds() {
        let q = gen::random_orthogonal(16, 3);
        let rec = run(
            &OrthogonalityChecker { tol: 1e-11 },
            &StageData::Orthogonality { q: &q },
        );
        assert!(rec.pass, "residual {}", rec.value);

        let mut bad = Mat::identity(8);
        bad[(0, 1)] = 0.25;
        let rec = run(
            &OrthogonalityChecker { tol: 1e-11 },
            &StageData::Orthogonality { q: &bad },
        );
        assert!(!rec.pass);
    }

    #[test]
    fn similarity_checker_reports_shape_misuse_as_failure() {
        let a = gen::random_symmetric(6, 1);
        let q = Mat::identity(6);
        let good = run(
            &SimilarityChecker { tol: 1e-11 },
            &StageData::Similarity {
                a: &a,
                q: &q,
                b: &a,
            },
        );
        assert!(good.pass, "residual {}", good.value);

        let wrong = Mat::zeros(4, 6); // non-square Q
        let bad = run(
            &SimilarityChecker { tol: 1e-11 },
            &StageData::Similarity {
                a: &a,
                q: &wrong,
                b: &a,
            },
        );
        assert!(!bad.pass);
        assert!(bad.detail.contains("shape error"));
    }

    #[test]
    fn spectrum_checker_catches_each_violation() {
        let oracle = [1.0, 2.0, 3.0];
        let gersh = (0.5, 3.5);
        let checker = SpectrumChecker { tol: 1e-11 };
        let ok = run(
            &checker,
            &StageData::Spectrum {
                computed: &[1.0, 2.0, 3.0],
                oracle: &oracle,
                gershgorin: gersh,
            },
        );
        assert!(ok.pass);
        // not ascending
        let rec = run(
            &checker,
            &StageData::Spectrum {
                computed: &[2.0, 1.0, 3.0],
                oracle: &oracle,
                gershgorin: gersh,
            },
        );
        assert!(!rec.pass && rec.detail.contains("ascending"));
        // outside Gershgorin
        let rec = run(
            &checker,
            &StageData::Spectrum {
                computed: &[1.0, 2.0, 9.0],
                oracle: &oracle,
                gershgorin: gersh,
            },
        );
        assert!(!rec.pass && rec.detail.contains("Gershgorin"));
        // off the oracle (but inside Gershgorin)
        let rec = run(
            &checker,
            &StageData::Spectrum {
                computed: &[1.0, 2.1, 3.0],
                oracle: &oracle,
                gershgorin: gersh,
            },
        );
        assert!(!rec.pass && rec.detail.contains("oracle"));
        // NaN
        let rec = run(
            &checker,
            &StageData::Spectrum {
                computed: &[1.0, f64::NAN, 3.0],
                oracle: &oracle,
                gershgorin: gersh,
            },
        );
        assert!(!rec.pass && rec.detail.contains("non-finite"));
    }

    #[test]
    fn checkers_ignore_foreign_stages() {
        let tri = Tridiagonal::new(vec![1.0], vec![]);
        let data = StageData::Tridiag { tri: &tri };
        assert!(BandStructureChecker { tol: 0.0 }.check(&data).is_none());
        assert!(OrthogonalityChecker { tol: 0.0 }.check(&data).is_none());
        assert!(SimilarityChecker { tol: 0.0 }.check(&data).is_none());
        assert!(SpectrumChecker { tol: 0.0 }.check(&data).is_none());
    }
}
