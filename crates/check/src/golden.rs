//! Golden regression corpus: serialized spectra and residual baselines for
//! a fixed seed grid of `(n, b, k)` shapes, stored under `tests/golden/`.
//!
//! The corpus pins *behavior*, not just pass/fail: a change that degrades
//! a residual by orders of magnitude while staying under the gauntlet
//! threshold still trips the baseline comparison. Recompute-and-diff runs
//! in the tier-1 test suite and in `repro verify`; `repro golden_regen`
//! rewrites the file after an intentional numerical change (see
//! `docs/VERIFICATION.md` for the regeneration policy).
//!
//! The *data model* lives here so both the test tree and `tg-bench` can
//! share it; the *computation* of fresh entries needs the full pipeline
//! stack and therefore lives in `tg_bench::golden`.

use serde_json::Value;

/// Baselines for one `(n, b, k, seed)` pipeline configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenEntry {
    /// Matrix order.
    pub n: usize,
    /// Stage-1 target bandwidth.
    pub b: usize,
    /// DBBR group/tile parameter.
    pub k: usize,
    /// Matrix generator seed.
    pub seed: u64,
    /// Full computed spectrum, ascending.
    pub spectrum: Vec<f64>,
    /// `‖QᵀQ − I‖_F/√n` of the accumulated eigenvector matrix.
    pub orth_residual: f64,
    /// `‖A − VΛVᵀ‖_F/‖A‖_F`.
    pub sim_residual: f64,
    /// Max scaled deviation of the pipeline spectrum from the `sterf`
    /// oracle run on the same reduced tridiagonal.
    pub spectrum_vs_sterf: f64,
}

/// The whole corpus plus its comparison policy.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenCorpus {
    /// Bumped when the entry schema changes.
    pub version: u32,
    /// Max allowed scaled spectrum deviation from the stored baseline.
    pub spectrum_tol: f64,
    /// A fresh residual may exceed its baseline by this factor (plus an
    /// absolute floor of `spectrum_tol`) before the diff fails — residuals
    /// jitter run-to-run with scheduling, baselines must not be brittle.
    pub residual_slack: f64,
    pub entries: Vec<GoldenEntry>,
}

/// Current schema version.
pub const GOLDEN_VERSION: u32 = 1;

/// Default comparison policy for regenerated corpora.
pub const DEFAULT_SPECTRUM_TOL: f64 = 1e-11;
pub const DEFAULT_RESIDUAL_SLACK: f64 = 4.0;

/// The fixed shape grid every corpus covers: `(n, b, k, seed)` where `k`
/// is the `syr2k` accumulation width (a multiple of `b`, per `DbbrConfig`).
/// Small enough for tier-1, large enough to span block-edge cases
/// (`n` divisible and not divisible by `b`, single- and multi-panel `k`).
pub const GOLDEN_GRID: [(usize, usize, usize, u64); 6] = [
    (32, 4, 8, 1),
    (48, 8, 32, 2),
    (64, 8, 16, 3),
    (96, 12, 48, 4),
    (100, 8, 32, 5),
    (128, 16, 128, 6),
];

impl GoldenCorpus {
    /// A corpus with the default policy and no entries yet.
    pub fn with_defaults() -> GoldenCorpus {
        GoldenCorpus {
            version: GOLDEN_VERSION,
            spectrum_tol: DEFAULT_SPECTRUM_TOL,
            residual_slack: DEFAULT_RESIDUAL_SLACK,
            entries: Vec::new(),
        }
    }

    /// Serializes to pretty JSON (the `tests/golden/corpus.json` format).
    pub fn to_json(&self) -> String {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                serde_json::json!({
                    "n": e.n,
                    "b": e.b,
                    "k": e.k,
                    "seed": e.seed,
                    "orth_residual": e.orth_residual,
                    "sim_residual": e.sim_residual,
                    "spectrum_vs_sterf": e.spectrum_vs_sterf,
                    "spectrum": e.spectrum.clone(),
                })
            })
            .collect();
        let root = serde_json::json!({
            "version": self.version,
            "spectrum_tol": self.spectrum_tol,
            "residual_slack": self.residual_slack,
            "entries": entries,
        });
        serde_json::to_string_pretty(&root).expect("corpus serialization cannot fail")
    }

    /// Parses the `tests/golden/corpus.json` format.
    pub fn from_json(text: &str) -> Result<GoldenCorpus, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let version = root["version"].as_u64().ok_or("missing `version`")? as u32;
        if version != GOLDEN_VERSION {
            return Err(format!(
                "corpus version {version} != supported {GOLDEN_VERSION}; regenerate with `repro golden_regen`"
            ));
        }
        let spectrum_tol = root["spectrum_tol"]
            .as_f64()
            .ok_or("missing `spectrum_tol`")?;
        let residual_slack = root["residual_slack"]
            .as_f64()
            .ok_or("missing `residual_slack`")?;
        let raw_entries = root["entries"].as_array().ok_or("missing `entries`")?;
        let mut entries = Vec::with_capacity(raw_entries.len());
        for (i, e) in raw_entries.iter().enumerate() {
            let field_u = |k: &str| {
                e[k].as_u64()
                    .ok_or_else(|| format!("entry {i}: missing `{k}`"))
            };
            let field_f = |k: &str| {
                e[k].as_f64()
                    .ok_or_else(|| format!("entry {i}: missing `{k}`"))
            };
            let spectrum = e["spectrum"]
                .as_array()
                .ok_or_else(|| format!("entry {i}: missing `spectrum`"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("entry {i}: non-numeric eigenvalue"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            entries.push(GoldenEntry {
                n: field_u("n")? as usize,
                b: field_u("b")? as usize,
                k: field_u("k")? as usize,
                seed: field_u("seed")?,
                spectrum,
                orth_residual: field_f("orth_residual")?,
                sim_residual: field_f("sim_residual")?,
                spectrum_vs_sterf: field_f("spectrum_vs_sterf")?,
            });
        }
        Ok(GoldenCorpus {
            version,
            spectrum_tol,
            residual_slack,
            entries,
        })
    }

    /// Diffs freshly computed entries against the stored baselines.
    /// Returns human-readable mismatch descriptions; empty means the
    /// corpus verifies. Shapes present on only one side are mismatches.
    pub fn compare(&self, fresh: &[GoldenEntry]) -> Vec<String> {
        let mut problems = Vec::new();
        for base in &self.entries {
            let key = (base.n, base.b, base.k, base.seed);
            let Some(now) = fresh.iter().find(|e| (e.n, e.b, e.k, e.seed) == key) else {
                problems.push(format!("shape {key:?}: missing from fresh run"));
                continue;
            };
            if now.spectrum.len() != base.spectrum.len() {
                problems.push(format!(
                    "shape {key:?}: spectrum length {} != baseline {}",
                    now.spectrum.len(),
                    base.spectrum.len()
                ));
                continue;
            }
            let dev = tg_matrix::norms::spectrum_error(&base.spectrum, &now.spectrum);
            if exceeds(dev, self.spectrum_tol) {
                problems.push(format!(
                    "shape {key:?}: spectrum deviates {dev:.3e} > {:.0e}",
                    self.spectrum_tol
                ));
            }
            for (name, base_v, now_v) in [
                ("orth_residual", base.orth_residual, now.orth_residual),
                ("sim_residual", base.sim_residual, now.sim_residual),
                (
                    "spectrum_vs_sterf",
                    base.spectrum_vs_sterf,
                    now.spectrum_vs_sterf,
                ),
            ] {
                let budget = base_v * self.residual_slack + self.spectrum_tol;
                if exceeds(now_v, budget) {
                    problems.push(format!(
                        "shape {key:?}: {name} {now_v:.3e} exceeds baseline {base_v:.3e} (budget {budget:.3e})"
                    ));
                }
            }
        }
        for now in fresh {
            let key = (now.n, now.b, now.k, now.seed);
            if !self.entries.iter().any(|e| (e.n, e.b, e.k, e.seed) == key) {
                problems.push(format!("shape {key:?}: not in baseline corpus"));
            }
        }
        problems
    }
}

/// `value > budget`, with NaN counted as exceeding (a NaN residual must
/// fail the comparison, which plain `>` would not guarantee).
fn exceeds(value: f64, budget: f64) -> bool {
    !matches!(
        value.partial_cmp(&budget),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: usize, seed: u64) -> GoldenEntry {
        GoldenEntry {
            n,
            b: 4,
            k: 2,
            seed,
            spectrum: (0..n).map(|i| i as f64 * 0.5 - 1.0).collect(),
            orth_residual: 3e-15,
            sim_residual: 5e-15,
            spectrum_vs_sterf: 1e-15,
        }
    }

    fn corpus() -> GoldenCorpus {
        GoldenCorpus {
            entries: vec![entry(8, 1), entry(12, 2)],
            ..GoldenCorpus::with_defaults()
        }
    }

    #[test]
    fn json_round_trip() {
        let c = corpus();
        let text = c.to_json();
        let back = GoldenCorpus::from_json(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = corpus()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        let err = GoldenCorpus::from_json(&text).unwrap_err();
        assert!(err.contains("golden_regen"), "{err}");
    }

    #[test]
    fn compare_passes_identical_and_jittered() {
        let c = corpus();
        assert!(c.compare(&c.entries).is_empty());
        // residual jitter within slack, spectrum within tol
        let mut jittered = c.entries.clone();
        jittered[0].orth_residual *= 2.0;
        jittered[1].spectrum[3] += 1e-13;
        assert!(c.compare(&jittered).is_empty());
    }

    #[test]
    fn compare_flags_each_regression() {
        let c = corpus();
        // spectrum drift beyond tol
        let mut bad = c.entries.clone();
        bad[0].spectrum[0] += 1.0;
        let p = c.compare(&bad);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("spectrum deviates"));
        // residual blow-up beyond slack
        let mut bad = c.entries.clone();
        bad[1].sim_residual = 1e-6;
        let p = c.compare(&bad);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("sim_residual"));
        // NaN residual must fail (negated comparison)
        let mut bad = c.entries.clone();
        bad[0].orth_residual = f64::NAN;
        assert_eq!(c.compare(&bad).len(), 1);
        // NaN eigenvalue must fail too
        let mut bad = c.entries.clone();
        bad[1].spectrum[2] = f64::NAN;
        let p = c.compare(&bad);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("spectrum deviates"));
        // missing shape and extra shape
        let p = c.compare(&c.entries[..1]);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("missing from fresh run"));
        let mut extra = c.entries.clone();
        extra.push(entry(99, 9));
        let p = c.compare(&extra);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("not in baseline corpus"));
    }

    #[test]
    fn grid_shapes_are_distinct() {
        let mut keys: Vec<_> = GOLDEN_GRID.to_vec();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), GOLDEN_GRID.len());
    }
}
