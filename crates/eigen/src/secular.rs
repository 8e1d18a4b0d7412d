//! Secular equation solver for the rank-one-update eigenproblem
//! `D + ρ z zᵀ` at the heart of divide & conquer (`dlaed4` analogue).
//!
//! For `ρ > 0` and strictly increasing `d`, the eigenvalues `λ_k` satisfy
//!
//! ```text
//! f(λ) = 1 + ρ Σᵢ zᵢ² / (dᵢ − λ) = 0,
//! d_k < λ_k < d_{k+1}  (k < n−1),   d_{n−1} < λ_{n−1} ≤ d_{n−1} + ρ‖z‖².
//! ```
//!
//! Each root is computed in **shifted coordinates** `μ = λ − d_K` relative
//! to the closest pole, so that the differences `dᵢ − λ` used later for
//! eigenvectors carry full relative accuracy — the property that lets the
//! Gu–Eisenstat construction keep eigenvectors orthogonal without extended
//! precision.
//!
//! The iteration is `dlaed4`'s middle way (Li, 1993). Each step solves a
//! model that keeps the two poles around the root exactly — `d_k` and
//! `d_{k+1}`, or `d_{n−2}` and `d_{n−1}` for the last root — and replaces
//! every other pole by a rational term fitted to the current value and
//! slope. It converges in a handful of steps where a safeguarded Newton
//! iteration needs a dozen or more. A root has converged when
//! `|w| ≤ ε·erretm`, `dlaed4`'s residual test against a running bound on
//! the rounding error of the evaluation itself. A step that would leave
//! the maintained bracket is replaced by bisection, and a root not
//! converged after [`MAXIT`] evaluations finishes by bisection alone.

/// Evaluations, the initial guess's included, before a root falls back to
/// bisection (LAPACK's `MAXIT`).
pub const MAXIT: usize = 30;

/// One secular root in shifted representation: `λ = d[origin] + mu`.
#[derive(Clone, Copy, Debug)]
pub struct SecularRoot {
    /// Index `K` of the pole the root is expressed against.
    pub origin: usize,
    /// Offset from the origin pole.
    pub mu: f64,
}

impl SecularRoot {
    /// The eigenvalue `λ = d[origin] + μ`.
    #[inline]
    pub fn value(&self, d: &[f64]) -> f64 {
        d[self.origin] + self.mu
    }

    /// `dᵢ − λ`, computed to full relative accuracy via the shift.
    #[inline]
    pub fn d_minus_lambda(&self, d: &[f64], i: usize) -> f64 {
        (d[i] - d[self.origin]) - self.mu
    }
}

/// Solves all `n` secular roots of `D + ρ z zᵀ`.
///
/// Requirements: `ρ > 0`, `d` strictly increasing, all `zᵢ ≠ 0`
/// (the caller deflates violations first).
pub fn solve_all(d: &[f64], z: &[f64], rho: f64) -> Vec<SecularRoot> {
    let n = d.len();
    assert_eq!(z.len(), n);
    assert!(rho > 0.0, "rho must be positive (caller normalizes)");
    debug_assert!(d.windows(2).all(|w| w[0] < w[1]), "d must be increasing");
    (0..n).map(|k| solve_root(d, z, rho, k)).collect()
}

/// Solves root `k` (the root in `(d_k, d_{k+1})`, or beyond `d_{n−1}` for
/// `k = n−1`).
pub fn solve_root(d: &[f64], z: &[f64], rho: f64, k: usize) -> SecularRoot {
    solve_root_counted(d, z, rho, k).0
}

/// [`solve_root`], also returning how many times the secular function was
/// evaluated at an iterate (the probe that picks the origin and the
/// initial guess is not counted).
fn solve_root_counted(d: &[f64], z: &[f64], rho: f64, k: usize) -> (SecularRoot, usize) {
    let n = d.len();
    if n == 1 {
        let root = SecularRoot {
            origin: 0,
            mu: rho * z[0] * z[0],
        };
        return (root, 0);
    }
    let (mut solver, mut tau) = if k == n - 1 {
        Solver::last(d, z, rho)
    } else {
        Solver::inner(d, z, rho, k)
    };
    let mut it = solver.eval(tau);
    let mut evals = 1;
    let mut swtch = false;
    while !it.converged() && evals < MAXIT {
        solver.narrow(tau, it.w);
        let eta = solver.step(tau, &it, swtch);
        tau += solver.keep_inside(tau, it.w, eta);
        let prew = it.w;
        it = solver.eval(tau);
        evals += 1;
        // `dlaed4` picks its fixed-weight model by how the first step
        // went, then switches whenever a step cuts `|w|` less than
        // tenfold without crossing the root.
        if evals == 2 {
            let w = if solver.orgati() { -it.w } else { it.w };
            swtch = w > prew.abs() / 10.0;
        } else if it.w * prew > 0.0 && it.w.abs() > prew.abs() / 10.0 {
            swtch = !swtch;
        }
    }
    // Fallback: bisect the bracket until the residual test passes or the
    // bracket stops shrinking.
    while !it.converged() {
        solver.narrow(tau, it.w);
        let mid = 0.5 * (solver.lo + solver.hi);
        if mid == tau || !(solver.lo < mid && mid < solver.hi) {
            break;
        }
        tau = mid;
        it = solver.eval(tau);
    }
    let root = SecularRoot {
        origin: solver.ii,
        mu: tau,
    };
    (root, evals)
}

/// The secular function at an iterate `λ = d[ii] + τ`, scaled by `1/ρ`:
/// `w = 1/ρ + Σ zⱼ²/δⱼ` with `δⱼ = (dⱼ − d_ii) − τ`, and its derivative
/// split as `dlaed4` splits it: `dpsi` over the poles below the origin
/// (for the last root, every pole but the origin), `dphi` over those
/// above it, `own` for the origin's own pole.
struct Iterate {
    w: f64,
    dpsi: f64,
    dphi: f64,
    own: f64,
    /// Bound on the rounding error in `w`.
    erretm: f64,
}

impl Iterate {
    fn converged(&self) -> bool {
        self.w.abs() <= f64::EPSILON * self.erretm
    }

    fn dw(&self) -> f64 {
        self.dpsi + self.dphi + self.own
    }
}

/// One root's iteration state: the model poles `i` and `i + 1`, the
/// origin `ii` (one of them), and the bracket `[lo, hi]` on `τ`.
#[derive(Clone, Copy)]
struct Solver<'a> {
    d: &'a [f64],
    z: &'a [f64],
    rhoinv: f64,
    i: usize,
    ii: usize,
    /// The root is the last one (origin `n − 1`, above both model poles).
    last: bool,
    lo: f64,
    hi: f64,
}

impl<'a> Solver<'a> {
    /// Root `n−1`, in `(d_{n−1}, d_{n−1} + ρ‖z‖²]`, against the origin
    /// `d_{n−1}` and the model poles `(n−2, n−1)`; returns the solver and
    /// `dlaed4`'s initial guess.
    fn last(d: &'a [f64], z: &'a [f64], rho: f64) -> (Self, f64) {
        let n = d.len();
        let (i, ii) = (n - 2, n - 1);
        let rhoinv = 1.0 / rho;
        let ub = rho * z.iter().map(|x| x * x).sum::<f64>();
        let midpt = ub / 2.0;
        let del = d[ii] - d[i];
        let (zi2, zn2) = (z[i] * z[i], z[ii] * z[ii]);
        let c = rhoinv
            + (0..i)
                .map(|j| z[j] * z[j] / ((d[j] - d[ii]) - midpt))
                .sum::<f64>();
        let w = c + zi2 / (-del - midpt) + zn2 / -midpt;
        let model = || {
            let a = -c * del + zi2 + zn2;
            let b = zn2 * del;
            if a < 0.0 {
                2.0 * b / ((a * a + 4.0 * b * c).sqrt() - a)
            } else {
                (a + (a * a + 4.0 * b * c).sqrt()) / (2.0 * c)
            }
        };
        let (lo, hi, tau) = if w <= 0.0 {
            let temp = zi2 / (del + ub) + zn2 / ub;
            (midpt, ub, if c <= temp { ub } else { model() })
        } else {
            (0.0, midpt, model())
        };
        let solver = Solver {
            d,
            z,
            rhoinv,
            i,
            ii,
            last: true,
            lo,
            hi,
        };
        (solver, solver.inside(tau))
    }

    /// Root `k < n−1`, in `(d_k, d_{k+1})`, against whichever of the two
    /// poles it lies closer to; returns the solver and `dlaed4`'s initial
    /// guess.
    fn inner(d: &'a [f64], z: &'a [f64], rho: f64, k: usize) -> (Self, f64) {
        let (i, ip1) = (k, k + 1);
        let rhoinv = 1.0 / rho;
        let del = d[ip1] - d[i];
        let midpt = del / 2.0;
        let (zi2, zip2) = (z[i] * z[i], z[ip1] * z[ip1]);
        // The midpoint probe: the sign of `w` there picks the nearer pole
        // as the origin, and the two-pole model through it is the guess.
        let c = rhoinv
            + (0..d.len())
                .filter(|&j| j != i && j != ip1)
                .map(|j| z[j] * z[j] / ((d[j] - d[i]) - midpt))
                .sum::<f64>();
        let w = c + zi2 / -midpt + zip2 / (del - midpt);
        let orgati = w > 0.0;
        let (ii, lo, hi, tau) = if orgati {
            let a = c * del + zi2 + zip2;
            let b = zi2 * del;
            let disc = (a * a - 4.0 * b * c).abs().sqrt();
            let tau = if a > 0.0 {
                2.0 * b / (a + disc)
            } else {
                (a - disc) / (2.0 * c)
            };
            (i, 0.0, midpt, tau)
        } else {
            let a = c * del - zi2 - zip2;
            let b = zip2 * del;
            let disc = (a * a + 4.0 * b * c).abs().sqrt();
            let tau = if a < 0.0 {
                2.0 * b / (a - disc)
            } else {
                -(a + disc) / (2.0 * c)
            };
            (ip1, -midpt, 0.0, tau)
        };
        let solver = Solver {
            d,
            z,
            rhoinv,
            i,
            ii,
            last: false,
            lo,
            hi,
        };
        (solver, solver.inside(tau))
    }

    /// `tau` if it lies strictly inside the bracket (or on the last root's
    /// closed upper end), else the bracket's midpoint.
    fn inside(&self, tau: f64) -> f64 {
        if tau > self.lo && (tau < self.hi || (self.last && tau == self.hi)) {
            tau
        } else {
            0.5 * (self.lo + self.hi)
        }
    }

    /// The origin is the lower model pole `i` (never for the last root).
    fn orgati(&self) -> bool {
        self.ii == self.i
    }

    /// `δⱼ = dⱼ − λ` through the shift.
    fn delta(&self, j: usize, tau: f64) -> f64 {
        (self.d[j] - self.d[self.ii]) - tau
    }

    /// Evaluates `w` at `τ` with `dlaed4`'s summation order and error
    /// bound: `psi` summed upwards over the poles below the origin, `phi`
    /// downwards over those above it, `erretm` accumulating their partial
    /// sums.
    fn eval(&self, tau: f64) -> Iterate {
        let (d, z, ii) = (self.d, self.z, self.ii);
        let origin = d[ii];
        let (mut psi, mut dpsi, mut erretm) = (0.0, 0.0, 0.0);
        for j in 0..ii {
            let t = z[j] / ((d[j] - origin) - tau);
            psi += z[j] * t;
            dpsi += t * t;
            erretm += psi;
        }
        let mut erretm = erretm.abs();
        let (mut phi, mut dphi) = (0.0, 0.0);
        for j in (ii + 1..d.len()).rev() {
            let t = z[j] / ((d[j] - origin) - tau);
            phi += z[j] * t;
            dphi += t * t;
            erretm += phi;
        }
        let t = z[ii] / -tau;
        let (f, own) = (z[ii] * t, t * t);
        let w = self.rhoinv + phi + psi + f;
        let dw = dpsi + dphi + own;
        erretm += if self.last {
            8.0 * (-f - psi) - f + self.rhoinv + tau.abs() * dw
        } else {
            8.0 * (phi - psi) + 2.0 * self.rhoinv + 3.0 * f.abs() + tau.abs() * dw
        };
        Iterate {
            w,
            dpsi,
            dphi,
            own,
            erretm,
        }
    }

    /// Narrows the bracket by the sign of `w` (increasing in `τ`).
    fn narrow(&mut self, tau: f64, w: f64) {
        if w <= 0.0 {
            self.lo = self.lo.max(tau);
        } else {
            self.hi = self.hi.min(tau);
        }
    }

    /// The middle-way step `η`: the root of a model that matches `w` and
    /// `w'` at `τ`, keeps the two model poles exact, and stands in for
    /// every other pole with one more term. With `swtch` (and always for
    /// the last root) that term splits the rest between the two model
    /// poles; otherwise it sits on the model pole that is not the origin.
    /// A step towards the wrong side of `τ` becomes a Newton step.
    fn step(&self, tau: f64, it: &Iterate, swtch: bool) -> f64 {
        let (d, z, i) = (self.d, self.z, self.i);
        let di = self.delta(i, tau);
        let dip1 = self.delta(i + 1, tau);
        let (w, dw) = (it.w, it.dw());
        // The derivative of every pole at or below `i`, and at or above
        // `i + 1`.
        let (dlo, dhi) = if self.orgati() {
            (it.dpsi + it.own, it.dphi)
        } else {
            (it.dpsi, it.dphi + it.own)
        };
        let c = if swtch || self.last {
            w - di * dlo - dip1 * dhi
        } else if self.orgati() {
            w - dip1 * dw - (d[i] - d[i + 1]) * it.own
        } else {
            w - di * dw - (d[i + 1] - d[i]) * it.own
        };
        let mut a = (di + dip1) * w - di * dip1 * dw;
        let b = di * dip1 * w;
        let eta = if self.last {
            // The last root lies above both model poles: the model's
            // larger root.
            let c = c.abs();
            if c == 0.0 {
                -w / dw
            } else if a >= 0.0 {
                (a + (a * a - 4.0 * b * c).abs().sqrt()) / (2.0 * c)
            } else {
                2.0 * b / (a - (a * a - 4.0 * b * c).abs().sqrt())
            }
        } else if c == 0.0 {
            if a == 0.0 {
                a = if swtch {
                    di * di * dlo + dip1 * dip1 * dhi
                } else if self.orgati() {
                    z[i] * z[i] + dip1 * dip1 * (it.dpsi + it.dphi)
                } else {
                    z[i + 1] * z[i + 1] + di * di * (it.dpsi + it.dphi)
                };
            }
            b / a
        } else if a <= 0.0 {
            (a - (a * a - 4.0 * b * c).abs().sqrt()) / (2.0 * c)
        } else {
            2.0 * b / (a + (a * a - 4.0 * b * c).abs().sqrt())
        };
        if w * eta >= 0.0 || !eta.is_finite() {
            -w / dw
        } else {
            eta
        }
    }

    /// `eta` if `τ + η` stays in the bracket, else half way to the end
    /// the root lies towards.
    fn keep_inside(&self, tau: f64, w: f64, eta: f64) -> f64 {
        if tau + eta <= self.hi && tau + eta >= self.lo {
            eta
        } else if w < 0.0 {
            (self.hi - tau) / 2.0
        } else {
            (self.lo - tau) / 2.0
        }
    }
}

/// Recomputes the rank-one vector from the computed roots so eigenvectors
/// are numerically orthogonal (Gu–Eisenstat / `dlaed3` trick):
///
/// ```text
/// z̃ᵢ² = (λ_{n−1} − dᵢ)/ρ · ∏_{k<i} (λ_k − dᵢ)/(d_k − dᵢ)
///                        · ∏_{i≤k<n−1} (λ_k − dᵢ)/(d_{k+1} − dᵢ)
/// ```
///
/// with every `λ_k − dᵢ` evaluated through the shifted representation.
pub fn refine_z(d: &[f64], rho: f64, roots: &[SecularRoot], z_signs: &[f64]) -> Vec<f64> {
    let n = d.len();
    let mut zt = vec![0.0; n];
    for i in 0..n {
        // λ_{n−1} − dᵢ
        let mut prod = -roots[n - 1].d_minus_lambda(d, i) / rho;
        for k in 0..i {
            let num = -roots[k].d_minus_lambda(d, i);
            let den = d[k] - d[i];
            prod *= num / den;
        }
        for k in i..n - 1 {
            let num = -roots[k].d_minus_lambda(d, i);
            let den = d[k + 1] - d[i];
            prod *= num / den;
        }
        debug_assert!(
            prod >= -1e-10,
            "interlacing violated: negative z̃² = {prod} at {i}"
        );
        zt[i] = prod.max(0.0).sqrt() * z_signs[i].signum();
    }
    zt
}

/// Writes the normalized eigenvector for `root` into `v`:
/// `vᵢ = z̃ᵢ / (dᵢ − λ_k)`, scaled to unit length.
pub fn eigenvector(d: &[f64], zt: &[f64], root: &SecularRoot, v: &mut [f64]) {
    assert_eq!(v.len(), d.len());
    let mut nrm = 0.0;
    for (i, vi) in v.iter_mut().enumerate() {
        *vi = zt[i] / root.d_minus_lambda(d, i);
        nrm += *vi * *vi;
    }
    let s = nrm.sqrt();
    for vi in v {
        *vi /= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi_evd;
    use tg_matrix::{gen, Mat};

    fn secular_f(d: &[f64], z: &[f64], rho: f64, lam: f64) -> f64 {
        1.0 + rho
            * d.iter()
                .zip(z)
                .map(|(&di, &zi)| zi * zi / (di - lam))
                .sum::<f64>()
    }

    /// `a` values uniform in `[-1, 1)`.
    fn uniform(a: usize, seed: u64) -> Vec<f64> {
        gen::random(a, 1, seed).into_col_major()
    }

    /// Normalized eigenvectors of `D + ρzzᵀ` from the refined `z̃`, one
    /// per column.
    fn vectors(d: &[f64], z: &[f64], rho: f64, roots: &[SecularRoot]) -> Mat {
        let zt = refine_z(d, rho, roots, z);
        let mut v = Mat::zeros(d.len(), d.len());
        for (k, r) in roots.iter().enumerate() {
            eigenvector(d, &zt, r, v.col_mut(k));
        }
        v
    }

    #[test]
    fn roots_interlace_and_solve() {
        let d = [0.0, 1.0, 2.5, 4.0];
        let z = [0.5, 0.3, 0.8, 0.2];
        let rho = 1.3;
        let roots = solve_all(&d, &z, rho);
        for (k, r) in roots.iter().enumerate() {
            let lam = r.value(&d);
            if k < 3 {
                assert!(d[k] < lam && lam < d[k + 1], "interlacing at {k}: {lam}");
            } else {
                assert!(lam > d[3]);
            }
            assert!(
                secular_f(&d, &z, rho, lam).abs() < 1e-8,
                "f(λ_{k}) = {}",
                secular_f(&d, &z, rho, lam)
            );
        }
    }

    #[test]
    fn rank_one_2x2_exact() {
        // D + ρzzᵀ = [[1.5, 0.5], [0.5, 3.5]] has a closed-form spectrum
        let d = [1.0, 3.0];
        let z = [1.0, 1.0];
        let rho = 0.5;
        let tr = 5.0f64;
        let det = 1.5 * 3.5 - 0.25;
        let disc = (tr * tr / 4.0 - det).sqrt();
        let exact = [tr / 2.0 - disc, tr / 2.0 + disc];
        let roots = solve_all(&d, &z, rho);
        for k in 0..2 {
            assert!((roots[k].value(&d) - exact[k]).abs() < 1e-13);
        }
    }

    #[test]
    fn tiny_gaps_stay_bracketed() {
        let d = [0.0, 1e-13, 2e-13, 1.0];
        let z = [0.1, 0.1, 0.1, 0.1];
        let rho = 2.0;
        let roots = solve_all(&d, &z, rho);
        for (k, r) in roots.iter().enumerate().take(3) {
            let lam = r.value(&d);
            assert!(lam >= d[k] && lam <= d[k + 1], "root {k} escaped its gap");
        }
    }

    #[test]
    fn refined_z_reproduces_input_on_clean_problem() {
        // In exact arithmetic z̃ == z; check close agreement.
        let d = [0.0, 0.7, 1.9, 3.1, 4.8];
        let z = [0.4, -0.2, 0.6, 0.3, -0.5];
        let rho = 0.9;
        let roots = solve_all(&d, &z, rho);
        let zt = refine_z(&d, rho, &roots, &z);
        for i in 0..5 {
            assert!(
                (zt[i] - z[i]).abs() < 1e-9,
                "z̃[{i}] = {} vs {}",
                zt[i],
                z[i]
            );
        }
    }

    #[test]
    fn eigenvectors_orthogonal_with_clusters() {
        let d = [0.0, 1e-7, 2e-7, 1.0, 2.0];
        let z = [0.3, 0.4, 0.2, 0.5, 0.1];
        let rho = 1.7;
        let roots = solve_all(&d, &z, rho);
        let v = vectors(&d, &z, rho, &roots);
        for a in 0..5 {
            for b in 0..a {
                let dot: f64 = v.col(a).iter().zip(v.col(b)).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-12, "⟨v{a}, v{b}⟩ = {dot}");
            }
        }
    }

    #[test]
    fn single_pole() {
        let d = [2.0];
        let z = [0.5];
        let rho = 4.0;
        let roots = solve_all(&d, &z, rho);
        assert!((roots[0].value(&d) - (2.0 + 4.0 * 0.25)).abs() < 1e-12);
    }

    /// The pole sets the tests below draw from: `(name, d, z)` with `d`
    /// strictly increasing and `‖z‖ = 1`.
    fn problems(a: usize, seed: u64) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        let normalize = |mut z: Vec<f64>| {
            let s = z.iter().map(|x| x * x).sum::<f64>().sqrt();
            z.iter_mut().for_each(|x| *x /= s);
            z
        };
        let mut random = uniform(a, seed);
        random.sort_by(f64::total_cmp);
        // clusters of four poles 1e-10 apart, the clusters well separated
        let clustered: Vec<f64> = (0..a)
            .map(|j| (j / 4) as f64 / a as f64 + (j % 4) as f64 * 1e-10)
            .collect();
        let signs = uniform(a, seed + 1);
        // z graded over 1e-8..1, random signs
        let graded: Vec<f64> = (0..a)
            .map(|j| signs[j].signum() * 10f64.powf(-8.0 * j as f64 / (a - 1) as f64))
            .collect();
        let z = normalize(uniform(a, seed + 2));
        vec![
            ("random", random.clone(), z.clone()),
            ("clustered", clustered, z),
            ("graded z", random, normalize(graded)),
        ]
    }

    /// Against Jacobi on the dense `D + ρzzᵀ`: every root, the last one
    /// included, within `a·ε·‖D + ρzzᵀ‖_F`, and the refined eigenvectors
    /// orthogonal to 1e-13.
    #[test]
    fn matches_jacobi_on_dense_rank_one_updates() {
        let a = 40;
        for (name, d, z) in problems(a, 7) {
            for rho in [1e-6, 1.0, 1e6] {
                let dense = Mat::from_fn(a, a, |i, j| {
                    rho * z[i] * z[j] + if i == j { d[i] } else { 0.0 }
                });
                let norm = tg_matrix::frob_norm(&dense);
                let (exact, _) = jacobi_evd(&dense).unwrap();
                let roots = solve_all(&d, &z, rho);
                let bound = a as f64 * f64::EPSILON * norm;
                for (k, r) in roots.iter().enumerate() {
                    let err = (r.value(&d) - exact[k]).abs();
                    assert!(
                        err <= bound,
                        "{name}, ρ = {rho:e}: root {k} off by {err:e} (bound {bound:e})"
                    );
                }
                let v = vectors(&d, &z, rho, &roots);
                let orth = tg_matrix::orthogonality_residual(&v);
                assert!(orth < 1e-13, "{name}, ρ = {rho:e}: ‖VᵀV − I‖ = {orth:e}");
            }
        }
    }

    /// The middle way's structural guard: a few evaluations per root on
    /// average, never more than `MAXIT`. Safeguarded Newton averaged about
    /// 17 here.
    #[test]
    fn middle_way_converges_in_a_few_steps() {
        let a = 256;
        for (name, d, z) in problems(a, 11).into_iter().take(2) {
            let counts: Vec<usize> = (0..a)
                .map(|k| solve_root_counted(&d, &z, 1.0, k).1)
                .collect();
            let mean = counts.iter().sum::<usize>() as f64 / a as f64;
            let max = *counts.iter().max().unwrap();
            assert!(mean <= 5.0, "{name}: {mean:.2} evaluations per root");
            assert!(max <= MAXIT, "{name}: a root took {max} evaluations");
        }
    }
}
