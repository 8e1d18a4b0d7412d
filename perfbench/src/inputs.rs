//! Seeded workload inputs. Everything here runs before any timing starts.
//!
//! Every matrix comes from `gen::with_spectrum` over a known, well-separated
//! spectrum, so each result can be checked in `O(n)` against the spectrum
//! it was built from, and eigenvectors by an eigenpair residual whose
//! meaning does not depend on near-degenerate pairs.

use tg_eigen::EvdMethod;
use tg_matrix::{gen, Mat};

pub const WORKLOADS: &[&str] = &["evd_vectors", "evd_small_mix", "serve_zipf"];

/// `evd_vectors`: the Q₂ sweep blocks, merged Q₁ blocks and eigenvector
/// matrix of an n = 256 solve stay inside the 2 MiB per-core L2; at n = 512
/// they spill into the L3 shared with other tenants and the op time
/// wandered by 20 % between runs on a shared 2-vCPU Xeon guest (2 MiB L2,
/// 105 MiB L3).
const VECTORS_N: usize = 256;
const VECTORS_MATRICES: usize = 3;
/// `evd_small_mix`: includes off-by-one sizes around the powers of two,
/// where the look-ahead and blocked back-transform crossovers live.
const SMALL_MIX_SIZES: &[usize] = &[15, 31, 33, 48, 64, 65, 96, 127, 128, 129, 192];

/// `serve_zipf`: the pool is four (size, vectors) classes with the same
/// number of members each, so the mix the service sees does not depend on
/// the seed; the seed picks the matrices and which member is how popular.
/// Three classes cost about the same and one costs several times more, so
/// with about four in five requests missing the cache the median falls in
/// the middle of the cheap band and the tail (p93) inside the costly class,
/// neither on a boundary between classes. Single-threaded solves with one
/// sweep thread took 7.8 ms (n = 176, values), 8.4 ms (104, vectors),
/// 10.0 ms (192, values) and 43 ms (160, vectors) on a 2-vCPU Xeon guest.
const SERVE_CLASSES: &[(usize, bool)] = &[(104, true), (176, false), (192, false), (160, true)];
const SERVE_PER_CLASS: usize = 12;

/// splitmix64: tiny, seedable, and good enough to draw inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be7c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One solve: the input, the spectrum it was built from (ascending), and
/// how it is called.
pub struct Op {
    pub a: Mat,
    pub eigs: Vec<f64>,
    pub vectors: bool,
    pub method: EvdMethod,
}

impl Op {
    pub fn n(&self) -> usize {
        self.a.nrows()
    }

    fn generate(n: usize, vectors: bool, rng: &mut Rng) -> Op {
        // Evenly spaced over [-1, 1] with a seeded jitter of at most 20 %
        // of the spacing: every gap stays ≥ 60 % of 2/n.
        let h = 2.0 / n as f64;
        let eigs: Vec<f64> = (0..n)
            .map(|i| -1.0 + h * (i as f64 + 0.5 + 0.4 * (rng.uniform() - 0.5)))
            .collect();
        let a = gen::with_spectrum(&eigs, rng.next_u64());
        Op {
            a,
            eigs,
            vectors,
            method: EvdMethod::proposed_default(n),
        }
    }
}

pub struct EvdWorkload {
    /// Inputs in the order one pass of the closed loop issues them.
    pub ops: Vec<Op>,
}

pub struct ServeWorkload {
    /// Distinct matrices; `pool[r * classes + c]` is the member of class
    /// `c` with popularity rank `r` (0 = most popular).
    pub pool: Vec<Op>,
    pub classes: usize,
    pub seed: u64,
}

pub enum Workload {
    Evd(EvdWorkload),
    Serve(ServeWorkload),
}

impl Workload {
    pub fn generate(name: &str, seed: u64) -> Workload {
        let mut rng = Rng::new(seed);
        match name {
            "evd_vectors" => Workload::Evd(EvdWorkload {
                ops: (0..VECTORS_MATRICES)
                    .map(|_| Op::generate(VECTORS_N, true, &mut rng))
                    .collect(),
            }),
            "evd_small_mix" => {
                // Every (size, vectors) class once per pass; the seed
                // draws the order and the matrices.
                let mut classes: Vec<(usize, bool)> = SMALL_MIX_SIZES
                    .iter()
                    .flat_map(|&n| [(n, false), (n, true)])
                    .collect();
                rng.shuffle(&mut classes);
                Workload::Evd(EvdWorkload {
                    ops: classes
                        .into_iter()
                        .map(|(n, v)| Op::generate(n, v, &mut rng))
                        .collect(),
                })
            }
            "serve_zipf" => {
                // Every class has one member at each popularity rank.
                let classes = SERVE_CLASSES;
                let pool = (0..classes.len() * SERVE_PER_CLASS)
                    .map(|r| {
                        let (n, v) = classes[r % classes.len()];
                        let mut op = Op::generate(n, v, &mut rng);
                        // One bulge-chasing thread per solve: the two
                        // workers are the service's parallelism. The
                        // default four sweep threads spin-wait on each
                        // other; on two cores they made an n = 192
                        // values-only solve take 16 ms instead of 10, and
                        // set-up slowed 2.3-fold while other guests took
                        // a tenth of the CPU time.
                        if let EvdMethod::Proposed {
                            parallel_sweeps, ..
                        } = &mut op.method
                        {
                            *parallel_sweeps = 1;
                        }
                        op
                    })
                    .collect();
                Workload::Serve(ServeWorkload {
                    pool,
                    classes: classes.len(),
                    seed: rng.next_u64(),
                })
            }
            _ => unreachable!("workload names are validated by the CLI"),
        }
    }

    /// The distinct inputs of the workload, in issue order.
    pub fn ops(&self) -> &[Op] {
        match self {
            Workload::Evd(e) => &e.ops,
            Workload::Serve(s) => &s.pool,
        }
    }
}
