//! Property battery for the content-addressed result cache.
//!
//! Four families, mirroring `queue_properties.rs`:
//!
//! * **correctness of hits** — serving a submission from the cache returns
//!   a result bitwise-identical to a fresh direct solve of the same input;
//! * **budget** — no insert/lookup sequence ever leaves `live_bytes`
//!   above the configured byte budget;
//! * **model equivalence** — arbitrary insert/lookup schedules against
//!   [`EvdCache`] match a flat `HashMap` reference model implementing the
//!   same LRU-by-stamp rule, hit for hit, eviction for eviction;
//! * **key injectivity in practice** — distinct equal-shape matrices never
//!   derive colliding [`CacheKey`]s across a seed sweep.

use std::collections::HashMap;

use proptest::prelude::*;
use tg_eigen::{Evd, EvdMethod};
use tg_matrix::gen;
use tg_serve::{
    result_bytes, CacheKey, EvdCache, JobService, JobSpec, JobStatus, ServeConfig, ENTRY_OVERHEAD,
};
use tridiag_core::ShapeClass;

fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn evd_of(len: usize, seed: u64) -> Evd {
    Evd {
        eigenvalues: (0..len).map(|i| seed as f64 + i as f64).collect(),
        eigenvectors: None,
    }
}

fn key_of(tag: u64) -> CacheKey {
    CacheKey {
        digest: tag,
        class: ShapeClass { n: 8, b: 2, k: 0 },
        method_tag: 2,
        want_vectors: false,
        fused_kernel: false,
    }
}

/// Flat reference model of the cache: same byte math, same LRU-by-stamp
/// eviction rule, implemented over a plain `HashMap` with a linear scan.
struct Model {
    budget: u64,
    map: HashMap<u64, (Vec<u64>, u64, u64)>, // tag -> (value bits, bytes, stamp)
    live: u64,
    tick: u64,
}

impl Model {
    fn new(budget: u64) -> Model {
        Model {
            budget,
            map: HashMap::new(),
            live: 0,
            tick: 0,
        }
    }

    fn lookup(&mut self, tag: u64) -> Option<Vec<u64>> {
        let (bits, _, stamp) = self.map.get_mut(&tag)?;
        self.tick += 1;
        *stamp = self.tick;
        Some(bits.clone())
    }

    /// Returns tags evicted (in order), or `None` for an oversize reject.
    fn insert(&mut self, tag: u64, evd: &Evd) -> Option<Vec<u64>> {
        let bytes = evd.eigenvalues.len() as u64 * 8 + ENTRY_OVERHEAD;
        if bytes > self.budget {
            return None;
        }
        if let Some((_, old, _)) = self.map.remove(&tag) {
            self.live -= old;
        }
        let mut evicted = Vec::new();
        while self.live + bytes > self.budget {
            let lru = *self
                .map
                .iter()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(k, _)| k)
                .expect("over budget implies non-empty");
            let (_, b, _) = self.map.remove(&lru).unwrap();
            self.live -= b;
            evicted.push(lru);
        }
        self.tick += 1;
        self.map.insert(
            tag,
            (
                evd.eigenvalues.iter().map(|x| x.to_bits()).collect(),
                bytes,
                self.tick,
            ),
        );
        self.live += bytes;
        Some(evicted)
    }
}

/// Drives one seed-derived schedule against cache and model in lockstep.
fn run_schedule(seed: u64, budget: u64, steps: usize) {
    let mut s = seed;
    let mut cache = EvdCache::new(budget);
    let mut model = Model::new(budget);
    // A small tag universe so lookups actually hit.
    const TAGS: u64 = 12;
    for _ in 0..steps {
        let r = splitmix64(&mut s);
        let tag = (r >> 8) % TAGS;
        if r.is_multiple_of(2) {
            // Value length varies with the tag so entries have different
            // sizes (exercises multi-entry eviction); content derives from
            // the tag so a model hit can be checked bit for bit.
            let evd = evd_of(1 + (tag as usize % 7) * 3, tag * 1000);
            let got = cache.insert(key_of(tag), &evd);
            match model.insert(tag, &evd) {
                None => assert_eq!(got, 0, "cache stored an oversize entry the model rejected"),
                Some(evicted_tags) => {
                    let expect_bytes: u64 = evicted_tags
                        .iter()
                        .map(|t| (1 + (*t as usize % 7) * 3) as u64 * 8 + ENTRY_OVERHEAD)
                        .sum();
                    assert_eq!(got, expect_bytes, "evicted bytes diverged from model");
                }
            }
        } else {
            let got = cache.lookup(&key_of(tag));
            let want = model.lookup(tag);
            match (got, want) {
                (None, None) => {}
                (Some(evd), Some(bits)) => {
                    let got_bits: Vec<u64> = evd.eigenvalues.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got_bits, bits, "hit returned different bytes than stored");
                }
                (g, w) => panic!(
                    "hit/miss diverged from model: cache={:?} model={:?}",
                    g.is_some(),
                    w.is_some()
                ),
            }
        }
        // Structural invariants, checked after every step.
        assert!(
            cache.live_bytes() <= budget,
            "byte budget exceeded: {} > {budget}",
            cache.live_bytes()
        );
        assert_eq!(cache.entries(), model.map.len(), "entry count diverged");
        assert_eq!(cache.live_bytes(), model.live, "live bytes diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: arbitrary insert/lookup schedules match the
    /// reference model exactly and never exceed the byte budget.
    fn schedules_match_model_and_respect_budget(
        seed in 0u64..u64::MAX,
        budget in 64u64..2048,
        steps in 1usize..300,
    ) {
        run_schedule(seed, budget, steps);
    }

    /// Tiny budgets churn constantly but still never go over.
    fn minimal_budget_is_all_eviction_but_bounded(
        seed in 0u64..u64::MAX,
        steps in 20usize..200,
    ) {
        // Fits exactly one of the smallest entries (8 + 64 = 72).
        run_schedule(seed, 96, steps);
    }

    /// Distinct equal-shape matrices never collide: the digest covers
    /// every stored byte, so two different seeds (different content, same
    /// `(n, method, want_vectors)`) must produce different keys.
    fn distinct_matrices_never_collide(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        n in 4usize..24,
    ) {
        let seed_b = if seed_a == seed_b { seed_b + 1 } else { seed_b };
        let method = EvdMethod::proposed_default(n);
        let a = gen::random_symmetric(n, seed_a);
        let b = gen::random_symmetric(n, seed_b);
        let ka = CacheKey::derive(&a, &method, true);
        let kb = CacheKey::derive(&b, &method, true);
        prop_assert_eq!(ka.class, kb.class);
        prop_assert!(ka != kb, "distinct content collided on one key");
    }
}

/// End-to-end hit correctness through the service: the second submission
/// of the same spec is served from the cache (no second worker solve) and
/// its result is bitwise-identical to both the first submission and a
/// fresh direct solve.
#[test]
fn cache_hits_are_bitwise_identical_to_fresh_solves() {
    for n in [12usize, 24, 33] {
        let method = EvdMethod::proposed_default(n);
        let a = gen::random_symmetric(n, 77 + n as u64);
        let svc = JobService::start(ServeConfig {
            workers: 2,
            cache_bytes: 8 * 1024 * 1024,
            // verify_hits makes the service itself assert the property on
            // every hit, on top of the explicit checks below.
            verify_hits: true,
            ..ServeConfig::default()
        })
        .unwrap();

        let first = svc
            .submit(JobSpec::new(a.clone(), method.clone(), true))
            .unwrap();
        let miss = svc.wait(first);
        assert_eq!(miss.status, JobStatus::Completed);
        assert!(miss.attempts >= 1, "the miss path runs a worker solve");

        let second = svc
            .submit(JobSpec::new(a.clone(), method.clone(), true))
            .unwrap();
        let hit = svc.wait(second);
        assert_eq!(hit.status, JobStatus::Completed);
        assert_eq!(hit.attempts, 0, "a cache hit never runs an attempt");

        let direct = tg_eigen::syevd(&mut a.clone(), &method, true).unwrap();
        for out in [&miss, &hit] {
            let evd = out.result.as_ref().unwrap();
            assert_eq!(evd.eigenvalues.len(), direct.eigenvalues.len());
            for (x, y) in evd.eigenvalues.iter().zip(direct.eigenvalues.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "eigenvalues differ bitwise");
            }
            let (v, dv) = (
                evd.eigenvectors.as_ref().unwrap(),
                direct.eigenvectors.as_ref().unwrap(),
            );
            for (x, y) in v.as_slice().iter().zip(dv.as_slice().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "eigenvectors differ bitwise");
            }
        }

        let stats = svc.shutdown();
        assert_eq!(stats.ledger.cache_hits, 1);
        assert_eq!(stats.ledger.completed, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.insertions, 1);
    }
}

/// `result_bytes` is exactly the byte math the budget reasoning assumes.
#[test]
fn result_bytes_matches_documented_formula() {
    let vals_only = evd_of(10, 0);
    assert_eq!(result_bytes(&vals_only), 10 * 8 + ENTRY_OVERHEAD);
    let with_vecs = Evd {
        eigenvalues: vec![0.0; 6],
        eigenvectors: Some(tg_matrix::Mat::zeros(6, 6)),
    };
    assert_eq!(result_bytes(&with_vecs), (6 + 36) * 8 + ENTRY_OVERHEAD);
}
