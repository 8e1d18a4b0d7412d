//! Thread-count determinism for divide & conquer (`stedc`).
//!
//! The top split solves its two halves as a two-task fan-out: inline and
//! in order at `TG_THREADS=1`, on two lanes at `TG_THREADS=2`. Each half
//! writes only its own diagonal block of the output and its own slice of
//! the scratch, and the merge GEMMs partition only their `ic` strips, so
//! the result must match **bitwise** — the same contract as
//! `gemm_determinism.rs` and `stage1_determinism.rs`.

use std::sync::Mutex;
use tridiag_gpu::prelude::*;

/// Serializes the env-driven tests: `TG_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn solve_at(t: &Tridiagonal, threads: &str) -> (Vec<f64>, Mat) {
    std::env::set_var("TG_THREADS", threads);
    let out = stedc(t).expect("stedc converges");
    std::env::remove_var("TG_THREADS");
    out
}

/// n = 256 (three merge levels above the leaves) on a random tridiagonal,
/// which deflates little, and on a glued one, whose merges deflate
/// heavily and mix top and bottom columns.
#[test]
fn stedc_bitwise_across_tg_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    for (name, t) in [
        ("random", gen::random_tridiagonal(256, 5)),
        ("glued", gen::glued(32, 8, 1e-9)),
    ] {
        let (e1, v1) = solve_at(&t, "1");
        let (e2, v2) = solve_at(&t, "2");
        for (k, (a, b)) in e1.iter().zip(&e2).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}: eigenvalue {k}: {a} vs {b}"
            );
        }
        for (i, (a, b)) in v1.as_slice().iter().zip(v2.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}: vector bit mismatch at flat index {i}"
            );
        }
    }
}
