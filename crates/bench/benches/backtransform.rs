//! Criterion bench for Figure 14: conventional ormqr-ordered back
//! transformation vs the Figure-13 blocked-W scheme (the panel-parallel
//! path `syevd` runs, at `gemm_threads()` workers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tg_blas::threads::gemm_threads;
use tg_matrix::gen;
use tridiag_core::backtransform::{
    apply_blocks_panels, apply_q1, merge_q1_blocked_ws, release_blocks,
};
use tridiag_core::{band_reduce, AllocPool, PanelPools};

fn bench_bt(c: &mut Criterion) {
    let mut g = c.benchmark_group("backtransform");
    g.sample_size(10);
    let n = 192;
    let b = 8;
    let mut a = gen::random_symmetric(n, 1);
    let red = band_reduce(&mut a, b, 64);
    let c0 = gen::random(n, n, 2);
    let workers = gemm_threads();
    let mut pools = PanelPools::new();
    g.bench_function("conventional", |bench| {
        bench.iter(|| {
            let mut cm = c0.clone();
            apply_q1(&red.factors, &mut cm, false)
        });
    });
    for &k in &[32usize, 64] {
        g.bench_with_input(BenchmarkId::new("blocked_w", k), &k, |bench, &k| {
            bench.iter(|| {
                let mut cm = c0.clone();
                let merged = merge_q1_blocked_ws(&red.factors, k, &mut AllocPool);
                apply_blocks_panels(&merged, &mut cm, workers, &mut pools);
                release_blocks(merged, &mut AllocPool);
                cm
            });
        });
    }

    // BC back transformation: per-reflector vs cross-sweep grouped blocks
    // (§8 extension)
    let band = tg_matrix::SymBand::from_dense_lower(&gen::random_symmetric_band(n, b, 3), b);
    let bc = tridiag_core::bulge_chase_seq(&band);
    g.bench_function("bc_reflectors", |bench| {
        bench.iter(|| {
            let mut cm = c0.clone();
            bc.apply_q_left(&mut cm, false);
            cm
        });
    });
    g.bench_function("bc_grouped_blocks", |bench| {
        bench.iter(|| {
            let mut cm = c0.clone();
            let blocks = bc.sweep_blocks_ws(&mut AllocPool);
            apply_blocks_panels(&blocks, &mut cm, workers, &mut pools);
            release_blocks(blocks, &mut AllocPool);
            cm
        });
    });
    g.finish();
}

criterion_group!(benches, bench_bt);
criterion_main!(benches);
