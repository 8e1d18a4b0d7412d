//! Criterion bench for Figure 14: conventional ormqr-ordered back
//! transformation vs the Figure-13 blocked-W scheme.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tg_matrix::gen;
use tridiag_core::backtransform::{apply_q1, apply_q1_blocked};
use tridiag_core::band_reduce;

fn bench_bt(c: &mut Criterion) {
    let mut g = c.benchmark_group("backtransform");
    g.sample_size(10);
    let n = 192;
    let b = 8;
    let mut a = gen::random_symmetric(n, 1);
    let red = band_reduce(&mut a, b, 64);
    let c0 = gen::random(n, n, 2);
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
                apply_q1_blocked(&red.factors, &mut cm, k)
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
            bc.apply_q_left_blocked(&mut cm, false);
            cm
        });
    });
    g.finish();
}

criterion_group!(benches, bench_bt);
criterion_main!(benches);
