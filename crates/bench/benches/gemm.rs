//! Criterion bench: the GEMM kernel underlying every level-3 operation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tg_blas::{gemm, Op};
use tg_matrix::{gen, Mat};

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(10);
    for &n in &[64usize, 128, 256, 512] {
        let a = gen::random(n, n, 1);
        let b = gen::random(n, n, 2);
        g.throughput(Throughput::Elements(tg_blas::flops::gemm(n, n, n)));
        g.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            let mut cm = Mat::zeros(n, n);
            bench.iter(|| {
                gemm(
                    1.0,
                    &a.as_ref(),
                    Op::NoTrans,
                    &b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    &mut cm.as_mut(),
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("packed_nn", n), &n, |bench, _| {
            let mut cm = Mat::zeros(n, n);
            bench.iter(|| {
                tg_blas::gemm_packed(
                    1.0,
                    &a.as_ref(),
                    Op::NoTrans,
                    &b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    &mut cm.as_mut(),
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            let mut cm = Mat::zeros(n, n);
            bench.iter(|| {
                gemm(
                    1.0,
                    &a.as_ref(),
                    Op::Trans,
                    &b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    &mut cm.as_mut(),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
