//! Criterion bench for batched EVD throughput: the serial reference loop
//! vs the `tg-batch` scheduler's worker pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tg_batch::BatchScheduler;
use tg_eigen::{syevd_batched, EvdMethod};
use tg_matrix::{gen, Mat};

fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_evd");
    g.sample_size(10);
    let n = 48;
    let count = 8;
    let problems: Vec<Mat> = (0..count)
        .map(|i| gen::random_symmetric(n, 1 + i as u64))
        .collect();
    let method = EvdMethod::proposed_default(n);

    g.bench_with_input(
        BenchmarkId::new("serial_loop", count),
        &problems,
        |b, probs| b.iter(|| syevd_batched(probs, &method, false).unwrap()),
    );

    let workers = tg_blas::threads::worker_threads();
    g.bench_with_input(
        BenchmarkId::new(format!("scheduler_w{workers}"), count),
        &problems,
        |b, probs| {
            b.iter(|| {
                BatchScheduler::new(workers)
                    .syevd(probs, &method, false)
                    .unwrap()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
