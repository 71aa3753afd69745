//! Microbenchmarks of the SGD update kernel: dot product, plain update,
//! shared-atomic update — per-update cost across latent dimensions
//! (the `(16k+4)/B` term of the time-cost model).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hcc_sgd::kernel::{dot, sgd_step, sgd_step_shared};
use hcc_sgd::{FactorMatrix, SharedFactors};
use std::hint::black_box;

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    for k in [16usize, 32, 64, 128] {
        let a: Vec<f32> = (0..k).map(|j| j as f32 * 0.01).collect();
        let b: Vec<f32> = (0..k).map(|j| j as f32 * 0.02).collect();
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("plain", k), &k, |bench, _| {
            bench.iter(|| dot(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_sgd_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgd_step");
    for k in [16usize, 32, 64, 128] {
        let mut p: Vec<f32> = (0..k).map(|j| 0.1 + j as f32 * 0.001).collect();
        let mut q: Vec<f32> = (0..k).map(|j| 0.2 + j as f32 * 0.001).collect();
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("plain", k), &k, |bench, _| {
            bench.iter(|| sgd_step(black_box(&mut p), black_box(&mut q), 3.5, 0.005, 0.01, 0.01))
        });

        let ps = SharedFactors::from_matrix(&FactorMatrix::random(64, k, 1));
        let qs = SharedFactors::from_matrix(&FactorMatrix::random(64, k, 2));
        group.bench_with_input(BenchmarkId::new("shared", k), &k, |bench, _| {
            bench.iter(|| {
                sgd_step_shared(black_box(&ps), black_box(&qs), 7, 9, 3.5, 0.005, 0.01, 0.01)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dot, bench_sgd_step
}
criterion_main!(benches);
