//! Hogwild thread-scaling and solver comparison on a fixed dataset: the
//! real-engine analog of the paper's per-processor "computing power".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hcc_baselines::{CumfSgdSim, Dsgd, Fpsgd, Nomad, SerialSgd, TrainConfig};
use hcc_sgd::{
    hogwild_epoch, rule_epoch, rule_epoch_tiled, AdaGrad, AdaGradState, FactorMatrix,
    HogwildConfig, Momentum, MomentumState, Schedule, Sgd, SharedFactors,
};
use hcc_sparse::{GenConfig, SyntheticDataset, TileGrid};

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: 2_000,
        cols: 1_000,
        nnz: 100_000,
        ..GenConfig::default()
    })
}

fn bench_hogwild_threads(c: &mut Criterion) {
    let ds = dataset();
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("hogwild_epoch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ds.matrix.nnz() as u64));
    for threads in [1usize, 2, 4].into_iter().filter(|&t| t <= max.max(1) * 2) {
        let p = SharedFactors::from_matrix(&FactorMatrix::random(2_000, 32, 1));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(1_000, 32, 2));
        let cfg = HogwildConfig {
            threads,
            learning_rate: 0.005,
            lambda_p: 0.01,
            lambda_q: 0.01,
            schedule: Default::default(),
        };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg))
        });
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let ds = dataset();
    let cfg = TrainConfig {
        k: 32,
        epochs: 1,
        threads: 2,
        ..Default::default()
    };
    let mut group = c.benchmark_group("solver_epoch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ds.matrix.nnz() as u64));
    group.bench_function("serial", |b| b.iter(|| SerialSgd.train(&ds.matrix, &cfg)));
    group.bench_function("fpsgd", |b| {
        b.iter(|| Fpsgd::default().train(&ds.matrix, &cfg))
    });
    group.bench_function("cumf_sim", |b| {
        b.iter(|| CumfSgdSim::default().train(&ds.matrix, &cfg))
    });
    group.bench_function("cumf_sim_unsorted", |b| {
        let solver = CumfSgdSim {
            sort_by_row: false,
            ..Default::default()
        };
        b.iter(|| solver.train(&ds.matrix, &cfg))
    });
    group.bench_function("dsgd", |b| {
        b.iter(|| Dsgd::default().train(&ds.matrix, &cfg))
    });
    group.bench_function("nomad", |b| b.iter(|| Nomad.train(&ds.matrix, &cfg)));
    group.finish();
}

fn bench_optimizers(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("optimizer_epoch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ds.matrix.nnz() as u64));

    let p = SharedFactors::from_matrix(&FactorMatrix::random(2_000, 32, 1));
    let q = SharedFactors::from_matrix(&FactorMatrix::random(1_000, 32, 2));
    let grid = TileGrid::with_default_budget(ds.matrix.entries(), 2_000, 1_000, 32);
    let cfg = HogwildConfig {
        threads: 2,
        learning_rate: 0.005,
        lambda_p: 0.01,
        lambda_q: 0.01,
        schedule: Schedule::Stripe,
    };
    // A stripe row and a tiled row per rule, each on the sweep
    // monomorphized for that rule, as the workers run it.
    macro_rules! rule_rows {
        ($name:literal, $rule:expr) => {{
            let rule = $rule;
            group.bench_function(concat!($name, "/stripe"), |b| {
                b.iter(|| rule_epoch(ds.matrix.entries(), &p, &q, &rule, &cfg))
            });
            group.bench_function(concat!($name, "/tiled"), |b| {
                b.iter(|| rule_epoch_tiled(&grid, &p, &q, &rule, &cfg))
            });
        }};
    }
    rule_rows!("sgd", Sgd);
    rule_rows!(
        "adagrad",
        AdaGrad::new(0.05, 1e-8, AdaGradState::new(2_000, 1_000, 32))
    );
    rule_rows!(
        "momentum",
        Momentum::new(0.9, MomentumState::new(2_000, 1_000, 32))
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_hogwild_threads,
    bench_solvers,
    bench_optimizers
);
criterion_main!(benches);
