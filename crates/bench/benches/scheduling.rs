//! Criterion micro-benchmarks: scheduling overhead and executor behaviour.
//!
//! BPS adds a ranking + greedy-assignment step on top of generic
//! chunking; the first group shows that the overhead is microseconds even
//! for 1000-model pools — negligible against seconds of detector
//! training. The second group runs a skewed-cost straggler workload (one
//! task ~50x the rest, under a deliberately wrong cost forecast) through
//! the [`WorkStealingExecutor`]: stealing bounds the damage of a
//! misprediction. (On a single-core host it degenerates to sequential
//! time.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use suod_observe::noop;
use suod_scheduler::{
    bps_schedule, generic_schedule, shuffled_schedule, simulate_makespan, WorkStealingExecutor,
};

fn costs(m: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..m).map(|_| rng.random_range(0.01..10.0)).collect()
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_m1000_t8");
    group.sample_size(20);
    let cost_vec = costs(1000);

    group.bench_function("generic", |b| {
        b.iter(|| generic_schedule(black_box(1000), 8).expect("valid"))
    });
    group.bench_function("shuffled", |b| {
        b.iter(|| shuffled_schedule(black_box(1000), 8, 3).expect("valid"))
    });
    group.bench_function("bps", |b| {
        b.iter(|| bps_schedule(black_box(&cost_vec), 8, 1.0).expect("valid"))
    });
    group.bench_function("simulate_makespan", |b| {
        let a = bps_schedule(&cost_vec, 8, 1.0).expect("valid");
        b.iter(|| simulate_makespan(black_box(&cost_vec), &a).expect("valid"))
    });
    group.finish();
}

/// CPU-bound busy work of roughly `units` equal cost quanta.
fn spin(units: u64) -> u64 {
    let mut acc = 0x9E3779B97F4A7C15u64;
    for i in 0..units * 20_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// One 50x straggler among cheap tasks, forecast as merely 2x — the
/// misprediction BPS cannot fix statically.
fn straggler_tasks() -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
    (0..16u64)
        .map(|i| {
            let units = if i == 0 { 50 } else { 1 };
            Box::new(move || spin(units)) as _
        })
        .collect()
}

fn bench_straggler(c: &mut Criterion) {
    let mut wrong_costs = vec![1.0; 16];
    wrong_costs[0] = 2.0;
    let assignment = bps_schedule(&wrong_costs, 4, 1.0).expect("valid");
    let pool = WorkStealingExecutor::new(4).expect("valid");

    let mut group = c.benchmark_group("straggler_m16_t4");
    group.sample_size(10);
    group.bench_function("stealing", |b| {
        b.iter_batched(
            straggler_tasks,
            |tasks| pool.run(tasks, &assignment, noop()).expect("runs"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_straggler);
criterion_main!(benches);
