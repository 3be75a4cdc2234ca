//! Parallel-kernel and end-to-end timing report.
//!
//! Times the data-parallel kernels (`pairwise_distances_with`,
//! `matmul_blocked`, `KnnIndex::query_batch_parallel`), the
//! work-stealing executor on a straggler workload, and the full SUOD
//! fit/predict pipeline at 1/2/4/8 threads, and writes the results to
//! `BENCH_parallel.json` in the working directory so the perf trajectory
//! is tracked across PRs.
//!
//! Every timing is the minimum of [`REPS`] runs (minimum, not mean — the
//! quantity of interest is achievable speed, not scheduler noise).
//! Speedups are only meaningful on hosts with enough physical cores; the
//! report records `host_cores` so downstream comparisons can condition on
//! it (see DESIGN.md §4 on the single-core CI host).
//!
//! Flags: `--quick` shrinks problem sizes for smoke runs.

use std::fmt::Write as _;
use std::time::Instant;
use suod::prelude::*;
use suod_bench::Scale;
use suod_linalg::{pairwise_distances_with, DistanceMetric, KnnIndex, Matrix};
use suod_observe::noop;
use suod_scheduler::{bps_schedule, WorkStealingExecutor};

const THREADS: &[usize] = &[1, 2, 4, 8];
const REPS: usize = 3;

fn min_time(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.random_range(-2.0..2.0))
            .collect(),
    )
    .expect("shape consistent")
}

/// `{"1": 0.123, "2": 0.456, ...}` over the thread sweep.
fn times_json(times: &[(usize, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (t, secs)) in times.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{t}\": {secs:.6}");
    }
    s.push('}');
    s
}

fn sweep(label: &str, mut run: impl FnMut(usize)) -> String {
    let times: Vec<(usize, f64)> = THREADS.iter().map(|&t| (t, min_time(|| run(t)))).collect();
    let base = times[0].1;
    print!("{label:<28}");
    for (t, secs) in &times {
        print!("  {t}T {secs:>9.4}s ({:>4.2}x)", base / secs);
    }
    println!();
    times_json(&times)
}

fn spin(units: u64) -> u64 {
    let mut acc = 0x9E3779B97F4A7C15u64;
    for i in 0..units * 20_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

fn straggler_tasks() -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
    (0..16u64)
        .map(|i| {
            let units = if i == 0 { 50 } else { 1 };
            Box::new(move || spin(units)) as _
        })
        .collect()
}

fn pool(m_each: usize) -> Vec<ModelSpec> {
    let mut specs = Vec::new();
    for i in 0..m_each {
        specs.push(ModelSpec::Knn {
            n_neighbors: 5 + 5 * (i % 3),
            method: KnnMethod::Largest,
        });
        specs.push(ModelSpec::Lof {
            n_neighbors: 5 + 5 * (i % 3),
            metric: Metric::Euclidean,
        });
        specs.push(ModelSpec::Hbos {
            n_bins: 10 + 10 * (i % 3),
            tolerance: 0.3,
        });
        specs.push(ModelSpec::IForest {
            n_estimators: 20,
            max_features: 0.8,
        });
    }
    specs
}

/// A proximity-only pool sharing one (unprojected) input: the workload
/// the shared neighbour-graph cache exists for. 24 detectors = 8 k-values
/// x {kNN, LOF, LoOP}; fitted standalone, each pays its own KD-tree build
/// and sweep.
fn proximity_pool() -> Vec<ModelSpec> {
    let mut specs = Vec::new();
    for i in 0..8 {
        let k = 5 + 2 * i;
        specs.push(ModelSpec::Knn {
            n_neighbors: k,
            method: KnnMethod::Largest,
        });
        specs.push(ModelSpec::Lof {
            n_neighbors: k,
            metric: Metric::Euclidean,
        });
        specs.push(ModelSpec::Loop { n_neighbors: k });
    }
    specs
}

fn main() {
    let scale = Scale::from_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("Parallel kernel + end-to-end report (host cores: {host_cores})");

    // --- Kernels. ----------------------------------------------------------
    let (pw_n, pw_d) = scale.pick((400, 16), (2000, 16), (2000, 16));
    let a = random_matrix(pw_n, pw_d, 1);
    let pairwise = sweep(&format!("pairwise {pw_n}x{pw_d}"), |t| {
        let _ = pairwise_distances_with(
            &a,
            &a,
            DistanceMetric::Euclidean,
            KernelConfig::default(),
            t,
            None,
        )
        .expect("shapes");
    });

    let mm = scale.pick(128, 384, 384);
    let ma = random_matrix(mm, mm, 2);
    let mb = random_matrix(mm, mm, 3);
    let matmul = sweep(&format!("matmul_blocked {mm}^3"), |t| {
        let _ = ma.matmul_blocked(&mb, t).expect("shapes");
    });

    let (knn_n, knn_q) = scale.pick((500, 100), (2000, 500), (2000, 500));
    let train = random_matrix(knn_n, 16, 4);
    let queries = random_matrix(knn_q, 16, 5);
    let index = KnnIndex::build(&train, DistanceMetric::Euclidean).expect("non-empty");
    let knn = sweep(&format!("knn_batch {knn_n}tr/{knn_q}q"), |t| {
        let _ = index.query_batch_parallel(&queries, 10, t).expect("shapes");
    });

    // --- Executor straggler workload (t = 4). ------------------------------
    let mut wrong_costs = vec![1.0; 16];
    wrong_costs[0] = 2.0;
    let assignment = bps_schedule(&wrong_costs, 4, 1.0).expect("valid");
    let steal_pool = WorkStealingExecutor::new(4).expect("valid");
    let mut steals = 0usize;
    let stealing_s = min_time(|| {
        let (_, report) = steal_pool
            .run(straggler_tasks(), &assignment, noop())
            .expect("runs");
        steals = report.steals;
    });
    println!("straggler m16/t4             stealing {stealing_s:.4}s ({steals} steals)");

    // --- End-to-end fit/predict. -------------------------------------------
    let (n, m_each) = scale.pick((150, 1), (600, 2), (1200, 3));
    let x = random_matrix(n, 12, 6);
    let mut fit_times: Vec<(usize, f64)> = Vec::new();
    let mut predict_times: Vec<(usize, f64)> = Vec::new();
    for &t in THREADS {
        let mut fitted = None;
        let fit_s = min_time(|| {
            let mut model = Suod::builder()
                .base_estimators(pool(m_each))
                .n_workers(t)
                .seed(7)
                .build()
                .expect("valid config");
            model.fit(&x).expect("fit succeeds");
            fitted = Some(model);
        });
        let model = fitted.expect("fitted above");
        let predict_s = min_time(|| {
            let _ = model.decision_function(&x).expect("predict succeeds");
        });
        fit_times.push((t, fit_s));
        predict_times.push((t, predict_s));
    }
    print!("end-to-end fit n={n}          ");
    for (t, s) in &fit_times {
        print!("  {t}T {s:>9.4}s");
    }
    println!();
    print!("end-to-end predict n={n}      ");
    for (t, s) in &predict_times {
        print!("  {t}T {s:>9.4}s");
    }
    println!();

    // --- Neighbor-cache pool fit: standalone fits vs one pool. ------------
    // >= 20 proximity detectors sharing one unprojected input. Fitted
    // standalone — each model a pool of one — every model pays its own
    // KD-tree build + leave-one-out sweep; in one pool, the Euclidean
    // group builds once at the pooled k_max and everyone else gets a
    // prefix view.
    let cache_n = scale.pick(400, 1200, 2400);
    let cache_x = random_matrix(cache_n, 12, 8);
    let cache_pool_size = proximity_pool().len();
    let pool_fit = |specs: Vec<ModelSpec>, t: usize| -> (u64, u64) {
        let mut model = Suod::builder()
            .base_estimators(specs)
            .with_projection(false)
            .with_approximation(false)
            .n_workers(t)
            .seed(9)
            .build()
            .expect("valid config");
        model.fit(&cache_x).expect("fit succeeds");
        let report = model
            .diagnostics()
            .expect("fit emits telemetry")
            .execution();
        (report.cache_hits, report.cache_misses)
    };
    let mut pooled_times: Vec<(usize, f64)> = Vec::new();
    let mut standalone_times: Vec<(usize, f64)> = Vec::new();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for &t in THREADS {
        let off_s = min_time(|| {
            for spec in proximity_pool() {
                pool_fit(vec![spec], t);
            }
        });
        let on_s = min_time(|| (cache_hits, cache_misses) = pool_fit(proximity_pool(), t));
        standalone_times.push((t, off_s));
        pooled_times.push((t, on_s));
        let (hits, misses) = (cache_hits, cache_misses);
        println!(
            "cache pool fit n={cache_n} m={cache_pool_size} {t}T   \
             standalone {off_s:>9.4}s  pooled {on_s:>9.4}s  ({:.2}x, \
             {hits} hits/{misses} misses)",
            off_s / on_s
        );
    }

    // --- Report. -----------------------------------------------------------
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"scale\": \"{scale:?}\",\n  \"kernels\": {{\n    \
         \"pairwise_{pw_n}x{pw_d}\": {pairwise},\n    \"matmul_blocked_{mm}\": {matmul},\n    \
         \"knn_batch_{knn_n}x{knn_q}\": {knn}\n  }},\n  \"executor_straggler_m16_t4\": {{\n    \
         \"stealing_s\": {stealing_s:.6},\n    \
         \"steals\": {steals}\n  }},\n  \"end_to_end_n{n}\": {{\n    \"fit\": {},\n    \
         \"predict\": {}\n  }},\n  \"neighbor_cache_pool_fit_n{cache_n}\": {{\n    \
         \"pool\": {{\"total\": {cache_pool_size}, \"knn\": 8, \"lof\": 8, \"loop\": 8}},\n    \
         \"uncached_fit\": {},\n    \"cached_fit\": {},\n    \
         \"speedup_t1\": {:.4},\n    \"cache_hits\": {cache_hits},\n    \
         \"cache_misses\": {cache_misses}\n  }}\n}}\n",
        times_json(&fit_times),
        times_json(&predict_times),
        times_json(&standalone_times),
        times_json(&pooled_times),
        standalone_times[0].1 / pooled_times[0].1,
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}
