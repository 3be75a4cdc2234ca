//! End-to-end contracts for the GEMM-backed distance kernels.
//!
//! The `DistanceBackend` selector changes *how* the proximity detectors
//! compute distances, never *what* the estimator means: `Blocked` (the
//! default) must reproduce the scalar reference bit for bit, `Gemm` must
//! stay deterministic for a fixed configuration regardless of worker
//! count, and the KD-tree crossover knob must not change any score
//! (tree and brute force are exact over the same metric).

use std::sync::Arc;
use suod::observe::Counter;
use suod::prelude::*;
use suod_datasets::registry;
use suod_linalg::Matrix;

fn proximity_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 10,
            method: KnnMethod::Mean,
        },
        ModelSpec::Lof {
            n_neighbors: 8,
            metric: Metric::Euclidean,
        },
        ModelSpec::Abod { n_neighbors: 6 },
        ModelSpec::Cof { n_neighbors: 7 },
        ModelSpec::Loop { n_neighbors: 9 },
    ]
}

fn fit_and_score(
    backend: DistanceBackend,
    crossover: Option<usize>,
    n_workers: usize,
    x: &Matrix,
    queries: &Matrix,
) -> (Matrix, Matrix) {
    let mut kernel = KernelConfig::default().with_backend(backend);
    if let Some(dims) = crossover {
        kernel = kernel.with_kdtree_crossover_dim(dims);
    }
    let mut model = Suod::builder()
        .base_estimators(proximity_pool())
        .kernel(kernel)
        .n_workers(n_workers)
        .seed(7)
        .build()
        .expect("valid config");
    model.fit(x).expect("fit succeeds");
    let train = model.training_scores().expect("fitted");
    let query = model.decision_function(queries).expect("fitted");
    (train, query)
}

fn queries_for(x: &Matrix) -> Matrix {
    let mut shifted = x.clone();
    for v in shifted.as_mut_slice() {
        *v += 0.25;
    }
    shifted
}

#[test]
fn blocked_default_reproduces_naive_bitwise_end_to_end() {
    let ds = registry::load_scaled("cardio", 5, 0.2).expect("registry dataset");
    let queries = queries_for(&ds.x);
    let (train_n, query_n) = fit_and_score(DistanceBackend::Naive, None, 1, &ds.x, &queries);
    for workers in [1usize, 4] {
        let (train_b, query_b) =
            fit_and_score(DistanceBackend::Blocked, None, workers, &ds.x, &queries);
        assert_eq!(
            train_n.as_slice(),
            train_b.as_slice(),
            "blocked != naive training scores at n_workers={workers}"
        );
        assert_eq!(
            query_n.as_slice(),
            query_b.as_slice(),
            "blocked != naive query scores at n_workers={workers}"
        );
    }
}

#[test]
fn gemm_backend_is_deterministic_across_worker_counts() {
    let ds = registry::load_scaled("cardio", 5, 0.2).expect("registry dataset");
    let queries = queries_for(&ds.x);
    // Crossover 0 keeps every index on the brute-force GEMM path so the
    // batched norm-trick kernels carry the whole run.
    let (train_1, query_1) = fit_and_score(DistanceBackend::Gemm, Some(0), 1, &ds.x, &queries);
    assert!(train_1.as_slice().iter().all(|v| v.is_finite()));
    assert!(query_1.as_slice().iter().all(|v| v.is_finite()));
    for workers in [2usize, 8] {
        let (train_w, query_w) =
            fit_and_score(DistanceBackend::Gemm, Some(0), workers, &ds.x, &queries);
        assert_eq!(
            train_1.as_slice(),
            train_w.as_slice(),
            "gemm training scores differ at n_workers={workers}"
        );
        assert_eq!(
            query_1.as_slice(),
            query_w.as_slice(),
            "gemm query scores differ at n_workers={workers}"
        );
    }
}

#[test]
fn gemm_backend_preserves_outlier_ranking() {
    // Gemm scores differ from the scalar reference only in the last bits;
    // the detected-outlier ordering must agree with blocked on a dataset
    // with labelled anomalies.
    let ds = registry::load_scaled("cardio", 9, 0.2).expect("registry dataset");
    let queries = queries_for(&ds.x);
    let (train_b, _) = fit_and_score(DistanceBackend::Blocked, None, 1, &ds.x, &queries);
    let (train_g, _) = fit_and_score(DistanceBackend::Gemm, Some(0), 1, &ds.x, &queries);
    // Per-model Spearman-free check: top decile by mean score overlaps.
    let n = train_b.nrows();
    let mean = |m: &Matrix| -> Vec<f64> {
        (0..m.nrows())
            .map(|i| m.row(i).iter().sum::<f64>() / m.ncols() as f64)
            .collect()
    };
    let top = |scores: &[f64]| -> std::collections::HashSet<usize> {
        suod_linalg::rank::argsort_desc(scores)
            .into_iter()
            .take((n / 10).max(5))
            .collect()
    };
    let (tb, tg) = (top(&mean(&train_b)), top(&mean(&train_g)));
    let overlap = tb.intersection(&tg).count() as f64 / tb.len() as f64;
    assert!(
        overlap >= 0.9,
        "gemm top-decile overlap with blocked too low: {overlap}"
    );
}

#[test]
fn crossover_knob_changes_data_structure_not_scores() {
    let ds = registry::load_scaled("pima", 3, 0.4).expect("registry dataset");
    let queries = queries_for(&ds.x);
    // Tree everywhere, brute everywhere, and the tuned default must all
    // produce the same bits for a bit-identical backend: KD-tree results
    // are exact and blocked brute force matches the scalar reference.
    let (train_d, query_d) = fit_and_score(DistanceBackend::Blocked, None, 2, &ds.x, &queries);
    for crossover in [0usize, usize::MAX] {
        let (train_c, query_c) = fit_and_score(
            DistanceBackend::Blocked,
            Some(crossover),
            2,
            &ds.x,
            &queries,
        );
        assert_eq!(
            train_d.as_slice(),
            train_c.as_slice(),
            "training scores differ at crossover={crossover}"
        );
        assert_eq!(
            query_d.as_slice(),
            query_c.as_slice(),
            "query scores differ at crossover={crossover}"
        );
    }
}

#[test]
fn gemm_run_emits_kernel_counters() {
    let ds = registry::load_scaled("cardio", 5, 0.15).expect("registry dataset");
    let recorder = Arc::new(RecordingObserver::new());
    let mut model = Suod::builder()
        .base_estimators(proximity_pool())
        .kernel(
            KernelConfig::default()
                .with_backend(DistanceBackend::Gemm)
                .with_kdtree_crossover_dim(0),
        )
        .observer(recorder.clone())
        .seed(7)
        .build()
        .expect("valid config");
    model.fit(&ds.x).expect("fit succeeds");
    let features = model.diagnostics().expect("fitted").cpu_features();
    let trace = recorder.trace();
    assert!(
        trace.counter(Counter::GemmTile) > 0,
        "gemm run should record gemm tiles"
    );
    assert!(
        trace.counter(Counter::PackedPanel) > 0,
        "gemm run should record packed panels"
    );
    assert_eq!(
        trace.counter(Counter::KernelFallback),
        0,
        "Euclidean-only pool should never fall back"
    );
    // Which lane ran is host-dependent; that *a* lane ran is not.
    assert!(
        trace.counter(Counter::SimdKernel) + trace.counter(Counter::ScalarKernel) > 0,
        "run should record a micro-kernel lane"
    );
    assert_eq!(
        trace.counter(Counter::SimdKernel) > 0,
        features.simd_lane == SimdLane::Avx2,
        "lane counters should match the detected lane"
    );
}
