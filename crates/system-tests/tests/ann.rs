//! End-to-end contracts for the approximate HNSW neighbor backend.
//!
//! `NeighborBackend::Hnsw` changes *how* the proximity detectors find
//! their neighbours, with a documented accuracy budget instead of a
//! bitwise guarantee: recall@k >= 0.95 at the default `ef_search` across
//! qualitatively different data shapes, detection quality (ROC-AUC)
//! within 0.02 of the exact path for all five proximity detectors, and —
//! like every other backend — bit-identical scores across worker counts
//! for a fixed seed. Ineligible inputs (small n, non-Euclidean metrics)
//! must fall back to the exact path and say so in `FitDiagnostics`.

use suod::prelude::*;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};
use suod_metrics::roc_auc;

/// splitmix64 — the workspace's standard seeded generator.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1).
fn unit(seed: u64, i: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Three well-separated clusters with per-cluster jitter.
fn clustered(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let c = (i % 3) as f64 * 12.0;
        let row: Vec<f64> = (0..d)
            .map(|j| c + unit(seed, (i * d + j) as u64) * 2.0 - 1.0)
            .collect();
        rows.push(row);
    }
    Matrix::from_rows(&rows).expect("non-empty")
}

/// Uniform noise in the unit cube — no cluster structure to exploit.
fn uniform(n: usize, d: usize, seed: u64) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| unit(seed, (i * d + j) as u64) * 10.0)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("non-empty")
}

/// Every point repeated four times: distance ties everywhere, the
/// adversarial case for ordered tie-breaking.
fn duplicate_heavy(n: usize, d: usize, seed: u64) -> Matrix {
    let uniques = uniform(n.div_ceil(4), d, seed);
    let rows: Vec<Vec<f64>> = (0..n).map(|i| uniques.row(i / 4).to_vec()).collect();
    Matrix::from_rows(&rows).expect("non-empty")
}

/// Inlier blob plus `n_out` far-away planted outliers; returns labels.
fn with_outliers(n: usize, d: usize, n_out: usize, seed: u64) -> (Matrix, Vec<i32>) {
    let mut rows = Vec::with_capacity(n);
    let mut y = vec![0; n];
    for (i, label) in y.iter_mut().enumerate() {
        let outlier = i >= n - n_out;
        // Outliers scatter across a huge box (isolated from the blob AND
        // from each other, so density-based detectors see them too);
        // inliers huddle near the origin.
        let spread = if outlier { 80.0 } else { 1.5 };
        let row: Vec<f64> = (0..d)
            .map(|j| (unit(seed, (i * d + j) as u64) - 0.5) * spread)
            .collect();
        if outlier {
            *label = 1;
        }
        rows.push(row);
    }
    (Matrix::from_rows(&rows).expect("non-empty"), y)
}

/// HNSW engaged regardless of input size (tests use modest n for speed).
fn hnsw_always() -> NeighborBackend {
    NeighborBackend::Hnsw(HnswParams {
        min_rows: 0,
        ..HnswParams::default()
    })
}

/// Leave-one-out recall@k of the HNSW backend against the exact lists,
/// counting a retrieved neighbour as correct when it is at least as close
/// as the true k-th neighbour (the fair definition under distance ties).
fn self_recall_at_k(x: &Matrix, k: usize) -> f64 {
    let exact = KnnIndex::build(x, DistanceMetric::Euclidean).expect("non-empty");
    let truth = exact.self_query_batch(k, 1);
    let approx_cfg = KernelConfig {
        neighbor: hnsw_always(),
        ..KernelConfig::default()
    };
    let approx = KnnIndex::build_with(x, DistanceMetric::Euclidean, approx_cfg).expect("non-empty");
    assert!(approx.uses_hnsw(), "hnsw backend must engage");
    let found = approx.self_query_batch(k, 1);
    let mut hits = 0usize;
    let mut total = 0usize;
    for (t, f) in truth.iter().zip(&found) {
        let radius = t.last().expect("k >= 1").distance;
        total += t.len();
        hits += f
            .iter()
            .filter(|n| n.distance <= radius * (1.0 + 1e-12) + 1e-12)
            .count();
    }
    hits as f64 / total as f64
}

#[test]
fn recall_holds_on_clustered_data() {
    let r = self_recall_at_k(&clustered(1400, 8, 11), 10);
    assert!(r >= 0.95, "clustered recall@10 {r} < 0.95");
}

#[test]
fn recall_holds_on_uniform_data() {
    let r = self_recall_at_k(&uniform(1400, 8, 23), 10);
    assert!(r >= 0.95, "uniform recall@10 {r} < 0.95");
}

#[test]
fn recall_holds_on_duplicate_heavy_data() {
    let r = self_recall_at_k(&duplicate_heavy(1400, 6, 37), 10);
    assert!(r >= 0.95, "duplicate-heavy recall@10 {r} < 0.95");
}

fn proximity_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 10,
            method: KnnMethod::Largest,
        },
        ModelSpec::Lof {
            n_neighbors: 12,
            metric: Metric::Euclidean,
        },
        ModelSpec::Loop { n_neighbors: 10 },
        ModelSpec::Cof { n_neighbors: 10 },
        ModelSpec::Abod { n_neighbors: 8 },
    ]
}

fn fit_scores(backend: NeighborBackend, n_workers: usize, x: &Matrix) -> (Matrix, u64) {
    let mut model = Suod::builder()
        .base_estimators(proximity_pool())
        .kernel(KernelConfig::default().with_neighbor(backend))
        .n_workers(n_workers)
        .with_approximation(false)
        .seed(7)
        .build()
        .expect("valid config");
    model.fit(x).expect("fit succeeds");
    let fallbacks = model
        .diagnostics()
        .expect("fit records diagnostics")
        .ann_fallbacks();
    (model.training_scores().expect("fitted"), fallbacks)
}

#[test]
fn roc_auc_drift_below_two_points_for_all_five_detectors() {
    // n above DEFAULT_HNSW_MIN_ROWS so the default hnsw parameters
    // engage exactly as a user would see them.
    let (x, y) = with_outliers(2300, 6, 40, 5);
    let (exact, _) = fit_scores(NeighborBackend::Exact, 1, &x);
    let (approx, fallbacks) = fit_scores(NeighborBackend::Hnsw(HnswParams::default()), 1, &x);
    assert_eq!(fallbacks, 0, "hnsw must engage above min_rows");
    assert_eq!(exact.ncols(), 5);
    for m in 0..exact.ncols() {
        let col = |s: &Matrix| -> Vec<f64> { (0..s.nrows()).map(|i| s.get(i, m)).collect() };
        let auc_exact = roc_auc(&y, &col(&exact)).expect("labelled");
        let auc_approx = roc_auc(&y, &col(&approx)).expect("labelled");
        assert!(
            auc_exact > 0.75,
            "detector {m}: planted outliers must be detectable (exact auc {auc_exact})"
        );
        assert!(
            (auc_exact - auc_approx).abs() < 0.02,
            "detector {m}: exact auc {auc_exact} vs hnsw auc {auc_approx}"
        );
    }
}

#[test]
fn hnsw_scores_bit_identical_across_worker_counts() {
    let (x, _) = with_outliers(2300, 6, 40, 9);
    let (s1, _) = fit_scores(NeighborBackend::Hnsw(HnswParams::default()), 1, &x);
    for workers in [2usize, 8] {
        let (sw, _) = fit_scores(NeighborBackend::Hnsw(HnswParams::default()), workers, &x);
        assert_eq!(
            s1.as_slice(),
            sw.as_slice(),
            "hnsw training scores differ at n_workers={workers}"
        );
    }
}

#[test]
fn small_inputs_fall_back_to_exact_with_visible_counter() {
    let (x, _) = with_outliers(300, 5, 8, 3);
    let (exact, exact_fallbacks) = fit_scores(NeighborBackend::Exact, 1, &x);
    // 300 rows is far below DEFAULT_HNSW_MIN_ROWS: the request must
    // route to the exact path (bitwise-equal scores) and count it.
    let (approx, fallbacks) = fit_scores(NeighborBackend::Hnsw(HnswParams::default()), 1, &x);
    assert_eq!(exact_fallbacks, 0);
    assert!(fallbacks > 0, "exactness fallback must be counted");
    assert_eq!(
        exact.as_slice(),
        approx.as_slice(),
        "fallen-back hnsw must reproduce exact scores bitwise"
    );
}

#[test]
fn non_euclidean_metrics_fall_back_to_exact() {
    let x = uniform(2200, 4, 41);
    let pool = vec![ModelSpec::Lof {
        n_neighbors: 10,
        metric: Metric::Manhattan,
    }];
    let fit = |backend: NeighborBackend| {
        let mut model = Suod::builder()
            .base_estimators(pool.clone())
            .kernel(KernelConfig::default().with_neighbor(backend))
            .with_approximation(false)
            .seed(3)
            .build()
            .expect("valid config");
        model.fit(&x).expect("fit succeeds");
        let fallbacks = model.diagnostics().expect("diagnostics").ann_fallbacks();
        (model.training_scores().expect("fitted"), fallbacks)
    };
    let (exact, _) = fit(NeighborBackend::Exact);
    let (approx, fallbacks) = fit(NeighborBackend::Hnsw(HnswParams {
        min_rows: 0,
        ..HnswParams::default()
    }));
    assert!(fallbacks > 0, "manhattan must trip the exactness fallback");
    assert_eq!(exact.as_slice(), approx.as_slice());
}

#[test]
fn ef_search_knob_reaches_the_index_through_the_builder() {
    let mut model = Suod::builder()
        .kernel(KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(
            HnswParams::default().with_ef_search(128),
        )))
        .base_estimators(vec![ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Mean,
        }])
        .with_approximation(false)
        .build()
        .expect("valid config");
    let (x, _) = with_outliers(400, 4, 10, 1);
    model.fit(&x).expect("fit succeeds");
    let features = model.diagnostics().expect("diagnostics").cpu_features();
    assert_eq!(format!("{}", features.neighbor), "hnsw(ef_search=128)");
}
