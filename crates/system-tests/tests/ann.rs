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
//! A snapshot stores the graph fit built: the loaded graph equals a fresh
//! build and answers bit-equal, and a reloaded pool scores the offline
//! bits at every worker count.

use proptest::prelude::*;
use std::sync::Arc;
use suod::prelude::*;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix, SnapshotReader, SnapshotWriter};
use suod_metrics::roc_auc;
use suod_serve::{ManualClock, ScoreOutcome, ScoreService, ServeConfig};

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

/// Query rows: training rows nudged off the sample, plus far points.
fn probe_rows(x: &Matrix, seed: u64) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|q| {
            let base = x.row(q * 7 % x.nrows());
            base.iter()
                .enumerate()
                .map(|(j, v)| v + (unit(seed, (q * 64 + j) as u64) - 0.5) * (q % 4) as f64)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("non-empty")
}

fn neighbor_bits(index: &KnnIndex, q: &Matrix, k: usize) -> Vec<(usize, u64)> {
    index
        .query_batch(q, k)
        .expect("matching dims")
        .iter()
        .flatten()
        .map(|nb| (nb.index, nb.distance.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// The graph a `suod-pool/2` record carries is the graph a fresh
    /// build makes — every CSR array, the entry node and the top level —
    /// and answers queries with the same bits, at any build thread count.
    #[test]
    fn stored_graph_equals_a_fresh_build(
        n_pick in 0usize..6,
        d in 1usize..48,
        m in 2usize..16,
        dup in proptest::bool::ANY,
        threads_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [1, 2, m, 2 * m + 1, 257, 3000][n_pick];
        // Keep the 3000-row cases to a few dimensions in unoptimised builds.
        let d = if n == 3000 && cfg!(debug_assertions) { d.min(6) } else { d };
        let x = if dup { duplicate_heavy(n, d, seed) } else { clustered(n, d, seed) };
        let config = KernelConfig {
            neighbor: NeighborBackend::Hnsw(HnswParams {
                m,
                min_rows: 0,
                seed,
                ..HnswParams::default()
            }),
            ..KernelConfig::default()
        };
        let threads = [1, 2, 8][threads_pick];
        let fresh = KnnIndex::build_with(&x, DistanceMetric::Euclidean, config).unwrap();
        let built = KnnIndex::build_with_threads(&x, DistanceMetric::Euclidean, config, threads)
            .unwrap();
        let mut w = SnapshotWriter::new();
        built.snapshot_write(&mut w);
        let mut r = SnapshotReader::new(w.as_bytes());
        let loaded = KnnIndex::snapshot_read(&mut r, threads).unwrap();
        prop_assert!(r.is_exhausted());
        let (want, got) = (fresh.hnsw().expect("engaged"), loaded.hnsw().expect("stored"));
        prop_assert_eq!(want, got);
        prop_assert_eq!((want.entry(), want.max_level()), (got.entry(), got.max_level()));
        let q = probe_rows(&x, seed);
        let k = 10.min(n);
        prop_assert_eq!(neighbor_bits(&fresh, &q, k), neighbor_bits(&loaded, &q, k));
    }
}

/// `ann-mixed`'s pool shape: three proximity models over their own
/// projected spaces (RP on, so three graphs) beside HBOS and an IForest.
fn ann_workload_pool(n_workers: usize, x: &Matrix) -> Suod {
    let mut clf = Suod::builder()
        .base_estimators(vec![
            ModelSpec::Knn {
                n_neighbors: 10,
                method: KnnMethod::Largest,
            },
            ModelSpec::Lof {
                n_neighbors: 20,
                metric: Metric::Euclidean,
            },
            ModelSpec::Loop { n_neighbors: 15 },
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
            ModelSpec::IForest {
                n_estimators: 30,
                max_features: 0.8,
            },
        ])
        .kernel(KernelConfig::default().with_neighbor(hnsw_always()))
        .with_projection(true)
        .with_approximation(false)
        .n_workers(n_workers)
        .seed(13)
        .build()
        .expect("valid config");
    clf.fit(x).expect("fit succeeds");
    clf
}

fn score_bits(clf: &Suod, q: &Matrix) -> Vec<u64> {
    let s = clf.decision_function(q).expect("scores");
    s.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn reloaded_ann_pool_scores_the_offline_bits_and_serves_them() {
    let (x, _) = with_outliers(700, 24, 20, 17);
    let q = probe_rows(&x, 3);
    let reference = ann_workload_pool(1, &x);
    let want = score_bits(&reference, &q);
    for workers in [1usize, 2, 8] {
        let clf = ann_workload_pool(workers, &x);
        let bytes = clf.save_to_bytes().expect("save");
        let loaded = Suod::load_from_bytes(&bytes).expect("load");
        assert_eq!(score_bits(&loaded, &q), want, "n_workers={workers}");
        assert_eq!(
            loaded.save_to_bytes().unwrap(),
            bytes,
            "n_workers={workers}"
        );
        assert_eq!(
            loaded.training_combined_scores().unwrap(),
            reference.training_combined_scores().unwrap()
        );
    }

    // A service reloaded from the bytes serves the offline bits.
    let bytes = reference.save_to_bytes().unwrap();
    let offline = reference.combined_scores(&q).unwrap();
    let service = ScoreService::with_parts(
        ann_workload_pool(2, &with_outliers(300, 24, 8, 5).0),
        ServeConfig::default(),
        Arc::new(ManualClock::new()),
        suod_observe::noop(),
    )
    .expect("service starts");
    service
        .reload(Suod::load_from_bytes(&bytes).unwrap())
        .expect("reload accepted");
    let ticket = service.submit(q.clone()).expect("admitted");
    while service.process_once() == 0 {}
    match ticket.wait() {
        ScoreOutcome::Scored(batch) => assert_eq!(batch.combined, offline),
        other => panic!("request not scored: {other:?}"),
    }
}
