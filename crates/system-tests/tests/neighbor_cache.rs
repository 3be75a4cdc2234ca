//! Neighbor-cache transparency: sharing one neighbour graph across the
//! pool must never change a number.
//!
//! `Suod::fit` groups proximity detectors by feature space and metric,
//! builds each group's KD-tree and leave-one-out sweep once at the pooled
//! maximum k, and serves every member a sorted-prefix view. Because
//! neighbour lists are totally ordered by `(distance, index)`, the prefix
//! is *exactly* what the model's own sweep would produce — so every pooled
//! column must be **bit-identical** to the model fitted on its own (a
//! standalone `Detector::fit`, a pool of one) on its own input, at any
//! worker count, with and without projection in the mix.

use suod::prelude::*;
use suod_datasets::registry;
use suod_linalg::Matrix;
use suod_projection::{JlProjector, Projector};

/// Master seed of every pool here.
const SEED: u64 = 7;

/// A proximity-heavy pool spanning every cached family (kNN variants,
/// LOF with two metrics, LoOP, COF, ABOD) plus uncached bystanders.
fn proximity_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 3,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 12,
            method: KnnMethod::Mean,
        },
        ModelSpec::Knn {
            n_neighbors: 7,
            method: KnnMethod::Median,
        },
        ModelSpec::Lof {
            n_neighbors: 9,
            metric: Metric::Euclidean,
        },
        ModelSpec::Lof {
            n_neighbors: 5,
            metric: Metric::Manhattan,
        },
        ModelSpec::Loop { n_neighbors: 6 },
        ModelSpec::Cof { n_neighbors: 4 },
        ModelSpec::Abod { n_neighbors: 8 },
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
        ModelSpec::IForest {
            n_estimators: 12,
            max_features: 0.8,
        },
    ]
}

fn fit_and_score(
    n_workers: usize,
    projection: bool,
    x: &Matrix,
    queries: &Matrix,
) -> (Matrix, Matrix, u64, u64) {
    let mut model = Suod::builder()
        .base_estimators(proximity_pool())
        .with_projection(projection)
        .with_approximation(false)
        .n_workers(n_workers)
        .seed(SEED)
        .build()
        .expect("valid config");
    model.fit(x).expect("fit succeeds");
    let report = model
        .diagnostics()
        .expect("fit emits telemetry")
        .execution();
    let (hits, misses) = (report.cache_hits, report.cache_misses);
    let train_scores = model.training_scores().expect("fitted");
    let query_scores = model.decision_function(queries).expect("fitted");
    (train_scores, query_scores, hits, misses)
}

/// The seed `Suod` derives for pool member `i`: one splitmix64 step
/// from the master seed, offset by the index.
fn model_seed(i: usize) -> u64 {
    let mut z = SEED.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The training and query score bits of every pool member fitted on its
/// own: its detector, seeded as the pool seeds it, on the model's input —
/// the circulant JL projection to `ceil(2d/3)` columns the default pool
/// gives a projection-friendly model when `projection` is on, else the
/// raw rows.
fn standalone_columns(projection: bool, x: &Matrix, queries: &Matrix) -> Vec<(Vec<u64>, Vec<u64>)> {
    let bits = |v: Vec<f64>| -> Vec<u64> { v.iter().map(|s| s.to_bits()).collect() };
    proximity_pool()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let seed = model_seed(i);
            let (x, queries) = if projection && spec.projection_friendly() {
                let k = (x.ncols() as f64 * 2.0 / 3.0).ceil() as usize;
                let mut proj = JlProjector::new(JlVariant::Circulant, k, seed).expect("k >= 1");
                proj.fit(x).expect("projection fits");
                let project = |m: &Matrix| proj.transform(m).expect("same width");
                (project(x), project(queries))
            } else {
                (x.clone(), queries.clone())
            };
            let mut det = spec.build(seed).expect("valid spec");
            let train = det.fit(&x).expect("standalone fit");
            let query = det.decision_function(&queries).expect("standalone scoring");
            (bits(train), bits(query))
        })
        .collect()
}

fn column_bits(scores: &Matrix, c: usize) -> Vec<u64> {
    (0..scores.nrows())
        .map(|r| scores.get(r, c).to_bits())
        .collect()
}

/// Every column of the pool's training and query scores equals the
/// model's standalone fit.
fn assert_columns_standalone(
    train: &Matrix,
    query: &Matrix,
    reference: &[(Vec<u64>, Vec<u64>)],
    context: &str,
) {
    for (c, (own_train, own_query)) in reference.iter().enumerate() {
        assert_eq!(
            &column_bits(train, c),
            own_train,
            "training scores of model {c} differ from its standalone fit ({context})"
        );
        assert_eq!(
            &column_bits(query, c),
            own_query,
            "prediction scores of model {c} differ from its standalone fit ({context})"
        );
    }
}

#[test]
fn pooled_scores_bit_identical_to_standalone_fits_at_any_thread_count() {
    let ds = registry::load_scaled("cardio", 17, 0.3).expect("registry dataset");
    let mut shifted = ds.x.clone();
    for v in shifted.as_mut_slice() {
        *v += 0.25;
    }
    let queries = ds.x.vstack(&shifted).expect("same width");
    let reference = standalone_columns(false, &ds.x, &queries);

    for workers in [1usize, 2, 8] {
        let (train, query, hits, misses) = fit_and_score(workers, false, &ds.x, &queries);
        assert_columns_standalone(&train, &query, &reference, &format!("{workers} workers"));
        // Unprojected: all 8 proximity models share one space. Euclidean
        // group (7 members) builds once; Manhattan LOF builds its own.
        assert_eq!(misses, 2, "expected two graph builds, got {misses}");
        assert_eq!(hits, 6, "expected six cache hits, got {hits}");
    }
}

#[test]
fn projection_keeps_cache_transparent() {
    // With RP on, every projection-friendly model gets its own seeded
    // subspace (distinct cache groups of size one); the cache must stay a
    // pure pass-through numerically.
    let ds = registry::load_scaled("cardio", 19, 0.25).expect("registry dataset");
    let reference = standalone_columns(true, &ds.x, &ds.x);
    let (train, query, hits, misses) = fit_and_score(4, true, &ds.x, &ds.x);
    assert_columns_standalone(&train, &query, &reference, "projected, 4 workers");
    // Every proximity model still goes through the cache exactly once.
    assert_eq!(hits + misses, 8);
}
