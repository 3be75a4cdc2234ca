//! Observability transparency: instrumenting a pipeline must never
//! change a number, and the trace must be a faithful, deterministic
//! account of what ran.
//!
//! Contracts pinned here:
//! - attaching a `RecordingObserver` is bit-transparent — score matrices
//!   with and without an observer are identical at any worker count;
//! - the wall-clock-free `deterministic_signature()` of a fit+predict
//!   trace is identical across worker counts;
//! - the stable JSON export (`suod-trace/1`) round-trips losslessly for
//!   real pipeline traces, not just synthetic ones;
//! - trace counters reconcile *exactly* with `ExecutionReport` and
//!   `ModelHealth` — the legacy reports are views of the event stream;
//! - on a 20-model fit, child spans account for ≥95 % of the root
//!   `Fit` span's wall-clock.

use std::sync::Arc;
use suod::observe::export::{from_json, to_json};
use suod::observe::{Counter, Stage};
use suod::prelude::*;
use suod_datasets::registry;
use suod_linalg::Matrix;

fn pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 8,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 12,
            method: KnnMethod::Mean,
        },
        ModelSpec::Lof {
            n_neighbors: 10,
            metric: Metric::Euclidean,
        },
        ModelSpec::Abod { n_neighbors: 6 },
        ModelSpec::Hbos {
            n_bins: 12,
            tolerance: 0.3,
        },
        ModelSpec::IForest {
            n_estimators: 20,
            max_features: 0.8,
        },
    ]
}

fn fit_and_score(
    observer: Option<Arc<RecordingObserver>>,
    n_workers: usize,
    x: &Matrix,
    queries: &Matrix,
) -> (Matrix, Matrix) {
    let mut builder = Suod::builder()
        .base_estimators(pool())
        .with_projection(true)
        .with_approximation(false)
        .with_bps(true)
        .n_workers(n_workers)
        .seed(23);
    if let Some(rec) = observer {
        builder = builder.observer(rec);
    }
    let mut model = builder.build().expect("valid config");
    model.fit(x).expect("fit succeeds");
    let train = model.training_scores().expect("fitted");
    let query = model.decision_function(queries).expect("fitted");
    (train, query)
}

#[test]
fn observer_is_bit_transparent_at_any_worker_count() {
    let ds = registry::load_scaled("cardio", 29, 0.25).expect("registry dataset");
    let mut shifted = ds.x.clone();
    for v in shifted.as_mut_slice() {
        *v += 0.25;
    }
    let queries = ds.x.vstack(&shifted).expect("same width");

    let (train_plain, query_plain) = fit_and_score(None, 1, &ds.x, &queries);
    for workers in [1usize, 8] {
        let rec = Arc::new(RecordingObserver::new());
        let (train_obs, query_obs) = fit_and_score(Some(rec.clone()), workers, &ds.x, &queries);
        assert_eq!(
            train_plain.as_slice(),
            train_obs.as_slice(),
            "training scores drift under observation at n_workers={workers}"
        );
        assert_eq!(
            query_plain.as_slice(),
            query_obs.as_slice(),
            "prediction scores drift under observation at n_workers={workers}"
        );
        let trace = rec.trace();
        assert!(trace.spans_of(Stage::Fit).count() == 1, "one fit root span");
        assert!(trace.spans_of(Stage::ModelFit).count() == pool().len());
    }
}

#[test]
fn trace_signature_identical_across_worker_counts() {
    let ds = registry::load_scaled("cardio", 31, 0.25).expect("registry dataset");
    let signature_at = |workers: usize| {
        let rec = Arc::new(RecordingObserver::new());
        let (_, _) = fit_and_score(Some(rec.clone()), workers, &ds.x, &ds.x);
        rec.trace().deterministic_signature()
    };
    let base = signature_at(1);
    assert!(!base.is_empty());
    for workers in [2usize, 8] {
        assert_eq!(
            base,
            signature_at(workers),
            "trace signature differs at n_workers={workers}"
        );
    }
}

#[test]
fn real_pipeline_trace_round_trips_through_json() {
    let ds = registry::load_scaled("pima", 37, 0.4).expect("registry dataset");
    let rec = Arc::new(RecordingObserver::new());
    let (_, _) = fit_and_score(Some(rec.clone()), 4, &ds.x, &ds.x);
    let trace = rec.trace();

    let exported = to_json(&trace);
    let parsed = from_json(&exported).expect("export satisfies its own schema");
    assert_eq!(parsed, trace, "JSON round-trip must be lossless");
    assert_eq!(to_json(&parsed), exported, "re-export must be byte-stable");
}

#[test]
fn trace_counters_reconcile_with_execution_report() {
    let ds = registry::load_scaled("cardio", 41, 0.25).expect("registry dataset");
    let rec = Arc::new(RecordingObserver::new());
    let mut model = Suod::builder()
        .base_estimators(pool())
        .with_projection(false)
        .n_workers(4)
        .seed(11)
        .observer(rec.clone())
        .build()
        .expect("valid config");
    model.fit(&ds.x).expect("fit succeeds");

    let trace = rec.trace();
    let diag = model.diagnostics().expect("fit emits telemetry");
    let exec = diag.execution();
    // The legacy report and the trace are views of one event stream:
    // every counter must agree exactly, not approximately.
    assert!(exec.cache_hits + exec.cache_misses > 0, "cache exercised");
    assert_eq!(trace.counter(Counter::CacheHit), exec.cache_hits);
    assert_eq!(trace.counter(Counter::CacheMiss), exec.cache_misses);
    assert_eq!(trace.counter(Counter::Retry), exec.retries as u64);
    assert_eq!(trace.counter(Counter::TaskFailure), exec.failures as u64);
    assert_eq!(
        trace.counter(Counter::Quarantine),
        diag.health().quarantined() as u64
    );
    // One closed ModelFit span per attempted model, each attributed.
    let model_fits: Vec<_> = trace.spans_of(Stage::ModelFit).collect();
    assert_eq!(model_fits.len(), pool().len());
    assert!(model_fits.iter().all(|s| s.model.is_some()));
}

#[test]
fn twenty_model_fit_spans_cover_95_percent_of_wall_clock() {
    let ds = registry::load_scaled("cardio", 43, 0.3).expect("registry dataset");
    let rec = Arc::new(RecordingObserver::new());
    let mut model = Suod::builder()
        .base_estimators(suod::random_pool(20, 43))
        .with_projection(true)
        .with_approximation(true)
        .with_bps(true)
        .n_workers(4)
        .seed(43)
        .observer(rec.clone())
        .build()
        .expect("valid config");
    model.fit(&ds.x).expect("fit succeeds");

    let trace = rec.trace();
    assert_eq!(trace.spans_of(Stage::ModelFit).count(), 20);
    let coverage = trace.coverage_of(Stage::Fit);
    assert!(
        coverage >= 0.95,
        "fit-stage spans cover only {:.1}% of the fit wall-clock",
        coverage * 100.0
    );
}
