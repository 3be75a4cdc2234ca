//! Worker-count determinism: the parallel execution layer must never
//! change a number.
//!
//! The work-stealing executor races workers against each other and the
//! prediction path splits scoring into (model x row-chunk) tasks, yet
//! both merge results by task index and every kernel keeps a fixed
//! per-element evaluation order — so fitting and predicting the same
//! seeded dataset under any worker count must produce **bit-identical**
//! score matrices. This is the contract that lets the benchmarks compare
//! schedulers on speed alone.

use suod::prelude::*;
use suod_datasets::registry;
use suod_linalg::Matrix;

fn pool() -> Vec<ModelSpec> {
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
        ModelSpec::Hbos {
            n_bins: 12,
            tolerance: 0.3,
        },
        ModelSpec::IForest {
            n_estimators: 15,
            max_features: 0.8,
        },
        ModelSpec::Abod { n_neighbors: 6 },
    ]
}

fn fit_and_score(n_workers: usize, x: &Matrix, queries: &Matrix) -> (Matrix, Matrix, Vec<i32>) {
    let mut model = Suod::builder()
        .base_estimators(pool())
        .n_workers(n_workers)
        .seed(42)
        .build()
        .expect("valid config");
    model.fit(x).expect("fit succeeds");
    let train_scores = model.training_scores().expect("fitted");
    let query_scores = model.decision_function(queries).expect("fitted");
    let labels = model.predict(queries).expect("fitted");
    (train_scores, query_scores, labels)
}

#[test]
fn score_matrices_bit_identical_across_worker_counts() {
    let ds = registry::load_scaled("cardio", 11, 0.3).expect("registry dataset");
    // Queries larger than one prediction row-chunk would be ideal, but
    // even below the chunk width the (model x chunk) merge is exercised;
    // reuse training rows plus a shifted copy for a distinct query set.
    let mut shifted = ds.x.clone();
    for v in shifted.as_mut_slice() {
        *v += 0.25;
    }
    let queries = ds.x.vstack(&shifted).expect("same width");

    let (train_1, query_1, labels_1) = fit_and_score(1, &ds.x, &queries);
    for workers in [2usize, 8] {
        let (train_w, query_w, labels_w) = fit_and_score(workers, &ds.x, &queries);
        assert_eq!(
            train_1.as_slice(),
            train_w.as_slice(),
            "training score matrix differs at n_workers={workers}"
        );
        assert_eq!(
            query_1.as_slice(),
            query_w.as_slice(),
            "prediction score matrix differs at n_workers={workers}"
        );
        assert_eq!(labels_1, labels_w, "labels differ at n_workers={workers}");
    }
}

#[test]
fn repeated_predictions_reuse_pool_and_stay_identical() {
    let ds = registry::load_scaled("cardio", 13, 0.2).expect("registry dataset");
    let mut model = Suod::builder()
        .base_estimators(pool())
        .n_workers(4)
        .seed(3)
        .build()
        .expect("valid config");
    model.fit(&ds.x).expect("fit succeeds");
    let report = model
        .diagnostics()
        .expect("fit emits telemetry")
        .execution()
        .clone();
    assert_eq!(report.task_times.len(), pool().len());
    assert_eq!(report.worker_busy.len(), 4);

    // The persistent pool serves many predict calls; every call must
    // return the same bits.
    let first = model.decision_function(&ds.x).expect("fitted");
    for _ in 0..5 {
        let again = model.decision_function(&ds.x).expect("fitted");
        assert_eq!(first.as_slice(), again.as_slice());
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// PSA distillation runs inside the fit tasks, on whichever worker picks
/// a model up, and forests over an unprojected pool share one presorted
/// space built by whichever task asks first: none of that may reach a
/// number, with projection on (private spaces) or off (one shared space).
/// The pool's IForest and its PSA forests score through one forest walk,
/// so this also pins that walk across workers, row chunks (the queries
/// span several) and a snapshot reload, bit for bit.
#[test]
fn worker_side_distillation_is_bit_identical_across_worker_counts() {
    use std::sync::Arc;
    use suod::observe::Stage;

    let ds = registry::load_scaled("cardio", 11, 0.3).expect("registry dataset");
    let mut shifted = ds.x.clone();
    for v in shifted.as_mut_slice() {
        *v = -*v * 1.5;
    }
    let queries = ds.x.vstack(&shifted).expect("same width");
    for projection in [true, false] {
        let run = |n_workers: usize| {
            let recorder = Arc::new(RecordingObserver::new());
            let mut model = Suod::builder()
                .base_estimators(pool())
                .with_projection(projection)
                .with_approximation(true)
                .approximator(ApproxSpec::RandomForest {
                    n_estimators: 10,
                    max_depth: 8,
                })
                .n_workers(n_workers)
                .observer(recorder.clone())
                .seed(42)
                .build()
                .expect("valid config");
            model.fit(&ds.x).expect("fit succeeds");

            // One distillation per approximated model, on a worker, after
            // that model's fit and before the executor run is over.
            let trace = recorder.trace();
            let approximated = model.diagnostics().expect("fitted").approximated();
            let distilled: Vec<_> = trace.spans_of(Stage::PsaDistill).collect();
            assert_eq!(distilled.len(), approximated.iter().filter(|&&a| a).count());
            let last_task_end = trace
                .spans_of(Stage::ExecutorTask)
                .map(|s| s.start_us + s.dur_us)
                .max()
                .expect("fit ran tasks");
            for span in &distilled {
                let model_index = span.model.expect("attributed to a model");
                assert!(approximated[model_index]);
                assert!(span.worker.is_some_and(|w| w < n_workers));
                let fit = trace
                    .spans_of(Stage::ModelFit)
                    .find(|s| s.model == span.model)
                    .expect("the model was fitted");
                assert_eq!(fit.worker, span.worker);
                assert!(fit.start_us + fit.dur_us <= span.start_us);
                assert!(span.start_us <= last_task_end);
            }

            let reloaded = Suod::load_from_bytes(&model.save_to_bytes().expect("encodes"))
                .expect("snapshot loads");
            (
                bits(&model.decision_function(&queries).expect("fitted")),
                bits(&model.training_scores().expect("fitted")),
                model.threshold().expect("fitted").to_bits(),
                bits(&reloaded.decision_function(&queries).expect("loaded")),
                bits(&reloaded.training_scores().expect("loaded")),
            )
        };
        let (scores_1, train_1, threshold_1, reloaded_1, reloaded_train_1) = run(1);
        assert_eq!(scores_1, reloaded_1);
        assert_eq!(train_1, reloaded_train_1);
        for workers in [2usize, 8] {
            let (scores_w, train_w, threshold_w, reloaded_w, reloaded_train_w) = run(workers);
            let case = format!("projection={projection} n_workers={workers}");
            assert_eq!(scores_1, scores_w, "{case}");
            assert_eq!(train_1, train_w, "{case}");
            assert_eq!(threshold_1, threshold_w, "{case}");
            assert_eq!(scores_1, reloaded_w, "{case}");
            assert_eq!(train_1, reloaded_train_w, "{case}");
        }
    }
}
