//! Unit tests of the predict side (`super`).

use super::*;
use crate::spec::ModelSpec;
use crate::suod::testing::{data, fitted, small_pool};
use suod_detectors::KnnMethod;
use suod_linalg::DistanceMetric;

#[test]
fn approximation_off_means_exact_detector_scores() {
    let clf = fitted(
        Suod::builder()
            .with_projection(false)
            .with_approximation(false),
    );
    let x = data();
    let scores = clf.decision_function(&x).unwrap();
    // Column 2 is HBOS; must equal a standalone HBOS fit.
    let mut hbos = ModelSpec::Hbos {
        n_bins: 10,
        tolerance: 0.3,
    }
    .build(0)
    .unwrap();
    hbos.fit(&x).unwrap();
    let expected = hbos.decision_function(&x).unwrap();
    for (r, &e) in expected.iter().enumerate() {
        assert!((scores.get(r, 2) - e).abs() < 1e-9);
    }
}

#[test]
fn not_fitted_errors() {
    let clf = Suod::builder()
        .base_estimators(small_pool())
        .build()
        .unwrap();
    assert!(matches!(
        clf.decision_function(&data()).unwrap_err(),
        Error::NotFitted
    ));
    assert!(clf.predict(&data()).is_err());
    assert!(clf.threshold().is_err());
    assert!(clf.diagnostics().is_none());
}

#[test]
fn dimension_mismatch_rejected() {
    let clf = fitted(Suod::builder());
    assert!(clf.decision_function(&Matrix::zeros(3, 2)).is_err());
}

#[test]
fn simulated_schedules_report_sane_makespans() {
    let clf = fitted(Suod::builder());
    let (generic, bps) = clf.simulate_fit_schedules(2).unwrap();
    assert!(generic.makespan > 0.0);
    assert!(bps.makespan > 0.0);
    assert!(generic.makespan <= generic.sequential_time + 1e-12);
    assert!(bps.makespan <= bps.sequential_time + 1e-12);
}

#[test]
fn moa_combiner_available() {
    let clf = fitted(Suod::builder());
    let x = data();
    let m = clf.combined_scores_moa(&x, 2).unwrap();
    assert_eq!(m.len(), x.nrows());
}

#[test]
fn feature_importances_highlight_outlier_axes() {
    // Outliers deviate along every axis equally here; importances must
    // exist, be normalized, and be finite.
    let mut clf = Suod::builder()
        .base_estimators(small_pool())
        .with_projection(false) // keep approximators in the original space
        .with_approximation(true)
        .seed(2)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    let imp = clf.feature_importances().unwrap();
    assert_eq!(imp.len(), 4);
    assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(imp.iter().all(|&v| v >= 0.0));
}

#[test]
fn feature_importances_unavailable_when_all_projected_or_unapproximated() {
    let mut clf = Suod::builder()
        .base_estimators(small_pool())
        .with_approximation(false)
        .seed(2)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    assert!(matches!(
        clf.feature_importances().unwrap_err(),
        Error::InvalidConfig(_)
    ));
}

#[test]
fn predict_proba_bounded_and_ordered() {
    let clf = fitted(Suod::builder());
    let x = data();
    let p = clf.predict_proba(&x).unwrap();
    assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    // Probabilities preserve the combined-score ordering.
    let c = clf.combined_scores(&x).unwrap();
    let order_p = suod_linalg::rank::argsort_desc(&p);
    let order_c = suod_linalg::rank::argsort_desc(&c);
    assert_eq!(order_p[0], order_c[0]);
    // Planted outliers sit near probability 1.
    assert!(p[60] > 0.8 || p[61] > 0.8, "{} {}", p[60], p[61]);
}

/// `predict_proba` scales by the range a fit keeps, or a load derives
/// once: the bits of min-max scaling by `training_combined_scores()`.
#[test]
fn predict_proba_scales_by_the_training_range_fitted_or_loaded() {
    let x = data();
    for workers in [1, 2] {
        let clf = fitted(Suod::builder().n_workers(workers));
        let loaded = Suod::load_from_bytes(&clf.save_to_bytes().unwrap()).unwrap();
        for pool in [&clf, &loaded] {
            let train = pool.training_combined_scores().unwrap();
            let lo = suod_linalg::stats::min(&train);
            let hi = suod_linalg::stats::max(&train);
            let span = (hi - lo).max(1e-12);
            let want: Vec<u64> = pool
                .combined_scores(&x)
                .unwrap()
                .iter()
                .map(|&s| ((s - lo) / span).clamp(0.0, 1.0).to_bits())
                .collect();
            for _ in 0..2 {
                let got: Vec<u64> = pool
                    .predict_proba(&x)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "{workers} workers");
            }
        }
    }
}

#[test]
fn non_finite_query_rejected_typed() {
    let clf = fitted(Suod::builder());
    let mut q = Matrix::zeros(2, 4);
    q.set(1, 3, f64::INFINITY);
    assert!(matches!(
        clf.decision_function(&q).unwrap_err(),
        Error::Detector(suod_detectors::Error::NonFiniteInput(_))
    ));
}

#[test]
fn observed_prediction_reports_per_model_times() {
    use suod_observe::RecordingObserver;
    let clf = fitted(Suod::builder());
    let x = data();
    let recorder = Arc::new(RecordingObserver::new());
    let observer: Arc<dyn Observer> = recorder.clone();
    let (scores, report) = clf.decision_function_observed(&x, &observer).unwrap();
    assert_eq!(scores.shape(), (62, 4));
    assert_eq!(report.model_times.len(), 4);
    assert_eq!(report.n_rows, 62);
    assert!(report.fully_healthy());
    assert_eq!(report.healthy_models(), 4);
    assert!(report.failures.is_empty());
    assert!(report.skipped.is_empty());
    // 62 rows fit in one chunk, so one predict task per model.
    assert_eq!(report.execution.task_times.len(), 4);
    assert_eq!(report.execution.failures, 0);
    let trace = recorder.trace();
    assert_eq!(trace.spans_of(Stage::Predict).count(), 1);
    assert_eq!(trace.spans_of(Stage::PredictChunk).count(), 4);
    // kNN and LOF answer through their approximators here, so no
    // model walks a neighbour index at predict.
    assert_eq!(trace.spans_of(Stage::NeighborQuery).count(), 0);
    // The observed path and the plain path share one engine; scores
    // match bit for bit.
    let parallel = clf.decision_function(&x).unwrap();
    assert_eq!(scores.as_slice(), parallel.as_slice());
}

/// Five un-approximated proximity models on one index (largest k in
/// slot 1), a Manhattan LOF on an index of its own, and HBOS.
fn shared_index_pool() -> Suod {
    let lof = |n_neighbors, metric| ModelSpec::Lof {
        n_neighbors,
        metric,
    };
    let mut clf = Suod::builder()
        .base_estimators(vec![
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Largest,
            },
            lof(20, DistanceMetric::Euclidean),
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
            ModelSpec::Loop { n_neighbors: 9 },
            lof(7, DistanceMetric::Manhattan),
            ModelSpec::Abod { n_neighbors: 6 },
            ModelSpec::Cof { n_neighbors: 4 },
        ])
        .with_projection(false)
        .with_approximation(false)
        .n_workers(2)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    clf
}

#[test]
fn models_on_one_index_share_one_query_per_chunk() {
    use suod_observe::RecordingObserver;
    let clf = shared_index_pool();
    let state = clf.state().unwrap();
    assert_eq!(state.units, [vec![0, 1, 3, 5, 6], vec![2], vec![4]]);
    let k_of = |members: &[usize]| state.shared_query(members).map(|(_, k)| k);
    assert_eq!(k_of(&state.units[0]), Some(20));
    assert_eq!(k_of(&state.units[1]), None);
    assert_eq!(k_of(&state.units[2]), Some(7));
    // Masking out the largest-k member shrinks the shared query to
    // what the remaining members ask for; a fully masked unit is gone.
    let mask = [true, false, true, true, false, true, true];
    let masked = state.active_units(Some(&mask));
    assert_eq!(masked, [vec![0, 3, 5, 6], vec![2]]);
    assert_eq!(k_of(&masked[0]), Some(9));

    // 300 rows = 2 chunks: (3 units x 2 chunks) tasks, one neighbour
    // query per (querying unit x chunk), one span per (model x chunk).
    let x = data().vstack(&data()).unwrap().vstack(&data()).unwrap();
    let x = x.vstack(&x).unwrap();
    assert_eq!(predict_chunks(x.nrows()).len(), 2);
    let recorder = Arc::new(RecordingObserver::new());
    let observer: Arc<dyn Observer> = recorder.clone();
    let (_, report) = clf.decision_function_observed(&x, &observer).unwrap();
    assert!(report.fully_healthy());
    assert_eq!(report.execution.task_times.len(), 6);
    let trace = recorder.trace();
    assert_eq!(trace.spans_of(Stage::NeighborQuery).count(), 4);
    assert_eq!(trace.spans_of(Stage::PredictChunk).count(), 14);
    assert!(report.model_times.iter().all(|t| *t > Duration::ZERO));
}

#[test]
fn failing_shared_query_fails_every_member_typed() {
    // A state whose declared width disagrees with its indexes lets a
    // query through validation that every neighbour walk must refuse.
    let mut clf = shared_index_pool();
    let state = clf.state.take().unwrap();
    clf.state = Some(Arc::new(FittedState::new(
        state.models.clone(),
        state.threshold,
        state.n_features + 1,
        state.score_means.clone(),
        state.score_stds.clone(),
    )));
    let observer: Arc<dyn Observer> = suod_observe::noop();
    let (scores, report) = clf
        .decision_function_observed(&Matrix::zeros(3, 5), &observer)
        .expect("model failures are columns, not call failures");
    assert!(scores.as_slice().iter().all(|v| v.is_nan()));
    assert_eq!(report.failures.len(), 7);
    assert_eq!(report.execution.failures, 0, "no panic anywhere");
    for failure in &report.failures {
        let shared_query = failure.index != 2;
        assert_eq!(
            matches!(
                failure.cause,
                suod_detectors::Error::Linalg(suod_linalg::Error::ShapeMismatch { .. })
            ),
            shared_query,
            "{failure:?}"
        );
    }
}

/// Pool with one model that fits cleanly but faults at predict time.
fn chaotic_pool(mode: suod_detectors::ChaosMode) -> Vec<ModelSpec> {
    let mut pool = small_pool();
    pool.push(ModelSpec::Chaos {
        mode,
        n_neighbors: 5,
    });
    pool
}

#[test]
fn predict_panic_becomes_nan_column_not_error() {
    use suod_detectors::ChaosMode;
    let mut clf = Suod::builder()
        .base_estimators(chaotic_pool(ChaosMode::PanicOnPredict))
        .seed(3)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    let x = data();
    // Satellite fix: the call survives; the chaotic column is NaN.
    let scores = clf.decision_function(&x).unwrap();
    assert_eq!(scores.shape(), (62, 5));
    for r in 0..62 {
        assert!(scores.get(r, 4).is_nan());
        for c in 0..4 {
            assert!(scores.get(r, c).is_finite());
        }
    }
    let observer: Arc<dyn Observer> = suod_observe::noop();
    let (_, report) = clf.decision_function_observed(&x, &observer).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].index, 4);
    assert_eq!(report.failures[0].name, "chaos");
    assert!(matches!(
        report.failures[0].cause,
        suod_detectors::Error::Panicked(_)
    ));
    assert_eq!(report.healthy_models(), 4);
    assert!(!report.fully_healthy());
    // The executor's fault-isolation counter reaches the report.
    assert!(report.execution.failures >= 1);
}

#[test]
fn predict_nan_column_skipped_by_combiner_under_relaxed_floor() {
    use suod_detectors::ChaosMode;
    let x = data();
    let mut chaotic = Suod::builder()
        .base_estimators(chaotic_pool(ChaosMode::NanOnPredict))
        .min_healthy_fraction(0.5)
        .seed(3)
        .build()
        .unwrap();
    chaotic.fit(&x).unwrap();
    let combined = chaotic.combined_scores(&x).unwrap();
    // Survivor-only combination: identical to a pool that never
    // contained the chaotic model.
    let healthy = fitted(Suod::builder());
    let expected = healthy.combined_scores(&x).unwrap();
    assert_eq!(combined, expected);
}

#[test]
fn predict_failures_enforce_min_healthy_floor() {
    use suod_detectors::ChaosMode;
    let mut clf = Suod::builder()
        .base_estimators(chaotic_pool(ChaosMode::PanicOnPredict))
        .seed(3)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    // Default min_healthy_fraction = 1.0: one predict failure is one
    // too many for the combined score to be trusted.
    match clf.combined_scores(&data()) {
        Err(Error::PoolDegraded {
            healthy,
            total,
            required,
            ..
        }) => {
            assert_eq!(healthy, 4);
            assert_eq!(total, 5);
            assert_eq!(required, 5);
        }
        other => panic!("expected PoolDegraded, got {other:?}"),
    }
    // The raw score matrix stays available for forensics.
    assert!(clf.decision_function(&data()).is_ok());
}

#[test]
fn masked_models_get_nan_columns_and_no_work() {
    let clf = fitted(Suod::builder());
    let x = data();
    let observer: Arc<dyn Observer> = suod_observe::noop();
    let (scores, report) = clf
        .decision_function_masked(&x, &[true, false, true, true], &observer)
        .unwrap();
    assert_eq!(report.skipped, vec![1]);
    assert!(report.failures.is_empty());
    assert_eq!(report.healthy_models(), 3);
    assert_eq!(report.model_times[1], Duration::ZERO);
    // 3 active models x 1 chunk: the masked model never ran.
    assert_eq!(report.execution.task_times.len(), 3);
    for r in 0..62 {
        assert!(scores.get(r, 1).is_nan());
    }
    // Active columns match the unmasked pass bit for bit.
    let full = clf.decision_function(&x).unwrap();
    for r in 0..62 {
        for c in [0usize, 2, 3] {
            assert_eq!(scores.get(r, c).to_bits(), full.get(r, c).to_bits());
        }
    }
    // Mask length must match the surviving ensemble.
    assert!(clf
        .decision_function_masked(&x, &[true, false], &observer)
        .is_err());
}

#[test]
fn serve_accessors_describe_fitted_state() {
    let clf = fitted(Suod::builder());
    assert_eq!(clf.n_features().unwrap(), 4);
    let models = clf.surviving_models().unwrap();
    assert_eq!(models.len(), 4);
    assert_eq!(models[0], (0, "knn"));
    assert_eq!(models[2], (2, "hbos"));
    // combine_score_matrix reproduces combined_scores from the raw
    // matrix without a second prediction pass.
    let x = data();
    let scores = clf.decision_function(&x).unwrap();
    assert_eq!(
        clf.combine_score_matrix(&scores).unwrap(),
        clf.combined_scores(&x).unwrap()
    );
    assert!(clf.combine_score_matrix(&Matrix::zeros(3, 2)).is_err());
}
