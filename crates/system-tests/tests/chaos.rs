//! Chaos tests for the fault-tolerant fit path: injected panics, NaN
//! scores, and stragglers against a realistic 20-model heterogeneous
//! pool. All injections are seeded and deterministic (see
//! `suod_detectors::chaos`), so every assertion here is exact — a flaky
//! test of the fault-tolerance layer would defeat its own point.

use suod::prelude::*;
use suod::ModelHealth;

/// 100 x 6 synthetic grid with two planted outliers (rows 98, 99).
fn data() -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..98)
        .map(|i| {
            vec![
                (i % 10) as f64 * 0.2,
                (i / 10) as f64 * 0.2,
                ((i * 3) % 7) as f64 * 0.1,
                ((i * 5) % 11) as f64 * 0.1,
                ((i * 7) % 13) as f64 * 0.1,
                ((i * 11) % 5) as f64 * 0.1,
            ]
        })
        .collect();
    rows.push(vec![9.0; 6]);
    rows.push(vec![-9.0, 9.0, -9.0, 9.0, -9.0, 9.0]);
    Matrix::from_rows(&rows).unwrap()
}

/// 18 healthy models across six families — the pool the chaos members
/// ride on. Chaos members are appended at the END so the shared prefix
/// keeps identical pool indices (and therefore identical derived seeds)
/// with and without them.
fn base_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 10,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 15,
            method: KnnMethod::Mean,
        },
        ModelSpec::Knn {
            n_neighbors: 8,
            method: KnnMethod::Largest,
        },
        ModelSpec::Lof {
            n_neighbors: 5,
            metric: Metric::Euclidean,
        },
        ModelSpec::Lof {
            n_neighbors: 10,
            metric: Metric::Euclidean,
        },
        ModelSpec::Lof {
            n_neighbors: 20,
            metric: Metric::Euclidean,
        },
        ModelSpec::Lof {
            n_neighbors: 8,
            metric: Metric::Euclidean,
        },
        ModelSpec::Abod { n_neighbors: 5 },
        ModelSpec::Abod { n_neighbors: 8 },
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
        ModelSpec::Hbos {
            n_bins: 20,
            tolerance: 0.5,
        },
        ModelSpec::IForest {
            n_estimators: 20,
            max_features: 0.8,
        },
        ModelSpec::IForest {
            n_estimators: 40,
            max_features: 1.0,
        },
        ModelSpec::Loda {
            n_members: 20,
            n_bins: 10,
        },
        ModelSpec::Loda {
            n_members: 40,
            n_bins: 15,
        },
        ModelSpec::Pca {
            variance_retained: 0.9,
        },
        ModelSpec::Pca {
            variance_retained: 0.5,
        },
    ]
}

fn chaos(mode: ChaosMode) -> ModelSpec {
    ModelSpec::Chaos {
        mode,
        n_neighbors: 5,
    }
}

/// Flattens a health report into a comparable, wall-clock-free shape:
/// `(index, name, healthy?, cause text, attempts)` per model. The
/// straggler flag is timing-dependent and deliberately excluded.
fn health_key(health: &ModelHealth) -> Vec<(usize, &'static str, bool, String, usize)> {
    health
        .reports()
        .iter()
        .map(|r| {
            (
                r.index,
                r.name,
                r.status == ModelStatus::Healthy,
                r.cause.as_ref().map(|c| c.to_string()).unwrap_or_default(),
                r.attempts,
            )
        })
        .collect()
}

#[test]
fn twenty_model_pool_survives_injected_failures_bit_identically() {
    // 18 healthy models + one panicking + one NaN-scoring member: the fit
    // must complete, quarantine exactly the two injected models with
    // distinct causes, and leave every survivor's scores bit-identical to
    // a pool that never contained the chaos members.
    let x = data();
    let build = |pool: Vec<ModelSpec>| {
        Suod::builder()
            .base_estimators(pool)
            .with_projection(false)
            .with_approximation(false)
            .min_healthy_fraction(0.5)
            .n_workers(4)
            .seed(7)
            .build()
            .unwrap()
    };
    let mut clean = build(base_pool());
    clean.fit(&x).unwrap();
    assert!(!clean.diagnostics().unwrap().health().is_degraded());

    let mut pool = base_pool();
    pool.push(chaos(ChaosMode::PanicOnFit)); // index 18
    pool.push(chaos(ChaosMode::NanScores)); // index 19
    let mut chaotic = build(pool);
    chaotic.fit(&x).unwrap();

    let health = chaotic.diagnostics().unwrap().health();
    assert_eq!(health.len(), 20);
    assert_eq!(health.healthy(), 18);
    assert_eq!(health.quarantined_indices(), vec![18, 19]);
    assert!(matches!(
        health.report(18).unwrap().cause,
        Some(suod_detectors::Error::Panicked(_))
    ));
    assert!(matches!(
        health.report(19).unwrap().cause,
        Some(suod_detectors::Error::DegenerateData(_))
    ));

    // Survivors only: 18 columns, bit-identical to the clean pool.
    let a = clean.decision_function(&x).unwrap();
    let b = chaotic.decision_function(&x).unwrap();
    assert_eq!(a.shape(), (100, 18));
    assert_eq!(b.shape(), (100, 18));
    assert_eq!(a.as_slice(), b.as_slice());
    assert_eq!(
        clean.combined_scores(&x).unwrap(),
        chaotic.combined_scores(&x).unwrap()
    );
    assert_eq!(clean.predict(&x).unwrap(), chaotic.predict(&x).unwrap());
}

#[test]
fn degradation_floor_returns_typed_error_with_health_attached() {
    // 3 of 4 models panic; min_healthy_fraction 0.5 needs 2 survivors.
    let pool = vec![
        chaos(ChaosMode::PanicOnFit),
        chaos(ChaosMode::PanicOnFit),
        chaos(ChaosMode::PanicOnFit),
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
    ];
    let mut clf = Suod::builder()
        .base_estimators(pool)
        .min_healthy_fraction(0.5)
        .build()
        .unwrap();
    match clf.fit(&data()).unwrap_err() {
        suod::Error::PoolDegraded {
            healthy,
            total,
            required,
            cause,
        } => {
            assert_eq!((healthy, total, required), (1, 4, 2));
            assert!(matches!(cause, suod_detectors::Error::Panicked(_)));
        }
        other => panic!("expected PoolDegraded, got {other}"),
    }
    assert!(!clf.is_fitted());
    // The health report survives the failed fit for postmortems.
    let health = clf.diagnostics().unwrap().health();
    assert_eq!(health.quarantined_indices(), vec![0, 1, 2]);
    assert_eq!(health.healthy_indices(), vec![3]);
}

#[test]
fn flaky_model_recovers_on_salted_retry() {
    // Master seed 2 gives pool index 0 an even derived seed, so
    // FlakyPanic panics on the first attempt; the retry XORs in an odd
    // salt, flipping the parity, and succeeds — deterministically.
    let pool = vec![
        chaos(ChaosMode::FlakyPanic), // index 0: even seed under master 2
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
    ];
    let mut clf = Suod::builder()
        .base_estimators(pool)
        .seed(2)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    let diag = clf.diagnostics().unwrap();
    let health = diag.health();
    assert_eq!(health.healthy(), 2);
    let flaky = health.report(0).unwrap();
    assert_eq!(flaky.status, ModelStatus::Healthy);
    assert_eq!(flaky.attempts, 2);
    assert!(flaky.cause.is_none());
    let report = diag.execution();
    assert_eq!(report.retries, 1);
    assert_eq!(report.failures, 1);
}

#[test]
fn retry_then_quarantine_deterministic_across_thread_counts() {
    // Mixed fault pattern: FlakyPanic members recover (or not) purely by
    // derived-seed parity, PanicOnFit never recovers, NanScores never
    // recovers. The entire health report — statuses, causes, attempt
    // counts — and the survivor scores must not depend on the worker
    // count that executed the pool.
    let x = data();
    let run = |workers: usize| {
        let mut pool = base_pool();
        pool.push(chaos(ChaosMode::FlakyPanic));
        pool.push(chaos(ChaosMode::FlakyPanic));
        pool.push(chaos(ChaosMode::PanicOnFit));
        pool.push(chaos(ChaosMode::NanScores));
        let mut clf = Suod::builder()
            .base_estimators(pool)
            .with_projection(false)
            .with_approximation(false)
            .min_healthy_fraction(0.5)
            .n_workers(workers)
            .seed(2)
            .build()
            .unwrap();
        clf.fit(&x).unwrap();
        let diag = clf.diagnostics().unwrap();
        let health_fingerprint = health_key(diag.health());
        let retries = diag.execution().retries;
        (
            health_fingerprint,
            retries,
            clf.combined_scores(&x).unwrap(),
        )
    };
    let (health_1, retries_1, scores_1) = run(1);
    let (health_4, retries_4, scores_4) = run(4);
    assert_eq!(health_1, health_4);
    assert_eq!(retries_1, retries_4);
    // PanicOnFit and NanScores are always quarantined; the flaky members'
    // fates are seed-determined but identical across runs.
    let quarantined: Vec<usize> = health_1
        .iter()
        .filter(|(_, _, healthy, _, _)| !healthy)
        .map(|&(i, _, _, _, _)| i)
        .collect();
    assert!(quarantined.contains(&20));
    assert!(quarantined.contains(&21));
    assert_eq!(scores_1.len(), scores_4.len());
    for (a, b) in scores_1.iter().zip(&scores_4) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn slow_model_flagged_as_straggler_but_not_quarantined() {
    // One member sleeps 400ms; its pool-mates finish in milliseconds. Its
    // measured time dwarfs its forecast-implied share, so it must be
    // flagged — and must stay in the ensemble, because slow is not wrong.
    let mut pool: Vec<ModelSpec> = (0..9)
        .map(|i| ModelSpec::Knn {
            n_neighbors: 5 + i,
            method: KnnMethod::Largest,
        })
        .collect();
    pool.push(chaos(ChaosMode::SlowFit(400))); // index 9
    let mut clf = Suod::builder()
        .base_estimators(pool)
        .with_projection(false)
        .with_approximation(false)
        .seed(1)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    let diag = clf.diagnostics().unwrap();
    let health = diag.health();
    assert_eq!(health.healthy(), 10);
    assert!(health.straggler_indices().contains(&9));
    assert!(diag.execution().stragglers.contains(&9));
    // Straggling alone never quarantines.
    assert_eq!(health.report(9).unwrap().status, ModelStatus::Healthy);
}

#[test]
fn distillation_covers_exactly_the_healthy_costly_models() {
    // PSA on, with a member that recovers on retry and two that never do.
    // Distillation is the tail of a *successful* costly fit task: one
    // `PsaDistill` span per approximated model, none for a failed attempt,
    // a retried chaos member (never costly) or a quarantined one — at any
    // worker count, with the same scores.
    use std::sync::Arc;
    use suod::observe::Stage;

    let x = data();
    let run = |workers: usize| {
        let mut pool = base_pool();
        pool.push(chaos(ChaosMode::FlakyPanic)); // index 18: retried
        pool.push(chaos(ChaosMode::PanicOnFit)); // index 19: quarantined
        pool.push(chaos(ChaosMode::NanScores)); // index 20: quarantined
        let recorder = Arc::new(RecordingObserver::new());
        let mut clf = Suod::builder()
            .base_estimators(pool)
            .approximator(ApproxSpec::RandomForest {
                n_estimators: 5,
                max_depth: 6,
            })
            .min_healthy_fraction(0.5)
            .n_workers(workers)
            .observer(recorder.clone())
            .seed(2)
            .build()
            .unwrap();
        clf.fit(&x).unwrap();
        let diag = clf.diagnostics().unwrap();
        assert_eq!(diag.health().quarantined_indices(), vec![19, 20]);
        assert_eq!(diag.health().report(18).unwrap().attempts, 2);
        assert!(matches!(
            diag.health().report(20).unwrap().cause,
            Some(suod_detectors::Error::DegenerateData(_))
        ));
        let approximated = diag.approximated();
        // The ten proximity models of the base pool, nothing else.
        assert_eq!(approximated.iter().filter(|&&a| a).count(), 10);
        let mut distilled: Vec<usize> = recorder
            .trace()
            .spans_of(Stage::PsaDistill)
            .map(|s| s.model.unwrap())
            .collect();
        distilled.sort_unstable();
        let expected: Vec<usize> = (0..approximated.len())
            .filter(|&i| approximated[i])
            .collect();
        assert_eq!(distilled, expected);
        clf.decision_function(&x).unwrap()
    };
    let scores_1 = run(1);
    let scores_4 = run(4);
    assert_eq!(scores_1.as_slice(), scores_4.as_slice());
}
