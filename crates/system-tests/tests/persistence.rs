//! End-to-end contracts for the `suod-pool/1` snapshot format and the
//! serving layer's zero-downtime hot reload.
//!
//! The persistence contract: `load(save(pool))` scores **bitwise
//! identically** to the original at any worker count, `save → load →
//! save` is **byte-identical** (the format has one canonical encoding),
//! corruption and version skew surface as typed errors (never panics),
//! and the committed golden fixture keeps loading forever — a snapshot
//! written by an old build must open under every future one. On the
//! serving side: a reload under concurrent submission drops zero
//! requests, and every answered batch is bitwise-equal to one of the
//! two pools' sequential scores.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use suod::observe::Stage;
use suod::prelude::*;
use suod_serve::{ManualClock, ScoreOutcome, ScoreService, ServeConfig, SubmitError};

/// 120 x 4 synthetic grid with planted outliers — big enough for every
/// detector family, small enough to fit dozens of pools per test.
fn data() -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..117)
        .map(|i| {
            vec![
                (i % 9) as f64 * 0.3,
                (i / 9) as f64 * 0.25,
                ((i * 5) % 11) as f64 * 0.1,
                ((i * 7) % 13) as f64 * 0.1,
            ]
        })
        .collect();
    rows.push(vec![11.0, 11.0, 11.0, 11.0]);
    rows.push(vec![-8.0, 12.0, -8.0, 12.0]);
    rows.push(vec![12.0, -8.0, 12.0, -8.0]);
    Matrix::from_rows(&rows).unwrap()
}

/// Query rows disjoint from the training grid.
fn queries() -> Matrix {
    let rows: Vec<Vec<f64>> = (0..23)
        .map(|i| {
            let k = i as f64;
            vec![
                (k * 0.31) % 2.4,
                (k * 0.47) % 2.1,
                (k * 0.59) % 1.0,
                (k * 0.73) % 1.2,
            ]
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

/// One of every persistable model family — the snapshot codec must
/// round-trip all thirteen spec variants, not just the easy ones.
fn full_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 8,
            method: KnnMethod::Mean,
        },
        ModelSpec::Lof {
            n_neighbors: 7,
            metric: Metric::Manhattan,
        },
        ModelSpec::Abod { n_neighbors: 6 },
        ModelSpec::Hbos {
            n_bins: 8,
            tolerance: 0.3,
        },
        ModelSpec::IForest {
            n_estimators: 12,
            max_features: 0.8,
        },
        ModelSpec::Cblof { n_clusters: 4 },
        ModelSpec::Ocsvm {
            nu: 0.3,
            kernel: Kernel::Rbf { gamma: 0.5 },
        },
        ModelSpec::FeatureBagging { n_estimators: 3 },
        ModelSpec::Loop { n_neighbors: 9 },
        ModelSpec::Pca {
            variance_retained: 0.3,
        },
        ModelSpec::Loda {
            n_members: 6,
            n_bins: 10,
        },
        ModelSpec::Cof { n_neighbors: 7 },
        ModelSpec::Chaos {
            mode: ChaosMode::Passthrough,
            n_neighbors: 5,
        },
    ]
}

fn fit(builder: SuodBuilder, x: &Matrix) -> Suod {
    let mut clf = builder.build().expect("valid config");
    clf.fit(x).expect("fit succeeds");
    clf
}

/// The qualitatively different configurations the format must carry:
/// the default pipeline, every stage disabled, mixed-precision GEMM
/// kernels, the approximate HNSW neighbour backend, and PSA forests over
/// one shared unprojected space (the golden fixture has no forest).
fn config_variants() -> Vec<(&'static str, SuodBuilder)> {
    vec![
        (
            "psa-forests",
            Suod::builder()
                .base_estimators(full_pool())
                .with_projection(false)
                .with_approximation(true)
                .approximator(ApproxSpec::RandomForest {
                    n_estimators: 12,
                    max_depth: 10,
                })
                .seed(19),
        ),
        (
            "default",
            Suod::builder().base_estimators(full_pool()).seed(7),
        ),
        (
            "stages-off",
            Suod::builder()
                .base_estimators(full_pool())
                .with_projection(false)
                .with_approximation(false)
                .with_bps(false)
                .contamination(0.05)
                .seed(11),
        ),
        (
            "gemm-mixed",
            Suod::builder()
                .base_estimators(full_pool())
                .kernel(
                    KernelConfig::default()
                        .with_backend(DistanceBackend::Gemm)
                        .with_precision(Precision::Mixed)
                        .with_kdtree_crossover_dim(0),
                )
                .seed(13),
        ),
        (
            "hnsw",
            Suod::builder()
                .base_estimators(full_pool())
                .kernel(
                    KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(
                        HnswParams {
                            min_rows: 0, // engage the graph even at 120 rows
                            ..HnswParams::default()
                        }
                        .with_ef_search(64),
                    )),
                )
                .with_approximation(false)
                .seed(17),
        ),
    ]
}

#[test]
fn round_trip_scores_bitwise_identical_across_worker_counts() {
    let x = data();
    let q = queries();
    for n_workers in [1usize, 8] {
        for (name, builder) in config_variants() {
            let clf = fit(builder.n_workers(n_workers), &x);
            let loaded = Suod::load_from_bytes(&clf.save_to_bytes().expect("save")).expect("load");

            let bits = |m: Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(clf.decision_function(&q).unwrap()),
                bits(loaded.decision_function(&q).unwrap()),
                "{name}: per-model scores drifted at n_workers={n_workers}"
            );
            assert_eq!(
                clf.combined_scores(&q).unwrap(),
                loaded.combined_scores(&q).unwrap(),
                "{name}: combined scores drifted at n_workers={n_workers}"
            );
            assert_eq!(
                clf.predict(&q).unwrap(),
                loaded.predict(&q).unwrap(),
                "{name}: labels drifted at n_workers={n_workers}"
            );
            assert_eq!(clf.threshold().unwrap(), loaded.threshold().unwrap());
            assert_eq!(
                clf.training_combined_scores().unwrap(),
                loaded.training_combined_scores().unwrap(),
                "{name}: training scores drifted"
            );
        }
    }
}

#[test]
fn save_load_save_is_byte_identical() {
    let x = data();
    for (name, builder) in config_variants() {
        let clf = fit(builder, &x);
        if name == "psa-forests" {
            let approximated = clf.diagnostics().expect("fitted").approximated();
            assert!(approximated.iter().any(|&a| a), "{name}: no forest");
        }
        let first = clf.save_to_bytes().expect("save");
        let loaded = Suod::load_from_bytes(&first).expect("load");
        let second = loaded.save_to_bytes().expect("re-save");
        assert_eq!(first, second, "{name}: snapshot is not canonical");
    }
}

#[test]
fn quarantined_models_survive_the_round_trip() {
    let x = data();
    let mut pool = full_pool();
    // A model that panics on every fit attempt: retries exhaust, the
    // model lands in quarantine, and the 0.5 floor lets fit succeed.
    pool.push(ModelSpec::Chaos {
        mode: ChaosMode::PanicOnFit,
        n_neighbors: 5,
    });
    let clf = fit(
        Suod::builder()
            .base_estimators(pool)
            .min_healthy_fraction(0.5)
            .max_model_retries(1)
            .seed(7),
        &x,
    );
    let health = clf.diagnostics().expect("fitted").health();
    assert!(health.quarantined() > 0, "chaos model must be quarantined");

    let loaded = Suod::load_from_bytes(&clf.save_to_bytes().unwrap()).expect("load");
    let reloaded_health = loaded.diagnostics().expect("fitted").health();
    assert_eq!(health.quarantined(), reloaded_health.quarantined());
    assert_eq!(health.healthy(), reloaded_health.healthy());
    for (a, b) in health.reports().iter().zip(reloaded_health.reports()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.name, b.name);
        assert_eq!(a.status, b.status);
        assert_eq!(a.attempts, b.attempts);
    }

    let q = queries();
    assert_eq!(
        clf.combined_scores(&q).unwrap(),
        loaded.combined_scores(&q).unwrap(),
        "survivor-only combination drifted through the snapshot"
    );
}

#[test]
fn corruption_and_version_skew_are_typed_errors_not_panics() {
    let x = data();
    let clf = fit(Suod::builder().base_estimators(full_pool()).seed(7), &x);
    let good = clf.save_to_bytes().unwrap();

    // Flip one payload byte: the signature check must name both sides.
    let mut garbled = good.clone();
    let last = garbled.len() - 1;
    garbled[last] ^= 0x01;
    match Suod::load_from_bytes(&garbled) {
        Err(suod::Error::SnapshotCorrupt { expected, actual }) => {
            assert_ne!(expected, actual);
            assert!(expected.starts_with("fnv1a64:"), "{expected}");
        }
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }

    // Wrong magic: not a snapshot at all.
    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        Suod::load_from_bytes(&wrong_magic),
        Err(suod::Error::SnapshotFormat(_))
    ));

    // A future format version must be refused, not misparsed. The
    // version field is the little-endian u64 right after the magic.
    let mut future = good.clone();
    future[8] = 99;
    assert!(matches!(
        Suod::load_from_bytes(&future),
        Err(suod::Error::SnapshotFormat(_))
    ));

    // Truncation anywhere must error cleanly. Step coarsely: every
    // prefix length is a distinct parse state and none may panic.
    for cut in (0..good.len() - 1).step_by(97) {
        assert!(
            Suod::load_from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} bytes must fail"
        );
    }

    // Trailing garbage is corruption too (canonical encoding).
    let mut padded = good.clone();
    padded.extend_from_slice(b"junk");
    assert!(Suod::load_from_bytes(&padded).is_err());
}

/// The committed fixture's exact configuration — regenerate with
/// `cargo test -p suod-system-tests --test persistence -- --ignored`.
fn golden_estimator() -> Suod {
    fit(
        Suod::builder()
            .base_estimators(vec![
                ModelSpec::Hbos {
                    n_bins: 8,
                    tolerance: 0.3,
                },
                ModelSpec::IForest {
                    n_estimators: 10,
                    max_features: 1.0,
                },
                ModelSpec::Knn {
                    n_neighbors: 5,
                    method: KnnMethod::Mean,
                },
                ModelSpec::Lof {
                    n_neighbors: 6,
                    metric: Metric::Euclidean,
                },
            ])
            .n_workers(1)
            .seed(7),
        &data(),
    )
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.suod")
}

#[test]
#[ignore = "writes the committed fixture; run once when the format version bumps"]
fn regenerate_golden_fixture() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    golden_estimator().save(&path).unwrap();
}

/// Format stability: the fixture bytes in git were written by the build
/// that introduced `suod-pool/1`. Every later build must (a) load them,
/// (b) score with them, and (c) re-encode them byte-for-byte — if this
/// test fails, the format changed and the version must be bumped
/// instead.
#[test]
fn golden_fixture_still_loads_and_reencodes_identically() {
    let bytes = std::fs::read(golden_path()).expect("committed fixture present");
    let loaded = Suod::load_from_bytes(&bytes).expect("golden fixture loads");
    assert_eq!(loaded.n_models(), 4);
    assert_eq!(loaded.n_features().unwrap(), 4);
    assert_eq!(loaded.save_to_bytes().unwrap(), bytes, "format drifted");

    // The fixture must score exactly like a fresh fit of its recipe —
    // the repo-wide determinism contract extended across process exits.
    let q = queries();
    let fresh = golden_estimator();
    assert_eq!(
        fresh.combined_scores(&q).unwrap(),
        loaded.combined_scores(&q).unwrap(),
        "fixture scores drifted from a fresh deterministic fit"
    );
}

#[test]
fn hot_reload_under_concurrent_load_drops_nothing() {
    let x = data();
    let q = queries();
    let pool_a = fit(
        Suod::builder()
            .base_estimators(full_pool())
            .n_workers(2)
            .seed(7),
        &x,
    );
    let expected_a = pool_a.combined_scores(&q).unwrap();

    // Replacement pools arrive as snapshots, like a production reload.
    let replacement_bytes = {
        let pool_b = fit(
            Suod::builder()
                .base_estimators(vec![
                    ModelSpec::Hbos {
                        n_bins: 10,
                        tolerance: 0.2,
                    },
                    ModelSpec::IForest {
                        n_estimators: 15,
                        max_features: 1.0,
                    },
                    ModelSpec::Knn {
                        n_neighbors: 6,
                        method: KnnMethod::Mean,
                    },
                ])
                .n_workers(2)
                .seed(21),
            &x,
        );
        pool_b.save_to_bytes().unwrap()
    };
    let expected_b = Suod::load_from_bytes(&replacement_bytes)
        .unwrap()
        .combined_scores(&q)
        .unwrap();

    let clock = Arc::new(ManualClock::new());
    let service = Arc::new(
        ScoreService::with_parts(
            pool_a,
            ServeConfig {
                queue_capacity: 16,
                ..ServeConfig::default()
            },
            clock,
            suod_observe::noop(),
        )
        .unwrap(),
    );

    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 24;
    const RELOADS: usize = 3;
    let finished = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let service = Arc::clone(&service);
        let finished = Arc::clone(&finished);
        let rows = q.clone();
        clients.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for _ in 0..REQUESTS_PER_CLIENT {
                let ticket = loop {
                    match service.submit(rows.clone()) {
                        Ok(t) => break t,
                        Err(SubmitError::Busy { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                };
                outcomes.push(ticket.wait());
            }
            finished.fetch_add(1, Ordering::SeqCst);
            outcomes
        }));
    }

    // The main thread plays dispatcher and operator at once: serve
    // batches continuously, hot-swap the pool mid-stream three times.
    let mut reloads_done = 0;
    let mut batches = 0u64;
    while finished.load(Ordering::SeqCst) < CLIENTS {
        if service.process_once() > 0 {
            batches += 1;
            // Interleave reloads with live traffic.
            if reloads_done < RELOADS && batches % 7 == 3 {
                let clf = Suod::load_from_bytes(&replacement_bytes).unwrap();
                let report = service.reload(clf).expect("reload accepted");
                reloads_done += 1;
                assert_eq!(report.epoch, reloads_done as u64);
                assert_eq!(report.total_models, 3);
            }
        } else {
            std::thread::yield_now();
        }
    }
    service.process_once(); // drain any straggler admitted after the last loop check

    let mut scored = 0usize;
    let mut on_a = 0usize;
    let mut on_b = 0usize;
    for client in clients {
        for outcome in client.join().expect("client thread") {
            match outcome {
                ScoreOutcome::Scored(batch) => {
                    scored += 1;
                    assert!(batch.faults.is_empty(), "healthy pools must not fault");
                    if batch.combined == expected_a {
                        on_a += 1;
                    } else if batch.combined == expected_b {
                        on_b += 1;
                    } else {
                        panic!("batch scores match neither pool generation");
                    }
                }
                other => panic!("request dropped by reload: {other:?}"),
            }
        }
    }
    assert_eq!(
        scored,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request answered"
    );
    assert!(
        on_a > 0,
        "some batches must have scored on the original pool"
    );
    assert!(on_b > 0, "some batches must have scored on the replacement");

    let report = service.report();
    assert_eq!(report.reloads, RELOADS as u64);
    assert_eq!(report.pool_epoch, RELOADS as u64);
    assert_eq!(
        report.requests_scored,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.total_models, 3, "report reflects the reloaded pool");
}

#[test]
fn warm_refit_reuses_survivors_and_stays_deterministic() {
    let x = data();
    let q = queries();
    let specs = full_pool();
    let model_fits = |recorder: &RecordingObserver| {
        let trace = recorder.trace();
        trace.spans_of(suod::observe::Stage::ModelFit).count()
            + trace.spans_of(suod::observe::Stage::ModelRetry).count()
    };

    let recorder = Arc::new(RecordingObserver::new());
    let mut warm = fit(
        Suod::builder()
            .base_estimators(specs.clone())
            .with_projection(false)
            .observer(recorder.clone())
            .seed(7),
        &x,
    );
    let after_cold = model_fits(&recorder);
    assert_eq!(after_cold, specs.len());
    let expected = warm.combined_scores(&q).unwrap();

    // Identical recipe on identical data: every model is carried over,
    // zero model fits run, and no score bit moves.
    warm.warm_refit(&x, specs.clone()).expect("warm refit");
    assert_eq!(
        model_fits(&recorder),
        after_cold,
        "a no-op warm refit must not refit any model"
    );
    assert_eq!(warm.combined_scores(&q).unwrap(), expected);

    // Change one spec: exactly one model refits, and the result is
    // bitwise-equal to a cold fit of the modified recipe.
    let mut modified = specs.clone();
    modified[4] = ModelSpec::Hbos {
        n_bins: 12,
        tolerance: 0.2,
    };
    warm.warm_refit(&x, modified.clone()).expect("warm refit");
    assert_eq!(
        model_fits(&recorder),
        after_cold + 1,
        "changing one spec must refit exactly one model"
    );
    let cold = fit(
        Suod::builder()
            .base_estimators(modified)
            .with_projection(false)
            .seed(7),
        &x,
    );
    assert_eq!(
        warm.combined_scores(&q).unwrap(),
        cold.combined_scores(&q).unwrap(),
        "warm refit must match a cold fit of the new recipe bitwise"
    );

    // New data is refused, never silently retrained.
    assert!(warm.warm_refit(&q, specs).is_err());
}

/// A failed warm refit must not leave anything behind. Recipe B dies
/// mid-pipeline (a kNN with `k = 0` cannot be built — a fatal error, not
/// a quarantine), after which the estimator must still be on pool A in
/// every respect; the next refit, to C, shares `C[1] == B[1]` with the
/// failed recipe and must not mistake A's model 1 for a fit of it.
#[test]
fn failed_warm_refit_leaves_the_previous_pool_in_place() {
    let x = data();
    let q = queries();
    let knn = |n_neighbors| ModelSpec::Knn {
        n_neighbors,
        method: KnnMethod::Largest,
    };
    let hbos = |n_bins| ModelSpec::Hbos {
        n_bins,
        tolerance: 0.3,
    };
    let builder = || Suod::builder().seed(7);
    let (pool_a, pool_b, pool_c) = (
        vec![knn(5), hbos(10)],
        vec![knn(0), hbos(20)],
        vec![knn(5), hbos(20)],
    );

    let mut clf = fit(builder().base_estimators(pool_a), &x);
    let observe = |clf: &Suod| {
        (
            clf.n_models(),
            clf.surviving_models().unwrap(),
            clf.combined_scores(&q).unwrap(),
        )
    };
    let on_a = observe(&clf);
    assert!(matches!(
        clf.warm_refit(&x, pool_b),
        Err(suod::Error::Detector(_))
    ));
    assert_eq!(observe(&clf), on_a, "a failed refit must change nothing");

    clf.warm_refit(&x, pool_c.clone()).expect("refit to C");
    let cold = fit(builder().base_estimators(pool_c), &x);
    assert_eq!(observe(&clf), observe(&cold));
    assert_eq!(clf.threshold().unwrap(), cold.threshold().unwrap());
    assert_eq!(
        clf.training_combined_scores().unwrap(),
        cold.training_combined_scores().unwrap()
    );
}

/// One generated pool member: six proximity families, three cheap ones,
/// and a pass-through chaos wrapper — a kNN that, unlike the others,
/// stays unprojected, so several of them share one cached graph over the
/// original space even with projection on.
fn generated_spec(family: usize, p: usize) -> ModelSpec {
    match family % 10 {
        0 => ModelSpec::Knn {
            n_neighbors: p,
            method: KnnMethod::Largest,
        },
        1 => ModelSpec::Knn {
            n_neighbors: p,
            method: KnnMethod::Mean,
        },
        2 => ModelSpec::Lof {
            n_neighbors: p,
            metric: Metric::Euclidean,
        },
        3 => ModelSpec::Lof {
            n_neighbors: p,
            metric: Metric::Manhattan,
        },
        4 => ModelSpec::Abod { n_neighbors: p },
        5 => ModelSpec::Loop { n_neighbors: p },
        6 => ModelSpec::Hbos {
            n_bins: p + 3,
            tolerance: 0.3,
        },
        7 => ModelSpec::IForest {
            n_estimators: p + 4,
            max_features: 0.8,
        },
        8 => ModelSpec::Loda {
            n_members: p,
            n_bins: 8,
        },
        _ => ModelSpec::Chaos {
            mode: ChaosMode::Passthrough,
            n_neighbors: p,
        },
    }
}

/// What a warm refit must reproduce bit for bit.
fn fitted_bits(clf: &Suod, q: &Matrix) -> (Vec<u64>, u64, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
    (
        bits(clf.decision_function(q).unwrap().as_slice()),
        clf.threshold().unwrap().to_bits(),
        bits(&clf.training_combined_scores().unwrap()),
    )
}

/// Pool indices the latest (re)fit carried over: zero attempts this round.
fn carried(clf: &Suod) -> Vec<usize> {
    let rows = clf.diagnostics().expect("diagnostics").models();
    let carried = rows.iter().filter(|row| row.attempts == 0);
    carried.map(|row| row.index).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `warm_refit` == a cold fit of the new recipe, with projection and
    /// PSA on, for generated recipes and generated edits (change, append,
    /// remove — which shifts every later pool index), at 1/2/8 workers,
    /// from a live estimator and from a reloaded snapshot (no retained
    /// cache). Every second recipe also gains a member that is quarantined
    /// and a proximity member whose larger `k` widens a cached graph the
    /// carried members were fitted from.
    ///
    /// Snapshots of the two cannot be byte-equal — they carry wall-clock
    /// fit times and per-round attempt counts — so the check there is
    /// equal size, and equal scores after a reload.
    fn generated_warm_refits_equal_cold_fits(
        first in proptest::collection::vec((0usize..10, 2usize..14), 3..7),
        edits in proptest::collection::vec((0usize..3, 0usize..64, 0usize..10, 2usize..14), 1..4),
        projection in 0usize..3,
        seed in 1u64..1_000,
    ) {
        let x = data();
        let q = queries();
        // Slot 0 is fixed: a small-k graph over the original space.
        let mut recipe_a = vec![generated_spec(9, 4)];
        recipe_a.extend(first.iter().map(|&(family, p)| generated_spec(family, p)));
        let mut recipe_b = recipe_a.clone();
        for &(op, at, family, p) in &edits {
            let at = 1 + at % (recipe_b.len() - 1);
            match op {
                0 => recipe_b[at] = generated_spec(family, p),
                1 => recipe_b.push(generated_spec(family, p)),
                _ if recipe_b.len() > 2 => drop(recipe_b.remove(at)),
                _ => {}
            }
        }
        recipe_b.push(generated_spec(9, 25));
        recipe_b.push(ModelSpec::Chaos {
            mode: ChaosMode::PanicOnFit,
            n_neighbors: 5,
        });
        let expect_carried: Vec<usize> = (0..recipe_a.len().min(recipe_b.len()))
            .filter(|&i| recipe_a[i] == recipe_b[i])
            .collect();
        let expect_fits = recipe_b.len() - expect_carried.len();

        for n_workers in [1usize, 2, 8] {
            let builder = |specs: &[ModelSpec]| {
                Suod::builder()
                    .base_estimators(specs.to_vec())
                    .with_projection(projection > 0)
                    .approximator(ApproxSpec::RandomForest {
                        n_estimators: 6,
                        max_depth: 6,
                    })
                    .min_healthy_fraction(0.5)
                    .n_workers(n_workers)
                    .seed(seed)
            };
            let recorder = Arc::new(RecordingObserver::new());
            let mut warm = fit(builder(&recipe_a).observer(recorder.clone()), &x);
            let snapshot_a = warm.save_to_bytes().expect("save");
            let spans = |stage| recorder.trace().spans_of(stage).count();
            let (fits_a, retries_a) = (spans(Stage::ModelFit), spans(Stage::ModelRetry));

            let cold = fit(builder(&recipe_b), &x);
            let expected = fitted_bits(&cold, &q);
            prop_assert!(carried(&cold).is_empty());

            warm.warm_refit(&x, recipe_b.clone()).expect("warm refit");
            prop_assert_eq!(&fitted_bits(&warm, &q), &expected, "{:?} -> {:?}", recipe_a, recipe_b);
            prop_assert_eq!(&carried(&warm), &expect_carried);
            // One fit per model that ran, one retry for the panicking one.
            prop_assert_eq!(spans(Stage::ModelFit) - fits_a, expect_fits);
            prop_assert_eq!(spans(Stage::ModelRetry) - retries_a, 1);
            prop_assert_eq!(warm.surviving_models().unwrap(), cold.surviving_models().unwrap());

            let mut reloaded = Suod::load_from_bytes(&snapshot_a).expect("load");
            reloaded.warm_refit(&x, recipe_b.clone()).expect("warm refit after reload");
            prop_assert_eq!(&fitted_bits(&reloaded, &q), &expected);
            prop_assert_eq!(&carried(&reloaded), &expect_carried);

            let cold_bytes = cold.save_to_bytes().expect("save");
            for refit in [&warm, &reloaded] {
                let bytes = refit.save_to_bytes().expect("save");
                prop_assert_eq!(bytes.len(), cold_bytes.len());
                let back = Suod::load_from_bytes(&bytes).expect("load");
                prop_assert_eq!(&fitted_bits(&back, &q), &expected);
            }
        }
    }
}
