//! End-to-end contracts for the `suod-pool` snapshot format and the
//! serving layer's zero-downtime hot reload.
//!
//! The persistence contract: `load(save(pool))` scores **bitwise
//! identically** to the original at any worker count, `save → load →
//! save` is **byte-identical** (the format has one canonical encoding),
//! corruption and version skew surface as typed errors (never panics),
//! and the committed golden fixtures keep loading forever — a snapshot
//! written by an old build must open under every future one. A stored
//! HNSW graph is checked before use: every truncation, bit flip and
//! inflated count in a graph section, and every hand-crafted graph that
//! breaks a load rule, is a typed error. So is every truncation of a
//! model record, an unknown scorer tag and an inflated training-score
//! count, and no mutant of the record panics, hangs or allocates more
//! than the file it was read from. On the
//! serving side: a reload under concurrent submission drops zero
//! requests, and every answered batch is bitwise-equal to one of the
//! two pools' sequential scores.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use suod::observe::Stage;
use suod::prelude::*;
use suod::SNAPSHOT_VERSION;
use suod_linalg::{KnnIndex, Neighbor, SnapshotReader, SnapshotWriter};
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
            "gemm",
            Suod::builder()
                .base_estimators(full_pool())
                .kernel(
                    KernelConfig::default()
                        .with_backend(DistanceBackend::Gemm)
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
            assert!(expected.starts_with("lanes64:"), "{expected}");
            assert!(actual.starts_with("lanes64:"), "{actual}");
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

/// The recipe of the `suod-pool/1` fixture `golden.suod`.
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

/// The recipe of `golden-v2.suod` (written by the last `suod-pool/2`
/// build) and of `golden-v1-hnsw.suod` (written by the last
/// `suod-pool/1` build): an HNSW pool with `min_rows: 0`, so the kNN and
/// the Euclidean LOF share one graph, and the Manhattan LOF's index is
/// exact and carries none. The kernel config is pool-wide, so the
/// graph-less index record comes from the non-Euclidean model. PSA is
/// on, so the three proximity models are approximated: a `suod-pool/3`
/// or later pool keeps their regressors and none of their indexes.
fn golden_hnsw_estimator() -> Suod {
    fit(golden_hnsw_builder(), &data())
}

/// The recipe of `golden-v3.suod` and `golden-v4.suod`:
/// [`golden_hnsw_estimator`]'s with PSA off, so the proximity models keep
/// their detectors and the fixture stores the shared graph beside the
/// exact index.
fn golden_graph_estimator() -> Suod {
    fit(golden_hnsw_builder().with_approximation(false), &data())
}

fn golden_hnsw_builder() -> SuodBuilder {
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
            ModelSpec::Lof {
                n_neighbors: 6,
                metric: Metric::Manhattan,
            },
        ])
        .kernel(
            KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(HnswParams {
                min_rows: 0,
                ..HnswParams::default()
            })),
        )
        .n_workers(1)
        .seed(7)
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture(name)).expect("committed fixture present")
}

/// A snapshot file of format `version` around `payload`, carrying
/// `signature` as its integrity signature.
fn framed(version: u64, signature: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.write_u64(version);
    w.write_str(signature);
    w.write_bytes(payload);
    [&b"SUODPOOL"[..], w.as_bytes()].concat()
}

/// The payload of a snapshot file.
fn payload(file: &[u8]) -> Vec<u8> {
    let mut r = SnapshotReader::new(&file[8..]);
    r.read_u64().unwrap();
    r.read_str().unwrap();
    r.read_bytes().unwrap().to_vec()
}

/// The payload of `clf`'s snapshot with every model's measured fit time
/// zeroed: the one field two fits of one recipe do not share. A model
/// record ends with its training scores and then its fit time, so the
/// pair locates the field.
fn payload_without_fit_times(clf: &Suod) -> Vec<u8> {
    let mut payload = payload(&clf.save_to_bytes().unwrap());
    let scores = clf.training_scores().unwrap();
    let times = clf.diagnostics().expect("fitted").fit_times();
    assert_eq!(times.len(), scores.ncols());
    for (m, time) in times.iter().enumerate() {
        let mut tail: Vec<u8> = (0..scores.nrows())
            .flat_map(|i| scores.get(i, m).to_bits().to_le_bytes())
            .collect();
        tail.extend_from_slice(&u64::try_from(time.as_nanos()).unwrap().to_le_bytes());
        let at = payload
            .windows(tail.len())
            .position(|w| w == tail)
            .expect("model record ends with its scores and fit time");
        payload[at + tail.len() - 8..at + tail.len()].fill(0);
    }
    payload
}

#[test]
#[ignore = "writes the committed fixture; run once when the format version bumps"]
fn regenerate_golden_fixture() {
    let path = fixture("golden-v4.suod");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    golden_graph_estimator().save(&path).unwrap();
}

/// Format stability: `golden.suod` was written by the build that
/// introduced `suod-pool/1`. Every later build must load it, score with
/// it exactly like a fresh fit of its recipe, and re-encode it to the
/// bytes a fresh save of that recipe gives in the current format (fit
/// times aside: they are measured).
#[test]
fn golden_fixture_still_loads_and_reencodes_identically() {
    let bytes = read_fixture("golden.suod");
    let loaded = Suod::load_from_bytes(&bytes).expect("golden fixture loads");
    assert_eq!(loaded.n_models(), 4);
    assert_eq!(loaded.n_features().unwrap(), 4);

    // The fixture must score exactly like a fresh fit of its recipe —
    // the repo-wide determinism contract extended across process exits.
    let q = queries();
    let fresh = golden_estimator();
    assert_eq!(
        fresh.combined_scores(&q).unwrap(),
        loaded.combined_scores(&q).unwrap(),
        "fixture scores drifted from a fresh deterministic fit"
    );
    assert_eq!(
        payload_without_fit_times(&loaded),
        payload_without_fit_times(&fresh),
        "a suod-pool/1 pool must re-encode like a fresh save"
    );
}

/// Format stability of `suod-pool/2`: `golden-v2.suod` was written by
/// the last `suod-pool/2` build. It loads, scores exactly like a fresh
/// fit of its recipe, and re-encodes like a fresh save (fit times
/// aside): the detectors of its approximated models and every
/// detector's copy of the training scores are read and dropped.
#[test]
fn golden_v2_fixture_loads_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("golden-v2.suod");
    assert_eq!(&bytes[8..16], &2u64.to_le_bytes());
    let loaded = Suod::load_from_bytes(&bytes).expect("v2 fixture loads");
    assert_eq!(loaded.n_models(), 5);
    let approximated = loaded.diagnostics().expect("fitted").approximated();
    assert_eq!(approximated, [false, false, true, true, true]);
    let fresh = golden_hnsw_estimator();
    let q = queries();
    let bits = |clf: &Suod| -> Vec<u64> {
        let s = clf.decision_function(&q).unwrap();
        s.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&fresh), bits(&loaded), "fixture scores drifted");
    assert_eq!(
        payload_without_fit_times(&loaded),
        payload_without_fit_times(&fresh),
        "a suod-pool/2 pool must re-encode like a fresh save"
    );
}

/// Format stability of `suod-pool/3`: `golden-v3.suod` (an HNSW graph
/// stored beside an exact index) was written by the last `suod-pool/3`
/// build. It loads, scores exactly like a fresh fit of its recipe, and
/// re-encodes like a fresh save (fit times aside). `/4` changed only the
/// signature, so its payload re-encodes byte for byte under a `/4`
/// header.
#[test]
fn golden_v3_fixture_loads_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("golden-v3.suod");
    assert_eq!(&bytes[8..16], &3u64.to_le_bytes());
    let loaded = Suod::load_from_bytes(&bytes).expect("v3 fixture loads");
    assert_eq!(loaded.n_models(), 5);
    let resaved = loaded.save_to_bytes().unwrap();
    assert_eq!(&resaved[8..16], &SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(payload(&resaved), payload(&bytes), "payload drifted");
    let fresh = golden_graph_estimator();
    assert_eq!(
        payload_without_fit_times(&fresh),
        payload_without_fit_times(&loaded),
        "fit drifted"
    );
    let q = queries();
    assert_eq!(
        fresh.decision_function(&q).unwrap(),
        loaded.decision_function(&q).unwrap()
    );
}

/// Format stability of `suod-pool/4`: `golden-v4.suod` (the recipe of
/// `golden-v3.suod`) loads, re-encodes byte for byte, and matches a fresh
/// fit's save but for fit times — if this fails, the format changed and
/// the version must be bumped instead.
#[test]
fn golden_v4_fixture_loads_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("golden-v4.suod");
    assert_eq!(&bytes[8..16], &SNAPSHOT_VERSION.to_le_bytes());
    let loaded = Suod::load_from_bytes(&bytes).expect("v4 fixture loads");
    assert_eq!(loaded.n_models(), 5);
    assert_eq!(loaded.save_to_bytes().unwrap(), bytes, "format drifted");
    let fresh = golden_graph_estimator();
    assert_eq!(
        payload_without_fit_times(&fresh),
        payload_without_fit_times(&loaded),
        "fit drifted"
    );
    let q = queries();
    assert_eq!(
        fresh.decision_function(&q).unwrap(),
        loaded.decision_function(&q).unwrap()
    );
}

/// `golden-v1-hnsw.suod` has `golden-v2.suod`'s recipe but was written by
/// the last `suod-pool/1` build, so it carries no graphs: loading it
/// rebuilds them. Both fixtures' graphs belong to approximated models,
/// whose detectors a load drops once read, so the two loaded pools must
/// be one pool — same scores bit for bit, and the same bytes once
/// re-encoded (fit times aside). That a rebuilt graph is the stored one
/// is held by `ann.rs`'s `stored_graph_equals_a_fresh_build`.
#[test]
fn golden_v1_hnsw_fixture_rebuilds_the_graphs_v2_stores() {
    let v1 = read_fixture("golden-v1-hnsw.suod");
    let v2 = read_fixture("golden-v2.suod");
    assert_eq!(&v1[8..16], &1u64.to_le_bytes());
    let rebuilt = Suod::load_from_bytes(&v1).expect("v1 fixture loads");
    let stored = Suod::load_from_bytes(&v2).expect("v2 fixture loads");
    let bits = |clf: &Suod| -> Vec<u64> {
        let s = clf.decision_function(&queries()).unwrap();
        s.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&rebuilt), bits(&stored));
    assert_eq!(
        rebuilt.training_combined_scores().unwrap(),
        stored.training_combined_scores().unwrap()
    );
    assert_eq!(
        payload_without_fit_times(&rebuilt),
        payload_without_fit_times(&stored)
    );
}

/// The recipe of `golden-v3-cache-off.suod`: three Euclidean proximity
/// models on the raw rows, no projection, no PSA. The fixture was written
/// by the last build with the neighbour-cache switch, fitted with it off:
/// every model built its own, equal index, and the config record's cache
/// byte is 0.
fn cache_off_recipe() -> Suod {
    fit(
        Suod::builder()
            .base_estimators(vec![
                ModelSpec::Knn {
                    n_neighbors: 5,
                    method: KnnMethod::Largest,
                },
                ModelSpec::Lof {
                    n_neighbors: 8,
                    metric: Metric::Euclidean,
                },
                ModelSpec::Knn {
                    n_neighbors: 3,
                    method: KnnMethod::Median,
                },
            ])
            .with_projection(false)
            .with_approximation(false)
            .n_workers(1)
            .seed(7),
        &data(),
    )
}

/// A pool fitted without the shared cache still fuses once loaded: its
/// three models plan one prediction unit (one task per row chunk), score
/// exactly like a fresh fit of the recipe, and re-encode like a fresh
/// save — the retired switch's byte now written as 1, the only byte
/// that moves.
#[test]
fn golden_cache_off_fixture_fuses_and_reencodes_like_a_fresh_fit() {
    let bytes = read_fixture("golden-v3-cache-off.suod");
    assert_eq!(&bytes[8..16], &3u64.to_le_bytes());
    let loaded = Suod::load_from_bytes(&bytes).expect("cache-off fixture loads");
    let fresh = cache_off_recipe();
    let q = queries();
    let noop: Arc<dyn Observer> = Arc::new(NoopObserver);
    let (scores, report) = loaded
        .decision_function_observed(&q, &noop)
        .expect("scoring");
    assert_eq!(report.execution.task_times.len(), q.nrows().div_ceil(256));
    let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&scores), bits(&fresh.decision_function(&q).unwrap()));
    assert_eq!(
        loaded.training_combined_scores().unwrap(),
        fresh.training_combined_scores().unwrap()
    );
    assert_eq!(
        payload_without_fit_times(&loaded),
        payload_without_fit_times(&fresh),
        "a cache-off pool must re-encode like a fresh save"
    );
    let (stored, reencoded) = (payload(&bytes), payload(&loaded.save_to_bytes().unwrap()));
    assert_eq!(stored.len(), reencoded.len());
    let moved: Vec<(u8, u8)> = stored
        .iter()
        .zip(&reencoded)
        .filter(|(a, b)| a != b)
        .map(|(&a, &b)| (a, b))
        .collect();
    assert_eq!(moved, [(0, 1)], "only the cache byte moves, from off to on");
}

/// FNV-1a over `bytes`: a digest to pin bits with, not a checksum.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits_digest(values: &[f64]) -> u64 {
    digest(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The cheap families pinned at the pool level: `e2e`'s `serve-small`
/// pool (HBOS ×2, IForest ×2, LODA ×2, PCA) fitted on a seeded synthetic
/// set. Neither the golden fixtures nor the CLI's pools hold a LODA, so
/// this is where its scores and its snapshot record are held to fixed
/// bits. The score digests were recorded before HBOS and LODA moved onto
/// the binned operator, the payload digest when `suod-pool/3` stopped
/// storing each detector's copy of the training scores; a change to any
/// of them is a change of scores or of format.
#[test]
fn serve_small_pool_keeps_its_digests() {
    use suod_datasets::synthetic::{generate, OutlierKind, SyntheticConfig};
    let data = generate(&SyntheticConfig {
        n_samples: 800,
        n_features: 16,
        contamination: 0.2,
        n_clusters: 3,
        n_noise_features: 8,
        outlier_kind: OutlierKind::Mixed,
        seed: 17,
    })
    .unwrap();
    let rows = |range: std::ops::Range<usize>| {
        let picked: Vec<Vec<f64>> = range.map(|r| data.x.row(r).to_vec()).collect();
        Matrix::from_rows(&picked).unwrap()
    };
    let (train, query) = (rows(0..600), rows(600..800));
    let hbos = |n_bins, tolerance| ModelSpec::Hbos { n_bins, tolerance };
    let iforest = |n_estimators, max_features| ModelSpec::IForest {
        n_estimators,
        max_features,
    };
    let loda = |n_members, n_bins| ModelSpec::Loda { n_members, n_bins };
    let specs = vec![
        hbos(10, 0.3),
        hbos(20, 0.5),
        iforest(20, 0.8),
        iforest(40, 1.0),
        loda(20, 10),
        loda(40, 20),
        ModelSpec::Pca {
            variance_retained: 0.9,
        },
    ];
    let clf = fit(
        Suod::builder().base_estimators(specs).n_workers(2).seed(17),
        &train,
    );
    let scores = clf.decision_function(&query).unwrap();
    let combined = clf.training_combined_scores().unwrap();
    let got = (
        bits_digest(scores.as_slice()),
        bits_digest(&combined),
        digest(payload_without_fit_times(&clf)),
    );
    // Optimised builds call `exp2` for IForest's `2f64.powf(x)`, which
    // rounds some scores differently from `pow`: each profile has its own.
    let want = if cfg!(debug_assertions) {
        (
            0x61ea_e48d_4100_46f5,
            0x985f_f071_637a_80d7,
            0x9810_4276_e393_a27d,
        )
    } else {
        (
            0x01ac_2ad3_4a4c_72c6,
            0x9285_b291_f521_9363,
            0xad2b_70ea_5909_7b3a,
        )
    };
    assert_eq!(
        got, want,
        "decision_function, training_combined_scores, snapshot payload"
    );
}

/// Hostile bytes at a whole `suod-pool/4` file, small enough to mutate
/// at every bit: every single-bit flip of the payload is
/// `SnapshotCorrupt` (`lanes64` sees any change to one word), every flip
/// of the header and every truncation is a typed error. The version
/// picks the signature algorithm, never the stored string: a `/4` header
/// carrying its payload's FNV string is corrupt, and so is a `/3` header
/// carrying its `lanes64` string.
#[test]
fn signature_mutants_are_typed_errors() {
    use suod::observe::payload_signature;
    let x = data().select_rows(&(0..40).collect::<Vec<_>>());
    let clf = fit(
        Suod::builder()
            .base_estimators(vec![ModelSpec::Hbos {
                n_bins: 4,
                tolerance: 0.3,
            }])
            .n_workers(1)
            .seed(3),
        &x,
    );
    let good = clf.save_to_bytes().unwrap();
    let body = payload(&good);
    let start = good.len() - body.len();
    assert_eq!(&good[start..], &body[..]);
    assert!(body.len() > 64, "the payload spans whole steps and a tail");

    for at in 0..good.len() {
        for bit in 0..8 {
            let mut flipped = good.clone();
            flipped[at] ^= 1 << bit;
            let outcome = Suod::load_from_bytes(&flipped);
            if at >= start {
                assert!(
                    matches!(outcome, Err(suod::Error::SnapshotCorrupt { .. })),
                    "bit {bit} of payload byte {}: {outcome:?}",
                    at - start
                );
            } else {
                assert!(outcome.is_err(), "bit {bit} of header byte {at} loaded");
            }
        }
    }
    for cut in 0..good.len() {
        assert!(
            Suod::load_from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} bytes loaded"
        );
    }

    let fnv = payload_signature(3, &body);
    let lanes = payload_signature(SNAPSHOT_VERSION, &body);
    assert!(fnv.starts_with("fnv1a64:") && lanes.starts_with("lanes64:"));
    // The framing is right: each header with its own algorithm's string
    // loads the pool.
    let q = queries();
    for (version, signature) in [(3, &fnv), (SNAPSHOT_VERSION, &lanes)] {
        let loaded = Suod::load_from_bytes(&framed(version, signature, &body)).unwrap();
        assert_eq!(
            loaded.decision_function(&q).unwrap(),
            clf.decision_function(&q).unwrap()
        );
    }
    for (version, signature) in [(SNAPSHOT_VERSION, &fnv), (3, &lanes)] {
        match Suod::load_from_bytes(&framed(version, signature, &body)) {
            Err(suod::Error::SnapshotCorrupt { expected, actual }) => {
                assert_eq!((&expected, actual.len()), (signature, signature.len()));
            }
            other => panic!("v{version} header with {signature}: {other:?}"),
        }
    }
}

/// Hostile bytes at the stored HNSW graph. Each mutant is re-signed with
/// [`payload_signature`](suod::observe::payload_signature) (the checksum
/// is not a MAC), then loaded and scored on another thread: a typed error
/// must come back within the deadline. A hang or a panic is a failure.
mod graph_mutants {
    use super::*;
    use std::ops::Range;
    use std::sync::mpsc;
    use std::time::Duration;
    use suod::observe::payload_signature;

    /// Small enough to mutate at every byte: 40 rows, `m = 2`, so the
    /// seeded graph has several levels. kNN and LOF share one index, so
    /// the payload carries the same graph twice.
    fn pool() -> (Suod, usize) {
        let x = data().select_rows(&(0..40).collect::<Vec<_>>());
        let clf = fit(
            Suod::builder()
                .base_estimators(vec![
                    ModelSpec::Knn {
                        n_neighbors: 5,
                        method: KnnMethod::Largest,
                    },
                    ModelSpec::Lof {
                        n_neighbors: 6,
                        metric: Metric::Euclidean,
                    },
                ])
                .kernel(small_graph_kernel())
                .with_projection(false)
                .with_approximation(false)
                .n_workers(1)
                .seed(5),
            &x,
        );
        (clf, x.nrows())
    }

    fn small_graph_kernel() -> KernelConfig {
        KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(HnswParams {
            m: 2,
            min_rows: 0,
            ..HnswParams::default()
        }))
    }

    /// A snapshot file around `payload`, signed for it.
    pub(super) fn frame(payload: &[u8]) -> Vec<u8> {
        framed(
            SNAPSHOT_VERSION,
            &payload_signature(SNAPSHOT_VERSION, payload),
            payload,
        )
    }

    fn u64_at(b: &[u8], at: usize) -> Option<u64> {
        Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().unwrap()))
    }

    fn u32_at(b: &[u8], at: usize) -> Option<u32> {
        Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().unwrap()))
    }

    /// Positions of a graph section's length prefixes (level count, then
    /// per level the offsets and ids prefixes) when a well-formed section
    /// over `n` nodes starts at `at`, with the section's end.
    fn walk_section(b: &[u8], at: usize, n: usize) -> Option<(Vec<usize>, usize)> {
        let levels = u64_at(b, at)?;
        if !(1..=25).contains(&levels) {
            return None;
        }
        let mut prefixes = vec![at];
        let mut pos = at + 8;
        for _ in 0..levels {
            if u64_at(b, pos)? != n as u64 + 1 {
                return None;
            }
            prefixes.push(pos);
            let offsets: Vec<u32> = (0..=n)
                .map(|i| u32_at(b, pos + 8 + 4 * i))
                .collect::<Option<_>>()?;
            if offsets[0] != 0 || offsets.windows(2).any(|w| w[1] < w[0]) {
                return None;
            }
            pos += 8 + 4 * (n + 1);
            if u64_at(b, pos)? != u64::from(offsets[n]) {
                return None;
            }
            prefixes.push(pos);
            pos += 8 + 4 * offsets[n] as usize;
            if pos > b.len() {
                return None;
            }
        }
        Some((prefixes, pos))
    }

    /// Every graph section in `payload`, found by its shape.
    fn graph_sections(payload: &[u8], n: usize) -> Vec<(Range<usize>, Vec<usize>)> {
        let mut found = Vec::new();
        let mut at = 0;
        while at < payload.len() {
            match walk_section(payload, at, n) {
                Some((prefixes, end)) => {
                    found.push((at..end, prefixes));
                    at = end;
                }
                None => at += 1,
            }
        }
        found
    }

    /// Loads `file` and scores the query rows on another thread.
    fn load_and_score(file: Vec<u8>) -> suod::Result<Matrix> {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let scored =
                Suod::load_from_bytes(&file).and_then(|clf| clf.decision_function(&queries()));
            let _ = tx.send(scored);
        });
        // A hung load cannot be joined; it is left behind when this fails.
        let scored = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("load + score neither hangs nor panics");
        worker.join().expect("the loading thread finished");
        scored
    }

    fn assert_typed_error(payload: &[u8], what: &str) {
        match load_and_score(frame(payload)) {
            Err(suod::Error::Linalg(suod_linalg::Error::InvalidParameter(msg)))
            | Err(suod::Error::Detector(suod_detectors::Error::InvalidParameter(msg)))
            | Err(suod::Error::Detector(suod_detectors::Error::Linalg(
                suod_linalg::Error::InvalidParameter(msg),
            ))) => assert!(msg.starts_with("snapshot: "), "{what}: {msg}"),
            other => panic!("{what}: expected a typed snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn graph_section_mutants_are_typed_errors() {
        let (clf, n) = pool();
        let file = clf.save_to_bytes().unwrap();
        let good = payload(&file);
        let sections = graph_sections(&good, n);
        assert_eq!(sections.len(), 2, "kNN and LOF each write the shared graph");
        assert_eq!(good[sections[0].0.clone()], good[sections[1].0.clone()]);
        // The locator and the framing are right: the re-signed payload
        // loads and scores like the pool.
        assert_eq!(
            load_and_score(frame(&good)).unwrap(),
            clf.decision_function(&queries()).unwrap()
        );

        for (range, prefixes) in &sections {
            for cut in range.clone() {
                assert_typed_error(&good[..cut], &format!("truncated at {cut}"));
            }
            for at in range.clone() {
                let mut flipped = good.clone();
                flipped[at] ^= 1 << (at % 8);
                assert_typed_error(&flipped, &format!("bit {} flipped at {at}", at % 8));
            }
            for &at in prefixes {
                let len = u64_at(&good, at).unwrap();
                for inflated in [len + 1, len + 1000, 1 << 40, u64::MAX / 4, u64::MAX] {
                    let mut mutant = good.clone();
                    mutant[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
                    assert_typed_error(&mutant, &format!("count {len} -> {inflated} at {at}"));
                }
            }
            // Inflated values inside the arrays: every offset and id.
            let mut at = range.start + 8;
            while at < range.end {
                if !prefixes.contains(&at) {
                    let value = u32_at(&good, at).unwrap();
                    for inflated in [value + 1, n as u32, u32::MAX]
                        .into_iter()
                        .filter(|&v| v != value)
                    {
                        let mut mutant = good.clone();
                        mutant[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
                        assert_typed_error(
                            &mutant,
                            &format!("value {value} -> {inflated} at {at}"),
                        );
                    }
                    at += 4;
                } else {
                    at += 8;
                }
            }
        }
    }

    /// A graph section as arrays: per level, `(offsets, ids)`.
    type Levels = Vec<(Vec<u32>, Vec<u32>)>;

    fn index_record(
        x: &Matrix,
        metric: Metric,
        config: KernelConfig,
        graph: Option<&Levels>,
    ) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_matrix(x);
        w.write_metric(metric);
        w.write_kernel_config(&config);
        match graph {
            Some(levels) => {
                w.write_u8(1);
                w.write_usize(levels.len());
                for (offsets, ids) in levels {
                    w.write_u32s(offsets);
                    w.write_u32s(ids);
                }
            }
            None => w.write_u8(0),
        }
        w.into_bytes()
    }

    /// The graph fit builds over `x`, read back from its index record.
    fn built_levels(x: &Matrix) -> Levels {
        let index = KnnIndex::build_with(x, Metric::Euclidean, small_graph_kernel()).unwrap();
        let mut w = SnapshotWriter::new();
        index.snapshot_write(&mut w);
        let mut r = SnapshotReader::new(w.as_bytes());
        r.read_matrix().unwrap();
        r.read_metric().unwrap();
        r.read_kernel_config().unwrap();
        assert_eq!(r.read_u8().unwrap(), 1, "the graph engages");
        let levels = (0..r.read_usize().unwrap())
            .map(|_| (r.read_u32s().unwrap(), r.read_u32s().unwrap()))
            .collect();
        assert!(r.is_exhausted());
        levels
    }

    /// Reads every record in `bytes` through one reader and queries the
    /// last index, on another thread.
    fn load_records(bytes: Vec<u8>, records: usize) -> suod_linalg::Result<Vec<Neighbor>> {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut r = SnapshotReader::new(&bytes);
            let mut last = None;
            let mut result = Ok(());
            for _ in 0..records {
                match KnnIndex::snapshot_read_shared(&mut r, 1) {
                    Ok(index) => last = Some(index),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            let _ = tx.send(result.map(|()| {
                let index = last.expect("one record");
                index.query(index.train_data().row(3), 4)
            }));
        });
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("load + query neither hangs nor panics");
        worker.join().expect("the loading thread finished");
        got
    }

    fn assert_rejected(bytes: Vec<u8>, records: usize, rule: &str) {
        match load_records(bytes, records) {
            Err(suod_linalg::Error::InvalidParameter(msg)) => {
                assert!(
                    msg.starts_with("snapshot: ") && msg.contains(rule),
                    "{rule}: {msg}"
                );
            }
            other => panic!("{rule}: expected a typed snapshot error, got {other:?}"),
        }
    }

    /// One hand-written graph per load rule.
    #[test]
    fn crafted_graphs_break_one_rule_each() {
        let x = data().select_rows(&(0..60).collect::<Vec<_>>());
        let n = x.nrows() as u32;
        let hnsw = small_graph_kernel();
        let good = built_levels(&x);
        assert!(good.len() >= 2, "the crafted cases need an upper level");
        let record = |graph: &Levels| index_record(&x, Metric::Euclidean, hnsw, Some(graph));
        let built = KnnIndex::build_with(&x, Metric::Euclidean, hnsw).unwrap();
        assert_eq!(
            load_records(record(&good), 1).unwrap(),
            built.query(x.row(3), 4),
            "the well-formed record loads and answers like the built index"
        );

        // A node with no links at level 1 that no level-1 list names: its
        // seeded level is 0.
        let (up_offsets, up_ids) = &good[1];
        let low = (0..n)
            .find(|&v| up_offsets[v as usize] == up_offsets[v as usize + 1] && !up_ids.contains(&v))
            .expect("a level-0 node");

        let mut g = good.clone();
        g[0].1[0] = n;
        assert_rejected(record(&g), 1, "not on this level");

        let mut g = good.clone();
        g[1].1[0] = low;
        assert_rejected(record(&g), 1, "not on this level");

        // `low` gets a level-1 link of its own (to a real level-1 node).
        let mut g = good.clone();
        let target = g[1].1[0];
        let at = g[1].0[low as usize] as usize;
        g[1].1.insert(at, target);
        for o in &mut g[1].0[low as usize + 1..] {
            *o += 1;
        }
        assert_rejected(record(&g), 1, &format!("node {low} has 1 links"));

        // Node 0 gets five level-0 links: the cap is 2m = 4.
        let mut g = good.clone();
        let extra = 5 - (g[0].0[1] - g[0].0[0]);
        for i in 0..extra {
            g[0].1.insert(0, 1 + i);
        }
        for o in &mut g[0].0[1..] {
            *o += extra;
        }
        assert_rejected(record(&g), 1, "links (cap 4");

        let mut g = good.clone();
        assert!(g[0].0[1] >= 1);
        g[0].0[2] = g[0].0[1] - 1;
        assert_rejected(record(&g), 1, "offsets decrease at node 1");

        let mut g = good.clone();
        g[0].0.pop();
        assert_rejected(record(&g), 1, "offsets do not span");

        let mut g = good.clone();
        let last = g[0].0.len() - 1;
        g[0].0[last] -= 1;
        assert_rejected(record(&g), 1, "offsets do not span");

        let mut g = good.clone();
        g.push((vec![0; n as usize + 1], Vec::new()));
        assert_rejected(record(&g), 1, "levels, the seeded graph has");

        let mut g = good.clone();
        g.pop();
        assert_rejected(record(&g), 1, "levels, the seeded graph has");

        let exact = KernelConfig::default();
        assert_rejected(
            index_record(&x, Metric::Euclidean, exact, Some(&good)),
            1,
            "does not engage HNSW carries a graph",
        );
        let too_small = KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(HnswParams {
            m: 2,
            min_rows: n as usize + 1,
            ..HnswParams::default()
        }));
        assert_rejected(
            index_record(&x, Metric::Euclidean, too_small, Some(&good)),
            1,
            "does not engage HNSW carries a graph",
        );
        assert_rejected(
            index_record(&x, Metric::Manhattan, hnsw, Some(&good)),
            1,
            "does not engage HNSW carries a graph",
        );
        assert_rejected(
            index_record(&x, Metric::Euclidean, hnsw, None),
            1,
            "carries no graph",
        );
        let mut tagged = index_record(&x, Metric::Euclidean, hnsw, None);
        *tagged.last_mut().unwrap() = 2;
        assert_rejected(tagged, 1, "unknown graph tag 2");

        // Equal rows, metric and config, but one link fewer: a valid
        // graph on its own, and a contradiction after the first record.
        let mut fewer = good.clone();
        let (offsets, ids) = &mut fewer[0];
        let node = (0..n as usize)
            .find(|&v| offsets[v + 1] > offsets[v])
            .unwrap();
        ids.remove(offsets[node] as usize);
        for o in &mut offsets[node + 1..] {
            *o -= 1;
        }
        assert!(load_records(record(&fewer), 1).is_ok());
        assert_rejected(
            [record(&good), record(&fewer)].concat(),
            2,
            "carry different graphs",
        );
        assert!(load_records([record(&good), record(&good)].concat(), 2).is_ok());
    }
}

/// The largest single allocation a thread makes while armed. Installed
/// as this binary's allocator so the model-record mutants can check that
/// no claimed length makes a load allocate more than the bytes it reads.
mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    pub struct Probe;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: allocations can happen while a thread's locals are
        // being torn down.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                LARGEST.with(|largest| largest.set(largest.get().max(size)));
            }
        });
    }

    // SAFETY: every call is forwarded unchanged to the system allocator;
    // `note` only reads and writes thread-local `Cell`s, which allocate
    // nothing.
    unsafe impl GlobalAlloc for Probe {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Runs `f` on this thread and returns its result with the size of
    /// the largest allocation it made.
    pub fn largest_while<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|largest| largest.set(0));
        ARMED.with(|armed| armed.set(true));
        let out = f();
        ARMED.with(|armed| armed.set(false));
        (out, LARGEST.with(Cell::get))
    }
}

#[global_allocator]
static PROBE: alloc_probe::Probe = alloc_probe::Probe;

/// Hostile bytes at one `suod-pool/3` model record: the approximated kNN
/// of a small RP + PSA pool, whose record holds every part a model record
/// can (scorer tag, regressor, projector, training scores). Each mutant is
/// re-signed and loaded on another thread, which must answer within the
/// deadline without a panic, and without one allocation larger than the
/// file it was given. A truncation, an unknown scorer tag, an inflated
/// training-score count and an approximator of a retired kind must be
/// typed errors. A bit flip may also load: one in a stored value (a
/// score, a threshold, a weight) is a different pool, not a malformed
/// one; a loaded mutant must then score.
mod model_mutants {
    use super::graph_mutants::frame;
    use super::*;
    use std::ops::Range;
    use std::sync::mpsc;
    use std::time::Duration;

    const KNN: ModelSpec = ModelSpec::Knn {
        n_neighbors: 5,
        method: KnnMethod::Largest,
    };

    fn pool() -> Suod {
        let x = data().select_rows(&(0..40).collect::<Vec<_>>());
        fit(
            Suod::builder()
                .base_estimators(vec![
                    ModelSpec::Hbos {
                        n_bins: 4,
                        tolerance: 0.3,
                    },
                    KNN,
                ])
                .approximator(ApproxSpec::RandomForest {
                    n_estimators: 2,
                    max_depth: 3,
                })
                .n_workers(1)
                .seed(3),
            &x,
        )
    }

    /// Where each model's record ends in `payload`: after its training
    /// scores and its fit time, which no other field repeats.
    fn record_ends(clf: &Suod, payload: &[u8]) -> Vec<usize> {
        let scores = clf.training_scores().unwrap();
        let times = clf.diagnostics().expect("fitted").fit_times();
        (0..scores.ncols())
            .map(|m| {
                let mut tail: Vec<u8> = (0..scores.nrows())
                    .flat_map(|i| scores.get(i, m).to_bits().to_le_bytes())
                    .collect();
                let nanos = u64::try_from(times[m].as_nanos()).unwrap();
                tail.extend_from_slice(&nanos.to_le_bytes());
                let at = payload
                    .windows(tail.len())
                    .position(|w| w == tail)
                    .expect("a model record ends with its scores and fit time");
                at + tail.len()
            })
            .collect()
    }

    /// Loads `file` and scores the query rows on another thread: the
    /// outcome, and the largest allocation the load made.
    fn load_and_score(file: Vec<u8>) -> (suod::Result<Matrix>, usize) {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let (loaded, largest) = alloc_probe::largest_while(|| Suod::load_from_bytes(&file));
            let scored = loaded.and_then(|clf| clf.decision_function(&queries()));
            let _ = tx.send((scored, largest));
        });
        // A hung load cannot be joined; it is left behind when this fails.
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("load + score neither hangs nor panics");
        worker.join().expect("the loading thread finished");
        out
    }

    /// Loads `payload` re-signed; `Some(message)` for a typed snapshot
    /// error, `None` for a pool that loaded and scored.
    fn load(payload: &[u8], what: &str) -> Option<String> {
        let file = frame(payload);
        let (outcome, largest) = load_and_score(file.clone());
        assert!(
            largest <= file.len(),
            "{what}: allocated {largest} bytes decoding a {}-byte file",
            file.len()
        );
        match outcome {
            Ok(_) => None,
            // Whichever layer's reader refused the bytes, its message
            // carries the codec's `snapshot:` prefix.
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("snapshot: "), "{what}: {e:?}");
                Some(msg)
            }
        }
    }

    fn assert_typed_error(payload: &[u8], what: &str) -> String {
        load(payload, what).unwrap_or_else(|| panic!("{what}: loaded"))
    }

    /// The pool, its payload, and the kNN's record in it.
    fn knn_record() -> (Suod, Vec<u8>, Range<usize>) {
        let clf = pool();
        assert_eq!(
            clf.diagnostics().unwrap().approximated(),
            [false, true],
            "the kNN is distilled"
        );
        assert_eq!(clf.diagnostics().unwrap().projected(), [false, true]);
        let good = payload(&clf.save_to_bytes().unwrap());
        let ends = record_ends(&clf, &good);
        (clf, good, ends[0]..ends[1])
    }

    #[test]
    fn truncated_and_flipped_model_records_fail_typed_or_score() {
        let (clf, good, record) = knn_record();
        // The locator and the framing are right: the re-signed payload
        // loads and scores like the pool.
        assert_eq!(
            load_and_score(frame(&good)).0.unwrap(),
            clf.decision_function(&queries()).unwrap()
        );

        for cut in record.clone() {
            assert_typed_error(&good[..cut], &format!("truncated at {cut}"));
        }
        let mut loaded = 0;
        for at in record.clone() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[at] ^= 1 << bit;
                if load(&flipped, &format!("bit {bit} flipped at {at}")).is_none() {
                    loaded += 1;
                }
            }
        }
        // Most of the record is stored values, so many flips load; the
        // structural bytes (tags, lengths, tree links) do not.
        assert!(
            0 < loaded && loaded < 8 * record.len(),
            "{loaded} flips loaded"
        );
    }

    #[test]
    fn unknown_scorer_tags_are_typed_errors() {
        let (_, good, record) = knn_record();
        let mut spec = SnapshotWriter::new();
        KNN.snapshot_write(&mut spec);
        // pool index | spec | scorer tag.
        let tag = record.start + 8 + spec.len();
        assert_eq!(good[tag], 1, "the kNN's scorer is its approximator");
        for unknown in [2u8, 7, 255] {
            let mut mutant = good.clone();
            mutant[tag] = unknown;
            let msg = assert_typed_error(&mutant, &format!("scorer tag {unknown}"));
            assert!(msg.contains("unknown scorer tag"), "{msg}");
        }
        // Tag 0 reads the approximator's record as a detector's.
        let mut mutant = good.clone();
        mutant[tag] = 0;
        assert_typed_error(&mutant, "scorer tag 0");
    }

    /// Where `needle` starts in `haystack`, which holds it exactly once.
    fn only_position(haystack: &[u8], needle: &[u8]) -> usize {
        let mut at = haystack.windows(needle.len()).enumerate();
        let first = at.find(|(_, w)| *w == needle).expect("present").0;
        assert!(at.all(|(_, w)| w != needle), "present once");
        first
    }

    #[test]
    fn retired_approximator_kinds_are_typed_errors() {
        let (_, good, record) = knn_record();
        // The approximator record's name, renamed to a kind that no
        // longer loads: the retired regressors, or a lone tree.
        let mut name = SnapshotWriter::new();
        name.write_str("random_forest");
        let at = record.start + only_position(&good[record], name.as_bytes());
        for kind in ["ridge", "knn_regressor", "decision_tree"] {
            let mut renamed = SnapshotWriter::new();
            renamed.write_str(kind);
            let mutant = [&good[..at], renamed.as_bytes(), &good[at + name.len()..]].concat();
            let msg = assert_typed_error(&mutant, &format!("approximator renamed {kind:?}"));
            assert!(msg.contains(kind), "{msg}");
        }
        // The config's ApproxSpec tag, set to a retired kind's.
        let mut spec = SnapshotWriter::new();
        ApproxSpec::RandomForest {
            n_estimators: 2,
            max_depth: 3,
        }
        .snapshot_write(&mut spec);
        let at = only_position(&good, spec.as_bytes());
        for (tag, kind) in [(1u64, "ridge"), (2, "knn_regressor")] {
            let mut mutant = good.clone();
            mutant[at..at + 8].copy_from_slice(&tag.to_le_bytes());
            let msg = assert_typed_error(&mutant, &format!("ApproxSpec tag {tag}"));
            assert!(msg.contains(kind), "{msg}");
        }
    }

    #[test]
    fn inflated_training_score_counts_are_typed_errors() {
        let (clf, good, record) = knn_record();
        let n = clf.training_scores().unwrap().nrows() as u64;
        // ... | training scores (count, n values) | fit time.
        let at = record.end - 8 - 8 * n as usize - 8;
        assert_eq!(good[at..at + 8], n.to_le_bytes());
        for inflated in [n + 1, n + 1000, 1 << 40, u64::MAX / 8 + 1, u64::MAX] {
            let mut mutant = good.clone();
            mutant[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            assert_typed_error(&mutant, &format!("count {n} -> {inflated}"));
        }
    }
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
    #[test]
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
