//! Predict-side neighbour sharing: one query per (unit x row chunk) must
//! never change a number.
//!
//! A fitted pool groups the un-approximated proximity detectors that read
//! one input space through one index, runs one `KnnIndex::query_batch` per
//! row chunk at the largest `k` an active member asks for, and hands each
//! member its sorted prefix. Neighbour lists are totally ordered by
//! (distance, index), so the prefix *is* the member's own query answer and
//! every pooled column must be **bit-equal** to the member's standalone
//! `Detector::decision_function` — for generated pools, data shapes and
//! query sizes, at any worker count, across a snapshot reload, and with
//! the largest-k member masked out. A member that fails at predict time
//! loses its own column and nothing else.

use proptest::prelude::*;
use std::sync::Arc;
use suod::prelude::*;
use suod_observe::{Counter, Stage};

/// Training rows of every generated case: small enough that `k >= n`
/// specs are cheap to draw, large enough for five families to fit.
const N_TRAIN: usize = 40;
const DIMS: usize = 3;

/// One of the five proximity families at neighbourhood size `k`.
fn proximity_spec(family: usize, k: usize) -> ModelSpec {
    match family % 7 {
        0 => ModelSpec::Knn {
            n_neighbors: k,
            method: KnnMethod::Largest,
        },
        1 => ModelSpec::Knn {
            n_neighbors: k,
            method: KnnMethod::Mean,
        },
        2 => ModelSpec::Knn {
            n_neighbors: k,
            method: KnnMethod::Median,
        },
        3 => ModelSpec::Lof {
            n_neighbors: k,
            metric: Metric::Euclidean,
        },
        4 => ModelSpec::Loop { n_neighbors: k },
        5 => ModelSpec::Cof {
            n_neighbors: k.max(2),
        },
        _ => ModelSpec::Abod {
            n_neighbors: k.max(2),
        },
    }
}

/// `rows x DIMS` data of one of three kinds: continuous, duplicate-heavy
/// (rows drawn from a handful of distinct points) and tie-heavy (a small
/// integer grid, so many distances are exactly equal).
fn data(kind: usize, rows: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let values: Vec<f64> = match kind % 3 {
        0 => (0..rows * DIMS)
            .map(|_| (next() % 10_000) as f64 / 1_000.0)
            .collect(),
        1 => (0..rows)
            .flat_map(|_| {
                let p = (next() % 5) as f64;
                [p, p * 0.5, -p]
            })
            .collect(),
        _ => (0..rows * DIMS).map(|_| (next() % 3) as f64).collect(),
    };
    Matrix::from_vec(rows, DIMS, values).expect("shape matches")
}

fn pool(specs: &[ModelSpec], n_workers: usize) -> Suod {
    Suod::builder()
        .base_estimators(specs.to_vec())
        .with_projection(false)
        .with_approximation(false)
        .n_workers(n_workers)
        .seed(5)
        .build()
        .expect("valid config")
}

fn column_bits(scores: &Matrix, c: usize) -> Vec<u64> {
    (0..scores.nrows())
        .map(|r| scores.get(r, c).to_bits())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_columns_equal_standalone_detectors(
        families in proptest::collection::vec(0usize..7, 2..7),
        ks in proptest::collection::vec(1usize..(N_TRAIN + 10), 7),
        kind in 0usize..3,
        query_rows in 0usize..3,
        seed in 1u64..1_000,
    ) {
        let specs: Vec<ModelSpec> = families
            .iter()
            .zip(&ks)
            .map(|(&f, &k)| proximity_spec(f, k))
            .collect();
        let train = data(kind, N_TRAIN, seed);
        // One row, exactly one chunk, one row into a second chunk.
        let queries = data(kind, [1, 256, 257][query_rows], seed + 1);

        // The oracle: every detector fitted and scored on its own.
        let standalone: Vec<Vec<u64>> = specs
            .iter()
            .map(|spec| {
                let mut det = spec.build(0).expect("valid spec");
                det.fit(&train).expect("standalone fit");
                bits(&det.decision_function(&queries).expect("standalone scoring"))
            })
            .collect();

        // Mask out the first member asking for the largest k: the shared
        // query must shrink to what the remaining members need.
        let k_max = ks[..specs.len()].iter().max().expect("non-empty pool");
        let masked_out = ks.iter().position(|k| k == k_max).expect("max exists");
        let mask: Vec<bool> = (0..specs.len()).map(|i| i != masked_out).collect();
        let noop: Arc<dyn Observer> = Arc::new(NoopObserver);

        for n_workers in [1usize, 2, 8] {
            let mut fitted = pool(&specs, n_workers);
            fitted.fit(&train).expect("pool fit");
            let reloaded = Suod::load_from_bytes(&fitted.save_to_bytes().expect("save"))
                .expect("load");
            for clf in [&fitted, &reloaded] {
                let scores = clf.decision_function(&queries).expect("pool scoring");
                for (c, expected) in standalone.iter().enumerate() {
                    prop_assert_eq!(
                        &column_bits(&scores, c),
                        expected,
                        "column {} of {:?} at {} workers",
                        c,
                        specs,
                        n_workers
                    );
                }
                let (masked, report) = clf
                    .decision_function_masked(&queries, &mask, &noop)
                    .expect("masked scoring");
                prop_assert_eq!(&report.skipped, &vec![masked_out]);
                prop_assert!(report.failures.is_empty());
                // All proximity, one space, one index: one unit, so one
                // task per row chunk — none for the masked member.
                prop_assert_eq!(report.execution.task_times.len(), queries.nrows().div_ceil(256));
                prop_assert_eq!(report.model_times[masked_out], std::time::Duration::ZERO);
                for (c, expected) in standalone.iter().enumerate() {
                    if c == masked_out {
                        prop_assert!(column_bits(&masked, c)
                            .iter()
                            .all(|&b| f64::from_bits(b).is_nan()));
                    } else {
                        prop_assert_eq!(&column_bits(&masked, c), expected);
                    }
                }
            }
        }
    }
}

/// A proximity pool with one chaos member (kNN inside, so it joins the
/// shared query) in slot 2.
fn pool_with_chaos(mode: ChaosMode) -> Vec<ModelSpec> {
    vec![
        proximity_spec(0, 5),
        proximity_spec(3, 12),
        ModelSpec::Chaos {
            mode,
            n_neighbors: 4,
        },
        proximity_spec(4, 9),
        proximity_spec(6, 7),
    ]
}

#[test]
fn a_failing_member_loses_its_own_column_and_nothing_else() {
    let train = data(0, 120, 3);
    let queries = data(0, 300, 4);
    let mut healthy = pool(&pool_with_chaos(ChaosMode::Passthrough), 2);
    healthy.fit(&train).expect("fit");
    let expected = healthy
        .decision_function(&queries)
        .expect("healthy scoring");

    for mode in [ChaosMode::PanicOnPredict, ChaosMode::NanOnPredict] {
        for n_workers in [1usize, 2, 8] {
            let mut clf = pool(&pool_with_chaos(mode), n_workers);
            clf.fit(&train).expect("predict-time chaos fits cleanly");
            let recorder = Arc::new(RecordingObserver::new());
            let observer: Arc<dyn Observer> = recorder.clone();
            let (scores, report) = clf
                .decision_function_observed(&queries, &observer)
                .expect("a member failure is not a call failure");

            assert_eq!(report.failures.len(), 1, "{mode:?}: one failure");
            assert_eq!(report.failures[0].index, 2);
            assert_eq!(report.failures[0].name, "chaos");
            let panicked = matches!(report.failures[0].cause, suod_detectors::Error::Panicked(_));
            assert_eq!(panicked, mode == ChaosMode::PanicOnPredict);
            for c in 0..5 {
                if c == 2 {
                    assert!(column_bits(&scores, c)
                        .iter()
                        .all(|&b| f64::from_bits(b).is_nan()));
                } else {
                    assert_eq!(
                        column_bits(&scores, c),
                        column_bits(&expected, c),
                        "{mode:?}: sibling column {c} moved at {n_workers} workers"
                    );
                }
            }

            // One unit over two row chunks: two shared queries, and every
            // member still opened its own span on both chunks.
            let trace = recorder.trace();
            assert_eq!(trace.spans_of(Stage::NeighborQuery).count(), 2);
            assert_eq!(trace.spans_of(Stage::PredictChunk).count(), 10);
            assert_eq!(report.execution.task_times.len(), 2);
            // A caught member panic is reported like a caught task panic
            // (the first chunk's; later chunks of a failed column are not
            // inspected).
            let caught = usize::from(panicked);
            assert_eq!(report.execution.failures, caught);
            assert_eq!(trace.counter(Counter::TaskFailure), caught as u64);
            // Member times are epilogue + an equal share of the unit's
            // shared stage, so together they are the executor's task time.
            let by_model: std::time::Duration = report.model_times.iter().sum();
            let by_task: std::time::Duration = report.execution.task_times.iter().sum();
            let gap = by_task.abs_diff(by_model);
            assert!(gap < std::time::Duration::from_micros(50), "gap {gap:?}");
        }
    }
}

#[test]
fn a_reloaded_pool_shares_one_index_again() {
    // The fitted pool shares one index; its reload decodes the index
    // records of its three models into one again. Both must plan one unit
    // (one task per chunk) and score every column like the model's
    // standalone fit. A pool whose models built equal private indexes
    // (an old file fitted without the shared cache) is
    // `persistence.rs`'s
    // `golden_cache_off_fixture_fuses_and_reencodes_like_a_fresh_fit`.
    let train = data(0, 90, 8);
    let queries = data(0, 40, 9);
    let specs = vec![
        proximity_spec(0, 5),
        proximity_spec(3, 20),
        proximity_spec(5, 6),
    ];
    let standalone: Vec<Vec<u64>> = specs
        .iter()
        .map(|spec| {
            let mut det = spec.build(0).expect("valid spec");
            det.fit(&train).expect("standalone fit");
            bits(&det.decision_function(&queries).expect("standalone scoring"))
        })
        .collect();
    let noop: Arc<dyn Observer> = Arc::new(NoopObserver);
    let mut clf = pool(&specs, 1);
    clf.fit(&train).expect("fit");
    let reloaded = Suod::load_from_bytes(&clf.save_to_bytes().expect("save")).expect("load");
    for pool in [&clf, &reloaded] {
        let (scores, report) = pool
            .decision_function_observed(&queries, &noop)
            .expect("scoring");
        assert_eq!(report.execution.task_times.len(), 1);
        for (c, expected) in standalone.iter().enumerate() {
            assert_eq!(&column_bits(&scores, c), expected, "column {c}");
        }
    }
}
