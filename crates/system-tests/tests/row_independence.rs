//! A row's score is the row's alone: the same bits whether it is scored
//! by itself, in a batch of any size, or at any offset in one.
//!
//! Request batching in `ScoreService` relies on this. The two shared
//! scoring operators walk rows in blocks — the forest walk eight rows per
//! tree in lockstep, the binned kernel eight rows per view — so a row's
//! position in its block must never reach its sum. Covered here for the
//! families those operators score (IForest, HBOS, LODA and a PSA random
//! forest), standalone and in a pool at 1, 2 and 8 workers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod::prelude::*;
use suod_detectors::{Detector, HbosDetector, IsolationForest, LodaDetector};
use suod_linalg::Matrix;
use suod_supervised::{RandomForestRegressor, Regressor};

/// `n` rows of `d` columns: tie-heavy grid values, signed zeros, and
/// values spread near and far.
fn rows(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
    let cells = (0..n * d)
        .map(|i| match rng.random_range(0..8) {
            0 => -0.0,
            1 => 0.0,
            2 => (i % 5) as f64 * 0.5,
            3 => rng.random::<f64>() * 40.0 - 20.0,
            _ => rng.random::<f64>() * 2.0 - 1.0,
        })
        .collect();
    Matrix::from_vec(n, d, cells).expect("n x d")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Rows `start..end` of `x`.
fn window(x: &Matrix, start: usize, end: usize) -> Matrix {
    x.select_rows(&(start..end).collect::<Vec<_>>())
}

/// Every window `score` is asked for: each row alone, every prefix length
/// up to three blocks and one row, and random `(offset, len)` windows.
fn windows(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = (0..n).map(|r| (r, r + 1)).collect();
    out.extend((0..=25.min(n)).map(|len| (0, len)));
    for _ in 0..12 {
        let start = rng.random_range(0..n);
        let len = rng.random_range(0..=(n - start).min(40));
        out.push((start, start + len));
    }
    out
}

/// Checks that `score` gives every window of `q` the bits the whole
/// batch gives its rows.
fn check_windows(rng: &mut StdRng, q: &Matrix, what: &str, score: impl Fn(&Matrix) -> Vec<f64>) {
    let whole = bits(&score(q));
    assert_eq!(whole.len(), q.nrows(), "{what}");
    for (start, end) in windows(rng, q.nrows()) {
        assert_eq!(
            bits(&score(&window(q, start, end))),
            whole[start..end],
            "{what}: rows {start}..{end}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Standalone detectors and a random forest: every window scores as
    /// the whole batch does, and fit's training pass scores the training
    /// rows with the bits `decision_function` gives them.
    #[test]
    fn standalone_rows_score_alone(
        (seed, n_train, d) in (0u64..u64::MAX, 40usize..160, 1usize..6),
        n_query in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rows(&mut rng, n_train, d);
        let q = rows(&mut rng, n_query, d);
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(IsolationForest::new(12, seed).unwrap()),
            Box::new(HbosDetector::new(7, 0.3).unwrap()),
            Box::new(LodaDetector::new(9, 5, seed).unwrap()),
        ];
        for mut det in detectors {
            let train = det.fit(&x).unwrap();
            prop_assert_eq!(bits(&det.decision_function(&x).unwrap()), bits(&train));
            check_windows(&mut rng, &q, det.name(), |m| det.decision_function(m).unwrap());
        }
        let targets: Vec<f64> = (0..n_train).map(|i| x.row(i).iter().sum()).collect();
        let mut forest = RandomForestRegressor::new(7, seed).with_max_depth(9);
        forest.fit(&x, &targets).unwrap();
        check_windows(&mut rng, &q, "random forest", |m| forest.predict(m).unwrap());
    }
}

/// A pool of the operator families, one of them costly so PSA replaces it
/// with a random forest.
fn pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::IForest {
            n_estimators: 10,
            max_features: 0.8,
        },
        ModelSpec::Hbos {
            n_bins: 9,
            tolerance: 0.3,
        },
        ModelSpec::Loda {
            n_members: 8,
            n_bins: 6,
        },
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
    ]
}

/// Pooled at 1, 2 and 8 workers, every model's column gives each window
/// the bits the whole batch gives it — across a 256-row predict chunk
/// boundary too — and the worker count changes no bit.
#[test]
fn pooled_rows_score_alone_at_any_worker_count() {
    let mut rng = StdRng::seed_from_u64(23);
    let x = rows(&mut rng, 220, 5);
    let q = rows(&mut rng, 270, 5);
    let mut first: Option<Vec<u64>> = None;
    for workers in [1, 2, 8] {
        let mut model = Suod::builder()
            .base_estimators(pool())
            .with_approximation(true)
            .approximator(ApproxSpec::RandomForest {
                n_estimators: 6,
                max_depth: 8,
            })
            .n_workers(workers)
            .seed(5)
            .build()
            .unwrap();
        model.fit(&x).unwrap();
        assert_eq!(model.surviving_models().unwrap().len(), pool().len());
        let approximated = model.diagnostics().unwrap().models().iter();
        assert_eq!(approximated.filter(|m| m.approximated).count(), 1);
        let whole = model.decision_function(&q).unwrap();
        let whole_bits = bits(whole.as_slice());
        assert_eq!(first.get_or_insert_with(|| whole_bits.clone()), &whole_bits);
        let check = |start: usize, end: usize| {
            let part = model.decision_function(&window(&q, start, end)).unwrap();
            let m = whole.ncols();
            assert_eq!(
                bits(part.as_slice()),
                whole_bits[start * m..end * m],
                "{workers} workers: rows {start}..{end}"
            );
        };
        for (start, end) in [(250, 262), (0, 9), (7, 8), (255, 257), (100, 270)] {
            check(start, end);
        }
        for _ in 0..8 {
            let start = rng.random_range(0..q.nrows());
            let len = rng.random_range(1..=(q.nrows() - start).min(20));
            check(start, start + len);
        }
    }
}
