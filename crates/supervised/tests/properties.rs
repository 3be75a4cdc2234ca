//! Property-based tests for the supervised regressors.

use proptest::prelude::*;
use suod_linalg::Matrix;
use suod_supervised::{DecisionTreeRegressor, RandomForestRegressor, Regressor, TreeParams};

fn regression_problem() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (4usize..40, 1usize..4).prop_flat_map(|(n, d)| {
        (
            proptest::collection::vec(-50.0f64..50.0, n * d),
            proptest::collection::vec(-10.0f64..10.0, d),
            -10.0f64..10.0,
        )
            .prop_map(move |(data, coefs, intercept)| {
                let x = Matrix::from_vec(n, d, data).expect("sized");
                let y: Vec<f64> = x
                    .rows_iter()
                    .map(|row| {
                        intercept + row.iter().zip(&coefs).map(|(&v, &c)| v * c).sum::<f64>()
                    })
                    .collect();
                (x, y)
            })
    })
}

fn all_regressors(seed: u64) -> [(&'static str, Box<dyn Regressor>); 2] {
    [
        (
            "tree",
            Box::new(DecisionTreeRegressor::new(TreeParams::default(), seed)),
        ),
        ("forest", Box::new(RandomForestRegressor::new(10, seed))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predictions_are_finite_and_sized((x, y) in regression_problem()) {
        for (name, mut reg) in all_regressors(3) {
            reg.fit(&x, &y).unwrap();
            let p = reg.predict(&x).unwrap();
            prop_assert_eq!(p.len(), x.nrows(), "{}", name);
            prop_assert!(p.iter().all(|v| v.is_finite()), "{}", name);
        }
    }

    #[test]
    fn tree_predictions_within_target_range((x, y) in regression_problem()) {
        // A CART leaf predicts a mean of training targets, so predictions
        // never leave [min y, max y].
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        for p in t.predict(&x).unwrap() {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_predictions_within_target_range((x, y) in regression_problem()) {
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut f = RandomForestRegressor::new(8, 1);
        f.fit(&x, &y).unwrap();
        for p in f.predict(&x).unwrap() {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed((x, y) in regression_problem(), seed in 0u64..64) {
        for ((name, mut a), (_, mut b)) in all_regressors(seed).into_iter().zip(all_regressors(seed)) {
            a.fit(&x, &y).unwrap();
            b.fit(&x, &y).unwrap();
            prop_assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap(), "{}", name);
        }
    }

    #[test]
    fn constant_target_predicted_exactly((x, _) in regression_problem(), c in -5.0f64..5.0) {
        let y = vec![c; x.nrows()];
        for (name, mut reg) in all_regressors(0) {
            reg.fit(&x, &y).unwrap();
            for p in reg.predict(&x).unwrap() {
                prop_assert!((p - c).abs() < 1e-6, "{name}: {p} vs {c}");
            }
        }
    }
}
