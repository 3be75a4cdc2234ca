//! Property-based tests for the projection module.

use proptest::prelude::*;
use suod_linalg::{DistanceMetric, Matrix};
use suod_projection::{
    IdentityProjector, JlProjector, JlVariant, PcaProjector, Projector, RandomSelectProjector,
};

/// Euclidean self-distances of `m` through the one pairwise entry point.
fn euclidean_distances(m: &Matrix) -> Matrix {
    let config = suod_linalg::KernelConfig::default();
    suod_linalg::pairwise_distances_with(m, m, DistanceMetric::Euclidean, config, 1, None)
        .expect("same matrix")
}

fn data_matrix() -> impl Strategy<Value = Matrix> {
    (4usize..20, 4usize..24).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f64..100.0, n * d)
            .prop_map(move |v| Matrix::from_vec(n, d, v).expect("sized"))
    })
}

fn projectors(k: usize, seed: u64) -> Vec<Box<dyn Projector>> {
    let mut out: Vec<Box<dyn Projector>> = vec![
        Box::new(IdentityProjector::new()),
        Box::new(PcaProjector::new(k).expect("k >= 1")),
        Box::new(RandomSelectProjector::new(k, seed).expect("k >= 1")),
    ];
    for variant in JlVariant::all() {
        out.push(Box::new(
            JlProjector::new(variant, k, seed).expect("k >= 1"),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn output_shape_correct(x in data_matrix(), seed in 0u64..32) {
        let k = (x.ncols() / 2).max(1);
        for mut p in projectors(k, seed) {
            p.fit(&x).unwrap();
            let z = p.transform(&x).unwrap();
            prop_assert_eq!(z.nrows(), x.nrows(), "{}", p.name());
            if p.name() == "original" {
                prop_assert_eq!(z.ncols(), x.ncols());
            } else {
                prop_assert_eq!(z.ncols(), k, "{}", p.name());
            }
            prop_assert!(z.as_slice().iter().all(|v| v.is_finite()), "{}", p.name());
        }
    }

    #[test]
    fn projection_is_linear(x in data_matrix(), seed in 0u64..32) {
        // JL transform: f(a) + f(b) == f(a + b) row-wise.
        let k = (x.ncols() * 2 / 3).max(1);
        for variant in JlVariant::all() {
            let mut p = JlProjector::new(variant, k, seed).unwrap();
            p.fit(&x).unwrap();
            let z = p.transform(&x).unwrap();
            let doubled = x.map(|v| 2.0 * v);
            let z2 = p.transform(&doubled).unwrap();
            for (a, b) in z.as_slice().iter().zip(z2.as_slice()) {
                prop_assert!((2.0 * a - b).abs() < 1e-7 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn transform_deterministic_after_fit(x in data_matrix(), seed in 0u64..32) {
        let k = (x.ncols() / 2).max(1);
        for mut p in projectors(k, seed) {
            p.fit(&x).unwrap();
            prop_assert_eq!(p.transform(&x).unwrap(), p.transform(&x).unwrap());
        }
    }

    #[test]
    fn jl_distance_preservation_in_expectation(
        seeds in proptest::collection::vec(0u64..10_000, 24),
    ) {
        // Averaged over independent draws, projected distances concentrate
        // around the originals (JL lemma in expectation). Fixed geometry,
        // random projections.
        let x = Matrix::from_rows(&[
            vec![0.0; 32],
            (0..32).map(|i| (i as f64 * 0.37).sin()).collect(),
            (0..32).map(|i| (i as f64 * 0.11).cos() * 3.0).collect(),
        ]).unwrap();
        let orig = euclidean_distances(&x);
        for variant in JlVariant::all() {
            let mut ratio_sum = 0.0;
            let mut count = 0.0;
            for &s in &seeds {
                let mut p = JlProjector::new(variant, 24, s).unwrap();
                p.fit(&x).unwrap();
                let z = p.transform(&x).unwrap();
                let proj = euclidean_distances(&z);
                for i in 0..3 {
                    for j in (i + 1)..3 {
                        ratio_sum += proj.get(i, j) / orig.get(i, j);
                        count += 1.0;
                    }
                }
            }
            let mean_ratio = ratio_sum / count;
            // Structured variants (circulant/toeplitz) reuse one Gaussian
            // row across all output coordinates, so their ratio estimator
            // has far heavier tails than the i.i.d. constructions.
            let tol = match variant {
                JlVariant::Basic | JlVariant::Discrete => 0.35,
                JlVariant::Circulant | JlVariant::Toeplitz => 0.55,
            };
            prop_assert!(
                (mean_ratio - 1.0).abs() < tol,
                "{variant:?}: mean distance ratio {mean_ratio}"
            );
        }
    }

    #[test]
    fn train_and_test_share_the_matrix(x in data_matrix(), seed in 0u64..32) {
        // Transforming the same rows in one batch or two batches must agree
        // (the retained-W property Algorithm 1 depends on).
        prop_assume!(x.nrows() >= 4);
        let k = (x.ncols() / 2).max(1);
        for mut p in projectors(k, seed) {
            p.fit(&x).unwrap();
            let whole = p.transform(&x).unwrap();
            let top = x.select_rows(&(0..2).collect::<Vec<_>>());
            let z_top = p.transform(&top).unwrap();
            for r in 0..2 {
                for c in 0..z_top.ncols() {
                    prop_assert!((whole.get(r, c) - z_top.get(r, c)).abs() < 1e-9, "{}", p.name());
                }
            }
        }
    }
}
