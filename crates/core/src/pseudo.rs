//! Pseudo-Supervised Approximation (paper §3.4).
//!
//! After an unsupervised detector is fitted, its training-set outlyingness
//! scores act as "pseudo ground truth" for a fast supervised regressor;
//! the regressor then *replaces* the detector for scoring new samples.
//! The approximator is a random forest, as the paper settles (Remark 1):
//! a tree ensemble predicts faster than the costly detector it replaces,
//! and its trees explain which features drive the scores.

use crate::Result;
use std::sync::{Arc, OnceLock};
use suod_linalg::Matrix;
use suod_scheduler::DistillForest;
use suod_supervised::{PresortedSpace, RandomForestRegressor};

/// The random forest that approximates costly detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxSpec {
    /// Random forest regressor (the paper's recommendation).
    RandomForest {
        /// Number of trees; at least 1.
        n_estimators: usize,
        /// Maximum tree depth.
        max_depth: usize,
    },
}

impl Default for ApproxSpec {
    fn default() -> Self {
        ApproxSpec::RandomForest {
            n_estimators: 50,
            max_depth: 12,
        }
    }
}

impl ApproxSpec {
    /// What distilling this spec on an `n_features`-wide space adds to a
    /// fit task's cost forecast: the forest to grow.
    pub(crate) fn distill_forest(&self, n_features: usize) -> DistillForest {
        let ApproxSpec::RandomForest {
            n_estimators,
            max_depth,
        } = *self;
        DistillForest {
            trees: n_estimators,
            max_depth,
            n_features,
        }
    }

    /// Appends the spec to a `suod-pool` snapshot body.
    pub fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) {
        let ApproxSpec::RandomForest {
            n_estimators,
            max_depth,
        } = *self;
        w.write_u64(0);
        w.write_usize(n_estimators);
        w.write_usize(max_depth);
    }

    /// Reads a spec written by [`ApproxSpec::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`](crate::Error::Linalg) on truncated input
    /// or a tag other than the forest's: tags 1 and 2 were the retired
    /// ridge and k-NN approximators.
    pub fn snapshot_read(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Self> {
        let kind = match r.read_u64()? {
            0 => {
                return Ok(ApproxSpec::RandomForest {
                    n_estimators: r.read_usize()?,
                    max_depth: r.read_usize()?,
                })
            }
            1 => "1, the retired ridge approximator".to_string(),
            2 => "2, the retired k-NN approximator (knn_regressor)".to_string(),
            other => format!("{other}, which names no approximator"),
        };
        Err(crate::Error::Linalg(suod_linalg::Error::InvalidParameter(
            format!("snapshot: ApproxSpec tag {kind}; only random_forest loads"),
        )))
    }
}

/// A feature space approximators are distilled on: the matrix, and its
/// [`PresortedSpace`] once the first forest trained on it has built one.
/// Models that share a feature space share one `DistillSpace`, so their
/// forests — grown by different fit tasks, on any worker — presort it
/// once between them.
#[derive(Debug)]
pub(crate) struct DistillSpace {
    features: Arc<Matrix>,
    presorted: OnceLock<suod_supervised::Result<PresortedSpace>>,
}

impl DistillSpace {
    /// Wraps a feature space; nothing is presorted until a forest asks.
    pub(crate) fn new(features: Arc<Matrix>) -> Self {
        Self {
            features,
            presorted: OnceLock::new(),
        }
    }

    fn presorted(&self) -> suod_supervised::Result<&PresortedSpace> {
        self.presorted
            .get_or_init(|| PresortedSpace::new(&self.features))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Trains an approximator on `(space, pseudo_truth)` — the distillation
/// step of PSA. The fit pipeline runs it on the executor, as the last
/// step of the costly model's own fit task; the forest is grown by the
/// presorted CART builder over `space`'s shared [`PresortedSpace`].
///
/// # Errors
///
/// Propagates forest fitting failures: an empty or non-finite space, or
/// targets that are not one finite value per row.
pub(crate) fn fit_approximator(
    spec: &ApproxSpec,
    space: &DistillSpace,
    pseudo_truth: &[f64],
    seed: u64,
) -> Result<RandomForestRegressor> {
    let ApproxSpec::RandomForest {
        n_estimators,
        max_depth,
    } = *spec;
    let mut forest = RandomForestRegressor::new(n_estimators, seed).with_max_depth(max_depth);
    forest.fit_presorted(space.presorted()?, pseudo_truth)?;
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_detectors::{Detector, KnnDetector, KnnMethod};
    use suod_supervised::Regressor;

    fn training_data() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 * 0.2, (i / 8) as f64 * 0.2])
            .collect();
        rows.push(vec![8.0, 8.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    fn space_of(x: &Matrix) -> DistillSpace {
        DistillSpace::new(Arc::new(x.clone()))
    }

    #[test]
    fn approximator_reproduces_detector_ranking() {
        let x = training_data();
        let mut det = KnnDetector::new(3, KnnMethod::Largest).unwrap();
        let truth = det.fit(&x).unwrap();
        let approx = fit_approximator(&ApproxSpec::default(), &space_of(&x), &truth, 0).unwrap();
        let pred = approx.predict(&x).unwrap();
        // The far outlier must stay on top of the approximated scores.
        assert_eq!(suod_linalg::rank::argsort_desc(&pred)[0], 40);
    }

    #[test]
    fn rf_approximator_generalizes_to_new_points() {
        let x = training_data();
        let mut det = KnnDetector::new(3, KnnMethod::Largest).unwrap();
        let truth = det.fit(&x).unwrap();
        let approx = fit_approximator(&ApproxSpec::default(), &space_of(&x), &truth, 1).unwrap();
        let q = Matrix::from_rows(&[vec![0.5, 0.5], vec![7.5, 7.5]]).unwrap();
        let pred = approx.predict(&q).unwrap();
        assert!(pred[1] > pred[0]);
    }

    #[test]
    fn default_is_random_forest() {
        assert_eq!(
            ApproxSpec::default(),
            ApproxSpec::RandomForest {
                n_estimators: 50,
                max_depth: 12,
            }
        );
    }

    #[test]
    fn invalid_params_propagate() {
        // What the forest rejects reaches the caller as a typed error:
        // targets that are not one finite value per row.
        let x = training_data();
        let space = space_of(&x);
        let spec = ApproxSpec::default();
        let short = vec![0.0; x.nrows() - 1];
        assert!(matches!(
            fit_approximator(&spec, &space, &short, 0).unwrap_err(),
            crate::Error::Approximation(suod_supervised::Error::ShapeMismatch { .. })
        ));
        let mut nan = vec![0.0; x.nrows()];
        nan[3] = f64::NAN;
        assert!(matches!(
            fit_approximator(&spec, &space, &nan, 0).unwrap_err(),
            crate::Error::Approximation(suod_supervised::Error::NonFiniteInput("targets"))
        ));
        // So does a space the forest cannot presort, for every forest
        // that asks.
        let empty = space_of(&Matrix::zeros(0, 2));
        for _ in 0..2 {
            assert!(matches!(
                fit_approximator(&spec, &empty, &[], 0).unwrap_err(),
                crate::Error::Approximation(suod_supervised::Error::EmptyInput(_))
            ));
        }
    }

    #[test]
    fn the_forest_is_the_one_the_spec_names() {
        let x = training_data();
        let truth: Vec<f64> = (0..x.nrows()).map(|i| (i % 5) as f64).collect();
        let spec = ApproxSpec::RandomForest {
            n_estimators: 6,
            max_depth: 3,
        };
        let approx = fit_approximator(&spec, &space_of(&x), &truth, 11).unwrap();
        assert_eq!(approx.n_estimators(), 6);
        let mut plain = RandomForestRegressor::new(6, 11).with_max_depth(3);
        plain.fit(&x, &truth).unwrap();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(approx.predict(&x).unwrap()),
            bits(plain.predict(&x).unwrap())
        );
    }

    #[test]
    fn forests_on_one_space_presort_it_once() {
        let x = training_data();
        let space = space_of(&x);
        assert!(space.presorted.get().is_none());
        let truth: Vec<f64> = (0..x.nrows()).map(|i| i as f64).collect();
        fit_approximator(&ApproxSpec::default(), &space, &truth, 0).unwrap();
        let first: *const PresortedSpace = space.presorted().unwrap();
        fit_approximator(&ApproxSpec::default(), &space, &truth, 1).unwrap();
        assert!(std::ptr::eq(first, space.presorted().unwrap()));
    }

    #[test]
    fn distill_forest_forecasts_the_spec() {
        let spec = ApproxSpec::RandomForest {
            n_estimators: 9,
            max_depth: 4,
        };
        let forecast = spec.distill_forest(13);
        assert_eq!(
            (forecast.trees, forecast.max_depth, forecast.n_features),
            (9, 4, 13)
        );
    }

    fn read_spec(bytes: &[u8]) -> Result<ApproxSpec> {
        ApproxSpec::snapshot_read(&mut suod_linalg::SnapshotReader::new(bytes))
    }

    #[test]
    fn spec_snapshot_round_trips() {
        let spec = ApproxSpec::RandomForest {
            n_estimators: 3,
            max_depth: 7,
        };
        let mut w = suod_linalg::SnapshotWriter::new();
        spec.snapshot_write(&mut w);
        assert_eq!(read_spec(w.as_bytes()).unwrap(), spec);
        for len in 0..w.len() {
            assert!(
                read_spec(&w.as_bytes()[..len]).is_err(),
                "{len}-byte prefix"
            );
        }
    }

    #[test]
    fn retired_and_unknown_spec_tags_name_their_kind() {
        for (tag, kind) in [
            (1, "retired ridge approximator"),
            (2, "knn_regressor"),
            (9, "9, which names no approximator"),
        ] {
            let mut w = suod_linalg::SnapshotWriter::new();
            w.write_u64(tag);
            w.write_usize(5);
            w.write_usize(5);
            let msg = read_spec(w.as_bytes()).unwrap_err().to_string();
            assert!(msg.contains("snapshot: ApproxSpec tag"), "{msg}");
            assert!(msg.contains(kind), "{msg}");
        }
    }
}
