//! Pseudo-Supervised Approximation (paper §3.4).
//!
//! After an unsupervised detector is fitted, its training-set outlyingness
//! scores act as "pseudo ground truth" for a fast supervised regressor;
//! the regressor then *replaces* the detector for scoring new samples.
//! The paper recommends tree ensembles (Remark 1); [`ApproxSpec`] also
//! offers ridge and k-NN regressors for the ablation studies.

use crate::Result;
use std::sync::{Arc, OnceLock};
use suod_linalg::Matrix;
use suod_scheduler::DistillForest;
use suod_supervised::{KnnRegressor, PresortedSpace, RandomForestRegressor, Regressor, Ridge};

/// Which supervised regressor approximates costly detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxSpec {
    /// Random forest regressor (the paper's recommendation).
    RandomForest {
        /// Number of trees.
        n_estimators: usize,
        /// Maximum tree depth.
        max_depth: usize,
    },
    /// Ridge regression — a deliberately coarse linear baseline.
    Ridge {
        /// Regularization strength.
        lambda: f64,
    },
    /// k-NN regression — accurate but as slow as what it replaces; used
    /// to demonstrate why tree ensembles are the right default.
    Knn {
        /// Neighbourhood size.
        k: usize,
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
    /// Instantiates the regressor.
    ///
    /// # Errors
    ///
    /// Propagates hyperparameter validation from the regressors.
    pub fn build(&self, seed: u64) -> Result<Box<dyn Regressor>> {
        Ok(match *self {
            ApproxSpec::RandomForest {
                n_estimators,
                max_depth,
            } => Box::new(unfitted_forest(n_estimators, max_depth, seed)),
            ApproxSpec::Ridge { lambda } => Box::new(Ridge::new(lambda)?),
            ApproxSpec::Knn { k } => Box::new(KnnRegressor::new(k)?),
        })
    }

    /// What distilling this spec on an `n_features`-wide space adds to a
    /// fit task's cost forecast: the forest to grow, or nothing for the
    /// ridge and k-NN baselines, whose fits are a solve and an index.
    pub(crate) fn distill_forest(&self, n_features: usize) -> Option<DistillForest> {
        match *self {
            ApproxSpec::RandomForest {
                n_estimators,
                max_depth,
            } => Some(DistillForest {
                trees: n_estimators,
                max_depth,
                n_features,
            }),
            _ => None,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ApproxSpec::RandomForest { .. } => "random_forest",
            ApproxSpec::Ridge { .. } => "ridge",
            ApproxSpec::Knn { .. } => "knn_regressor",
        }
    }

    /// Appends the spec to a `suod-pool` snapshot body.
    pub fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) {
        match *self {
            ApproxSpec::RandomForest {
                n_estimators,
                max_depth,
            } => {
                w.write_u64(0);
                w.write_usize(n_estimators);
                w.write_usize(max_depth);
            }
            ApproxSpec::Ridge { lambda } => {
                w.write_u64(1);
                w.write_f64(lambda);
            }
            ApproxSpec::Knn { k } => {
                w.write_u64(2);
                w.write_usize(k);
            }
        }
    }

    /// Reads a spec written by [`ApproxSpec::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`](crate::Error::Linalg) on truncated input
    /// or an unknown variant tag.
    pub fn snapshot_read(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Self> {
        Ok(match r.read_u64()? {
            0 => ApproxSpec::RandomForest {
                n_estimators: r.read_usize()?,
                max_depth: r.read_usize()?,
            },
            1 => ApproxSpec::Ridge {
                lambda: r.read_f64()?,
            },
            2 => ApproxSpec::Knn { k: r.read_usize()? },
            other => {
                return Err(crate::Error::Linalg(suod_linalg::Error::InvalidParameter(
                    format!("snapshot: unknown ApproxSpec tag {other}"),
                )))
            }
        })
    }
}

fn unfitted_forest(n_estimators: usize, max_depth: usize, seed: u64) -> RandomForestRegressor {
    RandomForestRegressor::new(n_estimators, seed).with_max_depth(max_depth)
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
/// step of the costly model's own fit task; a forest is grown by the
/// presorted CART builder over `space`'s shared [`PresortedSpace`].
///
/// # Errors
///
/// Propagates regressor construction/fitting failures, non-finite
/// features or targets among them.
pub(crate) fn fit_approximator(
    spec: &ApproxSpec,
    space: &DistillSpace,
    pseudo_truth: &[f64],
    seed: u64,
) -> Result<Box<dyn Regressor>> {
    if let ApproxSpec::RandomForest {
        n_estimators,
        max_depth,
    } = *spec
    {
        let mut forest = unfitted_forest(n_estimators, max_depth, seed);
        forest.fit_presorted(space.presorted()?, pseudo_truth)?;
        return Ok(Box::new(forest));
    }
    let mut regressor = spec.build(seed)?;
    regressor.fit(&space.features, pseudo_truth)?;
    Ok(regressor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_detectors::{Detector, KnnDetector, KnnMethod};

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

        for spec in [
            ApproxSpec::default(),
            ApproxSpec::Ridge { lambda: 1e-3 },
            ApproxSpec::Knn { k: 3 },
        ] {
            let approx = fit_approximator(&spec, &space_of(&x), &truth, 0).unwrap();
            let pred = approx.predict(&x).unwrap();
            // The far outlier must stay on top of the approximated scores.
            let top = suod_linalg::rank::argsort_desc(&pred)[0];
            assert_eq!(top, 40, "{} lost the outlier", spec.name());
        }
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
        assert_eq!(ApproxSpec::default().name(), "random_forest");
    }

    #[test]
    fn invalid_params_propagate() {
        assert!(ApproxSpec::Ridge { lambda: -1.0 }.build(0).is_err());
        assert!(ApproxSpec::Knn { k: 0 }.build(0).is_err());
    }
}
