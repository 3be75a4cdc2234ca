//! The fitted ensemble: per-model state, prediction-unit planning, and
//! the warm-start context.

use super::predict::combine_standardized;
use crate::spec::ModelSpec;
use crate::{Error, Result};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use suod_detectors::Detector;
use suod_linalg::{DataFingerprint, KnnIndex, Matrix, NeighborCache};
use suod_projection::JlProjector;
use suod_supervised::RandomForestRegressor;

/// What scores a model's rows at prediction time: its fitted detector,
/// or — for a costly model under PSA (paper §3.4) — the random forest
/// distilled from it, which replaces it. Never both: a costly model's
/// fit task drops its detector before it distils.
pub(crate) enum Scorer {
    Detector(Box<dyn Detector>),
    Approximator(RandomForestRegressor),
}

pub(crate) struct FittedModel {
    pub(crate) spec: ModelSpec,
    /// Original index in the configured pool — stable across fit-time
    /// quarantines, so predict-time health reports line up with the
    /// fit-time [`ModelHealth`](crate::health::ModelHealth) indices.
    pub(crate) pool_index: usize,
    pub(crate) scorer: Scorer,
    pub(crate) projector: Option<JlProjector>,
    /// The model's scores of the training rows, as its detector's `fit`
    /// returned them: the only copy. The ensemble standardizes against
    /// them, sets its threshold from them, and distills from them.
    pub(crate) train_scores: Vec<f64>,
    pub(crate) fit_time: Duration,
}

impl FittedModel {
    /// The neighbour query this model's prediction starts with: its
    /// detector's, or none for an approximator (a regressor queries
    /// nothing).
    pub(super) fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        match &self.scorer {
            Scorer::Detector(detector) => detector.neighbor_query(),
            Scorer::Approximator(_) => None,
        }
    }

    /// `true` when a PSA approximator scores in the detector's place.
    pub(crate) fn is_approximated(&self) -> bool {
        matches!(self.scorer, Scorer::Approximator(_))
    }

    /// `true` when `other` can answer from this model's neighbour query:
    /// both read the same input space (no projector, or an identical one)
    /// and ask the same index (one `Arc`, or two that answer alike — a
    /// pool fitted without the shared cache builds an equal index per
    /// model) for `k`s of which one answer is a prefix of the other.
    fn shares_query_with(&self, other: &FittedModel) -> bool {
        match (self.neighbor_query(), other.neighbor_query()) {
            (Some((a, k_a)), Some((b, k_b))) => {
                self.projector == other.projector
                    && (Arc::ptr_eq(a, b) || a.same_answers(b))
                    && a.prefix_exact(k_a, k_b)
            }
            _ => false,
        }
    }
}

pub(crate) struct FittedState {
    /// Surviving models, `Arc`-shared so a warm refit can carry unchanged
    /// members into the next fitted state without re-training them.
    pub(crate) models: Vec<Arc<FittedModel>>,
    pub(crate) threshold: f64,
    pub(crate) n_features: usize,
    /// Per-model mean of training scores (standardization reference).
    pub(crate) score_means: Vec<f64>,
    /// Per-model std of training scores (floored away from zero).
    pub(crate) score_stds: Vec<f64>,
    /// Partition of `models` (positions, ascending) into prediction
    /// units — the schedulable pieces of a prediction pass, ordered by
    /// first member. A unit is one model that scores through its
    /// `decision_function` or its approximator, or one or more
    /// un-approximated proximity models that score from one shared
    /// neighbour query. Derived from the models alone, so a fit, a warm
    /// refit and a snapshot load of the same pool plan the same units.
    pub(crate) units: Vec<Vec<usize>>,
    /// `(min, max)` of the training rows' combined scores: the range
    /// `predict_proba` scales by. A fit keeps it from the combined scores
    /// it thresholds; a loaded pool derives it on first use.
    train_range: OnceLock<(f64, f64)>,
}

impl FittedState {
    /// Assembles a fitted state and plans its prediction units: every
    /// proximity model joins the first unit whose members it
    /// [shares a query with](FittedModel::shares_query_with) — an
    /// equivalence, so comparing against a unit's first member suffices —
    /// and every other model is a unit of its own.
    pub(crate) fn new(
        models: Vec<Arc<FittedModel>>,
        threshold: f64,
        n_features: usize,
        score_means: Vec<f64>,
        score_stds: Vec<f64>,
    ) -> Self {
        let mut units: Vec<Vec<usize>> = Vec::new();
        for (pos, model) in models.iter().enumerate() {
            match units
                .iter_mut()
                .find(|unit| models[unit[0]].shares_query_with(model))
            {
                Some(unit) => unit.push(pos),
                None => units.push(vec![pos]),
            }
        }
        Self {
            models,
            threshold,
            n_features,
            score_means,
            score_stds,
            units,
            train_range: OnceLock::new(),
        }
    }

    /// The fitted state of a freshly assembled ensemble over `n` training
    /// rows: the standardization reference and the contamination
    /// threshold are learned here, then the units are planned.
    ///
    /// Test-time scores must be z-scored against the TRAINING
    /// distribution (the PyOD convention): per-batch statistics would
    /// zero out single-sample queries and drift with batch composition.
    pub(super) fn from_training(
        models: Vec<Arc<FittedModel>>,
        n: usize,
        n_features: usize,
        contamination: f64,
    ) -> Result<Self> {
        let score_means: Vec<f64> = models
            .iter()
            .map(|m| suod_linalg::stats::mean(&m.train_scores))
            .collect();
        let score_stds: Vec<f64> = models
            .iter()
            .map(|m| suod_linalg::stats::std_dev(&m.train_scores).max(1e-12))
            .collect();
        let train_matrix = train_score_matrix(&models, n)?;
        let combined = combine_standardized(&train_matrix, &score_means, &score_stds, None);
        let n_out = ((n as f64 * contamination).round() as usize).clamp(1, n);
        let threshold = suod_linalg::rank::kth_largest(&combined, n_out)
            .expect("n_out within bounds by construction");
        let mut state = Self::new(models, threshold, n_features, score_means, score_stds);
        state.train_range = OnceLock::from(min_max(&combined));
        Ok(state)
    }

    /// Combines an `n x m` score matrix against this ensemble's training
    /// statistics (see [`combine_standardized`]).
    pub(super) fn combine(&self, scores: &Matrix, buckets: Option<usize>) -> Vec<f64> {
        combine_standardized(scores, &self.score_means, &self.score_stds, buckets)
    }

    /// `(min, max)` of the training rows' combined scores, derived once.
    pub(super) fn train_range(&self) -> Result<(f64, f64)> {
        if let Some(&range) = self.train_range.get() {
            return Ok(range);
        }
        let range = min_max(&self.combine(&self.train_score_matrix()?, None));
        Ok(*self.train_range.get_or_init(|| range))
    }

    /// Number of training rows the ensemble was fitted on.
    pub(super) fn train_rows(&self) -> usize {
        self.models[0].train_scores.len()
    }

    /// Per-model training scores as an `n x m` matrix.
    pub(super) fn train_score_matrix(&self) -> Result<Matrix> {
        train_score_matrix(&self.models, self.train_rows())
    }

    /// Every unit cut down to the members `active` leaves in (all of
    /// them without a mask); units left empty are dropped.
    pub(super) fn active_units(&self, active: Option<&[bool]>) -> Vec<Vec<usize>> {
        self.units
            .iter()
            .map(|unit| {
                unit.iter()
                    .copied()
                    .filter(|&mi| active.is_none_or(|a| a[mi]))
                    .collect::<Vec<usize>>()
            })
            .filter(|members| !members.is_empty())
            .collect()
    }

    /// The one neighbour query the given members of a unit score from:
    /// their index, at the largest `k` any of them asks for — so masking
    /// out a unit's largest-k member shrinks the query. `None` for a unit
    /// that queries nothing.
    pub(super) fn shared_query(&self, members: &[usize]) -> Option<(&Arc<KnnIndex>, usize)> {
        let (index, _) = self.models[*members.first()?].neighbor_query()?;
        let k_max = members
            .iter()
            .filter_map(|&mi| self.models[mi].neighbor_query())
            .map(|(_, k)| k)
            .max()?;
        Some((index, k_max))
    }
}

/// Context retained from the most recent fit so a subsequent
/// [`Suod::warm_refit`](super::Suod::warm_refit) on the *same* training
/// matrix can reuse work: the shared neighbour cache (proximity graphs
/// keyed by feature space) and the fingerprint that gates reuse to an
/// identical dataset.
pub(crate) struct WarmContext {
    /// Neighbour cache from the fit; empty after a snapshot load (graphs
    /// are not persisted — they rebuild on the first warm refit).
    pub(crate) cache: Arc<NeighborCache>,
    /// Fingerprint of the training matrix the fitted state came from.
    pub(crate) train_fingerprint: DataFingerprint,
}

fn min_max(combined: &[f64]) -> (f64, f64) {
    (
        suod_linalg::stats::min(combined),
        suod_linalg::stats::max(combined),
    )
}

/// The `n x m` matrix of per-model training scores, filled row-major
/// straight from the models' own columns.
pub(super) fn train_score_matrix(models: &[Arc<FittedModel>], n: usize) -> Result<Matrix> {
    let m = models.len();
    let mut data = vec![0.0; n * m];
    for (c, model) in models.iter().enumerate() {
        if model.train_scores.len() != n {
            return Err(Error::InvalidConfig(format!(
                "model {c} produced {} scores for {n} samples",
                model.train_scores.len()
            )));
        }
        for (r, &v) in model.train_scores.iter().enumerate() {
            data[r * m + c] = v;
        }
    }
    Ok(Matrix::from_vec(n, m, data)?)
}
