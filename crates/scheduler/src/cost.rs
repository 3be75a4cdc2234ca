//! Model-cost forecasting (`C_cost` in the paper).
//!
//! Two implementations of [`CostModel`]:
//!
//! * [`AnalyticCostModel`] — closed-form complexity estimates per
//!   algorithm family. Zero training required; ships as the default.
//! * [`ForestCostPredictor`] — the paper's approach: a random forest
//!   regressor trained on measured `(task, dataset) -> time` samples.
//!   §3.5 reports Spearman r_s > 0.9 between predicted and true cost
//!   ranks under 10-fold cross-validation; the
//!   `cost_predictor_cv` bench binary reproduces that validation.
//!
//! Both assign the **maximum** cost to [`AlgorithmFamily::Unknown`], as
//! the paper prescribes, "to prevent over-optimistic scheduling".

use crate::meta::DatasetMeta;
use crate::{AlgorithmFamily, Error, Result};
use suod_supervised::{RandomForestRegressor, Regressor};

/// A schedulable model: its family plus a scalar complexity knob
/// (`n_neighbors` for kNN/LOF/ABOD/LoOP, `n_estimators` for
/// iForest/Feature Bagging, `n_clusters` for CBLOF, `10 * nu` for OCSVM —
/// the SMO warm-start costs `O(nu n^2 d)`), and an implementation-specific
/// cost `weight` (e.g. a Minkowski-metric LOF pays several times the
/// per-distance cost of the Euclidean one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskDescriptor {
    /// Algorithm family.
    pub family: AlgorithmFamily,
    /// Family-specific scale knob (see type docs); use 1.0 when the family
    /// has no meaningful knob.
    pub knob: f64,
    /// Multiplicative cost factor for intra-family variants (default 1.0).
    pub weight: f64,
    /// `true` when the task's neighbour graph is served by a pool-shared
    /// [`NeighborCache`](suod_linalg::NeighborCache) instead of being
    /// rebuilt — the dominant `O(n^2 d)` index/sweep term vanishes, and a
    /// cost model that keeps forecasting it would make BPS rebalance the
    /// pool against phantom work.
    pub cached_neighbors: bool,
    /// `true` when the task's neighbour graph is answered by the
    /// approximate HNSW backend — the index/sweep term drops from
    /// `O(n^2 d)` to `O(n log n · d)`, and BPS should not treat an
    /// approximate proximity fit as the pool's heavyweight.
    pub approx_neighbors: bool,
    /// The forest this task grows from the model's training scores once
    /// the model is fitted (PSA distillation, §3.4), `None` for a task
    /// that only fits. The task's cost is the fit **plus** the forest, so
    /// placement and straggler flagging see all of it.
    pub distill: Option<DistillForest>,
}

/// Shape of a PSA approximator forest, as far as its training cost goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillForest {
    /// Number of trees.
    pub trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Features of the space the forest is trained on (the model's
    /// projected space when it has one).
    pub n_features: usize,
}

impl DistillForest {
    /// Split-search work of growing the forest on `n` rows: every tree
    /// has `min(max_depth, log2 n)` levels that each order all `n` rows
    /// (`n log2 n`) for `ceil(sqrt(d))` candidate features.
    fn operations(&self, n: f64) -> f64 {
        let log_n = n.max(2.0).log2();
        let levels = (self.max_depth as f64).min(log_n);
        let candidates = (self.n_features as f64).sqrt().ceil();
        self.trees as f64 * levels * candidates * n * log_n
    }
}

impl TaskDescriptor {
    /// Creates a descriptor with unit weight and no neighbour-cache hit.
    pub fn new(family: AlgorithmFamily, knob: f64) -> Self {
        Self {
            family,
            knob: knob.max(1.0),
            weight: 1.0,
            cached_neighbors: false,
            approx_neighbors: false,
            distill: None,
        }
    }

    /// Sets the intra-family cost weight (clamped to be positive).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight.max(1e-6);
        self
    }

    /// Marks whether this task's neighbour graph comes from a shared
    /// cache (see the field docs on `cached_neighbors`).
    pub fn with_cached_neighbors(mut self, cached: bool) -> Self {
        self.cached_neighbors = cached;
        self
    }

    /// Marks whether this task's neighbour graph is served by the
    /// approximate HNSW backend (see the field docs on
    /// `approx_neighbors`).
    pub fn with_approx_neighbors(mut self, approx: bool) -> Self {
        self.approx_neighbors = approx;
        self
    }

    /// Sets the forest the task distills after its fit (see the field docs
    /// on `distill`).
    pub fn with_distillation(mut self, forest: Option<DistillForest>) -> Self {
        self.distill = forest;
        self
    }

    /// Forecast of the whole task from the forecast of its fit: `fit` plus
    /// the [`distill`](Self::distill) forest grown on `n` rows, at
    /// `per_operation` of the cost model's own units per split-search
    /// operation; `fit` itself, bit for bit, for a task without a forest.
    pub fn with_distill_cost(&self, fit: f64, per_operation: f64, n: usize) -> f64 {
        match self.distill {
            None => fit,
            Some(forest) => fit + per_operation * forest.operations(n as f64),
        }
    }

    /// Full feature vector for the learned predictor: dataset meta-features
    /// followed by the knob, the weight, the cached-neighbors flag, the
    /// approx-neighbors flag, and a one-hot family embedding. It describes
    /// the model's fit; a [`distill`](Self::distill) forest is costed
    /// beside the learned forecast, not through it.
    pub fn feature_vector(&self, meta: &DatasetMeta) -> Vec<f64> {
        let mut v = meta.feature_vector();
        v.push(self.knob);
        v.push(self.weight);
        v.push(f64::from(self.cached_neighbors));
        v.push(f64::from(self.approx_neighbors));
        let mut onehot = vec![0.0; 12];
        onehot[self.family.index()] = 1.0;
        v.extend(onehot);
        v
    }
}

/// Forecasts the execution cost of fitting (or predicting with) a model on
/// a dataset. Units are arbitrary: only the induced *ranking* matters for
/// BPS (ranks transfer across hardware, §3.5).
///
/// An implementation must cost the **whole** task: a descriptor that
/// carries a [`distill`](TaskDescriptor::distill) forest is the fit plus
/// growing that forest, which is what
/// [`TaskDescriptor::with_distill_cost`] adds in the model's own units.
/// Forecasting the fit alone makes every distilled model look like a
/// straggler against its share.
pub trait CostModel: Send + Sync {
    /// Predicted cost for one task on one dataset.
    fn predict_cost(&self, task: &TaskDescriptor, meta: &DatasetMeta) -> f64;

    /// Whether forecasts read the data's moments (`mean_std`,
    /// `mean_skewness`, `mean_kurtosis`) and not only its shape. A caller
    /// may then pass [`DatasetMeta::from_shape`] instead of paying for
    /// [`DatasetMeta::extract`] when this is `false`, the default.
    fn reads_moments(&self) -> bool {
        false
    }

    /// Predicted costs for a batch of tasks on the same dataset, applying
    /// the paper's unknown-gets-max rule in one place.
    fn predict_costs(&self, tasks: &[TaskDescriptor], meta: &DatasetMeta) -> Vec<f64> {
        let raw: Vec<f64> = tasks.iter().map(|t| self.predict_cost(t, meta)).collect();
        let max = raw.iter().copied().fold(f64::MIN, f64::max);
        tasks
            .iter()
            .zip(&raw)
            .map(|(t, &c)| {
                if t.family == AlgorithmFamily::Unknown {
                    max
                } else {
                    c
                }
            })
            .collect()
    }
}

/// Cost of one [`DistillForest`] split-search operation in
/// [`AnalyticCostModel`] units, calibrated as the family constants were
/// (EXPERIMENTS.md, cost-model calibration probe): the proximity-family
/// fits of a PSA pool run at 2.2–3.8e9 units/s and its `PsaDistill` spans
/// at 4.5–5.6e8 operations/s, 4.4–7.2 units per operation over five
/// shapes.
const ANALYTIC_UNITS_PER_DISTILL_OP: f64 = 5.5;

/// The same operation in seconds, the unit [`ForestCostPredictor`]
/// learns its fit forecasts in: 1.8–2.2 ns on the same probe.
const SECONDS_PER_DISTILL_OP: f64 = 2.0e-9;

/// Closed-form per-family complexity estimates.
///
/// Constants are unitless scale factors **calibrated against measured fit
/// times of this repository's implementations** (see the probe data in
/// EXPERIMENTS.md): kNN/LOF/LoOP ~ n^2 d; ABOD ~ n^2 d + n k^2 d; OCSVM ~
/// nu n^2 d (the SMO warm-start dominates); CBLOF ~ n d k with a small
/// constant (k-means converges in few iterations); HBOS ~ n d; iForest ~
/// t(psi log psi) + n t log psi; Feature Bagging ~ t LOF runs on half the
/// features. The task's `weight` handles intra-family variants (e.g.
/// Minkowski distances cost several Euclidean distances).
#[derive(Debug, Clone, Default)]
pub struct AnalyticCostModel;

impl AnalyticCostModel {
    /// Creates the analytic model.
    pub fn new() -> Self {
        Self
    }
}

impl CostModel for AnalyticCostModel {
    fn predict_cost(&self, task: &TaskDescriptor, meta: &DatasetMeta) -> f64 {
        let n = meta.n_samples as f64;
        let d = meta.n_features as f64;
        let k = task.knob;
        // Proximity families split into the index-build/sweep term
        // (O(n^2 d) exact, O(n log n d) approximate, skipped entirely on
        // a neighbour-cache hit) and the per-model post-processing that
        // always runs. The 8.0 factor covers the HNSW graph's beam-search
        // constant (ef candidates x M edges per hop).
        let index_sweep = if task.cached_neighbors {
            0.0
        } else if task.approx_neighbors {
            n * n.ln().max(1.0) * d * 8.0
        } else {
            n * n * d
        };
        let base = match task.family {
            AlgorithmFamily::Knn => index_sweep + n * k,
            AlgorithmFamily::Lof => index_sweep + n * k,
            AlgorithmFamily::Loop => index_sweep + n * k,
            AlgorithmFamily::Abod => index_sweep + n * k * k * d,
            AlgorithmFamily::Hbos => n * d,
            AlgorithmFamily::IForest => {
                let psi = 256f64.min(n);
                k * psi * psi.ln().max(1.0) + n * k * psi.ln().max(1.0)
            }
            AlgorithmFamily::Cblof => 10.0 * n * d * k,
            // Covariance accumulation O(n d^2) + Jacobi O(d^3 sweeps).
            AlgorithmFamily::Pca => n * d * d + 30.0 * d * d * d,
            // k members x n samples x sqrt(d) sparse projection entries.
            AlgorithmFamily::Loda => k * n * d.sqrt(),
            // knob = 10 * nu; warm start costs O(nu n^2 d) plus the SMO
            // iteration budget.
            AlgorithmFamily::Ocsvm => (k / 10.0) * n * n * d + 0.3 * n * n * d,
            AlgorithmFamily::FeatureBagging => k * n * n * d * 0.9,
            // Unknown handled in predict_costs; locally return a huge value
            // so single-task queries are also pessimistic.
            AlgorithmFamily::Unknown => f64::MAX / 4.0,
        };
        task.with_distill_cost(
            base * task.weight,
            ANALYTIC_UNITS_PER_DISTILL_OP,
            meta.n_samples,
        )
    }
}

/// Per-member prediction costs of a group of proximity models that
/// answer from **one shared neighbour query**: the index sweep is paid
/// once, every member pays its own epilogue — the predict-side mirror of
/// [`TaskDescriptor::cached_neighbors`] at fit.
///
/// The sweep is the index term of the member with the largest `knob`
/// (its `k`; the first such member on ties — the rule fit uses to pick a
/// group's builder): its full forecast minus its
/// [`cached_neighbors`](TaskDescriptor::cached_neighbors) forecast. It
/// is split evenly over the members, as the measured query time is, so a
/// member's forecast stays comparable with its measured time; the costs
/// sum to one sweep plus all epilogues. A group of one keeps its
/// unshared forecast exactly.
pub fn shared_query_costs(
    model: &dyn CostModel,
    tasks: &[TaskDescriptor],
    meta: &DatasetMeta,
) -> Vec<f64> {
    let Some(lead) = (0..tasks.len()).reduce(|best, i| {
        if tasks[i].knob > tasks[best].knob {
            i
        } else {
            best
        }
    }) else {
        return Vec::new();
    };
    let epilogue = |t: &TaskDescriptor| model.predict_cost(&t.with_cached_neighbors(true), meta);
    let full = model.predict_cost(&tasks[lead], meta);
    let share = (full - epilogue(&tasks[lead])).max(0.0) / tasks.len() as f64;
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i == lead {
                full - share * (tasks.len() - 1) as f64
            } else {
                epilogue(t) + share
            }
        })
        .collect()
}

/// Expands per-unit prediction costs into the (unit × row-chunk) task
/// cost vector the predict-phase scheduler balances, unit-major: task
/// `u * chunks + c` is unit `u` (a model, or a group of models sharing
/// one neighbour query) scoring chunk `c`, costed as the unit's forecast
/// scaled by the chunk's share of the query rows.
///
/// This is the shared cost shape for both offline `decision_function`
/// scheduling and the serving layer's micro-batch forecasts, so batch
/// sizing and task placement agree on what a chunk is worth.
pub fn predict_chunk_costs(model_costs: &[f64], chunk_lens: &[usize]) -> Vec<f64> {
    let total_rows: usize = chunk_lens.iter().sum();
    let denom = total_rows.max(1) as f64;
    let mut costs = Vec::with_capacity(model_costs.len() * chunk_lens.len());
    for &mc in model_costs {
        for &len in chunk_lens {
            costs.push(mc * len as f64 / denom);
        }
    }
    costs
}

/// Forecast cost (in the cost model's unitless scale) of scoring a batch
/// of `batch_rows` query rows with models whose per-call costs were
/// derived at `reference_rows` rows: each model's prediction work is
/// row-proportional, so the batch costs the summed model costs scaled by
/// the row ratio. The serving layer uses this to cap micro-batch sizes
/// against a latency budget (calibrated to seconds by measured batches).
pub fn predict_batch_forecast(
    model_costs: &[f64],
    batch_rows: usize,
    reference_rows: usize,
) -> f64 {
    let per_ref: f64 = model_costs.iter().sum();
    per_ref * batch_rows as f64 / reference_rows.max(1) as f64
}

/// A training sample for [`ForestCostPredictor`]: a task, the dataset it
/// ran on, and the measured execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    /// The task that was measured.
    pub task: TaskDescriptor,
    /// Meta-features of the dataset it ran on.
    pub meta: DatasetMeta,
    /// Measured execution time (seconds; any consistent unit works).
    pub seconds: f64,
}

/// Random-forest cost predictor trained on measured timings — the paper's
/// `C_cost`.
///
/// Targets are log-transformed during training (costs span orders of
/// magnitude) and exponentiated back at prediction time.
#[derive(Debug, Clone)]
pub struct ForestCostPredictor {
    forest: RandomForestRegressor,
    fitted: bool,
}

impl ForestCostPredictor {
    /// Creates an untrained predictor with `n_trees` forest members.
    pub fn new(n_trees: usize, seed: u64) -> Self {
        // The feature space is small and highly structured (sizes + knob +
        // one-hot family), so trees examine most features per split —
        // sqrt-feature subsampling would often hide the family bits that
        // carry the signal.
        let forest = RandomForestRegressor::new(n_trees.max(1), seed)
            .with_max_depth(14)
            .with_max_features_fraction(0.8)
            .expect("0.8 is a valid fraction");
        Self {
            forest,
            fitted: false,
        }
    }

    /// Trains on measured timing samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an empty corpus or
    /// non-positive timings, and propagates regression failures.
    pub fn fit(&mut self, samples: &[CostSample]) -> Result<()> {
        if samples.is_empty() {
            return Err(Error::InvalidParameter(
                "cost predictor needs a non-empty training corpus".into(),
            ));
        }
        if samples
            .iter()
            .any(|s| s.seconds.is_nan() || s.seconds <= 0.0)
        {
            return Err(Error::InvalidParameter(
                "cost samples must have positive timings".into(),
            ));
        }
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| s.task.feature_vector(&s.meta))
            .collect();
        let x = suod_linalg::Matrix::from_rows(&rows)
            .map_err(|e| Error::InvalidParameter(e.to_string()))?;
        let y: Vec<f64> = samples.iter().map(|s| s.seconds.ln()).collect();
        self.forest.fit(&x, &y)?;
        self.fitted = true;
        Ok(())
    }

    /// `true` once trained.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }
}

impl CostModel for ForestCostPredictor {
    fn predict_cost(&self, task: &TaskDescriptor, meta: &DatasetMeta) -> f64 {
        if !self.fitted {
            // Untrained predictor: pessimistic constant keeps BPS valid
            // (all-equal costs degrade to generic scheduling, never panic).
            return 1.0;
        }
        let row = task.feature_vector(meta);
        let x = suod_linalg::Matrix::from_rows(&[row]).expect("single fixed-size row");
        let fit = match self.forest.predict(&x) {
            Ok(p) => p[0].exp(),
            Err(_) => 1.0,
        };
        task.with_distill_cost(fit, SECONDS_PER_DISTILL_OP, meta.n_samples)
    }

    fn reads_moments(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n: usize, d: usize) -> DatasetMeta {
        DatasetMeta::from_shape(n, d)
    }

    #[test]
    fn analytic_orders_families_sensibly() {
        let m = meta(5000, 20);
        let model = AnalyticCostModel::new();
        let knn = model.predict_cost(&TaskDescriptor::new(AlgorithmFamily::Knn, 10.0), &m);
        let hbos = model.predict_cost(&TaskDescriptor::new(AlgorithmFamily::Hbos, 10.0), &m);
        let iforest = model.predict_cost(&TaskDescriptor::new(AlgorithmFamily::IForest, 100.0), &m);
        assert!(knn > 100.0 * hbos, "kNN should dwarf HBOS");
        assert!(knn > iforest, "kNN should exceed iForest");
    }

    #[test]
    fn analytic_scales_with_data_size() {
        let model = AnalyticCostModel::new();
        let t = TaskDescriptor::new(AlgorithmFamily::Lof, 20.0);
        let small = model.predict_cost(&t, &meta(100, 10));
        let large = model.predict_cost(&t, &meta(10_000, 10));
        assert!(large > 1000.0 * small);
    }

    #[test]
    fn unknown_gets_max_cost_in_batch() {
        let m = meta(1000, 10);
        let model = AnalyticCostModel::new();
        let tasks = vec![
            TaskDescriptor::new(AlgorithmFamily::Hbos, 10.0),
            TaskDescriptor::new(AlgorithmFamily::Unknown, 1.0),
            TaskDescriptor::new(AlgorithmFamily::Knn, 10.0),
        ];
        let costs = model.predict_costs(&tasks, &m);
        let max = costs.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(costs[1], max);
    }

    #[test]
    fn knob_increases_cost() {
        let m = meta(2000, 15);
        let model = AnalyticCostModel::new();
        let lo = model.predict_cost(&TaskDescriptor::new(AlgorithmFamily::Abod, 5.0), &m);
        let hi = model.predict_cost(&TaskDescriptor::new(AlgorithmFamily::Abod, 100.0), &m);
        assert!(hi > lo);
    }

    #[test]
    fn forest_predictor_learns_scaling() {
        // Synthesize a corpus from the analytic model and check the forest
        // recovers the ordering on held-out shapes.
        let analytic = AnalyticCostModel::new();
        let mut samples = Vec::new();
        for &n in &[200usize, 500, 1000, 2000, 4000] {
            for &d in &[5usize, 10, 20, 40] {
                let m = meta(n, d);
                for family in AlgorithmFamily::known() {
                    let t = TaskDescriptor::new(family, 20.0);
                    samples.push(CostSample {
                        task: t,
                        meta: m,
                        seconds: analytic.predict_cost(&t, &m).max(1e-9) * 1e-9,
                    });
                }
            }
        }
        let mut predictor = ForestCostPredictor::new(30, 0);
        predictor.fit(&samples).unwrap();

        let held = meta(3000, 15);
        let tasks: Vec<TaskDescriptor> = AlgorithmFamily::known()
            .iter()
            .map(|&f| TaskDescriptor::new(f, 20.0))
            .collect();
        let truth: Vec<f64> = tasks
            .iter()
            .map(|t| analytic.predict_cost(t, &held))
            .collect();
        let pred = predictor.predict_costs(&tasks, &held);
        let rho = suod_metrics_spearman(&truth, &pred);
        assert!(rho > 0.7, "spearman {rho}");
    }

    /// Minimal local Spearman (avoids a dev-dependency cycle on
    /// suod-metrics).
    fn suod_metrics_spearman(a: &[f64], b: &[f64]) -> f64 {
        let ra = suod_linalg::rank::average_ranks(a);
        let rb = suod_linalg::rank::average_ranks(b);
        let ma = suod_linalg::stats::mean(&ra);
        let mb = suod_linalg::stats::mean(&rb);
        let cov: f64 = ra.iter().zip(&rb).map(|(&x, &y)| (x - ma) * (y - mb)).sum();
        let sa: f64 = ra.iter().map(|&x| (x - ma) * (x - ma)).sum::<f64>().sqrt();
        let sb: f64 = rb.iter().map(|&y| (y - mb) * (y - mb)).sum::<f64>().sqrt();
        cov / (sa * sb).max(1e-300)
    }

    #[test]
    fn forest_predictor_validates_corpus() {
        let mut p = ForestCostPredictor::new(5, 0);
        assert!(p.fit(&[]).is_err());
        let bad = CostSample {
            task: TaskDescriptor::new(AlgorithmFamily::Knn, 5.0),
            meta: meta(10, 2),
            seconds: 0.0,
        };
        assert!(p.fit(&[bad]).is_err());
    }

    #[test]
    fn untrained_forest_is_pessimistic_but_safe() {
        let p = ForestCostPredictor::new(5, 0);
        assert!(!p.is_fitted());
        let c = p.predict_cost(
            &TaskDescriptor::new(AlgorithmFamily::Knn, 5.0),
            &meta(10, 2),
        );
        assert_eq!(c, 1.0);
    }

    #[test]
    fn knob_clamped_to_one() {
        let t = TaskDescriptor::new(AlgorithmFamily::Knn, 0.0);
        assert_eq!(t.knob, 1.0);
    }

    #[test]
    fn feature_vector_includes_onehot() {
        let t = TaskDescriptor::new(AlgorithmFamily::Abod, 7.0);
        let v = t.feature_vector(&meta(10, 3));
        assert_eq!(v.len(), DatasetMeta::FEATURE_LEN + 4 + 12);
        assert_eq!(v[DatasetMeta::FEATURE_LEN], 7.0);
        assert_eq!(v[DatasetMeta::FEATURE_LEN + 1], 1.0); // default weight
        assert_eq!(v[DatasetMeta::FEATURE_LEN + 2], 0.0); // not cached
        assert_eq!(v[DatasetMeta::FEATURE_LEN + 3], 0.0); // exact neighbors
        assert_eq!(
            v[DatasetMeta::FEATURE_LEN + 4 + AlgorithmFamily::Abod.index()],
            1.0
        );
        let cached = t.with_cached_neighbors(true);
        assert_eq!(
            cached.feature_vector(&meta(10, 3))[DatasetMeta::FEATURE_LEN + 2],
            1.0
        );
        let approx = t.with_approx_neighbors(true);
        assert_eq!(
            approx.feature_vector(&meta(10, 3))[DatasetMeta::FEATURE_LEN + 3],
            1.0
        );
    }

    #[test]
    fn cached_neighbors_discounts_index_cost() {
        let m = meta(5000, 20);
        let model = AnalyticCostModel::new();
        for family in [
            AlgorithmFamily::Knn,
            AlgorithmFamily::Lof,
            AlgorithmFamily::Loop,
            AlgorithmFamily::Abod,
        ] {
            let t = TaskDescriptor::new(family, 10.0);
            let cold = model.predict_cost(&t, &m);
            let warm = model.predict_cost(&t.with_cached_neighbors(true), &m);
            assert!(
                warm < cold / 50.0,
                "{family:?}: warm {warm} should be a tiny fraction of cold {cold}"
            );
            assert!(
                warm > 0.0,
                "{family:?}: post-processing still costs something"
            );
        }
        // Non-proximity families are unaffected by the flag.
        let t = TaskDescriptor::new(AlgorithmFamily::Hbos, 10.0);
        assert_eq!(
            model.predict_cost(&t, &m),
            model.predict_cost(&t.with_cached_neighbors(true), &m)
        );
    }

    #[test]
    fn distillation_is_added_to_the_fit_forecast() {
        let m = meta(700, 40);
        let analytic = AnalyticCostModel::new();
        let forest = |trees, max_depth| {
            Some(DistillForest {
                trees,
                max_depth,
                n_features: 27,
            })
        };
        for family in [AlgorithmFamily::Knn, AlgorithmFamily::Cblof] {
            let fit = TaskDescriptor::new(family, 5.0);
            let plain = analytic.predict_cost(&fit, &m);
            // No forest: the fit forecast, bit for bit.
            assert_eq!(
                analytic.predict_cost(&fit.with_distillation(None), &m),
                plain
            );
            let small = analytic.predict_cost(&fit.with_distillation(forest(10, 8)), &m);
            let more_trees = analytic.predict_cost(&fit.with_distillation(forest(20, 8)), &m);
            let deeper = analytic.predict_cost(&fit.with_distillation(forest(10, 9)), &m);
            let past_log_n = analytic.predict_cost(&fit.with_distillation(forest(10, 30)), &m);
            assert!(small > plain);
            // The term is linear in the trees and capped at log2 n levels.
            let term = small - plain;
            assert!((more_trees - plain - 2.0 * term).abs() <= 1e-9 * term);
            assert!(deeper > small && past_log_n > deeper);
            assert!(past_log_n - plain < term * 700f64.log2() / 8.0 * (1.0 + 1e-9));
        }
        // On the probe shape a 10 x depth-8 forest outweighs a cheap fit
        // and is a fraction of a proximity fit.
        let cblof = analytic.predict_cost(&TaskDescriptor::new(AlgorithmFamily::Cblof, 4.0), &m);
        let knn = analytic.predict_cost(&TaskDescriptor::new(AlgorithmFamily::Knn, 5.0), &m);
        let term = analytic.predict_cost(
            &TaskDescriptor::new(AlgorithmFamily::Knn, 5.0).with_distillation(forest(10, 8)),
            &m,
        ) - knn;
        assert!(term > cblof && term < knn * 2.0, "{term} vs {cblof}, {knn}");
    }

    /// A fit skips [`DatasetMeta::extract`] for a model that says it reads
    /// the shape alone, so the analytic forecast must be the same from
    /// any moments.
    #[test]
    fn the_analytic_forecast_reads_the_shape_alone() {
        assert!(!AnalyticCostModel::new().reads_moments());
        assert!(ForestCostPredictor::new(3, 0).reads_moments());
        let shape = meta(5000, 12);
        let skewed = DatasetMeta {
            mean_std: 37.0,
            mean_skewness: -4.5,
            mean_kurtosis: 81.0,
            ..shape
        };
        let forest = Some(DistillForest {
            trees: 10,
            max_depth: 8,
            n_features: 4,
        });
        let tasks: Vec<TaskDescriptor> = AlgorithmFamily::known()
            .into_iter()
            .chain([AlgorithmFamily::Unknown])
            .flat_map(|family| {
                let t = TaskDescriptor::new(family, 7.0);
                [
                    t,
                    t.with_cached_neighbors(true),
                    t.with_approx_neighbors(true),
                    t.with_distillation(forest),
                ]
            })
            .collect();
        let model = AnalyticCostModel::new();
        assert_eq!(
            model.predict_costs(&tasks, &skewed),
            model.predict_costs(&tasks, &shape)
        );
    }

    #[test]
    fn forest_predictor_rejects_non_finite_meta_features() {
        let sample = |mean_std: f64| CostSample {
            task: TaskDescriptor::new(AlgorithmFamily::Knn, 5.0),
            meta: DatasetMeta {
                mean_std,
                ..meta(100, 4)
            },
            seconds: 0.5,
        };
        let mut predictor = ForestCostPredictor::new(3, 0);
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(predictor.fit(&[sample(1.0), sample(bad)]).is_err());
            assert!(!predictor.is_fitted());
        }
        predictor.fit(&[sample(1.0), sample(2.0)]).unwrap();
    }

    #[test]
    fn shared_query_charges_the_sweep_once() {
        let m = meta(5000, 20);
        let model = AnalyticCostModel::new();
        let group = [
            TaskDescriptor::new(AlgorithmFamily::Knn, 5.0),
            TaskDescriptor::new(AlgorithmFamily::Lof, 40.0),
            TaskDescriptor::new(AlgorithmFamily::Abod, 10.0),
            TaskDescriptor::new(AlgorithmFamily::Knn, 40.0),
        ];
        let shared = shared_query_costs(&model, &group, &m);
        let alone: Vec<f64> = group.iter().map(|t| model.predict_cost(t, &m)).collect();
        let epilogues: Vec<f64> = group
            .iter()
            .map(|t| model.predict_cost(&t.with_cached_neighbors(true), &m))
            .collect();
        // One sweep (the largest-k member's: LOF 40, first of the tie) plus
        // every epilogue — not four sweeps.
        let sweep = alone[1] - epilogues[1];
        let total: f64 = shared.iter().sum();
        let expected = sweep + epilogues.iter().sum::<f64>();
        assert!((total - expected).abs() <= 1e-9 * expected);
        assert!(total < alone.iter().sum::<f64>() / 3.0);
        // Split evenly: every member carries a quarter of the sweep.
        for (s, e) in shared.iter().zip(&epilogues) {
            assert!((s - e - sweep / 4.0).abs() <= 1e-9 * sweep);
        }
        // A group of one is the unshared forecast, bit for bit.
        assert_eq!(shared_query_costs(&model, &group[..1], &m), alone[..1]);
        assert!(shared_query_costs(&model, &[], &m).is_empty());
    }

    #[test]
    fn approx_neighbors_discounts_index_cost() {
        let m = meta(100_000, 20);
        let model = AnalyticCostModel::new();
        for family in [
            AlgorithmFamily::Knn,
            AlgorithmFamily::Lof,
            AlgorithmFamily::Loop,
            AlgorithmFamily::Abod,
        ] {
            let t = TaskDescriptor::new(family, 10.0);
            let exact = model.predict_cost(&t, &m);
            let approx = model.predict_cost(&t.with_approx_neighbors(true), &m);
            assert!(
                approx < exact / 100.0,
                "{family:?}: approx {approx} should be far below exact {exact} at n=100k"
            );
            // A cache hit still beats an approximate rebuild.
            let cached = model.predict_cost(&t.with_cached_neighbors(true), &m);
            assert!(cached < approx);
        }
        // Non-proximity families are unaffected by the flag.
        let t = TaskDescriptor::new(AlgorithmFamily::Hbos, 10.0);
        assert_eq!(
            model.predict_cost(&t, &m),
            model.predict_cost(&t.with_approx_neighbors(true), &m)
        );
    }

    #[test]
    fn predict_chunk_costs_are_unit_major_row_shares() {
        let costs = predict_chunk_costs(&[4.0, 1.0], &[256, 256, 128]);
        assert_eq!(costs.len(), 6);
        // Model 0 over three chunks, then model 1.
        assert!((costs[0] - 4.0 * 256.0 / 640.0).abs() < 1e-12);
        assert!((costs[2] - 4.0 * 128.0 / 640.0).abs() < 1e-12);
        assert!((costs[3] - 1.0 * 256.0 / 640.0).abs() < 1e-12);
        // Each model's chunk shares sum back to its full cost.
        let m0: f64 = costs[..3].iter().sum();
        let m1: f64 = costs[3..].iter().sum();
        assert!((m0 - 4.0).abs() < 1e-12 && (m1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_batch_forecast_scales_with_rows() {
        let unit = predict_batch_forecast(&[2.0, 3.0], 100, 100);
        assert!((unit - 5.0).abs() < 1e-12);
        assert!((predict_batch_forecast(&[2.0, 3.0], 50, 100) - 2.5).abs() < 1e-12);
        // Degenerate reference row counts never divide by zero.
        assert!(predict_batch_forecast(&[1.0], 10, 0).is_finite());
    }
}
