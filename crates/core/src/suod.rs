//! The SUOD estimator: builder, fit, and prediction paths.
//!
//! Mirrors Algorithm 1 of the paper. `fit`:
//!
//! 1. **RP** — per model, if projection is enabled and the family is
//!    projection-friendly, draw an independent JL matrix and project the
//!    training data (`psi_i`); otherwise use the original space.
//! 2. **BPS** — forecast per-model cost with the configured cost model,
//!    schedule the `m` fits onto `t` workers (BPS or generic), and run
//!    them on the thread-pool executor.
//! 3. **PSA** — for every costly model, train a supervised regressor on
//!    `(psi_i, training scores of M_i)`; the regressor serves that
//!    model's predictions from then on.
//!
//! `decision_function` projects the query with each model's retained `W`,
//! routes costly models through their approximators, and returns the
//! `n x m` score matrix; `combined_scores`/`predict` collapse it with the
//! average combiner and the contamination threshold learned at fit time.

use crate::diagnostics::{
    CpuFeatures, FitDiagnostics, ModelDiagnostics, PredictFailure, PredictReport,
};
use crate::health::{ModelHealth, ModelReport, ModelStatus};
use crate::pseudo::{fit_approximator, ApproxSpec};
use crate::spec::ModelSpec;
use crate::{Error, Result};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use suod_detectors::{validate_finite, Detector, FitContext};
use suod_linalg::distance::Neighbor;
use suod_linalg::{
    DataFingerprint, DistanceBackend, DistanceMetric, KernelConfig, KnnIndex, Matrix,
    NeighborBackend, NeighborCache, Precision,
};
use suod_observe::{Counter, Observer, SpanAttrs, Stage};
use suod_projection::{JlProjector, JlVariant, Projector};
use suod_scheduler::{
    bps_schedule, generic_schedule, shared_query_costs, simulate_makespan, AnalyticCostModel,
    Assignment, CostModel, DatasetMeta, ExecutionReport, SimulationResult, TaskFailure,
    WorkStealingExecutor,
};
use suod_supervised::Regressor;

/// Row-chunk width for the (unit x row-chunk) prediction task split.
/// Fixed (never derived from the worker count) so the task decomposition
/// — and therefore every computed value — is identical no matter how
/// many workers execute it.
const PREDICT_ROW_CHUNK: usize = 256;

/// A successful single-model fit: the detector, its training scores, and
/// the measured fit duration.
type FitSuccess = (Box<dyn Detector>, Vec<f64>, Duration);

/// What a fit task returns: the model-level outcome, where `Err` is a
/// retryable typed detector failure. The task-level (outer) `Result`
/// carries non-model failures (spec construction), which stay fatal.
type FitOutput = std::result::Result<FitSuccess, suod_detectors::Error>;

/// Seed for fit attempt `attempt` (0-based) of a model whose base seed
/// is `seed`. Attempt 0 uses the seed unchanged; retries XOR in an
/// odd-multiple salt so a seed-dependent failure can resolve differently
/// on retry, deterministically and independently of the worker count.
fn salted_seed(seed: u64, attempt: usize) -> u64 {
    seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Classifies one fit task's outcome. `Ok(Ok(..))` is a healthy fit with
/// finite training scores; `Ok(Err(cause))` is a retryable model failure
/// (caught panic, typed detector error, or non-finite training scores);
/// the outer `Err` propagates fatal non-model failures.
fn interpret_outcome(
    outcome: std::result::Result<Result<FitOutput>, TaskFailure>,
) -> Result<FitOutput> {
    match outcome {
        Err(panic) => Ok(Err(suod_detectors::Error::Panicked(panic.message))),
        Ok(Err(fatal)) => Err(fatal),
        Ok(Ok(Err(cause))) => Ok(Err(cause)),
        Ok(Ok(Ok((det, scores, dur)))) => {
            if scores.iter().all(|v| v.is_finite()) {
                Ok(Ok((det, scores, dur)))
            } else {
                Ok(Err(suod_detectors::Error::DegenerateData(
                    "model produced non-finite training scores".into(),
                )))
            }
        }
    }
}

/// Builder for [`Suod`]. Mirrors the paper's API demo: a pool of base
/// estimators plus per-module flags.
#[derive(Clone)]
pub struct SuodBuilder {
    pub(crate) base_estimators: Vec<ModelSpec>,
    pub(crate) rp_enabled: bool,
    pub(crate) rp_variant: JlVariant,
    pub(crate) rp_target_fraction: f64,
    pub(crate) rp_min_dim: usize,
    pub(crate) approx_enabled: bool,
    pub(crate) approx_spec: ApproxSpec,
    pub(crate) bps_enabled: bool,
    pub(crate) n_workers: usize,
    pub(crate) bps_alpha: f64,
    pub(crate) cost_model: Arc<dyn CostModel>,
    pub(crate) contamination: f64,
    pub(crate) seed: u64,
    pub(crate) neighbor_cache_enabled: bool,
    pub(crate) kernel: KernelConfig,
    /// `ef_search` override applied to the HNSW params at `build()`, so
    /// `ef_search(..)` composes with `neighbor_backend(..)` in any order.
    pub(crate) ef_search: Option<usize>,
    pub(crate) min_healthy_fraction: f64,
    pub(crate) max_model_retries: usize,
    pub(crate) straggler_factor: f64,
    pub(crate) observer: Arc<dyn Observer>,
}

impl Default for SuodBuilder {
    fn default() -> Self {
        Self {
            base_estimators: Vec::new(),
            rp_enabled: true,
            rp_variant: JlVariant::Circulant,
            rp_target_fraction: 2.0 / 3.0,
            rp_min_dim: 3,
            approx_enabled: true,
            approx_spec: ApproxSpec::default(),
            bps_enabled: true,
            n_workers: 1,
            bps_alpha: 1.0,
            cost_model: Arc::new(AnalyticCostModel::new()),
            contamination: 0.1,
            seed: 0,
            neighbor_cache_enabled: true,
            kernel: KernelConfig::default(),
            ef_search: None,
            min_healthy_fraction: 1.0,
            max_model_retries: 1,
            straggler_factor: 4.0,
            observer: suod_observe::noop(),
        }
    }
}

impl SuodBuilder {
    /// Sets the heterogeneous pool of base estimators.
    pub fn base_estimators(mut self, specs: Vec<ModelSpec>) -> Self {
        self.base_estimators = specs;
        self
    }

    /// Enables/disables the random-projection module (`rp_flag_global`).
    pub fn with_projection(mut self, enabled: bool) -> Self {
        self.rp_enabled = enabled;
        self
    }

    /// Chooses the JL construction (default: `circulant`, the paper's
    /// recommended variant alongside `toeplitz`).
    pub fn projection_variant(mut self, variant: JlVariant) -> Self {
        self.rp_variant = variant;
        self
    }

    /// Sets the target dimension as a fraction of the input dimension
    /// (default 2/3, as in the paper's Table 1 setup).
    pub fn projection_fraction(mut self, fraction: f64) -> Self {
        self.rp_target_fraction = fraction;
        self
    }

    /// Minimum input dimensionality for projection to engage (the JL
    /// bound is vacuous for tiny `d`; default 3).
    pub fn projection_min_dim(mut self, min_dim: usize) -> Self {
        self.rp_min_dim = min_dim;
        self
    }

    /// Enables/disables pseudo-supervised approximation
    /// (`approx_flag_global`).
    pub fn with_approximation(mut self, enabled: bool) -> Self {
        self.approx_enabled = enabled;
        self
    }

    /// Chooses the approximation regressor (default: random forest).
    pub fn approximator(mut self, spec: ApproxSpec) -> Self {
        self.approx_spec = spec;
        self
    }

    /// Enables/disables balanced parallel scheduling (`bps_flag`). When
    /// disabled, multi-worker runs use generic contiguous chunking.
    pub fn with_bps(mut self, enabled: bool) -> Self {
        self.bps_enabled = enabled;
        self
    }

    /// Number of workers `t` (default 1 = sequential).
    pub fn n_workers(mut self, t: usize) -> Self {
        self.n_workers = t;
        self
    }

    /// Rank-discount strength `alpha` for BPS (default 1).
    pub fn bps_alpha(mut self, alpha: f64) -> Self {
        self.bps_alpha = alpha;
        self
    }

    /// Replaces the cost model used by BPS (default: analytic).
    pub fn cost_model(mut self, model: Arc<dyn CostModel>) -> Self {
        self.cost_model = model;
        self
    }

    /// Enables/disables the shared neighbour-graph cache (default on).
    ///
    /// When on, `fit` groups proximity models (kNN, LOF, LoOP, COF, ABOD)
    /// by feature space and distance metric, builds each group's
    /// [`KnnIndex`] and leave-one-out neighbour sweep **once** at the
    /// pooled maximum `k`, and serves every member
    /// an exact sorted-prefix view. Scores are bit-identical either way —
    /// the switch exists for benchmarking and as an escape hatch.
    pub fn with_neighbor_cache(mut self, enabled: bool) -> Self {
        self.neighbor_cache_enabled = enabled;
        self
    }

    /// Sets the whole numeric-kernel configuration at once: distance
    /// backend, precision, neighbour backend (including HNSW parameters
    /// such as `ef_search`), and the KD-tree crossover threshold. This is
    /// the single entry point for every kernel knob — build the
    /// [`KernelConfig`] with its own with-style setters:
    ///
    /// ```
    /// use suod::prelude::*;
    ///
    /// let clf = Suod::builder()
    ///     .base_estimators(vec![ModelSpec::Hbos { n_bins: 8, tolerance: 0.3 }])
    ///     .kernel(
    ///         KernelConfig::default()
    ///             .with_backend(DistanceBackend::Gemm)
    ///             .with_precision(Precision::Mixed)
    ///             .with_neighbor(NeighborBackend::Hnsw(
    ///                 HnswParams::default().with_ef_search(64),
    ///             )),
    ///     )
    ///     .build()
    ///     .unwrap();
    /// # let _ = clf;
    /// ```
    pub fn kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the distance/GEMM backend behind every proximity
    /// detector's brute-force paths (default:
    /// [`DistanceBackend::Blocked`], which is bit-identical to `Naive`).
    /// Choose [`DistanceBackend::Gemm`] for the fastest Euclidean
    /// kernels at the cost of last-bit reproducibility relative to the
    /// scalar reference — results are still deterministic for a fixed
    /// configuration, including across worker counts.
    #[deprecated(note = "use `kernel(KernelConfig::default().with_backend(..))` instead")]
    pub fn distance_backend(mut self, backend: DistanceBackend) -> Self {
        self.kernel.backend = backend;
        self
    }

    /// Sets the dimensionality at or below which `KnnIndex` builds a
    /// KD-tree instead of using the brute-force kernels (default
    /// [`suod_linalg::DEFAULT_KDTREE_CROSSOVER_DIM`], tuned from the
    /// committed kernel benchmarks). Set to 0 to force brute force
    /// everywhere; set very large to always prefer the tree.
    #[deprecated(
        note = "use `kernel(KernelConfig::default().with_kdtree_crossover_dim(..))` \
                         instead"
    )]
    pub fn kdtree_crossover_dim(mut self, dims: usize) -> Self {
        self.kernel.kdtree_crossover_dim = dims;
        self
    }

    /// Selects the numeric precision of the packed distance kernels
    /// (default [`Precision::F64`], the exact mode). With
    /// [`Precision::Mixed`] the [`DistanceBackend::Gemm`] Euclidean
    /// paths store packed panels in f32 and accumulate in f64: roughly
    /// half the kernel memory traffic, distances within
    /// [`suod_linalg::mixed_distance_error_bound`] of the exact values,
    /// and still deterministic across worker counts. Ignored by the
    /// bit-identical backends (`Naive`/`Blocked`) and by non-Euclidean
    /// metrics.
    #[deprecated(note = "use `kernel(KernelConfig::default().with_precision(..))` instead")]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.kernel.precision = precision;
        self
    }

    /// Selects the neighbour index behind every proximity detector's kNN
    /// queries (default [`NeighborBackend::Exact`]). With
    /// [`NeighborBackend::Hnsw`] the index is a seeded, deterministic
    /// approximate graph: the exact `O(n² d)` leave-one-out sweep becomes
    /// an `O(n log n · d)` build plus beam searches, at a documented
    /// recall ≥ 0.95 target for the default parameters. Small inputs
    /// (below [`suod_linalg::DEFAULT_HNSW_MIN_ROWS`] rows) and
    /// non-Euclidean metrics route to the exact path and count an
    /// exactness fallback in
    /// [`FitDiagnostics`](crate::FitDiagnostics::ann_fallbacks). Scores
    /// remain bit-identical across worker counts for a fixed seed.
    #[deprecated(note = "use `kernel(KernelConfig::default().with_neighbor(..))` instead")]
    pub fn neighbor_backend(mut self, backend: NeighborBackend) -> Self {
        self.kernel.neighbor = backend;
        self
    }

    /// Sets the HNSW search beam width `ef_search` — the recall knob
    /// (default [`suod_linalg::DEFAULT_EF_SEARCH`]). Larger values search
    /// more candidates per query: higher recall, slower queries. Applies
    /// whenever the neighbour backend is (or becomes)
    /// [`NeighborBackend::Hnsw`], regardless of builder-call order; it is
    /// ignored by the exact backend.
    #[deprecated(note = "set ef_search on the HnswParams inside \
                         `kernel(KernelConfig::default().with_neighbor(..))` instead")]
    pub fn ef_search(mut self, ef: usize) -> Self {
        self.ef_search = Some(ef.max(1));
        self
    }

    /// Replaces the whole kernel configuration at once (backend,
    /// precision, neighbour backend, and KD-tree crossover thresholds).
    #[deprecated(note = "renamed to `kernel`")]
    pub fn kernel_config(self, kernel: KernelConfig) -> Self {
        self.kernel(kernel)
    }

    /// Minimum fraction of the pool that must fit successfully — after
    /// retries — for [`Suod::fit`] to succeed (default 1.0: any permanent
    /// model failure fails the fit, the strictest behaviour). Lowering it
    /// lets the ensemble degrade gracefully: failed models are
    /// quarantined and the survivors carry combination and prediction.
    pub fn min_healthy_fraction(mut self, fraction: f64) -> Self {
        self.min_healthy_fraction = fraction;
        self
    }

    /// Extra fit attempts granted to a failed model before it is
    /// quarantined (default 1). Each retry re-salts the model's seed, so
    /// transient seed-dependent failures can recover; the outcome is
    /// deterministic for a given master seed regardless of worker count.
    pub fn max_model_retries(mut self, retries: usize) -> Self {
        self.max_model_retries = retries;
        self
    }

    /// Multiple of the forecast-implied expected fit time beyond which a
    /// model is flagged as a straggler in the health report (default 4).
    /// Stragglers are never quarantined — slow is not wrong — the flag
    /// feeds the cost-model validation loop.
    pub fn straggler_factor(mut self, factor: f64) -> Self {
        self.straggler_factor = factor;
        self
    }

    /// Attaches an [`Observer`] that receives spans and counters from
    /// every pipeline stage — projection, neighbour-graph builds,
    /// per-model fits and retries, BPS planning, executor task lifecycle,
    /// PSA distillation, thresholding, and prediction chunks (default:
    /// no-op). Pass an `Arc<suod_observe::RecordingObserver>` (coerced to
    /// `Arc<dyn Observer>`) to capture a deterministic trace exportable
    /// to JSON or Chrome `trace_event` format. Observation never changes
    /// computed values: scores are bit-identical with any observer.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Expected outlier fraction used by [`Suod::predict`]'s threshold
    /// (default 0.1).
    pub fn contamination(mut self, c: f64) -> Self {
        self.contamination = c;
        self
    }

    /// Master RNG seed; per-model seeds are derived from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration and produces an unfitted [`Suod`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty pool, a projection
    /// fraction outside `(0, 1]`, `n_workers == 0`, a negative BPS alpha,
    /// or contamination outside `(0, 0.5]`.
    pub fn build(self) -> Result<Suod> {
        if self.base_estimators.is_empty() {
            return Err(Error::InvalidConfig(
                "base_estimators must not be empty".into(),
            ));
        }
        if !(self.rp_target_fraction > 0.0 && self.rp_target_fraction <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "projection fraction must be in (0, 1], got {}",
                self.rp_target_fraction
            )));
        }
        if self.n_workers == 0 {
            return Err(Error::InvalidConfig("n_workers must be >= 1".into()));
        }
        if self.bps_alpha.is_nan() || self.bps_alpha < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "bps_alpha must be >= 0, got {}",
                self.bps_alpha
            )));
        }
        if !(self.contamination > 0.0 && self.contamination <= 0.5) {
            return Err(Error::InvalidConfig(format!(
                "contamination must be in (0, 0.5], got {}",
                self.contamination
            )));
        }
        if !(self.min_healthy_fraction > 0.0 && self.min_healthy_fraction <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "min_healthy_fraction must be in (0, 1], got {}",
                self.min_healthy_fraction
            )));
        }
        if !(self.straggler_factor.is_finite() && self.straggler_factor >= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "straggler_factor must be finite and >= 1, got {}",
                self.straggler_factor
            )));
        }
        let mut config = self;
        if let Some(ef) = config.ef_search {
            if let NeighborBackend::Hnsw(p) = config.kernel.neighbor {
                config.kernel.neighbor = NeighborBackend::Hnsw(p.with_ef_search(ef));
            }
        }
        Ok(Suod {
            config,
            state: None,
            executor: None,
            diagnostics: None,
            warm: None,
        })
    }
}

pub(crate) struct FittedModel {
    pub(crate) spec: ModelSpec,
    /// Original index in the configured pool — stable across fit-time
    /// quarantines, so predict-time health reports line up with the
    /// fit-time [`ModelHealth`] indices.
    pub(crate) pool_index: usize,
    pub(crate) detector: Box<dyn Detector>,
    pub(crate) projector: Option<JlProjector>,
    pub(crate) approximator: Option<Box<dyn Regressor>>,
    pub(crate) train_scores: Vec<f64>,
    pub(crate) fit_time: Duration,
}

impl FittedModel {
    /// The neighbour query this model's prediction starts with: its
    /// detector's, unless a PSA approximator answers in the detector's
    /// place (a regressor queries nothing).
    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        match self.approximator {
            Some(_) => None,
            None => self.detector.neighbor_query(),
        }
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
        }
    }

    /// Every unit cut down to the members `active` leaves in (all of
    /// them without a mask); units left empty are dropped.
    fn active_units(&self, active: Option<&[bool]>) -> Vec<Vec<usize>> {
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
    fn shared_query(&self, members: &[usize]) -> Option<(&Arc<KnnIndex>, usize)> {
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
/// [`Suod::warm_refit`] on the *same* training matrix can reuse work:
/// the shared neighbour cache (proximity graphs keyed by feature space)
/// and the fingerprint that gates reuse to an identical dataset.
pub(crate) struct WarmContext {
    /// Neighbour cache from the fit, `None` after a snapshot load (graphs
    /// are not persisted — they rebuild on the first warm refit).
    pub(crate) cache: Option<Arc<NeighborCache>>,
    /// Fingerprint of the training matrix the fitted state came from.
    pub(crate) train_fingerprint: DataFingerprint,
}

/// The SUOD estimator (see the [crate docs](crate) for the full story).
pub struct Suod {
    pub(crate) config: SuodBuilder,
    pub(crate) state: Option<Arc<FittedState>>,
    /// Persistent work-stealing pool created at fit time and reused by
    /// every subsequent predict call — threads are spawned once per
    /// estimator, not once per call.
    pub(crate) executor: Option<Arc<WorkStealingExecutor>>,
    /// Unified diagnostics from the most recent fit — execution
    /// telemetry, per-model health, and module decisions — including
    /// fits that failed with [`Error::PoolDegraded`].
    pub(crate) diagnostics: Option<FitDiagnostics>,
    /// Warm-start context (neighbour cache + data fingerprint) for
    /// [`Suod::warm_refit`].
    pub(crate) warm: Option<WarmContext>,
}

impl std::fmt::Debug for SuodBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuodBuilder")
            .field("n_models", &self.base_estimators.len())
            .field("rp_enabled", &self.rp_enabled)
            .field("approx_enabled", &self.approx_enabled)
            .field("bps_enabled", &self.bps_enabled)
            .field("n_workers", &self.n_workers)
            .field("contamination", &self.contamination)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Suod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suod")
            .field("config", &self.config)
            .field("fitted", &self.state.is_some())
            .finish()
    }
}

impl Suod {
    /// Starts a builder.
    pub fn builder() -> SuodBuilder {
        SuodBuilder::default()
    }

    /// Number of base estimators in the pool.
    pub fn n_models(&self) -> usize {
        self.config.base_estimators.len()
    }

    /// `true` once [`fit`](Self::fit) has succeeded.
    pub fn is_fitted(&self) -> bool {
        self.state.is_some()
    }

    /// Derives a per-model seed from the master seed (splitmix64 step).
    fn model_seed(&self, i: usize) -> u64 {
        let mut z = self
            .config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn should_project(&self, spec: &ModelSpec, d: usize) -> bool {
        if !self.config.rp_enabled || !spec.projection_friendly() {
            return false;
        }
        if d < self.config.rp_min_dim.max(2) {
            return false;
        }
        self.target_dim(d) < d
    }

    fn target_dim(&self, d: usize) -> usize {
        ((d as f64 * self.config.rp_target_fraction).ceil() as usize).clamp(1, d)
    }

    /// Builds the fit assignment over the model pool. `cached_flags[i]`
    /// marks models whose neighbour graph is a shared-cache hit, and
    /// `approx_flags[i]` marks models whose graph the HNSW backend will
    /// answer: their descriptors carry the flags so the cost model stops
    /// forecasting the exact `O(n^2 d)` index build BPS would otherwise
    /// balance against.
    fn schedule(
        &self,
        x_meta: &DatasetMeta,
        cached_flags: &[bool],
        approx_flags: &[bool],
    ) -> Result<Assignment> {
        let m = self.config.base_estimators.len();
        let t = self.config.n_workers;
        if t <= 1 {
            return Ok(generic_schedule(m, 1)?);
        }
        if self.config.bps_enabled {
            let tasks: Vec<_> = self
                .config
                .base_estimators
                .iter()
                .zip(cached_flags.iter().zip(approx_flags))
                .map(|(s, (&cached, &approx))| {
                    s.task_descriptor()
                        .with_cached_neighbors(cached)
                        .with_approx_neighbors(approx)
                })
                .collect();
            let costs = self.config.cost_model.predict_costs(&tasks, x_meta);
            Ok(bps_schedule(&costs, t, self.config.bps_alpha)?)
        } else {
            Ok(generic_schedule(m, t)?)
        }
    }

    /// Fits every base estimator (Algorithm 1, lines 3–16), then trains
    /// the PSA approximators for costly models (lines 17–24).
    ///
    /// Model fits run **fault-isolated**: a detector that panics or
    /// returns a typed error is retried up to
    /// [`max_model_retries`](SuodBuilder::max_model_retries) times with a
    /// re-salted seed, and quarantined if it never recovers. Quarantined
    /// models are excluded from the fitted ensemble — combination,
    /// pseudo-supervision, and prediction scheduling operate over the
    /// survivors — and recorded in [`diagnostics`](Self::diagnostics).
    ///
    /// Every stage reports spans and counters to the configured
    /// [`observer`](SuodBuilder::observer); the resulting
    /// [`FitDiagnostics`] is a view over the same event stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Detector`] with
    /// [`NonFiniteInput`](suod_detectors::Error::NonFiniteInput) for
    /// training data containing NaN/infinities, [`Error::PoolDegraded`]
    /// when fewer than `ceil(min_healthy_fraction * m)` models survive
    /// quarantine (the health report stays available), and propagates
    /// fatal failures from projection, scheduling, or approximation.
    pub fn fit(&mut self, x: &Matrix) -> Result<&mut Self> {
        if x.nrows() == 0 || x.ncols() == 0 {
            return Err(Error::InvalidConfig(
                "training data must be non-empty".into(),
            ));
        }
        validate_finite(x, "fit").map_err(Error::Detector)?;
        let obs = Arc::clone(&self.config.observer);
        let _fit_span = suod_observe::span(obs.as_ref(), Stage::Fit, SpanAttrs::none());
        let d = x.ncols();
        let meta = DatasetMeta::extract(x);
        let shared_x = Arc::new(x.clone());

        // --- RP: per-model feature spaces. ---------------------------------
        let mut projectors: Vec<Option<JlProjector>> = Vec::with_capacity(self.n_models());
        let mut spaces: Vec<Arc<Matrix>> = Vec::with_capacity(self.n_models());
        for (i, spec) in self.config.base_estimators.iter().enumerate() {
            if self.should_project(spec, d) {
                let _span =
                    suod_observe::span(obs.as_ref(), Stage::Projection, SpanAttrs::model(i));
                let k = self.target_dim(d);
                let mut proj = JlProjector::new(self.config.rp_variant, k, self.model_seed(i))?;
                proj.fit(x)?;
                spaces.push(Arc::new(proj.transform(x)?));
                projectors.push(Some(proj));
            } else {
                spaces.push(Arc::clone(&shared_x));
                projectors.push(None);
            }
        }

        // --- Neighbor-cache plan (pass 1 of the two-pass fit). --------------
        // Scan the specs to find which proximity models share a feature
        // space and metric, pre-register each group's k so the cache's
        // first build covers the pooled maximum, and pick one "builder"
        // per group for the cost model (everyone else is a near-free
        // cache hit).
        let plan_span = obs.span_begin(Stage::NeighborPlan, SpanAttrs::none());
        let cache: Option<Arc<NeighborCache>> = self.config.neighbor_cache_enabled.then(|| {
            Arc::new(NeighborCache::with_config(
                self.config.kernel,
                Arc::clone(&obs),
            ))
        });
        let m = self.n_models();
        let mut fingerprints: Vec<Option<DataFingerprint>> = vec![None; m];
        let mut cached_flags = vec![false; m];
        // Models whose neighbour graph the approximate backend will
        // actually answer (the exactness fallback routes small n and
        // non-Euclidean metrics back to the exact path, so their cost
        // forecast must stay exact too).
        let approx_flags: Vec<bool> = self
            .config
            .base_estimators
            .iter()
            .map(
                |spec| match (self.config.kernel.neighbor, spec.neighbor_requirement()) {
                    (NeighborBackend::Hnsw(p), Some((metric, _))) => {
                        metric == DistanceMetric::Euclidean && x.nrows() >= p.min_rows
                    }
                    _ => false,
                },
            )
            .collect();
        // Worker budget for the graph builds: groups build concurrently on
        // the executor, so splitting the pool across them keeps a lone
        // group's sweep parallel without oversubscribing many groups.
        let mut fit_threads = 1usize;
        if let Some(cache) = &cache {
            let mut fp_by_space: HashMap<usize, DataFingerprint> = HashMap::new();
            let mut groups: HashMap<(DataFingerprint, u8, u64), Vec<(usize, usize)>> =
                HashMap::new();
            for (i, spec) in self.config.base_estimators.iter().enumerate() {
                if let Some((metric, k)) = spec.neighbor_requirement() {
                    let ptr = Arc::as_ptr(&spaces[i]) as usize;
                    let fp = *fp_by_space
                        .entry(ptr)
                        .or_insert_with(|| DataFingerprint::of(&spaces[i]));
                    cache.register(fp, metric, k);
                    fingerprints[i] = Some(fp);
                    let (tag, bits) = metric_key(metric);
                    let k_eff = k.min(x.nrows().saturating_sub(1));
                    groups.entry((fp, tag, bits)).or_default().push((i, k_eff));
                }
            }
            for members in groups.values() {
                // Builder = largest effective k (ties break to the lowest
                // model index, matching the cache's widen-to-max rule).
                let &(builder, _) = members
                    .iter()
                    .max_by_key(|&&(i, k)| (k, std::cmp::Reverse(i)))
                    .expect("groups are non-empty by construction");
                for &(i, _) in members {
                    cached_flags[i] = i != builder;
                }
            }
            fit_threads = (self.config.n_workers / groups.len().max(1)).max(1);
        }
        obs.span_end(plan_span);

        // --- BPS + fault-isolated fit execution (pass 2). -------------------
        let bps_span = obs.span_begin(Stage::BpsPlan, SpanAttrs::none());
        let assignment = self.schedule(&meta, &cached_flags, &approx_flags);
        obs.span_end(bps_span);
        let assignment = assignment?;
        let executor = self.executor_for_run()?;
        let make_task =
            |i: usize, attempt: usize| -> Box<dyn FnOnce() -> Result<FitOutput> + Send> {
                let spec = self.config.base_estimators[i];
                let seed = salted_seed(self.model_seed(i), attempt);
                let psi = Arc::clone(&spaces[i]);
                let ctx = match &cache {
                    Some(c) if fingerprints[i].is_some() => {
                        FitContext::cached(Arc::clone(c), fingerprints[i], fit_threads)
                    }
                    _ => FitContext::standalone(fit_threads),
                }
                .with_kernel_config(self.config.kernel);
                let task_obs = Arc::clone(&obs);
                let stage = if attempt == 0 {
                    Stage::ModelFit
                } else {
                    Stage::ModelRetry
                };
                Box::new(move || {
                    // Guard, not begin/end: the drop runs even when a
                    // chaotic detector panics out of the closure, so
                    // quarantined models still close their spans.
                    let _span = suod_observe::span(task_obs.as_ref(), stage, SpanAttrs::model(i));
                    let mut det = spec.build(seed)?;
                    let start = Instant::now();
                    match det.fit_with_context(&psi, &ctx) {
                        Ok(()) => {
                            let elapsed = start.elapsed();
                            let scores = det.training_scores()?;
                            Ok(Ok((det, scores, elapsed)))
                        }
                        Err(e) => Ok(Err(e)),
                    }
                })
            };
        let tasks: Vec<_> = (0..m).map(|i| make_task(i, 0)).collect();
        let (outcomes, mut report) =
            executor.run_with_report_isolated_observed(tasks, &assignment, Arc::clone(&obs))?;

        let mut fitted: Vec<Option<FitSuccess>> = (0..m).map(|_| None).collect();
        let mut causes: Vec<Option<suod_detectors::Error>> = vec![None; m];
        let mut attempts = vec![1usize; m];
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match interpret_outcome(outcome)? {
                Ok(ok) => fitted[i] = Some(ok),
                Err(cause) => causes[i] = Some(cause),
            }
        }

        // --- Bounded retry of failed models. --------------------------------
        // Retries run on the same pool under a generic schedule (the
        // failed subset is small and its costs are unknown — the original
        // forecast clearly missed). Each retry re-salts the model seed.
        for attempt in 1..=self.config.max_model_retries {
            let pending: Vec<usize> = (0..m).filter(|&i| causes[i].is_some()).collect();
            if pending.is_empty() {
                break;
            }
            let retry_tasks: Vec<_> = pending.iter().map(|&i| make_task(i, attempt)).collect();
            let retry_assignment =
                generic_schedule(pending.len(), self.config.n_workers.min(pending.len()))?;
            let (retry_outcomes, retry_report) = executor.run_with_report_isolated_observed(
                retry_tasks,
                &retry_assignment,
                Arc::clone(&obs),
            )?;
            obs.counter(Counter::Retry, pending.len() as u64);
            report.retries += pending.len();
            report.failures += retry_report.failures;
            report.steals += retry_report.steals;
            for (&i, outcome) in pending.iter().zip(retry_outcomes) {
                attempts[i] += 1;
                match interpret_outcome(outcome)? {
                    Ok(ok) => {
                        fitted[i] = Some(ok);
                        causes[i] = None;
                    }
                    Err(cause) => causes[i] = Some(cause),
                }
            }
        }

        // Cache counters are copied after the retry loop so retried
        // models' hits/misses reconcile exactly with the observer trace.
        let mut ann_fallbacks = 0u64;
        if let Some(cache) = &cache {
            let stats = cache.stats();
            report.cache_hits = stats.hits;
            report.cache_misses = stats.misses;
            report.cache_build_time = stats.build_time;
            ann_fallbacks = stats.ann_fallbacks;
        }

        // --- Straggler flagging from the BPS cost forecast. -----------------
        // A model is a straggler when its measured fit time exceeds
        // `straggler_factor` times its forecast-implied share of the total
        // (and is non-trivial in absolute terms). Wall-clock-dependent by
        // nature, so deliberately excluded from determinism guarantees.
        let mut straggler_flags = vec![false; m];
        if report.task_times.len() == m {
            let descriptors: Vec<_> = self
                .config
                .base_estimators
                .iter()
                .zip(cached_flags.iter().zip(&approx_flags))
                .map(|(s, (&cached, &approx))| {
                    s.task_descriptor()
                        .with_cached_neighbors(cached)
                        .with_approx_neighbors(approx)
                })
                .collect();
            let predicted = self.config.cost_model.predict_costs(&descriptors, &meta);
            let total_pred: f64 = predicted.iter().sum();
            let total_measured: f64 = report.task_times.iter().map(Duration::as_secs_f64).sum();
            if total_pred > 0.0 && total_measured > 0.0 {
                for i in 0..m {
                    let expected = predicted[i] / total_pred * total_measured;
                    let measured = report.task_times[i].as_secs_f64();
                    straggler_flags[i] =
                        measured > self.config.straggler_factor * expected && measured > 0.05;
                }
            }
            report.stragglers = straggler_flags
                .iter()
                .enumerate()
                .filter_map(|(i, &flag)| flag.then_some(i))
                .collect();
        }

        // --- Quarantine bookkeeping + degradation floor. --------------------
        let health = ModelHealth::new(
            (0..m)
                .map(|i| ModelReport {
                    index: i,
                    name: self.config.base_estimators[i].name(),
                    status: if fitted[i].is_some() {
                        ModelStatus::Healthy
                    } else {
                        ModelStatus::Quarantined
                    },
                    cause: causes[i].clone(),
                    attempts: attempts[i],
                    straggler: straggler_flags[i],
                })
                .collect(),
        );
        if health.quarantined() > 0 {
            obs.counter(Counter::Quarantine, health.quarantined() as u64);
        }
        if !report.stragglers.is_empty() {
            obs.counter(Counter::Straggler, report.stragglers.len() as u64);
        }

        // One diagnostics row per configured model, joining the health and
        // execution views with the module decisions. `approximated` is
        // back-filled after PSA below (no approximator exists yet).
        let models_diag: Vec<ModelDiagnostics> = (0..m)
            .map(|i| ModelDiagnostics {
                index: i,
                name: self.config.base_estimators[i].name(),
                status: if fitted[i].is_some() {
                    ModelStatus::Healthy
                } else {
                    ModelStatus::Quarantined
                },
                attempts: attempts[i],
                straggler: straggler_flags[i],
                fit_time: fitted[i].as_ref().map(|&(_, _, t)| t),
                projected: projectors[i].is_some(),
                approximated: false,
            })
            .collect();

        let n_healthy = health.healthy();
        let required =
            (((self.config.min_healthy_fraction * m as f64) - 1e-9).ceil() as usize).max(1);
        self.diagnostics = Some(FitDiagnostics::new(
            report,
            health,
            models_diag,
            CpuFeatures::detect(self.config.kernel.precision, self.config.kernel.neighbor),
            ann_fallbacks,
        ));
        if n_healthy < required {
            let cause = causes
                .iter()
                .flatten()
                .next()
                .cloned()
                .expect("a degraded pool records at least one failure cause");
            self.state = None;
            return Err(Error::PoolDegraded {
                healthy: n_healthy,
                total: m,
                required,
                cause,
            });
        }

        // --- Assemble the surviving ensemble. -------------------------------
        // Survivors keep their original pool indices (`model_indices`) so
        // their feature spaces and derived seeds are unchanged by the
        // quarantine of other models.
        let mut models: Vec<FittedModel> = Vec::with_capacity(n_healthy);
        let mut model_indices: Vec<usize> = Vec::with_capacity(n_healthy);
        for i in 0..m {
            if let Some((detector, train_scores, fit_time)) = fitted[i].take() {
                models.push(FittedModel {
                    spec: self.config.base_estimators[i],
                    pool_index: i,
                    detector,
                    projector: projectors[i].take(),
                    approximator: None,
                    train_scores,
                    fit_time,
                });
                model_indices.push(i);
            }
        }

        // --- PSA: distill costly models. ------------------------------------
        if self.config.approx_enabled {
            for (model, &i) in models.iter_mut().zip(&model_indices) {
                if model.spec.is_costly() {
                    let _span =
                        suod_observe::span(obs.as_ref(), Stage::PsaDistill, SpanAttrs::model(i));
                    let approx = fit_approximator(
                        &self.config.approx_spec,
                        &spaces[i],
                        &model.train_scores,
                        self.model_seed(i) ^ 0xA55A,
                    )?;
                    model.approximator = Some(approx);
                }
            }
        }
        if let Some(diag) = self.diagnostics.as_mut() {
            for (model, &i) in models.iter().zip(&model_indices) {
                if let Some(row) = diag.models_mut().get_mut(i) {
                    row.approximated = model.approximator.is_some();
                }
            }
        }

        // --- Standardization reference + contamination threshold. -----------
        // Test-time scores must be z-scored against the TRAINING
        // distribution (the PyOD convention): per-batch statistics would
        // zero out single-sample queries and drift with batch composition.
        let (score_means, score_stds, threshold) = {
            let _span = suod_observe::span(obs.as_ref(), Stage::Threshold, SpanAttrs::none());
            let score_means: Vec<f64> = models
                .iter()
                .map(|m| suod_linalg::stats::mean(&m.train_scores))
                .collect();
            let score_stds: Vec<f64> = models
                .iter()
                .map(|m| suod_linalg::stats::std_dev(&m.train_scores).max(1e-12))
                .collect();
            let train_matrix = scores_to_matrix(
                models.iter().map(|m| m.train_scores.clone()).collect(),
                x.nrows(),
            )?;
            let combined = combine_standardized(&train_matrix, &score_means, &score_stds, None);
            let n_out = ((x.nrows() as f64) * self.config.contamination).round() as usize;
            let n_out = n_out.clamp(1, x.nrows());
            let threshold = suod_linalg::rank::kth_largest(&combined, n_out)
                .expect("n_out within bounds by construction");
            (score_means, score_stds, threshold)
        };

        self.state = Some(Arc::new(FittedState::new(
            models.into_iter().map(Arc::new).collect(),
            threshold,
            d,
            score_means,
            score_stds,
        )));
        // Retain the neighbour cache + data identity so a warm_refit on
        // the same matrix can reuse proximity graphs and survivor models.
        self.warm = Some(WarmContext {
            cache: cache.clone(),
            train_fingerprint: DataFingerprint::of(x),
        });
        Ok(self)
    }

    /// Refits the pool **warm** on the same training matrix: models whose
    /// spec is unchanged at the same pool index are carried over from the
    /// fitted state (zero re-training, the `Arc` is shared), and only
    /// changed or added specs are fitted — reusing the neighbour cache
    /// retained from the previous fit, so proximity graphs over the
    /// original feature space are cache hits. A refit that changes `c` of
    /// `m` models therefore costs `O(c)` model fits instead of `O(m)`.
    ///
    /// Scores after a warm refit are **bitwise-identical** to a cold
    /// [`fit`](Self::fit) of a pool configured with `specs`: per-model
    /// seeds derive from the pool index alone, so reused and refitted
    /// models alike land in exactly the state a full fit would produce.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before a successful fit,
    /// [`Error::InvalidConfig`] when `specs` is empty or `x` is not the
    /// training matrix of the previous fit (warm refit never silently
    /// retrains on new data — call [`fit`](Self::fit) for that), and the
    /// same fit-time failures as a cold fit for the changed subset,
    /// including [`Error::PoolDegraded`] against the **new** pool size.
    pub fn warm_refit(&mut self, x: &Matrix, specs: Vec<ModelSpec>) -> Result<&mut Self> {
        let prev = Arc::clone(self.state.as_ref().ok_or(Error::NotFitted)?);
        let fp_prev = self
            .warm
            .as_ref()
            .ok_or(Error::NotFitted)?
            .train_fingerprint;
        if specs.is_empty() {
            return Err(Error::InvalidConfig(
                "base_estimators must not be empty".into(),
            ));
        }
        let fp = DataFingerprint::of(x);
        if fp != fp_prev {
            return Err(Error::InvalidConfig(
                "warm_refit requires the training matrix of the previous fit (data \
                 fingerprint differs); call fit() to train on new data"
                    .into(),
            ));
        }
        let obs = Arc::clone(&self.config.observer);
        let _fit_span = suod_observe::span(obs.as_ref(), Stage::Fit, SpanAttrs::none());
        let d = x.ncols();
        let old_specs = std::mem::replace(&mut self.config.base_estimators, specs);
        let m = self.config.base_estimators.len();
        let shared_x = Arc::new(x.clone());

        // Reuse decision: same spec at the same pool index, and the model
        // survived the previous fit. Everything else is refitted.
        let reused: Vec<Option<Arc<FittedModel>>> = (0..m)
            .map(|i| {
                (i < old_specs.len() && old_specs[i] == self.config.base_estimators[i])
                    .then(|| prev.models.iter().find(|mm| mm.pool_index == i).cloned())
                    .flatten()
            })
            .collect();
        let changed: Vec<usize> = (0..m).filter(|&i| reused[i].is_none()).collect();

        // Feature spaces + projectors for the changed subset only
        // (deterministic per model seed, identical to a cold fit).
        let mut projectors: Vec<Option<JlProjector>> = (0..m).map(|_| None).collect();
        let mut spaces: Vec<Arc<Matrix>> = (0..m).map(|_| Arc::clone(&shared_x)).collect();
        for &i in &changed {
            let spec = self.config.base_estimators[i];
            if self.should_project(&spec, d) {
                let _span =
                    suod_observe::span(obs.as_ref(), Stage::Projection, SpanAttrs::model(i));
                let k = self.target_dim(d);
                let mut proj = JlProjector::new(self.config.rp_variant, k, self.model_seed(i))?;
                proj.fit(x)?;
                spaces[i] = Arc::new(proj.transform(x)?);
                projectors[i] = Some(proj);
            }
        }

        // Reuse the retained neighbour cache (graphs over the original
        // space are hits); fall back to a fresh one after a snapshot load.
        let cache: Option<Arc<NeighborCache>> = self.config.neighbor_cache_enabled.then(|| {
            self.warm
                .as_ref()
                .and_then(|wc| wc.cache.clone())
                .unwrap_or_else(|| {
                    Arc::new(NeighborCache::with_config(
                        self.config.kernel,
                        Arc::clone(&obs),
                    ))
                })
        });
        let mut fingerprints: Vec<Option<DataFingerprint>> = vec![None; m];
        if let Some(cache) = &cache {
            let mut fp_by_space: HashMap<usize, DataFingerprint> = HashMap::new();
            for &i in &changed {
                if let Some((metric, k)) = self.config.base_estimators[i].neighbor_requirement() {
                    let ptr = Arc::as_ptr(&spaces[i]) as usize;
                    let sp_fp = *fp_by_space
                        .entry(ptr)
                        .or_insert_with(|| DataFingerprint::of(&spaces[i]));
                    cache.register(sp_fp, metric, k);
                    fingerprints[i] = Some(sp_fp);
                }
            }
        }

        // Fit the changed subset with the same fault isolation and
        // bounded retries as a cold fit. A generic schedule suffices: the
        // subset is small, and per-model results are independent of task
        // placement.
        let executor = self.executor_for_run()?;
        let fit_threads = (self.config.n_workers / changed.len().max(1)).max(1);
        let make_task =
            |i: usize, attempt: usize| -> Box<dyn FnOnce() -> Result<FitOutput> + Send> {
                let spec = self.config.base_estimators[i];
                let seed = salted_seed(self.model_seed(i), attempt);
                let psi = Arc::clone(&spaces[i]);
                let ctx = match &cache {
                    Some(c) if fingerprints[i].is_some() => {
                        FitContext::cached(Arc::clone(c), fingerprints[i], fit_threads)
                    }
                    _ => FitContext::standalone(fit_threads),
                }
                .with_kernel_config(self.config.kernel);
                let task_obs = Arc::clone(&obs);
                let stage = if attempt == 0 {
                    Stage::ModelFit
                } else {
                    Stage::ModelRetry
                };
                Box::new(move || {
                    let _span = suod_observe::span(task_obs.as_ref(), stage, SpanAttrs::model(i));
                    let mut det = spec.build(seed)?;
                    let start = Instant::now();
                    match det.fit_with_context(&psi, &ctx) {
                        Ok(()) => {
                            let elapsed = start.elapsed();
                            let scores = det.training_scores()?;
                            Ok(Ok((det, scores, elapsed)))
                        }
                        Err(e) => Ok(Err(e)),
                    }
                })
            };

        let mut fitted: Vec<Option<FitSuccess>> = (0..m).map(|_| None).collect();
        let mut causes: Vec<Option<suod_detectors::Error>> = vec![None; m];
        let mut attempts = vec![0usize; m];
        let mut report = ExecutionReport::default();
        if !changed.is_empty() {
            let tasks: Vec<_> = changed.iter().map(|&i| make_task(i, 0)).collect();
            let assignment =
                generic_schedule(changed.len(), self.config.n_workers.min(changed.len()))?;
            let (outcomes, first_report) =
                executor.run_with_report_isolated_observed(tasks, &assignment, Arc::clone(&obs))?;
            report = first_report;
            for (&i, outcome) in changed.iter().zip(outcomes) {
                attempts[i] = 1;
                match interpret_outcome(outcome)? {
                    Ok(ok) => fitted[i] = Some(ok),
                    Err(cause) => causes[i] = Some(cause),
                }
            }
            for attempt in 1..=self.config.max_model_retries {
                let pending: Vec<usize> = changed
                    .iter()
                    .copied()
                    .filter(|&i| causes[i].is_some())
                    .collect();
                if pending.is_empty() {
                    break;
                }
                let retry_tasks: Vec<_> = pending.iter().map(|&i| make_task(i, attempt)).collect();
                let retry_assignment =
                    generic_schedule(pending.len(), self.config.n_workers.min(pending.len()))?;
                let (retry_outcomes, retry_report) = executor.run_with_report_isolated_observed(
                    retry_tasks,
                    &retry_assignment,
                    Arc::clone(&obs),
                )?;
                obs.counter(Counter::Retry, pending.len() as u64);
                report.retries += pending.len();
                report.failures += retry_report.failures;
                report.steals += retry_report.steals;
                for (&i, outcome) in pending.iter().zip(retry_outcomes) {
                    attempts[i] += 1;
                    match interpret_outcome(outcome)? {
                        Ok(ok) => {
                            fitted[i] = Some(ok);
                            causes[i] = None;
                        }
                        Err(cause) => causes[i] = Some(cause),
                    }
                }
            }
        }
        if let Some(cache) = &cache {
            let stats = cache.stats();
            report.cache_hits = stats.hits;
            report.cache_misses = stats.misses;
            report.cache_build_time = stats.build_time;
        }

        // Health + degradation floor over the NEW pool. Reused models are
        // healthy with zero attempts this round; stragglers are a
        // wall-clock property of a full fit and stay unset here.
        let health = ModelHealth::new(
            (0..m)
                .map(|i| ModelReport {
                    index: i,
                    name: self.config.base_estimators[i].name(),
                    status: if reused[i].is_some() || fitted[i].is_some() {
                        ModelStatus::Healthy
                    } else {
                        ModelStatus::Quarantined
                    },
                    cause: causes[i].clone(),
                    attempts: attempts[i],
                    straggler: false,
                })
                .collect(),
        );
        if health.quarantined() > 0 {
            obs.counter(Counter::Quarantine, health.quarantined() as u64);
        }
        let models_diag: Vec<ModelDiagnostics> = (0..m)
            .map(|i| ModelDiagnostics {
                index: i,
                name: self.config.base_estimators[i].name(),
                status: if reused[i].is_some() || fitted[i].is_some() {
                    ModelStatus::Healthy
                } else {
                    ModelStatus::Quarantined
                },
                attempts: attempts[i],
                straggler: false,
                fit_time: reused[i]
                    .as_ref()
                    .map(|mm| mm.fit_time)
                    .or_else(|| fitted[i].as_ref().map(|&(_, _, t)| t)),
                projected: reused[i]
                    .as_ref()
                    .map(|mm| mm.projector.is_some())
                    .unwrap_or_else(|| projectors[i].is_some()),
                approximated: false,
            })
            .collect();
        let n_healthy = health.healthy();
        let required =
            (((self.config.min_healthy_fraction * m as f64) - 1e-9).ceil() as usize).max(1);
        let ann_fallbacks = cache.as_ref().map_or(0, |c| c.stats().ann_fallbacks);
        self.diagnostics = Some(FitDiagnostics::new(
            report,
            health,
            models_diag,
            CpuFeatures::detect(self.config.kernel.precision, self.config.kernel.neighbor),
            ann_fallbacks,
        ));
        if n_healthy < required {
            let cause = causes
                .iter()
                .flatten()
                .next()
                .cloned()
                .expect("a degraded pool records at least one failure cause");
            self.state = None;
            self.warm = None;
            return Err(Error::PoolDegraded {
                healthy: n_healthy,
                total: m,
                required,
                cause,
            });
        }

        // Assemble: PSA for changed costly models, then merge reused and
        // fresh models in pool order.
        let mut new_fitted: Vec<Option<FittedModel>> = (0..m).map(|_| None).collect();
        for &i in &changed {
            if let Some((detector, train_scores, fit_time)) = fitted[i].take() {
                new_fitted[i] = Some(FittedModel {
                    spec: self.config.base_estimators[i],
                    pool_index: i,
                    detector,
                    projector: projectors[i].take(),
                    approximator: None,
                    train_scores,
                    fit_time,
                });
            }
        }
        if self.config.approx_enabled {
            for &i in &changed {
                if let Some(model) = new_fitted[i].as_mut() {
                    if model.spec.is_costly() {
                        let _span = suod_observe::span(
                            obs.as_ref(),
                            Stage::PsaDistill,
                            SpanAttrs::model(i),
                        );
                        model.approximator = Some(fit_approximator(
                            &self.config.approx_spec,
                            &spaces[i],
                            &model.train_scores,
                            self.model_seed(i) ^ 0xA55A,
                        )?);
                    }
                }
            }
        }
        let mut models: Vec<Arc<FittedModel>> = Vec::with_capacity(n_healthy);
        for i in 0..m {
            if let Some(mm) = &reused[i] {
                models.push(Arc::clone(mm));
            } else if let Some(model) = new_fitted[i].take() {
                models.push(Arc::new(model));
            }
        }
        if let Some(diag) = self.diagnostics.as_mut() {
            for model in &models {
                if let Some(row) = diag.models_mut().get_mut(model.pool_index) {
                    row.approximated = model.approximator.is_some();
                }
            }
        }

        // Standardization reference + threshold over the FULL new
        // ensemble (identical formulas to a cold fit).
        let (score_means, score_stds, threshold) = {
            let _span = suod_observe::span(obs.as_ref(), Stage::Threshold, SpanAttrs::none());
            let score_means: Vec<f64> = models
                .iter()
                .map(|m| suod_linalg::stats::mean(&m.train_scores))
                .collect();
            let score_stds: Vec<f64> = models
                .iter()
                .map(|m| suod_linalg::stats::std_dev(&m.train_scores).max(1e-12))
                .collect();
            let train_matrix = scores_to_matrix(
                models.iter().map(|m| m.train_scores.clone()).collect(),
                x.nrows(),
            )?;
            let combined = combine_standardized(&train_matrix, &score_means, &score_stds, None);
            let n_out = ((x.nrows() as f64) * self.config.contamination).round() as usize;
            let n_out = n_out.clamp(1, x.nrows());
            let threshold = suod_linalg::rank::kth_largest(&combined, n_out)
                .expect("n_out within bounds by construction");
            (score_means, score_stds, threshold)
        };

        self.state = Some(Arc::new(FittedState::new(
            models,
            threshold,
            d,
            score_means,
            score_stds,
        )));
        self.warm = Some(WarmContext {
            cache: cache.clone(),
            train_fingerprint: fp,
        });
        Ok(self)
    }

    fn state(&self) -> Result<&Arc<FittedState>> {
        self.state.as_ref().ok_or(Error::NotFitted)
    }

    /// Returns the persistent pool, creating it on first use (or when the
    /// configured worker count changed since it was built).
    fn executor_for_run(&mut self) -> Result<Arc<WorkStealingExecutor>> {
        match &self.executor {
            Some(e) if e.n_workers() == self.config.n_workers => Ok(Arc::clone(e)),
            _ => {
                let e = Arc::new(WorkStealingExecutor::new(self.config.n_workers)?);
                self.executor = Some(Arc::clone(&e));
                Ok(e)
            }
        }
    }

    /// Unified diagnostics from the most recent [`fit`](Self::fit):
    /// execution telemetry ([`FitDiagnostics::execution`]), per-model
    /// health ([`FitDiagnostics::health`]), and per-model rows joining
    /// fit time with the projection/approximation decisions
    /// ([`FitDiagnostics::models`]). Available even when `fit` failed
    /// with [`Error::PoolDegraded`]; `None` before the first fit reaches
    /// the execution stage.
    pub fn diagnostics(&self) -> Option<&FitDiagnostics> {
        self.diagnostics.as_ref()
    }

    /// Per-model prediction cost forecast (the cost model's unitless
    /// scale) for the given [active units](FittedState::active_units),
    /// indexed by surviving-ensemble position; zero for models in none of
    /// them. Nominal 1.0 for approximated models (cheap forest lookups),
    /// the analytic forecast for a model scoring alone, and for the
    /// members of a shared-query unit one index sweep split between them
    /// plus each member's epilogue ([`shared_query_costs`]).
    fn predict_model_costs(&self, state: &FittedState, units: &[Vec<usize>]) -> Vec<f64> {
        let meta = DatasetMeta::from_shape(state.models[0].train_scores.len(), state.n_features);
        let cost_model = self.config.cost_model.as_ref();
        let mut costs = vec![0.0; state.models.len()];
        for members in units {
            if state.shared_query(members).is_some() {
                let tasks: Vec<_> = members
                    .iter()
                    .map(|&mi| state.models[mi].spec.task_descriptor())
                    .collect();
                for (&mi, cost) in members
                    .iter()
                    .zip(shared_query_costs(cost_model, &tasks, &meta))
                {
                    costs[mi] = cost;
                }
            } else {
                for &mi in members {
                    let model = &state.models[mi];
                    costs[mi] = if model.approximator.is_some() {
                        1.0
                    } else {
                        cost_model.predict_cost(&model.spec.task_descriptor(), &meta)
                    };
                }
            }
        }
        costs
    }

    /// BPS applies to "both training and prediction stage" (paper §3.5).
    /// Prediction work is split into (unit x row-chunk) tasks, ordered
    /// unit-major; each task's cost is the unit's forecast (the sum of
    /// its active members' [`predict_model_costs`](Self::predict_model_costs))
    /// scaled by the chunk's share of the query rows.
    fn prediction_schedule(
        &self,
        unit_costs: &[f64],
        chunks: &[std::ops::Range<usize>],
    ) -> Result<Assignment> {
        let n_tasks = unit_costs.len() * chunks.len();
        let t = self.config.n_workers;
        if t <= 1 || !self.config.bps_enabled {
            return Ok(generic_schedule(n_tasks, t.max(1))?);
        }
        let chunk_lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let costs = suod_scheduler::predict_chunk_costs(unit_costs, &chunk_lens);
        Ok(bps_schedule(&costs, t, self.config.bps_alpha)?)
    }

    /// Per-model outlyingness scores for new samples: an `n x m` matrix
    /// with one column per surviving base estimator. Costly models answer
    /// through their PSA approximators when approximation is enabled.
    ///
    /// Scoring is **fault-isolated per model**: a model that panics,
    /// returns a typed error, or emits non-finite query scores
    /// contributes an all-NaN column (the quarantined-column convention
    /// the [`suod_metrics`] combiners skip) instead of failing the whole
    /// call. Use [`decision_function_observed`](Self::decision_function_observed)
    /// to recover the per-model failure causes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`, plus query validation
    /// failures (dimension mismatch, non-finite input).
    pub fn decision_function(&self, x: &Matrix) -> Result<Matrix> {
        let obs = Arc::clone(&self.config.observer);
        self.predict_isolated(x, None, &obs).map(|(out, _)| out)
    }

    /// Like [`decision_function`](Self::decision_function) but also
    /// returns a [`PredictReport`]: per-model scoring durations (the true
    /// prediction cost vector consumed by the scheduling-simulation
    /// harnesses — Table 4 / IQVIA reproductions), the predict-phase
    /// executor telemetry ([`ExecutionReport`] failure/steal/straggler
    /// counters), and one [`PredictFailure`] per model whose column was
    /// replaced by NaN.
    ///
    /// Span attribution ([`Stage::PredictChunk`], one per model and row
    /// chunk) uses the model's position in the **surviving** ensemble
    /// (quarantined models never predict); each neighbour query a unit of
    /// proximity models shares is one [`Stage::NeighborQuery`] span.
    /// Observation does not change any computed value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decision_function`](Self::decision_function).
    pub fn decision_function_observed(
        &self,
        x: &Matrix,
        observer: &Arc<dyn Observer>,
    ) -> Result<(Matrix, PredictReport)> {
        self.predict_isolated(x, None, observer)
    }

    /// Like [`decision_function_observed`](Self::decision_function_observed)
    /// but scores only the models whose `active` flag is set (indexed by
    /// position in the surviving ensemble). Masked-out models get all-NaN
    /// columns, zero model time, and **no scheduled work** — the
    /// mechanism a serving layer uses to keep predict-quarantined models
    /// out of the hot path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decision_function`](Self::decision_function),
    /// plus [`Error::InvalidConfig`] when `active.len()` differs from the
    /// surviving-model count.
    pub fn decision_function_masked(
        &self,
        x: &Matrix,
        active: &[bool],
        observer: &Arc<dyn Observer>,
    ) -> Result<(Matrix, PredictReport)> {
        self.predict_isolated(x, Some(active), observer)
    }

    /// The fault-isolated prediction engine shared by
    /// [`decision_function`](Self::decision_function) and its observed /
    /// masked variants: runs the (unit x row-chunk) task grid on the
    /// persistent executor, turns every per-model failure into an all-NaN
    /// column, and assembles the telemetry.
    ///
    /// A unit ([`FittedState::units`]) is one model, or the proximity
    /// models that fit left reading one input space through one neighbour
    /// index. Its task prepares the input once (row slab, projection),
    /// runs **one** neighbour query at the largest `k` an *active* member
    /// asks for, and then scores each active member from its sorted
    /// prefix of that answer under the member's own `catch_unwind` — so a
    /// member that panics or returns NaN loses its own column and nothing
    /// else, while a failure of the shared stage fails every member of
    /// the unit with the same typed cause.
    fn predict_isolated(
        &self,
        x: &Matrix,
        active: Option<&[bool]>,
        observer: &Arc<dyn Observer>,
    ) -> Result<(Matrix, PredictReport)> {
        let state = Arc::clone(self.state()?);
        if x.ncols() != state.n_features {
            return Err(Error::InvalidConfig(format!(
                "expected {} features, got {}",
                state.n_features,
                x.ncols()
            )));
        }
        validate_finite(x, "decision_function").map_err(Error::Detector)?;
        let m = state.models.len();
        if let Some(mask) = active {
            if mask.len() != m {
                return Err(Error::InvalidConfig(format!(
                    "active mask covers {} models, surviving ensemble has {m}",
                    mask.len()
                )));
            }
        }
        let executor = self.executor.as_ref().ok_or(Error::NotFitted)?;
        let wall_start = Instant::now();
        let _predict_span =
            suod_observe::span(observer.as_ref(), Stage::Predict, SpanAttrs::none());
        let n = x.nrows();
        let skipped: Vec<usize> = (0..m).filter(|&i| !active.is_none_or(|a| a[i])).collect();

        let units = state.active_units(active);
        if units.is_empty() {
            let report = PredictReport {
                model_times: vec![Duration::ZERO; m],
                wall_time: wall_start.elapsed(),
                n_rows: n,
                execution: ExecutionReport::default(),
                failures: Vec::new(),
                skipped,
            };
            return Ok((Matrix::from_vec(n, m, vec![f64::NAN; n * m])?, report));
        }

        let chunks = predict_chunks(n);
        let n_chunks = chunks.len();
        let model_costs = self.predict_model_costs(&state, &units);
        let unit_costs: Vec<f64> = units
            .iter()
            .map(|members| members.iter().map(|&mi| model_costs[mi]).sum())
            .collect();
        let assignment = self.prediction_schedule(&unit_costs, &chunks)?;

        // (unit x row-chunk) tasks, unit-major over the active units. One
        // row slab per chunk, shared by every task of that chunk. Every
        // detector scores rows independently and standardization uses
        // training statistics, so chunk boundaries cannot change any
        // value — scores are bit-identical to a sequential whole-matrix
        // pass at any worker count.
        let slabs: Vec<Arc<Matrix>> = chunks.iter().map(|c| Arc::new(row_slab(x, c))).collect();
        let mut tasks: Vec<Box<dyn FnOnce() -> UnitChunk + Send>> =
            Vec::with_capacity(units.len() * n_chunks);
        for (ui, members) in units.iter().enumerate() {
            for (ci, slab) in slabs.iter().enumerate() {
                let state = Arc::clone(&state);
                let members = members.clone();
                let slab = Arc::clone(slab);
                let task_obs = Arc::clone(observer);
                let task_index = ui * n_chunks + ci;
                tasks.push(Box::new(move || {
                    score_unit_chunk(&state, &members, &slab, task_obs.as_ref(), task_index)
                }));
            }
        }

        let (outcomes, mut execution) =
            executor.run_with_report_isolated_observed(tasks, &assignment, Arc::clone(observer))?;

        // Per-model reassembly: the first failed chunk quarantines the
        // whole column (partial columns would silently shift the
        // combiner's average). A model's measured time is its own scoring
        // time plus an equal share of what its unit's tasks spent on the
        // shared stage, so the times still sum to the executor's task
        // times — the work was performed, whatever its outcome.
        let mut model_times = vec![Duration::ZERO; m];
        let mut failures: Vec<PredictFailure> = Vec::new();
        let mut columns: Vec<Option<Vec<Vec<f64>>>> = (0..m).map(|_| None).collect();
        let mut member_panics = 0usize;
        let mut outcomes = outcomes.into_iter();
        for (ui, members) in units.iter().enumerate() {
            let mut parts: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(n_chunks); members.len()];
            let mut causes: Vec<Option<suod_detectors::Error>> = vec![None; members.len()];
            for (ci, chunk) in chunks.iter().enumerate() {
                let task_time = execution
                    .task_times
                    .get(ui * n_chunks + ci)
                    .copied()
                    .unwrap_or(Duration::ZERO);
                let scored: Vec<MemberChunk> = match outcomes.next().expect("one outcome per task")
                {
                    Ok(Ok(scored)) => scored,
                    // The shared stage failed (typed, or a panic the
                    // executor caught): every member fails alike.
                    Ok(Err(cause)) => vec![(Ok(Err(cause)), Duration::ZERO); members.len()],
                    Err(panic) => vec![(Err(panic), Duration::ZERO); members.len()],
                };
                let own: Duration = scored.iter().map(|(_, took)| *took).sum();
                let share = task_time.saturating_sub(own) / members.len() as u32;
                for (slot, (caught, took)) in scored.into_iter().enumerate() {
                    model_times[members[slot]] += took + share;
                    if causes[slot].is_some() {
                        continue;
                    }
                    causes[slot] = match caught {
                        Err(panic) => {
                            member_panics += 1;
                            Some(suod_detectors::Error::Panicked(panic.message))
                        }
                        Ok(Err(e)) => Some(e),
                        Ok(Ok(part)) if part.len() != chunk.len() => {
                            Some(suod_detectors::Error::DegenerateData(format!(
                                "model produced {} scores for {} samples",
                                part.len(),
                                chunk.len()
                            )))
                        }
                        Ok(Ok(part)) if part.iter().any(|v| !v.is_finite()) => {
                            Some(suod_detectors::Error::DegenerateData(
                                "model produced non-finite prediction scores".into(),
                            ))
                        }
                        Ok(Ok(part)) => {
                            parts[slot].push(part);
                            None
                        }
                    };
                }
            }
            for ((&mi, cause), parts) in members.iter().zip(causes).zip(parts) {
                match cause {
                    Some(cause) => failures.push(PredictFailure {
                        index: state.models[mi].pool_index,
                        name: state.models[mi].spec.name(),
                        cause,
                    }),
                    None => columns[mi] = Some(parts),
                }
            }
        }
        failures.sort_by_key(|f| f.index);
        // Panics caught at a member's own boundary never reach the
        // executor's; report them through the same two channels. A panic of
        // a task's shared stage was counted by the executor, once.
        if member_panics > 0 {
            execution.failures += member_panics;
            observer.counter(Counter::TaskFailure, member_panics as u64);
        }

        // The output in one pass, row-major: a model without a column
        // (masked out, or failed) reads NaN — a constant, so those columns
        // are as bit-reproducible as healthy ones.
        let mut data = Vec::with_capacity(n * m);
        for (ci, chunk) in chunks.iter().enumerate() {
            for offset in 0..chunk.len() {
                data.extend(
                    columns
                        .iter()
                        .map(|column| column.as_ref().map_or(f64::NAN, |parts| parts[ci][offset])),
                );
            }
        }
        let out = Matrix::from_vec(n, m, data)?;

        // Straggler flagging mirrors fit: measured model time far past
        // its forecast-implied share of the pass (and non-trivial in
        // absolute terms). Wall-clock-dependent, excluded from
        // determinism guarantees.
        let total_pred: f64 = model_costs.iter().sum();
        let total_measured: f64 = model_times.iter().map(Duration::as_secs_f64).sum();
        let mut stragglers = Vec::new();
        if total_pred > 0.0 && total_measured > 0.0 {
            for (mi, measured) in model_times.iter().map(Duration::as_secs_f64).enumerate() {
                let expected = model_costs[mi] / total_pred * total_measured;
                if measured > self.config.straggler_factor * expected && measured > 0.05 {
                    stragglers.push(mi);
                }
            }
        }
        execution.stragglers = stragglers;
        if !execution.stragglers.is_empty() {
            observer.counter(Counter::Straggler, execution.stragglers.len() as u64);
        }

        let report = PredictReport {
            model_times,
            wall_time: wall_start.elapsed(),
            n_rows: n,
            execution,
            failures,
            skipped,
        };
        Ok((out, report))
    }

    /// The same `min_healthy_fraction` floor [`fit`](Self::fit) enforces,
    /// applied to a prediction pass: models that failed to score (or were
    /// masked out) count against the floor, computed over the
    /// **configured** pool size so fit-time and predict-time quarantines
    /// draw from one shared budget.
    fn enforce_predict_floor(&self, report: &PredictReport) -> Result<()> {
        let total = self.config.base_estimators.len();
        let required =
            (((self.config.min_healthy_fraction * total as f64) - 1e-9).ceil() as usize).max(1);
        let healthy = report.healthy_models();
        if healthy < required {
            let cause = report.failures.first().map(|f| f.cause.clone()).unwrap_or(
                suod_detectors::Error::DegenerateData(
                    "all remaining models were masked out at predict time".into(),
                ),
            );
            return Err(Error::PoolDegraded {
                healthy,
                total,
                required,
                cause,
            });
        }
        Ok(())
    }

    /// Ensemble score per sample: the average of the base-model columns
    /// after z-scoring each against its **training** score distribution
    /// (the paper's `Avg_` combiner; training-statistics standardization
    /// keeps single-sample queries meaningful). Models that fail at
    /// predict time are skipped from the average (survivor-only
    /// combination), subject to the `min_healthy_fraction` floor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decision_function`](Self::decision_function),
    /// plus [`Error::PoolDegraded`] when predict-time failures push the
    /// healthy count below the `min_healthy_fraction` floor.
    pub fn combined_scores(&self, x: &Matrix) -> Result<Vec<f64>> {
        let state = Arc::clone(self.state()?);
        let obs = Arc::clone(&self.config.observer);
        let (scores, report) = self.predict_isolated(x, None, &obs)?;
        self.enforce_predict_floor(&report)?;
        Ok(combine_standardized(
            &scores,
            &state.score_means,
            &state.score_stds,
            None,
        ))
    }

    /// Maximum-of-average combination with `n_buckets` buckets (the
    /// paper's `MOA_` combiner from Table 4), standardized against the
    /// training score distribution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`combined_scores`](Self::combined_scores),
    /// plus [`Error::InvalidConfig`] when `n_buckets == 0`.
    pub fn combined_scores_moa(&self, x: &Matrix, n_buckets: usize) -> Result<Vec<f64>> {
        if n_buckets == 0 {
            return Err(Error::InvalidConfig("n_buckets must be >= 1".into()));
        }
        let state = Arc::clone(self.state()?);
        let obs = Arc::clone(&self.config.observer);
        let (scores, report) = self.predict_isolated(x, None, &obs)?;
        self.enforce_predict_floor(&report)?;
        Ok(combine_standardized(
            &scores,
            &state.score_means,
            &state.score_stds,
            Some(n_buckets),
        ))
    }

    /// Binary outlier labels for new samples, thresholding the combined
    /// score at the contamination quantile learned on the training set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decision_function`](Self::decision_function).
    pub fn predict(&self, x: &Matrix) -> Result<Vec<i32>> {
        let state = self.state()?;
        let combined = self.combined_scores(x)?;
        Ok(combined
            .iter()
            .map(|&s| i32::from(s >= state.threshold))
            .collect())
    }

    /// Outlier probability estimates in `[0, 1]`: the combined score
    /// min-max scaled by the training set's combined-score range (PyOD's
    /// `predict_proba` with linear scaling). Scores beyond the training
    /// range clamp to 0/1.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decision_function`](Self::decision_function).
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let train = self.training_combined_scores()?;
        let lo = suod_linalg::stats::min(&train);
        let hi = suod_linalg::stats::max(&train);
        let span = (hi - lo).max(1e-12);
        let combined = self.combined_scores(x)?;
        Ok(combined
            .iter()
            .map(|&s| ((s - lo) / span).clamp(0.0, 1.0))
            .collect())
    }

    /// Combined (averaged, train-standardized) scores of the training
    /// rows themselves — PyOD's `decision_scores_` for the ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn training_combined_scores(&self) -> Result<Vec<f64>> {
        let state = self.state()?;
        let train_matrix = scores_to_matrix(
            state
                .models
                .iter()
                .map(|m| m.train_scores.clone())
                .collect(),
            state.models[0].train_scores.len(),
        )?;
        Ok(combine_standardized(
            &train_matrix,
            &state.score_means,
            &state.score_stds,
            None,
        ))
    }

    /// The decision threshold learned at fit time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn threshold(&self) -> Result<f64> {
        Ok(self.state()?.threshold)
    }

    /// Number of features the estimator was fitted on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn n_features(&self) -> Result<usize> {
        Ok(self.state()?.n_features)
    }

    /// Number of training rows — the reference scale for prediction-cost
    /// forecasts (see [`suod_scheduler::predict_batch_forecast`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn train_rows(&self) -> Result<usize> {
        Ok(self.state()?.models[0].train_scores.len())
    }

    /// `(pool index, algorithm name)` of each surviving model, in
    /// surviving-ensemble order — the column order of
    /// [`decision_function`](Self::decision_function) and the index space
    /// of per-model masks. Pool indices are stable across fit-time
    /// quarantines and match [`ModelReport`] indices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn surviving_models(&self) -> Result<Vec<(usize, &'static str)>> {
        let state = self.state()?;
        Ok(state
            .models
            .iter()
            .map(|m| (m.pool_index, m.spec.name()))
            .collect())
    }

    /// Per-surviving-model prediction cost forecast in the cost model's
    /// unitless scale (nominal 1.0 for approximated models, which answer
    /// through cheap forest lookups; proximity models that share one
    /// neighbour query at predict split one index sweep between them, so
    /// the sum charges it once). Combine with
    /// [`train_rows`](Self::train_rows) and
    /// [`suod_scheduler::predict_batch_forecast`] to size serving
    /// micro-batches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn predict_unit_costs(&self) -> Result<Vec<f64>> {
        let state = self.state()?;
        Ok(self.predict_model_costs(state, &state.active_units(None)))
    }

    /// Combines an already-computed `n x m` per-model score matrix (as
    /// returned by [`decision_function`](Self::decision_function) or
    /// [`decision_function_masked`](Self::decision_function_masked)) with
    /// the training-statistics average combiner. Non-finite columns are
    /// skipped per row, so a serving layer can score once and combine
    /// survivor-only without a second prediction pass.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit` and
    /// [`Error::InvalidConfig`] on a column-count mismatch.
    pub fn combine_score_matrix(&self, scores: &Matrix) -> Result<Vec<f64>> {
        let state = self.state()?;
        if scores.ncols() != state.models.len() {
            return Err(Error::InvalidConfig(format!(
                "score matrix has {} columns, surviving ensemble has {}",
                scores.ncols(),
                state.models.len()
            )));
        }
        Ok(combine_standardized(
            scores,
            &state.score_means,
            &state.score_stds,
            None,
        ))
    }

    /// Per-model training scores (`m` columns), the pseudo ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn training_scores(&self) -> Result<Matrix> {
        let state = self.state()?;
        scores_to_matrix(
            state
                .models
                .iter()
                .map(|m| m.train_scores.clone())
                .collect(),
            state.models[0].train_scores.len(),
        )
    }

    /// Aggregated per-feature importances from the PSA approximators — the
    /// interpretability dividend of pseudo-supervised approximation (§3.4,
    /// Remark 1). Importances are averaged over approximators that were
    /// trained **in the original feature space** (projected models mix
    /// features through `W`, so their importances are not attributable to
    /// input columns) and normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit` and
    /// [`Error::InvalidConfig`] when no unprojected approximator exists
    /// (enable approximation, or disable projection for at least one
    /// costly model).
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        let state = self.state()?;
        let mut acc = vec![0.0; state.n_features];
        let mut count = 0usize;
        for model in &state.models {
            if model.projector.is_some() {
                continue;
            }
            if let Some(imp) = model
                .approximator
                .as_ref()
                .and_then(|a| a.feature_importances())
            {
                for (a, v) in acc.iter_mut().zip(imp) {
                    *a += v;
                }
                count += 1;
            }
        }
        if count == 0 {
            return Err(Error::InvalidConfig(
                "no unprojected approximator provides feature importances".into(),
            ));
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        Ok(acc)
    }

    /// Simulates the fit makespan of this pool's **measured** costs under
    /// an arbitrary worker count, for both generic and BPS scheduling.
    /// Returns `(generic, bps)` simulation results. Used by the Table 3/4
    /// reproduction harnesses (see DESIGN.md §4 on the single-core host).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit` and propagates scheduler
    /// failures.
    pub fn simulate_fit_schedules(&self, t: usize) -> Result<(SimulationResult, SimulationResult)> {
        let state = self.state()?;
        let costs: Vec<f64> = state
            .models
            .iter()
            .map(|m| m.fit_time.as_secs_f64())
            .collect();
        let generic = simulate_makespan(&costs, &generic_schedule(costs.len(), t)?)?;
        // BPS schedules on *forecasted* costs, evaluated against true ones.
        let tasks: Vec<_> = state
            .models
            .iter()
            .map(|m| m.spec.task_descriptor())
            .collect();
        let meta = DatasetMeta::from_shape(state.models[0].train_scores.len(), state.n_features);
        let predicted = self.config.cost_model.predict_costs(&tasks, &meta);
        let bps = simulate_makespan(&costs, &bps_schedule(&predicted, t, self.config.bps_alpha)?)?;
        Ok((generic, bps))
    }
}

/// Combines an `n x m` score matrix after z-scoring each column against
/// the given training means/stds: plain row average when `buckets` is
/// `None`, maximum-of-average over `b` contiguous buckets otherwise.
///
/// Non-finite entries — the all-NaN columns of models quarantined or
/// masked out at predict time — are **skipped**: each row averages over
/// its finite entries only, so survivor combination is unchanged by how
/// many columns dropped out. A row with no finite entries yields NaN
/// (callers enforce the healthy-model floor before trusting the output).
/// When every entry is finite the result is bit-identical to the
/// unconditional average.
fn combine_standardized(
    scores: &Matrix,
    means: &[f64],
    stds: &[f64],
    buckets: Option<usize>,
) -> Vec<f64> {
    let m = scores.ncols();
    let row_score = |row: &[f64]| -> Vec<f64> {
        row.iter()
            .zip(means)
            .zip(stds)
            .map(|((&v, &mu), &sd)| (v - mu) / sd)
            .collect()
    };
    let finite_mean = |z: &[f64]| -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &v in z {
            if v.is_finite() {
                sum += v;
                count += 1;
            }
        }
        if count == 0 {
            f64::NAN
        } else {
            sum / count as f64
        }
    };
    match buckets {
        None => scores
            .rows_iter()
            .map(|row| finite_mean(&row_score(row)))
            .collect(),
        Some(b) => {
            let b = b.clamp(1, m.max(1));
            let base = m / b;
            let extra = m % b;
            let mut ranges = Vec::with_capacity(b);
            let mut start = 0;
            for i in 0..b {
                let len = base + usize::from(i < extra);
                ranges.push((start, start + len));
                start += len;
            }
            scores
                .rows_iter()
                .map(|row| {
                    let z = row_score(row);
                    let best = ranges
                        .iter()
                        .map(|&(s, e)| finite_mean(&z[s..e]))
                        .filter(|v| v.is_finite())
                        .fold(f64::NEG_INFINITY, f64::max);
                    if best.is_finite() {
                        best
                    } else {
                        f64::NAN
                    }
                })
                .collect()
        }
    }
}

/// Hashable identity of a [`DistanceMetric`] for grouping cache entries
/// (the enum itself carries an `f64` exponent, so it is not `Eq`/`Hash`).
fn metric_key(m: DistanceMetric) -> (u8, u64) {
    match m {
        DistanceMetric::Euclidean => (0, 0),
        DistanceMetric::Manhattan => (1, 0),
        DistanceMetric::Minkowski(p) => (2, p.to_bits()),
    }
}

/// Splits `0..n` into fixed-width row chunks for prediction tasks. An
/// empty query keeps one empty chunk so the output matrix still gets its
/// `m` columns.
fn predict_chunks(n: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    (0..n)
        .step_by(PREDICT_ROW_CHUNK)
        .map(|start| start..(start + PREDICT_ROW_CHUNK).min(n))
        .collect()
}

/// What one member of a unit produced for one row chunk — its scores or
/// typed failure, or the panic caught at its own fault boundary — and how
/// long its own scoring took.
type MemberChunk = (
    std::result::Result<std::result::Result<Vec<f64>, suod_detectors::Error>, TaskFailure>,
    Duration,
);

/// A unit task's output: one [`MemberChunk`] per active member, or the
/// typed failure of the stage the members share (projection, neighbour
/// query).
type UnitChunk = std::result::Result<Vec<MemberChunk>, suod_detectors::Error>;

/// Scores one row chunk with the active `members` of one prediction unit
/// (see [`Suod::predict_isolated`]).
fn score_unit_chunk(
    state: &FittedState,
    members: &[usize],
    slab: &Matrix,
    observer: &dyn Observer,
    task_index: usize,
) -> UnitChunk {
    // Shared stage: the unit's input space, then one index walk.
    let lead = &state.models[members[0]];
    let projected;
    let z: &Matrix = match &lead.projector {
        Some(p) => {
            projected = p.transform(slab).map_err(|e| {
                suod_detectors::Error::DegenerateData(format!("projection failed at predict: {e}"))
            })?;
            &projected
        }
        None => slab,
    };
    let lists = match state.shared_query(members) {
        Some((index, k_max)) => {
            let _span =
                suod_observe::span(observer, Stage::NeighborQuery, SpanAttrs::task(task_index));
            Some(index.query_batch(z, k_max)?)
        }
        None => None,
    };
    Ok(members
        .iter()
        .map(|&mi| {
            let model = &state.models[mi];
            let _span = suod_observe::span(
                observer,
                Stage::PredictChunk,
                SpanAttrs::model(mi).with_task(task_index),
            );
            let start = Instant::now();
            let scores = catch_unwind(AssertUnwindSafe(|| {
                match (&lists, model.neighbor_query()) {
                    // Lists are sorted by (distance, index) and the unit's
                    // members are prefix-exact, so the first k entries are
                    // this member's own query answer.
                    (Some(lists), Some((_, k))) => {
                        let prefixes: Vec<&[Neighbor]> =
                            lists.iter().map(|nn| &nn[..k.min(nn.len())]).collect();
                        model.detector.score_from_neighbors(z, &prefixes)
                    }
                    _ => match &model.approximator {
                        Some(r) => r.predict(z).map_err(|e| {
                            suod_detectors::Error::DegenerateData(format!(
                                "approximator prediction failed: {e}"
                            ))
                        }),
                        None => model.detector.decision_function(z),
                    },
                }
            }))
            .map_err(TaskFailure::from_payload);
            (scores, start.elapsed())
        })
        .collect())
}

/// Copies a contiguous row range of `x` into its own matrix.
fn row_slab(x: &Matrix, range: &std::ops::Range<usize>) -> Matrix {
    let cols = x.ncols();
    let data = x.as_slice()[range.start * cols..range.end * cols].to_vec();
    Matrix::from_vec(range.len(), cols, data).expect("slab dimensions are consistent")
}

/// Assembles per-model score columns into an `n x m` matrix.
fn scores_to_matrix(columns: Vec<Vec<f64>>, n: usize) -> Result<Matrix> {
    let m = columns.len();
    let mut out = Matrix::zeros(n, m);
    for (c, col) in columns.iter().enumerate() {
        if col.len() != n {
            return Err(Error::InvalidConfig(format!(
                "model {c} produced {} scores for {n} samples",
                col.len()
            )));
        }
        for (r, &v) in col.iter().enumerate() {
            out.set(r, c, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_detectors::KnnMethod;
    use suod_linalg::DistanceMetric;

    fn small_pool() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Largest,
            },
            ModelSpec::Lof {
                n_neighbors: 5,
                metric: DistanceMetric::Euclidean,
            },
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
            ModelSpec::IForest {
                n_estimators: 20,
                max_features: 0.8,
            },
        ]
    }

    fn data() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                vec![
                    (i % 10) as f64 * 0.2,
                    (i / 10) as f64 * 0.2,
                    ((i * 3) % 7) as f64 * 0.1,
                    ((i * 5) % 11) as f64 * 0.1,
                ]
            })
            .collect();
        rows.push(vec![8.0, 8.0, 8.0, 8.0]);
        rows.push(vec![-8.0, 9.0, -8.0, 9.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    fn fitted(builder: SuodBuilder) -> Suod {
        let mut clf = builder
            .base_estimators(small_pool())
            .seed(3)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        clf
    }

    #[test]
    fn fit_predict_end_to_end() {
        let clf = fitted(Suod::builder().contamination(0.05));
        let x = data();
        let scores = clf.decision_function(&x).unwrap();
        assert_eq!(scores.shape(), (62, 4));
        let combined = clf.combined_scores(&x).unwrap();
        // The two planted outliers top the combined ranking.
        let order = suod_linalg::rank::argsort_desc(&combined);
        assert!(order[..2].contains(&60) || order[..3].contains(&60));
        assert!(order[..3].contains(&61));
        let labels = clf.predict(&x).unwrap();
        assert_eq!(labels.len(), 62);
        assert!(labels.iter().sum::<i32>() >= 1);
    }

    #[test]
    fn module_flags_respected() {
        let clf = fitted(
            Suod::builder()
                .with_projection(true)
                .with_approximation(true),
        );
        let diag = clf.diagnostics().unwrap();
        // kNN and LOF are projection-friendly and costly; HBOS/iForest not.
        assert_eq!(diag.projected(), vec![true, true, false, false]);
        assert_eq!(diag.approximated(), vec![true, true, false, false]);

        let off = fitted(
            Suod::builder()
                .with_projection(false)
                .with_approximation(false),
        );
        let off_diag = off.diagnostics().unwrap();
        assert!(off_diag.projected().iter().all(|&b| !b));
        assert!(off_diag.approximated().iter().all(|&b| !b));
    }

    #[test]
    fn multi_worker_matches_single_worker_scores() {
        // Scheduling must not change results, only timing.
        let seq = fitted(Suod::builder().n_workers(1));
        let par = fitted(Suod::builder().n_workers(3).with_bps(true));
        let x = data();
        let a = seq.decision_function(&x).unwrap();
        let b = par.decision_function(&x).unwrap();
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn approximation_off_means_exact_detector_scores() {
        let clf = fitted(
            Suod::builder()
                .with_projection(false)
                .with_approximation(false),
        );
        let x = data();
        let scores = clf.decision_function(&x).unwrap();
        // Column 2 is HBOS; must equal a standalone HBOS fit.
        let mut hbos = ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        }
        .build(0)
        .unwrap();
        hbos.fit(&x).unwrap();
        let expected = hbos.decision_function(&x).unwrap();
        for (r, &e) in expected.iter().enumerate() {
            assert!((scores.get(r, 2) - e).abs() < 1e-9);
        }
    }

    #[test]
    fn not_fitted_errors() {
        let clf = Suod::builder()
            .base_estimators(small_pool())
            .build()
            .unwrap();
        assert!(matches!(
            clf.decision_function(&data()).unwrap_err(),
            Error::NotFitted
        ));
        assert!(clf.predict(&data()).is_err());
        assert!(clf.threshold().is_err());
        assert!(clf.diagnostics().is_none());
    }

    #[test]
    fn builder_validation() {
        assert!(Suod::builder().build().is_err()); // empty pool
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .projection_fraction(0.0)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .n_workers(0)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .contamination(0.9)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .bps_alpha(-1.0)
            .build()
            .is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let clf = fitted(Suod::builder());
        assert!(clf.decision_function(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let x = data();
        let run = |seed: u64| {
            let mut clf = Suod::builder()
                .base_estimators(small_pool())
                .seed(seed)
                .build()
                .unwrap();
            clf.fit(&x).unwrap();
            clf.combined_scores(&x).unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn simulated_schedules_report_sane_makespans() {
        let clf = fitted(Suod::builder());
        let (generic, bps) = clf.simulate_fit_schedules(2).unwrap();
        assert!(generic.makespan > 0.0);
        assert!(bps.makespan > 0.0);
        assert!(generic.makespan <= generic.sequential_time + 1e-12);
        assert!(bps.makespan <= bps.sequential_time + 1e-12);
    }

    #[test]
    fn moa_combiner_available() {
        let clf = fitted(Suod::builder());
        let x = data();
        let m = clf.combined_scores_moa(&x, 2).unwrap();
        assert_eq!(m.len(), x.nrows());
    }

    #[test]
    fn fit_times_recorded() {
        let clf = fitted(Suod::builder());
        let diag = clf.diagnostics().unwrap();
        assert_eq!(diag.fit_times().len(), 4);
        assert_eq!(diag.models().len(), 4);
        assert!(diag.models().iter().all(|m| m.fit_time.is_some()));
        assert!(diag.models().iter().all(|m| m.attempts == 1));
    }

    #[test]
    fn feature_importances_highlight_outlier_axes() {
        // Outliers deviate along every axis equally here; importances must
        // exist, be normalized, and be finite.
        let mut clf = Suod::builder()
            .base_estimators(small_pool())
            .with_projection(false) // keep approximators in the original space
            .with_approximation(true)
            .seed(2)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        let imp = clf.feature_importances().unwrap();
        assert_eq!(imp.len(), 4);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn feature_importances_unavailable_when_all_projected_or_unapproximated() {
        let mut clf = Suod::builder()
            .base_estimators(small_pool())
            .with_approximation(false)
            .seed(2)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        assert!(matches!(
            clf.feature_importances().unwrap_err(),
            Error::InvalidConfig(_)
        ));
    }

    #[test]
    fn predict_proba_bounded_and_ordered() {
        let clf = fitted(Suod::builder());
        let x = data();
        let p = clf.predict_proba(&x).unwrap();
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Probabilities preserve the combined-score ordering.
        let c = clf.combined_scores(&x).unwrap();
        let order_p = suod_linalg::rank::argsort_desc(&p);
        let order_c = suod_linalg::rank::argsort_desc(&c);
        assert_eq!(order_p[0], order_c[0]);
        // Planted outliers sit near probability 1.
        assert!(p[60] > 0.8 || p[61] > 0.8, "{} {}", p[60], p[61]);
    }

    #[test]
    fn training_combined_scores_match_threshold() {
        let clf = fitted(Suod::builder().contamination(0.1));
        let train = clf.training_combined_scores().unwrap();
        let threshold = clf.threshold().unwrap();
        let flagged = train.iter().filter(|&&s| s >= threshold).count();
        // Threshold was chosen so ~10% of training rows flag.
        let expected = (train.len() as f64 * 0.1).round() as usize;
        assert!(flagged.abs_diff(expected) <= 2, "{flagged} vs {expected}");
    }

    #[test]
    fn neighbor_cache_bit_identical_and_counted() {
        // Three Euclidean proximity models on the unprojected space share
        // one neighbour graph: one miss (the k=7 builder) + two hits.
        let pool = vec![
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Largest,
            },
            ModelSpec::Lof {
                n_neighbors: 7,
                metric: DistanceMetric::Euclidean,
            },
            ModelSpec::Abod { n_neighbors: 4 },
        ];
        let x = data();
        let run = |cache_on: bool| {
            let mut clf = Suod::builder()
                .base_estimators(pool.clone())
                .with_projection(false)
                .with_approximation(false)
                .with_neighbor_cache(cache_on)
                .seed(1)
                .build()
                .unwrap();
            clf.fit(&x).unwrap();
            let exec = clf.diagnostics().unwrap().execution();
            let counters = (exec.cache_hits, exec.cache_misses);
            (
                clf.training_scores().unwrap(),
                clf.decision_function(&x).unwrap(),
                counters,
            )
        };
        let (ts_on, df_on, (hits, misses)) = run(true);
        let (ts_off, df_off, (hits_off, misses_off)) = run(false);
        assert_eq!(ts_on.as_slice(), ts_off.as_slice());
        assert_eq!(df_on.as_slice(), df_off.as_slice());
        assert_eq!((hits, misses), (2, 1));
        assert_eq!((hits_off, misses_off), (0, 0));
    }

    #[test]
    fn empty_data_rejected() {
        let mut clf = Suod::builder()
            .base_estimators(small_pool())
            .build()
            .unwrap();
        assert!(clf.fit(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn non_finite_training_data_rejected_typed() {
        let mut x = data();
        x.set(5, 2, f64::NAN);
        let mut clf = Suod::builder()
            .base_estimators(small_pool())
            .build()
            .unwrap();
        assert!(matches!(
            clf.fit(&x).unwrap_err(),
            Error::Detector(suod_detectors::Error::NonFiniteInput("fit"))
        ));
    }

    #[test]
    fn non_finite_query_rejected_typed() {
        let clf = fitted(Suod::builder());
        let mut q = Matrix::zeros(2, 4);
        q.set(1, 3, f64::INFINITY);
        assert!(matches!(
            clf.decision_function(&q).unwrap_err(),
            Error::Detector(suod_detectors::Error::NonFiniteInput(_))
        ));
    }

    #[test]
    fn panicking_model_quarantined_survivors_serve() {
        use suod_detectors::ChaosMode;
        let mut pool = small_pool();
        pool.push(ModelSpec::Chaos {
            mode: ChaosMode::PanicOnFit,
            n_neighbors: 5,
        });
        let mut clf = Suod::builder()
            .base_estimators(pool)
            .min_healthy_fraction(0.5)
            .seed(3)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        let diag = clf.diagnostics().unwrap();
        let health = diag.health();
        assert_eq!(health.quarantined_indices(), vec![4]);
        let report = health.report(4).unwrap();
        assert!(matches!(
            report.cause,
            Some(suod_detectors::Error::Panicked(_))
        ));
        // One retry (the default) before quarantine.
        assert_eq!(report.attempts, 2);
        assert_eq!(diag.execution().retries, 1);
        // The joined per-model row agrees with the health report.
        let row = diag.model(4).unwrap();
        assert_eq!(row.status, ModelStatus::Quarantined);
        assert_eq!(row.attempts, 2);
        assert!(row.fit_time.is_none());
        // Survivors carry prediction: the score matrix has 4 columns.
        let x = data();
        assert_eq!(clf.decision_function(&x).unwrap().shape(), (62, 4));
        assert_eq!(clf.predict(&x).unwrap().len(), 62);
    }

    #[test]
    fn nan_scoring_model_quarantined_with_degenerate_cause() {
        use suod_detectors::ChaosMode;
        let mut pool = small_pool();
        pool.push(ModelSpec::Chaos {
            mode: ChaosMode::NanScores,
            n_neighbors: 5,
        });
        let mut clf = Suod::builder()
            .base_estimators(pool)
            .min_healthy_fraction(0.5)
            .seed(3)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        let health = clf.diagnostics().unwrap().health();
        assert_eq!(health.quarantined_indices(), vec![4]);
        assert!(matches!(
            health.report(4).unwrap().cause,
            Some(suod_detectors::Error::DegenerateData(_))
        ));
    }

    #[test]
    fn degraded_pool_returns_typed_error_with_health() {
        use suod_detectors::ChaosMode;
        // Default min_healthy_fraction = 1.0: one permanent failure fails
        // the fit, but the health report survives.
        let pool = vec![
            ModelSpec::Chaos {
                mode: ChaosMode::PanicOnFit,
                n_neighbors: 5,
            },
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
        ];
        let mut clf = Suod::builder().base_estimators(pool).build().unwrap();
        let err = clf.fit(&data()).unwrap_err();
        assert!(matches!(
            err,
            Error::PoolDegraded {
                healthy: 1,
                total: 2,
                required: 2,
                ..
            }
        ));
        assert!(!clf.is_fitted());
        let diag = clf.diagnostics().unwrap();
        assert_eq!(diag.health().healthy(), 1);
        assert_eq!(diag.health().quarantined_indices(), vec![0]);
        assert_eq!(diag.model(0).unwrap().status, ModelStatus::Quarantined);
    }

    #[test]
    fn quarantine_does_not_change_survivor_scores() {
        use suod_detectors::ChaosMode;
        // Projection and approximation off: survivor columns must be
        // bit-identical with and without the chaos member, because
        // survivors keep their original pool indices and seeds.
        let x = data();
        let mut clean = Suod::builder()
            .base_estimators(small_pool())
            .with_projection(false)
            .with_approximation(false)
            .seed(9)
            .build()
            .unwrap();
        clean.fit(&x).unwrap();
        let mut pool = small_pool();
        pool.push(ModelSpec::Chaos {
            mode: ChaosMode::PanicOnFit,
            n_neighbors: 5,
        });
        let mut chaotic = Suod::builder()
            .base_estimators(pool)
            .with_projection(false)
            .with_approximation(false)
            .min_healthy_fraction(0.5)
            .seed(9)
            .build()
            .unwrap();
        chaotic.fit(&x).unwrap();
        let a = clean.decision_function(&x).unwrap();
        let b = chaotic.decision_function(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn fault_tolerance_builder_validation() {
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .min_healthy_fraction(0.0)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .min_healthy_fraction(1.5)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .straggler_factor(0.5)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .straggler_factor(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn observed_fit_trace_reconciles_with_diagnostics() {
        use suod_observe::RecordingObserver;
        let recorder = Arc::new(RecordingObserver::new());
        let mut clf = Suod::builder()
            .base_estimators(small_pool())
            .n_workers(2)
            .observer(recorder.clone())
            .seed(3)
            .build()
            .unwrap();
        let x = data();
        clf.fit(&x).unwrap();
        clf.decision_function(&x).unwrap();
        let trace = recorder.trace();
        assert_eq!(trace.spans_of(Stage::Fit).count(), 1);
        assert_eq!(trace.spans_of(Stage::ModelFit).count(), 4);
        assert_eq!(trace.spans_of(Stage::NeighborPlan).count(), 1);
        assert_eq!(trace.spans_of(Stage::BpsPlan).count(), 1);
        assert_eq!(trace.spans_of(Stage::Threshold).count(), 1);
        assert_eq!(trace.spans_of(Stage::Predict).count(), 1);
        assert!(trace.spans_of(Stage::PredictChunk).count() > 0);
        // Fit tasks and predict tasks both run through the executor.
        assert!(trace.spans_of(Stage::ExecutorTask).count() >= 4);
        let exec = clf.diagnostics().unwrap().execution();
        assert_eq!(trace.counter(Counter::CacheHit), exec.cache_hits);
        assert_eq!(trace.counter(Counter::CacheMiss), exec.cache_misses);
        assert_eq!(trace.counter(Counter::Retry), exec.retries as u64);
        assert_eq!(trace.counter(Counter::Quarantine), 0);
    }

    #[test]
    fn observed_fit_scores_bit_identical_to_unobserved() {
        use suod_observe::RecordingObserver;
        let x = data();
        let run = |observed: bool| {
            let mut builder = Suod::builder()
                .base_estimators(small_pool())
                .n_workers(2)
                .seed(11);
            if observed {
                builder = builder.observer(Arc::new(RecordingObserver::new()));
            }
            let mut clf = builder.build().unwrap();
            clf.fit(&x).unwrap();
            (
                clf.training_scores().unwrap(),
                clf.decision_function(&x).unwrap(),
            )
        };
        let (ts_on, df_on) = run(true);
        let (ts_off, df_off) = run(false);
        assert_eq!(ts_on.as_slice(), ts_off.as_slice());
        assert_eq!(df_on.as_slice(), df_off.as_slice());
    }

    #[test]
    fn observed_prediction_reports_per_model_times() {
        use suod_observe::RecordingObserver;
        let clf = fitted(Suod::builder());
        let x = data();
        let recorder = Arc::new(RecordingObserver::new());
        let observer: Arc<dyn Observer> = recorder.clone();
        let (scores, report) = clf.decision_function_observed(&x, &observer).unwrap();
        assert_eq!(scores.shape(), (62, 4));
        assert_eq!(report.model_times.len(), 4);
        assert_eq!(report.n_rows, 62);
        assert!(report.fully_healthy());
        assert_eq!(report.healthy_models(), 4);
        assert!(report.failures.is_empty());
        assert!(report.skipped.is_empty());
        // 62 rows fit in one chunk, so one predict task per model.
        assert_eq!(report.execution.task_times.len(), 4);
        assert_eq!(report.execution.failures, 0);
        let trace = recorder.trace();
        assert_eq!(trace.spans_of(Stage::Predict).count(), 1);
        assert_eq!(trace.spans_of(Stage::PredictChunk).count(), 4);
        // kNN and LOF answer through their approximators here, so no
        // model walks a neighbour index at predict.
        assert_eq!(trace.spans_of(Stage::NeighborQuery).count(), 0);
        // The observed path and the plain path share one engine; scores
        // match bit for bit.
        let parallel = clf.decision_function(&x).unwrap();
        assert_eq!(scores.as_slice(), parallel.as_slice());
    }

    /// Five un-approximated proximity models on one index (largest k in
    /// slot 1), a Manhattan LOF on an index of its own, and HBOS.
    fn shared_index_pool() -> Suod {
        let lof = |n_neighbors, metric| ModelSpec::Lof {
            n_neighbors,
            metric,
        };
        let mut clf = Suod::builder()
            .base_estimators(vec![
                ModelSpec::Knn {
                    n_neighbors: 5,
                    method: KnnMethod::Largest,
                },
                lof(20, DistanceMetric::Euclidean),
                ModelSpec::Hbos {
                    n_bins: 10,
                    tolerance: 0.3,
                },
                ModelSpec::Loop { n_neighbors: 9 },
                lof(7, DistanceMetric::Manhattan),
                ModelSpec::Abod { n_neighbors: 6 },
                ModelSpec::Cof { n_neighbors: 4 },
            ])
            .with_projection(false)
            .with_approximation(false)
            .n_workers(2)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        clf
    }

    #[test]
    fn models_on_one_index_share_one_query_per_chunk() {
        use suod_observe::RecordingObserver;
        let clf = shared_index_pool();
        let state = clf.state().unwrap();
        assert_eq!(state.units, [vec![0, 1, 3, 5, 6], vec![2], vec![4]]);
        let k_of = |members: &[usize]| state.shared_query(members).map(|(_, k)| k);
        assert_eq!(k_of(&state.units[0]), Some(20));
        assert_eq!(k_of(&state.units[1]), None);
        assert_eq!(k_of(&state.units[2]), Some(7));
        // Masking out the largest-k member shrinks the shared query to
        // what the remaining members ask for; a fully masked unit is gone.
        let mask = [true, false, true, true, false, true, true];
        let masked = state.active_units(Some(&mask));
        assert_eq!(masked, [vec![0, 3, 5, 6], vec![2]]);
        assert_eq!(k_of(&masked[0]), Some(9));

        // 300 rows = 2 chunks: (3 units x 2 chunks) tasks, one neighbour
        // query per (querying unit x chunk), one span per (model x chunk).
        let x = data().vstack(&data()).unwrap().vstack(&data()).unwrap();
        let x = x.vstack(&x).unwrap();
        assert_eq!(predict_chunks(x.nrows()).len(), 2);
        let recorder = Arc::new(RecordingObserver::new());
        let observer: Arc<dyn Observer> = recorder.clone();
        let (_, report) = clf.decision_function_observed(&x, &observer).unwrap();
        assert!(report.fully_healthy());
        assert_eq!(report.execution.task_times.len(), 6);
        let trace = recorder.trace();
        assert_eq!(trace.spans_of(Stage::NeighborQuery).count(), 4);
        assert_eq!(trace.spans_of(Stage::PredictChunk).count(), 14);
        assert!(report.model_times.iter().all(|t| *t > Duration::ZERO));

        // The forecast charges the shared sweep once: the unit's five
        // members together cost less than two of them would alone.
        let costs = clf.predict_unit_costs().unwrap();
        let meta = DatasetMeta::from_shape(62, 4);
        let alone = |i: usize| {
            clf.config
                .cost_model
                .predict_cost(&clf.config.base_estimators[i].task_descriptor(), &meta)
        };
        let unit: f64 = [0usize, 1, 3, 5, 6].iter().map(|&i| costs[i]).sum();
        assert!(unit < alone(0) + alone(1));
        assert_eq!(costs[2], alone(2));
        assert_eq!(costs[4], alone(4));
    }

    #[test]
    fn failing_shared_query_fails_every_member_typed() {
        // A state whose declared width disagrees with its indexes lets a
        // query through validation that every neighbour walk must refuse.
        let mut clf = shared_index_pool();
        let state = clf.state.take().unwrap();
        clf.state = Some(Arc::new(FittedState::new(
            state.models.clone(),
            state.threshold,
            state.n_features + 1,
            state.score_means.clone(),
            state.score_stds.clone(),
        )));
        let observer: Arc<dyn Observer> = suod_observe::noop();
        let (scores, report) = clf
            .decision_function_observed(&Matrix::zeros(3, 5), &observer)
            .expect("model failures are columns, not call failures");
        assert!(scores.as_slice().iter().all(|v| v.is_nan()));
        assert_eq!(report.failures.len(), 7);
        assert_eq!(report.execution.failures, 0, "no panic anywhere");
        for failure in &report.failures {
            let shared_query = failure.index != 2;
            assert_eq!(
                matches!(
                    failure.cause,
                    suod_detectors::Error::Linalg(suod_linalg::Error::ShapeMismatch { .. })
                ),
                shared_query,
                "{failure:?}"
            );
        }
    }

    #[test]
    fn degraded_fit_records_quarantine_counter() {
        use suod_detectors::ChaosMode;
        use suod_observe::RecordingObserver;
        let recorder = Arc::new(RecordingObserver::new());
        let pool = vec![
            ModelSpec::Chaos {
                mode: ChaosMode::PanicOnFit,
                n_neighbors: 5,
            },
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
        ];
        let mut clf = Suod::builder()
            .base_estimators(pool)
            .observer(recorder.clone())
            .build()
            .unwrap();
        assert!(clf.fit(&data()).is_err());
        let trace = recorder.trace();
        assert_eq!(trace.counter(Counter::Quarantine), 1);
        // Initial attempt + one retry, both closed despite the panics.
        assert_eq!(trace.spans_of(Stage::ModelFit).count(), 2);
        assert_eq!(trace.spans_of(Stage::ModelRetry).count(), 1);
        assert_eq!(
            trace.counter(Counter::TaskFailure),
            clf.diagnostics().unwrap().execution().failures as u64
        );
    }

    #[test]
    fn salted_seed_identity_on_first_attempt() {
        assert_eq!(salted_seed(42, 0), 42);
        assert_ne!(salted_seed(42, 1), 42);
        // The odd salt flips the low bit, so parity-sensitive transient
        // failures (ChaosMode::FlakyPanic) resolve on retry.
        assert_ne!(salted_seed(42, 1) % 2, 42 % 2);
    }

    /// Pool with one model that fits cleanly but faults at predict time.
    fn chaotic_pool(mode: suod_detectors::ChaosMode) -> Vec<ModelSpec> {
        let mut pool = small_pool();
        pool.push(ModelSpec::Chaos {
            mode,
            n_neighbors: 5,
        });
        pool
    }

    #[test]
    fn predict_panic_becomes_nan_column_not_error() {
        use suod_detectors::ChaosMode;
        let mut clf = Suod::builder()
            .base_estimators(chaotic_pool(ChaosMode::PanicOnPredict))
            .seed(3)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        let x = data();
        // Satellite fix: the call survives; the chaotic column is NaN.
        let scores = clf.decision_function(&x).unwrap();
        assert_eq!(scores.shape(), (62, 5));
        for r in 0..62 {
            assert!(scores.get(r, 4).is_nan());
            for c in 0..4 {
                assert!(scores.get(r, c).is_finite());
            }
        }
        let observer: Arc<dyn Observer> = suod_observe::noop();
        let (_, report) = clf.decision_function_observed(&x, &observer).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 4);
        assert_eq!(report.failures[0].name, "chaos");
        assert!(matches!(
            report.failures[0].cause,
            suod_detectors::Error::Panicked(_)
        ));
        assert_eq!(report.healthy_models(), 4);
        assert!(!report.fully_healthy());
        // The executor's fault-isolation counter reaches the report.
        assert!(report.execution.failures >= 1);
    }

    #[test]
    fn predict_nan_column_skipped_by_combiner_under_relaxed_floor() {
        use suod_detectors::ChaosMode;
        let x = data();
        let mut chaotic = Suod::builder()
            .base_estimators(chaotic_pool(ChaosMode::NanOnPredict))
            .min_healthy_fraction(0.5)
            .seed(3)
            .build()
            .unwrap();
        chaotic.fit(&x).unwrap();
        let combined = chaotic.combined_scores(&x).unwrap();
        // Survivor-only combination: identical to a pool that never
        // contained the chaotic model.
        let healthy = fitted(Suod::builder());
        let expected = healthy.combined_scores(&x).unwrap();
        assert_eq!(combined, expected);
    }

    #[test]
    fn predict_failures_enforce_min_healthy_floor() {
        use suod_detectors::ChaosMode;
        let mut clf = Suod::builder()
            .base_estimators(chaotic_pool(ChaosMode::PanicOnPredict))
            .seed(3)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        // Default min_healthy_fraction = 1.0: one predict failure is one
        // too many for the combined score to be trusted.
        match clf.combined_scores(&data()) {
            Err(Error::PoolDegraded {
                healthy,
                total,
                required,
                ..
            }) => {
                assert_eq!(healthy, 4);
                assert_eq!(total, 5);
                assert_eq!(required, 5);
            }
            other => panic!("expected PoolDegraded, got {other:?}"),
        }
        // The raw score matrix stays available for forensics.
        assert!(clf.decision_function(&data()).is_ok());
    }

    #[test]
    fn masked_models_get_nan_columns_and_no_work() {
        let clf = fitted(Suod::builder());
        let x = data();
        let observer: Arc<dyn Observer> = suod_observe::noop();
        let (scores, report) = clf
            .decision_function_masked(&x, &[true, false, true, true], &observer)
            .unwrap();
        assert_eq!(report.skipped, vec![1]);
        assert!(report.failures.is_empty());
        assert_eq!(report.healthy_models(), 3);
        assert_eq!(report.model_times[1], Duration::ZERO);
        // 3 active models x 1 chunk: the masked model never ran.
        assert_eq!(report.execution.task_times.len(), 3);
        for r in 0..62 {
            assert!(scores.get(r, 1).is_nan());
        }
        // Active columns match the unmasked pass bit for bit.
        let full = clf.decision_function(&x).unwrap();
        for r in 0..62 {
            for c in [0usize, 2, 3] {
                assert_eq!(scores.get(r, c).to_bits(), full.get(r, c).to_bits());
            }
        }
        // Mask length must match the surviving ensemble.
        assert!(clf
            .decision_function_masked(&x, &[true, false], &observer)
            .is_err());
    }

    #[test]
    fn serve_accessors_describe_fitted_state() {
        let clf = fitted(Suod::builder());
        assert_eq!(clf.n_features().unwrap(), 4);
        assert_eq!(clf.train_rows().unwrap(), 62);
        let models = clf.surviving_models().unwrap();
        assert_eq!(models.len(), 4);
        assert_eq!(models[0], (0, "knn"));
        assert_eq!(models[2], (2, "hbos"));
        let costs = clf.predict_unit_costs().unwrap();
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|&c| c > 0.0));
        // Approximated models (kNN, LOF) carry the nominal cost 1.0.
        assert_eq!(costs[0], 1.0);
        assert_eq!(costs[1], 1.0);
        // combine_score_matrix reproduces combined_scores from the raw
        // matrix without a second prediction pass.
        let x = data();
        let scores = clf.decision_function(&x).unwrap();
        assert_eq!(
            clf.combine_score_matrix(&scores).unwrap(),
            clf.combined_scores(&x).unwrap()
        );
        assert!(clf.combine_score_matrix(&Matrix::zeros(3, 2)).is_err());
    }
}
