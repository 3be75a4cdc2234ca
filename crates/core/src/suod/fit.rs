//! The fit side of the estimator: cold `fit` and `warm_refit`.

use super::predict::combine_standardized;
use super::state::scores_to_matrix;
use super::{FittedModel, FittedState, Suod, WarmContext};
use crate::diagnostics::{CpuFeatures, FitDiagnostics, ModelDiagnostics};
use crate::health::{ModelHealth, ModelReport, ModelStatus};
use crate::pseudo::fit_approximator;
use crate::spec::ModelSpec;
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suod_detectors::{validate_finite, Detector, FitContext};
use suod_linalg::{DataFingerprint, DistanceMetric, Matrix, NeighborBackend, NeighborCache};
use suod_observe::{Counter, SpanAttrs, Stage};
use suod_projection::{JlProjector, Projector};
use suod_scheduler::{
    bps_schedule, generic_schedule, Assignment, DatasetMeta, ExecutionReport, TaskFailure,
};

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

impl Suod {
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
    /// [`max_model_retries`](super::SuodBuilder::max_model_retries) times with a
    /// re-salted seed, and quarantined if it never recovers. Quarantined
    /// models are excluded from the fitted ensemble — combination,
    /// pseudo-supervision, and prediction scheduling operate over the
    /// survivors — and recorded in [`diagnostics`](Self::diagnostics).
    ///
    /// Every stage reports spans and counters to the configured
    /// [`observer`](super::SuodBuilder::observer); the resulting
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suod::testing::{data, fitted, small_pool};
    use suod_detectors::KnnMethod;

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
    fn fit_times_recorded() {
        let clf = fitted(Suod::builder());
        let diag = clf.diagnostics().unwrap();
        assert_eq!(diag.fit_times().len(), 4);
        assert_eq!(diag.models().len(), 4);
        assert!(diag.models().iter().all(|m| m.fit_time.is_some()));
        assert!(diag.models().iter().all(|m| m.attempts == 1));
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
}
