//! The fit side of the estimator: one staged pipeline with two entry
//! points. A cold [`Suod::fit`] is a [`Suod::warm_refit`] with nothing to
//! carry over and an empty neighbour cache.

use super::{FittedModel, FittedState, Scorer, Suod, WarmContext};
use crate::diagnostics::{CpuFeatures, FitDiagnostics, ModelDiagnostics};
use crate::health::{ModelHealth, ModelReport, ModelStatus};
use crate::pseudo::{fit_approximator, DistillSpace};
use crate::spec::ModelSpec;
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suod_detectors::{validate_finite, FitContext};
use suod_linalg::{DataFingerprint, DistanceMetric, Matrix, NeighborBackend, NeighborCache};
use suod_observe::{Counter, SpanAttrs, Stage};
use suod_projection::{JlProjector, Projector};
use suod_scheduler::{
    current_worker, generic_schedule, DatasetMeta, ExecutionReport, TaskDescriptor, TaskFailure,
};

/// What a successful fit task leaves behind.
struct FitSuccess {
    /// The fitted detector, or the PSA approximator the task distilled
    /// from `train_scores` as its last step.
    scorer: Scorer,
    /// What the detector's `fit` returned, moved here without a copy.
    /// Finite: a model with non-finite training scores has failed.
    train_scores: Vec<f64>,
    /// Duration of the detector fit alone.
    fit_time: Duration,
}

/// What a fit task returns: the model-level outcome, where `Err` is a
/// retryable typed detector failure. The task-level (outer) `Result`
/// carries non-model failures (spec construction, a PSA approximator
/// that cannot be trained), which stay fatal.
type FitOutput = std::result::Result<FitSuccess, suod_detectors::Error>;

/// Seed for fit attempt `attempt` (0-based) of a model whose base seed
/// is `seed`. Attempt 0 uses the seed unchanged; retries XOR in an
/// odd-multiple salt so a seed-dependent failure can resolve differently
/// on retry, deterministically and independently of the worker count.
fn salted_seed(seed: u64, attempt: usize) -> u64 {
    seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-model results of the execution stage, by pool index: the fitted
/// detector or the cause of the latest failed attempt, and how many
/// attempts the model has consumed.
struct FitResults {
    fitted: Vec<Option<FitSuccess>>,
    causes: Vec<Option<suod_detectors::Error>>,
    attempts: Vec<usize>,
}

impl FitResults {
    fn new(m: usize) -> Self {
        Self {
            fitted: (0..m).map(|_| None).collect(),
            causes: vec![None; m],
            attempts: vec![0; m],
        }
    }

    /// Books one more attempt of model `i`: a completed task is healthy;
    /// a caught panic and a typed detector error (non-finite training
    /// scores among them) are retryable causes; a fatal non-model failure
    /// propagates.
    fn record(
        &mut self,
        i: usize,
        outcome: std::result::Result<Result<FitOutput>, TaskFailure>,
    ) -> Result<()> {
        self.attempts[i] += 1;
        let cause = match outcome {
            Err(panic) => suod_detectors::Error::Panicked(panic.message),
            Ok(Err(fatal)) => return Err(fatal),
            Ok(Ok(Err(cause))) => cause,
            Ok(Ok(Ok(ok))) => {
                (self.fitted[i], self.causes[i]) = (Some(ok), None);
                return Ok(());
            }
        };
        self.causes[i] = Some(cause);
        Ok(())
    }
}

/// How the models that run will meet the shared neighbour cache.
struct NeighborPlan {
    /// Cache key of each running proximity model's feature space, by
    /// pool index.
    fingerprints: Vec<Option<DataFingerprint>>,
    /// By pool index: another member of the model's cache group builds
    /// the graph, so this model's own lookup is a near-free hit.
    cached: Vec<bool>,
    /// Worker budget of one graph build: groups build concurrently on the
    /// executor, so splitting the pool across them keeps a lone group's
    /// sweep parallel without oversubscribing many groups.
    fit_threads: usize,
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

    /// Fits every base estimator (Algorithm 1, lines 3–16) and trains the
    /// PSA approximators for costly models (lines 17–24): one task per
    /// model on the work-stealing executor, and a costly model's task
    /// ends by distilling its approximator from the training scores it
    /// has just produced, so BPS places — and every worker shares — the
    /// whole of the costly work.
    ///
    /// This is the fit pipeline run **cold**: nothing is carried over and
    /// the neighbour cache starts empty, so no stage is skipped — every
    /// model is projected, fitted, and (if costly) distilled, whatever an
    /// earlier fit of this estimator left behind.
    ///
    /// Model fits run **fault-isolated**: a detector that panics or
    /// returns a typed error is retried up to
    /// [`max_model_retries`](super::SuodBuilder::max_model_retries) times
    /// with a re-salted seed, and quarantined if it never recovers.
    /// Quarantined models are excluded from the fitted ensemble —
    /// combination, pseudo-supervision, and prediction scheduling operate
    /// over the survivors — and recorded in
    /// [`diagnostics`](Self::diagnostics).
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
    /// quarantine (the estimator is left unfitted, the health report
    /// stays available), and propagates fatal failures from projection,
    /// scheduling, or approximation (an approximator that cannot be
    /// trained fails the fit from inside its model's task; it is not a
    /// quarantine) — those leave the estimator exactly as it was.
    pub fn fit(&mut self, x: &Matrix) -> Result<&mut Self> {
        let specs = self.config.base_estimators.clone();
        let carry = vec![None; specs.len()];
        let cache = self.config.fresh_cache();
        self.run_fit(x, DataFingerprint::of(x), specs, carry, cache)?;
        Ok(self)
    }

    /// Refits the pool **warm** on the same training matrix: the same
    /// pipeline as [`fit`](Self::fit), run with a carry-over set and the
    /// neighbour cache the previous fit retained. A model of the fitted
    /// state whose own spec equals `specs[i]` at its pool index `i` is
    /// carried over (the `Arc` is shared, approximator included) and skips
    /// projection, the neighbour plan, scheduling and its fit task —
    /// detector fit and distillation both; every other spec runs all of
    /// them, with proximity graphs over an already-seen feature space
    /// served from the cache. Assembly, standardisation and
    /// the threshold always cover the whole new pool. A refit that
    /// changes `c` of `m` models therefore costs `O(c)` model fits
    /// instead of `O(m)`.
    ///
    /// Scores after a warm refit are **bitwise-identical** to a cold
    /// [`fit`](Self::fit) of a pool configured with `specs`: per-model
    /// seeds derive from the pool index alone, so carried and refitted
    /// models alike land in exactly the state a full fit would produce.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before a successful fit,
    /// [`Error::InvalidConfig`] when `specs` is empty or `x` is not the
    /// training matrix of the previous fit (warm refit never silently
    /// retrains on new data — call [`fit`](Self::fit) for that), and the
    /// same fit-time failures as a cold fit for the models that run,
    /// including [`Error::PoolDegraded`] against the **new** pool size.
    /// Any failure other than `PoolDegraded` leaves the estimator on its
    /// previous pool: recipe, fitted state and diagnostics untouched.
    pub fn warm_refit(&mut self, x: &Matrix, specs: Vec<ModelSpec>) -> Result<&mut Self> {
        let prev = Arc::clone(self.state()?);
        let warm = self.warm.as_ref().ok_or(Error::NotFitted)?;
        if specs.is_empty() {
            return Err(Error::InvalidConfig(
                "base_estimators must not be empty".into(),
            ));
        }
        let fp = DataFingerprint::of(x);
        if fp != warm.train_fingerprint {
            return Err(Error::InvalidConfig(
                "warm_refit requires the training matrix of the previous fit (data \
                 fingerprint differs); call fit() to train on new data"
                    .into(),
            ));
        }
        // The retained cache serves graphs over feature spaces it has
        // already seen; a loaded pool's starts empty.
        let cache = Arc::clone(&warm.cache);
        let carry = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let same = prev
                    .models
                    .iter()
                    .find(|m| m.pool_index == i && m.spec == *spec);
                same.cloned()
            })
            .collect();
        self.run_fit(x, fp, specs, carry, cache)?;
        Ok(self)
    }

    /// The one fit pipeline behind [`fit`](Self::fit) and
    /// [`warm_refit`](Self::warm_refit): validate → project → neighbour
    /// plan → schedule → fault-isolated fit tasks + bounded retry → health
    /// and the degradation floor → assemble → standardisation + threshold
    /// → commit. A fit task is the detector fit and, for a costly model
    /// with PSA on, the distillation of its approximator; the cost
    /// forecast BPS places it by covers both. `carry` has one slot per
    /// spec: `Some` is a model taken over from the previous fitted state
    /// instead of trained, and every per-model stage covers the empty
    /// slots only. `cache` is the neighbour cache the proximity graphs
    /// come from.
    ///
    /// Nothing of `self` that describes the fitted pool changes before
    /// [`commit`](Self::commit): a failure on the way leaves the
    /// estimator on its previous pool.
    fn run_fit(
        &mut self,
        x: &Matrix,
        train_fingerprint: DataFingerprint,
        specs: Vec<ModelSpec>,
        mut carry: Vec<Option<Arc<FittedModel>>>,
        cache: Arc<NeighborCache>,
    ) -> Result<()> {
        if x.nrows() == 0 || x.ncols() == 0 {
            return Err(Error::InvalidConfig(
                "training data must be non-empty".into(),
            ));
        }
        validate_finite(x, "fit").map_err(Error::Detector)?;
        let obs = Arc::clone(&self.config.observer);
        let _fit_span = suod_observe::span(obs.as_ref(), Stage::Fit, SpanAttrs::none());
        let (n, d, m) = (x.nrows(), x.ncols(), specs.len());
        let run: Vec<usize> = (0..m).filter(|&i| carry[i].is_none()).collect();

        // --- RP: one feature space per model that runs. ---------------------
        let shared_x = Arc::new(x.clone());
        let mut projectors: Vec<Option<JlProjector>> = (0..m).map(|_| None).collect();
        let mut spaces = vec![Arc::clone(&shared_x); m];
        for &i in &run {
            if self.should_project(&specs[i], d) {
                let _span =
                    suod_observe::span(obs.as_ref(), Stage::Projection, SpanAttrs::model(i));
                let k = self.target_dim(d);
                let mut proj = JlProjector::new(self.config.rp_variant, k, self.model_seed(i))?;
                proj.fit(x)?;
                spaces[i] = Arc::new(proj.transform(x)?);
                projectors[i] = Some(proj);
            }
        }

        // --- Neighbour plan (pass 1 of the two-pass fit). -------------------
        let plan_span = obs.span_begin(Stage::NeighborPlan, SpanAttrs::none());
        let train = (&shared_x, train_fingerprint);
        let plan = self.plan_neighbors(&cache, &specs, &spaces, train, &run);
        obs.span_end(plan_span);
        // The cache may have served earlier fits: this run's share of its
        // lifetime counters is what the diagnostics report.
        let cache_before = cache.stats();

        let executor = self.executor_for_run()?;

        // --- PSA: a costly model's task ends by distilling its approximator. -
        // The tasks of one executor run that distill on the same feature
        // space share a `DistillSpace`, so their forests presort it once, in
        // whichever task asks first. The tasks are its only owners: it is
        // freed when the last of them finishes, not when the fit does.
        let distill_spaces = |models: &[usize]| -> Vec<Option<Arc<DistillSpace>>> {
            let mut by_space: HashMap<usize, Arc<DistillSpace>> = HashMap::new();
            let distilled = |&i: &usize| {
                self.distills(&specs[i]).then(|| {
                    let space = by_space
                        .entry(Arc::as_ptr(&spaces[i]) as usize)
                        .or_insert_with(|| Arc::new(DistillSpace::new(Arc::clone(&spaces[i]))));
                    Arc::clone(space)
                })
            };
            models.iter().map(distilled).collect()
        };

        // --- BPS + fault-isolated fit execution (pass 2). -------------------
        let make_task = |i: usize,
                         attempt: usize,
                         distill_space: Option<Arc<DistillSpace>>|
         -> Box<dyn FnOnce() -> Result<FitOutput> + Send> {
            let spec = specs[i];
            let seed = salted_seed(self.model_seed(i), attempt);
            // The approximator's seed ignores the retry salt: a model
            // that recovers on retry is distilled as a first-attempt
            // success would be.
            let distill_seed = self.model_seed(i) ^ 0xA55A;
            let approx_spec = self.config.approx_spec;
            let psi = Arc::clone(&spaces[i]);
            let ctx = FitContext::new(Arc::clone(&cache), plan.fingerprints[i], plan.fit_threads);
            let task_obs = Arc::clone(&obs);
            let stage = if attempt == 0 {
                Stage::ModelFit
            } else {
                Stage::ModelRetry
            };
            Box::new(move || {
                let attrs = SpanAttrs {
                    worker: current_worker(),
                    ..SpanAttrs::model(i)
                };
                // Guard, not begin/end: the drop runs even when a
                // chaotic detector panics out of the closure, so
                // quarantined models still close their spans.
                let fit_span = suod_observe::span(task_obs.as_ref(), stage, attrs);
                let mut detector = spec.build(seed)?;
                let start = Instant::now();
                let train_scores = match detector.fit_with_context(&psi, &ctx) {
                    Ok(scores) => scores,
                    Err(e) => return Ok(Err(e)),
                };
                let fit_time = start.elapsed();
                drop(fit_span);
                if !train_scores.iter().all(|v| v.is_finite()) {
                    return Ok(Err(suod_detectors::Error::DegenerateData(
                        "model produced non-finite training scores".into(),
                    )));
                }
                // PSA: the costly model's task ends by growing its
                // approximator, on this worker, beside the other fits.
                // The approximator replaces the detector (paper §3.4),
                // so the detector goes first.
                let scorer = match &distill_space {
                    Some(space) => {
                        drop(detector);
                        let _span = suod_observe::span(task_obs.as_ref(), Stage::PsaDistill, attrs);
                        Scorer::Approximator(fit_approximator(
                            &approx_spec,
                            space,
                            &train_scores,
                            distill_seed,
                        )?)
                    }
                    None => Scorer::Detector(detector),
                };
                Ok(Ok(FitSuccess {
                    scorer,
                    train_scores,
                    fit_time,
                }))
            })
        };
        let mut results = FitResults::new(m);
        let mut report = ExecutionReport::default();
        let mut forecast = Vec::new();
        if !run.is_empty() {
            let bps_span = obs.span_begin(Stage::BpsPlan, SpanAttrs::none());
            let descriptors: Vec<_> = run
                .iter()
                .map(|&i| self.fit_descriptor(&specs[i], plan.cached[i], n, spaces[i].ncols()))
                .collect();
            let cost_model = &self.config.cost_model;
            let meta = if cost_model.reads_moments() {
                DatasetMeta::extract(x)
            } else {
                DatasetMeta::from_shape(n, d)
            };
            forecast = cost_model.predict_costs(&descriptors, &meta);
            let assignment = self.schedule(&forecast);
            obs.span_end(bps_span);
            let tasks: Vec<_> = run
                .iter()
                .zip(distill_spaces(&run))
                .map(|(&i, space)| make_task(i, 0, space))
                .collect();
            let (outcomes, first_report) = executor.run(tasks, &assignment?, Arc::clone(&obs))?;
            report = first_report;
            for (&i, outcome) in run.iter().zip(outcomes) {
                results.record(i, outcome)?;
            }
        }

        // --- Bounded retry of failed models. --------------------------------
        // Retries run on the same pool under a generic schedule (the
        // failed subset is small and its costs are unknown — the original
        // forecast clearly missed). Each retry re-salts the model seed.
        for attempt in 1..=self.config.max_model_retries {
            let pending: Vec<usize> = (0..m).filter(|&i| results.causes[i].is_some()).collect();
            if pending.is_empty() {
                break;
            }
            let retry_tasks: Vec<_> = pending
                .iter()
                .zip(distill_spaces(&pending))
                .map(|(&i, space)| make_task(i, attempt, space))
                .collect();
            let retry_assignment =
                generic_schedule(pending.len(), self.config.n_workers.min(pending.len()))?;
            let (retry_outcomes, retry_report) =
                executor.run(retry_tasks, &retry_assignment, Arc::clone(&obs))?;
            obs.counter(Counter::Retry, pending.len() as u64);
            report.retries += pending.len();
            report.failures += retry_report.failures;
            report.steals += retry_report.steals;
            for (&i, outcome) in pending.iter().zip(retry_outcomes) {
                results.record(i, outcome)?;
            }
        }

        // Cache counters are copied after the retry loop so retried
        // models' hits/misses reconcile exactly with the observer trace.
        let stats = cache.stats();
        report.cache_hits = stats.hits - cache_before.hits;
        report.cache_misses = stats.misses - cache_before.misses;
        report.cache_build_time = stats.build_time - cache_before.build_time;
        let ann_fallbacks = stats.ann_fallbacks - cache_before.ann_fallbacks;

        // --- Stragglers, from the BPS cost forecast of the tasks that ran. --
        report.stragglers =
            super::stragglers(&forecast, &report.task_times, self.config.straggler_factor);
        let mut straggler_flags = vec![false; m];
        for &task in &report.stragglers {
            straggler_flags[run[task]] = true;
        }

        // --- Quarantine bookkeeping + degradation floor. --------------------
        // One health row and one diagnostics row per configured model. A
        // carried model is healthy with zero attempts this round and keeps
        // the fit time and projection decision of the fit that trained it.
        // `approximated` is back-filled after PSA below.
        let FitResults {
            mut fitted,
            causes,
            attempts,
        } = results;
        let status = |i: usize| match carry[i].is_some() || fitted[i].is_some() {
            true => ModelStatus::Healthy,
            false => ModelStatus::Quarantined,
        };
        let health = ModelHealth::new(
            (0..m)
                .map(|i| ModelReport {
                    index: i,
                    name: specs[i].name(),
                    status: status(i),
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
        let models_diag: Vec<ModelDiagnostics> = (0..m)
            .map(|i| ModelDiagnostics {
                index: i,
                name: specs[i].name(),
                status: status(i),
                attempts: attempts[i],
                straggler: straggler_flags[i],
                fit_time: match &carry[i] {
                    Some(carried) => Some(carried.fit_time),
                    None => fitted[i].as_ref().map(|ok| ok.fit_time),
                },
                projected: match &carry[i] {
                    Some(carried) => carried.projector.is_some(),
                    None => projectors[i].is_some(),
                },
                approximated: false,
            })
            .collect();
        let n_healthy = health.healthy();
        let required = self.required_healthy(m);
        let mut diagnostics = FitDiagnostics::new(
            report,
            health,
            models_diag,
            CpuFeatures::detect(self.config.kernel.neighbor),
            ann_fallbacks,
        );
        if n_healthy < required {
            let cause = causes
                .into_iter()
                .flatten()
                .next()
                .expect("a degraded pool records at least one failure cause");
            self.commit(specs, None, diagnostics);
            return Err(Error::PoolDegraded {
                healthy: n_healthy,
                total: m,
                required,
                cause,
            });
        }

        // --- Assemble the surviving ensemble, in pool order. ----------------
        // Survivors keep their original pool indices so their feature
        // spaces and derived seeds are unchanged by the quarantine of
        // other models.
        let mut models: Vec<Arc<FittedModel>> = Vec::with_capacity(n_healthy);
        for i in 0..m {
            if let Some(carried) = carry[i].take() {
                models.push(carried);
            } else if let Some(ok) = fitted[i].take() {
                models.push(Arc::new(FittedModel {
                    spec: specs[i],
                    pool_index: i,
                    scorer: ok.scorer,
                    projector: projectors[i].take(),
                    train_scores: ok.train_scores,
                    fit_time: ok.fit_time,
                }));
            }
        }
        for model in &models {
            diagnostics.models_mut()[model.pool_index].approximated = model.is_approximated();
        }
        // Fit-only scratch goes before the new state exists beside the old.
        drop((spaces, shared_x, projectors));

        // --- Standardization reference + contamination threshold. -----------
        let state = {
            let _span = suod_observe::span(obs.as_ref(), Stage::Threshold, SpanAttrs::none());
            FittedState::from_training(models, n, d, self.config.contamination)?
        };
        // Retain the neighbour cache + data identity so a warm refit on
        // the same matrix can reuse proximity graphs and survivor models.
        let warm = WarmContext {
            cache,
            train_fingerprint,
        };
        self.commit(specs, Some((state, warm)), diagnostics);
        Ok(())
    }

    /// Publishes a pipeline result in one step: the pool recipe, its
    /// fitted state with the warm-start context (`None` for a degraded
    /// pool, which leaves the estimator unfitted), and the diagnostics
    /// describing that recipe.
    fn commit(
        &mut self,
        specs: Vec<ModelSpec>,
        fitted: Option<(FittedState, WarmContext)>,
        diagnostics: FitDiagnostics,
    ) {
        let (state, warm) = fitted.map(|(s, w)| (Arc::new(s), w)).unzip();
        self.config.base_estimators = specs;
        self.state = state;
        self.warm = warm;
        self.diagnostics = Some(diagnostics);
    }

    /// Pass 1 of the two-pass fit: finds which running proximity models
    /// share a feature space and metric, pre-registers each group's k so
    /// the cache's first build covers the pooled maximum, and picks one
    /// "builder" per group for the cost model (everyone else is a
    /// near-free cache hit). `train` is the unprojected space with the
    /// fingerprint the fit already took of it, so it is not hashed twice.
    fn plan_neighbors(
        &self,
        cache: &NeighborCache,
        specs: &[ModelSpec],
        spaces: &[Arc<Matrix>],
        train: (&Arc<Matrix>, DataFingerprint),
        run: &[usize],
    ) -> NeighborPlan {
        let mut plan = NeighborPlan {
            fingerprints: vec![None; specs.len()],
            cached: vec![false; specs.len()],
            fit_threads: 1,
        };
        let mut fp_by_space = HashMap::from([(Arc::as_ptr(train.0) as usize, train.1)]);
        let mut requirements = vec![None; specs.len()];
        for &i in run {
            if let Some((metric, k)) = specs[i].neighbor_requirement() {
                let ptr = Arc::as_ptr(&spaces[i]) as usize;
                let fp = *fp_by_space
                    .entry(ptr)
                    .or_insert_with(|| DataFingerprint::of(&spaces[i]));
                cache.register(fp, metric, k);
                plan.fingerprints[i] = Some(fp);
                requirements[i] = Some(((fp, metric), k.min(fp.rows().saturating_sub(1))));
            }
        }
        let (cached, groups) = cache_hits(&requirements);
        plan.cached = cached;
        plan.fit_threads = (self.config.n_workers / groups.max(1)).max(1);
        plan
    }

    /// The task descriptors a cold fit of `state`'s models forecasts from:
    /// [`fit_descriptor`](Self::fit_descriptor) with each model's cache hit
    /// planned as [`plan_neighbors`](Self::plan_neighbors) plans it. Every
    /// unprojected model reads the training matrix, and a projected one
    /// the space its projector makes, so models with equal projectors (or
    /// none) and one metric share a graph.
    pub(super) fn forecast_descriptors(&self, state: &FittedState) -> Vec<TaskDescriptor> {
        let (n, d) = (state.train_rows(), state.n_features);
        let requirements: Vec<_> = state
            .models
            .iter()
            .map(|m| {
                let (metric, k) = m.spec.neighbor_requirement()?;
                Some(((m.projector.as_ref(), metric), k.min(n.saturating_sub(1))))
            })
            .collect();
        let (cached, _) = cache_hits(&requirements);
        state
            .models
            .iter()
            .zip(cached)
            .map(|(m, cached)| {
                let width = m.projector.as_ref().map_or(d, |p| p.output_dim());
                self.fit_descriptor(&m.spec, cached, n, width)
            })
            .collect()
    }

    /// `true` when a fresh fit of `spec` ends by distilling a PSA
    /// approximator from the model's training scores.
    fn distills(&self, spec: &ModelSpec) -> bool {
        self.config.approx_enabled && spec.is_costly()
    }

    /// The cost-model view of one model's fit task on `n` rows of a
    /// `space_features`-wide feature space. It says when the model's
    /// neighbour graph is a shared-cache hit (`cached`) or comes from the
    /// HNSW backend (not for small `n` or non-Euclidean metrics, which
    /// fall back to the exact path), so the cost model stops forecasting
    /// an exact `O(n^2 d)` build for BPS to balance against; and it names
    /// the forest a model that [`distills`](Self::distills) grows before
    /// its task ends, so the forecast covers the whole task.
    fn fit_descriptor(
        &self,
        spec: &ModelSpec,
        cached: bool,
        n: usize,
        space_features: usize,
    ) -> TaskDescriptor {
        let approx = match (self.config.kernel.neighbor, spec.neighbor_requirement()) {
            (NeighborBackend::Hnsw(p), Some((metric, _))) => {
                metric == DistanceMetric::Euclidean && n >= p.min_rows
            }
            _ => false,
        };
        let forest = match self.distills(spec) {
            true => self.config.approx_spec.distill_forest(space_features),
            false => None,
        };
        spec.task_descriptor()
            .with_cached_neighbors(cached)
            .with_approx_neighbors(approx)
            .with_distillation(forest)
    }
}

/// Groups the models that need a neighbour graph by `key` (feature space
/// and metric), given as `Some((key, effective k))` by pool index. Returns,
/// by pool index, `true` for a model whose graph another member of its
/// group builds — a near-free cache hit — and the number of groups. A
/// group's builder is the member with the largest effective k, ties
/// going to the lowest index, as the cache widens a build to the largest
/// k registered.
fn cache_hits<K: PartialEq>(requirements: &[Option<(K, usize)>]) -> (Vec<bool>, usize) {
    let mut groups: Vec<(&K, Vec<(usize, usize)>)> = Vec::new();
    for (i, (key, k)) in requirements
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, r.as_ref()?)))
    {
        match groups.iter_mut().find(|(g, _)| *g == key) {
            Some((_, members)) => members.push((i, *k)),
            None => groups.push((key, vec![(i, *k)])),
        }
    }
    let mut cached = vec![false; requirements.len()];
    for (_, members) in &groups {
        let &(builder, _) = members
            .iter()
            .max_by_key(|&&(i, k)| (k, std::cmp::Reverse(i)))
            .expect("groups are non-empty by construction");
        for &(i, _) in members {
            cached[i] = i != builder;
        }
    }
    (cached, groups.len())
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
        for workers in [1usize, 2, 8] {
            let mut clf = Suod::builder()
                .base_estimators(pool.clone())
                .with_projection(false)
                .with_approximation(false)
                .n_workers(workers)
                .seed(1)
                .build()
                .unwrap();
            clf.fit(&x).unwrap();
            let exec = clf.diagnostics().unwrap().execution();
            assert_eq!((exec.cache_hits, exec.cache_misses), (2, 1));
            let train = clf.training_scores().unwrap();
            let query = clf.decision_function(&x).unwrap();
            // The reference is each model fitted on its own: a pool of one.
            for (i, spec) in pool.iter().enumerate() {
                let mut det = spec.build(clf.model_seed(i)).unwrap();
                let own_train = det.fit(&x).unwrap();
                let own_query = det.decision_function(&x).unwrap();
                for r in 0..x.nrows() {
                    assert_eq!(train.get(r, i).to_bits(), own_train[r].to_bits());
                    assert_eq!(query.get(r, i).to_bits(), own_query[r].to_bits());
                }
            }
        }
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
    fn warm_refit_carries_unchanged_models_as_the_same_allocation() {
        use suod_observe::RecordingObserver;
        let recorder = Arc::new(RecordingObserver::new());
        let distilled = || -> Vec<Option<usize>> {
            let trace = recorder.trace();
            trace.spans_of(Stage::PsaDistill).map(|s| s.model).collect()
        };
        let mut clf = fitted(Suod::builder().observer(recorder.clone()));
        assert_eq!(distilled().len(), 2);
        let before = clf.state().unwrap().models.clone();
        let mut specs = small_pool();
        specs[2] = ModelSpec::Hbos {
            n_bins: 12,
            tolerance: 0.2,
        };
        clf.warm_refit(&data(), specs).unwrap();
        let after = clf.state().unwrap().models.clone();
        // No retraining and no copy: the carried members *are* the old ones.
        for i in [0, 1, 3] {
            assert!(
                Arc::ptr_eq(&before[i], &after[i]),
                "model {i} was not carried"
            );
        }
        assert!(!Arc::ptr_eq(&before[2], &after[2]));
        // A carried costly model keeps its approximator with the rest of
        // it: the refit distilled nothing.
        assert_eq!(distilled().len(), 2);
        let diag = clf.diagnostics().unwrap();
        let attempts: Vec<usize> = diag.models().iter().map(|row| row.attempts).collect();
        assert_eq!(attempts, [0, 0, 1, 0]);
        // Carried rows keep the decisions of the fit that trained them.
        assert_eq!(diag.projected(), vec![true, true, false, false]);
        assert_eq!(diag.approximated(), vec![true, true, false, false]);
        assert!(diag.models().iter().all(|row| row.fit_time.is_some()));
        // Swapping a costly model distills that one, once.
        let mut specs = clf.config.base_estimators.clone();
        specs[1] = ModelSpec::Lof {
            n_neighbors: 6,
            metric: DistanceMetric::Euclidean,
        };
        clf.warm_refit(&data(), specs).unwrap();
        assert_eq!(distilled()[2..], [Some(1)]);
        let after = clf.state().unwrap().models.clone();
        // A cold fit never looks at what an earlier fit left behind.
        clf.fit(&data()).unwrap();
        let refitted = &clf.state().unwrap().models;
        assert!((0..4).all(|i| !Arc::ptr_eq(&after[i], &refitted[i])));
    }

    #[test]
    fn an_approximator_that_cannot_be_trained_fails_the_fit_and_keeps_the_previous_pool() {
        use crate::ApproxSpec;
        // No costly model, so the unusable approximator is never built.
        let cheap = vec![small_pool()[2], small_pool()[3]];
        let mut clf = Suod::builder()
            .base_estimators(cheap.clone())
            .approximator(ApproxSpec::Ridge { lambda: -1.0 })
            .min_healthy_fraction(0.1)
            .n_workers(2)
            .build()
            .unwrap();
        let x = data();
        clf.fit(&x).unwrap();
        let before = clf.decision_function(&x).unwrap();
        // A costly model joins: its task fits the detector, then fails to
        // distill — fatal, not a quarantine, whatever the health floor.
        let err = clf.warm_refit(&x, small_pool()).unwrap_err();
        assert!(matches!(err, Error::Approximation(_)), "{err}");
        assert_eq!(clf.config.base_estimators, cheap);
        assert_eq!(clf.diagnostics().unwrap().models().len(), 2);
        let after = clf.decision_function(&x).unwrap();
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn only_a_distilled_model_is_forecast_a_forest() {
        use crate::ApproxSpec;
        let spec_of =
            |builder: crate::SuodBuilder| builder.base_estimators(small_pool()).build().unwrap();
        let approx = ApproxSpec::RandomForest {
            n_estimators: 7,
            max_depth: 3,
        };
        let on = spec_of(Suod::builder().approximator(approx));
        let off = spec_of(Suod::builder().with_approximation(false));
        let ridge = spec_of(Suod::builder().approximator(ApproxSpec::Ridge { lambda: 1.0 }));
        for (i, spec) in small_pool().iter().enumerate() {
            let forest = on.fit_descriptor(spec, false, 62, 3).distill;
            // kNN and LOF are costly; HBOS and iForest serve themselves.
            assert_eq!(forest.is_some(), i < 2, "{}", spec.name());
            if let Some(forest) = forest {
                assert_eq!(
                    (forest.trees, forest.max_depth, forest.n_features),
                    (7, 3, 3)
                );
            }
            // PSA off, or an approximator that is no forest: the task is
            // described exactly as before distillation joined it.
            let plain = spec.task_descriptor();
            assert_eq!(off.fit_descriptor(spec, false, 62, 3), plain);
            assert_eq!(ridge.fit_descriptor(spec, false, 62, 3), plain);
        }
    }

    #[test]
    fn simulation_forecasts_the_cache_hits_fit_planned() {
        let knn = |k| ModelSpec::Knn {
            n_neighbors: k,
            method: KnnMethod::Largest,
        };
        let lof = |k| ModelSpec::Lof {
            n_neighbors: k,
            metric: DistanceMetric::Euclidean,
        };
        let hbos = ModelSpec::Hbos {
            n_bins: 5,
            tolerance: 0.1,
        };
        // One Euclidean group over the training matrix: kNN(10) builds it
        // (largest k, lowest index), the others hit.
        let pool = vec![knn(5), knn(10), hbos, lof(10)];
        let x = data();
        let mut clf = Suod::builder()
            .base_estimators(pool.clone())
            .with_projection(false)
            .with_approximation(false)
            .build()
            .unwrap();
        clf.fit(&x).unwrap();
        let cached: Vec<bool> = clf
            .forecast_descriptors(clf.state().unwrap())
            .iter()
            .map(|t| t.cached_neighbors)
            .collect();
        assert_eq!(cached, vec![true, false, false, true]);
        let (n, d) = x.shape();
        let described = clf.forecast_descriptors(clf.state().unwrap());
        for (i, spec) in pool.iter().enumerate() {
            assert_eq!(described[i], clf.fit_descriptor(spec, cached[i], n, d));
        }
    }

    #[test]
    fn forecasting_the_whole_task_flags_no_distilled_model() {
        use crate::ApproxSpec;
        // Three costly models whose tasks are mostly distillation; CBLOF's
        // own fit is ~2 % of the pool's fit forecast.
        let pool = vec![
            ModelSpec::Knn {
                n_neighbors: 10,
                method: KnnMethod::Largest,
            },
            ModelSpec::Lof {
                n_neighbors: 10,
                metric: DistanceMetric::Euclidean,
            },
            ModelSpec::Cblof { n_clusters: 2 },
        ];
        let mut state = 7u64;
        let mut uniform = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let x = Matrix::from_vec(600, 8, (0..600 * 8).map(|_| uniform()).collect()).unwrap();
        let mut clf = Suod::builder()
            .base_estimators(pool.clone())
            .with_projection(false)
            .approximator(ApproxSpec::RandomForest {
                n_estimators: 30,
                max_depth: 12,
            })
            .n_workers(2)
            .seed(5)
            .build()
            .unwrap();
        clf.fit(&x).unwrap();
        let diag = clf.diagnostics().unwrap();
        assert_eq!(diag.approximated(), vec![true; 3]);
        assert!(diag.execution().stragglers.is_empty());
        assert!(diag.models().iter().all(|row| !row.straggler));
        // The rule itself, on a run that goes exactly as forecast (task
        // times proportional to the whole-task forecast, each far above
        // the 50 ms floor) rather than on this host's clock.
        let meta = DatasetMeta::extract(&x);
        let cost_model = &clf.config.cost_model;
        let whole: Vec<TaskDescriptor> = pool
            .iter()
            .map(|spec| clf.fit_descriptor(spec, false, x.nrows(), x.ncols()))
            .collect();
        let whole = cost_model.predict_costs(&whole, &meta);
        let fit_only: Vec<TaskDescriptor> = pool.iter().map(ModelSpec::task_descriptor).collect();
        let fit_only = cost_model.predict_costs(&fit_only, &meta);
        let shortest = whole.iter().copied().fold(f64::INFINITY, f64::min);
        let measured: Vec<Duration> = whole
            .iter()
            .map(|cost| Duration::from_secs_f64(cost / shortest))
            .collect();
        let factor = clf.config.straggler_factor;
        assert!(super::super::stragglers(&whole, &measured, factor).is_empty());
        // Against a forecast of the fits alone, CBLOF's task is many times
        // its share.
        let flagged = super::super::stragglers(&fit_only, &measured, factor);
        assert!(flagged.contains(&2), "{flagged:?}");
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
