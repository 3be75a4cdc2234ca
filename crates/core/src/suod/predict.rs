//! The predict side of the estimator: the fault-isolated scoring engine,
//! the combiners, and the fitted-state accessors.

use super::{FittedState, Scorer, Suod};
use crate::diagnostics::{PredictFailure, PredictReport};
use crate::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use suod_detectors::validate_finite;
use suod_linalg::distance::Neighbor;
use suod_linalg::Matrix;
use suod_observe::{Counter, Observer, SpanAttrs, Stage};
use suod_projection::Projector;
use suod_scheduler::{
    bps_schedule, generic_schedule, shared_query_costs, simulate_makespan, DatasetMeta,
    ExecutionReport, SimulationResult, TaskFailure,
};

/// Row-chunk width for the (unit x row-chunk) prediction task split.
/// Fixed (never derived from the worker count) so the task decomposition
/// — and therefore every computed value — is identical no matter how
/// many workers execute it.
const PREDICT_ROW_CHUNK: usize = 256;

impl Suod {
    /// Per-model prediction cost forecast (the cost model's unitless
    /// scale) for the given [active units](FittedState::active_units),
    /// indexed by surviving-ensemble position; zero for models in none of
    /// them. Nominal 1.0 for approximated models (cheap forest lookups),
    /// the analytic forecast for a model scoring alone, and for the
    /// members of a shared-query unit one index sweep split between them
    /// plus each member's epilogue ([`shared_query_costs`]).
    fn predict_model_costs(&self, state: &FittedState, units: &[Vec<usize>]) -> Vec<f64> {
        let meta = DatasetMeta::from_shape(state.train_rows(), state.n_features);
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
                    costs[mi] = if model.is_approximated() {
                        1.0
                    } else {
                        cost_model.predict_cost(&model.spec.task_descriptor(), &meta)
                    };
                }
            }
        }
        costs
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
        // BPS applies to "both training and prediction stage" (paper
        // §3.5): a task's cost is its unit's forecast scaled by the chunk's
        // share of the query rows.
        let chunk_lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let assignment = self.schedule(&suod_scheduler::predict_chunk_costs(
            &unit_costs,
            &chunk_lens,
        ))?;

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

        let (outcomes, mut execution) = executor.run(tasks, &assignment, Arc::clone(observer))?;

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
        // its forecast-implied share of the pass.
        execution.stragglers =
            super::stragglers(&model_costs, &model_times, self.config.straggler_factor);
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
        let required = self.required_healthy(total);
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
        self.combined(x, None)
    }

    /// Scores `x`, enforces the healthy-model floor, and combines.
    fn combined(&self, x: &Matrix, buckets: Option<usize>) -> Result<Vec<f64>> {
        let state = Arc::clone(self.state()?);
        let obs = Arc::clone(&self.config.observer);
        let (scores, report) = self.predict_isolated(x, None, &obs)?;
        self.enforce_predict_floor(&report)?;
        Ok(state.combine(&scores, buckets))
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
        self.combined(x, Some(n_buckets))
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
        let (lo, hi) = self.state()?.train_range()?;
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
        Ok(state.combine(&state.train_score_matrix()?, None))
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
        Ok(self.state()?.train_rows())
    }

    /// `(pool index, algorithm name)` of each surviving model, in
    /// surviving-ensemble order — the column order of
    /// [`decision_function`](Self::decision_function) and the index space
    /// of per-model masks. Pool indices are stable across fit-time
    /// quarantines and match [`ModelReport`](crate::ModelReport) indices.
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
        Ok(state.combine(scores, None))
    }

    /// Per-model training scores (`m` columns), the pseudo ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn training_scores(&self) -> Result<Matrix> {
        self.state()?.train_score_matrix()
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
            let (None, Scorer::Approximator(approximator)) = (&model.projector, &model.scorer)
            else {
                continue;
            };
            if let Some(imp) = approximator.feature_importances() {
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
        let tasks = self.forecast_descriptors(state);
        let meta = DatasetMeta::from_shape(state.train_rows(), state.n_features);
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
pub(super) fn combine_standardized(
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
            let scores = catch_unwind(AssertUnwindSafe(|| match &model.scorer {
                Scorer::Approximator(r) => r.predict(z).map_err(|e| {
                    suod_detectors::Error::DegenerateData(format!(
                        "approximator prediction failed: {e}"
                    ))
                }),
                Scorer::Detector(detector) => match (&lists, detector.neighbor_query()) {
                    // Lists are sorted by (distance, index) and the unit's
                    // members are prefix-exact, so the first k entries are
                    // this member's own query answer.
                    (Some(lists), Some((_, k))) => {
                        let prefixes: Vec<&[Neighbor]> =
                            lists.iter().map(|nn| &nn[..k.min(nn.len())]).collect();
                        detector.score_from_neighbors(z, &prefixes)
                    }
                    _ => detector.decision_function(z),
                },
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

#[cfg(test)]
mod tests;
