//! The scoring service: bounded admission, micro-batching, deadline
//! shedding, and predict-time quarantine over a fitted [`Suod`].

use crate::clock::{Clock, SystemClock};
use crate::report::ServeReport;
use crate::{Error, Result};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use suod::Suod;
use suod_detectors::validate_finite;
use suod_linalg::Matrix;
use suod_observe::{Counter, Observer, SpanAttrs, Stage};

/// Tuning knobs for a [`ScoreService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue capacity. Submissions beyond this are rejected
    /// with [`SubmitError::Busy`] — explicit backpressure; the queue
    /// never grows without bound.
    pub queue_capacity: usize,
    /// Hard cap on rows per micro-batch.
    pub max_batch_rows: usize,
    /// Optional cost cap per micro-batch, in the cost model's unitless
    /// scale (see [`Suod::predict_unit_costs`]): the batch stops
    /// accepting requests once its forecast
    /// ([`suod_scheduler::predict_batch_forecast`] over the currently
    /// active models) would exceed this. Deterministic — derived from
    /// the fit-time cost forecast, not from measured times.
    pub max_batch_units: Option<f64>,
    /// Extra delay the background dispatcher adds between finding the
    /// queue non-empty and assembling a batch. Zero by default: dispatch
    /// is work-conserving — an idle dispatcher serves whatever is queued
    /// at once, and requests coalesce while the previous batch executes —
    /// so a window buys fewer, larger batches only at the price of that
    /// much latency on every request. Ignored when stepping manually.
    pub batch_window: Duration,
    /// Deadline budget applied to requests submitted without an explicit
    /// one. `None` disables shedding for such requests.
    pub default_deadline_ms: Option<u64>,
    /// Consecutive predict faults (panic, typed error, non-finite
    /// scores, or timeout breach) a model may accumulate before it is
    /// quarantined out of subsequent batches.
    pub predict_failure_budget: u32,
    /// Per-batch time budget for a single model's scoring work. A model
    /// whose measured time exceeds it is charged one fault — a post-hoc
    /// watchdog (running chunks cannot be cancelled), so one slow model
    /// delays at most `predict_failure_budget` batches before leaving
    /// the hot path.
    pub predict_timeout: Option<Duration>,
    /// Minimum fraction of the models *currently active* (not
    /// serve-quarantined) that must score successfully for a batch's
    /// combined scores to be trusted — the serving analog of the
    /// fit-time floor. Batches below the floor fail with
    /// [`ScoreOutcome::Failed`]; the service keeps running. Because the
    /// floor is taken over active models, quarantining a persistently
    /// faulty model shrinks the denominator and the service recovers —
    /// even at the strict default of `1.0`, a faulty model costs at
    /// most `predict_failure_budget` failed batches before survivor
    /// batches pass again.
    pub min_healthy_fraction: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch_rows: 1024,
            max_batch_units: None,
            batch_window: Duration::ZERO,
            default_deadline_ms: None,
            predict_failure_budget: 3,
            predict_timeout: None,
            min_healthy_fraction: 1.0,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(Error::Config("queue_capacity must be >= 1".into()));
        }
        if self.max_batch_rows == 0 {
            return Err(Error::Config("max_batch_rows must be >= 1".into()));
        }
        if let Some(u) = self.max_batch_units {
            if !(u.is_finite() && u > 0.0) {
                return Err(Error::Config(format!(
                    "max_batch_units must be finite and positive, got {u}"
                )));
            }
        }
        if self.predict_failure_budget == 0 {
            return Err(Error::Config("predict_failure_budget must be >= 1".into()));
        }
        if !(self.min_healthy_fraction.is_finite()
            && (0.0..=1.0).contains(&self.min_healthy_fraction))
        {
            return Err(Error::Config(format!(
                "min_healthy_fraction must be in [0, 1], got {}",
                self.min_healthy_fraction
            )));
        }
        Ok(())
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The admission queue is full. Retry later; the rejection is the
    /// backpressure signal.
    Busy {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service is shutting down.
    Closed,
    /// The request itself was malformed (empty, wrong feature count, or
    /// non-finite values). Validated at admission so one bad request can
    /// never poison batch-mates.
    InvalidRequest(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { capacity } => {
                write!(f, "admission queue full ({capacity} pending)")
            }
            SubmitError::Closed => write!(f, "service is closed"),
            SubmitError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A surviving model that faulted while scoring one batch.
#[derive(Debug, Clone)]
pub struct ModelFault {
    /// Original configured-pool index (matches
    /// [`suod::ModelReport`] indices).
    pub pool_index: usize,
    /// Short algorithm name.
    pub name: &'static str,
    /// Human-readable cause (panic message, typed error, or timeout).
    pub cause: String,
    /// Whether this fault tipped the model over its failure budget into
    /// quarantine.
    pub quarantined: bool,
}

/// A successfully scored request.
#[derive(Debug, Clone)]
pub struct ScoredBatch {
    /// Combined ensemble score per submitted row, in submission order —
    /// the survivor-only average (failed models' columns are skipped).
    pub combined: Vec<f64>,
    /// Faults observed in the batch this request rode in (empty on a
    /// fully healthy pass).
    pub faults: Vec<ModelFault>,
    /// Models that produced usable columns for this batch.
    pub healthy_models: usize,
    /// Models in the served (surviving) ensemble.
    pub total_models: usize,
    /// Admission-to-response latency in clock milliseconds.
    pub latency_ms: u64,
}

/// Terminal state of one submitted request.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ScoreOutcome {
    /// The request was scored.
    Scored(ScoredBatch),
    /// The request sat in the queue past its deadline and was shed
    /// without computing anything.
    Shed {
        /// Milliseconds the request waited before being dropped.
        waited_ms: u64,
        /// The deadline budget it was admitted with.
        deadline_ms: u64,
    },
    /// The batch could not be served (ensemble below the healthy floor,
    /// or the service shut down first).
    Failed(String),
}

/// One request's response slot, shared between the submitter's
/// [`Ticket`] and the dispatcher.
struct ResponseSlot {
    outcome: Mutex<Option<ScoreOutcome>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, outcome: ScoreOutcome) {
        let mut slot = lock_ignore_poison(&self.outcome);
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// Handle to a pending score request; blocks on [`wait`](Ticket::wait)
/// until the dispatcher responds.
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the request reaches a terminal state.
    pub fn wait(self) -> ScoreOutcome {
        let mut outcome = lock_ignore_poison(&self.slot.outcome);
        loop {
            if let Some(result) = outcome.take() {
                return result;
            }
            outcome = self
                .slot
                .ready
                .wait(outcome)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking poll; `Some` once the request is terminal.
    pub fn try_take(&self) -> Option<ScoreOutcome> {
        lock_ignore_poison(&self.slot.outcome).take()
    }
}

/// A request sitting in the admission queue.
struct Pending {
    rows: Matrix,
    enqueued_ms: u64,
    /// [`Clock::now_micros`] at admission — telemetry only; deadlines
    /// and `waited_ms` read `enqueued_ms`.
    enqueued_us: u64,
    /// Absolute clock deadline; `None` = never shed.
    deadline_at_ms: Option<u64>,
    /// The relative budget, kept for the shed response.
    deadline_ms: Option<u64>,
    slot: Arc<ResponseSlot>,
}

struct QueueState {
    pending: VecDeque<Pending>,
    closed: bool,
}

/// Per-model serving health: active mask plus consecutive-fault streaks.
///
/// `epoch` names the [`ServingPool`] generation these vectors describe.
/// A batch that started on an older pool compares its captured epoch
/// before writing streaks back, so a hot reload can never be corrupted
/// by a straggler batch finishing on the previous generation.
struct ServeHealth {
    epoch: u64,
    active: Vec<bool>,
    streaks: Vec<u32>,
}

/// One immutable generation of the served estimator plus the derived
/// lookups every batch needs. Swapped atomically (behind an `RwLock`)
/// by [`ScoreService::reload`]; in-flight batches keep scoring on the
/// `Arc` they cloned at assembly, new batches pick up the replacement.
struct ServingPool {
    clf: Suod,
    /// Per-surviving-model forecast cost (fit-time, immutable).
    unit_costs: Vec<f64>,
    /// `(pool index, name)` per surviving model.
    model_names: Vec<(usize, &'static str)>,
    train_rows: usize,
    n_features: usize,
    /// Generation counter; starts at 0, bumped once per reload.
    epoch: u64,
}

impl ServingPool {
    fn new(clf: Suod, epoch: u64) -> Result<Self> {
        let model_names = clf.surviving_models()?;
        let unit_costs = clf.predict_unit_costs()?;
        let train_rows = clf.train_rows()?;
        let n_features = clf.n_features()?;
        Ok(ServingPool {
            clf,
            unit_costs,
            model_names,
            train_rows,
            n_features,
            epoch,
        })
    }
}

/// Outcome of a successful [`ScoreService::reload`].
#[derive(Debug, Clone)]
pub struct ReloadReport {
    /// Generation the service is now serving (previous epoch + 1).
    pub epoch: u64,
    /// Models whose serve-time health (quarantine state and fault
    /// streak) survived the swap because the new pool carries the same
    /// model at the same configured index.
    pub carried_over: usize,
    /// Models that start the new generation with fresh health.
    pub reset: usize,
    /// Surviving models in the new pool.
    pub total_models: usize,
}

/// Upper bound on retained latency samples: percentiles in
/// [`ServeReport`] are computed over the most recent window, so a
/// long-lived service neither grows without bound nor slows down
/// `report()` over time.
const LATENCY_SAMPLE_CAP: usize = 4096;

/// Aggregated service counters and latency samples.
#[derive(Default)]
struct ServeStats {
    admitted: u64,
    rejected: u64,
    shed: u64,
    deadline_missed: u64,
    batches: u64,
    requests_scored: u64,
    requests_failed: u64,
    rows_scored: u64,
    predict_faults: u64,
    quarantined: u64,
    reloads: u64,
    /// Ring of the most recent [`LATENCY_SAMPLE_CAP`] request latencies,
    /// in clock microseconds.
    latencies_us: VecDeque<u64>,
    /// EWMA of measured seconds per forecast cost unit — the
    /// calibration joining the scheduler's unitless forecasts to wall
    /// time for capacity estimates.
    secs_per_unit: Option<f64>,
}

struct ServiceInner {
    config: ServeConfig,
    clock: Arc<dyn Clock>,
    observer: Arc<dyn Observer>,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    /// Lock order: `health` before `pool`; `stats` is never held
    /// together with either (see the discipline note in
    /// `process_once`). Batches clone the `Arc` and drop the read
    /// guard immediately, so a reload never waits on in-flight scoring.
    pool: RwLock<Arc<ServingPool>>,
    health: Mutex<ServeHealth>,
    stats: Mutex<ServeStats>,
}

/// A fault-tolerant online scoring service over a fitted [`Suod`].
///
/// Requests are admitted into a bounded queue ([`submit`](Self::submit)
/// rejects with [`SubmitError::Busy`] when full), coalesced into
/// micro-batches, scored through the estimator's fault-isolated masked
/// prediction path, and answered individually. Models that keep faulting
/// at predict time are quarantined out of subsequent batches; survivor
/// combination keeps every response's scores bit-identical to a
/// single-threaded pass over the same batch.
///
/// Two driving modes:
///
/// * **Background** — [`spawn_dispatcher`](Self::spawn_dispatcher)
///   starts a thread that repeats *wait until the queue is non-empty →
///   [`process_once`](Self::process_once)*. Dispatch is work-conserving:
///   an idle dispatcher serves a lone request at once, and whatever
///   arrives while a batch executes rides together in the next one.
/// * **Manual** — the owner calls [`process_once`](Self::process_once)
///   to drive one batch synchronously. With a
///   [`ManualClock`](crate::ManualClock) this makes every decision —
///   batch composition, shed set, quarantine sequence — a pure function
///   of the submitted trace, which is how the chaos suite proves
///   determinism.
pub struct ScoreService {
    inner: Arc<ServiceInner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl ScoreService {
    /// Builds a service over a fitted estimator with the system clock
    /// and no observer. Call
    /// [`spawn_dispatcher`](Self::spawn_dispatcher) for background
    /// operation or drive it with [`process_once`](Self::process_once).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for invalid knobs; [`Error::Core`] when the
    /// estimator is not fitted.
    pub fn new(clf: Suod, config: ServeConfig) -> Result<Self> {
        Self::with_parts(
            clf,
            config,
            Arc::new(SystemClock::new()),
            suod_observe::noop(),
        )
    }

    /// Builds a service with an explicit clock and observer — the
    /// constructor tests use with [`ManualClock`](crate::ManualClock)
    /// and a recording observer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn with_parts(
        clf: Suod,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        observer: Arc<dyn Observer>,
    ) -> Result<Self> {
        config.validate()?;
        let pool = ServingPool::new(clf, 0)?;
        let m = pool.model_names.len();
        Ok(ScoreService {
            inner: Arc::new(ServiceInner {
                config,
                clock,
                observer,
                queue: Mutex::new(QueueState {
                    pending: VecDeque::new(),
                    closed: false,
                }),
                work_ready: Condvar::new(),
                pool: RwLock::new(Arc::new(pool)),
                health: Mutex::new(ServeHealth {
                    epoch: 0,
                    active: vec![true; m],
                    streaks: vec![0; m],
                }),
                stats: Mutex::new(ServeStats::default()),
            }),
            dispatcher: None,
        })
    }

    /// Atomically replaces the served estimator with `clf` — **zero
    /// downtime**: in-flight batches finish on the generation they
    /// started with, every later batch scores on the new pool, and no
    /// admitted request is dropped or failed by the swap. Service
    /// counters ([`report`](Self::report)) keep accumulating across the
    /// swap; per-model quarantine state carries over for models the new
    /// pool serves at the same configured index (same algorithm), and
    /// resets for everything else.
    ///
    /// Typical flow: `Suod::load` a new snapshot (or
    /// [`warm_refit`](suod::Suod::warm_refit) in place) and hand it
    /// here.
    ///
    /// # Errors
    ///
    /// [`Error::Reload`] when the replacement's feature width differs
    /// from the served one; [`Error::Core`] when it is not fitted.
    /// On error the current pool keeps serving untouched.
    pub fn reload(&self, clf: Suod) -> Result<ReloadReport> {
        self.inner.reload(clf)
    }

    /// Generation of the currently served pool: 0 at construction,
    /// +1 per successful [`reload`](Self::reload).
    pub fn pool_epoch(&self) -> u64 {
        self.inner.pool_read().epoch
    }

    /// Starts the background dispatcher thread (idempotent).
    pub fn spawn_dispatcher(&mut self) {
        if self.dispatcher.is_some() {
            return;
        }
        let inner = Arc::clone(&self.inner);
        self.dispatcher = Some(
            std::thread::Builder::new()
                .name("suod-serve-dispatcher".into())
                .spawn(move || inner.dispatch_loop())
                .expect("spawning the dispatcher thread"),
        );
    }

    /// Admits a score request with the configured default deadline.
    /// `rows` is one or more query rows in the fitted feature space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the bounded queue is full (the
    /// backpressure signal), [`SubmitError::InvalidRequest`] for
    /// malformed input, [`SubmitError::Closed`] during shutdown.
    pub fn submit(&self, rows: Matrix) -> std::result::Result<Ticket, SubmitError> {
        let deadline = self.inner.config.default_deadline_ms;
        self.submit_with_deadline(rows, deadline)
    }

    /// Admits a score request with an explicit deadline budget in clock
    /// milliseconds (`None` = never shed).
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        rows: Matrix,
        deadline_ms: Option<u64>,
    ) -> std::result::Result<Ticket, SubmitError> {
        self.inner.submit_with_deadline(rows, deadline_ms)
    }

    /// Synchronously assembles and serves one micro-batch: drains
    /// admitted requests up to the batch caps, sheds those past their
    /// deadline, scores the rest through the fault-isolated masked
    /// prediction path, and fills every drained request's ticket.
    /// Returns the number of requests retired (scored, shed, or
    /// failed); `0` means the queue was empty.
    pub fn process_once(&self) -> usize {
        self.inner.process_once()
    }

    /// Current per-model activity mask, in surviving-ensemble order
    /// (`false` = quarantined at serve time).
    pub fn active_models(&self) -> Vec<bool> {
        lock_ignore_poison(&self.inner.health).active.clone()
    }

    /// Number of admitted requests currently waiting in the queue. A
    /// point-in-time sample for admission policies layered above the
    /// queue (the front end's lane gate); by the time the caller acts
    /// the depth may already have moved.
    pub fn queue_depth(&self) -> usize {
        lock_ignore_poison(&self.inner.queue).pending.len()
    }

    /// The configured admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.inner.config.queue_capacity
    }

    /// Snapshot of the service's counters and latency percentiles.
    pub fn report(&self) -> ServeReport {
        self.inner.report()
    }

    /// Shuts the service down: rejects future submissions, fails
    /// still-queued requests, and joins the dispatcher. Called by `Drop`;
    /// explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut queue = lock_ignore_poison(&self.inner.queue);
            queue.closed = true;
            for request in queue.pending.drain(..) {
                request
                    .slot
                    .fill(ScoreOutcome::Failed("service shut down".into()));
            }
        }
        self.inner.work_ready.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScoreService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServiceInner {
    fn dispatch_loop(&self) {
        loop {
            {
                let mut queue = lock_ignore_poison(&self.queue);
                while queue.pending.is_empty() && !queue.closed {
                    queue = self
                        .work_ready
                        .wait(queue)
                        .unwrap_or_else(|p| p.into_inner());
                }
                if queue.closed {
                    return;
                }
            }
            // Work-conserving: nothing is executing, so what is queued is
            // served now; coalescing is whatever arrives while this batch
            // runs. A window is honoured only as an explicit extra delay.
            if !self.config.batch_window.is_zero() {
                self.clock.sleep(self.config.batch_window);
            }
            self.process_once();
        }
    }

    fn submit_with_deadline(
        &self,
        rows: Matrix,
        deadline_ms: Option<u64>,
    ) -> std::result::Result<Ticket, SubmitError> {
        if rows.nrows() == 0 {
            return Err(SubmitError::InvalidRequest(
                "request carries no rows".into(),
            ));
        }
        let n_features = self.pool_read().n_features;
        if rows.ncols() != n_features {
            return Err(SubmitError::InvalidRequest(format!(
                "expected {n_features} features, got {}",
                rows.ncols()
            )));
        }
        if validate_finite(&rows, "serve").is_err() {
            return Err(SubmitError::InvalidRequest(
                "request contains non-finite values".into(),
            ));
        }
        let _span = suod_observe::span(
            self.observer.as_ref(),
            Stage::RequestEnqueue,
            SpanAttrs::none(),
        );
        let now = self.clock.now_millis();
        let now_us = self.clock.now_micros();
        let slot = ResponseSlot::new();
        {
            let mut queue = lock_ignore_poison(&self.queue);
            if queue.closed {
                return Err(SubmitError::Closed);
            }
            if queue.pending.len() >= self.config.queue_capacity {
                self.observer.counter(Counter::Rejected, 1);
                lock_ignore_poison(&self.stats).rejected += 1;
                return Err(SubmitError::Busy {
                    capacity: self.config.queue_capacity,
                });
            }
            queue.pending.push_back(Pending {
                rows,
                enqueued_ms: now,
                enqueued_us: now_us,
                deadline_at_ms: deadline_ms.map(|d| now.saturating_add(d)),
                deadline_ms,
                slot: Arc::clone(&slot),
            });
        }
        self.observer.counter(Counter::Admitted, 1);
        lock_ignore_poison(&self.stats).admitted += 1;
        self.work_ready.notify_all();
        Ok(Ticket { slot })
    }

    /// Clones the current pool `Arc`, dropping the read guard
    /// immediately so callers never pin a reload.
    fn pool_read(&self) -> Arc<ServingPool> {
        Arc::clone(
            &self
                .pool
                .read()
                .unwrap_or_else(|poison| poison.into_inner()),
        )
    }

    fn reload(&self, clf: Suod) -> Result<ReloadReport> {
        let _span =
            suod_observe::span(self.observer.as_ref(), Stage::PoolReload, SpanAttrs::none());
        // Validate and derive the new pool's lookups *before* taking any
        // lock — a rejected reload leaves the service untouched.
        let current = self.pool_read();
        let incoming_features = clf.n_features()?;
        if incoming_features != current.n_features {
            return Err(Error::Reload(format!(
                "replacement pool scores {incoming_features} features, service was built \
                 for {}",
                current.n_features
            )));
        }
        let staged = ServingPool::new(clf, 0)?;

        // Lock order: `health` before `pool` (matches batch assembly).
        // Both guards are held only for the swap itself — never while
        // scoring — so in-flight batches are unaffected.
        let mut health = lock_ignore_poison(&self.health);
        let report =
            {
                let mut pool = self
                    .pool
                    .write()
                    .unwrap_or_else(|poison| poison.into_inner());
                let epoch = pool.epoch + 1;
                let new_pool = Arc::new(ServingPool { epoch, ..staged });
                let mut active = Vec::with_capacity(new_pool.model_names.len());
                let mut streaks = Vec::with_capacity(new_pool.model_names.len());
                let mut carried_over = 0usize;
                for &(pool_index, name) in &new_pool.model_names {
                    match pool.model_names.iter().position(|&(old_index, old_name)| {
                        old_index == pool_index && old_name == name
                    }) {
                        Some(old_pos) => {
                            active.push(health.active[old_pos]);
                            streaks.push(health.streaks[old_pos]);
                            carried_over += 1;
                        }
                        None => {
                            active.push(true);
                            streaks.push(0);
                        }
                    }
                }
                let total_models = new_pool.model_names.len();
                health.epoch = epoch;
                health.active = active;
                health.streaks = streaks;
                *pool = new_pool;
                ReloadReport {
                    epoch,
                    carried_over,
                    reset: total_models - carried_over,
                    total_models,
                }
            };
        drop(health);
        self.observer.counter(Counter::PoolReload, 1);
        lock_ignore_poison(&self.stats).reloads += 1;
        Ok(report)
    }

    /// Row cap for the next batch given the currently active models:
    /// the hard `max_batch_rows`, tightened by `max_batch_units` through
    /// the scheduler's deterministic cost forecast.
    fn batch_row_cap(&self, pool: &ServingPool, active: &[bool]) -> usize {
        let mut cap = self.config.max_batch_rows;
        if let Some(max_units) = self.config.max_batch_units {
            let active_cost: f64 = pool
                .unit_costs
                .iter()
                .zip(active)
                .filter(|(_, &a)| a)
                .map(|(&c, _)| c)
                .sum();
            if active_cost > 0.0 {
                // Invert forecast(rows) = active_cost * rows / train_rows.
                let rows = (max_units * pool.train_rows as f64 / active_cost).floor() as usize;
                cap = cap.min(rows.max(1));
            }
        }
        cap
    }

    fn process_once(&self) -> usize {
        // --- Assemble: drain FIFO up to the caps, shed expired work. ----
        let assemble_span = suod_observe::span(
            self.observer.as_ref(),
            Stage::BatchAssemble,
            SpanAttrs::none(),
        );
        // Snapshot (pool, mask) atomically: `health` is taken first,
        // then the pool `Arc` is cloned under it — the same order
        // `reload` uses, so the mask always describes this pool
        // generation. The read guard drops right away; the batch scores
        // on its own `Arc` and a concurrent reload never blocks on it.
        let (pool, active) = {
            let health = lock_ignore_poison(&self.health);
            (self.pool_read(), health.active.clone())
        };
        let row_cap = self.batch_row_cap(&pool, &active);
        let mut drained: Vec<Pending> = Vec::new();
        {
            let mut queue = lock_ignore_poison(&self.queue);
            let mut rows = 0usize;
            while let Some(front) = queue.pending.front() {
                let request_rows = front.rows.nrows();
                // Always take at least one request so oversized requests
                // cannot starve.
                if !drained.is_empty() && rows + request_rows > row_cap {
                    break;
                }
                rows += request_rows;
                drained.push(queue.pending.pop_front().expect("front exists"));
            }
        }
        if drained.is_empty() {
            drop(assemble_span);
            return 0;
        }
        let now = self.clock.now_millis();
        let mut batch: Vec<Pending> = Vec::with_capacity(drained.len());
        let mut retired = 0usize;
        for request in drained {
            match request.deadline_at_ms {
                Some(deadline_at) if deadline_at < now => {
                    self.observer.counter(Counter::Shed, 1);
                    self.observer.counter(Counter::DeadlineMissed, 1);
                    {
                        let mut stats = lock_ignore_poison(&self.stats);
                        stats.shed += 1;
                        stats.deadline_missed += 1;
                    }
                    request.slot.fill(ScoreOutcome::Shed {
                        waited_ms: now.saturating_sub(request.enqueued_ms),
                        deadline_ms: request.deadline_ms.unwrap_or(0),
                    });
                    retired += 1;
                }
                _ => batch.push(request),
            }
        }
        drop(assemble_span);
        if batch.is_empty() {
            return retired;
        }

        // --- Score the concatenated batch through the masked path. ------
        let n_cols = pool.n_features;
        let total_rows: usize = batch.iter().map(|r| r.rows.nrows()).sum();
        let mut data = Vec::with_capacity(total_rows * n_cols);
        for request in &batch {
            data.extend_from_slice(request.rows.as_slice());
        }
        let matrix = Matrix::from_vec(total_rows, n_cols, data)
            .expect("batch dimensions are consistent by construction");
        let scored = pool
            .clf
            .decision_function_masked(&matrix, &active, &self.observer);
        let (scores, predict_report) = match scored {
            Ok(pair) => pair,
            Err(e) => {
                let message = format!("prediction failed: {e}");
                // Stats are published before the tickets resolve so a
                // client that has observed its outcome always finds it
                // reflected in `report()`.
                lock_ignore_poison(&self.stats).requests_failed += batch.len() as u64;
                for request in &batch {
                    request.slot.fill(ScoreOutcome::Failed(message.clone()));
                }
                return retired + batch.len();
            }
        };

        // --- Health bookkeeping: streaks, timeouts, quarantine. ---------
        // Faults are derived from the *snapshot* mask first (no lock),
        // then written back under `health` only if the pool generation
        // is still the one this batch scored on — a batch that raced a
        // reload must not poison the fresh generation's streaks.
        //
        // Lock discipline: the service never holds `health` and `stats`
        // at the same time (`report()` relies on this — nested
        // acquisition in opposite orders would be an AB-BA deadlock).
        let mut faults: Vec<ModelFault> = Vec::new();
        let mut healthy_models = 0usize;
        let mut newly_quarantined = 0u64;
        let mut faulted = vec![false; active.len()];
        for failure in &predict_report.failures {
            if let Some(pos) = pool
                .model_names
                .iter()
                .position(|&(idx, _)| idx == failure.index)
            {
                faulted[pos] = true;
                faults.push(ModelFault {
                    pool_index: failure.index,
                    name: failure.name,
                    cause: failure.cause.to_string(),
                    quarantined: false,
                });
            }
        }
        if let Some(timeout) = self.config.predict_timeout {
            for (pos, &(pool_index, name)) in pool.model_names.iter().enumerate() {
                if active[pos] && !faulted[pos] && predict_report.model_times[pos] > timeout {
                    faulted[pos] = true;
                    faults.push(ModelFault {
                        pool_index,
                        name,
                        cause: format!(
                            "predict timeout: {:.1}ms > {:.1}ms budget",
                            predict_report.model_times[pos].as_secs_f64() * 1e3,
                            timeout.as_secs_f64() * 1e3
                        ),
                        quarantined: false,
                    });
                }
            }
        }
        for (pos, &was_faulted) in faulted.iter().enumerate() {
            if active[pos] && !was_faulted {
                healthy_models += 1;
            }
        }
        {
            let mut health = lock_ignore_poison(&self.health);
            if health.epoch == pool.epoch {
                for (pos, &was_faulted) in faulted.iter().enumerate() {
                    if !health.active[pos] {
                        continue;
                    }
                    if was_faulted {
                        health.streaks[pos] += 1;
                        if health.streaks[pos] >= self.config.predict_failure_budget {
                            health.active[pos] = false;
                            newly_quarantined += 1;
                            let pool_index = pool.model_names[pos].0;
                            for fault in &mut faults {
                                if fault.pool_index == pool_index {
                                    fault.quarantined = true;
                                }
                            }
                        }
                    } else {
                        health.streaks[pos] = 0;
                    }
                }
            }
        }
        if newly_quarantined > 0 {
            self.observer
                .counter(Counter::PredictQuarantined, newly_quarantined);
        }
        {
            let mut stats = lock_ignore_poison(&self.stats);
            stats.predict_faults += faults.len() as u64;
            stats.quarantined += newly_quarantined;
        }

        // --- Floor check + survivor-only combination. -------------------
        // The floor is taken over the models active for *this* batch, so
        // quarantining a persistently faulty model shrinks the
        // denominator and the service recovers even at
        // `min_healthy_fraction == 1.0`.
        let total_models = pool.model_names.len();
        let active_models = active.iter().filter(|&&a| a).count();
        let required = (((self.config.min_healthy_fraction * active_models as f64) - 1e-9).ceil()
            as usize)
            .max(1);
        if healthy_models < required {
            let message = format!(
                "ensemble degraded below serving floor: {healthy_models}/{active_models} \
                 active models healthy, {required} required"
            );
            lock_ignore_poison(&self.stats).requests_failed += batch.len() as u64;
            for request in &batch {
                request.slot.fill(ScoreOutcome::Failed(message.clone()));
            }
            return retired + batch.len();
        }
        let combine_span =
            suod_observe::span(self.observer.as_ref(), Stage::Combine, SpanAttrs::none());
        let combined = match pool.clf.combine_score_matrix(&scores) {
            Ok(c) => c,
            Err(e) => {
                let message = format!("combination failed: {e}");
                lock_ignore_poison(&self.stats).requests_failed += batch.len() as u64;
                for request in &batch {
                    request.slot.fill(ScoreOutcome::Failed(message.clone()));
                }
                return retired + batch.len();
            }
        };
        drop(combine_span);

        // --- Slice per-request outcomes, preserving row order. ----------
        let done = self.clock.now_millis();
        let done_us = self.clock.now_micros();
        let mut offset = 0usize;
        let mut latencies = Vec::with_capacity(batch.len());
        let mut missed = 0u64;
        let mut outcomes = Vec::with_capacity(batch.len());
        for request in &batch {
            let rows = request.rows.nrows();
            let latency_ms = done.saturating_sub(request.enqueued_ms);
            if matches!(request.deadline_at_ms, Some(d) if done > d) {
                self.observer.counter(Counter::DeadlineMissed, 1);
                missed += 1;
            }
            latencies.push(done_us.saturating_sub(request.enqueued_us));
            outcomes.push(ScoreOutcome::Scored(ScoredBatch {
                combined: combined[offset..offset + rows].to_vec(),
                faults: faults.clone(),
                healthy_models,
                total_models,
                latency_ms,
            }));
            offset += rows;
        }

        // --- Stats + forecast calibration. ------------------------------
        // Published before the tickets resolve so a client that has
        // observed its outcome always finds it reflected in `report()`.
        {
            let mut stats = lock_ignore_poison(&self.stats);
            stats.batches += 1;
            stats.requests_scored += batch.len() as u64;
            stats.rows_scored += total_rows as u64;
            stats.deadline_missed += missed;
            stats.latencies_us.extend(latencies);
            while stats.latencies_us.len() > LATENCY_SAMPLE_CAP {
                stats.latencies_us.pop_front();
            }
            let active_cost: f64 = pool
                .unit_costs
                .iter()
                .zip(&active)
                .filter(|(_, &a)| a)
                .map(|(&c, _)| c)
                .sum();
            let units =
                suod_scheduler::predict_batch_forecast(&[active_cost], total_rows, pool.train_rows);
            if units > 0.0 {
                let sample = predict_report.wall_time.as_secs_f64() / units;
                stats.secs_per_unit = Some(match stats.secs_per_unit {
                    Some(prev) => 0.7 * prev + 0.3 * sample,
                    None => sample,
                });
            }
        }
        for (request, outcome) in batch.iter().zip(outcomes) {
            request.slot.fill(outcome);
        }
        retired + batch.len()
    }

    fn report(&self) -> ServeReport {
        // Snapshot each lock separately — never hold `stats` and
        // `health` together (see the lock discipline note in
        // `process_once`).
        let mut report = {
            let stats = lock_ignore_poison(&self.stats);
            let mut sorted: Vec<u64> = stats.latencies_us.iter().copied().collect();
            sorted.sort_unstable();
            let percentile = |p: f64| -> u64 {
                if sorted.is_empty() {
                    return 0;
                }
                let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1]
            };
            let (p50, p99) = (percentile(0.50), percentile(0.99));
            let max = sorted.last().copied().unwrap_or(0);
            ServeReport {
                admitted: stats.admitted,
                rejected: stats.rejected,
                shed: stats.shed,
                deadline_missed: stats.deadline_missed,
                predict_faults: stats.predict_faults,
                quarantined: stats.quarantined,
                batches: stats.batches,
                requests_scored: stats.requests_scored,
                requests_failed: stats.requests_failed,
                rows_scored: stats.rows_scored,
                reloads: stats.reloads,
                pool_epoch: 0,
                active_models: 0,
                total_models: 0,
                p50_latency_us: p50,
                p99_latency_us: p99,
                max_latency_us: max,
                p50_latency_ms: p50 / 1000,
                p99_latency_ms: p99 / 1000,
                max_latency_ms: max / 1000,
                secs_per_unit: stats.secs_per_unit,
            }
        };
        {
            let health = lock_ignore_poison(&self.health);
            report.pool_epoch = health.epoch;
            report.active_models = health.active.iter().filter(|&&a| a).count();
            report.total_models = health.active.len();
        }
        report
    }
}

/// Mutex helper mirroring the executor's convention: a poisoned lock
/// means a panicking thread, but serve state stays consistent (every
/// update is a complete transaction), so we keep serving.
pub(crate) fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use suod::prelude::*;

    fn data(n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    (i % 9) as f64 * 0.3,
                    (i % 5) as f64 * 0.4,
                    ((i * 3) % 7) as f64,
                ]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn fitted(pool: Vec<ModelSpec>) -> Suod {
        let mut clf = Suod::builder()
            .base_estimators(pool)
            .min_healthy_fraction(0.5)
            .seed(11)
            .build()
            .unwrap();
        clf.fit(&data(48)).unwrap();
        clf
    }

    fn healthy_pool() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Hbos {
                n_bins: 8,
                tolerance: 0.3,
            },
            ModelSpec::IForest {
                n_estimators: 10,
                max_features: 1.0,
            },
        ]
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        for config in [
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch_rows: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch_units: Some(0.0),
                ..ServeConfig::default()
            },
            ServeConfig {
                predict_failure_budget: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                min_healthy_fraction: 1.5,
                ..ServeConfig::default()
            },
        ] {
            assert!(ScoreService::new(fitted(healthy_pool()), config).is_err());
        }
    }

    #[test]
    fn unfitted_estimator_is_rejected() {
        let clf = Suod::builder()
            .base_estimators(healthy_pool())
            .build()
            .unwrap();
        assert!(matches!(
            ScoreService::new(clf, ServeConfig::default()),
            Err(Error::Core(suod::Error::NotFitted))
        ));
    }

    #[test]
    fn submit_rejects_malformed_requests() {
        let service = ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        // Empty request.
        assert!(matches!(
            service.submit(Matrix::zeros(0, 3)),
            Err(SubmitError::InvalidRequest(_))
        ));
        // Wrong feature count.
        assert!(matches!(
            service.submit(Matrix::zeros(2, 5)),
            Err(SubmitError::InvalidRequest(_))
        ));
        // Non-finite input never reaches a batch.
        let mut bad = Matrix::zeros(1, 3);
        bad.set(0, 1, f64::NAN);
        assert!(matches!(
            service.submit(bad),
            Err(SubmitError::InvalidRequest(_))
        ));
    }

    #[test]
    fn full_queue_pushes_back_with_busy() {
        let config = ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let service = ScoreService::new(fitted(healthy_pool()), config).unwrap();
        let t1 = service.submit(data(3)).unwrap();
        let t2 = service.submit(data(3)).unwrap();
        match service.submit(data(3)).err() {
            Some(SubmitError::Busy { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected Busy, got {other:?}"),
        }
        // Draining the queue reopens admission; nothing was lost.
        assert_eq!(service.process_once(), 2);
        assert!(matches!(t1.wait(), ScoreOutcome::Scored(_)));
        assert!(matches!(t2.wait(), ScoreOutcome::Scored(_)));
        assert!(service.submit(data(3)).is_ok());
        let report = service.report();
        assert_eq!(report.admitted, 3);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn expired_deadlines_shed_before_compute() {
        let clock = Arc::new(ManualClock::new());
        let service = ScoreService::with_parts(
            fitted(healthy_pool()),
            ServeConfig::default(),
            clock.clone(),
            suod_observe::noop(),
        )
        .unwrap();
        let stale = service.submit_with_deadline(data(2), Some(10)).unwrap();
        let fresh = service.submit_with_deadline(data(2), Some(100)).unwrap();
        let eternal = service.submit_with_deadline(data(2), None).unwrap();
        clock.advance(50);
        assert_eq!(service.process_once(), 3);
        match stale.wait() {
            ScoreOutcome::Shed {
                waited_ms,
                deadline_ms,
            } => {
                assert_eq!(waited_ms, 50);
                assert_eq!(deadline_ms, 10);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        assert!(matches!(fresh.wait(), ScoreOutcome::Scored(_)));
        assert!(matches!(eternal.wait(), ScoreOutcome::Scored(_)));
        let report = service.report();
        assert_eq!(report.shed, 1);
        assert!(report.deadline_missed >= 1);
    }

    #[test]
    fn scores_match_direct_estimator_pass() {
        let service = ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        let query = data(7);
        let ticket = service.submit(query.clone()).unwrap();
        service.process_once();
        let combined = match ticket.wait() {
            ScoreOutcome::Scored(batch) => batch.combined,
            other => panic!("expected scores, got {other:?}"),
        };
        let expected = fitted(healthy_pool()).combined_scores(&query).unwrap();
        assert_eq!(combined, expected);
    }

    #[test]
    fn oversized_request_is_not_starved() {
        let config = ServeConfig {
            max_batch_rows: 4,
            ..ServeConfig::default()
        };
        let service = ScoreService::new(fitted(healthy_pool()), config).unwrap();
        // 10 rows > max_batch_rows, but the batch always takes >= 1 request.
        let big = service.submit(data(10)).unwrap();
        assert_eq!(service.process_once(), 1);
        assert!(matches!(big.wait(), ScoreOutcome::Scored(_)));
    }

    #[test]
    fn forecast_cap_limits_batch_rows() {
        let clf = fitted(healthy_pool());
        let unit_cost: f64 = clf.predict_unit_costs().unwrap().iter().sum();
        let train_rows = clf.train_rows().unwrap() as f64;
        // Budget exactly enough units for ~6 rows.
        let config = ServeConfig {
            max_batch_units: Some(unit_cost * 6.0 / train_rows),
            ..ServeConfig::default()
        };
        let service = ScoreService::new(clf, config).unwrap();
        let a = service.submit(data(4)).unwrap();
        let b = service.submit(data(4)).unwrap();
        // 4 + 4 > 6-row cap: the second request waits for the next batch.
        assert_eq!(service.process_once(), 1);
        assert!(matches!(a.wait(), ScoreOutcome::Scored(_)));
        assert!(b.try_take().is_none());
        assert_eq!(service.process_once(), 1);
        assert!(matches!(b.wait(), ScoreOutcome::Scored(_)));
    }

    #[test]
    fn latency_samples_stay_bounded() {
        let service = ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        // Pre-fill the ring to capacity; the next scored batch must
        // evict old samples instead of growing past the cap.
        {
            let mut stats = lock_ignore_poison(&service.inner.stats);
            stats.latencies_us.extend(0..LATENCY_SAMPLE_CAP as u64);
        }
        let ticket = service.submit(data(3)).unwrap();
        service.process_once();
        assert!(matches!(ticket.wait(), ScoreOutcome::Scored(_)));
        let stats = lock_ignore_poison(&service.inner.stats);
        assert_eq!(stats.latencies_us.len(), LATENCY_SAMPLE_CAP);
    }

    #[test]
    fn shutdown_fails_pending_requests() {
        let mut service =
            ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        let pending = service.submit(data(2)).unwrap();
        service.shutdown();
        assert!(matches!(pending.wait(), ScoreOutcome::Failed(_)));
        assert!(matches!(service.submit(data(2)), Err(SubmitError::Closed)));
    }

    #[test]
    fn reload_swaps_pool_and_preserves_counters() {
        let service = ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        let before = service.submit(data(3)).unwrap();
        service.process_once();
        assert!(matches!(before.wait(), ScoreOutcome::Scored(_)));
        assert_eq!(service.pool_epoch(), 0);

        let replacement = fitted(healthy_pool());
        let expected = replacement.combined_scores(&data(5)).unwrap();
        let reload = service.reload(replacement).unwrap();
        assert_eq!(reload.epoch, 1);
        assert_eq!(reload.carried_over, 2);
        assert_eq!(reload.reset, 0);
        assert_eq!(service.pool_epoch(), 1);

        let after = service.submit(data(5)).unwrap();
        service.process_once();
        match after.wait() {
            ScoreOutcome::Scored(batch) => assert_eq!(batch.combined, expected),
            other => panic!("expected scores, got {other:?}"),
        }
        // Counters accumulate across the swap.
        let report = service.report();
        assert_eq!(report.admitted, 2);
        assert_eq!(report.requests_scored, 2);
        assert_eq!(report.reloads, 1);
        assert_eq!(report.pool_epoch, 1);
    }

    #[test]
    fn reload_rejects_mismatched_feature_width() {
        let service = ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        let mut narrow = Suod::builder()
            .base_estimators(healthy_pool())
            .seed(11)
            .build()
            .unwrap();
        let rows: Vec<Vec<f64>> = (0..48).map(|i| vec![(i % 9) as f64 * 0.3]).collect();
        narrow.fit(&Matrix::from_rows(&rows).unwrap()).unwrap();
        assert!(matches!(service.reload(narrow), Err(Error::Reload(_))));
        // The rejected reload left the original pool serving.
        assert_eq!(service.pool_epoch(), 0);
        let ticket = service.submit(data(2)).unwrap();
        service.process_once();
        assert!(matches!(ticket.wait(), ScoreOutcome::Scored(_)));
    }

    #[test]
    fn reload_rejects_unfitted_estimator() {
        let service = ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        let unfitted = Suod::builder()
            .base_estimators(healthy_pool())
            .build()
            .unwrap();
        assert!(matches!(
            service.reload(unfitted),
            Err(Error::Core(suod::Error::NotFitted))
        ));
        assert_eq!(service.pool_epoch(), 0);
    }

    #[test]
    fn reload_carries_quarantine_state_for_matching_models() {
        let mut pool = healthy_pool();
        pool.push(ModelSpec::Chaos {
            mode: ChaosMode::NanOnPredict,
            n_neighbors: 3,
        });
        let config = ServeConfig {
            predict_failure_budget: 1,
            min_healthy_fraction: 0.5,
            ..ServeConfig::default()
        };
        let service = ScoreService::new(fitted(pool.clone()), config).unwrap();
        // One faulting batch quarantines the chaos model outright.
        let ticket = service.submit(data(3)).unwrap();
        service.process_once();
        assert!(matches!(ticket.wait(), ScoreOutcome::Scored(_)));
        assert_eq!(service.active_models(), vec![true, true, false]);

        // Same pool shape at the same indices: quarantine survives.
        let reload = service.reload(fitted(pool)).unwrap();
        assert_eq!(reload.carried_over, 3);
        assert_eq!(service.active_models(), vec![true, true, false]);

        // A different pool resets health for the changed slots.
        let reload = service.reload(fitted(healthy_pool())).unwrap();
        assert_eq!(reload.total_models, 2);
        assert_eq!(reload.carried_over, 2);
        assert_eq!(service.active_models(), vec![true, true]);
    }

    /// System time, counting the dispatcher's `sleep` calls.
    #[derive(Debug, Default)]
    struct SleepCountingClock {
        inner: SystemClock,
        sleeps: AtomicUsize,
    }

    impl Clock for SleepCountingClock {
        fn now_millis(&self) -> u64 {
            self.inner.now_millis()
        }

        fn sleep(&self, window: Duration) {
            self.sleeps.fetch_add(1, Ordering::SeqCst);
            self.inner.sleep(window);
        }
    }

    /// The dispatch rule: an idle dispatcher serves a lone request
    /// without consulting a timer; a configured window is slept exactly
    /// once per batch.
    #[test]
    fn idle_dispatcher_serves_at_once_and_sleeps_only_for_an_explicit_window() {
        for (batch_window, sleeps_per_batch) in [(Duration::ZERO, 0), (Duration::from_millis(1), 1)]
        {
            let clock = Arc::new(SleepCountingClock::default());
            let config = ServeConfig {
                batch_window,
                ..ServeConfig::default()
            };
            let mut service = ScoreService::with_parts(
                fitted(healthy_pool()),
                config,
                clock.clone(),
                suod_observe::noop(),
            )
            .unwrap();
            service.spawn_dispatcher();
            for _ in 0..50 {
                let outcome = service.submit(data(2)).unwrap().wait();
                assert!(matches!(outcome, ScoreOutcome::Scored(_)));
            }
            service.shutdown();
            assert_eq!(service.report().batches, 50);
            assert_eq!(
                clock.sleeps.load(Ordering::SeqCst),
                50 * sleeps_per_batch,
                "window {batch_window:?}"
            );
        }
    }

    /// Holds the first batch inside its `Combine` span until released,
    /// and says when it got there — the batch is then provably executing
    /// with its requests already drained from the queue.
    struct HoldFirstBatch {
        /// `(reached, release)`, taken by the first batch.
        gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    }

    impl Observer for HoldFirstBatch {
        fn span_begin(&self, stage: Stage, _attrs: SpanAttrs) -> suod_observe::SpanId {
            if stage == Stage::Combine {
                if let Some((reached, release)) = lock_ignore_poison(&self.gate).take() {
                    reached.send(()).unwrap();
                    release.recv().unwrap();
                }
            }
            suod_observe::SpanId::NONE
        }
    }

    /// Coalescing happens while a batch runs: requests that arrive
    /// behind an executing batch ride together in the next one.
    #[test]
    fn requests_arriving_while_a_batch_runs_coalesce_into_the_next() {
        let (reached_tx, reached_rx) = channel();
        let (release_tx, release_rx) = channel();
        let mut service = ScoreService::with_parts(
            fitted(healthy_pool()),
            ServeConfig::default(),
            Arc::new(SystemClock::new()),
            Arc::new(HoldFirstBatch {
                gate: Mutex::new(Some((reached_tx, release_rx))),
            }),
        )
        .unwrap();
        service.spawn_dispatcher();
        let oracle = fitted(healthy_pool());
        let queries = [data(2), data(5), data(3), data(7)];

        let mut tickets = vec![service.submit(queries[0].clone()).unwrap()];
        reached_rx.recv().unwrap();
        assert_eq!(service.queue_depth(), 0, "the first batch took its request");
        for query in &queries[1..] {
            tickets.push(service.submit(query.clone()).unwrap());
        }
        release_tx.send(()).unwrap();

        for (ticket, query) in tickets.into_iter().zip(&queries) {
            match ticket.wait() {
                ScoreOutcome::Scored(batch) => {
                    assert_eq!(batch.combined, oracle.combined_scores(query).unwrap())
                }
                other => panic!("expected scores, got {other:?}"),
            }
        }
        let report = service.report();
        assert_eq!(report.batches, 2);
        assert_eq!(report.requests_scored, 4);
    }

    #[test]
    fn background_dispatcher_serves_concurrent_clients() {
        let mut service =
            ScoreService::new(fitted(healthy_pool()), ServeConfig::default()).unwrap();
        service.spawn_dispatcher();
        let service = Arc::new(service);
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.submit(data(3)).unwrap().wait())
            })
            .collect();
        for client in clients {
            assert!(matches!(client.join().unwrap(), ScoreOutcome::Scored(_)));
        }
        assert_eq!(service.report().requests_scored, 4);
    }
}
