//! Work-stealing execution on top of BPS placement.
//!
//! The paper's BPS module (§3.5) is a *static* schedule: it forecasts
//! per-model cost, balances discounted-rank sums, and then each worker
//! runs its group to completion. When the cost model mispredicts a
//! straggler — the exact failure mode the Spearman-validated predictor
//! cannot fully remove — every other worker goes idle while one grinds.
//!
//! [`WorkStealingExecutor`] keeps the paper's placement as the *initial
//! hint*: per-worker deques are seeded from the [`Assignment`] in group
//! order, so with a perfect cost model execution is identical to the
//! static schedule. Whenever a worker drains its own deque it steals one
//! task from the **tail** of the most-loaded peer (the tail holds the
//! peer's latest-scheduled — under LPT, cheapest — work, which minimizes
//! disruption of the placement).
//!
//! Two properties the rest of the workspace relies on:
//!
//! * **Determinism of results.** Every task runs exactly once and stores
//!   its outcome in the task's own slot, so the output vector is in task
//!   order, independent of which worker ran what and of the steal
//!   interleaving. Only timing varies.
//! * **Telemetry.** Each run emits an [`ExecutionReport`] (per-task wall
//!   time, per-worker busy time, steal count) so the cost model's
//!   forecasts can be validated against *measured* runtimes with the
//!   Spearman machinery in `suod-metrics`.
//!
//! # Fault isolation
//!
//! Heterogeneous detector pools are numerically fragile: one ABOD on
//! degenerate variance or one non-converging OCSVM must not abort the
//! other 199 fits. [`run`](WorkStealingExecutor::run) therefore gives
//! every task its own fault boundary: a task's panic is caught and
//! surfaces as that task's `Err(`[`TaskFailure`]`)` while all other tasks
//! run to completion. The boundary also covers the observer calls made
//! for the task (its [`Stage::ExecutorTask`] span, its steal and failure
//! counters), so a panicking [`Observer`] fails the tasks it panics on
//! instead of killing a worker thread. The report counts failures, and
//! the pool stays healthy for subsequent batches however many fail.
//!
//! All internal locks are poison-tolerant (`PoisonError::into_inner`):
//! tasks execute under `catch_unwind`, so a poisoned mutex can only mean
//! a panic already reported through another channel — it must never
//! cascade into unrelated batches.
//!
//! # Threads
//!
//! A pool of `n` workers is the thread that calls
//! [`run`](WorkStealingExecutor::run), as worker 0, plus `n − 1` pooled
//! threads, workers `1..n`. The pooled threads are **persistent**: one
//! executor can serve many `run` calls (e.g. a fit followed by thousands
//! of predict batches) without respawning OS threads. Tasks must
//! therefore be `'static` (move their inputs, e.g. via `Arc`). The caller
//! publishes the batch, wakes the pooled threads and works its own deque;
//! the batch is complete when its last task has stored its outcome, so a
//! lone small batch can finish on the caller before a pooled thread is
//! even scheduled, and no worker has to check in. A pooled thread that
//! wakes after its batch finished goes back to sleep.

use crate::assignment::Assignment;
use crate::{Error, Result};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};
use suod_observe::{Counter, Observer, SpanAttrs, Stage};

/// Locks a mutex, ignoring poisoning. Tasks run under `catch_unwind`, so
/// poison can only be left behind by a panic that is already being
/// reported through another channel; refusing the lock would turn one
/// task failure into a pool-wide denial of service.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task that panicked inside its fault boundary.
///
/// The panic payload is flattened to its string form (the common
/// `panic!("...")` cases); non-string payloads are described generically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Human-readable panic message.
    pub message: String,
}

impl TaskFailure {
    /// Flattens a payload caught by `catch_unwind` — for callers that run
    /// their own fault boundary inside a task.
    pub fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "task panicked with a non-string payload".to_string()
        };
        TaskFailure { message }
    }
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskFailure {}

/// Telemetry from one [`WorkStealingExecutor::run`] call.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Measured wall time of each task, indexed like the input task list.
    /// For failed tasks this is the time until the panic unwound.
    pub task_times: Vec<Duration>,
    /// Sum of task times executed by each worker.
    pub worker_busy: Vec<Duration>,
    /// Number of tasks each worker executed.
    pub worker_tasks: Vec<usize>,
    /// Total successful steals across the run.
    pub steals: usize,
    /// End-to-end wall time of the batch.
    pub wall_time: Duration,
    /// Neighbour-cache hits during the batch (tasks served an existing
    /// shared neighbour graph). Filled in by the orchestrator after a
    /// fit's run; zero for a prediction pass, which builds no graphs.
    pub cache_hits: u64,
    /// Neighbour-cache misses (graphs that had to be built).
    pub cache_misses: u64,
    /// Total wall time spent building shared neighbour graphs.
    pub cache_build_time: Duration,
    /// Tasks that panicked during this batch.
    pub failures: usize,
    /// Task re-executions performed on top of this batch. Zero for a
    /// plain run; filled in by the orchestrator when it retries failed
    /// tasks (e.g. `Suod::fit`'s bounded per-model retry).
    pub retries: usize,
    /// Positions whose measured runtime exceeded the soft deadline
    /// derived from the cost model's forecast: task positions in a fit's
    /// run (`Suod::fit`). Filled in by the orchestrator, which owns the
    /// forecast; empty for a prediction pass, which forecasts nothing.
    pub stragglers: Vec<usize>,
}

impl ExecutionReport {
    /// Per-task measured runtimes in seconds — the "true cost" vector to
    /// correlate against the scheduler's forecasts (e.g. with
    /// `suod_metrics::spearman`).
    pub fn task_seconds(&self) -> Vec<f64> {
        self.task_times.iter().map(Duration::as_secs_f64).collect()
    }

    /// Mean worker utilization: busy time over `workers * wall_time`.
    /// 1.0 means no worker ever idled.
    pub fn utilization(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall <= 0.0 || self.worker_busy.is_empty() {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / (wall * self.worker_busy.len() as f64)).min(1.0)
    }
}

/// What running one task left behind, in that task's slot.
struct Outcome<T> {
    result: std::result::Result<T, TaskFailure>,
    elapsed: Duration,
    worker: usize,
    stolen: bool,
}

/// Type-erased batch the pooled workers execute.
trait BatchExec: Send + Sync {
    fn execute(&self, worker: usize);
}

/// One submitted batch: tasks, per-worker deques, per-task outcomes.
struct Batch<F, T> {
    /// Task cells; the deque protocol guarantees each is taken once.
    tasks: Vec<Mutex<Option<F>>>,
    /// Per-worker deques of task indices. Owners pop from the front,
    /// thieves steal from the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// One slot per task, filled by whichever worker ran it.
    outcomes: Vec<Mutex<Option<Outcome<T>>>>,
    /// Tasks whose outcome is not stored yet: the batch is complete at 0.
    remaining: AtomicUsize,
    /// The thread that submitted the batch (worker 0). A pooled worker
    /// that stores the last outcome unparks it.
    submitter: Thread,
    /// Instrumentation sink: each task execution is wrapped in an
    /// [`Stage::ExecutorTask`] span; steals and fault-boundary failures
    /// emit [`Counter`] events. The no-op observer makes this free.
    observer: Arc<dyn Observer>,
}

impl<F, T> Batch<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    /// Pops work for `worker`: its own front first, then the tail of the
    /// most-loaded peer. Returns `(index, was_steal)`, or `None` once
    /// every deque has been read empty. Nothing is pushed after
    /// submission, so a deque seen empty stays empty: `None` means all
    /// that is left of the batch is in flight on other workers.
    fn find_work(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(i) = lock_ignore_poison(&self.queues[worker]).pop_front() {
            return Some((i, false));
        }
        loop {
            // Pick the currently longest peer queue. The length probe is
            // racy by design: stealing needs only a heuristic victim.
            let victim = (0..self.queues.len())
                .filter(|&w| w != worker)
                .map(|w| (lock_ignore_poison(&self.queues[w]).len(), w))
                .max()
                .filter(|&(len, _)| len > 0)
                .map(|(_, w)| w)?;
            if let Some(i) = lock_ignore_poison(&self.queues[victim]).pop_back() {
                return Some((i, true));
            }
            // Lost the race for the victim's last task; another peer may
            // still hold queued work, so probe again.
        }
    }

    /// Runs one task inside its fault boundary, together with the
    /// observer calls made for it: a panic from either the task or the
    /// observer becomes the task's [`TaskFailure`]. The time is the
    /// task's own, observer calls excluded.
    fn run_task(
        &self,
        task: F,
        index: usize,
        worker: usize,
        stolen: bool,
    ) -> (std::result::Result<T, TaskFailure>, Duration) {
        let mut elapsed = Duration::ZERO;
        let observed = catch_unwind(AssertUnwindSafe(|| {
            if stolen {
                self.observer.counter(Counter::Steal, 1);
            }
            let span = self.observer.span_begin(
                Stage::ExecutorTask,
                SpanAttrs::task(index).on_worker(worker),
            );
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(task));
            elapsed = start.elapsed();
            self.observer.span_end(span);
            if out.is_err() {
                self.observer.counter(Counter::TaskFailure, 1);
            }
            out
        }));
        let out = match observed {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(payload)) | Err(payload) => Err(TaskFailure::from_payload(payload)),
        };
        (out, elapsed)
    }
}

impl<F, T> BatchExec for Batch<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    fn execute(&self, worker: usize) {
        // The task set is fixed, so empty deques end this worker's part
        // of the batch; what is still running elsewhere is counted in
        // `remaining`.
        while let Some((index, stolen)) = self.find_work(worker) {
            let task = lock_ignore_poison(&self.tasks[index])
                .take()
                .expect("deque protocol hands out each task once");
            let (result, elapsed) = self.run_task(task, index, worker, stolen);
            *lock_ignore_poison(&self.outcomes[index]) = Some(Outcome {
                result,
                elapsed,
                worker,
                stolen,
            });
            // AcqRel: the submitter's Acquire load of 0 sees every
            // outcome stored before its count was released. If the
            // submitter reads 0 before this unpark lands, the token only
            // makes one later `park` on its thread return early, which
            // every `park` loop tolerates.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && worker != 0 {
                self.submitter.unpark();
            }
        }
    }
}

/// Coordination state between the submitter and the pooled workers.
struct PoolState {
    /// The batch currently being executed, if any.
    batch: Option<Arc<dyn BatchExec>>,
    /// Bumped per submission so workers join each batch at most once.
    epoch: u64,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A persistent work-stealing thread pool seeded from BPS placements.
///
/// See the [module docs](self) for the design. Construct once, reuse for
/// every fit/predict batch; threads are joined on drop.
///
/// # Example
///
/// ```
/// use suod_scheduler::assignment::bps_schedule;
/// use suod_scheduler::work_stealing::WorkStealingExecutor;
///
/// let pool = WorkStealingExecutor::new(2).unwrap();
/// let costs = [4.0, 1.0, 1.0, 1.0];
/// let assignment = bps_schedule(&costs, 2, 1.0).unwrap();
/// let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
///     (0usize..4).map(|i| Box::new(move || i * 10) as _).collect();
/// let (results, report) = pool.run(tasks, &assignment, suod_observe::noop()).unwrap();
/// let values: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
/// assert_eq!(values, vec![0, 10, 20, 30]);
/// assert_eq!(report.task_times.len(), 4);
/// ```
pub struct WorkStealingExecutor {
    shared: Arc<PoolShared>,
    /// Workers `1..n_workers`; worker 0 is whichever thread calls `run`.
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes `run` calls: one batch occupies the pool at a time.
    submit: Mutex<()>,
    n_workers: usize,
}

impl std::fmt::Debug for WorkStealingExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingExecutor")
            .field("n_workers", &self.n_workers)
            .finish_non_exhaustive()
    }
}

impl WorkStealingExecutor {
    /// Creates a pool of `n_workers` workers: `n_workers − 1` persistent
    /// threads, plus the thread that calls [`run`](Self::run), which is
    /// worker 0 for that call. A 1-worker pool spawns no thread and runs
    /// every task on the caller.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `n_workers == 0`.
    pub fn new(n_workers: usize) -> Result<Self> {
        if n_workers == 0 {
            return Err(Error::InvalidParameter(
                "work-stealing pool needs at least 1 worker".into(),
            ));
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (1..n_workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("suod-steal-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Ok(Self {
            shared,
            handles,
            submit: Mutex::new(()),
            n_workers,
        })
    }

    /// Number of workers, the calling thread included.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Runs `tasks`, seeding per-worker deques from `assignment`, and
    /// returns each task's outcome **in task order** plus the run's
    /// telemetry.
    ///
    /// Worker `w`'s deque is seeded with assignment group `w` in group
    /// order (groups beyond the pool size wrap around). The calling
    /// thread is worker 0 until the call returns
    /// ([`current_worker`] reads `Some(0)` in its tasks). Idle workers
    /// steal from the tail of the most-loaded peer, so a mispredicted
    /// straggler no longer gates the batch.
    ///
    /// Every task runs inside its own fault boundary: a panic is caught
    /// and returned as `Err(`[`TaskFailure`]`)` in that task's slot while
    /// every other task still runs to completion. `report.failures`
    /// counts the failed tasks; `report.task_times` for a failed task
    /// measures the time until its panic unwound. The pool stays healthy
    /// regardless of how many tasks fail.
    ///
    /// `observer` receives one [`Stage::ExecutorTask`] span per task (task
    /// index + worker attribution), a [`Counter::Steal`] per successful
    /// steal and a [`Counter::TaskFailure`] per caught panic. These calls
    /// run inside the task's fault boundary, so an observer that panics
    /// fails the task it panicked on and nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadAssignment`] when the assignment does not
    /// cover exactly `tasks.len()` tasks. Task panics are **not** errors
    /// at this level — they surface in the per-task results.
    pub fn run<T, F>(
        &self,
        tasks: Vec<F>,
        assignment: &Assignment,
        observer: Arc<dyn Observer>,
    ) -> Result<(Vec<std::result::Result<T, TaskFailure>>, ExecutionReport)>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if assignment.n_tasks() != tasks.len() {
            return Err(Error::BadAssignment(format!(
                "assignment covers {} tasks but {} were provided",
                assignment.n_tasks(),
                tasks.len()
            )));
        }
        let n = tasks.len();
        let mut report = ExecutionReport {
            task_times: vec![Duration::ZERO; n],
            worker_busy: vec![Duration::ZERO; self.n_workers],
            worker_tasks: vec![0; self.n_workers],
            ..ExecutionReport::default()
        };
        if n == 0 {
            return Ok((Vec::new(), report));
        }

        // Seed deques from the assignment: the static placement is the
        // initial hint; stealing only reshuffles when it mispredicts.
        let mut queues: Vec<VecDeque<usize>> =
            (0..self.n_workers).map(|_| VecDeque::new()).collect();
        for (g, group) in assignment.groups().iter().enumerate() {
            queues[g % self.n_workers].extend(group.iter().copied());
        }

        let batch: Arc<Batch<F, T>> = Arc::new(Batch {
            tasks: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            queues: queues.into_iter().map(Mutex::new).collect(),
            outcomes: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            submitter: std::thread::current(),
            observer,
        });

        let start = Instant::now();
        // Poisoning is recoverable here: the guard only serializes
        // submissions, and a panic on a previous submitter's thread must
        // not brick the pool.
        let _guard = lock_ignore_poison(&self.submit);
        let pooled = !self.handles.is_empty();
        if pooled {
            {
                let mut state = lock_ignore_poison(&self.shared.state);
                state.batch = Some(Arc::clone(&batch) as Arc<dyn BatchExec>);
                state.epoch += 1;
            }
            // Notified after the lock is released, so a woken worker does
            // not block on it straight away.
            self.shared.work_ready.notify_all();
        }
        let outer = CURRENT_WORKER.replace(Some(0));
        batch.execute(0);
        CURRENT_WORKER.set(outer);
        // Every deque is empty; what is left runs on pooled workers, and
        // the one that stores the last outcome unparks this thread.
        // `park` may also return spuriously, hence the loop.
        while batch.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        if pooled {
            lock_ignore_poison(&self.shared.state).batch = None;
        }
        report.wall_time = start.elapsed();

        let results = batch
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let outcome = lock_ignore_poison(slot)
                    .take()
                    .expect("a complete batch holds every outcome");
                report.task_times[i] = outcome.elapsed;
                report.worker_busy[outcome.worker] += outcome.elapsed;
                report.worker_tasks[outcome.worker] += 1;
                report.steals += usize::from(outcome.stolen);
                report.failures += usize::from(outcome.result.is_err());
                outcome.result
            })
            .collect();
        Ok((results, report))
    }
}

impl Drop for WorkStealingExecutor {
    fn drop(&mut self) {
        lock_ignore_poison(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

thread_local! {
    /// Pool index of the worker this thread is; `None` off the pool.
    static CURRENT_WORKER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Index, within its pool, of the [`WorkStealingExecutor`] worker the
/// calling thread is: `Some(w)` on pooled worker `w`, `Some(0)` on a
/// thread inside [`run`](WorkStealingExecutor::run), which is worker 0
/// until the call returns, and `None` on any other thread. A task reads
/// it to attribute the spans it opens to the worker that runs it, as the
/// executor does for the [`Stage::ExecutorTask`] span around the task.
pub fn current_worker() -> Option<usize> {
    CURRENT_WORKER.get()
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    CURRENT_WORKER.set(Some(worker));
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut state = lock_ignore_poison(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    // `None`: the batch finished before this worker woke.
                    if let Some(batch) = state.batch.clone() {
                        break batch;
                    }
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        batch.execute(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{bps_schedule, generic_schedule};

    fn boxed_tasks(n: usize) -> Vec<Box<dyn FnOnce() -> usize + Send>> {
        (0..n).map(|i| Box::new(move || i * i) as _).collect()
    }

    /// [`WorkStealingExecutor::run`] without an observer, for batches in
    /// which no task may fail.
    fn run_ok<T, F>(
        pool: &WorkStealingExecutor,
        tasks: Vec<F>,
        assignment: &Assignment,
    ) -> (Vec<T>, ExecutionReport)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (outcomes, report) = pool
            .run(tasks, assignment, suod_observe::noop())
            .expect("assignment covers the tasks");
        let values = outcomes
            .into_iter()
            .map(|o| o.expect("no task fails"))
            .collect();
        (values, report)
    }

    #[test]
    fn results_in_task_order() {
        let pool = WorkStealingExecutor::new(3).unwrap();
        let a = generic_schedule(10, 3).unwrap();
        let (out, _) = run_ok(&pool, boxed_tasks(10), &a);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn works_with_bps_assignment() {
        // BPS interleaves tasks across groups, so group order is not
        // task order; results still come back in task order.
        let costs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let a = bps_schedule(&costs, 3, 1.0).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..9)
            .map(|i| Box::new(move || i + 100) as _)
            .collect();
        let (out, _) = run_ok(&WorkStealingExecutor::new(3).unwrap(), tasks, &a);
        assert_eq!(out, (100..109).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkStealingExecutor::new(2).unwrap();
        for round in 0..20 {
            let a = generic_schedule(6, 2).unwrap();
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..6).map(|i| Box::new(move || i + round) as _).collect();
            let (out, _) = run_ok(&pool, tasks, &a);
            assert_eq!(out, (0..6).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let pool = WorkStealingExecutor::new(4).unwrap();
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..25)
            .map(|_| {
                Box::new(|| {
                    COUNTER.fetch_add(1, Ordering::SeqCst);
                }) as _
            })
            .collect();
        let a = generic_schedule(25, 4).unwrap();
        run_ok(&pool, tasks, &a);
        assert_eq!(COUNTER.load(Ordering::SeqCst), 25);
    }

    #[test]
    fn report_accounts_every_task_and_worker() {
        let pool = WorkStealingExecutor::new(3).unwrap();
        let a = generic_schedule(9, 3).unwrap();
        let (_, report) = run_ok(&pool, boxed_tasks(9), &a);
        assert_eq!(report.task_times.len(), 9);
        assert_eq!(report.worker_busy.len(), 3);
        assert_eq!(report.worker_tasks.iter().sum::<usize>(), 9);
        assert_eq!(report.task_seconds().len(), 9);
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
        assert_eq!(report.failures, 0);
    }

    /// The straggler regression the static schedule cannot fix: a
    /// deliberately wrong cost vector plants one 50x task alongside the
    /// bulk of the cheap ones on the same worker. Stealing must (a) run
    /// every task exactly once, (b) keep results in task order, and (c)
    /// actually steal.
    #[test]
    fn straggler_under_wrong_costs_triggers_steals() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let n = 17;
        // Wrong forecast: claims task 0 is only 2x the rest when it is
        // really ~50x. BPS trusts the forecast, places task 0 first on one
        // worker and balances the cheap tasks behind it — so that worker's
        // deque holds cheap work the idle peer must steal.
        let mut wrong_costs = vec![1.0; n];
        wrong_costs[0] = 2.0;
        let assignment = bps_schedule(&wrong_costs, 2, 1.0).unwrap();

        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..n)
            .map(|i| {
                Box::new(move || {
                    RUNS.fetch_add(1, Ordering::SeqCst);
                    // Task 0 is really ~50x the rest.
                    let ms = if i == 0 { 100 } else { 2 };
                    std::thread::sleep(Duration::from_millis(ms));
                    i
                }) as _
            })
            .collect();

        let pool = WorkStealingExecutor::new(2).unwrap();
        let (out, report) = run_ok(&pool, tasks, &assignment);
        assert_eq!(out, (0..n).collect::<Vec<_>>(), "results in task order");
        assert_eq!(RUNS.load(Ordering::SeqCst), n, "every task exactly once");
        assert!(
            report.steals > 0,
            "idle worker should have stolen from the straggler's deque: {report:?}"
        );
        assert_eq!(report.task_times.iter().filter(|t| t.is_zero()).count(), 0);
    }

    #[test]
    fn pool_usable_after_task_panic() {
        let pool = WorkStealingExecutor::new(2).unwrap();
        let a = generic_schedule(2, 2).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("first batch dies"))];
        let (out, report) = pool.run(tasks, &a, suod_observe::noop()).unwrap();
        assert_eq!(out[0], Ok(1));
        assert_eq!(report.failures, 1);
        // The pool must still execute subsequent batches.
        let a = generic_schedule(4, 2).unwrap();
        let (out, _) = run_ok(&pool, boxed_tasks(4), &a);
        assert_eq!(out, vec![0, 1, 4, 9]);
    }

    #[test]
    fn isolated_run_contains_each_panic() {
        let pool = WorkStealingExecutor::new(2).unwrap();
        let a = generic_schedule(6, 2).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 10),
            Box::new(|| panic!("boom one")),
            Box::new(|| 30),
            Box::new(|| panic!("boom two")),
            Box::new(|| 50),
            Box::new(|| std::panic::panic_any(7u32)),
        ];
        let (out, report) = pool.run(tasks, &a, suod_observe::noop()).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(*out[0].as_ref().unwrap(), 10);
        assert_eq!(*out[2].as_ref().unwrap(), 30);
        assert_eq!(*out[4].as_ref().unwrap(), 50);
        assert_eq!(out[1].as_ref().unwrap_err().message, "boom one");
        assert_eq!(out[3].as_ref().unwrap_err().message, "boom two");
        // A payload that is no string is described, not lost.
        assert_eq!(
            out[5].as_ref().unwrap_err().message,
            "task panicked with a non-string payload"
        );
        assert_eq!(report.failures, 3);
        assert_eq!(report.worker_tasks.iter().sum::<usize>(), 6);
    }

    #[test]
    fn isolated_run_with_all_panics_keeps_pool_healthy() {
        let pool = WorkStealingExecutor::new(2).unwrap();
        let a = generic_schedule(4, 2).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4)
            .map(|i| Box::new(move || -> usize { panic!("task {i} exploded") }) as _)
            .collect();
        let (out, report) = pool.run(tasks, &a, suod_observe::noop()).unwrap();
        assert!(out.iter().all(|o| o.is_err()));
        assert_eq!(report.failures, 4);
        // The pool must still execute subsequent batches.
        let a = generic_schedule(4, 2).unwrap();
        let (out, _) = run_ok(&pool, boxed_tasks(4), &a);
        assert_eq!(out, vec![0, 1, 4, 9]);
    }

    #[test]
    fn isolated_failure_message_formats() {
        let pool = WorkStealingExecutor::new(1).unwrap();
        let a = generic_schedule(2, 1).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| panic!("formatted {}", 42)),
            Box::new(|| std::panic::panic_any(7u32)),
        ];
        let (out, _) = pool.run(tasks, &a, suod_observe::noop()).unwrap();
        let failure = out[0].as_ref().unwrap_err();
        assert_eq!(failure.message, "formatted 42");
        assert!(failure.to_string().contains("task panicked"));
        let opaque = out[1].as_ref().unwrap_err();
        assert_eq!(
            opaque.to_string(),
            "task panicked: task panicked with a non-string payload"
        );
    }

    #[test]
    fn mismatched_assignment_rejected() {
        let pool = WorkStealingExecutor::new(2).unwrap();
        let a = generic_schedule(3, 1).unwrap();
        assert!(pool.run(boxed_tasks(2), &a, suod_observe::noop()).is_err());
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(WorkStealingExecutor::new(0).is_err());
    }

    #[test]
    fn more_groups_than_workers_wraps() {
        let pool = WorkStealingExecutor::new(2).unwrap();
        let a = generic_schedule(8, 4).unwrap();
        let (out, _) = run_ok(&pool, boxed_tasks(8), &a);
        assert_eq!(out, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn observed_run_traces_every_task_and_reconciles_with_report() {
        use suod_observe::RecordingObserver;
        let pool = WorkStealingExecutor::new(3).unwrap();
        let a = generic_schedule(9, 3).unwrap();
        let rec = Arc::new(RecordingObserver::new());
        let (out, report) = pool.run(boxed_tasks(9), &a, rec.clone()).unwrap();
        let out: Vec<usize> = out.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
        let trace = rec.trace();
        let spans: Vec<_> = trace.spans_of(Stage::ExecutorTask).collect();
        assert_eq!(spans.len(), 9, "one span per task");
        let mut tasks: Vec<usize> = spans.iter().map(|s| s.task.unwrap()).collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..9).collect::<Vec<_>>());
        assert!(spans.iter().all(|s| s.worker.is_some()));
        assert_eq!(trace.counter(Counter::Steal), report.steals as u64);
        assert_eq!(trace.counter(Counter::TaskFailure), 0);
    }

    #[test]
    fn observed_isolated_run_counts_failures() {
        use suod_observe::RecordingObserver;
        let pool = WorkStealingExecutor::new(2).unwrap();
        let a = generic_schedule(4, 2).unwrap();
        let rec = Arc::new(RecordingObserver::new());
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom")),
            Box::new(|| 3),
            Box::new(|| panic!("bang")),
        ];
        let (out, report) = pool.run(tasks, &a, rec.clone()).unwrap();
        assert_eq!(out.iter().filter(|o| o.is_err()).count(), 2);
        let trace = rec.trace();
        assert_eq!(trace.counter(Counter::TaskFailure), report.failures as u64);
        assert_eq!(trace.spans_of(Stage::ExecutorTask).count(), 4);
        // Failed tasks still close their spans.
        assert!(trace.spans().iter().all(|s| s.id != 0));
    }

    /// An observer that panics whenever an executor task span opens.
    struct PanicOnTaskSpan;

    impl Observer for PanicOnTaskSpan {
        fn span_begin(&self, stage: Stage, attrs: SpanAttrs) -> suod_observe::SpanId {
            let _ = attrs;
            if stage == Stage::ExecutorTask {
                panic!("observer exploded");
            }
            suod_observe::SpanId::NONE
        }
    }

    #[test]
    fn a_panicking_observer_fails_its_tasks_and_the_pool_serves_on() {
        let pool = Arc::new(WorkStealingExecutor::new(2).unwrap());
        let (send, recv) = std::sync::mpsc::channel();
        let runner = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let a = generic_schedule(4, 2).unwrap();
                let first = pool.run(boxed_tasks(4), &a, Arc::new(PanicOnTaskSpan));
                let (second, _) = run_ok(&pool, boxed_tasks(4), &a);
                send.send((first, second)).unwrap();
            })
        };
        let (first, second) = recv
            .recv_timeout(Duration::from_secs(30))
            .expect("a panicking observer must not hang the run");
        runner.join().unwrap();
        let (out, report) = first.unwrap();
        assert_eq!(report.failures, 4);
        for outcome in &out {
            let failure = outcome.as_ref().unwrap_err();
            assert!(failure.message.contains("observer exploded"), "{failure}");
        }
        // Both workers survived: the next batch runs on the same pool.
        assert_eq!(second, vec![0, 1, 4, 9]);
    }

    #[test]
    fn single_worker_runs_everything_without_steals() {
        let pool = WorkStealingExecutor::new(1).unwrap();
        let a = generic_schedule(5, 1).unwrap();
        let (out, report) = run_ok(&pool, boxed_tasks(5), &a);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        assert_eq!(report.steals, 0);
        assert_eq!(report.worker_tasks, vec![5]);
    }

    #[test]
    fn a_one_worker_pool_runs_every_task_on_the_caller_as_worker_0() {
        let pool = WorkStealingExecutor::new(1).unwrap();
        assert!(pool.handles.is_empty(), "the caller is the only worker");
        assert_eq!(WorkStealingExecutor::new(4).unwrap().handles.len(), 3);
        let a = generic_schedule(4, 1).unwrap();
        // Each task reports the thread and the worker index it ran on.
        let tasks: Vec<_> = (0..4)
            .map(|_| || (std::thread::current().id(), current_worker()))
            .collect();
        let (out, report) = run_ok(&pool, tasks, &a);
        let caller = std::thread::current().id();
        assert_eq!(out, vec![(caller, Some(0)); 4]);
        assert_eq!(report.worker_tasks, vec![4]);
    }

    #[test]
    fn the_caller_is_worker_0_only_until_run_returns() {
        let outer = WorkStealingExecutor::new(1).unwrap();
        let inner = WorkStealingExecutor::new(2).unwrap();
        assert_eq!(current_worker(), None);
        // A task of `outer` runs on this thread as its worker 0 and
        // submits to `inner`; returning from the inner run restores the
        // outer index, and returning from the outer run restores `None`.
        let tasks: Vec<Box<dyn FnOnce() -> Option<usize> + Send>> = vec![Box::new(move || {
            let a = generic_schedule(2, 2).unwrap();
            run_ok(&inner, boxed_tasks(2), &a);
            current_worker()
        })];
        let (out, _) = run_ok(&outer, tasks, &generic_schedule(1, 1).unwrap());
        assert_eq!(out, vec![Some(0)]);
        assert_eq!(current_worker(), None);
    }

    /// Small batches end as soon as their last task does, often before a
    /// pooled worker has woken for them; that worker must find nothing
    /// to run in the finished batch, and never a task of the next one
    /// twice.
    #[test]
    fn back_to_back_small_batches_return_every_outcome_once_in_task_order() {
        for workers in [2, 4] {
            let pool = WorkStealingExecutor::new(workers).unwrap();
            let runs = Arc::new(AtomicUsize::new(0));
            let mut expected_runs = 0;
            for round in 0..10_000usize {
                let n = 1 + round % 3;
                let a = generic_schedule(n, workers.min(n)).unwrap();
                let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..n)
                    .map(|i| {
                        let runs = Arc::clone(&runs);
                        Box::new(move || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            round * 3 + i
                        }) as _
                    })
                    .collect();
                let (out, report) = run_ok(&pool, tasks, &a);
                expected_runs += n;
                assert_eq!(out, (0..n).map(|i| round * 3 + i).collect::<Vec<_>>());
                assert_eq!(runs.load(Ordering::SeqCst), expected_runs);
                assert_eq!(report.worker_tasks.len(), workers);
                assert_eq!(report.worker_tasks.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn panics_on_the_callers_thread_fail_only_their_task() {
        let pool = WorkStealingExecutor::new(1).unwrap();
        let a = generic_schedule(2, 1).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("task exploded"))];
        let (out, report) = pool.run(tasks, &a, suod_observe::noop()).unwrap();
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1].as_ref().unwrap_err().message, "task exploded");
        assert_eq!(report.failures, 1);

        let (out, report) = pool
            .run(boxed_tasks(2), &a, Arc::new(PanicOnTaskSpan))
            .unwrap();
        for outcome in &out {
            let failure = outcome.as_ref().unwrap_err();
            assert!(failure.message.contains("observer exploded"), "{failure}");
        }
        assert_eq!(report.failures, 2);

        let (out, _) = run_ok(&pool, boxed_tasks(2), &a);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(current_worker(), None);
    }
}
