#![warn(missing_docs)]

//! Pipeline observability for the SUOD reproduction.
//!
//! SUOD's value claim is end-to-end speedup from three composable modules
//! (RP, PSA, BPS — paper §3), which makes the *time breakdown* of a fit a
//! first-class artifact: a practitioner tuning a pool needs to see where
//! the wall-clock actually went — projection, shared neighbour-graph
//! builds, individual detector fits, PSA distillation, scheduling, or
//! executor overhead. Following TOD's (Zhao et al., 2021) systems-level
//! profiling of outlier-detection pipelines, this crate defines a
//! low-overhead structured tracing/metrics layer that the whole workspace
//! threads through its hot paths.
//!
//! # Design
//!
//! * [`Observer`] — the instrumentation trait: span begin/end carrying a
//!   [`Stage`] plus model/task/worker attribution ([`SpanAttrs`]), and
//!   monotonic [`Counter`] events. Every method has an empty default
//!   body, so the no-op observer compiles to two virtual calls per span
//!   and touches no data — instrumented code is **bit-identical** to
//!   uninstrumented code by construction (enforced by the system tests).
//! * [`NoopObserver`] — the zero-cost default.
//! * [`RecordingObserver`] — a lock-sharded recorder capturing a
//!   deterministic trace: the set of spans (stage + model/task
//!   attribution) and deterministic counters are identical across worker
//!   counts; only wall-clock fields (timestamps, durations, worker ids,
//!   steal counts) vary.
//! * [`Trace`] — an immutable snapshot with latency histograms, exported
//!   to a stable JSON schema ([`export::to_json`]) or the Chrome
//!   `trace_event` format ([`export::to_chrome_trace`], loadable in
//!   `chrome://tracing` / Perfetto).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use suod_observe::{Counter, Observer, RecordingObserver, SpanAttrs, Stage};
//!
//! let recorder = Arc::new(RecordingObserver::new());
//! let observer: Arc<dyn Observer> = recorder.clone();
//! let span = observer.span_begin(Stage::ModelFit, SpanAttrs::model(3));
//! observer.counter(Counter::CacheHit, 1);
//! observer.span_end(span);
//!
//! let trace = recorder.trace();
//! assert_eq!(trace.spans().len(), 1);
//! assert_eq!(trace.counter(Counter::CacheHit), 1);
//! let json = suod_observe::export::to_json(&trace);
//! assert!(json.contains("\"model_fit\""));
//! ```

pub mod export;
pub mod json;
pub mod recording;

pub use recording::{HistogramRecord, RecordingObserver, SpanRecord, Trace};

/// A pipeline stage a span can belong to.
///
/// The variants cover every instrumented section of the SUOD pipeline;
/// [`Stage::name`] is the stable string used by both exporters and the
/// JSON schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Stage {
    /// Whole `Suod::fit` call (the root span of a fit trace).
    Fit,
    /// Per-model Johnson–Lindenstrauss projection of the training data.
    Projection,
    /// Neighbour-cache planning pass (grouping proximity models).
    NeighborPlan,
    /// One shared neighbour-graph build (index + leave-one-out sweep).
    NeighborBuild,
    /// A query sweep over a built neighbour index. At fit: the
    /// leave-one-out sweep (the part an approximate backend accelerates,
    /// split out from [`Stage::NeighborBuild`] so recall/speed tradeoffs
    /// show up in traces). At predict: the one query a prediction unit
    /// runs per row chunk, shared by every proximity model of the unit.
    NeighborQuery,
    /// BPS cost forecasting and worker assignment.
    BpsPlan,
    /// One detector fit (first attempt), attributed to its pool index.
    ModelFit,
    /// One detector fit retry with a re-salted seed.
    ModelRetry,
    /// PSA distillation of one costly model into its approximator.
    PsaDistill,
    /// Score standardization + contamination-threshold learning.
    Threshold,
    /// Whole `decision_function` call (the root span of a predict trace).
    Predict,
    /// One model scoring one row chunk: its own work inside a (unit ×
    /// row-chunk) prediction task, after the stage the unit shares
    /// (projection, [`Stage::NeighborQuery`]).
    PredictChunk,
    /// One model's full sequential scoring pass
    /// (`decision_function_observed`).
    ModelPredict,
    /// Executor task lifecycle: one task's execution on a worker.
    ExecutorTask,
    /// One request's admission into a scoring service's bounded queue
    /// (`suod-serve`).
    RequestEnqueue,
    /// Draining the admission queue into one micro-batch, including the
    /// deadline-shed pass (`suod-serve`).
    BatchAssemble,
    /// Survivor-only score combination of one served batch.
    Combine,
    /// Encoding a fitted pool into a `suod-pool` snapshot
    /// (`Suod::save`).
    SnapshotSave,
    /// Decoding and rebuilding a pool from a `suod-pool` snapshot
    /// (`Suod::load`), including deterministic index reconstruction.
    SnapshotLoad,
    /// Atomically swapping a serving pool for a reloaded one
    /// (`ScoreService::reload`).
    PoolReload,
    /// One client connection's lifetime on the serving front end, from
    /// hand-off to a connection worker until the socket closes
    /// (`suod-serve` network front end).
    Connection,
    /// Handling one framed wire request on an established connection:
    /// decode, lane admission, submit, respond (`suod-wire/1`).
    WireRequest,
}

/// Every stage, in export order.
pub const STAGES: &[Stage] = &[
    Stage::Fit,
    Stage::Projection,
    Stage::NeighborPlan,
    Stage::NeighborBuild,
    Stage::NeighborQuery,
    Stage::BpsPlan,
    Stage::ModelFit,
    Stage::ModelRetry,
    Stage::PsaDistill,
    Stage::Threshold,
    Stage::Predict,
    Stage::PredictChunk,
    Stage::ModelPredict,
    Stage::ExecutorTask,
    Stage::RequestEnqueue,
    Stage::BatchAssemble,
    Stage::Combine,
    Stage::SnapshotSave,
    Stage::SnapshotLoad,
    Stage::PoolReload,
    Stage::Connection,
    Stage::WireRequest,
];

impl Stage {
    /// Stable schema name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fit => "fit",
            Stage::Projection => "projection",
            Stage::NeighborPlan => "neighbor_plan",
            Stage::NeighborBuild => "neighbor_build",
            Stage::NeighborQuery => "neighbor_query",
            Stage::BpsPlan => "bps_plan",
            Stage::ModelFit => "model_fit",
            Stage::ModelRetry => "model_retry",
            Stage::PsaDistill => "psa_distill",
            Stage::Threshold => "threshold",
            Stage::Predict => "predict",
            Stage::PredictChunk => "predict_chunk",
            Stage::ModelPredict => "model_predict",
            Stage::ExecutorTask => "executor_task",
            Stage::RequestEnqueue => "request_enqueue",
            Stage::BatchAssemble => "batch_assemble",
            Stage::Combine => "combine",
            Stage::SnapshotSave => "snapshot_save",
            Stage::SnapshotLoad => "snapshot_load",
            Stage::PoolReload => "pool_reload",
            Stage::Connection => "connection",
            Stage::WireRequest => "wire_request",
        }
    }

    /// Parses a stable schema name back into a stage.
    pub fn from_name(name: &str) -> Option<Self> {
        STAGES.iter().copied().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A monotonic counter the pipeline increments.
///
/// Deterministic counters ([`Counter::is_deterministic`]) take the same
/// value for a given `(data, pool, seed)` regardless of worker count;
/// scheduling counters (steals) and wall-clock counters (stragglers) are
/// excluded from that guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Counter {
    /// Neighbour-cache requests served from an existing shared graph.
    CacheHit,
    /// Neighbour-cache requests that had to build a graph (standalone
    /// detector fits count their private build here too, so pooled and
    /// standalone telemetry reconcile).
    CacheMiss,
    /// Successful work steals inside the executor (scheduling-dependent).
    Steal,
    /// Tasks that panicked or failed at the executor fault boundary.
    TaskFailure,
    /// Model fit re-executions granted after a failure.
    Retry,
    /// Models quarantined out of the ensemble after exhausting retries.
    Quarantine,
    /// Models flagged as stragglers against the BPS forecast
    /// (wall-clock-dependent).
    Straggler,
    /// Contiguous MR/NR panels packed by the GEMM distance kernels
    /// (logical count, derived from matrix shapes — thread-independent).
    PackedPanel,
    /// Register-blocked micro-kernel tile invocations in the GEMM
    /// distance kernels (logical count, derived from matrix shapes).
    GemmTile,
    /// Kernel requests the selected distance backend could not serve
    /// (e.g. a non-Euclidean metric on the gemm backend) and handed to a
    /// slower path.
    KernelFallback,
    /// GEMM kernel invocations that ran on an explicit SIMD lane (AVX2).
    /// Host-dependent (runtime feature detection picks the lane), so it
    /// is excluded from cross-host determinism — but it is still
    /// independent of worker count on a given host.
    SimdKernel,
    /// GEMM kernel invocations that ran on the scalar fallback lane.
    /// Host-dependent, like [`Counter::SimdKernel`].
    ScalarKernel,
    /// kNN queries answered by the approximate HNSW graph (request-
    /// derived, thread-independent — the graph is identical at any
    /// worker count for a fixed seed).
    AnnQuery,
    /// Requests for the approximate neighbor backend that routed to the
    /// exact path instead (small n or non-Euclidean metric) — the
    /// exactness-fallback counter.
    AnnFallback,
    /// Score requests accepted into a serving queue. Depends on queue
    /// occupancy at arrival time (wall-clock-class).
    Admitted,
    /// Score requests rejected with `Busy` because the bounded admission
    /// queue was full — the explicit backpressure signal
    /// (wall-clock-class).
    Rejected,
    /// Queued requests shed at batch assembly because their deadline had
    /// already passed — work the service refused to compute
    /// (wall-clock-class under the system clock; deterministic for a
    /// fixed arrival trace under a manual clock).
    Shed,
    /// Requests whose response was produced after their deadline (the
    /// batch was already in flight when the deadline expired, so the
    /// result is returned anyway). Wall-clock-class.
    DeadlineMissed,
    /// Models quarantined out of serving after exhausting their
    /// predict-time failure budget. The panic/NaN channels are
    /// seed-deterministic, but the timeout channel is wall-clock, so the
    /// counter as a whole is excluded from determinism guarantees.
    PredictQuarantined,
    /// Fitted pools encoded into `suod-pool` snapshots (call-derived
    /// and deterministic).
    SnapshotSave,
    /// Pools decoded from `suod-pool` snapshots (call-derived and
    /// deterministic).
    SnapshotLoad,
    /// Serving pools atomically swapped by a hot reload. Reloads are
    /// operator-initiated events, not data-derived, so the counter is
    /// excluded from determinism guarantees like the other serving
    /// counters.
    PoolReload,
    /// Client connections handed to a front-end connection worker
    /// (wall-clock-class, like every serve-front counter).
    ConnAccepted,
    /// Connections closed at accept time because the bounded hand-off
    /// queue to the worker pool was full — connection-level shed.
    ConnRejected,
    /// Keep-alive connections closed by the server because the client
    /// sent nothing for a full idle window.
    ConnIdleClosed,
    /// Transient `accept(2)` failures survived by the front end (logged,
    /// backed off, and retried instead of taking the listener down).
    AcceptRetry,
    /// Framed `suod-wire/1` requests decoded on the front end (every
    /// outcome: scored, busy, shed, or error).
    WireRequests,
    /// Wire requests turned away because their client identity was
    /// already at its in-flight quota.
    QuotaRejected,
    /// Normal-lane wire requests turned away because queue occupancy had
    /// crossed the lane headroom reserved for the high-priority lane.
    LaneRejected,
}

/// Every counter, in export order.
pub const COUNTERS: &[Counter] = &[
    Counter::CacheHit,
    Counter::CacheMiss,
    Counter::Steal,
    Counter::TaskFailure,
    Counter::Retry,
    Counter::Quarantine,
    Counter::Straggler,
    Counter::PackedPanel,
    Counter::GemmTile,
    Counter::KernelFallback,
    Counter::SimdKernel,
    Counter::ScalarKernel,
    Counter::AnnQuery,
    Counter::AnnFallback,
    Counter::Admitted,
    Counter::Rejected,
    Counter::Shed,
    Counter::DeadlineMissed,
    Counter::PredictQuarantined,
    Counter::SnapshotSave,
    Counter::SnapshotLoad,
    Counter::PoolReload,
    Counter::ConnAccepted,
    Counter::ConnRejected,
    Counter::ConnIdleClosed,
    Counter::AcceptRetry,
    Counter::WireRequests,
    Counter::QuotaRejected,
    Counter::LaneRejected,
];

impl Counter {
    /// Stable schema name of the counter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::Steal => "steal",
            Counter::TaskFailure => "task_failure",
            Counter::Retry => "retry",
            Counter::Quarantine => "quarantine",
            Counter::Straggler => "straggler",
            Counter::PackedPanel => "packed_panel",
            Counter::GemmTile => "gemm_tile",
            Counter::KernelFallback => "kernel_fallback",
            Counter::SimdKernel => "simd_kernel",
            Counter::ScalarKernel => "scalar_kernel",
            Counter::AnnQuery => "ann_query",
            Counter::AnnFallback => "ann_fallback",
            Counter::Admitted => "admitted",
            Counter::Rejected => "rejected",
            Counter::Shed => "shed",
            Counter::DeadlineMissed => "deadline_missed",
            Counter::PredictQuarantined => "predict_quarantined",
            Counter::SnapshotSave => "snapshot_save",
            Counter::SnapshotLoad => "snapshot_load",
            Counter::PoolReload => "pool_reload",
            Counter::ConnAccepted => "conn_accepted",
            Counter::ConnRejected => "conn_rejected",
            Counter::ConnIdleClosed => "conn_idle_closed",
            Counter::AcceptRetry => "accept_retry",
            Counter::WireRequests => "wire_requests",
            Counter::QuotaRejected => "quota_rejected",
            Counter::LaneRejected => "lane_rejected",
        }
    }

    /// Parses a stable schema name back into a counter.
    pub fn from_name(name: &str) -> Option<Self> {
        COUNTERS.iter().copied().find(|c| c.name() == name)
    }

    /// `true` when the counter's value is independent of worker count,
    /// wall clock, and host hardware (part of the trace-determinism
    /// guarantee). The SIMD-lane counters are excluded: the lane is
    /// picked by runtime feature detection, so traces from hosts with
    /// different vector units legitimately differ there. The serving
    /// counters are all excluded — admission, shedding, and deadline
    /// accounting depend on arrival timing and queue occupancy, and the
    /// predict-quarantine counter has a wall-clock timeout channel.
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            Counter::Steal
                | Counter::Straggler
                | Counter::SimdKernel
                | Counter::ScalarKernel
                | Counter::Admitted
                | Counter::Rejected
                | Counter::Shed
                | Counter::DeadlineMissed
                | Counter::PredictQuarantined
                | Counter::PoolReload
                | Counter::ConnAccepted
                | Counter::ConnRejected
                | Counter::ConnIdleClosed
                | Counter::AcceptRetry
                | Counter::WireRequests
                | Counter::QuotaRejected
                | Counter::LaneRejected
        )
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic integrity signature over a byte payload.
///
/// FNV-1a 64-bit, rendered as `fnv1a64:<16 hex digits>`. The `suod-pool`
/// snapshot format stores this signature over its payload section; a
/// mismatch at load time means the bytes were corrupted or hand-edited
/// and surfaces as a typed `SnapshotCorrupt` error instead of a
/// silently-wrong pool. The hash is a pure function of the bytes — no
/// clocks, no host state — so it shares the determinism contract of the
/// [`Trace::deterministic_signature`](recording::Trace::deterministic_signature)
/// lines.
pub fn payload_signature(bytes: &[u8]) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    format!("fnv1a64:{hash:016x}")
}

/// Attribution attached to a span at begin time.
///
/// `model` and `task` are deterministic identities (pool index, task
/// index within a batch); `worker` is the executing worker thread and is
/// excluded from determinism guarantees, like timestamps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAttrs {
    /// Pool index of the model this span works on, if any.
    pub model: Option<usize>,
    /// Task index within the executor batch, if any.
    pub task: Option<usize>,
    /// Worker thread that executed the span (wall-clock-class field).
    pub worker: Option<usize>,
}

impl SpanAttrs {
    /// No attribution (stage-level span).
    pub fn none() -> Self {
        Self::default()
    }

    /// Attributes the span to pool model `i`.
    pub fn model(i: usize) -> Self {
        Self {
            model: Some(i),
            ..Self::default()
        }
    }

    /// Attributes the span to executor task `i`.
    pub fn task(i: usize) -> Self {
        Self {
            task: Some(i),
            ..Self::default()
        }
    }

    /// Adds a task index.
    pub fn with_task(mut self, i: usize) -> Self {
        self.task = Some(i);
        self
    }

    /// Adds the executing worker id.
    pub fn on_worker(mut self, w: usize) -> Self {
        self.worker = Some(w);
        self
    }
}

/// Opaque handle returned by [`Observer::span_begin`] and consumed by
/// [`Observer::span_end`]. The no-op observer returns [`SpanId::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The null span id (no recording behind it).
    pub const NONE: SpanId = SpanId(0);

    /// Raw id value (0 = none; recording ids start at 1).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The instrumentation sink the pipeline reports into.
///
/// All methods have empty defaults: an implementation overrides only what
/// it needs, and the default [`NoopObserver`] is free. Implementations
/// must be `Send + Sync` — spans begin and end on executor worker
/// threads.
///
/// Observers receive *notifications only*: no method can influence the
/// computation, which is how instrumented code stays bit-identical to
/// uninstrumented code.
pub trait Observer: Send + Sync {
    /// `true` when this observer records anything. Call sites may use
    /// this to skip building expensive attributes; they must not change
    /// any computed value based on it.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span for `stage` with `attrs` attribution. The returned id
    /// must be passed to [`span_end`](Self::span_end) exactly once.
    fn span_begin(&self, stage: Stage, attrs: SpanAttrs) -> SpanId {
        let _ = (stage, attrs);
        SpanId::NONE
    }

    /// Closes the span opened as `id`. Unknown/`NONE` ids are ignored.
    fn span_end(&self, id: SpanId) {
        let _ = id;
    }

    /// Adds `delta` to `counter`.
    fn counter(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }
}

/// The zero-cost default observer: records nothing, allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

use std::sync::Arc;

/// A shared no-op observer (the default for every instrumented API).
pub fn noop() -> Arc<dyn Observer> {
    Arc::new(NoopObserver)
}

/// RAII guard closing a span on drop. Created by [`span`].
pub struct SpanGuard<'a> {
    observer: &'a dyn Observer,
    id: SpanId,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.observer.span_end(self.id);
    }
}

/// Opens a span that closes when the returned guard drops.
pub fn span(observer: &dyn Observer, stage: Stage, attrs: SpanAttrs) -> SpanGuard<'_> {
    SpanGuard {
        id: observer.span_begin(stage, attrs),
        observer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for &s in STAGES {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn counter_names_round_trip() {
        for &c in COUNTERS {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn scheduling_counters_are_not_deterministic() {
        assert!(!Counter::Steal.is_deterministic());
        assert!(!Counter::Straggler.is_deterministic());
        assert!(!Counter::Admitted.is_deterministic());
        assert!(!Counter::Rejected.is_deterministic());
        assert!(!Counter::Shed.is_deterministic());
        assert!(!Counter::DeadlineMissed.is_deterministic());
        assert!(!Counter::PredictQuarantined.is_deterministic());
        assert!(Counter::CacheHit.is_deterministic());
        assert!(Counter::Retry.is_deterministic());
        assert!(Counter::PackedPanel.is_deterministic());
        assert!(Counter::GemmTile.is_deterministic());
        assert!(Counter::KernelFallback.is_deterministic());
        assert!(Counter::AnnQuery.is_deterministic());
        assert!(Counter::AnnFallback.is_deterministic());
    }

    #[test]
    fn noop_observer_is_inert() {
        let obs = NoopObserver;
        assert!(!obs.enabled());
        let id = obs.span_begin(Stage::Fit, SpanAttrs::none());
        assert_eq!(id, SpanId::NONE);
        obs.span_end(id);
        obs.counter(Counter::Steal, 3);
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let rec = RecordingObserver::new();
        {
            let _g = span(&rec, Stage::Fit, SpanAttrs::none());
        }
        let trace = rec.trace();
        assert_eq!(trace.spans().len(), 1);
        assert_eq!(trace.spans()[0].stage, Stage::Fit);
    }
}
