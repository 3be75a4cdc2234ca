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

/// Deterministic integrity signature over the payload of a `suod-pool`
/// snapshot of format `version`.
///
/// The format version picks the algorithm; the stored string never does:
///
/// * versions 1–3: FNV-1a 64-bit, rendered `fnv1a64:<16 hex digits>`.
///   One dependent multiply per byte, so ~1.4 ns/B;
/// * version 4 and later: a word-at-a-time hash with eight independent
///   lanes over little-endian `u64` words, rendered `lanes64:<16 hex
///   digits>`. About 20 times faster than FNV-1a (0.06 ns/B on a
///   2-core x86-64 host).
///
/// A mismatch at load time means the bytes were corrupted or hand-edited
/// and surfaces as a typed `SnapshotCorrupt` error instead of a
/// silently-wrong pool. Neither hash is keyed: this is an integrity
/// check, not a MAC. Both are pure functions of the bytes — no clocks, no
/// host state — so they share the determinism contract of the
/// [`Trace::deterministic_signature`](recording::Trace::deterministic_signature)
/// lines.
pub fn payload_signature(version: u64, bytes: &[u8]) -> String {
    if version < FIRST_LANES64_VERSION {
        format!("fnv1a64:{:016x}", fnv1a64(bytes))
    } else {
        format!("lanes64:{:016x}", lanes64(bytes))
    }
}

/// The first `suod-pool` version whose payload [`lanes64`] signs.
const FIRST_LANES64_VERSION: u64 = 4;

/// FNV-1a with the published 64-bit offset basis but a prime of
/// 2^32 + 0x1b3, not FNV's 2^40 + 0x1b3: the hash every `/1`–`/3` file
/// was signed with, so it stays as it is.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Independent lanes of [`lanes64`]; one step reads one word per lane.
const LANES: usize = 8;
/// Bytes one step of [`lanes64`] reads.
const STEP: usize = 8 * LANES;
/// Odd multiplier of the lane update (2^64 / golden ratio, rounded odd).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane update: xor the word in, multiply by an odd constant, rotate.
/// Each operation is a bijection, so for a fixed word the update is a
/// bijection of the state, and for a fixed state one of the word.
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(LANE_MUL).rotate_left(31)
}

/// splitmix64's finalizer: a bijection that spreads every input bit over
/// the whole word.
fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `suod-pool/4` payload hash: a word-at-a-time, multi-lane 64-bit
/// hash.
///
/// The bytes are read as little-endian `u64` words, [`STEP`] bytes per
/// step, word `i` of a step into lane `i` ([`lane_step`]). The lanes do
/// not depend on each other, so a step's multiplies overlap (and the
/// compiler may vectorise them). A short last step is zero-padded. Each
/// lane is then finished with [`splitmix64_finalize`] and the lanes are
/// combined in order; the byte length is folded in last, so a payload
/// and its zero-padded extension differ.
///
/// Every step of the chain — lane updates, finalizers, combination — is
/// a bijection in the value it carries, so two inputs of one length that
/// differ in a single word (any single-bit flip) always hash differently.
/// Other corruption goes undetected with probability about 2^-64.
fn lanes64(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| splitmix64_finalize(i as u64 + 1));
    let mut absorb = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = lane_step(*lane, word);
        }
    };
    let mut blocks = bytes.chunks_exact(STEP);
    for block in &mut blocks {
        absorb(block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; STEP];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&padded);
    }
    let combined = lanes
        .iter()
        .fold(0, |h, &lane| lane_step(h, splitmix64_finalize(lane)));
    splitmix64_finalize(combined ^ bytes.len() as u64)
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

    /// The known-answer input of length `n`: `(31 i + 7) mod 256`.
    fn kat_input(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + 7) % 256) as u8).collect()
    }

    /// `lanes64` of [`kat_input`] for every length 0..=65: the empty
    /// input, every tail length 1..=63, one whole step, and a step plus
    /// one byte. A change to any of them is a change of the `/4` format.
    const LANES64_KAT: [u64; 66] = [
        0x2814812d3e0955ce,
        0xf12f30d594e8244a,
        0x9d19de994f423680,
        0xd892421351115960,
        0xd4fd96d139dd175b,
        0xc705a1bb81568aca,
        0x21211fa8be7f0fe4,
        0xb170f63e0baa3c0b,
        0x867935c88f83d76b,
        0x0896b7e379e91a46,
        0xeaf6b29b4f69e3f2,
        0x226908cc5c2f9feb,
        0xbc63908967dd4222,
        0x4b69e762014ccbb8,
        0x902dac211aa87b24,
        0xe01da2a15b6419eb,
        0x5100a5cace2b6e86,
        0x407ce9c823f422de,
        0x83e94259ad35214a,
        0x2fe8ba3587fb501e,
        0x387a9e12882ac9fd,
        0x578ec6d3df0bd57d,
        0x0a68caf524829f31,
        0xa44bb043abeebd38,
        0xfa19bc1abcc6df69,
        0xd6b253211f348e97,
        0xaf6760745c48b2c3,
        0xc466553ab099c4b1,
        0xfdf5e1f6be374051,
        0x175421dd0ed5b5c3,
        0x6797f62591df42e3,
        0x5e0a71216c2c63e6,
        0xac9cf5f82ae0a373,
        0x061e8b2dc59c8871,
        0xebd8631dace729f3,
        0xdb33f678d2dd22a2,
        0x5449d33f991c0db1,
        0xfe9f23e0b5bd2c49,
        0x00948c9cb7470acc,
        0x64574db616bc6779,
        0x961bb709a72b1d09,
        0x15bf9251c01cfacb,
        0xebbd34217c7969cb,
        0x74394a985f036711,
        0x14c21333167f3e1b,
        0x5ae9c94bd9501fd9,
        0x125c6c9ca97a3518,
        0xa84c614cd8500d09,
        0xd818c7896d91386a,
        0x5da20204098398a5,
        0xb385697ea14b2a12,
        0x58a9b024b943e3df,
        0x1b27abc6bcc64202,
        0x6f315b0b7cade8c5,
        0xce76a36dec18da76,
        0xd78d3036d198f5df,
        0x82d76017ed752806,
        0xf90faef6cf22c234,
        0xec0df49f5dd4b751,
        0xd419cd2b6753da79,
        0xfd30c8ef803a6ba2,
        0x599e831ea668301c,
        0xfa5699a65ce0cce6,
        0xf8ff4e469e6c3b49,
        0xac367d260f3cfdba,
        0xe3c47cc5f565d373,
    ];

    #[test]
    fn lanes64_matches_its_known_answers() {
        for (n, &want) in LANES64_KAT.iter().enumerate() {
            let got = payload_signature(4, &kat_input(n));
            assert_eq!(got, format!("lanes64:{want:016x}"), "length {n}");
        }
        // Three whole steps and an 8-byte tail.
        assert_eq!(lanes64(&kat_input(200)), 0x3b4f_a08a_368e_dd29);
        // Every later version keeps the version-4 algorithm.
        assert_eq!(payload_signature(u64::MAX, &[]), payload_signature(4, &[]));
    }

    #[test]
    fn versions_1_to_3_keep_their_fnv1a64_strings() {
        // The strings every `/1`–`/3` file is signed with. They are not
        // the published FNV-1a vectors ("a" would be af63dc4c8601ec8c):
        // see `fnv1a64`'s prime.
        for version in 1..=3 {
            assert_eq!(payload_signature(version, b""), "fnv1a64:cbf29ce484222325");
            assert_eq!(payload_signature(version, b"a"), "fnv1a64:1162bb908601ec8c");
            assert_eq!(
                payload_signature(version, b"foobar"),
                "fnv1a64:3fefab5ef73967e8"
            );
        }
    }

    #[test]
    fn lanes64_sees_every_single_bit_flip_and_zero_padding() {
        let base = kat_input(130);
        let want = lanes64(&base);
        for at in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(lanes64(&flipped), want, "bit {bit} of byte {at}");
            }
        }
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(lanes64(&padded), want);
        assert_ne!(lanes64(&[0; 64]), lanes64(&[]));
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
