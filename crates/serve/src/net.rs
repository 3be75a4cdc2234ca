//! The serving network front end: threaded accept, keep-alive
//! connections, and the `suod-wire/1` protocol over TCP.
//!
//! PR 8/9 built a deterministic [`ScoreService`]; the network edge in
//! front of it was still a single-threaded accept loop speaking a
//! one-request-per-connection text protocol — one slow client
//! head-of-line-blocked every other client, an idle client stalled the
//! server forever, and a transient accept error took the listener down.
//! This module replaces that edge:
//!
//! * **Threaded accept** — [`serve_front`] runs a bounded pool of
//!   connection workers fed by the accept loop through a bounded
//!   hand-off queue. A full queue rejects the connection instead of
//!   growing without bound; a transient accept failure (ECONNABORTED,
//!   EMFILE, ...) is logged, counted, backed off, and survived.
//! * **Keep-alive + pipelining** — a binary-protocol client sends many
//!   framed requests over one socket; the worker drains whatever frames
//!   are already buffered (up to [`FrontConfig::max_pipeline`]), admits
//!   them **in arrival order**, then writes responses back in the same
//!   order. Scores cross as raw little-endian `f64` bits.
//! * **Timeouts everywhere** — an idle socket is closed after
//!   [`FrontConfig::idle_timeout`]; mid-frame reads and all writes get
//!   their own shorter budgets.
//! * **Admission lanes** — before `submit`, every request passes the
//!   per-client quota and priority-lane gates of
//!   [`AdmissionLanes`]; rejections are
//!   answered `busy(quota)` / `busy(lane)` without touching the service
//!   queue.
//! * **One protocol** — every connection is read as `suod-wire/1` frames
//!   from its first byte. Anything else (a CSV line, another protocol)
//!   fails framing and is answered with an in-band error frame, then
//!   closed; nothing reaches the service without passing the quota and
//!   lane gates.
//!
//! The front end is policy *around* the service, never inside it: batch
//! composition, shedding, and quarantine remain pure functions of the
//! arrival trace at the `ScoreService` boundary, so the chaos
//! determinism suites hold unchanged behind this edge.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use suod_observe::{span, Counter, Observer, SpanAttrs, Stage};

use crate::lanes::{AdmissionLanes, LaneConfig, QuotaGuard};
use crate::service::{lock_ignore_poison, ScoreOutcome, ScoreService, SubmitError, Ticket};
use crate::wire::{read_request, write_response, BusyReason, Lane, WireError, WireResponse};
use crate::{Error, Result};

/// Knobs for the network front end.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Connection workers. Each owns one connection at a time, so this
    /// bounds concurrently-served sockets.
    pub worker_threads: usize,
    /// Accepted connections that may wait for a free worker. Beyond
    /// this the acceptor closes the socket immediately (`conn_rejected`)
    /// rather than queueing without bound.
    pub max_pending_conns: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// (or a fresh connection may wait before its first byte) before
    /// the server closes it.
    pub idle_timeout: Duration,
    /// Budget for reads *inside* a frame — a client that stalls
    /// mid-payload is cut off long before `idle_timeout`.
    pub read_timeout: Duration,
    /// Budget for writing any response.
    pub write_timeout: Duration,
    /// Most requests one connection may have in flight at once; frames
    /// beyond this wait buffered in the socket until responses drain.
    pub max_pipeline: usize,
    /// Pre-`submit` admission gates (per-client quotas, priority
    /// lanes).
    pub lanes: LaneConfig,
    /// Pause after a failed `accept` before retrying, so an EMFILE
    /// storm spins the CPU at a bounded rate.
    pub accept_backoff: Duration,
    /// Consecutive accept failures tolerated before the front end gives
    /// up and reports the listener dead.
    pub max_accept_failures: usize,
    /// Stop after this many accepted connections (`0` = serve until the
    /// listener dies). Existing CLI semantics, load-bearing for tests.
    pub max_conns: usize,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            worker_threads: 4,
            max_pending_conns: 64,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_pipeline: 32,
            lanes: LaneConfig::default(),
            accept_backoff: Duration::from_millis(20),
            max_accept_failures: 64,
            max_conns: 0,
        }
    }
}

impl FrontConfig {
    fn validate(&self) -> Result<()> {
        if self.worker_threads == 0 {
            return Err(Error::Config("worker_threads must be >= 1".into()));
        }
        if self.max_pending_conns == 0 {
            return Err(Error::Config("max_pending_conns must be >= 1".into()));
        }
        if self.max_pipeline == 0 {
            return Err(Error::Config("max_pipeline must be >= 1".into()));
        }
        if self.idle_timeout.is_zero() || self.read_timeout.is_zero() {
            return Err(Error::Config("timeouts must be non-zero".into()));
        }
        self.lanes.validate().map_err(Error::Config)?;
        Ok(())
    }
}

/// What the front end did over one [`serve_front`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontReport {
    /// TCP connections accepted (including later-rejected ones).
    pub conns_accepted: u64,
    /// Connections closed unserved because the hand-off queue was full.
    pub conns_rejected: u64,
    /// Connections closed by the idle timeout.
    pub conns_idle_closed: u64,
    /// Accept-loop failures survived via log + backoff.
    pub accept_retries: u64,
    /// Binary `suod-wire/1` requests decoded.
    pub wire_requests: u64,
    /// Responses answered with scores.
    pub responses_ok: u64,
    /// Responses answered `busy` because the service queue was full.
    pub busy_queue: u64,
    /// Responses answered `busy` by the per-client quota gate.
    pub busy_quota: u64,
    /// Responses answered `busy` by the priority-lane gate.
    pub busy_lane: u64,
    /// Responses answered `shed` (deadline expired at assembly).
    pub responses_shed: u64,
    /// Responses answered `error`.
    pub responses_error: u64,
}

impl std::fmt::Display for FrontReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "front: {} connections ({} rejected, {} idle-closed, {} accept retries), \
             {} wire requests ({} ok, {} busy [queue {} / quota {} / lane {}], \
             {} shed, {} error)",
            self.conns_accepted,
            self.conns_rejected,
            self.conns_idle_closed,
            self.accept_retries,
            self.wire_requests,
            self.responses_ok,
            self.busy_queue + self.busy_quota + self.busy_lane,
            self.busy_queue,
            self.busy_quota,
            self.busy_lane,
            self.responses_shed,
            self.responses_error,
        )
    }
}

/// Shared lock-free tallies the workers update as they serve.
#[derive(Default)]
struct FrontStats {
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_idle_closed: AtomicU64,
    accept_retries: AtomicU64,
    wire_requests: AtomicU64,
    responses_ok: AtomicU64,
    busy_queue: AtomicU64,
    busy_quota: AtomicU64,
    busy_lane: AtomicU64,
    responses_shed: AtomicU64,
    responses_error: AtomicU64,
}

impl FrontStats {
    fn snapshot(&self) -> FrontReport {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FrontReport {
            conns_accepted: get(&self.conns_accepted),
            conns_rejected: get(&self.conns_rejected),
            conns_idle_closed: get(&self.conns_idle_closed),
            accept_retries: get(&self.accept_retries),
            wire_requests: get(&self.wire_requests),
            responses_ok: get(&self.responses_ok),
            busy_queue: get(&self.busy_queue),
            busy_quota: get(&self.busy_quota),
            busy_lane: get(&self.busy_lane),
            responses_shed: get(&self.responses_shed),
            responses_error: get(&self.responses_error),
        }
    }
}

/// Bounded accept→worker hand-off queue.
struct Handoff {
    queue: Mutex<HandoffState>,
    ready: Condvar,
}

struct HandoffState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl Handoff {
    fn new() -> Self {
        Handoff {
            queue: Mutex::new(HandoffState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// `false` when the queue is at capacity (caller rejects the
    /// connection).
    fn push(&self, stream: TcpStream, cap: usize) -> bool {
        let mut state = lock_ignore_poison(&self.queue);
        if state.conns.len() >= cap {
            return false;
        }
        state.conns.push_back(stream);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = lock_ignore_poison(&self.queue);
        loop {
            if let Some(stream) = state.conns.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    fn close(&self) {
        lock_ignore_poison(&self.queue).closed = true;
        self.ready.notify_all();
    }
}

/// Runs the front end on `listener` until [`FrontConfig::max_conns`]
/// connections have been accepted (or forever when `0`), serving every
/// connection through `service`. Blocks the calling thread; worker
/// threads are scoped inside the call.
///
/// # Errors
///
/// [`Error::Config`] for invalid knobs; [`Error::Front`] only when
/// `accept` fails [`FrontConfig::max_accept_failures`] times in a row —
/// transient failures are logged, counted (`accept_retry`), backed off,
/// and survived.
pub fn serve_front(
    listener: &TcpListener,
    service: &ScoreService,
    config: &FrontConfig,
    observer: &Arc<dyn Observer>,
) -> Result<FrontReport> {
    config.validate()?;
    let lanes = AdmissionLanes::new(config.lanes.clone()).map_err(Error::Config)?;
    let stats = FrontStats::default();
    let handoff = Handoff::new();

    let mut accept_error: Option<String> = None;
    std::thread::scope(|scope| {
        for worker in 0..config.worker_threads {
            let handoff = &handoff;
            let stats = &stats;
            let lanes = &lanes;
            std::thread::Builder::new()
                .name(format!("suod-front-{worker}"))
                .spawn_scoped(scope, move || {
                    while let Some(stream) = handoff.pop() {
                        let _conn_span = span(&**observer, Stage::Connection, SpanAttrs::none());
                        // Per-connection I/O failures mean the client
                        // went away; they never take a worker down.
                        let _ = serve_connection(stream, service, config, lanes, observer, stats);
                    }
                })
                .expect("spawn front worker");
        }

        let mut accepted = 0usize;
        let mut consecutive_failures = 0usize;
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    consecutive_failures = 0;
                    accepted += 1;
                    stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    observer.counter(Counter::ConnAccepted, 1);
                    if !handoff.push(stream, config.max_pending_conns) {
                        // Dropping the stream closes it; the client sees
                        // a reset instead of an unbounded queue.
                        stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
                        observer.counter(Counter::ConnRejected, 1);
                    }
                    if config.max_conns > 0 && accepted >= config.max_conns {
                        break;
                    }
                }
                Err(e) => {
                    // Transient accept failures (ECONNABORTED from a
                    // client racing its own connect, EMFILE under fd
                    // pressure) must not kill the listener: log, count,
                    // back off, keep accepting.
                    consecutive_failures += 1;
                    stats.accept_retries.fetch_add(1, Ordering::Relaxed);
                    observer.counter(Counter::AcceptRetry, 1);
                    eprintln!(
                        "suod-serve: accept failed ({e}); retry {consecutive_failures}/{}",
                        config.max_accept_failures
                    );
                    if consecutive_failures >= config.max_accept_failures {
                        accept_error = Some(format!(
                            "accept failed {consecutive_failures} times in a row, last: {e}"
                        ));
                        break;
                    }
                    std::thread::sleep(config.accept_backoff);
                }
            }
        }
        handoff.close();
    });

    match accept_error {
        Some(msg) => Err(Error::Front(msg)),
        None => Ok(stats.snapshot()),
    }
}

/// One admitted-or-refused request awaiting its in-order response.
enum PendingReply<'a> {
    /// Admitted into the service; the quota slot is held until the
    /// response is on the wire.
    Waiting {
        id: u64,
        ticket: Ticket,
        _quota: QuotaGuard,
        _span: suod_observe::SpanGuard<'a>,
    },
    /// Decided at admission (busy/error); nothing in flight.
    Ready(WireResponse),
}

fn serve_connection(
    mut stream: TcpStream,
    service: &ScoreService,
    config: &FrontConfig,
    lanes: &AdmissionLanes,
    observer: &Arc<dyn Observer>,
    stats: &FrontStats,
) -> io::Result<()> {
    // Keep-alive request/response turnaround must not sit in Nagle's
    // buffer waiting for a delayed ACK.
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(config.write_timeout))?;
    let client = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let reader = &mut BufReader::new(stream.try_clone()?);
    let writer = &mut stream;

    // The keep-alive loop: batches of pipelined frames in, in-order
    // responses out, until the client hangs up or times out idle.
    loop {
        // --- Read one batch of pipelined requests -------------------
        // First frame of the batch: block under the idle timeout, so a
        // client that connects and sends nothing is closed instead of
        // pinning this worker forever.
        writer.set_read_timeout(Some(config.idle_timeout))?;
        let head = match read_request(reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()), // clean keep-alive close
            Err(e) if e.is_timeout() => {
                stats.conns_idle_closed.fetch_add(1, Ordering::Relaxed);
                observer.counter(Counter::ConnIdleClosed, 1);
                return Ok(());
            }
            Err(e) => return close_malformed(writer, stats, e),
        };

        // Further frames already sitting in the buffer are decoded now,
        // before any response is written, so a client that pipelines
        // K frames in one write gets deterministic in-order admission.
        // A frame split mid-buffer finishes under the (short) read
        // timeout rather than the idle one.
        writer.set_read_timeout(Some(config.read_timeout))?;
        let mut batch = vec![head];
        while batch.len() < config.max_pipeline && !reader.buffer().is_empty() {
            match read_request(reader) {
                Ok(Some(request)) => batch.push(request),
                Ok(None) => break,
                Err(e) => return close_malformed(writer, stats, e),
            }
        }

        // --- Admit in arrival order ---------------------------------
        let mut pending: Vec<PendingReply<'_>> = Vec::with_capacity(batch.len());
        for request in batch {
            stats.wire_requests.fetch_add(1, Ordering::Relaxed);
            observer.counter(Counter::WireRequests, 1);
            let request_span = span(&**observer, Stage::WireRequest, SpanAttrs::none());
            let gate = lanes.admit(
                &client,
                request.lane,
                service.queue_depth(),
                service.queue_capacity(),
            );
            let quota = match gate {
                Ok(guard) => guard,
                Err(reason) => {
                    observer.counter(
                        match reason {
                            BusyReason::Quota => Counter::QuotaRejected,
                            _ => Counter::LaneRejected,
                        },
                        1,
                    );
                    pending.push(PendingReply::Ready(WireResponse::Busy {
                        id: request.id,
                        capacity: service.queue_capacity() as u32,
                        reason,
                    }));
                    continue;
                }
            };
            let submitted = match request.deadline_ms {
                Some(deadline) => service.submit_with_deadline(request.rows, Some(deadline)),
                None => service.submit(request.rows),
            };
            match submitted {
                Ok(ticket) => pending.push(PendingReply::Waiting {
                    id: request.id,
                    ticket,
                    _quota: quota,
                    _span: request_span,
                }),
                Err(SubmitError::Busy { capacity }) => {
                    pending.push(PendingReply::Ready(WireResponse::Busy {
                        id: request.id,
                        capacity: capacity as u32,
                        reason: BusyReason::Queue,
                    }))
                }
                Err(e) => pending.push(PendingReply::Ready(WireResponse::Error {
                    id: request.id,
                    message: e.to_string(),
                })),
            }
        }

        // --- Respond in the same order ------------------------------
        for reply in pending {
            let response = match reply {
                PendingReply::Ready(response) => response,
                PendingReply::Waiting { id, ticket, .. } => match ticket.wait() {
                    ScoreOutcome::Scored(batch) => WireResponse::Ok {
                        id,
                        scores: batch.combined,
                        healthy_models: batch.healthy_models as u32,
                        total_models: batch.total_models as u32,
                        latency_ms: batch.latency_ms,
                    },
                    ScoreOutcome::Shed {
                        waited_ms,
                        deadline_ms,
                    } => WireResponse::Shed {
                        id,
                        waited_ms,
                        deadline_ms,
                    },
                    ScoreOutcome::Failed(message) => WireResponse::Error { id, message },
                },
            };
            count_response(stats, &response);
            write_response(writer, &response)?;
        }
        writer.flush()?;
    }
}

/// Answers a malformed binary stream: best-effort error frame (id 0 —
/// the framing fault means no request id can be trusted), then close.
fn close_malformed(writer: &mut TcpStream, stats: &FrontStats, e: WireError) -> io::Result<()> {
    stats.responses_error.fetch_add(1, Ordering::Relaxed);
    let _ = write_response(
        writer,
        &WireResponse::Error {
            id: 0,
            message: e.to_string(),
        },
    );
    Ok(())
}

fn count_response(stats: &FrontStats, response: &WireResponse) {
    match response {
        WireResponse::Ok { .. } => stats.responses_ok.fetch_add(1, Ordering::Relaxed),
        WireResponse::Busy { reason, .. } => match reason {
            BusyReason::Queue => stats.busy_queue.fetch_add(1, Ordering::Relaxed),
            BusyReason::Quota => stats.busy_quota.fetch_add(1, Ordering::Relaxed),
            BusyReason::Lane => stats.busy_lane.fetch_add(1, Ordering::Relaxed),
        },
        WireResponse::Shed { .. } => stats.responses_shed.fetch_add(1, Ordering::Relaxed),
        WireResponse::Error { .. } => stats.responses_error.fetch_add(1, Ordering::Relaxed),
    };
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// A keep-alive `suod-wire/1` client: one socket, many requests.
///
/// [`score`](Self::score) is the simple call-response form;
/// [`submit`](Self::submit) + [`read_response`](Self::read_response)
/// pipeline several frames before draining replies.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl WireClient {
    /// Connects to a `serve --listen` front end.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    /// Sets the client-side read timeout (how long to wait for a
    /// response before giving up).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Writes one request frame without waiting for the reply; returns
    /// the request id to match against [`read_response`](Self::read_response).
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn submit(
        &mut self,
        rows: &suod_linalg::Matrix,
        lane: Lane,
        deadline_ms: Option<u64>,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        crate::wire::write_request(
            &mut self.writer,
            &crate::wire::WireRequest {
                id,
                lane,
                deadline_ms,
                rows: rows.clone(),
            },
        )?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Reads the next response frame. `Ok(None)` when the server closed
    /// the connection cleanly.
    ///
    /// # Errors
    ///
    /// See [`read_request`] for the conditions.
    pub fn read_response(&mut self) -> std::result::Result<Option<WireResponse>, WireError> {
        crate::wire::read_response(&mut self.reader)
    }

    /// One request, one response (still over the keep-alive socket).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] / [`WireError::Malformed`] as in
    /// [`read_request`], plus `Malformed` if the server answered a
    /// different request id or hung up mid-exchange.
    pub fn score(
        &mut self,
        rows: &suod_linalg::Matrix,
        lane: Lane,
        deadline_ms: Option<u64>,
    ) -> std::result::Result<WireResponse, WireError> {
        let id = self.submit(rows, lane, deadline_ms)?;
        let response = self
            .read_response()?
            .ok_or_else(|| WireError::Malformed("server closed before responding".into()))?;
        if response.id() != id {
            return Err(WireError::Malformed(format!(
                "response id {} does not match request id {id}",
                response.id()
            )));
        }
        Ok(response)
    }
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_bad_knobs() {
        for config in [
            FrontConfig {
                worker_threads: 0,
                ..FrontConfig::default()
            },
            FrontConfig {
                max_pending_conns: 0,
                ..FrontConfig::default()
            },
            FrontConfig {
                max_pipeline: 0,
                ..FrontConfig::default()
            },
            FrontConfig {
                idle_timeout: Duration::ZERO,
                ..FrontConfig::default()
            },
            FrontConfig {
                lanes: LaneConfig {
                    per_client_inflight: 0,
                    normal_lane_headroom: 2.0,
                },
                ..FrontConfig::default()
            },
        ] {
            assert!(config.validate().is_err(), "{config:?} should be rejected");
        }
        FrontConfig::default().validate().unwrap();
    }

    #[test]
    fn report_display_summarizes_everything() {
        let report = FrontReport {
            conns_accepted: 5,
            conns_rejected: 1,
            conns_idle_closed: 1,
            accept_retries: 2,
            wire_requests: 10,
            responses_ok: 8,
            busy_queue: 1,
            busy_quota: 1,
            busy_lane: 1,
            responses_shed: 0,
            responses_error: 0,
        };
        let line = report.to_string();
        assert!(line.contains("5 connections"), "{line}");
        assert!(line.contains("10 wire requests"), "{line}");
        assert!(line.contains("busy [queue 1 / quota 1 / lane 1]"), "{line}");
    }

    #[test]
    fn handoff_bounds_and_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handoff = Handoff::new();
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        assert!(handoff.push(a, 1));
        assert!(!handoff.push(b, 1), "second push exceeds the bound");
        assert!(handoff.pop().is_some());
        handoff.close();
        assert!(handoff.pop().is_none(), "closed + drained returns None");
    }
}
